//! Cover construction: turning the DP decisions into an actual circuit of
//! K-input lookup tables (Section 3.1.2 and Figure 6 of the paper).
//!
//! Each mapped tree node becomes a *root region*: the sub-tree of logic
//! covered by one LUT. Walking the recorded `F` choices reconstructs, for
//! every LUT, an expression over its input slots; evaluating that
//! expression once over truth-table words yields the LUT's truth table.
//! Children used with allotment `ui = 1` contribute a wire from their own
//! root LUT; children with `ui ≥ 2` have their root region inlined (the
//! "elimination" of the inner root lookup table shown in Figure 6c);
//! intermediate-node blocks become separate LUTs feeding one wire.

use chortle_netlist::{LutCircuit, LutError, LutSource, Network, NodeId, NodeOp, TruthTable};

use crate::dp::{Choice, TreeDp};
use crate::map::MappedTree;
use crate::tree::{Tree, TreeChild, PT_VAR_MASKS};

/// An expression over the input slots of one LUT under construction.
#[derive(Clone, Debug)]
enum Expr {
    /// Input slot `index`, possibly inverted.
    Slot { index: usize, inverted: bool },
    /// AND/OR over sub-expressions, possibly inverted at the output.
    Gate {
        op: NodeOp,
        inverted: bool,
        parts: Vec<Expr>,
    },
}

impl Expr {
    /// The expression's truth table over at most six slots, as one word:
    /// bit `b` is the value on the assignment whose bit `i` is slot `i`.
    fn eval_word(&self) -> u64 {
        let (v, inverted) = match self {
            Expr::Slot { index, inverted } => (PT_VAR_MASKS[*index], *inverted),
            Expr::Gate {
                op,
                inverted,
                parts,
            } => {
                let v = match op {
                    NodeOp::And => parts.iter().fold(u64::MAX, |v, p| v & p.eval_word()),
                    NodeOp::Or => parts.iter().fold(0, |v, p| v | p.eval_word()),
                    _ => unreachable!("expressions contain gates only"),
                };
                (v, *inverted)
            }
        };
        if inverted {
            !v
        } else {
            v
        }
    }

    /// The expression's truth table over `vars` slots, for tables wider
    /// than one word.
    fn eval_table(&self, vars: usize) -> TruthTable {
        let (t, inverted) = match self {
            Expr::Slot { index, inverted } => (TruthTable::var(vars, *index), *inverted),
            Expr::Gate {
                op,
                inverted,
                parts,
            } => {
                let tables = parts.iter().map(|p| p.eval_table(vars));
                let t = match op {
                    NodeOp::And => tables.fold(TruthTable::constant(vars, true), |t, p| t.and(&p)),
                    NodeOp::Or => tables.fold(TruthTable::constant(vars, false), |t, p| t.or(&p)),
                    _ => unreachable!("expressions contain gates only"),
                };
                (t, *inverted)
            }
        };
        if inverted {
            t.not()
        } else {
            t
        }
    }

    fn invert(self, flip: bool) -> Expr {
        if !flip {
            return self;
        }
        match self {
            Expr::Slot { index, inverted } => Expr::Slot {
                index,
                inverted: !inverted,
            },
            Expr::Gate {
                op,
                inverted,
                parts,
            } => Expr::Gate {
                op,
                inverted: !inverted,
                parts,
            },
        }
    }
}

/// Shared state while emitting a tree's LUTs.
pub(crate) struct CoverBuilder<'a> {
    pub tree: &'a Tree,
    pub dp: &'a TreeDp,
    /// Resolves a leaf's source-network node to a circuit source.
    pub leaf_source: &'a dyn Fn(NodeId) -> LutSource,
    pub circuit: &'a mut LutCircuit,
}

/// What a finished [`Walk`] hands back.
#[derive(Clone, Copy)]
enum Return {
    /// The tree's root LUT: the emission result.
    Root,
    /// A LUT of its own, read by the parent through a (possibly
    /// inverted) wire.
    Wire { inverted: bool },
    /// A child root region absorbed into the parent's LUT (Figure 6c:
    /// the inner root LUT is eliminated).
    Absorb { inverted: bool },
}

/// One node's `F` decisions being walked: the children of `set` still to
/// place, with `u` inputs left, and the operands produced so far.
struct Walk {
    node: usize,
    set: u32,
    u: usize,
    parts: Vec<Expr>,
    ret: Return,
}

impl CoverBuilder<'_> {
    /// Emits the full mapping of the tree; returns the root LUT's source.
    ///
    /// The recurrence's reconstruction nests once per tree level, so it
    /// keeps its path on explicit stacks — one [`Walk`] per region under
    /// construction and one slot list per open LUT — and a tree as deep as
    /// the network costs heap, not call stack. LUTs are added in the
    /// order a depth-first emission finishes them.
    ///
    /// # Errors
    ///
    /// Propagates [`LutError`] from circuit construction (which indicates
    /// an internal inconsistency between DP cost and reconstruction).
    pub fn emit_tree(&mut self) -> Result<LutSource, LutError> {
        let k = self.dp.k;
        let mut slots: Vec<Vec<LutSource>> = vec![Vec::new()];
        let mut walks = vec![self.region(self.tree.root_index(), k, Return::Root)];
        loop {
            let walk = walks.last_mut().expect("the root walk returns");
            if walk.set == 0 {
                debug_assert_eq!(walk.u, 0, "utilization must be fully consumed");
                let walk = walks.pop().expect("just inspected");
                let expr = Expr::Gate {
                    op: self.tree.nodes[walk.node].op,
                    inverted: false,
                    parts: walk.parts,
                };
                let (src, inverted) = match walk.ret {
                    Return::Absorb { inverted } => {
                        let parent = walks.last_mut().expect("absorbed regions have a parent");
                        parent.parts.push(expr.invert(inverted));
                        continue;
                    }
                    Return::Root => {
                        let lut = slots.pop().expect("one slot list per open LUT");
                        return add_lut(self.circuit, lut, &expr);
                    }
                    Return::Wire { inverted } => {
                        let lut = slots.pop().expect("one slot list per open LUT");
                        (add_lut(self.circuit, lut, &expr)?, inverted)
                    }
                };
                let parent = walks.last_mut().expect("wired LUTs have a parent");
                let lut = slots.last_mut().expect("the parent's LUT is open");
                parent.parts.push(Expr::Slot {
                    index: lut.len(),
                    inverted,
                });
                lut.push(src);
                continue;
            }
            let (node, set, u) = (walk.node, walk.set, walk.u);
            let i = set.trailing_zeros() as usize;
            match self.dp.fchoice_at(node, set, u) {
                Choice::None => {
                    unreachable!("reconstruction reached an infeasible state (set={set:b}, u={u})")
                }
                Choice::Singleton { w } => {
                    let w = w as usize;
                    walk.set &= !(1u32 << i);
                    walk.u -= w;
                    match self.tree.nodes[node].children[i] {
                        TreeChild::Leaf(sig) => {
                            let lut = slots.last_mut().expect("the walk's LUT is open");
                            walk.parts.push(Expr::Slot {
                                index: lut.len(),
                                inverted: sig.is_inverted(),
                            });
                            lut.push((self.leaf_source)(sig.node()));
                        }
                        TreeChild::Node { index, inverted } if w == 1 => {
                            slots.push(Vec::new());
                            walks.push(self.region(index, k, Return::Wire { inverted }));
                        }
                        TreeChild::Node { index, inverted } => {
                            walks.push(self.region(index, w, Return::Absorb { inverted }));
                        }
                    }
                }
                Choice::Group { group } => {
                    // The intermediate node over `group` is a LUT of its
                    // own, feeding one wire.
                    walk.set &= !group;
                    walk.u -= 1;
                    let u = self.dp.ndbest_u(node, group);
                    debug_assert!(u >= 2);
                    slots.push(Vec::new());
                    walks.push(Walk {
                        node,
                        set: group,
                        u: u as usize,
                        parts: Vec::new(),
                        ret: Return::Wire { inverted: false },
                    });
                }
            }
        }
    }

    /// The walk building the root region of `minmap(node, w)`.
    fn region(&self, node: usize, w: usize, ret: Return) -> Walk {
        let u = self.dp.node_best_u(node, w);
        debug_assert!(u >= 2, "node regions use at least two inputs");
        Walk {
            node,
            set: (1u32 << self.dp.fanin(node)) - 1,
            u: u as usize,
            parts: Vec::new(),
            ret,
        }
    }
}

/// Computes the truth table of `expr` over `slots` and adds the LUT to
/// `circuit`. The expression is evaluated once over whole truth-table
/// words, not once per input assignment.
fn add_lut(
    circuit: &mut LutCircuit,
    slots: Vec<LutSource>,
    expr: &Expr,
) -> Result<LutSource, LutError> {
    let vars = slots.len();
    let table = if vars <= PT_VAR_MASKS.len() {
        TruthTable::from_words(vars, &[expr.eval_word()])
    } else {
        expr.eval_table(vars)
    };
    let id = circuit.add_lut(slots, table)?;
    Ok(LutSource::Lut(id))
}

/// Emits a tree that fits one LUT (see `sched::single_lut_depth`) as
/// that LUT: every node is absorbed, and leaves become slots in
/// depth-first, child-index order — the order the DP reconstruction in
/// [`CoverBuilder::emit_tree`] visits them, so the LUT is byte-identical
/// to the one the DP would have emitted.
pub(crate) fn emit_single_lut(
    tree: &Tree,
    leaf_source: &dyn Fn(NodeId) -> LutSource,
    circuit: &mut LutCircuit,
) -> Result<LutSource, LutError> {
    // Recursion depth is bounded by the node count, which is below the
    // leaf count and hence below K.
    fn expr_of(
        tree: &Tree,
        node: usize,
        leaf_source: &dyn Fn(NodeId) -> LutSource,
        slots: &mut Vec<LutSource>,
    ) -> Expr {
        let node = &tree.nodes[node];
        let parts = node
            .children
            .iter()
            .map(|child| match *child {
                TreeChild::Leaf(sig) => {
                    slots.push(leaf_source(sig.node()));
                    Expr::Slot {
                        index: slots.len() - 1,
                        inverted: sig.is_inverted(),
                    }
                }
                TreeChild::Node { index, inverted } => {
                    expr_of(tree, index, leaf_source, slots).invert(inverted)
                }
            })
            .collect();
        Expr::Gate {
            op: node.op,
            inverted: false,
            parts,
        }
    }
    let mut slots = Vec::new();
    let expr = expr_of(tree, tree.root_index(), leaf_source, &mut slots);
    add_lut(circuit, slots, &expr)
}

/// Maps every tree of a forest and binds the network's outputs, producing
/// the complete LUT circuit.
///
/// `network` must be the (normal-form) network the forest was extracted
/// from. `input_source` translates the normal-form network's primary-input
/// ids into the [`LutSource::Input`] ids the caller wants the circuit to
/// reference (e.g. the original, pre-simplification network's input ids).
///
/// A [`MappedTree`]'s DP solution may be shared with other trees of the
/// same shape: reconstruction reads only node indices, child masks and
/// utilizations from the solution, while leaf *signals* come from the
/// concrete tree — which is why replayed solutions emit correct circuits.
/// A tree without a solution fits one LUT and is emitted as one.
pub(crate) fn emit_forest(
    network: &Network,
    trees: &[MappedTree],
    input_source: &dyn Fn(NodeId) -> LutSource,
    k: usize,
) -> Result<LutCircuit, LutError> {
    let mut circuit = LutCircuit::new(k);
    // The root LUT of every tree emitted so far, indexed by root node.
    let mut root_luts: Vec<Option<LutSource>> = vec![None; network.len()];
    for m in trees {
        let tree = &m.tree;
        let root = tree.root;
        let leaf_source = |id: NodeId| -> LutSource {
            match network.node(id).op() {
                NodeOp::Input => input_source(id),
                NodeOp::Const(v) => LutSource::Const(v),
                NodeOp::And | NodeOp::Or => root_luts[id.index()]
                    .expect("forest is topologically ordered: leaf tree emitted first"),
            }
        };
        let src = match &m.result.sol {
            Some(sol) => CoverBuilder {
                tree,
                dp: &sol.dp,
                leaf_source: &leaf_source,
                circuit: &mut circuit,
            }
            .emit_tree()?,
            None => emit_single_lut(tree, &leaf_source, &mut circuit)?,
        };
        root_luts[root.index()] = Some(src);
    }
    for o in network.outputs() {
        let node = o.signal.node();
        let source = match network.node(node).op() {
            NodeOp::Input => input_source(node),
            NodeOp::Const(v) => LutSource::Const(v),
            NodeOp::And | NodeOp::Or => {
                root_luts[node.index()].expect("every gate output roots a tree")
            }
        };
        circuit.add_output(o.name.clone(), source, o.signal.is_inverted());
    }
    Ok(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{map_tree_solution, DpScratch, Objective};
    use crate::sched::single_lut_depth;
    use crate::tree::Forest;
    use chortle_netlist::{Signal, SplitMix64};

    /// A random fanout-free tree with `leaves` leaf occurrences drawn
    /// from fewer inputs, so some inputs feed it more than once: gates of
    /// 2..=4 fanins over a shrinking pool, a quarter of the edges
    /// inverted. Returns the network too, whose node count sizes the
    /// arrival array.
    fn random_tree(rng: &mut SplitMix64, leaves: usize) -> (Network, Tree) {
        let mut net = Network::new();
        let inputs: Vec<Signal> = (0..rng.next_range(1, leaves + 1))
            .map(|i| Signal::new(net.add_input(format!("i{i}"))))
            .collect();
        let mut pool: Vec<Signal> = (0..leaves)
            .map(|_| inputs[rng.choose_index(&inputs)])
            .collect();
        while pool.len() > 1 {
            let take = rng.next_range(2, 5.min(pool.len() + 1));
            let fanins = (0..take)
                .map(|_| {
                    let s = pool.swap_remove(rng.choose_index(&pool));
                    if rng.next_bool(1, 4) {
                        !s
                    } else {
                        s
                    }
                })
                .collect();
            let op = if rng.next_bool(1, 2) {
                NodeOp::And
            } else {
                NodeOp::Or
            };
            pool.push(Signal::new(net.add_gate(op, fanins)));
        }
        net.add_output("z", pool[0]);
        let mut forest = Forest::of(&net);
        assert_eq!(forest.trees.len(), 1, "every gate has one fanout");
        forest.canonicalize();
        let tree = forest.trees.remove(0);
        (net, tree)
    }

    #[test]
    fn the_single_lut_path_matches_the_dp() {
        // Trees with at most K leaf occurrences, random leaf depths, both
        // objectives: the DP's cover must be exactly the LUT the
        // single-LUT path emits (same slots in the same order, same
        // table) at the same root depth.
        let mut rng = SplitMix64::new(0x5116_0001);
        let mut scratch = DpScratch::new();
        for case in 0..400 {
            let k = rng.next_range(2, 9);
            let leaves = rng.next_range(2, k + 1);
            let (net, tree) = random_tree(&mut rng, leaves);
            let arrivals: Vec<u32> = (0..net.len())
                .map(|_| rng.next_range(0, 4) as u32)
                .collect();
            let depth = single_lut_depth(&tree, k, &arrivals).expect("fits one LUT");
            let source = |id: NodeId| LutSource::Input(id);
            let mut direct = LutCircuit::new(k);
            emit_single_lut(&tree, &source, &mut direct).expect("one LUT");
            for objective in [Objective::Area, Objective::Depth] {
                let leaf_depth = |id: NodeId| arrivals[id.index()];
                let sol = map_tree_solution(&tree, k, objective, &leaf_depth, &mut scratch)
                    .expect("narrow tree");
                let context = format!("case {case}, K={k}, {objective:?}");
                assert_eq!(sol.dp.tree_cost(&tree), 1, "{context}");
                assert_eq!(sol.dp.tree_depth(&tree), depth, "{context}");
                let mut by_dp = LutCircuit::new(k);
                CoverBuilder {
                    tree: &tree,
                    dp: &sol.dp,
                    leaf_source: &source,
                    circuit: &mut by_dp,
                }
                .emit_tree()
                .expect("DP cover");
                assert_eq!(by_dp, direct, "{context}");
            }
        }
    }

    #[test]
    fn trees_wider_than_k_take_the_dp() {
        let mut rng = SplitMix64::new(0x5116_0002);
        for _ in 0..100 {
            let k = rng.next_range(2, 9);
            let leaves = rng.next_range(k + 1, k + 6);
            let (net, tree) = random_tree(&mut rng, leaves);
            assert!(single_lut_depth(&tree, k, &vec![0; net.len()]).is_none());
        }
    }
}
