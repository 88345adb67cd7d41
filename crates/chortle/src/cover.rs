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
                        return self.finish_lut(lut, expr);
                    }
                    Return::Wire { inverted } => {
                        let lut = slots.pop().expect("one slot list per open LUT");
                        (self.finish_lut(lut, expr)?, inverted)
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

    /// Computes the truth table of `expr` over `slots` and adds the LUT.
    /// The expression is evaluated once over whole truth-table words,
    /// not once per input assignment.
    fn finish_lut(&mut self, slots: Vec<LutSource>, expr: Expr) -> Result<LutSource, LutError> {
        let vars = slots.len();
        let table = if vars <= PT_VAR_MASKS.len() {
            TruthTable::from_words(vars, &[expr.eval_word()])
        } else {
            expr.eval_table(vars)
        };
        let id = self.circuit.add_lut(slots, table)?;
        Ok(LutSource::Lut(id))
    }
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
        let (tree, dp) = (&m.tree, &m.sol.dp);
        let root = tree.root;
        let leaf_source = |id: NodeId| -> LutSource {
            match network.node(id).op() {
                NodeOp::Input => input_source(id),
                NodeOp::Const(v) => LutSource::Const(v),
                NodeOp::And | NodeOp::Or => root_luts[id.index()]
                    .expect("forest is topologically ordered: leaf tree emitted first"),
            }
        };
        let src = {
            let mut builder = CoverBuilder {
                tree,
                dp,
                leaf_source: &leaf_source,
                circuit: &mut circuit,
            };
            builder.emit_tree()?
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
