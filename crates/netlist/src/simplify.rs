//! Structural network cleanup: constant folding, buffer collapsing and
//! dead-gate sweeping.
//!
//! Technology mappers assume every gate has at least two live fanins and no
//! constant inputs; [`Network::simplified`] establishes that normal form
//! without changing any output function.

use crate::blif::LiteralMarks;
use crate::network::{Network, NodeId, NodeOp, Signal};

/// A node's replacement during simplification.
#[derive(Clone, Copy, Debug)]
enum Repl {
    Signal(Signal),
    Const(bool),
}

impl Repl {
    fn apply_inversion(self, inverted: bool) -> Repl {
        match self {
            Repl::Signal(s) => Repl::Signal(s.with_inversion(s.is_inverted() ^ inverted)),
            Repl::Const(v) => Repl::Const(v ^ inverted),
        }
    }
}

impl Network {
    /// Returns a functionally identical network in mapper normal form:
    ///
    /// * constants are folded through gates,
    /// * duplicate fanins are merged and contradictory pairs (`x`, `!x`)
    ///   collapse the gate to a constant,
    /// * single-fanin gates (buffers/inverters) are replaced by wires,
    /// * gates unreachable from any primary output are removed,
    /// * all primary inputs are preserved, in order.
    ///
    /// # Examples
    ///
    /// ```
    /// use chortle_netlist::{Network, NodeOp, Signal};
    ///
    /// let mut net = Network::new();
    /// let a = net.add_input("a");
    /// let one = net.add_const(true);
    /// let g = net.add_gate(NodeOp::And, vec![a.into(), one.into()]);
    /// net.add_output("z", g.into());
    ///
    /// let simplified = net.simplified();
    /// assert_eq!(simplified.num_gates(), 0); // AND with 1 is a wire
    /// ```
    pub fn simplified(&self) -> Network {
        // Pass 1: compute replacements with folding.
        let mut repl: Vec<Repl> = Vec::with_capacity(self.len());
        let mut scratch = Network::new();
        let mut folder = Folder::default();
        // We first rebuild everything into `scratch` (keeping possibly-dead
        // gates), then sweep unreachable gates in pass 2.
        for (_, node) in self.nodes() {
            let r = match node.op() {
                NodeOp::Input => {
                    let id = scratch.add_input(node.name().unwrap_or_default().to_owned());
                    Repl::Signal(Signal::new(id))
                }
                NodeOp::Const(v) => Repl::Const(v),
                op @ (NodeOp::And | NodeOp::Or) => {
                    folder.fold(op, node.fanins(), &repl, &mut scratch)
                }
            };
            repl.push(r);
        }
        let mut outputs: Vec<(String, Repl)> = Vec::new();
        for o in self.outputs() {
            let r = repl[o.signal.node().index()].apply_inversion(o.signal.is_inverted());
            outputs.push((o.name.clone(), r));
        }

        // Pass 2: sweep gates unreachable from outputs.
        let mut live = vec![false; scratch.len()];
        let mut stack: Vec<NodeId> = outputs
            .iter()
            .filter_map(|(_, r)| match r {
                Repl::Signal(s) => Some(s.node()),
                Repl::Const(_) => None,
            })
            .collect();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut live[id.index()], true) {
                continue;
            }
            for s in scratch.node(id).fanins() {
                stack.push(s.node());
            }
        }

        let mut out = Network::new();
        let mut remap: Vec<Option<Signal>> = vec![None; scratch.len()];
        for (id, node) in scratch.nodes() {
            let keep = match node.op() {
                NodeOp::Input => true, // inputs always preserved
                _ => live[id.index()],
            };
            if !keep {
                continue;
            }
            let new_sig = match node.op() {
                NodeOp::Input => {
                    Signal::new(out.add_input(node.name().unwrap_or_default().to_owned()))
                }
                NodeOp::Const(v) => Signal::new(out.add_const(v)),
                op @ (NodeOp::And | NodeOp::Or) => {
                    let fanins = node
                        .fanins()
                        .iter()
                        .map(|s| {
                            let base = remap[s.node().index()].expect("topological order");
                            base.with_inversion(base.is_inverted() ^ s.is_inverted())
                        })
                        .collect();
                    Signal::new(out.add_gate(op, fanins))
                }
            };
            remap[id.index()] = Some(new_sig);
        }
        for (name, r) in outputs {
            match r {
                Repl::Signal(s) => {
                    let base = remap[s.node().index()].expect("live output driver");
                    out.add_output(
                        name,
                        base.with_inversion(base.is_inverted() ^ s.is_inverted()),
                    );
                }
                Repl::Const(v) => {
                    let id = out.add_const(v);
                    out.add_output(name, Signal::new(id));
                }
            }
        }
        out
    }
}

/// Scratch [`Folder::fold`] reuses from gate to gate: the folded fanin
/// list and per-node polarity marks stamped once per gate.
#[derive(Default)]
struct Folder {
    sigs: Vec<Signal>,
    marks: LiteralMarks,
}

impl Folder {
    /// Folds one gate given the replacements of its fanins; may add a
    /// gate to `scratch`.
    fn fold(
        &mut self,
        op: NodeOp,
        fanins: &[Signal],
        repl: &[Repl],
        scratch: &mut Network,
    ) -> Repl {
        let identity = op.identity();
        let sigs = &mut self.sigs;
        sigs.clear();
        for f in fanins {
            match repl[f.node().index()].apply_inversion(f.is_inverted()) {
                Repl::Const(v) => {
                    if v == identity {
                        continue; // neutral element
                    }
                    return Repl::Const(!identity); // absorbing element
                }
                Repl::Signal(s) => sigs.push(s),
            }
        }
        // Deduplicate; detect contradictions.
        if self.marks.retain_distinct(sigs, scratch.len()) {
            return Repl::Const(!identity);
        }
        match sigs.len() {
            0 => Repl::Const(identity),
            1 => Repl::Signal(sigs[0]),
            _ => Repl::Signal(Signal::new(scratch.add_gate(op, sigs.clone()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth_table::TruthTable;

    fn functions_match(a: &Network, b: &Network) {
        assert_eq!(a.num_outputs(), b.num_outputs());
        for (oa, ob) in a.outputs().iter().zip(b.outputs()) {
            let fa = a.signal_function(oa.signal).expect("small");
            let fb = b.signal_function(ob.signal).expect("small");
            assert_eq!(fa, fb, "output {}", oa.name);
        }
    }

    #[test]
    fn folds_constants_through_gates() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let zero = net.add_const(false);
        let g1 = net.add_gate(NodeOp::Or, vec![a.into(), zero.into()]); // = a
        let g2 = net.add_gate(NodeOp::And, vec![g1.into(), b.into()]);
        net.add_output("z", g2.into());

        let s = net.simplified();
        s.validate().expect("valid");
        assert_eq!(s.num_gates(), 1);
        functions_match(&net, &s);
    }

    #[test]
    fn absorbing_constant_kills_gate() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let one = net.add_const(true);
        let g = net.add_gate(NodeOp::Or, vec![a.into(), one.into()]);
        net.add_output("z", g.into());
        let s = net.simplified();
        assert_eq!(s.num_gates(), 0);
        functions_match(&net, &s);
    }

    #[test]
    fn collapses_buffer_chains() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        // A chain of single-input gates acting as buffers/inverters.
        let b1 = net.add_gate(NodeOp::And, vec![Signal::inverted(g)]);
        let b2 = net.add_gate(NodeOp::Or, vec![Signal::inverted(b1)]);
        net.add_output("z", b2.into());
        let s = net.simplified();
        assert_eq!(s.num_gates(), 1);
        functions_match(&net, &s);
    }

    #[test]
    fn sweeps_dead_gates_keeps_inputs() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let _dead = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        net.add_output("z", a.into());
        let s = net.simplified();
        assert_eq!(s.num_gates(), 0);
        assert_eq!(s.num_inputs(), 2);
        functions_match(&net, &s);
    }

    #[test]
    fn contradictory_fanins_collapse() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let buf = net.add_gate(NodeOp::Or, vec![a.into()]); // wire to a
        let g = net.add_gate(NodeOp::And, vec![Signal::inverted(buf), a.into()]);
        net.add_output("z", g.into());
        let s = net.simplified();
        let f = s.signal_function(s.outputs()[0].signal).unwrap();
        assert!(f.is_false());
    }

    #[test]
    fn constant_output_materializes() {
        let mut net = Network::new();
        let _a = net.add_input("a");
        let one = net.add_const(true);
        net.add_output("z", Signal::inverted(one));
        let s = net.simplified();
        let f = s.signal_function(s.outputs()[0].signal).unwrap();
        assert!(f.is_false());
    }

    #[test]
    fn idempotent_on_normal_form() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g1 = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        let g2 = net.add_gate(NodeOp::Or, vec![g1.into(), c.into()]);
        net.add_output("z", g2.into());
        let s1 = net.simplified();
        let s2 = s1.simplified();
        assert_eq!(s1.num_gates(), s2.num_gates());
        functions_match(&s1, &s2);
        let _ = TruthTable::constant(1, true); // silence unused import lint
    }
}
