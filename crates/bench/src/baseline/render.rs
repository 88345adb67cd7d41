//! The mapper's original normalization and LUT writer, frozen.
//!
//! [`baseline_simplified`] is `Network::simplified` with a `HashSet` per
//! folded gate (to merge duplicate fanins and find `x, !x` pairs) and a
//! `HashSet<NodeId>` live set. [`baseline_write_lut_blif`] is
//! `write_lut_blif` with every cube character and name going through
//! `write!` and one `String` per generated LUT name. `perf` times both
//! against the live code after asserting equal outputs, and
//! `tests/mapped_bytes.rs` pins the bytes they produce.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::Write as _;

use chortle_netlist::{LutCircuit, LutId, LutSource, Network, NodeId, NodeOp, Signal};

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

/// The original `Network::simplified`: constants folded, duplicate
/// fanins merged, contradictions collapsed, buffers replaced by wires,
/// dead gates swept, every primary input kept in order.
pub fn baseline_simplified(network: &Network) -> Network {
    let mut repl: Vec<Repl> = Vec::with_capacity(network.len());
    let mut scratch = Network::new();
    for (_, node) in network.nodes() {
        let r = match node.op() {
            NodeOp::Input => {
                let id = scratch.add_input(node.name().unwrap_or_default().to_owned());
                Repl::Signal(Signal::new(id))
            }
            NodeOp::Const(v) => Repl::Const(v),
            op @ (NodeOp::And | NodeOp::Or) => fold_gate(op, node.fanins(), &repl, &mut scratch),
        };
        repl.push(r);
    }
    let mut outputs: Vec<(String, Repl)> = Vec::new();
    for o in network.outputs() {
        let r = repl[o.signal.node().index()].apply_inversion(o.signal.is_inverted());
        outputs.push((o.name.clone(), r));
    }

    let mut live: HashSet<NodeId> = HashSet::new();
    let mut stack: Vec<NodeId> = outputs
        .iter()
        .filter_map(|(_, r)| match r {
            Repl::Signal(s) => Some(s.node()),
            Repl::Const(_) => None,
        })
        .collect();
    while let Some(id) = stack.pop() {
        if !live.insert(id) {
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
            NodeOp::Input => true,
            _ => live.contains(&id),
        };
        if !keep {
            continue;
        }
        let new_sig = match node.op() {
            NodeOp::Input => Signal::new(out.add_input(node.name().unwrap_or_default().to_owned())),
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

fn fold_gate(op: NodeOp, fanins: &[Signal], repl: &[Repl], scratch: &mut Network) -> Repl {
    let identity = op.identity();
    let mut sigs: Vec<Signal> = Vec::with_capacity(fanins.len());
    for f in fanins {
        match repl[f.node().index()].apply_inversion(f.is_inverted()) {
            Repl::Const(v) => {
                if v == identity {
                    continue;
                }
                return Repl::Const(!identity);
            }
            Repl::Signal(s) => sigs.push(s),
        }
    }
    let mut seen = HashSet::new();
    sigs.retain(|s| seen.insert(*s));
    if sigs.iter().any(|s| seen.contains(&!*s)) {
        return Repl::Const(!identity);
    }
    match sigs.len() {
        0 => Repl::Const(identity),
        1 => Repl::Signal(sigs[0]),
        _ => Repl::Signal(Signal::new(scratch.add_gate(op, sigs))),
    }
}

/// Widest line the writer emits before breaking with a `\` continuation.
const MAX_LINE_WIDTH: usize = 80;

fn push_wrapped(out: &mut String, line: &str) {
    if line.len() <= MAX_LINE_WIDTH {
        out.push_str(line);
        out.push('\n');
        return;
    }
    let mut width = 0usize;
    for token in line.split_whitespace() {
        if width == 0 {
            out.push_str(token);
            width = token.len();
        } else if width + 1 + token.len() + 2 <= MAX_LINE_WIDTH {
            out.push(' ');
            out.push_str(token);
            width += 1 + token.len();
        } else {
            out.push_str(" \\\n");
            out.push_str(token);
            width = token.len();
        }
    }
    out.push('\n');
}

fn net_name(network: &Network, id: NodeId) -> Cow<'_, str> {
    match network.node(id).name() {
        Some(name) => Cow::Borrowed(name),
        None => Cow::Owned(format!("n{}", id.index())),
    }
}

fn fresh(mut name: String, taken: &HashSet<&str>) -> String {
    while taken.contains(name.as_str()) {
        name.push('_');
    }
    name
}

/// The original `write_lut_blif`: the same bytes, each LUT's on-set
/// rows written through `write!` one character at a time.
pub fn baseline_write_lut_blif(network: &Network, circuit: &LutCircuit, model: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".model {model}");
    let mut line = String::from(".inputs");
    for &id in network.inputs() {
        let _ = write!(line, " {}", net_name(network, id));
    }
    push_wrapped(&mut out, &line);
    line.clear();
    line.push_str(".outputs");
    for o in circuit.outputs() {
        let _ = write!(line, " {}", o.name);
    }
    push_wrapped(&mut out, &line);

    let inputs = network
        .inputs()
        .iter()
        .filter_map(|&id| network.node(id).name());
    let taken: HashSet<&str> = inputs
        .chain(circuit.outputs().iter().map(|o| o.name.as_str()))
        .collect();
    let luts: Vec<String> = (0..circuit.luts().len())
        .map(|i| fresh(format!("lut{i}"), &taken))
        .collect();
    let consts = [false, true].map(|v| fresh(format!("const{}", v as u8), &taken));
    let src_name = |s: LutSource| match s {
        LutSource::Input(id) => net_name(network, id),
        LutSource::Lut(id) => Cow::Borrowed(luts[id.index()].as_str()),
        LutSource::Const(v) => Cow::Borrowed(consts[v as usize].as_str()),
    };
    write_lut_blocks(&mut out, circuit, src_name);
    for o in circuit.outputs() {
        line.clear();
        let _ = write!(line, ".names {} {}", src_name(o.source), o.name);
        push_wrapped(&mut out, &line);
        let _ = writeln!(out, "{} 1", if o.inverted { '0' } else { '1' });
    }
    let _ = writeln!(out, ".end");
    out
}

fn write_lut_blocks<'a>(
    out: &mut String,
    circuit: &LutCircuit,
    src: impl Fn(LutSource) -> Cow<'a, str>,
) {
    let lut_inputs = circuit.luts().iter().flat_map(|lut| lut.inputs().iter());
    let sources = lut_inputs.chain(circuit.outputs().iter().map(|o| &o.source));
    let mut used_consts = [false; 2];
    for s in sources {
        if let LutSource::Const(v) = *s {
            used_consts[v as usize] = true;
        }
    }
    for v in [false, true] {
        if used_consts[v as usize] {
            let _ = writeln!(out, ".names {}", src(LutSource::Const(v)));
            if v {
                let _ = writeln!(out, "1");
            }
        }
    }
    let mut line = String::new();
    for (i, lut) in circuit.luts().iter().enumerate() {
        line.clear();
        line.push_str(".names");
        for &s in lut.inputs() {
            let _ = write!(line, " {}", src(s));
        }
        let _ = write!(line, " {}", src(LutSource::Lut(LutId::from_index(i))));
        push_wrapped(out, &line);
        let vars = lut.table().num_vars();
        for bits in 0..(1u32 << vars) {
            if lut.table().eval(bits) {
                for v in 0..vars {
                    let _ = write!(out, "{}", (bits >> v) & 1);
                }
                let _ = writeln!(out, " 1");
            }
        }
    }
}
