//! Reading and writing Berkeley Logic Interchange Format (BLIF) files.
//!
//! The MCNC-89 benchmarks the paper evaluates on are distributed as BLIF,
//! so a downstream user of this crate maps real designs by parsing them
//! here. Both readers sit on the one directive loop,
//! [`stream::ModelReader`], which yields one raw model at a time and
//! fixes each directive's outcome (parsed, skipped or rejected) once:
//!
//! - [`parse_blif`] — the combinational entry point: a check over the
//!   first model only. Sequential and hierarchical constructs (`.latch`,
//!   `.subckt`) are routed to the design reader, and a second `.model`
//!   before `.end` is an error; nothing after the first model is read.
//! - [`crate::design::read_design`] — the full-spec sequential reader:
//!   every model, `.latch` in every spec form and `.subckt` hierarchy
//!   flattening.
//!
//! `.names` functions are translated into the AND/OR node representation of
//! [`Network`]: each cube becomes an AND node over polarized literals and
//! multiple cubes are joined by an OR node; an off-set table (output column
//! `0`) yields an inverted signal.
//!
//! The reader interns every signal name once ([`stream::Symbols`]) and
//! keeps each model's fanins and cube rows in two flat arenas
//! ([`stream::Blocks`]). Elaboration ([`elaborate_blocks`]) resolves
//! nets through tables indexed by symbol id, and [`reduce_gate`] reduces
//! literal lists with reusable per-node marks instead of a hash set; the
//! only strings it makes are the network's input and output names and
//! error text.

pub(crate) mod flatten;
pub(crate) mod stream;

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::Write as _;

use crate::error::ParseBlifError;
use crate::lut::{LutCircuit, LutId, LutSource};
use crate::network::{Network, NodeId, NodeOp, Signal};
use crate::truth_table::MAX_VARS;
use stream::{Blocks, NamesBlock, Sym, Symbols};

/// Widest line the writers emit before breaking with a `\` continuation.
pub(crate) const MAX_LINE_WIDTH: usize = 80;

/// Parses the first BLIF model of `text` into a [`Network`]; nothing
/// after that model is read.
///
/// # Errors
///
/// Returns a [`ParseBlifError`] on malformed or unsupported directives,
/// undefined signals, combinational cycles, a second `.model` before
/// `.end`, a `.blackbox` model, or sequential constructs (`.latch`,
/// `.subckt`), which belong to [`crate::design::read_design`].
///
/// # Examples
///
/// ```
/// use chortle_netlist::parse_blif;
///
/// let src = "\
/// .model tiny
/// .inputs a b
/// .outputs z
/// .names a b z
/// 11 1
/// .end
/// ";
/// let net = parse_blif(src)?;
/// assert_eq!(net.num_inputs(), 2);
/// assert_eq!(net.num_gates(), 1);
/// # Ok::<(), chortle_netlist::ParseBlifError>(())
/// ```
pub fn parse_blif(text: &str) -> Result<Network, ParseBlifError> {
    let mut reader = stream::ModelReader::new(text.as_bytes());
    let Some((model, end)) = reader.next_model()? else {
        return Ok(Network::new());
    };
    let latch = model.latches.first().map(|l| (l.line, ".latch"));
    let subckt = model.subckts.first().map(|s| (s.line, ".subckt"));
    let sequential = latch.into_iter().chain(subckt).min();
    if let Some((line, first)) = sequential {
        return Err(ParseBlifError::Syntax {
            line,
            message: format!(
                "sequential construct {first} — use the design reader (read_design) \
                 for latches and hierarchy"
            ),
        });
    }
    // One model per parse: a second .model before .end means the file
    // lost its .end (or two models were concatenated), and merging their
    // blocks would build a chimera net. Nothing after .end is read.
    if let stream::ModelEnd::Model(line) = end {
        return Err(stream::duplicate_model(line));
    }
    flatten::check_top(&model)?;

    let symbols = reader.symbols();
    let (mut net, signals) = elaborate_blocks(symbols, &model.inputs, &model.logic)?;
    for &name in &model.outputs {
        net.add_output(symbols.name(name), signals.resolve(symbols, name)?);
    }
    Ok(net)
}

/// The signal each reader symbol elaborated to, indexed by [`Sym`].
pub(crate) struct Signals(Vec<Option<Signal>>);

impl Signals {
    /// The signal of `name`.
    ///
    /// # Errors
    ///
    /// [`ParseBlifError::UndefinedSignal`] when nothing defines `name`.
    pub(crate) fn resolve(&self, symbols: &Symbols, name: Sym) -> Result<Signal, ParseBlifError> {
        self.0[name as usize]
            .ok_or_else(|| ParseBlifError::UndefinedSignal(symbols.name(name).to_owned()))
    }
}

/// Elaborates `.names` blocks over the given primary inputs into a
/// [`Network`], returning the network and every symbol's signal so
/// callers can resolve outputs (and, for sequential designs, latch data
/// nets). Every table is indexed by [`Sym`]; strings are only made for
/// input names and error text.
pub(crate) fn elaborate_blocks(
    symbols: &Symbols,
    inputs: &[Sym],
    logic: &Blocks,
) -> Result<(Network, Signals), ParseBlifError> {
    let mut net = Network::new();
    let mut signals: Vec<Option<Signal>> = vec![None; symbols.len()];
    for &name in inputs {
        let id = net.add_input(symbols.name(name));
        signals[name as usize] = Some(Signal::new(id));
    }

    // Index blocks by output for dependency-driven elaboration. A block
    // may not redefine an input: readers of that net would see one
    // definition or the other depending on elaboration order.
    const UNDEFINED: u32 = u32::MAX;
    let mut by_output: Vec<u32> = vec![UNDEFINED; symbols.len()];
    for (i, b) in logic.list.iter().enumerate() {
        let out = b.output as usize;
        if signals[out].is_some() || by_output[out] != UNDEFINED {
            return Err(ParseBlifError::Syntax {
                line: b.line(),
                message: format!("signal {:?} defined twice", symbols.name(b.output)),
            });
        }
        by_output[out] = i as u32;
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let blocks = &logic.list;
    let mut marks = vec![Mark::White; blocks.len()];
    let mut synth = Synthesizer::default();
    // Iterative DFS elaboration so deep netlists do not overflow the stack.
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..blocks.len() {
        if marks[root] != Mark::White {
            continue;
        }
        stack.push((root, 0));
        while let Some(&mut (i, ref mut child)) = stack.last_mut() {
            if marks[i] == Mark::Black {
                stack.pop();
                continue;
            }
            marks[i] = Mark::Grey;
            let block = &blocks[i];
            let deps = logic.inputs(block);
            if *child < deps.len() {
                let dep = deps[*child];
                *child += 1;
                if signals[dep as usize].is_some() {
                    continue;
                }
                match by_output[dep as usize] {
                    UNDEFINED => {
                        return Err(ParseBlifError::UndefinedSignal(
                            symbols.name(dep).to_owned(),
                        ))
                    }
                    j => {
                        let j = j as usize;
                        if marks[j] == Mark::Grey {
                            return Err(ParseBlifError::Syntax {
                                line: block.line(),
                                message: format!(
                                    "combinational cycle through {:?}",
                                    symbols.name(dep)
                                ),
                            });
                        }
                        if marks[j] == Mark::White {
                            stack.push((j, 0));
                        }
                    }
                }
            } else {
                let sig = synth.block(logic, block, &mut net, &signals);
                signals[block.output as usize] = Some(sig);
                marks[i] = Mark::Black;
                stack.pop();
            }
        }
    }

    Ok((net, Signals(signals)))
}

/// Scratch buffers [`Synthesizer::block`] reuses from block to block.
#[derive(Default)]
struct Synthesizer {
    fanins: Vec<Signal>,
    literals: Vec<Signal>,
    cubes: Vec<Signal>,
    marks: LiteralMarks,
}

impl Synthesizer {
    /// Builds the AND/OR structure for one `.names` block whose fanins
    /// are all elaborated; returns the signal of the block's output.
    fn block(
        &mut self,
        logic: &Blocks,
        block: &NamesBlock,
        net: &mut Network,
        signals: &[Option<Signal>],
    ) -> Signal {
        let inputs = logic.inputs(block);
        // Constant blocks: `.names z` with zero or one `1` rows.
        if inputs.is_empty() {
            let value = block.has_rows() && block.on_set;
            return Signal::new(net.add_const(value));
        }
        if !block.has_rows() {
            // No rows: constant 0.
            return Signal::new(net.add_const(false));
        }
        self.fanins.clear();
        self.fanins.extend(
            inputs
                .iter()
                .map(|&name| signals[name as usize].expect("fanins elaborate first")),
        );

        self.cubes.clear();
        for cube in logic.rows(block) {
            self.literals.clear();
            for (&c, &fanin) in cube.iter().zip(&self.fanins) {
                match c {
                    b'1' => self.literals.push(fanin),
                    b'0' => self.literals.push(!fanin),
                    _ => {}
                }
            }
            let sig = if self.literals.is_empty() {
                // A fully don't-care cube: the function is constant true.
                Signal::new(net.add_const(true))
            } else {
                reduce_gate(net, NodeOp::And, &mut self.literals, &mut self.marks)
            };
            self.cubes.push(sig);
        }
        let result = reduce_gate(net, NodeOp::Or, &mut self.cubes, &mut self.marks);
        if block.on_set {
            result
        } else {
            !result
        }
    }
}

/// Per-node polarity marks that [`reduce_gate`] and
/// `Network::simplified` reuse across calls. An entry is
/// `(call, polarities seen)` and counts only when its stamp is the
/// current call's, so no call clears the table.
#[derive(Debug, Default)]
pub(crate) struct LiteralMarks {
    seen: Vec<(u32, u8)>,
    call: u32,
}

impl LiteralMarks {
    /// Removes repeated literals from `literals`, keeping first
    /// occurrences in order, and returns whether a contradictory pair
    /// `x, !x` remains. `nodes` bounds the node indices the literals
    /// refer to. Linear in the number of literals.
    pub(crate) fn retain_distinct(&mut self, literals: &mut Vec<Signal>, nodes: usize) -> bool {
        self.call = self.call.wrapping_add(1);
        if self.call == 0 {
            // The stamps wrapped: forget every old mark.
            self.seen.fill((0, 0));
            self.call = 1;
        }
        if self.seen.len() < nodes {
            self.seen.resize(nodes, (0, 0));
        }
        let call = self.call;
        let mut contradictory = false;
        literals.retain(|s| {
            let entry = &mut self.seen[s.node().index()];
            if entry.0 != call {
                *entry = (call, 0);
            }
            let polarity = 1u8 << u8::from(s.is_inverted());
            if entry.1 & polarity != 0 {
                return false;
            }
            entry.1 |= polarity;
            contradictory |= entry.1 == 0b11;
            true
        });
        contradictory
    }
}

/// Builds an AND/OR gate over a literal list, after removing duplicates
/// (keeping first occurrences in order) and reducing degenerate cases: a
/// contradictory pair `x, !x` makes an AND constant false and an OR
/// constant true; a single remaining literal is returned as-is. Linear
/// in the number of literals.
pub(crate) fn reduce_gate(
    net: &mut Network,
    op: NodeOp,
    literals: &mut Vec<Signal>,
    marks: &mut LiteralMarks,
) -> Signal {
    if marks.retain_distinct(literals, net.len()) {
        return Signal::new(net.add_const(op == NodeOp::Or));
    }
    match literals.len() {
        0 => Signal::new(net.add_const(op == NodeOp::And)),
        1 => literals[0],
        _ => Signal::new(net.add_gate(op, literals.clone())),
    }
}

/// Appends a whitespace-tokenized directive line, breaking lines longer
/// than [`MAX_LINE_WIDTH`] with `\` continuations at token boundaries.
/// Lines at or under the limit are written verbatim, so existing short
/// output is byte-identical to the unwrapped writer.
pub(crate) fn push_wrapped(out: &mut String, line: &str) {
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

/// Serializes a network as a BLIF model named `model`.
///
/// Every gate becomes a `.names` block; AND gates emit a single cube, OR
/// gates one single-literal cube per fanin. Unnamed nodes are named
/// `n<index>`, with `_` appended where that equals a user net name.
/// Directive lines wider than 80 columns are broken with `\`
/// continuations.
///
/// # Examples
///
/// ```
/// use chortle_netlist::{parse_blif, write_blif};
///
/// let src = ".model m\n.inputs a b\n.outputs z\n.names a b z\n1- 1\n-1 1\n.end\n";
/// let net = parse_blif(src)?;
/// let round_tripped = parse_blif(&write_blif(&net, "m"))?;
/// assert_eq!(round_tripped.num_outputs(), 1);
/// # Ok::<(), chortle_netlist::ParseBlifError>(())
/// ```
pub fn write_blif(network: &Network, model: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".model {model}");
    let sinks = network
        .outputs()
        .iter()
        .map(|o| (o.name.as_str(), o.signal));
    let names = net_names(network, sinks);
    let mut line = String::from(".inputs");
    for &id in network.inputs() {
        let _ = write!(line, " {}", names[id.index()]);
    }
    push_wrapped(&mut out, &line);
    line.clear();
    line.push_str(".outputs");
    for o in network.outputs() {
        let _ = write!(line, " {}", o.name);
    }
    push_wrapped(&mut out, &line);

    write_gate_blocks(&mut out, network, &names);
    // Output polarity buffers: when the output signal is inverted or the
    // output name differs from the driving node name, emit a buffer block.
    for o in network.outputs() {
        write_buffer_block(&mut out, &names[o.signal.node().index()], &o.name, o.signal);
    }
    let _ = writeln!(out, ".end");
    out
}

/// A node's BLIF net name: its own name, or the generated `n<index>`.
pub(crate) fn net_name(network: &Network, id: NodeId) -> Cow<'_, str> {
    match network.node(id).name() {
        Some(name) => Cow::Borrowed(name),
        None => Cow::Owned(format!("n{}", id.index())),
    }
}

/// [`net_name`] for every node, with one change that keeps the text
/// parseable: a generated name that equals a user net name — a named
/// node, or a sink (output or latch D net) other than an unnamed node's
/// own non-inverted signal under that name — gets `_` appended until it
/// is free.
/// Without such a collision the names are exactly [`net_name`]'s.
pub(crate) fn net_names<'a>(
    network: &'a Network,
    sinks: impl Iterator<Item = (&'a str, Signal)>,
) -> Vec<String> {
    let mut taken: HashSet<&str> = network.nodes().filter_map(|(_, n)| n.name()).collect();
    for (name, signal) in sinks {
        // Such a sink needs no buffer block, so its name stays the node's.
        let own = !signal.is_inverted() && net_name(network, signal.node()) == name;
        if !own {
            taken.insert(name);
        }
    }
    network
        .nodes()
        .map(|(id, node)| match node.name() {
            Some(name) => name.to_owned(),
            None => fresh(format!("n{}", id.index()), &taken),
        })
        .collect()
}

/// `name`, with `_` appended while it equals a name in `taken`.
fn fresh(mut name: String, taken: &HashSet<&str>) -> String {
    while taken.contains(name.as_str()) {
        name.push('_');
    }
    name
}

/// Emits one `.names` block per gate or constant node, using `names` for
/// node naming. Shared between the combinational and sequential writers.
pub(crate) fn write_gate_blocks(out: &mut String, network: &Network, names: &[String]) {
    let mut line = String::new();
    for (id, node) in network.nodes() {
        match node.op() {
            NodeOp::Input => {}
            NodeOp::Const(v) => {
                let _ = writeln!(out, ".names {}", names[id.index()]);
                if v {
                    let _ = writeln!(out, "1");
                }
            }
            NodeOp::And => {
                line.clear();
                line.push_str(".names");
                for s in node.fanins() {
                    let _ = write!(line, " {}", names[s.node().index()]);
                }
                let _ = write!(line, " {}", names[id.index()]);
                push_wrapped(out, &line);
                for s in node.fanins() {
                    let _ = write!(out, "{}", if s.is_inverted() { '0' } else { '1' });
                }
                let _ = writeln!(out, " 1");
            }
            NodeOp::Or => {
                line.clear();
                line.push_str(".names");
                for s in node.fanins() {
                    let _ = write!(line, " {}", names[s.node().index()]);
                }
                let _ = write!(line, " {}", names[id.index()]);
                push_wrapped(out, &line);
                for (i, s) in node.fanins().iter().enumerate() {
                    for j in 0..node.fanins().len() {
                        let _ = write!(
                            out,
                            "{}",
                            if i == j {
                                if s.is_inverted() {
                                    '0'
                                } else {
                                    '1'
                                }
                            } else {
                                '-'
                            }
                        );
                    }
                    let _ = writeln!(out, " 1");
                }
            }
        }
    }
}

/// Emits a polarity buffer `.names drv name` when the sink `name` is not
/// literally the non-inverted driver node; a no-op otherwise.
pub(crate) fn write_buffer_block(out: &mut String, drv: &str, name: &str, signal: Signal) {
    if name != drv || signal.is_inverted() {
        let mut line = String::new();
        let _ = write!(line, ".names {drv} {name}");
        push_wrapped(out, &line);
        let _ = writeln!(out, "{} 1", if signal.is_inverted() { '0' } else { '1' });
    }
}

/// Serializes a mapped lookup-table circuit as BLIF (each LUT becomes a
/// `.names` block listing its on-set minterms).
///
/// `network` supplies the primary-input and output names. LUTs are named
/// `lut<i>` and constants `const<v>`, with `_` appended where that equals
/// an input or output name. Directive lines wider than 80 columns are
/// broken with `\` continuations.
pub fn write_lut_blif(network: &Network, circuit: &LutCircuit, model: &str) -> String {
    let mut out = String::new();
    out.push_str(".model ");
    out.push_str(model);
    out.push('\n');
    let mut line = String::from(".inputs");
    for &id in network.inputs() {
        line.push(' ');
        push_net_name(&mut line, network, id);
    }
    push_wrapped(&mut out, &line);
    line.clear();
    line.push_str(".outputs");
    for o in circuit.outputs() {
        line.push(' ');
        line.push_str(&o.name);
    }
    push_wrapped(&mut out, &line);

    // Generated LUT and constant names step aside for user net names.
    let inputs = network
        .inputs()
        .iter()
        .filter_map(|&id| network.node(id).name());
    let taken: HashSet<&str> = inputs
        .chain(circuit.outputs().iter().map(|o| o.name.as_str()))
        .collect();
    // Only a user name starting with `lut` can push a LUT name aside;
    // without one, every LUT name is written straight from its index.
    let luts: Option<Vec<String>> = taken.iter().any(|n| n.starts_with("lut")).then(|| {
        (0..circuit.luts().len())
            .map(|i| fresh(format!("lut{i}"), &taken))
            .collect()
    });
    let consts = [false, true].map(|v| fresh(format!("const{}", v as u8), &taken));
    let src_name = |out: &mut String, s: LutSource| match s {
        LutSource::Input(id) => push_net_name(out, network, id),
        LutSource::Lut(id) => match &luts {
            Some(names) => out.push_str(&names[id.index()]),
            None => {
                out.push_str("lut");
                push_decimal(out, id.index());
            }
        },
        LutSource::Const(v) => out.push_str(&consts[v as usize]),
    };
    write_lut_blocks(&mut out, circuit, src_name);
    for o in circuit.outputs() {
        line.clear();
        line.push_str(".names ");
        src_name(&mut line, o.source);
        line.push(' ');
        line.push_str(&o.name);
        push_wrapped(&mut out, &line);
        out.push_str(if o.inverted { "0 1\n" } else { "1 1\n" });
    }
    out.push_str(".end\n");
    out
}

/// Appends [`net_name`] of `id` to `out`.
pub(crate) fn push_net_name(out: &mut String, network: &Network, id: NodeId) {
    match network.node(id).name() {
        Some(name) => out.push_str(name),
        None => {
            out.push('n');
            push_decimal(out, id.index());
        }
    }
}

/// Appends `n` in decimal to `out`.
pub(crate) fn push_decimal(out: &mut String, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Emits the constants `circuit` uses and one `.names` block per LUT
/// listing its on-set minterms. `src` appends the name of a LUT source
/// to a line, and LUT `i` is defined under the name of `LutSource::Lut`
/// for `i`. Names, cube characters and row ends are pushed as bytes and
/// `&str`s, and each table is scanned word by word for its on-set.
pub(crate) fn write_lut_blocks(
    out: &mut String,
    circuit: &LutCircuit,
    src: impl Fn(&mut String, LutSource),
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
            out.push_str(".names ");
            src(out, LutSource::Const(v));
            out.push_str(if v { "\n1\n" } else { "\n" });
        }
    }
    let mut line = String::new();
    let mut row = [0u8; MAX_VARS + 3];
    for (i, lut) in circuit.luts().iter().enumerate() {
        line.clear();
        line.push_str(".names");
        for &s in lut.inputs() {
            line.push(' ');
            src(&mut line, s);
        }
        line.push(' ');
        src(&mut line, LutSource::Lut(LutId::from_index(i)));
        push_wrapped(out, &line);
        let table = lut.table();
        let vars = table.num_vars();
        row[vars..vars + 3].copy_from_slice(b" 1\n");
        let row_len = vars + 3;
        let valid = if vars < 6 {
            (1u64 << (1 << vars)) - 1
        } else {
            u64::MAX
        };
        for (w, &word) in table.words().iter().enumerate() {
            let mut rest = word & valid;
            while rest != 0 {
                let bits = (w << 6) | rest.trailing_zeros() as usize;
                rest &= rest - 1;
                for (v, cell) in row[..vars].iter_mut().enumerate() {
                    *cell = b'0' + ((bits >> v) & 1) as u8;
                }
                out.push_str(std::str::from_utf8(&row[..row_len]).expect("ASCII row"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Signal;
    use crate::truth_table::TruthTable;

    #[test]
    fn parses_simple_model() {
        let src = "\
# a comment
.model test
.inputs a b c
.outputs z
.names a b t
11 1
.names t c z
1- 1
-1 1
.end
";
        let net = parse_blif(src).expect("parses");
        net.validate().expect("valid");
        assert_eq!(net.num_inputs(), 3);
        assert_eq!(net.num_outputs(), 1);
        let f = net.signal_function(net.outputs()[0].signal).expect("small");
        // z = (a & b) | c
        for bits in 0..8u32 {
            let (a, b, c) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            assert_eq!(f.eval(bits), (a && b) || c);
        }
    }

    #[test]
    fn handles_out_of_order_definitions() {
        let src = "\
.model ooo
.inputs a b
.outputs z
.names t a z
11 1
.names b t
0 1
.end
";
        let net = parse_blif(src).expect("parses");
        let f = net.signal_function(net.outputs()[0].signal).unwrap();
        for bits in 0..4u32 {
            let (a, b) = (bits & 1 == 1, bits & 2 == 2);
            assert_eq!(f.eval(bits), !b && a);
        }
    }

    #[test]
    fn off_set_rows_invert() {
        let src = "\
.model off
.inputs a b
.outputs z
.names a b z
11 0
.end
";
        let net = parse_blif(src).expect("parses");
        let f = net.signal_function(net.outputs()[0].signal).unwrap();
        // z = NOT(a AND b)
        for bits in 0..4u32 {
            let (a, b) = (bits & 1 == 1, bits & 2 == 2);
            assert_eq!(f.eval(bits), !(a && b));
        }
    }

    #[test]
    fn constant_blocks() {
        let src = ".model c\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.end\n";
        let net = parse_blif(src).expect("parses");
        assert!(net
            .signal_function(net.outputs()[0].signal)
            .unwrap()
            .is_true());
        assert!(net
            .signal_function(net.outputs()[1].signal)
            .unwrap()
            .is_false());
    }

    #[test]
    fn detects_cycles() {
        let src = "\
.model cyc
.inputs a
.outputs z
.names z a t
11 1
.names t z
1 1
.end
";
        let err = parse_blif(src).unwrap_err();
        assert!(matches!(err, ParseBlifError::Syntax { .. }), "{err}");
    }

    #[test]
    fn detects_undefined_signal() {
        let src = ".model u\n.inputs a\n.outputs z\n.names a ghost z\n11 1\n.end\n";
        let err = parse_blif(src).unwrap_err();
        assert_eq!(err, ParseBlifError::UndefinedSignal("ghost".into()));
    }

    #[test]
    fn a_block_may_not_redefine_an_input() {
        assert_syntax_error(
            ".model m\n.inputs a b\n.outputs z\n.names b a\n0 1\n.names a z\n1 1\n.end\n",
            "signal \"a\" defined twice",
            4,
        );
    }

    #[test]
    fn rejects_latches() {
        let src = ".model l\n.inputs a\n.outputs z\n.latch a z re clk 0\n.end\n";
        let err = parse_blif(src).unwrap_err();
        // The rejection points combinational callers at the design reader.
        assert!(err.to_string().contains("read_design"), "{err}");
    }

    /// Asserts `src` fails with a [`ParseBlifError::Syntax`] whose
    /// message contains `needle` and names `line` — servers surface
    /// these verbatim, so both coordinates matter.
    fn assert_syntax_error(src: &str, needle: &str, want_line: usize) {
        match parse_blif(src).unwrap_err() {
            ParseBlifError::Syntax { line, message } => {
                assert!(
                    message.contains(needle),
                    "message {message:?} vs {needle:?}"
                );
                assert_eq!(line, want_line, "error line for {needle:?}");
            }
            other => panic!("expected a syntax error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_names_directive_is_rejected() {
        assert_syntax_error(
            ".model t\n.inputs a\n.outputs z\n.names\n.end\n",
            "at least an output signal",
            4,
        );
        // A cube row truncated before its output column.
        assert_syntax_error(
            ".model t\n.inputs a b\n.outputs z\n.names a b z\n11\n.end\n",
            "missing the output column",
            5,
        );
    }

    #[test]
    fn duplicate_model_is_rejected() {
        assert_syntax_error(
            ".model one\n.inputs a\n.outputs z\n.names a z\n1 1\n.model two\n.end\n",
            "duplicate .model",
            6,
        );
        // After .end a second model is skipped, not merged — unchanged.
        let tail = ".model one\n.inputs a\n.outputs z\n.names a z\n1 1\n.end\n.model two\n";
        let net = parse_blif(tail).expect("models after .end are ignored");
        assert_eq!(net.num_inputs(), 1);
    }

    #[test]
    fn garbage_cover_lines_are_rejected() {
        let wrap = |cover: &str| {
            format!(".model g\n.inputs a b\n.outputs z\n.names a b z\n{cover}\n.end\n")
        };
        assert_syntax_error(&wrap("1x 1"), "invalid cube character", 5);
        assert_syntax_error(&wrap("11 2"), "invalid output column", 5);
        assert_syntax_error(&wrap("111 1"), "columns but .names has", 5);
        assert_syntax_error(&wrap("11 1\n00 0"), "mixed on-set and off-set", 6);
        // A cover row with no block to belong to.
        assert_syntax_error(
            ".model g\n.inputs a\n.outputs z\n11 1\n.names a z\n1 1\n.end\n",
            "outside a .names block",
            4,
        );
    }

    #[test]
    fn continuation_lines() {
        let src = ".model k\n.inputs a \\\nb\n.outputs z\n.names a b z\n11 1\n.end\n";
        let net = parse_blif(src).expect("parses");
        assert_eq!(net.num_inputs(), 2);
    }

    #[test]
    fn roundtrip_preserves_function() {
        let src = "\
.model rt
.inputs a b c d
.outputs x y
.names a b t1
10 1
01 1
.names t1 c x
11 1
.names c d y
00 0
.end
";
        let net = parse_blif(src).expect("parses");
        let text = write_blif(&net, "rt");
        let net2 = parse_blif(&text).expect("round trip parses");
        for (o1, o2) in net.outputs().iter().zip(net2.outputs()) {
            assert_eq!(o1.name, o2.name);
            let f1 = net.signal_function(o1.signal).unwrap();
            let f2 = net2.signal_function(o2.signal).unwrap();
            assert_eq!(f1, f2, "output {} function mismatch", o1.name);
        }
    }

    #[test]
    fn writes_inverted_output_buffer() {
        let mut net = Network::new();
        let a = net.add_input("a");
        net.add_output("z", Signal::inverted(a));
        let text = write_blif(&net, "inv");
        let net2 = parse_blif(&text).expect("parses");
        let f = net2.signal_function(net2.outputs()[0].signal).unwrap();
        assert!(!f.eval(1));
        assert!(f.eval(0));
    }

    #[test]
    fn generated_lut_names_step_aside_for_user_names() {
        let mut net = Network::new();
        let a = net.add_input("lut0");
        let b = net.add_input("b");
        let mut circuit = LutCircuit::new(2);
        let and = TruthTable::var(2, 0).and(&TruthTable::var(2, 1));
        let l0 = circuit
            .add_lut(vec![LutSource::Input(a), LutSource::Input(b)], and.clone())
            .unwrap();
        let l1 = circuit
            .add_lut(vec![LutSource::Lut(l0), LutSource::Input(b)], and.clone())
            .unwrap();
        let l2 = circuit
            .add_lut(vec![LutSource::Lut(l1), LutSource::Const(true)], and)
            .unwrap();
        circuit.add_output("lut1", LutSource::Lut(l1), false);
        circuit.add_output("z", LutSource::Lut(l2), true);
        let text = write_lut_blif(&net, &circuit, "m");
        assert_eq!(
            text,
            ".model m\n.inputs lut0 b\n.outputs lut1 z\n.names const1\n1\n\
             .names lut0 b lut0_\n11 1\n.names lut0_ b lut1_\n11 1\n\
             .names lut1_ const1 lut2\n11 1\n.names lut1_ lut1\n1 1\n\
             .names lut2 z\n0 1\n.end\n"
        );
    }

    #[test]
    fn short_lines_are_not_wrapped() {
        let mut out = String::new();
        push_wrapped(&mut out, ".inputs a b c");
        assert_eq!(out, ".inputs a b c\n");
    }

    #[test]
    fn wide_directive_lines_get_continuations() {
        // 40 six-character names blow well past 80 columns.
        let names: Vec<String> = (0..40).map(|i| format!("sig{i:03}")).collect();
        let mut net = Network::new();
        for n in &names {
            net.add_input(n.clone());
        }
        let ids: Vec<_> = net.inputs().to_vec();
        let sig = Signal::new(net.add_gate(
            NodeOp::And,
            ids.iter().map(|&id| Signal::new(id)).collect::<Vec<_>>(),
        ));
        net.add_output("wide", sig);
        let text = write_blif(&net, "wide");
        for line in text.lines() {
            assert!(line.len() <= MAX_LINE_WIDTH, "line too wide: {line:?}");
        }
        assert!(text.contains('\\'), "expected continuations in {text:?}");
        // The wrapped text must parse back to the same function.
        let net2 = parse_blif(&text).expect("wrapped output parses");
        assert_eq!(net2.num_inputs(), 40);
        assert_eq!(net2.num_outputs(), 1);
    }
}
