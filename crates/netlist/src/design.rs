//! Sequential designs: flattened BLIF netlists with registers.
//!
//! [`read_design`] is the full-spec front end: it reads every model of a
//! (possibly hierarchical, possibly sequential) BLIF file through the
//! streaming model reader that [`crate::parse_blif`] also uses, flattens
//! every `.subckt`, and produces a [`Design`] — one
//! combinational [`Network`] plus the design's [`Latch`]es. Latch outputs
//! (Q nets) become primary inputs of the combinational network and latch
//! data nets (D) are tracked as named signals, so the network stays acyclic
//! even for designs with feedback through registers.
//!
//! [`Design::clouds`] then cuts the logic at register and primary-I/O
//! boundaries into independent *combinational clouds* — the unit of
//! parallel mapping — plus trivial passthrough sinks (outputs driven
//! directly by an input or a constant) that need no mapping at all. Each
//! cloud is built gate by gate through the reader's own gate reduction,
//! so it is already the network its standalone BLIF text would parse to;
//! no text round trip is needed to reach that form.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::BufRead;

use crate::blif::{
    elaborate_blocks, net_name, net_names, push_decimal, push_net_name, push_wrapped, reduce_gate,
    stream, write_lut_blocks, LiteralMarks,
};
use crate::error::ParseBlifError;
use crate::lut::{LutCircuit, LutSource};
use crate::network::{Network, NodeId, NodeOp, Signal};

/// Byte-level statistics from one streaming parse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Non-blank logical lines after comment stripping and continuation
    /// joining.
    pub logical_lines: u64,
    /// Models read, counting an implicit `top` opened by directives
    /// before any `.model` unless it was dropped as empty.
    pub models: u64,
    /// `.subckt` instantiations seen (before flattening).
    pub subckts: u64,
    /// `.latch` directives seen (before flattening).
    pub latches: u64,
    /// `.exdc` sections skipped.
    pub exdc_blocks: u64,
    /// Body-less metadata directives skipped (`.attr`, `.param`,
    /// `.cname`, `.clock`, `.default_input_arrival`, ...).
    pub skipped_directives: u64,
    /// Longest logical line buffered, in bytes — the reader's memory
    /// high-water mark, independent of total input size.
    pub max_line_bytes: usize,
}

/// The trigger class of a `.latch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatchKind {
    /// `fe`: falling-edge triggered.
    FallingEdge,
    /// `re`: rising-edge triggered.
    RisingEdge,
    /// `ah`: active-high transparent latch.
    ActiveHigh,
    /// `al`: active-low transparent latch.
    ActiveLow,
    /// `as`: asynchronous.
    Asynchronous,
    /// The 2- and 3-token `.latch` forms carry no type.
    Unspecified,
}

impl LatchKind {
    /// The BLIF token for this kind, or `None` for [`LatchKind::Unspecified`].
    pub fn token(self) -> Option<&'static str> {
        match self {
            LatchKind::FallingEdge => Some("fe"),
            LatchKind::RisingEdge => Some("re"),
            LatchKind::ActiveHigh => Some("ah"),
            LatchKind::ActiveLow => Some("al"),
            LatchKind::Asynchronous => Some("as"),
            LatchKind::Unspecified => None,
        }
    }
}

/// A latch's initial value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatchInit {
    /// Initialized to 0.
    Zero,
    /// Initialized to 1.
    One,
    /// Don't care (spec value 2).
    DontCare,
    /// Unknown (spec value 3, the default).
    Unknown,
}

impl LatchInit {
    /// The numeric BLIF token for this initial value.
    pub fn token(self) -> char {
        match self {
            LatchInit::Zero => '0',
            LatchInit::One => '1',
            LatchInit::DontCare => '2',
            LatchInit::Unknown => '3',
        }
    }
}

/// One register of a flattened design.
#[derive(Debug, Clone)]
pub struct Latch {
    /// The data (D) signal inside the design's combinational logic.
    pub data: Signal,
    /// The net name feeding D, as written in the source.
    pub data_name: String,
    /// The latch output (Q) net name.
    pub output: String,
    /// The node id of the Q net, a primary input of the combinational
    /// network.
    pub q: NodeId,
    /// Trigger class.
    pub kind: LatchKind,
    /// Controlling clock net, or `None` for a free-running latch (`NIL`).
    pub control: Option<String>,
    /// Initial value.
    pub init: LatchInit,
}

/// A flattened sequential design: combinational logic plus registers.
#[derive(Debug, Clone)]
pub struct Design {
    name: String,
    logic: Network,
    latches: Vec<Latch>,
    /// Declared primary inputs (excludes latch Q nets).
    primary_inputs: usize,
}

impl Design {
    /// The design's model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The combinational logic. Its inputs are the design's primary inputs
    /// followed by one input per latch (the Q nets); its outputs are the
    /// design's primary outputs.
    pub fn logic(&self) -> &Network {
        &self.logic
    }

    /// The design's registers, in source order.
    pub fn latches(&self) -> &[Latch] {
        &self.latches
    }

    /// Node ids of the declared primary inputs (excluding latch Q nets).
    pub fn primary_inputs(&self) -> &[NodeId] {
        &self.logic.inputs()[..self.primary_inputs]
    }

    /// Cuts the combinational logic at register and primary-I/O boundaries
    /// into independent clouds, plus passthrough sinks driven directly by
    /// an input or a constant.
    pub fn clouds(&self) -> DesignClouds {
        cut_clouds(self)
    }
}

/// A single combinational cloud extracted from a design.
#[derive(Debug, Clone)]
pub struct Cloud {
    /// The cloud as a standalone network: inputs are boundary nets
    /// (primary inputs or latch Q nets), outputs are the sink nets it
    /// drives (primary outputs or latch D nets), all keeping their design
    /// net names. It is built the way [`crate::parse_blif`] elaborates
    /// `.names` blocks, so it equals the network that
    /// [`crate::write_blif`]'s text of it parses back to.
    pub network: Network,
    /// Gate count in the cloud — a work estimate for scheduling.
    pub gates: usize,
}

/// How a passthrough sink is driven.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PassthroughDriver {
    /// Driven by a boundary input net, possibly inverted.
    Input {
        /// The driving input's net name.
        name: String,
        /// Whether the sink sees the inverted input.
        inverted: bool,
    },
    /// Driven by a constant (inversion already folded in).
    Const(bool),
}

/// A sink (primary output or latch D net) that needs no mapping because an
/// input or constant drives it directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Passthrough {
    /// The sink net name.
    pub name: String,
    /// What drives it.
    pub driver: PassthroughDriver,
}

/// The result of cutting a design at register boundaries.
#[derive(Debug, Clone)]
pub struct DesignClouds {
    /// Independent combinational clouds, in deterministic order.
    pub clouds: Vec<Cloud>,
    /// Sinks that bypass mapping entirely.
    pub passthroughs: Vec<Passthrough>,
}

/// Reads a full-spec BLIF design from a buffered reader, streaming one
/// logical line at a time, and flattens any hierarchy.
///
/// # Errors
///
/// Returns a line-precise [`ParseBlifError`] on malformed syntax, unknown
/// or recursive `.subckt` models, undefined signals, or combinational
/// cycles (cycles through latches are fine — that is what latches are for).
///
/// # Examples
///
/// ```
/// use chortle_netlist::read_design;
///
/// let src = "\
/// .model counter
/// .inputs clk
/// .outputs q
/// .latch d q re clk 0
/// .names q d
/// 0 1
/// .end
/// ";
/// let (design, stats) = read_design(src.as_bytes())?;
/// assert_eq!(design.latches().len(), 1);
/// assert_eq!(stats.latches, 1);
/// # Ok::<(), chortle_netlist::ParseBlifError>(())
/// ```
pub fn read_design<R: BufRead>(reader: R) -> Result<(Design, ParseStats), ParseBlifError> {
    let (mut raw, stats) = stream::read_raw_design(reader)?;
    let flat = crate::blif::flatten::flatten(&raw.models, &mut raw.symbols)?;
    let design = build_design(flat, &raw.symbols)?;
    Ok((design, stats))
}

/// Convenience wrapper over [`read_design`] for in-memory text.
///
/// # Errors
///
/// Same as [`read_design`].
pub fn parse_design(text: &str) -> Result<(Design, ParseStats), ParseBlifError> {
    read_design(text.as_bytes())
}

fn build_design(
    flat: crate::blif::flatten::FlatModel,
    symbols: &stream::Symbols,
) -> Result<Design, ParseBlifError> {
    // Latch Q nets join the primary inputs of the combinational network —
    // this breaks every sequential feedback path, so the combinational
    // cycle detector only fires on genuine combinational loops.
    let mut defined = vec![false; symbols.len()];
    for &input in &flat.inputs {
        defined[input as usize] = true;
    }
    for block in &flat.logic.list {
        defined[block.output as usize] = true;
    }
    let mut all_inputs = flat.inputs.clone();
    for latch in &flat.latches {
        if std::mem::replace(&mut defined[latch.output as usize], true) {
            return Err(ParseBlifError::Syntax {
                line: latch.line,
                message: format!(
                    "latch output {:?} defined twice",
                    symbols.name(latch.output)
                ),
            });
        }
        all_inputs.push(latch.output);
    }

    let (mut logic, signals) = elaborate_blocks(symbols, &all_inputs, &flat.logic)?;
    for &output in &flat.outputs {
        logic.add_output(symbols.name(output), signals.resolve(symbols, output)?);
    }

    let primary_inputs = flat.inputs.len();
    let latches: Vec<Latch> = flat
        .latches
        .into_iter()
        .enumerate()
        .map(|(i, raw)| {
            Ok(Latch {
                data: signals.resolve(symbols, raw.input)?,
                data_name: symbols.name(raw.input).to_owned(),
                q: logic.inputs()[primary_inputs + i],
                output: symbols.name(raw.output).to_owned(),
                kind: raw.kind,
                control: raw.control.map(|c| symbols.name(c).to_owned()),
                init: raw.init,
            })
        })
        .collect::<Result<_, ParseBlifError>>()?;

    Ok(Design {
        name: flat.name,
        logic,
        latches,
        primary_inputs,
    })
}

fn cut_clouds(design: &Design) -> DesignClouds {
    let logic = &design.logic;
    let n = logic.len();

    // Union-find over gate nodes: two gates sharing an edge belong to the
    // same cloud; inputs and constants are boundaries, not members.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for (id, node) in logic.nodes() {
        if !node.op().is_gate() {
            continue;
        }
        for fanin in node.fanins() {
            let dep = fanin.node();
            if logic.node(dep).op().is_gate() {
                let a = find(&mut parent, id.index() as u32);
                let b = find(&mut parent, dep.index() as u32);
                if a != b {
                    parent[a as usize] = b;
                }
            }
        }
    }

    // Sinks: primary outputs first, then latch data nets, deduplicated by
    // name (a net can be both an output and a D input).
    let mut sinks: Vec<(String, Signal)> = Vec::new();
    let mut seen: HashMap<String, ()> = HashMap::new();
    for o in logic.outputs() {
        if seen.insert(o.name.clone(), ()).is_none() {
            sinks.push((o.name.clone(), o.signal));
        }
    }
    for latch in &design.latches {
        if seen.insert(latch.data_name.clone(), ()).is_none() {
            sinks.push((latch.data_name.clone(), latch.data));
        }
    }

    // Number components in deterministic (first-sink) order.
    let mut component_of_root: HashMap<u32, usize> = HashMap::new();
    let mut component_sinks: Vec<Vec<(String, Signal)>> = Vec::new();
    let mut passthroughs: Vec<Passthrough> = Vec::new();
    for (name, signal) in sinks {
        let node = signal.node();
        match logic.node(node).op() {
            NodeOp::Input => {
                passthroughs.push(Passthrough {
                    name,
                    driver: PassthroughDriver::Input {
                        name: net_name(logic, node).into_owned(),
                        inverted: signal.is_inverted(),
                    },
                });
            }
            NodeOp::Const(v) => {
                passthroughs.push(Passthrough {
                    name,
                    driver: PassthroughDriver::Const(v ^ signal.is_inverted()),
                });
            }
            _ => {
                let root = find(&mut parent, node.index() as u32);
                let idx = *component_of_root.entry(root).or_insert_with(|| {
                    component_sinks.push(Vec::new());
                    component_sinks.len() - 1
                });
                component_sinks[idx].push((name, signal));
            }
        }
    }

    // Assign every gate to its component index (if that component has
    // sinks; sink-less gate islands are dead logic and are dropped).
    let mut clouds = Vec::with_capacity(component_sinks.len());
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); component_sinks.len()];
    for (id, node) in logic.nodes() {
        if !node.op().is_gate() {
            continue;
        }
        let root = find(&mut parent, id.index() as u32);
        if let Some(&idx) = component_of_root.get(&root) {
            members[idx].push(id);
        }
    }

    for (idx, sinks) in component_sinks.into_iter().enumerate() {
        clouds.push(extract_cloud(logic, &members[idx], &sinks));
    }
    DesignClouds {
        clouds,
        passthroughs,
    }
}

/// Copies one component's gates into a standalone network with boundary
/// inputs and named sink outputs.
fn extract_cloud(logic: &Network, members: &[NodeId], sinks: &[(String, Signal)]) -> Cloud {
    let mut net = Network::new();
    let mut map: HashMap<NodeId, Signal> = HashMap::new();
    let mut marks = LiteralMarks::default();
    let mut fanins: Vec<Signal> = Vec::new();
    let mut consts: [Option<Signal>; 2] = [None, None];

    // Boundary inputs in the design's input order for determinism.
    let mut used_inputs: HashMap<NodeId, ()> = HashMap::new();
    for &id in members {
        for fanin in logic.node(id).fanins() {
            if logic.node(fanin.node()).op() == NodeOp::Input {
                used_inputs.insert(fanin.node(), ());
            }
        }
    }
    for &id in logic.inputs() {
        if used_inputs.contains_key(&id) {
            let name = net_name(logic, id).into_owned();
            map.insert(id, Signal::new(net.add_input(name)));
        }
    }

    // Members are in ascending node order, which is topological. Each
    // gate goes through the reader's own reduction, so the cloud is the
    // network its standalone BLIF text parses back to.
    for &id in members {
        let node = logic.node(id);
        fanins.clear();
        fanins.extend(node.fanins().iter().map(|s| {
            let translated = match logic.node(s.node()).op() {
                NodeOp::Const(v) => {
                    *consts[v as usize].get_or_insert_with(|| Signal::new(net.add_const(v)))
                }
                _ => map[&s.node()],
            };
            if s.is_inverted() {
                !translated
            } else {
                translated
            }
        }));
        map.insert(
            id,
            reduce_gate(&mut net, node.op(), &mut fanins, &mut marks),
        );
    }

    for (name, signal) in sinks {
        let translated = map[&signal.node()];
        let sig = if signal.is_inverted() {
            !translated
        } else {
            translated
        };
        net.add_output(name.clone(), sig);
    }
    Cloud {
        gates: members.len(),
        network: net,
    }
}

/// Serializes a design back to sequential BLIF: `.latch` lines preserved,
/// combinational logic as `.names` blocks. The output round-trips through
/// [`read_design`].
pub fn write_design_blif(design: &Design) -> String {
    let logic = design.logic();
    let mut out = String::new();
    write_design_header(&mut out, design);
    let outputs = logic.outputs().iter().map(|o| (o.name.as_str(), o.signal));
    let latches = design.latches().iter();
    let names = net_names(
        logic,
        outputs.chain(latches.map(|l| (l.data_name.as_str(), l.data))),
    );
    crate::blif::write_gate_blocks(&mut out, logic, &names);
    // A net may be both a primary output and a latch D (or feed two
    // latches); define each sink name at most once.
    let mut emitted: HashMap<&str, ()> = HashMap::new();
    for o in logic.outputs() {
        if emitted.insert(&o.name, ()).is_none() {
            crate::blif::write_buffer_block(
                &mut out,
                &names[o.signal.node().index()],
                &o.name,
                o.signal,
            );
        }
    }
    // Latch D nets are defined the same way primary outputs are: a
    // polarity buffer from the driving node, skipped when the D net *is*
    // the non-inverted driver (e.g. a latch fed straight from an input).
    for latch in design.latches() {
        if emitted.insert(&latch.data_name, ()).is_none() {
            crate::blif::write_buffer_block(
                &mut out,
                &names[latch.data.node().index()],
                &latch.data_name,
                latch.data,
            );
        }
    }
    let _ = writeln!(out, ".end");
    out
}

/// Serializes a *mapped* design: the original `.latch` lines plus one
/// `.names` block per lookup table of every mapped cloud. `mapped[i]`
/// is cloud `i`'s post-mapping pair — the network its circuit's
/// [`LutSource::Input`] ids refer to, and the LUT circuit itself (its
/// outputs must be named after cloud `i`'s sink nets).
///
/// Internal LUT nets get a generated prefix chosen so it collides with
/// no net name in the design or the clouds; sink and boundary nets keep
/// their design names, so the output round-trips through
/// [`read_design`].
///
/// # Panics
///
/// Panics if `mapped.len()` differs from `cut.clouds.len()`.
pub fn write_mapped_design_blif(
    design: &Design,
    cut: &DesignClouds,
    mapped: &[(&Network, &LutCircuit)],
) -> String {
    assert_eq!(
        mapped.len(),
        cut.clouds.len(),
        "one mapped circuit per cloud"
    );
    let logic = design.logic();

    // A prefix no real net starts with, so generated LUT net names can
    // never capture a design net.
    let mut base = String::from("$m");
    let mut all_names: Vec<&str> = Vec::new();
    for (_, node) in logic.nodes() {
        if let Some(name) = node.name() {
            all_names.push(name);
        }
    }
    for o in logic.outputs() {
        all_names.push(&o.name);
    }
    for latch in design.latches() {
        all_names.push(&latch.data_name);
        all_names.push(&latch.output);
        if let Some(c) = &latch.control {
            all_names.push(c);
        }
    }
    for p in &cut.passthroughs {
        all_names.push(&p.name);
        if let PassthroughDriver::Input { name, .. } = &p.driver {
            all_names.push(name);
        }
    }
    for (network, circuit) in mapped {
        for (_, node) in network.nodes() {
            if let Some(name) = node.name() {
                all_names.push(name);
            }
        }
        for o in circuit.outputs() {
            all_names.push(&o.name);
        }
    }
    while all_names.iter().any(|n| n.starts_with(base.as_str())) {
        base.push('$');
    }

    let mut out = String::new();
    write_design_header(&mut out, design);
    let mut line = String::new();
    for p in &cut.passthroughs {
        match &p.driver {
            PassthroughDriver::Input { name, inverted } => {
                if p.name != *name || *inverted {
                    line.clear();
                    let _ = write!(line, ".names {name} {}", p.name);
                    push_wrapped(&mut out, &line);
                    let _ = writeln!(out, "{} 1", if *inverted { '0' } else { '1' });
                }
            }
            PassthroughDriver::Const(v) => {
                let _ = writeln!(out, ".names {}", p.name);
                if *v {
                    let _ = writeln!(out, "1");
                }
            }
        }
    }

    for (i, (network, circuit)) in mapped.iter().enumerate() {
        let src_name = |out: &mut String, s: LutSource| match s {
            LutSource::Input(id) => push_net_name(out, network, id),
            LutSource::Lut(id) => {
                out.push_str(&base);
                push_decimal(out, i);
                out.push('n');
                push_decimal(out, id.index());
            }
            LutSource::Const(v) => {
                out.push_str(&base);
                push_decimal(out, i);
                out.push_str(if v { "c1" } else { "c0" });
            }
        };
        write_lut_blocks(&mut out, circuit, src_name);
        for o in circuit.outputs() {
            line.clear();
            line.push_str(".names ");
            src_name(&mut line, o.source);
            if line[".names ".len()..] != o.name || o.inverted {
                line.push(' ');
                line.push_str(&o.name);
                push_wrapped(&mut out, &line);
                out.push_str(if o.inverted { "0 1\n" } else { "1 1\n" });
            }
        }
    }
    let _ = writeln!(out, ".end");
    out
}

/// Writes the `.model`, `.inputs`, `.outputs` and `.latch` lines both
/// design writers open with.
fn write_design_header(out: &mut String, design: &Design) {
    let logic = design.logic();
    let _ = writeln!(out, ".model {}", design.name());
    let mut line = String::from(".inputs");
    for &id in design.primary_inputs() {
        let _ = write!(line, " {}", net_name(logic, id));
    }
    push_wrapped(out, &line);
    line.clear();
    line.push_str(".outputs");
    for o in logic.outputs() {
        let _ = write!(line, " {}", o.name);
    }
    push_wrapped(out, &line);
    for latch in design.latches() {
        line.clear();
        let _ = write!(line, ".latch {} {}", latch.data_name, latch.output);
        if let Some(kind) = latch.kind.token() {
            let _ = write!(
                line,
                " {kind} {}",
                latch.control.as_deref().unwrap_or("NIL")
            );
        }
        let _ = write!(line, " {}", latch.init.token());
        push_wrapped(out, &line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth_table::TruthTable;

    #[test]
    fn counter_roundtrip() {
        let src = "\
.model counter
.inputs clk en
.outputs q
.latch d q re clk 0
.names q en d
10 1
01 1
.end
";
        let (design, stats) = parse_design(src).expect("parses");
        assert_eq!(design.name(), "counter");
        assert_eq!(design.latches().len(), 1);
        assert_eq!(design.primary_inputs().len(), 2);
        assert_eq!(stats.latches, 1);
        assert_eq!(stats.models, 1);

        let text = write_design_blif(&design);
        let (again, _) = parse_design(&text).expect("round trips");
        assert_eq!(again.latches().len(), 1);
        assert_eq!(again.latches()[0].kind, LatchKind::RisingEdge);
        assert_eq!(again.latches()[0].init, LatchInit::Zero);
        assert_eq!(again.latches()[0].control.as_deref(), Some("clk"));
        // XOR of q and en, both ways.
        let f1 = design
            .logic()
            .signal_function(design.latches()[0].data)
            .unwrap();
        let f2 = again
            .logic()
            .signal_function(again.latches()[0].data)
            .unwrap();
        assert_eq!(f1, f2);
    }

    #[test]
    fn clouds_cut_at_latch_boundaries() {
        // Two independent clouds: one feeds the latch D, one computes z
        // from the latch Q. A third sink (w, a buffered input) reduces to
        // a passthrough because a single-literal block is just a wire.
        let src = "\
.model two_clouds
.inputs a b
.outputs z w
.latch d q re clk 0
.names a b d
11 1
.names q b z
01 1
.names a w
1 1
.end
";
        let (design, _) = parse_design(src).expect("parses");
        let cut = design.clouds();
        assert_eq!(cut.clouds.len(), 2, "one cloud per register side");
        // Components are numbered by first sink: outputs (z) before latch
        // D nets (d); w collapses to an input-driven passthrough.
        let sink_names: Vec<&str> = cut
            .clouds
            .iter()
            .flat_map(|c| c.network.outputs().iter().map(|o| o.name.as_str()))
            .collect();
        assert_eq!(sink_names, vec!["z", "d"]);
        assert_eq!(cut.clouds[0].gates, 1);
        assert_eq!(cut.clouds[1].gates, 1);
        assert_eq!(
            cut.passthroughs,
            vec![Passthrough {
                name: "w".into(),
                driver: PassthroughDriver::Input {
                    name: "a".into(),
                    inverted: false,
                },
            }]
        );
        // Cloud inputs keep their design net names.
        let cloud_z = &cut.clouds[0].network;
        let names: Vec<&str> = cloud_z
            .inputs()
            .iter()
            .map(|&id| cloud_z.node(id).name().unwrap())
            .collect();
        assert_eq!(names, vec!["b", "q"]);
    }

    #[test]
    fn passthrough_sinks_bypass_mapping() {
        let src = "\
.model wires
.inputs a
.outputs w one
.latch a q re clk 0
.names w2 one
0 1
.names w w2
1 1
.names a w
1 1
.end
";
        // w is a buffered input; q's D *is* the input a (a passthrough).
        let (design, _) = parse_design(src).expect("parses");
        let cut = design.clouds();
        let pass: Vec<&str> = cut.passthroughs.iter().map(|p| p.name.as_str()).collect();
        assert!(
            pass.contains(&"a"),
            "latch D driven by the raw input: {pass:?}"
        );
    }

    #[test]
    fn hierarchical_design_flattens() {
        let src = "\
.model top
.inputs x y
.outputs s
.subckt half a=x b=y sum=s
.end
.model half
.inputs a b
.outputs sum
.names a b sum
10 1
01 1
.end
";
        let (design, stats) = parse_design(src).expect("parses");
        assert_eq!(stats.models, 2);
        assert_eq!(stats.subckts, 1);
        assert_eq!(design.logic().num_outputs(), 1);
        let f = design
            .logic()
            .signal_function(design.logic().outputs()[0].signal)
            .unwrap();
        for bits in 0..4u32 {
            let (x, y) = (bits & 1 == 1, bits & 2 == 2);
            assert_eq!(f.eval(bits), x ^ y);
        }
    }

    #[test]
    fn mapped_design_assembles_and_roundtrips() {
        let src = "\
.model two_clouds
.inputs a b
.outputs z w
.latch d q re clk 0
.names a b d
11 1
.names q b z
01 1
.names a w
1 1
.end
";
        let (design, _) = parse_design(src).expect("parses");
        let cut = design.clouds();
        // Hand-map each one-gate cloud into a single LUT named after its
        // sink: the exact shape the mapping pipeline produces.
        let circuits: Vec<LutCircuit> = cut
            .clouds
            .iter()
            .map(|cloud| {
                let net = &cloud.network;
                let o = &net.outputs()[0];
                let node = net.node(o.signal.node());
                let mut table = TruthTable::constant(2, true);
                for (v, s) in node.fanins().iter().enumerate() {
                    let var = TruthTable::var(2, v);
                    table = table.and(&if s.is_inverted() { var.not() } else { var });
                }
                let mut c = LutCircuit::new(4);
                let sources: Vec<LutSource> = node
                    .fanins()
                    .iter()
                    .map(|s| LutSource::Input(s.node()))
                    .collect();
                let l = c.add_lut(sources, table).unwrap();
                c.add_output(o.name.clone(), LutSource::Lut(l), o.signal.is_inverted());
                c
            })
            .collect();
        let pairs: Vec<(&Network, &LutCircuit)> = cut
            .clouds
            .iter()
            .zip(circuits.iter())
            .map(|(cloud, c)| (&cloud.network, c))
            .collect();
        let text = write_mapped_design_blif(&design, &cut, &pairs);
        let (again, _) = parse_design(&text).expect("round trips");
        assert_eq!(again.latches().len(), 1);
        assert_eq!(again.logic().num_outputs(), 2);
        // The latch D function survives the rewrite: d = a & b.
        let f = again
            .logic()
            .signal_function(again.latches()[0].data)
            .unwrap();
        let a_and_b = |bits: u32| (bits & 1 == 1) && (bits & 2 == 2);
        for bits in 0..4u32 {
            assert_eq!(f.eval(bits), a_and_b(bits), "bits={bits:#b}");
        }
    }

    #[test]
    fn latch_cycle_is_not_a_combinational_cycle() {
        let src = "\
.model feedback
.inputs clk
.outputs q
.latch d q re clk 1
.names q d
0 1
.end
";
        let (design, _) = parse_design(src).expect("sequential feedback is fine");
        assert_eq!(design.latches().len(), 1);
        assert_eq!(design.latches()[0].init, LatchInit::One);
    }

    #[test]
    fn duplicate_latch_output_is_rejected() {
        let src = "\
.model dup
.inputs a
.outputs z
.latch a z re clk 0
.latch a z re clk 0
.end
";
        let err = parse_design(src).unwrap_err();
        match err {
            ParseBlifError::Syntax { line, message } => {
                assert!(message.contains("defined twice"), "{message}");
                assert_eq!(line, 5);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
