//! The frozen string-keyed BLIF reader: [`baseline_parse_blif`].
//!
//! A verbatim transcription of `parse_blif` before signal interning: the
//! streaming lexer, the directive loop (first model only), one `String`
//! per token and one `Vec<u8>` per cube row, `HashMap<String, _>`
//! elaboration and a `HashSet` per reduced gate. Parse statistics, which
//! `parse_blif` never exposes, are left out. `perf` times it against
//! [`chortle_netlist::parse_blif`], and the differential tests require
//! an equal [`Network`] or an equal error on every input.

use std::collections::{HashMap, HashSet};
use std::io::BufRead;

use chortle_netlist::{LatchInit, LatchKind, Network, NodeOp, ParseBlifError, Signal};

/// Parses the first BLIF model of `text` into a [`Network`], exactly as
/// the string-keyed reader did.
///
/// # Errors
///
/// The same [`ParseBlifError`], message and line the string-keyed reader
/// returned.
pub fn baseline_parse_blif(text: &str) -> Result<Network, ParseBlifError> {
    let Some((model, end)) = ModelReader::new(text.as_bytes()).next_model()? else {
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
    if let ModelEnd::Model(line) = end {
        return Err(duplicate_model(line));
    }
    if model.blackbox {
        return Err(ParseBlifError::Syntax {
            line: model.line,
            message: format!("top model {:?} is a blackbox", model.name),
        });
    }

    let (mut net, signals) = elaborate_blocks(&model.inputs, model.blocks)?;
    for name in &model.outputs {
        let sig = signals
            .get(name)
            .copied()
            .ok_or_else(|| ParseBlifError::UndefinedSignal(name.clone()))?;
        net.add_output(name.clone(), sig);
    }
    Ok(net)
}

struct LogicalLines<R> {
    reader: R,
    physical: usize,
    raw: String,
    line: String,
}

impl<R: BufRead> LogicalLines<R> {
    fn new(reader: R) -> Self {
        LogicalLines {
            reader,
            physical: 0,
            raw: String::new(),
            line: String::new(),
        }
    }

    fn next_line(&mut self) -> Result<Option<(usize, &str)>, ParseBlifError> {
        self.line.clear();
        let mut start = 0usize;
        loop {
            self.raw.clear();
            let read = self
                .reader
                .read_line(&mut self.raw)
                .map_err(|e| ParseBlifError::Io(e.to_string()))?;
            if read == 0 {
                if self.line.trim().is_empty() {
                    return Ok(None);
                }
                return Ok(Some((start, self.line.as_str())));
            }
            self.physical += 1;
            let content = match self.raw.find('#') {
                Some(p) => &self.raw[..p],
                None => &self.raw,
            };
            let trimmed = content.trim_end();
            if self.line.is_empty() {
                start = self.physical;
            }
            if let Some(stripped) = trimmed.strip_suffix('\\') {
                self.line.push_str(stripped);
                self.line.push(' ');
            } else {
                self.line.push_str(trimmed);
                if !self.line.trim().is_empty() {
                    return Ok(Some((start, self.line.as_str())));
                }
                self.line.clear();
            }
        }
    }
}

struct NamesBlock {
    inputs: Vec<String>,
    output: String,
    cubes: Vec<Vec<u8>>,
    on_set: bool,
    line: usize,
}

fn start_names_block<'a>(
    tokens: impl Iterator<Item = &'a str>,
    line_no: usize,
) -> Result<NamesBlock, ParseBlifError> {
    let mut names: Vec<String> = tokens.map(str::to_owned).collect();
    let output = names.pop().ok_or_else(|| ParseBlifError::Syntax {
        line: line_no,
        message: ".names requires at least an output signal".into(),
    })?;
    Ok(NamesBlock {
        inputs: names,
        output,
        cubes: Vec::new(),
        on_set: true,
        line: line_no,
    })
}

fn parse_cube_row<'a>(
    block: Option<&mut NamesBlock>,
    first: &str,
    mut tokens: impl Iterator<Item = &'a str>,
    line_no: usize,
) -> Result<(), ParseBlifError> {
    let block = block.ok_or_else(|| ParseBlifError::Syntax {
        line: line_no,
        message: format!("cube row {first:?} outside a .names block"),
    })?;
    let (mask, value) = if block.inputs.is_empty() {
        (String::new(), first)
    } else {
        let v = tokens.next().ok_or_else(|| ParseBlifError::Syntax {
            line: line_no,
            message: "cube row is missing the output column".into(),
        })?;
        (first.to_owned(), v)
    };
    if mask.len() != block.inputs.len() {
        return Err(ParseBlifError::Syntax {
            line: line_no,
            message: format!(
                "cube has {} columns but .names has {} inputs",
                mask.len(),
                block.inputs.len()
            ),
        });
    }
    for c in mask.bytes() {
        if !matches!(c, b'0' | b'1' | b'-') {
            return Err(ParseBlifError::Syntax {
                line: line_no,
                message: format!("invalid cube character {:?}", c as char),
            });
        }
    }
    let on = match value {
        "1" => true,
        "0" => false,
        other => {
            return Err(ParseBlifError::Syntax {
                line: line_no,
                message: format!("invalid output column {other:?}"),
            })
        }
    };
    if block.cubes.is_empty() {
        block.on_set = on;
    } else if block.on_set != on {
        return Err(ParseBlifError::Syntax {
            line: line_no,
            message: "mixed on-set and off-set rows in one .names".into(),
        });
    }
    block.cubes.push(mask.into_bytes());
    Ok(())
}

struct RawLatch {
    line: usize,
}

struct RawSubckt {
    line: usize,
}

struct RawModel {
    name: String,
    line: usize,
    inputs: Vec<String>,
    outputs: Vec<String>,
    blocks: Vec<NamesBlock>,
    latches: Vec<RawLatch>,
    subckts: Vec<RawSubckt>,
    blackbox: bool,
}

impl RawModel {
    fn new(name: String, line: usize) -> Self {
        RawModel {
            name,
            line,
            inputs: Vec::new(),
            outputs: Vec::new(),
            blocks: Vec::new(),
            latches: Vec::new(),
            subckts: Vec::new(),
            blackbox: false,
        }
    }

    fn is_empty(&self) -> bool {
        self.inputs.is_empty()
            && self.outputs.is_empty()
            && self.blocks.is_empty()
            && self.latches.is_empty()
            && self.subckts.is_empty()
            && !self.blackbox
    }
}

fn syntax(line: usize, message: impl Into<String>) -> ParseBlifError {
    ParseBlifError::Syntax {
        line,
        message: message.into(),
    }
}

/// Validates a `.latch` line the way the string-keyed reader did; only
/// the line survives, since `parse_blif` rejects every latch.
fn parse_latch(line_no: usize, tokens: &[&str]) -> Result<RawLatch, ParseBlifError> {
    if tokens.len() < 2 {
        return Err(syntax(
            line_no,
            ".latch requires a data input and an output",
        ));
    }
    if tokens.len() > 5 {
        return Err(syntax(
            line_no,
            format!(".latch has {} tokens, expected 2 to 5", tokens.len()),
        ));
    }
    let init_tok = match tokens.len() {
        2 => None,
        3 => Some(tokens[2]),
        4 => {
            parse_latch_kind(line_no, tokens[2])?;
            None
        }
        _ => {
            parse_latch_kind(line_no, tokens[2])?;
            Some(tokens[4])
        }
    };
    let _init = match init_tok {
        None | Some("3") => LatchInit::Unknown,
        Some("0") => LatchInit::Zero,
        Some("1") => LatchInit::One,
        Some("2") => LatchInit::DontCare,
        Some(other) => {
            return Err(syntax(
                line_no,
                format!("invalid latch initial value {other:?}"),
            ))
        }
    };
    Ok(RawLatch { line: line_no })
}

fn parse_latch_kind(line_no: usize, token: &str) -> Result<LatchKind, ParseBlifError> {
    match token {
        "fe" => Ok(LatchKind::FallingEdge),
        "re" => Ok(LatchKind::RisingEdge),
        "ah" => Ok(LatchKind::ActiveHigh),
        "al" => Ok(LatchKind::ActiveLow),
        "as" => Ok(LatchKind::Asynchronous),
        other => Err(syntax(line_no, format!("invalid latch type {other:?}"))),
    }
}

fn parse_subckt<'a>(
    line_no: usize,
    mut tokens: impl Iterator<Item = &'a str>,
) -> Result<RawSubckt, ParseBlifError> {
    tokens
        .next()
        .ok_or_else(|| syntax(line_no, ".subckt requires a model name"))?;
    let mut formals: HashSet<String> = HashSet::new();
    for tok in tokens {
        let (formal, actual) = tok.split_once('=').ok_or_else(|| {
            syntax(
                line_no,
                format!("invalid .subckt connection {tok:?} (expected formal=actual)"),
            )
        })?;
        if formal.is_empty() || actual.is_empty() {
            return Err(syntax(
                line_no,
                format!("invalid .subckt connection {tok:?} (expected formal=actual)"),
            ));
        }
        if !formals.insert(formal.to_owned()) {
            return Err(syntax(
                line_no,
                format!("formal {formal:?} connected twice"),
            ));
        }
    }
    Ok(RawSubckt { line: line_no })
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ModelEnd {
    End,
    Model(usize),
    Eof,
}

struct ModelReader<R> {
    lex: LogicalLines<R>,
    pending: Option<(String, usize)>,
    names: HashSet<String>,
}

impl<R: BufRead> ModelReader<R> {
    fn new(reader: R) -> Self {
        ModelReader {
            lex: LogicalLines::new(reader),
            pending: None,
            names: HashSet::new(),
        }
    }

    fn next_model(&mut self) -> Result<Option<(RawModel, ModelEnd)>, ParseBlifError> {
        loop {
            let Some((model, end, implicit)) = self.read_model()? else {
                return Ok(None);
            };
            if !implicit {
                return Ok(Some((model, end)));
            }
            if !model.is_empty() {
                if let ModelEnd::Model(line) = end {
                    return Err(duplicate_model(line));
                }
                return Ok(Some((model, end)));
            }
            self.names.clear();
        }
    }

    fn read_model(&mut self) -> Result<Option<(RawModel, ModelEnd, bool)>, ParseBlifError> {
        let mut implicit = false;
        let mut model = match self.pending.take() {
            Some((name, line)) => Some(open_model(&mut self.names, name, line)?),
            None => None,
        };
        let mut block: Option<NamesBlock> = None;
        let mut in_exdc = false;
        let end = loop {
            let Some((line_no, line)) = self.lex.next_line()? else {
                break ModelEnd::Eof;
            };
            let mut tokens = line.split_whitespace();
            let Some(first) = tokens.next() else { continue };
            if in_exdc && first != ".end" && first != ".model" {
                continue;
            }
            if first == ".model" {
                let name = tokens.next().unwrap_or("top").to_owned();
                if model.is_some() {
                    self.pending = Some((name, line_no));
                    break ModelEnd::Model(line_no);
                }
                model = Some(open_model(&mut self.names, name, line_no)?);
                continue;
            }
            if model.is_none() && self.names.is_empty() {
                let top = open_model(&mut self.names, "top".into(), line_no)?;
                model = Some(top);
                implicit = true;
            }
            let Some(m) = model.as_mut() else {
                return Err(syntax(line_no, format!("{first:?} outside a .model block")));
            };
            match first {
                ".inputs" => m.inputs.extend(tokens.map(str::to_owned)),
                ".outputs" => m.outputs.extend(tokens.map(str::to_owned)),
                ".names" => {
                    m.blocks.extend(block.take());
                    block = Some(start_names_block(tokens, line_no)?);
                }
                ".latch" => {
                    m.blocks.extend(block.take());
                    let toks: Vec<&str> = tokens.collect();
                    m.latches.push(parse_latch(line_no, &toks)?);
                }
                ".subckt" => {
                    m.blocks.extend(block.take());
                    m.subckts.push(parse_subckt(line_no, tokens)?);
                }
                ".conn" => {
                    m.blocks.extend(block.take());
                    let toks: Vec<&str> = tokens.collect();
                    if toks.len() != 2 {
                        return Err(syntax(line_no, ".conn requires exactly two signals"));
                    }
                    m.blocks.push(NamesBlock {
                        inputs: vec![toks[0].to_owned()],
                        output: toks[1].to_owned(),
                        cubes: vec![vec![b'1']],
                        on_set: true,
                        line: line_no,
                    });
                }
                ".blackbox" => m.blackbox = true,
                ".exdc" => {
                    m.blocks.extend(block.take());
                    in_exdc = true;
                }
                ".end" => break ModelEnd::End,
                ".gate" | ".mlatch" => {
                    return Err(syntax(
                        line_no,
                        format!("unsupported construct {first} (library gates are not supported)"),
                    ));
                }
                ".start_kiss" => {
                    return Err(syntax(
                        line_no,
                        "unsupported construct .start_kiss (KISS state machines are not supported)",
                    ));
                }
                _ if first.starts_with('.') => {}
                _ => parse_cube_row(block.as_mut(), first, tokens, line_no)?,
            }
        };
        Ok(model.map(|mut m| {
            m.blocks.extend(block);
            (m, end, implicit)
        }))
    }
}

fn duplicate_model(line: usize) -> ParseBlifError {
    syntax(line, "duplicate .model before .end")
}

fn open_model(
    names: &mut HashSet<String>,
    name: String,
    line: usize,
) -> Result<RawModel, ParseBlifError> {
    if !names.insert(name.clone()) {
        return Err(syntax(line, format!("duplicate model {name:?}")));
    }
    Ok(RawModel::new(name, line))
}

fn elaborate_blocks(
    inputs: &[String],
    blocks: Vec<NamesBlock>,
) -> Result<(Network, HashMap<String, Signal>), ParseBlifError> {
    let mut net = Network::new();
    let mut signals: HashMap<String, Signal> = HashMap::new();
    for name in inputs {
        let id = net.add_input(name.clone());
        signals.insert(name.clone(), Signal::new(id));
    }

    let mut by_output: HashMap<String, usize> = HashMap::new();
    for (i, b) in blocks.iter().enumerate() {
        if signals.contains_key(&b.output) || by_output.insert(b.output.clone(), i).is_some() {
            return Err(ParseBlifError::Syntax {
                line: b.line,
                message: format!("signal {:?} defined twice", b.output),
            });
        }
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks = vec![Mark::White; blocks.len()];

    fn elaborate(
        idx: usize,
        blocks: &[NamesBlock],
        by_output: &HashMap<String, usize>,
        marks: &mut [Mark],
        net: &mut Network,
        signals: &mut HashMap<String, Signal>,
    ) -> Result<(), ParseBlifError> {
        let mut stack: Vec<(usize, usize)> = vec![(idx, 0)];
        while let Some(&mut (i, ref mut child)) = stack.last_mut() {
            if marks[i] == Mark::Black {
                stack.pop();
                continue;
            }
            marks[i] = Mark::Grey;
            let block = &blocks[i];
            if *child < block.inputs.len() {
                let dep = &block.inputs[*child];
                *child += 1;
                if signals.contains_key(dep) {
                    continue;
                }
                match by_output.get(dep) {
                    Some(&j) => {
                        if marks[j] == Mark::Grey {
                            return Err(ParseBlifError::Syntax {
                                line: block.line,
                                message: format!("combinational cycle through {dep:?}"),
                            });
                        }
                        if marks[j] == Mark::White {
                            stack.push((j, 0));
                        }
                    }
                    None => return Err(ParseBlifError::UndefinedSignal(dep.clone())),
                }
            } else {
                let sig = synthesize_block(block, net, signals)?;
                signals.insert(block.output.clone(), sig);
                marks[i] = Mark::Black;
                stack.pop();
            }
        }
        Ok(())
    }

    for i in 0..blocks.len() {
        if marks[i] == Mark::White {
            elaborate(i, &blocks, &by_output, &mut marks, &mut net, &mut signals)?;
        }
    }

    Ok((net, signals))
}

fn synthesize_block(
    block: &NamesBlock,
    net: &mut Network,
    signals: &HashMap<String, Signal>,
) -> Result<Signal, ParseBlifError> {
    let fanin_signals: Vec<Signal> = block
        .inputs
        .iter()
        .map(|name| {
            signals
                .get(name)
                .copied()
                .ok_or_else(|| ParseBlifError::UndefinedSignal(name.clone()))
        })
        .collect::<Result<_, _>>()?;

    if block.inputs.is_empty() {
        let value = !block.cubes.is_empty() && block.on_set;
        let id = net.add_const(value);
        return Ok(Signal::new(id));
    }
    if block.cubes.is_empty() {
        let id = net.add_const(false);
        return Ok(Signal::new(id));
    }

    let mut cube_signals: Vec<Signal> = Vec::new();
    for cube in &block.cubes {
        let mut literals: Vec<Signal> = Vec::new();
        for (i, &c) in cube.iter().enumerate() {
            match c {
                b'1' => literals.push(fanin_signals[i]),
                b'0' => literals.push(!fanin_signals[i]),
                _ => {}
            }
        }
        let sig = if literals.is_empty() {
            Signal::new(net.add_const(true))
        } else {
            reduce_gate(net, NodeOp::And, &mut literals)
        };
        cube_signals.push(sig);
    }
    let mut result = reduce_gate(net, NodeOp::Or, &mut cube_signals);
    if !block.on_set {
        result = !result;
    }
    Ok(result)
}

fn reduce_gate(net: &mut Network, op: NodeOp, literals: &mut Vec<Signal>) -> Signal {
    let mut seen = HashSet::new();
    literals.retain(|s| seen.insert(*s));
    let contradictory = literals.iter().any(|s| seen.contains(&!*s));
    if contradictory {
        return Signal::new(net.add_const(op == NodeOp::Or));
    }
    match literals.len() {
        0 => Signal::new(net.add_const(op == NodeOp::And)),
        1 => literals[0],
        _ => Signal::new(net.add_gate(op, std::mem::take(literals))),
    }
}
