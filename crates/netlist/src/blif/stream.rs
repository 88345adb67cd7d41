//! Streaming BLIF lexing and the one BLIF directive loop.
//!
//! [`LogicalLines`] consumes any [`BufRead`] one physical line at a time,
//! strips `#` comments, joins `\` continuations, and yields non-blank
//! logical lines tagged with the 1-based physical line they started on.
//! Only one logical line is ever buffered, so arbitrarily large designs
//! stream through a bounded amount of memory.
//!
//! [`ModelReader`] is the only place BLIF directives are dispatched. It
//! yields one raw model at a time, with how that model ended
//! ([`ModelEnd`]). Every directive has exactly one outcome, in both
//! entry points:
//!
//! - parsed: `.model`, `.inputs`, `.outputs`, `.names` and its cube
//!   rows, `.latch` in every spec form, `.subckt`, `.conn` (a buffer),
//!   `.blackbox` (an interface-only marker) and `.end`;
//! - skipped: `.exdc` sections up to the model's end (counted in
//!   [`ParseStats::exdc_blocks`]), and every other dot-directive that
//!   carries no body (`.attr`, `.param`, `.cname`, `.clock`, ...);
//! - rejected with a line-precise error: `.gate`, `.mlatch` and
//!   `.start_kiss`.
//!
//! Directives before the first `.model` open an implicit model named
//! `top`, which only `.end` or the end of input may close (a `.model`
//! right after it is `duplicate .model before .end`). If it ends with
//! nothing declared in it (only metadata, an `.exdc` section or a stray
//! `.end` came first) it is dropped and the next model is read instead.
//! A missing final `.end` is tolerated. [`read_raw_design`]
//! consumes every model, producing a *raw* design whose nets are still
//! hierarchical names, ready for [`flatten`](super::flatten::flatten);
//! [`crate::parse_blif`] checks the first model only.

use std::collections::HashSet;
use std::io::BufRead;

use super::{parse_cube_row, start_names_block, NamesBlock};
use crate::design::{LatchInit, LatchKind, ParseStats};
use crate::error::ParseBlifError;

/// Streaming logical-line lexer over any buffered reader.
///
/// Holds exactly one physical-line buffer and one logical-line buffer;
/// neither grows with the total input size, only with the longest line.
pub(crate) struct LogicalLines<R> {
    reader: R,
    /// Physical lines consumed so far (1-based after the first read).
    physical: usize,
    /// Scratch buffer for the current physical line.
    raw: String,
    /// The logical line being assembled across `\` continuations.
    line: String,
    /// Logical lines yielded so far.
    pub logical_lines: u64,
    /// Longest logical line seen, in bytes — the lexer's high-water mark.
    pub max_line_bytes: usize,
}

impl<R: BufRead> LogicalLines<R> {
    pub(crate) fn new(reader: R) -> Self {
        LogicalLines {
            reader,
            physical: 0,
            raw: String::new(),
            line: String::new(),
            logical_lines: 0,
            max_line_bytes: 0,
        }
    }

    /// Yields the next non-blank logical line and the physical line number
    /// it started on, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// Returns [`ParseBlifError::Io`] when the underlying reader fails.
    pub(crate) fn next_line(&mut self) -> Result<Option<(usize, &str)>, ParseBlifError> {
        self.line.clear();
        let mut start = 0usize;
        loop {
            self.raw.clear();
            let read = self
                .reader
                .read_line(&mut self.raw)
                .map_err(|e| ParseBlifError::Io(e.to_string()))?;
            if read == 0 {
                // End of input: a trailing continuation still yields its
                // partial logical line, matching the historical parser.
                if self.line.trim().is_empty() {
                    return Ok(None);
                }
                self.logical_lines += 1;
                self.max_line_bytes = self.max_line_bytes.max(self.line.len());
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
                    self.logical_lines += 1;
                    self.max_line_bytes = self.max_line_bytes.max(self.line.len());
                    return Ok(Some((start, self.line.as_str())));
                }
                self.line.clear();
            }
        }
    }
}

/// One `.latch` directive, still in source-level net names.
#[derive(Debug, Clone)]
pub(crate) struct RawLatch {
    pub line: usize,
    pub input: String,
    pub output: String,
    pub kind: LatchKind,
    pub control: Option<String>,
    pub init: LatchInit,
}

/// One `.subckt` instantiation, still unresolved.
#[derive(Debug, Clone)]
pub(crate) struct RawSubckt {
    pub line: usize,
    pub model: String,
    /// `formal=actual` connections in source order.
    pub conns: Vec<(String, String)>,
}

/// One `.model` block as parsed, before flattening.
#[derive(Debug, Clone)]
pub(crate) struct RawModel {
    pub name: String,
    pub line: usize,
    pub inputs: Vec<String>,
    pub outputs: Vec<String>,
    pub blocks: Vec<NamesBlock>,
    pub latches: Vec<RawLatch>,
    pub subckts: Vec<RawSubckt>,
    pub blackbox: bool,
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

    /// True when the model declares and contains nothing.
    fn is_empty(&self) -> bool {
        self.inputs.is_empty()
            && self.outputs.is_empty()
            && self.blocks.is_empty()
            && self.latches.is_empty()
            && self.subckts.is_empty()
            && !self.blackbox
    }
}

/// A parsed multi-model BLIF file before hierarchy flattening.
#[derive(Debug, Clone, Default)]
pub(crate) struct RawDesign {
    pub models: Vec<RawModel>,
}

impl RawDesign {
    /// Index of the model named `name`, if any.
    pub(crate) fn model_index(&self, name: &str) -> Option<usize> {
        self.models.iter().position(|m| m.name == name)
    }
}

fn syntax(line: usize, message: impl Into<String>) -> ParseBlifError {
    ParseBlifError::Syntax {
        line,
        message: message.into(),
    }
}

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
    let (kind, control, init_tok) = match tokens.len() {
        2 => (LatchKind::Unspecified, None, None),
        3 => (LatchKind::Unspecified, None, Some(tokens[2])),
        4 => (
            parse_latch_kind(line_no, tokens[2])?,
            control_net(tokens[3]),
            None,
        ),
        _ => (
            parse_latch_kind(line_no, tokens[2])?,
            control_net(tokens[3]),
            Some(tokens[4]),
        ),
    };
    let init = match init_tok {
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
    Ok(RawLatch {
        line: line_no,
        input: tokens[0].to_owned(),
        output: tokens[1].to_owned(),
        kind,
        control,
        init,
    })
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

fn control_net(token: &str) -> Option<String> {
    if token == "NIL" {
        None
    } else {
        Some(token.to_owned())
    }
}

fn parse_subckt<'a>(
    line_no: usize,
    mut tokens: impl Iterator<Item = &'a str>,
) -> Result<RawSubckt, ParseBlifError> {
    let model = tokens
        .next()
        .ok_or_else(|| syntax(line_no, ".subckt requires a model name"))?;
    let mut conns: Vec<(String, String)> = Vec::new();
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
        conns.push((formal.to_owned(), actual.to_owned()));
    }
    Ok(RawSubckt {
        line: line_no,
        model: model.to_owned(),
        conns,
    })
}

/// How a raw model ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ModelEnd {
    /// An explicit `.end`.
    End,
    /// The `.model` directive on this line opened the next model.
    Model(usize),
    /// The input ended without a `.end`.
    Eof,
}

/// Reads a BLIF file one raw model at a time, streaming one logical line
/// at a time.
pub(crate) struct ModelReader<R> {
    lex: LogicalLines<R>,
    /// The `.model` name and line that ended the previous model.
    pending: Option<(String, usize)>,
    /// Model names opened so far; a repeat is an error.
    names: HashSet<String>,
    stats: ParseStats,
}

impl<R: BufRead> ModelReader<R> {
    pub(crate) fn new(reader: R) -> Self {
        ModelReader {
            lex: LogicalLines::new(reader),
            pending: None,
            names: HashSet::new(),
            stats: ParseStats::default(),
        }
    }

    /// Statistics over everything read so far.
    pub(crate) fn stats(&self) -> ParseStats {
        ParseStats {
            logical_lines: self.lex.logical_lines,
            max_line_bytes: self.lex.max_line_bytes,
            ..self.stats
        }
    }

    /// Reads the next model and how it ended, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// Returns a line-precise [`ParseBlifError`] for malformed or
    /// unsupported directives, duplicate model names, or reader failures.
    pub(crate) fn next_model(&mut self) -> Result<Option<(RawModel, ModelEnd)>, ParseBlifError> {
        loop {
            let Some((model, end, implicit)) = self.read_model()? else {
                return Ok(None);
            };
            if !implicit {
                return Ok(Some((model, end)));
            }
            // An implicit `top` with nothing in it (only metadata, an
            // `.exdc` or a stray `.end` came first) is dropped so it never
            // shadows the real first model; one with logic must not run
            // into a `.model`.
            if !model.is_empty() {
                if let ModelEnd::Model(line) = end {
                    return Err(duplicate_model(line));
                }
                return Ok(Some((model, end)));
            }
            self.names.clear();
            self.stats.models -= 1;
        }
    }

    /// [`Self::next_model`], also telling whether the model is the
    /// implicit `top` opened by directives before any `.model`.
    fn read_model(&mut self) -> Result<Option<(RawModel, ModelEnd, bool)>, ParseBlifError> {
        let mut implicit = false;
        let mut model = match self.pending.take() {
            Some((name, line)) => Some(open_model(&mut self.names, &mut self.stats, name, line)?),
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
            // `.exdc` opens a don't-care section that runs to the model's
            // end; nothing in it is read.
            if in_exdc && first != ".end" && first != ".model" {
                continue;
            }
            if first == ".model" {
                let name = tokens.next().unwrap_or("top").to_owned();
                if model.is_some() {
                    self.pending = Some((name, line_no));
                    break ModelEnd::Model(line_no);
                }
                model = Some(open_model(&mut self.names, &mut self.stats, name, line_no)?);
                continue;
            }
            if model.is_none() && self.names.is_empty() {
                let top = open_model(&mut self.names, &mut self.stats, "top".into(), line_no)?;
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
                    self.stats.latches += 1;
                }
                ".subckt" => {
                    m.blocks.extend(block.take());
                    m.subckts.push(parse_subckt(line_no, tokens)?);
                    self.stats.subckts += 1;
                }
                ".conn" => {
                    // yosys extension: a direct wire `.conn from to`.
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
                    self.stats.exdc_blocks += 1;
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
                // Body-less metadata (`.attr`, `.param`, `.cname`, `.clock`,
                // `.default_input_arrival`, ...) is skipped.
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

/// The error for a `.model` on `line` that opens before the open model
/// may end that way.
pub(crate) fn duplicate_model(line: usize) -> ParseBlifError {
    syntax(line, "duplicate .model before .end")
}

/// Opens the model `name` declared on `line`.
fn open_model(
    names: &mut HashSet<String>,
    stats: &mut ParseStats,
    name: String,
    line: usize,
) -> Result<RawModel, ParseBlifError> {
    if !names.insert(name.clone()) {
        return Err(syntax(line, format!("duplicate model {name:?}")));
    }
    stats.models += 1;
    Ok(RawModel::new(name, line))
}

/// Parses a complete (possibly hierarchical, possibly sequential) BLIF file
/// from a buffered reader, streaming one logical line at a time.
///
/// # Errors
///
/// Returns a line-precise [`ParseBlifError`] for malformed directives,
/// duplicate model names, or reader failures.
pub(crate) fn read_raw_design<R: BufRead>(
    reader: R,
) -> Result<(RawDesign, ParseStats), ParseBlifError> {
    let mut reader = ModelReader::new(reader);
    let mut design = RawDesign::default();
    while let Some((model, _)) = reader.next_model()? {
        design.models.push(model);
    }
    Ok((design, reader.stats()))
}
