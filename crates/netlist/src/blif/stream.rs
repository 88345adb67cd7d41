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
//!
//! Every signal token is interned once into the reader's [`Symbols`]
//! table, so raw models name nets by [`Sym`] id, never by `String`. A
//! model's `.names` blocks live in one [`Blocks`]: fanin ids in one
//! arena, cube rows in another with a stride of the block's fanin
//! count.

use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::BuildHasher;
use std::io::BufRead;

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

/// A signal name's id in a reader's [`Symbols`] table.
pub(crate) type Sym = u32;

/// The reader's signal names, each stored once and known by its [`Sym`].
///
/// Names sit end to end in one string arena. The index is an
/// open-addressing table of ids, probed linearly from each name's hash
/// and kept at most half full; the hash is computed once per token and
/// stored, so growing the table rehashes no string. Hashes come from
/// std's keyed `RandomState` (SipHash with per-process random keys): the
/// daemon parses untrusted text, and an unkeyed hash would let a client
/// pick names that all land in one probe run.
#[derive(Debug, Clone, Default)]
pub(crate) struct Symbols {
    /// Every name, end to end.
    text: String,
    /// End offset of each name in `text`; a name starts where the
    /// previous one ends.
    ends: Vec<usize>,
    /// Each name's hash.
    hashes: Vec<u64>,
    /// Open-addressing index: a [`Sym`], or [`EMPTY_SLOT`].
    slots: Vec<Sym>,
    keys: RandomState,
}

const EMPTY_SLOT: Sym = Sym::MAX;

impl Symbols {
    /// The id of `name`, adding it on first sight.
    pub(crate) fn intern(&mut self, name: &str) -> Sym {
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            self.grow();
        }
        let hash = self.keys.hash_one(name);
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == EMPTY_SLOT {
                break;
            }
            if self.hashes[id as usize] == hash && self.name(id) == name {
                return id;
            }
            slot = (slot + 1) & mask;
        }
        let id = Sym::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != EMPTY_SLOT)
            .expect("fewer than 2^32 - 1 signal names");
        self.text.push_str(name);
        self.ends.push(self.text.len());
        self.hashes.push(hash);
        self.slots[slot] = id;
        id
    }

    /// Doubles the index (at least 64 slots) and reinserts every id from
    /// its stored hash.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(64);
        self.slots = vec![EMPTY_SLOT; size];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut slot = hash as usize & (size - 1);
            while self.slots[slot] != EMPTY_SLOT {
                slot = (slot + 1) & (size - 1);
            }
            self.slots[slot] = id as Sym;
        }
    }

    /// The name of `id`.
    pub(crate) fn name(&self, id: Sym) -> &str {
        let id = id as usize;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.text[start..self.ends[id]]
    }

    /// Number of names interned so far; every [`Sym`] is below it.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }
}

/// One `.names` block (or `.conn` wire): its fanins and cube rows live in
/// the arenas of the [`Blocks`] that holds it.
///
/// Offsets, counts and the line number are `u32`, which keeps a block at
/// 28 bytes — a 10^6-gate netlist holds 10^6 of them at once. Input past
/// the 32-bit range is rejected with [`ParseBlifError::TooLarge`].
#[derive(Debug, Clone)]
pub(crate) struct NamesBlock {
    pub(crate) output: Sym,
    /// Start of the fanins in [`Blocks::fanins`].
    fanin_start: u32,
    /// Fanin count, which is also the cube-row stride.
    width: u32,
    /// Start of the rows in [`Blocks::cubes`].
    cube_start: u32,
    /// Cube rows; a row has no bytes when the block has no fanins.
    rows: u32,
    /// Output phase: `true` when rows describe the on-set.
    pub(crate) on_set: bool,
    line: u32,
}

impl NamesBlock {
    /// Whether the block has any cube rows.
    pub(crate) fn has_rows(&self) -> bool {
        self.rows > 0
    }

    /// The 1-based line of the block's `.names` directive.
    pub(crate) fn line(&self) -> usize {
        self.line as usize
    }

    fn width(&self) -> usize {
        self.width as usize
    }
}

/// Narrows `value` to the `u32` a [`NamesBlock`] stores, or reports
/// which quantity (`what`, at `line`) outgrew it.
fn narrow(value: usize, line: usize, what: &'static str) -> Result<u32, ParseBlifError> {
    u32::try_from(value).map_err(|_| ParseBlifError::TooLarge { line, what })
}

/// A list of `.names` blocks over two flat arenas: every fanin in one
/// `Vec<Sym>`, every cube row (one of `'0' | '1' | '-'` per fanin) in one
/// `Vec<u8>`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Blocks {
    pub(crate) list: Vec<NamesBlock>,
    fanins: Vec<Sym>,
    cubes: Vec<u8>,
}

impl Blocks {
    /// Opens a block driving `output` from `fanins`, with no rows yet.
    ///
    /// # Errors
    ///
    /// [`ParseBlifError::TooLarge`] when `line` or the fanin arena passes
    /// the 32-bit range.
    pub(crate) fn open(
        &mut self,
        fanins: &[Sym],
        output: Sym,
        line: usize,
    ) -> Result<(), ParseBlifError> {
        let fanin_end = self.fanins.len() + fanins.len();
        narrow(fanin_end, line, "the total of .names fanins")?;
        self.list.push(NamesBlock {
            output,
            fanin_start: self.fanins.len() as u32,
            width: fanins.len() as u32,
            cube_start: narrow(self.cubes.len(), line, "the total of cube bytes")?,
            rows: 0,
            on_set: true,
            line: narrow(line, line, "the line number")?,
        });
        self.fanins.extend_from_slice(fanins);
        Ok(())
    }

    /// The fanins of `block`.
    pub(crate) fn inputs(&self, block: &NamesBlock) -> &[Sym] {
        let start = block.fanin_start as usize;
        &self.fanins[start..start + block.width()]
    }

    /// The cube rows of `block`, `block`'s fanin count bytes each. Only
    /// meaningful for a block with fanins; see [`NamesBlock::has_rows`].
    pub(crate) fn rows(&self, block: &NamesBlock) -> std::slice::ChunksExact<'_, u8> {
        self.cube_bytes(block).chunks_exact(block.width().max(1))
    }

    fn cube_bytes(&self, block: &NamesBlock) -> &[u8] {
        let start = block.cube_start as usize;
        &self.cubes[start..start + block.rows as usize * block.width()]
    }

    /// Appends `src`'s blocks with every net passed through `rename`.
    ///
    /// # Errors
    ///
    /// [`ParseBlifError::TooLarge`], at the line of the first block that
    /// does not fit, when the combined arenas pass the 32-bit range.
    pub(crate) fn extend_renamed(
        &mut self,
        src: &Blocks,
        mut rename: impl FnMut(Sym) -> Sym,
    ) -> Result<(), ParseBlifError> {
        for block in &src.list {
            let bytes = src.cube_bytes(block);
            let fanin_start = narrow(
                self.fanins.len() + block.width(),
                block.line(),
                "the total of .names fanins",
            )? - block.width;
            let cube_start = narrow(
                self.cubes.len() + bytes.len(),
                block.line(),
                "the total of cube bytes",
            )? - bytes.len() as u32;
            self.fanins
                .extend(src.inputs(block).iter().map(|&net| rename(net)));
            self.cubes.extend_from_slice(bytes);
            self.list.push(NamesBlock {
                output: rename(block.output),
                fanin_start,
                cube_start,
                ..*block
            });
        }
        Ok(())
    }
}

/// One `.latch` directive, in reader symbols.
#[derive(Debug, Clone)]
pub(crate) struct RawLatch {
    pub line: usize,
    pub input: Sym,
    pub output: Sym,
    pub kind: LatchKind,
    pub control: Option<Sym>,
    pub init: LatchInit,
}

/// One `.subckt` instantiation, still unresolved.
#[derive(Debug, Clone)]
pub(crate) struct RawSubckt {
    pub line: usize,
    pub model: String,
    /// `formal=actual` connections in source order.
    pub conns: Vec<(Sym, Sym)>,
}

/// One `.model` block as parsed, before flattening.
#[derive(Debug, Clone)]
pub(crate) struct RawModel {
    pub name: String,
    pub line: usize,
    pub inputs: Vec<Sym>,
    pub outputs: Vec<Sym>,
    pub logic: Blocks,
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
            logic: Blocks::default(),
            latches: Vec::new(),
            subckts: Vec::new(),
            blackbox: false,
        }
    }

    /// True when the model declares and contains nothing.
    fn is_empty(&self) -> bool {
        self.inputs.is_empty()
            && self.outputs.is_empty()
            && self.logic.list.is_empty()
            && self.latches.is_empty()
            && self.subckts.is_empty()
            && !self.blackbox
    }
}

/// A parsed multi-model BLIF file before hierarchy flattening, with the
/// symbol table every model's nets index.
#[derive(Debug, Clone, Default)]
pub(crate) struct RawDesign {
    pub models: Vec<RawModel>,
    pub symbols: Symbols,
}

fn syntax(line: usize, message: impl Into<String>) -> ParseBlifError {
    ParseBlifError::Syntax {
        line,
        message: message.into(),
    }
}

fn parse_latch(
    line_no: usize,
    tokens: &[&str],
    symbols: &mut Symbols,
) -> Result<RawLatch, ParseBlifError> {
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
        4 => (parse_latch_kind(line_no, tokens[2])?, Some(tokens[3]), None),
        _ => (
            parse_latch_kind(line_no, tokens[2])?,
            Some(tokens[3]),
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
        input: symbols.intern(tokens[0]),
        output: symbols.intern(tokens[1]),
        kind,
        // `NIL` names no clock: the latch is free-running.
        control: control.filter(|&c| c != "NIL").map(|c| symbols.intern(c)),
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

fn parse_subckt<'a>(
    line_no: usize,
    mut tokens: impl Iterator<Item = &'a str>,
    symbols: &mut Symbols,
) -> Result<RawSubckt, ParseBlifError> {
    let model = tokens
        .next()
        .ok_or_else(|| syntax(line_no, ".subckt requires a model name"))?;
    let mut conns: Vec<(Sym, Sym)> = Vec::new();
    let mut formals: HashSet<Sym> = HashSet::new();
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
        let formal_id = symbols.intern(formal);
        if !formals.insert(formal_id) {
            return Err(syntax(
                line_no,
                format!("formal {formal:?} connected twice"),
            ));
        }
        conns.push((formal_id, symbols.intern(actual)));
    }
    Ok(RawSubckt {
        line: line_no,
        model: model.to_owned(),
        conns,
    })
}

/// Appends one cube row to the open `.names` block, the last of `blocks`
/// (`open` is false when no block is open).
fn parse_cube_row<'a>(
    blocks: &mut Blocks,
    open: bool,
    first: &str,
    mut tokens: impl Iterator<Item = &'a str>,
    line_no: usize,
) -> Result<(), ParseBlifError> {
    let block = match blocks.list.last_mut() {
        Some(block) if open => block,
        _ => {
            return Err(syntax(
                line_no,
                format!("cube row {first:?} outside a .names block"),
            ))
        }
    };
    let (mask, value) = if block.width == 0 {
        ("", first)
    } else {
        let v = tokens
            .next()
            .ok_or_else(|| syntax(line_no, "cube row is missing the output column"))?;
        (first, v)
    };
    if mask.len() != block.width() {
        return Err(syntax(
            line_no,
            format!(
                "cube has {} columns but .names has {} inputs",
                mask.len(),
                block.width
            ),
        ));
    }
    if let Some(c) = mask.bytes().find(|c| !matches!(c, b'0' | b'1' | b'-')) {
        return Err(syntax(
            line_no,
            format!("invalid cube character {:?}", c as char),
        ));
    }
    let on = match value {
        "1" => true,
        "0" => false,
        other => return Err(syntax(line_no, format!("invalid output column {other:?}"))),
    };
    if block.rows == 0 {
        block.on_set = on;
    } else if block.on_set != on {
        return Err(syntax(
            line_no,
            "mixed on-set and off-set rows in one .names",
        ));
    }
    narrow(
        blocks.cubes.len() + mask.len(),
        line_no,
        "the total of cube bytes",
    )?;
    block.rows = narrow(block.rows as usize + 1, line_no, "the rows of one .names")?;
    blocks.cubes.extend_from_slice(mask.as_bytes());
    Ok(())
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
/// at a time and interning every signal name into one [`Symbols`] table.
pub(crate) struct ModelReader<R> {
    lex: LogicalLines<R>,
    /// The `.model` name and line that ended the previous model.
    pending: Option<(String, usize)>,
    /// Model names opened so far; a repeat is an error.
    names: HashSet<String>,
    symbols: Symbols,
    /// Scratch for one `.names` line's fanin ids.
    fanins: Vec<Sym>,
    stats: ParseStats,
}

impl<R: BufRead> ModelReader<R> {
    pub(crate) fn new(reader: R) -> Self {
        ModelReader {
            lex: LogicalLines::new(reader),
            pending: None,
            names: HashSet::new(),
            symbols: Symbols::default(),
            fanins: Vec::new(),
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

    /// The names of every signal read so far.
    pub(crate) fn symbols(&self) -> &Symbols {
        &self.symbols
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
        // Whether cube rows still belong to the model's last block.
        let mut open = false;
        let mut in_exdc = false;
        let symbols = &mut self.symbols;
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
                ".inputs" => m.inputs.extend(tokens.map(|t| symbols.intern(t))),
                ".outputs" => m.outputs.extend(tokens.map(|t| symbols.intern(t))),
                ".names" => {
                    self.fanins.clear();
                    self.fanins.extend(tokens.map(|t| symbols.intern(t)));
                    let output = self.fanins.pop().ok_or_else(|| {
                        syntax(line_no, ".names requires at least an output signal")
                    })?;
                    m.logic.open(&self.fanins, output, line_no)?;
                    open = true;
                }
                ".latch" => {
                    open = false;
                    let toks: Vec<&str> = tokens.collect();
                    m.latches.push(parse_latch(line_no, &toks, symbols)?);
                    self.stats.latches += 1;
                }
                ".subckt" => {
                    open = false;
                    m.subckts.push(parse_subckt(line_no, tokens, symbols)?);
                    self.stats.subckts += 1;
                }
                ".conn" => {
                    // yosys extension: a direct wire `.conn from to`, read
                    // as the buffer `.names from to` with the row `1 1`.
                    open = false;
                    let toks: Vec<&str> = tokens.collect();
                    if toks.len() != 2 {
                        return Err(syntax(line_no, ".conn requires exactly two signals"));
                    }
                    let (from, to) = (symbols.intern(toks[0]), symbols.intern(toks[1]));
                    m.logic.open(&[from], to, line_no)?;
                    parse_cube_row(&mut m.logic, true, "1", std::iter::once("1"), line_no)?;
                }
                ".blackbox" => m.blackbox = true,
                ".exdc" => {
                    open = false;
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
                _ if first.starts_with('.') => self.stats.skipped_directives += 1,
                _ => parse_cube_row(&mut m.logic, open, first, tokens, line_no)?,
            }
        };
        Ok(model.map(|m| (m, end, implicit)))
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
    let mut models = Vec::new();
    while let Some((model, _)) = reader.next_model()? {
        models.push(model);
    }
    let stats = reader.stats();
    let design = RawDesign {
        models,
        symbols: reader.symbols,
    };
    Ok((design, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_names_block_is_28_bytes() {
        assert_eq!(std::mem::size_of::<NamesBlock>(), 28);
    }

    #[test]
    fn quantities_past_32_bits_are_typed_errors() {
        assert_eq!(narrow(u32::MAX as usize, 7, "rows"), Ok(u32::MAX));
        let past = u32::MAX as usize + 1;
        let err = narrow(past, 7, "the line number").unwrap_err();
        assert_eq!(
            err,
            ParseBlifError::TooLarge {
                line: 7,
                what: "the line number"
            }
        );
        assert!(err.to_string().contains("line 7"), "{err}");
        let mut blocks = Blocks::default();
        assert_eq!(
            blocks.open(&[1, 2], 3, past),
            Err(ParseBlifError::TooLarge {
                line: past,
                what: "the line number"
            })
        );
        assert!(blocks.list.is_empty() && blocks.fanins.is_empty());
    }
}
