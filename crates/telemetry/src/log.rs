//! Leveled structured logging as JSON Lines.
//!
//! The logger is process-global and **off by default**: every
//! [`event`] call is a single relaxed atomic load until [`init`] raises
//! the level, so instrumented code (the daemon's admission path, the
//! daemon's panic containment, the cache tiers) pays nothing in the
//! offline pipeline and telemetry reports stay bit-identical whether or
//! not the logging code is compiled in. That invariant is what lets
//! logging be *always wired* without threatening the determinism rails.
//!
//! One event renders as one JSON object on one line with a fixed key
//! prefix — `seq`, `t_ns`, `level`, `target`, `msg` — followed by the
//! caller's fields in caller order. `seq` is a process-global sequence
//! number (total order even when `t_ns` ties); `t_ns` is monotonic
//! nanoseconds since the logger was first touched, never wall time.
//! The rendered line is what every sink sees, so the golden test in
//! this module pins the byte shape once for all of them.
//!
//! Sinks: stderr (default), a file (`--log-file`), or an in-memory
//! [`TestSink`] for deterministic assertions. Independently of the
//! sink, the last [`RING_CAPACITY`] rendered lines are kept in a
//! bounded ring ([`ring_snapshot`]) so a panic hook can dump recent
//! context, and an optional [`Telemetry`] handle
//! ([`set_counter_sink`]) receives the closed `log.*` counter
//! namespace (declared in [`crate::catalogue`]).
//!
//! # Examples
//!
//! ```
//! use chortle_telemetry::log::{render_event, FieldValue, Level};
//!
//! let line = render_event(
//!     0,
//!     42,
//!     Level::Warn,
//!     "serve.admission",
//!     "shed",
//!     &[("cid", FieldValue::U64(3)), ("reason", FieldValue::Str("queue_full"))],
//! );
//! assert_eq!(
//!     line,
//!     r#"{"seq":0,"t_ns":42,"level":"warn","target":"serve.admission","msg":"shed","cid":3,"reason":"queue_full"}"#
//! );
//! ```

use std::collections::VecDeque;
use std::fs::File;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::catalogue;
use crate::json;
use crate::Telemetry;

/// Environment variable consulted for the level when no `--log-level`
/// flag is given (`off`, `error`, `warn`, `info`, `debug`, `trace`).
pub const ENV_LEVEL: &str = "CHORTLE_LOG";

/// Environment variable consulted for the sink file when no
/// `--log-file` flag is given.
pub const ENV_FILE: &str = "CHORTLE_LOG_FILE";

/// Events retained in the in-process ring for crash context.
pub const RING_CAPACITY: usize = 256;

/// Severity of one log event, most severe first.
///
/// The numeric value is the gate: an event is emitted when its level is
/// `<=` the configured maximum (0 means logging is off entirely).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or data-losing conditions (worker panics).
    Error = 1,
    /// Degraded service (admission sheds, deadline drops).
    Warn = 2,
    /// Lifecycle landmarks (startup, shutdown drain, cache flush).
    Info = 3,
    /// Per-request decisions (cache-tier attribution, completions).
    Debug = 4,
    /// Everything else.
    Trace = 5,
}

impl Level {
    /// The lowercase name embedded in rendered events.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// Parses a level name; `"off"` is `None` (logging disabled).
///
/// # Errors
///
/// Names the accepted spellings on anything unrecognised.
pub fn parse_level(name: &str) -> Result<Option<Level>, String> {
    match name {
        "off" => Ok(None),
        "error" => Ok(Some(Level::Error)),
        "warn" => Ok(Some(Level::Warn)),
        "info" => Ok(Some(Level::Info)),
        "debug" => Ok(Some(Level::Debug)),
        "trace" => Ok(Some(Level::Trace)),
        other => Err(format!(
            "unknown log level {other:?} (expected off, error, warn, info, debug, or trace)"
        )),
    }
}

/// One typed field value of a log event.
#[derive(Clone, Copy, Debug)]
pub enum FieldValue<'a> {
    /// A string (JSON-escaped on render).
    Str(&'a str),
    /// A non-negative integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (rendered like report JSON floats).
    F64(f64),
    /// A boolean.
    Bool(bool),
}

enum Sink {
    Stderr,
    File(File),
    Test(Arc<Mutex<Vec<String>>>),
}

struct LoggerState {
    sink: Sink,
    ring: VecDeque<String>,
    ring_evicted: u64,
    counters: Option<Telemetry>,
}

impl Default for LoggerState {
    fn default() -> Self {
        LoggerState {
            sink: Sink::Stderr,
            ring: VecDeque::new(),
            ring_evicted: 0,
            counters: None,
        }
    }
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);
static SEQ: AtomicU64 = AtomicU64::new(0);
static STATE: Mutex<Option<LoggerState>> = Mutex::new(None);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Whether events at `level` currently pass the gate. Instrumented code
/// may use this to skip assembling expensive fields.
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Configures the global logger: `level` `None` turns logging off,
/// `file` `None` writes to stderr. Reconfiguring is allowed (tests and
/// the daemon both call this); the ring and sequence numbers persist.
///
/// # Errors
///
/// Reports a `file` that cannot be created or appended to.
pub fn init(level: Option<Level>, file: Option<&str>) -> Result<(), String> {
    let sink = match file {
        None => Sink::Stderr,
        Some(path) => Sink::File(
            File::options()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot open log file {path}: {e}"))?,
        ),
    };
    let mut state = STATE.lock().expect("logger state poisoned");
    state.get_or_insert_with(LoggerState::default).sink = sink;
    drop(state);
    epoch();
    MAX_LEVEL.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
    Ok(())
}

/// Resolves flag-or-environment logging configuration and installs it:
/// the `--log-level` / `--log-file` flag values win over [`ENV_LEVEL`]
/// / [`ENV_FILE`], which win over the defaults (off, stderr).
///
/// # Errors
///
/// Reports an unparseable level or an unopenable file.
pub fn init_from(level_flag: Option<&str>, file_flag: Option<&str>) -> Result<(), String> {
    let env_level = std::env::var(ENV_LEVEL).ok();
    let level = match level_flag.or(env_level.as_deref()) {
        Some(name) => parse_level(name)?,
        None => None,
    };
    let env_file = std::env::var(ENV_FILE).ok();
    let file = file_flag.or(env_file.as_deref());
    init(level, file)
}

/// Routes events into an in-memory buffer and raises the level to
/// `trace`; returns a handle to the captured lines. For tests.
pub fn init_test_sink() -> TestSink {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let mut state = STATE.lock().expect("logger state poisoned");
    let s = state.get_or_insert_with(LoggerState::default);
    s.sink = Sink::Test(Arc::clone(&lines));
    drop(state);
    epoch();
    MAX_LEVEL.store(Level::Trace as u8, Ordering::Relaxed);
    TestSink { lines }
}

/// Turns logging back off (the default state). The ring is kept.
pub fn disable() {
    MAX_LEVEL.store(0, Ordering::Relaxed);
}

/// Mirrors the closed `log.*` counter namespace into `telemetry` from
/// now on: `log.events`, per-severity counts, and ring evictions. The
/// daemon installs its shared handle here so `op:"stats"` reports and
/// `/metrics` exposition include logging volume.
pub fn set_counter_sink(telemetry: Telemetry) {
    let mut state = STATE.lock().expect("logger state poisoned");
    state.get_or_insert_with(LoggerState::default).counters = Some(telemetry);
}

/// The last [`RING_CAPACITY`] rendered event lines, oldest first —
/// crash context for panic hooks, independent of the active sink.
pub fn ring_snapshot() -> Vec<String> {
    let state = STATE.lock().expect("logger state poisoned");
    state
        .as_ref()
        .map(|s| s.ring.iter().cloned().collect())
        .unwrap_or_default()
}

/// Renders one event line (no trailing newline): the fixed prefix
/// `seq`, `t_ns`, `level`, `target`, `msg`, then `fields` in order.
/// Pure — the golden schema test pins this byte shape.
pub fn render_event(
    seq: u64,
    t_ns: u64,
    level: Level,
    target: &str,
    msg: &str,
    fields: &[(&str, FieldValue<'_>)],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(96);
    let _ = write!(out, "{{\"seq\":{seq},\"t_ns\":{t_ns},\"level\":");
    json::write_string(&mut out, level.as_str());
    out.push_str(",\"target\":");
    json::write_string(&mut out, target);
    out.push_str(",\"msg\":");
    json::write_string(&mut out, msg);
    for (key, value) in fields {
        out.push(',');
        json::write_string(&mut out, key);
        out.push(':');
        match value {
            FieldValue::Str(s) => json::write_string(&mut out, s),
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::I64(v) => out.push_str(&v.to_string()),
            FieldValue::F64(v) => json::write_f64(&mut out, *v),
            FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        }
    }
    out.push('}');
    out
}

/// Emits one structured event if `level` passes the gate. Safe from any
/// thread; ordering across threads is resolved by the `seq` stamp.
pub fn event(level: Level, target: &str, msg: &str, fields: &[(&str, FieldValue<'_>)]) {
    if !enabled(level) {
        return;
    }
    let t_ns = u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let line = render_event(seq, t_ns, level, target, msg, fields);
    let mut state = STATE.lock().expect("logger state poisoned");
    let s = state.get_or_insert_with(LoggerState::default);
    if s.ring.len() == RING_CAPACITY {
        s.ring.pop_front();
        s.ring_evicted += 1;
    }
    s.ring.push_back(line.clone());
    if let Some(t) = &s.counters {
        t.add_counter(catalogue::LOG_EVENTS, 1);
        match level {
            Level::Error => t.add_counter(catalogue::LOG_ERRORS, 1),
            Level::Warn => t.add_counter(catalogue::LOG_WARNINGS, 1),
            _ => {}
        }
        if s.ring_evicted > 0 {
            // Idempotent re-assert would double-count; report the delta.
            let evicted = s.ring_evicted;
            s.ring_evicted = 0;
            t.add_counter(catalogue::LOG_RING_EVICTED, evicted);
        }
    }
    match &mut s.sink {
        Sink::Stderr => {
            let mut err = std::io::stderr().lock();
            let _ = err.write_all(line.as_bytes());
            let _ = err.write_all(b"\n");
        }
        Sink::File(f) => {
            let _ = f.write_all(line.as_bytes());
            let _ = f.write_all(b"\n");
        }
        Sink::Test(lines) => lines.lock().expect("test sink poisoned").push(line),
    }
}

/// Captured lines of a logger routed to [`init_test_sink`].
#[derive(Clone)]
pub struct TestSink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl TestSink {
    /// The rendered event lines captured so far, in emission order.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("test sink poisoned").clone()
    }
}

impl std::fmt::Debug for TestSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TestSink")
            .field("lines", &self.lines().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global logger is process state; tests that touch it run
    /// under one lock so parallel test threads cannot interleave.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn golden_jsonl_event_shape() {
        // One event per line, fixed key order: seq, t_ns, level,
        // target, msg, then caller fields in caller order. Consumers
        // parse this; the bytes are the contract.
        let line = render_event(
            7,
            1_000,
            Level::Error,
            "serve.worker",
            "worker panicked",
            &[
                ("worker", FieldValue::U64(2)),
                ("detail", FieldValue::Str("index out of bounds: \"x\"")),
                ("recovered", FieldValue::Bool(true)),
                ("skew", FieldValue::F64(0.5)),
                ("delta", FieldValue::I64(-3)),
            ],
        );
        assert_eq!(
            line,
            "{\"seq\":7,\"t_ns\":1000,\"level\":\"error\",\"target\":\"serve.worker\",\
             \"msg\":\"worker panicked\",\"worker\":2,\
             \"detail\":\"index out of bounds: \\\"x\\\"\",\"recovered\":true,\
             \"skew\":0.5,\"delta\":-3}"
        );
        assert_eq!(line.lines().count(), 1);
        crate::json::parse(&line).expect("every event line is valid JSON");
    }

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(parse_level("off").unwrap(), None);
        assert_eq!(parse_level("warn").unwrap(), Some(Level::Warn));
        assert!(parse_level("loud").is_err());
        assert!(Level::Error < Level::Trace);
        assert_eq!(Level::Debug.as_str(), "debug");
    }

    #[test]
    fn off_by_default_and_gated_by_level() {
        let _serial = serial();
        disable();
        assert!(!enabled(Level::Error));
        event(Level::Error, "t", "dropped", &[]);
        init(Some(Level::Warn), None).expect("init");
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        disable();
    }

    #[test]
    fn test_sink_captures_lines_and_ring_mirrors_them() {
        let _serial = serial();
        let sink = init_test_sink();
        let before = sink.lines().len();
        event(
            Level::Info,
            "serve.lifecycle",
            "drain",
            &[("outstanding", FieldValue::U64(4))],
        );
        let lines = sink.lines();
        assert_eq!(lines.len(), before + 1);
        let last = lines.last().expect("captured");
        assert!(last.contains("\"target\":\"serve.lifecycle\""), "{last}");
        assert!(last.contains("\"outstanding\":4"), "{last}");
        let ring = ring_snapshot();
        assert_eq!(ring.last(), Some(last));
        disable();
    }

    #[test]
    fn counter_sink_receives_closed_namespace() {
        let _serial = serial();
        let _sink = init_test_sink();
        let t = Telemetry::enabled();
        set_counter_sink(t.clone());
        event(Level::Error, "t", "boom", &[]);
        event(Level::Warn, "t", "shed", &[]);
        event(Level::Info, "t", "note", &[]);
        let report = t.snapshot();
        assert_eq!(report.counter("log.events"), Some(3));
        assert_eq!(report.counter("log.errors"), Some(1));
        assert_eq!(report.counter("log.warnings"), Some(1));
        crate::schema::validate_report(&report.to_json()).expect("log.* namespace validates");
        // Detach the shared telemetry before other tests reuse the
        // global logger.
        set_counter_sink(Telemetry::enabled());
        disable();
    }

    #[test]
    fn ring_is_bounded() {
        let _serial = serial();
        let _sink = init_test_sink();
        for i in 0..(RING_CAPACITY + 10) {
            event(
                Level::Trace,
                "ring",
                "fill",
                &[("i", FieldValue::U64(i as u64))],
            );
        }
        let ring = ring_snapshot();
        assert_eq!(ring.len(), RING_CAPACITY);
        let last = ring.last().expect("nonempty");
        assert!(
            last.contains(&format!("\"i\":{}", RING_CAPACITY + 9)),
            "{last}"
        );
        disable();
    }
}
