//! Structured trace events with a deterministic merge order.
//!
//! Instrumented code records typed [`TraceEvent`]s — begin/end spans and
//! instants, tagged with a scope, a sequence index, a worker id, and a
//! monotonic timestamp — into per-worker [`TraceBuffer`]s that are
//! flushed wholesale into the owning [`crate::Telemetry`] handle (one
//! lock acquisition per flush, not per event). A snapshot merges every
//! buffer into a [`Trace`] sorted by the **deterministic key**
//! `(scope, index, step, worker)`, so the merged order never depends on
//! flush timing.
//!
//! # Determinism contract
//!
//! [`Trace::identity`] projects the merged events down to what the
//! mapper guarantees is a pure function of the input: it drops worker
//! ids and timestamps. For the same network and options, that
//! projection is **bit-identical for any `--cache` mode** — the
//! property tests in `crates/chortle` pin this. Timestamps are
//! observational and vary run to run.
//!
//! # Chrome trace export
//!
//! [`Trace::to_chrome_json`] renders the classic Chrome trace-event
//! JSON (`{"traceEvents":[…]}`) that `chrome://tracing` and Perfetto
//! load: begins as `"ph":"B"`, ends as `"ph":"E"`, instants as
//! `"ph":"i"`, with the worker id as `tid` and timestamps in
//! microseconds. [`validate_chrome_trace`] checks well-formedness
//! (used by `report-check --chrome-trace` in CI).

use crate::json::{self, Value};

/// Which sequence namespace a trace event's `index` counts in.
///
/// The variant order is the merge order: all driver stage events sort
/// before tree events, which sort before request events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceScope {
    /// Driver-side pipeline stages (spans recorded on one thread);
    /// `index` is the span allocation order.
    Stage,
    /// Per-tree mapping events; `index` is the tree's forest index.
    Tree,
    /// Daemon per-request lifecycle; `index` is the admission ordinal.
    Request,
}

impl TraceScope {
    /// Chrome trace category name.
    pub fn category(self) -> &'static str {
        match self {
            TraceScope::Stage => "stage",
            TraceScope::Tree => "tree",
            TraceScope::Request => "request",
        }
    }
}

/// What kind of mark a trace event is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceKind {
    /// Opens a span; matched by an [`End`](TraceKind::End) or a
    /// [`Cancelled`](TraceKind::Cancelled) with the same scope/index.
    Begin,
    /// Closes a span normally.
    End,
    /// A point event.
    Instant,
    /// Closes a span that did not run to completion (cancellation or a
    /// mid-tree error) — renders as an end with `"cancelled":true`.
    Cancelled,
}

/// One structured trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sequence namespace of `index`.
    pub scope: TraceScope,
    /// Position in the scope's deterministic sequence.
    pub index: u64,
    /// Sub-position within one `index` (begin 0 < instants 1 < end 2),
    /// so a span's events sort in emission order under the key.
    pub step: u32,
    /// Event name, e.g. `map.tree` or `dp.solve`.
    pub name: &'static str,
    /// Begin / end / instant / cancelled.
    pub kind: TraceKind,
    /// Worker that recorded the event (0 = the driver thread).
    pub worker: u32,
    /// One event-specific payload value (tree size, LUT count, …).
    pub arg: u64,
    /// Monotonic nanoseconds since the handle's trace epoch.
    pub t_ns: u64,
}

impl TraceEvent {
    /// The deterministic merge key.
    pub fn key(&self) -> (TraceScope, u64, u32, u32) {
        (self.scope, self.index, self.step, self.worker)
    }
}

/// `step` of a span-opening event.
pub const STEP_BEGIN: u32 = 0;
/// `step` of instants emitted within a span.
pub const STEP_INSTANT: u32 = 1;
/// `step` of a span-closing event (end or cancelled).
pub const STEP_END: u32 = 2;

/// A per-worker event buffer: events are pushed lock-free (the buffer
/// is worker-local) and flushed wholesale via
/// [`crate::Telemetry::trace_flush`]. A buffer obtained from a handle
/// that is not tracing records nothing, so hot paths pay one branch.
#[derive(Debug)]
pub struct TraceBuffer {
    pub(crate) worker: u32,
    pub(crate) epoch: Option<std::time::Instant>,
    pub(crate) events: Vec<TraceEvent>,
}

impl TraceBuffer {
    /// A buffer that records nothing (for handles that are not tracing).
    pub fn disabled() -> Self {
        TraceBuffer {
            worker: 0,
            epoch: None,
            events: Vec::new(),
        }
    }

    /// Whether this buffer actually records.
    pub fn is_enabled(&self) -> bool {
        self.epoch.is_some()
    }

    fn now_ns(epoch: std::time::Instant) -> u64 {
        u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(
        &mut self,
        kind: TraceKind,
        step: u32,
        scope: TraceScope,
        index: u64,
        name: &'static str,
        arg: u64,
    ) {
        if let Some(epoch) = self.epoch {
            self.events.push(TraceEvent {
                scope,
                index,
                step,
                name,
                kind,
                worker: self.worker,
                arg,
                t_ns: Self::now_ns(epoch),
            });
        }
    }

    /// Opens a span (`step` [`STEP_BEGIN`]).
    pub fn begin(&mut self, scope: TraceScope, index: u64, name: &'static str, arg: u64) {
        self.push(TraceKind::Begin, STEP_BEGIN, scope, index, name, arg);
    }

    /// Closes a span normally (`step` [`STEP_END`]).
    pub fn end(&mut self, scope: TraceScope, index: u64, name: &'static str, arg: u64) {
        self.push(TraceKind::End, STEP_END, scope, index, name, arg);
    }

    /// Marks a point event (`step` [`STEP_INSTANT`]).
    pub fn instant(&mut self, scope: TraceScope, index: u64, name: &'static str, arg: u64) {
        self.push(TraceKind::Instant, STEP_INSTANT, scope, index, name, arg);
    }

    /// Closes a span that was cut short (`step` [`STEP_END`]).
    pub fn cancelled(&mut self, scope: TraceScope, index: u64, name: &'static str, arg: u64) {
        self.push(TraceKind::Cancelled, STEP_END, scope, index, name, arg);
    }
}

/// The deterministic projection of one event (see [`Trace::identity`]):
/// no worker, no timestamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IdentityEvent {
    /// Sequence namespace.
    pub scope: TraceScope,
    /// Deterministic sequence index.
    pub index: u64,
    /// Sub-position within the index.
    pub step: u32,
    /// Event name.
    pub name: &'static str,
    /// Begin / end / instant / cancelled.
    pub kind: TraceKind,
    /// Event payload.
    pub arg: u64,
}

/// A merged, deterministically ordered snapshot of all recorded trace
/// events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Every event, sorted by [`TraceEvent::key`].
    pub events: Vec<TraceEvent>,
    /// Events discarded because the handle's capacity was reached.
    pub dropped: u64,
}

impl Trace {
    /// The run-independent projection: every event, in merge order,
    /// without worker ids or timestamps. For one mapping run this is
    /// bit-identical across `--cache` settings and warm-cache states
    /// (property-tested in `crates/chortle`).
    pub fn identity(&self) -> Vec<IdentityEvent> {
        self.events
            .iter()
            .map(|e| IdentityEvent {
                scope: e.scope,
                index: e.index,
                step: e.step,
                name: e.name,
                kind: e.kind,
                arg: e.arg,
            })
            .collect()
    }

    /// Renders Chrome trace-event JSON (loadable in `chrome://tracing`
    /// and Perfetto). Events are ordered by timestamp; at equal
    /// timestamps inner spans close before outer ones open so `B`/`E`
    /// pairs stay balanced per thread.
    pub fn to_chrome_json(&self) -> String {
        use std::fmt::Write as _;
        // Rank for timestamp ties: close inner scopes (Tree ⊂ Stage)
        // before opening the next span at the same instant.
        fn tie_rank(e: &TraceEvent) -> u8 {
            match (e.kind, e.scope) {
                (TraceKind::End | TraceKind::Cancelled, TraceScope::Tree | TraceScope::Request) => {
                    0
                }
                (TraceKind::End | TraceKind::Cancelled, TraceScope::Stage) => 1,
                (TraceKind::Begin, TraceScope::Stage) => 2,
                (TraceKind::Begin, TraceScope::Tree | TraceScope::Request) => 3,
                (TraceKind::Instant, _) => 4,
            }
        }
        let mut ordered: Vec<&TraceEvent> = self.events.iter().collect();
        ordered.sort_by_key(|e| (e.t_ns, tie_rank(e)));
        let mut out = String::with_capacity(64 + 96 * ordered.len());
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, e) in ordered.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json::write_string(&mut out, e.name);
            let _ = write!(out, ",\"cat\":\"{}\"", e.scope.category());
            let ph = match e.kind {
                TraceKind::Begin => "B",
                TraceKind::End | TraceKind::Cancelled => "E",
                TraceKind::Instant => "i",
            };
            let _ = write!(out, ",\"ph\":\"{ph}\",\"ts\":");
            json::write_f64(&mut out, e.t_ns as f64 / 1_000.0);
            if e.kind == TraceKind::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            let _ = write!(
                out,
                ",\"pid\":1,\"tid\":{},\"args\":{{\"index\":{},\"arg\":{}",
                e.worker, e.index, e.arg
            );
            if e.kind == TraceKind::Cancelled {
                out.push_str(",\"cancelled\":true");
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

/// Checks that `input` is well-formed Chrome trace-event JSON: the
/// layout [`Trace::to_chrome_json`] writes, with every event carrying
/// `name`/`cat`/`ph`/`ts`/`pid`/`tid` of the right kinds and `B`/`E`
/// events balanced per `tid`.
///
/// # Errors
///
/// A human-readable description of the first deviation.
pub fn validate_chrome_trace(input: &str) -> Result<(), String> {
    let value = json::parse(input).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = value
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("$.traceEvents must be an array")?;
    let mut depth: std::collections::BTreeMap<u64, i64> = std::collections::BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let path = format!("$.traceEvents[{i}]");
        e.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}.name must be a string"))?;
        e.get("cat")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}.cat must be a string"))?;
        e.get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}.ts must be a number"))?;
        e.get("pid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{path}.pid must be an integer"))?;
        let tid = e
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{path}.tid must be an integer"))?;
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}.ph must be a string"))?;
        match ph {
            "B" => *depth.entry(tid).or_insert(0) += 1,
            "E" => {
                let d = depth.entry(tid).or_insert(0);
                *d -= 1;
                if *d < 0 {
                    return Err(format!("{path}: unmatched \"E\" on tid {tid}"));
                }
            }
            "i" => {}
            other => return Err(format!("{path}.ph is {other:?}, expected B, E or i")),
        }
    }
    for (tid, d) in depth {
        if d != 0 {
            return Err(format!("tid {tid} has {d} unclosed \"B\" event(s)"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn buffers_record_only_when_tracing() {
        let plain = Telemetry::enabled();
        let mut buf = plain.trace_buffer(3);
        buf.begin(TraceScope::Tree, 0, "map.tree", 1);
        assert!(!buf.is_enabled());
        plain.trace_flush(&mut buf);
        assert!(plain.trace_snapshot().events.is_empty());

        let traced = Telemetry::traced();
        assert!(traced.is_tracing());
        let mut buf = traced.trace_buffer(3);
        buf.begin(TraceScope::Tree, 0, "map.tree", 1);
        buf.end(TraceScope::Tree, 0, "map.tree", 2);
        traced.trace_flush(&mut buf);
        let trace = traced.trace_snapshot();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].kind, TraceKind::Begin);
        assert_eq!(trace.events[0].worker, 3);
        assert!(trace.events[1].t_ns >= trace.events[0].t_ns);
    }

    #[test]
    fn merge_order_is_the_key_order_not_flush_order() {
        let t = Telemetry::traced();
        let mut late = t.trace_buffer(2);
        late.begin(TraceScope::Tree, 5, "map.tree", 0);
        late.end(TraceScope::Tree, 5, "map.tree", 0);
        let mut early = t.trace_buffer(1);
        early.begin(TraceScope::Tree, 1, "map.tree", 0);
        early.end(TraceScope::Tree, 1, "map.tree", 0);
        // Flush in the "wrong" order: the snapshot must not care.
        t.trace_flush(&mut late);
        t.trace_flush(&mut early);
        let keys: Vec<_> = t
            .trace_snapshot()
            .events
            .iter()
            .map(TraceEvent::key)
            .collect();
        assert_eq!(
            keys,
            vec![
                (TraceScope::Tree, 1, STEP_BEGIN, 1),
                (TraceScope::Tree, 1, STEP_END, 1),
                (TraceScope::Tree, 5, STEP_BEGIN, 2),
                (TraceScope::Tree, 5, STEP_END, 2),
            ]
        );
    }

    #[test]
    fn identity_drops_workers_and_time() {
        let t = Telemetry::traced();
        let mut a = t.trace_buffer(7);
        a.begin(TraceScope::Tree, 0, "map.tree", 4);
        a.cancelled(TraceScope::Tree, 0, "map.tree", 0);
        t.trace_flush(&mut a);
        let first = t.trace_snapshot().identity();
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].kind, TraceKind::Begin);
        assert_eq!(first[1].kind, TraceKind::Cancelled);
        // The same events from another worker, at later times, project
        // to the same identity.
        let u = Telemetry::traced();
        let mut b = u.trace_buffer(0);
        b.begin(TraceScope::Tree, 0, "map.tree", 4);
        b.cancelled(TraceScope::Tree, 0, "map.tree", 0);
        u.trace_flush(&mut b);
        assert_eq!(u.trace_snapshot().identity(), first);
    }

    #[test]
    fn capacity_bounds_memory_and_counts_drops() {
        let t = Telemetry::traced_with_capacity(3);
        let mut buf = t.trace_buffer(0);
        for i in 0..5 {
            buf.instant(TraceScope::Tree, i, "dp.solve", 0);
        }
        t.trace_flush(&mut buf);
        let trace = t.trace_snapshot();
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.dropped, 2);
    }

    #[test]
    fn chrome_json_is_wellformed_and_balanced() {
        let t = Telemetry::traced();
        {
            let _outer = t.span("flow.map");
            let mut buf = t.trace_buffer(1);
            buf.begin(TraceScope::Tree, 0, "map.tree", 3);
            buf.instant(TraceScope::Tree, 0, "dp.solve", 1);
            buf.end(TraceScope::Tree, 0, "map.tree", 2);
            t.trace_flush(&mut buf);
        }
        let chrome = t.trace_snapshot().to_chrome_json();
        validate_chrome_trace(&chrome).expect("balanced, well-formed");
        assert!(chrome.contains("\"ph\":\"B\""));
        assert!(chrome.contains("\"s\":\"t\""));

        validate_chrome_trace("{}").unwrap_err();
        validate_chrome_trace(r#"{"traceEvents":[{"name":"x"}]}"#).unwrap_err();
        let unbalanced = r#"{"traceEvents":[
            {"name":"x","cat":"c","ph":"E","ts":0,"pid":1,"tid":0}]}"#;
        let err = validate_chrome_trace(unbalanced).unwrap_err();
        assert!(err.contains("unmatched"), "{err}");
    }

    #[test]
    fn cancelled_renders_as_a_closing_event() {
        let t = Telemetry::traced();
        let mut buf = t.trace_buffer(0);
        buf.begin(TraceScope::Tree, 0, "map.tree", 0);
        buf.cancelled(TraceScope::Tree, 0, "map.tree", 0);
        t.trace_flush(&mut buf);
        let chrome = t.trace_snapshot().to_chrome_json();
        validate_chrome_trace(&chrome).expect("cancelled still balances");
        assert!(chrome.contains("\"cancelled\":true"));
    }
}
