//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public function, recorded from the
//! benchmark's side of the call: name, start, end, parent span and the
//! op it belongs to (every span of one op shares the op id). Spans stay
//! in memory while the run measures and are written out once, as JSON
//! lines, when it ends. A layer's *self time* is its span's duration
//! minus the part of that interval its child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `netlist.parse`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the origin.
    pub start_ns: u64,
    /// End, in ns since the origin.
    pub end_ns: u64,
}

/// Total and self time of every span sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
}

/// Single-threaded span recorder.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        self.tracer.spans.borrow_mut()[self.index].end_ns = end;
        let popped = self.tracer.open.borrow_mut().pop();
        debug_assert_eq!(popped, Some(self.index), "spans close in LIFO order");
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose origin is now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(1 << 16)),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        ns_between(self.origin, Instant::now())
    }

    /// Nanoseconds from the origin to `at`.
    pub fn offset_ns(&self, at: Instant) -> u64 {
        ns_between(self.origin, at)
    }

    /// Sets the op id that spans opened from now on carry.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    /// Opens a span nested in the innermost open span.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let start = self.now_ns();
        let parent = self.open.borrow().last().copied();
        let index = self.push(Span {
            name,
            op: self.op.get(),
            parent,
            start_ns: start,
            end_ns: start,
        });
        self.open.borrow_mut().push(index);
        Guard {
            tracer: self,
            index,
        }
    }

    /// Adds a finished span, for calls timed elsewhere (the load
    /// generator's request round trips). Returns its index.
    pub fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(span);
        spans.len() - 1
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans.borrow())
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates the file-system error.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.borrow();
        let mut out = String::with_capacity(spans.len() * 96);
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Total and self time per span name. A span's self time is its duration
/// minus the union of its children's intervals clipped to it.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let covered = covered_ns(kids, s.start_ns, s.end_ns);
        let entry = out.entry(s.name).or_default();
        entry.calls += 1;
        entry.total_ns += duration;
        entry.self_ns += duration - covered.min(duration);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("op", None, 0, 100),
            span("parse", Some(0), 10, 40),
            // Overlaps its sibling: the union counts 40..60 once.
            span("map", Some(0), 30, 60),
            span("render", Some(0), 90, 120),
        ];
        let layers = layer_times(&spans);
        assert_eq!(layers["op"].total_ns, 100);
        // Children cover 10..60 and 90..100 of the op's interval.
        assert_eq!(layers["op"].self_ns, 40);
        assert_eq!(layers["parse"].self_ns, 30);
        assert_eq!(layers["render"].total_ns, 30);
    }

    #[test]
    fn guards_nest_and_share_the_op_id() {
        let tracer = Tracer::new();
        tracer.set_op(7);
        {
            let _op = tracer.span("op");
            let _parse = tracer.span("parse");
        }
        tracer.set_op(8);
        drop(tracer.span("op"));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].op, spans[1].op, spans[2].op), (7, 7, 8));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let layers = tracer.layers();
        assert_eq!(layers["op"].calls, 2);
        assert_eq!(layers["parse"].calls, 1);
    }
}
