//! The sliding-window metrics aggregator behind `op: "metrics"` and the
//! Prometheus endpoint (DESIGN.md §18).
//!
//! The daemon's counters and histograms are cumulative-since-startup;
//! dashboards want *rates over the recent past*. This module keeps a
//! bounded ring of per-second [`Cum`] deltas (one bucket per elapsed
//! second, at most [`WindowAggregator::window_s`] of them) and derives
//! windowed qps, shed rate, the cache hit rate, and latency
//! quantiles from their sum.
//!
//! Two invariants make the numbers trustworthy:
//!
//! - **Exact roll-up.** A snapshot always includes the *live tail* —
//!   the delta between the last completed second boundary and now — so
//!   right after startup (before the ring has evicted anything) the
//!   window totals equal the cumulative totals exactly, and the
//!   `window ≤ cumulative` inequality holds per key forever after
//!   (counters are monotonic; the window sums a suffix of history).
//! - **No silent gaps.** When the clock skips seconds between
//!   observations (an idle daemon), the accrued delta lands in the
//!   earliest skipped second and the rest are padded with empty
//!   buckets, so the ring's length honestly measures elapsed time and
//!   old traffic still ages out on schedule.
//!
//! Time is an explicit parameter (`sec`, whole seconds since server
//! start) rather than read from a clock here, so tests drive the
//! window deterministically.

use std::collections::VecDeque;
use std::sync::Mutex;

use chortle::WarmStats;
use chortle_telemetry::{catalogue, Histogram, Report};

use crate::proto::MetricsSnapshot;

/// Cumulative totals at one instant — the aggregator's unit of
/// observation. Windowed values are differences of these.
#[derive(Clone)]
pub(crate) struct Cum {
    /// Requests admitted to the queue (`serve.accepted`).
    pub accepted: u64,
    /// Requests completed successfully (`serve.completed`).
    pub completed: u64,
    /// Requests shed at admission (`serve.admission.shed_over_quota`
    /// plus `serve.admission.shed_queue_full`).
    pub shed: u64,
    /// Warm-cache lookup hits.
    pub hits: u64,
    /// Warm-cache lookup misses.
    pub misses: u64,
    /// The `serve.run_ns` execution-latency histogram.
    pub run_hist: Histogram,
}

impl Cum {
    /// All-zero totals (the state before the server has served
    /// anything).
    pub fn zero() -> Cum {
        Cum {
            accepted: 0,
            completed: 0,
            shed: 0,
            hits: 0,
            misses: 0,
            run_hist: Histogram::new(),
        }
    }

    /// Reads the current cumulative totals out of a server report and
    /// the warm-cache tallies.
    pub fn capture(report: &Report, warm: &WarmStats) -> Cum {
        let counter = |name: &str| report.counter(name).unwrap_or(0);
        Cum {
            accepted: counter(catalogue::SERVE_ACCEPTED),
            completed: counter(catalogue::SERVE_COMPLETED),
            shed: counter(catalogue::SERVE_ADMISSION_SHED_OVER_QUOTA)
                + counter(catalogue::SERVE_ADMISSION_SHED_QUEUE_FULL),
            hits: warm.hits,
            misses: warm.misses,
            run_hist: report
                .histogram(catalogue::SERVE_RUN_NS)
                .cloned()
                .unwrap_or_else(Histogram::new),
        }
    }

    /// The delta `self - earlier`, saturating per key (counters are
    /// monotonic, so saturation only papers over a caller bug).
    fn delta(&self, earlier: &Cum) -> Cum {
        Cum {
            accepted: self.accepted.saturating_sub(earlier.accepted),
            completed: self.completed.saturating_sub(earlier.completed),
            shed: self.shed.saturating_sub(earlier.shed),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            run_hist: self.run_hist.diff(&earlier.run_hist),
        }
    }

    /// Accumulates `other` into `self` (the inverse of [`Cum::delta`]).
    fn add(&mut self, other: &Cum) {
        self.accepted += other.accepted;
        self.completed += other.completed;
        self.shed += other.shed;
        self.hits += other.hits;
        self.misses += other.misses;
        self.run_hist.merge(&other.run_hist);
    }
}

struct State {
    /// Cumulative totals at the last completed second boundary.
    base: Cum,
    /// The second index `base` was observed at.
    base_sec: u64,
    /// Per-second deltas, oldest first — at most `window_s - 1` of
    /// them; the live tail (`now - base`) supplies the final second.
    deltas: VecDeque<Cum>,
}

/// The sliding window itself. One per server; the event loop feeds it
/// via [`WindowAggregator::observe`] once per second and any thread
/// may take a [`WindowAggregator::snapshot`].
pub(crate) struct WindowAggregator {
    window_s: u64,
    inner: Mutex<State>,
}

impl WindowAggregator {
    /// A window retaining `window_s` seconds of per-second deltas
    /// (clamped to at least 1).
    pub fn new(window_s: u64) -> Self {
        WindowAggregator {
            window_s: window_s.max(1),
            inner: Mutex::new(State {
                base: Cum::zero(),
                base_sec: 0,
                deltas: VecDeque::new(),
            }),
        }
    }

    /// `true` when `sec` has advanced past the last completed second —
    /// the caller's cue to capture a [`Cum`] and call
    /// [`WindowAggregator::observe`] (capturing is the expensive part,
    /// so the event loop checks first).
    pub fn needs_roll(&self, sec: u64) -> bool {
        sec > self.inner.lock().expect("metrics window poisoned").base_sec
    }

    /// Rolls the window forward to `sec`: the delta accrued since the
    /// last boundary becomes the bucket for that earliest second, any
    /// further skipped seconds get empty buckets, and buckets older
    /// than the window age out. A non-advancing `sec` is a no-op.
    pub fn observe(&self, sec: u64, now: &Cum) {
        let mut state = self.inner.lock().expect("metrics window poisoned");
        if sec <= state.base_sec {
            return;
        }
        let delta = now.delta(&state.base);
        state.deltas.push_back(delta);
        for _ in 1..(sec - state.base_sec).min(self.window_s) {
            state.deltas.push_back(Cum::zero());
        }
        let keep = (self.window_s - 1) as usize;
        while state.deltas.len() > keep {
            state.deltas.pop_front();
        }
        state.base = now.clone();
        state.base_sec = sec;
    }

    /// Derives the windowed snapshot: ring buckets plus the live tail
    /// (`now` vs the last boundary), so window totals and cumulative
    /// totals agree exactly until the ring starts evicting.
    pub fn snapshot(&self, now: &Cum) -> MetricsSnapshot {
        let state = self.inner.lock().expect("metrics window poisoned");
        let mut window = now.delta(&state.base);
        for bucket in &state.deltas {
            window.add(bucket);
        }
        let seconds = (state.deltas.len() as u64 + 1).min(self.window_s);
        let rate = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        MetricsSnapshot {
            window_s: self.window_s,
            seconds,
            qps: window.completed as f64 / seconds.max(1) as f64,
            shed_rate: rate(window.shed, window.accepted + window.shed),
            cache_hit_rate: rate(window.hits, window.hits + window.misses),
            p50_ns: window.run_hist.quantile(0.5),
            p95_ns: window.run_hist.quantile(0.95),
            p99_ns: window.run_hist.quantile(0.99),
            window_accepted: window.accepted,
            window_completed: window.completed,
            window_shed: window.shed,
            cumulative_accepted: now.accepted,
            cumulative_completed: now.completed,
            cumulative_shed: now.shed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cum(accepted: u64, completed: u64, shed: u64, runs: &[u64]) -> Cum {
        let mut c = Cum::zero();
        c.accepted = accepted;
        c.completed = completed;
        c.shed = shed;
        c.hits = completed / 2;
        c.misses = completed - completed / 2;
        for &ns in runs {
            c.run_hist.record(ns);
        }
        c
    }

    #[test]
    fn fresh_window_equals_cumulative_exactly() {
        let w = WindowAggregator::new(60);
        let now = cum(10, 8, 2, &[1_000, 2_000, 4_000]);
        // No roll has happened: the live tail covers everything.
        let m = w.snapshot(&now);
        assert_eq!(m.window_accepted, m.cumulative_accepted);
        assert_eq!(m.window_completed, m.cumulative_completed);
        assert_eq!(m.window_shed, m.cumulative_shed);
        assert_eq!(m.seconds, 1);
        assert!((m.shed_rate - 2.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn window_arithmetic_rolls_up_per_second_deltas() {
        let w = WindowAggregator::new(60);
        let t1 = cum(10, 10, 0, &[1_000]);
        w.observe(1, &t1);
        let t2 = cum(25, 22, 3, &[1_000, 2_000]);
        w.observe(2, &t2);
        let t3 = cum(30, 28, 3, &[1_000, 2_000, 8_000]);
        let m = w.snapshot(&t3);
        // Buckets (0→1, 1→2) plus the live tail (2→now) sum back to
        // the cumulative totals — nothing evicted yet.
        assert_eq!(m.seconds, 3);
        assert_eq!(m.window_accepted, 30);
        assert_eq!(m.window_completed, 28);
        assert_eq!(m.window_shed, 3);
        assert_eq!(m.cumulative_accepted, 30);
        assert!((m.qps - 28.0 / 3.0).abs() < 1e-12);
        assert!((m.shed_rate - 3.0 / 33.0).abs() < 1e-12);
        // The summed window histogram holds all three samples.
        assert!(m.p50_ns >= 1_000 && m.p99_ns >= m.p50_ns);
    }

    #[test]
    fn old_traffic_ages_out_of_a_small_window() {
        let w = WindowAggregator::new(3);
        let t1 = cum(100, 100, 0, &[]);
        w.observe(1, &t1);
        // Ten quiet seconds: the burst's bucket must be evicted.
        w.observe(11, &t1);
        let m = w.snapshot(&t1);
        assert_eq!(m.window_completed, 0, "burst aged out");
        assert_eq!(m.cumulative_completed, 100, "cumulative keeps it");
        assert_eq!(m.seconds, 3);
        assert!((m.qps - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn skipped_seconds_pad_and_bound_the_ring() {
        let w = WindowAggregator::new(5);
        let t1 = cum(7, 7, 0, &[500]);
        w.observe(1, &t1);
        let t2 = cum(9, 9, 0, &[500, 500]);
        // A 100-second gap may not grow the ring past the window.
        w.observe(101, &t2);
        let m = w.snapshot(&t2);
        assert_eq!(m.seconds, 5);
        assert!(m.window_completed <= m.cumulative_completed);
        assert_eq!(m.window_completed, 0, "gap evicted the old buckets");
    }

    #[test]
    fn non_advancing_observations_are_no_ops() {
        let w = WindowAggregator::new(60);
        let t1 = cum(5, 5, 0, &[]);
        w.observe(3, &t1);
        assert!(!w.needs_roll(3));
        assert!(w.needs_roll(4));
        w.observe(3, &t1);
        w.observe(2, &t1);
        let m = w.snapshot(&t1);
        // Seconds 0..=2 are bucketed (two of them padding), second 3 is
        // the live tail — four seconds of coverage, totals unchanged.
        assert_eq!(m.seconds, 4);
        assert_eq!(m.window_completed, 5);
    }
}
