//! The tracing contract: the identity projection of a mapping trace and
//! the deterministic `dp.tree_work` histogram are pure functions of the
//! input — bit-identical for any `--cache` mode, with or without a warm
//! cache — and cancellation never leaves a `begin` without a closing
//! event.

use chortle::{
    catalogue, map_network, CacheMode, CancelToken, MapError, MapOptions, Telemetry, WarmCache,
};
use chortle::{TraceKind, TraceScope};
use chortle_netlist::{Network, NodeOp, Signal, SplitMix64};
use chortle_telemetry::validate_chrome_trace;

fn random_network(seed: u64, inputs: usize, gates: usize, max_arity: usize) -> Network {
    let mut rng = SplitMix64::new(seed);
    let mut net = Network::new();
    let mut signals: Vec<Signal> = (0..inputs)
        .map(|i| Signal::new(net.add_input(format!("i{i}"))))
        .collect();
    for g in 0..gates {
        let arity = rng.next_range(2, max_arity + 1);
        let mut fanins: Vec<Signal> = Vec::new();
        let mut used = std::collections::HashSet::new();
        let mut guard = 0;
        while fanins.len() < arity && guard < 60 {
            guard += 1;
            let s = signals[rng.choose_index(&signals)];
            if used.insert(s.node()) {
                fanins.push(if rng.next_bool(1, 3) { !s } else { s });
            }
        }
        if fanins.len() < 2 {
            continue;
        }
        let op = if g % 2 == 0 { NodeOp::And } else { NodeOp::Or };
        signals.push(Signal::new(net.add_gate(op, fanins)));
    }
    for o in 0..rng.next_range(1, 4) {
        let s = signals[rng.choose_index(&signals)];
        net.add_output(format!("o{o}"), if rng.next_bool(1, 4) { !s } else { s });
    }
    net
}

fn traced_options(k: usize, cache: CacheMode) -> (Telemetry, MapOptions) {
    let telemetry = Telemetry::traced();
    let options = MapOptions::builder(k)
        .cache(cache)
        .telemetry(telemetry.clone())
        .build()
        .expect("valid options");
    (telemetry, options)
}

/// Every cache mode without a warm cache, then each caching mode twice
/// against one fresh [`WarmCache`] (cold, then warm): the runs whose
/// traces and histograms must agree.
fn every_run(k: usize) -> Vec<(String, MapOptions)> {
    let mut runs = Vec::new();
    for cache in [CacheMode::Off, CacheMode::Shared] {
        let options = MapOptions::builder(k).cache(cache).build().unwrap();
        runs.push((format!("{cache:?}"), options));
    }
    let warm = WarmCache::new();
    for pass in ["cold", "warm"] {
        let options = MapOptions::builder(k)
            .cache(CacheMode::Shared)
            .warm_cache(warm.clone())
            .build()
            .unwrap();
        runs.push((format!("Shared {pass}"), options));
    }
    runs
}

/// `options` reporting into `telemetry`.
fn with_sink(options: &MapOptions, telemetry: &Telemetry) -> MapOptions {
    let mut options = options.clone();
    options.telemetry = telemetry.clone();
    options
}

#[test]
fn trace_identity_is_invariant_across_cache_modes() {
    let mut rng = SplitMix64::new(0x7ace_0001);
    for round in 0..8 {
        let net = random_network(rng.next_u64(), 8, 24, 6);
        let k = rng.next_range(2, 7);
        let trace_of = |options: &MapOptions| {
            let telemetry = Telemetry::traced();
            map_network(&net, &with_sink(options, &telemetry)).expect("maps");
            telemetry.trace_snapshot()
        };
        let plain = |cache| MapOptions::builder(k).cache(cache).build().unwrap();
        let baseline = trace_of(&plain(CacheMode::Off));
        assert_eq!(baseline.dropped, 0);
        assert!(!baseline.events.is_empty(), "tracing captured nothing");
        for (run, options) in every_run(k) {
            assert_eq!(
                baseline.identity(),
                trace_of(&options).identity(),
                "trace identity diverged (round={round} k={k} cache={run})"
            );
        }
    }
}

#[test]
fn tree_work_histogram_is_invariant_across_cache_modes() {
    let mut rng = SplitMix64::new(0x7ace_0002);
    let mut nonempty_rounds = 0;
    for round in 0..8 {
        let net = random_network(rng.next_u64(), 8, 24, 6);
        let k = rng.next_range(2, 7);
        let report = |options: &MapOptions| {
            let telemetry = Telemetry::enabled();
            map_network(&net, &with_sink(options, &telemetry)).expect("maps");
            telemetry.snapshot()
        };
        let baseline = report(
            &MapOptions::builder(k)
                .cache(CacheMode::Off)
                .build()
                .unwrap(),
        );
        // A degenerate round can normalize to an empty forest, in which
        // case the histogram is absent — absence must then be invariant
        // too, so compare as an Option.
        let base_hist = baseline.histogram(catalogue::DP_TREE_WORK).cloned();
        if let Some(h) = &base_hist {
            assert!(h.count() > 0);
            nonempty_rounds += 1;
        }
        for (run, options) in every_run(k) {
            let r = report(&options);
            assert_eq!(
                base_hist.as_ref(),
                r.histogram(catalogue::DP_TREE_WORK),
                "dp.tree_work diverged (round={round} k={k} cache={run})"
            );
        }
    }
    assert!(nonempty_rounds > 0, "every round degenerated");
}

/// Columns of one six-leaf cone (wider than K = 4: solved once, then
/// replayed) beside a two-leaf cone (one LUT, no DP).
fn mixed_network(columns: usize) -> Network {
    let mut net = Network::new();
    for c in 0..columns {
        let x: Vec<Signal> = (0..6)
            .map(|i| Signal::new(net.add_input(format!("c{c}x{i}"))))
            .collect();
        let wide = net.add_gate(NodeOp::And, x.clone());
        let narrow = net.add_gate(NodeOp::Or, vec![x[0], !x[1]]);
        net.add_output(format!("w{c}"), wide.into());
        net.add_output(format!("n{c}"), narrow.into());
    }
    net
}

#[test]
fn solve_and_replay_instants_partition_the_forest() {
    for (net, mixed) in [
        (random_network(0x7ace_0003, 8, 30, 5), false),
        (mixed_network(4), true),
    ] {
        let (telemetry, options) = traced_options(4, CacheMode::Shared);
        map_network(&net, &options).expect("maps");
        let trace = telemetry.trace_snapshot();
        let report = telemetry.snapshot();
        let trees = report.counter(catalogue::MAP_TREES).expect("map.trees");
        let count = |name| {
            trace
                .events
                .iter()
                .filter(|e| e.kind == TraceKind::Instant && e.name == name)
                .count() as u64
        };
        let solves = count(catalogue::DP_SOLVE);
        let replays = count(catalogue::DP_REPLAY);
        let singles = count(catalogue::MAP_SINGLE_LUT);
        assert_eq!(
            solves + replays + singles,
            trees,
            "every tree classified exactly once"
        );
        if mixed {
            assert!(solves > 0 && replays > 0 && singles > 0);
        }
        // Under a shared cache the post-hoc classification and the live
        // counters describe the same partition.
        assert_eq!(Some(replays), report.counter(catalogue::CACHE_HITS));
        assert_eq!(Some(solves), report.counter(catalogue::CACHE_MISSES));
        assert_eq!(
            Some(singles),
            report.counter(catalogue::MAP_SINGLE_LUT_TREES)
        );
        // Each classified tree also opened and closed a tree span.
        let begins = trace
            .events
            .iter()
            .filter(|e| e.kind == TraceKind::Begin && e.scope == TraceScope::Tree)
            .count() as u64;
        assert_eq!(begins, trees);
    }
}

/// Groups span events by (scope, index) and asserts every `Begin` is
/// closed by an `End` or an explicit `Cancelled`.
fn assert_spans_closed(trace: &chortle::Trace, context: &str) {
    use std::collections::HashMap;
    let mut open: HashMap<(TraceScope, u64, u32), i64> = HashMap::new();
    for e in &trace.events {
        match e.kind {
            TraceKind::Begin => *open.entry((e.scope, e.index, e.worker)).or_insert(0) += 1,
            TraceKind::End | TraceKind::Cancelled => {
                *open.entry((e.scope, e.index, e.worker)).or_insert(0) -= 1
            }
            TraceKind::Instant => {}
        }
    }
    for (key, balance) in open {
        assert_eq!(balance, 0, "unbalanced span {key:?} ({context})");
    }
}

#[test]
fn cancellation_between_trees_leaves_no_partial_spans() {
    // Cancellation is polled at tree boundaries, so however the race
    // between the canceller and the mapper lands — before the run, mid
    // forest, or after completion — every flushed `begin` must carry
    // a matching `end` (or explicit `cancelled`) and the Chrome export
    // must stay balanced.
    let mut rng = SplitMix64::new(0x7ace_0004);
    let mut cancelled_runs = 0;
    for round in 0..24 {
        let net = random_network(rng.next_u64(), 10, 40, 6);
        let cache = if round % 3 == 0 {
            CacheMode::Off
        } else {
            CacheMode::Shared
        };
        let telemetry = Telemetry::traced();
        let token = CancelToken::armed();
        let options = MapOptions::builder(4)
            .cache(cache)
            .telemetry(telemetry.clone())
            .cancel(token.clone())
            .build()
            .expect("valid options");
        // Vary where the cancel lands: immediately (round 0 of each
        // triple), or raced from another thread after a short,
        // round-dependent delay.
        let canceller = if round % 4 == 0 {
            token.cancel();
            None
        } else {
            let delay = std::time::Duration::from_micros(50 * (round as u64 % 7));
            Some(std::thread::spawn(move || {
                std::thread::sleep(delay);
                token.cancel();
            }))
        };
        let result = map_network(&net, &options);
        if let Some(h) = canceller {
            h.join().expect("canceller thread");
        }
        match result {
            Ok(_) => {}
            Err(MapError::Cancelled) => cancelled_runs += 1,
            Err(e) => panic!("unexpected error: {e:?}"),
        }
        let trace = telemetry.trace_snapshot();
        assert_spans_closed(&trace, &format!("round={round} cache={cache:?}"));
        validate_chrome_trace(&trace.to_chrome_json())
            .unwrap_or_else(|e| panic!("chrome trace invalid (round={round}): {e}"));
    }
    assert!(cancelled_runs > 0, "no run was actually cancelled");
}

#[test]
fn completed_trace_exports_valid_chrome_json() {
    let net = random_network(0x7ace_0005, 8, 24, 5);
    let (telemetry, options) = traced_options(4, CacheMode::Shared);
    map_network(&net, &options).expect("maps");
    let trace = telemetry.trace_snapshot();
    assert_spans_closed(&trace, "cache=Shared");
    let chrome = trace.to_chrome_json();
    validate_chrome_trace(&chrome).expect("chrome-loadable");
    // Stage spans from the pipeline and tree spans from the mapper both
    // made it into the export.
    assert!(chrome.contains("\"cat\":\"stage\""));
    assert!(chrome.contains("\"cat\":\"tree\""));
}

#[test]
fn trace_capacity_bounds_memory_and_counts_drops() {
    let net = random_network(0x7ace_0006, 8, 30, 5);
    let telemetry = Telemetry::traced_with_capacity(8);
    let options = MapOptions::builder(4)
        .telemetry(telemetry.clone())
        .build()
        .expect("valid options");
    map_network(&net, &options).expect("maps");
    let trace = telemetry.trace_snapshot();
    assert!(trace.events.len() <= 8);
    assert!(trace.dropped > 0, "an 8-event budget must overflow");
    let report = telemetry.snapshot();
    assert_eq!(
        Some(trace.events.len() as u64),
        report.counter("trace.events")
    );
    assert_eq!(Some(trace.dropped), report.counter("trace.dropped"));
}
