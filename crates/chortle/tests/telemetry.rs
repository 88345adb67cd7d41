//! The mapper's observability contract: the JSON report's layout is
//! pinned in a golden file, and every counter is a pure function of the
//! input — bit-identical totals whether a run maps alone or beside other
//! runs sharing its warm cache.

use chortle::{catalogue, map_network, MapOptions, Telemetry, WarmCache};
use chortle_netlist::{Network, NodeOp, Signal, SplitMix64};
use chortle_telemetry::schema::{shape, validate_report};

/// A network whose trees depend on each other: two shared gates feed two
/// consumers each, which feed a top cone. The top cone's
/// five leaf occurrences are wider than K = 4, so it reaches the DP.
fn layered_network() -> Network {
    let mut net = Network::new();
    let inputs: Vec<Signal> = (0..8)
        .map(|i| Signal::new(net.add_input(format!("i{i}"))))
        .collect();
    let s1 = Signal::new(net.add_gate(NodeOp::And, vec![inputs[0], inputs[1], inputs[2]]));
    let s2 = Signal::new(net.add_gate(NodeOp::Or, vec![inputs[3], inputs[4]]));
    let side = Signal::new(net.add_gate(NodeOp::And, vec![inputs[0], inputs[6]]));
    let m1 = Signal::new(net.add_gate(NodeOp::Or, vec![s1, inputs[5], side]));
    let m2 = Signal::new(net.add_gate(NodeOp::And, vec![s1, s2, inputs[6]]));
    let top = Signal::new(net.add_gate(NodeOp::Or, vec![m1, m2, inputs[7]]));
    net.add_output("t", top);
    net.add_output("m2", !m2);
    net.add_output("s2", s2);
    net
}

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

/// Maps `net` with a fresh enabled sink and returns the snapshot.
fn mapped_report(net: &Network, k: usize) -> chortle::MapStats {
    mapped_report_warm(net, k, &WarmCache::new())
}

/// [`mapped_report`] with the run attached to `warm`.
fn mapped_report_warm(net: &Network, k: usize, warm: &WarmCache) -> chortle::MapStats {
    let telemetry = Telemetry::enabled();
    let options = MapOptions::builder(k)
        .warm_cache(warm.clone())
        .telemetry(telemetry.clone())
        .build()
        .expect("valid options");
    map_network(net, &options).expect("maps");
    telemetry.snapshot()
}

#[test]
fn report_shape_matches_the_golden_file() {
    let report = mapped_report(&layered_network(), 4);
    let json = report.to_json();
    validate_report(&json).expect("schema-valid");
    let expected = include_str!("golden/report_schema.txt");
    assert_eq!(
        shape(&json).expect("shapes"),
        expected,
        "report layout drifted; update tests/golden/report_schema.txt \
         and bump chortle_telemetry::SCHEMA if the change is intentional"
    );
}

#[test]
fn mapper_reports_every_documented_stage_and_counter() {
    let report = mapped_report(&layered_network(), 4);
    for stage in [
        catalogue::MAP_NORMALIZE,
        catalogue::MAP_FOREST,
        catalogue::MAP_SPLIT,
        catalogue::MAP_CANON,
        catalogue::MAP_DP,
        catalogue::MAP_EMIT,
    ] {
        let s = report
            .stage(stage)
            .unwrap_or_else(|| panic!("missing stage {stage}"));
        assert_eq!(s.calls, 1, "{stage}");
        assert!(s.seconds >= 0.0, "{stage}");
    }
    for counter in [
        catalogue::DP_DIVISIONS,
        catalogue::DP_GROUP_BLOCKS,
        catalogue::DP_PRUNED_WALKS,
        catalogue::DP_TREE_NODES,
        catalogue::DP_SCRATCH_HITS,
        catalogue::DP_SCRATCH_GROWS,
        catalogue::MAP_NODES_SPLIT,
        catalogue::MAP_TREES,
        catalogue::MAP_SINGLE_LUT_TREES,
        catalogue::MAP_TREES_AT_BOUND,
        catalogue::MAP_BOUND_GAP,
        catalogue::CACHE_HITS,
        catalogue::CACHE_MISSES,
        catalogue::CACHE_REPLAYED_LUTS,
    ] {
        assert!(
            report.counter(counter).is_some(),
            "missing counter {counter}"
        );
    }
    assert!(report.counter(catalogue::DP_DIVISIONS).unwrap() > 0);
    assert!(report.counter(catalogue::MAP_TREES).unwrap() > 0);
}

#[test]
fn counters_are_identical_for_any_worker_count() {
    // The property the whole counter design serves: every counter is a
    // pure function of the input, so a lone cold run and any number of
    // concurrent runs sharing (and racing to fill) one warm cache tally
    // the same — `cache.*` included, since hits are counted from the
    // forest, not from the store.
    let mut rng = SplitMix64::new(0x7e1e_0001);
    for round in 0..12 {
        let net = random_network(rng.next_u64(), 8, 20, 6);
        let k = rng.next_range(2, 7);
        let baseline = mapped_report(&net, k);
        for workers in [2, 4] {
            let warm = WarmCache::new();
            let reports: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| s.spawn(|| mapped_report_warm(&net, k, &warm)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for report in &reports {
                assert_eq!(
                    baseline.counters, report.counters,
                    "counters diverged (round={round} k={k} workers={workers})"
                );
            }
        }
    }
}

#[test]
fn disabled_telemetry_reports_nothing() {
    let telemetry = Telemetry::disabled();
    let options = MapOptions::builder(4)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    map_network(&layered_network(), &options).expect("maps");
    let report = telemetry.snapshot();
    assert!(!report.enabled);
    assert!(report.stages.is_empty());
    assert!(report.counters.is_empty());
}
