//! End-to-end pipeline tests: generate → optimize → map (both mappers) →
//! verify, across the benchmark suite and every K the paper evaluates.

use chortle::{map_network, MapOptions};
use chortle_circuits::benchmark;
use chortle_logic_opt::optimize;
use chortle_mis::{map_network as mis_map, Library, MisOptions};
use chortle_netlist::{check_equivalence, check_networks, LutStats, NetworkStats};

/// The subset of the suite exercised per-K in tests (the full suite runs
/// in the `tables` binary; tests keep CI time reasonable).
const TEST_CIRCUITS: [&str; 6] = ["9symml", "alu2", "alu4", "count", "frg1", "apex7"];

#[test]
fn optimization_preserves_every_suite_circuit() {
    for b in chortle_circuits::suite() {
        let (optimized, report) = optimize(&b.network).expect("acyclic");
        optimized.validate().expect("valid");
        check_networks(&b.network, &optimized)
            .unwrap_or_else(|e| panic!("{}: optimization broke the function: {e}", b.name));
        assert!(
            report.literals_after <= report.literals_before,
            "{}: optimization grew the SOP literal count",
            b.name
        );
    }
}

#[test]
fn chortle_maps_all_test_circuits_at_every_k() {
    for name in TEST_CIRCUITS {
        let net = benchmark(name).expect("known");
        let (optimized, _) = optimize(&net).expect("acyclic");
        for k in 2..=5 {
            let mapped = map_network(&optimized, &MapOptions::builder(k).build().unwrap())
                .unwrap_or_else(|e| panic!("{name} K={k}: {e}"));
            check_equivalence(&optimized, &mapped.circuit)
                .unwrap_or_else(|e| panic!("{name} K={k}: {e}"));
            assert!(mapped.circuit.luts().iter().all(|l| l.utilization() <= k));
        }
    }
}

#[test]
fn mis_maps_all_test_circuits_at_every_k() {
    for name in TEST_CIRCUITS {
        let net = benchmark(name).expect("known");
        let (optimized, _) = optimize(&net).expect("acyclic");
        for k in 2..=5 {
            let lib = Library::for_paper(k);
            let mapped = mis_map(&optimized, &lib, &MisOptions::new(k))
                .unwrap_or_else(|e| panic!("{name} K={k}: {e}"));
            check_equivalence(&optimized, &mapped.circuit)
                .unwrap_or_else(|e| panic!("{name} K={k}: {e}"));
        }
    }
}

#[test]
fn chortle_lut_count_is_monotone_in_k() {
    for name in TEST_CIRCUITS {
        let net = benchmark(name).expect("known");
        let (optimized, _) = optimize(&net).expect("acyclic");
        let mut last = usize::MAX;
        for k in 2..=6 {
            let mapped =
                map_network(&optimized, &MapOptions::builder(k).build().unwrap()).expect("maps");
            assert!(
                mapped.report.luts <= last,
                "{name}: K={k} used more LUTs than K={}",
                k - 1
            );
            last = mapped.report.luts;
        }
    }
}

#[test]
fn fanout_duplication_rarely_helps_mis() {
    // The paper: "We have found that it is difficult to realize any
    // savings by this greedy approach" — duplication should not beat the
    // non-duplicating cover by much, and usually loses.
    let mut dup_total = 0usize;
    let mut tree_total = 0usize;
    for name in TEST_CIRCUITS {
        let net = benchmark(name).expect("known");
        let (optimized, _) = optimize(&net).expect("acyclic");
        let lib = Library::for_paper(4);
        let tree = mis_map(&optimized, &lib, &MisOptions::new(4)).expect("maps");
        let dup = mis_map(
            &optimized,
            &lib,
            &MisOptions::new(4).with_fanout_duplication(),
        )
        .expect("maps");
        dup_total += dup.report.luts;
        tree_total += tree.report.luts;
    }
    assert!(
        dup_total + 5 >= tree_total,
        "duplication unexpectedly dominant: {dup_total} vs {tree_total}"
    );
}

#[test]
fn mapped_circuits_report_sane_stats() {
    let net = benchmark("alu4").expect("known");
    let (optimized, _) = optimize(&net).expect("acyclic");
    let before = NetworkStats::of(&optimized);
    let mapped = map_network(&optimized, &MapOptions::builder(4).build().unwrap()).expect("maps");
    let stats = LutStats::of(&mapped.circuit);
    assert_eq!(stats.luts, mapped.report.luts);
    assert!(stats.depth >= 1);
    // Decomposition of wide nodes can add at most log-factor levels; a
    // generous structural sanity bound.
    assert!(
        stats.depth <= 2 * before.depth.max(1),
        "LUT depth {} wildly exceeds gate depth {}",
        stats.depth,
        before.depth
    );
    assert!(
        stats.avg_utilization_centi > 100,
        "LUTs should use >1 input on average"
    );
}

#[test]
fn blif_roundtrip_of_mapped_circuit() {
    // The mapped circuit can be written as BLIF and re-read as an
    // equivalent network — the hand-off a downstream place-and-route
    // tool would consume.
    let net = benchmark("alu2").expect("known");
    let (optimized, _) = optimize(&net).expect("acyclic");
    let mapped = map_network(&optimized, &MapOptions::builder(4).build().unwrap()).expect("maps");
    let text = chortle_netlist::write_lut_blif(&optimized, &mapped.circuit, "alu2_mapped");
    let reread = chortle_netlist::parse_blif(&text).expect("parses");
    check_networks(&optimized, &reread).expect("round trip preserves functions");
}

#[test]
fn unoptimized_networks_also_map_correctly() {
    // Mapping does not require the optimization script: raw generator
    // output goes straight through `simplified()` inside the mappers.
    for name in ["alu2", "count"] {
        let net = benchmark(name).expect("known");
        let mapped = map_network(&net, &MapOptions::builder(4).build().unwrap()).expect("maps");
        check_equivalence(&net, &mapped.circuit).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn design_clouds_equal_their_standalone_blif() {
    // Each cloud the design path maps is built directly, the way the
    // reader elaborates BLIF: its own standalone text parses back to it.
    use chortle_netlist::{parse_blif, parse_design, write_blif};
    let designs = [
        write_blif(&chortle_circuits::des_like(0xde5, 16, 2), "des16x2"),
        write_blif(&chortle_circuits::des_like(7, 32, 3), "des32x3"),
        chortle_bench::pipelined_design("pipe4x16", 4, 16),
        chortle_bench::pipelined_design("pipe8x24", 8, 24),
    ];
    for src in &designs {
        let (design, _) = parse_design(src).expect("design parses");
        let cut = design.clouds();
        assert!(!cut.clouds.is_empty());
        for (i, cloud) in cut.clouds.iter().enumerate() {
            let text = write_blif(&cloud.network, &format!("cloud{i}"));
            let again = parse_blif(&text).expect("cloud text parses");
            assert_eq!(again, cloud.network, "{}: cloud {i}", design.name());
        }
    }
}
