//! Differential tests of the incremental optimization passes (the
//! fanout-indexed `eliminate` and the cached-kernel `extract_kernels`)
//! against the frozen whole-network ones ([`baseline_optimize`]): every
//! network must come out byte-identical as BLIF, with an identical
//! [`OptimizeReport`], on the `flow_suite` corpus, random networks, a
//! 64-wide DES-like network and a sweep of script options.

use chortle_bench::baseline::baseline_optimize;
use chortle_circuits::{control, des_like, random_logic, suite};
use chortle_logic_opt::{optimize_with, OptimizeOptions};
use chortle_netlist::{parse_blif, write_blif, Network, NodeOp, Signal, SplitMix64};

/// Optimizes `net` both ways and requires the same bytes and report.
fn assert_identical(name: &str, net: &Network, options: &OptimizeOptions) {
    let (want, want_report) = baseline_optimize(net, options).expect("acyclic");
    let (got, got_report) = optimize_with(net, options).expect("acyclic");
    assert_eq!(got_report, want_report, "{name}: report under {options:?}");
    assert!(
        write_blif(&got, name) == write_blif(&want, name),
        "{name}: optimized network differs under {options:?}"
    );
}

/// The script option sweep: every eliminate threshold with kernel and
/// cube extraction toggled independently.
fn option_sweep() -> Vec<OptimizeOptions> {
    let mut sweep = Vec::new();
    for eliminate_threshold in [-1, 0, 5, 1000] {
        for (kernel_extraction, cube_extraction) in
            [(true, true), (true, false), (false, true), (false, false)]
        {
            sweep.push(OptimizeOptions {
                eliminate_threshold,
                kernel_extraction,
                cube_extraction,
                ..OptimizeOptions::default()
            });
        }
    }
    sweep
}

/// The seeded draws of the `flow_suite` benchmark workload for `seed`,
/// as that workload derives them, round-tripped through BLIF as
/// `chortle-map` reads them.
fn flow_draws(seed: u64) -> Vec<(String, Network)> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_BE4C_0000_0000);
    let s: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
    [
        ("draw_control", control(s[0], 40, 30, 150, (2, 5), (2, 6))),
        ("draw_random", random_logic(s[1], 80, 350, 50, 4)),
        ("draw_des", des_like(s[2], 32, 2)),
    ]
    .into_iter()
    .map(|(name, net)| {
        let parsed = parse_blif(&write_blif(&net, name)).expect("written BLIF parses");
        (format!("{name}@seed{seed}"), parsed)
    })
    .collect()
}

/// The random AND/OR networks of the logic-opt property tests.
fn random_network(seed: u64, inputs: usize, gates: usize) -> Network {
    let mut rng = SplitMix64::new(seed);
    let mut net = Network::new();
    let mut signals: Vec<Signal> = (0..inputs)
        .map(|i| Signal::new(net.add_input(format!("i{i}"))))
        .collect();
    for g in 0..gates {
        let arity = rng.next_range(2, 5);
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

#[test]
fn flow_corpus_optimizes_identically() {
    let defaults = OptimizeOptions::default();
    for b in suite() {
        let parsed = parse_blif(&write_blif(&b.network, b.name)).expect("suite BLIF parses");
        assert_identical(b.name, &parsed, &defaults);
    }
    for seed in [3, 7, 11] {
        for (name, net) in flow_draws(seed) {
            assert_identical(&name, &net, &defaults);
        }
    }
}

#[test]
fn random_networks_optimize_identically_under_every_option() {
    let sweep = option_sweep();
    let mut rng = SplitMix64::new(0x0b71_1c4e);
    for case in 0..64 {
        let inputs = rng.next_range(3, 9);
        let gates = rng.next_range(4, 40);
        let net = random_network(rng.next_u64(), inputs, gates);
        for options in &sweep {
            assert_identical(&format!("random{case}"), &net, options);
        }
    }
}

#[test]
fn suite_optimizes_identically_under_every_option() {
    for options in option_sweep() {
        for b in suite() {
            assert_identical(b.name, &b.network, &options);
        }
    }
}

#[test]
fn wide_des_optimizes_identically() {
    assert_identical(
        "des64x6",
        &des_like(0xde5, 64, 6),
        &OptimizeOptions::default(),
    );
}
