//! Determinism of the parallel wavefront mapper: for any worker count,
//! [`map_network`] must produce a circuit *bit-identical* to the
//! `jobs = 1` tree-order mapper's — same LUTs, same order, same truth
//! tables — and the identical [`MapReport`]. Randomized networks come
//! from the in-repo [`SplitMix64`] generator, so the suite runs fully
//! offline.

use chortle::{map_network, MapOptions, Objective};
use chortle_netlist::{check_equivalence, Network, NodeOp, Signal, SplitMix64};

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

#[test]
fn parallel_mapping_is_bit_identical_across_k_and_objectives() {
    let mut rng = SplitMix64::new(0x9a11_0001);
    for _ in 0..24 {
        let net = random_network(rng.next_u64(), 8, 18, 5);
        for k in 2..=5 {
            for base in [
                MapOptions::builder(k).build().unwrap(),
                MapOptions::builder(k)
                    .objective(Objective::Depth)
                    .build()
                    .unwrap(),
            ] {
                let seq = map_network(&net, &base).unwrap();
                for jobs in [2, 4] {
                    let mut with_jobs = base.clone();
                    with_jobs.jobs = jobs;
                    let par = map_network(&net, &with_jobs).unwrap();
                    assert_eq!(
                        seq.report, par.report,
                        "report diverged (k={k} jobs={jobs} {:?})",
                        base.objective
                    );
                    assert_eq!(
                        seq.circuit, par.circuit,
                        "circuit diverged (k={k} jobs={jobs} {:?})",
                        base.objective
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_mapping_is_equivalent_to_the_source_network() {
    let mut rng = SplitMix64::new(0x9a11_0002);
    for _ in 0..32 {
        let net = random_network(rng.next_u64(), 7, 14, 5);
        let k = rng.next_range(2, 7);
        let jobs = rng.next_range(2, 9);
        let mapped =
            map_network(&net, &MapOptions::builder(k).jobs(jobs).build().unwrap()).unwrap();
        check_equivalence(&net, &mapped.circuit).unwrap();
        assert!(mapped.circuit.luts().iter().all(|l| l.utilization() <= k));
    }
}

#[test]
fn oversubscribed_workers_are_harmless() {
    // More workers than trees (and than cores) must still be identical.
    let mut rng = SplitMix64::new(0x9a11_0003);
    for _ in 0..8 {
        let net = random_network(rng.next_u64(), 6, 8, 4);
        let seq = map_network(&net, &MapOptions::builder(4).build().unwrap()).unwrap();
        let par = map_network(&net, &MapOptions::builder(4).jobs(64).build().unwrap()).unwrap();
        assert_eq!(seq.circuit, par.circuit);
        assert_eq!(seq.report, par.report);
    }
}
