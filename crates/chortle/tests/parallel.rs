//! Determinism of parallel requests: a mapping runs on one thread, and
//! the only parallelism is several [`map_network`] calls at once — the
//! daemon's worker threads — sharing one [`WarmCache`]. Every such call
//! must produce a circuit *bit-identical* to a lone run's — same LUTs,
//! same order, same truth tables — and the identical [`MapReport`],
//! whichever thread fills a shared cache entry first. Randomized
//! networks come from the in-repo [`SplitMix64`] generator, so the
//! suite runs fully offline.
//!
//! [`MapReport`]: chortle::MapReport

use chortle::{map_network, MapOptions, Mapping, Objective, WarmCache};
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

/// Maps every `(network, options)` job on its own thread at once, all
/// attached to one fresh warm cache, and returns the mappings in job
/// order.
fn map_concurrently(jobs: &[(&Network, MapOptions)]) -> Vec<Mapping> {
    let warm = WarmCache::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|(net, options)| {
                let mut options = options.clone();
                options.warm_cache = Some(warm.clone());
                s.spawn(move || map_network(net, &options).expect("maps"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mapping thread"))
            .collect()
    })
}

#[test]
fn parallel_mapping_is_bit_identical_across_k_and_objectives() {
    let mut rng = SplitMix64::new(0x9a11_0001);
    for _ in 0..12 {
        let net = random_network(rng.next_u64(), 8, 18, 5);
        for k in 2..=5 {
            for objective in [Objective::Area, Objective::Depth] {
                let options = MapOptions::builder(k).objective(objective).build().unwrap();
                let lone = map_network(&net, &options).unwrap();
                let jobs = [(&net, options.clone()), (&net, options)];
                for par in map_concurrently(&jobs) {
                    assert_eq!(
                        lone.report, par.report,
                        "report diverged (k={k} {objective:?})"
                    );
                    assert_eq!(
                        lone.circuit, par.circuit,
                        "circuit diverged (k={k} {objective:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_mapping_is_equivalent_to_the_source_network() {
    let mut rng = SplitMix64::new(0x9a11_0002);
    for _ in 0..8 {
        let nets: Vec<Network> = (0..4)
            .map(|_| random_network(rng.next_u64(), 7, 14, 5))
            .collect();
        let k = rng.next_range(2, 7);
        let options = MapOptions::builder(k).build().unwrap();
        let jobs: Vec<_> = nets.iter().map(|net| (net, options.clone())).collect();
        for (net, mapped) in nets.iter().zip(map_concurrently(&jobs)) {
            check_equivalence(net, &mapped.circuit).unwrap();
            assert!(mapped.circuit.luts().iter().all(|l| l.utilization() <= k));
        }
    }
}

#[test]
fn oversubscribed_workers_are_harmless() {
    // More concurrent calls than cores, all racing on the same warm
    // cache entries, must still be identical to a lone run.
    let mut rng = SplitMix64::new(0x9a11_0003);
    for _ in 0..4 {
        let net = random_network(rng.next_u64(), 6, 8, 4);
        let options = MapOptions::builder(4).build().unwrap();
        let lone = map_network(&net, &options).unwrap();
        let jobs: Vec<_> = (0..8).map(|_| (&net, options.clone())).collect();
        for par in map_concurrently(&jobs) {
            assert_eq!(lone.circuit, par.circuit);
            assert_eq!(lone.report, par.report);
        }
    }
}
