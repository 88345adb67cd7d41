//! Optimality oracle: the production subset-DP mapper must report exactly
//! the same minimum LUT counts as the literal transcription of the
//! paper's pseudo-code (explicit partition + utilization-division
//! enumeration), on real trees extracted from the benchmark suite, and
//! no tree's cost may fall below the counting lower bound.

use chortle::reference::reference_tree_cost;
use chortle::{
    catalogue, map_network, tree_lut_cost, CacheMode, Forest, MapOptions, Telemetry, TraceKind,
    TraceScope, WarmCache,
};
use chortle_bench::optimized_suite;
use chortle_circuits::{alu, benchmark, des_like, random_logic};
use chortle_logic_opt::optimize;
use chortle_netlist::{check_equivalence, Network, NodeOp, Signal, SplitMix64};

#[test]
fn production_dp_is_optimal_on_suite_trees() {
    let mut checked = 0usize;
    for name in ["9symml", "alu2", "alu4", "count", "frg1", "apex7", "k2"] {
        let net = benchmark(name).expect("known");
        let (optimized, _) = optimize(&net).expect("acyclic");
        let normal = optimized.simplified();
        let forest = Forest::of(&normal);
        for tree in &forest.trees {
            // The reference mapper is exponential; keep it to small trees.
            if tree.nodes.len() > 12 || tree.max_fanin() > 6 {
                continue;
            }
            for k in 2..=5 {
                let fast = tree_lut_cost(tree, k);
                let slow = reference_tree_cost(tree, k);
                assert_eq!(fast, slow, "{name}: tree at {:?} K={k}", tree.root);
            }
            checked += 1;
            if checked >= 400 {
                return;
            }
        }
    }
    assert!(checked >= 50, "too few trees exercised ({checked})");
}

/// In Chortle's cover model the LUTs covering a tree form a tree
/// themselves, so n LUTs of at most K inputs cover a tree with L leaf
/// occurrences only if n·K ≥ L + n − 1: every leaf occurrence and every
/// LUT but the root feeds one LUT input. Hence n ≥ ⌈(L − 1)/(K − 1)⌉.
/// Checks every tree that reaches the DP (L > K), split as
/// `map_network` splits, over the optimized suite and one draw of each
/// `map_large` generator, and that `map_network`'s `map.trees_at_bound`
/// and `map.bound_gap` counters agree.
#[test]
fn dp_costs_meet_the_counting_lower_bound() {
    let mut rng = SplitMix64::new(1 ^ 0x5EED_BE4C_0000_0000);
    let s = [rng.next_u64(), rng.next_u64()];
    let optimized = |net| optimize(&net).expect("generated netlists are acyclic").0;
    let mut nets: Vec<(String, Network)> = optimized_suite()
        .into_iter()
        .map(|(name, net, _)| (name, net))
        .collect();
    nets.push((
        "random7k".to_owned(),
        optimized(random_logic(s[0], 600, 7000, 400, 4)),
    ));
    nets.push(("des64x6".to_owned(), optimized(des_like(s[1], 64, 6))));
    nets.push(("alu256".to_owned(), optimized(alu(256))));
    let normals: Vec<(String, Network)> = nets
        .into_iter()
        .map(|(name, net)| (name, net.simplified()))
        .collect();
    for k in 2..=6 {
        let threshold = MapOptions::builder(k).build().unwrap().split_threshold;
        let (mut at_bound, mut above, mut gap) = (0u64, 0u64, 0u64);
        let (mut reported_at_bound, mut reported_gap) = (0u64, 0u64);
        for (name, normal) in &normals {
            let telemetry = Telemetry::enabled();
            let options = MapOptions::builder(k)
                .telemetry(telemetry.clone())
                .build()
                .unwrap();
            map_network(normal, &options).expect("maps");
            let report = telemetry.snapshot();
            reported_at_bound += report.counter(catalogue::MAP_TREES_AT_BOUND).unwrap();
            reported_gap += report.counter(catalogue::MAP_BOUND_GAP).unwrap();
            let mut forest = Forest::of(normal);
            forest.split_wide_nodes(threshold.max(k));
            for tree in &forest.trees {
                let leaves = tree.leaf_count();
                if leaves <= k {
                    continue;
                }
                let bound = (leaves - 1).div_ceil(k - 1);
                let cost = tree_lut_cost(tree, k) as usize;
                assert!(
                    cost >= bound,
                    "{name}: tree at {:?} K={k} costs {cost} LUTs, below the bound {bound}",
                    tree.root
                );
                if cost == bound {
                    at_bound += 1;
                } else {
                    above += 1;
                }
                gap += (cost - bound) as u64;
            }
        }
        assert!(at_bound + above > 0, "no DP tree at K={k}");
        assert_eq!((reported_at_bound, reported_gap), (at_bound, gap), "K={k}");
        println!("K={k}: {at_bound} DP trees at the counting bound, {above} above it");
    }
}

#[test]
fn utilization_inequality_holds_via_monotonicity() {
    // The paper's inequality cost(minmap(n,U)) >= cost(minmap(n,K)) is
    // established by construction; spot-check it through the public API
    // by mapping with decreasing K and confirming the tree cost never
    // drops when K shrinks.
    let net = benchmark("alu2").expect("known");
    let (optimized, _) = optimize(&net).expect("acyclic");
    let normal = optimized.simplified();
    let forest = Forest::of(&normal);
    for tree in forest.trees.iter().take(50) {
        if tree.max_fanin() > 10 {
            continue;
        }
        let mut last = u32::MAX;
        for k in 2..=6 {
            let c = tree_lut_cost(tree, k);
            assert!(c <= last, "cost must be monotone in K");
            last = c;
        }
    }
}

#[test]
fn single_lut_trees_are_recognized() {
    // Any tree with at most K leaves must map to exactly one LUT.
    let net = benchmark("apex7").expect("known");
    let (optimized, _) = optimize(&net).expect("acyclic");
    let normal = optimized.simplified();
    let forest = Forest::of(&normal);
    let mut seen = 0;
    for tree in &forest.trees {
        let leaves = tree.leaf_count();
        if leaves <= 5 && tree.max_fanin() <= 5 {
            assert_eq!(tree_lut_cost(tree, 5), 1, "tree with {leaves} leaves");
            seen += 1;
        }
    }
    assert!(seen > 0, "no small trees found to check");
}

/// An N/P/N variant of `net`: primary inputs declared in reverse order
/// (permutation), every input whose position has bit `variant` set
/// read inverted (input negation), and every output inverted when
/// `variant` is odd (output negation).
fn npn_variant(net: &Network, variant: usize) -> Network {
    let mut out = Network::new();
    let mut map: Vec<Option<Signal>> = vec![None; net.len()];
    for (pos, &id) in net.inputs().iter().enumerate().rev() {
        let name = net.node(id).name().expect("inputs are named");
        let sig = Signal::new(out.add_input(name));
        map[id.index()] = Some(sig.with_inversion((pos >> variant) & 1 == 1));
    }
    let remap = |map: &[Option<Signal>], s: Signal| {
        let base = map[s.node().index()].expect("fanins precede their gates");
        base.with_inversion(base.is_inverted() ^ s.is_inverted())
    };
    for (id, node) in net.nodes() {
        let sig = match node.op() {
            NodeOp::Input => continue,
            NodeOp::Const(value) => Signal::new(out.add_const(value)),
            op => {
                let fanins = node.fanins().iter().map(|&s| remap(&map, s)).collect();
                Signal::new(out.add_gate(op, fanins))
            }
        };
        map[id.index()] = Some(sig);
    }
    for o in net.outputs() {
        let sig = remap(&map, o.signal);
        out.add_output(
            o.name.clone(),
            sig.with_inversion(sig.is_inverted() ^ (variant % 2 == 1)),
        );
    }
    out
}

#[test]
fn fn_tier_replays_match_the_reference_optimum() {
    // Suite circuits and their N/P/N variants, mapped with one warm
    // cache shared by every run: later runs are served by replays keyed
    // on the blind skeleton, which unites N/P/N variants, so a key
    // collision would hide there. Every tree's LUT count (the
    // `map.tree` span's end argument) must still equal the reference
    // optimum.
    let k = 4;
    let warm = WarmCache::new();
    let mut checked = 0usize;
    for name in ["alu2", "count", "frg1", "apex7"] {
        let (optimized, _) = optimize(&benchmark(name).expect("known")).expect("acyclic");
        for variant in 0..4 {
            let net = if variant == 0 {
                optimized.clone()
            } else {
                npn_variant(&optimized, variant)
            };
            let telemetry = Telemetry::traced();
            let options = MapOptions::builder(k)
                .cache(CacheMode::Shared)
                .warm_cache(warm.clone())
                .telemetry(telemetry.clone())
                .build()
                .expect("valid options");
            let mapped = map_network(&net, &options).expect("maps");
            check_equivalence(&net, &mapped.circuit)
                .unwrap_or_else(|e| panic!("{name} variant {variant}: {e:?}"));
            let costs: Vec<u64> = telemetry
                .trace_snapshot()
                .events
                .iter()
                .filter(|e| {
                    e.scope == TraceScope::Tree
                        && e.name == catalogue::MAP_TREE
                        && e.kind == TraceKind::End
                })
                .map(|e| e.arg)
                .collect();
            let mut forest = Forest::of(&net.simplified());
            forest.split_wide_nodes(10);
            assert_eq!(costs.len(), forest.trees.len(), "{name} variant {variant}");
            for (ti, tree) in forest.trees.iter().enumerate() {
                // The reference mapper is exponential; keep it to small
                // trees.
                if tree.nodes.len() > 12 || tree.max_fanin() > 6 {
                    continue;
                }
                let optimum = u64::from(reference_tree_cost(tree, k));
                assert_eq!(costs[ti], optimum, "{name} variant {variant} tree {ti}");
                checked += 1;
            }
        }
    }
    assert!(warm.stats().hits > 0, "no warm replay");
    assert!(checked >= 200, "too few trees exercised ({checked})");
}
