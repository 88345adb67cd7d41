//! Contracts of the cross-tree DP-result cache: canonical fingerprints
//! capture structural isomorphism exactly, and no cache mode — at any
//! worker count — may change a single bit of the mapped circuit or any
//! work tally. Random cases come from the in-repo [`SplitMix64`]
//! generator, so the suite runs fully offline.

use chortle::{map_network, stats, CacheMode, Forest, MapOptions, Telemetry, Tree, TreeChild};
use chortle_netlist::{Network, NodeId, NodeOp, Signal, SplitMix64};

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

/// Builds a single random fanout-free tree.
fn random_tree(seed: u64, leaves: usize, max_arity: usize) -> Tree {
    let mut rng = SplitMix64::new(seed);
    let mut net = Network::new();
    let mut pool: Vec<Signal> = (0..leaves)
        .map(|i| Signal::new(net.add_input(format!("i{i}"))))
        .collect();
    while pool.len() > 1 {
        let take = rng.next_range(2, (max_arity + 1).min(pool.len() + 1));
        let mut fanins = Vec::with_capacity(take);
        for _ in 0..take {
            let idx = rng.choose_index(&pool);
            let mut s = pool.swap_remove(idx);
            if rng.next_bool(1, 4) {
                s = !s;
            }
            fanins.push(s);
        }
        let op = if rng.next_bool(1, 2) {
            NodeOp::And
        } else {
            NodeOp::Or
        };
        pool.push(Signal::new(net.add_gate(op, fanins)));
    }
    net.add_output("z", pool[0]);
    Forest::of(&net).trees.remove(0)
}

/// An isomorphic copy: every node's children reversed (a permutation the
/// fingerprint must not see) and every leaf renamed to a fresh signal
/// (identities the fingerprint must not see), polarities kept.
fn permuted_renamed(tree: &Tree) -> Tree {
    let mut copy = tree.clone();
    for node in &mut copy.nodes {
        node.children.reverse();
        for c in &mut node.children {
            if let TreeChild::Leaf(sig) = c {
                let renamed = NodeId::from_index(sig.node().index() + 4096);
                *c = TreeChild::Leaf(if sig.is_inverted() {
                    Signal::inverted(renamed)
                } else {
                    Signal::new(renamed)
                });
            }
        }
    }
    copy
}

#[test]
fn fingerprints_match_exactly_the_isomorphic_pairs() {
    let mut rng = SplitMix64::new(0xcace_0001);
    for round in 0..64 {
        let seed = rng.next_u64();
        let tree = random_tree(seed, 4 + (seed % 9) as usize, 5);
        let iso = permuted_renamed(&tree);
        assert_eq!(
            tree.fingerprint(),
            iso.fingerprint(),
            "permutation/renaming changed the fingerprint (round={round})"
        );

        // Canonicalizing both must produce bit-identical shapes — that is
        // the property DP-result replay relies on.
        let (mut a, mut b) = (tree.clone(), iso.clone());
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na.op, nb.op, "ops diverged (round={round})");
            let ka: Vec<_> = na.children.iter().map(child_kind).collect();
            let kb: Vec<_> = nb.children.iter().map(child_kind).collect();
            assert_eq!(ka, kb, "shapes diverged (round={round})");
        }

        // Any structural mutation must (with overwhelming probability)
        // change the fingerprint: flip one leaf's polarity.
        let mut mutated = tree.clone();
        'outer: for node in &mut mutated.nodes {
            for c in &mut node.children {
                if let TreeChild::Leaf(sig) = c {
                    *c = TreeChild::Leaf(!*sig);
                    break 'outer;
                }
            }
        }
        assert_ne!(
            tree.fingerprint(),
            mutated.fingerprint(),
            "polarity flip kept the fingerprint (round={round})"
        );
    }
}

/// A child's shape-relevant content: `(is_leaf, node index or 0, edge
/// polarity)` — everything except leaf identity.
fn child_kind(c: &TreeChild) -> (bool, usize, bool) {
    match *c {
        TreeChild::Node { index, inverted } => (false, index, inverted),
        TreeChild::Leaf(sig) => (true, 0, sig.is_inverted()),
    }
}

/// Maps `net` under the given cache mode, returning the mapping plus the
/// telemetry counters that tally *work* (the `cache.*` hit statistics
/// exist only when caching is on, so they are excluded from the
/// cross-mode comparison).
fn map_with(net: &Network, k: usize, cache: CacheMode) -> (chortle::Mapping, Vec<(String, u64)>) {
    let telemetry = Telemetry::enabled();
    let options = MapOptions::builder(k)
        .cache(cache)
        .telemetry(telemetry.clone())
        .build()
        .expect("valid options");
    let mapping = map_network(net, &options).expect("maps");
    let counters = telemetry
        .snapshot()
        .counters
        .iter()
        .filter(|c| !c.name.starts_with("cache."))
        .map(|c| (c.name.clone(), c.value))
        .collect();
    (mapping, counters)
}

#[test]
fn every_cache_mode_is_bit_identical() {
    let mut rng = SplitMix64::new(0xcace_0002);
    for round in 0..6 {
        let net = random_network(rng.next_u64(), 8, 24, 5);
        for k in 2..=6 {
            let (reference, ref_counters) = map_with(&net, k, CacheMode::Off);
            for cache in [CacheMode::Tree, CacheMode::Shared, CacheMode::Fn] {
                let (mapping, counters) = map_with(&net, k, cache);
                assert_eq!(
                    reference.circuit, mapping.circuit,
                    "circuit diverged (round={round} k={k} {cache:?})"
                );
                assert_eq!(
                    reference.report, mapping.report,
                    "report diverged (round={round} k={k} {cache:?})"
                );
                assert_eq!(
                    ref_counters, counters,
                    "work tallies diverged (round={round} k={k} {cache:?})"
                );
            }
        }
    }
}

/// Trees of `net`'s split forest with at most `k` leaf occurrences —
/// the trees the mapper emits as one LUT without a DP solve.
fn single_lut_trees(net: &Network, k: usize) -> u64 {
    let mut forest = Forest::of(&net.simplified());
    let threshold = MapOptions::builder(k).build().unwrap().split_threshold;
    forest.split_wide_nodes(threshold.max(k));
    forest.trees.iter().filter(|t| t.leaf_count() <= k).count() as u64
}

#[test]
fn cache_counters_add_up() {
    // On a forest with repeated shapes, hits + misses + single-LUT trees
    // == trees, misses == distinct (shape, depth) keys, and every hit
    // replays whole LUTs.
    let net = random_network(0xcace_0003, 8, 30, 4);
    let telemetry = Telemetry::enabled();
    let options = MapOptions::builder(4)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    map_network(&net, &options).expect("maps");
    let report = telemetry.snapshot();
    let hits = report.counter(stats::CACHE_HITS).expect("hits reported");
    let misses = report
        .counter(stats::CACHE_MISSES)
        .expect("misses reported");
    let trees = report.counter(stats::MAP_TREES).unwrap();
    let single = report.counter(stats::MAP_SINGLE_LUT_TREES).unwrap();
    assert_eq!(single, single_lut_trees(&net, 4));
    assert!(single < trees, "some tree must need the DP");
    assert_eq!(hits + misses + single, trees);
    assert!(misses >= 1, "at least one shape must be computed");
    if hits > 0 {
        assert!(report.counter(stats::CACHE_REPLAYED_LUTS).unwrap() >= hits);
    }

    // Mode Off reports no cache counters at all.
    let telemetry = Telemetry::enabled();
    let options = MapOptions::builder(4)
        .cache(CacheMode::Off)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    map_network(&net, &options).expect("maps");
    let report = telemetry.snapshot();
    for counter in [
        stats::CACHE_HITS,
        stats::CACHE_MISSES,
        stats::CACHE_REPLAYED_LUTS,
        stats::CACHE_FN_HITS,
        stats::CACHE_FN_MISSES,
        stats::CACHE_FN_REPLAYED_LUTS,
    ] {
        assert!(
            report.counter(counter).is_none(),
            "{counter} with cache off"
        );
    }
}

#[test]
fn the_counter_identity_holds_for_every_cache_mode() {
    // cache.hits + cache.misses + map.single_lut_trees == map.trees, and
    // the single-LUT count is the forest's trees with at most K leaf
    // occurrences, for every cache mode.
    let mut rng = SplitMix64::new(0xcace_0007);
    for round in 0..6 {
        let net = random_network(rng.next_u64(), 8, 40, 6);
        let k = rng.next_range(2, 7);
        let expected = single_lut_trees(&net, k);
        for cache in [
            CacheMode::Off,
            CacheMode::Tree,
            CacheMode::Shared,
            CacheMode::Fn,
        ] {
            let report = counters_under(&net, k, cache);
            let ctx = format!("round={round} k={k} {cache:?}");
            let trees = report.counter(stats::MAP_TREES).unwrap();
            let single = report.counter(stats::MAP_SINGLE_LUT_TREES).unwrap();
            assert_eq!(single, expected, "{ctx}");
            if cache == CacheMode::Off {
                continue;
            }
            let hits = report.counter(stats::CACHE_HITS).unwrap();
            let fn_hits = report.counter(stats::CACHE_FN_HITS).unwrap_or(0);
            let misses = report.counter(stats::CACHE_MISSES).unwrap();
            assert_eq!(hits + fn_hits + misses + single, trees, "{ctx}");
        }
    }
}

/// Adds `columns` five-leaf cones `outer(inner(a, b, c), d, e)` over
/// the first five inputs, with random operations and edge polarities:
/// structural misses of each other that the functional tier unites.
fn add_skeleton_variants(net: &mut Network, rng: &mut SplitMix64, columns: usize) {
    let leaves: Vec<Signal> = net.inputs()[..5]
        .iter()
        .map(|&id| Signal::new(id))
        .collect();
    let op = |rng: &mut SplitMix64| {
        if rng.next_bool(1, 2) {
            NodeOp::And
        } else {
            NodeOp::Or
        }
    };
    let polarize = |rng: &mut SplitMix64, s: Signal| if rng.next_bool(1, 2) { !s } else { s };
    for c in 0..columns {
        let inner_fanins = leaves[..3].iter().map(|&s| polarize(rng, s)).collect();
        let inner = Signal::new(net.add_gate(op(rng), inner_fanins));
        let outer_fanins = vec![
            polarize(rng, inner),
            polarize(rng, leaves[3]),
            polarize(rng, leaves[4]),
        ];
        let outer = Signal::new(net.add_gate(op(rng), outer_fanins));
        net.add_output(format!("v{c}"), outer);
    }
}

/// Runs `net` at `k` under `cache` and returns the full counter
/// snapshot.
fn counters_under(net: &Network, k: usize, cache: CacheMode) -> chortle::MapStats {
    let telemetry = Telemetry::enabled();
    let options = MapOptions::builder(k)
        .cache(cache)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    map_network(net, &options).expect("maps");
    telemetry.snapshot()
}

#[test]
fn fn_tier_counters_add_up_and_only_add_reuse() {
    // Polarity variants of shared shapes make the functional tier win
    // where the structural one cannot. The tier serves trees of K+1 to 6
    // leaves (smaller ones fit one LUT), so each forest also gets a few
    // five-leaf variants of one skeleton.
    const K: usize = 4;
    let mut rng = SplitMix64::new(0xcace_0004);
    let mut fn_hit_seen = false;
    for round in 0..8 {
        let mut net = random_network(rng.next_u64(), 8, 40, 4);
        add_skeleton_variants(&mut net, &mut rng, 6);
        let shared = counters_under(&net, K, CacheMode::Shared);
        let fnr = counters_under(&net, K, CacheMode::Fn);
        let trees = fnr.counter(stats::MAP_TREES).unwrap();
        let hits = fnr.counter(stats::CACHE_HITS).unwrap();
        let misses = fnr.counter(stats::CACHE_MISSES).unwrap();
        let fn_hits = fnr.counter(stats::CACHE_FN_HITS).unwrap();
        let fn_misses = fnr.counter(stats::CACHE_FN_MISSES).unwrap();
        let single = fnr.counter(stats::MAP_SINGLE_LUT_TREES).unwrap();
        assert_eq!(single, single_lut_trees(&net, K), "(round={round})");
        // Attribution is structural-first: cache.hits is identical
        // to the Shared-mode value, and fn_hits is the *additional*
        // reuse the functional tier found.
        assert_eq!(
            hits,
            shared.counter(stats::CACHE_HITS).unwrap(),
            "structural hits changed under Fn (round={round})"
        );
        assert_eq!(
            hits + fn_hits + misses + single,
            trees,
            "counter contract broken (round={round})"
        );
        // fn_misses counts fn-eligible trees that fully solved.
        assert!(fn_misses <= misses, "(round={round})");
        if fn_hits > 0 {
            fn_hit_seen = true;
            assert!(fnr.counter(stats::CACHE_FN_REPLAYED_LUTS).unwrap() >= fn_hits);
        }
    }
    assert!(
        fn_hit_seen,
        "the functional tier never beat the structural one across 8 random forests"
    );
}

#[test]
fn shared_mode_reports_no_fn_counters() {
    let net = random_network(0xcace_0005, 8, 30, 4);
    for cache in [CacheMode::Tree, CacheMode::Shared] {
        let report = counters_under(&net, 4, cache);
        for counter in [
            stats::CACHE_FN_HITS,
            stats::CACHE_FN_MISSES,
            stats::CACHE_FN_REPLAYED_LUTS,
        ] {
            assert!(
                report.counter(counter).is_none(),
                "{counter} reported under {cache:?}"
            );
        }
    }
}

#[test]
fn warm_cache_segments_both_tiers() {
    use chortle::WarmCache;
    let net = random_network(0xcace_0006, 8, 40, 4);
    let warm = WarmCache::new();
    let options = MapOptions::builder(4)
        .cache(CacheMode::Fn)
        .warm_cache(warm.clone())
        .build()
        .unwrap();
    map_network(&net, &options).expect("maps");
    let after_first = warm.stats();
    assert!(after_first.shapes > 0, "structural tier stayed empty");
    assert!(after_first.fn_entries > 0, "functional tier stayed empty");
    assert_eq!(after_first.fn_entries, warm.stats().fn_entries);

    // A warm re-run of the same network hits on every tree: the second
    // run's misses add nothing.
    map_network(&net, &options).expect("maps again");
    let after_second = warm.stats();
    assert_eq!(after_second.shapes, after_first.shapes);
    assert_eq!(after_second.fn_entries, after_first.fn_entries);
    assert!(after_second.hits + after_second.fn_hits > after_first.hits + after_first.fn_hits);
    assert!(after_second.hit_rate() > 0.0);

    warm.flush();
    let flushed = warm.stats();
    assert_eq!(flushed.shapes, 0);
    assert_eq!(flushed.fn_entries, 0);
}

#[test]
fn dc_packing_is_equivalent_and_never_adds_luts() {
    use chortle::PackMode;
    use chortle_netlist::check_equivalence;
    let mut rng = SplitMix64::new(0xcace_0007);
    for round in 0..8 {
        let net = random_network(rng.next_u64(), 7, 24, 4);
        for k in [3, 4, 5] {
            let plain = map_network(&net, &MapOptions::builder(k).build().unwrap()).unwrap();
            let packed = map_network(
                &net,
                &MapOptions::builder(k).pack(PackMode::Dc).build().unwrap(),
            )
            .unwrap();
            assert!(
                packed.report.luts <= plain.report.luts,
                "packing added LUTs (round={round} k={k})"
            );
            assert_eq!(packed.report.luts, packed.circuit.num_luts());
            check_equivalence(&net, &packed.circuit)
                .unwrap_or_else(|e| panic!("round={round} k={k}: {e:?}"));
        }
    }
}
