//! Contracts of the cross-tree DP-result cache: canonical fingerprints
//! capture structural isomorphism exactly, and no cache mode — with or
//! without a warm cache, cold or warm — may change a single bit of the
//! mapped circuit or any work tally. Random cases come from the in-repo
//! [`SplitMix64`] generator, so the suite runs fully offline.

use std::collections::HashSet;

use chortle::{
    catalogue, map_network, CacheMode, Fingerprint, Forest, MapOptions, Telemetry, Tree, TreeChild,
    WarmCache,
};
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

/// Maps `net` under the given cache mode (attached to `warm`, if any),
/// returning the mapping plus the telemetry counters that tally *work*
/// (the `cache.*` hit statistics exist only when caching is on, so they
/// are excluded from the cross-mode comparison).
fn map_with(
    net: &Network,
    k: usize,
    cache: CacheMode,
    warm: Option<&WarmCache>,
) -> (chortle::Mapping, Vec<(String, u64)>) {
    let telemetry = Telemetry::enabled();
    let mapping = map_network(net, &options_for(k, cache, warm, telemetry.clone())).expect("maps");
    let counters = telemetry
        .snapshot()
        .counters
        .iter()
        .filter(|c| !c.name.starts_with("cache."))
        .map(|c| (c.name.clone(), c.value))
        .collect();
    (mapping, counters)
}

/// Runs the caching mode twice against one fresh [`WarmCache`], cold
/// and then warm, and hands every run to `check` as `(mode, warm,
/// context)`. The warm run must replay: when the cold run stored any
/// solution, it must hit without a single new miss.
fn cold_and_warm(mut check: impl FnMut(CacheMode, &WarmCache, &str)) {
    let cache = CacheMode::Shared;
    let warm = WarmCache::new();
    check(cache, &warm, "cold");
    let cold = warm.stats();
    check(cache, &warm, "warm");
    let rewarm = warm.stats();
    if cold.shapes > 0 {
        assert!(rewarm.hits > cold.hits, "the warm run replayed nothing");
        assert_eq!(rewarm.misses, cold.misses, "the warm run missed");
    }
}

#[test]
fn every_cache_mode_is_bit_identical() {
    let mut rng = SplitMix64::new(0xcace_0002);
    for round in 0..6 {
        let net = random_network(rng.next_u64(), 8, 24, 5);
        for k in 2..=6 {
            let (reference, ref_counters) = map_with(&net, k, CacheMode::Off, None);
            let same = |mapping: chortle::Mapping, counters: Vec<(String, u64)>, ctx: &str| {
                let ctx = format!("round={round} k={k} {ctx}");
                assert_eq!(
                    reference.circuit, mapping.circuit,
                    "circuit diverged ({ctx})"
                );
                assert_eq!(reference.report, mapping.report, "report diverged ({ctx})");
                assert_eq!(ref_counters, counters, "work tallies diverged ({ctx})");
            };
            let (mapping, counters) = map_with(&net, k, CacheMode::Shared, None);
            same(mapping, counters, "Shared");
            cold_and_warm(|cache, warm, ctx| {
                let (mapping, counters) = map_with(&net, k, cache, Some(warm));
                same(mapping, counters, ctx);
            });
        }
    }
}

/// `net`'s forest, split as [`map_network`] splits it at `k`.
fn split_forest(net: &Network, k: usize) -> Forest {
    let mut forest = Forest::of(&net.simplified());
    let threshold = MapOptions::builder(k).build().unwrap().split_threshold;
    forest.split_wide_nodes(threshold.max(k));
    forest
}

/// Trees of `net`'s split forest with at most `k` leaf occurrences —
/// the trees the mapper emits as one LUT without a DP solve.
fn single_lut_trees(net: &Network, k: usize) -> u64 {
    let forest = split_forest(net, k);
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
    let hits = report
        .counter(catalogue::CACHE_HITS)
        .expect("hits reported");
    let misses = report
        .counter(catalogue::CACHE_MISSES)
        .expect("misses reported");
    let trees = report.counter(catalogue::MAP_TREES).unwrap();
    let single = report.counter(catalogue::MAP_SINGLE_LUT_TREES).unwrap();
    assert_eq!(single, single_lut_trees(&net, 4));
    assert!(single < trees, "some tree must need the DP");
    assert_eq!(hits + misses + single, trees);
    assert!(misses >= 1, "at least one shape must be computed");
    if hits > 0 {
        assert!(report.counter(catalogue::CACHE_REPLAYED_LUTS).unwrap() >= hits);
    }

    // Mode Off reports no cache counters at all.
    let report = counters_under(&net, 4, CacheMode::Off, None);
    for counter in &report.counters {
        assert!(
            !counter.name.starts_with("cache."),
            "{} with cache off",
            counter.name
        );
    }
}

#[test]
fn the_counter_identity_holds_for_every_cache_mode() {
    // cache.hits + cache.misses + map.single_lut_trees == map.trees, and
    // the single-LUT count is the forest's trees with at most K leaf
    // occurrences, for every cache mode. A run attached to a warm cache,
    // cold or warm, reports exactly the counters of a run without one.
    let mut rng = SplitMix64::new(0xcace_0007);
    for round in 0..6 {
        let net = random_network(rng.next_u64(), 8, 40, 6);
        let k = rng.next_range(2, 7);
        let expected = single_lut_trees(&net, k);
        for cache in [CacheMode::Off, CacheMode::Shared] {
            let report = counters_under(&net, k, cache, None);
            let ctx = format!("round={round} k={k} {cache:?}");
            let trees = report.counter(catalogue::MAP_TREES).unwrap();
            let single = report.counter(catalogue::MAP_SINGLE_LUT_TREES).unwrap();
            assert_eq!(single, expected, "{ctx}");
            if cache == CacheMode::Off {
                continue;
            }
            let hits = report.counter(catalogue::CACHE_HITS).unwrap();
            let misses = report.counter(catalogue::CACHE_MISSES).unwrap();
            assert_eq!(hits + misses + single, trees, "{ctx}");
        }
        cold_and_warm(|cache, warm, ctx| {
            let attached = counters_under(&net, k, cache, Some(warm));
            assert_eq!(
                attached.counters,
                counters_under(&net, k, cache, None).counters,
                "round={round} k={k} {ctx}"
            );
        });
    }
}

/// Adds `columns` pairs of cones over the first eight inputs, with random
/// operations and edge polarities: a five-leaf `outer(inner(a, b, c), d,
/// e)` and an eight-leaf `outer(inner(a, b, c), inner(d, e, f), g, h)`.
/// The cones of one width differ in their full fingerprints but share a
/// blind skeleton, hence a cache key.
fn add_skeleton_variants(net: &mut Network, rng: &mut SplitMix64, columns: usize) {
    let leaves: Vec<Signal> = net.inputs()[..8]
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
    let gate = |net: &mut Network, rng: &mut SplitMix64, fanins: &[Signal]| {
        let fanins = fanins.iter().map(|&s| polarize(rng, s)).collect();
        Signal::new(net.add_gate(op(rng), fanins))
    };
    for c in 0..columns {
        let inner = gate(net, rng, &leaves[..3]);
        let narrow = gate(net, rng, &[inner, leaves[3], leaves[4]]);
        net.add_output(format!("v{c}"), narrow);
        let left = gate(net, rng, &leaves[..3]);
        let right = gate(net, rng, &leaves[3..6]);
        let wide = gate(net, rng, &[left, right, leaves[6], leaves[7]]);
        net.add_output(format!("w{c}"), wide);
    }
}

/// The options of one run under `cache` at `k`, attached to `warm` if
/// given.
fn options_for(
    k: usize,
    cache: CacheMode,
    warm: Option<&WarmCache>,
    telemetry: Telemetry,
) -> MapOptions {
    let builder = MapOptions::builder(k).cache(cache).telemetry(telemetry);
    match warm {
        Some(warm) => builder.warm_cache(warm.clone()),
        None => builder,
    }
    .build()
    .unwrap()
}

/// Runs `net` at `k` under `cache` (attached to `warm`, if any) and
/// returns the full counter snapshot.
fn counters_under(
    net: &Network,
    k: usize,
    cache: CacheMode,
    warm: Option<&WarmCache>,
) -> chortle::MapStats {
    let telemetry = Telemetry::enabled();
    map_network(net, &options_for(k, cache, warm, telemetry.clone())).expect("maps");
    telemetry.snapshot()
}

/// Distinct values of `key` over the trees of `trees`.
fn distinct(trees: &[&Tree], key: fn(&Tree) -> Fingerprint) -> u64 {
    trees.iter().map(|t| key(t)).collect::<HashSet<_>>().len() as u64
}

#[test]
fn fn_tier_counters_add_up_and_only_add_reuse() {
    // The cache key is the blind skeleton, so the op and polarity
    // variants of one skeleton share a solution at any width: every
    // variant after the first is a hit, where the full fingerprint would
    // hit only exact repeats. The variants' leaves are primary inputs
    // (depth 0), so their keys differ only in the skeleton.
    const K: usize = 4;
    let mut rng = SplitMix64::new(0xcace_0004);
    let mut gained = 0;
    for round in 0..8 {
        let mut variants = Network::new();
        for i in 0..8 {
            variants.add_input(format!("i{i}"));
        }
        add_skeleton_variants(&mut variants, &mut rng, 6);
        let forest = split_forest(&variants, K);
        let dp: Vec<&Tree> = forest.trees.iter().filter(|t| t.leaf_count() > K).collect();
        assert_eq!(dp.len(), forest.trees.len(), "(round={round})");
        assert_eq!(distinct(&dp, Tree::blind_fingerprint), 2, "(round={round})");
        let report = counters_under(&variants, K, CacheMode::Shared, None);
        let hits = report.counter(catalogue::CACHE_HITS).unwrap();
        assert_eq!(hits, dp.len() as u64 - 2, "(round={round})");
        assert_eq!(report.counter(catalogue::CACHE_MISSES), Some(2));
        let full_key_hits = dp.len() as u64 - distinct(&dp, Tree::fingerprint);
        assert!(hits >= full_key_hits, "(round={round})");
        gained += hits - full_key_hits;

        // Replays of the variants, cold and warm, emit the bytes of a
        // run that solves every tree.
        let (reference, _) = map_with(&variants, K, CacheMode::Off, None);
        cold_and_warm(|cache, warm, ctx| {
            let (mapping, _) = map_with(&variants, K, cache, Some(warm));
            assert_eq!(reference.circuit, mapping.circuit, "round={round} {ctx}");
        });

        // Inside a random forest the counters still add up.
        let mut net = random_network(rng.next_u64(), 8, 40, 4);
        add_skeleton_variants(&mut net, &mut rng, 6);
        let report = counters_under(&net, K, CacheMode::Shared, None);
        let trees = report.counter(catalogue::MAP_TREES).unwrap();
        let single = report.counter(catalogue::MAP_SINGLE_LUT_TREES).unwrap();
        assert_eq!(single, single_lut_trees(&net, K), "(round={round})");
        assert_eq!(
            report.counter(catalogue::CACHE_HITS).unwrap()
                + report.counter(catalogue::CACHE_MISSES).unwrap()
                + single,
            trees,
            "counter contract broken (round={round})"
        );
    }
    assert!(gained > 0, "the blind key never beat the full fingerprint");
}

#[test]
fn shared_mode_reports_no_fn_counters() {
    let net = random_network(0xcace_0005, 8, 30, 4);
    let warm = WarmCache::new();
    for attached in [None, Some(&warm)] {
        let report = counters_under(&net, 4, CacheMode::Shared, attached);
        for counter in &report.counters {
            assert!(
                !counter.name.starts_with("cache.fn_"),
                "{} reported (warm cache attached: {})",
                counter.name,
                attached.is_some()
            );
        }
    }
}

#[test]
fn warm_cache_segments_both_tiers() {
    // One store: the retired functional tier's tallies stay zero.
    let net = random_network(0xcace_0006, 8, 40, 4);
    let warm = WarmCache::new();
    let options = MapOptions::builder(4)
        .cache(CacheMode::Shared)
        .warm_cache(warm.clone())
        .build()
        .unwrap();
    map_network(&net, &options).expect("maps");
    let after_first = warm.stats();
    assert!(after_first.shapes > 0, "the store stayed empty");
    assert_eq!((after_first.fn_hits, after_first.fn_misses), (0, 0));

    // A warm re-run of the same network hits on every tree: the second
    // run's misses add nothing.
    map_network(&net, &options).expect("maps again");
    let after_second = warm.stats();
    assert_eq!(after_second.shapes, after_first.shapes);
    assert_eq!(after_second.misses, after_first.misses);
    assert!(after_second.hits > after_first.hits);
    assert!(after_second.hit_rate() > 0.0);
    assert_eq!((after_second.fn_hits, after_second.fn_misses), (0, 0));

    warm.flush();
    assert_eq!(warm.stats(), chortle::WarmStats::default());
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
