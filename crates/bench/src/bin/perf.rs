//! `perf` — offline, std-only performance harness for the mapper.
//!
//! ```text
//! cargo run --release -p chortle-bench --bin perf [-- OUTPUT.json]
//! ```
//!
//! Runs the generator benchmark suite at K ∈ {2..5} and measures the
//! sections below, asserting bit-identical LUT counts throughout:
//!
//! 1. **DP kernel**: the frozen pre-optimization kernel
//!    ([`chortle_bench::baseline`]) against the current one
//!    ([`chortle::tree_lut_cost`]), tree by tree, single-threaded.
//! 2. **Cached DP kernel**: the suite trees plus a 256-bit ripple ALU
//!    (datapath regularity) through a shape-memoized pass (fingerprint
//!    lookup, solve once per distinct shape) — the `kernel_cached`
//!    section, speedup measured against the optimized kernel on the same
//!    extended tree set, hashing cost included. At K=4 a second
//!    benchmark (`kernel_cached.fn_tier`) times the mapper's cache key,
//!    the blind skeleton, against the full fingerprint on the
//!    *distinct-shape frontier* — one representative per full
//!    fingerprint plus its DeMorgan and polarity variants — the
//!    workload the full fingerprint cannot unify but the blind key
//!    collapses; bench-diff gates `speedup` and `hit_rate` there as
//!    higher-is-better.
//! 3. **Forest mapping** (`mapping`): [`chortle::map_network`] over the
//!    suite, timed as it runs everywhere — in tree order on one thread.
//! 4. **Equivalence checking** (`verify`): [`check_equivalence`] on
//!    the mapped suite against the frozen bit-serial checker
//!    ([`chortle_bench::baseline::baseline_check_equivalence`]), both
//!    required to accept every circuit; bench-diff gates
//!    `verify_total.speedup`.
//! 5. **Logic optimization** (`optimize`): [`optimize_with`] against the
//!    frozen whole-network script
//!    ([`chortle_bench::baseline::baseline_optimize`]) on the suite's
//!    source networks plus a 64-wide, six-round DES-like network, once
//!    (the script does not depend on K); every written BLIF and report
//!    asserted identical; bench-diff gates `optimize_total.speedup`.
//! 6. **BLIF parsing** (`parse`): [`parse_blif`] against the frozen
//!    string-keyed reader
//!    ([`chortle_bench::baseline::baseline_parse_blif`]) on the written
//!    BLIF of the `map_large` netlists (a ≈7k-gate `random_logic`, a
//!    64-wide six-round `des_like` and a 256-bit `alu`, each optimized)
//!    and of the whole paper suite; the networks are asserted equal
//!    before timing, and bench-diff gates `parse_total.speedup`.
//! 7. **Mapper layers** (`normalize`, `render`): `Network::simplified`
//!    against the frozen hash-set copy
//!    ([`chortle_bench::baseline::baseline_simplified`]), and
//!    [`write_lut_blif`] against the frozen `write!`-per-character copy
//!    ([`chortle_bench::baseline::baseline_write_lut_blif`]) on each
//!    network's K = 4 mapping, over the `parse` section's networks; the
//!    outputs are asserted equal before timing, and bench-diff gates
//!    `normalize_total.speedup` and `render_total.speedup`.
//!
//! Timings use [`std::time::Instant`] — no external benchmarking crate —
//! taking the best of several rounds, each repeating its workload for at
//! least [`MIN_ROUND_S`] and reporting time per iteration. The JSON
//! report (default `results/BENCH_map.json`) records the host's core
//! count next to every speedup, so numbers from single-core machines
//! read as what they are.
//!
//! A second pass per K re-maps the suite with an *enabled* telemetry sink
//! and embeds the aggregated `chortle-telemetry/v1.9` report — per-stage
//! wall time, DP counters — in a `"telemetry"` section, together with
//! the instrumentation overhead relative to the (disabled-sink)
//! `mapping` row.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

use chortle::{
    map_network, Fingerprint, Forest, MapOptions, Telemetry, Tree, TreeChild, TreeMapper,
};
use chortle_bench::baseline::{
    baseline_check_equivalence, baseline_optimize, baseline_parse_blif, baseline_simplified,
    baseline_tree_cost, baseline_write_lut_blif,
};
use chortle_bench::optimized_suite;
use chortle_circuits::{alu, des_like, random_logic};
use chortle_logic_opt::{optimize, optimize_with, OptimizeOptions};
use chortle_netlist::{
    check_equivalence, parse_blif, write_blif, write_lut_blif, Network, NodeOp, ParseBlifError,
};

const KS: [usize; 4] = [2, 3, 4, 5];
const KERNEL_ROUNDS: usize = 5;
const MAP_ROUNDS: usize = 3;

struct KernelRow {
    k: usize,
    trees: usize,
    luts: u64,
    baseline_s: f64,
    optimized_s: f64,
}

struct CachedKernelRow {
    k: usize,
    /// Trees in the cache benchmark's set (table suite + 256-bit ALU).
    trees: usize,
    /// Distinct structural shapes among those trees; `1 - distinct/trees`
    /// is the cache's hit rate.
    distinct: usize,
    cached_s: f64,
    /// The PR-1 optimized kernel's time on the same tree set, for the
    /// speedup column.
    optimized_s: f64,
}

/// The cache key's gated benchmark (K = 4): a kernel memoized on the
/// blind skeleton against one memoized on the full fingerprint, on the
/// distinct-shape frontier plus its op and polarity variants.
struct FnTier {
    /// Frontier trees (one per full fingerprint, plus its variants).
    trees: usize,
    /// Frontier trees the blind key serves: all of them.
    eligible: usize,
    /// Distinct blind skeletons among the frontier trees.
    classes: usize,
    /// The pass keyed on the full fingerprint.
    structural_s: f64,
    /// The pass keyed on the blind skeleton, hashing cost included.
    fn_s: f64,
}

struct ForestRow {
    k: usize,
    luts: u64,
    sequential_s: f64,
}

struct VerifyRow {
    k: usize,
    luts: u64,
    /// The frozen bit-serial checker over the mapped suite.
    baseline_s: f64,
    /// [`check_equivalence`] (block-parallel tape simulation) over the
    /// same circuits.
    optimized_s: f64,
}

struct OptimizeRow {
    name: String,
    literals_before: usize,
    literals_after: usize,
    /// The frozen whole-network script on this network.
    baseline_s: f64,
    /// [`optimize_with`] (fanout-indexed eliminate, cached kernels).
    optimized_s: f64,
}

struct ParseRow {
    name: String,
    /// BLIF text parsed per iteration.
    bytes: usize,
    /// The frozen string-keyed reader.
    baseline_s: f64,
    /// [`parse_blif`] (interned symbols, cube arena).
    optimized_s: f64,
}

struct TelemetryRow {
    k: usize,
    /// One suite pass with an enabled sink, for the
    /// instrumentation-overhead column.
    enabled_s: f64,
    /// The aggregated `chortle-telemetry/v1.9` report of that pass,
    /// embedded verbatim (it is compact single-line JSON).
    report_json: String,
}

/// Wall time one timing round covers at least: a workload shorter than
/// this repeats within the round, and the round reports time per
/// iteration, so millisecond-scale rows are not at the mercy of one
/// scheduler hiccup.
const MIN_ROUND_S: f64 = 0.05;

/// Runs `f` in `rounds` timing rounds of at least [`MIN_ROUND_S`] each;
/// returns the last value and the best round's seconds per call.
fn best_of<T>(rounds: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut value = None;
    for _ in 0..rounds {
        let (v, per_call) = timed_round(&mut f);
        value = Some(v);
        best = best.min(per_call);
    }
    (value.expect("at least one round"), best)
}

/// [`best_of`] for two workloads compared with each other: each round
/// times `f` and then `g`, so host drift lands on both columns alike
/// instead of on whichever loop ran during it.
fn best_of_pair<A, B>(
    rounds: usize,
    mut f: impl FnMut() -> A,
    mut g: impl FnMut() -> B,
) -> ((A, f64), (B, f64)) {
    let (mut best_f, mut best_g) = (f64::INFINITY, f64::INFINITY);
    let (mut value_f, mut value_g) = (None, None);
    for _ in 0..rounds {
        let (a, per_call) = timed_round(&mut f);
        value_f = Some(a);
        best_f = best_f.min(per_call);
        let (b, per_call) = timed_round(&mut g);
        value_g = Some(b);
        best_g = best_g.min(per_call);
    }
    (
        (value_f.expect("at least one round"), best_f),
        (value_g.expect("at least one round"), best_g),
    )
}

/// One timing round: `f` repeated for at least [`MIN_ROUND_S`]; returns
/// the last value and the seconds per call.
fn timed_round<T>(f: &mut impl FnMut() -> T) -> (T, f64) {
    let t = Instant::now();
    let mut iterations = 0u32;
    loop {
        let value = f();
        iterations += 1;
        let elapsed = t.elapsed().as_secs_f64();
        if elapsed >= MIN_ROUND_S {
            return (value, elapsed / f64::from(iterations));
        }
    }
}

/// The DeMorgan dual of a tree: every gate flipped And ↔ Or and every
/// leaf's polarity toggled (internal edge polarities kept). This
/// computes the complement of the original function with an identical
/// blind skeleton, yet the tree is structurally novel: the full
/// fingerprint hashes gates and polarities, so a cache keyed on it must
/// re-solve every dual while the blind key replays it.
fn demorgan_dual(tree: &Tree) -> Tree {
    let mut dual = tree.clone();
    for node in &mut dual.nodes {
        node.op = match node.op {
            NodeOp::And => NodeOp::Or,
            NodeOp::Or => NodeOp::And,
            other => other,
        };
        for child in &mut node.children {
            if let TreeChild::Leaf(sig) = child {
                *sig = sig.with_inversion(!sig.is_inverted());
            }
        }
    }
    dual
}

/// A copy of the tree with the polarity of its `i`-th leaf occurrence
/// toggled, or `None` if the tree has fewer leaves: the same blind
/// skeleton, yet structurally distinct — another replay the blind key
/// captures and the full fingerprint cannot.
fn flip_leaf(tree: &Tree, i: usize) -> Option<Tree> {
    let mut flipped = tree.clone();
    let mut next = 0usize;
    for node in &mut flipped.nodes {
        for child in &mut node.children {
            if let TreeChild::Leaf(sig) = child {
                if next == i {
                    *sig = sig.with_inversion(!sig.is_inverted());
                    return Some(flipped);
                }
                next += 1;
            }
        }
    }
    None
}

/// The gated `kernel_cached.fn_tier` benchmark: the mapper's cache key
/// (the blind skeleton) against the op- and polarity-sensitive full
/// fingerprint. The `rows` above already measure a workload of mostly
/// repeated shapes, where both keys hit alike. The keys differ on the
/// *frontier* the full fingerprint must solve one by one: here, one
/// representative per distinct full fingerprint among the trees, each
/// with its [`demorgan_dual`] and leaf-polarity flips — same skeleton,
/// different fingerprint — the reuse the blind key exists to capture,
/// since a K-LUT implements every op and polarity variant of a tree for
/// free. The row keeps the field names of the functional tier it
/// replaced: `structural_s` times the full fingerprint, `fn_s` the blind
/// key, and `classes` counts the distinct skeletons.
fn measure_fn_tier(cached_trees: &[Tree], k: usize) -> FnTier {
    let mut seen: HashSet<Fingerprint> = HashSet::new();
    let mut scratch = chortle::FingerprintScratch::default();
    let mut frontier: Vec<Tree> = Vec::new();
    for t in cached_trees {
        if seen.insert(t.fingerprint_with(&mut scratch)) {
            frontier.push(t.clone());
        }
    }
    // Each representative rides with five variants — its DeMorgan dual,
    // two single-leaf polarity flips, and their duals — all with the
    // representative's blind skeleton, all with other fingerprints.
    // (Variants can collide with another representative's shape; dedup
    // keeps the full-fingerprint column's solve count honest.)
    let mut variants: Vec<Tree> = Vec::new();
    for t in &frontier {
        let mut family = vec![demorgan_dual(t)];
        for i in 0..2 {
            if let Some(f) = flip_leaf(t, i) {
                family.push(demorgan_dual(&f));
                family.push(f);
            }
        }
        variants.extend(
            family
                .into_iter()
                .filter(|v| seen.insert(v.fingerprint_with(&mut scratch))),
        );
    }
    frontier.extend(variants);

    // Hash every tree with `key`, solve each distinct key once. Hashing
    // runs inside the timed region, so the speedup is net of its cost.
    // Both passes alternate within every round.
    let pass = |key: fn(&Tree, &mut chortle::FingerprintScratch) -> Fingerprint| {
        let mut mapper = TreeMapper::new();
        let mut scratch = chortle::FingerprintScratch::default();
        let mut cache: HashMap<Fingerprint, u64> = HashMap::new();
        let mut total = 0u64;
        for t in &frontier {
            total += *cache
                .entry(key(t, &mut scratch))
                .or_insert_with(|| u64::from(mapper.tree_cost(t, k).expect("narrow fanin")));
        }
        total
    };
    let ((full_luts, structural_s), (blind_luts, fn_s)) = best_of_pair(
        KERNEL_ROUNDS,
        || pass(Tree::fingerprint_with),
        || pass(Tree::blind_fingerprint_with),
    );
    assert_eq!(blind_luts, full_luts, "blind-key kernel diverged at k={k}");

    let skeletons: HashSet<Fingerprint> = frontier
        .iter()
        .map(|t| t.blind_fingerprint_with(&mut scratch))
        .collect();
    FnTier {
        trees: frontier.len(),
        eligible: frontier.len(),
        classes: skeletons.len(),
        structural_s,
        fn_s,
    }
}

/// The `optimize` section: both scripts on each network, outputs
/// asserted byte-identical before timing.
fn measure_optimize(nets: &[(String, Network)]) -> Vec<OptimizeRow> {
    let options = OptimizeOptions::default();
    nets.iter()
        .map(|(name, net)| {
            let (want, want_report) = baseline_optimize(net, &options).expect("acyclic");
            let (got, report) = optimize_with(net, &options).expect("acyclic");
            assert_eq!(report, want_report, "optimize report diverged on {name}");
            assert!(
                write_blif(&got, name) == write_blif(&want, name),
                "optimized network diverged on {name}"
            );
            let (_, baseline_s) = best_of(MAP_ROUNDS, || baseline_optimize(net, &options));
            let (_, optimized_s) = best_of(MAP_ROUNDS, || optimize_with(net, &options));
            eprintln!(
                "perf: optimize {name:<10} {:>6} -> {:>6} literals  baseline {:.4}s  \
                 incremental {:.4}s  ({:.2}x)",
                report.literals_before,
                report.literals_after,
                baseline_s,
                optimized_s,
                baseline_s / optimized_s
            );
            OptimizeRow {
                name: name.clone(),
                literals_before: report.literals_before,
                literals_after: report.literals_after,
                baseline_s,
                optimized_s,
            }
        })
        .collect()
}

/// The `parse` section: both readers on each text, networks asserted
/// equal before timing.
fn measure_parse(texts: &[(String, Vec<String>)]) -> Vec<ParseRow> {
    texts
        .iter()
        .map(|(name, blifs)| {
            for blif in blifs {
                let want = baseline_parse_blif(blif).expect("baseline parses");
                let got = parse_blif(blif).expect("parses");
                assert!(got == want, "parsed network diverged on {name}");
            }
            let parse_all = |parse: fn(&str) -> Result<Network, ParseBlifError>| {
                blifs
                    .iter()
                    .map(|blif| parse(blif).expect("parses").len())
                    .sum::<usize>()
            };
            let (_, baseline_s) = best_of(KERNEL_ROUNDS, || parse_all(baseline_parse_blif));
            let (_, optimized_s) = best_of(KERNEL_ROUNDS, || parse_all(parse_blif));
            let bytes = blifs.iter().map(String::len).sum();
            eprintln!(
                "perf: parse {name:<10} {bytes:>8} bytes  baseline {baseline_s:.4}s  \
                 interned {optimized_s:.4}s  ({:.2}x)",
                baseline_s / optimized_s
            );
            ParseRow {
                name: name.clone(),
                bytes,
                baseline_s,
                optimized_s,
            }
        })
        .collect()
}

/// One row of a mapper-layer section: the frozen copy and the live code
/// on one network (or the suite as a whole), seconds per iteration.
struct LayerRow {
    name: String,
    baseline_s: f64,
    optimized_s: f64,
}

/// The `normalize` and `render` sections over `nets` (each a named list
/// of networks): outputs asserted equal, then both copies timed.
fn measure_layers(nets: &[(String, Vec<Network>)]) -> (Vec<LayerRow>, Vec<LayerRow>) {
    let mut normalize = Vec::new();
    let mut render = Vec::new();
    for (name, networks) in nets {
        let options = MapOptions::builder(4).build().expect("K = 4 is valid");
        let circuits: Vec<_> = networks
            .iter()
            .map(|net| map_network(net, &options).expect("maps").circuit)
            .collect();
        for (net, circuit) in networks.iter().zip(&circuits) {
            assert!(
                baseline_simplified(net) == net.simplified(),
                "normalized network diverged on {name}"
            );
            assert!(
                baseline_write_lut_blif(net, circuit, "mapped")
                    == write_lut_blif(net, circuit, "mapped"),
                "rendered netlist diverged on {name}"
            );
        }
        let simplify_all = |simplify: fn(&Network) -> Network| {
            networks
                .iter()
                .map(|net| simplify(net).len())
                .sum::<usize>()
        };
        let (_, baseline_s) = best_of(KERNEL_ROUNDS, || simplify_all(baseline_simplified));
        let (_, optimized_s) = best_of(KERNEL_ROUNDS, || simplify_all(Network::simplified));
        eprintln!(
            "perf: normalize {name:<10} baseline {baseline_s:.4}s  marks {optimized_s:.4}s  ({:.2}x)",
            baseline_s / optimized_s
        );
        normalize.push(LayerRow {
            name: name.clone(),
            baseline_s,
            optimized_s,
        });
        type Write = fn(&Network, &chortle_netlist::LutCircuit, &str) -> String;
        let render_all = |write: Write| {
            networks
                .iter()
                .zip(&circuits)
                .map(|(net, circuit)| write(net, circuit, "mapped").len())
                .sum::<usize>()
        };
        let (_, baseline_s) = best_of(KERNEL_ROUNDS, || render_all(baseline_write_lut_blif));
        let (_, optimized_s) = best_of(KERNEL_ROUNDS, || render_all(write_lut_blif));
        eprintln!(
            "perf: render {name:<10} baseline {baseline_s:.4}s  direct {optimized_s:.4}s  ({:.2}x)",
            baseline_s / optimized_s
        );
        render.push(LayerRow {
            name: name.clone(),
            baseline_s,
            optimized_s,
        });
    }
    (normalize, render)
}

/// Summed baseline and summed live seconds of a layer section.
fn layer_totals(rows: &[LayerRow]) -> (f64, f64) {
    let base = rows.iter().map(|r| r.baseline_s).sum();
    let opt = rows.iter().map(|r| r.optimized_s).sum();
    (base, opt)
}

/// Summed baseline over summed live time of a layer section.
fn layer_speedup(rows: &[LayerRow]) -> f64 {
    let (base, opt) = layer_totals(rows);
    base / opt
}

/// Appends `"<section>": [rows], "<section>_total": {..}` to `json`.
fn write_layer_section(json: &mut String, section: &str, rows: &[LayerRow]) {
    let _ = writeln!(json, "  \"{section}\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"baseline_s\": {:.6}, \"optimized_s\": {:.6}, \
             \"speedup\": {:.3} }}{comma}",
            r.name,
            r.baseline_s,
            r.optimized_s,
            r.baseline_s / r.optimized_s
        );
    }
    let _ = writeln!(json, "  ],");
    let (base, opt) = layer_totals(rows);
    let _ = writeln!(
        json,
        "  \"{section}_total\": {{ \"baseline_s\": {base:.6}, \"optimized_s\": {opt:.6}, \
         \"speedup\": {:.3} }},",
        base / opt
    );
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_map.json".to_owned());
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!("perf: host cores = {cores}");

    let suite = optimized_suite();
    eprintln!("perf: {} benchmark networks", suite.len());
    // The 256-bit ripple ALU, optimized once: the datapath workload of
    // the cached-kernel section (hundreds of repeated per-bit cones).
    let (alu_net, _) = optimize(&alu(256)).expect("alu is acyclic");

    // Pre-extract the forests once per K; the kernel benchmark times the
    // DP alone, not forest construction.
    let mut kernel_rows = Vec::new();
    let mut cached_rows = Vec::new();
    let mut fn_tier: Option<FnTier> = None;
    let mut forest_rows = Vec::new();
    let mut verify_rows: Vec<VerifyRow> = Vec::new();
    let mut telemetry_rows = Vec::new();

    // The script's source networks: the suite before optimization plus
    // a 64-wide, six-round DES-like network, a size at which the
    // quadratic whole-network passes take most of a second.
    let mut optimize_nets: Vec<(String, Network)> = chortle_circuits::suite()
        .into_iter()
        .map(|b| (b.name.to_owned(), b.network))
        .collect();
    optimize_nets.push(("des64x6".to_owned(), des_like(0xde5, 64, 6)));
    let optimize_rows = measure_optimize(&optimize_nets);

    // The parse workload: the `map_large` netlists as that workload
    // writes them, and the whole paper suite as one row.
    let optimized = |net| optimize(&net).expect("generated netlists are acyclic").0;
    let mut parse_texts: Vec<(String, Vec<String>)> = [
        ("random7k", optimized(random_logic(7, 600, 7000, 400, 4))),
        ("des64x6", optimized(des_like(11, 64, 6))),
        ("alu256", alu_net.clone()),
    ]
    .into_iter()
    .map(|(name, net)| (name.to_owned(), vec![write_blif(&net, name)]))
    .collect();
    let suite_blifs = chortle_circuits::suite()
        .into_iter()
        .map(|b| write_blif(&b.network, b.name))
        .collect();
    parse_texts.push(("suite".to_owned(), suite_blifs));
    let parse_rows = measure_parse(&parse_texts);
    let layer_nets: Vec<(String, Vec<Network>)> = parse_texts
        .iter()
        .map(|(name, blifs)| {
            let nets = blifs.iter().map(|b| parse_blif(b).expect("parses"));
            (name.clone(), nets.collect())
        })
        .collect();
    let (normalize_rows, render_rows) = measure_layers(&layer_nets);

    for &k in &KS {
        let mut trees: Vec<Tree> = Vec::new();
        for (_, net, _) in &suite {
            let mut forest = Forest::of(&net.simplified());
            forest.split_wide_nodes(10.max(k));
            trees.extend(forest.trees);
        }

        // Correctness first: the kernels must agree on every tree.
        let mut mapper = TreeMapper::new();
        for tree in &trees {
            assert_eq!(
                baseline_tree_cost(tree, k),
                mapper.tree_cost(tree, k).expect("narrow fanin"),
                "kernel disagreement at k={k}"
            );
        }
        let (base_luts, baseline_s) = best_of(KERNEL_ROUNDS, || {
            trees
                .iter()
                .map(|t| u64::from(baseline_tree_cost(t, k)))
                .sum::<u64>()
        });
        let (opt_luts, optimized_s) = best_of(KERNEL_ROUNDS, || {
            let mut mapper = TreeMapper::new();
            trees
                .iter()
                .map(|t| u64::from(mapper.tree_cost(t, k).expect("narrow fanin")))
                .sum::<u64>()
        });
        assert_eq!(base_luts, opt_luts, "kernel totals diverged at k={k}");
        kernel_rows.push(KernelRow {
            k,
            trees: trees.len(),
            luts: opt_luts,
            baseline_s,
            optimized_s,
        });
        eprintln!(
            "perf: kernel  k={k} {:>4} trees {:>6} LUTs  baseline {:.4}s  optimized {:.4}s  ({:.2}x)",
            trees.len(),
            opt_luts,
            baseline_s,
            optimized_s,
            baseline_s / optimized_s
        );

        // The structurally memoized kernel: fingerprint each tree, solve
        // only the first tree of each shape, replay the cost for the
        // rest. The tree set is the table suite *plus a 256-bit ripple
        // ALU* — datapath regularity (hundreds of per-bit cones sharing a
        // handful of shapes) is the workload the cross-tree cache exists
        // for, and the irregular control/random suite alone understates
        // it. Both columns of this section are timed on this same
        // extended set, and the fingerprint hashing is *inside* the timed
        // region — the speedup is net of the cache's own overhead. (Leaf
        // depths are all zero here, so the shape alone is the full key.)
        let mut cached_trees = trees.clone();
        {
            let mut forest = Forest::of(&alu_net.simplified());
            forest.split_wide_nodes(10.max(k));
            cached_trees.extend(forest.trees);
        }
        let (plain_luts, plain_s) = best_of(KERNEL_ROUNDS, || {
            let mut mapper = TreeMapper::new();
            cached_trees
                .iter()
                .map(|t| u64::from(mapper.tree_cost(t, k).expect("narrow fanin")))
                .sum::<u64>()
        });
        let (cached_luts, cached_s) = best_of(KERNEL_ROUNDS, || {
            let mut mapper = TreeMapper::new();
            let mut scratch = chortle::FingerprintScratch::default();
            let mut cache: HashMap<Fingerprint, u64> = HashMap::new();
            let mut total = 0u64;
            for t in &cached_trees {
                total += *cache
                    .entry(t.fingerprint_with(&mut scratch))
                    .or_insert_with(|| u64::from(mapper.tree_cost(t, k).expect("narrow fanin")));
            }
            total
        });
        assert_eq!(cached_luts, plain_luts, "cached kernel diverged at k={k}");
        let distinct = cached_trees
            .iter()
            .map(Tree::fingerprint)
            .collect::<HashSet<_>>()
            .len();

        cached_rows.push(CachedKernelRow {
            k,
            trees: cached_trees.len(),
            distinct,
            cached_s,
            optimized_s: plain_s,
        });
        eprintln!(
            "perf: cached  k={k} {:>4} shapes of {:>4} trees ({:.0}% hits)  cached {:.4}s  ({:.2}x vs optimized)",
            distinct,
            cached_trees.len(),
            (1.0 - distinct as f64 / cached_trees.len() as f64) * 100.0,
            cached_s,
            plain_s / cached_s
        );
        if k == 4 {
            let ft = measure_fn_tier(&cached_trees, k);
            eprintln!(
                "perf: fn-tier k={k} {:>4} skeletons of {:>4} frontier trees  \
                 full fingerprint {:.4}s  blind key {:.4}s  ({:.2}x)",
                ft.classes,
                ft.trees,
                ft.structural_s,
                ft.fn_s,
                ft.structural_s / ft.fn_s
            );
            fn_tier = Some(ft);
        }

        // End-to-end forest mapping.
        let seq_opts = MapOptions::builder(k).build().unwrap();
        let (seq_maps, sequential_s) = best_of(MAP_ROUNDS, || {
            suite
                .iter()
                .map(|(_, net, _)| map_network(net, &seq_opts).expect("maps"))
                .collect::<Vec<_>>()
        });
        let luts: u64 = seq_maps.iter().map(|m| m.report.luts as u64).sum();
        forest_rows.push(ForestRow {
            k,
            luts,
            sequential_s,
        });
        eprintln!("perf: mapping k={k} {luts:>6} LUTs  sequential {sequential_s:.4}s");

        // Equivalence checking of the mapped suite: the frozen
        // bit-serial checker against the block-parallel one. Both must
        // accept every circuit (the differential test pins identical
        // errors on broken ones).
        let checked: Vec<_> = suite
            .iter()
            .zip(&seq_maps)
            .map(|((_, net, _), mapped)| (net, &mapped.circuit))
            .collect();
        let (base_ok, verify_base_s) = best_of(KERNEL_ROUNDS, || {
            checked
                .iter()
                .all(|(net, c)| baseline_check_equivalence(net, c).is_ok())
        });
        let (opt_ok, verify_opt_s) = best_of(KERNEL_ROUNDS, || {
            checked
                .iter()
                .all(|(net, c)| check_equivalence(net, c).is_ok())
        });
        assert!(
            base_ok && opt_ok,
            "a mapped suite circuit failed verification at k={k}"
        );
        verify_rows.push(VerifyRow {
            k,
            luts,
            baseline_s: verify_base_s,
            optimized_s: verify_opt_s,
        });
        eprintln!(
            "perf: verify  k={k} {:>6} LUTs  bit-serial {:.4}s  block-parallel {:.4}s  ({:.2}x)",
            luts,
            verify_base_s,
            verify_opt_s,
            verify_base_s / verify_opt_s
        );

        // Same suite with an enabled sink: per-stage breakdown plus the
        // cost of the instrumentation itself, relative to the mapping
        // row above (which runs with the default disabled handle).
        let (report, enabled_s) = best_of(MAP_ROUNDS, || {
            let telemetry = Telemetry::enabled();
            let tel_opts = MapOptions::builder(k)
                .telemetry(telemetry.clone())
                .build()
                .expect("valid options");
            for (_, net, _) in &suite {
                map_network(net, &tel_opts).expect("maps");
            }
            telemetry.snapshot()
        });
        eprintln!(
            "perf: telemetry k={k} enabled {:.4}s  ({:+.1}% vs sequential)  {} stages, {} counters",
            enabled_s,
            (enabled_s / sequential_s - 1.0) * 100.0,
            report.stages.len(),
            report.counters.len()
        );
        telemetry_rows.push(TelemetryRow {
            k,
            enabled_s,
            report_json: report.to_json(),
        });
    }

    let kernel_base: f64 = kernel_rows.iter().map(|r| r.baseline_s).sum();
    let kernel_opt: f64 = kernel_rows.iter().map(|r| r.optimized_s).sum();
    let kernel_cached: f64 = cached_rows.iter().map(|r| r.cached_s).sum();
    let kernel_cached_plain: f64 = cached_rows.iter().map(|r| r.optimized_s).sum();
    let map_seq: f64 = forest_rows.iter().map(|r| r.sequential_s).sum();
    let verify_base: f64 = verify_rows.iter().map(|r| r.baseline_s).sum();
    let verify_opt: f64 = verify_rows.iter().map(|r| r.optimized_s).sum();
    let optimize_base: f64 = optimize_rows.iter().map(|r| r.baseline_s).sum();
    let optimize_opt: f64 = optimize_rows.iter().map(|r| r.optimized_s).sum();
    let parse_base: f64 = parse_rows.iter().map(|r| r.baseline_s).sum();
    let parse_opt: f64 = parse_rows.iter().map(|r| r.optimized_s).sum();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"host\": {{ \"cores\": {cores} }},");
    let _ = writeln!(
        json,
        "  \"rounds\": {{ \"kernel\": {KERNEL_ROUNDS}, \"mapping\": {MAP_ROUNDS} }},"
    );
    let _ = writeln!(json, "  \"kernel\": [");
    for (i, r) in kernel_rows.iter().enumerate() {
        let comma = if i + 1 < kernel_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"k\": {}, \"trees\": {}, \"luts\": {}, \"baseline_s\": {:.6}, \
             \"optimized_s\": {:.6}, \"speedup\": {:.3} }}{comma}",
            r.k,
            r.trees,
            r.luts,
            r.baseline_s,
            r.optimized_s,
            r.baseline_s / r.optimized_s
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"kernel_total\": {{ \"baseline_s\": {:.6}, \"optimized_s\": {:.6}, \"speedup\": {:.3} }},",
        kernel_base,
        kernel_opt,
        kernel_base / kernel_opt
    );
    let _ = writeln!(json, "  \"kernel_cached\": {{");
    let _ = writeln!(json, "    \"rows\": [");
    for (i, r) in cached_rows.iter().enumerate() {
        let comma = if i + 1 < cached_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{ \"k\": {}, \"trees\": {}, \"distinct_shapes\": {}, \"hit_rate\": {:.3}, \
             \"cached_s\": {:.6}, \"optimized_s\": {:.6}, \"speedup\": {:.3} }}{comma}",
            r.k,
            r.trees,
            r.distinct,
            1.0 - r.distinct as f64 / r.trees as f64,
            r.cached_s,
            r.optimized_s,
            r.optimized_s / r.cached_s
        );
    }
    let _ = writeln!(json, "    ],");
    // The gated cache-key summary, at an object path
    // (`kernel_cached.fn_tier.*`) so bench-diff's direction rules apply
    // — `speedup` and `hit_rate` here are HigherIsBetter.
    let ft = fn_tier.as_ref().expect("K=4 is in the sweep");
    let _ = writeln!(
        json,
        "    \"fn_tier\": {{ \"k\": 4, \"trees\": {}, \"eligible\": {}, \"classes\": {}, \
         \"hit_rate\": {:.3}, \"structural_s\": {:.6}, \"fn_s\": {:.6}, \"speedup\": {:.3} }}",
        ft.trees,
        ft.eligible,
        ft.classes,
        (ft.eligible - ft.classes) as f64 / ft.eligible.max(1) as f64,
        ft.structural_s,
        ft.fn_s,
        ft.structural_s / ft.fn_s
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"kernel_cached_total\": {{ \"cached_s\": {:.6}, \"optimized_s\": {:.6}, \"speedup\": {:.3} }},",
        kernel_cached,
        kernel_cached_plain,
        kernel_cached_plain / kernel_cached
    );
    let _ = writeln!(json, "  \"mapping\": [");
    for (i, r) in forest_rows.iter().enumerate() {
        let comma = if i + 1 < forest_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"k\": {}, \"luts\": {}, \"sequential_s\": {:.6} }}{comma}",
            r.k, r.luts, r.sequential_s
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"mapping_total\": {{ \"sequential_s\": {map_seq:.6} }},"
    );
    let _ = writeln!(json, "  \"verify\": [");
    for (i, r) in verify_rows.iter().enumerate() {
        let comma = if i + 1 < verify_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"k\": {}, \"luts\": {}, \"baseline_s\": {:.6}, \"optimized_s\": {:.6}, \
             \"speedup\": {:.3} }}{comma}",
            r.k,
            r.luts,
            r.baseline_s,
            r.optimized_s,
            r.baseline_s / r.optimized_s
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"verify_total\": {{ \"baseline_s\": {:.6}, \"optimized_s\": {:.6}, \"speedup\": {:.3} }},",
        verify_base,
        verify_opt,
        verify_base / verify_opt
    );
    let _ = writeln!(json, "  \"optimize\": [");
    for (i, r) in optimize_rows.iter().enumerate() {
        let comma = if i + 1 < optimize_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"literals_before\": {}, \"literals_after\": {}, \
             \"baseline_s\": {:.6}, \"optimized_s\": {:.6}, \"speedup\": {:.3} }}{comma}",
            r.name,
            r.literals_before,
            r.literals_after,
            r.baseline_s,
            r.optimized_s,
            r.baseline_s / r.optimized_s
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"optimize_total\": {{ \"baseline_s\": {:.6}, \"optimized_s\": {:.6}, \"speedup\": {:.3} }},",
        optimize_base,
        optimize_opt,
        optimize_base / optimize_opt
    );
    let _ = writeln!(json, "  \"parse\": [");
    for (i, r) in parse_rows.iter().enumerate() {
        let comma = if i + 1 < parse_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"bytes\": {}, \"baseline_s\": {:.6}, \
             \"optimized_s\": {:.6}, \"speedup\": {:.3} }}{comma}",
            r.name,
            r.bytes,
            r.baseline_s,
            r.optimized_s,
            r.baseline_s / r.optimized_s
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"parse_total\": {{ \"baseline_s\": {:.6}, \"optimized_s\": {:.6}, \"speedup\": {:.3} }},",
        parse_base,
        parse_opt,
        parse_base / parse_opt
    );
    write_layer_section(&mut json, "normalize", &normalize_rows);
    write_layer_section(&mut json, "render", &render_rows);
    let _ = writeln!(json, "  \"telemetry\": [");
    for (i, r) in telemetry_rows.iter().enumerate() {
        let comma = if i + 1 < telemetry_rows.len() {
            ","
        } else {
            ""
        };
        let sequential_s = forest_rows[i].sequential_s;
        let _ = writeln!(
            json,
            "    {{ \"k\": {}, \"enabled_s\": {:.6}, \"overhead_vs_sequential\": {:.3}, \
             \"report\": {} }}{comma}",
            r.k,
            r.enabled_s,
            r.enabled_s / sequential_s - 1.0,
            r.report_json
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write report");
    eprintln!(
        "perf: kernel {:.2}x, cached {:.2}x, mapping {:.4}s, verify {:.2}x, optimize {:.2}x, parse {:.2}x, normalize {:.2}x, render {:.2}x on {cores} core(s); report -> {out_path}",
        kernel_base / kernel_opt,
        kernel_cached_plain / kernel_cached,
        map_seq,
        verify_base / verify_opt,
        optimize_base / optimize_opt,
        parse_base / parse_opt,
        layer_speedup(&normalize_rows),
        layer_speedup(&render_rows)
    );
    print!("{json}");
}
