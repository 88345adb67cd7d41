//! The forest mapping driver (DESIGN.md §14).
//!
//! Every tree goes through one step, [`map_tree_step`]: a tree with at
//! most K leaf occurrences becomes one LUT outright; any other tree
//! solves the subset DP, unless the run attached to a warm cache, in
//! which case it computes its cache key and looks it up before solving.
//! [`map_forest`] runs that step over the forest in tree order on the
//! calling thread. The forest is topologically ordered (leaf trees
//! precede their consumers), and a tree depends on earlier trees only
//! through their root depths, so every leaf depth is published before a
//! tree reads it.
//!
//! There is no intra-request parallelism: concurrent requests run on
//! the daemon's worker threads, each through this one loop, and share
//! only the warm cache's segments.

use std::sync::Arc;
use std::time::Instant;

use chortle_netlist::NodeId;
use chortle_telemetry::{catalogue, Histogram, TraceBuffer, TraceScope};

use crate::cache::{tier_get, tier_insert, CacheKey, SharedCache};
use crate::dp::{map_tree_solution, DpScratch, Objective, ShapeSolution};
use crate::map::{MapError, MapOptions, MappedTree};
use crate::tree::{Fingerprint, Tree, TreeChild};

/// One tree's mapping: its DP solution, the depth of its root LUT's
/// output, and the cache key it was looked up under, if the run attached
/// to a warm cache. A tree that fits one LUT has no solution and no key
/// (see [`single_lut_depth`]).
pub(crate) struct TreeResult {
    /// The (possibly shared) DP solution; `None` on the single-LUT path.
    pub sol: Option<Arc<ShapeSolution>>,
    /// Depth of the root LUT's output.
    pub depth: u32,
    /// The cache key; `None` unless a warm segment was attached, and on
    /// the single-LUT path.
    pub key: Option<CacheKey>,
}

impl TreeResult {
    /// LUTs in the tree's cover: the DP's count, or 1 on the single-LUT
    /// path.
    pub(crate) fn luts(&self, tree: &Tree) -> u32 {
        self.sol.as_ref().map_or(1, |sol| sol.dp.tree_cost(tree))
    }
}

/// The root depth of `tree` if it fits one K-input LUT, or `None` when
/// its leaf occurrences outnumber `k` and the subset DP must decide.
///
/// A tree with at most K leaf occurrences (counted per occurrence, as
/// the DP counts them) always maps to one LUT absorbing every node:
/// one LUT is the fewest possible, and "deepest leaf + 1" is the lowest
/// possible root depth, because every leaf reaches the root through at
/// least one LUT. Both objectives therefore agree with the DP, which
/// finds the same unique one-LUT cover; `cover::emit_single_lut` emits
/// it with the DP reconstruction's slot order.
pub(crate) fn single_lut_depth(tree: &Tree, k: usize, arrivals: &[u32]) -> Option<u32> {
    let mut leaves = 0usize;
    let mut deepest = 0u32;
    for node in &tree.nodes {
        for child in &node.children {
            if let TreeChild::Leaf(sig) = child {
                leaves += 1;
                if leaves > k {
                    return None;
                }
                deepest = deepest.max(arrivals[sig.node().index()]);
            }
        }
    }
    Some(deepest + 1)
}

/// The run-invariant inputs of [`map_tree_step`]: the forest's key
/// material, the DP options, and the warm cache segment the run
/// attaches to.
struct ForestRun<'a> {
    /// Canonical blind skeleton fingerprints, indexed by tree.
    skeletons: &'a [Fingerprint],
    /// LUT input count.
    k: usize,
    /// Mapping objective.
    objective: Objective,
    /// The warm cache's segment, when the run carries a warm cache and
    /// its mode caches. `None` means no key and no lookup.
    cache: Option<Arc<SharedCache>>,
}

/// Maps `tree`, tree `ti` of the forest. `arrivals` holds the published
/// depth of every earlier tree's root (0 for primary inputs and
/// constants). A tree that fits one LUT takes the single-LUT path: no
/// key, no lookup, no DP. Otherwise, when a warm segment is attached,
/// the tree computes its key and looks it up, and a miss solves and
/// inserts. Without a warm segment the tree computes no key and solves.
/// The tree's trace span opens and closes here — closed as cancelled
/// when the DP fails, so every begin stays matched.
///
/// # Errors
///
/// Returns the DP's [`MapError`] (a node too wide for the subset DP).
fn map_tree_step(
    run: &ForestRun<'_>,
    ti: usize,
    tree: &Tree,
    arrivals: &[u32],
    buf: &mut TraceBuffer,
    scratch: &mut DpScratch,
) -> Result<TreeResult, MapError> {
    let traced = buf.is_enabled();
    if traced {
        let size = tree.nodes.len() as u64;
        buf.begin(TraceScope::Tree, ti as u64, catalogue::MAP_TREE, size);
    }
    let result = if let Some(depth) = single_lut_depth(tree, run.k, arrivals) {
        TreeResult {
            sol: None,
            depth,
            key: None,
        }
    } else {
        let leaf_depth = |id: NodeId| arrivals[id.index()];
        let cache = run.cache.as_deref();
        let key = cache.map(|_| CacheKey::of(tree, run.skeletons[ti], &leaf_depth));
        let sol = if let Some(sol) = tier_get(cache, key) {
            sol
        } else {
            match map_tree_solution(tree, run.k, run.objective, &leaf_depth, scratch) {
                Ok(sol) => tier_insert(cache, key, Arc::new(sol)),
                Err(e) => {
                    buf.cancelled(TraceScope::Tree, ti as u64, catalogue::MAP_TREE, 0);
                    return Err(e);
                }
            }
        };
        TreeResult {
            depth: sol.dp.tree_depth(tree),
            sol: Some(sol),
            key,
        }
    };
    if traced {
        let cost = u64::from(result.luts(tree));
        buf.end(TraceScope::Tree, ti as u64, catalogue::MAP_TREE, cost);
    }
    Ok(result)
}

/// Maps every tree of the canonicalized forest in tree order on the
/// calling thread, with one scratch arena throughout, and returns them
/// with their (possibly shared) solutions. `skeletons` holds each tree's
/// canonical blind fingerprint, and `nodes` is the node count of the
/// normalized network the trees index into. Cancellation is polled
/// between trees, so no tree span is open when it fires.
///
/// # Errors
///
/// [`MapError::Cancelled`] when the run's token fires, and the DP's own
/// errors.
pub(crate) fn map_forest(
    nodes: usize,
    trees: Vec<Tree>,
    skeletons: &[Fingerprint],
    options: &MapOptions,
) -> Result<Vec<MappedTree>, MapError> {
    let (k, objective) = (options.k, options.objective);
    let run = ForestRun {
        skeletons,
        k,
        objective,
        cache: options
            .warm_cache
            .as_ref()
            .filter(|_| options.cache.is_enabled())
            .map(|w| w.segment(k, objective)),
    };
    let telemetry = &options.telemetry;
    let mut scratch = DpScratch::new();
    scratch.counting = telemetry.is_enabled();
    let mut buf = telemetry.trace_buffer(0);
    let mut tree_ns = telemetry.is_enabled().then(Histogram::new);
    let mut arrivals = vec![0u32; nodes];
    let mut mapped = Vec::with_capacity(trees.len());
    let outcome = trees.into_iter().enumerate().try_for_each(|(ti, tree)| {
        if options.cancel.is_cancelled() {
            return Err(MapError::Cancelled);
        }
        let t0 = tree_ns.is_some().then(Instant::now);
        let result = map_tree_step(&run, ti, &tree, &arrivals, &mut buf, &mut scratch)?;
        if let (Some(t0), Some(hist)) = (t0, tree_ns.as_mut()) {
            hist.record_duration(t0.elapsed());
        }
        arrivals[tree.root.index()] = result.depth;
        mapped.push(MappedTree { tree, result });
        Ok(())
    });
    telemetry.trace_flush(&mut buf);
    if let Some(hist) = tree_ns.filter(|h| !h.is_empty()) {
        telemetry.merge_histogram(catalogue::MAP_TREE_NS, &hist);
    }
    outcome.map(|()| mapped)
}
