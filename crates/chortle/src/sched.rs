//! The forest mapping driver (DESIGN.md §14).
//!
//! Every tree goes through one step, [`map_tree_step`]: a tree with at
//! most K leaf occurrences becomes one LUT outright; any other tree
//! computes its cache key, tries the functional tier, then the
//! structural tier, then solves the subset DP. [`map_forest`] runs that
//! step over the forest in tree order on the calling thread. The forest
//! is topologically ordered (leaf trees precede their consumers), and a
//! tree depends on earlier trees only through their root depths, so
//! every leaf depth is published before a tree reads it.
//!
//! There is no intra-request parallelism: concurrent requests run on
//! the daemon's worker threads, each through this one loop, and share
//! only the warm cache's segments.

use std::sync::Arc;
use std::time::Instant;

use chortle_netlist::NodeId;
use chortle_telemetry::{Histogram, Telemetry, TraceBuffer, TraceScope};

use crate::cache::{CacheKey, CacheMode, FnKey, SharedCache, SharedFnCache, Store};
use crate::cancel::CancelToken;
use crate::dp::{map_tree_solution, DpScratch, Objective, ShapeSolution};
use crate::map::{stats, FnMeta, MapError, MapOptions, MappedTree};
use crate::tree::{Fingerprint, Tree, TreeChild};

/// One tree's mapping: its DP solution, the depth of its root LUT's
/// output, and the structural and functional cache keys the solution was
/// (re)computed under, if the run is keyed. A tree that fits one LUT has
/// no solution and no keys (see [`single_lut_depth`]).
pub(crate) struct TreeResult {
    /// The (possibly shared) DP solution; `None` on the single-LUT path.
    pub sol: Option<Arc<ShapeSolution>>,
    /// Depth of the root LUT's output.
    pub depth: u32,
    /// The structural cache key; `None` under [`CacheMode::Off`] and on
    /// the single-LUT path.
    pub key: Option<CacheKey>,
    /// The functional-tier key; `None` outside [`CacheMode::Fn`], for
    /// trees wider than 6 leaves, and on the single-LUT path.
    pub fn_key: Option<FnKey>,
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
/// material, the DP options, and the warm cache segments the run
/// attaches to.
pub(crate) struct ForestRun<'a> {
    /// Canonical shape fingerprints, indexed by tree.
    shapes: &'a [Fingerprint],
    /// Per-tree functional metadata (truth-table canon, blind shape),
    /// indexed by tree; empty unless the mode has a functional tier.
    fn_metas: Vec<Option<FnMeta>>,
    /// LUT input count.
    k: usize,
    /// Mapping objective.
    objective: Objective,
    /// The run's cache mode.
    mode: CacheMode,
    /// The warm cache's structural segment, when one applies. `None`
    /// with caching on gives the run a private store.
    cache: Option<Arc<SharedCache>>,
    /// The functional tier's warm segment, chosen the same way.
    fn_cache: Option<Arc<SharedFnCache>>,
    /// Cooperative cancellation, polled at every tree boundary.
    cancel: CancelToken,
    /// The run's telemetry sink.
    telemetry: Telemetry,
}

impl<'a> ForestRun<'a> {
    fn new(
        shapes: &'a [Fingerprint],
        fn_metas: Vec<Option<FnMeta>>,
        options: &MapOptions,
    ) -> ForestRun<'a> {
        let (k, objective, mode) = (options.k, options.objective, options.cache);
        // The warm cache, for a tier that attaches to it.
        let warm = |attaches: bool| options.warm_cache.as_ref().filter(|_| attaches);
        ForestRun {
            shapes,
            fn_metas,
            k,
            objective,
            mode,
            cache: warm(mode.uses_shared()).map(|w| w.segment(k, objective)),
            fn_cache: warm(mode.uses_fn()).map(|w| w.fn_segment(k, objective)),
            cancel: options.cancel.clone(),
            telemetry: options.telemetry.clone(),
        }
    }

    /// The state of the run's one executor.
    fn executor(&self) -> Executor<'_> {
        Executor {
            structural: Store::new(self.cache.as_deref(), self.mode.is_enabled()),
            functional: Store::new(self.fn_cache.as_deref(), self.mode.uses_fn()),
            buf: self.telemetry.trace_buffer(0),
            tree_ns: self.telemetry.is_enabled().then(Histogram::new),
        }
    }
}

/// One executor's state across the trees it maps: its view of both cache
/// tiers, its trace buffer and, when telemetry is on, its per-tree
/// wall-time histogram.
pub(crate) struct Executor<'a> {
    structural: Store<'a, CacheKey>,
    functional: Store<'a, FnKey>,
    buf: TraceBuffer,
    tree_ns: Option<Histogram>,
}

impl Executor<'_> {
    /// Hands the buffered events and timings to the sink.
    fn flush(&mut self, telemetry: &Telemetry) {
        telemetry.trace_flush(&mut self.buf);
        if let Some(hist) = self.tree_ns.take().filter(|h| !h.is_empty()) {
            telemetry.merge_histogram(stats::HIST_TREE_NS, &hist);
        }
    }
}

/// Maps `tree`, tree `ti` of the forest. `arrivals` holds the published depth of every
/// earlier tree's root (0 for primary inputs and constants). A tree
/// that fits one LUT takes the single-LUT path: no key, no lookup, no
/// DP. Otherwise the functional tier is consulted first, then the
/// structural one, then the subset DP runs; a structural hit back-fills
/// the functional tier, and a solve inserts into both. The tree's trace
/// span opens and closes here — closed as cancelled when the DP fails,
/// so every begin stays matched.
///
/// # Errors
///
/// Returns the DP's [`MapError`] (a node too wide for the subset DP).
pub(crate) fn map_tree_step(
    run: &ForestRun<'_>,
    ti: usize,
    tree: &Tree,
    arrivals: &[u32],
    exec: &mut Executor<'_>,
    scratch: &mut DpScratch,
) -> Result<TreeResult, MapError> {
    let t0 = exec.tree_ns.is_some().then(Instant::now);
    let traced = exec.buf.is_enabled();
    if traced {
        let size = tree.nodes.len() as u64;
        exec.buf
            .begin(TraceScope::Tree, ti as u64, stats::TRACE_TREE, size);
    }
    let result = if let Some(depth) = single_lut_depth(tree, run.k, arrivals) {
        TreeResult {
            sol: None,
            depth,
            key: None,
            fn_key: None,
        }
    } else {
        let leaf_depth = |id: NodeId| arrivals[id.index()];
        let key = exec
            .structural
            .is_on()
            .then(|| CacheKey::of(tree, run.shapes[ti], &leaf_depth));
        let fn_key = match (run.fn_metas.get(ti).and_then(Option::as_ref), &key) {
            (Some(meta), Some(k)) => Some(meta.key(k)),
            _ => None,
        };
        let sol = if let Some(sol) = exec.functional.get(fn_key) {
            sol
        } else if let Some(sol) = exec.structural.get(key) {
            exec.functional.insert(fn_key, Arc::clone(&sol));
            sol
        } else {
            match map_tree_solution(tree, run.k, run.objective, &leaf_depth, scratch) {
                Ok(sol) => {
                    let sol = exec.structural.insert(key, Arc::new(sol));
                    exec.functional.insert(fn_key, Arc::clone(&sol));
                    sol
                }
                Err(e) => {
                    exec.buf
                        .cancelled(TraceScope::Tree, ti as u64, stats::TRACE_TREE, 0);
                    return Err(e);
                }
            }
        };
        TreeResult {
            depth: sol.dp.tree_depth(tree),
            sol: Some(sol),
            key,
            fn_key,
        }
    };
    if traced {
        let cost = u64::from(result.luts(tree));
        exec.buf
            .end(TraceScope::Tree, ti as u64, stats::TRACE_TREE, cost);
    }
    if let (Some(t0), Some(hist)) = (t0, exec.tree_ns.as_mut()) {
        hist.record_duration(t0.elapsed());
    }
    Ok(result)
}

/// Maps every tree of the canonicalized forest and returns them, in tree
/// order, with their (possibly shared) solutions. `nodes` is the node
/// count of the normalized network the trees index into.
///
/// # Errors
///
/// [`MapError::Cancelled`] when the run's token fires, and the DP's own
/// errors.
pub(crate) fn map_forest(
    nodes: usize,
    trees: Vec<Tree>,
    shapes: &[Fingerprint],
    fn_metas: Vec<Option<FnMeta>>,
    options: &MapOptions,
) -> Result<Vec<MappedTree>, MapError> {
    map_in_tree_order(&ForestRun::new(shapes, fn_metas, options), trees, nodes)
}

/// Every tree in tree order on the calling thread, one scratch arena and
/// one store per tier throughout. Cancellation is polled between trees,
/// so no tree span is open when it fires.
fn map_in_tree_order(
    run: &ForestRun<'_>,
    trees: Vec<Tree>,
    nodes: usize,
) -> Result<Vec<MappedTree>, MapError> {
    let mut scratch = DpScratch::new();
    scratch.counting = run.telemetry.is_enabled();
    let mut exec = run.executor();
    let mut arrivals = vec![0u32; nodes];
    let mut mapped = Vec::with_capacity(trees.len());
    let outcome = trees.into_iter().enumerate().try_for_each(|(ti, tree)| {
        if run.cancel.is_cancelled() {
            return Err(MapError::Cancelled);
        }
        let result = map_tree_step(run, ti, &tree, &arrivals, &mut exec, &mut scratch)?;
        arrivals[tree.root.index()] = result.depth;
        mapped.push(MappedTree { tree, result });
        Ok(())
    });
    exec.flush(&run.telemetry);
    outcome.map(|()| mapped)
}
