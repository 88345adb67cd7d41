//! Top-level mapping API: network in, LUT circuit out.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use chortle_netlist::{check_equivalence, LutCircuit, LutError, LutSource, Network, NodeId};
use chortle_telemetry::{Histogram, Telemetry, TraceScope};

use crate::cache::{CacheKey, CacheMode, FnKey, WarmCache};
use crate::cancel::CancelToken;
use crate::cover::emit_forest;
use crate::dp::{DpCounters, Objective};
use crate::pack::PackMode;
use crate::sched::TreeResult;
use crate::tree::{shape_histogram_of, Fingerprint, FingerprintScratch, Forest, Tree};

/// Names of the stages and counters the mapper reports into its
/// [`Telemetry`] sink (see `DESIGN.md` §10 for the full catalogue and
/// exact semantics). Every counter is a pure function of the input
/// network and the options.
pub mod stats {
    /// Stage: network normalization (`Network::simplified`).
    pub const STAGE_NORMALIZE: &str = "map.normalize";
    /// Stage: fanout-free forest construction.
    pub const STAGE_FOREST: &str = "map.forest";
    /// Stage: wide-node pre-splitting.
    pub const STAGE_SPLIT: &str = "map.split";
    /// Stage: canonical reordering and renumbering of every tree (see
    /// [`crate::Tree::canonicalize`]); runs in every cache mode so the
    /// produced circuit never depends on the cache setting.
    pub const STAGE_CANON: &str = "map.canon";
    /// Stage: the subset-DP mapping of every tree, in tree order.
    pub const STAGE_DP: &str = "map.dp";
    /// Stage: functional-tier key material — packed truth tables and
    /// their NPN canonical forms (memoized per distinct table) plus
    /// blind skeleton fingerprints. Runs only under
    /// [`crate::CacheMode::Fn`].
    pub const STAGE_FNMETA: &str = "map.fnmeta";
    /// Stage: LUT-circuit reconstruction and emission.
    pub const STAGE_EMIT: &str = "map.emit";
    /// Stage: the opt-in don't-care packing post-pass plus its
    /// per-circuit equivalence verification (`--pack dc` only).
    pub const STAGE_PACK: &str = "map.pack";
    /// Counter: LUT inputs dropped by the don't-care packing post-pass
    /// (emitted only under [`crate::PackMode::Dc`]).
    pub const PACK_DROPPED_INPUTS: &str = "pack.dropped_inputs";
    /// Counter: LUTs removed by the packing post-pass — constants,
    /// buffers collapsed into their source, and exact duplicates merged
    /// (emitted only under [`crate::PackMode::Dc`]).
    pub const PACK_REMOVED_LUTS: &str = "pack.removed_luts";
    /// Counter: utilization divisions enumerated by the DP kernels.
    pub const DP_DIVISIONS: &str = "dp.divisions";
    /// Counter: intermediate-node blocks examined by the submask walks.
    pub const DP_GROUP_BLOCKS: &str = "dp.group_blocks";
    /// Counter: submask walks skipped by the `nd_feasible` prune.
    pub const DP_PRUNED_WALKS: &str = "dp.pruned_walks";
    /// Counter: tree nodes pushed through a DP kernel.
    pub const DP_TREE_NODES: &str = "dp.tree_nodes";
    /// Counter: nodes served from the tree-local scratch high-water
    /// capacity (see `DpCounters` for why the mark is tree-local).
    pub const DP_SCRATCH_HITS: &str = "dp.scratch_hits";
    /// Counter: nodes that raised the tree-local scratch high-water mark.
    pub const DP_SCRATCH_GROWS: &str = "dp.scratch_grows";
    /// Counter: wide tree nodes halved before mapping.
    pub const MAP_NODES_SPLIT: &str = "map.nodes_split";
    /// Counter: fanout-free trees in the mapped forest.
    pub const MAP_TREES: &str = "map.trees";
    /// Counter: trees with at most K leaf occurrences, mapped to one LUT
    /// without a cache key, a lookup or a DP solve. A pure function of
    /// the forest and K, identical for every cache mode.
    pub const MAP_SINGLE_LUT_TREES: &str = "map.single_lut_trees";
    /// Counter: trees whose DP solution replays a cache key seen earlier
    /// in tree order. Derived from the forest, not from cache traffic, so
    /// the total is identical for every cache mode. Reported only when
    /// caching is on ([`crate::CacheMode::Off`] emits no `cache.*`
    /// counters).
    pub const CACHE_HITS: &str = "cache.hits";
    /// Counter: distinct cache keys in the forest — the trees that pay
    /// for a full subset-DP run.
    /// `hits + misses + map.single_lut_trees == map.trees`.
    pub const CACHE_MISSES: &str = "cache.misses";
    /// Counter: LUTs emitted from replayed (cache-hit) solutions.
    pub const CACHE_REPLAYED_LUTS: &str = "cache.replayed_luts";
    /// Counter: trees served by the *functional* tier — a structural
    /// miss whose `(NPN class, blind skeleton, depths)` key was seen
    /// earlier in tree order. Derived like [`CACHE_HITS`] (a pure
    /// function of the forest); emitted only
    /// under [`crate::CacheMode::Fn`]. In that mode
    /// `cache.hits + cache.fn_hits + cache.misses + map.single_lut_trees
    /// == map.trees`.
    pub const CACHE_FN_HITS: &str = "cache.fn_hits";
    /// Counter: functional-tier-eligible trees (≤ 6 leaves) that missed
    /// both tiers and paid for a full solve. Emitted only under
    /// [`crate::CacheMode::Fn`]; `fn_misses <= misses`.
    pub const CACHE_FN_MISSES: &str = "cache.fn_misses";
    /// Counter: LUTs emitted from functional-tier replays. Emitted only
    /// under [`crate::CacheMode::Fn`].
    pub const CACHE_FN_REPLAYED_LUTS: &str = "cache.fn_replayed_luts";
    /// Trace span: one tree's DP mapping (`Tree` scope, index = tree
    /// order; begin arg = tree node count, end arg = the tree's LUT
    /// cost). Only the timestamps differ between runs.
    pub const TRACE_TREE: &str = "map.tree";
    /// Trace instant: the tree is the *first* occurrence of its cache
    /// key in tree order — it pays for a full subset-DP solve (arg =
    /// LUT cost). Derived from the forest, like [`CACHE_HITS`], so the
    /// classification is identical for every cache mode.
    pub const TRACE_SOLVE: &str = "dp.solve";
    /// Trace instant: the tree replays a key seen earlier in tree order
    /// (arg = LUT cost). See [`TRACE_SOLVE`].
    pub const TRACE_REPLAY: &str = "dp.replay";
    /// Trace instant: the tree fits one LUT and skipped the DP (arg = 1,
    /// its LUT cost). See [`MAP_SINGLE_LUT_TREES`].
    pub const TRACE_SINGLE_LUT: &str = "map.single_lut";
    /// Histogram: per-tree mapping wall time, nanoseconds. Bucketing is
    /// exact and merging is associative, but wall time itself varies
    /// run to run.
    pub const HIST_TREE_NS: &str = "map.tree_ns";
    /// Histogram: per-tree DP work, measured in utilization divisions
    /// (not nanoseconds), one sample per tree that went through the DP
    /// (single-LUT trees record none) — a deterministic work
    /// distribution that is bit-identical for every cache mode.
    pub const HIST_TREE_WORK: &str = "dp.tree_work";
    /// Counter: combinational clouds cut from a sequential design and
    /// mapped by [`crate::map_design`]. Deterministic — a function of
    /// the design.
    pub const DESIGN_CLOUDS: &str = "design.clouds";
    /// Counter: latches in the flattened sequential design.
    pub const DESIGN_LATCHES: &str = "design.latches";
    /// Counter: sinks (primary outputs or latch data inputs) driven
    /// directly by an input or a constant, bypassing mapping.
    pub const DESIGN_PASSTHROUGHS: &str = "design.passthroughs";
    /// Counter: LUTs across all mapped clouds of the design.
    pub const DESIGN_CLOUD_LUTS: &str = "design.cloud_luts";
    /// Histogram: per-cloud gate count — a deterministic size
    /// distribution, bit-identical for every cache mode (clouds are
    /// numbered in sink order).
    pub const HIST_CLOUD_WORK: &str = "design.cloud_work";
    /// Counter: logical (continuation-joined, comment-stripped) lines
    /// the streaming BLIF reader consumed.
    pub const BLIF_LOGICAL_LINES: &str = "blif.logical_lines";
    /// Counter: `.model` blocks in the parsed file.
    pub const BLIF_MODELS: &str = "blif.models";
    /// Counter: `.subckt` instantiations expanded during flattening.
    pub const BLIF_SUBCKTS: &str = "blif.subckts";
    /// Counter: `.latch` directives across all models.
    pub const BLIF_LATCHES: &str = "blif.latches";
    /// Counter: `.exdc` blocks skipped by the reader.
    pub const BLIF_EXDC_BLOCKS: &str = "blif.exdc_blocks";
    /// Counter: body-less metadata directives (`.attr`, `.param`,
    /// `.cname`, `.clock`, ...) skipped by the reader.
    pub const BLIF_SKIPPED_DIRECTIVES: &str = "blif.skipped_directives";
}

/// Flushes a scratch arena's accumulated kernel counters into a
/// telemetry sink, resetting them. Safe to call with a disabled sink
/// (each add is then a no-op).
pub(crate) fn flush_dp_counters(telemetry: &Telemetry, counters: &mut DpCounters) {
    let c = counters.take();
    telemetry.add_counter(stats::DP_DIVISIONS, c.divisions);
    telemetry.add_counter(stats::DP_GROUP_BLOCKS, c.group_blocks);
    telemetry.add_counter(stats::DP_PRUNED_WALKS, c.pruned_walks);
    telemetry.add_counter(stats::DP_TREE_NODES, c.tree_nodes);
    telemetry.add_counter(stats::DP_SCRATCH_HITS, c.scratch_hits);
    telemetry.add_counter(stats::DP_SCRATCH_GROWS, c.scratch_grows);
}

/// Configuration of the Chortle mapper.
///
/// Construct through [`MapOptions::builder`]; the struct is
/// `#[non_exhaustive]`, so fields are readable everywhere but new options
/// can be added without breaking downstream crates.
///
/// # Examples
///
/// ```
/// use chortle::{CacheMode, MapOptions};
///
/// let opts = MapOptions::builder(4).build()?;
/// assert_eq!(opts.k, 4);
/// assert_eq!(opts.cache, CacheMode::Shared);
///
/// // The fallible builder covers every knob, including telemetry:
/// let opts = MapOptions::builder(4)
///     .split_threshold(8)?
///     .cache(CacheMode::Off)
///     .telemetry(chortle::Telemetry::enabled())
///     .build()?;
/// assert_eq!(opts.cache, CacheMode::Off);
/// # Ok::<(), chortle::MapError>(())
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct MapOptions {
    /// Number of inputs of the target lookup tables (the paper evaluates
    /// K = 2..5).
    pub k: usize,
    /// Fanin bound above which nodes are pre-split into two halves before
    /// the exhaustive decomposition search (the paper uses 10).
    pub split_threshold: usize,
    /// What to minimize: LUT count (the paper's objective, with a depth
    /// tie-break) or LUT depth (with an area tie-break).
    pub objective: Objective,
    /// Observability sink the mapper reports stages, counters, and
    /// trace events into. Disabled by default (zero overhead);
    /// see [`Telemetry::enabled`] and the [`stats`] name catalogue.
    pub telemetry: Telemetry,
    /// Cross-tree memoization of DP results ([`CacheMode::Shared`] by
    /// default). Every mode produces the identical circuit — see the
    /// bit-identity contract on [`CacheMode`].
    pub cache: CacheMode,
    /// Cooperative cancellation, polled at tree boundaries. The default token is inert; a fired token makes
    /// [`map_network`] return [`MapError::Cancelled`] with all partial
    /// work discarded.
    pub cancel: CancelToken,
    /// A process-lifetime [`WarmCache`] consulted (and populated) under
    /// [`CacheMode::Shared`] and [`CacheMode::Fn`], so repeated runs
    /// over recurring shapes skip the subset DP entirely. `None` (the
    /// default) keeps caches scoped to a single run.
    pub warm_cache: Option<WarmCache>,
    /// The opt-in don't-care packing post-pass ([`PackMode::Off`] by
    /// default). [`PackMode::Dc`] shrinks and merges emitted LUTs using
    /// satisfiability don't-cares at LUT boundaries, then verifies the
    /// packed circuit against the source network — see [`PackMode`].
    pub pack: PackMode,
}

impl MapOptions {
    /// Starts a fallible builder over every mapper knob.
    ///
    /// Validation happens as each knob is set (`split_threshold`) or at
    /// [`MapOptionsBuilder::build`] (`k`), so an invalid combination is a
    /// typed [`MapError`] instead of a panic.
    pub fn builder(k: usize) -> MapOptionsBuilder {
        MapOptionsBuilder {
            opts: MapOptions {
                k,
                split_threshold: 10,
                objective: Objective::Area,
                telemetry: Telemetry::disabled(),
                cache: CacheMode::Shared,
                cancel: CancelToken::default(),
                warm_cache: None,
                pack: PackMode::Off,
            },
        }
    }
}

/// Fallible builder for [`MapOptions`] — see [`MapOptions::builder`].
#[derive(Clone, Debug)]
#[must_use = "call .build() to obtain the options"]
pub struct MapOptionsBuilder {
    opts: MapOptions,
}

impl MapOptionsBuilder {
    /// Sets the node-splitting threshold.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InvalidSplitThreshold`] if `threshold` is
    /// outside `2..=16`.
    pub fn split_threshold(mut self, threshold: usize) -> Result<Self, MapError> {
        if !(2..=16).contains(&threshold) {
            return Err(MapError::InvalidSplitThreshold { threshold });
        }
        self.opts.split_threshold = threshold;
        Ok(self)
    }

    /// Sets the mapping objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.opts.objective = objective;
        self
    }

    /// Attaches a telemetry sink.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.opts.telemetry = telemetry;
        self
    }

    /// Selects how DP results are memoized across trees (the default is
    /// [`CacheMode::Shared`]). Every mode produces the identical circuit;
    /// the knob only trades memory for repeated kernel work.
    pub fn cache(mut self, cache: CacheMode) -> Self {
        self.opts.cache = cache;
        self
    }

    /// Attaches a cancellation token; see [`MapOptions::cancel`].
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.opts.cancel = cancel;
        self
    }

    /// Attaches a process-lifetime warm cache; see
    /// [`MapOptions::warm_cache`]. Only consulted under
    /// [`CacheMode::Shared`] and [`CacheMode::Fn`].
    pub fn warm_cache(mut self, warm: WarmCache) -> Self {
        self.opts.warm_cache = Some(warm);
        self
    }

    /// Selects the don't-care packing post-pass (the default is
    /// [`PackMode::Off`]); see [`MapOptions::pack`].
    pub fn pack(mut self, pack: PackMode) -> Self {
        self.opts.pack = pack;
        self
    }

    /// Validates the remaining invariants and returns the options.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InvalidK`] if the `k` passed to
    /// [`MapOptions::builder`] is outside `2..=8`.
    pub fn build(self) -> Result<MapOptions, MapError> {
        if !(2..=8).contains(&self.opts.k) {
            return Err(MapError::InvalidK { k: self.opts.k });
        }
        Ok(self.opts)
    }
}

/// Errors returned by [`map_network`] and the fallible
/// [`MapOptions`] constructors.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MapError {
    /// Circuit construction failed — indicates an internal inconsistency
    /// between the DP cost model and the reconstruction.
    Circuit(LutError),
    /// A tree node's fanin exceeds what the `u32` subset DP can
    /// enumerate. [`map_network`] pre-splits wide nodes, so this only
    /// reaches callers driving the DP directly with splitting disabled.
    FaninTooWide {
        /// The offending node's fanin.
        fanin: usize,
        /// The largest supported fanin ([`crate::dp::MAX_DP_FANIN`]).
        limit: usize,
    },
    /// The requested LUT input count is unsupported.
    InvalidK {
        /// The rejected value.
        k: usize,
    },
    /// The requested node-splitting threshold is outside `2..=16`.
    InvalidSplitThreshold {
        /// The rejected value.
        threshold: usize,
    },
    /// The run's [`CancelToken`](crate::CancelToken) fired (explicit
    /// cancellation or an expired deadline) before mapping finished.
    /// All partial work was discarded.
    Cancelled,
    /// The don't-care packing post-pass produced a circuit that failed
    /// equivalence verification against the source network. The packed
    /// circuit was discarded; this indicates an internal bug in the
    /// pack pass, never bad input.
    PackVerification {
        /// Name of the first mismatching output.
        output: String,
    },
    /// A LUT-count invariant failed — the emitted circuit disagrees with
    /// the DP's predicted cost, or packing grew the circuit. The circuit
    /// was discarded; this indicates an internal bug, never bad input.
    LutCount {
        /// Which invariant failed.
        check: LutCheck,
        /// The LUT count the invariant is measured against.
        expected: u64,
        /// The LUT count the circuit actually has.
        actual: u64,
    },
}

/// The LUT-count invariants [`map_network`] checks in every build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum LutCheck {
    /// The emitted circuit has exactly the LUTs the DP predicted.
    Emit,
    /// Don't-care packing never adds LUTs.
    Pack,
}

/// Checks one [`LutCheck`] invariant: `actual` must equal `expected`
/// ([`LutCheck::Emit`]) or not exceed it ([`LutCheck::Pack`]).
///
/// # Errors
///
/// Returns [`MapError::LutCount`] when the invariant fails.
pub(crate) fn check_lut_count(check: LutCheck, expected: u64, actual: u64) -> Result<(), MapError> {
    let holds = match check {
        LutCheck::Emit => actual == expected,
        LutCheck::Pack => actual <= expected,
    };
    if holds {
        Ok(())
    } else {
        Err(MapError::LutCount {
            check,
            expected,
            actual,
        })
    }
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Circuit(e) => write!(f, "lookup-table circuit construction failed: {e}"),
            MapError::FaninTooWide { fanin, limit } => write!(
                f,
                "tree node fanin {fanin} exceeds the subset-DP limit of {limit}; \
                 split wide nodes first"
            ),
            MapError::InvalidK { k } => {
                write!(f, "unsupported LUT input count K = {k} (must be 2..=8)")
            }
            MapError::InvalidSplitThreshold { threshold } => {
                write!(
                    f,
                    "split threshold {threshold} out of range (must be 2..=16)"
                )
            }
            MapError::Cancelled => {
                write!(f, "mapping cancelled before completion")
            }
            MapError::PackVerification { output } => {
                write!(
                    f,
                    "don't-care packing broke output {output:?}; packed circuit discarded"
                )
            }
            MapError::LutCount {
                check: LutCheck::Emit,
                expected,
                actual,
            } => write!(
                f,
                "emitted circuit has {actual} LUTs but the DP predicted {expected}; \
                 circuit discarded"
            ),
            MapError::LutCount {
                check: LutCheck::Pack,
                expected,
                actual,
            } => write!(
                f,
                "don't-care packing grew the circuit from {expected} to {actual} LUTs; \
                 circuit discarded"
            ),
        }
    }
}

impl Error for MapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MapError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LutError> for MapError {
    fn from(e: LutError) -> Self {
        MapError::Circuit(e)
    }
}

/// Statistics of one mapping run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MapReport {
    /// Lookup tables in the produced circuit (the paper's cost function).
    pub luts: usize,
    /// Fanout-free trees in the forest.
    pub trees: usize,
    /// Total tree nodes mapped (after splitting).
    pub tree_nodes: usize,
    /// Largest node fanin seen after splitting.
    pub max_fanin: usize,
}

/// A mapped design: the LUT circuit plus mapping statistics.
#[derive(Clone, Debug)]
pub struct Mapping {
    /// The produced circuit of K-input lookup tables. Its
    /// [`LutSource::Input`] references use the *original* network's
    /// primary-input ids, so it verifies directly against the network
    /// passed to [`map_network`].
    pub circuit: LutCircuit,
    /// Mapping statistics.
    pub report: MapReport,
    /// The canonical fingerprint of every tree of the split forest, in
    /// tree order; each equals the tree's [`Tree::fingerprint`].
    shapes: Vec<Fingerprint>,
}

impl Mapping {
    /// The split forest's `(shape fingerprint, tree count)` pairs, most
    /// common first, as [`Forest::shape_histogram`] counts them.
    /// `1 - distinct/total` bounds the DP cache's hit rate.
    pub fn shape_histogram(&self) -> Vec<(Fingerprint, usize)> {
        shape_histogram_of(&self.shapes)
    }
}

/// Maps a Boolean network into a circuit of K-input lookup tables using
/// the Chortle algorithm.
///
/// The network is first normalized ([`Network::simplified`]): constants
/// fold, buffers collapse, dead gates disappear. It is then divided into a
/// forest of maximal fanout-free trees; nodes wider than
/// [`MapOptions::split_threshold`] are split; and each tree is mapped
/// optimally by the utilization-division dynamic program.
///
/// # Errors
///
/// Returns [`MapError`] if circuit construction fails (an internal
/// inconsistency — the cost model and the reconstruction disagree).
///
/// # Examples
///
/// ```
/// use chortle::{map_network, MapOptions};
/// use chortle_netlist::{check_equivalence, Network, NodeOp};
///
/// let mut net = Network::new();
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let c = net.add_input("c");
/// let g1 = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
/// let z = net.add_gate(NodeOp::Or, vec![g1.into(), c.into()]);
/// net.add_output("z", z.into());
///
/// let mapped = map_network(&net, &MapOptions::builder(3).build()?)?;
/// assert_eq!(mapped.report.luts, 1); // the whole cone fits a 3-LUT
/// check_equivalence(&net, &mapped.circuit).expect("functionally equivalent");
/// # Ok::<(), chortle::MapError>(())
/// ```
pub fn map_network(network: &Network, options: &MapOptions) -> Result<Mapping, MapError> {
    if options.cancel.is_cancelled() {
        return Err(MapError::Cancelled);
    }
    let telemetry = &options.telemetry;
    let normal = {
        let _s = telemetry.span(stats::STAGE_NORMALIZE);
        network.simplified()
    };
    let mut forest = {
        let _s = telemetry.span(stats::STAGE_FOREST);
        Forest::of(&normal)
    };
    // Never split a node that already fits the subset search and the LUT.
    let threshold = options.split_threshold.max(options.k);
    let splits = {
        let _s = telemetry.span(stats::STAGE_SPLIT);
        forest.split_wide_nodes(threshold)
    };
    telemetry.add_counter(stats::MAP_NODES_SPLIT, splits as u64);
    telemetry.add_counter(stats::MAP_TREES, forest.trees.len() as u64);

    // Canonicalize unconditionally — not just when caching — so the
    // emitted circuit is a function of the input and the options alone,
    // never of the cache mode (the bit-identity contract of `CacheMode`).
    let shapes = {
        let _s = telemetry.span(stats::STAGE_CANON);
        forest.canonicalize()
    };

    // Functional-tier key material: depths-independent, so it is
    // computed once here (sequentially, with the NPN canonicalization
    // memoized per distinct packed table) and the per-tree `FnKey` is
    // assembled at DP time from this plus the depth hash the structural
    // key already carries. Empty outside `CacheMode::Fn`.
    let fn_metas = if options.cache.uses_fn() {
        let _s = telemetry.span(stats::STAGE_FNMETA);
        compute_fn_metas(&forest.trees, options.k)
    } else {
        Vec::new()
    };

    let mut report = MapReport {
        trees: forest.trees.len(),
        ..MapReport::default()
    };
    let mapped = {
        let _s = telemetry.span(stats::STAGE_DP);
        crate::sched::map_forest(normal.len(), forest.trees, &shapes, fn_metas, options)?
    };
    // Kernel tallies are summed here, once per tree in tree order —
    // cached replays contribute the tally of the shape they share, and a
    // so the dp.* totals are identical to the uncached mapper.
    let mut predicted: u64 = 0;
    let mut single_lut_trees: u64 = 0;
    let mut kernel_tally = DpCounters::default();
    for m in &mapped {
        report.tree_nodes += m.tree.nodes.len();
        report.max_fanin = report.max_fanin.max(m.tree.max_fanin());
        predicted += u64::from(m.luts());
        match &m.result.sol {
            Some(sol) => kernel_tally.add(&sol.tally),
            None => single_lut_trees += 1,
        }
    }
    telemetry.add_counter(stats::MAP_SINGLE_LUT_TREES, single_lut_trees);
    flush_dp_counters(telemetry, &mut kernel_tally);
    report_cache_counters(telemetry, options, &mapped);
    record_tree_work(telemetry, &mapped);
    trace_classification(telemetry, &normal, &shapes, &mapped);

    // Primary inputs survive normalization in order; translate the
    // normal-form ids back to the caller's network ids.
    debug_assert_eq!(normal.num_inputs(), network.num_inputs());
    let mut orig_input = vec![NodeId::from_index(0); normal.len()];
    for (norm_id, orig_id) in normal.inputs().iter().zip(network.inputs()) {
        orig_input[norm_id.index()] = *orig_id;
    }
    let input_source = |id: NodeId| LutSource::Input(orig_input[id.index()]);

    let mut circuit: LutCircuit = {
        let _s = telemetry.span(stats::STAGE_EMIT);
        emit_forest(&normal, &mapped, &input_source, options.k)?
    };
    report.luts = circuit.num_luts();
    check_lut_count(LutCheck::Emit, predicted, report.luts as u64)?;
    if options.pack == PackMode::Dc {
        let _s = telemetry.span(stats::STAGE_PACK);
        let (packed, pstats) = crate::pack::pack_circuit(&circuit)?;
        // Every packed circuit is verified against the source network
        // before it replaces the exact one — the pass is allowed to be
        // clever precisely because it is never trusted.
        check_equivalence(network, &packed)
            .map_err(|e| MapError::PackVerification { output: e.output })?;
        check_lut_count(LutCheck::Pack, report.luts as u64, packed.num_luts() as u64)?;
        telemetry.add_counter(stats::PACK_DROPPED_INPUTS, pstats.dropped_inputs);
        telemetry.add_counter(stats::PACK_REMOVED_LUTS, pstats.removed_luts);
        report.luts = packed.num_luts();
        circuit = packed;
    }
    Ok(Mapping {
        circuit,
        report,
        shapes,
    })
}

/// The depths-independent part of a functional-tier key: leaf-slot
/// count, NPN canonical form of the packed truth table, and the blind
/// skeleton fingerprint. `None` for trees wider than
/// `chortle_mis::MAX_CANON_VARS` leaves, which only the structural tier
/// serves, and for trees that fit one LUT, which no tier serves.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FnMeta {
    /// Leaf-slot count (≤ 6).
    pub vars: u8,
    /// NPN canonical form of the tree's packed truth table.
    pub canon: u64,
    /// [`Tree::blind_fingerprint`] of the canonicalized tree.
    pub blind: Fingerprint,
}

impl FnMeta {
    /// Assembles the full functional key by adding the depth hash the
    /// structural key already computed.
    pub(crate) fn key(&self, structural: &CacheKey) -> FnKey {
        FnKey {
            vars: self.vars,
            canon: self.canon,
            blind: self.blind,
            depths: structural.depths,
        }
    }
}

/// Computes every tree's [`FnMeta`]. NPN canonicalization goes through
/// the process-wide memo ([`chortle_mis::canonical_npn_u64_cached`]) —
/// real forests repeat a handful of small functions constantly, and the
/// 6-variable canonical search (720 permutations × a 64-step Gray walk)
/// is far too expensive to rerun per tree, or even per request in the
/// daemon.
fn compute_fn_metas(trees: &[Tree], k: usize) -> Vec<Option<FnMeta>> {
    let mut scratch = FingerprintScratch::default();
    trees
        .iter()
        .map(|tree| {
            let (table, vars) = tree.packed_truth_table().filter(|&(_, vars)| vars > k)?;
            Some(FnMeta {
                vars: vars as u8,
                canon: chortle_mis::canonical_npn_u64_cached(table, vars),
                blind: tree.blind_fingerprint_with(&mut scratch),
            })
        })
        .collect()
}

/// One mapped tree: the concrete (canonicalized) tree and its mapping —
/// the DP solution it shares with every other tree of the same cache key
/// and that key (when caching was on), or no solution when the tree fits
/// one LUT. This is what flows from the mapping drivers into cover
/// emission — reconstruction reads decisions from the solution and leaf
/// identities from `tree`.
pub(crate) struct MappedTree {
    /// The canonicalized tree.
    pub tree: Tree,
    /// The tree's solution, root depth and keys.
    pub result: TreeResult,
}

impl MappedTree {
    /// LUTs in the tree's cover.
    pub(crate) fn luts(&self) -> u32 {
        self.result.luts(&self.tree)
    }
}

/// Derives the deterministic `cache.*` counters from the per-tree key
/// sequence, in tree order: a tree is a *hit* when an earlier tree has
/// the same key. Deliberately not counted at the cache data structure —
/// whether a lookup hits there depends on what a warm cache already
/// held, while this definition is a pure function of the forest.
fn report_cache_counters(telemetry: &Telemetry, options: &MapOptions, mapped: &[MappedTree]) {
    if !telemetry.is_enabled() || !options.cache.is_enabled() {
        return;
    }
    let mut seen: HashSet<CacheKey> = HashSet::with_capacity(mapped.len());
    let mut seen_fn: HashSet<FnKey> = HashSet::new();
    let (mut hits, mut misses, mut replayed) = (0u64, 0u64, 0u64);
    let (mut fn_hits, mut fn_misses, mut fn_replayed) = (0u64, 0u64, 0u64);
    for m in mapped {
        // Single-LUT trees have no key: they are neither hits nor misses.
        let Some(key) = m.result.key else {
            continue;
        };
        // Attribution is structural-first: a tree both tiers could
        // serve counts as a structural hit, so `cache.hits` is
        // unchanged from `CacheMode::Shared` and `cache.fn_hits` is
        // exactly the *additional* reuse the functional tier unlocks.
        // (The runtime lookup order is functional-first, which is
        // equivalent work-wise: either tier's hit skips the solve.)
        let fn_key = m.result.fn_key;
        if seen.contains(&key) {
            hits += 1;
            replayed += u64::from(m.luts());
        } else if fn_key.is_some_and(|fk| seen_fn.contains(&fk)) {
            fn_hits += 1;
            fn_replayed += u64::from(m.luts());
        } else {
            misses += 1;
            if fn_key.is_some() {
                fn_misses += 1;
            }
        }
        seen.insert(key);
        if let Some(fk) = fn_key {
            seen_fn.insert(fk);
        }
    }
    {
        // Per-run cache-tier attribution for operators tailing the
        // structured log — the same numbers the counters accumulate,
        // visible per request instead of only in aggregate.
        use chortle_telemetry::log::{self, FieldValue, Level};
        if log::enabled(Level::Debug) {
            let mode = match options.cache {
                CacheMode::Off => "off",
                CacheMode::Tree => "tree",
                CacheMode::Shared => "shared",
                CacheMode::Fn => "fn",
            };
            log::event(
                Level::Debug,
                "map.cache",
                "cache tier attribution",
                &[
                    ("mode", FieldValue::Str(mode)),
                    ("hits", FieldValue::U64(hits)),
                    ("misses", FieldValue::U64(misses)),
                    ("fn_hits", FieldValue::U64(fn_hits)),
                    ("fn_misses", FieldValue::U64(fn_misses)),
                    ("replayed_luts", FieldValue::U64(replayed)),
                ],
            );
        }
    }
    telemetry.add_counter(stats::CACHE_HITS, hits);
    telemetry.add_counter(stats::CACHE_MISSES, misses);
    telemetry.add_counter(stats::CACHE_REPLAYED_LUTS, replayed);
    if options.cache.uses_fn() {
        telemetry.add_counter(stats::CACHE_FN_HITS, fn_hits);
        telemetry.add_counter(stats::CACHE_FN_MISSES, fn_misses);
        telemetry.add_counter(stats::CACHE_FN_REPLAYED_LUTS, fn_replayed);
    }
}

/// Records the deterministic per-tree work histogram
/// ([`stats::HIST_TREE_WORK`]): one sample per DP-mapped tree, in tree
/// order, of the utilization divisions its solution cost. Replayed trees
/// carry the tally of the shape they share, so the distribution is
/// identical for every cache mode.
fn record_tree_work(telemetry: &Telemetry, mapped: &[MappedTree]) {
    if !telemetry.is_enabled() {
        return;
    }
    let mut work = Histogram::new();
    for sol in mapped.iter().filter_map(|m| m.result.sol.as_ref()) {
        work.record(sol.tally.divisions);
    }
    if !work.is_empty() {
        telemetry.merge_histogram(stats::HIST_TREE_WORK, &work);
    }
}

/// Emits the classification instants ([`stats::TRACE_SINGLE_LUT`],
/// [`stats::TRACE_SOLVE`] / [`stats::TRACE_REPLAY`]) for a tracing
/// sink. Solve-vs-replay uses the same deterministic first-occurrence
/// definition as [`report_cache_counters`], but recomputes the keys
/// here so [`CacheMode::Off`] runs classify identically to caching runs
/// — the trace identity is a pure function of the forest.
fn trace_classification(
    telemetry: &Telemetry,
    normal: &Network,
    shapes: &[Fingerprint],
    mapped: &[MappedTree],
) {
    if !telemetry.is_tracing() {
        return;
    }
    let mut buf = telemetry.trace_buffer(0);
    let mut arrivals = vec![0u32; normal.len()];
    let mut seen: HashSet<CacheKey> = HashSet::with_capacity(mapped.len());
    for (ti, m) in mapped.iter().enumerate() {
        let name = if m.result.sol.is_none() {
            stats::TRACE_SINGLE_LUT
        } else {
            let key = m
                .result
                .key
                .unwrap_or_else(|| CacheKey::of(&m.tree, shapes[ti], &|id| arrivals[id.index()]));
            if seen.insert(key) {
                stats::TRACE_SOLVE
            } else {
                stats::TRACE_REPLAY
            }
        };
        buf.instant(TraceScope::Tree, ti as u64, name, u64::from(m.luts()));
        arrivals[m.tree.root.index()] = m.result.depth;
    }
    telemetry.trace_flush(&mut buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use chortle_netlist::{check_equivalence, NodeOp, Signal};

    fn verify(net: &Network, k: usize) -> Mapping {
        let opts = MapOptions::builder(k).build().expect("valid K");
        let mapped = map_network(net, &opts).expect("maps");
        check_equivalence(net, &mapped.circuit).expect("equivalent");
        assert!(mapped.circuit.luts().iter().all(|l| l.utilization() <= k));
        mapped
    }

    #[test]
    fn lut_count_checks_pass_and_fail_typed() {
        assert_eq!(check_lut_count(LutCheck::Emit, 7, 7), Ok(()));
        assert_eq!(check_lut_count(LutCheck::Pack, 7, 7), Ok(()));
        assert_eq!(check_lut_count(LutCheck::Pack, 7, 5), Ok(()));
        for (check, expected, actual) in [
            (LutCheck::Emit, 7, 6),
            (LutCheck::Emit, 7, 8),
            (LutCheck::Pack, 7, 8),
        ] {
            let err = check_lut_count(check, expected, actual).unwrap_err();
            assert_eq!(
                err,
                MapError::LutCount {
                    check,
                    expected,
                    actual
                }
            );
            assert!(err.to_string().contains("circuit discarded"), "{err}");
        }
    }

    #[test]
    fn shape_histogram_is_the_split_forests() {
        let net = shaped_network();
        for k in [2, 4] {
            let options = MapOptions::builder(k).build().unwrap();
            let mut forest = Forest::of(&net.simplified());
            forest.split_wide_nodes(options.split_threshold.max(k));
            assert_eq!(
                map_network(&net, &options).unwrap().shape_histogram(),
                forest.shape_histogram()
            );
        }
    }

    /// Repeated and distinct cone shapes, a wide gate that splits, and
    /// shared fanout.
    fn shaped_network() -> Network {
        let mut net = Network::new();
        let x: Vec<Signal> = (0..12)
            .map(|i| Signal::new(net.add_input(format!("x{i}"))))
            .collect();
        let mut outs = Vec::new();
        for w in x.windows(3) {
            let g = net.add_gate(NodeOp::And, w[..2].to_vec());
            outs.push(net.add_gate(NodeOp::Or, vec![g.into(), !w[2]]));
        }
        let wide = net.add_gate(NodeOp::And, x.clone());
        outs.push(net.add_gate(NodeOp::Or, vec![wide.into(), outs[0].into()]));
        for (i, o) in outs.into_iter().enumerate() {
            net.add_output(format!("z{i}"), o.into());
        }
        net
    }

    #[test]
    fn maps_figure1_style_network_for_all_k() {
        // A two-output network with shared logic and inversions.
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let e = net.add_input("e");
        let g1 = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        let g2 = net.add_gate(NodeOp::Or, vec![g1.into(), Signal::inverted(c)]);
        let g3 = net.add_gate(NodeOp::And, vec![c.into(), d.into(), e.into()]);
        let g4 = net.add_gate(NodeOp::Or, vec![g2.into(), g3.into()]);
        let g5 = net.add_gate(NodeOp::And, vec![g2.into(), Signal::inverted(g3)]);
        net.add_output("y", g4.into());
        net.add_output("z", g5.into());
        for k in 2..=6 {
            verify(&net, k);
        }
    }

    #[test]
    fn output_driven_by_input_and_const() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let one = net.add_const(true);
        net.add_output("w", Signal::inverted(a));
        net.add_output("k", one.into());
        let mapped = verify(&net, 4);
        assert_eq!(mapped.report.luts, 0);
    }

    #[test]
    fn fanout_trees_reference_each_other() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let shared = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        let x = net.add_gate(NodeOp::Or, vec![shared.into(), c.into()]);
        let y = net.add_gate(NodeOp::And, vec![Signal::inverted(shared), c.into()]);
        net.add_output("x", x.into());
        net.add_output("y", y.into());
        let mapped = verify(&net, 3);
        // Three trees (shared, x, y) but shared fits one LUT each.
        assert_eq!(mapped.report.trees, 3);
        assert_eq!(mapped.report.luts, 3);
    }

    #[test]
    fn wide_gates_split_and_map() {
        let mut net = Network::new();
        let inputs: Vec<_> = (0..14).map(|i| net.add_input(format!("i{i}"))).collect();
        let g = net.add_gate(
            NodeOp::And,
            inputs.iter().map(|&i| Signal::new(i)).collect(),
        );
        net.add_output("z", g.into());
        for k in [2, 4, 5] {
            let mapped = verify(&net, k);
            let expect = (14 - 1_usize).div_ceil(k - 1);
            assert_eq!(mapped.report.luts, expect, "k={k}");
        }
    }

    #[test]
    fn deep_unbalanced_network() {
        // A long chain with side inputs exercises absorption repeatedly.
        let mut net = Network::new();
        let mut cur: Signal = net.add_input("i0").into();
        for i in 1..12 {
            let side = net.add_input(format!("i{i}"));
            let op = if i % 2 == 0 { NodeOp::And } else { NodeOp::Or };
            let g = net.add_gate(op, vec![cur, side.into()]);
            cur = if i % 3 == 0 {
                Signal::inverted(g)
            } else {
                g.into()
            };
        }
        net.add_output("z", cur);
        for k in 2..=6 {
            let mapped = verify(&net, k);
            // A 12-leaf chain needs about ceil(11/(k-1)) LUTs.
            assert!(mapped.report.luts <= 11_usize.div_ceil(k - 1) + 1);
        }
    }

    #[test]
    fn duplicate_leaf_signals_use_separate_slots() {
        // a feeds the tree twice through different gates: Chortle counts
        // two leaves (no reconvergence analysis), as in the paper.
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        let g2 = net.add_gate(NodeOp::And, vec![Signal::inverted(a), Signal::inverted(b)]);
        let z = net.add_gate(NodeOp::Or, vec![g1.into(), g2.into()]);
        net.add_output("z", z.into());
        let mapped = verify(&net, 2);
        // XNOR over 4 tree leaves with K=2 needs 3 LUTs for Chortle.
        assert_eq!(mapped.report.luts, 3);
    }

    #[test]
    fn lut_count_monotone_in_k() {
        let mut net = Network::new();
        let inputs: Vec<_> = (0..9).map(|i| net.add_input(format!("i{i}"))).collect();
        let g1 = net.add_gate(
            NodeOp::And,
            inputs[0..4].iter().map(|&i| i.into()).collect(),
        );
        let g2 = net.add_gate(NodeOp::Or, inputs[4..9].iter().map(|&i| i.into()).collect());
        let z = net.add_gate(NodeOp::And, vec![g1.into(), Signal::inverted(g2)]);
        net.add_output("z", z.into());
        let mut last = usize::MAX;
        for k in 2..=8 {
            let mapped = verify(&net, k);
            assert!(mapped.report.luts <= last, "k={k}");
            last = mapped.report.luts;
        }
        assert_eq!(last, 2); // 9 leaves cannot fit one 8-LUT
    }
}
