//! Top-level mapping API: network in, LUT circuit out.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use chortle_netlist::{check_equivalence, LutCircuit, LutError, LutSource, Network, NodeId};
use chortle_telemetry::{catalogue, Histogram, Telemetry, TraceScope};

use crate::cache::{CacheKey, CacheMode, WarmCache};
use crate::cancel::CancelToken;
use crate::cover::emit_forest;
use crate::dp::{DpCounters, Objective};
use crate::pack::PackMode;
use crate::sched::TreeResult;
use crate::tree::{shape_histogram_of, Fingerprint, Forest, Tree};

/// Flushes a scratch arena's accumulated kernel counters into a
/// telemetry sink, resetting them. Safe to call with a disabled sink
/// (each add is then a no-op).
pub(crate) fn flush_dp_counters(telemetry: &Telemetry, counters: &mut DpCounters) {
    let c = counters.take();
    telemetry.add_counter(catalogue::DP_DIVISIONS, c.divisions);
    telemetry.add_counter(catalogue::DP_GROUP_BLOCKS, c.group_blocks);
    telemetry.add_counter(catalogue::DP_PRUNED_WALKS, c.pruned_walks);
    telemetry.add_counter(catalogue::DP_TREE_NODES, c.tree_nodes);
    telemetry.add_counter(catalogue::DP_SCRATCH_HITS, c.scratch_hits);
    telemetry.add_counter(catalogue::DP_SCRATCH_GROWS, c.scratch_grows);
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
    /// see [`Telemetry::enabled`] and the [`catalogue`] of names.
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
    /// [`CacheMode::Shared`], so repeated runs over recurring shapes
    /// skip the subset DP entirely. `None` (the default) keeps no cache:
    /// every tree that needs the DP solves it.
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

    /// Selects how DP results are memoized in the run's warm cache (the
    /// default is [`CacheMode::Shared`]). Every mode produces the
    /// identical circuit; the knob only trades memory for repeated
    /// kernel work, and only a run with a warm cache memoizes at all.
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
    /// [`CacheMode::Shared`].
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
    /// the DP's predicted cost, packing grew the circuit, or a tree's
    /// cost fell below the counting lower bound. The circuit was
    /// discarded; this indicates an internal bug, never bad input.
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
    /// No tree maps to fewer LUTs than the counting lower bound
    /// ⌈(L − 1)/(K − 1)⌉ over its L leaf occurrences: in Chortle's cover
    /// model the n LUTs of a tree form a tree, so n·K ≥ L + n − 1.
    Bound,
}

/// Checks one [`LutCheck`] invariant: `actual` must equal `expected`
/// ([`LutCheck::Emit`]), not exceed it ([`LutCheck::Pack`]) or not fall
/// below it ([`LutCheck::Bound`]).
///
/// # Errors
///
/// Returns [`MapError::LutCount`] when the invariant fails.
pub(crate) fn check_lut_count(check: LutCheck, expected: u64, actual: u64) -> Result<(), MapError> {
    let holds = match check {
        LutCheck::Emit => actual == expected,
        LutCheck::Pack => actual <= expected,
        LutCheck::Bound => actual >= expected,
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
            MapError::LutCount {
                check: LutCheck::Bound,
                expected,
                actual,
            } => write!(
                f,
                "a tree maps to {actual} LUTs, below its counting lower bound of {expected}; \
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
    pub(crate) shapes: Vec<Fingerprint>,
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
        let _s = telemetry.span(catalogue::MAP_NORMALIZE);
        network.simplified()
    };
    let mut forest = {
        let _s = telemetry.span(catalogue::MAP_FOREST);
        Forest::of(&normal)
    };
    // Never split a node that already fits the subset search and the LUT.
    let threshold = options.split_threshold.max(options.k);
    let splits = {
        let _s = telemetry.span(catalogue::MAP_SPLIT);
        forest.split_wide_nodes(threshold)
    };
    telemetry.add_counter(catalogue::MAP_NODES_SPLIT, splits as u64);
    telemetry.add_counter(catalogue::MAP_TREES, forest.trees.len() as u64);

    // Canonicalize unconditionally — not just when caching — so the
    // emitted circuit is a function of the input and the options alone,
    // never of the cache mode (the bit-identity contract of `CacheMode`).
    let (shapes, skeletons) = {
        let _s = telemetry.span(catalogue::MAP_CANON);
        forest.canonicalize_keyed()
    };

    let mut report = MapReport {
        trees: forest.trees.len(),
        ..MapReport::default()
    };
    let mapped = {
        let _s = telemetry.span(catalogue::MAP_DP);
        crate::sched::map_forest(normal.len(), forest.trees, &skeletons, options)?
    };
    // Kernel tallies are summed here, once per tree in tree order —
    // cached replays contribute the tally of the solution they share, so
    // the dp.* totals are identical to the uncached mapper; a single-LUT
    // tree contributes no tally.
    let mut predicted: u64 = 0;
    let mut single_lut_trees: u64 = 0;
    let (mut trees_at_bound, mut bound_gap) = (0u64, 0u64);
    let mut kernel_tally = DpCounters::default();
    for m in &mapped {
        report.tree_nodes += m.tree.nodes.len();
        report.max_fanin = report.max_fanin.max(m.tree.max_fanin());
        let luts = u64::from(m.luts());
        predicted += luts;
        match &m.result.sol {
            Some(sol) => {
                kernel_tally.add(&sol.tally);
                let bound = (m.tree.leaf_count() as u64 - 1).div_ceil(options.k as u64 - 1);
                check_lut_count(LutCheck::Bound, bound, luts)?;
                trees_at_bound += u64::from(luts == bound);
                bound_gap += luts - bound;
            }
            None => single_lut_trees += 1,
        }
    }
    telemetry.add_counter(catalogue::MAP_SINGLE_LUT_TREES, single_lut_trees);
    if options.objective == Objective::Area {
        telemetry.add_counter(catalogue::MAP_TREES_AT_BOUND, trees_at_bound);
        telemetry.add_counter(catalogue::MAP_BOUND_GAP, bound_gap);
    }
    flush_dp_counters(telemetry, &mut kernel_tally);
    classify_trees(telemetry, options, &normal, &skeletons, &mapped);
    record_tree_work(telemetry, &mapped);

    // Primary inputs survive normalization in order; translate the
    // normal-form ids back to the caller's network ids.
    debug_assert_eq!(normal.num_inputs(), network.num_inputs());
    let mut orig_input = vec![NodeId::from_index(0); normal.len()];
    for (norm_id, orig_id) in normal.inputs().iter().zip(network.inputs()) {
        orig_input[norm_id.index()] = *orig_id;
    }
    let input_source = |id: NodeId| LutSource::Input(orig_input[id.index()]);

    let mut circuit: LutCircuit = {
        let _s = telemetry.span(catalogue::MAP_EMIT);
        emit_forest(&normal, &mapped, &input_source, options.k)?
    };
    report.luts = circuit.num_luts();
    check_lut_count(LutCheck::Emit, predicted, report.luts as u64)?;
    if options.pack == PackMode::Dc {
        let _s = telemetry.span(catalogue::MAP_PACK);
        let (packed, pstats) = crate::pack::pack_circuit(&circuit)?;
        // Every packed circuit is verified against the source network
        // before it replaces the exact one — the pass is allowed to be
        // clever precisely because it is never trusted.
        check_equivalence(network, &packed)
            .map_err(|e| MapError::PackVerification { output: e.output })?;
        check_lut_count(LutCheck::Pack, report.luts as u64, packed.num_luts() as u64)?;
        telemetry.add_counter(catalogue::PACK_DROPPED_INPUTS, pstats.dropped_inputs);
        telemetry.add_counter(catalogue::PACK_REMOVED_LUTS, pstats.removed_luts);
        report.luts = packed.num_luts();
        circuit = packed;
    }
    Ok(Mapping {
        circuit,
        report,
        shapes,
    })
}

/// One mapped tree: the concrete (canonicalized) tree and its mapping —
/// its DP solution (shared through the warm cache with every tree of the
/// same key, when one was attached) and its key, or no solution when the
/// tree fits one LUT. This is what flows from the mapping drivers into cover
/// emission — reconstruction reads decisions from the solution and leaf
/// identities from `tree`.
pub(crate) struct MappedTree {
    /// The canonicalized tree.
    pub tree: Tree,
    /// The tree's solution, root depth and key.
    pub result: TreeResult,
}

impl MappedTree {
    /// LUTs in the tree's cover.
    pub(crate) fn luts(&self) -> u32 {
        self.result.luts(&self.tree)
    }
}

/// Classifies every tree by the first occurrence of its cache key in
/// tree order, and reports the result as the `cache.*` counters (when
/// the mode caches) and as one trace instant per tree (when tracing):
/// [`catalogue::MAP_SINGLE_LUT`] for a tree that fit one LUT,
/// [`catalogue::DP_SOLVE`] for the first tree with its key,
/// [`catalogue::DP_REPLAY`] for a later one.
///
/// A tree is a *hit* when an earlier tree has the same key. This is
/// deliberately not counted at the store: whether a lookup hits there
/// depends on what a warm cache already held, while this definition is
/// a pure function of the forest, identical for every cache mode. The
/// keys the mapping step computed (a run with a warm segment) are
/// reused; the others are recomputed here from `skeletons` and the
/// published root depths.
fn classify_trees(
    telemetry: &Telemetry,
    options: &MapOptions,
    normal: &Network,
    skeletons: &[Fingerprint],
    mapped: &[MappedTree],
) {
    let counting = telemetry.is_enabled() && options.cache.is_enabled();
    if !counting && !telemetry.is_tracing() {
        return;
    }
    let mut buf = telemetry.trace_buffer(0);
    let mut arrivals = vec![0u32; normal.len()];
    let mut seen: HashSet<CacheKey> = HashSet::with_capacity(mapped.len());
    let (mut hits, mut misses, mut replayed) = (0u64, 0u64, 0u64);
    for (ti, m) in mapped.iter().enumerate() {
        let luts = u64::from(m.luts());
        // Single-LUT trees have no key: they are neither hits nor misses.
        let name = if m.result.sol.is_none() {
            catalogue::MAP_SINGLE_LUT
        } else {
            let key = m.result.key.unwrap_or_else(|| {
                CacheKey::of(&m.tree, skeletons[ti], &|id| arrivals[id.index()])
            });
            if seen.insert(key) {
                misses += 1;
                catalogue::DP_SOLVE
            } else {
                hits += 1;
                replayed += luts;
                catalogue::DP_REPLAY
            }
        };
        buf.instant(TraceScope::Tree, ti as u64, name, luts);
        arrivals[m.tree.root.index()] = m.result.depth;
    }
    telemetry.trace_flush(&mut buf);
    if !counting {
        return;
    }
    {
        // Per-run cache-tier attribution for operators tailing the
        // structured log — the same numbers the counters accumulate,
        // visible per request instead of only in aggregate.
        use chortle_telemetry::log::{self, FieldValue, Level};
        if log::enabled(Level::Debug) {
            log::event(
                Level::Debug,
                "map.cache",
                "cache tier attribution",
                &[
                    ("hits", FieldValue::U64(hits)),
                    ("misses", FieldValue::U64(misses)),
                    ("replayed_luts", FieldValue::U64(replayed)),
                ],
            );
        }
    }
    telemetry.add_counter(catalogue::CACHE_HITS, hits);
    telemetry.add_counter(catalogue::CACHE_MISSES, misses);
    telemetry.add_counter(catalogue::CACHE_REPLAYED_LUTS, replayed);
}

/// Records the deterministic per-tree work histogram
/// ([`catalogue::DP_TREE_WORK`]): one sample per DP-mapped tree, in tree
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
        telemetry.merge_histogram(catalogue::DP_TREE_WORK, &work);
    }
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
        assert_eq!(check_lut_count(LutCheck::Bound, 7, 7), Ok(()));
        assert_eq!(check_lut_count(LutCheck::Bound, 7, 9), Ok(()));
        for (check, expected, actual) in [
            (LutCheck::Emit, 7, 6),
            (LutCheck::Emit, 7, 8),
            (LutCheck::Pack, 7, 8),
            (LutCheck::Bound, 7, 6),
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
