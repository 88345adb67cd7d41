//! Cross-tree structural memoization of DP results.
//!
//! The subset DP of `dp.rs` is a pure function of a tree's canonical
//! *blind skeleton* plus the arrival depths of its leaves — never of leaf
//! identities, gate operations or edge polarities — so two trees with the
//! same [`CacheKey`] share their entire [`ShapeSolution`]. Forests repeat
//! shapes (chains, balanced pairs, the halves produced by wide-node
//! splitting), and requests to a long-lived daemon repeat whole circuits,
//! so a [`WarmCache`] lets every run attached to it pay for each shape
//! once.
//!
//! The warm cache is the only store. Each of its `(k, objective)`
//! segments is a [`SharedStore`]: an N-way sharded map behind
//! [`std::sync::Mutex`] shards, shared by every attached run (the
//! daemon's concurrent requests); hash-partitioning keeps workers from
//! serializing on one lock. Without a warm cache the run keeps no store:
//! it computes no key and solves every tree.
//!
//! Insertion is first-writer-wins: two runs racing on the same key
//! have computed bit-identical solutions (the DP is deterministic), so
//! whichever lands is correct and the loser's `Arc` is dropped. That, and
//! the fact that replays are verbatim (the forest is canonicalized before
//! mapping), is why every cache mode produces the same circuit as
//! `CacheMode::Off`.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use chortle_netlist::{mix64, NodeId};

use crate::dp::{Objective, ShapeSolution};
use crate::tree::{Fingerprint, Tree, TreeChild};

/// How a run attached to a [`WarmCache`] memoizes DP results.
///
/// Without a warm cache every mode behaves like [`CacheMode::Off`]: the
/// run keeps no store, computes no key and solves every tree. The
/// deterministic `cache.*` counters are reported for [`CacheMode::Shared`]
/// either way, since they are derived from the forest rather than from
/// store traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// No memoization: every tree runs the full subset DP, and the run
    /// never touches the warm cache.
    Off,
    /// Caching in the run's [`WarmCache`], if any (the default): a
    /// skeleton mapped by any run sharing the warm cache is a hit for
    /// all of them.
    #[default]
    Shared,
}

impl CacheMode {
    /// The retired functional (NPN) tier's mode, kept as an alias of
    /// [`CacheMode::Shared`] so existing callers still compile: the
    /// blind-skeleton key already unites every tree that tier did.
    #[allow(non_upper_case_globals)]
    pub const Fn: CacheMode = CacheMode::Shared;

    /// Whether this mode caches at all: it attaches to the run's
    /// [`WarmCache`] and reports the `cache.*` counters.
    pub(crate) fn is_enabled(self) -> bool {
        !matches!(self, CacheMode::Off)
    }
}

/// The memoization key: the canonical tree's blind skeleton fingerprint
/// plus a hash of the leaf arrival-depth sequence.
///
/// The skeleton suffices because a K-input LUT implements any function
/// of its inputs: `minmap` reads only which children a node has and how
/// deep its leaves arrive, never gate operations or edge polarities, and
/// canonicalization aligns the leaf slots of every tree of one skeleton
/// (`Tree::canonicalize`). Cover emission takes operations and
/// polarities from the member tree itself, so a replay is exact.
///
/// The depth component matters because `minmap` costs carry wire depths:
/// under the area objective depths break ties, under the depth objective
/// they lead — two trees of identical shape whose leaves arrive at
/// different depths can legitimately choose different decompositions.
/// Both components are 128 bits, so a key collision (which would replay
/// the wrong solution) needs a 2⁻¹²⁸ hash accident.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// [`Tree::blind_fingerprint`] of the canonicalized tree.
    pub shape: Fingerprint,
    /// Hash of the leaf depths in canonical traversal order.
    pub depths: Fingerprint,
}

impl CacheKey {
    /// Builds the key for a canonicalized `tree` under `leaf_depth`.
    pub(crate) fn of(
        tree: &Tree,
        shape: Fingerprint,
        leaf_depth: &dyn Fn(NodeId) -> u32,
    ) -> CacheKey {
        let mut hi = 0x0D15_EA5E_0000_0001u64;
        let mut lo = 0x0D15_EA5E_0000_0002u64;
        for node in &tree.nodes {
            for child in &node.children {
                if let TreeChild::Leaf(sig) = child {
                    let d = u64::from(leaf_depth(sig.node()));
                    hi = mix64(hi ^ d);
                    lo = mix64(lo.wrapping_add(d) ^ hi);
                }
            }
        }
        CacheKey {
            shape,
            depths: Fingerprint { hi, lo },
        }
    }
}

impl CacheKey {
    /// A well-mixed 64-bit digest of the key: which shard owns it.
    fn shard_hash(&self) -> u64 {
        self.shape.lo ^ self.depths.lo.rotate_left(17)
    }
}

/// Shard count of [`SharedCache`]. Sixteen shards keep lock contention
/// negligible for any plausible worker count while the per-shard maps
/// stay dense.
pub(crate) const SHARED_CACHE_SHARDS: usize = 16;

/// A run-shared, hash-partitioned solution store with relaxed
/// lookup tallies (read back by [`WarmCache::stats`] for the daemon's
/// hit rate).
pub(crate) struct SharedCache {
    shards: Vec<Mutex<HashMap<CacheKey, Arc<ShapeSolution>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SharedCache {
    pub(crate) fn new() -> Self {
        SharedCache {
            shards: (0..SHARED_CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Which shard owns a key. Key digests are already avalanche-mixed,
    /// so the low bits partition uniformly.
    fn shard(&self, key: &CacheKey) -> &Mutex<HashMap<CacheKey, Arc<ShapeSolution>>> {
        &self.shards[(key.shard_hash() as usize) % self.shards.len()]
    }

    pub(crate) fn get(&self, key: &CacheKey) -> Option<Arc<ShapeSolution>> {
        let found = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key)
            .cloned();
        // Observational tallies only (relaxed; never part of the
        // deterministic per-run counters, which are derived in tree
        // order by the mapping driver).
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// First-writer-wins insert: returns the `Arc` that ended up in the
    /// cache (the existing one on a race, since all writers computed
    /// identical solutions).
    pub(crate) fn insert(&self, key: CacheKey, sol: Arc<ShapeSolution>) -> Arc<ShapeSolution> {
        self.shard(&key)
            .lock()
            .expect("cache shard poisoned")
            .entry(key)
            .or_insert(sol)
            .clone()
    }

    /// Cached solutions across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Lifetime lookup hits (relaxed tally).
    pub(crate) fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime lookup misses (relaxed tally).
    pub(crate) fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Looks `key` up in the store; a store that is off (`None`) or a tree
/// without a key misses without touching any tally.
pub(crate) fn tier_get(
    tier: Option<&SharedCache>,
    key: Option<CacheKey>,
) -> Option<Arc<ShapeSolution>> {
    tier?.get(&key?)
}

/// First-writer-wins insert into the store; returns the solution that
/// ended up stored, so racing duplicates share one allocation (`sol`
/// itself when the store is off or the tree has no key).
pub(crate) fn tier_insert(
    tier: Option<&SharedCache>,
    key: Option<CacheKey>,
    sol: Arc<ShapeSolution>,
) -> Arc<ShapeSolution> {
    match (tier, key) {
        (Some(store), Some(key)) => store.insert(key, sol),
        _ => sol,
    }
}

/// A process-lifetime DP cache reused *across* mapping runs.
///
/// A [`CacheKey`] fingerprints a tree's blind skeleton and leaf depths
/// but deliberately not the options it was mapped under, so solutions
/// mapped with different `k` or [`Objective`] must never share a store.
/// The warm cache therefore keeps one [`SharedCache`] *segment per
/// `(k, objective)` pair*; a mapping run attached to the handle (via
/// `MapOptionsBuilder::warm_cache`) checks its segment out and both
/// reads and populates it, so the next run with the same options starts
/// warm. `split_threshold` needs no segment: trees are split *before*
/// canonicalization, so an identical canonical skeleton is an identical
/// DP problem regardless of how it was produced.
///
/// Runs only consult the handle under [`CacheMode::Shared`], and every
/// mode still produces the bit-identical circuit (replays are verbatim
/// and first-writer-wins keeps racing duplicates harmless).
///
/// Clones share the underlying store. [`WarmCache::flush`] empties every
/// segment and bumps a monotonically increasing *generation*, which
/// long-lived servers echo to clients so cache-sensitive benchmarks can
/// tell a warm answer from a cold one.
#[derive(Clone, Default)]
pub struct WarmCache {
    inner: Arc<WarmInner>,
}

#[derive(Default)]
struct WarmInner {
    segments: Mutex<HashMap<(usize, Objective), Arc<SharedCache>>>,
    generation: AtomicU64,
}

/// Entry count and lookup tallies of a [`WarmCache`], aggregated across
/// its `(k, objective)` segments since the last flush. Lookup tallies are
/// relaxed observational counters bumped at the warm lookup site; they
/// are *not* the deterministic per-run `cache.*` report counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Cached solutions (blind skeleton × depth profile).
    pub shapes: usize,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Always 0. The functional tier these counted was folded into the
    /// one store; the field stays so that callers reading it still
    /// build.
    pub fn_hits: u64,
    /// Always 0, like [`WarmStats::fn_hits`], and kept for the same
    /// reason.
    pub fn_misses: u64,
}

impl WarmStats {
    /// Hit rate in [0, 1]; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl WarmCache {
    /// An empty cache at generation 0.
    pub fn new() -> Self {
        WarmCache::default()
    }

    /// The segment for one `(k, objective)` configuration,
    /// created empty on first use.
    pub(crate) fn segment(&self, k: usize, objective: Objective) -> Arc<SharedCache> {
        self.inner
            .segments
            .lock()
            .expect("warm cache poisoned")
            .entry((k, objective))
            .or_insert_with(|| Arc::new(SharedCache::new()))
            .clone()
    }

    /// Discards every cached solution and returns the new generation.
    ///
    /// In-flight runs holding a segment finish against the old store
    /// (their results stay correct — the store never changes answers,
    /// only availability); runs attached afterwards start cold.
    pub fn flush(&self) -> u64 {
        self.inner
            .segments
            .lock()
            .expect("warm cache poisoned")
            .clear();
        self.inner.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The current generation: 0 at creation, +1 per [`WarmCache::flush`].
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Acquire)
    }

    /// Total cached solutions across all segments (an observability
    /// figure; racy under concurrent inserts).
    pub fn shapes(&self) -> usize {
        self.inner
            .segments
            .lock()
            .expect("warm cache poisoned")
            .values()
            .map(|s| s.len())
            .sum()
    }

    /// Entry count and lookup tallies, aggregated across segments.
    pub fn stats(&self) -> WarmStats {
        let mut stats = WarmStats::default();
        for s in self
            .inner
            .segments
            .lock()
            .expect("warm cache poisoned")
            .values()
        {
            stats.shapes += s.len();
            stats.hits += s.hit_count();
            stats.misses += s.miss_count();
        }
        stats
    }
}

impl fmt::Debug for WarmCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("WarmCache")
            .field("generation", &self.generation())
            .field("shapes", &stats.shapes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{DpCounters, DpScratch};

    fn dummy_solution(tree: &Tree, k: usize) -> Arc<ShapeSolution> {
        let mut scratch = DpScratch::new();
        Arc::new(
            crate::dp::map_tree_solution(tree, k, crate::dp::Objective::Area, &|_| 0, &mut scratch)
                .expect("narrow fanin"),
        )
    }

    fn two_input_tree() -> Tree {
        gate_tree(chortle_netlist::NodeOp::And, 2, false)
    }

    /// The cache key of `tree` canonicalized, with every leaf at `depth`.
    fn key_of(tree: &mut Tree, depth: u32) -> CacheKey {
        tree.canonicalize();
        CacheKey::of(tree, tree.blind_fingerprint(), &|_| depth)
    }

    /// One `op` gate over `inputs` primary inputs, the first inverted if
    /// `invert_first`.
    fn gate_tree(op: chortle_netlist::NodeOp, inputs: usize, invert_first: bool) -> Tree {
        use chortle_netlist::{Network, Signal};
        let mut net = Network::new();
        let mut fanins: Vec<Signal> = (0..inputs)
            .map(|i| Signal::new(net.add_input(format!("i{i}"))))
            .collect();
        if invert_first {
            fanins[0] = !fanins[0];
        }
        let g = net.add_gate(op, fanins);
        net.add_output("z", g.into());
        crate::tree::Forest::of(&net).trees.remove(0)
    }

    #[test]
    fn first_writer_wins() {
        let mut tree = two_input_tree();
        let key = key_of(&mut tree, 0);
        let a = dummy_solution(&tree, 4);
        let b = dummy_solution(&tree, 4);

        let shared = SharedCache::new();
        let kept = tier_insert(Some(&shared), Some(key), a.clone());
        assert!(Arc::ptr_eq(&kept, &a));
        let kept = tier_insert(Some(&shared), Some(key), b.clone());
        assert!(Arc::ptr_eq(&kept, &a), "first writer must win");
        assert!(Arc::ptr_eq(
            &tier_get(Some(&shared), Some(key)).unwrap(),
            &a
        ));

        // An absent store or key keeps nothing and misses untallied.
        assert!(Arc::ptr_eq(&tier_insert(None, Some(key), b.clone()), &b));
        assert!(Arc::ptr_eq(
            &tier_insert(Some(&shared), None, b.clone()),
            &b
        ));
        assert!(tier_get(None, Some(key)).is_none());
        assert!(tier_get(Some(&shared), None).is_none());
        assert_eq!((shared.hit_count(), shared.miss_count()), (1, 0));
    }

    #[test]
    fn depth_sequence_distinguishes_keys() {
        let mut tree = two_input_tree();
        let flat = key_of(&mut tree, 0);
        let deep = key_of(&mut tree, 3);
        assert_eq!(flat.shape, deep.shape);
        assert_ne!(flat, deep);
        // Same depths, same key — the hash is a pure function.
        assert_eq!(flat, key_of(&mut tree, 0));
    }

    #[test]
    fn keys_unite_op_and_polarity_variants_and_separate_skeletons() {
        use chortle_netlist::NodeOp;
        let key = key_of(&mut gate_tree(NodeOp::And, 2, false), 0);
        // Other operations and polarities over one skeleton share a key.
        assert_eq!(key, key_of(&mut gate_tree(NodeOp::Or, 2, false), 0));
        assert_eq!(key, key_of(&mut gate_tree(NodeOp::Or, 2, true), 0));
        // A different skeleton does not.
        assert_ne!(key, key_of(&mut gate_tree(NodeOp::And, 3, false), 0));
    }

    #[test]
    fn warm_cache_segments_by_k_and_objective() {
        let warm = WarmCache::new();
        let mut tree = two_input_tree();
        let key = key_of(&mut tree, 0);

        warm.segment(4, Objective::Area)
            .insert(key, dummy_solution(&tree, 4));
        assert_eq!(warm.shapes(), 1);
        // Different k or objective sees a different (empty) segment …
        assert!(warm.segment(5, Objective::Area).get(&key).is_none());
        assert!(warm.segment(4, Objective::Depth).get(&key).is_none());
        // … while the same configuration (via a clone of the handle) hits.
        assert!(warm.clone().segment(4, Objective::Area).get(&key).is_some());

        assert_eq!(warm.generation(), 0);
        assert_eq!(warm.flush(), 1);
        assert_eq!(warm.generation(), 1);
        assert_eq!(warm.shapes(), 0);
        assert!(warm.segment(4, Objective::Area).get(&key).is_none());
    }

    #[test]
    fn warm_cache_reports_per_tier_stats() {
        let warm = WarmCache::new();
        let mut tree = two_input_tree();
        let key = key_of(&mut tree, 0);
        let sol = dummy_solution(&tree, 4);

        let seg = warm.segment(4, Objective::Area);
        assert!(seg.get(&key).is_none()); // one miss
        seg.insert(key, sol);
        assert!(seg.get(&key).is_some()); // one hit

        let stats = warm.stats();
        assert_eq!(stats.shapes, 1);
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // The retired functional tier's tallies stay zero.
        assert_eq!((stats.fn_hits, stats.fn_misses), (0, 0));
        assert_eq!(stats.hit_rate(), 0.5);
        assert_eq!(warm.shapes(), 1);

        // Flush empties the store and resets the tallies.
        warm.flush();
        let stats = warm.stats();
        assert_eq!(stats, WarmStats::default());
    }

    #[test]
    fn tallies_ride_inside_the_solution() {
        let tree = two_input_tree();
        let mut scratch = DpScratch::new();
        scratch.counting = true;
        let sol = crate::dp::map_tree_solution(
            &tree,
            4,
            crate::dp::Objective::Area,
            &|_| 0,
            &mut scratch,
        )
        .expect("maps");
        assert!(sol.tally.divisions > 0);
        assert_eq!(sol.tally.tree_nodes, 1);
        // The solution keeps the tally; the scratch aggregate is only
        // written by the `map_tree_with` wrapper.
        assert_eq!(scratch.counters.take(), DpCounters::default());
    }
}
