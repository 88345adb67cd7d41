//! The dynamic-programming tree mapper (Sections 3.1.1–3.1.3 of the
//! paper).
//!
//! For every tree node `n` and utilization `U ∈ 2..=K` Chortle computes
//! `minmap(n, U)`: the cheapest LUT circuit for the subtree rooted at `n`
//! whose root LUT uses at most `U` inputs. The paper searches, at each
//! node, **all decompositions** (set partitions of the fanins, every
//! non-singleton block becoming an intermediate node of the same
//! operation) **and all utilization divisions** (distributions of the root
//! LUT's inputs over the blocks).
//!
//! This module explores exactly that space with a subset DP instead of
//! explicit partition enumeration: `F(S)[u]` is the cheapest way to supply
//! the fanin subset `S` using exactly `u` root-LUT inputs. Peeling off the
//! lowest-index child of `S` — either as a singleton block with some input
//! allotment `w`, or inside an intermediate-node block `g ⊆ S` consuming
//! one input — visits every partition+division combination exactly once.
//! Intermediate-node costs `minmap(nd_g, K)` for all fanin subsets `g` are
//! produced by the same recurrence in increasing-popcount order, exactly
//! as Section 3.1.3 prescribes, and cover multi-level decompositions by
//! construction.
//!
//! Costs are `(depth, LUT count)` pairs combined with `(max, +)`. The
//! paper minimizes area only; the [`Objective`] selects which component
//! leads the lexicographic comparison, giving either exact-area mapping
//! with a depth tie-break (the paper's objective, improved) or exact-depth
//! mapping with an area tie-break (the direction the later FlowMap line
//! of work took).

use chortle_netlist::NodeId;

use crate::map::MapError;
use crate::tree::{Tree, TreeChild};

/// Cost value representing "infeasible".
pub(crate) const INF: u32 = 1_000_000_000;

/// What the mapper minimizes (the secondary component breaks ties).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Minimize LUT count; break ties toward shallower circuits. This is
    /// the paper's cost function.
    #[default]
    Area,
    /// Minimize LUT depth; break ties toward fewer LUTs.
    Depth,
}

/// A `(depth, luts)` cost pair.
///
/// `depth` carries the maximum arrival depth of the wires entering the
/// mapped region (`din` in FlowMap terms); the region's own root LUT adds
/// one level when its output is consumed as a wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Cost {
    pub depth: u32,
    pub luts: u32,
}

impl Cost {
    pub(crate) const INFEASIBLE: Cost = Cost {
        depth: INF,
        luts: INF,
    };

    pub(crate) const ZERO: Cost = Cost { depth: 0, luts: 0 };

    pub(crate) fn is_infeasible(self) -> bool {
        self.luts >= INF
    }

    /// Parallel composition: LUT counts add, wire depths max.
    pub(crate) fn combine(self, other: Cost) -> Cost {
        if self.is_infeasible() || other.is_infeasible() {
            return Cost::INFEASIBLE;
        }
        Cost {
            depth: self.depth.max(other.depth),
            luts: self.luts + other.luts,
        }
    }

    /// Lexicographic comparison under the objective.
    pub(crate) fn better_than(self, other: Cost, objective: Objective) -> bool {
        match objective {
            Objective::Area => (self.luts, self.depth) < (other.luts, other.depth),
            Objective::Depth => (self.depth, self.luts) < (other.depth, other.luts),
        }
    }
}

/// A decision recorded for one `F(S)[u]` state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Choice {
    /// State is infeasible (or the empty base case).
    None,
    /// The lowest-index child of `S` forms a singleton block consuming `w`
    /// root-LUT inputs.
    Singleton {
        /// Inputs allotted to the child.
        w: u8,
    },
    /// The children in `group` form an intermediate node consuming one
    /// root-LUT input.
    Group {
        /// Bitmask (within the node's fanin set) of the block.
        group: u32,
    },
}

/// Marks a packed [`Choice::Singleton`]; groups fit in
/// [`MAX_DP_FANIN`] < 31 bits.
const PACKED_SINGLETON: u32 = 1 << 31;
const _: () = assert!(MAX_DP_FANIN < 31);

impl Choice {
    /// The choice in the 4 bytes a [`TreeDp`] stores it in: `0` for
    /// `None` (no group is empty), the group mask for `Group`, and
    /// [`PACKED_SINGLETON`] plus `w` for `Singleton`.
    fn packed(self) -> u32 {
        match self {
            Choice::None => 0,
            Choice::Singleton { w } => PACKED_SINGLETON | u32::from(w),
            Choice::Group { group } => group,
        }
    }

    /// Inverts [`Choice::packed`].
    fn unpacked(bits: u32) -> Choice {
        if bits == 0 {
            Choice::None
        } else if bits & PACKED_SINGLETON != 0 {
            Choice::Singleton { w: bits as u8 }
        } else {
            Choice::Group { group: bits }
        }
    }
}

/// One tree node's place in a [`TreeDp`]'s arenas.
#[derive(Clone, Copy, Debug)]
struct NodeSpan {
    /// Number of children.
    fanin: usize,
    /// Start of the node's `F(S)[u]` decisions in [`TreeDp::choices`].
    choices: usize,
    /// Start of the node's intermediate-node utilizations in
    /// [`TreeDp::ndbest_u`].
    groups: usize,
}

/// One node's decision tables while [`run_dp`] fills them: views into
/// the [`TreeDp`] arenas.
struct NodeRec<'a> {
    /// [`Choice::packed`] decision per `F(S)[u]` state, laid out
    /// `S * (k+1) + u`.
    fchoice: &'a mut [u32],
    /// Chosen exact root utilization per intermediate node (fanin
    /// subset `g`, `|g| ≥ 2`).
    ndbest_u: &'a mut [u8],
    /// `minmap(n, u)` for `u ∈ 0..=K`.
    node_cost: &'a mut [Cost],
    /// The exact utilization realizing `node_cost[u]`.
    node_best_u: &'a mut [u8],
}

/// Reusable scratch buffers for the per-node subset DP.
///
/// The recurrence fills an `F(S)[u]` cost table of `2^f · (K+1)` entries
/// and an intermediate-node table of `2^f` entries per node, but only the
/// recorded *choices* outlive the node (see [`TreeDp`]). Allocating the
/// cost tables once per tree walk — sized to the widest node seen so far —
/// removes the dominant allocation traffic of the mapper's hot loop.
/// Buffers grow monotonically and are re-initialized per node by the
/// kernel itself (row 0 plus one reset slot per subset), so reuse is
/// exact: the kernel never reads a stale entry.
#[derive(Default)]
pub(crate) struct DpScratch {
    /// `fcost[S * (k+1) + u]` — cheapest cost of supplying child subset
    /// `S` with exactly `u` root-LUT inputs (excluding the root LUT).
    fcost: Vec<Cost>,
    /// `ndcost[g]` — cost of the best intermediate node over subset `g`.
    ndcost: Vec<Cost>,
    /// Hoisted child-cost table: `ccost[i * (k+1) + w]` = cost of child
    /// `i` consuming exactly `w` root-LUT inputs. Computed once per node
    /// instead of per innermost subset-loop iteration.
    ccost: Vec<Cost>,
    /// `wlo[i]` — smallest feasible allotment `w ≥ 2` for child `i`
    /// (`k+1` when no such `w` exists, e.g. for leaves). Feasibility of
    /// `w ≥ 2` is monotone in `w` (node costs are running minima), so the
    /// singleton-allotment loop scans `{1} ∪ wlo..=u` and skips the
    /// infeasible middle exactly.
    wlo: Vec<u8>,
    /// `ncost[n * (k+1) + u]` — `minmap(n, u)` per tree node: where
    /// [`run_dp`] writes each node's row and its parent reads it back.
    /// The full kernel copies the row into [`TreeDp::node_cost`]; the
    /// cost-only kernel reads the root's row and keeps nothing else.
    ncost: Vec<Cost>,
    /// Deterministic kernel work counters, accumulated across every tree
    /// mapped through this scratch (see [`DpCounters`]).
    pub(crate) counters: DpCounters,
    /// Whether the kernels tally [`DpCounters`] at all. Off by default so
    /// an unobserved mapping (disabled telemetry, or the bare
    /// [`TreeMapper`](crate::TreeMapper) API) pays nothing in the hot
    /// loop; the mapping drivers switch it on when a sink is attached.
    pub(crate) counting: bool,
}

/// Work counters of the subset-DP kernels.
///
/// Every field is a **pure function of the mapped trees** (plus `K` and
/// the objective): totals are bit-identical for any worker count or
/// mapping order, which `tests/telemetry.rs` asserts. In particular the
/// scratch-arena accounting is kept against a *tree-local* high-water
/// mark — a "hit" is a node that ran entirely in capacity an earlier
/// node of the same tree already provisioned — rather than against the
/// physical arena, whose growth history depends on which worker mapped
/// which tree first.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct DpCounters {
    /// Utilization divisions enumerated: singleton-block allotments
    /// `(child, w)` evaluated against a residual `F(S \ i)[u - w]` state
    /// (Section 3.1.2's division search, incl. the `w = 1` wire case).
    pub divisions: u64,
    /// Intermediate-node blocks examined by the submask walks
    /// (Section 3.1.3's decomposition search).
    pub group_blocks: u64,
    /// Submask walks skipped entirely by the `nd_feasible == 0` prune.
    pub pruned_walks: u64,
    /// Tree nodes pushed through a kernel.
    pub tree_nodes: u64,
    /// Nodes whose DP tables fit the tree-local high-water capacity.
    pub scratch_hits: u64,
    /// Nodes that raised the tree-local high-water capacity.
    pub scratch_grows: u64,
}

impl DpCounters {
    /// Adds `other` into `self` field by field.
    pub(crate) fn add(&mut self, other: &DpCounters) {
        self.divisions += other.divisions;
        self.group_blocks += other.group_blocks;
        self.pruned_walks += other.pruned_walks;
        self.tree_nodes += other.tree_nodes;
        self.scratch_hits += other.scratch_hits;
        self.scratch_grows += other.scratch_grows;
    }

    /// Returns the accumulated counts, resetting `self` to zero.
    pub(crate) fn take(&mut self) -> DpCounters {
        std::mem::take(self)
    }

    /// Tallies one subset row of the recurrence — all `u ∈ 2..=K` at once,
    /// in closed form, so the counters cost one call per subset rather
    /// than work inside the hot `u` loop. Equivalent to summing, per
    /// `u`, one division row of `1 + max(0, u + 1 - wlo)` singleton
    /// allotments plus either a full submask walk (`2^|rest| - 1` blocks)
    /// or one pruned walk; `tests` pin the equivalence.
    fn tally_set(&mut self, k: usize, wlo: usize, rest_base: u32, nd_feasible: bool) {
        let rows = (k - 1) as u64;
        self.divisions += rows;
        // Allotment terms: sum of (u + 1 - wlo) over the u with u ≥ wlo-1.
        let lo = wlo.saturating_sub(1).max(2);
        if lo <= k {
            let n = (k - lo + 1) as u64;
            let first = (lo + 1 - wlo) as u64;
            let last = (k + 1 - wlo) as u64;
            self.divisions += n * (first + last) / 2;
        }
        if nd_feasible {
            self.group_blocks += rows * ((1u64 << rest_base.count_ones()) - 1);
        } else if rest_base != 0 {
            self.pruned_walks += rows;
        }
    }
}

impl DpScratch {
    pub(crate) fn new() -> Self {
        DpScratch::default()
    }

    /// Ensures capacity for a node with `f` children at LUT size `k`.
    fn reserve(&mut self, f: usize, k: usize) {
        let sets = 1usize << f;
        let states = sets * (k + 1);
        if self.fcost.len() < states {
            self.fcost.resize(states, Cost::INFEASIBLE);
        }
        if self.ndcost.len() < sets {
            self.ndcost.resize(sets, Cost::INFEASIBLE);
        }
        let ctable = f * (k + 1);
        if self.ccost.len() < ctable {
            self.ccost.resize(ctable, Cost::INFEASIBLE);
        }
        if self.wlo.len() < f {
            self.wlo.resize(f, 0);
        }
    }
}

/// The DP result for a whole tree.
///
/// Only the *decisions* — which cover reconstruction replays — and each
/// node's `minmap` row outlive the kernel. They sit in flat arenas, one
/// per kind of table, and each node reaches its blocks through a
/// [`NodeSpan`], so a solution costs a handful of allocations whatever
/// the tree's size.
#[derive(Debug)]
pub(crate) struct TreeDp {
    /// The LUT input limit.
    pub k: usize,
    /// Per tree node, indexed like [`Tree::nodes`].
    spans: Vec<NodeSpan>,
    /// Every node's `F(S)[u]` decisions ([`Choice::packed`]), a block
    /// of `2^fanin · (K+1)` per node.
    choices: Vec<u32>,
    /// Every node's intermediate-node utilizations, a block of
    /// `2^fanin` per node.
    ndbest_u: Vec<u8>,
    /// `node_cost[n·(K+1) + u]` = cost of `minmap(n, u)` (root
    /// utilization ≤ u): `luts` includes the root LUT, `depth` is the
    /// region's `din`. Entries 0 and 1 are infeasible.
    node_cost: Vec<Cost>,
    /// The exact utilization realizing each `node_cost` entry.
    node_best_u: Vec<u8>,
}

impl TreeDp {
    /// Empty tables for `tree` at LUT size `k`, with the arenas sized
    /// for every node the kernel can map.
    fn for_tree(tree: &Tree, k: usize) -> TreeDp {
        let sets: usize = tree
            .nodes
            .iter()
            .map(|n| n.children.len())
            .filter(|&f| f <= MAX_DP_FANIN)
            .map(|f| 1usize << f)
            .sum();
        let rows = tree.nodes.len() * (k + 1);
        TreeDp {
            k,
            spans: Vec::with_capacity(tree.nodes.len()),
            choices: Vec::with_capacity(sets * (k + 1)),
            ndbest_u: Vec::with_capacity(sets),
            node_cost: Vec::with_capacity(rows),
            node_best_u: Vec::with_capacity(rows),
        }
    }

    /// Number of tree nodes mapped.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Number of children of tree node `node`.
    pub fn fanin(&self, node: usize) -> usize {
        self.spans[node].fanin
    }

    /// The decision of `F(set)[u]` at tree node `node`.
    pub fn fchoice_at(&self, node: usize, set: u32, u: usize) -> Choice {
        Choice::unpacked(self.choices[self.spans[node].choices + set as usize * (self.k + 1) + u])
    }

    /// The exact root utilization of the intermediate node over `group`
    /// at tree node `node`.
    pub fn ndbest_u(&self, node: usize, group: u32) -> u8 {
        self.ndbest_u[self.spans[node].groups + group as usize]
    }

    /// The exact utilization realizing `minmap(node, w)`.
    pub fn node_best_u(&self, node: usize, w: usize) -> u8 {
        self.node_best_u[node * (self.k + 1) + w]
    }

    /// `minmap(node, u)` for `u ∈ 0..=K`.
    #[cfg(test)]
    pub fn node_cost(&self, node: usize) -> &[Cost] {
        let row = node * (self.k + 1);
        &self.node_cost[row..=row + self.k]
    }

    /// LUT count of the best mapping of the whole tree
    /// (`minmap(root, K)`).
    pub fn tree_cost(&self, tree: &Tree) -> u32 {
        debug_assert_eq!(self.spans.len(), tree.nodes.len());
        self.root_cost().luts
    }

    /// Output depth of the tree's root LUT (entering-wire depth plus
    /// one).
    pub fn tree_depth(&self, tree: &Tree) -> u32 {
        debug_assert_eq!(self.spans.len(), tree.nodes.len());
        self.root_depth()
    }

    /// `minmap(root, K)` — the whole-tree cost summary.
    pub fn root_cost(&self) -> Cost {
        self.node_cost[self.node_cost.len() - 1]
    }

    /// Output depth of the root LUT without needing the tree (the root
    /// is always the last node).
    pub fn root_depth(&self) -> u32 {
        let c = self.root_cost();
        if c.is_infeasible() {
            INF
        } else {
            c.depth + 1
        }
    }
}

/// The complete, replayable result of mapping one tree *shape*.
///
/// Everything the rest of the pipeline ever reads about a mapped tree:
/// the per-node `minmap` tables with their recorded decisions (`dp`),
/// and the kernel's deterministic work tally (`tally` — closed-form per
/// shape, so it replays exactly). The DP is a pure function of the
/// canonical tree shape plus the leaf arrival-depth sequence, so a
/// `ShapeSolution` computed for one tree can be shared (behind an `Arc`)
/// by every other tree with the same cache key: cover reconstruction
/// reads only node indices, child masks and utilizations from `dp`,
/// while leaf *identities* come from the concrete tree being emitted.
#[derive(Debug)]
pub(crate) struct ShapeSolution {
    /// The per-node DP tables and decisions.
    pub dp: TreeDp,
    /// The kernel work tally of mapping this shape once (zeroed when the
    /// scratch's `counting` flag was off).
    pub tally: DpCounters,
}

/// The widest node fanin the `u32` subset DP supports (the paper splits
/// above fanin 10; [`Tree::split_wide_nodes`] enforces the bound).
pub(crate) const MAX_DP_FANIN: usize = 25;

/// Runs the Chortle DP over a tree, reusing `scratch` across nodes (and,
/// at the caller's discretion, across trees); flushes the kernel tally
/// into `scratch.counters`. Thin wrapper over [`map_tree_solution`] for
/// callers that want only the DP tables — today that is the unit tests;
/// the mapping drivers work with whole [`ShapeSolution`]s.
///
/// # Errors
///
/// Returns [`MapError::FaninTooWide`] like [`map_tree_solution`].
#[cfg(test)]
pub(crate) fn map_tree_with(
    tree: &Tree,
    k: usize,
    objective: Objective,
    leaf_depth: &dyn Fn(NodeId) -> u32,
    scratch: &mut DpScratch,
) -> Result<TreeDp, MapError> {
    let sol = map_tree_solution(tree, k, objective, leaf_depth, scratch)?;
    if scratch.counting {
        scratch.counters.add(&sol.tally);
    }
    Ok(sol.dp)
}

/// Runs the Chortle DP over a tree and packages the result as a
/// replayable [`ShapeSolution`]: [`run_dp`] with the full decision
/// recorder.
///
/// `leaf_depth` supplies the arrival depth (in LUT levels) of every leaf
/// signal; pass `|_| 0` for pure-area mapping of an isolated tree.
///
/// The kernel's work tally is returned *inside* the solution and is
/// **not** folded into `scratch.counters`: the mapping drivers account
/// tallies per tree (in tree order) so that cached replays and racing
/// duplicate computations tally exactly like the uncached mapper.
///
/// # Errors
///
/// Returns [`MapError::FaninTooWide`] if any tree node has more than
/// [`MAX_DP_FANIN`] children (run [`Tree::split_wide_nodes`] first).
///
/// # Panics
///
/// Panics if `k < 2` ([`crate::MapOptions`] validates this upstream).
pub(crate) fn map_tree_solution(
    tree: &Tree,
    k: usize,
    objective: Objective,
    leaf_depth: &dyn Fn(NodeId) -> u32,
    scratch: &mut DpScratch,
) -> Result<ShapeSolution, MapError> {
    let mut dp = TreeDp::for_tree(tree, k);
    let tally = run_dp(tree, k, objective, leaf_depth, scratch, &mut dp)?;
    Ok(ShapeSolution { dp, tally })
}

/// The cost-only kernel: [`run_dp`] with the no-op recorder, which
/// monomorphizes away every decision write, so a run performs **no
/// allocation at all** once the scratch arena has grown to the tree's
/// size. Cost queries ([`crate::tree_lut_cost`], the duplication
/// search's probe mappings) dominate some workloads; this path serves
/// them without paying for reconstruction state nobody reads. Unlike
/// [`map_tree_solution`], the tally is folded into `scratch.counters`.
///
/// Returns `minmap(root, K)` — the whole-tree cost; `luts` is the LUT
/// count and `depth` the root LUT's entering-wire depth.
///
/// # Errors
///
/// Returns [`MapError::FaninTooWide`] like [`map_tree_solution`].
pub(crate) fn tree_cost_with(
    tree: &Tree,
    k: usize,
    objective: Objective,
    leaf_depth: &dyn Fn(NodeId) -> u32,
    scratch: &mut DpScratch,
) -> Result<Cost, MapError> {
    let tally = run_dp(tree, k, objective, leaf_depth, scratch, &mut ())?;
    if scratch.counting {
        scratch.counters.add(&tally);
    }
    Ok(scratch.ncost[tree.root_index() * (k + 1) + k])
}

/// What a DP pass keeps beyond the `minmap` rows, which always land in
/// [`DpScratch::ncost`]: a [`TreeDp`] records every decision cover
/// reconstruction replays; `()` records nothing.
trait Recorder {
    /// Opens the next tree node (fanin `fanin`) and returns its decision
    /// tables, or `None` when decisions are not kept.
    fn open_node(&mut self, fanin: usize, k: usize) -> Option<NodeRec<'_>>;
}

impl Recorder for () {
    #[inline(always)]
    fn open_node(&mut self, _: usize, _: usize) -> Option<NodeRec<'_>> {
        None
    }
}

impl Recorder for TreeDp {
    fn open_node(&mut self, fanin: usize, k: usize) -> Option<NodeRec<'_>> {
        let sets = 1usize << fanin;
        let span = NodeSpan {
            fanin,
            choices: self.choices.len(),
            groups: self.ndbest_u.len(),
        };
        self.spans.push(span);
        self.choices.resize(span.choices + sets * (k + 1), 0);
        self.ndbest_u.resize(span.groups + sets, 0);
        let row = self.node_cost.len();
        self.node_cost.resize(row + k + 1, Cost::INFEASIBLE);
        self.node_best_u.resize(row + k + 1, 0);
        Some(NodeRec {
            fchoice: &mut self.choices[span.choices..],
            ndbest_u: &mut self.ndbest_u[span.groups..],
            node_cost: &mut self.node_cost[row..],
            node_best_u: &mut self.node_best_u[row..],
        })
    }
}

/// The Chortle recurrence over a whole tree, written once for both
/// kernels. Nodes are visited in [`Tree::nodes`] order (children before
/// parents); node `n`'s `minmap(n, u)` row lands in
/// `scratch.ncost[n * (k+1) ..]`, where its parent reads it, and every
/// decision goes to the node tables `rec` opens. Returns the tree-local work tally (zero when
/// `scratch.counting` is off).
fn run_dp<R: Recorder>(
    tree: &Tree,
    k: usize,
    objective: Objective,
    leaf_depth: &dyn Fn(NodeId) -> u32,
    scratch: &mut DpScratch,
    rec: &mut R,
) -> Result<DpCounters, MapError> {
    assert!(k >= 2, "lookup tables must have at least two inputs");
    let nstates = tree.nodes.len() * (k + 1);
    if scratch.ncost.len() < nstates {
        scratch.ncost.resize(nstates, Cost::INFEASIBLE);
    }
    // Tree-local tallies, so the totals are scheduling-independent (see
    // `DpCounters`). Skipped wholesale unless a telemetry sink asked for
    // them.
    let counting = scratch.counting;
    let mut tally = DpCounters::default();
    let mut hwm = 0usize;
    for (ni, node) in tree.nodes.iter().enumerate() {
        let f = node.children.len();
        if f > MAX_DP_FANIN {
            return Err(MapError::FaninTooWide {
                fanin: f,
                limit: MAX_DP_FANIN,
            });
        }
        scratch.reserve(f, k);
        if counting {
            tally.tree_nodes += 1;
            let needed = (1usize << f) * (k + 1);
            if needed <= hwm {
                tally.scratch_hits += 1;
            } else {
                tally.scratch_grows += 1;
                hwm = needed;
            }
        }
        let mut dp = rec.open_node(f, k);
        let DpScratch {
            fcost,
            ndcost,
            ccost,
            wlo: wlos,
            ncost,
            ..
        } = &mut *scratch;
        let full: u32 = (1u32 << f) - 1;
        // Row 0: F(∅)[0] = 0, F(∅)[u > 0] infeasible.
        fcost[0] = Cost::ZERO;
        fcost[1..=k].fill(Cost::INFEASIBLE);

        // Hoisted child-cost table: cost of child `i` consuming exactly
        // `w` root-LUT inputs, computed once per node instead of inside
        // the innermost subset loop. `wlo[i]` additionally records the
        // smallest feasible `w ≥ 2` (node costs are running minima over
        // utilization, so feasibility is monotone in `w`).
        for (i, child) in node.children.iter().enumerate() {
            let row = i * (k + 1);
            ccost[row] = Cost::INFEASIBLE;
            match *child {
                TreeChild::Leaf(sig) => {
                    ccost[row + 1] = Cost {
                        depth: leaf_depth(sig.node()),
                        luts: 0,
                    };
                    ccost[row + 2..=row + k].fill(Cost::INFEASIBLE);
                    wlos[i] = (k + 1) as u8;
                }
                TreeChild::Node { index, .. } => {
                    let child_row = index * (k + 1);
                    // w == 1: the child keeps its own root LUT and feeds
                    // one wire: minmap(child, K), arriving one level up.
                    let c = ncost[child_row + k];
                    ccost[row + 1] = if c.is_infeasible() {
                        Cost::INFEASIBLE
                    } else {
                        Cost {
                            depth: c.depth + 1,
                            luts: c.luts,
                        }
                    };
                    // w ≥ 2: the child's root LUT (utilization ≤ w) is
                    // absorbed into the constructed root LUT: its entering
                    // wires become this region's wires.
                    let mut wlo = (k + 1) as u8;
                    for w in (2..=k).rev() {
                        let c = ncost[child_row + w];
                        ccost[row + w] = if c.is_infeasible() {
                            Cost::INFEASIBLE
                        } else {
                            wlo = w as u8;
                            Cost {
                                depth: c.depth,
                                luts: c.luts - 1,
                            }
                        };
                    }
                    wlos[i] = wlo;
                }
            }
        }

        // Number of feasible intermediate-node entries recorded so far
        // for this node; while zero, every submask walk would find only
        // infeasible blocks and is skipped exactly.
        let mut nd_feasible = 0usize;

        for set in 1..=full {
            let i = set.trailing_zeros() as usize;
            let ibit = 1u32 << i;
            let rest_base = set & !ibit;
            let row = set as usize * (k + 1);
            let crow = i * (k + 1);
            let wlo = wlos[i] as usize;
            // Reset the two slots of this row the scan below may read
            // before writing (u = 0, and the own-set intermediate node).
            fcost[row] = Cost::INFEASIBLE;
            ndcost[set as usize] = Cost::INFEASIBLE;
            // Closed-form work tallies — pure functions of the tree shape
            // (nd_feasible is constant over the whole u loop), so they
            // cost nothing inside the loops below and stay identical
            // across worker counts.
            if counting {
                tally.tally_set(k, wlo, rest_base, nd_feasible > 0);
            }
            // u ≥ 2 first (they never reference a feasible ndcost[set]).
            for u in (2..=k).rev() {
                let mut best = Cost::INFEASIBLE;
                let mut best_choice = Choice::None;
                // Singleton block for child i with allotment w: w = 1,
                // then the feasible tail wlo..=u (see DpScratch::wlo).
                let c1 = ccost[crow + 1];
                if !c1.is_infeasible() {
                    let rest = fcost[rest_base as usize * (k + 1) + (u - 1)];
                    let total = c1.combine(rest);
                    if total.better_than(best, objective) {
                        best = total;
                        best_choice = Choice::Singleton { w: 1 };
                    }
                }
                for w in wlo..=u {
                    let c = ccost[crow + w];
                    let rest = fcost[rest_base as usize * (k + 1) + (u - w)];
                    let total = c.combine(rest);
                    if total.better_than(best, objective) {
                        best = total;
                        best_choice = Choice::Singleton { w: w as u8 };
                    }
                }
                // Intermediate-node block g ∋ i, |g| ≥ 2, consuming one
                // input. g == set contributes nothing (its rest would
                // need u-1 ≥ 1 inputs from the empty set, and its own
                // ndcost slot was reset above).
                if nd_feasible > 0 {
                    let mut g = rest_base;
                    // Enumerate submasks of rest_base; the block is
                    // g | ibit.
                    while g != 0 {
                        let block = g | ibit;
                        let ndc = ndcost[block as usize];
                        if !ndc.is_infeasible() {
                            let rest_set = set & !block;
                            let rest = fcost[rest_set as usize * (k + 1) + (u - 1)];
                            // The intermediate node feeds a wire one
                            // level up.
                            let wire = Cost {
                                depth: ndc.depth + 1,
                                luts: ndc.luts,
                            };
                            let total = wire.combine(rest);
                            if total.better_than(best, objective) {
                                best = total;
                                best_choice = Choice::Group { group: block };
                            }
                        }
                        g = (g - 1) & rest_base;
                    }
                }
                fcost[row + u] = best;
                if let Some(dp) = dp.as_mut() {
                    dp.fchoice[row + u] = best_choice.packed();
                }
            }
            // Intermediate node over `set` (needs |set| ≥ 2): its root LUT
            // uses the best exact utilization in 2..=K.
            if set.count_ones() >= 2 {
                let mut best = Cost::INFEASIBLE;
                let mut best_u = 0u8;
                for u in 2..=k {
                    let c = fcost[row + u];
                    if c.is_infeasible() {
                        continue;
                    }
                    let with_root = Cost {
                        depth: c.depth,
                        luts: c.luts + 1,
                    };
                    if with_root.better_than(best, objective) {
                        best = with_root;
                        best_u = u as u8;
                    }
                }
                ndcost[set as usize] = best;
                if let Some(dp) = dp.as_mut() {
                    dp.ndbest_u[set as usize] = best_u;
                }
                if !best.is_infeasible() {
                    nd_feasible += 1;
                }
            }
            // u == 1: the whole subset feeds one input — either a lone
            // child wire or one intermediate node covering everything.
            let (c1, ch1) = if set.count_ones() == 1 {
                (ccost[crow + 1], Choice::Singleton { w: 1 })
            } else {
                let ndc = ndcost[set as usize];
                let wire = if ndc.is_infeasible() {
                    Cost::INFEASIBLE
                } else {
                    Cost {
                        depth: ndc.depth + 1,
                        luts: ndc.luts,
                    }
                };
                (wire, Choice::Group { group: set })
            };
            fcost[row + 1] = c1;
            if let Some(dp) = dp.as_mut() {
                dp.fchoice[row + 1] = if c1.is_infeasible() {
                    Choice::None
                } else {
                    ch1
                }
                .packed();
            }
        }

        // minmap(n, u): root LUT + best exact utilization ≤ u. Entries 0
        // and 1 are infeasible.
        let full_row = full as usize * (k + 1);
        let nrow = ni * (k + 1);
        ncost[nrow..nrow + 2].fill(Cost::INFEASIBLE);
        let mut running = Cost::INFEASIBLE;
        let mut running_u = 0u8;
        for u in 2..=k {
            let c = fcost[full_row + u];
            if !c.is_infeasible() {
                let with_root = Cost {
                    depth: c.depth,
                    luts: c.luts + 1,
                };
                if with_root.better_than(running, objective) {
                    running = with_root;
                    running_u = u as u8;
                }
            }
            ncost[nrow + u] = running;
            if let Some(dp) = dp.as_mut() {
                dp.node_best_u[u] = running_u;
            }
        }
        if let Some(dp) = dp {
            dp.node_cost.copy_from_slice(&ncost[nrow..=nrow + k]);
        }
    }
    Ok(tally)
}

/// Area-objective mapping with zero leaf depths (the paper's setting),
/// through the full kernel. Production cost queries go through the
/// allocation-free [`tree_cost_with`]; this wrapper serves the unit
/// tests.
///
/// # Panics
///
/// Panics if a node's fanin exceeds [`MAX_DP_FANIN`] (split first).
#[cfg(test)]
pub(crate) fn map_tree(tree: &Tree, k: usize) -> TreeDp {
    let mut scratch = DpScratch::new();
    map_tree_with(tree, k, Objective::Area, &|_| 0, &mut scratch)
        .expect("fanin within the subset-DP bound; split wide nodes first")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Forest;
    use chortle_netlist::{Network, NodeOp, Signal};

    fn single_tree(net: &Network) -> Tree {
        let forest = Forest::of(net);
        assert_eq!(forest.trees.len(), 1);
        forest.trees.into_iter().next().expect("one tree")
    }

    /// A random multi-level fanout-free tree, drawn like the property
    /// suite's `random_tree_network`: gates of 2..=`max_arity` fanins
    /// taken from a shrinking pool of inputs and earlier gates, a quarter
    /// of the edges inverted.
    fn random_tree(seed: u64, leaves: usize, max_arity: usize) -> Tree {
        let mut rng = chortle_netlist::SplitMix64::new(seed);
        let mut net = Network::new();
        let mut pool: Vec<Signal> = (0..leaves)
            .map(|i| Signal::new(net.add_input(format!("i{i}"))))
            .collect();
        while pool.len() > 1 {
            let take = rng.next_range(2, (max_arity + 1).min(pool.len() + 1));
            let mut fanins = Vec::with_capacity(take);
            for _ in 0..take {
                let mut s = pool.swap_remove(rng.choose_index(&pool));
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
        single_tree(&net)
    }

    /// Multi-level inputs for the kernel-agreement tests.
    fn random_trees() -> Vec<Tree> {
        let mut rng = chortle_netlist::SplitMix64::new(0xd9_0001);
        (0..24)
            .map(|_| {
                let leaves = rng.next_range(3, 11);
                random_tree(rng.next_u64(), leaves, 5)
            })
            .collect()
    }

    fn wide_gate(fanin: usize, op: NodeOp) -> Tree {
        let mut net = Network::new();
        let inputs: Vec<_> = (0..fanin).map(|i| net.add_input(format!("i{i}"))).collect();
        let g = net.add_gate(op, inputs.iter().map(|&i| Signal::new(i)).collect());
        net.add_output("z", g.into());
        single_tree(&net)
    }

    #[test]
    fn two_input_gate_is_one_lut() {
        let tree = wide_gate(2, NodeOp::And);
        for k in 2..=6 {
            let dp = map_tree(&tree, k);
            assert_eq!(dp.tree_cost(&tree), 1, "k={k}");
            assert_eq!(dp.tree_depth(&tree), 1, "k={k}");
        }
    }

    #[test]
    fn wide_and_lut_counts_match_ceiling_formula() {
        // A single f-input AND mapped into K-LUTs needs exactly
        // ceil((f-1)/(K-1)) LUTs (classic tree-covering bound).
        for f in 2..=10usize {
            for k in 2..=6usize {
                let tree = wide_gate(f, NodeOp::And);
                let dp = map_tree(&tree, k);
                let expect = (f - 1).div_ceil(k - 1) as u32;
                assert_eq!(dp.tree_cost(&tree), expect, "f={f} k={k}");
            }
        }
    }

    #[test]
    fn two_level_tree_k3_example() {
        // z = (a AND b) OR (c AND d): with K=3 the best is 2 LUTs
        // (one AND absorbed into the root, the other kept).
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let g1 = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        let g2 = net.add_gate(NodeOp::And, vec![c.into(), d.into()]);
        let z = net.add_gate(NodeOp::Or, vec![g1.into(), g2.into()]);
        net.add_output("z", z.into());
        let tree = single_tree(&net);

        assert_eq!(map_tree(&tree, 2).tree_cost(&tree), 3);
        assert_eq!(map_tree(&tree, 3).tree_cost(&tree), 2);
        assert_eq!(map_tree(&tree, 4).tree_cost(&tree), 1);
    }

    #[test]
    fn choices_survive_packing() {
        let full = (1u32 << MAX_DP_FANIN) - 1;
        for c in [
            Choice::None,
            Choice::Singleton { w: 1 },
            Choice::Singleton { w: 8 },
            Choice::Group { group: 0b11 },
            Choice::Group { group: full },
        ] {
            assert_eq!(Choice::unpacked(c.packed()), c);
        }
    }

    #[test]
    fn monotone_in_utilization() {
        // cost(minmap(n, U)) >= cost(minmap(n, K)) — the paper's
        // inequality, by construction of the running minimum.
        let tree = wide_gate(7, NodeOp::Or);
        let dp = map_tree(&tree, 5);
        let root = dp.node_cost(tree.root_index());
        for u in 2..5 {
            assert!(root[u].luts >= root[u + 1].luts);
        }
    }

    #[test]
    fn decomposition_beats_naive_chain() {
        // 5-input gate, K=4: one intermediate pair + 4 root inputs = 2
        // LUTs; a naive left-to-right chain would also reach 2, but K=5
        // must give 1.
        let tree = wide_gate(5, NodeOp::And);
        assert_eq!(map_tree(&tree, 4).tree_cost(&tree), 2);
        assert_eq!(map_tree(&tree, 5).tree_cost(&tree), 1);
    }

    #[test]
    fn unbalanced_tree_uses_absorption() {
        // z = OR(AND(a, b, c), d) with K=4: the root LUT covers both
        // nodes with leaves a,b,c,d — exactly one LUT.
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let g = net.add_gate(NodeOp::And, vec![a.into(), b.into(), c.into()]);
        let z = net.add_gate(NodeOp::Or, vec![g.into(), d.into()]);
        net.add_output("z", z.into());
        let tree = single_tree(&net);
        assert_eq!(map_tree(&tree, 4).tree_cost(&tree), 1);
        assert_eq!(map_tree(&tree, 3).tree_cost(&tree), 2);
        assert_eq!(map_tree(&tree, 2).tree_cost(&tree), 3);
    }

    #[test]
    fn depth_objective_never_deeper_than_area() {
        for f in 3..=10usize {
            for k in 2..=5usize {
                let tree = wide_gate(f, NodeOp::And);
                let mut scratch = DpScratch::new();
                let area = map_tree_with(&tree, k, Objective::Area, &|_| 0, &mut scratch).unwrap();
                let depth =
                    map_tree_with(&tree, k, Objective::Depth, &|_| 0, &mut scratch).unwrap();
                assert!(
                    depth.tree_depth(&tree) <= area.tree_depth(&tree),
                    "f={f} k={k}"
                );
                assert!(
                    depth.tree_cost(&tree) >= area.tree_cost(&tree),
                    "depth mode cannot beat area mode on LUTs (f={f} k={k})"
                );
            }
        }
    }

    #[test]
    fn depth_objective_balances_wide_gates() {
        // A 9-input AND at K=2: area optimal is 8 LUTs at any shape; the
        // depth objective must reach the balanced-tree depth ceil(log2 9)
        // = 4.
        let tree = wide_gate(9, NodeOp::And);
        let dp = map_tree_with(&tree, 2, Objective::Depth, &|_| 0, &mut DpScratch::new()).unwrap();
        assert_eq!(dp.tree_cost(&tree), 8);
        assert_eq!(dp.tree_depth(&tree), 4);
    }

    #[test]
    fn cost_only_kernel_matches_full_kernel() {
        // `tree_cost_with` must agree with `map_tree_with` everywhere —
        // including under the depth objective and nonzero leaf depths.
        let mut shared = DpScratch::new();
        for f in 2..=10usize {
            for k in 2..=6usize {
                let tree = wide_gate(f, NodeOp::And);
                let depths = |id: NodeId| (id.index() % 3) as u32;
                for objective in [Objective::Area, Objective::Depth] {
                    let full =
                        map_tree_with(&tree, k, objective, &depths, &mut DpScratch::new()).unwrap();
                    let cost = tree_cost_with(&tree, k, objective, &depths, &mut shared).unwrap();
                    assert_eq!(
                        cost,
                        full.node_cost(tree.root_index())[k],
                        "f={f} k={k} {objective:?}"
                    );
                }
            }
        }
        // Multi-level trees: child costs flow through `ncost` rows.
        for (t, tree) in random_trees().iter().enumerate() {
            let depths = |id: NodeId| (id.index() % 4) as u32;
            for k in 2..=6usize {
                for objective in [Objective::Area, Objective::Depth] {
                    let full =
                        map_tree_with(tree, k, objective, &depths, &mut DpScratch::new()).unwrap();
                    let cost = tree_cost_with(tree, k, objective, &depths, &mut shared).unwrap();
                    for n in 0..full.len() {
                        assert_eq!(
                            full.node_cost(n),
                            &shared.ncost[n * (k + 1)..=n * (k + 1) + k],
                            "tree {t} node {n} k={k} {objective:?}"
                        );
                    }
                    assert_eq!(
                        cost,
                        full.node_cost(tree.root_index())[k],
                        "tree {t} k={k} {objective:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn over_wide_node_is_a_typed_error() {
        let tree = wide_gate(MAX_DP_FANIN + 1, NodeOp::And);
        let err =
            map_tree_with(&tree, 4, Objective::Area, &|_| 0, &mut DpScratch::new()).unwrap_err();
        assert_eq!(
            err,
            MapError::FaninTooWide {
                fanin: MAX_DP_FANIN + 1,
                limit: MAX_DP_FANIN
            }
        );
    }

    #[test]
    fn scratch_reuse_across_trees_is_exact() {
        // Mapping a wide tree dirties the scratch arena; a narrower tree
        // mapped next must cost the same as with a fresh arena.
        let mut shared = DpScratch::new();
        let wide = wide_gate(10, NodeOp::And);
        let _ = map_tree_with(&wide, 5, Objective::Area, &|_| 0, &mut shared).unwrap();
        for f in 2..=9usize {
            for k in 2..=5usize {
                let tree = wide_gate(f, NodeOp::Or);
                let reused = map_tree_with(&tree, k, Objective::Area, &|_| 0, &mut shared).unwrap();
                let fresh = map_tree_with(&tree, k, Objective::Area, &|_| 0, &mut DpScratch::new())
                    .unwrap();
                assert_eq!(
                    reused.tree_cost(&tree),
                    fresh.tree_cost(&tree),
                    "f={f} k={k}"
                );
                assert_eq!(
                    reused.tree_depth(&tree),
                    fresh.tree_depth(&tree),
                    "f={f} k={k}"
                );
            }
        }
    }

    #[test]
    fn tally_set_matches_the_per_iteration_sum() {
        // The closed form must equal the literal per-u tally it replaced.
        for k in 2..=8usize {
            for wlo in 2..=k + 1 {
                for (rest_base, ndf) in [(0u32, false), (0b101, false), (0b101, true)] {
                    let mut closed = DpCounters::default();
                    closed.tally_set(k, wlo, rest_base, ndf);
                    let mut naive = DpCounters::default();
                    for u in 2..=k {
                        naive.divisions += 1 + (u + 1).saturating_sub(wlo) as u64;
                        if ndf {
                            naive.group_blocks += (1u64 << rest_base.count_ones()) - 1;
                        } else if rest_base != 0 {
                            naive.pruned_walks += 1;
                        }
                    }
                    assert_eq!(closed, naive, "k={k} wlo={wlo} rest={rest_base:b}");
                }
            }
        }
    }

    #[test]
    fn both_kernels_tally_identical_counts() {
        // The full and cost-only kernels must agree not just on costs but
        // on every work counter, and repeated runs must tally the same —
        // the scheduling-independence the telemetry layer relies on.
        for f in 2..=10usize {
            for k in 2..=5usize {
                let tree = wide_gate(f, NodeOp::And);
                let mut a = DpScratch::new();
                let mut b = DpScratch::new();
                a.counting = true;
                b.counting = true;
                map_tree_with(&tree, k, Objective::Area, &|_| 0, &mut a).unwrap();
                tree_cost_with(&tree, k, Objective::Area, &|_| 0, &mut b).unwrap();
                let (ca, cb) = (a.counters.take(), b.counters.take());
                assert_eq!(ca, cb, "f={f} k={k}");
                assert_eq!(ca.tree_nodes, tree.nodes.len() as u64);
                assert!(ca.divisions > 0);
                map_tree_with(&tree, k, Objective::Area, &|_| 0, &mut a).unwrap();
                assert_eq!(a.counters.take(), ca, "rerun must tally identically");
            }
        }
        // Multi-level trees under both objectives and nonzero depths.
        let depths = |id: NodeId| (id.index() % 3) as u32;
        for (t, tree) in random_trees().iter().enumerate() {
            for k in 2..=5usize {
                for objective in [Objective::Area, Objective::Depth] {
                    let mut a = DpScratch::new();
                    let mut b = DpScratch::new();
                    a.counting = true;
                    b.counting = true;
                    map_tree_with(tree, k, objective, &depths, &mut a).unwrap();
                    tree_cost_with(tree, k, objective, &depths, &mut b).unwrap();
                    let (ca, cb) = (a.counters.take(), b.counters.take());
                    let ctx = format!("tree {t} k={k} {objective:?}");
                    assert_eq!(ca, cb, "{ctx}");
                    assert_eq!(ca.tree_nodes, tree.nodes.len() as u64, "{ctx}");
                    assert!(ca.divisions > 0, "{ctx}");
                    map_tree_with(tree, k, objective, &depths, &mut a).unwrap();
                    assert_eq!(
                        a.counters.take(),
                        ca,
                        "rerun must tally identically ({ctx})"
                    );
                }
            }
        }
    }

    #[test]
    fn leaf_depths_propagate() {
        // z = AND(a, b) where a arrives at depth 3: output depth 4.
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        net.add_output("z", g.into());
        let tree = single_tree(&net);
        let depth_of = move |id: chortle_netlist::NodeId| if id == a { 3 } else { 0 };
        let dp =
            map_tree_with(&tree, 4, Objective::Area, &depth_of, &mut DpScratch::new()).unwrap();
        assert_eq!(dp.tree_depth(&tree), 4);
    }
}
