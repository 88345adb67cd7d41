//! Forest creation: dividing the Boolean network into maximal fanout-free
//! trees (Section 3 and Figure 3 of the paper), plus the node-splitting
//! pre-pass for very wide gates (Section 3.1.4).
//!
//! Every gate whose output is used more than once (or drives a primary
//! output) becomes a tree *root*; gates used exactly once become internal
//! nodes of their consumer's tree. Tree *leaves* are polarized references
//! into the source network: primary inputs, constants, or other trees'
//! roots — matching the paper's introduction of duplicate nodes (`n`,
//! `n'`) at fanout points.

use chortle_netlist::{mix64, Network, NodeId, NodeOp, Signal};

/// A 128-bit structural fingerprint of a fanout-free tree.
///
/// Two trees receive the same fingerprint exactly when they are
/// *isomorphic as shapes*: same operations, same arrangement of gate and
/// leaf children (children compare as unordered multisets, because AND
/// and OR commute), and same edge polarities — but leaf *identities* are
/// anonymized, so renaming the signals a tree reads never changes its
/// fingerprint. The converse direction holds up to a 2⁻¹²⁸ hash-collision
/// probability.
///
/// Fingerprints are the keys of [`Forest::shape_histogram`]. The
/// mapper's cross-tree DP-result cache (see `CacheMode`) keys on the
/// coarser *blind* skeleton fingerprint ([`Tree::blind_fingerprint`]),
/// which erases operations and polarities as well.
///
/// Built bottom-up from the in-repo SplitMix64 finalizer
/// ([`mix64`]) — no external hashing dependencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fingerprint {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl Fingerprint {
    /// Seeds a fingerprint from a domain tag.
    const fn tagged(tag: u64) -> Fingerprint {
        Fingerprint {
            hi: mix64(tag),
            lo: mix64(tag ^ 0xA5A5_A5A5_A5A5_A5A5),
        }
    }

    /// [`Fingerprint::absorb`] as a value-returning `const fn`, so token
    /// constants can be folded at compile time.
    const fn absorbed(self, token: Fingerprint) -> Fingerprint {
        Fingerprint {
            hi: mix64(self.hi ^ token.hi).wrapping_add(token.lo),
            lo: mix64(self.lo ^ token.lo).wrapping_add(mix64(token.hi)),
        }
    }

    /// Absorbs one 128-bit token; order-sensitive (callers sort tokens
    /// first where commutativity is wanted).
    fn absorb(&mut self, token: Fingerprint) {
        *self = self.absorbed(token);
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Reusable buffers for [`Tree::fingerprint_with`]: per-node fingerprints
/// and one node's sorted child tokens.
#[derive(Default)]
pub struct FingerprintScratch {
    fps: Vec<Fingerprint>,
    tokens: Vec<Fingerprint>,
}

/// Reusable buffers for [`Tree::canonicalize`]: per-node full and blind
/// fingerprints, one node's keyed children and tokens, the post-order
/// walk's stack and every node's new index.
#[derive(Default)]
struct CanonScratch {
    fps: Vec<Fingerprint>,
    blind: Vec<Fingerprint>,
    keyed: Vec<((Fingerprint, Fingerprint), TreeChild)>,
    tokens: Vec<Fingerprint>,
    stack: Vec<(usize, usize)>,
    new_index: Vec<usize>,
}

/// Domain tags keeping leaf tokens, edge tokens, and node fingerprints in
/// disjoint hash families.
const TAG_LEAF: u64 = 0x1EAF;
const TAG_EDGE: u64 = 0xED9E;
const TAG_AND: u64 = 0xA17D;
const TAG_OR: u64 = 0x0B0B;
/// Tag of a *blind* gate node: used by the op-and-polarity-blind
/// skeleton fingerprint, where AND and OR hash identically.
const TAG_GATE: u64 = 0x9A7E;

/// A leaf child's token depends only on its edge polarity (leaves are
/// anonymous), so both values fold to compile-time constants — leaf-heavy
/// trees fingerprint without a single runtime `mix64` per leaf.
const LEAF_TOKENS: [Fingerprint; 2] = [
    Fingerprint::tagged(TAG_EDGE).absorbed(Fingerprint::tagged(TAG_LEAF)),
    Fingerprint::tagged(TAG_EDGE ^ 1).absorbed(Fingerprint::tagged(TAG_LEAF)),
];

/// The token a child contributes to its parent's fingerprint: the
/// child's own fingerprint (anonymous for leaves) mixed with the edge
/// polarity.
fn child_token(fps: &[Fingerprint], child: &TreeChild) -> Fingerprint {
    match *child {
        TreeChild::Leaf(sig) => LEAF_TOKENS[usize::from(sig.is_inverted())],
        TreeChild::Node { index, inverted } => {
            Fingerprint::tagged(TAG_EDGE ^ u64::from(inverted)).absorbed(fps[index])
        }
    }
}

/// Combines a node's operation with its child tokens (already in
/// canonical order) into the node's fingerprint.
fn node_fingerprint(op: NodeOp, tokens: &[Fingerprint]) -> Fingerprint {
    let tag = match op {
        NodeOp::And => TAG_AND,
        NodeOp::Or => TAG_OR,
        _ => unreachable!("tree nodes are gates"),
    };
    let mut fp = Fingerprint::tagged(tag ^ ((tokens.len() as u64) << 16));
    for t in tokens {
        fp.absorb(*t);
    }
    fp
}

/// The *blind* token of a leaf child: edge polarity is ignored, so it is
/// a single compile-time constant (equal to `LEAF_TOKENS[0]`).
const BLIND_LEAF_TOKEN: Fingerprint =
    Fingerprint::tagged(TAG_EDGE).absorbed(Fingerprint::tagged(TAG_LEAF));

/// The blind token a child contributes to its parent's blind skeleton
/// fingerprint: like [`child_token`] but with edge polarity erased.
fn blind_child_token(blind: &[Fingerprint], child: &TreeChild) -> Fingerprint {
    match *child {
        TreeChild::Leaf(_) => BLIND_LEAF_TOKEN,
        TreeChild::Node { index, .. } => Fingerprint::tagged(TAG_EDGE).absorbed(blind[index]),
    }
}

/// Combines a node's *blind* child tokens (already sorted) into the
/// node's blind skeleton fingerprint; the gate operation is erased.
fn blind_node_fingerprint(tokens: &[Fingerprint]) -> Fingerprint {
    let mut fp = Fingerprint::tagged(TAG_GATE ^ ((tokens.len() as u64) << 16));
    for t in tokens {
        fp.absorb(*t);
    }
    fp
}

/// Bit patterns of the first six truth-table variables within a 64-bit
/// word (variable `i` is true on the minterms whose bit `i` is set).
pub(crate) const PT_VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A child of a tree node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreeChild {
    /// An internal tree node (index into [`Tree::nodes`]) with the edge's
    /// polarity.
    Node {
        /// Index of the child tree node.
        index: usize,
        /// Whether the edge inverts the child's output.
        inverted: bool,
    },
    /// A leaf: a polarized reference to a source-network node (primary
    /// input, constant, or another tree's root).
    Leaf(Signal),
}

/// One node of a fanout-free tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeNode {
    /// The node's gate operation (always AND or OR).
    pub op: NodeOp,
    /// Children, in fanin order.
    pub children: Vec<TreeChild>,
}

/// A maximal fanout-free tree extracted from a network.
///
/// `nodes` is in topological order: children precede parents, and the last
/// node is the root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tree {
    /// The source-network gate at the tree's root.
    pub root: NodeId,
    /// The tree's nodes; index `nodes.len() - 1` is the root.
    pub nodes: Vec<TreeNode>,
}

impl Tree {
    /// Index of the root node within [`Tree::nodes`].
    pub fn root_index(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Number of leaf references in the whole tree (leaves are counted per
    /// occurrence, as in the paper — Chortle does not merge reconvergent
    /// leaves).
    pub fn leaf_count(&self) -> usize {
        self.nodes
            .iter()
            .flat_map(|n| &n.children)
            .filter(|c| matches!(c, TreeChild::Leaf(_)))
            .count()
    }

    /// Largest fanin over the tree's nodes.
    pub fn max_fanin(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.children.len())
            .max()
            .unwrap_or(0)
    }

    /// Computes the tree's canonical structural [`Fingerprint`] without
    /// modifying the tree.
    ///
    /// Children are hashed as a *sorted* token multiset, so any
    /// permutation of a node's children — and any renaming of leaf
    /// signals — yields the same fingerprint; operations and edge
    /// polarities are preserved. See [`Fingerprint`] for the exact
    /// equivalence.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint_with(&mut FingerprintScratch::default())
    }

    /// [`Tree::fingerprint`] with caller-owned scratch buffers, for
    /// tight loops over many (typically small) trees where the two
    /// allocations per call would dominate the hashing itself.
    pub fn fingerprint_with(&self, scratch: &mut FingerprintScratch) -> Fingerprint {
        let FingerprintScratch { fps, tokens } = scratch;
        fps.clear();
        fps.reserve(self.nodes.len());
        for node in &self.nodes {
            tokens.clear();
            tokens.extend(node.children.iter().map(|c| child_token(fps, c)));
            tokens.sort_unstable();
            fps.push(node_fingerprint(node.op, tokens));
        }
        fps[self.root_index()]
    }

    /// Computes the tree's *blind* skeleton [`Fingerprint`]: like
    /// [`Tree::fingerprint`] but with gate operations and edge
    /// polarities erased.
    ///
    /// Two trees share a blind fingerprint exactly when their skeletons
    /// — the arrangement of gate and leaf children, ignoring which gates
    /// they are and which edges invert — are isomorphic. The subset DP
    /// reads nothing else of a tree beyond this skeleton (plus leaf
    /// depths), so blind-equal trees share their whole `minmap`
    /// solution; this is the shape half of the DP cache's key.
    pub fn blind_fingerprint(&self) -> Fingerprint {
        self.blind_fingerprint_with(&mut FingerprintScratch::default())
    }

    /// [`Tree::blind_fingerprint`] with caller-owned scratch buffers —
    /// the blind counterpart of [`Tree::fingerprint_with`], for tight
    /// loops where per-call allocation would dominate.
    pub fn blind_fingerprint_with(&self, scratch: &mut FingerprintScratch) -> Fingerprint {
        let FingerprintScratch { fps, tokens } = scratch;
        fps.clear();
        fps.reserve(self.nodes.len());
        for node in &self.nodes {
            tokens.clear();
            tokens.extend(node.children.iter().map(|c| blind_child_token(fps, c)));
            tokens.sort_unstable();
            fps.push(blind_node_fingerprint(tokens));
        }
        fps[self.root_index()]
    }

    /// Rewrites the tree into its canonical form and returns its
    /// [`Fingerprint`].
    ///
    /// Two transformations, both function-preserving:
    ///
    /// 1. every node's children are reordered by their *blind* skeleton
    ///    token first and their full structural token second (AND/OR
    ///    commute, so any child order computes the same function); ties
    ///    keep their original relative order, which is irrelevant
    ///    because equal tokens mean isomorphic sub-shapes. The
    ///    blind-primary order means trees that differ only in gate
    ///    operations or edge polarities place their subtrees and leaf
    ///    slots *identically* — the alignment the DP cache relies on to
    ///    replay one solution onto every tree of a blind skeleton;
    /// 2. the node array is renumbered into the post-order walk of the
    ///    reordered tree, so isomorphic trees end up with *identical*
    ///    node arrays (up to leaf signal identities).
    ///
    /// The returned fingerprint hashes each node's child tokens as a
    /// fully-sorted multiset, so its *value* is independent of the
    /// blind-primary child order and identical to [`Tree::fingerprint`].
    ///
    /// After canonicalization the subset DP — whose tie-breaks depend on
    /// child and node order — visits trees with the same blind skeleton
    /// identically (it never reads operations or polarities), which is
    /// what lets a cached `minmap` solution be replayed verbatim onto
    /// any tree with the same [`Tree::blind_fingerprint`].
    pub fn canonicalize(&mut self) -> Fingerprint {
        self.canonicalize_with(&mut CanonScratch::default()).0
    }

    /// [`Tree::canonicalize`] with caller-owned scratch buffers, so a
    /// forest canonicalizes without allocating per tree or per node.
    /// Returns the full fingerprint and the [`Tree::blind_fingerprint`]
    /// the same pass computes, `(full, blind)`.
    fn canonicalize_with(&mut self, scratch: &mut CanonScratch) -> (Fingerprint, Fingerprint) {
        let CanonScratch {
            fps,
            blind,
            keyed,
            tokens,
            stack,
            new_index,
        } = scratch;
        // Pass 1: sort every node's children by (blind token, full
        // token), recording each node's full and blind fingerprints.
        fps.clear();
        blind.clear();
        for node in &mut self.nodes {
            keyed.clear();
            keyed.extend(
                node.children
                    .iter()
                    .map(|c| ((blind_child_token(blind, c), child_token(fps, c)), *c)),
            );
            keyed.sort_by_key(|entry| entry.0);
            for (slot, (_, child)) in node.children.iter_mut().zip(keyed.iter()) {
                *slot = *child;
            }
            // Blind tokens are already sorted (they are the primary sort
            // key); full tokens must be re-sorted so the fingerprint
            // value matches the order-insensitive `fingerprint()` hash.
            tokens.clear();
            tokens.extend(keyed.iter().map(|((b, _), _)| *b));
            blind.push(blind_node_fingerprint(tokens));
            tokens.clear();
            tokens.extend(keyed.iter().map(|((_, t), _)| *t));
            tokens.sort_unstable();
            fps.push(node_fingerprint(node.op, tokens));
        }
        let keys = (fps[self.root_index()], blind[self.root_index()]);
        // Pass 2: number the nodes in the post-order walk of the sorted
        // tree, with an explicit stack of (node, next child) so depth
        // costs heap, not call stack.
        let n = self.nodes.len();
        new_index.clear();
        new_index.resize(n, 0);
        let mut next_new = 0;
        stack.clear();
        stack.push((self.root_index(), 0));
        while let Some(&mut (i, ref mut next)) = stack.last_mut() {
            match self.nodes[i].children.get(*next) {
                Some(child) => {
                    *next += 1;
                    if let TreeChild::Node { index, .. } = *child {
                        stack.push((index, 0));
                    }
                }
                None => {
                    new_index[i] = next_new;
                    next_new += 1;
                    stack.pop();
                }
            }
        }
        debug_assert_eq!(next_new, n, "every node is reachable");
        // Renumber child references, then move every node to its new
        // index in place, cycle by cycle.
        for node in &mut self.nodes {
            for c in &mut node.children {
                if let TreeChild::Node { index, .. } = c {
                    *index = new_index[*index];
                }
            }
        }
        for i in 0..n {
            while new_index[i] != i {
                let j = new_index[i];
                self.nodes.swap(i, j);
                new_index.swap(i, j);
            }
        }
        keys
    }

    /// Splits every node with more than `threshold` children into a
    /// balanced chain of nodes of the same operation, as the paper's
    /// Section 3.1.4 prescribes for fanin above ten.
    ///
    /// Splitting preserves the tree's function exactly; it only fixes a
    /// partition boundary that the exhaustive decomposition search will no
    /// longer cross (the paper reports no loss of quality in practice —
    /// the `splitting` integration test measures this).
    ///
    /// Returns the number of nodes halved (every halving of one wide
    /// node counts once, including re-splits of freshly created halves),
    /// which the mapping telemetry reports as `map.nodes_split`.
    ///
    /// # Panics
    ///
    /// Panics if `threshold < 2`.
    pub fn split_wide_nodes(&mut self, threshold: usize) -> usize {
        assert!(threshold >= 2, "split threshold must be at least 2");
        let mut splits = 0;
        // Iterate until stable; newly created nodes are within bounds by
        // construction.
        let mut i = 0;
        while i < self.nodes.len() {
            if self.nodes[i].children.len() > threshold {
                splits += 1;
                let children = std::mem::take(&mut self.nodes[i].children);
                let half = children.len() / 2;
                let (left, right) = children.split_at(half);
                let op = self.nodes[i].op;
                // A singleton half stays a direct child (a one-fanin
                // intermediate node would be meaningless); larger halves
                // become intermediate nodes of the same operation.
                let mut node_idx = i;
                let left_child = if left.len() == 1 {
                    left[0]
                } else {
                    let idx = self.push_before(node_idx, op, left.to_vec());
                    node_idx += 1;
                    TreeChild::Node {
                        index: idx,
                        inverted: false,
                    }
                };
                let right_child = if right.len() == 1 {
                    right[0]
                } else {
                    let idx = self.push_before(node_idx, op, right.to_vec());
                    node_idx += 1;
                    TreeChild::Node {
                        index: idx,
                        inverted: false,
                    }
                };
                self.nodes[node_idx].children = vec![left_child, right_child];
                // Re-examine from `i`: the new halves may still be too
                // wide and now occupy positions at or after `i`.
            } else {
                i += 1;
            }
        }
        debug_assert!(self.nodes.iter().all(|n| n.children.len() <= threshold));
        debug_assert!(self.nodes.iter().all(|n| n.children.len() >= 2));
        splits
    }

    /// Inserts a new node immediately before index `at`, fixing up all
    /// child indexes; returns the new node's index (= `at`).
    ///
    /// The inserted node's own `children` must reference indexes below
    /// `at` (they are not adjusted).
    fn push_before(&mut self, at: usize, op: NodeOp, children: Vec<TreeChild>) -> usize {
        debug_assert!(children.iter().all(|c| match c {
            TreeChild::Node { index, .. } => *index < at,
            TreeChild::Leaf(_) => true,
        }));
        self.nodes.insert(at, TreeNode { op, children });
        for (j, node) in self.nodes.iter_mut().enumerate() {
            if j == at {
                continue;
            }
            for c in &mut node.children {
                if let TreeChild::Node { index, .. } = c {
                    if *index >= at {
                        *index += 1;
                    }
                }
            }
        }
        at
    }

    /// Evaluates the tree on a leaf-assignment function (for tests):
    /// `leaf_value(signal)` must return the value of the *non-inverted*
    /// source node; polarity is applied here.
    pub fn eval(&self, leaf_value: &dyn Fn(NodeId) -> bool) -> bool {
        let mut values = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            let mut acc = node.op.identity();
            for c in &node.children {
                let v = match *c {
                    TreeChild::Node { index, inverted } => values[index] ^ inverted,
                    TreeChild::Leaf(sig) => leaf_value(sig.node()) ^ sig.is_inverted(),
                };
                acc = match node.op {
                    NodeOp::And => acc && v,
                    NodeOp::Or => acc || v,
                    _ => unreachable!("tree nodes are gates"),
                };
            }
            values[i] = acc;
        }
        values[self.root_index()]
    }
}

/// The forest of maximal fanout-free trees of a network, in topological
/// order (a tree appears after every tree whose root it references as a
/// leaf).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Forest {
    /// The trees, topologically ordered by root.
    pub trees: Vec<Tree>,
}

impl Forest {
    /// Builds the forest of a network (paper Figure 3).
    ///
    /// The network must be in mapper normal form (see
    /// [`Network::simplified`]): every gate has at least two fanins and
    /// constants feed no gates. Dead gates are ignored.
    ///
    /// # Panics
    ///
    /// Panics if a live gate has fewer than two fanins (run
    /// [`Network::simplified`] first).
    pub fn of(network: &Network) -> Forest {
        let fanouts = network.fanout_counts();
        let mut is_root = vec![false; network.len()];
        for o in network.outputs() {
            if network.node(o.signal.node()).op().is_gate() {
                is_root[o.signal.node().index()] = true;
            }
        }
        for (id, node) in network.nodes() {
            if node.op().is_gate() && fanouts[id.index()] > 1 {
                is_root[id.index()] = true;
            }
        }
        // A gate with fanout exactly 1 whose consumer treats it as an
        // internal node needs no tree; gates with fanout 0 are dead.
        let mut trees = Vec::new();
        for (id, node) in network.nodes() {
            if node.op().is_gate() && is_root[id.index()] {
                trees.push(extract_tree(network, id, &is_root));
            }
        }
        Forest { trees }
    }

    /// Total number of tree nodes across the forest.
    pub fn node_count(&self) -> usize {
        self.trees.iter().map(|t| t.nodes.len()).sum()
    }

    /// Applies [`Tree::split_wide_nodes`] to every tree; returns the
    /// total number of nodes halved.
    pub fn split_wide_nodes(&mut self, threshold: usize) -> usize {
        self.trees
            .iter_mut()
            .map(|t| t.split_wide_nodes(threshold))
            .sum()
    }

    /// Applies [`Tree::canonicalize`] to every tree; returns the
    /// fingerprints in tree order.
    pub fn canonicalize(&mut self) -> Vec<Fingerprint> {
        self.canonicalize_keyed().0
    }

    /// [`Forest::canonicalize`], also returning every canonical tree's
    /// [`Tree::blind_fingerprint`] (the DP cache's shape key), from the
    /// same pass: `(full, blind)`, each in tree order.
    pub(crate) fn canonicalize_keyed(&mut self) -> (Vec<Fingerprint>, Vec<Fingerprint>) {
        let mut scratch = CanonScratch::default();
        self.trees
            .iter_mut()
            .map(|tree| tree.canonicalize_with(&mut scratch))
            .unzip()
    }

    /// Counts the forest's trees by structural shape.
    ///
    /// Returns `(fingerprint, count)` pairs sorted by descending count
    /// (ties by fingerprint), so the head of the list is the forest's
    /// most repeated shape. `Σ count == trees.len()`; the number of
    /// entries is the number of *distinct* shapes — the fraction
    /// `1 - entries / trees` predicts the hit rate of the mapper's
    /// shape cache on this forest.
    pub fn shape_histogram(&self) -> Vec<(Fingerprint, usize)> {
        let mut scratch = FingerprintScratch::default();
        let shapes: Vec<Fingerprint> = self
            .trees
            .iter()
            .map(|tree| tree.fingerprint_with(&mut scratch))
            .collect();
        shape_histogram_of(&shapes)
    }
}

/// Counts `shapes` by fingerprint, most common first (ties by
/// fingerprint): [`Forest::shape_histogram`] of a forest whose tree
/// fingerprints are `shapes`.
pub(crate) fn shape_histogram_of(shapes: &[Fingerprint]) -> Vec<(Fingerprint, usize)> {
    let mut counts: std::collections::HashMap<Fingerprint, usize> =
        std::collections::HashMap::new();
    for &fp in shapes {
        *counts.entry(fp).or_insert(0) += 1;
    }
    let mut histogram: Vec<(Fingerprint, usize)> = counts.into_iter().collect();
    histogram.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    histogram
}

/// Extracts the fanout-free tree rooted at `root` (a gate).
///
/// Nodes are emitted in post order, so children precede parents; the
/// walk keeps its path on an explicit stack, so a tree as deep as the
/// network costs heap, not call stack.
fn extract_tree(network: &Network, root: NodeId, is_root: &[bool]) -> Tree {
    /// A gate on the current path: its id, the next fanin to visit and
    /// the children built so far.
    struct Frame {
        id: NodeId,
        next: usize,
        children: Vec<TreeChild>,
    }
    let open = |id: NodeId| {
        let node = network.node(id);
        debug_assert!(node.op().is_gate());
        assert!(
            node.fanin_count() >= 2,
            "gate {id:?} has fewer than two fanins; simplify the network first"
        );
        Frame {
            id,
            next: 0,
            children: Vec::with_capacity(node.fanin_count()),
        }
    };
    let mut nodes: Vec<TreeNode> = Vec::new();
    let mut stack = vec![open(root)];
    while let Some(frame) = stack.last_mut() {
        let node = network.node(frame.id);
        if let Some(&s) = node.fanins().get(frame.next) {
            frame.next += 1;
            let child = network.node(s.node());
            if child.op().is_gate() && !is_root[s.node().index()] {
                stack.push(open(s.node()));
            } else {
                frame.children.push(TreeChild::Leaf(s));
            }
            continue;
        }
        let children = std::mem::take(&mut frame.children);
        stack.pop();
        nodes.push(TreeNode {
            op: node.op(),
            children,
        });
        if let Some(parent) = stack.last_mut() {
            let edge = network.node(parent.id).fanins()[parent.next - 1];
            parent.children.push(TreeChild::Node {
                index: nodes.len() - 1,
                inverted: edge.is_inverted(),
            });
        }
    }
    Tree { root, nodes }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The network of the paper's Figure 3a: node n feeds both a and b.
    fn figure3_like() -> Network {
        let mut net = Network::new();
        let i0 = net.add_input("i0");
        let i1 = net.add_input("i1");
        let i2 = net.add_input("i2");
        let n = net.add_gate(NodeOp::And, vec![i0.into(), i1.into()]);
        let a = net.add_gate(NodeOp::Or, vec![n.into(), i2.into()]);
        let b = net.add_gate(NodeOp::And, vec![n.into(), i2.into()]);
        net.add_output("a", a.into());
        net.add_output("b", b.into());
        net
    }

    #[test]
    fn fanout_nodes_become_roots() {
        let net = figure3_like();
        let forest = Forest::of(&net);
        assert_eq!(forest.trees.len(), 3); // n, a, b
                                           // The consumers see n as a leaf.
        let leaf_counts: Vec<usize> = forest.trees.iter().map(Tree::leaf_count).collect();
        assert_eq!(leaf_counts, vec![2, 2, 2]);
    }

    #[test]
    fn single_fanout_gates_are_internal() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g1 = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        let g2 = net.add_gate(NodeOp::Or, vec![g1.into(), c.into()]);
        net.add_output("z", g2.into());
        let forest = Forest::of(&net);
        assert_eq!(forest.trees.len(), 1);
        assert_eq!(forest.trees[0].nodes.len(), 2);
        assert_eq!(forest.trees[0].leaf_count(), 3);
    }

    #[test]
    fn dead_gates_skipped() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let _dead = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        let live = net.add_gate(NodeOp::Or, vec![a.into(), b.into()]);
        net.add_output("z", live.into());
        let forest = Forest::of(&net);
        assert_eq!(forest.trees.len(), 1);
        assert_eq!(forest.trees[0].root, live);
    }

    #[test]
    fn tree_eval_matches_network() {
        let net = figure3_like();
        let forest = Forest::of(&net);
        // Tree for output a: OR(leaf n, leaf i2).
        let a_tree = &forest.trees[1];
        let funcs = net.node_functions().unwrap();
        for bits in 0..8u32 {
            let leaf_value = |id: NodeId| funcs[id.index()].eval(bits);
            let expect = funcs[a_tree.root.index()].eval(bits);
            assert_eq!(a_tree.eval(&leaf_value), expect, "bits={bits:b}");
        }
    }

    #[test]
    fn splitting_preserves_function_and_bounds_fanin() {
        let mut net = Network::new();
        let inputs: Vec<_> = (0..13).map(|i| net.add_input(format!("i{i}"))).collect();
        let g = net.add_gate(NodeOp::Or, inputs.iter().map(|&i| Signal::new(i)).collect());
        net.add_output("z", g.into());
        let mut forest = Forest::of(&net);
        let original = forest.trees[0].clone();
        forest.split_wide_nodes(10);
        let split = &forest.trees[0];
        assert!(split.max_fanin() <= 10);
        assert_eq!(split.leaf_count(), original.leaf_count());
        for bits in [0u32, 1, 0b1010101010101, 0x1FFF, 0x1000] {
            let leaf = |id: NodeId| {
                let pos = inputs.iter().position(|&x| x == id).unwrap();
                (bits >> pos) & 1 == 1
            };
            assert_eq!(split.eval(&leaf), original.eval(&leaf), "bits={bits:b}");
        }
    }

    #[test]
    fn splitting_recursive_for_very_wide_nodes() {
        let mut net = Network::new();
        let inputs: Vec<_> = (0..40).map(|i| net.add_input(format!("i{i}"))).collect();
        let g = net.add_gate(
            NodeOp::And,
            inputs.iter().map(|&i| Signal::new(i)).collect(),
        );
        net.add_output("z", g.into());
        let mut forest = Forest::of(&net);
        forest.split_wide_nodes(4);
        let t = &forest.trees[0];
        assert!(t.max_fanin() <= 4);
        assert_eq!(t.leaf_count(), 40);
        // All-ones is true, any zero is false.
        assert!(t.eval(&|_| true));
        assert!(!t.eval(&|id| id != inputs[7]));
    }

    #[test]
    fn inverted_edges_preserved() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(NodeOp::And, vec![Signal::inverted(a), b.into()]);
        let g2 = net.add_gate(NodeOp::Or, vec![Signal::inverted(g1), a.into()]);
        net.add_output("z", g2.into());
        let forest = Forest::of(&net);
        let t = &forest.trees[0];
        for bits in 0..4u32 {
            let leaf = |id: NodeId| {
                if id == a {
                    bits & 1 == 1
                } else {
                    bits & 2 == 2
                }
            };
            let (av, bv) = (bits & 1 == 1, bits & 2 == 2);
            // OR(!g1, a) with g1 = AND(!a, b) simplifies to a || !b.
            assert_eq!(t.eval(&leaf), av || !bv);
        }
    }

    /// Builds OR(AND(x, y), !z) with the AND's fanins in the given order
    /// and the named primary inputs — the canonical specimen for the
    /// fingerprint tests below.
    fn specimen(names: [&str; 3], swap_and: bool) -> Tree {
        let mut net = Network::new();
        let x = net.add_input(names[0]);
        let y = net.add_input(names[1]);
        let z = net.add_input(names[2]);
        let and_fanins = if swap_and {
            vec![y.into(), x.into()]
        } else {
            vec![x.into(), y.into()]
        };
        let g = net.add_gate(NodeOp::And, and_fanins);
        let r = net.add_gate(NodeOp::Or, vec![Signal::inverted(z), g.into()]);
        net.add_output("o", r.into());
        Forest::of(&net).trees.remove(0)
    }

    #[test]
    fn fingerprint_ignores_child_order_and_leaf_names() {
        let base = specimen(["a", "b", "c"], false);
        let swapped = specimen(["a", "b", "c"], true);
        let renamed = specimen(["p", "q", "r"], false);
        assert_eq!(base.fingerprint(), swapped.fingerprint());
        assert_eq!(base.fingerprint(), renamed.fingerprint());
    }

    #[test]
    fn fingerprint_sees_ops_and_polarity() {
        let base = specimen(["a", "b", "c"], false);
        // Flip the inverted leaf edge.
        let mut straight = base.clone();
        for n in &mut straight.nodes {
            for c in &mut n.children {
                if let TreeChild::Leaf(s) = c {
                    if s.is_inverted() {
                        *c = TreeChild::Leaf(!*s);
                    }
                }
            }
        }
        assert_ne!(base.fingerprint(), straight.fingerprint());
        // Swap the inner gate's operation.
        let mut other_op = base.clone();
        other_op.nodes[0].op = NodeOp::Or;
        assert_ne!(base.fingerprint(), other_op.fingerprint());
    }

    #[test]
    fn canonicalize_preserves_function_and_is_idempotent() {
        let net = figure3_like();
        let mut forest = Forest::of(&net);
        let originals = forest.trees.clone();
        let fps = forest.canonicalize();
        let funcs = net.node_functions().unwrap();
        for (tree, original) in forest.trees.iter().zip(&originals) {
            for bits in 0..8u32 {
                let leaf = |id: NodeId| funcs[id.index()].eval(bits);
                assert_eq!(tree.eval(&leaf), original.eval(&leaf), "bits={bits:b}");
            }
        }
        // Canonicalizing again is a no-op with the same fingerprints.
        let mut again = forest.clone();
        assert_eq!(again.canonicalize(), fps);
        assert_eq!(again, forest);
        // And the returned fingerprints match the non-mutating hash.
        for (tree, fp) in forest.trees.iter().zip(&fps) {
            assert_eq!(tree.fingerprint(), *fp);
        }
    }

    #[test]
    fn isomorphic_trees_canonicalize_to_identical_shapes() {
        let mut a = specimen(["a", "b", "c"], false);
        let mut b = specimen(["p", "q", "r"], true);
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na.op, nb.op);
            assert_eq!(na.children.len(), nb.children.len());
            for (ca, cb) in na.children.iter().zip(&nb.children) {
                match (ca, cb) {
                    (
                        TreeChild::Node {
                            index: ia,
                            inverted: va,
                        },
                        TreeChild::Node {
                            index: ib,
                            inverted: vb,
                        },
                    ) => {
                        assert_eq!(ia, ib);
                        assert_eq!(va, vb);
                    }
                    (TreeChild::Leaf(sa), TreeChild::Leaf(sb)) => {
                        assert_eq!(sa.is_inverted(), sb.is_inverted());
                    }
                    _ => panic!("child kinds diverged"),
                }
            }
        }
    }

    #[test]
    fn blind_fingerprint_erases_ops_and_polarity_but_not_structure() {
        let base = specimen(["a", "b", "c"], false);
        // Op and polarity variants share the blind skeleton.
        let mut other_op = base.clone();
        other_op.nodes[0].op = NodeOp::Or;
        let mut straight = base.clone();
        for n in &mut straight.nodes {
            for c in &mut n.children {
                if let TreeChild::Leaf(s) = c {
                    *c = TreeChild::Leaf(!*s);
                }
            }
        }
        assert_eq!(base.blind_fingerprint(), other_op.blind_fingerprint());
        assert_eq!(base.blind_fingerprint(), straight.blind_fingerprint());
        assert_ne!(base.fingerprint(), other_op.fingerprint());
        // A different skeleton gets a different blind fingerprint.
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        net.add_output("z", g.into());
        let flat = Forest::of(&net).trees.remove(0);
        assert_ne!(base.blind_fingerprint(), flat.blind_fingerprint());
    }

    #[test]
    fn blind_variants_canonicalize_to_aligned_slots() {
        // OR(AND(x, y), !z) vs AND(OR(!x, y), z): same skeleton, all
        // ops and polarities scrambled. After canonicalization the
        // child kinds must align slot-for-slot and the leaf traversal
        // order must match.
        let mut base = specimen(["a", "b", "c"], false);
        let mut variant = base.clone();
        variant.nodes[0].op = NodeOp::Or;
        variant.nodes[1].op = NodeOp::And;
        for n in &mut variant.nodes {
            for c in &mut n.children {
                if let TreeChild::Leaf(s) = c {
                    if !s.is_inverted() {
                        *c = TreeChild::Leaf(!*s);
                    }
                }
            }
        }
        base.canonicalize();
        variant.canonicalize();
        assert_eq!(base.blind_fingerprint(), variant.blind_fingerprint());
        assert_eq!(base.nodes.len(), variant.nodes.len());
        for (na, nb) in base.nodes.iter().zip(&variant.nodes) {
            assert_eq!(na.children.len(), nb.children.len());
            for (ca, cb) in na.children.iter().zip(&nb.children) {
                match (ca, cb) {
                    (TreeChild::Node { index: ia, .. }, TreeChild::Node { index: ib, .. }) => {
                        assert_eq!(ia, ib)
                    }
                    (TreeChild::Leaf(_), TreeChild::Leaf(_)) => {}
                    _ => panic!("child kinds diverged between blind variants"),
                }
            }
        }
    }

    #[test]
    fn shape_histogram_groups_isomorphic_trees() {
        let net = figure3_like();
        let forest = Forest::of(&net);
        // Trees a = OR(n, i2) and b = AND(n, i2) differ only in operation;
        // n = AND(i0, i1) shares b's shape (2-input AND of leaves).
        let hist = forest.shape_histogram();
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0].1, 2);
        assert_eq!(hist[1].1, 1);
        assert_eq!(
            hist.iter().map(|(_, c)| c).sum::<usize>(),
            forest.trees.len()
        );
    }
}
