//! Don't-care-aware LUT packing — the opt-in `--pack dc` post-pass
//! (DESIGN.md §16).
//!
//! Chortle's DP is optimal per fanout-free tree, but the emitted
//! circuit still carries slack *between* trees: a LUT's inputs are
//! driven by upstream LUT cones, and most input combinations those
//! cones can never produce are still paid for in the table. This pass
//! computes **satisfiability don't-cares** at LUT boundaries — in the
//! style of ReducedLUT table compression — and spends them:
//!
//! 1. **Input dropping.** For each LUT, the primary-input *window*
//!    (the union of its input cones' PI supports, capped at
//!    [`WINDOW_CAP`] variables) is enumerated exhaustively; an input
//!    whose value never distinguishes two *reachable* input vectors
//!    is removed and the table re-projected.
//! 2. **Constant and buffer folding.** A LUT whose reachable outputs
//!    agree collapses to a constant; a single-input identity (or
//!    complement) LUT is bypassed, the inversion absorbed into its
//!    consumers' tables (or an output's free `inverted` flag).
//! 3. **Exact deduplication.** LUTs with identical resolved inputs
//!    and tables merge onto the first occurrence.
//! 4. **Single-fanout collapse.** A LUT whose only reader is one
//!    other LUT is substituted into it when the merged input set
//!    still fits in K — the cross-tree merge the per-tree DP cannot
//!    see.
//! 5. **Don't-care fill.** Unreachable table entries are forced to 0,
//!    canonicalizing the tables that remain.
//!
//! Every rewrite is equivalence-preserving over the *reachable* input
//! space, which is exactly the space the surrounding circuit can
//! exercise — and the driver re-verifies the packed circuit against
//! the source network with the exhaustive/randomized equivalence
//! checker before adopting it ([`crate::MapError::PackVerification`]).
//! The LUT count is monotone non-increasing by construction: no step
//! ever adds a table.

use std::collections::HashMap;

use chortle_netlist::{
    exhaustive_chunk, LutCircuit, LutId, LutSource, NodeId, TruthTable, MAX_VARS,
};

use crate::map::MapError;

/// Whether (and how) the don't-care packing post-pass runs after
/// cover reconstruction. See [`crate::MapOptionsBuilder::pack`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PackMode {
    /// No post-pass: the circuit is exactly the DP's cover (the
    /// default, and the only mode whose output is bit-identical
    /// across cache modes).
    #[default]
    Off,
    /// Satisfiability-don't-care packing: drop inputs, fold constants
    /// and buffers, deduplicate, collapse single-fanout LUTs, and
    /// zero-fill unreachable table entries. Equivalence-verified by
    /// the driver; LUT count never increases.
    Dc,
}

impl std::fmt::Display for PackMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PackMode::Off => "off",
            PackMode::Dc => "dc",
        })
    }
}

/// What the packing pass removed, for the `pack.*` telemetry counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct PackStats {
    /// LUT input connections removed (dead, duplicate, constant, or
    /// don't-care-redundant inputs).
    pub dropped_inputs: u64,
    /// Lookup tables removed (constants, buffers, duplicates,
    /// collapsed single-fanout LUTs, and unreachable tables).
    pub removed_luts: u64,
}

/// Exhaustive-window cap: satisfiability don't-cares are enumerated
/// only for LUTs whose input cones span at most this many primary
/// inputs (`2^12 = 4096` assignments, 64 simulation words). Wider
/// cones skip step 1 but still fold, deduplicate, and collapse.
const WINDOW_CAP: usize = 12;

/// A LUT being rewritten: resolved inputs plus a table over exactly
/// those inputs. `None` entries in the working array are LUTs that
/// folded away.
struct WorkLut {
    inputs: Vec<LutSource>,
    table: TruthTable,
}

/// Where a folded LUT's readers should connect instead: the
/// replacement source, complemented when `inverted`.
#[derive(Clone, Copy)]
struct Repl {
    source: LutSource,
    inverted: bool,
}

/// Packs `circuit` with satisfiability don't-cares. Returns the packed
/// circuit (same outputs, same function) and removal statistics.
///
/// # Errors
///
/// Returns [`MapError::Circuit`] if the rebuilt circuit violates a
/// [`LutCircuit`] invariant — an internal bug, never bad input.
pub(crate) fn pack_circuit(circuit: &LutCircuit) -> Result<(LutCircuit, PackStats), MapError> {
    let k = circuit.k();
    let n = circuit.num_luts();
    let mut stats = PackStats::default();
    let mut work: Vec<Option<WorkLut>> = Vec::with_capacity(n);
    let mut repl: Vec<Option<Repl>> = vec![None; n];
    // Primary-input windows, bottom-up: `None` = wider than the cap.
    let mut windows: Vec<Option<Vec<NodeId>>> = Vec::with_capacity(n);
    let mut dedupe: HashMap<(Vec<LutSource>, TruthTable), LutId> = HashMap::new();

    for (i, lut) in circuit.luts().iter().enumerate() {
        // Resolve inputs through earlier folds and absorb constants,
        // duplicates, and inversions in one table composition.
        let mut resolved: Vec<(LutSource, bool)> = Vec::with_capacity(lut.inputs().len());
        for &src in lut.inputs() {
            resolved.push(resolve(src, &repl));
        }
        let mut uniq: Vec<LutSource> = Vec::new();
        for &(src, _) in &resolved {
            if !matches!(src, LutSource::Const(_)) && !uniq.contains(&src) {
                uniq.push(src);
            }
        }
        let comp: Vec<TruthTable> = resolved
            .iter()
            .map(|&(src, inv)| {
                let t = match src {
                    LutSource::Const(b) => TruthTable::constant(uniq.len(), b),
                    _ => {
                        let pos = uniq.iter().position(|&u| u == src).expect("collected");
                        TruthTable::var(uniq.len(), pos)
                    }
                };
                if inv {
                    t.not()
                } else {
                    t
                }
            })
            .collect();
        let composed = lut.table().compose(&comp);
        let (mut table, support) = composed.shrunk();
        let mut inputs: Vec<LutSource> = support.iter().map(|&p| uniq[p]).collect();
        // Constant, duplicate, and dead inputs absorbed by the
        // composition; SDC drops below count themselves.
        stats.dropped_inputs += (lut.inputs().len() - inputs.len()) as u64;

        // This LUT's window: union of its inputs' windows.
        let window = union_windows(&inputs, &windows);

        // Satisfiability don't-cares over the window: enumerate every
        // reachable input vector, drop inputs the reachable space
        // never distinguishes, and zero the unreachable entries.
        if let Some(w) = window
            .as_ref()
            .filter(|w| !inputs.is_empty() && w.len() <= WINDOW_CAP)
        {
            let reachable = reachable_vectors(w, &inputs, &work);
            let reach = drop_redundant_inputs(&mut table, &mut inputs, &reachable, &mut stats);
            // Don't-care fill: unreachable entries canonicalize to 0.
            for v in 0..(1u32 << inputs.len()) {
                if !reach.contains(&v) {
                    table.set(v, false);
                }
            }
        }

        if inputs.is_empty() {
            // Constant: the 0-var table has one entry.
            repl[i] = Some(Repl {
                source: LutSource::Const(table.eval(0)),
                inverted: false,
            });
            stats.removed_luts += 1;
            windows.push(Some(Vec::new()));
            work.push(None);
            continue;
        }
        if inputs.len() == 1 {
            let buf = TruthTable::var(1, 0);
            if table == buf || table == buf.not() {
                repl[i] = Some(Repl {
                    source: inputs[0],
                    inverted: table != buf,
                });
                stats.removed_luts += 1;
                windows.push(window);
                work.push(None);
                continue;
            }
        }
        let key = (inputs.clone(), table.clone());
        if let Some(&first) = dedupe.get(&key) {
            repl[i] = Some(Repl {
                source: LutSource::Lut(first),
                inverted: false,
            });
            stats.removed_luts += 1;
            windows.push(window);
            work.push(None);
            continue;
        }
        dedupe.insert(key, LutId::from_index(i));
        windows.push(window);
        work.push(Some(WorkLut { inputs, table }));
    }

    // Resolve the outputs once; inversions land on the free flag.
    let outputs: Vec<(String, LutSource, bool)> = circuit
        .outputs()
        .iter()
        .map(|o| {
            let (src, inv) = resolve(o.source, &repl);
            (o.name.clone(), src, o.inverted ^ inv)
        })
        .collect();

    collapse_single_fanout(&mut work, &outputs, k, &mut stats);

    rebuild(circuit, work, outputs, stats)
}

/// Follows a source through the fold map, accumulating inversions.
/// Fold targets are themselves fully resolved when recorded, so one
/// step suffices; the loop guards against future chained entries.
fn resolve(mut src: LutSource, repl: &[Option<Repl>]) -> (LutSource, bool) {
    let mut inverted = false;
    while let LutSource::Lut(id) = src {
        match repl[id.index()] {
            Some(r) => {
                src = r.source;
                inverted ^= r.inverted;
            }
            None => break,
        }
    }
    if let LutSource::Const(b) = src {
        // Fold the inversion into the constant itself.
        if inverted {
            return (LutSource::Const(!b), false);
        }
        return (LutSource::Const(b), false);
    }
    (src, inverted)
}

/// The union of the PI windows of `inputs`; `None` once it exceeds
/// [`WINDOW_CAP`] (or any contributing window already overflowed).
fn union_windows(inputs: &[LutSource], windows: &[Option<Vec<NodeId>>]) -> Option<Vec<NodeId>> {
    let mut acc: Vec<NodeId> = Vec::new();
    for src in inputs {
        match src {
            LutSource::Input(id) => {
                if !acc.contains(id) {
                    acc.push(*id);
                }
            }
            LutSource::Lut(j) => {
                let w = windows[j.index()].as_ref()?;
                for id in w {
                    if !acc.contains(id) {
                        acc.push(*id);
                    }
                }
            }
            LutSource::Const(_) => {}
        }
        if acc.len() > WINDOW_CAP {
            return None;
        }
    }
    acc.sort();
    Some(acc)
}

/// Enumerates every input vector the window can drive onto `inputs`.
/// Returns the set of reachable vectors (bit `j` = value of input
/// `j`), computed by bit-parallel simulation of the live work LUTs in
/// 64-assignment chunks.
fn reachable_vectors(
    window: &[NodeId],
    inputs: &[LutSource],
    work: &[Option<WorkLut>],
) -> Vec<u32> {
    let m = window.len();
    let chunks = if m > 6 { 1u64 << (m - 6) } else { 1 };
    let valid = if m >= 6 { 64 } else { 1usize << m };
    // Seen set over all 2^|inputs| vectors (|inputs| <= K), one bit each.
    let mut seen = vec![0u64; (1usize << inputs.len()).div_ceil(64)];
    let mut window_words = vec![0u64; m];
    let mut input_words = vec![0u64; inputs.len()];
    // Values of live work LUTs for the current chunk, lazily filled.
    let mut lut_words: Vec<Option<u64>> = vec![None; work.len()];
    for chunk in 0..chunks {
        lut_words.fill(None);
        exhaustive_chunk(chunk, &mut window_words);
        let pi_word = |id: NodeId| -> u64 {
            let pos = window.iter().position(|&w| w == id).expect("in window");
            window_words[pos]
        };
        for (w, &src) in input_words.iter_mut().zip(inputs) {
            *w = source_word(src, &pi_word, work, &mut lut_words);
        }
        for bit in 0..valid {
            let mut v = 0usize;
            for (j, w) in input_words.iter().enumerate() {
                if (w >> bit) & 1 == 1 {
                    v |= 1 << j;
                }
            }
            seen[v / 64] |= 1 << (v % 64);
        }
    }
    (0..1u32 << inputs.len())
        .filter(|&v| (seen[v as usize / 64] >> (v % 64)) & 1 == 1)
        .collect()
}

/// 64-assignment value word of `src`, simulating live work LUTs on
/// demand (memoized per chunk in `lut_words`).
fn source_word(
    src: LutSource,
    pi_word: &dyn Fn(NodeId) -> u64,
    work: &[Option<WorkLut>],
    lut_words: &mut Vec<Option<u64>>,
) -> u64 {
    match src {
        LutSource::Input(id) => pi_word(id),
        LutSource::Const(b) => {
            if b {
                u64::MAX
            } else {
                0
            }
        }
        LutSource::Lut(id) => {
            if let Some(w) = lut_words[id.index()] {
                return w;
            }
            let lut = work[id.index()]
                .as_ref()
                .expect("reachable sources resolve to live LUTs");
            let mut gathered = [0u64; MAX_VARS];
            let fanin = &mut gathered[..lut.inputs.len()];
            for (w, &s) in fanin.iter_mut().zip(&lut.inputs) {
                *w = source_word(s, pi_word, work, lut_words);
            }
            let out = lut.table.eval_words(fanin);
            lut_words[id.index()] = Some(out);
            out
        }
    }
}

/// Greedily removes inputs the reachable space never distinguishes:
/// input `j` is droppable when no two reachable vectors that agree on
/// every other input disagree on the table value. The table is then
/// re-projected (unreachable projections fill with 0) and the scan
/// restarts, since a drop can unlock further drops. Returns the
/// reachable set over the surviving inputs.
fn drop_redundant_inputs(
    table: &mut TruthTable,
    inputs: &mut Vec<LutSource>,
    reachable: &[u32],
    stats: &mut PackStats,
) -> Vec<u32> {
    let mut reach: Vec<u32> = reachable.to_vec();
    'restart: loop {
        let n = inputs.len();
        for j in 0..n {
            // Project reachable vectors onto the other inputs; the
            // class map records the table value each class must take.
            let mut class: HashMap<u32, bool> = HashMap::new();
            let mut ok = true;
            for &v in &reach {
                let p = project_away(v, j);
                let val = table.eval(v);
                match class.get(&p) {
                    Some(&prev) if prev != val => {
                        ok = false;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        class.insert(p, val);
                    }
                }
            }
            if !ok {
                continue;
            }
            // Drop input j: re-project table and reachable set.
            let mut shrunk = TruthTable::constant(n - 1, false);
            for (&p, &val) in &class {
                if val {
                    shrunk.set(p, true);
                }
            }
            *table = shrunk;
            inputs.remove(j);
            let mut next: Vec<u32> = class.keys().copied().collect();
            next.sort_unstable();
            reach = next;
            stats.dropped_inputs += 1;
            if inputs.is_empty() {
                return reach;
            }
            continue 'restart;
        }
        return reach;
    }
}

/// Removes bit `j` from vector `v`, closing the gap.
fn project_away(v: u32, j: usize) -> u32 {
    let low = v & ((1u32 << j) - 1);
    let high = (v >> (j + 1)) << j;
    low | high
}

/// Collapses LUTs read by exactly one other LUT (and no output) into
/// their reader when the merged input list still fits in `k`. Runs to
/// a fixpoint: a collapse can make its reader single-fanout in turn.
fn collapse_single_fanout(
    work: &mut [Option<WorkLut>],
    outputs: &[(String, LutSource, bool)],
    k: usize,
    stats: &mut PackStats,
) {
    loop {
        // Reference counts over live LUTs: (reader count, last reader).
        let mut readers: Vec<(usize, usize)> = vec![(0, usize::MAX); work.len()];
        for (i, slot) in work.iter().enumerate() {
            let Some(lut) = slot else { continue };
            let mut counted: Vec<usize> = Vec::new();
            for src in &lut.inputs {
                if let LutSource::Lut(j) = src {
                    if !counted.contains(&j.index()) {
                        counted.push(j.index());
                        readers[j.index()].0 += 1;
                        readers[j.index()].1 = i;
                    }
                }
            }
        }
        for &(_, src, _) in outputs {
            if let LutSource::Lut(j) = src {
                readers[j.index()].0 += 2; // outputs pin their driver
            }
        }
        let mut changed = false;
        for a in 0..work.len() {
            if work[a].is_none() || readers[a].0 != 1 {
                continue;
            }
            let b = readers[a].1;
            if b == usize::MAX || work[b].is_none() {
                continue;
            }
            // Merged input list: b's inputs with a replaced by a's.
            let (a_inputs, a_table) = {
                let lut = work[a].as_ref().expect("checked live");
                (lut.inputs.clone(), lut.table.clone())
            };
            let b_lut = work[b].as_ref().expect("checked live");
            let mut merged: Vec<LutSource> = Vec::new();
            for &src in b_lut.inputs.iter().chain(a_inputs.iter()) {
                if src != LutSource::Lut(LutId::from_index(a)) && !merged.contains(&src) {
                    merged.push(src);
                }
            }
            if merged.len() > k {
                continue;
            }
            let comp: Vec<TruthTable> = b_lut
                .inputs
                .iter()
                .map(|&src| {
                    if src == LutSource::Lut(LutId::from_index(a)) {
                        // a's table re-expressed over the merged list.
                        let lift: Vec<TruthTable> = a_inputs
                            .iter()
                            .map(|&s| {
                                let pos = merged.iter().position(|&u| u == s).expect("merged");
                                TruthTable::var(merged.len(), pos)
                            })
                            .collect();
                        a_table.compose(&lift)
                    } else {
                        let pos = merged.iter().position(|&u| u == src).expect("merged");
                        TruthTable::var(merged.len(), pos)
                    }
                })
                .collect();
            let composed = b_lut.table.compose(&comp);
            let (table, support) = composed.shrunk();
            let before = merged.len();
            let inputs: Vec<LutSource> = support.iter().map(|&p| merged[p]).collect();
            stats.dropped_inputs += (before - inputs.len()) as u64;
            work[b] = Some(WorkLut { inputs, table });
            work[a] = None;
            stats.removed_luts += 1;
            changed = true;
        }
        if !changed {
            return;
        }
    }
}

/// Rebuilds a [`LutCircuit`] from the surviving work LUTs, keeping
/// only those reachable from the outputs and preserving topological
/// order.
fn rebuild(
    circuit: &LutCircuit,
    work: Vec<Option<WorkLut>>,
    outputs: Vec<(String, LutSource, bool)>,
    mut stats: PackStats,
) -> Result<(LutCircuit, PackStats), MapError> {
    let mut live = vec![false; work.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &(_, src, _) in &outputs {
        if let LutSource::Lut(j) = src {
            stack.push(j.index());
        }
    }
    while let Some(i) = stack.pop() {
        if live[i] {
            continue;
        }
        live[i] = true;
        if let Some(lut) = &work[i] {
            for src in &lut.inputs {
                if let LutSource::Lut(j) = src {
                    stack.push(j.index());
                }
            }
        }
    }
    let mut packed = LutCircuit::new(circuit.k());
    let mut remap: Vec<Option<LutId>> = vec![None; work.len()];
    for (i, slot) in work.into_iter().enumerate() {
        let Some(lut) = slot else { continue };
        if !live[i] {
            stats.removed_luts += 1;
            continue;
        }
        let inputs: Vec<LutSource> = lut
            .inputs
            .into_iter()
            .map(|src| match src {
                LutSource::Lut(j) => LutSource::Lut(remap[j.index()].expect("topological order")),
                other => other,
            })
            .collect();
        remap[i] = Some(
            packed
                .add_lut(inputs, lut.table)
                .map_err(MapError::Circuit)?,
        );
    }
    for (name, src, inverted) in outputs {
        let src = match src {
            LutSource::Lut(j) => LutSource::Lut(remap[j.index()].expect("outputs are live")),
            other => other,
        };
        packed.add_output(name, src, inverted);
    }
    debug_assert!(packed.num_luts() <= circuit.num_luts());
    Ok((packed, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chortle_netlist::{check_equivalence, Network, NodeOp, Signal};

    fn pack(circuit: &LutCircuit) -> (LutCircuit, PackStats) {
        pack_circuit(circuit).expect("packs")
    }

    /// Simulates both circuits over random words and compares outputs.
    fn assert_same_function(a: &LutCircuit, b: &LutCircuit, inputs: &[NodeId]) {
        let index = |id: NodeId| inputs.iter().position(|&x| x == id).expect("known input");
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..8 {
            let words: Vec<u64> = inputs
                .iter()
                .map(|_| {
                    state = state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
                    state
                })
                .collect();
            assert_eq!(a.simulate(&words, &index), b.simulate(&words, &index));
        }
    }

    #[test]
    fn drops_an_input_made_redundant_by_the_driving_cone() {
        // l0 = a AND b; l1 = l0 OR (a AND b) — the second conjunct is
        // always equal to l0, so after dedupe-free construction the
        // reachable space of l1 never distinguishes its two inputs.
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let mut c = LutCircuit::new(4);
        let and = TruthTable::var(2, 0).and(&TruthTable::var(2, 1));
        let or = TruthTable::var(2, 0).or(&TruthTable::var(2, 1));
        let l0 = c
            .add_lut(vec![LutSource::Input(a), LutSource::Input(b)], and.clone())
            .unwrap();
        let l1 = c
            .add_lut(vec![LutSource::Input(a), LutSource::Input(b)], and)
            .unwrap();
        let l2 = c
            .add_lut(vec![LutSource::Lut(l0), LutSource::Lut(l1)], or)
            .unwrap();
        c.add_output("z", LutSource::Lut(l2), false);
        let (packed, stats) = pack(&c);
        // l1 dedupes onto l0, and l2 becomes a buffer of l0 — or the
        // whole thing collapses into one AND LUT.
        assert!(packed.num_luts() <= 1, "{}", packed.num_luts());
        assert!(stats.removed_luts >= 2);
        assert_same_function(&c, &packed, &[a, b]);
    }

    #[test]
    fn folds_constant_luts_and_dead_cones() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let mut c = LutCircuit::new(4);
        // l0 = a XOR a = 0 (constant over its reachable space).
        let xor = TruthTable::var(2, 0).xor(&TruthTable::var(2, 1));
        let or = TruthTable::var(2, 0).or(&TruthTable::var(2, 1));
        let l0 = c
            .add_lut(vec![LutSource::Input(a), LutSource::Input(a)], xor)
            .unwrap();
        let l1 = c
            .add_lut(vec![LutSource::Lut(l0), LutSource::Input(a)], or)
            .unwrap();
        c.add_output("z", LutSource::Lut(l1), false);
        let (packed, _) = pack(&c);
        // z = 0 | a = a: everything folds to a wire.
        assert_eq!(packed.num_luts(), 0);
        assert_same_function(&c, &packed, &[a]);
    }

    #[test]
    fn absorbs_inverter_luts_into_consumers() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let mut c = LutCircuit::new(4);
        let inv = TruthTable::var(1, 0).not();
        let and = TruthTable::var(2, 0).and(&TruthTable::var(2, 1));
        let l0 = c.add_lut(vec![LutSource::Input(a)], inv).unwrap();
        let l1 = c
            .add_lut(vec![LutSource::Lut(l0), LutSource::Input(b)], and)
            .unwrap();
        c.add_output("z", LutSource::Lut(l1), false);
        c.add_output("na", LutSource::Lut(l0), false);
        let (packed, _) = pack(&c);
        // The inverter disappears: z = !a & b in one LUT, na = !a via
        // the output's free inversion flag.
        assert_eq!(packed.num_luts(), 1);
        let na = packed.outputs().iter().find(|o| o.name == "na").unwrap();
        assert!(na.inverted);
        assert_same_function(&c, &packed, &[a, b]);
    }

    #[test]
    fn collapses_single_fanout_chains_that_fit_k() {
        let mut net = Network::new();
        let inputs: Vec<NodeId> = (0..4).map(|i| net.add_input(format!("i{i}"))).collect();
        let mut c = LutCircuit::new(4);
        let and = TruthTable::var(2, 0).and(&TruthTable::var(2, 1));
        let l0 = c
            .add_lut(
                vec![LutSource::Input(inputs[0]), LutSource::Input(inputs[1])],
                and.clone(),
            )
            .unwrap();
        let l1 = c
            .add_lut(
                vec![LutSource::Lut(l0), LutSource::Input(inputs[2])],
                and.clone(),
            )
            .unwrap();
        let l2 = c
            .add_lut(vec![LutSource::Lut(l1), LutSource::Input(inputs[3])], and)
            .unwrap();
        c.add_output("z", LutSource::Lut(l2), false);
        let (packed, stats) = pack(&c);
        // i0&i1&i2&i3 fits one 4-LUT.
        assert_eq!(packed.num_luts(), 1);
        assert_eq!(stats.removed_luts, 2);
        assert_same_function(&c, &packed, &inputs);
    }

    #[test]
    fn never_increases_lut_count_on_mapped_suite_circuits() {
        use crate::{map_network, MapOptions};
        // A few structurally varied networks through the real mapper.
        let mut net = Network::new();
        let ins: Vec<Signal> = (0..9)
            .map(|i| Signal::new(net.add_input(format!("x{i}"))))
            .collect();
        let g1 = Signal::new(net.add_gate(NodeOp::And, vec![ins[0], ins[1], ins[2]]));
        let g2 = Signal::new(net.add_gate(NodeOp::Or, vec![g1, !ins[3], ins[4]]));
        let g3 = Signal::new(net.add_gate(NodeOp::And, vec![g2, ins[5], ins[6], ins[7]]));
        let g4 = Signal::new(net.add_gate(NodeOp::Or, vec![g3, ins[8], g1]));
        net.add_output("z", g4);
        net.add_output("mid", !g2);
        for k in [3, 4, 5] {
            let mapped = map_network(&net, &MapOptions::builder(k).build().unwrap()).expect("maps");
            let (packed, _) = pack(&mapped.circuit);
            assert!(packed.num_luts() <= mapped.circuit.num_luts(), "k={k}");
            check_equivalence(&net, &packed).expect("packed circuit stays equivalent");
        }
    }

    #[test]
    fn random_circuits_pack_equivalently() {
        // Property test: random mapped networks, packed output must
        // agree with the unpacked output on every simulated pattern.
        use crate::{map_network, MapOptions};
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..12 {
            let mut net = Network::new();
            let n_in = 3 + (rng() % 5) as usize;
            let mut pool: Vec<Signal> = (0..n_in)
                .map(|i| Signal::new(net.add_input(format!("p{i}"))))
                .collect();
            let gates = 3 + (rng() % 6) as usize;
            for _ in 0..gates {
                let fanin = 2 + (rng() % 3) as usize;
                let children: Vec<Signal> = (0..fanin)
                    .map(|_| {
                        let s = pool[(rng() % pool.len() as u64) as usize];
                        if rng() % 3 == 0 {
                            !s
                        } else {
                            s
                        }
                    })
                    .collect();
                let op = if rng() % 2 == 0 {
                    NodeOp::And
                } else {
                    NodeOp::Or
                };
                pool.push(Signal::new(net.add_gate(op, children)));
            }
            let top = *pool.last().unwrap();
            net.add_output("z", top);
            let mapped = map_network(&net, &MapOptions::builder(4).build().unwrap()).expect("maps");
            let (packed, _) = pack(&mapped.circuit);
            assert!(
                packed.num_luts() <= mapped.circuit.num_luts(),
                "round {round}"
            );
            check_equivalence(&net, &packed).unwrap_or_else(|e| panic!("round {round}: {e:?}"));
        }
    }
}
