//! NPN canonicalization of small Boolean functions.
//!
//! The MIS library "needs to contain only a single instance of all boolean
//! functions that are permutations of each other" (paper Section 4.1), and
//! since the comparison does not count inverters ("a simple post-processor
//! could easily merge all inverters into the lookup tables"), input and
//! output complementation are free as well. Membership is therefore
//! decided on the NPN canonical form: the lexicographically smallest truth
//! table over all input Negations, input Permutations, and output
//! Negation.
//!
//! Functions are restricted to at most [`MAX_CANON_VARS`] variables, which
//! covers every library cell of a K ≤ 6 lookup table; tables fit one
//! `u64`.

use chortle_netlist::TruthTable;

/// Largest function arity supported by [`canonical_npn`].
pub const MAX_CANON_VARS: usize = 6;

/// Bit patterns of the variables within a 64-bit truth table word.
const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Valid-bit mask for a `vars`-variable table packed into a `u64`.
fn table_mask(vars: usize) -> u64 {
    if vars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << vars)) - 1
    }
}

/// Complements input `i` of a packed table: swaps the half-blocks where
/// variable `i` is 0 and 1.
fn flip_input(t: u64, i: usize) -> u64 {
    let shift = 1u32 << i;
    ((t & VAR_MASKS[i]) >> shift) | ((t & !VAR_MASKS[i]) << shift)
}

/// Swaps adjacent variables `i` and `i+1` of a packed table.
fn swap_adjacent(t: u64, i: usize) -> u64 {
    let shift = 1u32 << i;
    let hi = VAR_MASKS[i] & !VAR_MASKS[i + 1]; // var i set, var i+1 clear
    let lo = !VAR_MASKS[i] & VAR_MASKS[i + 1]; // var i clear, var i+1 set
    (t & !(hi | lo)) | ((t & hi) << shift) | ((t & lo) >> shift)
}

/// Swaps arbitrary variables `i < j` of a packed table: minterms with
/// var `j` set and var `i` clear trade places with their var-`i`-set,
/// var-`j`-clear partners, a distance of `2^j - 2^i` index positions.
fn swap_vars(t: u64, i: usize, j: usize) -> u64 {
    debug_assert!(i < j);
    let down = VAR_MASKS[j] & !VAR_MASKS[i]; // var j set, var i clear
    let up = VAR_MASKS[i] & !VAR_MASKS[j]; // var i set, var j clear
    let shift = (1u32 << j) - (1u32 << i);
    (t & !(down | up)) | ((t & down) >> shift) | ((t & up) << shift)
}

/// Applies a variable permutation (`perm[i]` = new position of old
/// variable `i`) via adjacent transpositions.
fn apply_perm(mut t: u64, perm: &[usize]) -> u64 {
    let n = perm.len();
    let mut cur: Vec<usize> = (0..n).collect();
    for target in 0..n {
        let old = perm.iter().position(|&p| p == target).expect("permutation");
        let mut pos = cur.iter().position(|&c| c == old).expect("tracked");
        while pos > target {
            t = swap_adjacent(t, pos - 1);
            cur.swap(pos - 1, pos);
            pos -= 1;
        }
    }
    t
}

/// All permutations of `0..n` (intended for small `n`).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for sub in permutations(n - 1) {
        for pos in 0..n {
            let mut p = sub.clone();
            p.insert(pos, n - 1);
            out.push(p);
        }
    }
    out
}

/// The NPN canonical form of a packed truth table.
///
/// # Panics
///
/// Panics if `vars > MAX_CANON_VARS`.
///
/// # Examples
///
/// ```
/// use chortle_mis::canonical_npn_u64;
///
/// // a AND b and a OR b are NPN-equivalent (De Morgan).
/// let and2 = 0b1000u64;
/// let or2 = 0b1110u64;
/// assert_eq!(canonical_npn_u64(and2, 2), canonical_npn_u64(or2, 2));
/// // XOR is its own class, distinct from AND/OR.
/// assert_ne!(canonical_npn_u64(0b0110, 2), canonical_npn_u64(and2, 2));
/// ```
pub fn canonical_npn_u64(table: u64, vars: usize) -> u64 {
    assert!(
        vars <= MAX_CANON_VARS,
        "NPN canonicalization supports at most {MAX_CANON_VARS} variables"
    );
    let mask = table_mask(vars);
    // Gray-code walk over the input-complementation lattice of one
    // permuted table, folding both output polarities into the running
    // minimum.
    let flips_min = |p: u64, best: &mut u64| {
        let mut cur = p;
        let mut gray_prev = 0u32;
        for g in 0..(1u32 << vars) {
            let gray = g ^ (g >> 1);
            let diff = gray ^ gray_prev;
            if diff != 0 {
                cur = flip_input(cur, diff.trailing_zeros() as usize);
            }
            gray_prev = gray;
            let a = cur & mask;
            let b = !cur & mask;
            if a < *best {
                *best = a;
            }
            if b < *best {
                *best = b;
            }
        }
    };
    // Heap's algorithm visits every variable permutation with a single
    // pair swap between consecutive ones, applied directly to the packed
    // table — no permutation vectors, no per-permutation re-expansion.
    let mut best = u64::MAX;
    let mut cur = table & mask;
    flips_min(cur, &mut best);
    let mut c = [0usize; MAX_CANON_VARS];
    let mut i = 1;
    while i < vars {
        if c[i] < i {
            let a = if i % 2 == 0 { 0 } else { c[i] };
            cur = swap_vars(cur, a.min(i), a.max(i));
            flips_min(cur, &mut best);
            c[i] += 1;
            i = 1;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    best
}

/// A recorded element of the NPN group: the transform that carries a
/// table onto its canonical form.
///
/// The action is `output_flip ∘ input_flips ∘ perm`: the permutation is
/// applied first, then each input `i` with bit `i` set in `input_flips`
/// is complemented (indices are *post-permutation* positions), and
/// finally the output is complemented if `output_flip` is set. This is
/// exactly the order [`canonical_npn_with_transform`] searches in, so
/// `apply_npn_u64(table, &t) == canon` holds for the returned pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NpnTransform {
    /// Number of variables the transform acts on.
    pub vars: u8,
    /// `perm[i]` = new position of old variable `i`; only the first
    /// `vars` entries are meaningful.
    pub perm: [u8; MAX_CANON_VARS],
    /// Bit `i` set = complement post-permutation input `i`.
    pub input_flips: u8,
    /// Complement the output.
    pub output_flip: bool,
}

impl NpnTransform {
    /// The identity transform on `vars` variables.
    pub fn identity(vars: usize) -> Self {
        assert!(vars <= MAX_CANON_VARS);
        let mut perm = [0u8; MAX_CANON_VARS];
        for (i, p) in perm.iter_mut().enumerate() {
            *p = i as u8;
        }
        NpnTransform {
            vars: vars as u8,
            perm,
            input_flips: 0,
            output_flip: false,
        }
    }
}

/// Applies a recorded N/P/N transform to a packed table.
pub fn apply_npn_u64(table: u64, t: &NpnTransform) -> u64 {
    let vars = t.vars as usize;
    let mask = table_mask(vars);
    let perm: Vec<usize> = t.perm[..vars].iter().map(|&p| p as usize).collect();
    let mut cur = apply_perm(table & mask, &perm);
    for i in 0..vars {
        if t.input_flips & (1 << i) != 0 {
            cur = flip_input(cur, i);
        }
    }
    if t.output_flip {
        !cur & mask
    } else {
        cur & mask
    }
}

/// Like [`canonical_npn_u64`], but also returns the transform that maps
/// `table` onto the canonical form (useful for replaying cached
/// decisions and for observability; the canonical value itself is what
/// cache keys use).
///
/// # Panics
///
/// Panics if `vars > MAX_CANON_VARS`.
pub fn canonical_npn_with_transform(table: u64, vars: usize) -> (u64, NpnTransform) {
    assert!(
        vars <= MAX_CANON_VARS,
        "NPN canonicalization supports at most {MAX_CANON_VARS} variables"
    );
    let mask = table_mask(vars);
    let table = table & mask;
    let mut best = u64::MAX;
    let mut best_t = NpnTransform::identity(vars);
    for perm in permutations(vars) {
        let p = apply_perm(table, &perm);
        let mut perm_u8 = [0u8; MAX_CANON_VARS];
        for (i, &v) in perm.iter().enumerate() {
            perm_u8[i] = v as u8;
        }
        let mut cur = p;
        let mut gray_prev = 0u32;
        for g in 0..(1u32 << vars) {
            let gray = g ^ (g >> 1);
            let diff = gray ^ gray_prev;
            if diff != 0 {
                cur = flip_input(cur, diff.trailing_zeros() as usize);
            }
            gray_prev = gray;
            let a = cur & mask;
            let b = !cur & mask;
            if a < best {
                best = a;
                best_t = NpnTransform {
                    vars: vars as u8,
                    perm: perm_u8,
                    input_flips: gray as u8,
                    output_flip: false,
                };
            }
            if b < best {
                best = b;
                best_t = NpnTransform {
                    vars: vars as u8,
                    perm: perm_u8,
                    input_flips: gray as u8,
                    output_flip: true,
                };
            }
        }
    }
    (best, best_t)
}

/// The NPN canonical form of a [`TruthTable`] (must have at most
/// [`MAX_CANON_VARS`] variables).
///
/// # Panics
///
/// Panics if the table has more than [`MAX_CANON_VARS`] variables.
pub fn canonical_npn(table: &TruthTable) -> u64 {
    canonical_npn_u64(table.words()[0], table.num_vars())
}

/// Counts the NPN classes among an iterator of packed tables.
pub fn count_npn_classes<I: IntoIterator<Item = u64>>(tables: I, vars: usize) -> usize {
    let mut set = std::collections::HashSet::new();
    for t in tables {
        set.insert(canonical_npn_u64(t, vars));
    }
    set.len()
}

/// Counts the classes of `vars`-variable functions under input
/// permutation only — the paper's library-size metric ("10 unique
/// functions out of a possible 16" for K=2, "78 out of 256" for K=3,
/// constants excluded).
pub fn count_p_classes_nonconstant(vars: usize) -> usize {
    assert!(vars <= 4, "P-class counting is exhaustive; keep vars small");
    let mask = table_mask(vars);
    let mut set = std::collections::HashSet::new();
    let perms = permutations(vars);
    for t in 0..=mask {
        if t == 0 || t == mask {
            continue;
        }
        let canon = perms
            .iter()
            .map(|p| apply_perm(t, p) & mask)
            .min()
            .expect("at least one permutation");
        set.insert(canon);
    }
    set.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_input_matches_truth_table_semantics() {
        // f = a AND b; flipping a gives !a AND b.
        let f = 0b1000u64;
        let flipped = flip_input(f, 0) & table_mask(2);
        assert_eq!(flipped, 0b0100);
    }

    #[test]
    fn swap_matches_permutation() {
        // f = a AND !b: minterm a=1,b=0 → index 0b01 → bit 1.
        let f = 0b0010u64;
        // After swapping a,b: !a AND b → index 0b10 → bit 2.
        assert_eq!(swap_adjacent(f, 0) & table_mask(2), 0b0100);
    }

    #[test]
    fn canonical_is_invariant_under_group_action() {
        let f = 0b0110_1001_1100_0011u64; // arbitrary 4-var function
        let c = canonical_npn_u64(f, 4);
        assert_eq!(canonical_npn_u64(!f & table_mask(4), 4), c);
        assert_eq!(canonical_npn_u64(flip_input(f, 2), 4), c);
        assert_eq!(canonical_npn_u64(apply_perm(f, &[3, 0, 2, 1]), 4), c);
    }

    #[test]
    fn npn_class_counts_match_known_values() {
        // Known NPN class counts including constants: 1 var: 2, 2 vars: 4,
        // 3 vars: 14.
        assert_eq!(count_npn_classes(0u64..4, 1), 2);
        assert_eq!(count_npn_classes(0u64..16, 2), 4);
        assert_eq!(count_npn_classes(0u64..256, 3), 14);
    }

    #[test]
    fn p_class_counts_match_paper() {
        // Paper Section 4.1: 10 unique nonconstant functions for K=2 and
        // 78 for K=3 under input permutation.
        assert_eq!(count_p_classes_nonconstant(2), 10);
        assert_eq!(count_p_classes_nonconstant(3), 78);
    }

    #[test]
    fn distinct_functions_distinct_classes() {
        // XOR3, MAJ3, AND3 are pairwise NPN-inequivalent.
        let xor3 = 0b1001_0110u64;
        let and3 = 0b1000_0000u64;
        let maj3 = 0b1110_1000u64;
        let cs: std::collections::HashSet<u64> = [xor3, and3, maj3]
            .iter()
            .map(|&t| canonical_npn_u64(t, 3))
            .collect();
        assert_eq!(cs.len(), 3);
    }

    /// SplitMix64 — deterministic, dependency-free PRNG for the
    /// property tests below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_transform(rng: &mut Rng, vars: usize) -> NpnTransform {
        let mut perm = [0u8; MAX_CANON_VARS];
        for (i, p) in perm.iter_mut().enumerate() {
            *p = i as u8;
        }
        // Fisher–Yates over the first `vars` slots.
        for i in (1..vars).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        NpnTransform {
            vars: vars as u8,
            perm,
            input_flips: (rng.next() & ((1 << vars) - 1)) as u8,
            output_flip: rng.next() & 1 == 1,
        }
    }

    #[test]
    fn canonical_is_invariant_under_random_npn_transforms() {
        let mut rng = Rng(0xC0FF_EE00_D15E_A5E1);
        for vars in 1..=4usize {
            let mask = table_mask(vars);
            for _ in 0..200 {
                let table = rng.next() & mask;
                let canon = canonical_npn_u64(table, vars);
                let t = random_transform(&mut rng, vars);
                let image = apply_npn_u64(table, &t);
                assert_eq!(
                    canonical_npn_u64(image, vars),
                    canon,
                    "canonical form changed under {t:?} for table {table:#x} ({vars} vars)"
                );
                // The canonical form is itself canonical (idempotence).
                assert_eq!(canonical_npn_u64(canon, vars), canon);
            }
        }
    }

    #[test]
    fn canonical_is_true_lexicographic_minimum_exhaustive() {
        // At ≤3 vars the whole group and the whole function space are
        // small enough to enumerate: 2^(2^3) tables × 3!·2^3·2 images.
        for vars in 0..=3usize {
            let mask = table_mask(vars);
            let perms = permutations(vars);
            for table in 0..=mask {
                let mut min = u64::MAX;
                for perm in &perms {
                    let p = apply_perm(table, perm);
                    for flips in 0..(1u64 << vars) {
                        let mut cur = p;
                        for i in 0..vars {
                            if flips & (1 << i) != 0 {
                                cur = flip_input(cur, i);
                            }
                        }
                        min = min.min(cur & mask).min(!cur & mask);
                    }
                }
                assert_eq!(
                    canonical_npn_u64(table, vars),
                    min,
                    "not the lexicographic minimum for table {table:#x} ({vars} vars)"
                );
            }
        }
    }

    #[test]
    fn recorded_transform_reproduces_the_canonical_form() {
        let mut rng = Rng(0x5EED_0F00_BA5E_BA11);
        for vars in 0..=4usize {
            let mask = table_mask(vars);
            for _ in 0..100 {
                let table = rng.next() & mask;
                let (canon, t) = canonical_npn_with_transform(table, vars);
                assert_eq!(canon, canonical_npn_u64(table, vars));
                assert_eq!(
                    apply_npn_u64(table, &t),
                    canon,
                    "transform {t:?} does not carry {table:#x} onto its canonical form"
                );
                assert_eq!(t.vars as usize, vars);
            }
        }
    }

    #[test]
    fn identity_transform_is_a_no_op() {
        let t = NpnTransform::identity(3);
        assert_eq!(apply_npn_u64(0b1001_0110, &t), 0b1001_0110);
    }

    #[test]
    fn five_var_canonicalization_is_consistent() {
        let f = 0x0123_4567_89AB_CDEFu64 & table_mask(5);
        let c = canonical_npn_u64(f, 5);
        assert_eq!(canonical_npn_u64(apply_perm(f, &[4, 3, 2, 1, 0]), 5), c);
        assert_eq!(canonical_npn_u64(!f & table_mask(5), 5), c);
    }
}
