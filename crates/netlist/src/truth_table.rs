//! Bit-parallel truth tables for Boolean functions of up to 16 variables.
//!
//! A [`TruthTable`] stores the complete function table of an `n`-variable
//! Boolean function as a packed bit vector: bit `b` of the table is the
//! function value on the input assignment whose binary encoding is `b`
//! (variable `i` is bit `i` of `b`).
//!
//! Truth tables are the working currency of the mapper: every lookup table
//! produced by a technology mapper carries one, library membership in the
//! MIS baseline is decided on canonicalized tables, and functional
//! verification compares tables computed from the source network and from
//! the mapped circuit.

use std::fmt;

/// Maximum number of variables a [`TruthTable`] may have.
///
/// 16 variables fill 1024 `u64` words (64 KiB) per table, which is ample for
/// lookup tables (`K ≤ 8` in practice) and for exhaustive verification of
/// small circuits.
pub const MAX_VARS: usize = 16;

/// Bit patterns of the first six input variables within one 64-bit word.
const VAR_WORDS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A complete truth table of a Boolean function over a fixed number of
/// variables.
///
/// # Examples
///
/// ```
/// use chortle_netlist::TruthTable;
///
/// let a = TruthTable::var(2, 0);
/// let b = TruthTable::var(2, 1);
/// let xor = a.xor(&b);
/// assert!(xor.eval(0b01));
/// assert!(!xor.eval(0b11));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable {
    vars: usize,
    words: Vec<u64>,
}

impl TruthTable {
    /// Number of `u64` words needed for a table over `vars` variables.
    fn word_count(vars: usize) -> usize {
        if vars <= 6 {
            1
        } else {
            1 << (vars - 6)
        }
    }

    /// Mask selecting the valid bits of the last (only) word for small
    /// tables. For `vars >= 6` every bit of every word is valid.
    fn mask(vars: usize) -> u64 {
        if vars >= 6 {
            u64::MAX
        } else {
            (1u64 << (1usize << vars)) - 1
        }
    }

    /// Creates the constant-`value` function over `vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `vars > MAX_VARS`.
    ///
    /// # Examples
    ///
    /// ```
    /// use chortle_netlist::TruthTable;
    /// let t = TruthTable::constant(3, true);
    /// assert!(t.eval(0b101));
    /// ```
    pub fn constant(vars: usize, value: bool) -> Self {
        assert!(vars <= MAX_VARS, "truth table limited to {MAX_VARS} vars");
        let fill = if value { Self::mask(vars) } else { 0 };
        let mut words = vec![fill; Self::word_count(vars)];
        if value && vars < 6 {
            words[0] = Self::mask(vars);
        }
        TruthTable { vars, words }
    }

    /// Creates the projection function of variable `index` over `vars`
    /// variables.
    ///
    /// # Panics
    ///
    /// Panics if `index >= vars` or `vars > MAX_VARS`.
    pub fn var(vars: usize, index: usize) -> Self {
        assert!(vars <= MAX_VARS, "truth table limited to {MAX_VARS} vars");
        assert!(index < vars, "variable index {index} out of range {vars}");
        let mut words = vec![0; Self::word_count(vars)];
        if index < 6 {
            let pat = VAR_WORDS[index] & Self::mask(vars);
            words.fill(pat);
        } else {
            let stride = index - 6;
            for (i, w) in words.iter_mut().enumerate() {
                if (i >> stride) & 1 == 1 {
                    *w = u64::MAX;
                }
            }
        }
        TruthTable { vars, words }
    }

    /// Builds a table by evaluating `f` on every input assignment.
    ///
    /// The assignment is passed as a bit vector: bit `i` is the value of
    /// variable `i`.
    ///
    /// # Examples
    ///
    /// ```
    /// use chortle_netlist::TruthTable;
    /// // Majority of three inputs.
    /// let maj = TruthTable::from_fn(3, |bits| bits.count_ones() >= 2);
    /// assert!(maj.eval(0b110));
    /// assert!(!maj.eval(0b100));
    /// ```
    pub fn from_fn<F: FnMut(u32) -> bool>(vars: usize, mut f: F) -> Self {
        assert!(vars <= MAX_VARS, "truth table limited to {MAX_VARS} vars");
        let mut t = TruthTable::constant(vars, false);
        for bits in 0..(1u32 << vars) {
            if f(bits) {
                t.set(bits, true);
            }
        }
        t
    }

    /// Reconstructs a table from raw words, as produced by [`words`].
    ///
    /// Bits beyond `2^vars` are ignored (masked off).
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than the table requires or if
    /// `vars > MAX_VARS`.
    ///
    /// [`words`]: TruthTable::words
    pub fn from_words(vars: usize, words: &[u64]) -> Self {
        assert!(vars <= MAX_VARS, "truth table limited to {MAX_VARS} vars");
        let n = Self::word_count(vars);
        assert!(words.len() >= n, "expected at least {n} words");
        let mut v = words[..n].to_vec();
        v[0] &= Self::mask(vars);
        if vars < 6 {
            v[0] &= Self::mask(vars);
        }
        TruthTable { vars, words: v }
    }

    /// Number of variables of the function.
    pub fn num_vars(&self) -> usize {
        self.vars
    }

    /// Raw packed table words (bit `b` of the concatenation is the value on
    /// assignment `b`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Evaluates the function on the assignment `bits` (bit `i` of `bits`
    /// is the value of variable `i`).
    ///
    /// # Panics
    ///
    /// Panics if `bits` has a set bit at or above `num_vars`.
    pub fn eval(&self, bits: u32) -> bool {
        assert!(
            (bits as u64) < (1u64 << self.vars),
            "assignment {bits:#b} out of range for {} vars",
            self.vars
        );
        (self.words[(bits >> 6) as usize] >> (bits & 63)) & 1 == 1
    }

    /// Evaluates the function on 64 packed assignments at once.
    ///
    /// `inputs[i]` holds the values of variable `i`, one assignment per
    /// bit; bit `b` of the result is the function value on assignment
    /// `b`. This is the one-word case of the block kernel the simulator
    /// runs; nothing is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`num_vars`].
    ///
    /// # Examples
    ///
    /// ```
    /// use chortle_netlist::TruthTable;
    /// let and = TruthTable::var(2, 0).and(&TruthTable::var(2, 1));
    /// assert_eq!(and.eval_words(&[0b1100, 0b1010]), 0b1000);
    /// ```
    ///
    /// [`num_vars`]: TruthTable::num_vars
    pub fn eval_words(&self, inputs: &[u64]) -> u64 {
        assert_eq!(inputs.len(), self.vars, "one input word per variable");
        let mut blocks: [&[u64]; MAX_VARS] = [&[]; MAX_VARS];
        for (block, word) in blocks.iter_mut().zip(inputs) {
            *block = std::slice::from_ref(word);
        }
        let mut out = 0;
        self.eval_block(&blocks[..self.vars], std::slice::from_mut(&mut out));
        out
    }

    /// Evaluates the function on `out.len()` words of packed assignments:
    /// word `w` of `inputs[i]` holds variable `i` on the assignments of
    /// `out[w]`.
    ///
    /// The table is reduced by a Shannon mux tree (`f0 ^ ((f0 ^ f1) &
    /// x)`), one level per variable, in loops over [`LANES`] words at a
    /// time: the entries of a one-word table (six variables or fewer) are
    /// broadcast once per call, the muxes over variables 0–5 run per
    /// table word, and the word results merge over variables 6 and up.
    /// Words past the last full group of lanes run one at a time.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`num_vars`], or if an input
    /// block is shorter than `out`.
    ///
    /// [`num_vars`]: TruthTable::num_vars
    pub(crate) fn eval_block(&self, inputs: &[&[u64]], out: &mut [u64]) {
        assert_eq!(inputs.len(), self.vars, "one input word per variable");
        let mut entries = [0u64; 64];
        let single = (self.words.len() == 1).then(|| {
            broadcast(self.words[0], &mut entries[..1 << self.vars]);
            &entries
        });
        let full = out.len() - out.len() % LANES;
        let (head, tail) = out.split_at_mut(full);
        for (c, group) in head.chunks_exact_mut(LANES).enumerate() {
            let f: [u64; LANES] = self.eval_lanes(inputs, c * LANES, single);
            group.copy_from_slice(&f);
        }
        for (w, word) in tail.iter_mut().enumerate() {
            *word = self.eval_lanes::<1>(inputs, full + w, single)[0];
        }
    }

    /// The function on words `at..at + L` of `inputs`; `single` holds the
    /// broadcast entries of a one-word table.
    fn eval_lanes<const L: usize>(
        &self,
        inputs: &[&[u64]],
        at: usize,
        single: Option<&[u64; 64]>,
    ) -> [u64; L] {
        let lanes = |x: &[u64]| -> [u64; L] {
            x[at..at + L]
                .try_into()
                .expect("an input block covers the lanes")
        };
        let (low, high) = inputs.split_at(self.vars.min(6));
        if let Some(entries) = single {
            return reduce_lanes(entries, low, at);
        }
        // Word results merge like a binary counter: `level[j]` holds a
        // pending result over variables 6..6+j, muxed with its right
        // sibling by variable `6 + j` as soon as that sibling exists.
        let mut level = [[0u64; L]; MAX_VARS - 6 + 1];
        let mut entries = [0u64; 64];
        for (i, &word) in self.words.iter().enumerate() {
            broadcast(word, &mut entries);
            let mut f = reduce_lanes(&entries, low, at);
            let mut j = 0;
            while (i >> j) & 1 == 1 {
                f = mux_lanes(&level[j], &f, &lanes(high[j]));
                j += 1;
            }
            level[j] = f;
        }
        level[high.len()]
    }

    /// Sets the function value on assignment `bits`.
    pub fn set(&mut self, bits: u32, value: bool) {
        assert!((bits as u64) < (1u64 << self.vars));
        let w = &mut self.words[(bits >> 6) as usize];
        if value {
            *w |= 1u64 << (bits & 63);
        } else {
            *w &= !(1u64 << (bits & 63));
        }
    }

    /// Number of input assignments on which the function is true.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Returns `true` if the function is constant false.
    pub fn is_false(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Returns `true` if the function is constant true.
    pub fn is_true(&self) -> bool {
        self.count_ones() == 1u64 << self.vars
    }

    fn zip(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(
            self.vars, other.vars,
            "truth tables must have the same variable count"
        );
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(&a, &b)| f(a, b))
            .collect();
        TruthTable {
            vars: self.vars,
            words,
        }
    }

    /// Bitwise AND of two functions over the same variables.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    pub fn and(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR of two functions over the same variables.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    pub fn or(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise XOR of two functions over the same variables.
    ///
    /// # Panics
    ///
    /// Panics if the variable counts differ.
    pub fn xor(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a ^ b)
    }

    /// Complement of the function.
    pub fn not(&self) -> Self {
        let mask = Self::mask(self.vars);
        let mut words: Vec<u64> = self.words.iter().map(|&w| !w).collect();
        if self.vars < 6 {
            words[0] &= mask;
        }
        TruthTable {
            vars: self.vars,
            words,
        }
    }

    /// Returns `true` if the function's value can change when variable
    /// `index` flips, i.e. the function genuinely depends on that variable.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_vars`.
    pub fn depends_on(&self, index: usize) -> bool {
        assert!(index < self.vars);
        let pos = self.cofactor(index, true);
        let neg = self.cofactor(index, false);
        pos != neg
    }

    /// Bit mask of the variables the function actually depends on.
    ///
    /// # Examples
    ///
    /// ```
    /// use chortle_netlist::TruthTable;
    /// let a = TruthTable::var(3, 0);
    /// let c = TruthTable::var(3, 2);
    /// assert_eq!(a.or(&c).support(), 0b101);
    /// ```
    pub fn support(&self) -> u32 {
        let mut mask = 0;
        for i in 0..self.vars {
            if self.depends_on(i) {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Number of variables in the support.
    pub fn support_size(&self) -> usize {
        self.support().count_ones() as usize
    }

    /// Cofactor with variable `index` fixed to `value`. The result keeps the
    /// same variable count; the fixed variable becomes irrelevant.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_vars`.
    pub fn cofactor(&self, index: usize, value: bool) -> Self {
        assert!(index < self.vars);
        let mut out = self.clone();
        if index < 6 {
            let shift = 1u32 << index;
            let pat = VAR_WORDS[index];
            for w in &mut out.words {
                if value {
                    let kept = *w & pat;
                    *w = kept | (kept >> shift);
                } else {
                    let kept = *w & !pat;
                    *w = kept | (kept << shift);
                }
            }
        } else {
            let stride = 1usize << (index - 6);
            let n = out.words.len();
            let mut i = 0;
            while i < n {
                for j in 0..stride {
                    let (src, dst) = if value {
                        (i + stride + j, i + j)
                    } else {
                        (i + j, i + stride + j)
                    };
                    out.words[dst] = out.words[src];
                }
                i += stride * 2;
            }
        }
        if self.vars < 6 {
            out.words[0] &= Self::mask(self.vars);
        }
        out
    }

    /// Swaps adjacent variables `index` and `index + 1`.
    fn swap_adjacent(&mut self, index: usize) {
        let vars = self.vars;
        assert!(index + 1 < vars);
        if index + 1 < 6 {
            // Both variables live inside each word.
            let lo = 1u32 << index;
            let a = VAR_WORDS[index] & !VAR_WORDS[index + 1]; // var set, next clear
            let b = !VAR_WORDS[index] & VAR_WORDS[index + 1]; // var clear, next set
            for w in &mut self.words {
                let keep = *w & !(a | b);
                let up = (*w & b) >> lo;
                let down = (*w & a) << lo;
                *w = keep | up | down;
            }
        } else if index >= 6 {
            // Both variables select whole words.
            let s0 = 1usize << (index - 6);
            let s1 = 1usize << (index + 1 - 6);
            let n = self.words.len();
            let mut base = 0;
            while base < n {
                for off in 0..s0 {
                    // Swap blocks where bit(index)=1,bit(index+1)=0 with
                    // bit(index)=0,bit(index+1)=1.
                    self.words.swap(base + s0 + off, base + s1 + off);
                }
                base += s1 * 2;
            }
        } else {
            // index == 5: variable 5 is the top half of each word; variable
            // 6 selects odd words. Swap half-words across word pairs.
            let n = self.words.len();
            let mut i = 0;
            while i < n {
                let lo = self.words[i];
                let hi = self.words[i + 1];
                self.words[i] = lo & 0x0000_0000_FFFF_FFFF | ((hi & 0x0000_0000_FFFF_FFFF) << 32);
                self.words[i + 1] =
                    ((lo >> 32) & 0x0000_0000_FFFF_FFFF) | (hi & 0xFFFF_FFFF_0000_0000);
                i += 2;
            }
        }
        if self.vars < 6 {
            self.words[0] &= Self::mask(self.vars);
        }
    }

    /// Returns the table with variables renamed so that new variable
    /// `perm[i]` plays the role of old variable `i`.
    ///
    /// `perm` must be a permutation of `0..num_vars`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_vars`.
    ///
    /// # Examples
    ///
    /// ```
    /// use chortle_netlist::TruthTable;
    /// let a = TruthTable::var(2, 0);
    /// let swapped = a.permuted(&[1, 0]);
    /// assert_eq!(swapped, TruthTable::var(2, 1));
    /// ```
    pub fn permuted(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.vars, "permutation length mismatch");
        let mut seen = vec![false; self.vars];
        for &p in perm {
            assert!(p < self.vars && !seen[p], "invalid permutation");
            seen[p] = true;
        }
        // Apply as a sequence of adjacent transpositions (selection sort on
        // current positions).
        let mut cur: Vec<usize> = (0..self.vars).collect(); // cur[pos] = old var at pos
        let mut out = self.clone();
        for target in 0..self.vars {
            // Find the old var that must end at position `target`.
            let old = perm.iter().position(|&p| p == target).expect("permutation");
            let mut pos = cur.iter().position(|&c| c == old).expect("tracked");
            while pos > target {
                out.swap_adjacent(pos - 1);
                cur.swap(pos - 1, pos);
                pos -= 1;
            }
        }
        out
    }

    /// Extends the table to `new_vars` variables; added variables are
    /// irrelevant.
    ///
    /// # Panics
    ///
    /// Panics if `new_vars < num_vars` or `new_vars > MAX_VARS`.
    pub fn extended(&self, new_vars: usize) -> Self {
        assert!(new_vars >= self.vars, "cannot shrink a table");
        assert!(new_vars <= MAX_VARS);
        if new_vars == self.vars {
            return self.clone();
        }
        let mut out = TruthTable::constant(new_vars, false);
        if self.vars < 6 {
            // Replicate the small pattern across the first word, then copy.
            let span = 1usize << self.vars;
            let mut pat = self.words[0];
            let mut width = span;
            while width < 64 {
                pat |= pat << width;
                width *= 2;
            }
            for w in &mut out.words {
                *w = pat;
            }
            out.words[0] &= Self::mask(new_vars);
            if new_vars < 6 {
                out.words[0] = pat & Self::mask(new_vars);
            }
        } else {
            let n = self.words.len();
            for (i, w) in out.words.iter_mut().enumerate() {
                *w = self.words[i % n];
            }
        }
        out
    }

    /// Shrinks the table to its support: returns the function expressed over
    /// exactly the variables it depends on (in ascending original order),
    /// together with those original variable indices.
    ///
    /// # Examples
    ///
    /// ```
    /// use chortle_netlist::TruthTable;
    /// let c = TruthTable::var(4, 2);
    /// let (shrunk, vars) = c.shrunk();
    /// assert_eq!(vars, vec![2]);
    /// assert_eq!(shrunk, TruthTable::var(1, 0));
    /// ```
    pub fn shrunk(&self) -> (Self, Vec<usize>) {
        let support: Vec<usize> = (0..self.vars).filter(|&i| self.depends_on(i)).collect();
        let k = support.len();
        let mut out = TruthTable::constant(k, false);
        for bits in 0..(1u32 << k) {
            // Expand bits onto the original variables; irrelevant vars = 0.
            let mut full = 0u32;
            for (j, &v) in support.iter().enumerate() {
                if (bits >> j) & 1 == 1 {
                    full |= 1 << v;
                }
            }
            if self.eval(full) {
                out.set(bits, true);
            }
        }
        (out, support)
    }

    /// Composes variables: returns `self` with each variable `i` substituted
    /// by the function `inputs[i]`, all of which must share a common
    /// variable count.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_vars` or the inputs disagree on their
    /// variable count.
    pub fn compose(&self, inputs: &[TruthTable]) -> TruthTable {
        assert_eq!(inputs.len(), self.vars, "one input table per variable");
        if self.vars == 0 {
            // Constant function; the result is constant over zero variables.
            return self.clone();
        }
        let out_vars = inputs[0].num_vars();
        let mut acc = TruthTable::constant(out_vars, false);
        // Shannon expansion over all minterms of `self`.
        for bits in 0..(1u32 << self.vars) {
            if !self.eval(bits) {
                continue;
            }
            let mut term = TruthTable::constant(out_vars, true);
            for (i, input) in inputs.iter().enumerate() {
                assert_eq!(
                    input.num_vars(),
                    out_vars,
                    "input variable counts must agree"
                );
                if (bits >> i) & 1 == 1 {
                    term = term.and(input);
                } else {
                    term = term.and(&input.not());
                }
            }
            acc = acc.or(&term);
        }
        acc
    }
}

/// Words per group of the block kernel: fixed-length lane arrays the
/// compiler unrolls and vectorizes. 16 measured faster than 4, 8 and 32
/// on the mapped suite.
const LANES: usize = 16;

/// Shannon multiplexer on packed words: `f1` where `x` is set, else `f0`.
fn mux(f0: u64, f1: u64, x: u64) -> u64 {
    f0 ^ ((f0 ^ f1) & x)
}

/// [`mux`] lane by lane.
fn mux_lanes<const L: usize>(f0: &[u64; L], f1: &[u64; L], x: &[u64; L]) -> [u64; L] {
    std::array::from_fn(|w| mux(f0[w], f1[w], x[w]))
}

/// Bit `b` of `word` as an all-zero or all-one word in `entries[b]`,
/// for every entry.
fn broadcast(word: u64, entries: &mut [u64]) {
    for (b, entry) in entries.iter_mut().enumerate() {
        *entry = 0u64.wrapping_sub((word >> b) & 1);
    }
}

/// Evaluates the `2^x.len()`-entry table of broadcast `entries` on words
/// `at..at + L` of the blocks `x` (at most six variables).
fn reduce_lanes<const L: usize>(entries: &[u64; 64], x: &[&[u64]], at: usize) -> [u64; L] {
    let zero = [0u64; L];
    let mut v = [&zero; 6];
    for (v, x) in v.iter_mut().zip(x) {
        *v = x[at..at + L]
            .try_into()
            .expect("an input block covers the lanes");
    }
    match x.len() {
        0 => [entries[0]; L],
        1 => shannon1(entries, &v),
        2 => shannon2(entries, &v),
        3 => shannon3(entries, &v),
        4 => shannon4(entries, &v),
        5 => shannon5(entries, &v),
        _ => shannon6(entries, &v),
    }
}

// The Shannon mux tree over variables 0..k of the first `2^k` entries of
// `e`, one function per k: each inlines the one below it twice, so every
// tree is straight-line code that keeps its cofactors in registers.

#[inline(always)]
fn shannon1<const L: usize>(e: &[u64], x: &[&[u64; L]; 6]) -> [u64; L] {
    let (e0, flip) = (e[0], e[0] ^ e[1]);
    std::array::from_fn(|w| e0 ^ (flip & x[0][w]))
}

#[inline(always)]
fn shannon2<const L: usize>(e: &[u64], x: &[&[u64; L]; 6]) -> [u64; L] {
    mux_lanes(&shannon1(&e[..2], x), &shannon1(&e[2..4], x), x[1])
}

#[inline(always)]
fn shannon3<const L: usize>(e: &[u64], x: &[&[u64; L]; 6]) -> [u64; L] {
    mux_lanes(&shannon2(&e[..4], x), &shannon2(&e[4..8], x), x[2])
}

#[inline(always)]
fn shannon4<const L: usize>(e: &[u64], x: &[&[u64; L]; 6]) -> [u64; L] {
    mux_lanes(&shannon3(&e[..8], x), &shannon3(&e[8..16], x), x[3])
}

#[inline(always)]
fn shannon5<const L: usize>(e: &[u64], x: &[&[u64; L]; 6]) -> [u64; L] {
    mux_lanes(&shannon4(&e[..16], x), &shannon4(&e[16..32], x), x[4])
}

fn shannon6<const L: usize>(e: &[u64], x: &[&[u64; L]; 6]) -> [u64; L] {
    mux_lanes(&shannon5(&e[..32], x), &shannon5(&e[32..64], x), x[5])
}

/// The 64-assignment words of exhaustive chunk `chunk`: `words[i]` gets
/// the values of variable `i` on assignments `chunk * 64 ..
/// chunk * 64 + 63`, one per bit — word `chunk` of
/// [`TruthTable::var`]`(_, i)`. Sweeping `chunk` over `0..2^(n-6)`
/// (just chunk 0 when `n ≤ 6`) enumerates every assignment of `n =
/// words.len()` variables; for `n < 6` the bits from `2^n` up repeat
/// earlier assignments and callers mask them off.
///
/// # Examples
///
/// ```
/// use chortle_netlist::exhaustive_chunk;
/// let mut words = [0u64; 8];
/// exhaustive_chunk(3, &mut words);
/// assert_eq!(words[0], 0xAAAA_AAAA_AAAA_AAAA);
/// assert_eq!((words[6], words[7]), (u64::MAX, u64::MAX)); // 3 = 0b11
/// ```
pub fn exhaustive_chunk(chunk: u64, words: &mut [u64]) {
    for (i, w) in words.iter_mut().enumerate() {
        *w = match VAR_WORDS.get(i) {
            Some(&pattern) => pattern,
            None if chunk.checked_shr((i - 6) as u32).unwrap_or(0) & 1 == 1 => u64::MAX,
            None => 0,
        };
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars: ", self.vars)?;
        if self.vars <= 6 {
            write!(f, "{:#x}", self.words[0])?;
        } else {
            write!(f, "{} words", self.words.len())?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for TruthTable {
    /// Hex dump of the table, most-significant assignment first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for w in self.words.iter().rev() {
            write!(f, "{w:016x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn eval_block_agrees_with_eval_words_word_by_word() {
        // Two full groups of lanes and a tail, on one-word and multi-word
        // tables.
        let width = 2 * LANES + 5;
        let mut rng = SplitMix64::new(0xb10c_4e41);
        for vars in (0..=8).chain([10]) {
            let words: Vec<u64> = (0..TruthTable::word_count(vars))
                .map(|_| rng.next_u64())
                .collect();
            let t = TruthTable::from_words(vars, &words);
            let inputs: Vec<Vec<u64>> = (0..vars)
                .map(|_| (0..width).map(|_| rng.next_u64()).collect())
                .collect();
            let blocks: Vec<&[u64]> = inputs.iter().map(Vec::as_slice).collect();
            let mut out = vec![0u64; width];
            t.eval_block(&blocks, &mut out);
            for (w, &got) in out.iter().enumerate() {
                let word: Vec<u64> = inputs.iter().map(|x| x[w]).collect();
                assert_eq!(got, t.eval_words(&word), "{vars} vars, word {w}");
            }
        }
    }

    #[test]
    fn constants() {
        let t = TruthTable::constant(3, true);
        assert!(t.is_true());
        assert!(!t.is_false());
        assert_eq!(t.count_ones(), 8);
        let f = TruthTable::constant(3, false);
        assert!(f.is_false());
        assert_eq!(f.count_ones(), 0);
    }

    #[test]
    fn constant_large() {
        let t = TruthTable::constant(9, true);
        assert!(t.is_true());
        assert_eq!(t.count_ones(), 512);
    }

    #[test]
    fn var_small() {
        for vars in 1..=6 {
            for i in 0..vars {
                let t = TruthTable::var(vars, i);
                for bits in 0..(1u32 << vars) {
                    assert_eq!(
                        t.eval(bits),
                        (bits >> i) & 1 == 1,
                        "vars={vars} i={i} bits={bits:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn var_large() {
        let t = TruthTable::var(9, 8);
        for bits in [0u32, 1, 255, 256, 511] {
            assert_eq!(t.eval(bits), bits >= 256);
        }
    }

    #[test]
    fn ops_match_bit_semantics() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        let f = a.and(&b).or(&c.not());
        for bits in 0..8u32 {
            let (x, y, z) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            assert_eq!(f.eval(bits), (x && y) || !z);
        }
    }

    #[test]
    fn from_fn_roundtrip() {
        let t = TruthTable::from_fn(4, |b| b.count_ones() % 2 == 1);
        for bits in 0..16u32 {
            assert_eq!(t.eval(bits), bits.count_ones() % 2 == 1);
        }
    }

    #[test]
    fn cofactor_small() {
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let f = a.and(&b);
        assert_eq!(f.cofactor(0, true), b);
        assert!(f.cofactor(0, false).is_false());
    }

    #[test]
    fn cofactor_large_var() {
        let t = TruthTable::var(8, 7).xor(&TruthTable::var(8, 0));
        let pos = t.cofactor(7, true);
        assert_eq!(pos, TruthTable::var(8, 0).not());
        let neg = t.cofactor(7, false);
        assert_eq!(neg, TruthTable::var(8, 0));
    }

    #[test]
    fn support_and_depends() {
        let f = TruthTable::var(5, 1).or(&TruthTable::var(5, 4));
        assert_eq!(f.support(), 0b10010);
        assert!(!f.depends_on(0));
        assert!(f.depends_on(1));
        assert_eq!(f.support_size(), 2);
    }

    #[test]
    fn permutation_identity_and_swap() {
        let f = TruthTable::var(3, 0).and(&TruthTable::var(3, 1).not());
        assert_eq!(f.permuted(&[0, 1, 2]), f);
        let g = f.permuted(&[1, 0, 2]);
        let expected = TruthTable::var(3, 1).and(&TruthTable::var(3, 0).not());
        assert_eq!(g, expected);
    }

    #[test]
    fn permutation_across_word_boundary() {
        // 8 variables: permute var 0 <-> var 7.
        let f = TruthTable::var(8, 0).and(&TruthTable::var(8, 3));
        let mut perm: Vec<usize> = (0..8).collect();
        perm.swap(0, 7);
        let g = f.permuted(&perm);
        assert_eq!(g, TruthTable::var(8, 7).and(&TruthTable::var(8, 3)));
        // Round trip.
        assert_eq!(g.permuted(&perm), f);
    }

    #[test]
    fn permutation_rotation() {
        let f = TruthTable::from_fn(4, |b| b == 0b0110);
        let perm = [1usize, 2, 3, 0]; // old var i -> new var perm[i]
        let g = f.permuted(&perm);
        // assignment on new vars: old bits b map to new bits b' with
        // b'[perm[i]] = b[i]; old 0b0110 (vars 1,2) -> new vars 2,3.
        assert!(g.eval(0b1100));
        assert_eq!(g.count_ones(), 1);
    }

    #[test]
    fn extend_preserves_function() {
        let f = TruthTable::var(2, 1);
        let g = f.extended(7);
        for bits in 0..128u32 {
            assert_eq!(g.eval(bits), (bits >> 1) & 1 == 1);
        }
    }

    #[test]
    fn shrink_removes_dead_vars() {
        let f = TruthTable::var(5, 3).xor(&TruthTable::var(5, 1));
        let (s, vars) = f.shrunk();
        assert_eq!(vars, vec![1, 3]);
        assert_eq!(s, TruthTable::var(2, 0).xor(&TruthTable::var(2, 1)));
    }

    #[test]
    fn compose_builds_nested_function() {
        // f(x, y) = x AND y composed with x = a OR b, y = NOT c over 3 vars.
        let f = TruthTable::var(2, 0).and(&TruthTable::var(2, 1));
        let a_or_b = TruthTable::var(3, 0).or(&TruthTable::var(3, 1));
        let not_c = TruthTable::var(3, 2).not();
        let g = f.compose(&[a_or_b, not_c]);
        for bits in 0..8u32 {
            let (a, b, c) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            assert_eq!(g.eval(bits), (a || b) && !c);
        }
    }

    #[test]
    fn display_is_hex() {
        let t = TruthTable::var(2, 0);
        assert_eq!(format!("{t}"), format!("{:016x}", 0b1010u64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn eval_out_of_range_panics() {
        TruthTable::constant(2, false).eval(4);
    }

    #[test]
    #[should_panic(expected = "same variable count")]
    fn mixed_arity_ops_panic() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(3, 0);
        let _ = a.and(&b);
    }
}
