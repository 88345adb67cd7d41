//! Node-local bit rows: the word-level cube form of the algebra's hot
//! loops.
//!
//! A [`Space`] remaps the support of one SOP (or of a few SOPs handled
//! together) to local indices `0..n` in ascending global order. A cube
//! over that space is a *row* of `⌈2n/64⌉` `u64` words; bit `2i` is the
//! literal `xᵢ` and bit `2i+1` is `!xᵢ`. Because the remap keeps the
//! variable order, local bit order is global [`Literal`] code order, and
//! [`cmp_rows`] orders rows exactly as [`Cube`]'s `Ord` orders the cubes
//! they stand for. [`Rows`] keeps a list of rows in one flat `Vec<u64>`.
//!
//! On rows, containment is `d & !c == 0`, the quotient of a cube by a
//! cube it covers is `c & !d`, a product is `a | b` (contradictory when
//! `p & (p >> 1) & 0x5555…` is non-zero) and a literal count is
//! `count_ones`. Division, kernel enumeration, `eliminate`'s rewrite,
//! containment minimization and factoring run on rows and leave as
//! [`Sop`]s with the same cubes in the same order.

use std::cmp::Ordering;
use std::slice::ChunksExact;

use crate::cube::{Cube, Literal};
use crate::sop::Sop;

/// Even bits of a word: the positive literal of every variable.
const EVEN: u64 = 0x5555_5555_5555_5555;

/// The local literal space of a node: its support in ascending order.
pub(crate) struct Space {
    /// Local index -> global variable, ascending.
    vars: Vec<usize>,
    width: usize,
}

impl Space {
    /// The space of every variable referenced by `sops`.
    pub(crate) fn of(sops: &[&Sop]) -> Space {
        let mut vars: Vec<usize> = Vec::with_capacity(sops.iter().map(|s| s.num_literals()).sum());
        for s in sops {
            for c in s.cubes() {
                vars.extend(c.literals().iter().map(|l| l.var()));
            }
        }
        vars.sort_unstable();
        vars.dedup();
        let width = (2 * vars.len()).div_ceil(64).max(1);
        Space { vars, width }
    }

    /// The local bit of `lit`, or `None` if its variable is outside the
    /// space.
    pub(crate) fn bit(&self, lit: Literal) -> Option<usize> {
        let local = self.vars.binary_search(&lit.var()).ok()?;
        Some(2 * local + usize::from(lit.is_inverted()))
    }

    /// The literal of local bit `bit`.
    pub(crate) fn literal(&self, bit: usize) -> Literal {
        Literal::with_phase(self.vars[bit >> 1], bit & 1 == 1)
    }

    /// The rows of `sop`'s cubes, in its order.
    ///
    /// # Panics
    ///
    /// Panics if `sop` references a variable outside the space.
    pub(crate) fn rows(&self, sop: &Sop) -> Rows {
        let mut rows = Rows {
            width: self.width,
            bits: Vec::with_capacity(sop.num_cubes() * self.width),
        };
        for c in sop.cubes() {
            let row = rows.push_zero();
            for &l in c.literals() {
                let b = self.bit(l).expect("literal inside the space");
                row[b / 64] |= 1 << (b % 64);
            }
        }
        rows
    }

    /// The cube of `row`.
    pub(crate) fn cube(&self, row: &[u64]) -> Cube {
        let mut lits = Vec::with_capacity(literals(row));
        lits.extend(ones(row).map(|b| self.literal(b)));
        Cube::from_sorted(lits)
    }

    /// The SOP of `rows`, which must be sorted and duplicate-free.
    pub(crate) fn sop(&self, rows: &Rows) -> Sop {
        Sop::from_sorted(rows.iter().map(|r| self.cube(r)).collect())
    }
}

/// Set bits of `row`, ascending.
pub(crate) fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            if word == 0 {
                return None;
            }
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            Some(w * 64 + b)
        })
    })
}

/// Whether cube `d` covers cube `c` (every literal of `d` is in `c`).
pub(crate) fn covers(d: &[u64], c: &[u64]) -> bool {
    d.iter().zip(c).all(|(&d, &c)| d & !c == 0)
}

/// Whether the product row `p` holds both phases of some variable.
pub(crate) fn contradictory(p: &[u64]) -> bool {
    p.iter().any(|&w| w & (w >> 1) & EVEN != 0)
}

/// Literal count of a row.
pub(crate) fn literals(row: &[u64]) -> usize {
    row.iter().map(|w| w.count_ones() as usize).sum()
}

/// Orders rows as [`Cube`]'s `Ord` orders their cubes: lexicographically
/// over the ascending literal lists.
///
/// At the lowest differing bit `p`, the row holding `p` continues its
/// list with `p` while the other continues with a larger literal, or has
/// ended (and is then the smaller, as a prefix).
pub(crate) fn cmp_rows(a: &[u64], b: &[u64]) -> Ordering {
    for (w, (&x, &y)) in a.iter().zip(b).enumerate() {
        let diff = x ^ y;
        if diff == 0 {
            continue;
        }
        let p = diff.trailing_zeros();
        let above = if p == 63 { 0 } else { !0u64 << (p + 1) };
        let (other, other_rest, holder_is_a) = if (x >> p) & 1 == 1 {
            (y, &b[w + 1..], true)
        } else {
            (x, &a[w + 1..], false)
        };
        let other_continues = other & above != 0 || other_rest.iter().any(|&v| v != 0);
        return if holder_is_a == other_continues {
            Ordering::Less
        } else {
            Ordering::Greater
        };
    }
    Ordering::Equal
}

/// Orders row lists as `Sop`'s `Ord` orders their cube lists.
pub(crate) fn cmp_sops(a: &Rows, b: &Rows) -> Ordering {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| cmp_rows(x, y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

/// A list of equal-width rows in one flat buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Rows {
    width: usize,
    bits: Vec<u64>,
}

impl Rows {
    /// An empty list of `width`-word rows.
    pub(crate) fn new(width: usize) -> Rows {
        Rows {
            width,
            bits: Vec::new(),
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.bits.len() / self.width
    }

    /// `true` for no rows.
    pub(crate) fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Row `i`.
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.width..(i + 1) * self.width]
    }

    /// The rows in order.
    pub(crate) fn iter(&self) -> ChunksExact<'_, u64> {
        self.bits.chunks_exact(self.width)
    }

    /// Appends a copy of `row`.
    pub(crate) fn push(&mut self, row: &[u64]) {
        self.bits.extend_from_slice(row);
    }

    /// Appends an empty row and returns it.
    pub(crate) fn push_zero(&mut self) -> &mut [u64] {
        let start = self.bits.len();
        self.bits.resize(start + self.width, 0);
        &mut self.bits[start..]
    }

    /// Appends the product of row `i` and `d` and returns it.
    pub(crate) fn push_product(&mut self, i: usize, d: &[u64]) -> &mut [u64] {
        let (w, start) = (self.width, self.bits.len());
        self.bits.extend_from_within(i * w..(i + 1) * w);
        let p = &mut self.bits[start..];
        for (p, &d) in p.iter_mut().zip(d) {
            *p |= d;
        }
        p
    }

    /// Reserves room for `rows` more rows.
    pub(crate) fn reserve(&mut self, rows: usize) {
        self.bits.reserve(rows * self.width);
    }

    /// Drops the last row.
    pub(crate) fn pop(&mut self) {
        self.bits.truncate(self.bits.len() - self.width);
    }

    /// Total literal count.
    pub(crate) fn literal_count(&self) -> usize {
        literals(&self.bits)
    }

    /// The largest cube dividing every row; the empty cube for no rows.
    pub(crate) fn common(&self) -> Vec<u64> {
        let mut it = self.iter();
        let Some(first) = it.next() else {
            return vec![0; self.width];
        };
        let mut common = first.to_vec();
        for r in it {
            for (c, &w) in common.iter_mut().zip(r) {
                *c &= w;
            }
        }
        common
    }

    /// The rows with the literals of `cube` removed, in the same order.
    pub(crate) fn without(mut self, cube: &[u64]) -> Rows {
        for r in self.bits.chunks_exact_mut(self.width) {
            for (w, &c) in r.iter_mut().zip(cube) {
                *w &= !c;
            }
        }
        self
    }

    /// The quotient by the single literal `bit`: every row holding it,
    /// with it removed.
    pub(crate) fn divide_by_literal(&self, bit: usize) -> Rows {
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        let mut out = Rows::new(self.width);
        for r in self.iter().filter(|r| r[word] & mask != 0) {
            out.push(r);
            let last = out.bits.len() - self.width + word;
            out.bits[last] &= !mask;
        }
        out
    }

    /// Keeps the rows for which `keep` holds, in order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&[u64]) -> bool) {
        let w = self.width;
        let mut kept = 0;
        for i in 0..self.len() {
            if keep(&self.bits[i * w..(i + 1) * w]) {
                self.bits.copy_within(i * w..(i + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.bits.truncate(kept * w);
    }

    /// The rows sorted in cube order with duplicates removed.
    pub(crate) fn sorted(self) -> Rows {
        if self.len() < 2 {
            return self;
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_unstable_by(|&i, &j| cmp_rows(self.row(i), self.row(j)));
        order.dedup_by(|i, j| self.row(*i) == self.row(*j));
        let mut out = Rows::new(self.width);
        out.bits.reserve(order.len() * self.width);
        for i in order {
            out.push(self.row(i));
        }
        out
    }

    /// Position of `row` in these sorted rows.
    pub(crate) fn find(&self, row: &[u64]) -> Option<usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match cmp_rows(self.row(mid), row) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// The positions, ascending, of the rows single-cube containment
    /// keeps among these distinct rows: those no other row covers.
    ///
    /// Rows are visited by ascending literal count, so a row's proper
    /// divisors come before it. A row is dropped iff a kept row with
    /// fewer literals covers it (every dropped row is itself covered by a
    /// kept one), so each row is checked against that prefix of the kept
    /// rows only.
    pub(crate) fn uncovered(&self) -> impl Iterator<Item = usize> {
        let mut order: Vec<(usize, usize)> = self.iter().map(literals).zip(0..self.len()).collect();
        order.sort_unstable();
        // The kept rows overwrite the visited prefix of `order`;
        // `smaller` of them have fewer literals than the row.
        let (mut kept, mut smaller) = (0, 0);
        for n in 0..order.len() {
            let (lits, i) = order[n];
            if n > 0 && order[n - 1].0 < lits {
                smaller = kept;
            }
            let c = self.row(i);
            if !order[..smaller]
                .iter()
                .any(|&(_, k)| covers(self.row(k), c))
            {
                order[kept] = (lits, i);
                kept += 1;
            }
        }
        order.truncate(kept);
        order.sort_unstable_by_key(|&(_, i)| i);
        order.into_iter().map(|(_, i)| i)
    }

    /// Single-cube-containment minimization of these distinct rows,
    /// keeping their order; constant true (an empty row) absorbs
    /// everything.
    pub(crate) fn minimize(&mut self) {
        if self.len() < 2 {
            return;
        }
        let w = self.width;
        let mut kept = 0;
        for i in self.uncovered() {
            self.bits.copy_within(i * w..(i + 1) * w, kept * w);
            kept += 1;
        }
        self.bits.truncate(kept * w);
    }

    /// Whether the rows form a level-0 kernel: at least two cubes and no
    /// literal in two of them (which also makes them cube-free).
    pub(crate) fn is_level0(&self) -> bool {
        let mut seen = vec![0u64; self.width];
        let mut twice = 0u64;
        for r in self.iter() {
            for (s, &w) in seen.iter_mut().zip(r) {
                twice |= *s & w;
                *s |= w;
            }
        }
        self.len() >= 2 && twice == 0
    }

    /// Literals occurring in at least two rows.
    pub(crate) fn multi_literals(&self) -> Vec<u64> {
        let mut seen = vec![0u64; self.width];
        let mut twice = vec![0u64; self.width];
        for r in self.iter() {
            for ((s, t), &w) in seen.iter_mut().zip(&mut twice).zip(r) {
                *t |= *s & w;
                *s |= w;
            }
        }
        twice
    }
}

/// The weak division `f = q·d + r` on rows: the quotient rows (distinct,
/// in no particular order) and, per row of `f`, whether it is a product
/// `q·d` (otherwise it is in the remainder).
pub(crate) struct Division {
    pub(crate) quotient: Rows,
    pub(crate) in_product: Vec<bool>,
}

impl Division {
    /// Weak division of the sorted, duplicate-free rows `f` by `d`;
    /// `None` when the quotient is empty.
    ///
    /// The quotient is `⋂ⱼ { c & !dⱼ : dⱼ ⊆ c ∈ f }`: it starts from the
    /// first divisor cube's quotients and keeps each `q` with
    /// `q & dⱼ == 0` and `q | dⱼ ∈ f` for every later `dⱼ`.
    pub(crate) fn of(f: &Rows, d: &Rows) -> Option<Division> {
        let mut divisor = d.iter();
        let d0 = divisor.next()?;
        let mut quotient = Rows::new(f.width);
        for c in f.iter().filter(|c| covers(d0, c)) {
            for (q, (&c, &d)) in quotient.push_zero().iter_mut().zip(c.iter().zip(d0)) {
                *q = c & !d;
            }
        }
        let mut product = vec![0u64; f.width];
        for dj in divisor {
            if quotient.is_empty() {
                break;
            }
            quotient.retain(|q| {
                for (p, (&q, &d)) in product.iter_mut().zip(q.iter().zip(dj)) {
                    if q & d != 0 {
                        return false;
                    }
                    *p = q | d;
                }
                f.find(&product).is_some()
            });
        }
        if quotient.is_empty() {
            return None;
        }
        let mut in_product = vec![false; f.len()];
        for q in quotient.iter() {
            for dj in d.iter() {
                for (p, (&q, &d)) in product.iter_mut().zip(q.iter().zip(dj)) {
                    *p = q | d;
                }
                in_product[f.find(&product).expect("q·d is a cube of f")] = true;
            }
        }
        Some(Division {
            quotient,
            in_product,
        })
    }

    /// `(quotient, remainder)` as sorted rows; `(0, f)` when `d` does not
    /// divide `f`.
    pub(crate) fn split(f: &Rows, d: &Rows) -> (Rows, Rows) {
        let Some(div) = Division::of(f, d) else {
            return (Rows::new(f.width), f.clone());
        };
        let mut remainder = Rows::new(f.width);
        for (r, _) in f.iter().zip(&div.in_product).filter(|(_, &p)| !p) {
            remainder.push(r);
        }
        (div.quotient.sorted(), remainder)
    }

    /// The literal-count saving of rewriting `f` as `x·q + r` for a new
    /// variable `x`: `lits(f) - (lits(q) + cubes(q) + lits(r))`.
    pub(crate) fn value(&self, f: &Rows) -> isize {
        let product: usize = f
            .iter()
            .zip(&self.in_product)
            .filter(|(_, &p)| p)
            .map(|(r, _)| literals(r))
            .sum();
        product as isize - (self.quotient.literal_count() + self.quotient.len()) as isize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sop(cubes: &[&[(usize, bool)]]) -> Sop {
        Sop::try_from_slices(cubes).unwrap()
    }

    #[test]
    fn rows_round_trip_and_keep_cube_order() {
        // Variables far apart and past one word of bits.
        let f = sop(&[
            &[(3, false), (90, true)],
            &[(3, false)],
            &[(7, true), (40, false)],
            &[(90, false)],
        ]);
        let space = Space::of(&[&f]);
        assert_eq!(space.rows(&f).row(0).len(), 1);
        let rows = space.rows(&f);
        assert_eq!(space.sop(&rows), f);
        for (i, a) in f.cubes().iter().enumerate() {
            for (j, b) in f.cubes().iter().enumerate() {
                assert_eq!(cmp_rows(rows.row(i), rows.row(j)), a.cmp(b));
            }
        }
    }

    #[test]
    fn order_holds_across_words() {
        // 70 variables: 140 bits over three words.
        let all =
            Sop::from_cubes((0..70).map(|v| Cube::from_literals([Literal::negative(v)]).unwrap()));
        let f = Sop::from_cubes(
            [
                vec![0usize, 69],
                vec![0, 33],
                vec![33],
                vec![31, 32],
                vec![32],
                vec![69],
                vec![0, 33, 69],
                vec![],
            ]
            .into_iter()
            .map(|vs| Cube::from_literals(vs.into_iter().map(Literal::positive)).unwrap()),
        );
        let space = Space::of(&[&f, &all]);
        assert_eq!(space.rows(&f).row(0).len(), 3);
        for g in [&f, &all] {
            let rows = space.rows(g);
            assert_eq!(&space.sop(&rows), g);
            for (i, a) in g.cubes().iter().enumerate() {
                for (j, b) in g.cubes().iter().enumerate() {
                    assert_eq!(cmp_rows(rows.row(i), rows.row(j)), a.cmp(b), "{a:?} {b:?}");
                }
            }
        }
    }

    #[test]
    fn products_detect_contradictions() {
        let f = sop(&[&[(0, false), (1, true)], &[(0, true)]]);
        let space = Space::of(&[&f]);
        let rows = space.rows(&f);
        let p: Vec<u64> = rows
            .row(0)
            .iter()
            .zip(rows.row(1))
            .map(|(a, b)| a | b)
            .collect();
        assert!(contradictory(&p));
        assert!(!contradictory(rows.row(0)));
    }

    #[test]
    fn division_value_matches_the_sop_model() {
        // f = ac + bc + d, divisor a + b: q = c, r = d; value 4 - 2 = 2.
        let f = sop(&[
            &[(0, false), (2, false)],
            &[(1, false), (2, false)],
            &[(3, false)],
        ]);
        let d = sop(&[&[(0, false)], &[(1, false)]]);
        let space = Space::of(&[&f, &d]);
        let (fr, dr) = (space.rows(&f), space.rows(&d));
        let div = Division::of(&fr, &dr).expect("divides");
        assert_eq!(div.value(&fr), 2);
        let (q, r) = Division::split(&fr, &dr);
        assert_eq!(space.sop(&q), sop(&[&[(2, false)]]));
        assert_eq!(space.sop(&r), sop(&[&[(3, false)]]));
    }
}
