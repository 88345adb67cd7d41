//! Sums of products and algebraic (weak) division.
//!
//! [`Sop::divide`] and [`Sop::minimize`] run on word rows over the
//! operands' joint support (see `rows.rs`): containment is
//! `d & !c == 0` and a quotient cube is `c & !d`. Their results are the
//! cubes the literal-list algebra would produce, in the same sorted
//! order — the cube-order contract every caller's tie-breaks rely on.

use std::collections::HashMap;
use std::fmt;

use crate::cube::{Cube, Literal};
use crate::rows::{Division, Space};

/// A sum of products: a set of [`Cube`]s, kept sorted and duplicate-free.
///
/// The empty SOP is the constant false; an SOP containing the empty cube is
/// treated as constant true by the algebraic operators.
///
/// # Examples
///
/// ```
/// use chortle_logic_opt::{Cube, Literal, Sop};
///
/// // f = a·b + a·c
/// let f = Sop::try_from_slices(&[&[(0, false), (1, false)], &[(0, false), (2, false)]])
///     .unwrap();
/// assert_eq!(f.num_cubes(), 2);
/// assert_eq!(f.num_literals(), 4);
/// assert_eq!(f.common_cube().literals(), &[Literal::positive(0)]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Sop {
    cubes: Vec<Cube>,
}

impl Sop {
    /// The constant-false SOP (no cubes).
    pub fn zero() -> Self {
        Sop::default()
    }

    /// The constant-true SOP (the single empty cube).
    pub fn one() -> Self {
        Sop {
            cubes: vec![Cube::one()],
        }
    }

    /// Builds an SOP from cubes, sorting and deduplicating.
    pub fn from_cubes<I: IntoIterator<Item = Cube>>(cubes: I) -> Self {
        let mut v: Vec<Cube> = cubes.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Sop { cubes: v }
    }

    /// An SOP of cubes already sorted and duplicate-free.
    pub(crate) fn from_sorted(cubes: Vec<Cube>) -> Self {
        debug_assert!(cubes.windows(2).all(|p| p[0] < p[1]));
        Sop { cubes }
    }

    /// Convenience constructor from `(var, inverted)` pair slices; returns
    /// `None` if any cube is contradictory.
    pub fn try_from_slices(cubes: &[&[(usize, bool)]]) -> Option<Self> {
        let mut v = Vec::with_capacity(cubes.len());
        for lits in cubes {
            v.push(Cube::from_literals(
                lits.iter().map(|&(var, inv)| Literal::with_phase(var, inv)),
            )?);
        }
        Some(Sop::from_cubes(v))
    }

    /// The cubes in sorted order.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes (product terms).
    pub fn num_cubes(&self) -> usize {
        self.cubes.len()
    }

    /// Total literal count — the cost function of algebraic optimization.
    pub fn num_literals(&self) -> usize {
        self.cubes.iter().map(Cube::len).sum()
    }

    /// `true` if the SOP is the constant false.
    pub fn is_zero(&self) -> bool {
        self.cubes.is_empty()
    }

    /// `true` if the SOP contains the constant-true cube (and therefore is
    /// the constant true).
    pub fn is_one(&self) -> bool {
        self.cubes.iter().any(Cube::is_empty)
    }

    /// `true` if the SOP is a single cube.
    pub fn is_single_cube(&self) -> bool {
        self.cubes.len() == 1
    }

    /// Adds a cube, keeping the invariants.
    pub fn insert(&mut self, cube: Cube) {
        if let Err(pos) = self.cubes.binary_search(&cube) {
            self.cubes.insert(pos, cube);
        }
    }

    /// Removes single-cube containment: drops any cube covered by another
    /// cube of the SOP. (If constant-true is present, everything else
    /// collapses.)
    ///
    /// # Examples
    ///
    /// ```
    /// use chortle_logic_opt::Sop;
    /// let mut f = Sop::try_from_slices(&[&[(0, false)], &[(0, false), (1, false)]]).unwrap();
    /// f.minimize();
    /// assert_eq!(f.num_cubes(), 1); // a·b absorbed by a
    /// ```
    pub fn minimize(&mut self) {
        if self.cubes.len() < 2 {
            return;
        }
        let mut kept = Space::of(&[self]).rows(self).uncovered().peekable();
        let mut i = 0;
        self.cubes.retain(|_| {
            i += 1;
            kept.next_if_eq(&(i - 1)).is_some()
        });
    }

    /// The largest cube dividing every cube of the SOP (the intersection of
    /// all cubes); the empty cube for a cube-free or empty SOP.
    pub fn common_cube(&self) -> Cube {
        let mut it = self.cubes.iter();
        let first = match it.next() {
            Some(c) => c.clone(),
            None => return Cube::one(),
        };
        it.fold(first, |acc, c| acc.intersection(c))
    }

    /// Whether the SOP is *cube-free*: no single literal divides every
    /// cube, and the SOP has at least two cubes.
    pub fn is_cube_free(&self) -> bool {
        self.cubes.len() >= 2 && self.common_cube().is_empty()
    }

    /// Divides out the common cube, returning `(common, cube_free_part)`.
    pub fn make_cube_free(&self) -> (Cube, Sop) {
        let common = self.common_cube();
        if common.is_empty() {
            return (Cube::one(), self.clone());
        }
        let free = Sop::from_cubes(self.cubes.iter().map(|c| c.without(&common)));
        (common, free)
    }

    /// The quotient of dividing by a single cube: `{ c \ d : d ⊆ c }`.
    pub fn divide_by_cube(&self, d: &Cube) -> Sop {
        Sop::from_cubes(
            self.cubes
                .iter()
                .filter(|c| d.covers(c))
                .map(|c| c.without(d)),
        )
    }

    /// Weak (algebraic) division by `divisor`: returns `(quotient,
    /// remainder)` with `self = quotient * divisor + remainder` and the
    /// product quotient×divisor having no variable overlap per term.
    ///
    /// A divisor that is constant false yields quotient false and remainder
    /// `self`.
    ///
    /// # Examples
    ///
    /// ```
    /// use chortle_logic_opt::Sop;
    /// // f = a·c + a·d + b·c + b·d + e ; d = a + b  -> q = c + d, r = e
    /// let f = Sop::try_from_slices(&[
    ///     &[(0, false), (2, false)],
    ///     &[(0, false), (3, false)],
    ///     &[(1, false), (2, false)],
    ///     &[(1, false), (3, false)],
    ///     &[(4, false)],
    /// ]).unwrap();
    /// let d = Sop::try_from_slices(&[&[(0, false)], &[(1, false)]]).unwrap();
    /// let (q, r) = f.divide(&d);
    /// assert_eq!(q, Sop::try_from_slices(&[&[(2, false)], &[(3, false)]]).unwrap());
    /// assert_eq!(r, Sop::try_from_slices(&[&[(4, false)]]).unwrap());
    /// ```
    pub fn divide(&self, divisor: &Sop) -> (Sop, Sop) {
        let space = Space::of(&[self, divisor]);
        let f = space.rows(self);
        let Some(div) = Division::of(&f, &space.rows(divisor)) else {
            return (Sop::zero(), self.clone());
        };
        let remainder = self
            .cubes
            .iter()
            .zip(&div.in_product)
            .filter(|(_, &p)| !p)
            .map(|(c, _)| c.clone())
            .collect();
        (
            space.sop(&div.quotient.sorted()),
            Sop::from_sorted(remainder),
        )
    }

    /// Occurrence count of every literal across the cubes.
    pub fn literal_counts(&self) -> HashMap<Literal, usize> {
        let mut counts = HashMap::new();
        for c in &self.cubes {
            for &l in c.literals() {
                *counts.entry(l).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Variables referenced anywhere in the SOP, ascending and unique.
    pub fn support(&self) -> Vec<usize> {
        let mut vars: Vec<usize> = self
            .cubes
            .iter()
            .flat_map(|c| c.literals().iter().map(|l| l.var()))
            .collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Largest variable index referenced, or `None` if no literals.
    pub fn max_var(&self) -> Option<usize> {
        self.cubes.iter().filter_map(Cube::max_var).max()
    }

    /// Evaluates the SOP under an assignment (bit `v` = variable `v`).
    pub fn eval(&self, bits: u64) -> bool {
        self.cubes.iter().any(|c| c.eval(bits))
    }

    /// Renames variables through `map` (old index → new index).
    ///
    /// # Panics
    ///
    /// Panics if a cube becomes contradictory (two old variables mapping to
    /// the same new variable with opposite phases).
    pub fn rename_vars(&self, map: &dyn Fn(usize) -> usize) -> Sop {
        Sop::from_cubes(self.cubes.iter().map(|c| {
            Cube::from_literals(
                c.literals()
                    .iter()
                    .map(|l| Literal::with_phase(map(l.var()), l.is_inverted())),
            )
            .expect("variable renaming must not create contradictions")
        }))
    }
}

impl fmt::Debug for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c:?}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sop(cubes: &[&[(usize, bool)]]) -> Sop {
        Sop::try_from_slices(cubes).unwrap()
    }

    #[test]
    fn constants() {
        assert!(Sop::zero().is_zero());
        assert!(Sop::one().is_one());
        assert!(!Sop::one().is_zero());
    }

    #[test]
    fn minimize_removes_contained() {
        let mut f = sop(&[&[(0, false)], &[(0, false), (1, false)], &[(2, true)]]);
        f.minimize();
        assert_eq!(f, sop(&[&[(0, false)], &[(2, true)]]));
    }

    #[test]
    fn minimize_handles_duplicates_of_equal_size() {
        let mut f = sop(&[&[(0, false), (1, false)]]);
        f.insert(Cube::from_literals([Literal::positive(0), Literal::positive(1)]).unwrap());
        f.minimize();
        assert_eq!(f.num_cubes(), 1);
    }

    #[test]
    fn cube_free_detection() {
        let f = sop(&[&[(0, false), (1, false)], &[(0, false), (2, false)]]);
        assert!(!f.is_cube_free());
        let (common, free) = f.make_cube_free();
        assert_eq!(common.literals(), &[Literal::positive(0)]);
        assert!(free.is_cube_free());
    }

    #[test]
    fn divide_by_cube_picks_covered_terms() {
        // f = abc + abd + e, divide by ab
        let f = sop(&[
            &[(0, false), (1, false), (2, false)],
            &[(0, false), (1, false), (3, false)],
            &[(4, false)],
        ]);
        let ab = Cube::from_literals([Literal::positive(0), Literal::positive(1)]).unwrap();
        let q = f.divide_by_cube(&ab);
        assert_eq!(q, sop(&[&[(2, false)], &[(3, false)]]));
    }

    #[test]
    fn weak_division_identity() {
        // f / f = 1 with remainder 0 whenever f is a single cube... check a
        // multi-cube identity: (a+b)/(a+b) = 1, r = 0.
        let f = sop(&[&[(0, false)], &[(1, false)]]);
        let (q, r) = f.divide(&f);
        assert!(q.is_one());
        assert!(r.is_zero());
    }

    #[test]
    fn weak_division_no_common_part() {
        let f = sop(&[&[(0, false)]]);
        let d = sop(&[&[(1, false)]]);
        let (q, r) = f.divide(&d);
        assert!(q.is_zero());
        assert_eq!(r, f);
    }

    #[test]
    fn division_reconstructs_function() {
        // f = q*d + r must hold functionally.
        let f = sop(&[
            &[(0, false), (2, false)],
            &[(1, false), (2, false)],
            &[(0, false), (3, false)],
            &[(1, false), (3, false)],
            &[(4, true)],
        ]);
        let d = sop(&[&[(0, false)], &[(1, false)]]);
        let (q, r) = f.divide(&d);
        for bits in 0..32u64 {
            let lhs = f.eval(bits);
            let rhs = (q.eval(bits) && d.eval(bits)) || r.eval(bits);
            assert_eq!(lhs, rhs, "bits={bits:05b}");
        }
    }

    #[test]
    fn literal_counts_and_support() {
        let f = sop(&[&[(0, false), (3, true)], &[(0, false)]]);
        let counts = f.literal_counts();
        assert_eq!(counts[&Literal::positive(0)], 2);
        assert_eq!(counts[&Literal::negative(3)], 1);
        assert_eq!(f.support(), vec![0, 3]);
        assert_eq!(f.max_var(), Some(3));
    }

    #[test]
    fn rename_vars_applies_map() {
        let f = sop(&[&[(0, false), (1, true)]]);
        let g = f.rename_vars(&|v| v + 10);
        assert_eq!(g, sop(&[&[(10, false), (11, true)]]));
    }

    #[test]
    fn eval_is_or_of_cubes() {
        let f = sop(&[&[(0, false)], &[(1, true)]]);
        assert!(f.eval(0b01));
        assert!(f.eval(0b00));
        assert!(!f.eval(0b10));
    }
}
