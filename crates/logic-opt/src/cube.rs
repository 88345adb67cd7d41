//! Literals and cubes — the atoms of algebraic logic optimization.
//!
//! A [`Literal`] is a variable with a phase; a [`Cube`] is a product of
//! literals over distinct variables. Variables are plain indexes into
//! whatever space the surrounding structure defines (a node's fanins, or
//! the global signal space of a [`SopNetwork`](crate::SopNetwork)).
//!
//! Algebraic optimization treats `x` and `!x` as unrelated literals, which
//! is exactly what makes division, kernels and factoring fast.
//!
//! `Cube` is the public, heap-allocated form. Inside the hot loops —
//! weak division, kernel enumeration, `eliminate`'s rewrite, containment
//! minimization and factoring — a node's cubes become *bit rows* over
//! its local support (`rows.rs`): bit `2i` is the `i`-th support
//! variable in ascending order, bit `2i+1` its complement. That layout
//! keeps literal-code order, so rows sort exactly as `Cube`'s `Ord` sorts
//! the cubes they stand for, and results leave the loops as the same
//! cubes in the same order.

use std::fmt;

/// A polarized variable: variable index plus phase.
///
/// # Examples
///
/// ```
/// use chortle_logic_opt::Literal;
///
/// let a = Literal::positive(0);
/// let na = Literal::negative(0);
/// assert_eq!(a.var(), na.var());
/// assert_eq!(a.complement(), na);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal(u32);

impl Literal {
    /// The positive-phase literal of variable `var`.
    pub fn positive(var: usize) -> Self {
        Literal((var as u32) << 1)
    }

    /// The negative-phase literal of variable `var`.
    pub fn negative(var: usize) -> Self {
        Literal(((var as u32) << 1) | 1)
    }

    /// A literal with an explicit phase flag.
    pub fn with_phase(var: usize, inverted: bool) -> Self {
        if inverted {
            Literal::negative(var)
        } else {
            Literal::positive(var)
        }
    }

    /// The literal's variable index.
    pub fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether the literal is negative-phase.
    pub fn is_inverted(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite-phase literal of the same variable.
    pub fn complement(self) -> Self {
        Literal(self.0 ^ 1)
    }

    /// A dense code usable as an array index: `var * 2 + phase`.
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from [`code`](Literal::code).
    pub fn from_code(code: usize) -> Self {
        Literal(code as u32)
    }
}

impl fmt::Debug for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_inverted() {
            write!(f, "!v{}", self.var())
        } else {
            write!(f, "v{}", self.var())
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A product term: a set of literals over distinct variables, kept sorted.
///
/// The empty cube is the constant-true product (the algebraic "1").
///
/// # Examples
///
/// ```
/// use chortle_logic_opt::{Cube, Literal};
///
/// let ab = Cube::from_literals([Literal::positive(0), Literal::positive(1)]).unwrap();
/// let a = Cube::from_literals([Literal::positive(0)]).unwrap();
/// assert!(a.covers(&ab)); // fewer literals cover more minterms
/// assert_eq!(ab.without(&a).literals(), &[Literal::positive(1)]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Cube {
    literals: Vec<Literal>,
}

impl Cube {
    /// The constant-true cube (no literals).
    pub fn one() -> Self {
        Cube::default()
    }

    /// Builds a cube from literals; returns `None` if two literals of
    /// opposite phase share a variable (a contradictory, empty product).
    ///
    /// Duplicate literals are collapsed.
    pub fn from_literals<I: IntoIterator<Item = Literal>>(literals: I) -> Option<Self> {
        let mut lits: Vec<Literal> = literals.into_iter().collect();
        lits.sort_unstable();
        lits.dedup();
        for pair in lits.windows(2) {
            if pair[0].var() == pair[1].var() {
                return None; // x and !x in one product
            }
        }
        Some(Cube { literals: lits })
    }

    /// A cube of literals already ascending over distinct variables.
    pub(crate) fn from_sorted(literals: Vec<Literal>) -> Self {
        debug_assert!(literals.windows(2).all(|p| p[0].var() < p[1].var()));
        Cube { literals }
    }

    /// The cube's literals in ascending order.
    pub fn literals(&self) -> &[Literal] {
        &self.literals
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// `true` for the constant-true cube.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// Whether `self` contains the given literal.
    pub fn has(&self, lit: Literal) -> bool {
        self.literals.binary_search(&lit).is_ok()
    }

    /// Whether every literal of `self` appears in `other` — algebraically,
    /// `self` *covers* `other` (divides it evenly as a cube).
    pub fn covers(&self, other: &Cube) -> bool {
        let mut it = other.literals.iter();
        'outer: for lit in &self.literals {
            for cand in it.by_ref() {
                if cand == lit {
                    continue 'outer;
                }
                if cand > lit {
                    return false;
                }
            }
            return false;
        }
        true
    }

    /// The cube `self / other`: literals of `self` not in `other`.
    ///
    /// Meaningful when [`covers`](Cube::covers) holds for `other` over
    /// `self`; otherwise it simply drops the shared literals.
    pub fn without(&self, other: &Cube) -> Cube {
        Cube {
            literals: self
                .literals
                .iter()
                .copied()
                .filter(|l| !other.has(*l))
                .collect(),
        }
    }

    /// The largest cube dividing both `self` and `other` (literal
    /// intersection).
    pub fn intersection(&self, other: &Cube) -> Cube {
        Cube {
            literals: self
                .literals
                .iter()
                .copied()
                .filter(|l| other.has(*l))
                .collect(),
        }
    }

    /// The product `self * other`; `None` if the product is contradictory.
    pub fn product(&self, other: &Cube) -> Option<Cube> {
        Cube::from_literals(self.literals.iter().chain(&other.literals).copied())
    }

    /// Evaluates the cube under an assignment (bit `v` of `bits` = value of
    /// variable `v`).
    pub fn eval(&self, bits: u64) -> bool {
        self.literals
            .iter()
            .all(|l| ((bits >> l.var()) & 1 == 1) != l.is_inverted())
    }

    /// Largest variable index referenced, or `None` for the empty cube.
    pub fn max_var(&self) -> Option<usize> {
        self.literals.last().map(|l| l.var())
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.literals.is_empty() {
            return write!(f, "1");
        }
        for (i, l) in self.literals.iter().enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            write!(f, "{l:?}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(lits.iter().map(|&(v, inv)| Literal::with_phase(v, inv))).unwrap()
    }

    #[test]
    fn contradiction_is_none() {
        let lits = [Literal::positive(3), Literal::negative(3)];
        assert!(Cube::from_literals(lits).is_none());
    }

    #[test]
    fn duplicates_collapse() {
        let c = Cube::from_literals([Literal::positive(1), Literal::positive(1)]).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn covers_is_subset_of_literals() {
        let ab = cube(&[(0, false), (1, false)]);
        let abc = cube(&[(0, false), (1, false), (2, true)]);
        assert!(ab.covers(&abc));
        assert!(!abc.covers(&ab));
        assert!(Cube::one().covers(&ab));
        // Different phases never cover.
        let a = cube(&[(0, false)]);
        let na = cube(&[(0, true)]);
        assert!(!a.covers(&na));
    }

    #[test]
    fn without_and_intersection() {
        let abc = cube(&[(0, false), (1, true), (2, false)]);
        let b = cube(&[(1, true)]);
        assert_eq!(abc.without(&b), cube(&[(0, false), (2, false)]));
        assert_eq!(abc.intersection(&b), b);
    }

    #[test]
    fn product_merges_or_contradicts() {
        let a = cube(&[(0, false)]);
        let b = cube(&[(1, true)]);
        assert_eq!(a.product(&b).unwrap(), cube(&[(0, false), (1, true)]));
        let na = cube(&[(0, true)]);
        assert!(a.product(&na).is_none());
    }

    #[test]
    fn eval_respects_phase() {
        let c = cube(&[(0, false), (2, true)]);
        assert!(c.eval(0b001));
        assert!(!c.eval(0b101));
        assert!(!c.eval(0b000));
        assert!(Cube::one().eval(0));
    }
}
