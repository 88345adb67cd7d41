//! Factoring: turning a two-level SOP into a multi-level AND/OR expression
//! tree with (near-)minimal literal count.
//!
//! This is the last step of the MIS-style optimization script: the factored
//! forms become the AND/OR nodes of the network handed to technology
//! mapping. The algorithm is the classic kernel-driven *quick factoring*:
//! pick a level-0 kernel `d`, divide `f = q·d + r`, and recurse on `q`, `d`
//! and `r`. It runs on the word rows of the SOP's support (see `rows.rs`);
//! an SOP with more kernels than the enumeration budget is divided by its
//! most frequent literal instead.

use crate::cube::Literal;
use crate::kernels::{kernel_rows, KERNEL_BUDGET};
use crate::rows::{ones, Division, Rows, Space};
use crate::sop::Sop;

/// A factored Boolean expression over literal leaves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Factored {
    /// A constant.
    Const(bool),
    /// A single literal.
    Literal(Literal),
    /// Product of sub-expressions.
    And(Vec<Factored>),
    /// Sum of sub-expressions.
    Or(Vec<Factored>),
}

impl Factored {
    /// Number of literal leaves — the factored literal count.
    ///
    /// # Examples
    ///
    /// ```
    /// use chortle_logic_opt::{factor, Sop};
    ///
    /// // f = a·c + a·d + b·c + b·d has 8 SOP literals but factors to
    /// // (a + b)(c + d) with 4.
    /// let f = Sop::try_from_slices(&[
    ///     &[(0, false), (2, false)],
    ///     &[(0, false), (3, false)],
    ///     &[(1, false), (2, false)],
    ///     &[(1, false), (3, false)],
    /// ]).unwrap();
    /// assert_eq!(factor(&f).literal_count(), 4);
    /// ```
    pub fn literal_count(&self) -> usize {
        match self {
            Factored::Const(_) => 0,
            Factored::Literal(_) => 1,
            Factored::And(xs) | Factored::Or(xs) => xs.iter().map(Self::literal_count).sum(),
        }
    }

    /// Evaluates the expression under an assignment (bit `v` = variable
    /// `v`).
    pub fn eval(&self, bits: u64) -> bool {
        match self {
            Factored::Const(v) => *v,
            Factored::Literal(l) => ((bits >> l.var()) & 1 == 1) != l.is_inverted(),
            Factored::And(xs) => xs.iter().all(|x| x.eval(bits)),
            Factored::Or(xs) => xs.iter().any(|x| x.eval(bits)),
        }
    }

    /// Builds an AND node, flattening nested ANDs and dropping constant
    /// trues; returns constant false if any operand is.
    fn and(xs: Vec<Factored>) -> Factored {
        let mut flat = Vec::new();
        for x in xs {
            match x {
                Factored::Const(false) => return Factored::Const(false),
                Factored::Const(true) => {}
                Factored::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Factored::Const(true),
            1 => flat.pop().expect("one element"),
            _ => Factored::And(flat),
        }
    }

    /// Builds an OR node with the dual simplifications of
    /// [`and`](Factored::and).
    fn or(xs: Vec<Factored>) -> Factored {
        let mut flat = Vec::new();
        for x in xs {
            match x {
                Factored::Const(true) => return Factored::Const(true),
                Factored::Const(false) => {}
                Factored::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Factored::Const(false),
            1 => flat.pop().expect("one element"),
            _ => Factored::Or(flat),
        }
    }
}

/// Factors an SOP into a multi-level AND/OR expression.
///
/// The result is functionally identical to `f` (verified exhaustively in
/// this module's tests) and typically has far fewer literals for SOPs with
/// shared sub-expressions.
pub fn factor(f: &Sop) -> Factored {
    let space = Space::of(&[f]);
    factor_rows(&space, &space.rows(f))
}

/// [`factor`] of the sorted, duplicate-free rows `f`.
fn factor_rows(space: &Space, f: &Rows) -> Factored {
    if f.is_empty() {
        return Factored::Const(false);
    }
    if f.iter().any(|r| r.iter().all(|&w| w == 0)) {
        return Factored::Const(true);
    }
    if f.len() == 1 {
        return cube_to_factored(space, f.row(0));
    }
    // Peel off the common cube first: f = c · f'.
    let common = f.common();
    if common.iter().all(|&w| w == 0) {
        return factor_cube_free(space, f);
    }
    let inner = factor_cube_free(space, &f.clone().without(&common).sorted());
    Factored::and(vec![cube_to_factored(space, &common), inner])
}

fn cube_to_factored(space: &Space, c: &[u64]) -> Factored {
    let mut lits: Vec<Factored> = ones(c)
        .map(|b| Factored::Literal(space.literal(b)))
        .collect();
    match lits.len() {
        0 => Factored::Const(true),
        1 => lits.pop().expect("one literal"),
        _ => Factored::And(lits),
    }
}

fn factor_cube_free(space: &Space, f: &Rows) -> Factored {
    debug_assert!(f.len() >= 2);
    if f.is_level0() {
        // No proper divisors: f is a sum of variable-disjoint cubes.
        return Factored::or(f.iter().map(|c| cube_to_factored(space, c)).collect());
    }
    let Some(divisor) = choose_divisor(f) else {
        // Fall back to dividing by the most frequent literal; always
        // strictly reduces because f is not level-0.
        return factor_by_best_literal(space, f);
    };
    let (q, r) = Division::split(f, &divisor);
    debug_assert!(!q.is_empty(), "a kernel always divides its SOP");
    Factored::or(vec![
        Factored::and(vec![factor_rows(space, &q), factor_rows(space, &divisor)]),
        factor_rows(space, &r),
    ])
}

/// Picks a level-0 kernel with maximal literal count (the last of the
/// ties in kernel order) as the divisor; `None` if the only kernel is `f`
/// itself or `f` has more kernels than the budget.
fn choose_divisor(f: &Rows) -> Option<Rows> {
    kernel_rows(f, KERNEL_BUDGET)?
        .into_iter()
        .filter(|k| k.kernel != *f && k.kernel.is_level0())
        .max_by_key(|k| (k.kernel.literal_count(), k.kernel.len()))
        .map(|k| k.kernel)
}

/// Divides by the literal in the most cubes (the lowest-coded of ties).
fn factor_by_best_literal(space: &Space, f: &Rows) -> Factored {
    let mut counts: Vec<usize> = Vec::new();
    for r in f.iter() {
        for b in ones(r) {
            if counts.len() <= b {
                counts.resize(b + 1, 0);
            }
            counts[b] += 1;
        }
    }
    let (bit, _) = counts
        .iter()
        .enumerate()
        .max_by_key(|&(b, &c)| (c, std::cmp::Reverse(b)))
        .expect("non-constant SOP has literals");
    let mut d = Rows::new(f.row(0).len());
    d.push_zero()[bit / 64] |= 1 << (bit % 64);
    let (q, r) = Division::split(f, &d);
    Factored::or(vec![
        Factored::and(vec![
            Factored::Literal(space.literal(bit)),
            factor_rows(space, &q),
        ]),
        factor_rows(space, &r),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;

    fn sop(cubes: &[&[(usize, bool)]]) -> Sop {
        Sop::try_from_slices(cubes).unwrap()
    }

    fn assert_equivalent(f: &Sop, t: &Factored, vars: usize) {
        for bits in 0..(1u64 << vars) {
            assert_eq!(f.eval(bits), t.eval(bits), "differ on {bits:b}");
        }
    }

    #[test]
    fn constants_factor_to_consts() {
        assert_eq!(factor(&Sop::zero()), Factored::Const(false));
        assert_eq!(factor(&Sop::one()), Factored::Const(true));
    }

    #[test]
    fn single_cube_is_and_of_literals() {
        let f = sop(&[&[(0, false), (2, true)]]);
        let t = factor(&f);
        assert_eq!(t.literal_count(), 2);
        assert_equivalent(&f, &t, 3);
    }

    #[test]
    fn distributive_example_saves_literals() {
        let f = sop(&[
            &[(0, false), (2, false)],
            &[(0, false), (3, false)],
            &[(1, false), (2, false)],
            &[(1, false), (3, false)],
        ]);
        let t = factor(&f);
        assert_equivalent(&f, &t, 4);
        assert_eq!(t.literal_count(), 4);
    }

    #[test]
    fn common_cube_peeled() {
        // f = ab·c + ab·d = ab(c + d)
        let f = sop(&[
            &[(0, false), (1, false), (2, false)],
            &[(0, false), (1, false), (3, false)],
        ]);
        let t = factor(&f);
        assert_eq!(t.literal_count(), 4);
        assert_equivalent(&f, &t, 4);
    }

    #[test]
    fn xor_shape_stays_two_level() {
        let f = sop(&[&[(0, false), (1, true)], &[(0, true), (1, false)]]);
        let t = factor(&f);
        assert_equivalent(&f, &t, 2);
        assert_eq!(t.literal_count(), 4);
    }

    #[test]
    fn larger_mixed_function() {
        // f = ade + bde + cde + af + bf
        let f = sop(&[
            &[(0, false), (3, false), (4, false)],
            &[(1, false), (3, false), (4, false)],
            &[(2, false), (3, false), (4, false)],
            &[(0, false), (5, false)],
            &[(1, false), (5, false)],
        ]);
        let t = factor(&f);
        assert_equivalent(&f, &t, 6);
        assert!(
            t.literal_count() <= f.num_literals(),
            "factoring must not increase literals: {} vs {}",
            t.literal_count(),
            f.num_literals()
        );
    }

    #[test]
    fn exhaustive_small_functions_equivalent() {
        // All 3-variable functions, built as minterm SOPs, must survive
        // factoring unchanged.
        for func in 0u16..256 {
            let mut cubes = Vec::new();
            for m in 0..8u64 {
                if (func >> m) & 1 == 1 {
                    let lits = (0..3).map(|v| Literal::with_phase(v, (m >> v) & 1 == 0));
                    cubes.push(Cube::from_literals(lits).unwrap());
                }
            }
            let f = Sop::from_cubes(cubes);
            let t = factor(&f);
            assert_equivalent(&f, &t, 3);
        }
    }
}
