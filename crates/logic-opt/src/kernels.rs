//! Kernel extraction (Brayton–McMullen).
//!
//! A *kernel* of an SOP `f` is a cube-free quotient `f / c` for some cube
//! `c` (the *co-kernel*). Kernels are the carriers of multi-cube common
//! subexpressions: two SOPs share a multi-cube divisor iff the intersection
//! of one kernel from each has two or more cubes.
//!
//! *Level-0* kernels contain no kernels other than themselves — no literal
//! appears in two of their cubes. The MIS library construction in the paper
//! (Section 4.1) is built from level-0 kernels with at most K literals.
//!
//! Enumeration runs on a node's word rows (see `rows.rs`) with an explicit
//! stack instead of recursion. Its output is ordered by `(kernel,
//! co_kernel)` under `Sop`/`Cube` `Ord` and deduplicated: callers cut the
//! list (`extract_kernels` keeps the first 200) and break ties by that
//! order. The optimizer enumerates within [`KERNEL_BUDGET`] kernels: a
//! node with `n` cubes can have on the order of `2ⁿ` kernels, so past the
//! budget kernel extraction skips the node and factoring divides by its
//! most frequent literal instead. The public [`kernels`] is unbounded.

use crate::cube::Cube;
use crate::rows::{cmp_rows, cmp_sops, ones, Rows, Space};
use crate::sop::Sop;

/// Kernels the optimizer enumerates per SOP before giving up on it (the
/// largest count on the benchmark corpus is a few hundred).
pub(crate) const KERNEL_BUDGET: usize = 4096;

/// A kernel together with its co-kernel cube.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Kernel {
    /// The cube whose quotient produced the kernel.
    pub co_kernel: Cube,
    /// The cube-free quotient.
    pub kernel: Sop,
}

/// A kernel as rows of its SOP's [`Space`].
pub(crate) struct KernelRows {
    pub(crate) kernel: Rows,
    pub(crate) co_kernel: Vec<u64>,
}

/// Computes all kernels of `f` (including `f` itself, made cube-free, with
/// its common cube as co-kernel).
///
/// Returns an empty list for SOPs with fewer than two cubes (they have no
/// cube-free quotients).
///
/// # Examples
///
/// ```
/// use chortle_logic_opt::{kernels, Sop};
///
/// // f = a·c + a·d + b·c + b·d
/// let f = Sop::try_from_slices(&[
///     &[(0, false), (2, false)],
///     &[(0, false), (3, false)],
///     &[(1, false), (2, false)],
///     &[(1, false), (3, false)],
/// ]).unwrap();
/// let ks = kernels(&f);
/// let ab = Sop::try_from_slices(&[&[(0, false)], &[(1, false)]]).unwrap();
/// let cd = Sop::try_from_slices(&[&[(2, false)], &[(3, false)]]).unwrap();
/// assert!(ks.iter().any(|k| k.kernel == ab));
/// assert!(ks.iter().any(|k| k.kernel == cd));
/// ```
pub fn kernels(f: &Sop) -> Vec<Kernel> {
    let space = Space::of(&[f]);
    kernel_rows(&space.rows(f), usize::MAX)
        .expect("no budget")
        .into_iter()
        .map(|k| Kernel {
            co_kernel: space.cube(&k.co_kernel),
            kernel: space.sop(&k.kernel),
        })
        .collect()
}

/// The kernels of the sorted rows `f`, ordered by `(kernel, co_kernel)`
/// and deduplicated; `None` once more than `budget` are found.
///
/// Each stack entry is a kernel `g` found so far and the first literal
/// that may still seed a quotient of it. Dividing `g` by a literal
/// `l` shared by two cubes gives a kernel unless the quotient's common
/// cube holds a seeding literal before `l` (that kernel is reached from
/// the earlier literal).
pub(crate) fn kernel_rows(f: &Rows, budget: usize) -> Option<Vec<KernelRows>> {
    if f.len() < 2 {
        return Some(Vec::new());
    }
    let common = f.common();
    let free = f.clone().without(&common).sorted();
    let seeds = free.multi_literals();
    let mut out = vec![KernelRows {
        kernel: free,
        co_kernel: common,
    }];
    // Kernels still to divide further, as positions in `out`, with the
    // first literal that may seed their quotients.
    let mut stack = vec![(0, 0)];
    while let Some((g, start)) = stack.pop() {
        for lit in ones(&seeds).filter(|&b| b >= start) {
            let quotient = out[g].kernel.divide_by_literal(lit);
            if quotient.len() < 2 {
                continue;
            }
            let extra = quotient.common();
            let earlier = |w: usize| match (lit / 64).cmp(&w) {
                std::cmp::Ordering::Greater => !0,
                std::cmp::Ordering::Equal => (1u64 << (lit % 64)) - 1,
                std::cmp::Ordering::Less => 0,
            };
            if (0..extra.len()).any(|w| extra[w] & seeds[w] & earlier(w) != 0) {
                continue;
            }
            if out.len() >= budget {
                return None;
            }
            let mut co_kernel: Vec<u64> = out[g]
                .co_kernel
                .iter()
                .zip(&extra)
                .map(|(c, e)| c | e)
                .collect();
            co_kernel[lit / 64] |= 1 << (lit % 64);
            out.push(KernelRows {
                kernel: quotient.without(&extra).sorted(),
                co_kernel,
            });
            stack.push((out.len() - 1, lit + 1));
        }
    }
    out.sort_unstable_by(|a, b| {
        cmp_sops(&a.kernel, &b.kernel).then_with(|| cmp_rows(&a.co_kernel, &b.co_kernel))
    });
    out.dedup_by(|a, b| a.kernel == b.kernel && a.co_kernel == b.co_kernel);
    Some(out)
}

/// Whether `k` is a level-0 kernel: cube-free and no literal occurring in
/// more than one cube.
///
/// # Examples
///
/// ```
/// use chortle_logic_opt::{is_level0_kernel, Sop};
///
/// let ab_c = Sop::try_from_slices(&[&[(0, false), (1, false)], &[(2, false)]]).unwrap();
/// assert!(is_level0_kernel(&ab_c)); // a·b + c
///
/// let shared = Sop::try_from_slices(&[&[(0, false), (1, false)], &[(0, false), (2, false)]]);
/// assert!(!is_level0_kernel(&shared.unwrap())); // a·b + a·c has a in two cubes
/// ```
pub fn is_level0_kernel(k: &Sop) -> bool {
    if k.num_cubes() < 2 || !k.is_cube_free() {
        return false;
    }
    k.literal_counts().values().all(|&c| c == 1)
}

/// The level-0 kernels of `f`: kernels that contain no kernels other than
/// themselves.
pub fn level0_kernels(f: &Sop) -> Vec<Kernel> {
    kernels(f)
        .into_iter()
        .filter(|k| is_level0_kernel(&k.kernel))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sop(cubes: &[&[(usize, bool)]]) -> Sop {
        Sop::try_from_slices(cubes).unwrap()
    }

    #[test]
    fn single_cube_has_no_kernels() {
        let f = sop(&[&[(0, false), (1, false)]]);
        assert!(kernels(&f).is_empty());
    }

    #[test]
    fn textbook_example() {
        // f = adf + aef + bdf + bef + cdf + cef + g
        //   = (a+b+c)(d+e)f + g
        let f = sop(&[
            &[(0, false), (3, false), (5, false)],
            &[(0, false), (4, false), (5, false)],
            &[(1, false), (3, false), (5, false)],
            &[(1, false), (4, false), (5, false)],
            &[(2, false), (3, false), (5, false)],
            &[(2, false), (4, false), (5, false)],
            &[(6, false)],
        ]);
        let ks = kernels(&f);
        let abc = sop(&[&[(0, false)], &[(1, false)], &[(2, false)]]);
        let de = sop(&[&[(3, false)], &[(4, false)]]);
        assert!(ks.iter().any(|k| k.kernel == abc), "missing a+b+c");
        assert!(ks.iter().any(|k| k.kernel == de), "missing d+e");
        // f itself is cube-free (g has no shared cube), so it is a kernel
        // with co-kernel 1.
        assert!(ks.iter().any(|k| k.co_kernel.is_empty() && k.kernel == f));
    }

    #[test]
    fn kernel_division_reconstructs() {
        let f = sop(&[
            &[(0, false), (2, false)],
            &[(0, false), (3, false)],
            &[(1, false), (2, false)],
            &[(1, false), (3, false)],
        ]);
        for k in kernels(&f) {
            let (q, r) = f.divide(&k.kernel);
            assert!(!q.is_zero(), "kernel must divide f");
            for bits in 0..16u64 {
                assert_eq!(
                    f.eval(bits),
                    (q.eval(bits) && k.kernel.eval(bits)) || r.eval(bits)
                );
            }
        }
    }

    #[test]
    fn level0_filtering() {
        let f = sop(&[
            &[(0, false), (2, false)],
            &[(0, false), (3, false)],
            &[(1, false), (2, false)],
            &[(1, false), (3, false)],
        ]);
        for k in level0_kernels(&f) {
            assert!(is_level0_kernel(&k.kernel));
        }
        // (a+b) and (c+d) are level-0; f itself is not.
        let ab = sop(&[&[(0, false)], &[(1, false)]]);
        assert!(level0_kernels(&f).iter().any(|k| k.kernel == ab));
        assert!(!is_level0_kernel(&f));
    }

    #[test]
    fn kernels_of_xor_shape() {
        // f = a·!b + !a·b is cube-free and level-0.
        let f = sop(&[&[(0, false), (1, true)], &[(0, true), (1, false)]]);
        assert!(is_level0_kernel(&f));
        let ks = kernels(&f);
        assert!(ks.iter().any(|k| k.kernel == f));
    }
}
