//! Greedy common-subexpression extraction (MIS' `gkx` / `gcx`).
//!
//! Kernel extraction finds multi-cube divisors shared across node SOPs and
//! turns the best one into a new node; cube extraction does the same for
//! single-cube divisors. Both passes repeat greedily while the total
//! literal count decreases — the objective the paper's "standard MIS II
//! script" minimizes before technology mapping.

use std::collections::{BTreeMap, HashMap};

use chortle_netlist::NetworkError;

use crate::cube::{Cube, Literal};
use crate::kernels::{kernel_rows, KERNEL_BUDGET};
use crate::network::SopNetwork;
use crate::rows::{ones, Division, Rows, Space};
use crate::sop::Sop;

/// Caps kernel enumeration per node to keep extraction fast on wide SOPs.
const MAX_KERNELS_PER_NODE: usize = 200;
/// Nodes with more cubes than this are skipped by kernel enumeration.
const MAX_CUBES_FOR_KERNELING: usize = 120;

/// Outcome of one extraction pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExtractReport {
    /// New nodes created.
    pub extracted: usize,
    /// Total SOP literals saved.
    pub literals_saved: usize,
}

/// Literal-count value of substituting a divisor into `f` given the weak
/// division `f = q·d + r`: `lits(f) - (lits(q) + cubes(q) + lits(r))`, or
/// `None` when the divisor does not divide `f`.
fn substitution_value(f: &Sop, (q, r): &(Sop, Sop)) -> Option<isize> {
    if q.is_zero() {
        return None;
    }
    let new_lits = q.num_literals() + q.num_cubes() + r.num_literals();
    Some(f.num_literals() as isize - new_lits as isize)
}

/// Substitutes divisor node `x` (defined as `d`) into node `var`'s SOP
/// `f`: `f = x·q + r`. The division re-derives the substitution value,
/// which must equal the `cached` one the extraction was chosen by.
fn substitute(f: &Sop, d: &Sop, x: usize, var: usize, cached: isize) -> Result<Sop, NetworkError> {
    let division = f.divide(d);
    let value = substitution_value(f, &division);
    if value != Some(cached) {
        return Err(NetworkError::Structure(format!(
            "kernel cache out of date: node v{var} has substitution value {value:?} \
             for the chosen kernel, cache holds {cached}"
        )));
    }
    let (q, r) = division;
    let x_cube = Cube::from_literals([Literal::positive(x)]).expect("fresh variable");
    let mut cubes: Vec<Cube> = q
        .cubes()
        .iter()
        .map(|c| c.product(&x_cube).expect("fresh variable cannot clash"))
        .collect();
    cubes.extend(r.cubes().iter().cloned());
    Ok(Sop::from_cubes(cubes))
}

/// A candidate divisor of [`extract_kernels`].
struct Candidate {
    kernel: Sop,
    literals: isize,
    /// Contributing nodes whose substitution value is positive, with
    /// that value.
    uses: BTreeMap<usize, isize>,
    /// The sum of `uses`' values.
    gain: isize,
}

/// The kernels every node contributes and their per-node substitution
/// values. A value depends only on the node's SOP and the kernel, so an
/// extraction invalidates exactly the nodes it rewrites.
#[derive(Default)]
struct KernelIndex {
    candidates: Vec<Candidate>,
    /// Kernel -> its position in `candidates`. A kernel's key is its
    /// global literal codes, cube by cube, each cube closed by
    /// `u32::MAX`: one flat buffer to build and hash, where a `Sop` key
    /// would allocate every cube.
    ids: HashMap<Vec<u32>, usize>,
    /// Candidate ids each node contributes, indexed by variable.
    contributed: Vec<Vec<usize>>,
}

impl KernelIndex {
    /// Enumerates node `var`'s kernels (within the per-node caps and the
    /// enumeration budget) and records its substitution value for each,
    /// dividing on the node's word rows.
    fn add_node(&mut self, net: &SopNetwork, var: usize) {
        let sop = net.node_sop(var).expect("node var");
        if self.contributed.len() <= var {
            self.contributed.resize_with(var + 1, Vec::new);
        }
        if sop.num_cubes() < 2 || sop.num_cubes() > MAX_CUBES_FOR_KERNELING {
            return;
        }
        let space = Space::of(&[sop]);
        let f = space.rows(sop);
        let Some(kernels) = kernel_rows(&f, KERNEL_BUDGET) else {
            return;
        };
        let mut ids: Vec<usize> = Vec::new();
        let mut key: Vec<u32> = Vec::new();
        // Kernels come sorted, so equal kernels (under different
        // co-kernels) are adjacent and each is divided once.
        let mut previous: Option<&Rows> = None;
        for k in kernels.iter().take(MAX_KERNELS_PER_NODE) {
            if k.kernel.len() < 2 || previous == Some(&k.kernel) {
                continue;
            }
            previous = Some(&k.kernel);
            key.clear();
            for row in k.kernel.iter() {
                key.extend(ones(row).map(|b| space.literal(b).code() as u32));
                key.push(u32::MAX);
            }
            let id = match self.ids.get(&key) {
                Some(&id) => id,
                None => {
                    let id = self.candidates.len();
                    let kernel = space.sop(&k.kernel);
                    self.ids.insert(key.clone(), id);
                    self.candidates.push(Candidate {
                        literals: kernel.num_literals() as isize,
                        kernel,
                        uses: BTreeMap::new(),
                        gain: 0,
                    });
                    id
                }
            };
            ids.push(id);
            let value = Division::of(&f, &k.kernel).map(|d| d.value(&f));
            if let Some(v) = value.filter(|&v| v > 0) {
                let c = &mut self.candidates[id];
                c.uses.insert(var, v);
                c.gain += v;
            }
        }
        ids.sort_unstable();
        self.contributed[var] = ids;
    }

    /// Forgets node `var`'s contributions (before its SOP is rewritten).
    fn remove_node(&mut self, var: usize) {
        for id in std::mem::take(&mut self.contributed[var]) {
            let c = &mut self.candidates[id];
            if let Some(v) = c.uses.remove(&var) {
                c.gain -= v;
            }
        }
    }

    /// The candidate with the largest positive total saving, ties broken
    /// toward the smallest kernel.
    fn best(&self) -> Option<(isize, usize)> {
        self.candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.uses.is_empty())
            .map(|(id, c)| (c.gain - c.literals, id))
            .filter(|&(total, _)| total > 0)
            .max_by(|(ta, a), (tb, b)| {
                ta.cmp(tb)
                    .then_with(|| self.candidates[*b].kernel.cmp(&self.candidates[*a].kernel))
            })
    }
}

/// One greedy kernel-extraction sweep: finds the kernel with the best total
/// literal saving across all nodes, extracts it as a new node, substitutes
/// it everywhere it pays, and repeats until no kernel saves literals.
///
/// Kernels and substitution values are enumerated once per node and kept
/// in an index; after an extraction only the rewritten nodes and the new
/// one are enumerated again.
///
/// Returns the number of extractions and literals saved.
///
/// # Errors
///
/// Returns [`NetworkError::Structure`] if a substitution's value differs
/// from the one the index recorded for it (a stale index).
///
/// # Examples
///
/// ```
/// use chortle_logic_opt::{extract_kernels, Literal, Sop, SopNetwork};
///
/// let mut net = SopNetwork::new();
/// let vars: Vec<usize> = (0..4).map(|i| net.add_input(format!("i{i}"))).collect();
/// // Two nodes sharing the divisor (a + b).
/// let f = Sop::try_from_slices(&[
///     &[(vars[0], false), (vars[2], false)],
///     &[(vars[1], false), (vars[2], false)],
/// ]).unwrap();
/// let g = Sop::try_from_slices(&[
///     &[(vars[0], false), (vars[3], false)],
///     &[(vars[1], false), (vars[3], false)],
/// ]).unwrap();
/// let nf = net.add_node(f);
/// let ng = net.add_node(g);
/// net.add_output("f", Literal::positive(nf));
/// net.add_output("g", Literal::positive(ng));
///
/// let report = extract_kernels(&mut net)?;
/// assert_eq!(report.extracted, 1);
/// # Ok::<(), chortle_netlist::NetworkError>(())
/// ```
pub fn extract_kernels(net: &mut SopNetwork) -> Result<ExtractReport, NetworkError> {
    let mut report = ExtractReport::default();
    let mut index = KernelIndex::default();
    for var in net.node_vars() {
        index.add_node(net, var);
    }
    while let Some((total, id)) = index.best() {
        let kernel = index.candidates[id].kernel.clone();
        let uses = index.candidates[id].uses.clone();
        let x = net.add_node(kernel.clone());
        for (var, value) in uses {
            let f = net.node_sop(var).expect("node");
            let g = substitute(f, &kernel, x, var, value)?;
            index.remove_node(var);
            net.set_node_sop(var, g);
            index.add_node(net, var);
        }
        index.add_node(net, x);
        report.extracted += 1;
        report.literals_saved += total as usize;
    }
    Ok(report)
}

/// One greedy cube-extraction sweep: finds the multi-literal cube shared by
/// the most product terms (weighted by literal savings), extracts it as a
/// new single-cube node, and repeats.
pub fn extract_cubes(net: &mut SopNetwork) -> ExtractReport {
    let mut report = ExtractReport::default();
    loop {
        // Candidate cubes: pairwise intersections of cubes within each
        // node (cross-node sharing is found because the intersection cube
        // is matched against every node below).
        let mut candidates: HashMap<Cube, ()> = HashMap::new();
        for var in net.node_vars() {
            let sop = net.node_sop(var).expect("node");
            let cubes = sop.cubes();
            for i in 0..cubes.len() {
                for j in (i + 1)..cubes.len().min(i + 40) {
                    let inter = cubes[i].intersection(&cubes[j]);
                    if inter.len() >= 2 {
                        candidates.insert(inter, ());
                    }
                }
            }
        }
        let mut best: Option<(isize, Cube, Vec<usize>)> = None;
        for (cube, ()) in candidates {
            let mut uses = Vec::new();
            let mut total: isize = -(cube.len() as isize);
            for var in net.node_vars() {
                let f = net.node_sop(var).expect("node");
                let covered = f.cubes().iter().filter(|c| cube.covers(c)).count() as isize;
                if covered >= 1 {
                    // Each covered cube replaces `len` literals by one.
                    let v = covered * (cube.len() as isize - 1);
                    if v > 0 {
                        uses.push(var);
                        total += v;
                    }
                }
            }
            if uses.is_empty() || total <= 0 {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bt, bc, _)) => total > *bt || (total == *bt && cube < *bc),
            };
            if better {
                best = Some((total, cube, uses));
            }
        }
        let Some((total, cube, uses)) = best else {
            break;
        };
        let x = net.add_node(Sop::from_cubes([cube.clone()]));
        let x_cube = Cube::from_literals([Literal::positive(x)]).expect("fresh variable");
        for var in uses {
            let f = net.node_sop(var).expect("node").clone();
            let cubes: Vec<Cube> = f
                .cubes()
                .iter()
                .map(|c| {
                    if cube.covers(c) {
                        c.without(&cube)
                            .product(&x_cube)
                            .expect("fresh variable cannot clash")
                    } else {
                        c.clone()
                    }
                })
                .collect();
            net.set_node_sop(var, Sop::from_cubes(cubes));
        }
        report.extracted += 1;
        report.literals_saved += total as usize;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sop(cubes: &[&[(usize, bool)]]) -> Sop {
        Sop::try_from_slices(cubes).unwrap()
    }

    fn check_preserved(net: &SopNetwork, reference: &SopNetwork, inputs: usize) {
        for bits in 0..(1u64 << inputs) {
            assert_eq!(
                net.eval_outputs(bits),
                reference.eval_outputs(bits),
                "outputs differ on {bits:b}"
            );
        }
    }

    #[test]
    fn kernel_extraction_saves_literals() {
        let mut net = SopNetwork::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let e = net.add_input("e");
        // f = ac + bc + ad + bd (kernel a+b used twice, or c+d twice)
        let nf = net.add_node(sop(&[
            &[(a, false), (c, false)],
            &[(b, false), (c, false)],
            &[(a, false), (d, false)],
            &[(b, false), (d, false)],
        ]));
        // g = ae + be shares a+b.
        let ng = net.add_node(sop(&[&[(a, false), (e, false)], &[(b, false), (e, false)]]));
        net.add_output("f", Literal::positive(nf));
        net.add_output("g", Literal::positive(ng));

        let before = net.clone();
        let lits_before = net.literal_count();
        let report = extract_kernels(&mut net).expect("fresh index");
        assert!(report.extracted >= 1);
        assert!(net.literal_count() < lits_before);
        check_preserved(&net, &before, 5);
    }

    #[test]
    fn cube_extraction_factors_shared_products() {
        let mut net = SopNetwork::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        // f = abc + abd + ab!d : shared cube ab used three times, so
        // extraction saves a literal (two uses would only break even).
        let nf = net.add_node(sop(&[
            &[(a, false), (b, false), (c, false)],
            &[(a, false), (b, false), (d, false)],
            &[(a, false), (b, false), (c, true), (d, true)],
        ]));
        net.add_output("f", Literal::positive(nf));

        let before = net.clone();
        let report = extract_cubes(&mut net);
        assert_eq!(report.extracted, 1);
        check_preserved(&net, &before, 4);
    }

    #[test]
    fn no_extraction_when_nothing_shared() {
        let mut net = SopNetwork::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let nf = net.add_node(sop(&[&[(a, false)], &[(b, false)]]));
        net.add_output("f", Literal::positive(nf));
        assert_eq!(extract_kernels(&mut net).expect("fresh index").extracted, 0);
        assert_eq!(extract_cubes(&mut net).extracted, 0);
    }

    #[test]
    fn substitute_rejects_a_stale_cached_value() {
        // f = ac + bc, d = a + b: the division re-derives value 2.
        let f = sop(&[&[(0, false), (2, false)], &[(1, false), (2, false)]]);
        let d = sop(&[&[(0, false)], &[(1, false)]]);
        let x = 5;
        let g = substitute(&f, &d, x, 4, 2).expect("matching value");
        assert_eq!(g, sop(&[&[(2, false), (x, false)]]));
        assert!(matches!(
            substitute(&f, &d, x, 4, 3),
            Err(NetworkError::Structure(_))
        ));
        let unrelated = sop(&[&[(3, false)], &[(4, false)]]);
        assert!(substitute(&f, &unrelated, x, 4, 2).is_err());
    }

    #[test]
    fn substitution_value_model() {
        // f = ac + bc, d = a + b: new form = x·c → lits 2, old 4, q = {c}
        // value = 4 - (1 + 1 + 0) = 2.
        let f = sop(&[&[(0, false), (2, false)], &[(1, false), (2, false)]]);
        let d = sop(&[&[(0, false)], &[(1, false)]]);
        assert_eq!(substitution_value(&f, &f.divide(&d)), Some(2));
        let unrelated = sop(&[&[(3, false)], &[(4, false)]]);
        assert_eq!(substitution_value(&f, &f.divide(&unrelated)), None);
    }
}
