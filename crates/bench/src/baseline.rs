//! Frozen pre-optimization kernels, kept as perf baselines.
//!
//! * [`baseline_tree_cost`] is a cost-faithful transcription of the
//!   mapper's original subset DP (closure-based child costs re-evaluated
//!   inside the innermost loop, fresh table allocations per node, no
//!   feasibility pruning), operating on the public [`Tree`] API.
//!   `chortle-bench --bin perf` times it against
//!   [`chortle::tree_lut_cost`] and asserts both kernels agree on every
//!   tree, so the recorded speedups compare identical answers.
//! * [`baseline_check_equivalence`] is the original equivalence checker:
//!   a bit-serial LUT simulator (64 × K shift-and-test steps and one
//!   `Vec` per LUT per chunk), per-chunk buffer allocation, and the
//!   frozen word-per-round network simulator of [`sim`]. `perf` times it
//!   against [`chortle_netlist::check_equivalence`]; the differential
//!   tests use it as the oracle that the block checker reports the
//!   identical [`EquivalenceError`]. [`baseline_check_networks`] is the
//!   same oracle for [`chortle_netlist::check_networks`].
//! * [`baseline_optimize`] is the optimization script with the original
//!   whole-network `eliminate` and `extract_kernels`: every candidate
//!   variable scans every node, and every extraction re-enumerates the
//!   kernels of every node. It runs on the frozen `Vec<Literal>` cube
//!   algebra of [`algebra`] (division, minimization, kernels, factoring,
//!   cube extraction and network emission). `perf` times it against
//!   [`chortle_logic_opt::optimize_with`], and the differential tests
//!   require byte-identical networks and identical reports.
//! * [`baseline_parse_blif`] is the string-keyed BLIF reader: one
//!   `String` per token, one `Vec` per cube row, `HashMap<String, _>`
//!   elaboration and a `HashSet` per reduced gate. `perf` times it
//!   against [`chortle_netlist::parse_blif`], and the differential tests
//!   require an equal network or an equal error.
//! * [`baseline_simplified`] and [`baseline_write_lut_blif`] are the
//!   mapper's normalization and LUT writer before their hot paths lost
//!   their per-gate hash sets and per-character `write!`s (see
//!   [`render`]). `perf` times them against `Network::simplified` and
//!   [`chortle_netlist::write_lut_blif`] after asserting equal outputs.
//!
//! Do not "improve" this module — its slowness is the point.

use std::collections::HashMap;

use chortle::{Tree, TreeChild};
use chortle_logic_opt::{
    heuristic_minimize, minimize_exact, Cube, Literal, OptimizeOptions, OptimizeReport, Sop,
    SopNetwork,
};
use chortle_netlist::{
    EquivalenceError, LutCircuit, LutSource, Network, NetworkError, NodeId, NodeOp, SplitMix64,
    MAX_VARS, RANDOM_ROUNDS,
};

pub mod algebra;
mod parse;
pub mod render;
pub mod sim;

use algebra::{
    baseline_divide, baseline_extract_cubes, baseline_kernels, baseline_minimize,
    baseline_to_network,
};

pub use parse::baseline_parse_blif;
pub use render::{baseline_simplified, baseline_write_lut_blif};
pub use sim::{baseline_check_networks, baseline_simulate_outputs, NETWORKS_SEED};

/// Seed of `check_equivalence`'s random pattern stream.
pub const CIRCUIT_SEED: u64 = 0xC0FF_EE00_D15E_A5ED;

const INF: u32 = 1_000_000_000;

/// The per-node kernel enumeration caps of `extract_kernels`.
const MAX_KERNELS_PER_NODE: usize = 200;
const MAX_CUBES_FOR_KERNELING: usize = 120;

#[derive(Clone, Copy, PartialEq, Eq)]
struct Cost {
    depth: u32,
    luts: u32,
}

impl Cost {
    const INFEASIBLE: Cost = Cost {
        depth: INF,
        luts: INF,
    };
    const ZERO: Cost = Cost { depth: 0, luts: 0 };

    fn is_infeasible(self) -> bool {
        self.luts >= INF
    }

    fn combine(self, other: Cost) -> Cost {
        if self.is_infeasible() || other.is_infeasible() {
            return Cost::INFEASIBLE;
        }
        Cost {
            depth: self.depth.max(other.depth),
            luts: self.luts + other.luts,
        }
    }

    fn better_than(self, other: Cost) -> bool {
        (self.luts, self.depth) < (other.luts, other.depth)
    }
}

#[derive(Clone, Copy)]
enum Choice {
    None,
    Singleton { _w: u8 },
    Group { _group: u32 },
}

struct NodeDp {
    fcost: Vec<Cost>,
    #[allow(dead_code)]
    fchoice: Vec<Choice>,
    ndcost: Vec<Cost>,
    #[allow(dead_code)]
    ndbest_u: Vec<u8>,
    node_cost: Vec<Cost>,
    #[allow(dead_code)]
    node_best_u: Vec<u8>,
}

/// LUT count of the optimal area-objective mapping of `tree`, computed
/// by the frozen kernel (zero leaf depths, as in the paper).
///
/// # Panics
///
/// Panics if `k < 2` or a node's fanin exceeds 25.
pub fn baseline_tree_cost(tree: &Tree, k: usize) -> u32 {
    assert!(k >= 2, "lookup tables must have at least two inputs");
    let mut nodes: Vec<NodeDp> = Vec::with_capacity(tree.nodes.len());
    for node in &tree.nodes {
        let f = node.children.len();
        assert!(f <= 25, "split wide nodes first");
        let full: u32 = (1u32 << f) - 1;
        let states = (full as usize + 1) * (k + 1);
        let mut dp = NodeDp {
            fcost: vec![Cost::INFEASIBLE; states],
            fchoice: vec![Choice::None; states],
            ndcost: vec![Cost::INFEASIBLE; full as usize + 1],
            ndbest_u: vec![0; full as usize + 1],
            node_cost: vec![Cost::INFEASIBLE; k + 1],
            node_best_u: vec![0; k + 1],
        };
        dp.fcost[0] = Cost::ZERO;

        let child_cost = |i: usize, w: usize| -> Cost {
            match node.children[i] {
                TreeChild::Leaf(_) => {
                    if w == 1 {
                        Cost::ZERO
                    } else {
                        Cost::INFEASIBLE
                    }
                }
                TreeChild::Node { index, .. } => {
                    let child: &NodeDp = &nodes[index];
                    if w == 1 {
                        let c = child.node_cost[k];
                        if c.is_infeasible() {
                            Cost::INFEASIBLE
                        } else {
                            Cost {
                                depth: c.depth + 1,
                                luts: c.luts,
                            }
                        }
                    } else {
                        let c = child.node_cost[w];
                        if c.is_infeasible() {
                            Cost::INFEASIBLE
                        } else {
                            Cost {
                                depth: c.depth,
                                luts: c.luts - 1,
                            }
                        }
                    }
                }
            }
        };

        for set in 1..=full {
            let i = set.trailing_zeros() as usize;
            let ibit = 1u32 << i;
            let rest_base = set & !ibit;
            for u in (2..=k).rev() {
                let mut best = Cost::INFEASIBLE;
                let mut best_choice = Choice::None;
                for w in 1..=u {
                    let c = child_cost(i, w);
                    if c.is_infeasible() {
                        continue;
                    }
                    let rest = dp.fcost[rest_base as usize * (k + 1) + (u - w)];
                    let total = c.combine(rest);
                    if total.better_than(best) {
                        best = total;
                        best_choice = Choice::Singleton { _w: w as u8 };
                    }
                }
                let mut g = rest_base;
                while g != 0 {
                    let block = g | ibit;
                    let ndc = dp.ndcost[block as usize];
                    if !ndc.is_infeasible() {
                        let rest_set = set & !block;
                        let rest = dp.fcost[rest_set as usize * (k + 1) + (u - 1)];
                        let wire = Cost {
                            depth: ndc.depth + 1,
                            luts: ndc.luts,
                        };
                        let total = wire.combine(rest);
                        if total.better_than(best) {
                            best = total;
                            best_choice = Choice::Group { _group: block };
                        }
                    }
                    g = (g - 1) & rest_base;
                }
                dp.fcost[set as usize * (k + 1) + u] = best;
                dp.fchoice[set as usize * (k + 1) + u] = best_choice;
            }
            if set.count_ones() >= 2 {
                let mut best = Cost::INFEASIBLE;
                let mut best_u = 0u8;
                for u in 2..=k {
                    let c = dp.fcost[set as usize * (k + 1) + u];
                    if c.is_infeasible() {
                        continue;
                    }
                    let with_root = Cost {
                        depth: c.depth,
                        luts: c.luts + 1,
                    };
                    if with_root.better_than(best) {
                        best = with_root;
                        best_u = u as u8;
                    }
                }
                dp.ndcost[set as usize] = best;
                dp.ndbest_u[set as usize] = best_u;
            }
            let (c1, ch1) = if set.count_ones() == 1 {
                (child_cost(i, 1), Choice::Singleton { _w: 1 })
            } else {
                let ndc = dp.ndcost[set as usize];
                let wire = if ndc.is_infeasible() {
                    Cost::INFEASIBLE
                } else {
                    Cost {
                        depth: ndc.depth + 1,
                        luts: ndc.luts,
                    }
                };
                (wire, Choice::Group { _group: set })
            };
            dp.fcost[set as usize * (k + 1) + 1] = c1;
            dp.fchoice[set as usize * (k + 1) + 1] = if c1.is_infeasible() {
                Choice::None
            } else {
                ch1
            };
        }

        let mut running = Cost::INFEASIBLE;
        let mut running_u = 0u8;
        for u in 2..=k {
            let c = dp.fcost[full as usize * (k + 1) + u];
            if !c.is_infeasible() {
                let with_root = Cost {
                    depth: c.depth,
                    luts: c.luts + 1,
                };
                if with_root.better_than(running) {
                    running = with_root;
                    running_u = u as u8;
                }
            }
            dp.node_cost[u] = running;
            dp.node_best_u[u] = running_u;
        }
        nodes.push(dp);
    }
    nodes[tree.root_index()].node_cost[k].luts
}

/// [`chortle_netlist::check_equivalence`] as it was before word-parallel
/// LUT evaluation: same patterns, same chunk order, same errors.
///
/// # Errors
///
/// Returns an [`EquivalenceError`] naming the first differing output
/// with a counterexample.
///
/// # Panics
///
/// Panics if the circuit and network disagree on the number of outputs.
pub fn baseline_check_equivalence(
    network: &Network,
    circuit: &LutCircuit,
) -> Result<(), EquivalenceError> {
    assert_eq!(
        network.num_outputs(),
        circuit.outputs().len(),
        "network and circuit must have the same number of outputs"
    );
    let n = network.num_inputs();
    let mut input_pos = vec![usize::MAX; network.len()];
    for (i, &id) in network.inputs().iter().enumerate() {
        input_pos[id.index()] = i;
    }
    let index = |id: NodeId| input_pos[id.index()];

    if n <= MAX_VARS.min(20) {
        // Exhaustive: sweep all 2^n assignments in 64-pattern chunks.
        let total: u64 = 1u64 << n;
        let mut base = 0u64;
        while base < total {
            let mut words = vec![0u64; n];
            let chunk = (total - base).min(64);
            for off in 0..chunk {
                let bits = base + off;
                for (i, w) in words.iter_mut().enumerate() {
                    if (bits >> i) & 1 == 1 {
                        *w |= 1 << off;
                    }
                }
            }
            compare_chunk(network, circuit, &words, chunk, base, &index)?;
            base += 64;
        }
        Ok(())
    } else {
        let mut rng = SplitMix64::new(CIRCUIT_SEED);
        for _ in 0..RANDOM_ROUNDS {
            let words: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            compare_random_chunk(network, circuit, &words, &index)?;
        }
        Ok(())
    }
}

fn compare_chunk(
    network: &Network,
    circuit: &LutCircuit,
    words: &[u64],
    chunk: u64,
    base: u64,
    index: &dyn Fn(NodeId) -> usize,
) -> Result<(), EquivalenceError> {
    let want = baseline_simulate_outputs(network, words);
    let got = bit_serial_simulate(circuit, words, index);
    for (o, (w, g)) in want.iter().zip(&got).enumerate() {
        let mask = if chunk == 64 {
            u64::MAX
        } else {
            (1u64 << chunk) - 1
        };
        let diff = (w ^ g) & mask;
        if diff != 0 {
            return Err(EquivalenceError {
                output: network.outputs()[o].name.clone(),
                counterexample: base + diff.trailing_zeros() as u64,
            });
        }
    }
    Ok(())
}

fn compare_random_chunk(
    network: &Network,
    circuit: &LutCircuit,
    words: &[u64],
    index: &dyn Fn(NodeId) -> usize,
) -> Result<(), EquivalenceError> {
    let want = baseline_simulate_outputs(network, words);
    let got = bit_serial_simulate(circuit, words, index);
    for (o, (w, g)) in want.iter().zip(&got).enumerate() {
        let diff = w ^ g;
        if diff != 0 {
            // Reconstruct the failing assignment from the packed words.
            let bit = diff.trailing_zeros();
            let mut assignment = 0u64;
            for (i, iw) in words.iter().enumerate().take(64) {
                if (iw >> bit) & 1 == 1 {
                    assignment |= 1 << i;
                }
            }
            return Err(EquivalenceError {
                output: network.outputs()[o].name.clone(),
                counterexample: assignment,
            });
        }
    }
    Ok(())
}

/// The original `LutCircuit::simulate`: every LUT evaluated one pattern
/// bit at a time through [`chortle_netlist::TruthTable::eval`].
fn bit_serial_simulate(
    circuit: &LutCircuit,
    input_words: &[u64],
    input_index: &dyn Fn(NodeId) -> usize,
) -> Vec<u64> {
    let source_word = |src: LutSource, lut_values: &[u64]| -> u64 {
        match src {
            LutSource::Input(id) => input_words[input_index(id)],
            LutSource::Lut(id) => lut_values[id.index()],
            LutSource::Const(true) => u64::MAX,
            LutSource::Const(false) => 0,
        }
    };
    let mut lut_values = vec![0u64; circuit.num_luts()];
    for (i, lut) in circuit.luts().iter().enumerate() {
        let in_words: Vec<u64> = lut
            .inputs()
            .iter()
            .map(|s| source_word(*s, &lut_values))
            .collect();
        let mut out = 0u64;
        for bit in 0..64 {
            let mut idx = 0u32;
            for (j, w) in in_words.iter().enumerate() {
                if (w >> bit) & 1 == 1 {
                    idx |= 1 << j;
                }
            }
            if lut.table().eval(idx) {
                out |= 1u64 << bit;
            }
        }
        lut_values[i] = out;
    }
    circuit
        .outputs()
        .iter()
        .map(|o| {
            let w = source_word(o.source, &lut_values);
            if o.inverted {
                !w
            } else {
                w
            }
        })
        .collect()
}

/// [`chortle_logic_opt::optimize_with`] with the original whole-network
/// `eliminate` and `extract_kernels`; every other step is the same call.
///
/// # Errors
///
/// Propagates [`NetworkError`] from network reconstruction.
pub fn baseline_optimize(
    network: &Network,
    options: &OptimizeOptions,
) -> Result<(Network, OptimizeReport), NetworkError> {
    let mut net = SopNetwork::from_network(network);
    let mut report = OptimizeReport {
        literals_before: net.literal_count(),
        ..OptimizeReport::default()
    };
    report.eliminated = baseline_eliminate(&mut net, options.eliminate_threshold);
    minimize_nodes(&mut net);
    if options.exact_node_minimization {
        for var in net.node_vars() {
            let sop = net.node_sop(var).expect("node").clone();
            if let Ok(min) = minimize_exact(&sop) {
                if min.num_literals() <= sop.num_literals() {
                    net.set_node_sop(var, min);
                }
            }
        }
    }
    if options.heuristic_node_minimization {
        for var in net.node_vars() {
            let sop = net.node_sop(var).expect("node").clone();
            let min = heuristic_minimize(&sop);
            if min.num_literals() <= sop.num_literals() {
                net.set_node_sop(var, min);
            }
        }
    }
    if options.kernel_extraction {
        report.extracted += baseline_extract_kernels(&mut net);
    }
    if options.cube_extraction {
        report.extracted += baseline_extract_cubes(&mut net);
    }
    minimize_nodes(&mut net);
    report.literals_after = net.literal_count();
    // `SopNetwork::from_network` names the inputs like this, in node order.
    let input_names: Vec<String> = network
        .nodes()
        .filter(|(_, node)| node.op() == NodeOp::Input)
        .map(|(id, node)| {
            node.name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("n{}", id.index()))
        })
        .collect();
    Ok((baseline_to_network(&net, &input_names)?, report))
}

/// `SopNetwork::minimize_nodes` over the frozen minimization.
fn minimize_nodes(net: &mut SopNetwork) {
    for var in net.node_vars() {
        let min = baseline_minimize(net.node_sop(var).expect("node"));
        net.set_node_sop(var, min);
    }
}

/// `SopNetwork::eliminate` as it was: each candidate's literal delta and
/// each inlining scan every node of the network.
fn baseline_eliminate(net: &mut SopNetwork, threshold: isize) -> usize {
    let mut eliminated = 0;
    loop {
        let mut progress = false;
        let counts = net.use_counts();
        for (var, &(pos, neg)) in counts.iter().enumerate() {
            let Some(sop) = net.node_sop(var).cloned() else {
                continue;
            };
            if neg > 0 || pos == 0 || net.outputs().iter().any(|(_, l)| l.var() == var) {
                continue;
            }
            let x = Literal::positive(var);
            if !(sop.is_zero() || sop.is_one()) {
                let m = sop.num_cubes() as isize;
                let lam = sop.num_literals() as isize;
                let mut value = -lam;
                for i in 0..net.len() {
                    for c in net.node_sop(i).map_or(&[][..], Sop::cubes) {
                        if c.has(x) {
                            let len = c.len() as isize;
                            value += m * (len - 1) + lam - len;
                        }
                    }
                }
                if value > threshold {
                    continue;
                }
            }
            for i in 0..net.len() {
                if i == var {
                    continue;
                }
                let consumer = match net.node_sop(i) {
                    Some(s) if s.literal_counts().contains_key(&x) => s.clone(),
                    _ => continue,
                };
                let mut new_cubes: Vec<Cube> = Vec::new();
                for c in consumer.cubes() {
                    if c.has(x) {
                        let rest = c.without(&Cube::from_literals([x]).expect("lit cube"));
                        for d in sop.cubes() {
                            if let Some(p) = rest.product(d) {
                                new_cubes.push(p);
                            }
                        }
                    } else {
                        new_cubes.push(c.clone());
                    }
                }
                net.set_node_sop(i, baseline_minimize(&Sop::from_cubes(new_cubes)));
            }
            net.set_node_sop(var, Sop::zero());
            eliminated += 1;
            progress = true;
        }
        if !progress {
            break;
        }
    }
    eliminated
}

/// `extract_kernels` as it was: every round re-enumerates the kernels of
/// every node and re-divides every (kernel, user) pair. Returns the
/// number of kernels extracted.
fn baseline_extract_kernels(net: &mut SopNetwork) -> usize {
    let mut extracted = 0;
    loop {
        let mut candidates: HashMap<Sop, Vec<usize>> = HashMap::new();
        for var in net.node_vars() {
            let sop = net.node_sop(var).expect("node var").clone();
            if sop.num_cubes() < 2 || sop.num_cubes() > MAX_CUBES_FOR_KERNELING {
                continue;
            }
            for k in baseline_kernels(&sop)
                .into_iter()
                .take(MAX_KERNELS_PER_NODE)
            {
                if k.kernel.num_cubes() < 2 {
                    continue;
                }
                candidates.entry(k.kernel).or_default().push(var);
            }
        }
        type BestKernel = (isize, Sop, Vec<usize>);
        let mut best: Option<BestKernel> = None;
        for (kernel, mut users) in candidates {
            users.sort_unstable();
            users.dedup();
            let mut uses = Vec::new();
            let mut total: isize = -(kernel.num_literals() as isize);
            for &var in &users {
                let f = net.node_sop(var).expect("node");
                let (q, r) = baseline_divide(f, &kernel);
                if q.is_zero() {
                    continue;
                }
                let new_lits = q.num_literals() + q.num_cubes() + r.num_literals();
                let v = f.num_literals() as isize - new_lits as isize;
                if v > 0 {
                    uses.push(var);
                    total += v;
                }
            }
            if uses.is_empty() || total <= 0 {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bt, bk, _)) => total > *bt || (total == *bt && kernel < *bk),
            };
            if better {
                best = Some((total, kernel, uses));
            }
        }
        let Some((_, kernel, uses)) = best else {
            break;
        };
        let x = net.add_node(kernel.clone());
        let x_cube = Cube::from_literals([Literal::positive(x)]).expect("fresh variable");
        for var in uses {
            let (q, r) = baseline_divide(net.node_sop(var).expect("node"), &kernel);
            let mut cubes: Vec<Cube> = q
                .cubes()
                .iter()
                .map(|c| c.product(&x_cube).expect("fresh variable cannot clash"))
                .collect();
            cubes.extend(r.cubes().iter().cloned());
            net.set_node_sop(var, Sop::from_cubes(cubes));
        }
        extracted += 1;
    }
    extracted
}

#[cfg(test)]
mod tests {
    use super::*;
    use chortle::{tree_lut_cost, Forest};
    use chortle_netlist::{Network, NodeOp, Signal};

    #[test]
    fn baseline_agrees_with_the_optimized_kernel() {
        let mut net = Network::new();
        let inputs: Vec<Signal> = (0..9)
            .map(|i| Signal::new(net.add_input(format!("i{i}"))))
            .collect();
        let g1 = Signal::new(net.add_gate(NodeOp::And, inputs[0..4].to_vec()));
        let g2 = Signal::new(net.add_gate(NodeOp::Or, inputs[4..9].to_vec()));
        let z = Signal::new(net.add_gate(NodeOp::And, vec![g1, !g2]));
        net.add_output("z", z);
        let forest = Forest::of(&net);
        for tree in &forest.trees {
            for k in 2..=6 {
                assert_eq!(baseline_tree_cost(tree, k), tree_lut_cost(tree, k), "k={k}");
            }
        }
    }
}
