//! The "standard MIS II script": the optimization pipeline both mappers'
//! input networks go through in the paper's evaluation (Section 4.2).
//!
//! The sequence mirrors the classic algebraic script: sweep/eliminate small
//! nodes, simplify each node SOP, greedily extract common kernels and
//! cubes, then factor every node into the AND/OR form handed to technology
//! mapping.

use chortle_netlist::{Network, NetworkError};
use chortle_telemetry::{catalogue, Telemetry};

use crate::extract::{extract_cubes, extract_kernels};
use crate::network::SopNetwork;

/// Tuning knobs of [`optimize_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptimizeOptions {
    /// Literal-growth threshold for node elimination (MIS' `eliminate`
    /// value); nodes whose inlining grows the network by more than this
    /// stay.
    pub eliminate_threshold: isize,
    /// Run greedy kernel extraction.
    pub kernel_extraction: bool,
    /// Run greedy cube extraction.
    pub cube_extraction: bool,
    /// Run exact two-level minimization on every node whose support fits
    /// [`crate::MAX_EXACT_VARS`] (MIS' `simplify`); the cheap
    /// single-cube-containment pass runs regardless.
    pub exact_node_minimization: bool,
    /// Run espresso-style heuristic minimization (EXPAND + IRREDUNDANT)
    /// on every node — no support bound, prime irredundant covers.
    pub heuristic_node_minimization: bool,
}

impl Default for OptimizeOptions {
    fn default() -> Self {
        OptimizeOptions {
            eliminate_threshold: 0,
            kernel_extraction: true,
            cube_extraction: true,
            exact_node_minimization: false,
            heuristic_node_minimization: false,
        }
    }
}

/// Optimization summary returned next to the network.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptimizeReport {
    /// SOP literals before optimization.
    pub literals_before: usize,
    /// SOP literals after extraction (before factoring).
    pub literals_after: usize,
    /// Nodes eliminated by inlining.
    pub eliminated: usize,
    /// Kernels + cubes extracted as new nodes.
    pub extracted: usize,
}

/// Runs the default optimization script on a network.
///
/// # Errors
///
/// Propagates [`NetworkError`] from network reconstruction (which only
/// fails on cyclic inputs).
///
/// # Examples
///
/// ```
/// use chortle_netlist::{Network, NodeOp, Signal};
/// use chortle_logic_opt::optimize;
///
/// let mut net = Network::new();
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let c = net.add_input("c");
/// // z = (a AND c) OR (b AND c) — optimizes toward (a OR b) AND c.
/// let g1 = net.add_gate(NodeOp::And, vec![a.into(), c.into()]);
/// let g2 = net.add_gate(NodeOp::And, vec![b.into(), c.into()]);
/// let z = net.add_gate(NodeOp::Or, vec![g1.into(), g2.into()]);
/// net.add_output("z", z.into());
///
/// let (optimized, report) = optimize(&net)?;
/// assert!(report.literals_after <= report.literals_before);
/// assert_eq!(optimized.num_outputs(), 1);
/// # Ok::<(), chortle_netlist::NetworkError>(())
/// ```
pub fn optimize(network: &Network) -> Result<(Network, OptimizeReport), NetworkError> {
    optimize_with(network, &OptimizeOptions::default())
}

/// Runs the optimization script with explicit options.
///
/// # Errors
///
/// Propagates [`NetworkError`] from network reconstruction.
pub fn optimize_with(
    network: &Network,
    options: &OptimizeOptions,
) -> Result<(Network, OptimizeReport), NetworkError> {
    optimize_with_telemetry(network, options, &Telemetry::disabled())
}

/// [`optimize_with`] reporting per-stage wall times and counters into a
/// [`Telemetry`] sink (stage names in [`catalogue`]). A disabled sink makes
/// this identical to [`optimize_with`].
///
/// # Errors
///
/// Propagates [`NetworkError`] from network reconstruction.
pub fn optimize_with_telemetry(
    network: &Network,
    options: &OptimizeOptions,
    telemetry: &Telemetry,
) -> Result<(Network, OptimizeReport), NetworkError> {
    let mut sop_net = SopNetwork::from_network(network);
    optimize_sop_network_with_telemetry(&mut sop_net, options, telemetry)
}

/// Optimizes a [`SopNetwork`] in place (for callers that start from SOPs,
/// like the benchmark-circuit generators) and emits the factored network.
///
/// # Errors
///
/// Propagates [`NetworkError`] from network reconstruction.
pub fn optimize_sop_network(
    sop_net: &mut SopNetwork,
    options: &OptimizeOptions,
) -> Result<(Network, OptimizeReport), NetworkError> {
    optimize_sop_network_with_telemetry(sop_net, options, &Telemetry::disabled())
}

/// [`optimize_sop_network`] reporting into a [`Telemetry`] sink.
///
/// # Errors
///
/// Propagates [`NetworkError`] from network reconstruction.
pub fn optimize_sop_network_with_telemetry(
    sop_net: &mut SopNetwork,
    options: &OptimizeOptions,
    telemetry: &Telemetry,
) -> Result<(Network, OptimizeReport), NetworkError> {
    let mut report = OptimizeReport {
        literals_before: sop_net.literal_count(),
        ..OptimizeReport::default()
    };
    {
        let _s = telemetry.span(catalogue::OPT_ELIMINATE);
        report.eliminated = sop_net.eliminate(options.eliminate_threshold);
    }
    {
        let _s = telemetry.span(catalogue::OPT_MINIMIZE);
        sop_net.minimize_nodes();
    }
    if options.exact_node_minimization {
        let _s = telemetry.span(catalogue::OPT_EXACT);
        for var in sop_net.node_vars() {
            let sop = sop_net.node_sop(var).expect("node").clone();
            if let Ok(min) = crate::two_level::minimize_exact(&sop) {
                if min.num_literals() <= sop.num_literals() {
                    sop_net.set_node_sop(var, min);
                }
            }
        }
    }
    if options.heuristic_node_minimization {
        let _s = telemetry.span(catalogue::OPT_HEURISTIC);
        for var in sop_net.node_vars() {
            let sop = sop_net.node_sop(var).expect("node").clone();
            let min = crate::espresso::heuristic_minimize(&sop);
            if min.num_literals() <= sop.num_literals() {
                sop_net.set_node_sop(var, min);
            }
        }
    }
    if options.kernel_extraction {
        let _s = telemetry.span(catalogue::OPT_KERNELS);
        report.extracted += extract_kernels(sop_net)?.extracted;
    }
    if options.cube_extraction {
        let _s = telemetry.span(catalogue::OPT_CUBES);
        report.extracted += extract_cubes(sop_net).extracted;
    }
    let net = {
        let _s = telemetry.span(catalogue::OPT_FACTOR);
        sop_net.minimize_nodes();
        report.literals_after = sop_net.literal_count();
        sop_net.to_network()?
    };
    telemetry.add_counter(catalogue::OPT_ELIMINATED, report.eliminated as u64);
    telemetry.add_counter(catalogue::OPT_EXTRACTED, report.extracted as u64);
    telemetry.add_counter(
        catalogue::OPT_LITERALS_SAVED,
        report.literals_before.saturating_sub(report.literals_after) as u64,
    );
    Ok((net, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chortle_netlist::{NodeOp, Signal};

    /// Exhaustively checks that optimization preserved all output
    /// functions.
    fn assert_preserved(before: &Network, after: &Network) {
        assert_eq!(before.num_outputs(), after.num_outputs());
        for (o1, o2) in before.outputs().iter().zip(after.outputs()) {
            assert_eq!(o1.name, o2.name);
            let f1 = before.signal_function(o1.signal).expect("small");
            let f2 = after.signal_function(o2.signal).expect("small");
            assert_eq!(f1, f2, "function of output {} changed", o1.name);
        }
    }

    #[test]
    fn optimize_preserves_functions() {
        let mut net = Network::new();
        let inputs: Vec<_> = (0..5).map(|i| net.add_input(format!("i{i}"))).collect();
        let g1 = net.add_gate(NodeOp::And, vec![inputs[0].into(), inputs[2].into()]);
        let g2 = net.add_gate(NodeOp::And, vec![inputs[1].into(), inputs[2].into()]);
        let g3 = net.add_gate(NodeOp::Or, vec![g1.into(), g2.into()]);
        let g4 = net.add_gate(NodeOp::And, vec![g3.into(), Signal::inverted(inputs[3])]);
        let g5 = net.add_gate(NodeOp::Or, vec![g4.into(), inputs[4].into()]);
        net.add_output("x", g3.into());
        net.add_output("y", Signal::inverted(g5));

        let (optimized, report) = optimize(&net).expect("optimizes");
        optimized.validate().expect("valid");
        assert!(report.literals_after <= report.literals_before);
        assert_preserved(&net, &optimized);
    }

    #[test]
    fn optimize_reduces_shared_logic() {
        // Two outputs both containing the divisor (a + b).
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let g1 = net.add_gate(NodeOp::And, vec![a.into(), c.into()]);
        let g2 = net.add_gate(NodeOp::And, vec![b.into(), c.into()]);
        let x = net.add_gate(NodeOp::Or, vec![g1.into(), g2.into()]);
        let g3 = net.add_gate(NodeOp::And, vec![a.into(), d.into()]);
        let g4 = net.add_gate(NodeOp::And, vec![b.into(), d.into()]);
        let y = net.add_gate(NodeOp::Or, vec![g3.into(), g4.into()]);
        net.add_output("x", x.into());
        net.add_output("y", y.into());

        let (optimized, _) = optimize(&net).expect("optimizes");
        assert_preserved(&net, &optimized);
        // Factored form needs at most as many literals as the original.
        assert!(optimized.literal_count() <= net.literal_count());
    }

    #[test]
    fn optimize_handles_constants() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let k = net.add_const(true);
        let g = net.add_gate(NodeOp::And, vec![a.into(), k.into()]);
        net.add_output("z", g.into());
        let (optimized, _) = optimize(&net).expect("optimizes");
        assert_preserved(&net, &optimized);
    }

    #[test]
    fn optimize_with_exact_simplify_preserves_functions() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        // ab + a!b + !ab (consensus-rich) feeding further logic.
        let g1 = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        let g2 = net.add_gate(NodeOp::And, vec![a.into(), Signal::inverted(b)]);
        let g3 = net.add_gate(NodeOp::And, vec![Signal::inverted(a), b.into()]);
        let o = net.add_gate(NodeOp::Or, vec![g1.into(), g2.into(), g3.into()]);
        let z = net.add_gate(NodeOp::And, vec![o.into(), c.into()]);
        net.add_output("z", z.into());
        let options = OptimizeOptions {
            exact_node_minimization: true,
            ..OptimizeOptions::default()
        };
        let (optimized, report) = optimize_with(&net, &options).expect("optimizes");
        assert_preserved(&net, &optimized);
        assert!(report.literals_after <= report.literals_before);
    }

    #[test]
    fn optimize_with_heuristic_simplify_preserves_functions() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g1 = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        let g2 = net.add_gate(NodeOp::And, vec![Signal::inverted(a), c.into()]);
        let g3 = net.add_gate(NodeOp::And, vec![b.into(), c.into()]); // consensus
        let z = net.add_gate(NodeOp::Or, vec![g1.into(), g2.into(), g3.into()]);
        net.add_output("z", z.into());
        let options = OptimizeOptions {
            heuristic_node_minimization: true,
            ..OptimizeOptions::default()
        };
        let (optimized, report) = optimize_with(&net, &options).expect("optimizes");
        assert_preserved(&net, &optimized);
        assert!(report.literals_after <= report.literals_before);
    }

    #[test]
    fn optimize_single_wire() {
        let mut net = Network::new();
        let a = net.add_input("a");
        net.add_output("z", Signal::inverted(a));
        let (optimized, _) = optimize(&net).expect("optimizes");
        assert_preserved(&net, &optimized);
    }
}
