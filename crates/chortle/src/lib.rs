//! Chortle: technology mapping for lookup-table-based FPGAs.
//!
//! A from-scratch reproduction of *"Chortle: A Technology Mapping Program
//! for Lookup Table-Based Field Programmable Gate Arrays"* (R. J. Francis,
//! J. Rose, K. Chung, DAC 1990). Chortle maps an optimized Boolean
//! network of AND/OR nodes into the minimum number of K-input lookup
//! tables for fanout-free trees:
//!
//! 1. the network is divided into a forest of maximal fanout-free trees
//!    ([`Forest`]),
//! 2. nodes wider than the split threshold are halved
//!    ([`Tree::split_wide_nodes`]),
//! 3. each tree is mapped by a dynamic program over *utilizations* and
//!    *utilization divisions* that considers **all decompositions of every
//!    node** ([`map_network`]),
//! 4. the recorded decisions are rebuilt into a self-contained
//!    [`LutCircuit`](chortle_netlist::LutCircuit) with explicit truth
//!    tables.
//!
//! The mapping is optimal (in LUT count) per tree; the [`reference`]
//! module carries a literal transcription of the paper's pseudo-code used
//! as an oracle in the test suite.
//!
//! # Examples
//!
//! ```
//! use chortle::{map_network, MapOptions};
//! use chortle_netlist::{check_equivalence, Network, NodeOp};
//!
//! // z = (a AND b) OR (c AND d)
//! let mut net = Network::new();
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let c = net.add_input("c");
//! let d = net.add_input("d");
//! let g1 = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
//! let g2 = net.add_gate(NodeOp::And, vec![c.into(), d.into()]);
//! let z = net.add_gate(NodeOp::Or, vec![g1.into(), g2.into()]);
//! net.add_output("z", z.into());
//!
//! let mapped = map_network(&net, &MapOptions::builder(4).build()?)?;
//! assert_eq!(mapped.report.luts, 1); // the whole cone fits one 4-LUT
//! check_equivalence(&net, &mapped.circuit).expect("equivalent");
//! # Ok::<(), chortle::MapError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod cancel;
pub mod clb;
mod cover;
mod crf;
mod design;
mod dp;
mod duplication;
pub mod figures;
mod flow;
mod map;
mod pack;
pub mod reference;
mod sched;
mod tree;

pub use cache::{CacheMode, WarmCache, WarmStats};
pub use cancel::CancelToken;
pub use crf::{crf_network_cost, crf_tree_cost, CrfTreeCost};
pub use design::{
    map_design, record_parse_stats, DesignError, DesignOptions, MappedCloud, MappedDesign,
};
pub use dp::Objective;
pub use duplication::{duplicate_fanout_gates, map_network_best};
pub use flow::{
    run_design_flow, run_flow, FlowError, FlowOptions, FlowResult, Mapper, OutputFormat,
};
pub use map::{map_network, LutCheck, MapError, MapOptions, MapOptionsBuilder, MapReport, Mapping};
pub use pack::PackMode;
pub use tree::{Fingerprint, FingerprintScratch, Forest, Tree, TreeChild, TreeNode};

// The optimizer the flow runs, re-exported so callers of the flow can run
// the same script step by step without a dependency of their own.
pub use chortle_logic_opt as logic_opt;

// Observability: re-exported so downstream crates need no direct
// dependency on the telemetry crate for the common path.
pub use chortle_telemetry::{
    catalogue, Histogram, Report as MapStats, Telemetry, Trace, TraceEvent, TraceKind, TraceScope,
};

/// Cost of the optimal mapping of a single tree (exposed for benches and
/// tests; [`map_network`] is the end-to-end API).
///
/// # Panics
///
/// Panics if `k < 2` or a node's fanin exceeds 25 (split first).
///
/// # Examples
///
/// ```
/// use chortle::{tree_lut_cost, Forest};
/// use chortle_netlist::{Network, NodeOp};
///
/// let mut net = Network::new();
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let g = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
/// net.add_output("z", g.into());
/// let forest = Forest::of(&net);
/// assert_eq!(tree_lut_cost(&forest.trees[0], 4), 1);
/// ```
pub fn tree_lut_cost(tree: &Tree, k: usize) -> u32 {
    TreeMapper::new()
        .tree_cost(tree, k)
        .expect("fanin within the subset-DP bound; split wide nodes first")
}

/// A reusable tree-cost evaluator.
///
/// The subset DP works out of a scratch arena; one `TreeMapper` keeps
/// that arena alive across calls, so evaluating many trees (or the same
/// tree at several K) performs no allocation after the first call. Use
/// this instead of [`tree_lut_cost`] in any loop:
///
/// ```
/// use chortle::{Forest, TreeMapper};
/// use chortle_netlist::{Network, NodeOp};
///
/// let mut net = Network::new();
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let g = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
/// net.add_output("z", g.into());
/// let forest = Forest::of(&net);
///
/// let mut mapper = TreeMapper::new();
/// let total: u32 = forest
///     .trees
///     .iter()
///     .map(|t| mapper.tree_cost(t, 4).expect("narrow fanin"))
///     .sum();
/// assert_eq!(total, 1);
/// ```
#[derive(Default)]
pub struct TreeMapper {
    scratch: dp::DpScratch,
}

impl TreeMapper {
    /// An evaluator with an empty arena (it grows on first use).
    pub fn new() -> Self {
        TreeMapper {
            scratch: dp::DpScratch::new(),
        }
    }

    /// LUT count of the optimal area-objective mapping of `tree` (zero
    /// leaf depths, as in the paper) — the value [`tree_lut_cost`]
    /// returns, without the per-call allocations.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::FaninTooWide`] if a node's fanin exceeds the
    /// subset-DP bound of 25 (run [`Tree::split_wide_nodes`] first).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`.
    pub fn tree_cost(&mut self, tree: &Tree, k: usize) -> Result<u32, MapError> {
        dp::tree_cost_with(tree, k, Objective::Area, &|_| 0, &mut self.scratch).map(|c| c.luts)
    }
}
