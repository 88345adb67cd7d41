//! Boolean-network substrate for the Chortle technology-mapping family.
//!
//! This crate provides the shared data structures of the reproduction of
//! *"Chortle: A Technology Mapping Program for Lookup Table-Based Field
//! Programmable Gate Arrays"* (Francis, Rose & Chung, DAC 1990):
//!
//! * [`Network`] — the paper's Boolean-network DAG of AND/OR nodes with
//!   polarized edges (Section 2 of the paper),
//! * [`TruthTable`] — packed function tables for up to 16 variables,
//! * [`LutCircuit`] — circuits of K-input lookup tables, the output of
//!   technology mapping,
//! * BLIF reading/writing ([`parse_blif`], [`write_blif`],
//!   [`write_lut_blif`]),
//! * sequential designs ([`read_design`], [`Design`]) — a streaming
//!   full-spec BLIF front end with `.latch`, `.subckt` flattening and
//!   register-boundary cloud cutting,
//! * bit-parallel [`simulate`] / [`simulate_outputs`] and equivalence
//!   checking ([`check_equivalence`]),
//! * [`NetworkStats`] / [`LutStats`] summaries and a deterministic
//!   [`SplitMix64`] generator for reproducible workloads.
//!
//! # Examples
//!
//! Build a small network, compute a function, and dump it as BLIF:
//!
//! ```
//! use chortle_netlist::{Network, NodeOp, Signal, write_blif};
//!
//! let mut net = Network::new();
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let g = net.add_gate(NodeOp::And, vec![a.into(), Signal::inverted(b)]);
//! net.add_output("z", g.into());
//!
//! let f = net.signal_function(g.into())?;
//! assert!(f.eval(0b01) && !f.eval(0b11));
//! assert!(write_blif(&net, "demo").contains(".names"));
//! # Ok::<(), chortle_netlist::NetworkError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod blif;
pub mod design;
mod dot;
mod error;
mod lut;
mod network;
mod rng;
mod sim;
mod simplify;
mod stats;
mod truth_table;
mod verify;
mod verilog;

pub use blif::{parse_blif, write_blif, write_lut_blif};
pub use design::{
    parse_design, read_design, write_design_blif, write_mapped_design_blif, Cloud, Design,
    DesignClouds, Latch, LatchInit, LatchKind, ParseStats, Passthrough, PassthroughDriver,
};
pub use dot::{lut_circuit_to_dot, network_to_dot};
pub use error::{LutError, NetworkError, ParseBlifError};
pub use lut::{Lut, LutCircuit, LutId, LutOutput, LutSource};
pub use network::{Network, Node, NodeId, NodeOp, Output, Signal};
pub use rng::{mix64, SplitMix64};
pub use sim::{simulate, simulate_outputs};
pub use stats::{LutStats, NetworkStats};
pub use truth_table::{exhaustive_chunk, TruthTable, MAX_VARS};
pub use verify::{check_equivalence, check_networks, EquivalenceError, RANDOM_ROUNDS};
pub use verilog::write_lut_verilog;
