//! The MIS II-style library mapper — the baseline of the Chortle DAC 1990
//! evaluation (Section 4 of the paper).
//!
//! The historical comparison pitted Chortle against the MIS technology
//! mapper [Detj87] driving libraries built for K-input lookup tables:
//! complete libraries for K = 2 and 3, and partial libraries built from
//! level-0 kernels, their duals and common elements for K = 4 and 5 (a
//! complete K = 4 library would need 9014 cells). This crate reimplements
//! that baseline:
//!
//! * [`canonical_npn`] / [`canonical_npn_u64`] — function classes under
//!   permutation and (free) inversion,
//! * [`Library`] — complete and paper-style partial libraries,
//! * [`binary_decompose`] — the fixed balanced subject graph,
//! * [`map_network`] — cut-enumeration tree covering with optional greedy
//!   fanout duplication.
//!
//! # Examples
//!
//! ```
//! use chortle_mis::{map_network, Library, MisOptions};
//! use chortle_netlist::{Network, NodeOp};
//!
//! let mut net = Network::new();
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let g = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
//! net.add_output("z", g.into());
//!
//! let lib = Library::for_paper(4);
//! let mapped = map_network(&net, &lib, &MisOptions::new(4))?;
//! assert_eq!(mapped.report.luts, 1);
//! # Ok::<(), chortle_mis::MisError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod act1;
mod canon;
mod decomp;
mod library;
mod mapper;

pub use act1::{act1_library, ACT1_MAX_VARS};
pub use canon::{
    apply_npn_u64, canonical_npn, canonical_npn_u64, canonical_npn_with_transform,
    count_npn_classes, count_p_classes_nonconstant, NpnTransform, MAX_CANON_VARS,
};
pub use decomp::binary_decompose;
pub use library::Library;
pub use mapper::{map_network, MisError, MisMapping, MisOptions, MisReport};
