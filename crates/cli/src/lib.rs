//! Library backing the `chortle-map` command-line technology mapper.
//!
//! The flow is the paper's end to end: parse a combinational BLIF model,
//! optionally run the MIS-style optimization script, map into K-input
//! lookup tables with either the Chortle algorithm or the MIS-style
//! library baseline, verify functional equivalence, and emit the mapped
//! circuit as BLIF.
//!
//! # Examples
//!
//! ```
//! use chortle_cli::{run_flow, FlowOptions, MapOptions, Mapper};
//!
//! let blif = "\
//! .model demo
//! .inputs a b c
//! .outputs z
//! .names a b t
//! 11 1
//! .names t c z
//! 1- 1
//! -1 1
//! .end
//! ";
//! let mut options = FlowOptions::default();
//! options.map = MapOptions::builder(4).build()?; // mapper knobs live in the core type
//! let result = run_flow(blif, &options)?;
//! assert_eq!(result.luts, 1);
//! assert!(result.output_blif.contains(".names"));
//! # Ok::<(), chortle_cli::FlowError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::error::Error;
use std::fmt;

pub mod flags;

use std::sync::Arc;

use chortle_logic_opt::optimize_with_telemetry;
use chortle_mis::{map_network as mis_map, Library, MisOptions};
use chortle_netlist::{
    check_equivalence, lut_circuit_to_dot, parse_blif, write_lut_blif, write_lut_verilog, LutStats,
    Network, NetworkStats, ParseBlifError,
};

// One import serves downstream users: the core mapper types ride along
// with the flow API.
pub use chortle::{
    map_design, map_network, record_parse_stats, CacheMode, DesignError, DesignOptions,
    Fingerprint, MapError, MapOptions, MapOptionsBuilder, MapReport, MapStats, MappedCloud,
    MappedDesign, Mapping, Objective, PackMode, Telemetry,
};

/// Names of the flow-level stages [`run_flow`] reports into the sink
/// attached via [`MapOptionsBuilder::telemetry`] (nested mapper and
/// optimizer stages use the `map.*` / `dp.*` / `opt.*` names — see
/// [`chortle::stats`] and [`chortle_logic_opt::stats`]).
pub mod stats {
    /// Stage: BLIF parsing.
    pub const STAGE_PARSE: &str = "flow.parse";
    /// Stage: the MIS-style optimization script (when enabled).
    pub const STAGE_OPTIMIZE: &str = "flow.optimize";
    /// Stage: technology mapping.
    pub const STAGE_MAP: &str = "flow.map";
    /// Stage: functional equivalence verification (when enabled).
    pub const STAGE_VERIFY: &str = "flow.verify";
    /// Stage: serializing the mapped circuit.
    pub const STAGE_RENDER: &str = "flow.render";
}

/// Output format of the mapped circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Berkeley Logic Interchange Format (the default).
    #[default]
    Blif,
    /// Structural Verilog (`wire`/`assign` only).
    Verilog,
    /// Graphviz DOT, for visual inspection.
    Dot,
}

/// Which technology mapper to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Mapper {
    /// The Chortle dynamic-programming tree mapper (the paper's
    /// contribution).
    #[default]
    Chortle,
    /// The MIS II-style library baseline.
    Mis,
}

/// Options of the end-to-end flow.
///
/// Mapper configuration (K, split threshold, worker threads, objective,
/// telemetry) is *not* duplicated here: it lives in the embedded core
/// [`MapOptions`], so the flow and the library API cannot drift apart.
/// The MIS baseline reads `map.k` as well.
#[derive(Clone, Debug)]
pub struct FlowOptions {
    /// Mapper configuration, shared verbatim with [`map_network`].
    pub map: MapOptions,
    /// Which mapper to use.
    pub mapper: Mapper,
    /// Run the MIS-style optimization script before mapping.
    pub optimize: bool,
    /// Verify the mapped circuit against the (optimized) network.
    pub verify: bool,
    /// Serialization format of the mapped circuit.
    pub format: OutputFormat,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            map: MapOptions::builder(4)
                .build()
                .expect("the default K is valid"),
            mapper: Mapper::Chortle,
            optimize: true,
            verify: true,
            format: OutputFormat::Blif,
        }
    }
}

/// Outcome of a successful flow.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// LUTs in the mapped circuit.
    pub luts: usize,
    /// LUT levels on the longest path.
    pub depth: usize,
    /// Statistics of the network handed to the mapper.
    pub network_stats: NetworkStats,
    /// Statistics of the mapped circuit.
    pub lut_stats: LutStats,
    /// The mapped circuit serialized in the requested format.
    pub output_blif: String,
    /// The forest's `(shape fingerprint, tree count)` pairs, most common
    /// first — [`chortle::Mapping::shape_histogram`] of the forest the
    /// Chortle mapper saw. `1 - distinct/total` bounds the DP cache's hit
    /// rate. Populated only when telemetry is attached and the Chortle
    /// mapper ran; empty otherwise.
    pub shape_histogram: Vec<(Fingerprint, usize)>,
}

/// Errors of the end-to-end flow.
#[derive(Debug)]
#[non_exhaustive]
pub enum FlowError {
    /// The input BLIF could not be parsed.
    Parse(ParseBlifError),
    /// The Chortle mapper rejected its configuration or failed.
    Map(MapError),
    /// K outside the supported range for the chosen mapper.
    UnsupportedK {
        /// The requested K.
        k: usize,
        /// The mapper's supported bound.
        max: usize,
    },
    /// The sequential-design pipeline failed.
    Design(DesignError),
    /// Mapping failed (internal error) or verification found a mismatch.
    Internal(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Parse(e) => write!(f, "cannot parse input: {e}"),
            FlowError::Map(e) => write!(f, "mapping failed: {e}"),
            FlowError::UnsupportedK { k, max } => {
                write!(f, "K = {k} unsupported (this mapper handles 2..={max})")
            }
            FlowError::Design(e) => write!(f, "design mapping failed: {e}"),
            FlowError::Internal(msg) => write!(f, "flow failed: {msg}"),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Parse(e) => Some(e),
            FlowError::Map(e) => Some(e),
            FlowError::Design(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseBlifError> for FlowError {
    fn from(e: ParseBlifError) -> Self {
        FlowError::Parse(e)
    }
}

impl From<MapError> for FlowError {
    fn from(e: MapError) -> Self {
        FlowError::Map(e)
    }
}

/// Runs the full flow on BLIF text and returns the mapped design.
///
/// # Errors
///
/// Returns [`FlowError`] on parse failures, unsupported `k`, internal
/// mapping errors, or (with `verify`) functional mismatches.
pub fn run_flow(blif: &str, options: &FlowOptions) -> Result<FlowResult, FlowError> {
    let telemetry = &options.map.telemetry;
    let k = options.map.k;
    let max_k = match options.mapper {
        Mapper::Chortle => 8,
        Mapper::Mis => 6,
    };
    if !(2..=max_k).contains(&k) {
        return Err(FlowError::UnsupportedK { k, max: max_k });
    }
    let parsed = {
        let _s = telemetry.span(stats::STAGE_PARSE);
        parse_blif(blif)?
    };
    let network = if options.optimize {
        let _s = telemetry.span(stats::STAGE_OPTIMIZE);
        let opt_options = chortle_logic_opt::OptimizeOptions::default();
        let (optimized, _) = optimize_with_telemetry(&parsed, &opt_options, telemetry)
            .map_err(|e| FlowError::Internal(format!("optimization failed: {e}")))?;
        optimized
    } else {
        parsed
    };

    let (circuit, shape_histogram) = {
        let _s = telemetry.span(stats::STAGE_MAP);
        match options.mapper {
            Mapper::Chortle => {
                let mapping = map_network(&network, &options.map)?;
                let shapes = if telemetry.is_enabled() {
                    mapping.shape_histogram()
                } else {
                    Vec::new()
                };
                (mapping.circuit, shapes)
            }
            Mapper::Mis => {
                let lib = Library::for_paper(k);
                let circuit = mis_map(&network, &lib, &MisOptions::new(k))
                    .map_err(|e| FlowError::Internal(e.to_string()))?
                    .circuit;
                (circuit, Vec::new())
            }
        }
    };

    if options.verify {
        let _s = telemetry.span(stats::STAGE_VERIFY);
        check_equivalence(&network, &circuit)
            .map_err(|e| FlowError::Internal(format!("verification failed: {e}")))?;
    }

    let _render = telemetry.span(stats::STAGE_RENDER);
    let lut_stats = LutStats::of(&circuit);
    let rendered = match options.format {
        OutputFormat::Blif => write_lut_blif(&network, &circuit, "mapped"),
        OutputFormat::Verilog => write_lut_verilog(&network, &circuit, "mapped"),
        OutputFormat::Dot => lut_circuit_to_dot(&network, &circuit, "mapped"),
    };
    drop(_render);
    Ok(FlowResult {
        luts: circuit.num_luts(),
        depth: circuit.depth(),
        network_stats: NetworkStats::of(&network),
        lut_stats,
        output_blif: rendered,
        shape_histogram,
    })
}

/// Runs the sequential-design flow on BLIF text: stream-parse the (possibly
/// hierarchical) design, cut it at register boundaries, map every cloud
/// with the Chortle mapper, and reassemble a sequential LUT netlist.
///
/// The flow-level options are reused: `optimize` hooks the MIS-style
/// script in as the per-cloud preprocess, `verify` equivalence-checks
/// every cloud, and `map` configures the per-cloud mapper. Only the
/// Chortle mapper and BLIF output are supported for designs.
///
/// # Errors
///
/// Returns [`FlowError::Parse`] for malformed input,
/// [`FlowError::Design`] for per-cloud failures, and
/// [`FlowError::Internal`] for unsupported mapper/format combinations.
pub fn run_design_flow(blif: &str, options: &FlowOptions) -> Result<MappedDesign, FlowError> {
    let telemetry = &options.map.telemetry;
    if options.mapper != Mapper::Chortle {
        return Err(FlowError::Internal(
            "--design supports only the chortle mapper".to_owned(),
        ));
    }
    if options.format != OutputFormat::Blif {
        return Err(FlowError::Internal("--design emits BLIF only".to_owned()));
    }
    let (design, parse_stats) = {
        let _s = telemetry.span(stats::STAGE_PARSE);
        chortle_netlist::parse_design(blif)?
    };
    record_parse_stats(telemetry, &parse_stats);
    let mut design_opts = DesignOptions::new(options.map.clone());
    design_opts.verify = options.verify;
    if options.optimize {
        let telemetry = telemetry.clone();
        design_opts.preprocess = Some(Arc::new(move |net: &Network| {
            let opt_options = chortle_logic_opt::OptimizeOptions::default();
            optimize_with_telemetry(net, &opt_options, &telemetry)
                .map(|(optimized, _)| optimized)
                .map_err(|e| e.to_string())
        }));
    }
    let _s = telemetry.span(stats::STAGE_MAP);
    map_design(&design, &design_opts).map_err(FlowError::Design)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = "\
.model demo
.inputs a b c d
.outputs x y
.names a b t
10 1
01 1
.names t c x
11 1
.names c d y
11 0
.end
";

    #[test]
    fn default_flow_maps_and_verifies() {
        let result = run_flow(DEMO, &FlowOptions::default()).expect("flow runs");
        assert!(result.luts >= 1);
        assert!(result.output_blif.starts_with(".model mapped"));
    }

    #[test]
    fn mis_flow_also_works() {
        let options = FlowOptions {
            mapper: Mapper::Mis,
            map: MapOptions::builder(3).build().unwrap(),
            ..FlowOptions::default()
        };
        let result = run_flow(DEMO, &options).expect("flow runs");
        assert!(result.luts >= 1);
    }

    #[test]
    fn without_optimization() {
        let options = FlowOptions {
            optimize: false,
            ..FlowOptions::default()
        };
        let result = run_flow(DEMO, &options).expect("flow runs");
        assert!(result.luts >= 1);
    }

    #[test]
    fn rejects_bad_k() {
        // An out-of-range K cannot even be constructed any more: the
        // embedded MapOptions validates at build time, and the typed
        // error converts into FlowError.
        let err = FlowError::from(MapOptions::builder(9).build().unwrap_err());
        assert!(matches!(err, FlowError::Map(MapError::InvalidK { k: 9 })));
        // The MIS baseline has a tighter bound the flow still enforces.
        let err = run_flow(
            DEMO,
            &FlowOptions {
                map: MapOptions::builder(7).build().unwrap(),
                mapper: Mapper::Mis,
                ..FlowOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, FlowError::UnsupportedK { max: 6, .. }));
    }

    #[test]
    fn flow_reports_telemetry_when_attached() {
        let telemetry = Telemetry::enabled();
        let options = FlowOptions {
            map: MapOptions::builder(4)
                .telemetry(telemetry.clone())
                .build()
                .unwrap(),
            ..FlowOptions::default()
        };
        run_flow(DEMO, &options).expect("flow runs");
        let report = telemetry.snapshot();
        for stage in [
            stats::STAGE_PARSE,
            stats::STAGE_OPTIMIZE,
            stats::STAGE_MAP,
            stats::STAGE_VERIFY,
            stats::STAGE_RENDER,
            "opt.eliminate",
            "map.dp",
        ] {
            assert!(report.stage(stage).is_some(), "missing stage {stage}");
        }
        assert!(report.counter("dp.divisions").unwrap_or(0) > 0);
    }

    #[test]
    fn rejects_bad_blif() {
        let err = run_flow(".model x\n.latch a b\n.end", &FlowOptions::default()).unwrap_err();
        assert!(matches!(err, FlowError::Parse(_)));
    }

    #[test]
    fn verilog_and_dot_formats_render() {
        let v = run_flow(
            DEMO,
            &FlowOptions {
                format: OutputFormat::Verilog,
                ..FlowOptions::default()
            },
        )
        .expect("flow runs");
        assert!(v.output_blif.contains("module mapped"));
        let d = run_flow(
            DEMO,
            &FlowOptions {
                format: OutputFormat::Dot,
                ..FlowOptions::default()
            },
        )
        .expect("flow runs");
        assert!(d.output_blif.starts_with("digraph"));
    }

    const SEQ_DEMO: &str = "\
.model seq
.inputs a b c
.outputs z
.latch d q re clk 0
.names a b t
11 1
.names t c d
1- 1
-1 1
.names q b z
01 1
.end
";

    #[test]
    fn design_flow_maps_sequential_input() {
        let result = run_design_flow(SEQ_DEMO, &FlowOptions::default()).expect("flow runs");
        assert_eq!(result.latches, 1);
        assert_eq!(result.clouds.len(), 2);
        assert!(result.netlist.contains(".latch d q re clk 0"));
        let (again, _) = chortle_netlist::parse_design(&result.netlist).expect("round trips");
        assert_eq!(again.latches().len(), 1);
    }

    #[test]
    fn design_flow_rejects_mis_and_non_blif() {
        let mis = FlowOptions {
            mapper: Mapper::Mis,
            ..FlowOptions::default()
        };
        let err = run_design_flow(SEQ_DEMO, &mis).unwrap_err();
        assert!(matches!(err, FlowError::Internal(_)), "{err}");
        let dot = FlowOptions {
            format: OutputFormat::Dot,
            ..FlowOptions::default()
        };
        let err = run_design_flow(SEQ_DEMO, &dot).unwrap_err();
        assert!(matches!(err, FlowError::Internal(_)), "{err}");
    }

    #[test]
    fn design_flow_reports_blif_and_design_counters() {
        let telemetry = Telemetry::enabled();
        let options = FlowOptions {
            map: MapOptions::builder(4)
                .telemetry(telemetry.clone())
                .build()
                .unwrap(),
            ..FlowOptions::default()
        };
        run_design_flow(SEQ_DEMO, &options).expect("flow runs");
        let report = telemetry.snapshot();
        assert_eq!(report.counter("design.clouds"), Some(2));
        assert_eq!(report.counter("blif.latches"), Some(1));
        assert!(report.histogram("design.cloud_work").is_some());
    }

    #[test]
    fn flow_output_reparses_equivalently() {
        let result = run_flow(DEMO, &FlowOptions::default()).expect("flow runs");
        let mapped = chortle_netlist::parse_blif(&result.output_blif).expect("parses");
        let original = chortle_netlist::parse_blif(DEMO).expect("parses");
        chortle_netlist::check_networks(&original, &mapped).expect("equivalent");
    }
}
