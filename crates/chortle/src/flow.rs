//! The end-to-end flow of the paper's experiment: parse a BLIF model,
//! optionally run the MIS-style optimization script, map into K-input
//! lookup tables with the Chortle mapper or the MIS-style library
//! baseline, verify functional equivalence, and render the mapped
//! circuit.
//!
//! This is the one request pipeline. `chortle-map` runs it with the
//! flags the user gave; the `chortle-serve` daemon runs it per request
//! with verification off and BLIF output, which is why a daemon
//! response's netlist is byte-identical to `chortle-map`'s output for
//! the same parameters. [`run_design_flow`] is the sequential-design
//! counterpart around [`map_design`].
//!
//! Both flows poll [`MapOptions::cancel`] between stages (after parse,
//! and after optimize), so a fired token never starts the optimizer.

use std::error::Error;
use std::fmt;

use chortle_logic_opt::{optimize_with_telemetry, OptimizeOptions};
use chortle_mis::{map_network as mis_map, Library, MisOptions};
use chortle_netlist::{
    check_equivalence, lut_circuit_to_dot, parse_blif, parse_design, write_lut_blif,
    write_lut_verilog, LutCircuit, LutStats, Network, NetworkError, NetworkStats, ParseBlifError,
};
use chortle_telemetry::catalogue;

use crate::design::{map_design, record_parse_stats, DesignError, DesignOptions, MappedDesign};
use crate::map::{map_network, MapError, MapOptions, Mapping};
use crate::tree::{shape_histogram_of, Fingerprint};

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
/// Mapper configuration (K, split threshold, objective, telemetry,
/// cancellation) is *not* duplicated here: it lives in the embedded core
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
///
/// The statistics a caller may want are computed on demand from the
/// network and circuit the flow kept, so a caller that reads only the
/// netlist (the daemon) pays nothing for them.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// LUTs in the mapped circuit.
    pub luts: usize,
    /// LUT levels on the longest path.
    pub depth: usize,
    /// The mapped circuit serialized in the requested format.
    pub output_blif: String,
    /// The network handed to the mapper.
    network: Network,
    /// The mapped circuit.
    circuit: LutCircuit,
    /// The Chortle forest's tree fingerprints, in tree order (empty
    /// after the MIS mapper).
    shapes: Vec<Fingerprint>,
}

impl FlowResult {
    /// Statistics of the network handed to the mapper.
    pub fn network_stats(&self) -> NetworkStats {
        NetworkStats::of(&self.network)
    }

    /// Statistics of the mapped circuit.
    pub fn lut_stats(&self) -> LutStats {
        LutStats::of(&self.circuit)
    }

    /// The forest's `(shape fingerprint, tree count)` pairs, most common
    /// first — [`Mapping::shape_histogram`] of the forest the Chortle
    /// mapper saw. `1 - distinct/total` bounds the DP cache's hit rate.
    /// Empty when the MIS mapper ran.
    pub fn shape_histogram(&self) -> Vec<(Fingerprint, usize)> {
        shape_histogram_of(&self.shapes)
    }
}

/// Errors of the end-to-end flow.
#[derive(Debug)]
#[non_exhaustive]
pub enum FlowError {
    /// The input BLIF could not be parsed.
    Parse(ParseBlifError),
    /// The optimization script failed.
    Optimize(NetworkError),
    /// The Chortle mapper rejected its configuration or failed.
    Map(MapError),
    /// [`MapOptions::cancel`] fired before the flow finished; all
    /// partial work was discarded.
    Cancelled,
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
            FlowError::Optimize(e) => write!(f, "optimization failed: {e}"),
            FlowError::Map(e) => write!(f, "mapping failed: {e}"),
            FlowError::Cancelled => write!(f, "{}", MapError::Cancelled),
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
            FlowError::Optimize(e) => Some(e),
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
        match e {
            MapError::Cancelled => FlowError::Cancelled,
            e => FlowError::Map(e),
        }
    }
}

impl From<DesignError> for FlowError {
    fn from(e: DesignError) -> Self {
        match e {
            DesignError::Map {
                error: MapError::Cancelled,
                ..
            } => FlowError::Cancelled,
            e => FlowError::Design(e),
        }
    }
}

/// `Err(Cancelled)` once `options.cancel` has fired: the poll between
/// two stages of a flow.
fn poll_cancel(options: &MapOptions) -> Result<(), FlowError> {
    if options.cancel.is_cancelled() {
        Err(FlowError::Cancelled)
    } else {
        Ok(())
    }
}

/// Runs the full flow on BLIF text and returns the mapped design.
///
/// # Errors
///
/// Returns [`FlowError`] on parse failures, unsupported `k`, a fired
/// [`MapOptions::cancel`], internal mapping errors, or (with `verify`)
/// functional mismatches.
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
        let _s = telemetry.span(catalogue::FLOW_PARSE);
        parse_blif(blif)?
    };
    poll_cancel(&options.map)?;
    let network = if options.optimize {
        let _s = telemetry.span(catalogue::FLOW_OPTIMIZE);
        optimize_with_telemetry(&parsed, &OptimizeOptions::default(), telemetry)
            .map_err(FlowError::Optimize)?
            .0
    } else {
        parsed
    };
    poll_cancel(&options.map)?;

    let (circuit, shapes) = {
        let _s = telemetry.span(catalogue::FLOW_MAP);
        match options.mapper {
            Mapper::Chortle => {
                let Mapping {
                    circuit, shapes, ..
                } = map_network(&network, &options.map)?;
                (circuit, shapes)
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
        let _s = telemetry.span(catalogue::FLOW_VERIFY);
        check_equivalence(&network, &circuit)
            .map_err(|e| FlowError::Internal(format!("verification failed: {e}")))?;
    }

    let output_blif = {
        let _s = telemetry.span(catalogue::FLOW_RENDER);
        match options.format {
            OutputFormat::Blif => write_lut_blif(&network, &circuit, "mapped"),
            OutputFormat::Verilog => write_lut_verilog(&network, &circuit, "mapped"),
            OutputFormat::Dot => lut_circuit_to_dot(&network, &circuit, "mapped"),
        }
    };
    Ok(FlowResult {
        luts: circuit.num_luts(),
        depth: circuit.depth(),
        output_blif,
        network,
        circuit,
        shapes,
    })
}

/// Runs the sequential-design flow on BLIF text: stream-parse the (possibly
/// hierarchical) design, cut it at register boundaries, map every cloud
/// with the Chortle mapper, and reassemble a sequential LUT netlist.
///
/// The flow-level options are reused: `optimize` runs the MIS-style
/// script on every cloud before it is mapped, `verify`
/// equivalence-checks every cloud, and `map` configures the per-cloud
/// mapper. Only the Chortle mapper and BLIF output are supported for
/// designs.
///
/// # Errors
///
/// Returns [`FlowError::Parse`] for malformed input,
/// [`FlowError::Cancelled`] once [`MapOptions::cancel`] fires,
/// [`FlowError::Design`] for other per-cloud failures, and
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
        let _s = telemetry.span(catalogue::FLOW_PARSE);
        parse_design(blif)?
    };
    record_parse_stats(telemetry, &parse_stats);
    poll_cancel(&options.map)?;
    let design_opts = DesignOptions {
        map: options.map.clone(),
        optimize: options.optimize,
        verify: options.verify,
    };
    let _s = telemetry.span(catalogue::FLOW_MAP);
    Ok(map_design(&design, &design_opts)?)
}
