//! Library backing the `chortle-map` command-line technology mapper.
//!
//! The flow itself — parse a combinational BLIF model, optionally run
//! the MIS-style optimization script, map into K-input lookup tables
//! with either the Chortle algorithm or the MIS-style library baseline,
//! verify functional equivalence, and emit the mapped circuit — lives in
//! the core crate as [`run_flow`] and [`run_design_flow`], where the
//! `chortle-serve` daemon runs it too. This crate re-exports it next to
//! the command line's flag table ([`flags`]).
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

pub mod flags;

// One import serves downstream users: the flow and the core mapper types
// it is configured with.
pub use chortle::{
    map_design, map_network, record_parse_stats, run_design_flow, run_flow, CacheMode, DesignError,
    DesignOptions, Fingerprint, FlowError, FlowOptions, FlowResult, MapError, MapOptions,
    MapOptionsBuilder, MapReport, MapStats, MappedCloud, MappedDesign, Mapper, Mapping, Objective,
    OutputFormat, PackMode, Telemetry,
};

#[cfg(test)]
mod tests {
    use super::*;
    use chortle_telemetry::catalogue;

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
            catalogue::FLOW_PARSE,
            catalogue::FLOW_OPTIMIZE,
            catalogue::FLOW_MAP,
            catalogue::FLOW_VERIFY,
            catalogue::FLOW_RENDER,
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
