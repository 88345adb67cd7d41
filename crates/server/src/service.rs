//! The per-request mapping pipeline.
//!
//! Mirrors the offline CLI flow (`chortle-cli::run_flow`) stage for
//! stage — parse, optional MIS-style optimization, Chortle mapping,
//! BLIF render with the same `"mapped"` model name — so a server
//! response's `netlist` is **byte-identical** to what `chortle-map`
//! prints for the same `(BLIF, k, cache, objective, optimize)`.
//! Equivalence verification is deliberately skipped server-side: it
//! never changes the output bytes, and the offline CLI remains the
//! place for one-shot assurance runs. Each request gets its own enabled
//! [`Telemetry`] sink whose report is embedded in the response.

use std::sync::Arc;
use std::time::Instant;

use chortle::{
    map_design, map_network, record_parse_stats, CancelToken, DesignError, DesignOptions, MapError,
    MapOptions, WarmCache,
};
use chortle_logic_opt::{optimize_with_telemetry, OptimizeOptions};
use chortle_netlist::{parse_blif, parse_design, write_lut_blif, Network};
use chortle_telemetry::{catalogue, Telemetry};

use crate::proto::{MapRequest, RejectReason};

/// A successfully mapped request, ready to render into a response.
pub(crate) struct MapOutcome {
    /// LUTs in the mapped circuit.
    pub luts: usize,
    /// LUT levels on the longest path.
    pub depth: usize,
    /// The mapped circuit as BLIF (model `mapped`), byte-identical to
    /// the offline CLI's stdout for the same request parameters.
    pub netlist: String,
    /// The per-request telemetry report, serialized.
    pub report_json: String,
}

/// Executes one `map` request against the server's warm cache under a
/// cancellation token.
///
/// # Errors
///
/// Returns the typed rejection to send: `bad_request` for anything
/// wrong with the request itself (unparseable BLIF, out-of-range `k`),
/// `deadline_exceeded` when `cancel` fired mid-run (partial work
/// discarded — the drivers drop everything on the floor), and
/// `internal` for mapper invariant failures that should never happen.
pub(crate) fn execute_map(
    req: &MapRequest,
    warm: &WarmCache,
    cancel: CancelToken,
) -> Result<MapOutcome, (RejectReason, String)> {
    let telemetry = Telemetry::enabled();
    let options = MapOptions::builder(req.k)
        .cache(req.cache)
        .objective(req.objective)
        .telemetry(telemetry.clone())
        .cancel(cancel.clone())
        .warm_cache(warm.clone())
        .build()
        .map_err(|e| (RejectReason::BadRequest, e.to_string()))?;

    let parsed = {
        let _s = telemetry.span(catalogue::FLOW_PARSE);
        parse_blif(&req.blif)
            .map_err(|e| (RejectReason::BadRequest, format!("cannot parse input: {e}")))?
    };
    if cancel.is_cancelled() {
        return Err(deadline_rejection());
    }
    let network = if req.optimize {
        let _s = telemetry.span(catalogue::FLOW_OPTIMIZE);
        let (optimized, _) =
            optimize_with_telemetry(&parsed, &OptimizeOptions::default(), &telemetry)
                .map_err(|e| (RejectReason::Internal, format!("optimization failed: {e}")))?;
        optimized
    } else {
        parsed
    };
    if cancel.is_cancelled() {
        return Err(deadline_rejection());
    }

    let mapping = {
        let _s = telemetry.span(catalogue::FLOW_MAP);
        map_network(&network, &options).map_err(map_rejection)?
    };

    let netlist = {
        let _s = telemetry.span(catalogue::FLOW_RENDER);
        write_lut_blif(&network, &mapping.circuit, "mapped")
    };
    Ok(MapOutcome {
        luts: mapping.circuit.num_luts(),
        depth: mapping.circuit.depth(),
        netlist,
        report_json: telemetry.snapshot().to_json(),
    })
}

/// Executes one `map_design` request: the sequential-design pipeline
/// (DESIGN.md §17) behind the same stage names and the same warm cache
/// as `execute_map`. The `optimize` knob hooks the MIS-style script in
/// as the per-cloud preprocess — exactly where the offline CLI's
/// `--design` path runs it — so the assembled netlist is byte-identical
/// to `chortle-map --design` with the same parameters. Per-cloud
/// equivalence verification stays an offline-CLI concern, like the
/// combinational path's.
///
/// # Errors
///
/// `bad_request` for unparseable designs or out-of-range knobs,
/// `deadline_exceeded` when `cancel` fired mid-run, and `internal` for
/// pipeline failures that should never happen.
pub(crate) fn execute_design(
    req: &MapRequest,
    warm: &WarmCache,
    cancel: CancelToken,
) -> Result<MapOutcome, (RejectReason, String)> {
    let telemetry = Telemetry::enabled();
    let options = MapOptions::builder(req.k)
        .cache(req.cache)
        .objective(req.objective)
        .telemetry(telemetry.clone())
        .cancel(cancel.clone())
        .warm_cache(warm.clone())
        .build()
        .map_err(|e| (RejectReason::BadRequest, e.to_string()))?;

    let (design, parse_stats) = {
        let _s = telemetry.span(catalogue::FLOW_PARSE);
        parse_design(&req.blif)
            .map_err(|e| (RejectReason::BadRequest, format!("cannot parse input: {e}")))?
    };
    record_parse_stats(&telemetry, &parse_stats);
    if cancel.is_cancelled() {
        return Err(deadline_rejection());
    }

    let mut design_opts = DesignOptions::new(options);
    design_opts.verify = false;
    if req.optimize {
        let telemetry = telemetry.clone();
        design_opts.preprocess = Some(Arc::new(move |net: &Network| {
            optimize_with_telemetry(net, &OptimizeOptions::default(), &telemetry)
                .map(|(optimized, _)| optimized)
                .map_err(|e| e.to_string())
        }));
    }

    let mapped = {
        let _s = telemetry.span(catalogue::FLOW_MAP);
        map_design(&design, &design_opts).map_err(|e| match e {
            DesignError::Map {
                error: MapError::Cancelled,
                ..
            } => deadline_rejection(),
            other => (
                RejectReason::Internal,
                format!("design mapping failed: {other}"),
            ),
        })?
    };
    Ok(MapOutcome {
        luts: mapped.luts,
        depth: mapped.depth,
        netlist: mapped.netlist,
        report_json: telemetry.snapshot().to_json(),
    })
}

/// The wire rejection for a failed [`map_network`] run: an expired
/// deadline is `deadline_exceeded`; anything else — a failed
/// release-mode invariant such as [`MapError::LutCount`] included — is
/// a typed `internal` rejection carrying the error's message.
fn map_rejection(e: MapError) -> (RejectReason, String) {
    match e {
        MapError::Cancelled => deadline_rejection(),
        other => (RejectReason::Internal, format!("mapping failed: {other}")),
    }
}

fn deadline_rejection() -> (RejectReason, String) {
    (
        RejectReason::DeadlineExceeded,
        "deadline expired before mapping finished; partial work discarded".into(),
    )
}

/// Builds the cancellation token for a job with an optional absolute
/// deadline; without one the token is inert (zero per-tree cost).
pub(crate) fn cancel_for(deadline: Option<Instant>) -> CancelToken {
    deadline.map_or_else(CancelToken::default, CancelToken::with_deadline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariant_failures_reject_as_internal() {
        let e = MapError::LutCount {
            check: chortle::LutCheck::Emit,
            expected: 3,
            actual: 4,
        };
        let (reason, detail) = map_rejection(e.clone());
        assert_eq!(reason, RejectReason::Internal);
        assert!(detail.ends_with(&e.to_string()), "{detail}");
        let (reason, _) = map_rejection(MapError::Cancelled);
        assert_eq!(reason, RejectReason::DeadlineExceeded);
    }
}
