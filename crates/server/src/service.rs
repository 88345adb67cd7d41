//! The per-request adapter around the mapping flow.
//!
//! The daemon runs the offline CLI's own flow ([`chortle::run_flow`],
//! or [`chortle::run_design_flow`] for `map_design`) with the Chortle
//! mapper, BLIF output and the `"mapped"` model name, so a server
//! response's `netlist` is **byte-identical** to what `chortle-map`
//! prints for the same `(BLIF, k, cache, objective, optimize)`.
//! Equivalence verification is deliberately off server-side: it never
//! changes the output bytes, and the offline CLI remains the place for
//! one-shot assurance runs. Each request gets its own enabled
//! [`Telemetry`] sink whose report is embedded in the response, and the
//! request's cancellation token, which the flow polls between stages
//! and the mapper at tree boundaries.

use std::time::Instant;

use chortle::{
    run_design_flow, run_flow, CancelToken, FlowError, FlowOptions, MapOptions, Mapper,
    OutputFormat, WarmCache,
};
use chortle_telemetry::Telemetry;

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

/// Executes one `map` or `map_design` request against the server's warm
/// cache under a cancellation token.
///
/// # Errors
///
/// Returns the typed rejection to send: `bad_request` for anything
/// wrong with the request itself (unparseable BLIF, out-of-range `k`),
/// `deadline_exceeded` when `cancel` fired mid-run (partial work
/// discarded), and `internal` for optimizer or mapper failures that
/// should never happen.
pub(crate) fn execute(
    req: &MapRequest,
    warm: &WarmCache,
    cancel: CancelToken,
) -> Result<MapOutcome, (RejectReason, String)> {
    let telemetry = Telemetry::enabled();
    let map = MapOptions::builder(req.k)
        .cache(req.cache)
        .objective(req.objective)
        .telemetry(telemetry.clone())
        .cancel(cancel)
        .warm_cache(warm.clone())
        .build()
        .map_err(|e| (RejectReason::BadRequest, e.to_string()))?;
    let options = FlowOptions {
        map,
        mapper: Mapper::Chortle,
        optimize: req.optimize,
        verify: false,
        format: OutputFormat::Blif,
    };
    let (luts, depth, netlist) = if req.design {
        let mapped = run_design_flow(&req.blif, &options).map_err(rejection)?;
        (mapped.luts, mapped.depth, mapped.netlist)
    } else {
        let mapped = run_flow(&req.blif, &options).map_err(rejection)?;
        (mapped.luts, mapped.depth, mapped.output_blif)
    };
    Ok(MapOutcome {
        luts,
        depth,
        netlist,
        report_json: telemetry.snapshot().to_json(),
    })
}

/// The wire rejection for a failed flow: an expired deadline is
/// `deadline_exceeded`, bad input is `bad_request`, and anything else —
/// a failed release-mode invariant such as [`chortle::MapError::LutCount`]
/// included — is a typed `internal` rejection carrying the error's
/// message.
fn rejection(e: FlowError) -> (RejectReason, String) {
    match e {
        FlowError::Cancelled => (
            RejectReason::DeadlineExceeded,
            "deadline expired before mapping finished; partial work discarded".into(),
        ),
        FlowError::Parse(_) | FlowError::UnsupportedK { .. } => {
            (RejectReason::BadRequest, e.to_string())
        }
        _ => (RejectReason::Internal, e.to_string()),
    }
}

/// Builds the cancellation token for a job with an optional absolute
/// deadline; without one the token is inert (zero per-tree cost).
pub(crate) fn cancel_for(deadline: Option<Instant>) -> CancelToken {
    deadline.map_or_else(CancelToken::default, CancelToken::with_deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chortle::MapError;

    const COMB: &str = ".model comb\n.inputs a b c\n.outputs z\n\
                        .names a b t\n11 1\n.names t c z\n1- 1\n-1 1\n.end\n";
    const SEQ: &str = ".model seq\n.inputs a b c\n.outputs z\n.latch d q re clk 0\n\
                       .names a b t\n11 1\n.names t c d\n1- 1\n-1 1\n\
                       .names q b z\n01 1\n.end\n";

    #[test]
    fn invariant_failures_reject_as_internal() {
        let e = MapError::LutCount {
            check: chortle::LutCheck::Emit,
            expected: 3,
            actual: 4,
        };
        let (reason, detail) = rejection(FlowError::from(e.clone()));
        assert_eq!(reason, RejectReason::Internal);
        assert_eq!(detail, format!("mapping failed: {e}"));
        let (reason, _) = rejection(FlowError::from(MapError::Cancelled));
        assert_eq!(reason, RejectReason::DeadlineExceeded);
    }

    #[test]
    fn fired_tokens_reject_as_deadline_exceeded_before_optimizing() {
        let warm = WarmCache::new();
        for (design, blif) in [(false, COMB), (true, SEQ)] {
            let req = MapRequest {
                blif: blif.to_owned(),
                optimize: true,
                design,
                ..MapRequest::default()
            };
            let token = CancelToken::armed();
            token.cancel();
            let Err((reason, detail)) = execute(&req, &warm, token) else {
                panic!("a fired token must reject (design: {design})");
            };
            assert_eq!(reason, RejectReason::DeadlineExceeded);
            assert_eq!(
                detail,
                "deadline expired before mapping finished; partial work discarded"
            );
            // Bad input still answers bad_request with the parser's text.
            let bad = MapRequest {
                blif: ".model x\n.names a\n2 1\n.end\n".to_owned(),
                ..req
            };
            let Err((reason, detail)) = execute(&bad, &warm, CancelToken::default()) else {
                panic!("malformed BLIF must reject (design: {design})");
            };
            assert_eq!(reason, RejectReason::BadRequest);
            assert!(detail.starts_with("cannot parse input: "), "{detail}");
        }
        // Nothing ran far enough to store a DP solution.
        assert_eq!(warm.stats().shapes, 0);
    }
}
