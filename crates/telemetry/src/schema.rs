//! Structural validation of JSON telemetry reports.
//!
//! [`validate_report`] checks a report against the [`crate::SCHEMA`]
//! layout — key set, kinds, and internal consistency (histogram bucket
//! counts summing to the sample count). [`shape`] renders the *shape* of any JSON
//! document (every key path with its kind, values elided), which the
//! golden-file schema test pins so the report layout cannot drift
//! silently.

use crate::json::{self, Value};

/// The documented counters of the reserved `serve.` namespace — the
/// aggregate report the `chortle-serve` daemon emits at shutdown (and on
/// `stats` requests). Closed since schema v1.2: [`validate_report`]
/// rejects any other `serve.*` name.
pub const SERVE_COUNTERS: &[&str] = &[
    "serve.connections",
    "serve.accepted",
    "serve.completed",
    "serve.rejected_queue_full",
    "serve.rejected_deadline",
    "serve.rejected_bad_request",
    "serve.rejected_shutdown",
    "serve.drained",
    "serve.flushes",
    "serve.stats_requests",
    "serve.trace_requests",
    // Schema v1.4: the event-driven serving core (protocol v2).
    "serve.hello_requests",
    "serve.batch_frames",
    "serve.batch_requests",
    "serve.coalesced_frames",
    "serve.admission.admitted",
    "serve.admission.shed_over_quota",
    "serve.admission.shed_queue_full",
    "serve.admission.hinted",
    // Schema v1.7: the live observability plane.
    "serve.metrics_requests",
];

/// The documented counters of the reserved `trace.` namespace —
/// observation echoes a tracing handle adds to its own report. Closed
/// since schema v1.3: [`validate_report`] rejects any other `trace.*`
/// name.
pub const TRACE_COUNTERS: &[&str] = &["trace.events", "trace.dropped"];

/// The documented counters of the reserved `cache.` namespace — the
/// mapper's DP-result cache statistics. Closed since schema v1.5:
/// [`validate_report`] rejects any other `cache.*` name, so a mistyped
/// or undocumented cache counter fails validation instead of shipping
/// silently. Schema v1.9 dropped the functional tier's `cache.fn_*`
/// counters with the tier.
pub const CACHE_COUNTERS: &[&str] = &["cache.hits", "cache.misses", "cache.replayed_luts"];

/// The documented counters of the reserved `design.` namespace — the
/// sequential-design mapping pipeline (register-bounded combinational
/// clouds). Closed since schema v1.6: [`validate_report`] rejects any
/// other `design.*` counter name (the `design.cloud_work` histogram
/// lives in the histogram section, not here).
pub const DESIGN_COUNTERS: &[&str] = &[
    "design.clouds",
    "design.latches",
    "design.passthroughs",
    "design.cloud_luts",
];

/// The documented counters of the reserved `blif.` namespace — the
/// streaming BLIF reader's input statistics. Closed since schema v1.6:
/// [`validate_report`] rejects any other `blif.*` name.
pub const BLIF_COUNTERS: &[&str] = &[
    "blif.logical_lines",
    "blif.models",
    "blif.subckts",
    "blif.latches",
    "blif.exdc_blocks",
    "blif.skipped_directives",
];

/// The documented counters of the reserved `log.` namespace — volume
/// echoes the structured logger ([`crate::log`]) mirrors into a
/// telemetry handle via [`crate::log::set_counter_sink`]. Closed since
/// schema v1.7: [`validate_report`] rejects any other `log.*` name.
/// Like `trace.*`, these are observation echoes, exempt from the
/// guarantee that counters are a function of the workload.
pub const LOG_COUNTERS: &[&str] = &[
    "log.events",
    "log.errors",
    "log.warnings",
    "log.ring_evicted",
];

/// Validates that `input` is a schema-conformant telemetry report.
///
/// # Errors
///
/// Returns a human-readable description of the first deviation: parse
/// errors, missing/unknown keys, wrong kinds, or a wrong `schema` tag.
pub fn validate_report(input: &str) -> Result<(), String> {
    let value = json::parse(input).map_err(|e| format!("not valid JSON: {e}"))?;
    let root = expect_keys(
        &value,
        "$",
        &["schema", "enabled", "stages", "counters", "histograms"],
    )?;

    let tag = root[0]
        .1
        .as_str()
        .ok_or_else(|| "$.schema must be a string".to_owned())?;
    if tag != crate::SCHEMA {
        return Err(format!("$.schema is {tag:?}, expected {:?}", crate::SCHEMA));
    }
    if !matches!(root[1].1, Value::Bool(_)) {
        return Err("$.enabled must be a boolean".to_owned());
    }

    for (i, stage) in expect_array(&value, "stages")?.iter().enumerate() {
        let path = format!("$.stages[{i}]");
        let members = expect_keys(stage, &path, &["name", "calls", "seconds"])?;
        expect_string(&members[0].1, &format!("{path}.name"))?;
        expect_u64(&members[1].1, &format!("{path}.calls"))?;
        expect_number(&members[2].1, &format!("{path}.seconds"))?;
    }

    for (i, counter) in expect_array(&value, "counters")?.iter().enumerate() {
        let path = format!("$.counters[{i}]");
        let members = expect_keys(counter, &path, &["name", "value"])?;
        let name = expect_string(&members[0].1, &format!("{path}.name"))?;
        expect_u64(&members[1].1, &format!("{path}.value"))?;
        // Schema v1.2: `serve.` is a *closed* namespace — the aggregate
        // report of the `chortle-serve` daemon may only use the
        // documented counter set, so a typo'd server counter fails
        // validation instead of shipping silently. v1.3 closes the
        // `trace.` observation-echo namespace the same way.
        if name.starts_with("serve.") && !SERVE_COUNTERS.contains(&name) {
            return Err(format!(
                "{path}.name {name:?} is not a documented serve.* counter \
                 (expected one of {SERVE_COUNTERS:?})"
            ));
        }
        if name.starts_with("trace.") && !TRACE_COUNTERS.contains(&name) {
            return Err(format!(
                "{path}.name {name:?} is not a documented trace.* counter \
                 (expected one of {TRACE_COUNTERS:?})"
            ));
        }
        // Schema v1.5 closes the mapper's `cache.` namespace too: the
        // counter set doubles as the compatibility contract between
        // the two cache tiers and every report consumer.
        if name.starts_with("cache.") && !CACHE_COUNTERS.contains(&name) {
            return Err(format!(
                "{path}.name {name:?} is not a documented cache.* counter \
                 (expected one of {CACHE_COUNTERS:?})"
            ));
        }
        // Schema v1.6 closes the sequential-design pipeline's `design.`
        // namespace and the streaming reader's `blif.` namespace: both
        // are cross-surface contracts (CLI, daemon, loadgen) and must
        // not grow undocumented names.
        if name.starts_with("design.") && !DESIGN_COUNTERS.contains(&name) {
            return Err(format!(
                "{path}.name {name:?} is not a documented design.* counter \
                 (expected one of {DESIGN_COUNTERS:?})"
            ));
        }
        if name.starts_with("blif.") && !BLIF_COUNTERS.contains(&name) {
            return Err(format!(
                "{path}.name {name:?} is not a documented blif.* counter \
                 (expected one of {BLIF_COUNTERS:?})"
            ));
        }
        // Schema v1.7 closes the structured logger's `log.` namespace:
        // logging volume rides every daemon report, so its counter set
        // is part of the cross-surface contract too.
        if name.starts_with("log.") && !LOG_COUNTERS.contains(&name) {
            return Err(format!(
                "{path}.name {name:?} is not a documented log.* counter \
                 (expected one of {LOG_COUNTERS:?})"
            ));
        }
    }

    for (i, hist) in expect_array(&value, "histograms")?.iter().enumerate() {
        let path = format!("$.histograms[{i}]");
        let members = expect_keys(hist, &path, &["name", "count", "total_ns", "buckets"])?;
        expect_string(&members[0].1, &format!("{path}.name"))?;
        let count = expect_u64(&members[1].1, &format!("{path}.count"))?;
        expect_u64(&members[2].1, &format!("{path}.total_ns"))?;
        let buckets = members[3]
            .1
            .as_array()
            .ok_or_else(|| format!("{path}.buckets must be an array"))?;
        let mut sum = 0u64;
        let mut last_index: Option<u64> = None;
        for (j, bucket) in buckets.iter().enumerate() {
            let bpath = format!("{path}.buckets[{j}]");
            let fields = expect_keys(bucket, &bpath, &["index", "count"])?;
            let index = expect_u64(&fields[0].1, &format!("{bpath}.index"))?;
            let c = expect_u64(&fields[1].1, &format!("{bpath}.count"))?;
            if index >= crate::hist::BUCKETS as u64 {
                return Err(format!("{bpath}.index is {index}, expected < 128"));
            }
            if last_index.is_some_and(|prev| index <= prev) {
                return Err(format!("{bpath}.index {index} is not strictly ascending"));
            }
            if c == 0 {
                return Err(format!("{bpath}.count is 0; zero buckets must be elided"));
            }
            last_index = Some(index);
            sum += c;
        }
        if sum != count {
            return Err(format!(
                "{path}.count is {count} but the bucket counts sum to {sum}"
            ));
        }
    }

    Ok(())
}

/// Validates the *windowed-metrics fragment* — the body the daemon's
/// v2 `op:"metrics"` response and loadgen's bench snapshots embed
/// (schema v1.7). `value` must already be parsed; pass the object
/// holding the fragment keys (`window_s` … `cumulative`).
///
/// # Errors
///
/// Returns the first deviation: wrong key set/order, wrong kinds,
/// rates outside `0..=1`, or window totals exceeding cumulative ones.
pub fn validate_metrics_fragment(value: &Value) -> Result<(), String> {
    let members = expect_keys(
        value,
        "$metrics",
        &[
            "window_s",
            "seconds",
            "qps",
            "shed_rate",
            "cache_hit_rate",
            "p50_ns",
            "p95_ns",
            "p99_ns",
            "window",
            "cumulative",
        ],
    )?;
    expect_u64(&members[0].1, "$metrics.window_s")?;
    expect_u64(&members[1].1, "$metrics.seconds")?;
    let qps = expect_number(&members[2].1, "$metrics.qps")?;
    if qps < 0.0 {
        return Err(format!("$metrics.qps is {qps}, expected >= 0"));
    }
    for (idx, key) in [(3, "shed_rate"), (4, "cache_hit_rate")] {
        let rate = expect_number(&members[idx].1, &format!("$metrics.{key}"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("$metrics.{key} is {rate}, expected 0..=1"));
        }
    }
    for (idx, key) in [(5, "p50_ns"), (6, "p95_ns"), (7, "p99_ns")] {
        expect_u64(&members[idx].1, &format!("$metrics.{key}"))?;
    }
    let mut totals = [[0u64; 3]; 2];
    for (slot, (idx, section)) in [(8usize, "window"), (9, "cumulative")].iter().enumerate() {
        let path = format!("$metrics.{section}");
        let fields = expect_keys(&members[*idx].1, &path, &["accepted", "completed", "shed"])?;
        for (j, (key, v)) in fields.iter().enumerate() {
            totals[slot][j] = expect_u64(v, &format!("{path}.{key}"))?;
        }
    }
    for (j, key) in ["accepted", "completed", "shed"].iter().enumerate() {
        if totals[0][j] > totals[1][j] {
            return Err(format!(
                "$metrics.window.{key} ({}) exceeds $metrics.cumulative.{key} ({})",
                totals[0][j], totals[1][j]
            ));
        }
    }
    Ok(())
}

/// Renders the shape of a JSON document: one line per key path, with the
/// value kind, array elements collapsed to `[]` (described by their first
/// element). Stable across runs as long as the layout is stable, so it
/// can be pinned in a golden file.
///
/// # Errors
///
/// Returns the parse error text if `input` is not valid JSON.
pub fn shape(input: &str) -> Result<String, String> {
    let value = json::parse(input).map_err(|e| format!("not valid JSON: {e}"))?;
    let mut out = String::new();
    describe(&value, "$", &mut out);
    Ok(out)
}

fn describe(value: &Value, path: &str, out: &mut String) {
    out.push_str(path);
    out.push(' ');
    out.push_str(value.kind());
    out.push('\n');
    match value {
        Value::Object(members) => {
            for (key, v) in members {
                describe(v, &format!("{path}.{key}"), out);
            }
        }
        Value::Array(items) => {
            if let Some(first) = items.first() {
                describe(first, &format!("{path}[]"), out);
            }
        }
        _ => {}
    }
}

/// Returns the members of `value` if it is an object with exactly `keys`
/// in exactly that order (reports are machine-written, so order is part
/// of the format).
fn expect_keys<'v>(
    value: &'v Value,
    path: &str,
    keys: &[&str],
) -> Result<&'v [(String, Value)], String> {
    let members = value
        .as_object()
        .ok_or_else(|| format!("{path} must be an object, found {}", value.kind()))?;
    let found: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    if found != keys {
        return Err(format!("{path} has keys {found:?}, expected {keys:?}"));
    }
    Ok(members)
}

fn expect_array<'v>(report: &'v Value, key: &str) -> Result<&'v [Value], String> {
    report
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("$.{key} must be an array"))
}

fn expect_string<'v>(value: &'v Value, path: &str) -> Result<&'v str, String> {
    value
        .as_str()
        .ok_or_else(|| format!("{path} must be a string, found {}", value.kind()))
}

fn expect_u64(value: &Value, path: &str) -> Result<u64, String> {
    value.as_u64().ok_or_else(|| {
        format!(
            "{path} must be a non-negative integer, found {}",
            value.kind()
        )
    })
}

fn expect_number(value: &Value, path: &str) -> Result<f64, String> {
    value
        .as_f64()
        .ok_or_else(|| format!("{path} must be a number, found {}", value.kind()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn sample_report() -> String {
        let t = Telemetry::enabled();
        t.record_stage("map.dp", 0.25);
        t.add_counter("dp.divisions", 10);
        t.record_value("map.tree_ns", 900);
        t.record_value("map.tree_ns", 1_100);
        t.snapshot().to_json()
    }

    #[test]
    fn accepts_real_reports() {
        validate_report(&sample_report()).expect("valid");
        validate_report(&Telemetry::enabled().snapshot().to_json()).expect("empty but valid");
    }

    #[test]
    fn rejects_wrong_schema_tag() {
        let json = sample_report().replace("chortle-telemetry/v1.9", "bogus/v0");
        let err = validate_report(&json).unwrap_err();
        assert!(err.contains("$.schema"), "{err}");
    }

    #[test]
    fn rejects_missing_and_extra_keys() {
        let err =
            validate_report(r#"{"schema":"chortle-telemetry/v1.9","enabled":true}"#).unwrap_err();
        assert!(err.contains("expected"), "{err}");
        let json = sample_report().replace("\"counters\":", "\"extras\":");
        assert!(validate_report(&json).is_err());
    }

    #[test]
    fn validates_histogram_sections() {
        // Bucket counts must sum to the sample count …
        let json = sample_report().replace(
            "\"count\":2,\"total_ns\":2000",
            "\"count\":3,\"total_ns\":2000",
        );
        let err = validate_report(&json).unwrap_err();
        assert!(err.contains("sum"), "{err}");
        // … indices must be strictly ascending and in range …
        let t = Telemetry::enabled();
        t.record_value("h", 1);
        let json = t
            .snapshot()
            .to_json()
            .replace("{\"index\":0,\"count\":1}", "{\"index\":200,\"count\":1}");
        let err = validate_report(&json).unwrap_err();
        assert!(err.contains("expected < 128"), "{err}");
        // … and zero-count buckets must be elided.
        let json = t
            .snapshot()
            .to_json()
            .replace("{\"index\":0,\"count\":1}", "{\"index\":0,\"count\":0}");
        let err = validate_report(&json).unwrap_err();
        assert!(err.contains("elided") || err.contains("sum"), "{err}");
    }

    #[test]
    fn trace_namespace_is_closed() {
        // The counters a tracing handle emits about itself validate …
        let t = Telemetry::traced();
        drop(t.span("s"));
        validate_report(&t.snapshot().to_json()).expect("trace echo counters validate");
        // … while any other trace.* name is rejected.
        let t = Telemetry::enabled();
        t.add_counter("trace.evnets", 1);
        let err = validate_report(&t.snapshot().to_json()).unwrap_err();
        assert!(err.contains("trace.evnets"), "{err}");
    }

    #[test]
    fn rejects_wrong_kinds() {
        let json = sample_report().replace("\"value\":10", "\"value\":\"10\"");
        let err = validate_report(&json).unwrap_err();
        assert!(err.contains("value"), "{err}");
    }

    #[test]
    fn serve_namespace_is_closed() {
        // Every documented serve.* counter passes …
        let t = Telemetry::enabled();
        for name in SERVE_COUNTERS {
            t.add_counter(name, 1);
        }
        validate_report(&t.snapshot().to_json()).expect("documented serve counters validate");
        // … while an undocumented one (e.g. a typo) is rejected by name.
        let t = Telemetry::enabled();
        t.add_counter("serve.rejected_deadlin", 1);
        let err = validate_report(&t.snapshot().to_json()).unwrap_err();
        assert!(err.contains("serve.rejected_deadlin"), "{err}");
        // Other namespaces remain open (mapper counters come and go).
        let t = Telemetry::enabled();
        t.add_counter("dp.some_future_counter", 1);
        validate_report(&t.snapshot().to_json()).expect("non-serve namespaces stay open");
    }

    #[test]
    fn cache_namespace_is_closed() {
        // Every documented cache.* counter passes …
        let t = Telemetry::enabled();
        for name in CACHE_COUNTERS {
            t.add_counter(name, 1);
        }
        validate_report(&t.snapshot().to_json()).expect("documented cache counters validate");
        // … while an undocumented one (a typo, or a counter of the
        // retired functional tier) is rejected by name.
        for name in ["cache.fn_hit", "cache.fn_hits"] {
            let t = Telemetry::enabled();
            t.add_counter(name, 1);
            let err = validate_report(&t.snapshot().to_json()).unwrap_err();
            assert!(err.contains(name), "{err}");
        }
        // pack.* remains open alongside the closed namespaces.
        let t = Telemetry::enabled();
        t.add_counter("pack.dropped_inputs", 1);
        validate_report(&t.snapshot().to_json()).expect("pack namespace stays open");
    }

    #[test]
    fn design_namespace_is_closed() {
        // Every documented design.* counter passes, and the
        // design.cloud_work histogram rides the histogram section.
        let t = Telemetry::enabled();
        for name in DESIGN_COUNTERS {
            t.add_counter(name, 1);
        }
        t.record_value("design.cloud_work", 3);
        validate_report(&t.snapshot().to_json()).expect("documented design counters validate");
        // … while an undocumented one (e.g. a typo) is rejected by name.
        let t = Telemetry::enabled();
        t.add_counter("design.cloud", 1);
        let err = validate_report(&t.snapshot().to_json()).unwrap_err();
        assert!(err.contains("design.cloud"), "{err}");
    }

    #[test]
    fn blif_namespace_is_closed() {
        let t = Telemetry::enabled();
        for name in BLIF_COUNTERS {
            t.add_counter(name, 1);
        }
        validate_report(&t.snapshot().to_json()).expect("documented blif counters validate");
        let t = Telemetry::enabled();
        t.add_counter("blif.lines", 1);
        let err = validate_report(&t.snapshot().to_json()).unwrap_err();
        assert!(err.contains("blif.lines"), "{err}");
    }

    #[test]
    fn log_namespace_is_closed() {
        let t = Telemetry::enabled();
        for name in LOG_COUNTERS {
            t.add_counter(name, 1);
        }
        validate_report(&t.snapshot().to_json()).expect("documented log counters validate");
        let t = Telemetry::enabled();
        t.add_counter("log.evnets", 1);
        let err = validate_report(&t.snapshot().to_json()).unwrap_err();
        assert!(err.contains("log.evnets"), "{err}");
    }

    #[test]
    fn metrics_fragment_validates_shape_and_arithmetic() {
        let good = r#"{"window_s":60,"seconds":2,"qps":3.0,"shed_rate":0.25,
            "cache_hit_rate":0.5,
            "p50_ns":725,"p95_ns":1024,"p99_ns":1024,
            "window":{"accepted":6,"completed":6,"shed":2},
            "cumulative":{"accepted":6,"completed":6,"shed":2}}"#;
        let value = json::parse(good).expect("parses");
        validate_metrics_fragment(&value).expect("valid fragment");
        // A window total larger than its cumulative counter is
        // arithmetic corruption, not a rendering choice.
        let bad = good.replace(r#""window":{"accepted":6"#, r#""window":{"accepted":9"#);
        let err = validate_metrics_fragment(&json::parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("window.accepted"), "{err}");
        let bad_rate = good.replace("\"shed_rate\":0.25", "\"shed_rate\":1.5");
        let err = validate_metrics_fragment(&json::parse(&bad_rate).unwrap()).unwrap_err();
        assert!(err.contains("shed_rate"), "{err}");
    }

    #[test]
    fn shape_is_stable_and_value_free() {
        let s = shape(&sample_report()).expect("shapes");
        assert!(s.contains("$.stages[] object"));
        assert!(s.contains("$.stages[].seconds number"));
        assert!(s.contains("$.histograms[].buckets[].count number"));
        assert!(!s.contains("0.25"), "values must be elided:\n{s}");
    }
}
