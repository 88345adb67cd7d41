//! Structural validation of JSON telemetry reports.
//!
//! [`validate_report`] checks a report against the [`crate::SCHEMA`]
//! layout — key set, kinds, and internal consistency (histogram bucket
//! counts summing to the sample count). [`shape`] renders the *shape* of any JSON
//! document (every key path with its kind, values elided), which the
//! golden-file schema test pins so the report layout cannot drift
//! silently.

use crate::catalogue::{self, Kind};
use crate::json::{self, Value};

/// The closed counter namespaces: a counter whose name starts with one
/// of these must be a [`Kind::Counter`] entry of the [`catalogue`], so a
/// mistyped or undocumented counter fails validation instead of
/// shipping silently. `serve.` closed in schema v1.2, `trace.` in v1.3,
/// `cache.` in v1.5, `design.` and `blif.` in v1.6, `log.` in v1.7.
/// Every other namespace stays open (mapper counters come and go).
const CLOSED_NAMESPACES: &[&str] = &["serve.", "trace.", "cache.", "design.", "blif.", "log."];

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
        if let Some(ns) = CLOSED_NAMESPACES.iter().find(|ns| name.starts_with(*ns)) {
            if catalogue::lookup(name).map(|e| e.kind) != Some(Kind::Counter) {
                return Err(format!(
                    "{path}.name {name:?} is not a catalogued {ns}* counter"
                ));
            }
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

    /// Every catalogued counter of `ns` validates, while each of `typos`
    /// (names under `ns` the catalogue does not hold) is rejected by name.
    fn assert_namespace_closed(ns: &str, typos: &[&'static str]) {
        assert!(CLOSED_NAMESPACES.contains(&ns));
        let t = Telemetry::enabled();
        for e in catalogue::ENTRIES
            .iter()
            .filter(|e| e.kind == Kind::Counter && e.name.starts_with(ns))
        {
            t.add_counter(e.name, 1);
        }
        validate_report(&t.snapshot().to_json())
            .unwrap_or_else(|err| panic!("catalogued {ns}* counters validate: {err}"));
        for name in typos {
            let t = Telemetry::enabled();
            t.add_counter(name, 1);
            let err = validate_report(&t.snapshot().to_json()).unwrap_err();
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn serve_namespace_is_closed() {
        assert_namespace_closed("serve.", &["serve.rejected_deadlin"]);
    }

    #[test]
    fn cache_namespace_is_closed() {
        // A typo, or a counter of the retired functional tier.
        assert_namespace_closed("cache.", &["cache.fn_hit", "cache.fn_hits"]);
    }

    #[test]
    fn design_namespace_is_closed() {
        assert_namespace_closed("design.", &["design.cloud"]);
    }

    #[test]
    fn blif_namespace_is_closed() {
        assert_namespace_closed("blif.", &["blif.lines"]);
    }

    #[test]
    fn log_namespace_is_closed() {
        assert_namespace_closed("log.", &["log.evnets"]);
    }

    #[test]
    fn closed_namespaces_admit_only_catalogue_counters() {
        // Every catalogued counter validates together; the
        // design.cloud_work histogram rides the histogram section.
        let t = Telemetry::enabled();
        for e in catalogue::ENTRIES
            .iter()
            .filter(|e| e.kind == Kind::Counter)
        {
            t.add_counter(e.name, 1);
        }
        t.record_value(catalogue::DESIGN_CLOUD_WORK, 3);
        validate_report(&t.snapshot().to_json()).expect("catalogued counters validate");
        // Each closed namespace holds the counters it held when it closed.
        for (ns, counters) in [
            ("serve.", 20),
            ("trace.", 2),
            ("cache.", 3),
            ("design.", 4),
            ("blif.", 6),
            ("log.", 4),
        ] {
            assert!(CLOSED_NAMESPACES.contains(&ns));
            let found = catalogue::ENTRIES
                .iter()
                .filter(|e| e.kind == Kind::Counter && e.name.starts_with(ns))
                .count();
            assert_eq!(found, counters, "{ns}* counters");
        }
        assert_eq!(CLOSED_NAMESPACES.len(), 6);
        // Catalogued names of another kind are rejected as counters …
        for name in ["serve.run_ns", "design.cloud_work"] {
            let t = Telemetry::enabled();
            t.add_counter(name, 1);
            let err = validate_report(&t.snapshot().to_json()).unwrap_err();
            assert!(err.contains(name), "{err}");
        }
        // … while the other namespaces stay open.
        for name in ["dp.some_future_counter", "pack.dropped_inputs"] {
            let t = Telemetry::enabled();
            t.add_counter(name, 1);
            validate_report(&t.snapshot().to_json()).expect("open namespaces accept any name");
        }
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
