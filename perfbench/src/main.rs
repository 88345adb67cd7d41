//! `perfbench` — the repository benchmark: end-to-end and per-layer
//! numbers for the Chortle mapper, the `chortle-map` flow and the
//! `chortle-serve` daemon. See `perfbench/README.md` for the workloads,
//! every metric's unit and denominator, and how to read the trace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload flow_suite --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod common;
mod flow;
mod large;
mod layers;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("luts", "count"),
    ("lut_depth", "count"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("goodput_rps", "req/s"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// a workload does not drive reads 0 there; README.md names the
/// workload that drives each.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_s", "s"),
    ("netlist.parse_bytes", "count"),
    ("netlist.parse_mb_per_s", "MB/s"),
    ("netlist.verify_s", "s"),
    ("netlist.render_s", "s"),
    ("opt.optimize_s", "s"),
    ("opt.gates_in", "count"),
    ("opt.gates_out", "count"),
    ("map.map_network_s", "s"),
    ("map.normalize_s", "s"),
    ("map.forest_s", "s"),
    ("map.split_s", "s"),
    ("map.canon_s", "s"),
    ("map.dp_s", "s"),
    ("map.dp_k4_s", "s"),
    ("map.dp_k5_s", "s"),
    ("map.dp_k6_s", "s"),
    ("map.rest_s", "s"),
    ("map.trees", "count"),
    ("map.distinct_shapes", "count"),
    ("map.shape_reuse", "ratio"),
    ("design.parse_s", "s"),
    ("design.map_s", "s"),
    ("design.clouds", "count"),
    ("cache.struct_hit_rate", "ratio"),
    ("cache.struct_lookups", "count"),
    ("cache.fn_hit_rate", "ratio"),
    ("cache.fn_lookups", "count"),
    ("serve.run_p50_ms", "ms"),
    ("serve.run_p99_ms", "ms"),
    ("serve.queue_p50_ms", "ms"),
    ("serve.queue_p99_ms", "ms"),
    ("serve.wire_p50_ms", "ms"),
    ("serve.samples", "count"),
    ("serve.shed", "count"),
    ("serve.overload_sent", "count"),
    ("serve.overload_goodput_rps", "req/s"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("trace.overhead", "ratio"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
];

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// `flow_suite`, `map_large` or `serve_mixed`.
    pub workload: String,
    /// Seeds every generated input.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// What one run produced: op tallies and metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted while measuring.
    pub attempted: u64,
    /// Ops that failed, were wrong, or were refused.
    pub failed: u64,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable notes printed beside the metrics (pass and sample
    /// counts, the bases of ratios).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Renders the result line. `catalogue` fixes the metric order; a
/// per-layer metric the workload does not drive reads 0.
fn result_line(out: &Outcome, catalogue: &[(&str, &str)], correct: bool) -> String {
    let metrics: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_f64(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with all its digits.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((name, unit)) = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(name, unit)| !stats::is_metric_name(name) || !stats::is_unit(unit))
    {
        eprintln!("perfbench: invalid metric name or unit: {name} [{unit}]");
        return ExitCode::from(1);
    }
    let outcome = match args.workload.as_str() {
        "flow_suite" => flow::run(&args),
        "map_large" => large::run(&args),
        "serve_mixed" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (flow_suite, map_large, serve_mixed)");
            return ExitCode::from(2);
        }
    };
    let mut outcome = outcome;
    if !args.trace {
        outcome.set("peak_rss_mb", common::peak_rss_mib());
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    if let Some((missing, _)) = catalogue
        .iter()
        .find(|(name, _)| !args.trace && !outcome.metrics.contains_key(name))
    {
        eprintln!("perfbench: {} did not measure {missing}", args.workload);
        return ExitCode::from(1);
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, unit) in catalogue {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<24} {value:>16.6} {unit}");
    }
    for note in &outcome.notes {
        println!("  # {note}");
    }
    println!(
        "  ops attempted {} failed {} correct {correct}",
        outcome.attempted, outcome.failed
    );
    println!("{}", result_line(&outcome, catalogue, correct));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use chortle_telemetry::json::{self, Value};

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(stats::is_metric_name(name), "{name}");
            assert!(stats::is_unit(unit), "{name}: {unit}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// catalogue above, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(section)
                .and_then(Value::as_array)
                .expect("section is an array")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(declared, expected, "{section}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        out.set("setup_s", 0.25);
        let line = result_line(&out, &END_TO_END[..2], true);
        let doc = json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(3));
        let setup = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s present");
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert!(doc.get("metrics").and_then(|m| m.get("pass_s")).is_some());
    }
}
