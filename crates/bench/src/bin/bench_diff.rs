//! `bench-diff` — compares two benchmark snapshots and gates on
//! regressions.
//!
//! ```text
//! cargo run --release -p chortle-bench --bin bench-diff -- \
//!     BASELINE.json CURRENT.json [--threshold PCT]
//! ```
//!
//! Works on both `BENCH_map.json` (from `perf`) and `BENCH_serve.json`
//! (from `loadgen`): every numeric leaf shared by the two files is
//! compared, grouped per top-level section, and printed with its
//! relative delta. Metrics with a known direction — `speedup`,
//! `throughput_rps` and `hit_rate` should go up; `*_s`, `*_ms` and
//! `*_ns` should go down — are *guarded*: a move in the wrong
//! direction beyond the threshold (default 25%) is flagged
//! `REGRESSION` and makes the exit code nonzero. Everything else
//! (tree/LUT counts, host facts, near-zero ratios like
//! `overhead_vs_parallel` whose relative deltas are pure noise) is
//! informational only, so a changed workload reads as a changed
//! workload, not a failed gate. Per-element rows (`kernel[k=3].…`)
//! and phase latency percentiles (`warm.p50_ms`) are likewise
//! informational: the former time milliseconds of work and the latter
//! quantize to histogram buckets of a small sample, so their
//! run-to-run swing on a loaded host dwarfs real effects — the gate
//! rides on the section totals and phase throughputs, which a real
//! regression moves too.
//!
//! Embedded telemetry reports and latency histograms are skipped —
//! their headline numbers (percentiles, stage seconds) already surface
//! through the guarded metrics around them.
//!
//! Two snapshots whose `host.jobs` differ (or that record it in only one
//! file) are not compared at all: the parallel rows then measure
//! different schedules, so the diff fails before printing a delta.

use std::collections::BTreeMap;
use std::process::ExitCode;

use chortle_telemetry::json::{self, Value};

/// Subtrees that hold raw telemetry rather than headline metrics.
const SKIPPED_KEYS: &[&str] = &["report", "server_report", "latency_ns", "buckets"];

/// Which way a metric is supposed to move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    HigherIsBetter,
    LowerIsBetter,
    Neutral,
}

/// Classifies a metric by the last component of its path.
fn direction(path: &str) -> Direction {
    // Per-element rows (`kernel[k=3].baseline_s`, …) time single-digit
    // milliseconds of work: on a loaded host their run-to-run swing
    // routinely exceeds any sane threshold. They print as diagnostics,
    // but the gate rides on the section totals and the top-level
    // ratios, which aggregate enough work to be noise-robust — a real
    // regression moves the totals too.
    if path.contains('[') {
        return Direction::Neutral;
    }
    let leaf = path.rsplit('.').next().unwrap_or(path);
    if leaf == "speedup"
        || leaf == "warm_speedup"
        || leaf == "throughput_rps"
        || leaf == "hit_rate"
        || leaf == "completion_rate"
    {
        Direction::HigherIsBetter
    } else if leaf.starts_with('p') && leaf.ends_with("_ms") {
        // Latency percentiles (`p50_ms`, `p99_ms`) are read off the
        // 128-bucket log histogram of a dozens-of-requests phase: one
        // sample landing a bucket over moves them ~30% at a step.
        // `wall_s`/`throughput_rps` aggregate the same phase and are
        // the guarded signal.
        Direction::Neutral
    } else if leaf.ends_with("_s") || leaf.ends_with("_ms") || leaf.ends_with("_ns") {
        Direction::LowerIsBetter
    } else {
        // Counts, host facts, and near-zero ratios such as
        // `overhead_vs_parallel`, where a relative delta amplifies
        // noise into triple-digit percentages.
        Direction::Neutral
    }
}

/// Flattens every numeric leaf of `value` into `path -> number`,
/// skipping [`SKIPPED_KEYS`] subtrees. Array elements carrying a `"k"`
/// field are labelled `[k=N]` so rows match across files even if the
/// sweep order ever changes; other elements fall back to `[index]`.
fn flatten(value: &Value, path: &str, out: &mut BTreeMap<String, f64>) {
    if let Some(n) = value.as_f64() {
        out.insert(path.to_owned(), n);
        return;
    }
    if let Some(entries) = value.as_object() {
        for (key, child) in entries {
            if SKIPPED_KEYS.contains(&key.as_str()) {
                continue;
            }
            let next = if path.is_empty() {
                key.clone()
            } else {
                format!("{path}.{key}")
            };
            flatten(child, &next, out);
        }
    } else if let Some(items) = value.as_array() {
        for (index, item) in items.iter().enumerate() {
            let label = item
                .get("k")
                .and_then(Value::as_u64)
                .map_or_else(|| format!("{path}[{index}]"), |k| format!("{path}[k={k}]"));
            flatten(item, &label, out);
        }
    }
}

/// The top-level section a flattened path belongs to.
fn section(path: &str) -> &str {
    let end = path.find(['.', '[']).unwrap_or(path.len());
    &path[..end]
}

/// One compared metric, ready to print.
struct Delta {
    path: String,
    base: f64,
    current: f64,
    /// Relative change in percent; `None` when the baseline is zero.
    pct: Option<f64>,
    regressed: bool,
}

fn compare(
    base: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    threshold_pct: f64,
) -> Vec<Delta> {
    let mut deltas = Vec::new();
    for (path, &b) in base {
        let Some(&c) = current.get(path) else {
            continue;
        };
        let pct = if b == 0.0 {
            None
        } else {
            Some((c - b) / b * 100.0)
        };
        let regressed = match (direction(path), pct) {
            (Direction::HigherIsBetter, Some(p)) => p < -threshold_pct,
            (Direction::LowerIsBetter, Some(p)) => p > threshold_pct,
            _ => false,
        };
        deltas.push(Delta {
            path: path.clone(),
            base: b,
            current: c,
            pct,
            regressed,
        });
    }
    deltas
}

/// The worker count a snapshot's parallel rows ran with.
const HOST_JOBS: &str = "host.jobs";

/// Refuses to compare snapshots taken with different `host.jobs`.
fn check_same_jobs(
    base: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
) -> Result<(), String> {
    let (b, c) = (base.get(HOST_JOBS), current.get(HOST_JOBS));
    if b == c {
        return Ok(());
    }
    let show = |v: Option<&f64>| v.map_or_else(|| "absent".to_owned(), |v| v.to_string());
    Err(format!(
        "{HOST_JOBS} differs ({} in the baseline, {} in the current file): \
         the snapshots ran different schedules; regenerate one on a matching host",
        show(b),
        show(c)
    ))
}

fn load(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let mut metrics = BTreeMap::new();
    flatten(&value, "", &mut metrics);
    if metrics.is_empty() {
        return Err(format!("{path}: no numeric metrics found"));
    }
    Ok(metrics)
}

fn usage() -> String {
    "usage: bench-diff BASELINE.json CURRENT.json [--threshold PCT]".to_owned()
}

struct Args {
    baseline: String,
    current: String,
    threshold_pct: f64,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut files = Vec::new();
    let mut threshold_pct = 25.0;
    let mut args = args;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => {
                let value = args.next().ok_or("--threshold requires a value")?;
                threshold_pct = value
                    .parse::<f64>()
                    .ok()
                    .filter(|p| p.is_finite() && *p >= 0.0)
                    .ok_or_else(|| format!("invalid --threshold {value:?}"))?;
            }
            "--help" | "-h" => return Err(usage()),
            other if !other.starts_with('-') => files.push(arg),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if files.len() != 2 {
        return Err(usage());
    }
    let current = files.pop().expect("two files");
    let baseline = files.pop().expect("two files");
    Ok(Args {
        baseline,
        current,
        threshold_pct,
    })
}

fn run(args: &Args) -> Result<usize, String> {
    let base = load(&args.baseline)?;
    let current = load(&args.current)?;
    check_same_jobs(&base, &current)?;
    let deltas = compare(&base, &current, args.threshold_pct);
    if deltas.is_empty() {
        return Err("the two files share no numeric metrics".to_owned());
    }
    println!(
        "bench-diff: {} -> {} (threshold {}%)",
        args.baseline, args.current, args.threshold_pct
    );
    let mut current_section = "";
    let mut regressions = 0;
    for delta in &deltas {
        let sec = section(&delta.path);
        if sec != current_section {
            println!("\n[{sec}]");
            current_section = sec;
        }
        let change = delta
            .pct
            .map_or_else(|| "   n/a".to_owned(), |p| format!("{p:+6.1}%"));
        let flag = if delta.regressed {
            regressions += 1;
            "  REGRESSION"
        } else {
            ""
        };
        println!(
            "  {:<44} {:>12.4} -> {:>12.4}  {change}{flag}",
            delta.path, delta.base, delta.current
        );
    }
    for path in base.keys().filter(|p| !current.contains_key(*p)) {
        println!("\n  only in baseline: {path}");
    }
    for path in current.keys().filter(|p| !base.contains_key(*p)) {
        println!("\n  only in current:  {path}");
    }
    println!();
    if regressions > 0 {
        println!(
            "{regressions} guarded metric(s) regressed beyond {}%",
            args.threshold_pct
        );
    } else {
        println!("no guarded metric regressed beyond {}%", args.threshold_pct);
    }
    Ok(regressions)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("bench-diff: {msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("bench-diff: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(text: &str) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        flatten(&json::parse(text).expect("valid JSON"), "", &mut out);
        out
    }

    #[test]
    fn flattens_sections_arrays_and_skips_reports() {
        let m = metrics(
            r#"{"kernel":[{"k":2,"speedup":1.5},{"k":4,"speedup":1.2}],
                "cold":{"p95_ms":30.5,"latency_ns":{"count":3}},
                "server_report":{"schema":"x","counters":[{"value":9}]},
                "warm_speedup":1.24}"#,
        );
        assert_eq!(m.get("kernel[k=2].speedup"), Some(&1.5));
        assert_eq!(m.get("kernel[k=4].speedup"), Some(&1.2));
        assert_eq!(m.get("cold.p95_ms"), Some(&30.5));
        assert_eq!(m.get("warm_speedup"), Some(&1.24));
        assert!(m.keys().all(|k| !k.contains("latency_ns")));
        assert!(m.keys().all(|k| !k.contains("server_report")));
    }

    #[test]
    fn directions_follow_the_naming_convention() {
        assert_eq!(direction("kernel_total.speedup"), Direction::HigherIsBetter);
        // The equivalence-checker section is gated like the DP kernel's.
        assert_eq!(direction("verify_total.speedup"), Direction::HigherIsBetter);
        assert_eq!(
            direction("verify_total.optimized_s"),
            Direction::LowerIsBetter
        );
        // So is the optimization-script section; its per-network rows
        // are diagnostics.
        assert_eq!(
            direction("optimize_total.speedup"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction("optimize[12].speedup"), Direction::Neutral);
        assert_eq!(direction("warm.throughput_rps"), Direction::HigherIsBetter);
        assert_eq!(
            direction("overload.completion_rate"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction("cold.wall_s"), Direction::LowerIsBetter);
        assert_eq!(
            direction("mapping_total.parallel_s"),
            Direction::LowerIsBetter
        );
        assert_eq!(
            direction("telemetry[k=2].overhead_vs_parallel"),
            Direction::Neutral
        );
        assert_eq!(direction("kernel[k=2].luts"), Direction::Neutral);
        assert_eq!(direction("host.cores"), Direction::Neutral);
        // Per-element rows are diagnostics, never gated — even for
        // metrics that would be guarded at the section level.
        assert_eq!(direction("kernel[k=2].hit_rate"), Direction::Neutral);
        assert_eq!(direction("kernel[k=3].baseline_s"), Direction::Neutral);
        assert_eq!(
            direction("mapping_chunked[k=2].speedup"),
            Direction::Neutral
        );
        // Histogram-derived phase percentiles quantize to buckets and
        // are likewise informational.
        assert_eq!(direction("cold.p95_ms"), Direction::Neutral);
        assert_eq!(direction("warm.p50_ms"), Direction::Neutral);
    }

    #[test]
    fn gates_only_on_guarded_metrics_beyond_threshold() {
        let base = metrics(r#"{"total":{"speedup":2.0,"wall_s":1.0},"luts":100}"#);
        let worse = metrics(r#"{"total":{"speedup":1.0,"wall_s":1.1},"luts":50}"#);
        let deltas = compare(&base, &worse, 25.0);
        let regressed: Vec<&str> = deltas
            .iter()
            .filter(|d| d.regressed)
            .map(|d| d.path.as_str())
            .collect();
        // speedup halved (beyond 25%): gated. wall_s +10%: within
        // threshold. luts halved: neutral, never gated.
        assert_eq!(regressed, ["total.speedup"]);
        let improved = compare(&worse, &base, 25.0);
        assert!(improved.iter().all(|d| !d.regressed));
    }

    #[test]
    fn zero_baselines_never_divide_or_gate() {
        let base = metrics(r#"{"overload":{"queue_full":0,"wall_s":0.0}}"#);
        let cur = metrics(r#"{"overload":{"queue_full":5,"wall_s":2.0}}"#);
        let deltas = compare(&base, &cur, 25.0);
        assert!(deltas.iter().all(|d| d.pct.is_none() && !d.regressed));
    }

    #[test]
    fn snapshots_with_different_host_jobs_are_refused() {
        let two = metrics(r#"{"host":{"cores":2,"jobs":2},"total":{"wall_s":1.0}}"#);
        let also_two = metrics(r#"{"host":{"cores":1,"jobs":2},"total":{"wall_s":1.0}}"#);
        let one = metrics(r#"{"host":{"cores":1,"jobs":1},"total":{"wall_s":1.0}}"#);
        let none = metrics(r#"{"host":{"cores":1},"total":{"wall_s":1.0}}"#);
        assert_eq!(check_same_jobs(&two, &also_two), Ok(()));
        assert_eq!(check_same_jobs(&none, &none), Ok(()));
        let err = check_same_jobs(&two, &one).unwrap_err();
        assert!(
            err.contains("host.jobs differs (2 in the baseline, 1"),
            "{err}"
        );
        assert!(check_same_jobs(&one, &none).is_err());
        assert!(check_same_jobs(&none, &one).is_err());
    }

    #[test]
    fn parses_threshold_and_rejects_garbage() {
        let args = parse_args(
            ["a.json", "b.json", "--threshold", "10"]
                .map(String::from)
                .into_iter(),
        )
        .expect("valid");
        assert_eq!(
            (args.baseline.as_str(), args.current.as_str()),
            ("a.json", "b.json")
        );
        assert!((args.threshold_pct - 10.0).abs() < f64::EPSILON);
        assert!(parse_args(["a.json"].map(String::from).into_iter()).is_err());
        assert!(parse_args(
            ["a", "b", "--threshold", "-3"]
                .map(String::from)
                .into_iter()
        )
        .is_err());
        assert!(parse_args(["a", "b", "--bogus"].map(String::from).into_iter()).is_err());
    }
}
