//! Helpers shared by the workloads: repeated set-up, closed-loop passes,
//! seeds, process memory and trace output.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use chortle_netlist::SplitMix64;

use crate::stats::{median, percentile, Ratio};
use crate::trace::Tracer;
use crate::Outcome;

/// How many times a workload sets up per run; `setup_s` is the median.
/// Set-ups of a second or less need this many for a median that holds
/// from run to run on a shared host.
pub const SETUP_REPEATS: usize = 5;

/// A closed-loop op whose fastest run exceeds this misses the
/// latency limit and does not count toward `goodput_rps`.
pub const CLOSED_LOOP_LIMIT: Duration = Duration::from_secs(1);

/// Runs `setup` `reps` times and returns the last result with the
/// median wall time in seconds.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one set-up ran"),
        median(&times).expect("at least one set-up ran"),
    )
}

/// Draws `n` sub-seeds from the run seed, so each generated input has a
/// seed of its own and the same `--seed` gives the same inputs.
pub fn sub_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_BE4C_0000_0000);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Runs `pass` until `seconds` have elapsed and at least `min_passes`
/// have run. Returns each pass's wall time in seconds.
pub fn closed_loop(seconds: f64, min_passes: usize, mut pass: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        pass();
        times.push(t.elapsed().as_secs_f64());
    }
    times
}

/// The smallest of `values`; `None` when empty.
pub fn min_of(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

/// Sets the end-to-end metrics the closed-loop workloads report the
/// same way. `latencies_ms[i]` holds op `i`'s latency in every measured
/// pass, and `out` already counts the measured ops.
///
/// Each op's latency is its fastest run: on a shared host, interference
/// from other tenants only ever adds time (it slows a run by up to 1.7×
/// for seconds at a stretch), so the minimum is the estimate of the
/// op's own cost that repeats from run to run. `pass_s` is the sum of
/// those per-op minima, one pass over the corpus with every op at its
/// best. The corpus is a fixed list of ops, so `p50_ms` is the median op
/// and `p99_ms` the nearest-rank p99 over the ops, which for a corpus of
/// fewer than 100 ops is its slowest op.
pub fn fill_closed_loop_metrics(
    out: &mut Outcome,
    setup_s: f64,
    passes: &[f64],
    latencies_ms: &[Vec<f64>],
) {
    let op_ms: Vec<f64> = latencies_ms.iter().filter_map(|l| min_of(l)).collect();
    let pass_s = op_ms.iter().sum::<f64>() / 1e3;
    let p99 = percentile(&op_ms, 0.99);
    let limit_ms = CLOSED_LOOP_LIMIT.as_secs_f64() * 1e3;
    let within_limit = op_ms.iter().filter(|&&m| m <= limit_ms).count();
    #[allow(clippy::cast_precision_loss)]
    let success = Ratio {
        num: (out.attempted - out.failed) as f64,
        den: out.attempted as f64,
    };
    out.set("setup_s", setup_s);
    out.set("pass_s", pass_s);
    out.set("p50_ms", median(&op_ms).unwrap_or(0.0));
    out.set("p99_ms", p99.map_or(0.0, |p| p.value));
    out.set("success_rate", success.or_zero());
    // Ops per pass that answer correctly within the limit, per second of
    // `pass_s`.
    #[allow(clippy::cast_precision_loss)]
    let goodput = Ratio {
        num: within_limit as f64 * success.or_zero(),
        den: pass_s,
    };
    out.set("goodput_rps", goodput.or_zero());
    out.note(format!(
        "pass_s and p50/p99 over the fastest of {} runs of each of {} ops; whole passes took {:.4} s to {:.4} s, median {:.4} s",
        passes.len(),
        op_ms.len(),
        min_of(passes).unwrap_or(0.0),
        passes.iter().copied().fold(0.0, f64::max),
        median(passes).unwrap_or(0.0)
    ));
    out.note(format!(
        "success_rate = {} correct / {} attempted; goodput_rps = {within_limit} ops within {limit_ms} ms x {:.4} / {pass_s:.4} s",
        success.num, success.den,
        success.or_zero()
    ));
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where the traced run writes its spans: `perfbench/out/` in the
/// checkout the benchmark was built in.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("trace-{workload}-seed{seed}.jsonl"))
}

/// Writes the tracer's spans and reports where they went.
pub fn write_trace(tracer: &Tracer, workload: &str, seed: u64) {
    let path = trace_path(workload, seed);
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!(
            "perfbench: {} spans -> {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// Seconds in a duration measured in nanoseconds.
#[allow(clippy::cast_precision_loss)]
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_reproducible_and_seed_dependent() {
        assert_eq!(sub_seeds(3, 4), sub_seeds(3, 4));
        assert_ne!(sub_seeds(3, 4), sub_seeds(4, 4));
    }

    #[test]
    fn min_of_ignores_order() {
        assert_eq!(min_of(&[]), None);
        assert_eq!(min_of(&[3.0, 1.5, 2.0]), Some(1.5));
    }

    #[test]
    fn closed_loop_runs_the_minimum_passes() {
        let mut n = 0;
        let times = closed_loop(0.0, 3, || n += 1);
        assert_eq!((times.len(), n), (3, 3));
    }

    #[test]
    fn closed_loop_latency_is_taken_over_per_op_minima() {
        let mut out = Outcome {
            attempted: 9,
            failed: 0,
            ..Outcome::default()
        };
        // Three ops over three passes; every op has a slow pass, and op 2
        // an outlier far past the latency limit.
        let latencies = vec![
            vec![12.0, 10.0, 19.0],
            vec![20.0, 21.0, 34.0],
            vec![30.0, 31.0, 5000.0],
        ];
        fill_closed_loop_metrics(&mut out, 0.5, &[0.062, 0.062, 5.053], &latencies);
        assert_eq!(out.metrics["setup_s"], 0.5);
        assert!((out.metrics["pass_s"] - 0.060).abs() < 1e-12);
        assert_eq!(out.metrics["p50_ms"], 20.0);
        // The outlier does not reach p99: op 2's fastest run is 30 ms.
        assert_eq!(out.metrics["p99_ms"], 30.0);
        assert_eq!(out.metrics["success_rate"], 1.0);
        // All three ops finish within the limit, per pass.
        assert!((out.metrics["goodput_rps"] - 3.0 / 0.060).abs() < 1e-9);
        out.failed = 3;
        fill_closed_loop_metrics(&mut out, 0.5, &[0.062], &latencies);
        assert!((out.metrics["success_rate"] - 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_setup_reports_the_median_and_keeps_the_last() {
        let mut i = 0;
        let (last, t) = repeated_setup(3, || {
            i += 1;
            i
        });
        assert_eq!(last, 3);
        assert!(t >= 0.0);
    }
}
