//! `report-check` — validate `chortle-map` observability output.
//!
//! Default mode reads one JSON telemetry report from stdin and checks it
//! against the `chortle-telemetry/v1.9` schema: exact key layout, value
//! kinds, and internal consistency (histogram bucket counts summing to
//! the sample count).
//! With `--chrome-trace` it instead validates a `chortle-map --trace`
//! file: well-formed Chrome trace-event JSON with `B`/`E` events
//! balanced per thread. With `--prom` it validates a Prometheus
//! text-exposition page as scraped from the daemon's `/metrics`
//! endpoint (DESIGN.md §18): `chortle_`-prefixed metric names, `HELP`/
//! `TYPE` headers preceding samples, and finite sample values. Exits 0
//! and prints `ok` on success; exits 1 with the first deviation on
//! stderr otherwise. Used by `scripts/ci.sh` as the observability smoke
//! test:
//!
//! ```text
//! chortle-map --report json design.blif | report-check
//! chortle-map --trace run.json design.blif >/dev/null && report-check --chrome-trace < run.json
//! curl-less scrape of http://ADDR/metrics | report-check --prom
//! ```

use std::io::Read;
use std::process::ExitCode;

enum Mode {
    Report,
    ChromeTrace,
    Prom,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match args.as_slice() {
        [] => Mode::Report,
        [flag] if flag == "--chrome-trace" => Mode::ChromeTrace,
        [flag] if flag == "--prom" => Mode::Prom,
        other => {
            eprintln!(
                "report-check: unknown arguments {other:?} (only --chrome-trace and --prom are known)"
            );
            return ExitCode::FAILURE;
        }
    };
    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        eprintln!("report-check: cannot read stdin: {e}");
        return ExitCode::FAILURE;
    }
    let result = match mode {
        Mode::ChromeTrace => chortle_telemetry::validate_chrome_trace(&input),
        Mode::Report => chortle_telemetry::schema::validate_report(&input),
        Mode::Prom => chortle_telemetry::prom::validate_exposition(&input),
    };
    match result {
        Ok(()) => {
            println!("ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("report-check: {e}");
            ExitCode::FAILURE
        }
    }
}
