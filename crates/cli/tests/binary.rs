//! End-to-end tests of the `chortle-map` binary itself: argument parsing,
//! stdin/stdout plumbing, file output and failure modes.

use std::io::Write as _;
use std::process::{Command, Stdio};

const DEMO: &str = "\
.model demo
.inputs a b c
.outputs z
.names a b t
11 1
.names t c z
1- 1
-1 1
.end
";

fn run(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_chortle-map"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    // The binary exits before draining stdin when the arguments are bad;
    // a broken pipe here is part of the scenario, not a harness error.
    let _ = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("binary exits");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn maps_from_stdin_to_stdout() {
    let (stdout, _, ok) = run(&["-k", "3"], DEMO);
    assert!(ok);
    assert!(stdout.starts_with(".model mapped"));
    assert!(stdout.contains(".names"));
}

#[test]
fn stats_go_to_stderr() {
    let (_, stderr, ok) = run(&["--stats"], DEMO);
    assert!(ok);
    assert!(stderr.contains("network:"));
    assert!(stderr.contains("mapped:"));
}

#[test]
fn verilog_format() {
    let (stdout, _, ok) = run(&["--format", "verilog"], DEMO);
    assert!(ok);
    assert!(stdout.contains("module mapped"));
    assert!(stdout.contains("endmodule"));
}

#[test]
fn dot_format() {
    let (stdout, _, ok) = run(&["--format", "dot"], DEMO);
    assert!(ok);
    assert!(stdout.starts_with("digraph"));
}

#[test]
fn mis_mapper_selectable() {
    let (stdout, _, ok) = run(&["--mapper", "mis", "-k", "3"], DEMO);
    assert!(ok);
    assert!(stdout.contains(".names"));
}

#[test]
fn file_round_trip() {
    let dir = std::env::temp_dir();
    let in_path = dir.join("chortle_cli_test_in.blif");
    let out_path = dir.join("chortle_cli_test_out.blif");
    std::fs::write(&in_path, DEMO).expect("write input");
    let (_, _, ok) = run(
        &[
            in_path.to_str().expect("utf8 path"),
            "-o",
            out_path.to_str().expect("utf8 path"),
        ],
        "",
    );
    assert!(ok);
    let written = std::fs::read_to_string(&out_path).expect("output written");
    assert!(written.contains(".model mapped"));
    let _ = std::fs::remove_file(in_path);
    let _ = std::fs::remove_file(out_path);
}

#[test]
fn jobs_flag_matches_sequential_output() {
    let (seq, _, ok) = run(&["-k", "3"], DEMO);
    assert!(ok);
    // `--jobs` is accepted for compatibility and ignored ...
    for jobs in ["0", "4"] {
        let (par, _, ok) = run(&["-k", "3", "--jobs", jobs], DEMO);
        assert!(ok);
        assert_eq!(seq, par, "--jobs {jobs} must not change the circuit");
    }
    // ... but still validated, so a typo fails loudly.
    let (_, stderr, ok) = run(&["--jobs", "many"], DEMO);
    assert!(!ok);
    assert!(stderr.contains("invalid value for --jobs"), "{stderr}");
}

#[test]
fn bad_arguments_fail_with_message() {
    let (_, stderr, ok) = run(&["--mapper", "abc"], DEMO);
    assert!(!ok);
    assert!(stderr.contains("--mapper"));
    let (_, stderr, ok) = run(&["-k", "99"], DEMO);
    assert!(!ok);
    assert!(stderr.contains("unsupported"));
}

#[test]
fn bad_blif_fails_cleanly() {
    let (_, stderr, ok) = run(&[], ".model x\n.latch a b\n.end\n");
    assert!(!ok);
    assert!(stderr.contains("cannot parse"));
}

#[test]
fn help_prints_usage() {
    // The flag-table portion of the golden is *generated* from the same
    // declarative tables the binary parses against
    // (`chortle_cli::flags::FLAGS` + `chortle_server::SERVE_FLAGS`), so
    // help cannot drift from the tables by construction. The prose
    // around the tables is still pinned: `help_text` is itself asserted
    // to open with the fixed usage header.
    let golden = chortle_cli::flags::help_text();
    assert!(golden.starts_with(
        "chortle-map — map a BLIF network into K-input lookup tables\n\
         \n\
         Usage: chortle-map [OPTIONS] [INPUT.blif]\n"
    ));
    // Spot-check that generation actually covers the tables.
    assert!(golden.contains("  --trace FILE        write a Chrome trace-event JSON"));
    assert!(golden.contains("  --help, -h          print this help and exit"));
    assert!(golden.contains("    --stdio           serve newline-delimited JSON"));
    let (stdout, _, ok) = run(&["--help"], "");
    assert!(ok);
    assert_eq!(stdout, golden, "--help text drifted from the flag tables");
}

#[test]
fn serve_subcommand_help_lists_the_daemon_flags() {
    let (stdout, _, ok) = run(&["serve", "--help"], "");
    assert!(ok);
    assert!(stdout.contains("chortle-map serve — resident chortle mapping daemon"));
    for flag in ["--port", "--workers", "--queue", "--stdio"] {
        assert!(stdout.contains(flag), "serve help lost {flag}");
    }
}

#[test]
fn serve_subcommand_rejects_unknown_flags() {
    let (_, stderr, ok) = run(&["serve", "--frobnicate"], "");
    assert!(!ok);
    assert!(stderr.contains("chortle-map serve"));
    assert!(stderr.contains("unknown argument"));
}

#[test]
fn version_prints_and_exits() {
    let (stdout, _, ok) = run(&["--version"], "");
    assert!(ok);
    assert!(stdout.starts_with("chortle-map "));
}

#[test]
fn unknown_flags_are_rejected() {
    let (_, stderr, ok) = run(&["--frobnicate"], DEMO);
    assert!(!ok);
    assert!(stderr.contains("unknown argument"));
    assert!(stderr.contains("--frobnicate"));
    // There is no chunk knob: mapping has one driver.
    let (_, stderr, ok) = run(&["--chunk", "4"], DEMO);
    assert!(!ok);
    assert!(stderr.contains("unknown argument"), "{stderr}");
}

#[test]
fn invalid_values_name_the_flag() {
    let (_, stderr, ok) = run(&["-k", "many"], DEMO);
    assert!(!ok);
    assert!(stderr.contains("invalid value for -k"), "{stderr}");
    let (_, stderr, ok) = run(&["--split", "99"], DEMO);
    assert!(!ok);
    assert!(stderr.contains("invalid value for --split"), "{stderr}");
    let (_, stderr, ok) = run(&["--report", "xml"], DEMO);
    assert!(!ok);
    assert!(stderr.contains("invalid value for --report"), "{stderr}");
    let (_, stderr, ok) = run(&["--cache", "ram"], DEMO);
    assert!(!ok);
    assert!(stderr.contains("invalid value for --cache"), "{stderr}");
}

/// A Figure-1-style network: `g2` and `g3` fan out, so the forest has
/// trees that read other trees' root depths.
const FIGURE: &str = "\
.model figure
.inputs a b c d e
.outputs y z
.names a b g1
11 1
.names g1 c g2
1- 1
-0 1
.names c d e g3
111 1
.names g2 g3 y
1- 1
-1 1
.names g2 g3 z
10 1
.end
";

#[test]
fn cache_modes_do_not_change_the_circuit() {
    let (reference, _, ok) = run(&["-k", "3", "--cache", "off"], FIGURE);
    assert!(ok);
    let (stdout, _, ok) = run(&["-k", "3", "--cache", "shared"], FIGURE);
    assert!(ok);
    assert_eq!(reference, stdout, "--cache shared changed the circuit");
    // The retired `tree` and `fn` are rejected here; only the wire still
    // accepts them, as `off` and `shared`.
    for retired in ["tree", "fn"] {
        let (_, stderr, ok) = run(&["-k", "3", "--cache", retired], FIGURE);
        assert!(!ok);
        assert!(
            stderr.contains(&format!(
                "invalid value for --cache: \"{retired}\" (expected off or shared)"
            )),
            "{stderr}"
        );
    }
}

#[test]
fn report_json_is_schema_valid_and_owns_stdout() {
    let (stdout, stderr, ok) = run(&["--report", "json", "--no-optimize"], FIGURE);
    assert!(ok, "{stderr}");
    // Report owns stdout: exactly one line of JSON, no BLIF.
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(!stdout.contains(".model"));
    chortle_telemetry::schema::validate_report(&stdout).expect("schema-valid report");
    let report = chortle_telemetry::json::parse(&stdout).expect("parses");
    let stages = report.get("stages").and_then(|v| v.as_array()).unwrap();
    let names: Vec<&str> = stages
        .iter()
        .filter_map(|s| s.get("name").and_then(|n| n.as_str()))
        .collect();
    for stage in ["flow.parse", "flow.map", "map.dp", "flow.render"] {
        assert!(names.contains(&stage), "missing stage {stage} in {names:?}");
    }
    let trees = report
        .get("counters")
        .and_then(|v| v.as_array())
        .unwrap()
        .iter()
        .find(|c| c.get("name").and_then(|n| n.as_str()) == Some("map.trees"))
        .and_then(|c| c.get("value").and_then(|v| v.as_u64()))
        .expect("map.trees counter");
    assert!(trees >= 3, "expected the fanout points to split the forest");
}

#[test]
fn report_text_is_human_readable() {
    let (stdout, _, ok) = run(&["--report", "text"], DEMO);
    assert!(ok);
    assert!(stdout.contains("stages"), "{stdout}");
    assert!(stdout.contains("flow.map"), "{stdout}");
    // The Chortle report ends with the forest's shape histogram.
    assert!(stdout.contains("shapes:"), "{stdout}");
    assert!(stdout.contains("distinct across"), "{stdout}");
}

#[test]
fn trace_writes_chrome_trace_event_json() {
    let trace_path = std::env::temp_dir().join("chortle_cli_trace.json");
    let (stdout, stderr, ok) = run(&["--trace", trace_path.to_str().expect("utf8")], FIGURE);
    assert!(ok, "{stderr}");
    // --trace does not claim stdout: the circuit still goes there.
    assert!(stdout.contains(".model mapped"));
    let written = std::fs::read_to_string(&trace_path).expect("trace written");
    chortle_telemetry::validate_chrome_trace(&written).expect("chrome-loadable trace");
    for cat in ["\"cat\":\"stage\"", "\"cat\":\"tree\""] {
        assert!(written.contains(cat), "trace lost {cat}: {written}");
    }
    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn trace_and_report_share_one_telemetry_handle() {
    let trace_path = std::env::temp_dir().join("chortle_cli_trace_report.json");
    let (stdout, stderr, ok) = run(
        &[
            "--trace",
            trace_path.to_str().expect("utf8"),
            "--report",
            "json",
        ],
        FIGURE,
    );
    assert!(ok, "{stderr}");
    chortle_telemetry::schema::validate_report(&stdout).expect("schema-valid report");
    // The tracing handle also feeds the report: trace.* counters and
    // the duration histograms appear.
    assert!(stdout.contains("\"trace.events\""), "{stdout}");
    assert!(stdout.contains("\"map.tree_ns\""), "{stdout}");
    let written = std::fs::read_to_string(&trace_path).expect("trace written");
    chortle_telemetry::validate_chrome_trace(&written).expect("chrome-loadable trace");
    let _ = std::fs::remove_file(trace_path);
}

#[test]
fn report_with_output_file_writes_both() {
    let out_path = std::env::temp_dir().join("chortle_cli_report_out.blif");
    let (stdout, _, ok) = run(
        &["--report", "json", "-o", out_path.to_str().expect("utf8")],
        DEMO,
    );
    assert!(ok);
    chortle_telemetry::schema::validate_report(&stdout).expect("valid report");
    let written = std::fs::read_to_string(&out_path).expect("circuit written");
    assert!(written.contains(".model mapped"));
    let _ = std::fs::remove_file(out_path);
}
