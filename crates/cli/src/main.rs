//! `chortle-map` — technology mapping for lookup-table FPGAs from the
//! command line.
//!
//! Flags are described by one declarative table ([`FLAGS`]) that drives
//! parsing, `--help` generation, and unknown-flag rejection, so the three
//! can never disagree. Values are validated through the core fallible
//! builders: a bad `-k` is the library's own typed error, prefixed
//! `invalid value for -k:`.
//!
//! Reads from stdin when no input file is given. With `--report`, the
//! telemetry report goes to stdout and the mapped circuit is only written
//! when `-o FILE` is given.
//!
//! `chortle-map serve` hands off to the resident daemon in
//! `chortle-server` — same mapper, same output bytes, kept warm across
//! requests.

use std::io::Read;
use std::process::ExitCode;

use chortle_cli::flags::{help_text, lookup};
use chortle_cli::{
    run_design_flow, run_flow, CacheMode, FlowOptions, MapOptions, Mapper, OutputFormat, PackMode,
    Telemetry,
};
use chortle_netlist::write_blif;

/// Telemetry report format requested on the command line.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ReportFormat {
    Json,
    Text,
}

/// Everything the flag parser produces.
struct Cli {
    options: FlowOptions,
    input: Option<String>,
    output: Option<String>,
    stats: bool,
    report: Option<ReportFormat>,
    trace: Option<String>,
    design: bool,
    clouds: Option<String>,
}

/// A parse failure: message for stderr, rendered by `main`.
struct CliError(String);

impl CliError {
    fn invalid(flag: &str, detail: impl std::fmt::Display) -> Self {
        CliError(format!("invalid value for {flag}: {detail}"))
    }
}

/// Parses the argument vector against [`FLAGS`]. Mapper knobs go through
/// the core fallible builder so every bound lives in one place.
fn parse_args(args: impl Iterator<Item = String>) -> Result<Option<Cli>, CliError> {
    let mut k = 4usize;
    let mut split = 10usize;
    let mut cache = CacheMode::default();
    let mut pack = PackMode::default();
    let mut depth_objective = false;
    let mut cli = Cli {
        options: FlowOptions::default(),
        input: None,
        output: None,
        stats: false,
        report: None,
        trace: None,
        design: false,
        clouds: None,
    };

    let mut args = args;
    while let Some(arg) = args.next() {
        let Some(flag) = lookup(&arg) else {
            if !arg.starts_with('-') && cli.input.is_none() {
                cli.input = Some(arg);
                continue;
            }
            return Err(CliError(format!("unknown argument {arg:?}")));
        };
        let value = if flag.value.is_some() {
            match args.next() {
                Some(v) => v,
                None => {
                    return Err(CliError(format!(
                        "{} requires a value {}",
                        flag.name,
                        flag.value.unwrap_or("")
                    )))
                }
            }
        } else {
            String::new()
        };
        match flag.name {
            "-k" => {
                k = value
                    .parse()
                    .map_err(|_| CliError::invalid("-k", format!("{value:?} is not an integer")))?;
            }
            "-o" => cli.output = Some(value),
            "--mapper" => {
                cli.options.mapper = match value.as_str() {
                    "chortle" => Mapper::Chortle,
                    "mis" => Mapper::Mis,
                    other => {
                        return Err(CliError::invalid(
                            "--mapper",
                            format!("{other:?} (expected chortle or mis)"),
                        ))
                    }
                };
            }
            "--objective" => {
                depth_objective = match value.as_str() {
                    "area" => false,
                    "depth" => true,
                    other => {
                        return Err(CliError::invalid(
                            "--objective",
                            format!("{other:?} (expected area or depth)"),
                        ))
                    }
                };
            }
            "--split" => {
                split = value.parse().map_err(|_| {
                    CliError::invalid("--split", format!("{value:?} is not an integer"))
                })?;
            }
            "--jobs" => {
                // Validated so scripts keep failing loudly on a typo, then
                // ignored: mapping has no intra-run parallelism.
                value.parse::<usize>().map_err(|_| {
                    CliError::invalid("--jobs", format!("{value:?} is not an integer"))
                })?;
            }
            "--cache" => {
                cache = match value.as_str() {
                    "off" => CacheMode::Off,
                    "shared" => CacheMode::Shared,
                    other => {
                        return Err(CliError::invalid(
                            "--cache",
                            format!("{other:?} (expected off or shared)"),
                        ))
                    }
                };
            }
            "--pack" => {
                pack = match value.as_str() {
                    "off" => PackMode::Off,
                    "dc" => PackMode::Dc,
                    other => {
                        return Err(CliError::invalid(
                            "--pack",
                            format!("{other:?} (expected off or dc)"),
                        ))
                    }
                };
            }
            "--format" => {
                cli.options.format = match value.as_str() {
                    "blif" => OutputFormat::Blif,
                    "verilog" => OutputFormat::Verilog,
                    "dot" => OutputFormat::Dot,
                    other => {
                        return Err(CliError::invalid(
                            "--format",
                            format!("{other:?} (expected blif, verilog or dot)"),
                        ))
                    }
                };
            }
            "--report" => {
                cli.report = Some(match value.as_str() {
                    "json" => ReportFormat::Json,
                    "text" => ReportFormat::Text,
                    other => {
                        return Err(CliError::invalid(
                            "--report",
                            format!("{other:?} (expected json or text)"),
                        ))
                    }
                });
            }
            "--trace" => cli.trace = Some(value),
            "--design" => cli.design = true,
            "--clouds" => cli.clouds = Some(value),
            "--no-optimize" => cli.options.optimize = false,
            "--no-verify" => cli.options.verify = false,
            "--stats" => cli.stats = true,
            "--help" => {
                print!("{}", help_text());
                return Ok(None);
            }
            "--version" => {
                println!("chortle-map {}", env!("CARGO_PKG_VERSION"));
                return Ok(None);
            }
            _ => unreachable!("every table entry is handled"),
        }
    }

    if cli.clouds.is_some() && !cli.design {
        return Err(CliError("--clouds requires --design".to_owned()));
    }
    let mut builder = MapOptions::builder(k).cache(cache).pack(pack);
    if depth_objective {
        builder = builder.objective(chortle_cli::Objective::Depth);
    }
    // --trace needs the event-capturing handle; --report alone only the
    // counting one. Either way one shared handle serves both outputs.
    if cli.trace.is_some() {
        builder = builder.telemetry(Telemetry::traced());
    } else if cli.report.is_some() {
        builder = builder.telemetry(Telemetry::enabled());
    }
    cli.options.map = builder
        .split_threshold(split)
        .map_err(|e| CliError::invalid("--split", e))?
        .build()
        .map_err(|e| CliError::invalid("-k", e))?;
    Ok(Some(cli))
}

/// Renders the forest's shape histogram (most repeated shapes first,
/// top 8) after the text report. `1 - distinct/trees` is the best hit
/// rate the DP cache can reach on this forest.
fn print_shape_histogram(histogram: &[(chortle_cli::Fingerprint, usize)]) {
    if histogram.is_empty() {
        return;
    }
    let trees: usize = histogram.iter().map(|(_, c)| c).sum();
    println!(
        "shapes: {} distinct across {} trees (max cache hit rate {}%)",
        histogram.len(),
        trees,
        (trees - histogram.len()) * 100 / trees
    );
    for (fp, count) in histogram.iter().take(8) {
        println!("  {count:>5}x {fp}");
    }
    if histogram.len() > 8 {
        println!("  ... {} more shapes", histogram.len() - 8);
    }
}

/// Prints `message` to stderr and returns the failing exit code.
fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("{message}");
    ExitCode::FAILURE
}

/// Writes `text` to `path`, or fails with `cannot write PATH: ...`.
fn write_file(path: &str, text: &str) -> Result<(), ExitCode> {
    std::fs::write(path, text).map_err(|e| fail(format!("cannot write {path}: {e}")))
}

/// The `--design` path: sequential input, per-cloud mapping, sequential
/// LUT netlist out. `--clouds DIR` additionally dumps every cloud and
/// its mapped form, byte-identical to an offline `chortle-map` run over
/// the same cloud file.
fn run_design(blif: &str, cli: &Cli) -> Result<(), ExitCode> {
    let result =
        run_design_flow(blif, &cli.options).map_err(|e| fail(format!("chortle-map: {e}")))?;

    if cli.stats {
        eprintln!(
            "design:  {} ({} clouds, {} latches, {} passthroughs)",
            result.name,
            result.clouds.len(),
            result.latches,
            result.passthroughs
        );
        eprintln!("mapped:  {} LUTs, depth {}", result.luts, result.depth);
    }

    if let Some(dir) = &cli.clouds {
        std::fs::create_dir_all(dir).map_err(|e| fail(format!("cannot create {dir}: {e}")))?;
        for (i, (cloud, mapped)) in result.cut.clouds.iter().zip(&result.clouds).enumerate() {
            let source = write_blif(&cloud.network, &format!("cloud{i}"));
            for (suffix, text) in [("blif", &source), ("mapped.blif", &mapped.mapped)] {
                write_file(&format!("{dir}/cloud{i}.{suffix}"), text)?;
            }
        }
    }
    write_outputs(cli, &result.netlist, Vec::new)
}

/// The combinational path: one BLIF model through the flow.
fn run_combinational(blif: &str, cli: &Cli) -> Result<(), ExitCode> {
    let result = run_flow(blif, &cli.options).map_err(|e| fail(format!("chortle-map: {e}")))?;
    if cli.stats {
        eprintln!("network: {}", result.network_stats());
        eprintln!("mapped:  {}", result.lut_stats());
    }
    write_outputs(cli, &result.output_blif, || result.shape_histogram())
}

/// The tail both paths share: `--trace` to its file, `--report` to
/// stdout (a text report followed by `shapes`, the forest's shape
/// histogram), then the circuit to `-o FILE`, or to stdout when no
/// report owns it.
fn write_outputs(
    cli: &Cli,
    circuit: &str,
    shapes: impl FnOnce() -> Vec<(chortle_cli::Fingerprint, usize)>,
) -> Result<(), ExitCode> {
    let telemetry = &cli.options.map.telemetry;
    if let Some(path) = &cli.trace {
        write_file(path, &telemetry.trace_snapshot().to_chrome_json())?;
    }
    if let Some(format) = cli.report {
        let report = telemetry.snapshot();
        match format {
            ReportFormat::Json => println!("{}", report.to_json()),
            ReportFormat::Text => {
                print!("{}", report.to_text());
                print_shape_histogram(&shapes());
            }
        }
    }
    match &cli.output {
        Some(path) => write_file(path, circuit)?,
        None if cli.report.is_none() => print!("{circuit}"),
        None => {}
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("serve") {
        args.next();
        return chortle_server::run_daemon("chortle-map serve", args);
    }
    let cli = match parse_args(args) {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(CliError(msg)) => return fail(format!("chortle-map: {msg} (try --help)")),
    };

    let blif = match &cli.input {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => return fail(format!("cannot read {path}: {e}")),
        },
        None => {
            let mut s = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut s) {
                return fail(format!("cannot read stdin: {e}"));
            }
            s
        }
    };

    let run = if cli.design {
        run_design(&blif, &cli)
    } else {
        run_combinational(&blif, &cli)
    };
    run.err().unwrap_or(ExitCode::SUCCESS)
}
