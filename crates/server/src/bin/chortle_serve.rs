//! `chortle-serve` — the resident chortle mapping daemon, plus a small
//! built-in client (`--connect`) so shell scripts and CI can speak the
//! protocol without writing JSON by hand.
//!
//! Daemon mode (the default) binds localhost TCP, prints
//! `listening on ADDR` to stderr once bound, and prints the final
//! aggregate telemetry report to stdout after a graceful shutdown —
//! so `chortle-serve > report.json` composes with `report-check`.
//! With `--stdio` the protocol itself owns stdout, and the final report
//! goes to stderr instead.
//!
//! Client mode (`--connect HOST:PORT`) reads BLIF from file arguments
//! or stdin, sends one `map` request (or one `map_batch` frame with
//! `--batch`), and prints the mapped netlists to stdout —
//! byte-identical to `chortle-map` with the same flags. Admin requests:
//! `--hello`, `--flush`, `--stats`, `--trace`, `--shutdown`. The wire
//! version defaults to v2; `--proto v1` pins the frozen v1 shapes.
//! Exit code 1 on any `rejected` response.

use std::io::Read;
use std::process::ExitCode;

use chortle_server::{
    print_serve_help, run_daemon, BatchReply, Client, FlushReply, HelloReply, MapReply, MapRequest,
    MetricsReply, ProtocolVersion, Rejection, ShutdownReply, StatsReply, TraceReply, MAX_PRIORITY,
};
use chortle_telemetry::log::{self, FieldValue, Level};

/// Installs a process-level panic hook that emits a structured log
/// event (with the crash-context ring flushed to stderr) before the
/// default hook prints its message — so an operator tailing the JSONL
/// log sees *what the daemon was doing* when a thread died, not just
/// the panic line. A no-op while logging is off. A panic inside a
/// request is contained at the request boundary (the worker answers
/// `internal` and keeps serving); this hook observes it on the way
/// through.
fn install_panic_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if log::enabled(Level::Error) {
            let payload = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            let location = info
                .location()
                .map_or_else(|| "unknown".to_owned(), ToString::to_string);
            log::event(
                Level::Error,
                "serve.panic",
                "thread panicked",
                &[
                    ("payload", FieldValue::Str(payload)),
                    ("location", FieldValue::Str(&location)),
                    (
                        "ring_depth",
                        FieldValue::U64(log::ring_snapshot().len() as u64),
                    ),
                ],
            );
        }
        default_hook(info);
    }));
}

fn main() -> ExitCode {
    install_panic_hook();
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("--version" | "-V") => {
            println!("chortle-serve {}", env!("CARGO_PKG_VERSION"));
            ExitCode::SUCCESS
        }
        Some("--connect") => {
            args.next();
            client_main(args)
        }
        Some("--help" | "-h") => {
            print_serve_help("chortle-serve");
            print_client_help();
            ExitCode::SUCCESS
        }
        _ => run_daemon("chortle-serve", args),
    }
}

/// What client mode should do once connected.
enum ClientOp {
    Map(Box<MapRequest>, Vec<String>, bool),
    Hello,
    Flush,
    Stats,
    Metrics,
    Trace,
    Shutdown,
}

struct ClientArgs {
    addr: String,
    id: String,
    version: ProtocolVersion,
    op: ClientOp,
}

fn print_client_help() {
    println!();
    println!("Client mode: chortle-serve --connect HOST:PORT [OPTIONS] [INPUT.blif...]");
    println!();
    println!("Sends one request to a running daemon. BLIF is read from INPUT.blif");
    println!("or stdin; the mapped netlist goes to stdout. With --batch, every");
    println!("INPUT.blif becomes one entry of a single op:\"map_batch\" frame and");
    println!("the netlists print in order. Exit code 1 on any rejected response.");
    println!();
    println!("Client options:");
    println!("  -k N                LUT input count (default 4)");
    println!("  --jobs N            accepted and ignored; each request maps on one daemon worker");
    println!("  --cache MODE        DP cache: shared (default), fn, tree, or off");
    println!("  --objective GOAL    area (default) or depth");
    println!("  --no-optimize       skip the MIS-style optimization script");
    println!(
        "  --design            map a sequential design (.latch/.subckt) via op:\"map_design\""
    );
    println!("  --deadline-ms N     per-request deadline in milliseconds");
    println!("  --priority N        admission priority 0-9, higher first (v2; default 0)");
    println!("  --proto VERSION     wire protocol: v2 (default) or v1");
    println!("  --id ID             correlation id echoed in the response");
    println!("  --trace-id ID       end-to-end trace id echoed through response,");
    println!("                      op:\"trace\" ring, and server logs (v2)");
    println!("  --batch             send all inputs as one op:\"map_batch\" frame (v2)");
    println!("  --hello             print the server's versions and limits instead");
    println!("  --flush             discard the server's warm cache instead of mapping");
    println!("  --stats             print the server's aggregate report instead of mapping");
    println!("  --metrics           print the server's sliding-window metrics (v2)");
    println!("  --trace             print the server's recent-request trace ring instead");
    println!("  --shutdown          ask the server to drain and exit instead of mapping");
}

fn parse_client_args(
    addr: Option<String>,
    args: impl Iterator<Item = String>,
) -> Result<Option<ClientArgs>, String> {
    let Some(addr) = addr else {
        return Err("--connect requires a value HOST:PORT".into());
    };
    let mut req = MapRequest {
        jobs: 1,
        ..MapRequest::default()
    };
    let mut id = String::new();
    let mut version = ProtocolVersion::V2;
    let mut inputs = Vec::new();
    let mut batch = false;
    let mut admin = None;
    let mut args = args;
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "-k" => req.k = parse_number(&value("-k")?, "-k")?,
            "--jobs" => req.jobs = parse_number(&value("--jobs")?, "--jobs")?,
            "--cache" => {
                req.cache = match value("--cache")?.as_str() {
                    "off" => chortle::CacheMode::Off,
                    "tree" => chortle::CacheMode::Tree,
                    "shared" => chortle::CacheMode::Shared,
                    "fn" => chortle::CacheMode::Fn,
                    other => {
                        return Err(format!(
                        "invalid value for --cache: {other:?} (expected off, tree, shared or fn)"
                    ))
                    }
                }
            }
            "--objective" => {
                req.objective = match value("--objective")?.as_str() {
                    "area" => chortle::Objective::Area,
                    "depth" => chortle::Objective::Depth,
                    other => {
                        return Err(format!(
                            "invalid value for --objective: {other:?} (expected area or depth)"
                        ))
                    }
                }
            }
            "--no-optimize" => req.optimize = false,
            "--design" => req.design = true,
            "--deadline-ms" => {
                req.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|_| "invalid value for --deadline-ms".to_owned())?,
                )
            }
            "--priority" => {
                let n = parse_number(&value("--priority")?, "--priority")?;
                if n > usize::from(MAX_PRIORITY) {
                    return Err(format!(
                        "invalid value for --priority: {n} is above the maximum {MAX_PRIORITY}"
                    ));
                }
                req.priority = n as u8;
            }
            "--proto" => {
                version = match value("--proto")?.as_str() {
                    "v1" | "1" => ProtocolVersion::V1,
                    "v2" | "2" => ProtocolVersion::V2,
                    other => {
                        return Err(format!(
                            "invalid value for --proto: {other:?} (expected v1 or v2)"
                        ))
                    }
                }
            }
            "--id" => id = value("--id")?,
            "--trace-id" => req.trace_id = value("--trace-id")?,
            "--batch" => batch = true,
            "--hello" => admin = Some(ClientOp::Hello),
            "--flush" => admin = Some(ClientOp::Flush),
            "--stats" => admin = Some(ClientOp::Stats),
            "--metrics" => admin = Some(ClientOp::Metrics),
            "--trace" => admin = Some(ClientOp::Trace),
            "--shutdown" => admin = Some(ClientOp::Shutdown),
            "--help" | "-h" => {
                print_serve_help("chortle-serve");
                print_client_help();
                return Ok(None);
            }
            other if !other.starts_with('-') => inputs.push(other.to_owned()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !batch && inputs.len() > 1 {
        return Err(format!(
            "{} input files given without --batch; a plain map takes at most one",
            inputs.len()
        ));
    }
    if req.design && batch {
        return Err("--design cannot ride in a --batch frame; batch entries are plain maps".into());
    }
    if req.design && version == ProtocolVersion::V1 {
        return Err("--design requires protocol v2 (drop --proto v1)".into());
    }
    let op = admin.unwrap_or(ClientOp::Map(Box::new(req), inputs, batch));
    Ok(Some(ClientArgs {
        addr,
        id,
        version,
        op,
    }))
}

fn parse_number(value: &str, flag: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value for {flag}: {value:?} is not an integer"))
}

/// The reply enums are `#[non_exhaustive]`; a variant this binary does
/// not know about means it is older than the library it links.
fn unexpected_reply() -> ExitCode {
    eprintln!("chortle-serve: server sent a reply this client does not understand");
    ExitCode::FAILURE
}

fn report_rejection(rejection: &Rejection) -> ExitCode {
    match rejection.retry_after_ms {
        Some(ms) => eprintln!(
            "chortle-serve: rejected ({}): {} (retry after {ms}ms)",
            rejection.reason, rejection.detail
        ),
        None => eprintln!(
            "chortle-serve: rejected ({}): {}",
            rejection.reason, rejection.detail
        ),
    }
    ExitCode::FAILURE
}

fn client_main(mut args: impl Iterator<Item = String>) -> ExitCode {
    let addr = args.next();
    let parsed = match parse_client_args(addr, args) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("chortle-serve: {msg} (try --help)");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect_versioned(&parsed.addr, parsed.version) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("chortle-serve: cannot connect to {}: {e}", parsed.addr);
            return ExitCode::FAILURE;
        }
    };
    let outcome = match parsed.op {
        ClientOp::Map(req, inputs, batch) => {
            return map_main(&mut client, &parsed.id, *req, &inputs, batch)
        }
        ClientOp::Hello => client.hello(&parsed.id).map(|reply| match reply {
            HelloReply::Hello {
                versions,
                quota,
                queue_depth,
                batch_limit,
                max_frame_bytes,
            } => {
                eprintln!(
                    "server speaks {}; quota {quota}, queue {queue_depth}, batch limit \
                     {batch_limit}, max frame {max_frame_bytes} bytes",
                    versions.join(", ")
                );
                ExitCode::SUCCESS
            }
            HelloReply::Rejected(r) => report_rejection(&r),
            _ => unexpected_reply(),
        }),
        ClientOp::Flush => client.flush(&parsed.id).map(|reply| match reply {
            FlushReply::Flushed { cache_generation } => {
                eprintln!("cache flushed; generation {cache_generation}");
                ExitCode::SUCCESS
            }
            FlushReply::Rejected(r) => report_rejection(&r),
            _ => unexpected_reply(),
        }),
        ClientOp::Stats => client.stats(&parsed.id).map(|reply| match reply {
            StatsReply::Stats {
                report_json,
                uptime_s,
                queue_depth,
                queue_high_water,
                warm,
                ..
            } => {
                eprintln!(
                    "uptime {uptime_s}s, queue depth {queue_depth} (high water {queue_high_water})"
                );
                eprintln!(
                    "warm cache: {} shapes ({:.1}% hit), {} fn classes ({:.1}% hit)",
                    warm.shapes,
                    warm.hit_rate() * 100.0,
                    warm.fn_entries,
                    warm.fn_hit_rate() * 100.0
                );
                println!("{report_json}");
                ExitCode::SUCCESS
            }
            StatsReply::Rejected(r) => report_rejection(&r),
            _ => unexpected_reply(),
        }),
        ClientOp::Metrics => client.metrics(&parsed.id).map(|reply| match reply {
            MetricsReply::Metrics(m) => {
                eprintln!(
                    "window {}s ({} observed): {:.2} qps, shed {:.1}%, \
                     cache hit {:.1}% / fn {:.1}%",
                    m.window_s,
                    m.seconds,
                    m.qps,
                    m.shed_rate * 100.0,
                    m.cache_hit_rate * 100.0,
                    m.fn_cache_hit_rate * 100.0
                );
                eprintln!(
                    "latency p50 {}ns p95 {}ns p99 {}ns; window {}/{}/{} \
                     accepted/completed/shed (cumulative {}/{}/{})",
                    m.p50_ns,
                    m.p95_ns,
                    m.p99_ns,
                    m.window_accepted,
                    m.window_completed,
                    m.window_shed,
                    m.cumulative_accepted,
                    m.cumulative_completed,
                    m.cumulative_shed
                );
                ExitCode::SUCCESS
            }
            MetricsReply::Rejected(r) => report_rejection(&r),
            _ => unexpected_reply(),
        }),
        ClientOp::Trace => client.trace(&parsed.id).map(|reply| match reply {
            TraceReply::Trace { capacity, requests } => {
                eprintln!("{} of {capacity} remembered requests", requests.len());
                for r in requests {
                    let trace = if r.trace_id.is_empty() {
                        String::new()
                    } else {
                        format!("\ttrace {}", r.trace_id)
                    };
                    println!(
                        "{}\t{}\tqueue {}ns\trun {}ns\t{} LUTs depth {}{trace}",
                        r.id, r.outcome, r.queue_ns, r.run_ns, r.luts, r.depth
                    );
                }
                ExitCode::SUCCESS
            }
            TraceReply::Rejected(r) => report_rejection(&r),
            _ => unexpected_reply(),
        }),
        ClientOp::Shutdown => client.shutdown(&parsed.id).map(|reply| match reply {
            ShutdownReply::Draining => {
                eprintln!("server is draining and will exit");
                ExitCode::SUCCESS
            }
            ShutdownReply::Rejected(r) => report_rejection(&r),
            _ => unexpected_reply(),
        }),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("chortle-serve: request failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn map_main(
    client: &mut Client,
    id: &str,
    template: MapRequest,
    inputs: &[String],
    batch: bool,
) -> ExitCode {
    if batch {
        let mut requests = Vec::new();
        for input in inputs {
            match read_input(Some(input)) {
                Ok(blif) => {
                    let mut req = template.clone();
                    req.blif = blif;
                    requests.push(req);
                }
                Err(msg) => {
                    eprintln!("chortle-serve: {msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if requests.is_empty() {
            // --batch with no file arguments: one entry from stdin.
            match read_input(None) {
                Ok(blif) => {
                    let mut req = template;
                    req.blif = blif;
                    requests.push(req);
                }
                Err(msg) => {
                    eprintln!("chortle-serve: {msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let reply = match client.map_batch(id, &requests) {
            Ok(reply) => reply,
            Err(e) => {
                eprintln!("chortle-serve: request failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        match reply {
            BatchReply::Results(results) => {
                let mut code = ExitCode::SUCCESS;
                for (i, result) in results.iter().enumerate() {
                    match result {
                        MapReply::Mapped(m) => {
                            eprintln!(
                                "mapped [{i}]: {} LUTs, depth {} (cache generation {})",
                                m.luts, m.depth, m.cache_generation
                            );
                            print!("{}", m.netlist);
                        }
                        MapReply::Rejected(r) => {
                            eprintln!(
                                "chortle-serve: entry {i} rejected ({}): {}",
                                r.reason, r.detail
                            );
                            code = ExitCode::FAILURE;
                        }
                        _ => code = unexpected_reply(),
                    }
                }
                code
            }
            BatchReply::Rejected(r) => report_rejection(&r),
            _ => unexpected_reply(),
        }
    } else {
        let mut req = template;
        req.blif = match read_input(inputs.first().map(String::as_str)) {
            Ok(blif) => blif,
            Err(msg) => {
                eprintln!("chortle-serve: {msg}");
                return ExitCode::FAILURE;
            }
        };
        match client.map(id, &req) {
            Ok(MapReply::Mapped(m)) => {
                eprintln!(
                    "mapped: {} LUTs, depth {} (cache generation {})",
                    m.luts, m.depth, m.cache_generation
                );
                print!("{}", m.netlist);
                ExitCode::SUCCESS
            }
            Ok(MapReply::Rejected(r)) => report_rejection(&r),
            Ok(_) => unexpected_reply(),
            Err(e) => {
                eprintln!("chortle-serve: request failed: {e}");
                ExitCode::FAILURE
            }
        }
    }
}

fn read_input(path: Option<&str>) -> Result<String, String> {
    match path {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}")),
        None => {
            let mut s = String::new();
            std::io::stdin()
                .read_to_string(&mut s)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            Ok(s)
        }
    }
}
