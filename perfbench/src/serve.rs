//! `serve_mixed`: mixed traffic against the in-process daemon.
//!
//! `chortle_server::Server` runs in this process on a loopback port; the
//! load generator speaks protocol v2 over one TCP connection at a time.
//! Requests are `map` frames (`optimize: false`, `cache: "fn"`) over a
//! warmed corpus, a seeded share of novel circuits that miss and publish
//! into the warm cache, and a fixed share of `map_design` frames. After
//! set-up the run measures [`CYCLES`] cycles, each against a freshly
//! started and warmed daemon, of three phases:
//!
//! 1. closed-loop passes over the warm corpus, one request at a time
//!    (`pass_s`, the sum of each request's fastest round trip, and
//!    `goodput_rps`, the requests answered within [`LATENCY_LIMIT_MS`]
//!    per second of `pass_s`);
//! 2. a nominal window, open loop at [`NOMINAL_RPS`] (`p50_ms`, `p99_ms`);
//! 3. an overload window, open loop at [`OVERLOAD_RPS`]
//!    (`serve.overload_goodput_rps` and the shed and queue layers).
//!
//! `p50_ms` and `p99_ms` are the run's best nominal window. Spreading
//! the phases over the run means no single slow stretch of a shared host
//! covers a whole phase. The overload goodput is a per-layer metric, not
//! an end-to-end one: it needs both cores of a 2-core host at once, and
//! with other tenants on the host the quartiles of ten runs of the same
//! code spread by 19% and 28% of their median, past any bound it could
//! be held to.
//!
//! The open-loop generator sends on schedule whether or not responses
//! have arrived (a second thread reads them), times each request from
//! its due time, and reports how late it sent.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use chortle::{map_design, map_network, CacheMode, DesignOptions, MapOptions};
use chortle_bench::pipelined_design;
use chortle_circuits::{random_logic, suite};
use chortle_logic_opt::optimize;
use chortle_netlist::{parse_blif, parse_design, write_blif, write_lut_blif, SplitMix64};
use chortle_server::{
    parse_response, proto, Client, MapReply, MapRequest, ProtocolVersion, Response, ServeOptions,
    Server, ServerSummary, StatsReply, TraceReply,
};
use chortle_telemetry::{json, Histogram};

use crate::common::{
    closed_loop, min_of, repeated_setup, secs, sub_seeds, write_trace, SETUP_REPEATS,
};
use crate::layers::report_overhead;
use crate::stats::{
    lateness_ns, median, percentile, samples_needed, schedule_ns, Percentile, Ratio,
};
use crate::trace::{Span, Tracer};
use crate::{Args, Outcome};

/// Offered rate of the nominal phase: about a third of the daemon's
/// capacity on this workload on a 2-core host when other tenants slow it
/// down (≈900 req/s), a quarter when they do not (≈1200 req/s). Kept
/// this low so a slow stretch of the host does not push the queue
/// toward saturation.
pub const NOMINAL_RPS: f64 = 300.0;
/// Offered rate of the overload phase, about 1.5× the unhindered
/// capacity.
pub const OVERLOAD_RPS: f64 = 2000.0;
/// A request answered later than this misses the limit and does not
/// count toward goodput: from its due time in the overload window, from
/// its send in a closed-loop pass. It is above the wait of a full
/// admission queue, so overload goodput counts what the daemon
/// completes unless latency degrades past that.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// Every this many open-loop requests, one carries a novel circuit (10%).
const NOVEL_EVERY: usize = 10;
/// Every this many open-loop requests, one is a `map_design` frame (5%).
/// Designs are the slowest requests and set the nominal p99, so their
/// count per window is fixed rather than drawn from the seed.
const DESIGN_EVERY: usize = 20;
/// Measured cycles per run; each runs the three phases in turn.
const CYCLES: usize = 4;
/// Shares of `--seconds` spent in the three phases, summed over cycles.
const PASS_SHARE: f64 = 0.2;
const NOMINAL_SHARE: f64 = 0.68;
const OVERLOAD_SHARE: f64 = 0.12;
/// How long the generator waits for a missing response.
const READ_TIMEOUT: Duration = Duration::from_secs(20);
/// The daemon's admission queue (its default capacity). The per-client
/// quota is set to the same value: the generator's one connection
/// carries the traffic of many users, so only the global capacity
/// should shed.
const QUEUE_DEPTH: usize = 64;
/// The two register pipelines `map_design` frames carry: (stages, width).
const DESIGNS: [(usize, usize); 2] = [(3, 20), (4, 28)];

/// A request's wire form and the netlist it must come back with.
#[derive(Clone)]
struct Entry {
    name: String,
    request: MapRequest,
}

/// The corpus: the warm set (paper circuits at K = 4 and 5 plus seeded
/// draws, all pre-optimized) and the [`DESIGNS`] for `map_design`.
struct Corpus {
    warm: Vec<Entry>,
    designs: Vec<Entry>,
}

fn request(blif: String, k: usize, design: bool) -> MapRequest {
    MapRequest {
        blif,
        k,
        jobs: 1,
        cache: CacheMode::Fn,
        optimize: false,
        design,
        ..MapRequest::default()
    }
}

fn corpus(seed: u64) -> Corpus {
    let s = sub_seeds(seed, 4);
    let mut warm = Vec::new();
    for b in suite() {
        let (net, _) = optimize(&b.network).expect("suite circuits are acyclic");
        let blif = write_blif(&net, b.name);
        for k in [4, 5] {
            warm.push(Entry {
                name: format!("{}@K{k}", b.name),
                request: request(blif.clone(), k, false),
            });
        }
    }
    for (i, &seed) in s.iter().enumerate() {
        let (net, _) = optimize(&random_logic(seed, 60, 240, 30, 4)).expect("acyclic");
        warm.push(Entry {
            name: format!("draw{i}@K4"),
            request: request(write_blif(&net, "draw"), 4, false),
        });
    }
    let designs = DESIGNS
        .iter()
        .map(|&(stages, width)| Entry {
            name: format!("pipe{stages}x{width}"),
            request: request(pipelined_design("pipe", stages, width), 4, true),
        })
        .collect();
    Corpus { warm, designs }
}

/// A novel circuit: small seeded random logic no other request shares.
fn novel(seed: u64) -> Entry {
    Entry {
        name: format!("novel{seed:x}"),
        request: request(
            write_blif(&random_logic(seed, 16, 40, 6, 4), "novel"),
            4,
            false,
        ),
    }
}

/// What `chortle-map` produces offline for the same request.
fn offline(req: &MapRequest) -> Result<(String, usize, usize), String> {
    let opts = MapOptions::builder(req.k)
        .cache(req.cache)
        .build()
        .map_err(|e| e.to_string())?;
    if req.design {
        let (design, _) = parse_design(&req.blif).map_err(|e| e.to_string())?;
        let mut dopts = DesignOptions::new(opts);
        dopts.verify = false;
        let m = map_design(&design, &dopts).map_err(|e| e.to_string())?;
        Ok((m.netlist, m.luts, m.depth))
    } else {
        let net = parse_blif(&req.blif).map_err(|e| e.to_string())?;
        let m = map_network(&net, &opts).map_err(|e| e.to_string())?;
        Ok((
            write_lut_blif(&net, &m.circuit, "mapped"),
            m.circuit.num_luts(),
            m.circuit.depth(),
        ))
    }
}

/// A running daemon and the thread serving it.
struct Daemon {
    addr: String,
    thread: std::thread::JoinHandle<ServerSummary>,
}

impl Daemon {
    fn start() -> Daemon {
        let server = Server::bind(
            &ServeOptions::builder()
                .workers(0)
                .queue_depth(QUEUE_DEPTH)
                .client_quota(QUEUE_DEPTH)
                .trace_capacity(8192)
                .build(),
        )
        .expect("bind a loopback port");
        let addr = server.local_addr().expect("bound address").to_string();
        let thread = std::thread::spawn(move || server.run());
        Daemon { addr, thread }
    }

    fn stop(self) {
        match Client::connect(&self.addr).and_then(|mut c| c.shutdown("perfbench-stop")) {
            Ok(_) => {}
            Err(e) => eprintln!("perfbench: shutdown request failed: {e}"),
        }
        if self.thread.join().is_err() {
            eprintln!("perfbench: server thread panicked");
        }
    }
}

/// Sends every entry once, one at a time, and checks each answer;
/// `on_reply` sees each correct answer with its entry index and its
/// start and end time. Returns (attempted, failed).
fn pass(
    client: &mut Client,
    entries: &[Entry],
    expected: &[Result<(String, usize, usize), String>],
    tag: &str,
    mut on_reply: impl FnMut(usize, Instant, Instant, &chortle_server::Mapped),
) -> (u64, u64) {
    let mut failed = 0;
    for (i, e) in entries.iter().enumerate() {
        let id = format!("{tag}{i}");
        let start = Instant::now();
        let reply = if e.request.design {
            client.map_design(&id, &e.request)
        } else {
            client.map(&id, &e.request)
        };
        let end = Instant::now();
        match (reply, &expected[i]) {
            (Ok(MapReply::Mapped(m)), Ok((netlist, _, _))) if m.netlist == *netlist => {
                on_reply(i, start, end, &m);
            }
            (reply, _) => {
                failed += 1;
                eprintln!("perfbench: {} ({id}) failed or differs: {reply:?}", e.name);
            }
        }
    }
    (entries.len() as u64, failed)
}

/// Outcome of one open-loop request.
#[derive(Clone, Debug, PartialEq)]
enum Answer {
    /// Mapped and byte-identical to the offline reference.
    Ok { run_ns: u64 },
    /// Mapped but different from the reference.
    Wrong,
    /// Shed by admission (`queue_full` or `over_quota`).
    Shed,
    /// Any other rejection, or no answer.
    Failed(String),
}

/// One open-loop request's timeline, in ns since the phase origin.
#[derive(Clone, Debug)]
struct Timeline {
    due_ns: u64,
    sent_ns: u64,
    done_ns: Option<u64>,
    answer: Answer,
}

/// Sends one request per slot at `rate` per second over one connection,
/// on schedule, while a second thread reads and checks the answers.
/// Request `i` is `templates[slots[i]]` with id `o{first_id + i}`; an
/// infinite rate sends every request at once.
fn open_loop(
    addr: &str,
    templates: &[Template],
    slots: &[usize],
    rate: f64,
    first_id: usize,
) -> Vec<Timeline> {
    let due = schedule_ns(slots.len(), rate);
    let mut timeline: Vec<Timeline> = due
        .iter()
        .map(|&d| Timeline {
            due_ns: d,
            sent_ns: d,
            done_ns: None,
            answer: Answer::Failed("no answer".into()),
        })
        .collect();
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            for t in &mut timeline {
                t.answer = Answer::Failed(format!("connect: {e}"));
            }
            return timeline;
        }
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let reader = stream.try_clone().expect("clone the socket for reading");
    let mut writer = stream;
    let origin = Instant::now() + Duration::from_millis(2);
    let n = slots.len();
    // The daemon answers every frame with exactly one line. The reader
    // only stamps and keeps each line; parsing and checking wait until
    // the run is over, so they neither delay the stamps nor take CPU
    // from the daemon while it is measured.
    let lines: Vec<(u64, String)> = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut reader = BufReader::new(reader);
            let mut got = Vec::with_capacity(n);
            while got.len() < n {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => got.push((ns_since(origin), line)),
                }
            }
            got
        });
        let mut frame = Vec::new();
        for (i, &slot) in slots.iter().enumerate() {
            let t = &templates[slot];
            frame.clear();
            frame.extend_from_slice(t.head.as_bytes());
            frame.extend_from_slice(format!("o{}", first_id + i).as_bytes());
            frame.extend_from_slice(t.tail.as_bytes());
            let due_at = origin + Duration::from_nanos(due[i]);
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            timeline[i].sent_ns = ns_since(origin);
            if let Err(e) = writer.write_all(&frame) {
                eprintln!("perfbench: send failed: {e}");
                break;
            }
        }
        receiver.join().expect("receiver thread")
    });
    for (at, line) in lines {
        let (index, answer) = match parse_response(line.trim_end()) {
            Ok(Response::MapOk {
                id,
                netlist,
                run_ns,
                ..
            }) => {
                let i = index_of(&id, first_id, n);
                let ok = i.is_some_and(|i| netlist == templates[slots[i]].expected);
                (
                    i,
                    if ok {
                        Answer::Ok { run_ns }
                    } else {
                        Answer::Wrong
                    },
                )
            }
            Ok(Response::Rejected { id, rejection }) => {
                let shed = matches!(rejection.reason.as_str(), "queue_full" | "over_quota");
                let answer = if shed {
                    Answer::Shed
                } else {
                    Answer::Failed(rejection.reason)
                };
                (index_of(&id, first_id, n), answer)
            }
            Ok(other) => (None, Answer::Failed(format!("unexpected {other:?}"))),
            Err(e) => (None, Answer::Failed(e)),
        };
        match index {
            Some(i) => {
                timeline[i].done_ns = Some(at);
                timeline[i].answer = answer;
            }
            None => eprintln!("perfbench: unmatched response: {answer:?}"),
        }
    }
    timeline
}

fn ns_since(origin: Instant) -> u64 {
    u64::try_from(Instant::now().saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

/// Frame ids are `o{number}`; the number of the run's request `i` is
/// `first_id + i`. Returns `i` for an id of a run of `n` requests.
fn index_of(id: &str, first_id: usize, n: usize) -> Option<usize> {
    let number: usize = id.strip_prefix('o')?.parse().ok()?;
    number.checked_sub(first_id).filter(|&i| i < n)
}

/// The request mix of one open-loop phase: every [`DESIGN_EVERY`]th
/// request a design, taking the designs in turn; every [`NOVEL_EVERY`]th
/// a novel circuit drawn from the seed; the others warm-corpus repeats
/// in a seeded order that visits the whole corpus before it repeats.
/// Every stretch of a few hundred requests thus carries the same mix,
/// so the throughput of one stretch compares with that of another.
fn mix(rng: &mut SplitMix64, n: usize, corpus: &Corpus) -> Vec<Kind> {
    let mut order: Vec<usize> = (0..corpus.warm.len()).collect();
    rng.shuffle(&mut order);
    let mut warm = order.iter().copied().cycle();
    (0..n)
        .map(|i| {
            if i % DESIGN_EVERY == DESIGN_EVERY / 2 {
                Kind::Design(i / DESIGN_EVERY % corpus.designs.len())
            } else if i % NOVEL_EVERY == NOVEL_EVERY / 2 {
                Kind::Novel(rng.next_u64())
            } else {
                Kind::Warm(warm.next().expect("the warm corpus is not empty"))
            }
        })
        .collect()
}

#[derive(Clone, Copy)]
enum Kind {
    Warm(usize),
    Design(usize),
    Novel(u64),
}

/// A request rendered once around a placeholder id, and the netlist it
/// must come back with. Sending splices the request's id in, so the
/// generator keeps one copy of each distinct request, not one per send.
struct Template {
    head: String,
    tail: String,
    expected: String,
}

const ID_MARK: &str = "@ID@";

fn template(req: &MapRequest, expected: Result<(String, usize, usize), String>) -> Template {
    let mut frame = proto::render_map_request(ProtocolVersion::V2, ID_MARK, req);
    frame.push('\n');
    let at = frame.find(ID_MARK).expect("the id is rendered verbatim");
    Template {
        tail: frame[at + ID_MARK.len()..].to_owned(),
        head: frame[..at].to_owned(),
        expected: expected.map(|r| r.0).unwrap_or_default(),
    }
}

/// The open-loop traffic: the distinct requests, and which one each
/// send of the two phases uses.
struct Traffic {
    templates: Vec<Template>,
    nominal: Vec<usize>,
    overload: Vec<usize>,
}

fn traffic(
    corpus: &Corpus,
    references: &[Result<(String, usize, usize), String>],
    nominal: &[Kind],
    overload: &[Kind],
) -> Traffic {
    let mut templates: Vec<Template> = corpus
        .warm
        .iter()
        .chain(&corpus.designs)
        .zip(references)
        .map(|(e, r)| template(&e.request, r.clone()))
        .collect();
    let mut slots = |kinds: &[Kind]| -> Vec<usize> {
        kinds
            .iter()
            .map(|kind| match *kind {
                Kind::Warm(w) => w,
                Kind::Design(d) => corpus.warm.len() + d,
                Kind::Novel(seed) => {
                    let e = novel(seed);
                    templates.push(template(&e.request, offline(&e.request)));
                    templates.len() - 1
                }
            })
            .collect()
    };
    let nominal = slots(nominal);
    let overload = slots(overload);
    Traffic {
        templates,
        nominal,
        overload,
    }
}

/// Live counters from `op: "stats"`.
struct Snapshot {
    warm: chortle::WarmStats,
    queue: Histogram,
}

fn snapshot(addr: &str) -> Option<Snapshot> {
    let mut client = Client::connect(addr).ok()?;
    match client.stats("perfbench-stats").ok()? {
        StatsReply::Stats {
            warm, report_json, ..
        } => {
            let report = json::parse(&report_json).ok()?;
            let queue = report
                .get("histograms")
                .and_then(json::Value::as_array)?
                .iter()
                .find(|h| h.get("name").and_then(json::Value::as_str) == Some("serve.queue_ns"))
                .and_then(|h| Histogram::from_value(h).ok())
                .unwrap_or_default();
            Some(Snapshot { warm, queue })
        }
        _ => None,
    }
}

/// Server-side (queue, run) nanoseconds per open-loop request, from the
/// daemon's `op: "trace"` ring.
fn ring(addr: &str) -> HashMap<usize, (u64, u64)> {
    let Ok(mut client) = Client::connect(addr) else {
        return HashMap::new();
    };
    match client.trace("perfbench-trace") {
        Ok(TraceReply::Trace { requests, .. }) => requests
            .iter()
            .filter_map(|r| Some((index_of(&r.id, 0, usize::MAX)?, (r.queue_ns, r.run_ns))))
            .collect(),
        _ => HashMap::new(),
    }
}

/// Sums one stage's seconds out of a per-request telemetry report.
fn stage_seconds(report_json: &str, stage: &str) -> f64 {
    json::parse(report_json)
        .ok()
        .and_then(|r| {
            r.get("stages")?
                .as_array()?
                .iter()
                .find(|s| s.get("name").and_then(json::Value::as_str) == Some(stage))?
                .get("seconds")?
                .as_f64()
        })
        .unwrap_or(0.0)
}

fn ms(ns: u64) -> f64 {
    secs(ns) * 1e3
}

#[allow(clippy::too_many_lines)]
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let count = |rate: f64, share: f64| ((rate * args.seconds * share).round() as usize).max(1);
    // Set-up: generate the corpus and the open-loop traffic, compute
    // every offline reference, start the daemon and warm it with one
    // pass over the corpus.
    let mut last: Option<Daemon> = None;
    let ((pass_entries, pass_ref, traffic), setup_s) = repeated_setup(SETUP_REPEATS, || {
        if let Some(d) = last.take() {
            d.stop();
        }
        let corpus = corpus(args.seed);
        let pass_entries: Vec<Entry> = corpus.warm.iter().chain(&corpus.designs).cloned().collect();
        let pass_ref: Vec<_> = pass_entries.iter().map(|e| offline(&e.request)).collect();
        let mut rng = SplitMix64::new(args.seed ^ 0x0BE4_10AD);
        let nominal = mix(&mut rng, count(NOMINAL_RPS, NOMINAL_SHARE), &corpus);
        let overload = mix(&mut rng, count(OVERLOAD_RPS, OVERLOAD_SHARE), &corpus);
        let traffic = traffic(&corpus, &pass_ref, &nominal, &overload);
        let daemon = Daemon::start();
        warm_up(&daemon.addr, &pass_entries);
        last = Some(daemon);
        (pass_entries, pass_ref, traffic)
    });
    let daemon = last.take().expect("set-up started a daemon");
    for (e, r) in pass_entries.iter().zip(&pass_ref) {
        if let Err(err) = r {
            eprintln!("perfbench: offline reference {}: {err}", e.name);
        }
    }

    // The traced run first times the corpus one request at a time, with
    // and without a span around each request: each request's span and
    // telemetry stand alone, and the ratio is the tracing overhead.
    let tracer = Tracer::new();
    if args.trace {
        let Ok(mut client) = Client::connect(&daemon.addr) else {
            eprintln!("perfbench: cannot connect to the daemon");
            daemon.stop();
            return out;
        };
        let seconds = args.seconds * PASS_SHARE / 2.0;
        let mut tag = 0usize;
        let untraced = closed_loop(seconds, 2, || {
            tag += 1;
            let (a, f) = pass(
                &mut client,
                &pass_entries,
                &pass_ref,
                &format!("p{tag}-"),
                |_, _, _, _| {},
            );
            out.attempted += a;
            out.failed += f;
        });
        let mut reports = Vec::new();
        let mut op = 0u64;
        let traced = closed_loop(seconds, 2, || {
            tag += 1;
            let (a, f) = pass(
                &mut client,
                &pass_entries,
                &pass_ref,
                &format!("t{tag}-"),
                |_, start, end, m| {
                    op += 1;
                    tracer.push(Span {
                        name: "serve.request",
                        op,
                        parent: None,
                        start_ns: tracer.offset_ns(start),
                        end_ns: tracer.offset_ns(end),
                    });
                    reports.push(m.report_json.clone());
                },
            );
            out.attempted += a;
            out.failed += f;
        });
        #[allow(clippy::cast_precision_loss)]
        let per_pass = |v: f64| v / traced.len() as f64;
        for (metric, stage) in [
            ("netlist.parse_s", "flow.parse"),
            ("map.map_network_s", "flow.map"),
            ("netlist.render_s", "flow.render"),
        ] {
            let total: f64 = reports.iter().map(|r| stage_seconds(r, stage)).sum();
            out.set(metric, per_pass(total));
        }
        let bytes: usize = pass_entries.iter().map(|e| e.request.blif.len()).sum();
        #[allow(clippy::cast_precision_loss)]
        let rate = Ratio {
            num: bytes as f64 / 1e6,
            den: out.metrics["netlist.parse_s"],
        };
        #[allow(clippy::cast_precision_loss)]
        out.set("netlist.parse_bytes", bytes as f64);
        out.set("netlist.parse_mb_per_s", rate.or_zero());
        // Client-side request time only, so the report bookkeeping
        // between requests does not count as tracing overhead.
        let request_ns = tracer
            .layers()
            .get("serve.request")
            .map_or(0, |l| l.total_ns);
        report_overhead(
            &mut out,
            per_pass(secs(request_ns)),
            median(&untraced).unwrap_or(0.0),
        );
    }

    daemon.stop();
    let w = cycles(args, &traffic, &pass_entries, &pass_ref, &mut out);

    if args.trace {
        let pct = |v: &[f64], q| percentile(v, q).map_or(0.0, |p| p.value);
        out.set("serve.run_p50_ms", pct(&w.run_ms, 0.5));
        out.set("serve.run_p99_ms", pct(&w.run_ms, 0.99));
        #[allow(clippy::cast_precision_loss)]
        {
            out.set("serve.samples", w.run_ms.len() as f64);
            out.set("serve.shed", w.shed as f64);
            out.set("serve.overload_sent", w.overload_sent as f64);
            out.set("loadgen.sent", w.lag_ms.len() as f64);
        }
        out.set(
            "serve.overload_goodput_rps",
            w.goodput.iter().copied().fold(0.0, f64::max),
        );
        out.note(format!(
            "serve.overload_goodput_rps: best of {:?} req/s answered within {LATENCY_LIMIT_MS} ms at {OVERLOAD_RPS} req/s; {} of {} shed",
            w.goodput.iter().map(|g| g.round()).collect::<Vec<_>>(),
            w.shed,
            w.overload_sent
        ));
        out.set("serve.wire_p50_ms", pct(&w.wire_ms, 0.5));
        out.set("loadgen.lag_p99_ms", pct(&w.lag_ms, 0.99));
        out.set("serve.queue_p50_ms", ms(w.queue.quantile(0.5)));
        out.set("serve.queue_p99_ms", ms(w.queue.quantile(0.99)));
        #[allow(clippy::cast_precision_loss)]
        let (hits, misses, fn_hits, fn_misses) = (
            w.cache.hits as f64,
            w.cache.misses as f64,
            w.cache.fn_hits as f64,
            w.cache.fn_misses as f64,
        );
        let structural = Ratio {
            num: hits,
            den: hits + misses,
        };
        let functional = Ratio {
            num: fn_hits,
            den: fn_hits + fn_misses,
        };
        out.set("cache.struct_hit_rate", structural.or_zero());
        out.set("cache.struct_lookups", structural.den);
        out.set("cache.fn_hit_rate", functional.or_zero());
        out.set("cache.fn_lookups", functional.den);
        out.note(format!(
            "cache: structural {hits} hits / {} lookups, fn {fn_hits} hits / {} lookups ({} of {CYCLES} cycles' op:\"stats\" deltas)",
            structural.den, functional.den, w.cache.cycles
        ));
        out.note(format!(
            "serve.run_p50/p99_ms over {} nominal answers; serve.wire_p50_ms over {} of them joined to the trace ring",
            w.run_ms.len(),
            w.wire_ms.len()
        ));
        write_trace(&tracer, &args.workload, args.seed);
        return out;
    }

    // Per nominal window, the latency percentiles; the run reports the
    // best window, as the closed-loop workloads report each op's best.
    let p50 = w
        .nominal_ms
        .iter()
        .filter_map(|l| percentile(l, 0.5))
        .map(|p| p.value);
    let p99: Vec<Percentile> = w
        .nominal_ms
        .iter()
        .filter_map(|l| percentile(l, 0.99))
        .collect();
    // Each corpus request's fastest round trip, as the closed-loop
    // workloads take each op's fastest run.
    let op_ms: Vec<f64> = w.pass_ms.iter().filter_map(|l| min_of(l)).collect();
    let pass_s = op_ms.iter().sum::<f64>() / 1e3;
    out.set("setup_s", setup_s);
    out.set("pass_s", pass_s);
    out.set("p50_ms", p50.fold(f64::INFINITY, f64::min));
    out.set(
        "p99_ms",
        min_of(&p99.iter().map(|p| p.value).collect::<Vec<_>>()).unwrap_or(0.0),
    );
    #[allow(clippy::cast_precision_loss)]
    let success = Ratio {
        num: (out.attempted - out.failed) as f64,
        den: out.attempted as f64,
    };
    out.set("success_rate", success.or_zero());
    // Corpus requests answered correctly within the limit, per second of
    // `pass_s`, as the closed-loop workloads count goodput.
    let within = op_ms.iter().filter(|&&m| m <= LATENCY_LIMIT_MS).count();
    #[allow(clippy::cast_precision_loss)]
    let goodput = Ratio {
        num: within as f64 * success.or_zero(),
        den: pass_s,
    };
    out.set("goodput_rps", goodput.or_zero());
    let luts: usize = pass_ref.iter().flatten().map(|r| r.1).sum();
    let depth: usize = pass_ref.iter().flatten().map(|r| r.2).sum();
    out.set("luts", luts as f64);
    out.set("lut_depth", depth as f64);
    out.note(format!(
        "pass_s: sum of the fastest of {} closed-loop round trips of each of {} requests",
        w.passes,
        op_ms.len()
    ));
    let lag_p99 = percentile(&w.lag_ms, 0.99).map_or(0.0, |p| p.value);
    out.note(format!(
        "nominal {NOMINAL_RPS} req/s: p50/p99 of the best of {} windows of {:?} answers ({:?} beyond p99, p99 {:.3?} ms); generator lag p99 {lag_p99:.3} ms",
        w.nominal_ms.len(),
        w.nominal_ms.iter().map(Vec::len).collect::<Vec<_>>(),
        p99.iter().map(|p| p.beyond).collect::<Vec<_>>(),
        p99.iter().map(|p| p.value).collect::<Vec<_>>()
    ));
    if !p99.iter().all(Percentile::is_supported) {
        out.note(format!(
            "a window's p99 has fewer than 10 samples beyond it: {} answers needed",
            samples_needed(0.99, 10)
        ));
    }
    out.note(format!(
        "success_rate = {} correct / {} attempted (pass, nominal and overload requests); goodput_rps = {within} requests within {LATENCY_LIMIT_MS} ms x {:.4} / {pass_s:.4} s",
        success.num,
        success.den,
        success.or_zero()
    ));
    out
}

/// What the measured cycles produced.
#[derive(Default)]
struct Windows {
    /// Closed-loop passes over the corpus, and each corpus request's
    /// correct round trips in them, ms.
    passes: usize,
    pass_ms: Vec<Vec<f64>>,
    /// Per nominal window, each correct answer's latency from its due
    /// time, ms.
    nominal_ms: Vec<Vec<f64>>,
    /// Per overload window, answers within the latency limit per second.
    goodput: Vec<f64>,
    /// Overload requests shed, and sent.
    shed: u64,
    overload_sent: u64,
    /// How late each open-loop request was sent, ms.
    lag_ms: Vec<f64>,
    /// Server run time of each correct nominal answer, ms.
    run_ms: Vec<f64>,
    /// Latency from send minus server queue and run time, ms, for the
    /// nominal answers found in the trace ring (traced run only).
    wire_ms: Vec<f64>,
    /// Admission-queue waits over the measured cycles.
    queue: Histogram,
    /// Warm-cache lookups over the measured cycles.
    cache: CacheTally,
}

/// Warm-cache hits and misses of each tier, summed over the cycles whose
/// daemon answered `op: "stats"` before and after its cycle.
#[derive(Default)]
struct CacheTally {
    hits: u64,
    misses: u64,
    fn_hits: u64,
    fn_misses: u64,
    /// Cycles counted.
    cycles: usize,
}

/// Warms a daemon's cache with one unchecked pass over the corpus.
fn warm_up(addr: &str, entries: &[Entry]) {
    let Ok(mut client) = Client::connect(addr) else {
        return;
    };
    for (i, e) in entries.iter().enumerate() {
        let id = format!("w{i}");
        let _ = if e.request.design {
            client.map_design(&id, &e.request)
        } else {
            client.map(&id, &e.request)
        };
    }
}

/// Runs [`CYCLES`] cycles of closed-loop passes over the warm corpus, a
/// nominal window and an overload window, so that every phase samples
/// the whole run rather than one stretch of it. Each cycle starts a
/// fresh daemon and warms it: how fast a daemon serves differs from one
/// start to the next, by up to a fifth, and holds for its lifetime, so
/// a run that used one daemon would measure that one draw. Every answer
/// is checked and counted in `out`.
fn cycles(
    args: &Args,
    traffic: &Traffic,
    pass_entries: &[Entry],
    pass_ref: &[Result<(String, usize, usize), String>],
    out: &mut Outcome,
) -> Windows {
    let mut w = Windows {
        pass_ms: vec![Vec::new(); pass_entries.len()],
        ..Windows::default()
    };
    let mut next_id = 0usize;
    let mut send = |addr: &str, slots: &[usize], rate: f64| {
        let run = open_loop(addr, &traffic.templates, slots, rate, next_id);
        let first = next_id;
        next_id += slots.len();
        (first, run)
    };
    let pass_seconds = args.seconds * PASS_SHARE / CYCLES as f64;
    let nominal = traffic
        .nominal
        .chunks(traffic.nominal.len().div_ceil(CYCLES));
    let overload = traffic
        .overload
        .chunks(traffic.overload.len().div_ceil(CYCLES));
    for (nominal, overload) in nominal.zip(overload) {
        let daemon = Daemon::start();
        let addr = daemon.addr.as_str();
        warm_up(addr, pass_entries);
        let before = snapshot(addr);
        let Ok(mut client) = Client::connect(addr) else {
            eprintln!("perfbench: cannot connect to the daemon");
            out.attempted += 1;
            out.failed += 1;
            daemon.stop();
            continue;
        };
        let start = Instant::now();
        let first_pass = w.passes;
        while w.passes == first_pass || start.elapsed().as_secs_f64() < pass_seconds {
            w.passes += 1;
            let pass_ms = &mut w.pass_ms;
            let (a, f) = pass(
                &mut client,
                pass_entries,
                pass_ref,
                &format!("c{}-", w.passes),
                |i, start, end, _| pass_ms[i].push(end.duration_since(start).as_secs_f64() * 1e3),
            );
            out.attempted += a;
            out.failed += f;
        }

        let (first, run) = send(addr, nominal, NOMINAL_RPS);
        let server_side = if args.trace {
            ring(addr)
        } else {
            HashMap::new()
        };
        w.lag_ms.extend(lag_ms(&run));
        let mut latency_ms = Vec::with_capacity(run.len());
        for (i, t) in run.iter().enumerate() {
            out.attempted += 1;
            match (&t.answer, t.done_ns) {
                (Answer::Ok { run_ns }, Some(done)) => {
                    latency_ms.push(ms(done.saturating_sub(t.due_ns)));
                    w.run_ms.push(ms(*run_ns));
                    if let Some(&(queue_ns, ring_run_ns)) = server_side.get(&(first + i)) {
                        let from_send = done.saturating_sub(t.sent_ns);
                        w.wire_ms
                            .push(ms(from_send.saturating_sub(queue_ns + ring_run_ns)));
                    }
                }
                (answer, _) => {
                    out.failed += 1;
                    eprintln!("perfbench: nominal request {}: {answer:?}", first + i);
                }
            }
        }
        w.nominal_ms.push(latency_ms);

        // Sheds are admission doing its job under overload and count
        // against goodput; wrong or failed answers count as failures.
        let (first, run) = send(addr, overload, OVERLOAD_RPS);
        w.lag_ms.extend(lag_ms(&run));
        let mut good = 0u64;
        for (i, t) in run.iter().enumerate() {
            out.attempted += 1;
            match (&t.answer, t.done_ns) {
                (Answer::Ok { .. }, Some(done)) => {
                    if ms(done.saturating_sub(t.due_ns)) <= LATENCY_LIMIT_MS {
                        good += 1;
                    }
                }
                (Answer::Shed, _) => w.shed += 1,
                (answer, _) => {
                    out.failed += 1;
                    eprintln!("perfbench: overload request {}: {answer:?}", first + i);
                }
            }
        }
        w.overload_sent += run.len() as u64;
        #[allow(clippy::cast_precision_loss)]
        w.goodput
            .push(good as f64 * OVERLOAD_RPS / run.len().max(1) as f64);

        if let (Some(b), Some(a)) = (before, snapshot(addr)) {
            w.queue.merge(&a.queue.diff(&b.queue));
            w.cache.hits += a.warm.hits - b.warm.hits;
            w.cache.misses += a.warm.misses - b.warm.misses;
            w.cache.fn_hits += a.warm.fn_hits - b.warm.fn_hits;
            w.cache.fn_misses += a.warm.fn_misses - b.warm.fn_misses;
            w.cache.cycles += 1;
        }
        drop(client);
        daemon.stop();
    }
    w
}

/// How late each request of an open-loop run was sent, ms.
fn lag_ms(run: &[Timeline]) -> Vec<f64> {
    let due: Vec<u64> = run.iter().map(|t| t.due_ns).collect();
    let sent: Vec<u64> = run.iter().map(|t| t.sent_ns).collect();
    lateness_ns(&due, &sent).into_iter().map(ms).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_map_back_to_their_run() {
        assert_eq!(index_of("o1042", 1000, 50), Some(42));
        // Another run's id, or one past this run's end, is not ours.
        assert_eq!(index_of("o999", 1000, 50), None);
        assert_eq!(index_of("o1050", 1000, 50), None);
        assert_eq!(index_of("w3", 0, usize::MAX), None);
    }

    #[test]
    fn an_infinite_rate_sends_everything_at_once() {
        assert_eq!(schedule_ns(3, f64::INFINITY), vec![0, 0, 0]);
    }
}
