//! The `chortle-serve` runtime: event loop, worker pool, warm cache,
//! fair admission, and graceful shutdown.
//!
//! ## Threading model
//!
//! One event-loop thread (the caller's thread in [`Server::run`]) owns
//! every connection: it accepts, reads, parses, admits, and writes —
//! see [`crate::event_loop`]. A fixed pool of worker threads pops
//! admitted jobs from the fair [`crate::admission::Admission`] queue,
//! runs the mapping pipeline, renders the response, and hands the
//! finished frame back to the loop. A client may pipeline requests
//! freely and receives exactly one line per request — or one line per
//! `map_batch` frame — with responses coalesced per poll iteration
//! into single writes (order may interleave across worker completion,
//! which is why responses echo the request `id`).
//!
//! The worker pool is the only parallelism: each request maps on the
//! worker that popped it, in tree order, and concurrent requests share
//! nothing but the warm cache. A burst of requests therefore spreads
//! over the workers (one per core by default) instead of one request
//! fanning out and competing with its neighbors. The per-request
//! `CancelToken` (deadline) is honored cooperatively at tree
//! boundaries, so a cancelled request frees its worker promptly. A
//! request that panics is answered `internal` and its worker keeps
//! serving (see [`contain_panic`]).
//!
//! ## Admission
//!
//! Each connection may have at most `client_quota` requests queued or
//! in flight; total queued work is bounded by `queue_depth`. Workers
//! serve clients round-robin, preferring higher `priority` requests.
//! Sheds answer immediately — v2 rejections carry `retry_after_ms` and
//! `client_queue_depth` so clients back off instead of hammering.
//!
//! ## Shutdown
//!
//! A `shutdown` request (or stdin EOF in `--stdio` mode, or
//! [`ServerHandle::shutdown`]) flips the stopping flag and closes
//! admission. From that point new work is rejected with
//! `shutting_down`, queued and in-flight jobs drain to completion
//! (counted as `serve.drained`), their responses are delivered, and
//! [`Server::run`] returns the final aggregate [`ServerSummary`].

use std::collections::VecDeque;
use std::io::{self, BufRead, Read};
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use chortle::WarmCache;
use chortle_telemetry::log::{self, FieldValue, Level};
use chortle_telemetry::{catalogue, Report, Telemetry};

use crate::admission::Admission;
use crate::event_loop::{self, Completions, Job};
use crate::metrics::WindowAggregator;
use crate::proto::{self, BatchItem, MapPayload, RejectReason, RequestTrace, ServerLimits};
use crate::service;

/// Server configuration. `#[non_exhaustive]` with a
/// [`ServeOptions::builder`], mirroring `MapOptions` — new knobs can
/// land without breaking embedders.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServeOptions {
    /// TCP port on 127.0.0.1 (0 picks an ephemeral port; ignored by
    /// [`serve_stdio`]).
    pub port: u16,
    /// Worker threads executing map requests (0 = host parallelism).
    pub workers: usize,
    /// Global admission queue capacity.
    pub queue_depth: usize,
    /// Per-client quota of queued + in-flight requests.
    pub client_quota: usize,
    /// Maximum requests per `map_batch` frame.
    pub batch_limit: usize,
    /// How many completed requests the `op: "trace"` ring remembers;
    /// older entries are evicted, so memory stays bounded.
    pub trace_capacity: usize,
    /// Address for the Prometheus text-exposition endpoint (e.g.
    /// `"127.0.0.1:9090"`); `None` (the default) serves no HTTP.
    pub metrics_addr: Option<String>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            port: 0,
            workers: 0,
            queue_depth: 64,
            client_quota: 8,
            batch_limit: 64,
            trace_capacity: 128,
            metrics_addr: None,
        }
    }
}

impl ServeOptions {
    /// Starts a builder at the defaults (ephemeral port, host-sized
    /// worker pool, queue 64, quota 8, batch limit 64, trace ring 128).
    #[must_use]
    pub fn builder() -> ServeOptionsBuilder {
        ServeOptionsBuilder {
            options: ServeOptions::default(),
        }
    }
}

/// Builder for [`ServeOptions`] — the serving-side sibling of
/// `MapOptions::builder()`.
#[derive(Clone, Debug)]
pub struct ServeOptionsBuilder {
    options: ServeOptions,
}

impl ServeOptionsBuilder {
    /// TCP port on 127.0.0.1; 0 picks an ephemeral port.
    #[must_use]
    pub fn port(mut self, port: u16) -> Self {
        self.options.port = port;
        self
    }

    /// Worker threads executing map requests; 0 = host parallelism.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.options.workers = workers;
        self
    }

    /// Global admission queue capacity (clamped to at least 1).
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.options.queue_depth = depth;
        self
    }

    /// Per-client quota of queued + in-flight requests (clamped to at
    /// least 1).
    #[must_use]
    pub fn client_quota(mut self, quota: usize) -> Self {
        self.options.client_quota = quota;
        self
    }

    /// Maximum requests per `map_batch` frame (clamped to at least 1).
    #[must_use]
    pub fn batch_limit(mut self, limit: usize) -> Self {
        self.options.batch_limit = limit;
        self
    }

    /// `op: "trace"` ring capacity (clamped to at least 1).
    #[must_use]
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.options.trace_capacity = capacity;
        self
    }

    /// Prometheus exposition endpoint address (`None` disables it).
    #[must_use]
    pub fn metrics_addr(mut self, addr: Option<String>) -> Self {
        self.options.metrics_addr = addr;
        self
    }

    /// Finalizes the options. Size knobs are clamped to at least 1 —
    /// a zero-capacity queue or quota would admit nothing, which is
    /// never what a caller means.
    #[must_use]
    pub fn build(mut self) -> ServeOptions {
        self.options.queue_depth = self.options.queue_depth.max(1);
        self.options.client_quota = self.options.client_quota.max(1);
        self.options.batch_limit = self.options.batch_limit.max(1);
        self.options.trace_capacity = self.options.trace_capacity.max(1);
        self.options
    }
}

/// What [`Server::run`] (and [`serve_stdio`]) return after the drain.
#[derive(Clone, Debug)]
pub struct ServerSummary {
    /// The aggregate server telemetry report (`serve.*` counters, the
    /// per-request stage, the latency and client-depth histograms) —
    /// schema-valid `chortle-telemetry/v1.9`.
    pub report: Report,
    /// Final warm-cache generation.
    pub cache_generation: u64,
    /// Distinct shape solutions left in the warm cache.
    pub cache_shapes: usize,
}

/// State shared by the event loop and the workers.
pub(crate) struct Shared {
    /// The fair admission queue feeding the workers.
    pub admission: Admission<Job>,
    /// Finished response frames travelling back to the delivery thread.
    pub completions: Completions,
    /// The process-wide warm DP cache.
    pub warm: WarmCache,
    pub telemetry: Telemetry,
    stopping: AtomicBool,
    /// When the server started — the `uptime_s` baseline of `stats`.
    pub started: Instant,
    /// The `op: "trace"` ring: the last `trace_capacity` completed
    /// requests, oldest first.
    pub ring: Mutex<VecDeque<RequestTrace>>,
    pub trace_capacity: usize,
    /// Completed-request traces evicted from the bounded ring since
    /// startup — the v2 `stats` field `trace_dropped`.
    pub trace_evicted: AtomicU64,
    /// The sliding-window metrics aggregator behind `op: "metrics"`
    /// and the Prometheus endpoint.
    pub window: WindowAggregator,
    /// The limits `hello` advertises (also the batch-size gate).
    pub limits: ServerLimits,
}

impl Shared {
    fn new(options: &ServeOptions, workers: usize) -> Self {
        let queue_depth = options.queue_depth.max(1);
        let quota = options.client_quota.max(1);
        let batch_limit = options.batch_limit.max(1);
        let telemetry = Telemetry::enabled();
        // With logging on, mirror log volume into the closed `log.*`
        // counter namespace of this server's own report.
        if log::enabled(Level::Error) {
            log::set_counter_sink(telemetry.clone());
        }
        Shared {
            admission: Admission::new(queue_depth, quota, workers),
            completions: Completions::new(),
            warm: WarmCache::new(),
            telemetry,
            stopping: AtomicBool::new(false),
            started: Instant::now(),
            ring: Mutex::new(VecDeque::with_capacity(options.trace_capacity.min(1024))),
            trace_capacity: options.trace_capacity.max(1),
            trace_evicted: AtomicU64::new(0),
            window: WindowAggregator::new(60),
            limits: ServerLimits {
                quota,
                queue_depth,
                batch_limit,
                max_frame_bytes: proto::MAX_FRAME_BYTES,
            },
        }
    }

    /// Remembers one completed request in the bounded trace ring,
    /// counting what the bound evicts.
    fn remember(&self, entry: RequestTrace) {
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.len() == self.trace_capacity {
            ring.pop_front();
            self.trace_evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(entry);
    }

    pub fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    /// Flips into drain mode exactly once: stop admitting, close the
    /// queue, wake the workers and the delivery thread.
    pub fn initiate_shutdown(&self) {
        if self.stopping.swap(true, Ordering::AcqRel) {
            return;
        }
        if log::enabled(Level::Info) {
            log::event(
                Level::Info,
                "serve.shutdown",
                "drain initiated: admission closed, in-flight work completing",
                &[
                    ("queued", FieldValue::U64(self.admission.len() as u64)),
                    (
                        "uptime_s",
                        FieldValue::U64(self.started.elapsed().as_secs()),
                    ),
                ],
            );
        }
        self.admission.close();
        self.completions.notify();
    }

    fn summary(&self) -> ServerSummary {
        ServerSummary {
            report: self.telemetry.snapshot(),
            cache_generation: self.warm.generation(),
            cache_shapes: self.warm.shapes(),
        }
    }
}

/// Runs one request's pipeline and answers a panic inside it as an
/// `internal` rejection, so the worker thread survives to serve the
/// next request. The panic itself is still reported by the process
/// panic hook. The request's state is dropped with the unwind; the warm
/// cache is only locked for single lookups and inserts, never across
/// mapping work, so a panic leaves it consistent.
fn contain_panic<T>(
    run: impl FnOnce() -> Result<T, (RejectReason, String)>,
) -> Result<T, (RejectReason, String)> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        Err((
            RejectReason::Internal,
            format!("the mapper panicked: {message}"),
        ))
    })
}

/// One worker: pop, execute, render, deliver, complete — until the
/// queue closes and drains.
fn worker_loop(shared: &Shared) {
    while let Some(popped) = shared.admission.pop() {
        let job = popped.item;
        let draining = shared.stopping();
        let start = Instant::now();
        let queue_wait = start.duration_since(job.admitted);
        let expired = job.deadline.is_some_and(|d| Instant::now() >= d);
        let result = if expired {
            Err((
                RejectReason::DeadlineExceeded,
                "deadline expired while queued".to_owned(),
            ))
        } else {
            let cancel = service::cancel_for(job.deadline);
            contain_panic(|| service::execute(&job.req, &shared.warm, cancel))
        };
        let run = start.elapsed();
        let run_ns = u64::try_from(run.as_nanos()).unwrap_or(u64::MAX);
        let queue_ns = u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX);
        // Record the latency samples BEFORE queueing the response: a
        // client that has this response in hand may immediately ask
        // op:"stats" and must find its own request already bucketed
        // (loadgen asserts the rebuilt histogram matches
        // bucket-for-bucket).
        shared
            .telemetry
            .record_value(catalogue::SERVE_QUEUE_NS, queue_ns);
        shared
            .telemetry
            .record_value(catalogue::SERVE_RUN_NS, run_ns);
        shared
            .telemetry
            .record_stage(catalogue::SERVE_REQUEST, run.as_secs_f64());
        let item = match result {
            Ok(outcome) => {
                shared.telemetry.add_counter(catalogue::SERVE_COMPLETED, 1);
                if draining {
                    shared.telemetry.add_counter(catalogue::SERVE_DRAINED, 1);
                }
                shared.remember(RequestTrace {
                    id: job.id.clone(),
                    outcome: "ok".to_owned(),
                    queue_ns,
                    run_ns,
                    luts: outcome.luts,
                    depth: outcome.depth,
                    trace_id: job.req.trace_id.clone(),
                });
                BatchItem::Mapped(MapPayload {
                    luts: outcome.luts,
                    depth: outcome.depth,
                    cache_generation: shared.warm.generation(),
                    run_ns,
                    netlist: outcome.netlist,
                    report_json: outcome.report_json,
                    trace_id: job.req.trace_id.clone(),
                })
            }
            Err((reason, detail)) => {
                let counter = match reason {
                    RejectReason::DeadlineExceeded => Some(catalogue::SERVE_REJECTED_DEADLINE),
                    RejectReason::BadRequest => Some(catalogue::SERVE_REJECTED_BAD_REQUEST),
                    _ => None,
                };
                if let Some(name) = counter {
                    shared.telemetry.add_counter(name, 1);
                }
                shared.remember(RequestTrace {
                    id: job.id.clone(),
                    outcome: reason.as_str().to_owned(),
                    queue_ns,
                    run_ns,
                    luts: 0,
                    depth: 0,
                    trace_id: job.req.trace_id.clone(),
                });
                BatchItem::Rejected {
                    reason,
                    detail,
                    hint: None,
                }
            }
        };
        if log::enabled(Level::Debug) {
            let outcome = match &item {
                BatchItem::Mapped(_) => "ok",
                BatchItem::Rejected { reason, .. } => reason.as_str(),
            };
            log::event(
                Level::Debug,
                "serve.request",
                "request finished",
                &[
                    ("id", FieldValue::Str(&job.id)),
                    ("trace_id", FieldValue::Str(&job.req.trace_id)),
                    ("outcome", FieldValue::Str(outcome)),
                    ("queue_ns", FieldValue::U64(queue_ns)),
                    ("run_ns", FieldValue::U64(run_ns)),
                ],
            );
        }
        // Deliver the frame BEFORE completing: the event loop treats
        // "no outstanding work" as "every frame already pushed" when it
        // decides a connection is safe to drop.
        match &job.batch {
            None => {
                let frame = match &item {
                    BatchItem::Mapped(payload) if job.req.design => {
                        proto::render_map_design_ok(&job.id, payload)
                    }
                    BatchItem::Mapped(payload) => {
                        proto::render_map_ok(job.version, &job.id, payload)
                    }
                    BatchItem::Rejected {
                        reason,
                        detail,
                        hint,
                    } => {
                        proto::render_rejected(job.version, &job.id, *reason, detail, hint.as_ref())
                    }
                };
                shared.completions.push(job.cid, frame);
            }
            Some((state, index)) => {
                if state.store(*index, item) {
                    let frame = state.render();
                    shared.completions.push(state.cid, frame);
                }
            }
        }
        shared.admission.complete(popped.cid, run_ns);
    }
}

fn spawn_workers(shared: &Arc<Shared>, count: usize) -> Vec<std::thread::JoinHandle<()>> {
    (0..count)
        .map(|i| {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("chortle-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker thread")
        })
        .collect()
}

fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        requested
    }
}

/// A bound, not-yet-running server. Construct with [`Server::bind`],
/// inspect [`Server::local_addr`], then consume with [`Server::run`].
pub struct Server {
    listener: TcpListener,
    /// The Prometheus exposition listener, when configured.
    metrics: Option<TcpListener>,
    shared: Arc<Shared>,
    workers: usize,
}

/// A clonable remote control for a running [`Server`] — lets tests and
/// embedders trigger the same graceful shutdown a `shutdown` request
/// does, and watch the warm cache.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Initiates graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Current warm-cache generation.
    pub fn cache_generation(&self) -> u64 {
        self.shared.warm.generation()
    }
}

impl Server {
    /// Binds `127.0.0.1:options.port` (port 0 picks an ephemeral port —
    /// read it back via [`Server::local_addr`]) and, when
    /// `options.metrics_addr` is set, the Prometheus exposition
    /// listener next to it.
    ///
    /// # Errors
    ///
    /// Propagates either bind failure (port in use, no loopback, …).
    pub fn bind(options: &ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, options.port))?;
        let metrics = match &options.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr.as_str())?),
            None => None,
        };
        let workers = resolve_workers(options.workers);
        Ok(Server {
            listener,
            metrics,
            shared: Arc::new(Shared::new(options, workers)),
            workers,
        })
    }

    /// The bound address (loopback; the port is the interesting part).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure (never expected on a
    /// bound listener).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound Prometheus exposition address, when one was
    /// configured via [`ServeOptions::metrics_addr`].
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().and_then(|m| m.local_addr().ok())
    }

    /// A remote control valid for this server's whole lifetime.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until a `shutdown` request (or [`ServerHandle::shutdown`])
    /// completes the drain; returns the aggregate summary.
    pub fn run(self) -> ServerSummary {
        let workers = spawn_workers(&self.shared, self.workers);
        event_loop::run(&self.listener, self.metrics.as_ref(), &self.shared);
        // The queue is closed (initiate_shutdown); wait for the drain.
        for handle in workers {
            handle.join().expect("worker panicked");
        }
        self.shared.summary()
    }
}

/// The shared daemon entry point behind `chortle-serve` and
/// `chortle-map serve`: parses `args` against the serve flag table,
/// binds (or goes stdio), prints `listening on ADDR` to stderr, serves
/// until shutdown, and prints the final aggregate report — to stdout in
/// TCP mode, to stderr in stdio mode (where the protocol owns stdout).
///
/// Returns the process exit code. `invocation` titles the help text.
pub fn run_daemon(invocation: &str, args: impl Iterator<Item = String>) -> std::process::ExitCode {
    use std::process::ExitCode;
    let parsed = match crate::args::ServeArgs::parse(invocation, args) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{invocation}: {msg} (try --help)");
            return ExitCode::FAILURE;
        }
    };
    // Logging is off unless a flag (or CHORTLE_LOG / CHORTLE_LOG_FILE)
    // turns it on — the quiet default keeps stderr and the final
    // report byte-identical to pre-v1.7 daemons.
    if let Err(msg) = log::init_from(parsed.log_level.as_deref(), parsed.log_file.as_deref()) {
        eprintln!("{invocation}: {msg}");
        return ExitCode::FAILURE;
    }
    let options = parsed.options();
    if parsed.stdio {
        let summary = serve_stdio(&options);
        eprintln!("{}", summary.report.to_json());
        return ExitCode::SUCCESS;
    }
    let server = match Server::bind(&options) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("{invocation}: cannot bind 127.0.0.1:{}: {e}", options.port);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => eprintln!("listening on {addr}"),
        Err(e) => {
            eprintln!("{invocation}: cannot read bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(addr) = server.metrics_addr() {
        eprintln!("metrics on http://{addr}/metrics");
    }
    let summary = server.run();
    println!("{}", summary.report.to_json());
    ExitCode::SUCCESS
}

/// Serves newline-delimited JSON on stdin/stdout — same protocol (both
/// versions), same admission, same worker pool, no socket. EOF on stdin
/// (or a `shutdown` request) starts the drain. Useful under process
/// supervisors and for piping.
///
/// Implementation: the caller's thread reads stdin (connection id 0); a
/// writer thread drains the completions queue to stdout, so pipelined
/// and batched requests stream answers as they finish, exactly like the
/// TCP loop. Lines are read like TCP frames: at most
/// [`proto::MAX_FRAME_BYTES`] are buffered, a longer line gets a
/// `bad_request` and stops reading (the owed answers still drain), and
/// invalid UTF-8 is decoded lossily, so it gets a `bad_request` and
/// serving continues.
pub fn serve_stdio(options: &ServeOptions) -> ServerSummary {
    let shared = Arc::new(Shared::new(options, resolve_workers(options.workers)));
    let workers = spawn_workers(&shared, resolve_workers(options.workers));
    let writer = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("chortle-serve-stdout".to_owned())
            .spawn(move || stdio_writer(&shared))
            .expect("spawn stdout writer")
    };
    let mut stdin = io::stdin().lock();
    let mut frame = Vec::new();
    loop {
        frame.clear();
        // One byte past the cap tells an over-long line from a full one.
        let limit = proto::MAX_FRAME_BYTES as u64 + 1;
        match (&mut stdin).take(limit).read_until(b'\n', &mut frame) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if frame.last() == Some(&b'\n') {
            frame.pop();
            if frame.last() == Some(&b'\r') {
                frame.pop();
            }
        } else if frame.len() > proto::MAX_FRAME_BYTES {
            event_loop::reject_oversized(&shared, 0, frame.len());
            break;
        }
        let line = String::from_utf8_lossy(&frame);
        if line.trim().is_empty() {
            continue;
        }
        event_loop::dispatch(&shared, 0, &line);
        if shared.stopping() {
            break;
        }
    }
    shared.initiate_shutdown();
    for handle in workers {
        handle.join().expect("worker panicked");
    }
    // All frames are pushed (workers joined); wake the writer so it
    // observes the drained state and exits after the final flush.
    shared.completions.notify();
    writer.join().expect("stdout writer panicked");
    shared.summary()
}

/// Drains completed frames to stdout until shutdown finishes.
fn stdio_writer(shared: &Shared) {
    use std::io::Write as _;
    let stdout = io::stdout();
    loop {
        let frames = shared.completions.drain();
        if !frames.is_empty() {
            let mut out = stdout.lock();
            for (_, frame) in &frames {
                let _ = out.write_all(frame.as_bytes());
                let _ = out.write_all(b"\n");
            }
            let _ = out.flush();
            continue;
        }
        // Order matters: outstanding first, queue second. Workers push
        // a job's frame before completing it, so once outstanding hits
        // zero every frame is either drained already or visible to the
        // emptiness check here.
        if shared.stopping()
            && shared.admission.outstanding_total() == 0
            && shared.completions.is_empty()
        {
            break;
        }
        shared.completions.wait(Duration::from_millis(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_request_is_answered_internal() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome: Result<(), _> = contain_panic(|| panic!("planted bug"));
        std::panic::set_hook(prev);
        let (reason, detail) = outcome.unwrap_err();
        assert_eq!(reason, RejectReason::Internal);
        assert!(detail.contains("planted bug"), "{detail}");
        // Results and typed rejections pass through untouched.
        assert_eq!(contain_panic(|| Ok::<_, (RejectReason, String)>(7)), Ok(7));
        let rejected: Result<(), _> =
            contain_panic(|| Err((RejectReason::BadRequest, "no".to_owned())));
        assert_eq!(rejected, Err((RejectReason::BadRequest, "no".to_owned())));
    }
}
