//! The event-driven serving core: one thread owning every connection.
//!
//! ## Architecture (DESIGN.md §15)
//!
//! The PR-4 daemon spent a thread per connection, all contending on one
//! global queue. This loop replaces that with readiness-style polling
//! over non-blocking sockets: a single thread accepts, reads, parses,
//! admits, and writes — mapping work is the only thing that leaves the
//! thread, handed to the worker pool through [`Admission`] and handed
//! back as rendered response frames through [`Completions`].
//!
//! Each iteration:
//!
//! 1. **accept** every pending connection (unless draining);
//! 2. **read** whatever every socket has, dispatching each complete
//!    request line — admin ops answer inline, map work is offered to
//!    admission (shed answers also render inline);
//! 3. **snapshot** which connections look finished (peer EOF and no
//!    outstanding work) — *before* draining completions, so a frame
//!    completed between the snapshot and the drain still rides this
//!    iteration (workers push frames before marking work complete);
//! 4. **drain** completed frames into per-connection write buffers —
//!    frames landing on a non-empty buffer coalesce into the same
//!    write (`serve.coalesced_frames`);
//! 5. **flush** every buffer as far as the kernel allows;
//! 6. **drop** snapshotted connections whose buffers emptied;
//! 7. exit once draining and everything is answered and delivered.
//!
//! An idle iteration parks on the completions condvar — 200 µs while
//! recently active (keeps warm-path latency flat), stretching to 2 ms
//! once the loop has been quiet, so an idle daemon costs ~500 wakeups/s
//! instead of a spin. With no `poll(2)` in std this O(connections) scan
//! is the honest trade; the constant is one `read` syscall per open
//! connection per iteration.
//!
//! Prometheus scrapes (`--metrics-addr`) are the one exception to
//! non-blocking I/O: the loop accepts each scrape socket and hands it to
//! a dedicated scrape thread, which answers scrapes one at a time under
//! an overall [`SCRAPE_DEADLINE`], so a scraper that stalls or trickles
//! bytes holds only that thread.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use chortle_telemetry::log::{self, FieldValue, Level};
use chortle_telemetry::{catalogue, prom};

use crate::admission::ShedReason;
use crate::conn::Conn;
use crate::metrics::Cum;
use crate::proto::{
    self, parse_request, BatchItem, MapRequest, Op, ProtocolVersion, RejectReason, RequestTrace,
    ShedHint,
};
use crate::server::Shared;

/// One admitted unit of mapping work.
pub(crate) struct Job {
    /// Owning connection (0 in stdio mode).
    pub cid: u64,
    /// Protocol version the request spoke; the response mirrors it.
    pub version: ProtocolVersion,
    /// Correlation id (the frame's, also for batch entries).
    pub id: String,
    /// The parsed map request.
    pub req: MapRequest,
    /// Absolute deadline, counted from admission.
    pub deadline: Option<Instant>,
    /// When admission accepted the job (queue-wait baseline).
    pub admitted: Instant,
    /// For `map_batch` entries: the shared frame state and this entry's
    /// slot in the `results` array.
    pub batch: Option<(Arc<BatchState>, usize)>,
}

/// Shared assembly state of one in-flight `map_batch` frame. Entries
/// resolve independently (workers, shed-at-admission, deadlines);
/// whoever resolves the last one renders the single response frame.
pub(crate) struct BatchState {
    /// Owning connection.
    pub cid: u64,
    /// The batch frame's correlation id.
    pub id: String,
    /// Per-entry results, in request order.
    results: Mutex<Vec<Option<BatchItem>>>,
    /// Entries not yet resolved.
    remaining: AtomicUsize,
}

impl BatchState {
    fn new(cid: u64, id: String, len: usize) -> Self {
        BatchState {
            cid,
            id,
            results: Mutex::new(vec![None; len]),
            remaining: AtomicUsize::new(len),
        }
    }

    /// Records one entry's outcome; `true` means this was the last
    /// entry and the caller must render + deliver the frame.
    pub fn store(&self, index: usize, item: BatchItem) -> bool {
        {
            let mut results = self.results.lock().expect("batch results poisoned");
            results[index] = Some(item);
        }
        self.remaining.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Renders the completed frame (call only after `store` returned
    /// `true`).
    pub fn render(&self) -> String {
        let results = std::mem::take(&mut *self.results.lock().expect("batch results poisoned"));
        let items: Vec<BatchItem> = results
            .into_iter()
            .map(|slot| slot.expect("every batch entry resolved"))
            .collect();
        proto::render_batch_ok(&self.id, &items)
    }
}

/// Rendered response frames travelling from workers back to whichever
/// thread owns the connections (the event loop, or the stdio writer).
/// Also the loop's wake signal: `push` and shutdown both notify.
pub(crate) struct Completions {
    frames: Mutex<Vec<(u64, String)>>,
    signal: Condvar,
}

impl Completions {
    pub fn new() -> Self {
        Completions {
            frames: Mutex::new(Vec::new()),
            signal: Condvar::new(),
        }
    }

    /// Queues one rendered frame for connection `cid` and wakes the
    /// delivery thread. Workers call this *before*
    /// [`crate::admission::Admission::complete`] — the loop relies on
    /// "no outstanding work" implying "every frame already pushed".
    pub fn push(&self, cid: u64, frame: String) {
        let mut frames = self.frames.lock().expect("completions poisoned");
        frames.push((cid, frame));
        drop(frames);
        self.signal.notify_all();
    }

    /// Takes every queued frame, in push order.
    pub fn drain(&self) -> Vec<(u64, String)> {
        std::mem::take(&mut *self.frames.lock().expect("completions poisoned"))
    }

    pub fn is_empty(&self) -> bool {
        self.frames.lock().expect("completions poisoned").is_empty()
    }

    /// Parks until a frame arrives, a notify, or `timeout` — whichever
    /// comes first. Returns immediately if frames are already queued.
    pub fn wait(&self, timeout: Duration) {
        let frames = self.frames.lock().expect("completions poisoned");
        if frames.is_empty() {
            let _ = self
                .signal
                .wait_timeout(frames, timeout)
                .expect("completions poisoned while waiting");
        }
    }

    /// Wakes the delivery thread without a frame (shutdown).
    pub fn notify(&self) {
        self.signal.notify_all();
    }
}

/// Considered "recently active" for this long after the last progress —
/// poll fast (200 µs) inside the window, slow (2 ms) outside it.
const ACTIVE_WINDOW: Duration = Duration::from_millis(20);
const FAST_POLL: Duration = Duration::from_micros(200);
const IDLE_POLL: Duration = Duration::from_millis(2);

/// Longest one Prometheus scrape may take, reading the request and
/// writing the page together. A scraper that stalls or trickles bytes is
/// answered with what it sent by then (or dropped) at this deadline.
const SCRAPE_DEADLINE: Duration = Duration::from_secs(1);

/// Runs the event loop until shutdown completes its drain. `metrics`
/// is the optional Prometheus exposition listener (`--metrics-addr`) —
/// this thread accepts scrapes and a dedicated scrape thread answers
/// them, one short-lived HTTP/1.0 connection per scrape; the scrape
/// thread is joined before this returns.
pub(crate) fn run(listener: &TcpListener, metrics: Option<&TcpListener>, shared: &Arc<Shared>) {
    listener
        .set_nonblocking(true)
        .expect("listener supports non-blocking mode");
    if let Some(metrics) = metrics {
        metrics
            .set_nonblocking(true)
            .expect("metrics listener supports non-blocking mode");
    }
    let scraper = metrics.map(|_| {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let shared = Arc::clone(shared);
        let handle = thread::Builder::new()
            .name("chortle-scrape".to_owned())
            .spawn(move || {
                // Scrapes queued once shutdown began are dropped unread,
                // so a backlog of stalled scrapers cannot hold the exit
                // for more than the one scrape in flight.
                for stream in rx {
                    if !shared.stopping() {
                        serve_metrics_scrape(stream, &shared);
                    }
                }
            })
            .expect("spawn scrape thread");
        (tx, handle)
    });
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_cid: u64 = 1;
    let mut lines: Vec<String> = Vec::new();
    let mut last_active = Instant::now();
    loop {
        let mut progressed = false;

        // 0. Once per second, roll the sliding metrics window forward
        // (the check is a lock + compare; the telemetry snapshot only
        // happens on an actual boundary).
        let sec = shared.started.elapsed().as_secs();
        if shared.window.needs_roll(sec) {
            let now = Cum::capture(&shared.telemetry.snapshot(), &shared.warm.stats());
            shared.window.observe(sec, &now);
        }

        // 0b. Hand pending Prometheus scrapes to the scrape thread.
        if let (Some(metrics), Some((tx, _))) = (metrics, &scraper) {
            while let Ok((stream, _)) = metrics.accept() {
                let _ = tx.send(stream);
                progressed = true;
            }
        }

        // 1. Accept everything pending (draining servers accept nothing
        // new; existing connections are still served out).
        if !shared.stopping() {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        shared
                            .telemetry
                            .add_counter(catalogue::SERVE_CONNECTIONS, 1);
                        if let Ok(conn) = Conn::new(stream) {
                            conns.insert(next_cid, conn);
                            next_cid += 1;
                            progressed = true;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // 2. Read + dispatch. Dispatch never touches the conn map — all
        // its output rides the completions queue, drained below in this
        // same iteration.
        let cids: Vec<u64> = conns.keys().copied().collect();
        for cid in cids {
            lines.clear();
            let conn = conns.get_mut(&cid).expect("cid snapshot is current");
            if conn.read_available(&mut lines) {
                progressed = true;
            }
            for line in &lines {
                if line.trim().is_empty() {
                    continue;
                }
                dispatch(shared, cid, line);
                progressed = true;
            }
            if let Some(len) = conn.take_oversized() {
                reject_oversized(shared, cid, len);
                progressed = true;
            }
        }

        // 3. Snapshot removal candidates BEFORE draining completions:
        // outstanding == 0 here guarantees their final frames are
        // already queued (workers push before completing) and will be
        // picked up by step 4.
        let candidates: Vec<u64> = conns
            .iter()
            .filter(|(cid, c)| {
                c.read_closed && (c.write_dead || shared.admission.outstanding(**cid) == 0)
            })
            .map(|(cid, _)| *cid)
            .collect();

        // Connections that dropped an over-long frame close their write
        // side once every answer owed is delivered (same snapshot rule).
        let closing: Vec<u64> = conns
            .iter()
            .filter(|(cid, c)| c.closing() && shared.admission.outstanding(**cid) == 0)
            .map(|(cid, _)| *cid)
            .collect();

        // 4. Drain completed frames into write buffers.
        for (cid, frame) in shared.completions.drain() {
            progressed = true;
            if let Some(conn) = conns.get_mut(&cid) {
                if conn.queue_frame(&frame) {
                    shared
                        .telemetry
                        .add_counter(catalogue::SERVE_COALESCED_FRAMES, 1);
                }
            }
            // else: the peer hung up and was dropped — its answers are
            // forfeit (PR-4 rule: a lost client never hurts the server).
        }

        // 5. Flush as far as the kernel allows.
        for conn in conns.values_mut() {
            if conn.flush() {
                progressed = true;
            }
        }

        for cid in closing {
            if let Some(conn) = conns.get_mut(&cid).filter(|c| c.flushed()) {
                conn.close_write();
                progressed = true;
            }
        }

        // 6. Drop candidates whose buffers emptied (or proved dead).
        for cid in candidates {
            if conns.get(&cid).is_some_and(Conn::finished) {
                conns.remove(&cid);
            }
        }

        // 7. Drain-complete exit: stopping, nothing queued or running,
        // no frames in flight, every delivered or undeliverable.
        if shared.stopping()
            && shared.admission.outstanding_total() == 0
            && shared.completions.is_empty()
            && conns.values().all(|c| c.flushed() || c.write_dead)
        {
            break;
        }

        // 8. Idle backoff.
        if progressed {
            last_active = Instant::now();
        } else {
            let timeout = if last_active.elapsed() < ACTIVE_WINDOW {
                FAST_POLL
            } else {
                IDLE_POLL
            };
            shared.completions.wait(timeout);
        }
    }
    if let Some((tx, handle)) = scraper {
        drop(tx);
        let _ = handle.join();
    }
}

/// Answers a frame of `len`+ bytes over [`proto::MAX_FRAME_BYTES`] from
/// connection `cid` with a `bad_request`; the caller stops reading it.
pub(crate) fn reject_oversized(shared: &Shared, cid: u64, len: usize) {
    shared
        .telemetry
        .add_counter(catalogue::SERVE_REJECTED_BAD_REQUEST, 1);
    let detail = format!(
        "frame of {len}+ bytes exceeds the {}-byte frame limit; closing",
        proto::MAX_FRAME_BYTES
    );
    let frame = proto::render_rejected(
        ProtocolVersion::V1,
        "",
        RejectReason::BadRequest,
        &detail,
        None,
    );
    shared.completions.push(cid, frame);
}

/// Handles one request line from connection `cid`. Admin operations are
/// answered inline (via the completions queue, drained in the same
/// iteration); map work goes through admission.
pub(crate) fn dispatch(shared: &Arc<Shared>, cid: u64, line: &str) {
    let telemetry = &shared.telemetry;
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(e) => {
            telemetry.add_counter(catalogue::SERVE_REJECTED_BAD_REQUEST, 1);
            let frame =
                proto::render_rejected(e.version, &e.id, RejectReason::BadRequest, &e.detail, None);
            shared.completions.push(cid, frame);
            return;
        }
    };
    let version = request.version;
    match request.op {
        Op::Hello => {
            telemetry.add_counter(catalogue::SERVE_HELLO_REQUESTS, 1);
            let frame = proto::render_hello_ok(&request.id, &shared.limits);
            shared.completions.push(cid, frame);
        }
        Op::Map(req) => {
            admit(shared, cid, version, &request.id, req, None);
        }
        Op::MapBatch(batch) => {
            telemetry.add_counter(catalogue::SERVE_BATCH_FRAMES, 1);
            telemetry.add_counter(catalogue::SERVE_BATCH_REQUESTS, batch.requests.len() as u64);
            if batch.requests.len() > shared.limits.batch_limit {
                telemetry.add_counter(catalogue::SERVE_REJECTED_BAD_REQUEST, 1);
                let detail = format!(
                    "batch of {} exceeds the server's batch_limit of {}",
                    batch.requests.len(),
                    shared.limits.batch_limit
                );
                let frame = proto::render_rejected(
                    version,
                    &request.id,
                    RejectReason::BadRequest,
                    &detail,
                    None,
                );
                shared.completions.push(cid, frame);
                return;
            }
            let state = Arc::new(BatchState::new(
                cid,
                request.id.clone(),
                batch.requests.len(),
            ));
            for (index, req) in batch.requests.into_iter().enumerate() {
                admit(
                    shared,
                    cid,
                    version,
                    &request.id,
                    req,
                    Some((Arc::clone(&state), index)),
                );
            }
        }
        Op::Flush => {
            let generation = shared.warm.flush();
            telemetry.add_counter(catalogue::SERVE_FLUSHES, 1);
            let frame = proto::render_flush_ok(version, &request.id, generation);
            shared.completions.push(cid, frame);
        }
        Op::Stats => {
            telemetry.add_counter(catalogue::SERVE_STATS_REQUESTS, 1);
            let frame = proto::render_stats_ok(
                version,
                &request.id,
                &proto::StatsGauges {
                    cache_generation: shared.warm.generation(),
                    // Monotonic by construction: `started` is an
                    // `Instant`, so a stepping wall clock (NTP, DST)
                    // can never make uptime jump or run backwards.
                    uptime_s: shared.started.elapsed().as_secs(),
                    queue_depth: shared.admission.len(),
                    queue_high_water: shared.admission.high_water(),
                    trace_dropped: shared.trace_evicted.load(Ordering::Relaxed),
                },
                &shared.warm.stats(),
                &shared.telemetry.snapshot().to_json(),
            );
            shared.completions.push(cid, frame);
        }
        Op::Metrics => {
            telemetry.add_counter(catalogue::SERVE_METRICS_REQUESTS, 1);
            // Roll first so a daemon without event-loop traffic (stdio
            // mode, or an idle loop) still ages its window before
            // answering.
            let sec = shared.started.elapsed().as_secs();
            let now = Cum::capture(&telemetry.snapshot(), &shared.warm.stats());
            shared.window.observe(sec, &now);
            let frame = proto::render_metrics_ok(&request.id, &shared.window.snapshot(&now));
            shared.completions.push(cid, frame);
        }
        Op::Trace => {
            telemetry.add_counter(catalogue::SERVE_TRACE_REQUESTS, 1);
            let entries: Vec<RequestTrace> = {
                let ring = shared.ring.lock().expect("trace ring poisoned");
                ring.iter().cloned().collect()
            };
            let frame =
                proto::render_trace_ok(version, &request.id, shared.trace_capacity, &entries);
            shared.completions.push(cid, frame);
        }
        Op::Shutdown => {
            let frame = proto::render_shutdown_ok(version, &request.id);
            shared.completions.push(cid, frame);
            shared.initiate_shutdown();
            // Keep reading: pipelined frames behind the shutdown are
            // answered with `shutting_down` rather than silence.
        }
    }
}

/// Offers one map request (or batch entry) to admission; sheds are
/// answered immediately with the typed reason and — on v2 — the retry
/// hint. A shed batch entry resolves its slot inline.
fn admit(
    shared: &Arc<Shared>,
    cid: u64,
    version: ProtocolVersion,
    id: &str,
    req: MapRequest,
    batch: Option<(Arc<BatchState>, usize)>,
) {
    let telemetry = &shared.telemetry;
    if shared.stopping() {
        telemetry.add_counter(catalogue::SERVE_REJECTED_SHUTDOWN, 1);
        resolve_rejected(
            shared,
            cid,
            version,
            id,
            batch,
            RejectReason::ShuttingDown,
            "server is draining and no longer admits work",
            None,
        );
        return;
    }
    // The deadline clock starts at admission: time spent queued counts
    // against it.
    let deadline = req
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let priority = req.priority;
    let job = Job {
        cid,
        version,
        id: id.to_owned(),
        req,
        deadline,
        admitted: Instant::now(),
        batch,
    };
    match shared.admission.offer(cid, priority, job) {
        Ok(depth) => {
            telemetry.add_counter(catalogue::SERVE_ACCEPTED, 1);
            telemetry.add_counter(catalogue::SERVE_ADMISSION_ADMITTED, 1);
            telemetry.record_value(catalogue::SERVE_ADMISSION_CLIENT_DEPTH, depth as u64);
        }
        Err((shed, job)) => {
            let hint = ShedHint {
                retry_after_ms: shed.retry_after_ms,
                client_queue_depth: shed.client_queue_depth,
            };
            let (reason, detail, hint) = match shed.reason {
                ShedReason::OverQuota => {
                    telemetry.add_counter(catalogue::SERVE_REJECTED_QUEUE_FULL, 1);
                    telemetry.add_counter(catalogue::SERVE_ADMISSION_SHED_OVER_QUOTA, 1);
                    (
                        RejectReason::OverQuota,
                        format!(
                            "client quota of {} queued or in-flight requests is in use; retry later",
                            shared.admission.quota()
                        ),
                        Some(hint),
                    )
                }
                ShedReason::QueueFull => {
                    telemetry.add_counter(catalogue::SERVE_REJECTED_QUEUE_FULL, 1);
                    telemetry.add_counter(catalogue::SERVE_ADMISSION_SHED_QUEUE_FULL, 1);
                    (
                        RejectReason::QueueFull,
                        "admission queue is full; retry later".to_owned(),
                        Some(hint),
                    )
                }
                ShedReason::Closed => {
                    telemetry.add_counter(catalogue::SERVE_REJECTED_SHUTDOWN, 1);
                    (
                        RejectReason::ShuttingDown,
                        "server is draining and no longer admits work".to_owned(),
                        None,
                    )
                }
            };
            if hint.is_some() && version == ProtocolVersion::V2 {
                telemetry.add_counter(catalogue::SERVE_ADMISSION_HINTED, 1);
            }
            if log::enabled(Level::Warn) {
                log::event(
                    Level::Warn,
                    "serve.admission",
                    "request shed",
                    &[
                        ("id", FieldValue::Str(&job.id)),
                        ("trace_id", FieldValue::Str(&job.req.trace_id)),
                        ("reason", FieldValue::Str(reason.as_str())),
                        (
                            "queue_depth",
                            FieldValue::U64(shared.admission.len() as u64),
                        ),
                    ],
                );
            }
            resolve_rejected(
                shared, cid, version, &job.id, job.batch, reason, &detail, hint,
            );
        }
    }
}

/// Delivers a rejection for a single request (a frame of its own) or a
/// batch entry (a slot in the shared frame).
#[allow(clippy::too_many_arguments)]
fn resolve_rejected(
    shared: &Arc<Shared>,
    cid: u64,
    version: ProtocolVersion,
    id: &str,
    batch: Option<(Arc<BatchState>, usize)>,
    reason: RejectReason,
    detail: &str,
    hint: Option<ShedHint>,
) {
    match batch {
        None => {
            let frame = proto::render_rejected(version, id, reason, detail, hint.as_ref());
            shared.completions.push(cid, frame);
        }
        Some((state, index)) => {
            let last = state.store(
                index,
                BatchItem::Rejected {
                    reason,
                    detail: detail.to_owned(),
                    hint,
                },
            );
            if last {
                let frame = state.render();
                shared.completions.push(state.cid, frame);
            }
        }
    }
}

/// Renders the Prometheus text exposition for one scrape: the full
/// aggregate report (counters as `counter`, latency histograms as
/// `summary`) plus live gauges — uptime, queue depths, trace-ring
/// drops, and the sliding-window rates.
fn exposition(shared: &Arc<Shared>) -> String {
    let report = shared.telemetry.snapshot();
    let warm = shared.warm.stats();
    let sec = shared.started.elapsed().as_secs();
    let now = Cum::capture(&report, &warm);
    shared.window.observe(sec, &now);
    let m = shared.window.snapshot(&now);
    let gauges: &[prom::Gauge<'_>] = &[
        (catalogue::SERVE_UPTIME_S, sec as f64),
        (catalogue::SERVE_QUEUE_DEPTH, shared.admission.len() as f64),
        (
            catalogue::SERVE_QUEUE_HIGH_WATER,
            shared.admission.high_water() as f64,
        ),
        (
            catalogue::SERVE_TRACE_RING_DROPPED,
            shared.trace_evicted.load(Ordering::Relaxed) as f64,
        ),
        (catalogue::SERVE_WINDOW_QPS, m.qps),
        (catalogue::SERVE_WINDOW_SHED_RATE, m.shed_rate),
        (catalogue::SERVE_WINDOW_CACHE_HIT_RATE, m.cache_hit_rate),
    ];
    prom::render_exposition(&report, gauges)
}

/// Answers one Prometheus scrape connection on the scrape thread.
/// HTTP/1.0, `Connection: close`, and one [`SCRAPE_DEADLINE`] for the
/// whole exchange: each read and write may block only for what is left
/// of it. `GET /metrics` gets the exposition; anything else a 404.
fn serve_metrics_scrape(mut stream: TcpStream, shared: &Arc<Shared>) {
    let deadline = Instant::now() + SCRAPE_DEADLINE;
    // What is left of the deadline, or `None` once it has passed.
    let left = || {
        deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
    };
    // The accepted socket does not inherit the listener's non-blocking
    // mode on every platform — pin it to blocking.
    let _ = stream.set_nonblocking(false);
    let mut buf = [0u8; 1024];
    let mut request = Vec::new();
    // Only the request line matters, but read through the blank line
    // that ends the headers (or give up at 8 KiB — no legitimate scraper
    // sends that much): closing with request bytes unread makes the
    // kernel reset the connection, and the scraper can lose the page.
    while !ends_headers(&request) && request.len() < 8192 {
        let Some(timeout) = left() else { break };
        let _ = stream.set_read_timeout(Some(timeout));
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => request.extend_from_slice(&buf[..n]),
        }
    }
    let line = String::from_utf8_lossy(&request);
    let line = line.lines().next().unwrap_or("");
    let target = line.strip_prefix("GET ").and_then(|r| r.split(' ').next());
    let (status, body) = if target == Some("/metrics") {
        ("200 OK", exposition(shared))
    } else {
        ("404 Not Found", "only GET /metrics is served\n".to_owned())
    };
    let page = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut unsent = page.as_bytes();
    while !unsent.is_empty() {
        let Some(timeout) = left() else { break };
        let _ = stream.set_write_timeout(Some(timeout));
        match stream.write(unsent) {
            Ok(0) | Err(_) => break,
            Ok(n) => unsent = &unsent[n..],
        }
    }
}

/// Whether `request` holds the blank line that ends an HTTP header
/// block (`\r\n\r\n`, or bare `\n\n`).
fn ends_headers(request: &[u8]) -> bool {
    request.windows(4).any(|w| w == b"\r\n\r\n") || request.windows(2).any(|w| w == b"\n\n")
}
