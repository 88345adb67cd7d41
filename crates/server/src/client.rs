//! A blocking client for `chortle-serve` (protocol v1 and v2) — used by
//! the `chortle-serve --connect` CLI mode, the load generator, and the
//! server's own integration tests.
//!
//! Two layers:
//!
//! - [`parse_response`] + [`Response`]: the raw wire view — one variant
//!   per response shape, version-agnostic. Kept for protocol-level
//!   tests and pipelined readers.
//! - [`Client`] with typed `map()`, `map_design()`, `map_batch()`,
//!   `hello()`, `stats()`, `flush()`, `trace()`, `shutdown()` methods, each
//!   returning a small `#[non_exhaustive]` reply enum
//!   ([`MapReply`], [`BatchReply`], …) — a rejection is a value, not an
//!   error; `io::Error` is reserved for transport and protocol
//!   failures. [`Client::connect`] speaks v2;
//!   [`Client::connect_versioned`] pins v1 for compatibility testing.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;

use chortle::WarmStats;
use chortle_telemetry::json::{self, Value};

use crate::proto::{
    render_admin_request, render_batch_request, render_map_request, MapRequest, MetricsSnapshot,
    Op, ProtocolVersion, RequestTrace, PROTOCOLS,
};

/// A parsed response line — the raw wire view, either version.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Response {
    /// `status: "ok"` for `op: "map"`.
    MapOk {
        /// Echoed correlation id.
        id: String,
        /// LUTs in the mapped circuit.
        luts: usize,
        /// LUT levels on the longest path.
        depth: usize,
        /// Warm-cache generation that served this request.
        cache_generation: u64,
        /// Server-measured execution time in nanoseconds — the exact
        /// value the server bucketed into its `serve.run_ns` histogram.
        run_ns: u64,
        /// The mapped netlist (BLIF, model `mapped`).
        netlist: String,
        /// The embedded per-request telemetry report, re-serialized.
        report_json: String,
        /// The request's `trace_id`, echoed verbatim (empty when the
        /// request carried none).
        trace_id: String,
    },
    /// `status: "ok"` for `op: "map_batch"` (v2) — one entry per
    /// request, in request order.
    BatchOk {
        /// Echoed correlation id.
        id: String,
        /// Per-request outcomes.
        results: Vec<MapReply>,
    },
    /// `status: "ok"` for `op: "hello"` (v2).
    HelloOk {
        /// Echoed correlation id.
        id: String,
        /// Protocol versions the server accepts, oldest first.
        versions: Vec<String>,
        /// Per-client quota of queued + in-flight requests.
        quota: usize,
        /// Global admission queue capacity.
        queue_depth: usize,
        /// Maximum requests per `map_batch` frame.
        batch_limit: usize,
        /// Maximum bytes of one request frame.
        max_frame_bytes: usize,
    },
    /// `status: "ok"` for `op: "flush"`.
    FlushOk {
        /// Echoed correlation id.
        id: String,
        /// The new (post-flush) cache generation.
        cache_generation: u64,
    },
    /// `status: "ok"` for `op: "stats"`.
    StatsOk {
        /// Echoed correlation id.
        id: String,
        /// Current cache generation.
        cache_generation: u64,
        /// Whole seconds since the server started.
        uptime_s: u64,
        /// Jobs queued at the moment of the snapshot.
        queue_depth: usize,
        /// The deepest the admission queue has ever been.
        queue_high_water: usize,
        /// Completed-request traces evicted from the bounded
        /// `op: "trace"` ring (`None` on v1 — its shape is frozen).
        trace_dropped: Option<u64>,
        /// Per-tier warm-cache entry counts and lookup tallies.
        warm: WarmStats,
        /// The aggregate server report, re-serialized.
        report_json: String,
    },
    /// `status: "ok"` for `op: "metrics"` (v2) — the sliding-window
    /// metrics snapshot.
    MetricsOk {
        /// Echoed correlation id.
        id: String,
        /// The windowed rates, quantiles, and roll-up totals.
        metrics: MetricsSnapshot,
    },
    /// `status: "ok"` for `op: "trace"` — the ring of recently
    /// completed requests, oldest first.
    TraceOk {
        /// Echoed correlation id.
        id: String,
        /// The configured ring capacity.
        capacity: usize,
        /// The remembered request traces.
        requests: Vec<RequestTrace>,
    },
    /// `status: "ok"` for `op: "shutdown"`.
    ShutdownOk {
        /// Echoed correlation id.
        id: String,
    },
    /// `status: "rejected"` — any op, either version.
    Rejected {
        /// Echoed (possibly recovered) correlation id.
        id: String,
        /// The rejection payload.
        rejection: Rejection,
    },
}

/// A typed rejection: the reason, human-readable detail, and — on v2
/// load sheds — the retry hint.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct Rejection {
    /// The typed reason (`queue_full`, `over_quota`,
    /// `deadline_exceeded`, `bad_request`, `shutting_down`,
    /// `internal`).
    pub reason: String,
    /// Human-readable detail.
    pub detail: String,
    /// v2 shed hint: when to retry, in milliseconds.
    pub retry_after_ms: Option<u64>,
    /// v2 shed hint: the client's queued + in-flight depth at shed
    /// time.
    pub client_queue_depth: Option<usize>,
}

/// One successfully mapped request, as the typed API returns it.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct Mapped {
    /// LUTs in the mapped circuit.
    pub luts: usize,
    /// LUT levels on the longest path.
    pub depth: usize,
    /// Warm-cache generation that served this request.
    pub cache_generation: u64,
    /// Server-measured execution time in nanoseconds.
    pub run_ns: u64,
    /// The mapped netlist (BLIF, model `mapped`), byte-identical to
    /// offline `chortle-map` for the same parameters.
    pub netlist: String,
    /// The embedded per-request telemetry report, re-serialized.
    pub report_json: String,
    /// The request's `trace_id`, echoed verbatim (empty when the
    /// request carried none).
    pub trace_id: String,
}

/// Outcome of [`Client::map`] — also the per-entry shape inside
/// [`BatchReply::Results`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum MapReply {
    /// The request mapped.
    Mapped(Mapped),
    /// The request was rejected (shed, deadline, malformed BLIF, …).
    Rejected(Rejection),
}

/// Outcome of [`Client::map_batch`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum BatchReply {
    /// The frame was accepted; per-request outcomes in request order
    /// (individual entries may still be rejections).
    Results(Vec<MapReply>),
    /// The whole frame was rejected (malformed, over the batch limit,
    /// shutdown).
    Rejected(Rejection),
}

/// Outcome of [`Client::hello`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum HelloReply {
    /// The server introduced itself.
    Hello {
        /// Protocol versions the server accepts, oldest first.
        versions: Vec<String>,
        /// Per-client quota of queued + in-flight requests.
        quota: usize,
        /// Global admission queue capacity.
        queue_depth: usize,
        /// Maximum requests per `map_batch` frame.
        batch_limit: usize,
        /// Maximum bytes of one request frame.
        max_frame_bytes: usize,
    },
    /// The handshake was rejected (e.g. sent over v1).
    Rejected(Rejection),
}

/// Outcome of [`Client::flush`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum FlushReply {
    /// The warm cache was discarded; its generation bumped.
    Flushed {
        /// The new (post-flush) cache generation.
        cache_generation: u64,
    },
    /// The flush was rejected.
    Rejected(Rejection),
}

/// Outcome of [`Client::stats`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum StatsReply {
    /// The live introspection snapshot.
    Stats {
        /// Current cache generation.
        cache_generation: u64,
        /// Whole seconds since the server started.
        uptime_s: u64,
        /// Jobs queued at the moment of the snapshot.
        queue_depth: usize,
        /// The deepest the admission queue has ever been.
        queue_high_water: usize,
        /// Completed-request traces evicted from the bounded
        /// `op: "trace"` ring (`None` on v1 — its shape is frozen).
        trace_dropped: Option<u64>,
        /// Warm-cache entry count and lookup tallies (hit rate via
        /// [`WarmStats::hit_rate`]).
        warm: WarmStats,
        /// The aggregate server report, re-serialized.
        report_json: String,
    },
    /// The request was rejected.
    Rejected(Rejection),
}

/// Outcome of [`Client::metrics`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum MetricsReply {
    /// The sliding-window metrics snapshot.
    Metrics(MetricsSnapshot),
    /// The request was rejected (e.g. sent over v1 — the op is
    /// v2-only).
    Rejected(Rejection),
}

/// Outcome of [`Client::trace`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum TraceReply {
    /// The recent-request ring.
    Trace {
        /// The configured ring capacity.
        capacity: usize,
        /// The remembered request traces, oldest first.
        requests: Vec<RequestTrace>,
    },
    /// The request was rejected.
    Rejected(Rejection),
}

/// Outcome of [`Client::shutdown`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ShutdownReply {
    /// The server acknowledged and is draining.
    Draining,
    /// The request was rejected.
    Rejected(Rejection),
}

/// Parses the `"cache"` object of a `stats` response into the typed
/// tallies.
fn parse_warm_stats(tiers: &Value) -> Result<WarmStats, String> {
    let field = |key: &str| -> Result<u64, String> {
        tiers
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("stats \"cache\" is missing integer field {key:?}"))
    };
    Ok(WarmStats {
        shapes: field("shapes")? as usize,
        hits: field("hits")?,
        misses: field("misses")?,
        ..WarmStats::default()
    })
}

/// Parses one response line (either protocol version) into a
/// [`Response`].
///
/// # Errors
///
/// Returns a description of the first deviation when the line is not a
/// well-formed `chortle-serve` response.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let value = json::parse(line).map_err(|e| format!("invalid JSON in response: {e}"))?;
    let proto = value
        .get("proto")
        .and_then(Value::as_str)
        .ok_or("response is missing string field \"proto\"")?;
    if !PROTOCOLS.contains(&proto) {
        return Err(format!("unexpected protocol {proto:?}"));
    }
    let str_field = |key: &str| -> Result<String, String> {
        value
            .get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("response is missing string field {key:?}"))
    };
    let u64_field = |key: &str| -> Result<u64, String> {
        value
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("response is missing integer field {key:?}"))
    };
    let id = str_field("id")?;
    match str_field("status")?.as_str() {
        "rejected" => Ok(Response::Rejected {
            id,
            rejection: parse_rejection(&value)?,
        }),
        "ok" => match str_field("op")?.as_str() {
            // map_design answers carry the identical payload shape; the
            // echoed id (and the sequential netlist) tell them apart.
            "map" | "map_design" => {
                let m = parse_mapped(&value, "response")?;
                Ok(Response::MapOk {
                    id,
                    luts: m.luts,
                    depth: m.depth,
                    cache_generation: m.cache_generation,
                    run_ns: m.run_ns,
                    netlist: m.netlist,
                    report_json: m.report_json,
                    trace_id: m.trace_id,
                })
            }
            "map_batch" => Ok(Response::BatchOk {
                id,
                results: parse_batch_results(&value)?,
            }),
            "hello" => {
                let versions = value
                    .get("versions")
                    .and_then(Value::as_array)
                    .ok_or("hello response is missing the \"versions\" array")?
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| "hello \"versions\" entries must be strings".to_owned())
                    })
                    .collect::<Result<Vec<String>, String>>()?;
                Ok(Response::HelloOk {
                    id,
                    versions,
                    quota: u64_field("quota")? as usize,
                    queue_depth: u64_field("queue")? as usize,
                    batch_limit: u64_field("batch_limit")? as usize,
                    max_frame_bytes: u64_field("max_frame_bytes")? as usize,
                })
            }
            "flush" => Ok(Response::FlushOk {
                id,
                cache_generation: u64_field("cache_generation")?,
            }),
            "stats" => Ok(Response::StatsOk {
                id,
                cache_generation: u64_field("cache_generation")?,
                uptime_s: u64_field("uptime_s")?,
                queue_depth: u64_field("queue_depth")? as usize,
                queue_high_water: u64_field("queue_high_water")? as usize,
                trace_dropped: value.get("trace_dropped").and_then(Value::as_u64),
                warm: parse_warm_stats(value.get("cache").ok_or("response is missing \"cache\"")?)?,
                report_json: value
                    .get("report")
                    .map(Value::to_json)
                    .ok_or("response is missing \"report\"")?,
            }),
            "metrics" => Ok(Response::MetricsOk {
                id,
                metrics: parse_metrics(&value)?,
            }),
            "trace" => Ok(Response::TraceOk {
                id,
                capacity: u64_field("capacity")? as usize,
                requests: parse_trace_entries(&value)?,
            }),
            "shutdown" => Ok(Response::ShutdownOk { id }),
            other => Err(format!("unknown response op {other:?}")),
        },
        other => Err(format!("unknown status {other:?}")),
    }
}

/// Parses a rejection body — the top-level `status: "rejected"` shape
/// and the per-entry batch shape are identical.
fn parse_rejection(value: &Value) -> Result<Rejection, String> {
    let text = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("rejection is missing string field {key:?}"))
    };
    Ok(Rejection {
        reason: text("reason")?,
        detail: text("detail")?,
        retry_after_ms: value.get("retry_after_ms").and_then(Value::as_u64),
        client_queue_depth: value
            .get("client_queue_depth")
            .and_then(Value::as_u64)
            .map(|v| v as usize),
    })
}

fn parse_batch_results(value: &Value) -> Result<Vec<MapReply>, String> {
    let items = value
        .get("results")
        .and_then(Value::as_array)
        .ok_or("batch response is missing the \"results\" array")?;
    items
        .iter()
        .map(|entry| {
            let status = entry
                .get("status")
                .and_then(Value::as_str)
                .ok_or("batch entry is missing string field \"status\"")?;
            match status {
                "rejected" => Ok(MapReply::Rejected(parse_rejection(entry)?)),
                "ok" => Ok(MapReply::Mapped(parse_mapped(entry, "batch entry")?)),
                other => Err(format!("unknown batch entry status {other:?}")),
            }
        })
        .collect()
}

/// Parses a mapped payload: the body of a `map`/`map_design` response
/// or an `ok` entry of a `map_batch` response, which carry the same
/// fields. `what` names the container in error messages.
fn parse_mapped(value: &Value, what: &str) -> Result<Mapped, String> {
    let number = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{what} is missing integer field {key:?}"))
    };
    Ok(Mapped {
        luts: number("luts")? as usize,
        depth: number("depth")? as usize,
        cache_generation: number("cache_generation")?,
        run_ns: number("run_ns")?,
        netlist: value
            .get("netlist")
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("{what} is missing string field \"netlist\""))?,
        report_json: value
            .get("report")
            .map(Value::to_json)
            .ok_or_else(|| format!("{what} is missing \"report\""))?,
        trace_id: optional_trace_id(value),
    })
}

/// The optional `trace_id` echo — empty when the request carried none
/// (the server elides the key entirely then).
fn optional_trace_id(value: &Value) -> String {
    value
        .get("trace_id")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_owned()
}

/// Parses the windowed-metrics fragment of a v2 `metrics` response.
fn parse_metrics(value: &Value) -> Result<MetricsSnapshot, String> {
    let int = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("metrics response is missing integer field {key:?}"))
    };
    let float = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metrics response is missing number field {key:?}"))
    };
    let nested = |object: &str, key: &str| {
        value
            .get(object)
            .and_then(|o| o.get(key))
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("metrics response is missing \"{object}.{key}\""))
    };
    Ok(MetricsSnapshot {
        window_s: int("window_s")?,
        seconds: int("seconds")?,
        qps: float("qps")?,
        shed_rate: float("shed_rate")?,
        cache_hit_rate: float("cache_hit_rate")?,
        p50_ns: int("p50_ns")?,
        p95_ns: int("p95_ns")?,
        p99_ns: int("p99_ns")?,
        window_accepted: nested("window", "accepted")?,
        window_completed: nested("window", "completed")?,
        window_shed: nested("window", "shed")?,
        cumulative_accepted: nested("cumulative", "accepted")?,
        cumulative_completed: nested("cumulative", "completed")?,
        cumulative_shed: nested("cumulative", "shed")?,
    })
}

fn parse_trace_entries(value: &Value) -> Result<Vec<RequestTrace>, String> {
    let items = value
        .get("requests")
        .and_then(Value::as_array)
        .ok_or("trace response is missing the \"requests\" array")?;
    items
        .iter()
        .map(|e| {
            let text = |key: &str| {
                e.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("trace entry is missing string field {key:?}"))
            };
            let number = |key: &str| {
                e.get(key)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("trace entry is missing integer field {key:?}"))
            };
            Ok(RequestTrace {
                id: text("id")?,
                outcome: text("outcome")?,
                queue_ns: number("queue_ns")?,
                run_ns: number("run_ns")?,
                luts: number("luts")? as usize,
                depth: number("depth")? as usize,
                trace_id: optional_trace_id(e),
            })
        })
        .collect()
}

fn mapped_from(response: Response) -> io::Result<MapReply> {
    match response {
        Response::MapOk {
            luts,
            depth,
            cache_generation,
            run_ns,
            netlist,
            report_json,
            trace_id,
            ..
        } => Ok(MapReply::Mapped(Mapped {
            luts,
            depth,
            cache_generation,
            run_ns,
            netlist,
            report_json,
            trace_id,
        })),
        Response::Rejected { rejection, .. } => Ok(MapReply::Rejected(rejection)),
        other => Err(unexpected("map", &other)),
    }
}

fn unexpected(op: &str, response: &Response) -> io::Error {
    io::Error::other(format!(
        "server answered op \"{op}\" with an unrelated response: {response:?}"
    ))
}

/// A blocking connection to a running `chortle-serve` daemon. One
/// request/response round trip at a time; pipeline with
/// [`Client::send_line`] + [`Client::recv_response`], or open several
/// clients for concurrency.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    version: ProtocolVersion,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7643"`) speaking protocol
    /// v2.
    ///
    /// # Errors
    ///
    /// Propagates the connection failure.
    pub fn connect(addr: &str) -> io::Result<Client> {
        Client::connect_versioned(addr, ProtocolVersion::V2)
    }

    /// Connects speaking a specific protocol version — v1 keeps old
    /// deployments testable against new servers.
    ///
    /// # Errors
    ///
    /// Propagates the connection failure.
    pub fn connect_versioned(addr: &str, version: ProtocolVersion) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Request/response over localhost: disable Nagle so small
        // request lines are not held back waiting for delayed ACKs.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            version,
        })
    }

    /// The protocol version this client renders requests in.
    #[must_use]
    pub fn version(&self) -> ProtocolVersion {
        self.version
    }

    /// Writes one request line without waiting for the response —
    /// pipelining building block.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        self.writer.flush()
    }

    /// Reads and parses the next response line — pipelining building
    /// block.
    ///
    /// # Errors
    ///
    /// I/O failures, EOF, and malformed response lines.
    pub fn recv_response(&mut self) -> io::Result<Response> {
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        parse_response(response.trim_end()).map_err(io::Error::other)
    }

    fn roundtrip(&mut self, line: &str) -> io::Result<Response> {
        self.send_line(line)?;
        self.recv_response()
    }

    /// Maps one netlist.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed or unrelated response lines; a
    /// rejection is a [`MapReply::Rejected`] value, not an error.
    pub fn map(&mut self, id: &str, req: &MapRequest) -> io::Result<MapReply> {
        let response = self.roundtrip(&render_map_request(self.version, id, req))?;
        mapped_from(response)
    }

    /// Maps one sequential design (`op: "map_design"`, v2 only — a v1
    /// client gets a protocol rejection back from the server). The
    /// request's `design` flag is forced on; every other knob is taken
    /// as given.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed or unrelated response lines; a
    /// rejection is a [`MapReply::Rejected`] value, not an error.
    pub fn map_design(&mut self, id: &str, req: &MapRequest) -> io::Result<MapReply> {
        let mut req = req.clone();
        req.design = true;
        let response = self.roundtrip(&render_map_request(self.version, id, &req))?;
        mapped_from(response)
    }

    /// Maps many netlists in one `map_batch` frame (v2 only — a v1
    /// client gets a protocol rejection back from the server).
    ///
    /// # Errors
    ///
    /// I/O failures and malformed or unrelated response lines.
    pub fn map_batch(&mut self, id: &str, requests: &[MapRequest]) -> io::Result<BatchReply> {
        let response = self.roundtrip(&render_batch_request(id, requests))?;
        match response {
            Response::BatchOk { results, .. } => Ok(BatchReply::Results(results)),
            Response::Rejected { rejection, .. } => Ok(BatchReply::Rejected(rejection)),
            other => Err(unexpected("map_batch", &other)),
        }
    }

    /// Performs the v2 version-negotiation handshake.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed or unrelated response lines.
    pub fn hello(&mut self, id: &str) -> io::Result<HelloReply> {
        let line = render_admin_request(self.version, id, &Op::Hello);
        match self.roundtrip(&line)? {
            Response::HelloOk {
                versions,
                quota,
                queue_depth,
                batch_limit,
                max_frame_bytes,
                ..
            } => Ok(HelloReply::Hello {
                versions,
                quota,
                queue_depth,
                batch_limit,
                max_frame_bytes,
            }),
            Response::Rejected { rejection, .. } => Ok(HelloReply::Rejected(rejection)),
            other => Err(unexpected("hello", &other)),
        }
    }

    /// Discards the server's warm cache.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed or unrelated response lines.
    pub fn flush(&mut self, id: &str) -> io::Result<FlushReply> {
        let line = render_admin_request(self.version, id, &Op::Flush);
        match self.roundtrip(&line)? {
            Response::FlushOk {
                cache_generation, ..
            } => Ok(FlushReply::Flushed { cache_generation }),
            Response::Rejected { rejection, .. } => Ok(FlushReply::Rejected(rejection)),
            other => Err(unexpected("flush", &other)),
        }
    }

    /// Fetches the live introspection snapshot.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed or unrelated response lines.
    pub fn stats(&mut self, id: &str) -> io::Result<StatsReply> {
        let line = render_admin_request(self.version, id, &Op::Stats);
        match self.roundtrip(&line)? {
            Response::StatsOk {
                cache_generation,
                uptime_s,
                queue_depth,
                queue_high_water,
                trace_dropped,
                warm,
                report_json,
                ..
            } => Ok(StatsReply::Stats {
                cache_generation,
                uptime_s,
                queue_depth,
                queue_high_water,
                trace_dropped,
                warm,
                report_json,
            }),
            Response::Rejected { rejection, .. } => Ok(StatsReply::Rejected(rejection)),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Fetches the sliding-window metrics snapshot (v2 only — a v1
    /// client gets a protocol rejection back from the server).
    ///
    /// # Errors
    ///
    /// I/O failures and malformed or unrelated response lines.
    pub fn metrics(&mut self, id: &str) -> io::Result<MetricsReply> {
        let line = render_admin_request(self.version, id, &Op::Metrics);
        match self.roundtrip(&line)? {
            Response::MetricsOk { metrics, .. } => Ok(MetricsReply::Metrics(metrics)),
            Response::Rejected { rejection, .. } => Ok(MetricsReply::Rejected(rejection)),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Fetches the recent-request trace ring.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed or unrelated response lines.
    pub fn trace(&mut self, id: &str) -> io::Result<TraceReply> {
        let line = render_admin_request(self.version, id, &Op::Trace);
        match self.roundtrip(&line)? {
            Response::TraceOk {
                capacity, requests, ..
            } => Ok(TraceReply::Trace { capacity, requests }),
            Response::Rejected { rejection, .. } => Ok(TraceReply::Rejected(rejection)),
            other => Err(unexpected("trace", &other)),
        }
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed or unrelated response lines.
    pub fn shutdown(&mut self, id: &str) -> io::Result<ShutdownReply> {
        let line = render_admin_request(self.version, id, &Op::Shutdown);
        match self.roundtrip(&line)? {
            Response::ShutdownOk { .. } => Ok(ShutdownReply::Draining),
            Response::Rejected { rejection, .. } => Ok(ShutdownReply::Rejected(rejection)),
            other => Err(unexpected("shutdown", &other)),
        }
    }

    /// Sends a raw request line verbatim and parses the wire response
    /// (for protocol tests).
    ///
    /// # Errors
    ///
    /// I/O failures and malformed response lines.
    pub fn send_raw(&mut self, line: &str) -> io::Result<Response> {
        self.roundtrip(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{
        render_batch_ok, render_hello_ok, render_map_ok, render_rejected, BatchItem, MapPayload,
        RejectReason, ServerLimits, ShedHint,
    };
    use ProtocolVersion::{V1, V2};

    fn payload() -> MapPayload {
        MapPayload {
            luts: 9,
            depth: 3,
            cache_generation: 2,
            run_ns: 5_000,
            netlist: ".model mapped\n.end\n".into(),
            report_json: "{\"a\":1}".into(),
            trace_id: String::new(),
        }
    }

    #[test]
    fn parses_rendered_responses_both_versions() {
        for version in [V1, V2] {
            let ok = render_map_ok(version, "q", &payload());
            match parse_response(&ok).expect("parses") {
                Response::MapOk {
                    id,
                    luts,
                    depth,
                    cache_generation,
                    run_ns,
                    netlist,
                    report_json,
                    trace_id,
                } => {
                    assert_eq!((id.as_str(), luts, depth, cache_generation), ("q", 9, 3, 2));
                    assert_eq!(run_ns, 5_000);
                    assert_eq!(netlist, ".model mapped\n.end\n");
                    assert_eq!(report_json, "{\"a\":1}");
                    assert_eq!(trace_id, "", "no trace_id sent, none echoed");
                }
                other => panic!("expected MapOk, got {other:?}"),
            }
        }
        let tiers = WarmStats {
            shapes: 6,
            hits: 8,
            misses: 2,
            ..WarmStats::default()
        };
        let gauges = crate::proto::StatsGauges {
            cache_generation: 1,
            uptime_s: 9,
            queue_depth: 0,
            queue_high_water: 4,
            trace_dropped: 0,
        };
        let stats = crate::proto::render_stats_ok(V1, "s", &gauges, &tiers, "{\"a\":1}");
        match parse_response(&stats).expect("parses") {
            Response::StatsOk {
                uptime_s,
                queue_depth,
                queue_high_water,
                warm,
                ..
            } => {
                assert_eq!((uptime_s, queue_depth, queue_high_water), (9, 0, 4));
                assert_eq!(warm, tiers);
                assert!((warm.hit_rate() - 0.8).abs() < 1e-12);
            }
            other => panic!("expected StatsOk, got {other:?}"),
        }
        let ring = [RequestTrace {
            id: "m7".into(),
            outcome: "deadline_exceeded".into(),
            queue_ns: 10,
            run_ns: 20,
            luts: 0,
            depth: 0,
            trace_id: "corr-7".into(),
        }];
        let trace = crate::proto::render_trace_ok(V2, "t", 4, &ring);
        match parse_response(&trace).expect("parses") {
            Response::TraceOk {
                capacity, requests, ..
            } => {
                assert_eq!(capacity, 4);
                assert_eq!(requests, ring);
            }
            other => panic!("expected TraceOk, got {other:?}"),
        }
        assert!(parse_response("{}").is_err());
    }

    #[test]
    fn parses_map_design_responses_as_map_ok() {
        let ok = crate::proto::render_map_design_ok("d", &payload());
        match parse_response(&ok).expect("parses") {
            Response::MapOk { id, luts, .. } => assert_eq!((id.as_str(), luts), ("d", 9)),
            other => panic!("expected MapOk, got {other:?}"),
        }
    }

    #[test]
    fn parses_v1_rejections_without_hints() {
        let rej = render_rejected(V1, "r", RejectReason::DeadlineExceeded, "too slow", None);
        match parse_response(&rej).expect("parses") {
            Response::Rejected { id, rejection } => {
                assert_eq!(id, "r");
                assert_eq!(rejection.reason, "deadline_exceeded");
                assert_eq!(rejection.detail, "too slow");
                assert_eq!(rejection.retry_after_ms, None);
                assert_eq!(rejection.client_queue_depth, None);
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn parses_v2_rejections_with_hints() {
        let hint = ShedHint {
            retry_after_ms: 25,
            client_queue_depth: 8,
        };
        let rej = render_rejected(V2, "r", RejectReason::OverQuota, "busy", Some(&hint));
        match parse_response(&rej).expect("parses") {
            Response::Rejected { rejection, .. } => {
                assert_eq!(rejection.reason, "over_quota");
                assert_eq!(rejection.retry_after_ms, Some(25));
                assert_eq!(rejection.client_queue_depth, Some(8));
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn parses_batch_and_hello_responses() {
        let frame = render_batch_ok(
            "b",
            &[
                BatchItem::Mapped(payload()),
                BatchItem::Rejected {
                    reason: RejectReason::QueueFull,
                    detail: "full".into(),
                    hint: Some(ShedHint {
                        retry_after_ms: 7,
                        client_queue_depth: 3,
                    }),
                },
            ],
        );
        match parse_response(&frame).expect("parses") {
            Response::BatchOk { id, results } => {
                assert_eq!(id, "b");
                assert_eq!(results.len(), 2);
                match &results[0] {
                    MapReply::Mapped(m) => assert_eq!((m.luts, m.depth), (9, 3)),
                    other => panic!("expected Mapped, got {other:?}"),
                }
                match &results[1] {
                    MapReply::Rejected(r) => {
                        assert_eq!(r.reason, "queue_full");
                        assert_eq!(r.retry_after_ms, Some(7));
                    }
                    other => panic!("expected Rejected, got {other:?}"),
                }
            }
            other => panic!("expected BatchOk, got {other:?}"),
        }
        let hello = render_hello_ok(
            "h",
            &ServerLimits {
                quota: 8,
                queue_depth: 64,
                batch_limit: 32,
                max_frame_bytes: 4096,
            },
        );
        match parse_response(&hello).expect("parses") {
            Response::HelloOk {
                versions,
                quota,
                queue_depth,
                batch_limit,
                max_frame_bytes,
                ..
            } => {
                assert_eq!(versions, PROTOCOLS);
                assert_eq!((quota, queue_depth, batch_limit), (8, 64, 32));
                assert_eq!(max_frame_bytes, 4096);
            }
            other => panic!("expected HelloOk, got {other:?}"),
        }
    }
}
