//! Integration tests for the `chortle-serve` runtime: byte-identity
//! with the offline pipeline (v1, v2, and batched), deadlines, fair
//! admission with retry hints, the warm cache, and graceful shutdown —
//! all against a real in-process TCP server.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;

use chortle::{CacheMode, Objective};
use chortle_circuits::{alu, benchmark};
use chortle_netlist::write_blif;
use chortle_server::{
    parse_response, proto, Client, FlushReply, HelloReply, MapReply, MapRequest, Mapped,
    MetricsReply, ProtocolVersion, Response, ServeOptions, Server, ServerSummary, ShutdownReply,
    StatsReply, TraceReply,
};

/// Starts a server on an ephemeral port; returns its address and the
/// thread that will yield the final summary after shutdown.
fn start(options: ServeOptions) -> (String, thread::JoinHandle<ServerSummary>) {
    let server = Server::bind(&options).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let run = thread::spawn(move || server.run());
    (addr, run)
}

fn request(blif: &str) -> MapRequest {
    MapRequest {
        blif: blif.to_owned(),
        jobs: 1,
        ..MapRequest::default()
    }
}

/// The offline ground truth: the same parse → optimize → map → render
/// pipeline the CLI runs, at `jobs: 1` with the cache off.
fn offline(blif: &str, k: usize, objective: Objective, optimize: bool) -> String {
    let parsed = chortle_netlist::parse_blif(blif).expect("test circuit parses");
    let network = if optimize {
        chortle_logic_opt::optimize(&parsed).expect("optimizes").0
    } else {
        parsed
    };
    let options = chortle::MapOptions::builder(k)
        .objective(objective)
        .cache(CacheMode::Off)
        .build()
        .expect("valid options");
    let mapping = chortle::map_network(&network, &options).expect("maps");
    chortle_netlist::write_lut_blif(&network, &mapping.circuit, "mapped")
}

fn expect_mapped(reply: MapReply) -> Mapped {
    match reply {
        MapReply::Mapped(mapped) => mapped,
        other => panic!("expected Mapped, got {other:?}"),
    }
}

fn shut_down(addr: &str, run: thread::JoinHandle<ServerSummary>) -> ServerSummary {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    match client.shutdown("bye").expect("shutdown acked") {
        ShutdownReply::Draining => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    run.join().expect("server thread exits cleanly")
}

/// Writes `frames` as one pipelined burst (a single `write` call, so the
/// server sees them together) and reads exactly `expect` response lines,
/// parsed and indexed by id.
fn burst(stream: &TcpStream, frames: &[String], expect: usize) -> BTreeMap<String, Response> {
    let mut writer = stream.try_clone().expect("clone stream");
    let mut bytes = String::new();
    for frame in frames {
        bytes.push_str(frame);
        bytes.push('\n');
    }
    writer.write_all(bytes.as_bytes()).expect("write burst");
    writer.flush().expect("flush burst");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let lines = (0..expect).map(|_| {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed before answering every frame");
        line
    });
    by_id(lines)
}

/// Response lines parsed and indexed by id; each id must answer once.
fn by_id(lines: impl IntoIterator<Item = String>) -> BTreeMap<String, Response> {
    let mut responses = BTreeMap::new();
    for line in lines {
        let response = parse_response(line.trim_end()).expect("well-formed response");
        let id = match &response {
            Response::MapOk { id, .. }
            | Response::BatchOk { id, .. }
            | Response::HelloOk { id, .. }
            | Response::FlushOk { id, .. }
            | Response::StatsOk { id, .. }
            | Response::TraceOk { id, .. }
            | Response::ShutdownOk { id }
            | Response::Rejected { id, .. } => id.clone(),
            other => panic!("unknown response shape {other:?}"),
        };
        let prior = responses.insert(id.clone(), response);
        assert!(prior.is_none(), "id {id:?} answered more than once");
    }
    responses
}

#[test]
fn responses_are_byte_identical_to_the_offline_pipeline() {
    let circuits: Vec<(&str, String)> = vec![
        ("count", write_blif(&benchmark("count").unwrap(), "count")),
        ("frg1", write_blif(&benchmark("frg1").unwrap(), "frg1")),
        ("alu8", write_blif(&alu(8), "alu8")),
    ];
    let (addr, run) = start(ServeOptions::default());
    let mut client = Client::connect(&addr).expect("connect");

    for (name, blif) in &circuits {
        // The identity property: every (jobs, cache) combination — and a
        // warm-cache repeat — produces the same bytes as the offline
        // jobs=1/cache-off pipeline.
        let baseline = offline(blif, 4, Objective::Area, true);
        let mut sent = 0;
        for jobs in [1, 4] {
            for cache in [CacheMode::Off, CacheMode::Tree, CacheMode::Shared] {
                let mut req = request(blif);
                req.jobs = jobs;
                req.cache = cache;
                let id = format!("{name}-j{jobs}-{cache:?}");
                let mapped = expect_mapped(client.map(&id, &req).expect("roundtrip"));
                assert_eq!(
                    mapped.netlist, baseline,
                    "{id} diverged from the offline pipeline"
                );
                sent += 1;
            }
        }
        assert_eq!(sent, 6);

        // Warm repeat (shared cache already populated by the loop above).
        let mapped = expect_mapped(
            client
                .map(&format!("{name}-warm"), &request(blif))
                .expect("roundtrip"),
        );
        assert_eq!(mapped.netlist, baseline, "{name}: warm-cache run diverged");

        // A different option mix, to show identity is not k=4-specific.
        let variant = offline(blif, 5, Objective::Depth, false);
        let mut req = request(blif);
        req.k = 5;
        req.objective = Objective::Depth;
        req.optimize = false;
        let mapped = expect_mapped(client.map(&format!("{name}-k5"), &req).expect("roundtrip"));
        assert_eq!(
            mapped.netlist, variant,
            "{name}: k=5/depth/no-optimize diverged"
        );
        assert!(mapped.luts > 0 && mapped.depth > 0);
    }

    let summary = shut_down(&addr, run);
    assert_eq!(summary.report.counter("serve.completed"), Some(24));
    assert_eq!(summary.report.counter("serve.accepted"), Some(24));
    assert_eq!(summary.report.counter("serve.admission.admitted"), Some(24));
}

#[test]
fn mixed_v1_and_v2_sessions_share_one_connection_and_identical_bytes() {
    let blif = write_blif(&benchmark("count").unwrap(), "count");
    let baseline = offline(&blif, 4, Objective::Area, true);
    let (addr, run) = start(ServeOptions::default());

    // One connection, one pipelined write, five frames across both
    // protocol versions: the server answers each in the version it was
    // asked in, and every netlist matches the offline pipeline.
    let stream = TcpStream::connect(&addr).expect("connect");
    let frames = vec![
        proto::render_map_request(ProtocolVersion::V1, "old-map", &request(&blif)),
        proto::render_map_request(ProtocolVersion::V2, "new-map", &request(&blif)),
        proto::render_batch_request("batch", &[request(&blif), request(&blif)]),
        proto::render_admin_request(ProtocolVersion::V2, "hi", &proto::Op::Hello),
        proto::render_admin_request(ProtocolVersion::V1, "old-stats", &proto::Op::Stats),
    ];
    let responses = burst(&stream, &frames, 5);

    match &responses["old-map"] {
        Response::MapOk { netlist, .. } => assert_eq!(netlist, &baseline, "v1 map diverged"),
        other => panic!("expected MapOk, got {other:?}"),
    }
    match &responses["new-map"] {
        Response::MapOk { netlist, .. } => assert_eq!(netlist, &baseline, "v2 map diverged"),
        other => panic!("expected MapOk, got {other:?}"),
    }
    match &responses["batch"] {
        Response::BatchOk { results, .. } => {
            assert_eq!(results.len(), 2);
            for (i, result) in results.iter().enumerate() {
                match result {
                    MapReply::Mapped(m) => {
                        assert_eq!(m.netlist, baseline, "batch entry {i} diverged");
                    }
                    other => panic!("expected Mapped for entry {i}, got {other:?}"),
                }
            }
        }
        other => panic!("expected BatchOk, got {other:?}"),
    }
    match &responses["hi"] {
        Response::HelloOk {
            versions,
            quota,
            queue_depth,
            batch_limit,
            ..
        } => {
            assert_eq!(versions, &["chortle-serve/v1", "chortle-serve/v2"]);
            assert_eq!((*quota, *queue_depth, *batch_limit), (8, 64, 64));
        }
        other => panic!("expected HelloOk, got {other:?}"),
    }
    match &responses["old-stats"] {
        Response::StatsOk { report_json, .. } => {
            chortle_telemetry::schema::validate_report(report_json).expect("schema-valid");
        }
        other => panic!("expected StatsOk, got {other:?}"),
    }

    let summary = shut_down(&addr, run);
    assert_eq!(summary.report.counter("serve.completed"), Some(4));
    assert_eq!(summary.report.counter("serve.batch_frames"), Some(1));
    assert_eq!(summary.report.counter("serve.batch_requests"), Some(2));
    assert_eq!(summary.report.counter("serve.hello_requests"), Some(1));
}

#[test]
fn mixed_session_responses_carry_the_request_version_on_the_wire() {
    let blif = write_blif(&benchmark("count").unwrap(), "count");
    let (addr, run) = start(ServeOptions::default());
    let stream = TcpStream::connect(&addr).expect("connect");
    let frames = vec![
        proto::render_map_request(ProtocolVersion::V1, "v1", &request(&blif)),
        proto::render_map_request(ProtocolVersion::V2, "v2", &request(&blif)),
    ];

    // Read raw lines (not parsed) to pin the wire-level `proto` tag.
    let mut writer = stream.try_clone().expect("clone");
    let mut bytes = String::new();
    for frame in &frames {
        bytes.push_str(frame);
        bytes.push('\n');
    }
    writer.write_all(bytes.as_bytes()).expect("write");
    let mut reader = BufReader::new(stream);
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        if line.contains("\"id\":\"v1\"") {
            assert!(
                line.contains("\"proto\":\"chortle-serve/v1\""),
                "v1 request answered in the wrong version: {line}"
            );
        } else {
            assert!(
                line.contains("\"proto\":\"chortle-serve/v2\""),
                "v2 request answered in the wrong version: {line}"
            );
        }
    }

    shut_down(&addr, run);
}

#[test]
fn zero_deadline_is_rejected_with_work_discarded() {
    let (addr, run) = start(ServeOptions::default());
    let mut client = Client::connect(&addr).expect("connect");
    let blif = write_blif(&alu(64), "alu64");
    let mut req = request(&blif);
    req.deadline_ms = Some(0);
    match client.map("late", &req).expect("roundtrip") {
        MapReply::Rejected(rejection) => {
            assert_eq!(rejection.reason, "deadline_exceeded");
            assert!(
                rejection.detail.contains("deadline expired"),
                "{rejection:?}"
            );
        }
        other => panic!("expected deadline rejection, got {other:?}"),
    }
    // An unexpired deadline on the same connection still completes —
    // the token is per-request, not per-connection.
    let mut req = request(&write_blif(&benchmark("count").unwrap(), "count"));
    req.deadline_ms = Some(60_000);
    expect_mapped(client.map("fine", &req).expect("roundtrip"));

    let summary = shut_down(&addr, run);
    assert_eq!(summary.report.counter("serve.rejected_deadline"), Some(1));
    assert_eq!(summary.report.counter("serve.completed"), Some(1));
}

#[test]
fn overload_yields_typed_queue_full_rejections_and_no_drops() {
    // One worker, queue capacity 1, roomy quota: pipelining several slow
    // requests on one v1 connection must overflow the global queue.
    let (addr, run) = start(
        ServeOptions::builder()
            .workers(1)
            .queue_depth(1)
            .client_quota(32)
            .build(),
    );
    let blif = write_blif(&alu(96), "alu96");
    let total = 6;
    let frames: Vec<String> = (0..total)
        .map(|i| proto::render_map_request(ProtocolVersion::V1, &format!("r{i}"), &request(&blif)))
        .collect();
    let stream = TcpStream::connect(&addr).expect("connect");
    let responses = burst(&stream, &frames, total);

    let mut ok = 0usize;
    let mut queue_full = 0usize;
    for (id, response) in &responses {
        match response {
            Response::MapOk { .. } => ok += 1,
            Response::Rejected { rejection, .. } => {
                assert_eq!(
                    rejection.reason, "queue_full",
                    "only overload rejections expected for {id}"
                );
                assert_eq!(
                    rejection.retry_after_ms, None,
                    "v1 rejections never carry hints"
                );
                queue_full += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(
        responses.len(),
        total,
        "every request answered exactly once"
    );
    assert_eq!(ok + queue_full, total);
    // How many slip in before the worker drains depends on scheduling;
    // the guarantees are "admitted implies completed" (ok ≥ 1 since the
    // first push always lands in the empty queue) and "overflow is a
    // typed rejection, not a hang or a drop".
    assert!(ok >= 1, "the admitted requests complete");
    assert!(queue_full >= 1, "overload must surface as queue_full");

    let summary = shut_down(&addr, run);
    assert_eq!(
        summary.report.counter("serve.rejected_queue_full"),
        Some(queue_full as u64)
    );
    assert_eq!(
        summary.report.counter("serve.admission.shed_queue_full"),
        Some(queue_full as u64)
    );
    assert_eq!(
        summary.report.counter("serve.admission.hinted"),
        None,
        "v1 sheds are never hinted"
    );
    assert_eq!(summary.report.counter("serve.completed"), Some(ok as u64));
}

#[test]
fn quota_sheds_carry_retry_hints_on_v2_but_not_v1() {
    // Quota 1: the second of two pipelined maps is over_quota while the
    // first is still queued or in flight.
    let (addr, run) = start(ServeOptions::builder().workers(1).client_quota(1).build());
    let blif = write_blif(&alu(32), "alu32");

    let v2 = TcpStream::connect(&addr).expect("connect v2");
    let frames: Vec<String> = (0..2)
        .map(|i| proto::render_map_request(ProtocolVersion::V2, &format!("a{i}"), &request(&blif)))
        .collect();
    let responses = burst(&v2, &frames, 2);
    let mut hinted = 0;
    let mut mapped = 0;
    for response in responses.values() {
        match response {
            Response::MapOk { .. } => mapped += 1,
            Response::Rejected { rejection, .. } => {
                assert_eq!(rejection.reason, "over_quota");
                assert!(
                    rejection.detail.contains("quota of 1"),
                    "detail names the quota: {rejection:?}"
                );
                let wait = rejection.retry_after_ms.expect("v2 shed carries a hint");
                assert!((1..=10_000).contains(&wait), "hint {wait}ms out of range");
                assert!(rejection.client_queue_depth.expect("depth hint") >= 1);
                hinted += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!((mapped, hinted), (1, 1));

    // The same burst over v1: the shed downgrades to the frozen v1
    // vocabulary — reason "queue_full", no hint fields.
    let v1 = TcpStream::connect(&addr).expect("connect v1");
    let frames: Vec<String> = (0..2)
        .map(|i| proto::render_map_request(ProtocolVersion::V1, &format!("b{i}"), &request(&blif)))
        .collect();
    let responses = burst(&v1, &frames, 2);
    let rejected: Vec<_> = responses
        .values()
        .filter_map(|r| match r {
            Response::Rejected { rejection, .. } => Some(rejection.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(rejected.len(), 1);
    assert_eq!(rejected[0].reason, "queue_full");
    assert_eq!(rejected[0].retry_after_ms, None);
    assert_eq!(rejected[0].client_queue_depth, None);

    let summary = shut_down(&addr, run);
    assert_eq!(
        summary.report.counter("serve.admission.shed_over_quota"),
        Some(2)
    );
    assert_eq!(summary.report.counter("serve.admission.hinted"), Some(1));
    assert_eq!(summary.report.counter("serve.rejected_queue_full"), Some(2));
}

#[test]
fn admission_is_fair_across_bursting_clients() {
    const CLIENTS: usize = 4;
    const BURST: usize = 8;
    const QUOTA: usize = 3;
    let (addr, run) = start(
        ServeOptions::builder()
            .workers(1)
            .queue_depth(64)
            .client_quota(QUOTA)
            .build(),
    );

    // Plug the single worker with a slow request so the bursts below
    // race admission, not completion.
    let plug = TcpStream::connect(&addr).expect("connect plug");
    let slow = write_blif(&alu(96), "alu96");
    {
        let mut writer = plug.try_clone().expect("clone plug");
        let mut frame = proto::render_map_request(ProtocolVersion::V2, "plug", &request(&slow));
        frame.push('\n');
        writer.write_all(frame.as_bytes()).expect("write plug");
    }
    // Wait until the worker picked the plug up (queue drained to 0).
    let mut admin = Client::connect(&addr).expect("connect admin");
    loop {
        match admin.stats("poll").expect("stats") {
            StatsReply::Stats { queue_depth: 0, .. } => break,
            StatsReply::Stats { .. } => thread::sleep(std::time::Duration::from_millis(1)),
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    // Saturating burst from every client while the worker is busy.
    let blif = write_blif(&benchmark("count").unwrap(), "count");
    let streams: Vec<TcpStream> = (0..CLIENTS)
        .map(|_| TcpStream::connect(&addr).expect("connect client"))
        .collect();
    let mut completed = Vec::new();
    for (c, stream) in streams.iter().enumerate() {
        let frames: Vec<String> = (0..BURST)
            .map(|i| {
                proto::render_map_request(
                    ProtocolVersion::V2,
                    &format!("c{c}-{i}"),
                    &request(&blif),
                )
            })
            .collect();
        let responses = burst(stream, &frames, BURST);
        assert_eq!(responses.len(), BURST, "zero loss: every id answered once");
        let mut ok = 0usize;
        let mut shed = 0usize;
        for (id, response) in &responses {
            match response {
                Response::MapOk { .. } => ok += 1,
                Response::Rejected { rejection, .. } => {
                    assert!(
                        rejection.reason == "over_quota" || rejection.reason == "queue_full",
                        "{id}: unexpected shed {rejection:?}"
                    );
                    assert!(
                        rejection.retry_after_ms.is_some(),
                        "{id}: v2 shed must carry a retry hint"
                    );
                    shed += 1;
                }
                other => panic!("{id}: unexpected response {other:?}"),
            }
        }
        assert_eq!(ok + shed, BURST, "client {c}: zero-loss invariant");
        assert!(ok >= 1, "client {c}: at least the quota head is admitted");
        completed.push(ok);
    }

    // Fairness: no client outruns another by more than the quota.
    let most = *completed.iter().max().expect("clients");
    let least = *completed.iter().min().expect("clients");
    assert!(
        most - least <= QUOTA,
        "per-client completions {completed:?} spread wider than the quota {QUOTA}"
    );

    let summary = shut_down(&addr, run);
    let total: usize = completed.iter().sum();
    // +1 for the plug request.
    assert_eq!(
        summary.report.counter("serve.completed"),
        Some(total as u64 + 1)
    );
    assert!(
        summary
            .report
            .counter("serve.coalesced_frames")
            .unwrap_or(0)
            >= 1,
        "burst rejections coalesce into shared writes"
    );
    let depth_hist = summary
        .report
        .histogram("serve.admission.client_depth")
        .expect("client-depth histogram present");
    assert_eq!(depth_hist.count() as usize, total + 1);
}

#[test]
fn flush_bumps_the_generation_and_empties_the_warm_cache() {
    let (addr, run) = start(ServeOptions::default());
    let mut client = Client::connect(&addr).expect("connect");
    let blif = write_blif(&benchmark("frg1").unwrap(), "frg1");

    let first = expect_mapped(client.map("m0", &request(&blif)).expect("roundtrip"));
    let flushed = match client.flush("f0").expect("roundtrip") {
        FlushReply::Flushed { cache_generation } => cache_generation,
        other => panic!("expected Flushed, got {other:?}"),
    };
    assert_eq!(
        flushed,
        first.cache_generation + 1,
        "flush bumps the generation"
    );
    let second = expect_mapped(client.map("m1", &request(&blif)).expect("roundtrip"));
    assert_eq!(
        second.cache_generation, flushed,
        "post-flush requests see the new generation"
    );
    assert_eq!(
        first.netlist, second.netlist,
        "flushing never changes mapping results"
    );

    let summary = shut_down(&addr, run);
    assert_eq!(summary.report.counter("serve.flushes"), Some(1));
    assert_eq!(summary.cache_generation, flushed);
}

#[test]
fn fn_cache_requests_reuse_the_functional_tier_across_requests() {
    let (addr, run) = start(ServeOptions::default());
    let mut client = Client::connect(&addr).expect("connect");
    let blif = write_blif(&benchmark("frg1").unwrap(), "frg1");

    let shared = expect_mapped(client.map("m0", &request(&blif)).expect("roundtrip"));
    let req = MapRequest {
        cache: CacheMode::Fn,
        ..request(&blif)
    };
    let first = expect_mapped(client.map("m1", &req).expect("roundtrip"));
    assert_eq!(
        first.netlist, shared.netlist,
        "the functional tier never changes the mapping"
    );
    let second = expect_mapped(client.map("m2", &req).expect("roundtrip"));
    assert_eq!(second.netlist, shared.netlist);

    match client.stats("s").expect("roundtrip") {
        StatsReply::Stats { warm, .. } => {
            assert!(warm.shapes > 0, "structural tier populated: {warm:?}");
            assert!(warm.fn_entries > 0, "functional tier populated: {warm:?}");
            assert!(
                warm.fn_hits > 0,
                "repeat fn requests replay warm functional entries: {warm:?}"
            );
            assert!(warm.hit_rate() > 0.0);
            assert!(warm.fn_hit_rate() > 0.0);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    shut_down(&addr, run);
}

#[test]
fn stats_and_trace_expose_live_introspection() {
    let (addr, run) = start(ServeOptions::builder().trace_capacity(2).build());
    let mut client = Client::connect(&addr).expect("connect");
    let blif = write_blif(&benchmark("count").unwrap(), "count");

    // Rebuild the server's run-time histogram client-side from the
    // `run_ns` echoed in each response: because both sides use the same
    // bucketing, the reconstruction must match bucket-for-bucket.
    let mut run_hist = chortle_telemetry::Histogram::new();
    for i in 0..3 {
        let mapped = expect_mapped(
            client
                .map(&format!("m{i}"), &request(&blif))
                .expect("roundtrip"),
        );
        run_hist.record(mapped.run_ns);
    }

    match client.stats("s").expect("roundtrip") {
        StatsReply::Stats {
            queue_depth,
            report_json,
            ..
        } => {
            assert_eq!(queue_depth, 0, "nothing queued between round trips");
            chortle_telemetry::schema::validate_report(&report_json).expect("schema-valid");
            for needle in [
                "\"serve.queue_ns\"",
                "\"serve.run_ns\"",
                "\"serve.admission.client_depth\"",
                "serve.stats_requests",
                "serve.admission.admitted",
            ] {
                assert!(report_json.contains(needle), "stats report lost {needle}");
            }
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    // The ring holds `trace_capacity` entries: the oldest request has
    // been evicted, the survivors arrive oldest first.
    match client.trace("t").expect("roundtrip") {
        TraceReply::Trace { capacity, requests } => {
            assert_eq!(capacity, 2);
            let ids: Vec<&str> = requests.iter().map(|r| r.id.as_str()).collect();
            assert_eq!(ids, ["m1", "m2"], "bounded ring evicts oldest first");
            for r in &requests {
                assert_eq!(r.outcome, "ok");
                assert!(r.luts > 0 && r.depth > 0);
            }
        }
        other => panic!("expected Trace, got {other:?}"),
    }

    let summary = shut_down(&addr, run);
    assert_eq!(summary.report.counter("serve.stats_requests"), Some(1));
    assert_eq!(summary.report.counter("serve.trace_requests"), Some(1));
    assert_eq!(
        summary.report.histogram("serve.run_ns"),
        Some(&run_hist),
        "echoed run_ns values rebuild the server histogram exactly"
    );
    let queue_hist = summary
        .report
        .histogram("serve.queue_ns")
        .expect("queue-wait histogram present");
    assert_eq!(queue_hist.count(), 3, "one queue-wait sample per map");
}

#[test]
fn batches_resolve_entries_independently_and_respect_the_limit() {
    let (addr, run) = start(ServeOptions::builder().batch_limit(3).build());
    let mut client = Client::connect(&addr).expect("connect");
    let count = write_blif(&benchmark("count").unwrap(), "count");
    let frg1 = write_blif(&benchmark("frg1").unwrap(), "frg1");
    let count_baseline = offline(&count, 4, Objective::Area, true);
    let frg1_baseline = offline(&frg1, 4, Objective::Area, true);

    match client.hello("hi").expect("roundtrip") {
        HelloReply::Hello { batch_limit, .. } => assert_eq!(batch_limit, 3),
        other => panic!("expected Hello, got {other:?}"),
    }

    // One good, one broken, one good: the frame succeeds as a whole and
    // the bad entry is a per-entry rejection in its slot.
    let requests = vec![
        request(&count),
        request(".model m\n.inputs a\n.outputs y\n.names\n.end\n"),
        request(&frg1),
    ];
    match client.map_batch("mixed", &requests).expect("roundtrip") {
        chortle_server::BatchReply::Results(results) => {
            assert_eq!(results.len(), 3);
            match &results[0] {
                MapReply::Mapped(m) => assert_eq!(m.netlist, count_baseline),
                other => panic!("entry 0: expected Mapped, got {other:?}"),
            }
            match &results[1] {
                MapReply::Rejected(r) => {
                    assert_eq!(r.reason, "bad_request");
                    assert!(r.detail.contains("cannot parse input"), "{r:?}");
                }
                other => panic!("entry 1: expected Rejected, got {other:?}"),
            }
            match &results[2] {
                MapReply::Mapped(m) => assert_eq!(m.netlist, frg1_baseline),
                other => panic!("entry 2: expected Mapped, got {other:?}"),
            }
        }
        other => panic!("expected Results, got {other:?}"),
    }

    // Over the limit: the whole frame is rejected before admission.
    let oversized = vec![request(&count); 4];
    match client.map_batch("big", &oversized).expect("roundtrip") {
        chortle_server::BatchReply::Rejected(rejection) => {
            assert_eq!(rejection.reason, "bad_request");
            assert!(rejection.detail.contains("batch_limit"), "{rejection:?}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    let summary = shut_down(&addr, run);
    assert_eq!(summary.report.counter("serve.batch_frames"), Some(2));
    assert_eq!(summary.report.counter("serve.batch_requests"), Some(7));
    assert_eq!(summary.report.counter("serve.completed"), Some(2));
    assert_eq!(summary.report.counter("serve.hello_requests"), Some(1));
}

#[test]
fn malformed_requests_are_rejected_as_bad_request() {
    let (addr, run) = start(ServeOptions::default());
    let mut client = Client::connect(&addr).expect("connect");

    // Protocol-level garbage, v1 and v2 violations alike.
    for raw in [
        "this is not json",
        r#"{"proto":"chortle-serve/v1","id":"x","zap":true}"#,
        r#"{"proto":"chortle-serve/v1","id":"x","op":"hello"}"#,
        r#"{"proto":"chortle-serve/v1","id":"x","op":"map","blif":".end\n","priority":3}"#,
    ] {
        match client.send_raw(raw).expect("roundtrip") {
            Response::Rejected { rejection, .. } => {
                assert_eq!(rejection.reason, "bad_request", "{raw}");
            }
            other => panic!("expected bad_request for {raw}, got {other:?}"),
        }
    }
    // BLIF that does not parse (truncated .names) and an out-of-range k
    // both map to bad_request, with the parser's own diagnostic.
    let truncated = request(".model m\n.inputs a\n.outputs y\n.names\n.end\n");
    match client.map("t", &truncated).expect("roundtrip") {
        MapReply::Rejected(rejection) => {
            assert_eq!(rejection.reason, "bad_request");
            assert!(
                rejection.detail.contains("cannot parse input"),
                "{rejection:?}"
            );
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    let mut bad_k = request(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n");
    bad_k.k = 20;
    match client.map("k", &bad_k).expect("roundtrip") {
        MapReply::Rejected(rejection) => assert_eq!(rejection.reason, "bad_request"),
        other => panic!("expected bad_request, got {other:?}"),
    }

    let summary = shut_down(&addr, run);
    assert_eq!(
        summary.report.counter("serve.rejected_bad_request"),
        Some(6)
    );
    assert_eq!(summary.report.counter("serve.completed"), None);
}

#[test]
fn shutdown_drains_refuses_new_work_and_reports_schema_valid_telemetry() {
    let (addr, run) = start(ServeOptions::default());
    let blif = write_blif(&benchmark("count").unwrap(), "count");

    // One pipelined write: map, stats, shutdown, then another map. The
    // server must answer all four — the trailing map with a typed
    // `shutting_down`, never silence (frames behind a shutdown are
    // answered, not dropped).
    let stream = TcpStream::connect(&addr).expect("connect");
    let frames = vec![
        proto::render_map_request(ProtocolVersion::V2, "before", &request(&blif)),
        proto::render_admin_request(ProtocolVersion::V2, "mid-stats", &proto::Op::Stats),
        proto::render_admin_request(ProtocolVersion::V2, "bye", &proto::Op::Shutdown),
        proto::render_map_request(ProtocolVersion::V2, "after", &request(&blif)),
    ];
    let responses = burst(&stream, &frames, 4);

    match &responses["before"] {
        Response::MapOk { .. } => {}
        other => panic!("expected MapOk, got {other:?}"),
    }
    match &responses["mid-stats"] {
        Response::StatsOk {
            report_json,
            cache_generation,
            queue_high_water,
            ..
        } => {
            assert_eq!(*cache_generation, 0);
            assert!(*queue_high_water >= 1, "the map request was queued");
            chortle_telemetry::schema::validate_report(report_json)
                .expect("mid-run stats report validates against the schema");
        }
        other => panic!("expected StatsOk, got {other:?}"),
    }
    match &responses["bye"] {
        Response::ShutdownOk { .. } => {}
        other => panic!("expected ShutdownOk, got {other:?}"),
    }
    match &responses["after"] {
        Response::Rejected { rejection, .. } => {
            assert_eq!(rejection.reason, "shutting_down");
            assert!(rejection.detail.contains("draining"), "{rejection:?}");
        }
        other => panic!("expected shutting_down, got {other:?}"),
    }

    let summary = run.join().expect("server exits");
    assert_eq!(summary.report.counter("serve.completed"), Some(1));
    assert_eq!(summary.report.counter("serve.rejected_shutdown"), Some(1));
    assert!(summary.report.counter("serve.connections").unwrap_or(0) >= 1);
    chortle_telemetry::schema::validate_report(&summary.report.to_json())
        .expect("final aggregate report validates against the schema");
}

/// A sequential design: two combinational clouds separated by a latch,
/// plus a passthrough output — the fixture the chortle design tests use.
const SEQ_DESIGN: &str = "\
.model two_clouds
.inputs a b c
.outputs z w
.latch d q re clk 0
.names a b t
11 1
.names t c d
1- 1
-1 1
.names q b z
01 1
.names a w
1 1
.end
";

#[test]
fn map_design_matches_the_offline_design_pipeline() {
    let (addr, run) = start(ServeOptions::default());
    let mut client = Client::connect(&addr).expect("connect");
    let mapped = expect_mapped(
        client
            .map_design("d1", &request(SEQ_DESIGN))
            .expect("map_design round trip"),
    );
    assert!(mapped.luts >= 1);

    // Ground truth: the same sequential pipeline run offline, with the
    // optimize pass hooked in where the CLI's `--design` path runs it.
    // The server skips per-cloud verification, which never changes the
    // output bytes.
    let (design, _) = chortle_netlist::parse_design(SEQ_DESIGN).expect("fixture parses");
    let options = chortle::MapOptions::builder(4)
        .cache(CacheMode::Off)
        .build()
        .expect("valid options");
    let mut design_opts = chortle::DesignOptions::new(options);
    design_opts.verify = false;
    design_opts.preprocess = Some(std::sync::Arc::new(|net: &chortle_netlist::Network| {
        chortle_logic_opt::optimize(net)
            .map(|(optimized, _)| optimized)
            .map_err(|e| e.to_string())
    }));
    let offline = chortle::map_design(&design, &design_opts).expect("offline design maps");
    assert_eq!(mapped.netlist, offline.netlist);
    assert_eq!((mapped.luts, mapped.depth), (offline.luts, offline.depth));

    // The assembled netlist is itself a parseable sequential design
    // with the register boundary intact.
    let (reparsed, _) =
        chortle_netlist::parse_design(&mapped.netlist).expect("mapped design re-parses");
    assert_eq!(reparsed.latches().len(), 1);

    // The embedded report carries the design.* and blif.* namespaces
    // and validates against the current schema.
    chortle_telemetry::schema::validate_report(&mapped.report_json)
        .expect("per-request design report validates against the schema");
    assert!(mapped.report_json.contains("\"design.clouds\""));
    assert!(mapped.report_json.contains("\"blif.latches\""));

    // A v1-pinned client cannot speak the op; the server says so
    // instead of silently degrading.
    let mut v1 = Client::connect_versioned(&addr, ProtocolVersion::V1).expect("connect v1");
    match v1
        .map_design("d2", &request(SEQ_DESIGN))
        .expect("v1 round trip")
    {
        MapReply::Rejected(rejection) => {
            assert_eq!(rejection.reason, "bad_request");
            assert!(
                rejection.detail.contains("chortle-serve/v2"),
                "{rejection:?}"
            );
        }
        other => panic!("expected a v1 rejection, got {other:?}"),
    }
    shut_down(&addr, run);
}

#[test]
fn trace_ids_correlate_response_ring_and_logs() {
    // Route structured logs into a test sink before the server exists,
    // so its worker-loop events are captured.
    let sink = chortle_telemetry::log::init_test_sink();
    let (addr, run) = start(ServeOptions::builder().trace_capacity(4).build());
    let mut client = Client::connect(&addr).expect("connect");
    let blif = write_blif(&benchmark("count").unwrap(), "count");

    let mut req = request(&blif);
    req.trace_id = "trace-e2e-42".to_owned();
    let mapped = expect_mapped(client.map("m1", &req).expect("roundtrip"));
    assert_eq!(
        mapped.trace_id, "trace-e2e-42",
        "the v2 response echoes the client's trace_id"
    );

    match client.trace("t").expect("roundtrip") {
        TraceReply::Trace { requests, .. } => {
            let entry = requests
                .iter()
                .find(|r| r.id == "m1")
                .expect("ring remembers the request");
            assert_eq!(
                entry.trace_id, "trace-e2e-42",
                "the op:\"trace\" ring entry carries the trace_id"
            );
        }
        other => panic!("expected Trace, got {other:?}"),
    }

    // The same correlation id appears in the request-finished log event
    // — one scan joins response, ring, and logs.
    let lines = sink.lines();
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"trace_id\":\"trace-e2e-42\"")
                && l.contains("\"target\":\"serve.request\"")),
        "a structured log event carries the trace_id: {lines:#?}"
    );
    chortle_telemetry::log::disable();
    shut_down(&addr, run);
}

#[test]
fn stats_count_trace_ring_evictions() {
    let (addr, run) = start(ServeOptions::builder().trace_capacity(1).build());
    let mut client = Client::connect(&addr).expect("connect");
    let blif = write_blif(&benchmark("count").unwrap(), "count");
    for i in 0..3 {
        expect_mapped(
            client
                .map(&format!("m{i}"), &request(&blif))
                .expect("roundtrip"),
        );
    }
    match client.stats("s").expect("roundtrip") {
        StatsReply::Stats { trace_dropped, .. } => {
            assert_eq!(
                trace_dropped,
                Some(2),
                "a capacity-1 ring evicted two of three traces"
            );
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    shut_down(&addr, run);
}

#[test]
fn metrics_window_agrees_with_cumulative_before_eviction() {
    let (addr, run) = start(ServeOptions::default());
    let mut client = Client::connect(&addr).expect("connect");
    let blif = write_blif(&benchmark("count").unwrap(), "count");
    for i in 0..4 {
        expect_mapped(
            client
                .map(&format!("m{i}"), &request(&blif))
                .expect("roundtrip"),
        );
    }
    match client.metrics("w").expect("roundtrip") {
        MetricsReply::Metrics(m) => {
            // Seconds into a 60 s window, nothing has aged out: the
            // windowed totals must equal the cumulative ones exactly.
            assert_eq!(m.window_s, 60);
            assert_eq!(m.cumulative_completed, 4);
            assert_eq!(m.window_completed, m.cumulative_completed);
            assert_eq!(m.window_accepted, m.cumulative_accepted);
            assert_eq!(m.window_shed, 0);
            assert_eq!(m.cumulative_shed, 0);
            assert!(m.qps > 0.0, "completed work yields a positive rate");
            assert!(m.p50_ns > 0 && m.p99_ns >= m.p50_ns);
        }
        other => panic!("expected Metrics, got {other:?}"),
    }

    // The op is v2-only; a v1 client gets a typed rejection.
    let mut v1 = Client::connect_versioned(&addr, ProtocolVersion::V1).expect("connect v1");
    match v1.metrics("w1").expect("v1 roundtrip") {
        MetricsReply::Rejected(rejection) => {
            assert_eq!(rejection.reason, "bad_request");
            assert!(
                rejection.detail.contains("chortle-serve/v2"),
                "{rejection:?}"
            );
        }
        other => panic!("expected a v1 rejection, got {other:?}"),
    }

    let summary = shut_down(&addr, run);
    assert_eq!(summary.report.counter("serve.metrics_requests"), Some(1));
}

#[test]
fn metrics_endpoint_serves_valid_prometheus_exposition() {
    use std::io::Read as _;

    let options = ServeOptions::builder()
        .metrics_addr(Some("127.0.0.1:0".to_owned()))
        .build();
    let server = Server::bind(&options).expect("bind ephemeral ports");
    let addr = server.local_addr().expect("bound address").to_string();
    let scrape_addr = server.metrics_addr().expect("metrics listener bound");
    let run = thread::spawn(move || server.run());

    // Seed the daemon with real traffic so the exposition has samples.
    let mut client = Client::connect(&addr).expect("connect");
    let blif = write_blif(&benchmark("count").unwrap(), "count");
    for i in 0..2 {
        expect_mapped(
            client
                .map(&format!("m{i}"), &request(&blif))
                .expect("roundtrip"),
        );
    }

    let mut scrape = TcpStream::connect(scrape_addr).expect("connect to /metrics");
    scrape
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
        .expect("write scrape request");
    let mut page = String::new();
    scrape.read_to_string(&mut page).expect("read scrape");
    assert!(page.starts_with("HTTP/1.0 200 OK\r\n"), "{page}");
    let body = page.split("\r\n\r\n").nth(1).expect("headers then body");
    chortle_telemetry::prom::validate_exposition(body)
        .expect("live scrape passes the report-check --prom validator");
    for needle in [
        "# TYPE chortle_serve_completed counter",
        "chortle_serve_completed 2",
        "# TYPE chortle_serve_run_ns summary",
        "chortle_serve_run_ns{quantile=\"0.99\"} ",
        "chortle_serve_run_ns_count 2",
        "# TYPE chortle_serve_window_qps gauge",
        "chortle_serve_uptime_s ",
    ] {
        assert!(body.contains(needle), "exposition lost {needle:?}:\n{body}");
    }

    // Any other path (or method) is a 404, and the daemon survives it.
    let mut bad = TcpStream::connect(scrape_addr).expect("connect bad path");
    bad.write_all(b"GET /other HTTP/1.0\r\n\r\n")
        .expect("write");
    let mut reply = String::new();
    bad.read_to_string(&mut reply).expect("read");
    assert!(reply.starts_with("HTTP/1.0 404"), "{reply}");

    shut_down(&addr, run);
}

#[test]
fn metrics_scrapes_sending_headers_after_a_pause_get_the_whole_page() {
    use std::io::Read as _;
    use std::time::Duration;

    let options = ServeOptions::builder()
        .metrics_addr(Some("127.0.0.1:0".to_owned()))
        .build();
    let server = Server::bind(&options).expect("bind ephemeral ports");
    let addr = server.local_addr().expect("bound address").to_string();
    let scrape_addr = server.metrics_addr().expect("metrics listener bound");
    let run = thread::spawn(move || server.run());

    // The request line, a pause well inside the daemon's 1 s scrape
    // deadline, then the headers: a daemon that answers after the request
    // line closes with the headers unread, and the kernel resets the
    // connection under the page.
    let mut scrape = TcpStream::connect(scrape_addr).expect("connect to /metrics");
    scrape
        .write_all(b"GET /metrics HTTP/1.0\r\n")
        .expect("write request line");
    thread::sleep(Duration::from_millis(100));
    // Nothing is answered before the headers end.
    scrape.set_nonblocking(true).expect("non-blocking peek");
    let early = scrape.peek(&mut [0u8; 1]);
    assert!(
        matches!(&early, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "answered before the headers ended: {early:?}"
    );
    scrape.set_nonblocking(false).expect("blocking again");
    scrape
        .write_all(b"Host: test\r\nUser-Agent: split-writes\r\n\r\n")
        .expect("write headers");
    thread::sleep(Duration::from_millis(100));
    let mut page = String::new();
    scrape
        .read_to_string(&mut page)
        .expect("the page arrives without a reset");
    assert!(page.starts_with("HTTP/1.0 200 OK\r\n"), "{page}");
    let (head, body) = page.split_once("\r\n\r\n").expect("headers then body");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .parse()
        .expect("numeric length");
    assert_eq!(body.len(), length, "the whole body arrived");
    chortle_telemetry::prom::validate_exposition(body).expect("valid exposition");

    shut_down(&addr, run);
}

/// Longest a v2 `hello` may take while another socket holds a scrape
/// open. Answered inline by the event loop it takes well under 1 ms; a
/// loop blocked on the scrape would take up to the scrape deadline.
const HELLO_BOUND: std::time::Duration = std::time::Duration::from_millis(50);

/// Starts a server with a `/metrics` listener; returns the client
/// address, the scrape address and the run thread.
fn start_with_metrics() -> (
    String,
    std::net::SocketAddr,
    thread::JoinHandle<ServerSummary>,
) {
    let options = ServeOptions::builder()
        .metrics_addr(Some("127.0.0.1:0".to_owned()))
        .build();
    let server = Server::bind(&options).expect("bind ephemeral ports");
    let addr = server.local_addr().expect("bound address").to_string();
    let scrape_addr = server.metrics_addr().expect("metrics listener bound");
    (addr, scrape_addr, thread::spawn(move || server.run()))
}

/// Asserts a v2 `hello` on `client` answers within [`HELLO_BOUND`].
fn assert_prompt_hello(client: &mut Client, what: &str) {
    let start = std::time::Instant::now();
    client.hello("h").expect("hello answered");
    let waited = start.elapsed();
    assert!(
        waited < HELLO_BOUND,
        "hello took {waited:?} while {what} (bound {HELLO_BOUND:?})"
    );
}

#[test]
fn a_stalled_scraper_does_not_delay_other_clients() {
    use std::time::Duration;

    let (addr, scrape_addr, run) = start_with_metrics();
    let mut client = Client::connect(&addr).expect("connect");
    client.hello("warm").expect("hello answered");
    // A scraper that sends its request line and then nothing.
    let mut scrape = TcpStream::connect(scrape_addr).expect("connect to /metrics");
    scrape
        .write_all(b"GET /metrics HTTP/1.0\r\n")
        .expect("write request line");
    // Long enough for the daemon to accept the scrape and block on it.
    thread::sleep(Duration::from_millis(50));
    assert_prompt_hello(&mut client, "a scraper stalled after its request line");
    drop(scrape);
    shut_down(&addr, run);
}

#[test]
fn a_trickling_scraper_does_not_delay_other_clients_and_is_cut_off() {
    use std::io::Read as _;
    use std::time::{Duration, Instant};

    let (addr, scrape_addr, run) = start_with_metrics();
    let mut client = Client::connect(&addr).expect("connect");
    client.hello("warm").expect("hello answered");
    // A scraper that never ends its headers: one byte every 20 ms, which
    // a per-read timeout would never cut off before the 8 KiB cap.
    let connected = Instant::now();
    let mut scrape = TcpStream::connect(scrape_addr).expect("connect to /metrics");
    scrape
        .write_all(b"GET /metrics HTTP/1.0\r\n")
        .expect("write request line");
    let mut writer = scrape.try_clone().expect("clone scrape socket");
    let trickle = thread::spawn(move || {
        while connected.elapsed() < Duration::from_secs(3) {
            if writer.write_all(b"X").is_err() {
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
    });
    thread::sleep(Duration::from_millis(50));
    assert_prompt_hello(&mut client, "a scraper trickled bytes");
    // The daemon ends the scrape at its deadline: the socket closes
    // (with the page, or reset over the unread trickle) well before the
    // trickler would have stopped.
    scrape
        .set_read_timeout(Some(Duration::from_secs(3)))
        .expect("read timeout");
    let mut sink = Vec::new();
    let end = scrape.read_to_end(&mut sink);
    let closed_after = connected.elapsed();
    assert!(
        !matches!(&end, Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)),
        "the scrape was never cut off: {end:?}"
    );
    assert!(
        closed_after < Duration::from_millis(2500),
        "the scrape ran {closed_after:?}"
    );
    trickle.join().expect("trickler exits");
    shut_down(&addr, run);
}

#[test]
fn deeply_nested_frames_are_bad_requests_and_the_connection_survives() {
    // A v2 map frame whose `blif` value opens 50 000 arrays.
    let hostile = format!(
        "{{\"proto\":\"chortle-serve/v2\",\"op\":\"map\",\"id\":\"deep\",\"blif\":{}}}",
        "[".repeat(50_000)
    );
    // The frame parser fails typed, even on a small stack.
    let frame = hostile.clone();
    let parsed = thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || proto::parse_request(&frame).map(drop).map_err(|e| e.detail))
        .expect("spawn")
        .join()
        .expect("no stack overflow");
    let detail = parsed.unwrap_err();
    assert!(detail.contains("nesting deeper than 64"), "{detail}");

    // The daemon answers bad_request, then serves the next frame on the
    // same connection.
    let blif = write_blif(&benchmark("count").unwrap(), "count");
    let (addr, run) = start(ServeOptions::default());
    let stream = TcpStream::connect(&addr).expect("connect");
    let frames = vec![
        hostile,
        proto::render_map_request(ProtocolVersion::V2, "next", &request(&blif)),
    ];
    let responses = burst(&stream, &frames, 2);
    match &responses[""] {
        Response::Rejected { rejection, .. } => assert_eq!(rejection.reason, "bad_request"),
        other => panic!("expected a rejection, got {other:?}"),
    }
    match &responses["next"] {
        Response::MapOk { netlist, .. } => {
            assert_eq!(netlist, &offline(&blif, 4, Objective::Area, true));
        }
        other => panic!("expected MapOk, got {other:?}"),
    }
    shut_down(&addr, run);
}

/// A v2 map frame of `blif` of exactly `len` bytes: the netlist behind a
/// BLIF comment padded to fit.
fn frame_of_len(blif: &str, len: usize, id: &str) -> String {
    let render = |pad: usize| {
        let padded = format!("#{}\n{blif}", "x".repeat(pad));
        proto::render_map_request(ProtocolVersion::V2, id, &request(&padded))
    };
    let frame = render(len - render(0).len());
    assert_eq!(frame.len(), len);
    frame
}

#[test]
fn frames_are_capped_at_max_frame_bytes() {
    let blif = write_blif(&benchmark("count").unwrap(), "count");
    let frame_of = |len: usize, id: &str| frame_of_len(&blif, len, id);
    let (addr, run) = start(ServeOptions::default());

    let mut client = Client::connect(&addr).expect("connect");
    match client.hello("h").expect("hello") {
        HelloReply::Hello {
            max_frame_bytes, ..
        } => assert_eq!(max_frame_bytes, chortle_server::MAX_FRAME_BYTES),
        other => panic!("expected Hello, got {other:?}"),
    }

    // At the cap: mapped, and the connection serves the next frame.
    let stream = TcpStream::connect(&addr).expect("connect");
    let frames = vec![
        frame_of(chortle_server::MAX_FRAME_BYTES, "at-cap"),
        proto::render_admin_request(ProtocolVersion::V2, "next", &proto::Op::Hello),
    ];
    let responses = burst(&stream, &frames, 2);
    match &responses["at-cap"] {
        Response::MapOk { netlist, .. } => {
            assert_eq!(netlist, &offline(&blif, 4, Objective::Area, true));
        }
        other => panic!("expected MapOk, got {other:?}"),
    }
    assert!(matches!(responses["next"], Response::HelloOk { .. }));

    // One byte over: a typed bad_request, then the server closes the
    // connection without reading the frames behind it.
    let stream = TcpStream::connect(&addr).expect("connect");
    let frames = vec![
        proto::render_admin_request(ProtocolVersion::V2, "before", &proto::Op::Hello),
        frame_of(chortle_server::MAX_FRAME_BYTES + 1, "over"),
        proto::render_admin_request(ProtocolVersion::V2, "after", &proto::Op::Hello),
    ];
    let responses = burst(&stream, &frames, 2);
    assert!(matches!(responses["before"], Response::HelloOk { .. }));
    match &responses[""] {
        Response::Rejected { rejection, .. } => {
            assert_eq!(rejection.reason, "bad_request");
            assert!(
                rejection.detail.contains("frame limit"),
                "{}",
                rejection.detail
            );
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
    let mut rest = String::new();
    let n = BufReader::new(&stream)
        .read_line(&mut rest)
        .expect("read after the rejection");
    assert_eq!(n, 0, "connection closed, got {rest:?}");
    drop(stream);
    shut_down(&addr, run);
}

/// Runs `chortle-serve --stdio` on `input` (written from another thread,
/// then closed); returns its stdout lines once it exits, and asserts it
/// exited successfully.
fn run_stdio(input: Vec<u8>) -> Vec<String> {
    use std::process::{Command, Stdio};
    let mut child = Command::new(env!("CARGO_BIN_EXE_chortle-serve"))
        .args(["--stdio", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn chortle-serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    // The daemon may stop reading early; the rest of the input is
    // dropped with the pipe.
    let writer = thread::spawn(move || {
        let _ = stdin.write_all(&input);
    });
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let lines: Vec<String> = stdout
        .lines()
        .map(|line| line.expect("read stdout"))
        .collect();
    writer.join().expect("stdin writer");
    assert!(
        child.wait().expect("wait").success(),
        "chortle-serve failed"
    );
    lines
}

fn hello_frame(id: &str) -> String {
    proto::render_admin_request(ProtocolVersion::V2, id, &proto::Op::Hello)
}

#[test]
fn stdio_answers_invalid_utf8_with_bad_request_and_keeps_serving() {
    let mut input = b"{\"proto\":\"chortle-serve/v2\",\"op\":\"\xff\xfe\"}\n".to_vec();
    input.extend_from_slice(b"\xc3\x28 not json\r\n");
    input.extend_from_slice(hello_frame("next").as_bytes());
    input.push(b'\n');
    let lines = run_stdio(input);
    assert_eq!(lines.len(), 3, "{lines:?}");
    let rejected: Vec<&String> = lines.iter().filter(|l| l.contains("bad_request")).collect();
    assert_eq!(rejected.len(), 2, "{lines:?}");
    let responses = by_id(lines.iter().filter(|l| !l.contains("bad_request")).cloned());
    assert!(matches!(responses["next"], Response::HelloOk { .. }));
}

#[test]
fn stdio_frames_are_capped_at_max_frame_bytes() {
    let blif = write_blif(&benchmark("count").unwrap(), "count");
    let mut input = Vec::new();
    for frame in [
        hello_frame("before"),
        frame_of_len(&blif, chortle_server::MAX_FRAME_BYTES, "at-cap"),
        "x".repeat(chortle_server::MAX_FRAME_BYTES + 1),
        hello_frame("after"),
    ] {
        input.extend_from_slice(frame.as_bytes());
        input.push(b'\n');
    }
    // The over-long line is answered, the frames before it are served,
    // and the daemon stops reading there.
    let responses = by_id(run_stdio(input));
    assert_eq!(responses.len(), 3, "{:?}", responses.keys());
    assert!(matches!(responses["before"], Response::HelloOk { .. }));
    match &responses["at-cap"] {
        Response::MapOk { netlist, .. } => {
            assert_eq!(netlist, &offline(&blif, 4, Objective::Area, true));
        }
        other => panic!("expected MapOk, got {other:?}"),
    }
    match &responses[""] {
        Response::Rejected { rejection, .. } => {
            assert_eq!(rejection.reason, "bad_request");
            assert!(
                rejection.detail.contains("frame limit"),
                "{}",
                rejection.detail
            );
        }
        other => panic!("expected a rejection, got {other:?}"),
    }
}
