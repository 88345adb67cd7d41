//! Every name the workspace records is declared in the metric
//! catalogue: runs the offline flows, a traced handle with the log
//! counter sink attached, and an in-process daemon session, and checks
//! each stage, counter, histogram and trace-event name of every
//! resulting report against `chortle_telemetry::catalogue`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;

use chortle_circuits::{alu, benchmark};
use chortle_cli::{
    run_design_flow, run_flow, FlowOptions, MapOptions, Objective, PackMode, Telemetry,
};
use chortle_netlist::write_blif;
use chortle_server::{
    proto, BatchReply, Client, FlushReply, MapReply, MapRequest, MetricsReply, ProtocolVersion,
    ServeOptions, Server, ShutdownReply, StatsReply,
};
use chortle_telemetry::catalogue::{self, Kind};
use chortle_telemetry::json::{self, Value};
use chortle_telemetry::{log, Report, TraceScope};

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

fn assert_catalogued(what: &str, name: &str, kind: Kind) {
    let entry = catalogue::lookup(name)
        .unwrap_or_else(|| panic!("{what}: {name:?} is not in the catalogue"));
    assert_eq!(
        entry.kind, kind,
        "{what}: {name:?} is catalogued as another kind"
    );
}

/// Checks every name of `report`; returns how many it checked.
fn check_report(what: &str, report: &Report) -> usize {
    for s in &report.stages {
        assert_catalogued(what, &s.name, Kind::Stage);
    }
    for c in &report.counters {
        assert_catalogued(what, &c.name, Kind::Counter);
    }
    for h in &report.histograms {
        assert_catalogued(what, &h.name, Kind::Histogram);
    }
    report.stages.len() + report.counters.len() + report.histograms.len()
}

/// [`check_report`] for a report that arrived as JSON on the wire.
fn check_report_json(what: &str, report_json: &str) -> usize {
    let value = json::parse(report_json).expect("report is JSON");
    let mut checked = 0;
    for (section, kind) in [
        ("stages", Kind::Stage),
        ("counters", Kind::Counter),
        ("histograms", Kind::Histogram),
    ] {
        for item in value.get(section).and_then(Value::as_array).expect(section) {
            let name = item.get("name").and_then(Value::as_str).expect("name");
            assert_catalogued(what, name, kind);
            checked += 1;
        }
    }
    checked
}

fn flow_options(map: MapOptions, optimize: bool, verify: bool) -> FlowOptions {
    FlowOptions {
        map,
        optimize,
        verify,
        ..FlowOptions::default()
    }
}

fn offline_and_traced_reports_are_catalogued() {
    let blif = write_blif(&benchmark("count").expect("suite circuit"), "count");

    let t = Telemetry::enabled();
    let map = MapOptions::builder(4).telemetry(t.clone()).build().unwrap();
    run_flow(&blif, &flow_options(map, true, true)).expect("flow runs");
    assert!(t.snapshot().counter(catalogue::CACHE_HITS).is_some());
    check_report("run_flow", &t.snapshot());

    let t = Telemetry::enabled();
    let map = MapOptions::builder(4)
        .pack(PackMode::Dc)
        .objective(Objective::Depth)
        .telemetry(t.clone())
        .build()
        .unwrap();
    run_flow(&blif, &flow_options(map, true, true)).expect("flow runs");
    assert!(t.snapshot().stage(catalogue::MAP_PACK).is_some());
    check_report("run_flow --pack dc --objective depth", &t.snapshot());

    let t = Telemetry::enabled();
    let map = MapOptions::builder(4).telemetry(t.clone()).build().unwrap();
    run_design_flow(SEQ_DESIGN, &flow_options(map, true, true)).expect("design flow runs");
    assert!(t
        .snapshot()
        .histogram(catalogue::DESIGN_CLOUD_WORK)
        .is_some());
    check_report("run_design_flow", &t.snapshot());

    // A traced handle mirroring the logger's counters: its report gains
    // the trace.* and log.* echoes, and its trace the per-tree events.
    let _sink = log::init_test_sink();
    let t = Telemetry::traced();
    log::set_counter_sink(t.clone());
    let map = MapOptions::builder(4).telemetry(t.clone()).build().unwrap();
    run_flow(&blif, &flow_options(map, true, true)).expect("flow runs");
    log::event(log::Level::Warn, "test", "warn", &[]);
    log::event(log::Level::Error, "test", "error", &[]);
    let report = t.snapshot();
    assert!(report.counter(catalogue::LOG_ERRORS).is_some());
    assert!(report.counter(catalogue::TRACE_EVENTS).is_some());
    check_report("traced run_flow", &report);
    let trace = t.trace_snapshot();
    assert!(!trace.events.is_empty());
    for e in &trace.events {
        let kind = match e.scope {
            TraceScope::Stage => Kind::Stage,
            _ => Kind::Trace,
        };
        assert_catalogued("trace event", e.name, kind);
    }
}

fn request(blif: &str) -> MapRequest {
    MapRequest {
        blif: blif.to_owned(),
        jobs: 1,
        ..MapRequest::default()
    }
}

fn mapped_report(what: &str, reply: MapReply) -> usize {
    match reply {
        MapReply::Mapped(m) => check_report_json(what, &m.report_json),
        other => panic!("{what}: expected Mapped, got {other:?}"),
    }
}

fn daemon_reports_are_catalogued() {
    // One worker and a quota of one, so a pipelined second map sheds.
    let options = ServeOptions::builder()
        .workers(1)
        .client_quota(1)
        .metrics_addr(Some("127.0.0.1:0".to_owned()))
        .build();
    let server = Server::bind(&options).expect("bind ephemeral ports");
    let addr = server.local_addr().expect("bound address").to_string();
    let scrape_addr = server.metrics_addr().expect("metrics listener bound");
    let run = thread::spawn(move || server.run());

    let mut client = Client::connect(&addr).expect("connect");
    let count = write_blif(&benchmark("count").expect("suite circuit"), "count");
    let mut checked = mapped_report("map", client.map("m", &request(&count)).expect("map"));
    checked += mapped_report(
        "map_design",
        client
            .map_design("d", &request(SEQ_DESIGN))
            .expect("map_design"),
    );
    match client
        .map_batch("b", &[request(&count)])
        .expect("map_batch")
    {
        BatchReply::Results(replies) => {
            for reply in replies {
                checked += mapped_report("map_batch entry", reply);
            }
        }
        other => panic!("expected batch results, got {other:?}"),
    }
    assert!(matches!(
        client.flush("f").expect("flush"),
        FlushReply::Flushed { .. }
    ));
    assert!(matches!(
        client.metrics("w").expect("metrics"),
        MetricsReply::Metrics(_)
    ));

    // Two maps in one write: the second is shed over the quota.
    let alu = write_blif(&alu(32), "alu32");
    let mut burst = String::new();
    for id in ["s0", "s1"] {
        burst.push_str(&proto::render_map_request(
            ProtocolVersion::V2,
            id,
            &request(&alu),
        ));
        burst.push('\n');
    }
    let stream = TcpStream::connect(&addr).expect("connect burst");
    (&stream).write_all(burst.as_bytes()).expect("write burst");
    let mut reader = BufReader::new(&stream);
    for _ in 0..2 {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read response") > 0);
    }

    match client.stats("s").expect("stats") {
        StatsReply::Stats { report_json, .. } => {
            checked += check_report_json("stats", &report_json);
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    // Every /metrics family reads its HELP line from the catalogue.
    let mut scrape = TcpStream::connect(scrape_addr).expect("connect to /metrics");
    scrape
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("write scrape");
    let mut page = String::new();
    scrape.read_to_string(&mut page).expect("read scrape");
    assert!(
        page.contains("# TYPE chortle_serve_uptime_s gauge"),
        "{page}"
    );
    assert!(!page.contains("Uncatalogued"), "{page}");

    assert!(matches!(
        client.shutdown("bye").expect("shutdown"),
        ShutdownReply::Draining
    ));
    let summary = run.join().expect("server exits cleanly");
    assert!(
        summary
            .report
            .counter(catalogue::SERVE_ADMISSION_SHED_OVER_QUOTA)
            .is_some_and(|n| n >= 1),
        "the burst shed a request"
    );
    checked += check_report("daemon summary", &summary.report);
    assert!(checked > 50, "only {checked} names checked");
}

#[test]
fn every_recorded_name_is_catalogued() {
    // One test: the logger and its counter sink are process-global.
    offline_and_traced_reports_are_catalogued();
    daemon_reports_are_catalogued();
    log::disable();
}
