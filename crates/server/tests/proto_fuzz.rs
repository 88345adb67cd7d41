//! Seeded mutation fuzzing of the wire parser: byte flips, truncations,
//! deleted and duplicated keys, and every `cache` spelling, applied to
//! the golden v1 and v2 frames. `parse_request` must never panic; it
//! returns a request or a typed [`ProtoError`] that carries the frame's
//! `id` and version whenever the frame is a JSON object that states them.
//! Frames nested at and just past the JSON depth limit are rejected the
//! same way, and the daemon keeps serving a connection after a burst of
//! malformed frames.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;

use chortle::{CacheMode, Objective};
use chortle_netlist::SplitMix64;
use chortle_server::proto::{
    self, parse_request, BatchRequest, Op, ProtoError, ProtocolVersion, PROTOCOL_V2,
};
use chortle_server::{parse_response, MapRequest, Response, ServeOptions, Server};
use chortle_telemetry::json::{self, Value, MAX_DEPTH};

/// Mutations per golden frame.
const ROUNDS: usize = 400;

fn map_request() -> MapRequest {
    MapRequest {
        blif: ".model m\n.inputs a b\n.outputs z\n.names a b z\n11 1\n.end\n".into(),
        k: 5,
        jobs: 2,
        cache: CacheMode::Shared,
        objective: Objective::Depth,
        optimize: false,
        deadline_ms: Some(125),
        priority: 3,
        design: false,
        trace_id: "t-1".into(),
    }
}

/// Every frame shape our client renders: v1 and v2 `map`, v2
/// `map_design` and `map_batch`, and the admin ops of both versions.
fn golden_frames() -> Vec<String> {
    use ProtocolVersion::{V1, V2};
    let req = map_request();
    let v1_req = MapRequest {
        priority: 0,
        trace_id: String::new(),
        ..req.clone()
    };
    let design = MapRequest {
        design: true,
        ..req.clone()
    };
    let mut frames = vec![
        proto::render_map_request(V1, "f1", &v1_req),
        proto::render_map_request(V2, "f2", &req),
        proto::render_map_request(V2, "f3", &design),
        proto::render_batch_request("f4", &[req.clone(), MapRequest::default()]),
    ];
    for op in [Op::Flush, Op::Stats, Op::Trace, Op::Shutdown] {
        frames.push(proto::render_admin_request(V1, "a1", &op));
    }
    for op in [
        Op::Hello,
        Op::Flush,
        Op::Stats,
        Op::Metrics,
        Op::Trace,
        Op::Shutdown,
    ] {
        frames.push(proto::render_admin_request(V2, "a2", &op));
    }
    frames
}

/// The members of `frame`'s top-level object, if it is one.
fn members(frame: &str) -> Vec<(String, Value)> {
    match json::parse(frame) {
        Ok(Value::Object(members)) => members,
        _ => Vec::new(),
    }
}

/// One seeded mutation of `frame`.
fn mutate(frame: &str, rng: &mut SplitMix64) -> String {
    let mut bytes = frame.as_bytes().to_vec();
    match rng.next_below(5) {
        // Flip one to four bytes.
        0 => {
            for _ in 0..rng.next_range(1, 5) {
                let at = rng.choose_index(&bytes);
                bytes[at] ^= rng.next_range(1, 256) as u8;
            }
        }
        // Truncate anywhere, including to nothing.
        1 => bytes.truncate(rng.next_range(0, bytes.len())),
        // Delete or duplicate one top-level key.
        2 | 3 => {
            let mut members = members(frame);
            if !members.is_empty() {
                let at = rng.choose_index(&members);
                if rng.next_bool(1, 2) {
                    members.remove(at);
                } else {
                    let copy = members[at].clone();
                    members.insert(rng.next_range(0, members.len() + 1), copy);
                }
            }
            return Value::Object(members).to_json();
        }
        // Replace one byte with a structural character.
        _ => {
            let at = rng.choose_index(&bytes);
            bytes[at] = b"{}[]\",:\\0"[rng.next_range(0, 9)];
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Checks the parser's contract on `frame`: no panic, and an error names
/// the id and version the frame states whenever it is a JSON object
/// whose `id` (if any) is a string.
fn check(frame: &str) -> Result<(), ProtoError> {
    let Err(err) = parse_request(frame) else {
        return Ok(());
    };
    assert!(!err.detail.is_empty(), "{frame:?}");
    let value = json::parse(frame).ok().filter(|v| v.as_object().is_some());
    let id = value.as_ref().and_then(|v| match v.get("id") {
        None => Some(""),
        Some(id) => id.as_str(),
    });
    match id {
        Some(id) => {
            assert_eq!(err.id, id, "{frame:?}: {}", err.detail);
            let proto = value.as_ref().and_then(|v| v.get("proto")?.as_str());
            let version = if proto == Some(PROTOCOL_V2) {
                ProtocolVersion::V2
            } else {
                ProtocolVersion::V1
            };
            assert_eq!(err.version, version, "{frame:?}: {}", err.detail);
        }
        None => assert_eq!(err.id, "", "{frame:?}: {}", err.detail),
    }
    Err(err)
}

#[test]
fn seeded_mutations_never_panic_and_keep_the_id() {
    let mut rng = SplitMix64::new(0xf022_0001);
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for frame in golden_frames() {
        check(&frame).unwrap_or_else(|e| panic!("golden frame rejected: {frame}: {e:?}"));
        for _ in 0..ROUNDS {
            match check(&mutate(&frame, &mut rng)) {
                Ok(()) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
    }
    // Both outcomes must be exercised, or the mutations are too tame or
    // too wild to test anything.
    assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
}

#[test]
fn every_cache_spelling_is_accepted_or_rejected_typed() {
    let frames: Vec<String> = golden_frames()
        .into_iter()
        .filter(|f| f.contains("\"cache\""))
        .collect();
    assert_eq!(frames.len(), 4, "v1 map, v2 map, map_design, map_batch");
    for frame in &frames {
        assert!(frame.contains("\"cache\":\"shared\""), "{frame}");
        for (spelling, want) in [
            ("\"off\"", Some(CacheMode::Off)),
            ("\"tree\"", Some(CacheMode::Off)),
            ("\"shared\"", Some(CacheMode::Shared)),
            ("\"fn\"", Some(CacheMode::Shared)),
            ("\"TREE\"", None),
            ("\"\"", None),
            ("\"ram\"", None),
            ("0", None),
            ("null", None),
            ("true", None),
            ("[\"off\"]", None),
            ("{\"mode\":\"off\"}", None),
        ] {
            let line = frame.replace("\"cache\":\"shared\"", &format!("\"cache\":{spelling}"));
            match (check(&line), want) {
                (Ok(()), Some(mode)) => {
                    let caches: Vec<CacheMode> = match parse_request(&line).unwrap().op {
                        Op::Map(m) => vec![m.cache],
                        Op::MapBatch(BatchRequest { requests }) => {
                            requests.iter().map(|r| r.cache).collect()
                        }
                        other => panic!("unexpected op {other:?}"),
                    };
                    // A batch's second entry keeps its default mode.
                    assert_eq!(caches[0], mode, "{line}");
                }
                (Err(e), None) => {
                    assert!(
                        e.detail.contains("\"cache\" must be"),
                        "{line}: {}",
                        e.detail
                    );
                    assert!(!e.id.is_empty(), "{line}: id lost");
                }
                (got, want) => panic!("{line}: got {got:?}, want {want:?}"),
            }
        }
    }
}

/// `depth` arrays, one inside the other.
fn nested(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

#[test]
fn frames_nested_at_the_depth_limit_are_rejected_typed() {
    // The frame object is one level, so a value nested `MAX_DEPTH - 1`
    // deep inside it reaches the limit exactly: the JSON parses, and the
    // knob's type is what fails, with the id kept.
    for (frame, needle) in [
        (
            format!(
                r#"{{"proto":"{PROTOCOL_V2}","id":"deep","blif":{}}}"#,
                nested(MAX_DEPTH - 1)
            ),
            "\"blif\" must be a string",
        ),
        (
            format!(
                r#"{{"proto":"{PROTOCOL_V2}","id":"deep","op":"map_batch","requests":[{{"blif":{}}}]}}"#,
                nested(MAX_DEPTH - 3)
            ),
            "\"blif\" must be a string",
        ),
    ] {
        let err = check(&frame).expect_err("a nested blif is rejected");
        assert_eq!(
            (err.id.as_str(), err.version),
            ("deep", ProtocolVersion::V2)
        );
        assert!(err.detail.contains(needle), "{}", err.detail);
    }
    // One level deeper, the JSON itself is refused before any key is
    // read, so no id can be recovered.
    for frame in [
        format!(
            r#"{{"proto":"{PROTOCOL_V2}","id":"deep","blif":{}}}"#,
            nested(MAX_DEPTH)
        ),
        format!(
            r#"{{"proto":"{PROTOCOL_V2}","id":"deep","op":"map_batch","requests":[{{"blif":{}}}]}}"#,
            nested(MAX_DEPTH - 2)
        ),
    ] {
        let err = check(&frame).expect_err("too deep");
        assert_eq!(err.id, "");
        assert!(err.detail.contains("invalid JSON"), "{}", err.detail);
        assert!(err.detail.contains("nesting deeper"), "{}", err.detail);
    }
}

#[test]
fn the_daemon_keeps_serving_a_connection_after_malformed_frames() {
    let server = Server::bind(&ServeOptions::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let run = thread::spawn(move || server.run());

    // Mutated frames, one per line: no shutdown frames (they would end
    // the run) and no newlines inside a frame (they would split it).
    let mut rng = SplitMix64::new(0xf022_0002);
    let frames: Vec<String> = golden_frames()
        .iter()
        .filter(|f| !f.contains("\"shutdown\""))
        .flat_map(|f| (0..16).map(|_| mutate(f, &mut rng)).collect::<Vec<_>>())
        .map(|f| f.replace(['\n', '\r'], " "))
        .filter(|f| !f.contains("shutdown"))
        .collect();
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let hello = |id: &str| proto::render_admin_request(ProtocolVersion::V2, id, &Op::Hello);
    for id in ["after-fuzz", "and-again"] {
        let mut bytes = String::new();
        if id == "after-fuzz" {
            for frame in &frames {
                bytes.push_str(frame);
                bytes.push('\n');
            }
        }
        bytes.push_str(&hello(id));
        bytes.push('\n');
        writer.write_all(bytes.as_bytes()).expect("write");
        writer.flush().expect("flush");
        // Read until the hello is answered; every line before it must be
        // a well-formed response.
        loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("read response");
            assert!(n > 0, "server closed the connection");
            match parse_response(line.trim_end()).expect("well-formed response") {
                Response::HelloOk { id: got, .. } if got == id => break,
                _ => {}
            }
        }
    }
    drop((writer, reader, stream));

    let mut client = chortle_server::Client::connect(&addr).expect("connect for shutdown");
    client.shutdown("bye").expect("shutdown acked");
    run.join().expect("server thread");
}
