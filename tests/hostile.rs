//! Hostile inputs on a deliberately small stack.
//!
//! Every walk whose depth the input controls must be iterative: here a
//! fanout-free chain of 10^5 two-input gates — one tree 10^5 levels deep
//! — goes through `parse_blif` → `map_network` → `check_equivalence` →
//! `write_lut_blif` on a thread with a 256 KiB stack, so a new unbounded
//! recursion fails this test instead of aborting a daemon worker or the
//! CLI. A 10^6-gate chain goes through `parse_blif` → `map_network` →
//! `write_lut_blif` the same way, within a stated time budget, and a
//! 10^5-gate chain closed through a latch goes through `parse_design` →
//! `map_design`. The 10^5-gate chain also goes through the in-process
//! daemon as a v2 `map` frame, on the daemon's own worker threads, which
//! must answer within a stated time budget and keep serving.
//!
//! Designs must cut in time linear in their size: a 64-stage × 256-bit
//! register pipeline (16 384 clouds) goes through `Design::clouds`
//! within a stated budget.
//!
//! Work the input controls must be bounded too: a 40-cube node with
//! about 2^40 kernels goes through `optimize` and the CLI flow within the
//! kernel-enumeration budget.

use std::fmt::Write as _;
use std::thread;
use std::time::{Duration, Instant};

use chortle::{map_design, map_network, DesignOptions, MapOptions};
use chortle_bench::pipelined_design;
use chortle_cli::{run_flow, FlowOptions};
use chortle_logic_opt::optimize;
use chortle_netlist::{
    check_equivalence, parse_blif, parse_design, simulate_outputs, write_lut_blif, SplitMix64,
};
use chortle_server::{Client, MapReply, MapRequest, ServeOptions, Server};

/// Stack of the thread the hostile inputs run on.
const SMALL_STACK: usize = 256 * 1024;

/// Runs `f` on a fresh thread with a [`SMALL_STACK`] stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    thread::Builder::new()
        .stack_size(SMALL_STACK)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no stack overflow")
}

/// A chain `x{i} = x{i-1} op a{i mod 8}` of `gates` two-input gates,
/// alternating AND and OR so no normalization can flatten it.
fn chain_blif(gates: usize) -> String {
    let mut blif = String::from(".model chain\n.inputs");
    for i in 0..8 {
        let _ = write!(blif, " a{i}");
    }
    let _ = writeln!(blif, "\n.outputs x{gates}");
    let _ = writeln!(blif, ".names a0 x0\n1 1");
    for i in 1..=gates {
        let _ = writeln!(blif, ".names x{} a{} x{i}", i - 1, i % 8);
        blif.push_str(if i % 2 == 0 { "11 1\n" } else { "1- 1\n-1 1\n" });
    }
    blif.push_str(".end\n");
    blif
}

#[test]
fn a_deep_chain_maps_on_a_small_stack() {
    const GATES: usize = 100_000;
    let blif = chain_blif(GATES);
    let (luts, text) = on_small_stack(move || {
        let network = parse_blif(&blif).expect("the chain parses");
        let options = MapOptions::builder(4).build().expect("valid options");
        let mapping = map_network(&network, &options).expect("the chain maps");
        check_equivalence(&network, &mapping.circuit).expect("the cover is equivalent");
        let text = write_lut_blif(&network, &mapping.circuit, "chain");
        (mapping.circuit.num_luts(), text)
    });
    // A 4-LUT absorbs three chain gates, so the cover is about a third of
    // the gate count.
    assert!((GATES / 4..=GATES / 2).contains(&luts), "{luts} LUTs");
    assert!(text.starts_with(".model chain\n"));
}

/// Wall-time budget of the 10^5-gate chain through the daemon: frame
/// parse, BLIF parse, map and render on a worker thread, plus the
/// response. The offline path takes well under a second in a release
/// build; the budget leaves room for the test profile and a loaded
/// host.
const DAEMON_CHAIN_BUDGET: Duration = Duration::from_secs(30);

#[test]
fn a_deep_chain_through_the_daemon_answers_within_the_budget() {
    const GATES: usize = 100_000;
    let blif = chain_blif(GATES);
    let server = Server::bind(&ServeOptions::builder().workers(2).build()).expect("bind");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.handle();
    let run = thread::spawn(move || server.run());

    let mut client = Client::connect(&addr).expect("connect");
    let req = MapRequest {
        blif: blif.clone(),
        optimize: false,
        ..MapRequest::default()
    };
    let started = Instant::now();
    let reply = client.map("chain", &req).expect("the daemon answers");
    let elapsed = started.elapsed();
    assert!(
        elapsed <= DAEMON_CHAIN_BUDGET,
        "the chain took {elapsed:?} (budget {DAEMON_CHAIN_BUDGET:?})"
    );
    match reply {
        MapReply::Mapped(mapped) => {
            // Byte-identical to the offline mapper under the same knobs.
            let network = parse_blif(&blif).expect("the chain parses");
            let options = MapOptions::builder(4).build().expect("valid options");
            let offline = map_network(&network, &options).expect("the chain maps");
            assert_eq!(mapped.luts, offline.circuit.num_luts());
            assert_eq!(
                mapped.netlist,
                write_lut_blif(&network, &offline.circuit, "mapped")
            );
        }
        MapReply::Rejected(r) => {
            assert_ne!(r.reason, "internal", "the chain crashed a worker: {r:?}");
        }
        other => panic!("unexpected reply {other:?}"),
    }
    // Both workers still serve: two small requests in a row.
    for i in 0..2 {
        let small = MapRequest {
            blif: chain_blif(16),
            optimize: false,
            ..MapRequest::default()
        };
        let reply = client.map(&format!("small{i}"), &small).expect("answers");
        assert!(
            matches!(reply, MapReply::Mapped(_)),
            "a worker stopped serving: {reply:?}"
        );
    }
    handle.shutdown();
    run.join().expect("the daemon exits cleanly");
}

/// Wall-time budget of the 10^6-gate chain: parse, map and render. It
/// takes about 2.6 s in a release build on one core of a shared 2-vCPU
/// host; the budget leaves room for the test profile's debug
/// assertions and a loaded machine, and still fails a walk that went
/// quadratic.
const MILLION_CHAIN_BUDGET: Duration = Duration::from_secs(30);

#[test]
fn a_million_gate_chain_maps_on_a_small_stack_within_the_budget() {
    const GATES: usize = 1_000_000;
    let blif = chain_blif(GATES);
    let (luts, lines, elapsed) = on_small_stack(move || {
        let started = Instant::now();
        let network = parse_blif(&blif).expect("the chain parses");
        drop(blif);
        let options = MapOptions::builder(4).build().expect("valid options");
        let mapping = map_network(&network, &options).expect("the chain maps");
        let text = write_lut_blif(&network, &mapping.circuit, "chain");
        let elapsed = started.elapsed();
        (mapping.circuit.num_luts(), text.lines().count(), elapsed)
    });
    assert!((GATES / 4..=GATES / 2).contains(&luts), "{luts} LUTs");
    // Every LUT writes a `.names` line and at least one cube row.
    assert!(lines > 2 * luts, "{lines} lines for {luts} LUTs");
    assert!(
        elapsed < MILLION_CHAIN_BUDGET,
        "took {elapsed:?}, budget {MILLION_CHAIN_BUDGET:?}"
    );
}

/// [`chain_blif`] closed through a register: the chain starts at the
/// latch output `q` and its last gate is both the primary output and the
/// latch's data input, so the whole chain is one combinational cloud.
fn latched_chain_blif(gates: usize) -> String {
    let mut blif = chain_blif(gates).replacen(".names a0 x0", ".names q x0", 1);
    let end = blif.rfind(".end").expect("the chain ends");
    blif.insert_str(end, &format!(".latch x{gates} q re clk 0\n"));
    blif
}

#[test]
fn a_deep_chain_inside_a_latch_cloud_maps_on_a_small_stack() {
    const GATES: usize = 100_000;
    let blif = latched_chain_blif(GATES);
    let (clouds, luts, netlist) = on_small_stack(move || {
        let (design, _) = parse_design(&blif).expect("the design parses");
        let options = DesignOptions::new(MapOptions::builder(4).build().expect("valid options"));
        let mapped = map_design(&design, &options).expect("the design maps");
        (mapped.clouds.len(), mapped.luts, mapped.netlist)
    });
    assert_eq!(clouds, 1);
    assert!((GATES / 4..=GATES / 2).contains(&luts), "{luts} LUTs");
    assert!(netlist.contains(".latch "), "the register survives");
}

/// Wall-time budget of cutting the 64 × 256 pipeline into clouds. The
/// linear cut takes about 45 ms in a release build on one core of a
/// shared 2-vCPU host; scanning every design input once per cloud took
/// 3.5 s there (16 384 clouds × about 16 640 inputs).
const PIPELINE_CUT_BUDGET: Duration = Duration::from_secs(1);

#[test]
fn a_wide_deep_pipeline_cuts_into_clouds_within_the_budget() {
    const STAGES: usize = 64;
    const WIDTH: usize = 256;
    let (design, _) =
        parse_design(&pipelined_design("pipe", STAGES, WIDTH)).expect("the pipeline parses");
    let started = Instant::now();
    let cut = design.clouds();
    let elapsed = started.elapsed();
    assert_eq!(cut.clouds.len(), STAGES * WIDTH);
    // Each cloud is one majority gate reading three boundary nets; the
    // last stage's gates also drive a buffer to their output.
    assert!(cut.clouds.iter().all(|c| c.network.num_inputs() == 3));
    assert!(
        elapsed < PIPELINE_CUT_BUDGET,
        "took {elapsed:?}, budget {PIPELINE_CUT_BUDGET:?}"
    );
}

/// One `.names` of `n` cubes over `n` inputs, cube `i` omitting input
/// `i`: every set of at least two cubes has a common cube, so the node
/// has on the order of 2^n kernels.
fn omit_one_blif(n: usize) -> String {
    let mut blif = String::from(".model omit\n.inputs");
    for i in 0..n {
        let _ = write!(blif, " a{i}");
    }
    blif.push_str("\n.outputs y\n.names");
    for i in 0..n {
        let _ = write!(blif, " a{i}");
    }
    blif.push_str(" y\n");
    for i in 0..n {
        let row: String = (0..n).map(|j| if j == i { '-' } else { '1' }).collect();
        let _ = writeln!(blif, "{row} 1");
    }
    blif.push_str(".end\n");
    blif
}

#[test]
fn a_kernel_rich_node_optimizes_within_the_budget() {
    const INPUTS: usize = 40;
    let blif = omit_one_blif(INPUTS);
    let elapsed = on_small_stack(move || {
        let started = Instant::now();
        let network = parse_blif(&blif).expect("the node parses");
        let (optimized, _) = optimize(&network).expect("optimizes");
        let mut rng = SplitMix64::new(0x0b17);
        for _ in 0..64 {
            let words: Vec<u64> = (0..INPUTS).map(|_| rng.next_u64()).collect();
            assert_eq!(
                simulate_outputs(&network, &words),
                simulate_outputs(&optimized, &words),
                "optimize changed the function"
            );
        }
        let options = MapOptions::builder(4).build().expect("valid");
        let mapping = map_network(&optimized, &options).expect("maps");
        check_equivalence(&optimized, &mapping.circuit).expect("mapping is equivalent");
        let flow = FlowOptions {
            map: options,
            ..FlowOptions::default()
        };
        run_flow(&blif, &flow).expect("the verified flow succeeds");
        started.elapsed()
    });
    assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
}
