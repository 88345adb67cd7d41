//! `flow_suite`: the paper's experiment as a `chortle-map` user runs it.
//!
//! Closed loop, one op = one circuit at one K through
//! `chortle_cli::run_flow` with the CLI defaults (MIS-style optimization
//! and equivalence verification on). The corpus is the twelve paper
//! circuits plus three seeded suite-sized draws, at K = 2..5.

use std::time::Instant;

use chortle_circuits::{control, des_like, random_logic, suite};
use chortle_cli::{run_flow, FlowOptions, MapOptions};
use chortle_logic_opt::optimize;
use chortle_netlist::{
    check_equivalence, parse_blif, write_blif, write_lut_blif, LutStats, NetworkStats,
};

use crate::common::{
    closed_loop, fill_closed_loop_metrics, repeated_setup, secs, sub_seeds, write_trace,
    SETUP_REPEATS,
};
use crate::layers::{probe_map, report_layers, report_overhead, ShapeCounts};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// LUT sizes of the paper's Tables 1–4.
const KS: [usize; 4] = [2, 3, 4, 5];

/// One op: a circuit's BLIF text at one K.
struct Op {
    name: String,
    k: usize,
    blif: String,
}

/// What the untimed reference run produced for an op.
#[derive(PartialEq)]
struct Expected {
    luts: usize,
    depth: usize,
    output: String,
}

/// The corpus: every paper circuit and seeded draw at every K.
fn corpus(seed: u64) -> Vec<Op> {
    let s = sub_seeds(seed, 3);
    let mut circuits: Vec<(String, String)> = suite()
        .into_iter()
        .map(|b| (b.name.to_owned(), write_blif(&b.network, b.name)))
        .collect();
    for (name, net) in [
        ("draw_control", control(s[0], 40, 30, 150, (2, 5), (2, 6))),
        ("draw_random", random_logic(s[1], 80, 350, 50, 4)),
        ("draw_des", des_like(s[2], 32, 2)),
    ] {
        circuits.push((name.to_owned(), write_blif(&net, name)));
    }
    KS.iter()
        .flat_map(|&k| {
            circuits.iter().map(move |(name, blif)| Op {
                name: name.clone(),
                k,
                blif: blif.clone(),
            })
        })
        .collect()
}

fn options(k: usize) -> FlowOptions {
    FlowOptions {
        map: MapOptions::builder(k).build().expect("K = 2..5 is valid"),
        ..FlowOptions::default()
    }
}

fn untraced_op(op: &Op) -> Result<Expected, String> {
    let r = run_flow(&op.blif, &options(op.k)).map_err(|e| e.to_string())?;
    Ok(Expected {
        luts: r.luts,
        depth: r.depth,
        output: r.output_blif,
    })
}

/// Per-op counts the traced run adds up.
#[derive(Default)]
struct OpCounts {
    bytes: u64,
    gates_in: u64,
    gates_out: u64,
    shapes: ShapeCounts,
}

/// `run_flow`'s calls made one by one, each under its own span, then the
/// mapper probe outside the op's span.
fn traced_op(tracer: &Tracer, op: &Op, counts: &mut OpCounts) -> Result<Expected, String> {
    let opts = options(op.k);
    let (network, circuit, output) = {
        let _op = tracer.span("flow.op");
        let parsed = {
            let _s = tracer.span("netlist.parse");
            parse_blif(&op.blif).map_err(|e| e.to_string())?
        };
        let network = {
            let _s = tracer.span("opt.optimize");
            optimize(&parsed).map_err(|e| e.to_string())?.0
        };
        let circuit = {
            let _s = tracer.span("map.map_network");
            chortle::map_network(&network, &opts.map)
                .map_err(|e| e.to_string())?
                .circuit
        };
        {
            let _s = tracer.span("netlist.verify");
            check_equivalence(&network, &circuit).map_err(|e| e.to_string())?;
        }
        let output = {
            let _s = tracer.span("netlist.render");
            std::hint::black_box(LutStats::of(&circuit));
            write_lut_blif(&network, &circuit, "mapped")
        };
        std::hint::black_box(NetworkStats::of(&network));
        counts.bytes += op.blif.len() as u64;
        counts.gates_in += parsed.num_gates() as u64;
        counts.gates_out += network.num_gates() as u64;
        (network, circuit, output)
    };
    counts.shapes.add(probe_map(tracer, &network, &opts.map));
    Ok(Expected {
        luts: circuit.num_luts(),
        depth: circuit.depth(),
        output,
    })
}

pub fn run(args: &Args) -> Outcome {
    // Set-up generates the corpus and runs it once, untimed by the
    // measurement: every measured op must reproduce that reference.
    let ((ops, expected), setup_s) = repeated_setup(SETUP_REPEATS, || {
        let ops = corpus(args.seed);
        let expected: Vec<Option<Expected>> = ops
            .iter()
            .map(|op| {
                untraced_op(op)
                    .map_err(|e| eprintln!("perfbench: reference {} K={}: {e}", op.name, op.k))
                    .ok()
            })
            .collect();
        (ops, expected)
    });
    let mut out = Outcome::default();
    let check = |out: &mut Outcome, i: usize, got: Result<Expected, String>| {
        out.attempted += 1;
        let ok = matches!((&got, &expected[i]), (Ok(g), Some(e)) if g == e);
        if !ok {
            out.failed += 1;
            let op = &ops[i];
            match got {
                Err(e) => eprintln!("perfbench: {} K={} failed: {e}", op.name, op.k),
                Ok(_) => eprintln!(
                    "perfbench: {} K={} differs from its reference",
                    op.name, op.k
                ),
            }
        }
    };

    if args.trace {
        // A third of the time untraced, the rest traced: the ratio of the
        // two pass times is the tracing overhead.
        let untraced = closed_loop(args.seconds / 3.0, 2, || {
            for op in &ops {
                std::hint::black_box(untraced_op(op).ok());
            }
        });
        let tracer = Tracer::new();
        let mut counts = OpCounts::default();
        let mut op_id = 0u64;
        let traced_passes = closed_loop(args.seconds * 2.0 / 3.0, 2, || {
            for (i, op) in ops.iter().enumerate() {
                op_id += 1;
                tracer.set_op(op_id);
                let got = traced_op(&tracer, op, &mut counts);
                check(&mut out, i, got);
            }
        });
        let passes = traced_passes.len();
        let layers = tracer.layers();
        #[allow(clippy::cast_precision_loss)]
        let per_pass = |v: u64| v as f64 / passes as f64;
        out.set("netlist.parse_bytes", per_pass(counts.bytes));
        out.set("opt.gates_in", per_pass(counts.gates_in));
        out.set("opt.gates_out", per_pass(counts.gates_out));
        out.note(format!(
            "opt: {} gates in -> {} gates out per pass",
            counts.gates_in / passes as u64,
            counts.gates_out / passes as u64
        ));
        report_layers(&mut out, &layers, passes, counts.shapes);
        let traced_s = secs(layers.get("flow.op").map_or(0, |l| l.total_ns)) / passes as f64;
        report_overhead(&mut out, traced_s, median(&untraced).unwrap_or(0.0));
        out.note(format!(
            "{passes} traced passes of {} ops; {} untraced passes",
            ops.len(),
            untraced.len()
        ));
        write_trace(&tracer, &args.workload, args.seed);
        return out;
    }

    let mut latencies_ms = vec![Vec::new(); ops.len()];
    let passes = closed_loop(args.seconds, 3, || {
        for (i, op) in ops.iter().enumerate() {
            let t = Instant::now();
            let got = untraced_op(op);
            latencies_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            check(&mut out, i, got);
        }
    });
    fill_closed_loop_metrics(&mut out, setup_s, &passes, &latencies_ms);
    let luts: usize = expected.iter().flatten().map(|e| e.luts).sum();
    let depth: usize = expected.iter().flatten().map(|e| e.depth).sum();
    out.set("luts", luts as f64);
    out.set("lut_depth", depth as f64);
    out
}
