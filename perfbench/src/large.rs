//! `map_large`: the `--no-optimize --no-verify` path (the one the daemon
//! runs) over large seeded netlists.
//!
//! Closed loop. Set-up generates and optimizes a ≈7k-gate
//! `random_logic`, a 64-wide six-round `des_like` and a 256-bit `alu`
//! (each mapped at K = 4, 5 and 6) and a 15-stage, 64-bit register
//! pipeline (K = 4, through `parse_design` → `map_design`), and maps
//! each once for its reference output. One op is parse → map → render
//! of one circuit at one K. Equivalence is checked once per op after
//! set-up, untimed; every measured op must reproduce that verified
//! output byte for byte.

use std::time::Instant;

use chortle::{map_design, map_network, DesignOptions, MapOptions};
use chortle_bench::pipelined_design;
use chortle_circuits::{alu, des_like, random_logic};
use chortle_logic_opt::optimize;
use chortle_netlist::{check_equivalence, parse_blif, parse_design, write_blif, write_lut_blif};

use crate::common::{
    closed_loop, fill_closed_loop_metrics, repeated_setup, sub_seeds, write_trace,
};
use crate::layers::{probe_map, report_layers, report_overhead, ShapeCounts};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, Outcome};

/// Set-ups per run. One takes about 6 s, long enough that the median
/// of three holds from run to run.
const SETUP_REPEATS: usize = 3;

/// LUT sizes each combinational netlist is mapped at.
const KS: [usize; 3] = [4, 5, 6];

/// One op's input.
enum Input {
    /// A combinational netlist as BLIF, mapped at `k`.
    Net { blif: String, k: usize },
    /// A sequential design as BLIF, mapped at K = 4.
    Design { blif: String },
}

struct Op {
    name: String,
    input: Input,
}

/// A verified op result: the output bytes, LUT count and depth.
#[derive(PartialEq)]
struct Expected {
    luts: usize,
    depth: usize,
    output: String,
}

fn corpus(seed: u64) -> Vec<Op> {
    let s = sub_seeds(seed, 2);
    let optimized = |net| optimize(&net).expect("generated netlists are acyclic").0;
    let nets = [
        ("random7k", optimized(random_logic(s[0], 600, 7000, 400, 4))),
        ("des64x6", optimized(des_like(s[1], 64, 6))),
        ("alu256", optimized(alu(256))),
    ];
    let mut ops: Vec<Op> = nets
        .iter()
        .flat_map(|(name, net)| {
            let blif = write_blif(net, name);
            KS.iter().map(move |&k| Op {
                name: format!("{name}@K{k}"),
                input: Input::Net {
                    blif: blif.clone(),
                    k,
                },
            })
        })
        .collect();
    // The pipeline builder takes no seed, and drawing its size from the
    // seed would make the op's work, not just its circuit, vary by seed.
    ops.push(Op {
        name: "pipe15x64@K4".to_owned(),
        input: Input::Design {
            blif: pipelined_design("pipe", 15, 64),
        },
    });
    ops
}

fn map_options(k: usize) -> MapOptions {
    MapOptions::builder(k).build().expect("K = 4..6 is valid")
}

fn design_options(verify: bool) -> DesignOptions {
    let mut opts = DesignOptions::new(map_options(4));
    opts.verify = verify;
    opts
}

/// Counts the traced run adds up.
#[derive(Default)]
struct OpCounts {
    bytes: u64,
    clouds: u64,
    shapes: ShapeCounts,
}

/// One op: parse → map → render, with spans when `tracer` is given and
/// an equivalence check when `verify` is set (the reference run only).
fn run_op(
    op: &Op,
    tracer: Option<&Tracer>,
    verify: bool,
    counts: &mut OpCounts,
) -> Result<Expected, String> {
    let span = |name| tracer.map(|t| t.span(name));
    match &op.input {
        Input::Net { blif, k } => {
            let opts = map_options(*k);
            let (network, circuit, output) = {
                let _op = span("large.op");
                let network = {
                    let _s = span("netlist.parse");
                    parse_blif(blif).map_err(|e| e.to_string())?
                };
                let circuit = {
                    let _s = span("map.map_network");
                    map_network(&network, &opts)
                        .map_err(|e| e.to_string())?
                        .circuit
                };
                let output = {
                    let _s = span("netlist.render");
                    write_lut_blif(&network, &circuit, "mapped")
                };
                (network, circuit, output)
            };
            if verify {
                check_equivalence(&network, &circuit).map_err(|e| e.to_string())?;
            }
            if let Some(t) = tracer {
                counts.bytes += blif.len() as u64;
                counts.shapes.add(probe_map(t, &network, &opts));
            }
            Ok(Expected {
                luts: circuit.num_luts(),
                depth: circuit.depth(),
                output,
            })
        }
        Input::Design { blif } => {
            let _op = span("large.op");
            let (design, _) = {
                let _s = span("design.parse");
                parse_design(blif).map_err(|e| e.to_string())?
            };
            let mapped = {
                let _s = span("design.map");
                map_design(&design, &design_options(verify)).map_err(|e| e.to_string())?
            };
            counts.clouds += mapped.clouds.len() as u64;
            Ok(Expected {
                luts: mapped.luts,
                depth: mapped.depth,
                output: mapped.netlist,
            })
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    // Set-up generates and optimizes the corpus and maps it once for the
    // reference outputs.
    let ((ops, mut expected), setup_s) = repeated_setup(SETUP_REPEATS, || {
        let ops = corpus(args.seed);
        let expected: Vec<Option<Expected>> = ops
            .iter()
            .map(|op| {
                run_op(op, None, false, &mut OpCounts::default())
                    .map_err(|e| eprintln!("perfbench: reference {}: {e}", op.name))
                    .ok()
            })
            .collect();
        (ops, expected)
    });
    // Untimed: the reference must survive an equivalence-checked run
    // byte for byte, or every op of that circuit counts as failed.
    for (op, reference) in ops.iter().zip(&mut expected) {
        let verified = run_op(op, None, true, &mut OpCounts::default());
        if !matches!((&verified, &*reference), (Ok(v), Some(r)) if v == r) {
            eprintln!(
                "perfbench: {} fails its equivalence-checked reference run",
                op.name
            );
            *reference = None;
        }
    }
    let mut out = Outcome::default();
    let check = |out: &mut Outcome, i: usize, got: Result<Expected, String>| {
        out.attempted += 1;
        let ok = matches!((&got, &expected[i]), (Ok(g), Some(e)) if g == e);
        if !ok {
            out.failed += 1;
            match got {
                Err(e) => eprintln!("perfbench: {} failed: {e}", ops[i].name),
                Ok(_) => eprintln!("perfbench: {} differs from its reference", ops[i].name),
            }
        }
    };

    if args.trace {
        let untraced = closed_loop(args.seconds / 3.0, 2, || {
            for op in &ops {
                std::hint::black_box(run_op(op, None, false, &mut OpCounts::default()).ok());
            }
        });
        let tracer = Tracer::new();
        let mut counts = OpCounts::default();
        let mut op_id = 0u64;
        let traced = closed_loop(args.seconds * 2.0 / 3.0, 2, || {
            for (i, op) in ops.iter().enumerate() {
                op_id += 1;
                tracer.set_op(op_id);
                let got = run_op(op, Some(&tracer), false, &mut counts);
                check(&mut out, i, got);
            }
        });
        let passes = traced.len();
        let layers = tracer.layers();
        #[allow(clippy::cast_precision_loss)]
        let per_pass = |v: u64| v as f64 / passes as f64;
        out.set("netlist.parse_bytes", per_pass(counts.bytes));
        out.set("design.clouds", per_pass(counts.clouds));
        report_layers(&mut out, &layers, passes, counts.shapes);
        let traced_s = per_pass(layers.get("large.op").map_or(0, |l| l.total_ns)) / 1e9;
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
            let got = run_op(op, None, false, &mut OpCounts::default());
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
