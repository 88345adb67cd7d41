//! Per-layer attribution for the closed-loop workloads: the mapper
//! probe that splits `map_network` into its public stages, and the
//! reduction of recorded spans to per-pass layer metrics.

use std::collections::{BTreeMap, HashSet};

use chortle::{Forest, MapOptions, TreeMapper};
use chortle_netlist::Network;

use crate::common::secs;
use crate::stats::Ratio;
use crate::trace::{LayerTime, Tracer};
use crate::Outcome;

/// Span name of the DP probe at one K.
fn dp_span(k: usize) -> &'static str {
    match k {
        2 => "map.dp.k2",
        3 => "map.dp.k3",
        4 => "map.dp.k4",
        5 => "map.dp.k5",
        6 => "map.dp.k6",
        7 => "map.dp.k7",
        _ => "map.dp.k8",
    }
}

/// Tree counts the probe saw.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShapeCounts {
    /// Trees in the split forest.
    pub trees: u64,
    /// Distinct canonical tree shapes among them.
    pub distinct: u64,
}

impl ShapeCounts {
    /// Adds another probe's counts.
    pub fn add(&mut self, other: ShapeCounts) {
        self.trees += other.trees;
        self.distinct += other.distinct;
    }
}

/// Repeats, stage by stage through the public API, what `map_network`
/// does before emitting, so each stage gets a span of its own:
/// `Network::simplified`, `Forest::of`, `Forest::split_wide_nodes`,
/// `Forest::canonicalize`, then `TreeMapper::tree_cost` once per
/// distinct shape, which is the DP work the mapper's per-run cache
/// leaves. Runs outside the op's span, so the op's time is not inflated.
pub fn probe_map(tracer: &Tracer, network: &Network, options: &MapOptions) -> ShapeCounts {
    let _probe = tracer.span("map.probe");
    let normal = {
        let _s = tracer.span("map.normalize");
        network.simplified()
    };
    let mut forest = {
        let _s = tracer.span("map.forest");
        Forest::of(&normal)
    };
    {
        let _s = tracer.span("map.split");
        forest.split_wide_nodes(options.split_threshold.max(options.k));
    }
    let shapes = {
        let _s = tracer.span("map.canon");
        forest.canonicalize()
    };
    let mut seen = HashSet::with_capacity(shapes.len());
    let representatives: Vec<usize> = (0..shapes.len())
        .filter(|&i| seen.insert(shapes[i]))
        .collect();
    let mut mapper = TreeMapper::new();
    {
        let _s = tracer.span(dp_span(options.k));
        for &i in &representatives {
            let cost = mapper
                .tree_cost(&forest.trees[i], options.k)
                .expect("wide nodes were split");
            std::hint::black_box(cost);
        }
    }
    ShapeCounts {
        trees: shapes.len() as u64,
        distinct: representatives.len() as u64,
    }
}

/// Sets `trace.overhead`, the traced pass time over the untraced one,
/// with both bases.
pub fn report_overhead(out: &mut Outcome, traced_s: f64, untraced_s: f64) {
    let overhead = Ratio {
        num: traced_s,
        den: untraced_s,
    };
    out.set("trace.traced_s", traced_s);
    out.set("trace.untraced_s", untraced_s);
    out.set("trace.overhead", overhead.or_zero());
    out.note(format!(
        "trace.overhead = {traced_s:.6} s traced / {untraced_s:.6} s untraced per pass"
    ));
}

/// Reduces the spans of `passes` traced passes to per-pass layer
/// metrics. Times are self times, except `map.map_network_s`, whose
/// stages are probed separately and subtracted into `map.rest_s`.
pub fn report_layers(
    out: &mut Outcome,
    layers: &BTreeMap<&'static str, LayerTime>,
    passes: usize,
    shapes: ShapeCounts,
) {
    #[allow(clippy::cast_precision_loss)]
    let per_pass = |ns: u64| secs(ns) / passes.max(1) as f64;
    let self_of = |name: &str| layers.get(name).map_or(0, |l| l.self_ns);
    let total_of = |name: &str| layers.get(name).map_or(0, |l| l.total_ns);
    for (span, metric) in [
        ("netlist.parse", "netlist.parse_s"),
        ("netlist.verify", "netlist.verify_s"),
        ("netlist.render", "netlist.render_s"),
        ("opt.optimize", "opt.optimize_s"),
        ("map.normalize", "map.normalize_s"),
        ("map.forest", "map.forest_s"),
        ("map.split", "map.split_s"),
        ("map.canon", "map.canon_s"),
        ("design.parse", "design.parse_s"),
        ("design.map", "design.map_s"),
    ] {
        out.set(metric, per_pass(self_of(span)));
    }
    let dp: u64 = (2..=8).map(|k| self_of(dp_span(k))).sum();
    out.set("map.dp_s", per_pass(dp));
    out.set("map.dp_k4_s", per_pass(self_of(dp_span(4))));
    out.set("map.dp_k5_s", per_pass(self_of(dp_span(5))));
    out.set("map.dp_k6_s", per_pass(self_of(dp_span(6))));
    let map_network = total_of("map.map_network");
    out.set("map.map_network_s", per_pass(map_network));
    let parts = ["map.normalize", "map.forest", "map.split", "map.canon"]
        .iter()
        .map(|s| self_of(s))
        .sum::<u64>()
        + dp;
    #[allow(clippy::cast_precision_loss)]
    let rest = (map_network as f64 - parts as f64) / 1e9 / passes.max(1) as f64;
    out.set("map.rest_s", rest);
    #[allow(clippy::cast_precision_loss)]
    {
        out.set("map.trees", shapes.trees as f64 / passes.max(1) as f64);
        out.set(
            "map.distinct_shapes",
            shapes.distinct as f64 / passes.max(1) as f64,
        );
    }
    let reuse = Ratio {
        num: (shapes.trees - shapes.distinct) as f64,
        den: shapes.trees as f64,
    };
    out.set("map.shape_reuse", reuse.or_zero());
    out.note(format!(
        "map.shape_reuse = 1 - {} distinct / {} trees per pass",
        shapes.distinct / passes.max(1) as u64,
        shapes.trees / passes.max(1) as u64
    ));
    let parse = Ratio {
        num: out
            .metrics
            .get("netlist.parse_bytes")
            .copied()
            .unwrap_or(0.0)
            / 1e6,
        den: out.metrics.get("netlist.parse_s").copied().unwrap_or(0.0),
    };
    out.set("netlist.parse_mb_per_s", parse.or_zero());
    out.note(format!(
        "netlist.parse_mb_per_s = {:.3} MB / {:.6} s per pass",
        parse.num, parse.den
    ));
}
