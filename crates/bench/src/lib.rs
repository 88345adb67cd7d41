//! Benchmark harness regenerating the paper's evaluation (Tables 1–4).
//!
//! The pipeline mirrors Section 4.2: every benchmark circuit is optimized
//! by the MIS-style script, then mapped by both the MIS library baseline
//! and Chortle for K ∈ {2, 3, 4, 5}; each table row reports the LUT
//! counts, the percentage difference and the mapper wall times. All
//! mappings are verified functionally equivalent to the optimized network
//! before a row is accepted.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;

use std::time::{Duration, Instant};

use chortle::clb::{pack_clbs, ClbOptions};
use chortle::{crf_network_cost, map_network, MapOptions};
use chortle_circuits::{suite, Benchmark};
use chortle_logic_opt::optimize;
use chortle_mis::{map_network as mis_map, Library, MisOptions};
use chortle_netlist::{check_equivalence, Network, NetworkStats};

/// One row of a results table (one benchmark at one K).
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub circuit: String,
    /// LUTs produced by the MIS baseline.
    pub mis_luts: usize,
    /// LUTs produced by Chortle.
    pub chortle_luts: usize,
    /// MIS mapper wall time.
    pub mis_time: Duration,
    /// Chortle mapper wall time.
    pub chortle_time: Duration,
}

impl Row {
    /// Percentage improvement of Chortle over MIS, as the paper reports
    /// (`(mis - chortle) / mis * 100`).
    pub fn pct_improvement(&self) -> f64 {
        if self.mis_luts == 0 {
            0.0
        } else {
            (self.mis_luts as f64 - self.chortle_luts as f64) / self.mis_luts as f64 * 100.0
        }
    }
}

/// A complete table: all benchmarks at one K.
#[derive(Clone, Debug)]
pub struct Table {
    /// The LUT input count.
    pub k: usize,
    /// Per-benchmark rows, in suite order.
    pub rows: Vec<Row>,
}

impl Table {
    /// Mean percentage improvement across rows (the paper quotes the
    /// per-table averages: ~0% at K=2, 6% at K=3, 9% at K=4, 14% at K=5).
    pub fn mean_improvement(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(Row::pct_improvement).sum::<f64>() / self.rows.len() as f64
    }

    /// Total LUTs for each mapper.
    pub fn totals(&self) -> (usize, usize) {
        (
            self.rows.iter().map(|r| r.mis_luts).sum(),
            self.rows.iter().map(|r| r.chortle_luts).sum(),
        )
    }

    /// Total mapper times `(mis, chortle)`.
    pub fn total_times(&self) -> (Duration, Duration) {
        (
            self.rows.iter().map(|r| r.mis_time).sum(),
            self.rows.iter().map(|r| r.chortle_time).sum(),
        )
    }
}

/// Options for a harness run.
#[derive(Clone, Copy, Debug)]
pub struct HarnessOptions {
    /// Verify every mapping against the optimized network (slower but
    /// recommended; on by default).
    pub verify: bool,
    /// Let the MIS baseline duplicate logic at fanout nodes, as the
    /// greedy 1990 mapper did (the paper: MIS "tends to duplicate logic
    /// at fanout nodes"). On by default for fidelity; disable as an
    /// ablation.
    pub mis_duplicate_fanout: bool,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            verify: true,
            mis_duplicate_fanout: true,
        }
    }
}

/// The benchmark suite after logic optimization, paired with statistics.
///
/// Optimization is shared across tables: the paper optimizes each network
/// once with the standard MIS II script and feeds the same optimized
/// network to both mappers.
pub fn optimized_suite() -> Vec<(String, Network, NetworkStats)> {
    suite()
        .into_iter()
        .map(|Benchmark { name, network }| {
            let (optimized, _) = optimize(&network).expect("benchmarks are acyclic");
            let stats = NetworkStats::of(&optimized);
            (name.to_owned(), optimized, stats)
        })
        .collect()
}

/// Builds a `stages`-deep, `width`-wide register pipeline in BLIF: each
/// stage is a cloud of 3-input majority gates latched into the next,
/// with the final stage driving the primary outputs. The sequential
/// workload of the `perf` harness's `design_mapping` section and the
/// load generator's `design` phase — cloud count and sizes are known by
/// construction, and the shared-shape stage gates are exactly the
/// datapath regularity the warm cache targets.
pub fn pipelined_design(name: &str, stages: usize, width: usize) -> String {
    use std::fmt::Write as _;
    let mut blif = String::new();
    let _ = writeln!(blif, ".model {name}");
    let inputs: Vec<String> = (0..width).map(|w| format!("x{w}")).collect();
    let _ = writeln!(blif, ".inputs {}", inputs.join(" "));
    let outputs: Vec<String> = (0..width).map(|w| format!("z{w}")).collect();
    let _ = writeln!(blif, ".outputs {}", outputs.join(" "));
    let mut prev = inputs;
    for s in 0..stages {
        let mut next = Vec::with_capacity(width);
        for w in 0..width {
            let (a, b, c) = (&prev[w], &prev[(w + 1) % width], &prev[(w + 2) % width]);
            let d = format!("s{s}w{w}");
            let _ = writeln!(blif, ".names {a} {b} {c} {d}");
            blif.push_str("11- 1\n1-1 1\n-11 1\n");
            if s + 1 == stages {
                let _ = writeln!(blif, ".names {d} z{w}");
                blif.push_str("1 1\n");
            } else {
                let q = format!("q{s}w{w}");
                let _ = writeln!(blif, ".latch {d} {q} re clk 0");
                next.push(q);
            }
        }
        prev = next;
    }
    blif.push_str(".end\n");
    blif
}

/// Maps one optimized network with both mappers at one K and returns the
/// row.
///
/// # Panics
///
/// Panics if either mapper fails or (with `verify`) produces a circuit
/// that is not equivalent to the network.
pub fn run_row(name: &str, network: &Network, k: usize, options: &HarnessOptions) -> Row {
    let lib = Library::for_paper(k);
    let mut mis_opts = MisOptions::new(k);
    if options.mis_duplicate_fanout {
        mis_opts = mis_opts.with_fanout_duplication();
    }

    let t0 = Instant::now();
    let mis = mis_map(network, &lib, &mis_opts).expect("MIS mapping succeeds");
    let mis_time = t0.elapsed();

    let t1 = Instant::now();
    let ch = map_network(network, &MapOptions::builder(k).build().unwrap())
        .expect("Chortle mapping succeeds");
    let chortle_time = t1.elapsed();

    if options.verify {
        check_equivalence(network, &mis.circuit)
            .unwrap_or_else(|e| panic!("{name} K={k}: MIS mapping not equivalent: {e}"));
        check_equivalence(network, &ch.circuit)
            .unwrap_or_else(|e| panic!("{name} K={k}: Chortle mapping not equivalent: {e}"));
    }

    Row {
        circuit: name.to_owned(),
        mis_luts: mis.report.luts,
        chortle_luts: ch.report.luts,
        mis_time,
        chortle_time,
    }
}

/// Regenerates the table for one K over the whole suite.
pub fn run_table(k: usize, options: &HarnessOptions) -> Table {
    let rows = optimized_suite()
        .iter()
        .map(|(name, net, _)| run_row(name, net, k, options))
        .collect();
    Table { k, rows }
}

/// Renders a table in the paper's format.
pub fn format_table(table: &Table) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table: Results, K={} (cf. paper Table {})",
        table.k,
        table.k - 1
    );
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>9} {:>7} {:>10} {:>10}",
        "Circuit", "MIS", "Chortle", "%", "t-MIS(s)", "t-Chort(s)"
    );
    for r in &table.rows {
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>9} {:>6.1} {:>10.3} {:>10.3}",
            r.circuit,
            r.mis_luts,
            r.chortle_luts,
            r.pct_improvement(),
            r.mis_time.as_secs_f64(),
            r.chortle_time.as_secs_f64(),
        );
    }
    let (mt, ct) = table.totals();
    let (mtt, ctt) = table.total_times();
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>9} {:>6.1} {:>10.3} {:>10.3}",
        "TOTAL",
        mt,
        ct,
        table.mean_improvement(),
        mtt.as_secs_f64(),
        ctt.as_secs_f64(),
    );
    out
}

/// The optional sections of [`paper_tables`] after Tables 1–4.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableSections {
    /// Sweep Chortle's node-splitting threshold at K = 5.
    pub ablate_split: bool,
    /// Compare the optimal DP with Chortle-crf-style bin packing.
    pub ablate_crf: bool,
    /// XC3000-style CLB packing of the K = 4 mapping.
    pub clb: bool,
}

/// The full report of the `tables` binary: the optimized suite's
/// statistics, the results table for each K in `ks`, and the requested
/// `sections`.
///
/// # Panics
///
/// Panics if a mapping fails or (with `options.verify`) is not
/// equivalent to its network.
pub fn paper_tables(ks: &[usize], options: &HarnessOptions, sections: &TableSections) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let map = |net: &Network, k: usize| {
        map_network(net, &MapOptions::builder(k).build().unwrap()).expect("maps")
    };
    let _ = writeln!(out, "Benchmark suite (after MIS-script optimization):");
    let _ = writeln!(
        out,
        "{:<10} {:>6} {:>6} {:>7} {:>9} {:>6}",
        "Circuit", "in", "out", "gates", "literals", "depth"
    );
    let suite = optimized_suite();
    for (name, _, stats) in &suite {
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>6} {:>7} {:>9} {:>6}",
            name, stats.inputs, stats.outputs, stats.gates, stats.literals, stats.depth
        );
    }
    let _ = writeln!(out);

    for &k in ks {
        let table = run_table(k, options);
        out.push_str(&format_table(&table));
        let _ = writeln!(out);
    }

    if sections.ablate_crf {
        let _ = writeln!(
            out,
            "Ablation: optimal DP vs Chortle-crf-style bin packing (LUT counts)"
        );
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>8} {:>8}",
            "Circuit", "DP-K3", "crf-K3", "DP-K5", "crf-K5"
        );
        for (name, net, _) in &suite {
            let dp3 = map(net, 3).report.luts;
            let crf3 = crf_network_cost(net, 3);
            let dp5 = map(net, 5).report.luts;
            let crf5 = crf_network_cost(net, 5);
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>8} {:>8} {:>8}",
                name, dp3, crf3, dp5, crf5
            );
        }
        let _ = writeln!(out);
    }

    if sections.clb {
        let _ = writeln!(
            out,
            "Extension: XC3000-style CLB packing of the K=4 mapping"
        );
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>7} {:>9}",
            "Circuit", "LUTs", "CLBs", "saving%"
        );
        for (name, net, _) in &suite {
            let mapped = map(net, 4);
            let packing = pack_clbs(&mapped.circuit, &ClbOptions::xc3000());
            let saving = (mapped.report.luts - packing.block_count()) as f64
                / mapped.report.luts.max(1) as f64
                * 100.0;
            let _ = writeln!(
                out,
                "{:<10} {:>7} {:>7} {:>8.1}",
                name,
                mapped.report.luts,
                packing.block_count(),
                saving
            );
        }
        let _ = writeln!(out);
    }

    if sections.ablate_split {
        let _ = writeln!(out, "Ablation: Chortle split threshold (K=5, LUT counts)");
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "Circuit", "t=5", "t=6", "t=8", "t=10", "t=12"
        );
        for (name, net, _) in &suite {
            let counts: Vec<usize> = [5usize, 6, 8, 10, 12]
                .iter()
                .map(|&t| {
                    let options = MapOptions::builder(5)
                        .split_threshold(t)
                        .unwrap()
                        .build()
                        .unwrap();
                    map_network(net, &options).expect("maps").report.luts
                })
                .collect();
            let _ = writeln!(
                out,
                "{:<10} {:>6} {:>6} {:>6} {:>6} {:>6}",
                name, counts[0], counts[1], counts[2], counts[3], counts[4]
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_improvement_math() {
        let row = Row {
            circuit: "x".into(),
            mis_luts: 100,
            chortle_luts: 91,
            mis_time: Duration::ZERO,
            chortle_time: Duration::ZERO,
        };
        assert!((row.pct_improvement() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn single_small_row_runs_and_verifies() {
        let net = chortle_circuits::benchmark("alu2").expect("known");
        let (optimized, _) = optimize(&net).expect("acyclic");
        let row = run_row("alu2", &optimized, 3, &HarnessOptions::default());
        assert!(row.mis_luts > 0);
        assert!(row.chortle_luts > 0);
    }

    #[test]
    fn format_is_stable() {
        let table = Table {
            k: 4,
            rows: vec![Row {
                circuit: "demo".into(),
                mis_luts: 10,
                chortle_luts: 9,
                mis_time: Duration::from_millis(5),
                chortle_time: Duration::from_millis(2),
            }],
        };
        let s = format_table(&table);
        assert!(s.contains("demo"));
        assert!(s.contains("K=4"));
    }
}
