//! Regenerates the paper's Tables 1–4: MIS vs Chortle LUT counts and
//! mapper times over the benchmark suite for K = 2..5.
//!
//! Usage:
//!
//! ```text
//! tables [--k N] [--no-verify] [--no-duplicate-fanout] [--ablate-split]
//! ```
//!
//! * `--k N` — run only the table for K = N (default: all of 2, 3, 4, 5).
//! * `--no-verify` — skip the functional equivalence checks (faster).
//! * `--no-duplicate-fanout` — disable the MIS baseline's greedy logic
//!   duplication at fanout nodes (on by default, as in the 1990 mapper).
//! * `--ablate-split` — additionally sweep Chortle's node-splitting
//!   threshold and report the LUT-count impact (paper Section 3.1.4).
//! * `--ablate-crf` — compare the optimal DP against the Chortle-crf-style
//!   bin-packing heuristic.
//! * `--clb` — report XC3000-style CLB packing of the K=4 mapping.

use std::process::ExitCode;

use chortle_bench::{paper_tables, HarnessOptions, TableSections};

fn main() -> ExitCode {
    let mut ks: Vec<usize> = vec![2, 3, 4, 5];
    let mut options = HarnessOptions::default();
    let mut ablate_split = false;
    let mut ablate_crf = false;
    let mut report_clb = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--k" => {
                let Some(v) = args.next().and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--k requires an integer argument");
                    return ExitCode::FAILURE;
                };
                if !(2..=6).contains(&v) {
                    eprintln!("K must be between 2 and 6");
                    return ExitCode::FAILURE;
                }
                ks = vec![v];
            }
            "--no-verify" => options.verify = false,
            "--no-duplicate-fanout" => options.mis_duplicate_fanout = false,
            "--ablate-split" => ablate_split = true,
            "--ablate-crf" => ablate_crf = true,
            "--clb" => report_clb = true,
            "--help" | "-h" => {
                println!(
                    "tables [--k N] [--no-verify] [--no-duplicate-fanout] [--ablate-split] [--ablate-crf] [--clb]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    let sections = TableSections {
        ablate_split,
        ablate_crf,
        clb: report_clb,
    };
    print!("{}", paper_tables(&ks, &options, &sections));
    ExitCode::SUCCESS
}
