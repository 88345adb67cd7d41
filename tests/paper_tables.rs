//! Golden test of the paper-facing numbers: regenerates the report of
//! `tables --ablate-split --ablate-crf --clb` (Tables 1–4, both
//! ablations and the CLB extension) through the same harness function
//! the binary prints, and compares it with the checked-in
//! `results/tables.txt` with the mapper-time columns dropped. An intended
//! change regenerates that file and explains the change in
//! EXPERIMENTS.md.

use chortle_bench::{paper_tables, HarnessOptions, TableSections};

/// `text` with the two time columns (`t-MIS(s)`, `t-Chort(s)`) of every
/// results table removed and each line's fields single-spaced.
fn without_times(text: &str) -> Vec<String> {
    let mut in_results = false;
    text.lines()
        .map(|line| {
            if line.contains("t-MIS(s)") {
                in_results = true;
            } else if line.trim().is_empty() {
                in_results = false;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let keep = if in_results {
                fields.len() - 2
            } else {
                fields.len()
            };
            fields[..keep].join(" ")
        })
        .collect()
}

#[test]
fn paper_tables_match_the_checked_in_results() {
    let sections = TableSections {
        ablate_split: true,
        ablate_crf: true,
        clb: true,
    };
    let got = paper_tables(&[2, 3, 4, 5], &HarnessOptions::default(), &sections);
    let golden = include_str!("../results/tables.txt");
    let (got, want) = (without_times(&got), without_times(golden));
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "results/tables.txt line {}", i + 1);
    }
    assert_eq!(got.len(), want.len(), "line count");
}
