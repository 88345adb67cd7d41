//! The BLIF directive matrix, pinned once.
//!
//! Every row runs through both entry points, `parse_blif` and
//! `parse_design`, and records the one outcome both must agree on: the
//! directive is parsed, skipped, or rejected with a given error text and
//! line. Parsed and skipped rows name the plain BLIF their logic must
//! equal; skipped rows also pin the skipped-metadata count.

use chortle_netlist::{check_networks, parse_blif, parse_design, Network, ParseBlifError};

enum Outcome {
    /// The directive is read; the logic equals this plain BLIF.
    Parsed(&'static str),
    /// The directive (and any body it carries) is skipped; the logic
    /// equals this plain BLIF, and the design reader counts this many
    /// body-less metadata directives in `skipped_directives`.
    Skipped(&'static str, u64),
    /// Both readers fail with a syntax error containing this text, at
    /// this line.
    Rejected(&'static str, usize),
}

use Outcome::{Parsed, Rejected, Skipped};

const AND: &str = ".model ref\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n";

const MATRIX: &[(&str, &str, Outcome)] = &[
    (
        "KISS body after a cover",
        ".model k\n.inputs a b\n.outputs y\n.names a b y\n11 1\n\
         .start_kiss\n.i 2\n.o 1\n01 1\n.end_kiss\n.end\n",
        Rejected("unsupported construct .start_kiss", 6),
    ),
    (
        "KISS body before any cover",
        ".model k\n.inputs a b\n.outputs y\n.start_kiss\n.i 2\n.o 1\n.end_kiss\n.end\n",
        Rejected("unsupported construct .start_kiss", 4),
    ),
    (
        ".exdc rows right after a cover",
        ".model e\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.exdc\n00 1\n.end\n",
        Skipped(AND, 0),
    ),
    (
        ".exdc redefining an output",
        ".model e\n.inputs a b\n.outputs y\n.names a b y\n11 1\n\
         .exdc\n.inputs a b\n.outputs y\n.names a b y\n00 1\n.end\n",
        Skipped(AND, 0),
    ),
    (
        ".conn",
        ".model c\n.inputs a b\n.outputs y\n.names a b t\n11 1\n.conn t y\n.end\n",
        Parsed(AND),
    ),
    (
        ".cname, .attr and .param",
        ".model m\n.inputs a b\n.outputs y\n.names a b y\n.cname g1\n11 1\n\
         .attr src \"top.v:3\"\n.param WIDTH 1\n.end\n",
        Skipped(AND, 3),
    ),
    (
        ".clock and unknown metadata",
        ".model m\n.inputs a b\n.outputs y\n.clock clk\n.default_input_arrival 0 0\n\
         .names a b y\n11 1\n.end\n",
        Skipped(AND, 2),
    ),
    (
        ".blackbox top model",
        ".model bb\n.inputs a b\n.outputs y\n.blackbox\n.end\n",
        Rejected("top model \"bb\" is a blackbox", 1),
    ),
    (
        ".gate",
        ".model g\n.inputs a b\n.outputs y\n.gate and2 A=a B=b O=y\n.end\n",
        Rejected("unsupported construct .gate", 4),
    ),
    (
        ".mlatch",
        ".model g\n.inputs a b\n.outputs y\n.mlatch dff D=a Q=y NIL 0\n.end\n",
        Rejected("unsupported construct .mlatch", 4),
    ),
    (
        "missing .model",
        ".inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n",
        Parsed(AND),
    ),
    (
        "metadata before the first .model",
        ".search lib.blif\n.default_input_arrival 0 0\n.attr src x\n\
         .model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n",
        Skipped(AND, 3),
    ),
    (
        "stray .end and .exdc before the first .model",
        ".end\n.exdc\n.names a y\n0 1\n.end\n\
         .model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n",
        Skipped(AND, 0),
    ),
    (
        "logic before the first .model",
        ".inputs a b\n.model m\n.outputs y\n.names a b y\n11 1\n.end\n",
        Rejected("duplicate .model before .end", 2),
    ),
    (
        "missing .end",
        ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n",
        Parsed(AND),
    ),
];

/// Asserts `result` is a syntax error containing `needle` at `line`.
fn assert_rejected(result: Result<Network, ParseBlifError>, needle: &str, line: usize, who: &str) {
    match result {
        Err(ParseBlifError::Syntax { line: got, message }) => {
            assert!(
                message.contains(needle),
                "{who}: {message:?} lacks {needle:?}"
            );
            assert_eq!(got, line, "{who}: wrong line for {needle:?}");
        }
        other => panic!("{who}: expected a syntax error {needle:?}, got {other:?}"),
    }
}

#[test]
fn directive_matrix_has_one_outcome_in_both_readers() {
    for (name, src, outcome) in MATRIX {
        let blif = parse_blif(src);
        let design = parse_design(src);
        let skipped = design
            .as_ref()
            .map_or(0, |(_, stats)| stats.skipped_directives);
        let design = design.map(|(design, _)| design.logic().clone());
        match outcome {
            Parsed(want) | Skipped(want, _) => {
                let count = if let Skipped(_, count) = outcome {
                    *count
                } else {
                    0
                };
                assert_eq!(skipped, count, "{name}: skipped_directives");
                let want = parse_blif(want).expect("reference parses");
                for (who, got) in [("parse_blif", blif), ("parse_design", design)] {
                    let got = got.unwrap_or_else(|e| panic!("{name}: {who} failed: {e}"));
                    check_networks(&want, &got)
                        .unwrap_or_else(|e| panic!("{name}: {who} misparsed: {e}"));
                }
            }
            Rejected(needle, line) => {
                assert_rejected(blif, needle, *line, &format!("{name}: parse_blif"));
                assert_rejected(design, needle, *line, &format!("{name}: parse_design"));
            }
        }
    }
}

#[test]
fn skipped_exdc_sections_are_counted() {
    let src = ".model e\n.inputs a\n.outputs y\n.names a y\n1 1\n.exdc\n.names a y\n0 1\n.end\n";
    let (_, stats) = parse_design(src).expect("parses");
    assert_eq!(stats.exdc_blocks, 1);
}

#[test]
fn entry_points_differ_only_where_the_combinational_reader_stops() {
    // A latch is the design reader's business; the combinational reader
    // points callers at it, at the latch's line.
    let seq = ".model s\n.inputs a\n.outputs q\n.latch a q re clk 0\n.end\n";
    parse_design(seq).expect("the design reader takes latches");
    assert_rejected(
        parse_blif(seq),
        "sequential construct .latch",
        4,
        "parse_blif",
    );
    // A second model: the design reader reads it, the combinational
    // reader stops at the first `.end` and never sees it.
    let two = format!("{AND}.model other\n.inputs p\n.outputs r\n.gate x\n.end\n");
    let net = parse_blif(&two).expect("nothing after the first model is read");
    check_networks(&parse_blif(AND).unwrap(), &net).expect("first model only");
    assert_rejected(
        parse_design(&two).map(|(d, _)| d.logic().clone()),
        "unsupported construct .gate",
        10,
        "parse_design",
    );
    // Directives after `.end` with no `.model` of their own stay an error
    // in the design reader.
    let stray = format!("{AND}.names a y\n1 1\n");
    assert_rejected(
        parse_design(&stray).map(|(d, _)| d.logic().clone()),
        "outside a .model block",
        7,
        "parse_design",
    );
}
