//! Differential test of the interned BLIF reader against the frozen
//! string-keyed one.
//!
//! [`parse_blif`] must agree with
//! [`chortle_bench::baseline::baseline_parse_blif`] on every input: the
//! same [`Network`], or an error with the same `Display` text, line
//! number included. The corpus is the paper suite and its `write_blif`
//! round trips, the three large `map_large` netlists, and a few thousand
//! seeded mutants aimed at the elaborator's error paths.

use chortle_bench::baseline::baseline_parse_blif;
use chortle_bench::pipelined_design;
use chortle_circuits::{alu, des_like, random_logic, suite};
use chortle_logic_opt::optimize;
use chortle_netlist::{parse_blif, write_blif, Network, ParseBlifError, SplitMix64};

/// Parses `text` with both readers and asserts they agree; returns the
/// shared outcome.
fn agree(what: &str, text: &str) -> Result<Network, ParseBlifError> {
    let got = parse_blif(text);
    let want = baseline_parse_blif(text);
    match (&got, &want) {
        (Ok(g), Ok(w)) => assert!(g == w, "{what}: networks differ\n{text}"),
        (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{what}\n{text}"),
        _ => panic!("{what}: interned {got:?} vs baseline {want:?}\n{text}"),
    }
    got
}

#[test]
fn suite_circuits_and_their_round_trips_agree() {
    for b in suite() {
        let net = agree(b.name, &write_blif(&b.network, b.name)).expect("suite parses");
        let again = write_blif(&net, b.name);
        agree(&format!("{} round trip", b.name), &again).expect("round trip parses");
    }
}

#[test]
fn large_netlists_agree() {
    let optimized = |net| optimize(&net).expect("generated netlists are acyclic").0;
    let nets = [
        ("random7k", optimized(random_logic(7, 600, 7000, 400, 4))),
        ("des64x6", optimized(des_like(11, 64, 6))),
        ("alu256", optimized(alu(256))),
    ];
    for (name, net) in nets {
        let parsed = agree(name, &write_blif(&net, name)).expect("parses");
        assert_eq!(parsed.num_outputs(), net.num_outputs(), "{name}");
    }
    // A sequential design: both readers point at the design reader.
    agree("pipeline", &pipelined_design("pipe", 3, 8)).expect_err("latches are rejected");
}

/// A small random `.names` netlist over a tight name pool, so mutants hit
/// duplicate definitions, undefined signals and cycles often.
fn random_blif(rng: &mut SplitMix64) -> String {
    let inputs = rng.next_range(1, 5);
    let gates = rng.next_range(1, 9);
    let mut text = String::from(".model fuzz\n.inputs");
    for i in 0..inputs {
        text.push_str(&format!(" a{i}"));
    }
    text.push_str("\n.outputs");
    for _ in 0..rng.next_range(1, 4) {
        text.push_str(&format!(" g{}", rng.next_below(gates as u64)));
    }
    text.push('\n');
    for g in 0..gates {
        let width = rng.next_range(0, 5);
        text.push_str(".names");
        for _ in 0..width {
            // Mostly inputs and earlier gates; sometimes a later gate.
            let pick = rng.next_below(inputs as u64 + g as u64 + 1) as usize;
            if pick < inputs {
                text.push_str(&format!(" a{pick}"));
            } else {
                text.push_str(&format!(" g{}", pick - inputs));
            }
        }
        text.push_str(&format!(" g{g}\n"));
        let on = if rng.next_bool(1, 4) { '0' } else { '1' };
        for _ in 0..rng.next_range(0, 4) {
            for _ in 0..width {
                text.push(['0', '1', '-'][rng.next_below(3) as usize]);
            }
            if width > 0 {
                text.push(' ');
            }
            text.push(on);
            text.push('\n');
        }
    }
    text.push_str(".end\n");
    text
}

/// A `.names` block over `width` fanins drawn from two names, so the
/// fanin list repeats them: every row reduces through duplicate and
/// contradictory literals.
fn wide_contradictory_block(rng: &mut SplitMix64, width: usize) -> String {
    let mut block = String::from(".names");
    for _ in 0..width {
        block.push_str(if rng.next_bool(1, 2) { " a0" } else { " g0" });
    }
    block.push_str(" wide\n");
    for _ in 0..rng.next_range(1, 6) {
        for _ in 0..width {
            block.push(['0', '1', '-'][rng.next_below(3) as usize]);
        }
        block.push_str(" 1\n");
    }
    block
}

/// Applies one targeted or generic mutation.
fn mutate(src: &str, rng: &mut SplitMix64) -> String {
    let lines: Vec<&str> = src.lines().collect();
    if lines.is_empty() {
        return src.to_owned();
    }
    let splice = |rng: &mut SplitMix64, extra: &str| {
        let mut out = lines.clone();
        // Never before `.model`, so the mutant stays one model.
        out.insert(rng.next_range(1, out.len() + 1), extra);
        out.join("\n") + "\n"
    };
    match rng.next_below(10) {
        // A second driver of a gate or of an input.
        0 => splice(rng, ".names a0 g0\n1 1"),
        1 => splice(rng, ".names g0 a0\n0 1"),
        // An undefined fanin.
        2 => src.replacen(" g0", " ghost", 1),
        // A cycle through two gates.
        3 => splice(
            rng,
            ".names cyc1 cyc0\n1 1\n.names cyc0 a0 cyc1\n11 1\n.outputs cyc1",
        ),
        // Repeated input names.
        4 => src.replacen(".inputs", ".inputs a0 a0", 1),
        // Wide cubes over repeated fanins.
        5 => {
            let width = rng.next_range(2, 40);
            let block = wide_contradictory_block(rng, width);
            splice(rng, &format!("{block}.outputs wide"))
        }
        // Duplicate a line, delete a line, truncate.
        6 => {
            let mut out = lines.clone();
            let i = rng.next_range(0, out.len());
            out.insert(i, out[i]);
            out.join("\n") + "\n"
        }
        7 => {
            let mut out = lines.clone();
            out.remove(rng.next_range(0, out.len()));
            out.join("\n") + "\n"
        }
        8 => src[..rng.next_range(0, src.len() + 1)].to_owned(),
        // Metadata and malformed rows.
        _ => {
            let bogus = [
                ".attr src x",
                ".names",
                "1x 1",
                "11 2",
                "- 1",
                ".conn a0 g0",
                ".exdc",
                ".model again",
                ".latch a0 q",
                ".subckt m p=q",
                ".blackbox",
            ];
            let pick = bogus[rng.next_below(bogus.len() as u64) as usize];
            splice(rng, pick)
        }
    }
}

#[test]
fn seeded_mutants_agree() {
    let mut rng = SplitMix64::new(0xd1ff_b11f);
    let mut kinds = [0usize; 5];
    for case in 0..2500 {
        let mut text = random_blif(&mut rng);
        for _ in 0..rng.next_range(1, 4) {
            text = mutate(&text, &mut rng);
        }
        let outcome = agree(&format!("mutant {case}"), &text);
        let kind = match &outcome {
            Ok(_) => 0,
            Err(e) if e.to_string().contains("defined twice") => 1,
            Err(e) if e.to_string().contains("combinational cycle") => 2,
            Err(ParseBlifError::UndefinedSignal(_)) => 3,
            Err(_) => 4,
        };
        kinds[kind] += 1;
    }
    // Every error path the mutants aim at is actually reached.
    assert!(
        kinds.iter().all(|&n| n >= 50),
        "ok / defined twice / cycle / undefined / other = {kinds:?}"
    );
}

#[test]
fn hostile_wide_names_blocks_agree() {
    // A 10^5-row `.names` over 64 fanins that alternate between two
    // names; every row is one literal, so the OR reduces 10^5 cube
    // signals down to `a0, g0, !a0, !g0`.
    let mut text = String::from(".model big\n.inputs a0 g0\n.outputs wide\n.names");
    for i in 0..64 {
        text.push_str(if i % 2 == 0 { " a0" } else { " g0" });
    }
    text.push_str(" wide\n");
    for i in 0..100_000 {
        let mut row = vec![b'-'; 64];
        row[i % 64] = if i % 3 == 0 { b'0' } else { b'1' };
        text.push_str(std::str::from_utf8(&row).unwrap());
        text.push_str(" 1\n");
    }
    text.push_str(".end\n");
    agree("hostile wide block", &text).expect("parses");
}
