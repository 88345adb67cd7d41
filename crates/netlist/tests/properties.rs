//! Property-style tests for the netlist substrate: truth-table algebra,
//! simulation consistency, BLIF round-trips and simplification, driven by
//! seeded random networks.
//!
//! The random cases come from the in-repo [`SplitMix64`] generator rather
//! than an external property-testing framework, so the suite builds and
//! runs fully offline and every failure reproduces bit-for-bit from the
//! loop's seed.

use chortle_netlist::{
    check_networks, parse_blif, simulate, write_blif, Network, NodeOp, Signal, SplitMix64,
    TruthTable,
};

/// Builds a random valid network from a seed: `inputs` primary inputs,
/// `gates` random AND/OR gates over earlier signals, and a few outputs.
fn random_network(seed: u64, inputs: usize, gates: usize) -> Network {
    let mut rng = SplitMix64::new(seed);
    let mut net = Network::new();
    let mut signals: Vec<Signal> = (0..inputs)
        .map(|i| Signal::new(net.add_input(format!("i{i}"))))
        .collect();
    if rng.next_bool(1, 4) {
        signals.push(Signal::new(net.add_const(rng.next_bool(1, 2))));
    }
    for g in 0..gates {
        let arity = rng.next_range(2, 5.min(signals.len() + 1).max(3));
        let mut fanins: Vec<Signal> = Vec::new();
        let mut used = std::collections::HashSet::new();
        let mut guard = 0;
        while fanins.len() < arity && guard < 100 {
            guard += 1;
            let s = signals[rng.choose_index(&signals)];
            if used.insert(s.node()) {
                fanins.push(if rng.next_bool(1, 3) { !s } else { s });
            }
        }
        if fanins.len() < 2 {
            continue;
        }
        let op = if g % 2 == 0 { NodeOp::And } else { NodeOp::Or };
        signals.push(Signal::new(net.add_gate(op, fanins)));
    }
    let outs = rng.next_range(1, 4);
    for o in 0..outs {
        let s = signals[rng.choose_index(&signals)];
        net.add_output(format!("o{o}"), if rng.next_bool(1, 4) { !s } else { s });
    }
    net
}

/// Masks a packed 64-bit table to the first `2^vars` rows.
fn table_mask(vars: usize) -> u64 {
    if vars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << vars)) - 1
    }
}

#[test]
fn truth_table_ops_match_pointwise_semantics() {
    let mut rng = SplitMix64::new(0x7ab1_e0b5);
    for _ in 0..128 {
        let vars = rng.next_range(1, 7);
        let mask = table_mask(vars);
        let a = TruthTable::from_words(vars, &[rng.next_u64() & mask]);
        let b = TruthTable::from_words(vars, &[rng.next_u64() & mask]);
        for bits in 0..(1u32 << vars) {
            assert_eq!(a.and(&b).eval(bits), a.eval(bits) && b.eval(bits));
            assert_eq!(a.or(&b).eval(bits), a.eval(bits) || b.eval(bits));
            assert_eq!(a.xor(&b).eval(bits), a.eval(bits) != b.eval(bits));
            assert_eq!(a.not().eval(bits), !a.eval(bits));
        }
    }
}

#[test]
fn permutation_roundtrip_is_identity() {
    let mut rng = SplitMix64::new(0x9e87_0001);
    for _ in 0..128 {
        let vars = rng.next_range(2, 9);
        let t_bits = rng.next_u64();
        let t = if vars <= 6 {
            TruthTable::from_words(vars, &[t_bits & table_mask(vars)])
        } else {
            TruthTable::from_fn(vars, |b| (t_bits >> (b % 64)) & 1 == 1)
        };
        let mut perm: Vec<usize> = (0..vars).collect();
        rng.shuffle(&mut perm);
        // Inverse permutation.
        let mut inv = vec![0usize; vars];
        for (i, &p) in perm.iter().enumerate() {
            inv[p] = i;
        }
        assert_eq!(t.permuted(&perm).permuted(&inv), t);
    }
}

#[test]
fn permutation_matches_index_remap() {
    let mut rng = SplitMix64::new(0x9e87_0002);
    for _ in 0..128 {
        let vars = rng.next_range(2, 7);
        let t = TruthTable::from_words(vars, &[rng.next_u64() & table_mask(vars)]);
        let mut perm: Vec<usize> = (0..vars).collect();
        rng.shuffle(&mut perm);
        let p = t.permuted(&perm);
        for bits in 0..(1u32 << vars) {
            // New assignment: variable perm[i] holds old variable i's value.
            let mut new_bits = 0u32;
            for (i, &p) in perm.iter().enumerate() {
                if (bits >> i) & 1 == 1 {
                    new_bits |= 1 << p;
                }
            }
            assert_eq!(p.eval(new_bits), t.eval(bits));
        }
    }
}

#[test]
fn cofactors_reconstruct_by_shannon() {
    let mut rng = SplitMix64::new(0x9e87_0003);
    for _ in 0..128 {
        let vars = rng.next_range(1, 7);
        let var = rng.next_range(0, vars);
        let t = TruthTable::from_words(vars, &[rng.next_u64() & table_mask(vars)]);
        let pos = t.cofactor(var, true);
        let neg = t.cofactor(var, false);
        let x = TruthTable::var(vars, var);
        let rebuilt = x.and(&pos).or(&x.not().and(&neg));
        assert_eq!(rebuilt, t);
    }
}

#[test]
fn shrink_extend_roundtrip() {
    let mut rng = SplitMix64::new(0x9e87_0004);
    for _ in 0..128 {
        let vars = rng.next_range(1, 7);
        let t = TruthTable::from_words(vars, &[rng.next_u64() & table_mask(vars)]);
        let (shrunk, support) = t.shrunk();
        assert_eq!(shrunk.num_vars(), support.len());
        // Re-expand and compare on every assignment.
        for bits in 0..(1u32 << vars) {
            let mut small = 0u32;
            for (j, &v) in support.iter().enumerate() {
                if (bits >> v) & 1 == 1 {
                    small |= 1 << j;
                }
            }
            assert_eq!(shrunk.eval(small), t.eval(bits));
        }
    }
}

/// Asserts `eval_words` agrees with per-bit `eval` on all 64 packed
/// assignments of `inputs`.
fn assert_eval_words_per_bit(t: &TruthTable, inputs: &[u64]) {
    let got = t.eval_words(inputs);
    for bit in 0..64 {
        let mut bits = 0u32;
        for (j, w) in inputs.iter().enumerate() {
            bits |= (((w >> bit) & 1) as u32) << j;
        }
        assert_eq!(
            (got >> bit) & 1 == 1,
            t.eval(bits),
            "{t:?} on assignment {bits:#b} (pattern bit {bit})"
        );
    }
}

#[test]
fn eval_words_matches_per_bit_eval() {
    let mut rng = SplitMix64::new(0x9e87_000a);
    for vars in (0..=8usize).chain([10, 16]) {
        let words = 1usize << vars.saturating_sub(6);
        let mut tables = vec![
            TruthTable::constant(vars, false),
            TruthTable::constant(vars, true),
        ];
        for _ in 0..8 {
            let raw: Vec<u64> = (0..words).map(|_| rng.next_u64()).collect();
            tables.push(TruthTable::from_words(vars, &raw));
        }
        for t in &tables {
            let random: Vec<u64> = (0..vars).map(|_| rng.next_u64()).collect();
            assert_eval_words_per_bit(t, &random);
            // All-equal inputs: only the table's diagonal is reachable.
            let shared = rng.next_u64();
            for fill in [0, u64::MAX, shared] {
                assert_eval_words_per_bit(t, &vec![fill; vars]);
            }
        }
    }
}

#[test]
fn simulation_agrees_with_truth_tables() {
    let mut rng = SplitMix64::new(0x9e87_0005);
    for _ in 0..128 {
        let net = random_network(rng.next_u64(), 5, 12);
        if net.num_inputs() > 12 {
            continue;
        }
        net.validate().unwrap();
        let tables = net.node_functions().unwrap();
        // Pack all assignments of the first 6 patterns per word.
        let mut words = vec![0u64; net.num_inputs()];
        let n = net.num_inputs() as u32;
        for bits in 0..(1u32 << n).min(64) {
            for (i, w) in words.iter_mut().enumerate() {
                if (bits >> i) & 1 == 1 {
                    *w |= 1 << bits;
                }
            }
        }
        let sim = simulate(&net, &words);
        for (id, _) in net.nodes() {
            for bits in 0..(1u32 << n).min(64) {
                assert_eq!(
                    (sim[id.index()] >> bits) & 1 == 1,
                    tables[id.index()].eval(bits),
                    "node {id:?} assignment {bits:b}"
                );
            }
        }
    }
}

#[test]
fn simplify_preserves_functions() {
    let mut rng = SplitMix64::new(0x9e87_0006);
    for _ in 0..128 {
        let net = random_network(rng.next_u64(), 6, 14);
        let simplified = net.simplified();
        simplified.validate().unwrap();
        check_networks(&net, &simplified).unwrap();
        // Normal form: no constants feed gates, no single-fanin gates.
        for (_, node) in simplified.nodes() {
            if node.op().is_gate() {
                assert!(node.fanin_count() >= 2);
                for s in node.fanins() {
                    assert!(!matches!(simplified.node(s.node()).op(), NodeOp::Const(_)));
                }
            }
        }
    }
}

#[test]
fn blif_roundtrip_preserves_functions() {
    let mut rng = SplitMix64::new(0x9e87_0007);
    for _ in 0..128 {
        let net = random_network(rng.next_u64(), 6, 10);
        let text = write_blif(&net, "prop");
        let reread = parse_blif(&text).unwrap();
        assert_eq!(net.num_outputs(), reread.num_outputs());
        check_networks(&net, &reread).unwrap();
    }
}

#[test]
fn splitmix_next_below_uniform_support() {
    let mut rng = SplitMix64::new(0x9e87_0008);
    for _ in 0..128 {
        let bound = rng.next_range(1, 100) as u64;
        let mut inner = SplitMix64::new(rng.next_u64());
        for _ in 0..100 {
            assert!(inner.next_below(bound) < bound);
        }
    }
}

// ---------------------------------------------------------------------------
// Sequential designs: random register pipelines through the streaming
// reader — write/parse round-trips, malformed-input fuzzing, and the
// bounded line buffer.
// ---------------------------------------------------------------------------

use std::io::{BufReader, Read};

use chortle_netlist::{parse_design, read_design, write_design_blif, ParseBlifError};

/// Emits a random but always-valid sequential design: a register
/// pipeline of random depth and width whose stage gates carry random
/// PLA tables, random latch trigger kinds, and occasionally very long
/// names (so the writer's `\` continuations are exercised on the way
/// back out).
fn random_design_blif(seed: u64) -> String {
    let mut rng = SplitMix64::new(seed);
    let stages = rng.next_range(1, 5);
    let width = rng.next_range(1, 7);
    let long_names = rng.next_bool(1, 4);
    let pad = if long_names {
        "_very_long_net_name_segment_for_continuation_testing"
    } else {
        ""
    };
    let mut blif = String::from(".model prop_design\n");
    let inputs: Vec<String> = (0..width).map(|w| format!("x{w}{pad}")).collect();
    blif.push_str(".inputs ");
    blif.push_str(&inputs.join(" "));
    blif.push('\n');
    let outputs: Vec<String> = (0..width).map(|w| format!("z{w}{pad}")).collect();
    blif.push_str(".outputs ");
    blif.push_str(&outputs.join(" "));
    blif.push('\n');
    let kinds = ["", "re", "fe", "ah", "al", "as"];
    let mut prev = inputs;
    for s in 0..stages {
        let mut next = Vec::with_capacity(width);
        for w in 0..width {
            let fanin = rng.next_range(1, 4.min(width + 1));
            let ins: Vec<&str> = (0..fanin).map(|i| prev[(w + i) % width].as_str()).collect();
            let d = format!("s{s}w{w}{pad}");
            blif.push_str(".names ");
            blif.push_str(&ins.join(" "));
            blif.push(' ');
            blif.push_str(&d);
            blif.push('\n');
            // 1..3 random cubes; an empty cover would be a constant-0
            // net, which is valid too, but cubes exercise more.
            for _ in 0..rng.next_range(1, 4) {
                for _ in 0..fanin {
                    blif.push(['0', '1', '-'][rng.next_range(0, 3)]);
                }
                blif.push_str(" 1\n");
            }
            if s + 1 == stages {
                blif.push_str(&format!(".names {d} z{w}{pad}\n1 1\n"));
            } else {
                let q = format!("q{s}w{w}{pad}");
                let kind = kinds[rng.next_range(0, kinds.len())];
                let init = rng.next_range(0, 4);
                if kind.is_empty() {
                    blif.push_str(&format!(".latch {d} {q} {init}\n"));
                } else {
                    blif.push_str(&format!(".latch {d} {q} {kind} clk {init}\n"));
                }
                next.push(q);
            }
        }
        prev = next;
    }
    blif.push_str(".end\n");
    blif
}

#[test]
fn design_write_parse_roundtrip_is_a_fixed_point() {
    let mut rng = SplitMix64::new(0x5e9_dead);
    for _ in 0..64 {
        let src = random_design_blif(rng.next_u64());
        let (design, _) = parse_design(&src).expect("generated design parses");
        let written = write_design_blif(&design);
        let (reread, _) =
            read_design(BufReader::new(written.as_bytes())).expect("written design re-parses");
        // Byte fixed point: writing the re-parsed design reproduces the
        // first serialization exactly.
        assert_eq!(
            write_design_blif(&reread),
            written,
            "write/parse not a fixed point"
        );
        // Structure and logic survive the trip.
        assert_eq!(reread.latches().len(), design.latches().len());
        check_networks(design.logic(), reread.logic()).expect("logic preserved");
    }
}

/// Applies one random mutation to `src`: truncation, byte flip, line
/// duplication/deletion, token splice, or a bogus-directive insertion —
/// the malformed-input space the streaming reader must survive.
fn mutate(src: &str, rng: &mut SplitMix64) -> String {
    let lines: Vec<&str> = src.lines().collect();
    match rng.next_range(0, 7) {
        // Truncate mid-byte: unterminated models, half directives.
        0 => src[..rng.next_range(0, src.len() + 1)].to_owned(),
        // Flip one byte to printable garbage.
        1 => {
            let mut bytes = src.as_bytes().to_vec();
            if !bytes.is_empty() {
                let i = rng.next_range(0, bytes.len());
                bytes[i] = b'!' + (rng.next_below(90) as u8);
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Duplicate a random line (duplicate drivers, double .end, ...).
        2 => {
            let mut out: Vec<&str> = lines.clone();
            if !out.is_empty() {
                let i = rng.next_range(0, out.len());
                out.insert(i, out[i]);
            }
            out.join("\n")
        }
        // Delete a random line (missing .end, dangling cover rows, ...).
        3 => {
            let mut out = lines.clone();
            if !out.is_empty() {
                out.remove(rng.next_range(0, out.len()));
            }
            out.join("\n")
        }
        // Splice a bogus directive somewhere.
        4 => {
            let bogus = [
                ".latch",
                ".latch a",
                ".latch a b c d e f g",
                ".subckt nowhere p=q",
                ".subckt",
                ".names",
                ".inputs x x",
                ".exdc",
                ".model",
                "11 1",
                "\\",
                ".end",
            ];
            let mut out = lines.clone();
            let b = bogus[rng.next_range(0, bogus.len())];
            out.insert(rng.next_range(0, out.len() + 1), b);
            out.join("\n")
        }
        // Make a model instantiate itself (hierarchy cycle).
        5 => src.replacen(".names", ".subckt prop_design x0=s0w0\n.names", 1),
        // Glue two copies together: duplicate .model names.
        _ => format!("{src}{src}"),
    }
}

#[test]
fn fuzzed_designs_never_panic_and_errors_stay_in_range() {
    let mut rng = SplitMix64::new(0xfa22_0001);
    for case in 0..512 {
        let base = random_design_blif(rng.next_u64());
        let mut text = base;
        for _ in 0..rng.next_range(1, 4) {
            text = mutate(&text, &mut rng);
        }
        // The only contract under fire, for both entry points: a Result,
        // never a panic — and syntax errors must point inside the input.
        for result in [parse_design(&text).map(drop), parse_blif(&text).map(drop)] {
            match result {
                Ok(_) => {}
                Err(ParseBlifError::Syntax { line, .. }) => {
                    let max = text.lines().count().max(1);
                    assert!(
                        line >= 1 && line <= max + 1,
                        "case {case}: error line {line} outside input of {max} lines"
                    );
                }
                Err(_) => {}
            }
        }
    }
}

#[test]
fn fuzz_reports_the_exact_offending_line() {
    // Line numbers are part of the error contract, not best-effort:
    // pin them exactly on handcrafted breakage at known positions.
    let cases: &[(&str, usize)] = &[
        // Bad .latch arity on line 4.
        (".model m\n.inputs a\n.outputs z\n.latch a\n.end\n", 4),
        // Unknown submodel on line 4.
        (
            ".model m\n.inputs a\n.outputs z\n.subckt ghost p=a\n.names a z\n1 1\n.end\n",
            4,
        ),
        // A cover row before any .names, line 2.
        (".model m\n11 1\n.end\n", 2),
        // Continuation counts the physical lines it spans: the joined
        // .latch directive starts on line 4 but the error is reported
        // where the logical line *ends*, so both halves stay findable.
        (".model m\n.inputs a\n.outputs z\n.latch \\\na\n.end\n", 4),
    ];
    for (src, expected) in cases {
        for result in [parse_design(src).map(drop), parse_blif(src).map(drop)] {
            match result {
                Err(ParseBlifError::Syntax { line, .. }) => {
                    assert_eq!(line, *expected, "wrong line for {src:?}");
                }
                other => panic!("expected a syntax error for {src:?}, got {other:?}"),
            }
        }
    }
}

#[test]
fn design_clouds_are_their_own_blif_round_trip() {
    // A cloud is built the way the reader elaborates `.names` blocks, so
    // writing it as BLIF and parsing it back must give the same network.
    let mut rng = SplitMix64::new(0xc10d_0001);
    let mut designs: Vec<String> = (0..64)
        .map(|_| random_design_blif(rng.next_u64()))
        .collect();
    designs.extend((0..16).map(|seed| write_blif(&random_network(seed, 6, 24), "comb")));
    let mut clouds = 0;
    for src in &designs {
        let (design, _) = parse_design(src).expect("generated design parses");
        for (i, cloud) in design.clouds().clouds.iter().enumerate() {
            let text = write_blif(&cloud.network, &format!("cloud{i}"));
            let again = parse_blif(&text).expect("cloud text parses");
            assert_eq!(again, cloud.network, "cloud {i} of\n{src}");
            clouds += 1;
        }
    }
    assert!(clouds > 100, "only {clouds} clouds checked");
}

/// An `io::Read` that synthesizes an arbitrarily long logic chain on
/// the fly — the whole design never exists in memory, so the reader's
/// `max_line_bytes` high-water mark is meaningful.
struct ChainSource {
    gates: usize,
    next_gate: usize,
    pending: Vec<u8>,
    state: u8,
}

impl ChainSource {
    fn new(gates: usize) -> ChainSource {
        ChainSource {
            gates,
            next_gate: 0,
            pending: b".model chain\n.inputs t0\n".to_vec(),
            state: 0,
        }
    }
}

impl Read for ChainSource {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pending.is_empty() {
            match self.state {
                0 => {
                    self.pending
                        .extend_from_slice(format!(".outputs t{}\n", self.gates).as_bytes());
                    self.state = 1;
                }
                1 if self.next_gate < self.gates => {
                    let i = self.next_gate;
                    self.next_gate += 1;
                    self.pending
                        .extend_from_slice(format!(".names t{i} t{}\n1 1\n", i + 1).as_bytes());
                }
                1 => {
                    self.pending.extend_from_slice(b".end\n");
                    self.state = 2;
                }
                _ => return Ok(0),
            }
        }
        let n = self.pending.len().min(buf.len());
        buf[..n].copy_from_slice(&self.pending[..n]);
        self.pending.drain(..n);
        Ok(n)
    }
}

#[test]
fn streaming_reader_buffers_lines_not_files() {
    // ~50k gates of chained buffers: the input stream is well over a
    // megabyte, but the reader's high-water mark must stay at one
    // logical line.
    let gates = 50_000;
    let (design, stats) =
        read_design(BufReader::new(ChainSource::new(gates))).expect("chain parses");
    assert_eq!(design.logic().num_outputs(), 1);
    // .model + .inputs + .outputs + (gate line + cover row) each + .end
    assert_eq!(stats.logical_lines, 2 * gates as u64 + 4);
    let total_bytes: usize = (0..gates)
        .map(|i: usize| 16 + 2 * (i.checked_ilog10().unwrap_or(0) as usize))
        .sum();
    assert!(total_bytes > 1_000_000, "the stream is megabyte-scale");
    assert!(
        stats.max_line_bytes < 64,
        "bounded buffer: high-water {} bytes for a {}+ byte stream",
        stats.max_line_bytes,
        total_bytes
    );
}
