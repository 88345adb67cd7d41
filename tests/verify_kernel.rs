//! Differential tests of the block-parallel equivalence checkers against
//! the frozen ones ([`baseline_check_equivalence`] and
//! [`baseline_check_networks`]): on every mutant below both must return
//! the identical result — the same output name and the same
//! counterexample, on the exhaustive path (≤ 16 inputs) and the random
//! path alike.
//!
//! The mutants cover LUT table bits, output polarities and LUT-input
//! rewires of mapped suite circuits; differences placed in the last
//! exhaustive chunk of a 16-input network and in random rounds at or past
//! the widest block; networks of 0, 1, 5 and 6 inputs, whose one chunk is
//! partial; and suite networks against their optimized and mutated
//! copies.

use chortle::{map_network, MapOptions};
use chortle_bench::baseline::{
    baseline_check_equivalence, baseline_check_networks, CIRCUIT_SEED, NETWORKS_SEED,
};
use chortle_bench::optimized_suite;
use chortle_circuits::suite;
use chortle_logic_opt::optimize;
use chortle_netlist::{
    check_equivalence, check_networks, EquivalenceError, LutCircuit, LutSource, Network, NodeId,
    NodeOp, Signal, SplitMix64, TruthTable, MAX_VARS, RANDOM_ROUNDS,
};

/// How many mutants of each kind each mapped circuit contributes per K.
const MUTANTS: usize = 3;

/// Most pattern words one block of the checker holds per slot: a random
/// round at or past it lies in a later block than round 0.
const MAX_WIDTH: usize = 64;

/// A copy of `circuit` with `edit` applied to every LUT (its index, input
/// list and table) and the polarity of output `flip` inverted.
fn edit_circuit(
    circuit: &LutCircuit,
    mut edit: impl FnMut(usize, &mut Vec<LutSource>, &mut TruthTable),
    flip: Option<usize>,
) -> LutCircuit {
    let mut out = LutCircuit::new(circuit.k());
    for (i, lut) in circuit.luts().iter().enumerate() {
        let (mut inputs, mut table) = (lut.inputs().to_vec(), lut.table().clone());
        edit(i, &mut inputs, &mut table);
        out.add_lut(inputs, table)
            .expect("same shape as a valid circuit");
    }
    for (o, out_pin) in circuit.outputs().iter().enumerate() {
        out.add_output(
            out_pin.name.clone(),
            out_pin.source,
            out_pin.inverted ^ (flip == Some(o)),
        );
    }
    out
}

fn map(net: &Network, k: usize) -> LutCircuit {
    let options = MapOptions::builder(k).build().expect("valid K");
    map_network(net, &options).expect("maps").circuit
}

/// Checks `circuit` against `net` with both checkers; they must agree.
fn same_circuit_verdict(net: &Network, circuit: &LutCircuit, what: &str) -> bool {
    let want = baseline_check_equivalence(net, circuit);
    let got = check_equivalence(net, circuit);
    assert_eq!(got, want, "check_equivalence: {what}");
    got.is_err()
}

/// Checks `b` against `a` with both checkers; they must agree.
fn same_network_verdict(a: &Network, b: &Network, what: &str) -> bool {
    let want = baseline_check_networks(a, b);
    let got = check_networks(a, b);
    assert_eq!(got, want, "check_networks: {what}");
    got.is_err()
}

/// The nodes of `net` (same ids), each gate's fanins passed through
/// `edit`, without its outputs; and `net`'s output signals.
fn copy_nodes(
    net: &Network,
    mut edit: impl FnMut(NodeId, &mut Vec<Signal>),
) -> (Network, Vec<(String, Signal)>) {
    let mut out = Network::new();
    for (id, node) in net.nodes() {
        match node.op() {
            NodeOp::Input => {
                out.add_input(node.name().expect("inputs are named"));
            }
            NodeOp::Const(value) => {
                out.add_const(value);
            }
            op => {
                let mut fanins = node.fanins().to_vec();
                edit(id, &mut fanins);
                out.add_gate(op, fanins);
            }
        }
    }
    let outputs = net
        .outputs()
        .iter()
        .map(|o| (o.name.clone(), o.signal))
        .collect();
    (out, outputs)
}

/// A copy of `net` whose output `o` is XORed with the minterm `pattern`
/// (bit `i` = primary input `i`): it differs from `net` on that one
/// assignment and nowhere else.
fn flip_minterm(net: &Network, o: usize, pattern: &[bool]) -> Network {
    let (mut out, outputs) = copy_nodes(net, |_, _| {});
    let literals = net
        .inputs()
        .iter()
        .zip(pattern)
        .map(|(&id, &v)| Signal::new(id).with_inversion(!v))
        .collect::<Vec<_>>();
    let cube = match literals.as_slice() {
        [] => Signal::new(out.add_const(true)),
        _ => Signal::new(out.add_gate(NodeOp::And, literals)),
    };
    for (i, (name, signal)) in outputs.into_iter().enumerate() {
        let signal = if i == o {
            let keep = out.add_gate(NodeOp::And, vec![signal, !cube]);
            let flip = out.add_gate(NodeOp::And, vec![!signal, cube]);
            Signal::new(out.add_gate(NodeOp::Or, vec![keep.into(), flip.into()]))
        } else {
            signal
        };
        out.add_output(name, signal);
    }
    out
}

/// The pattern of bit `bit` in random round `round` of the stream the
/// checkers draw from `seed` over `n` inputs (round-major, input by
/// input).
fn random_pattern(seed: u64, n: usize, round: usize, bit: u32) -> Vec<bool> {
    let mut rng = SplitMix64::new(seed);
    let mut pattern = Vec::new();
    for _ in 0..=round {
        pattern = (0..n).map(|_| (rng.next_u64() >> bit) & 1 == 1).collect();
    }
    pattern
}

/// The counterexample the checkers report for `pattern`: inputs 0–63.
fn assignment(pattern: &[bool]) -> u64 {
    pattern
        .iter()
        .take(64)
        .enumerate()
        .fold(0, |acc, (i, &v)| acc | (u64::from(v) << i))
}

/// A random AND/OR network over `n` inputs with two outputs.
fn random_network(n: usize, rng: &mut SplitMix64) -> Network {
    let mut net = Network::new();
    let mut signals: Vec<Signal> = (0..n)
        .map(|i| Signal::new(net.add_input(format!("i{i}"))))
        .collect();
    if signals.is_empty() {
        signals.push(Signal::new(net.add_const(false)));
    }
    for g in 0..3 * n.max(1) {
        let arity = 1 + rng.next_below(3) as usize;
        let fanins = (0..arity)
            .map(|_| {
                let s = signals[rng.choose_index(&signals)];
                s.with_inversion(rng.next_below(2) == 1)
            })
            .collect();
        let op = if g % 2 == 0 { NodeOp::And } else { NodeOp::Or };
        signals.push(Signal::new(net.add_gate(op, fanins)));
    }
    let last = signals.len() - 1;
    net.add_output("y", signals[last]);
    net.add_output("z", !signals[last / 2 + 1]);
    net
}

#[test]
fn word_parallel_checker_reports_what_the_bit_serial_one_did() {
    let suite = optimized_suite();
    let mut rng = SplitMix64::new(0x7e57_f11b);
    let (mut exhaustive, mut random, mut caught) = (0usize, 0usize, 0usize);
    for k in 3..=6 {
        for (name, net, _) in &suite {
            let circuit = map(net, k);
            if net.num_inputs() <= MAX_VARS {
                exhaustive += 1;
            } else {
                random += 1;
            }
            assert_eq!(check_equivalence(net, &circuit), Ok(()), "{name} K={k}");
            for _ in 0..MUTANTS {
                // One table bit flipped.
                let target = rng.choose_index(circuit.luts());
                let rows = 1u64 << circuit.luts()[target].utilization();
                let bit = rng.next_below(rows) as u32;
                let mutant = edit_circuit(
                    &circuit,
                    |i, _, table| {
                        if i == target {
                            table.set(bit, !table.eval(bit));
                        }
                    },
                    None,
                );
                let what = format!("{name} K={k}: LUT {target} bit {bit}");
                caught += usize::from(same_circuit_verdict(net, &mutant, &what));

                // One output's polarity flipped.
                let o = rng.choose_index(circuit.outputs());
                let mutant = edit_circuit(&circuit, |_, _, _| {}, Some(o));
                let what = format!("{name} K={k}: output {o} inverted");
                assert!(same_circuit_verdict(net, &mutant, &what), "{what}");

                // One LUT input rewired to a primary input or a constant.
                let target = rng.choose_index(circuit.luts());
                let pins = circuit.luts()[target].utilization();
                if pins == 0 {
                    continue;
                }
                let pin = rng.next_below(pins as u64) as usize;
                let source = match rng.next_below(4) {
                    0 => LutSource::Const(rng.next_below(2) == 1),
                    _ => LutSource::Input(net.inputs()[rng.choose_index(net.inputs())]),
                };
                let mutant = edit_circuit(
                    &circuit,
                    |i, inputs, _| {
                        if i == target {
                            inputs[pin] = source;
                        }
                    },
                    None,
                );
                let what = format!("{name} K={k}: LUT {target} pin {pin} -> {source:?}");
                caught += usize::from(same_circuit_verdict(net, &mutant, &what));
            }
        }
    }
    assert!(
        exhaustive > 0 && random > 0,
        "both checker paths must be covered ({exhaustive} exhaustive, {random} random)"
    );
    // Most mutants are observable; a few land on don't-cares.
    assert!(caught > 0, "no mutant was ever caught");
}

#[test]
fn a_difference_in_the_last_exhaustive_chunk_is_found() {
    let mut rng = SplitMix64::new(0x1a57_c4a7);
    let net = random_network(MAX_VARS, &mut rng);
    let last = vec![true; MAX_VARS];
    let mutant = flip_minterm(&net, 1, &last);
    let want = Err(EquivalenceError {
        output: "z".to_owned(),
        counterexample: (1 << MAX_VARS) - 1,
    });
    assert!(same_network_verdict(&net, &mutant, "last chunk"));
    assert_eq!(check_networks(&net, &mutant), want);
    for k in [4, 6] {
        let circuit = map(&mutant, k);
        assert!(same_circuit_verdict(&net, &circuit, "last chunk"));
        assert_eq!(check_equivalence(&net, &circuit), want);
    }
}

#[test]
fn random_rounds_at_or_past_the_block_width_are_checked() {
    let wide: Vec<(String, Network)> = suite()
        .into_iter()
        .filter(|b| b.network.num_inputs() > MAX_VARS)
        .map(|b| (b.name.to_owned(), b.network))
        .take(3)
        .collect();
    assert!(!wide.is_empty(), "the suite has wide circuits");
    for (name, net) in &wide {
        let n = net.num_inputs();
        for (round, bit) in [
            (MAX_WIDTH, 0),
            (MAX_WIDTH + 36, 17),
            (RANDOM_ROUNDS - 1, 63),
        ] {
            let what = format!("{name}: round {round} bit {bit}");
            for (seed, circuit_side) in [(CIRCUIT_SEED, true), (NETWORKS_SEED, false)] {
                let pattern = random_pattern(seed, n, round, bit);
                let mutant = flip_minterm(net, 0, &pattern);
                let got = if circuit_side {
                    let circuit = map(&mutant, 5);
                    assert!(same_circuit_verdict(net, &circuit, &what));
                    check_equivalence(net, &circuit)
                } else {
                    assert!(same_network_verdict(net, &mutant, &what));
                    check_networks(net, &mutant)
                };
                let err = got.expect_err(&what);
                assert_eq!(err.output, net.outputs()[0].name, "{what}");
                assert_eq!(err.counterexample, assignment(&pattern), "{what}");
            }
        }
    }
}

#[test]
fn narrow_networks_check_their_one_partial_chunk() {
    let mut rng = SplitMix64::new(0x0c4a_11e5);
    for n in [0, 1, 5, 6] {
        for _ in 0..4 {
            let net = random_network(n, &mut rng);
            let pattern: Vec<bool> = (0..n).map(|_| rng.next_below(2) == 1).collect();
            let mutant = flip_minterm(&net, 0, &pattern);
            let what = format!("{n} inputs, minterm {:#b}", assignment(&pattern));
            let want = Err(EquivalenceError {
                output: "y".to_owned(),
                counterexample: assignment(&pattern),
            });
            assert!(!same_network_verdict(&net, &net, &what));
            assert!(same_network_verdict(&net, &mutant, &what));
            assert_eq!(check_networks(&net, &mutant), want, "{what}");
            for k in [2, 4] {
                let circuit = map(&mutant, k);
                assert!(same_circuit_verdict(&net, &circuit, &what));
                assert_eq!(check_equivalence(&net, &circuit), want, "{what}");
            }
        }
    }
}

#[test]
fn suite_networks_check_against_optimized_and_mutated_copies() {
    let mut rng = SplitMix64::new(0xc0b1_e5ed);
    let (mut exhaustive, mut random, mut caught) = (0usize, 0usize, 0usize);
    for bench in suite() {
        let net = &bench.network;
        if net.num_inputs() <= MAX_VARS {
            exhaustive += 1;
        } else {
            random += 1;
        }
        let (optimized, _) = optimize(net).expect("benchmarks are acyclic");
        assert!(!same_network_verdict(net, &optimized, bench.name));
        for _ in 0..MUTANTS {
            // One gate fanin of the optimized copy inverted.
            let gates: Vec<NodeId> = optimized
                .nodes()
                .filter(|(_, node)| node.op().is_gate())
                .map(|(id, _)| id)
                .collect();
            let target = gates[rng.choose_index(&gates)];
            let pin = rng.choose_index(optimized.node(target).fanins());
            let (mut mutant, outputs) = copy_nodes(&optimized, |id, fanins| {
                if id == target {
                    fanins[pin] = !fanins[pin];
                }
            });
            for (name, signal) in outputs {
                mutant.add_output(name, signal);
            }
            let what = format!("{}: gate {target:?} pin {pin} inverted", bench.name);
            caught += usize::from(same_network_verdict(net, &mutant, &what));
        }
    }
    assert!(
        exhaustive > 0 && random > 0,
        "both checker paths are covered"
    );
    assert!(caught > 0, "no mutant was ever caught");
}
