//! Functional equivalence checking between a source network and a mapped
//! lookup-table circuit.
//!
//! Every mapping the crate family produces is validated here: exhaustively
//! when the network is small enough, and with packed random vectors
//! otherwise. A failed check reports the first differing output and a
//! counterexample assignment.

use std::error::Error;
use std::fmt;

use crate::lut::LutCircuit;
use crate::network::{Network, NodeId};
use crate::rng::SplitMix64;
use crate::sim::{input_positions, output_value, simulate_into};
use crate::truth_table::{exhaustive_chunk, MAX_VARS};

/// A verification failure: the mapped circuit disagrees with the network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EquivalenceError {
    /// Name of the first differing output.
    pub output: String,
    /// An input assignment (bit `i` = primary input `i`) exhibiting the
    /// difference.
    ///
    /// Only primary inputs 0–63 fit: on a network wider than 64 inputs
    /// (always a randomly checked one) the values of inputs 64 and up
    /// are dropped, so replaying this assignment with them at 0 need
    /// not reproduce the difference.
    pub counterexample: u64,
}

impl fmt::Display for EquivalenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "output {:?} differs from the source network on input assignment {:#b}",
            self.output, self.counterexample
        )
    }
}

impl Error for EquivalenceError {}

/// How many random 64-pattern rounds [`check_equivalence`] runs when the
/// network is too wide for exhaustive checking.
pub const RANDOM_ROUNDS: usize = 256;

/// Seed of [`check_equivalence`]'s random pattern stream.
const CIRCUIT_SEED: u64 = 0xC0FF_EE00_D15E_A5ED;

/// Seed of [`check_networks`]' random pattern stream.
const NETWORKS_SEED: u64 = 0x5EED_CAFE_F00D_BEEF;

/// Checks that `circuit` implements `network`.
///
/// Outputs are matched by position (the mappers preserve output order).
/// Networks with at most [`MAX_VARS`] primary inputs are checked
/// exhaustively; wider networks are checked on `RANDOM_ROUNDS * 64`
/// deterministic pseudo-random patterns.
///
/// # Errors
///
/// Returns an [`EquivalenceError`] naming the first differing output with a
/// counterexample. On networks with more than 64 primary inputs the
/// counterexample holds only inputs 0–63
/// ([`EquivalenceError::counterexample`]).
///
/// # Panics
///
/// Panics if the circuit and network disagree on the number of outputs.
///
/// # Examples
///
/// ```
/// use chortle_netlist::{check_equivalence, LutCircuit, LutSource, Network, NodeOp, TruthTable};
///
/// let mut net = Network::new();
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let g = net.add_gate(NodeOp::Or, vec![a.into(), b.into()]);
/// net.add_output("z", g.into());
///
/// let mut circuit = LutCircuit::new(2);
/// let t = TruthTable::var(2, 0).or(&TruthTable::var(2, 1));
/// let l = circuit.add_lut(vec![LutSource::Input(a), LutSource::Input(b)], t).unwrap();
/// circuit.add_output("z", LutSource::Lut(l), false);
///
/// check_equivalence(&net, &circuit)?;
/// # Ok::<(), chortle_netlist::EquivalenceError>(())
/// ```
pub fn check_equivalence(network: &Network, circuit: &LutCircuit) -> Result<(), EquivalenceError> {
    assert_eq!(
        network.num_outputs(),
        circuit.outputs().len(),
        "network and circuit must have the same number of outputs"
    );
    let input_pos = input_positions(network);
    let index = |id: NodeId| input_pos[id.index()];
    let (mut net_values, mut lut_values) = (Vec::new(), Vec::new());
    sweep(network, CIRCUIT_SEED, |words, mask| {
        simulate_into(network, words, &input_pos, &mut net_values);
        circuit.simulate_luts(words, &index, &mut lut_values);
        first_difference(network, &net_values, mask, |o| {
            circuit.output_word(o, words, &index, &lut_values)
        })
    })
}

/// Checks that two networks with matching primary-input and output lists
/// compute the same functions.
///
/// Inputs are matched by position (both networks must declare them in the
/// same order); outputs by position. Networks with at most [`MAX_VARS`]
/// inputs are checked exhaustively, wider ones on `RANDOM_ROUNDS * 64`
/// deterministic pseudo-random patterns.
///
/// # Errors
///
/// Returns an [`EquivalenceError`] naming the first differing output. On
/// networks with more than 64 primary inputs the counterexample holds
/// only inputs 0–63 ([`EquivalenceError::counterexample`]).
///
/// # Panics
///
/// Panics if the networks disagree on input or output counts.
///
/// # Examples
///
/// ```
/// use chortle_netlist::{check_networks, Network, NodeOp};
///
/// let mut a = Network::new();
/// let x = a.add_input("x");
/// let y = a.add_input("y");
/// let g = a.add_gate(NodeOp::And, vec![x.into(), y.into()]);
/// a.add_output("z", g.into());
///
/// let b = a.clone();
/// check_networks(&a, &b)?;
/// # Ok::<(), chortle_netlist::EquivalenceError>(())
/// ```
pub fn check_networks(a: &Network, b: &Network) -> Result<(), EquivalenceError> {
    assert_eq!(
        a.num_inputs(),
        b.num_inputs(),
        "networks must have the same number of inputs"
    );
    assert_eq!(
        a.num_outputs(),
        b.num_outputs(),
        "networks must have the same number of outputs"
    );
    let (pos_a, pos_b) = (input_positions(a), input_positions(b));
    let (mut values_a, mut values_b) = (Vec::new(), Vec::new());
    sweep(a, NETWORKS_SEED, |words, mask| {
        simulate_into(a, words, &pos_a, &mut values_a);
        simulate_into(b, words, &pos_b, &mut values_b);
        first_difference(a, &values_a, mask, |o| {
            output_value(&b.outputs()[o], &values_b)
        })
    })
}

/// Feeds `first_diff` every pattern chunk over the primary inputs of
/// `reference`, in order, until it reports a difference: all `2^n`
/// assignments in 64-pattern [`exhaustive_chunk`]s when `n ≤ MAX_VARS`,
/// else [`RANDOM_ROUNDS`] chunks drawn from a [`SplitMix64`] seeded with
/// `seed`. `first_diff(words, mask)` compares only the pattern bits in
/// `mask` and returns the first differing output with the pattern bit
/// it differs on; that output of `reference` and the assignment
/// (truncated to inputs 0–63 on the random path) become the error.
fn sweep(
    reference: &Network,
    seed: u64,
    mut first_diff: impl FnMut(&[u64], u64) -> Option<(usize, u32)>,
) -> Result<(), EquivalenceError> {
    let fail = |o: usize, counterexample: u64| {
        Err(EquivalenceError {
            output: reference.outputs()[o].name.clone(),
            counterexample,
        })
    };
    let n = reference.num_inputs();
    let mut words = vec![0u64; n];
    if n <= MAX_VARS {
        let total: u64 = 1u64 << n;
        let mut base = 0u64;
        while base < total {
            exhaustive_chunk(base / 64, &mut words);
            let chunk = (total - base).min(64);
            let mask = if chunk == 64 {
                u64::MAX
            } else {
                (1u64 << chunk) - 1
            };
            if let Some((o, bit)) = first_diff(&words, mask) {
                return fail(o, base + u64::from(bit));
            }
            base += 64;
        }
    } else {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..RANDOM_ROUNDS {
            for w in &mut words {
                *w = rng.next_u64();
            }
            if let Some((o, bit)) = first_diff(&words, u64::MAX) {
                // Reconstruct the failing assignment from the packed
                // words; only inputs 0-63 fit in the u64.
                let mut assignment = 0u64;
                for (i, w) in words.iter().enumerate().take(64) {
                    if (w >> bit) & 1 == 1 {
                        assignment |= 1 << i;
                    }
                }
                return fail(o, assignment);
            }
        }
    }
    Ok(())
}

/// The first output of `reference` (node words `values`) whose word
/// differs from `other(o)` under `mask`, with the lowest differing
/// pattern bit.
fn first_difference(
    reference: &Network,
    values: &[u64],
    mask: u64,
    other: impl Fn(usize) -> u64,
) -> Option<(usize, u32)> {
    reference.outputs().iter().enumerate().find_map(|(o, out)| {
        let diff = (output_value(out, values) ^ other(o)) & mask;
        (diff != 0).then(|| (o, diff.trailing_zeros()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::LutSource;
    use crate::network::{NodeOp, Signal};
    use crate::truth_table::TruthTable;

    #[test]
    fn detects_wrong_polarity() {
        let mut net = Network::new();
        let a = net.add_input("a");
        net.add_output("z", Signal::new(a));

        let mut circuit = LutCircuit::new(2);
        circuit.add_output("z", LutSource::Input(a), true); // wrong inversion

        let err = check_equivalence(&net, &circuit).unwrap_err();
        assert_eq!(err.output, "z");
    }

    #[test]
    fn accepts_correct_mapping() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(NodeOp::And, vec![Signal::inverted(a), b.into()]);
        net.add_output("z", g.into());

        let mut circuit = LutCircuit::new(2);
        let t = TruthTable::var(2, 0).not().and(&TruthTable::var(2, 1));
        let l = circuit
            .add_lut(vec![LutSource::Input(a), LutSource::Input(b)], t)
            .unwrap();
        circuit.add_output("z", LutSource::Lut(l), false);
        check_equivalence(&net, &circuit).expect("equivalent");
    }

    #[test]
    fn wide_network_random_check() {
        // 24 inputs forces the random path.
        let mut net = Network::new();
        let inputs: Vec<_> = (0..24).map(|i| net.add_input(format!("i{i}"))).collect();
        let g = net.add_gate(NodeOp::Or, inputs.iter().map(|&i| i.into()).collect());
        net.add_output("z", g.into());

        // Correct circuit: tree of 6-input OR LUTs.
        let mut circuit = LutCircuit::new(6);
        let or6 = TruthTable::from_fn(6, |b| b != 0);
        let mut level: Vec<LutSource> = inputs.iter().map(|&i| LutSource::Input(i)).collect();
        while level.len() > 1 {
            let mut next = Vec::new();
            for chunk in level.chunks(6) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                } else {
                    let t = TruthTable::from_fn(chunk.len(), |b| b != 0);
                    let _ = t;
                    let table = if chunk.len() == 6 {
                        or6.clone()
                    } else {
                        TruthTable::from_fn(chunk.len(), |b| b != 0)
                    };
                    let l = circuit.add_lut(chunk.to_vec(), table).unwrap();
                    next.push(LutSource::Lut(l));
                }
            }
            level = next;
        }
        circuit.add_output("z", level[0], false);
        check_equivalence(&net, &circuit).expect("equivalent");
    }

    /// The assignment the random path reports when the first chunk drawn
    /// from `seed` over `n` inputs differs on the patterns of `diff`:
    /// the lowest such pattern, truncated to inputs 0-63.
    fn first_round_counterexample(seed: u64, n: usize, diff: impl Fn(&[u64]) -> u64) -> u64 {
        let mut rng = SplitMix64::new(seed);
        let words: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let bit = diff(&words).trailing_zeros();
        (0..64).fold(0, |acc, i| acc | (((words[i] >> bit) & 1) << i))
    }

    #[test]
    fn counterexamples_on_wide_networks_hold_only_inputs_0_to_63() {
        // z = i63 & i69, against a circuit (and a second network) that
        // drive z with constant 0: they differ exactly where both inputs
        // are 1. Input 63 is the last one the counterexample can hold.
        let mut net = Network::new();
        let inputs: Vec<_> = (0..70).map(|i| net.add_input(format!("i{i}"))).collect();
        let g = net.add_gate(NodeOp::And, vec![inputs[63].into(), inputs[69].into()]);
        net.add_output("z", g.into());
        let mut circuit = LutCircuit::new(2);
        circuit.add_output("z", LutSource::Const(false), false);
        let mut zero = Network::new();
        for i in 0..70 {
            zero.add_input(format!("i{i}"));
        }
        let low = zero.add_const(false);
        zero.add_output("z", low.into());

        let diff = |w: &[u64]| w[63] & w[69];
        for (err, seed) in [
            (check_equivalence(&net, &circuit).unwrap_err(), CIRCUIT_SEED),
            (check_networks(&net, &zero).unwrap_err(), NETWORKS_SEED),
        ] {
            assert_eq!(err.output, "z");
            assert_eq!(
                err.counterexample,
                first_round_counterexample(seed, 70, diff)
            );
            // Input 63 is kept; input 69 set the difference but has no
            // bit, so replaying the counterexample with inputs 64+ at 0
            // gives z = 0 on both sides and does not reproduce it.
            assert_eq!(err.counterexample >> 63, 1);
        }
    }
}
