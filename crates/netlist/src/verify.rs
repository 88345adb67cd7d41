//! Functional equivalence checking between a source network and a mapped
//! lookup-table circuit.
//!
//! Every mapping the crate family produces is validated here: exhaustively
//! when the network is small enough, and with packed random vectors
//! otherwise. A failed check reports the first differing output and a
//! counterexample assignment.
//!
//! A check compiles both sides once into one [`Tape`] and simulates it a
//! block of up to [`MAX_WIDTH`] pattern words at a time, as many as fit
//! [`BUDGET_BYTES`]. The patterns and their order do not depend on the
//! block width, and neither does the reported difference: the lowest
//! differing chunk, then the first output in order, then the lowest bit.

use std::error::Error;
use std::fmt;

use crate::lut::LutCircuit;
use crate::network::{Network, NodeId};
use crate::rng::SplitMix64;
use crate::sim::{Block, Sig, Tape};
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

/// Bytes of pattern words one check's block may hold.
const BUDGET_BYTES: usize = 256 << 10;

/// Most pattern words per slot in one block.
const MAX_WIDTH: usize = 64;

/// Pattern words per slot of a block over `slots` slots: the largest
/// power of two that fits [`BUDGET_BYTES`], between 1 and [`MAX_WIDTH`].
/// A power of two divides every chunk count (exhaustive chunk counts and
/// [`RANDOM_ROUNDS`] are powers of two too) and fills whole groups of the
/// LUT kernel's lanes.
fn block_width(slots: usize) -> usize {
    let fit = (BUDGET_BYTES / (8 * slots.max(1))).clamp(1, MAX_WIDTH);
    1 << fit.ilog2()
}

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
    let mut input_pos = vec![usize::MAX; network.len()];
    for (i, &id) in network.inputs().iter().enumerate() {
        input_pos[id.index()] = i;
    }
    let mut tape = Tape::new(network.num_inputs());
    let sigs = tape.add_network(network);
    let mut want = Tape::network_outputs(network, &sigs);
    let mut got = tape.add_circuit(circuit, &|id: NodeId| input_pos[id.index()]);
    tape.reuse_slots(&mut [&mut want, &mut got]);
    sweep(network, &tape, CIRCUIT_SEED, &want, &got)
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
    let mut tape = Tape::new(a.num_inputs());
    let sigs_a = tape.add_network(a);
    let sigs_b = tape.add_network(b);
    let mut want = Tape::network_outputs(a, &sigs_a);
    let mut got = Tape::network_outputs(b, &sigs_b);
    tape.reuse_slots(&mut [&mut want, &mut got]);
    sweep(a, &tape, NETWORKS_SEED, &want, &got)
}

/// Runs `tape` on every pattern chunk over its inputs, in order, until
/// outputs `want` and `got` differ: all `2^n` assignments in 64-pattern
/// [`exhaustive_chunk`]s when `n ≤ MAX_VARS`, else [`RANDOM_ROUNDS`]
/// chunks drawn from a [`SplitMix64`] seeded with `seed`, word `r` of
/// every input drawn in round `r`. The first difference names its output
/// of `reference`, and its assignment (truncated to inputs 0–63 on the
/// random path) becomes the counterexample.
fn sweep(
    reference: &Network,
    tape: &Tape,
    seed: u64,
    want: &[Sig],
    got: &[Sig],
) -> Result<(), EquivalenceError> {
    let n = tape.inputs();
    let exhaustive = n <= MAX_VARS;
    let (chunks, mask) = if exhaustive {
        let patterns = 1u64 << n;
        (
            patterns.div_ceil(64) as usize,
            u64::MAX >> (64 - patterns.min(64)),
        )
    } else {
        (RANDOM_ROUNDS, u64::MAX)
    };
    let width = block_width(tape.slots()).min(chunks);
    let mut block = Block::new(tape, width);
    let mut words = vec![0u64; n];
    let mut rng = SplitMix64::new(seed);
    let mut first = 0;
    while first < chunks {
        let len = (chunks - first).min(width);
        for w in 0..len {
            if exhaustive {
                exhaustive_chunk((first + w) as u64, &mut words);
            } else {
                words.fill_with(|| rng.next_u64());
            }
            block.set_inputs(w, &words);
        }
        tape.run(&mut block, len);
        if let Some((w, o, bit)) = block_difference(&block, len, mask, want, got) {
            let counterexample = if exhaustive {
                (first + w) as u64 * 64 + u64::from(bit)
            } else {
                // Only inputs 0-63 fit in the u64.
                (0..n.min(64)).fold(0, |acc, i| acc | ((block.input(i, w) >> bit) & 1) << i)
            };
            return Err(EquivalenceError {
                output: reference.outputs()[o].name.clone(),
                counterexample,
            });
        }
        first += len;
    }
    Ok(())
}

/// The first difference between outputs `want` and `got` under `mask`
/// on the first `len` words of `block`: its word, then its output, then
/// its lowest pattern bit.
fn block_difference(
    block: &Block,
    len: usize,
    mask: u64,
    want: &[Sig],
    got: &[Sig],
) -> Option<(usize, usize, u32)> {
    let pairs = || want.iter().zip(got).enumerate();
    if !pairs().any(|(_, (&a, &b))| block.differ(a, b, len, mask)) {
        return None;
    }
    (0..len).find_map(|w| {
        pairs().find_map(|(o, (&a, &b))| {
            let diff = (block.word(a, w) ^ block.word(b, w)) & mask;
            (diff != 0).then(|| (w, o, diff.trailing_zeros()))
        })
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

    #[test]
    fn blocks_stay_within_the_budget() {
        for slots in 1..=1_000_000 {
            let width = block_width(slots);
            assert!(
                width.is_power_of_two() && width <= MAX_WIDTH,
                "{slots} slots"
            );
            // Only one word per slot, the least a block holds, may
            // exceed the budget.
            assert!(
                width == 1 || 8 * slots * width <= BUDGET_BYTES,
                "{slots} slots x {width} words"
            );
        }
        assert_eq!(block_width(1), MAX_WIDTH);
        assert_eq!(block_width(1_000_000), 1);
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
