//! The frozen word-per-round network simulator and the network-vs-network
//! checker built on it, as they were before block-parallel checking.
//!
//! [`baseline_simulate_outputs`] re-dispatches on [`NodeOp`] inside the fanin loop
//! and evaluates one 64-pattern word per call; [`baseline_check_networks`]
//! sweeps the same chunks as `chortle_netlist::check_networks` one word
//! at a time. Both are the oracles the block checker is compared with.

use chortle_netlist::{
    exhaustive_chunk, EquivalenceError, Network, NodeOp, Output, SplitMix64, MAX_VARS,
    RANDOM_ROUNDS,
};

/// Seed of `check_networks`' random pattern stream.
pub const NETWORKS_SEED: u64 = 0x5EED_CAFE_F00D_BEEF;

/// Position of every primary input in [`Network::inputs`], indexed by
/// node (`usize::MAX` for non-inputs).
fn input_positions(network: &Network) -> Vec<usize> {
    let mut input_pos = vec![usize::MAX; network.len()];
    for (i, &id) in network.inputs().iter().enumerate() {
        input_pos[id.index()] = i;
    }
    input_pos
}

/// One word per node on 64 packed patterns, into a reused buffer.
fn simulate_into(
    network: &Network,
    input_words: &[u64],
    input_pos: &[usize],
    values: &mut Vec<u64>,
) {
    values.resize(network.len(), 0);
    for (id, node) in network.nodes() {
        let v = match node.op() {
            NodeOp::Input => input_words[input_pos[id.index()]],
            NodeOp::Const(true) => u64::MAX,
            NodeOp::Const(false) => 0,
            NodeOp::And | NodeOp::Or => {
                let mut acc = if node.op() == NodeOp::And {
                    u64::MAX
                } else {
                    0
                };
                for s in node.fanins() {
                    let mut w = values[s.node().index()];
                    if s.is_inverted() {
                        w = !w;
                    }
                    acc = if node.op() == NodeOp::And {
                        acc & w
                    } else {
                        acc | w
                    };
                }
                acc
            }
        };
        values[id.index()] = v;
    }
}

/// The word of output `o` (polarity applied) from per-node `values`.
fn output_value(o: &Output, values: &[u64]) -> u64 {
    let w = values[o.signal.node().index()];
    if o.signal.is_inverted() {
        !w
    } else {
        w
    }
}

/// `chortle_netlist::simulate_outputs` as it was: one word per primary
/// output (polarity applied) on 64 packed patterns.
///
/// # Panics
///
/// Panics if `input_words.len()` differs from the number of primary
/// inputs.
pub fn baseline_simulate_outputs(network: &Network, input_words: &[u64]) -> Vec<u64> {
    assert_eq!(
        input_words.len(),
        network.num_inputs(),
        "one input word per primary input"
    );
    let mut values = Vec::new();
    simulate_into(network, input_words, &input_positions(network), &mut values);
    network
        .outputs()
        .iter()
        .map(|o| output_value(o, &values))
        .collect()
}

/// `chortle_netlist::check_networks` as it was before block-parallel
/// checking: same patterns, same chunk order, same errors.
///
/// # Errors
///
/// Returns an [`EquivalenceError`] naming the first differing output.
///
/// # Panics
///
/// Panics if the networks disagree on input or output counts.
pub fn baseline_check_networks(a: &Network, b: &Network) -> Result<(), EquivalenceError> {
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
/// assignments in 64-pattern chunks when `n ≤ MAX_VARS`, else
/// [`RANDOM_ROUNDS`] chunks drawn from a [`SplitMix64`] seeded with
/// `seed`.
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
