//! Bit-parallel simulation of Boolean networks.
//!
//! Simulation evaluates 64 input patterns at once by packing one pattern
//! per bit of a `u64`. It is the workhorse of randomized equivalence
//! checking between a source [`Network`] and a mapped
//! [`LutCircuit`](crate::LutCircuit).

use crate::network::{Network, NodeOp, Output};

/// Simulates `network` on 64 packed input patterns.
///
/// `input_words[i]` supplies the 64 values of the `i`-th primary input (in
/// [`Network::inputs`] order). Returns one word per node, in node order.
///
/// # Panics
///
/// Panics if `input_words.len()` differs from the number of primary inputs.
///
/// # Examples
///
/// ```
/// use chortle_netlist::{simulate, Network, NodeOp};
///
/// let mut net = Network::new();
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let g = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
/// let values = simulate(&net, &[0b1100, 0b1010]);
/// assert_eq!(values[g.index()] & 0xF, 0b1000);
/// ```
pub fn simulate(network: &Network, input_words: &[u64]) -> Vec<u64> {
    assert_eq!(
        input_words.len(),
        network.num_inputs(),
        "one input word per primary input"
    );
    let mut values = Vec::new();
    simulate_into(network, input_words, &input_positions(network), &mut values);
    values
}

/// Position of every primary input in [`Network::inputs`], indexed by
/// node (`usize::MAX` for non-inputs).
pub(crate) fn input_positions(network: &Network) -> Vec<usize> {
    let mut input_pos = vec![usize::MAX; network.len()];
    for (i, &id) in network.inputs().iter().enumerate() {
        input_pos[id.index()] = i;
    }
    input_pos
}

/// [`simulate`] into a reused buffer, with the [`input_positions`] map
/// computed once by the caller. `values` is resized to one word per node;
/// every word is overwritten.
pub(crate) fn simulate_into(
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

/// Simulates `network` and returns one word per primary output (polarity
/// applied).
///
/// # Panics
///
/// Panics if `input_words.len()` differs from the number of primary inputs.
pub fn simulate_outputs(network: &Network, input_words: &[u64]) -> Vec<u64> {
    let values = simulate(network, input_words);
    network
        .outputs()
        .iter()
        .map(|o| output_value(o, &values))
        .collect()
}

/// The word of output `o` (polarity applied) from per-node `values`.
pub(crate) fn output_value(o: &Output, values: &[u64]) -> u64 {
    let w = values[o.signal.node().index()];
    if o.signal.is_inverted() {
        !w
    } else {
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{NodeOp, Signal};

    #[test]
    fn simulate_matches_truth_table() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g = net.add_gate(NodeOp::And, vec![a.into(), Signal::inverted(b)]);
        let z = net.add_gate(NodeOp::Or, vec![g.into(), c.into()]);
        net.add_output("z", Signal::inverted(z));

        // Exhaustive over 3 inputs: patterns 0..8 in the low 8 bits.
        let mut words = [0u64; 3];
        for bits in 0..8u32 {
            for (i, w) in words.iter_mut().enumerate() {
                if (bits >> i) & 1 == 1 {
                    *w |= 1 << bits;
                }
            }
        }
        let out = simulate_outputs(&net, &words);
        let f = net
            .signal_function(Signal::inverted(z))
            .expect("small network");
        for bits in 0..8u32 {
            assert_eq!((out[0] >> bits) & 1 == 1, f.eval(bits));
        }
    }

    #[test]
    #[should_panic(expected = "one input word per primary input")]
    fn wrong_input_count_panics() {
        let mut net = Network::new();
        net.add_input("a");
        simulate(&net, &[]);
    }
}
