//! Bit-parallel simulation of Boolean networks and LUT circuits.
//!
//! Simulation evaluates 64 input patterns at once by packing one pattern
//! per bit of a `u64`. It is the workhorse of equivalence checking
//! between a source [`Network`] and a mapped
//! [`LutCircuit`](crate::LutCircuit).
//!
//! Every simulation runs a [`Tape`]: the networks and circuits of one run
//! compiled once into flat slot arrays. A [`Block`] holds `width` pattern
//! words per slot, and each gate or LUT visit evaluates all of them in
//! loops over the block. [`simulate`], [`simulate_outputs`] and
//! [`LutCircuit::simulate`](crate::LutCircuit::simulate) run a tape at
//! width 1; the equivalence checker runs wider blocks.

use crate::lut::{LutCircuit, LutSource};
use crate::network::{Network, NodeId, NodeOp};
use crate::truth_table::{TruthTable, MAX_VARS};

/// A compiled signal: slot `sig >> 1`, inverted when bit 0 is set.
pub(crate) type Sig = u32;

/// The slot that holds all-zero words.
const ZERO: Sig = 0;
/// The slot that holds all-one words.
const ONES: Sig = 2;
/// Slots before the primary inputs: [`ZERO`] and [`ONES`].
const FIXED_SLOTS: usize = 2;

/// The XOR mask of a signal's polarity.
fn mask(sig: Sig) -> u64 {
    0u64.wrapping_sub(u64::from(sig & 1))
}

/// One gate or LUT of a tape: it writes slot `out` from the fanins
/// `start..end` of its fanin list.
#[derive(Clone, Copy)]
struct Step {
    out: u32,
    start: u32,
    end: u32,
}

impl Step {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Networks and LUT circuits over one list of primary inputs, compiled
/// into flat slot arrays.
///
/// Slots are allocated in increasing order: the two constant slots, one
/// slot per primary input, then one per gate and per LUT, until
/// [`reuse_slots`](Self::reuse_slots) lets later steps take over the
/// slots of dead results. A gate is the AND of its fanin signals, each
/// with its inversion folded in as an XOR mask; an OR gate is stored as
/// the AND of its inverted fanins and read through an inverted signal.
/// Gates of fewer than two fanins and constants compile to signals of the
/// slots they alias, and write no slot.
pub(crate) struct Tape<'a> {
    inputs: usize,
    slots: usize,
    gates: Vec<Step>,
    gate_fanins: Vec<Sig>,
    luts: Vec<(Step, &'a TruthTable)>,
    lut_fanins: Vec<u32>,
}

impl<'a> Tape<'a> {
    /// An empty tape over `inputs` primary inputs.
    pub(crate) fn new(inputs: usize) -> Self {
        Tape {
            inputs,
            slots: FIXED_SLOTS + inputs,
            gates: Vec::new(),
            gate_fanins: Vec::new(),
            luts: Vec::new(),
            lut_fanins: Vec::new(),
        }
    }

    /// Number of primary inputs.
    pub(crate) fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of slots, constants and inputs included.
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    fn alloc(&mut self) -> u32 {
        let slot = u32::try_from(self.slots)
            .ok()
            .filter(|&s| s <= Sig::MAX >> 1)
            .expect("slot count fits a compiled signal");
        self.slots += 1;
        slot
    }

    /// Compiles `network`, whose primary inputs in [`Network::inputs`]
    /// order are the tape's inputs. Returns the signal of every node.
    ///
    /// # Panics
    ///
    /// Panics if the network has a different number of primary inputs.
    pub(crate) fn add_network(&mut self, network: &Network) -> Vec<Sig> {
        assert_eq!(
            network.num_inputs(),
            self.inputs,
            "one input word per primary input"
        );
        let mut sigs = vec![ZERO; network.len()];
        for (i, id) in network.inputs().iter().enumerate() {
            sigs[id.index()] = ((FIXED_SLOTS + i) as Sig) << 1;
        }
        for (id, node) in network.nodes() {
            let or = match node.op() {
                NodeOp::Input => continue,
                NodeOp::Const(value) => {
                    sigs[id.index()] = if value { ONES } else { ZERO };
                    continue;
                }
                NodeOp::And => 0,
                NodeOp::Or => 1,
            };
            let start = self.gate_fanins.len();
            self.gate_fanins.extend(
                node.fanins()
                    .iter()
                    .map(|s| sigs[s.node().index()] ^ Sig::from(s.is_inverted()) ^ or),
            );
            sigs[id.index()] = match self.gate_fanins.len() - start {
                0 => ONES ^ or,
                1 => self.gate_fanins.pop().expect("one fanin") ^ or,
                _ => {
                    let out = self.alloc();
                    self.gates.push(Step {
                        out,
                        start: start as u32,
                        end: self.gate_fanins.len() as u32,
                    });
                    (out << 1) | or
                }
            };
        }
        sigs
    }

    /// The signals of `network`'s primary outputs, given its node
    /// signals from [`add_network`](Self::add_network).
    pub(crate) fn network_outputs(network: &Network, sigs: &[Sig]) -> Vec<Sig> {
        network
            .outputs()
            .iter()
            .map(|o| sigs[o.signal.node().index()] ^ Sig::from(o.signal.is_inverted()))
            .collect()
    }

    /// Compiles `circuit`, whose primary input `id` is tape input
    /// `input_index(id)`. Returns the signal of every circuit output.
    ///
    /// # Panics
    ///
    /// Panics if `input_index` returns a position out of range.
    pub(crate) fn add_circuit(
        &mut self,
        circuit: &'a LutCircuit,
        input_index: &dyn Fn(NodeId) -> usize,
    ) -> Vec<Sig> {
        let first = self.slots;
        let inputs = self.inputs;
        let slot = |src: LutSource| -> u32 {
            match src {
                LutSource::Input(id) => {
                    let i = input_index(id);
                    assert!(i < inputs, "LUT input {id:?} is no primary input");
                    (FIXED_SLOTS + i) as u32
                }
                LutSource::Lut(id) => (first + id.index()) as u32,
                LutSource::Const(value) => (if value { ONES } else { ZERO }) >> 1,
            }
        };
        for lut in circuit.luts() {
            let start = self.lut_fanins.len() as u32;
            self.lut_fanins
                .extend(lut.inputs().iter().map(|&src| slot(src)));
            let step = Step {
                out: self.alloc(),
                start,
                end: self.lut_fanins.len() as u32,
            };
            self.luts.push((step, lut.table()));
        }
        circuit
            .outputs()
            .iter()
            .map(|o| (slot(o.source) << 1) | Sig::from(o.inverted))
            .collect()
    }

    /// Lets a gate or LUT reuse the slot of a result whose last reader
    /// has run, so a block holds the live values only. The signals of
    /// `keep`, the inputs and the constants hold their slots to the end;
    /// `keep` is renumbered in place. A step's output slot is never one
    /// of its own fanins' slots, since those are still live when it is
    /// placed.
    pub(crate) fn reuse_slots(&mut self, keep: &mut [&mut Vec<Sig>]) {
        let steps = self.gates.len() + self.luts.len();
        let mut slots = SlotPlan {
            pinned: FIXED_SLOTS + self.inputs,
            last_read: vec![UNREAD; self.slots],
            slot_of: (0..self.slots as u32).collect(),
            free: Vec::new(),
            next: (FIXED_SLOTS + self.inputs) as u32,
        };
        for (i, step) in self.gates.iter().enumerate() {
            for &sig in &self.gate_fanins[step.range()] {
                slots.last_read[(sig >> 1) as usize] = i;
            }
        }
        for (i, (step, _)) in self.luts.iter().enumerate() {
            for &slot in &self.lut_fanins[step.range()] {
                slots.last_read[slot as usize] = self.gates.len() + i;
            }
        }
        for &sig in keep.iter().flat_map(|list| list.iter()) {
            slots.last_read[(sig >> 1) as usize] = steps;
        }
        let remap = |slot_of: &[u32], sig: Sig| (slot_of[(sig >> 1) as usize] << 1) | (sig & 1);
        for (i, step) in self.gates.iter_mut().enumerate() {
            let fanins = &mut self.gate_fanins[step.range()];
            step.out = slots.place(i, step.out, fanins.iter().map(|&sig| sig >> 1));
            for sig in fanins {
                *sig = remap(&slots.slot_of, *sig);
            }
        }
        for (i, (step, _)) in self.luts.iter_mut().enumerate() {
            let fanins = &mut self.lut_fanins[step.range()];
            step.out = slots.place(self.gates.len() + i, step.out, fanins.iter().copied());
            for slot in fanins {
                *slot = slots.slot_of[*slot as usize];
            }
        }
        for sig in keep.iter_mut().flat_map(|list| list.iter_mut()) {
            *sig = remap(&slots.slot_of, *sig);
        }
        self.slots = slots.next as usize;
    }

    /// Evaluates every gate, then every LUT, on the first `len` words of
    /// each slot of `block`.
    pub(crate) fn run(&self, block: &mut Block, len: usize) {
        let width = block.width;
        assert!(len <= width, "a run covers at most the block width");
        for step in &self.gates {
            let (fanin, out) = around(&mut block.values, step.out as usize, width, len);
            let fanins = &self.gate_fanins[step.range()];
            let word = |sig: Sig| (fanin.slot((sig >> 1) as usize), mask(sig));
            let (first, m) = word(fanins[0]);
            for (o, &x) in out.iter_mut().zip(first) {
                *o = x ^ m;
            }
            for &sig in &fanins[1..] {
                let (x, m) = word(sig);
                for (o, &x) in out.iter_mut().zip(x) {
                    *o &= x ^ m;
                }
            }
        }
        for &(step, table) in &self.luts {
            let (fanin, out) = around(&mut block.values, step.out as usize, width, len);
            let fanins = &self.lut_fanins[step.range()];
            let mut ins: [&[u64]; MAX_VARS] = [&[]; MAX_VARS];
            for (x, &slot) in ins.iter_mut().zip(fanins) {
                *x = fanin.slot(slot as usize);
            }
            table.eval_block(&ins[..fanins.len()], out);
        }
    }
}

/// `SlotPlan::last_read` of a result nobody reads.
const UNREAD: usize = usize::MAX;
/// `SlotPlan::last_read` of a slot its last reader has freed.
const FREED: usize = usize::MAX - 1;

/// The slot assignment [`Tape::reuse_slots`] builds, step by step.
struct SlotPlan {
    pinned: usize,
    /// The last step that reads each compiled slot; one past the last
    /// step for kept slots.
    last_read: Vec<usize>,
    /// The block slot of each compiled slot placed so far.
    slot_of: Vec<u32>,
    free: Vec<u32>,
    next: u32,
}

impl SlotPlan {
    /// Gives step `step`, which writes compiled slot `out` and reads
    /// `reads`, a block slot, and frees the slots it reads last.
    fn place(&mut self, step: usize, out: u32, reads: impl Iterator<Item = u32>) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.next += 1;
            self.next - 1
        });
        self.slot_of[out as usize] = slot;
        if self.last_read[out as usize] == UNREAD {
            self.free.push(slot);
        }
        for read in reads.map(|r| r as usize) {
            if read >= self.pinned && self.last_read[read] == step {
                self.last_read[read] = FREED;
                self.free.push(self.slot_of[read]);
            }
        }
        slot
    }
}

/// The first `len` words of slot `out` of `values` (`width` words per
/// slot), and read access to every other slot.
fn around(values: &mut [u64], out: usize, width: usize, len: usize) -> (Fanins<'_>, &mut [u64]) {
    let (below, rest) = values.split_at_mut(out * width);
    let (out_words, above) = rest.split_at_mut(width);
    let fanins = Fanins {
        below,
        above,
        out,
        width,
        len,
    };
    (fanins, &mut out_words[..len])
}

/// The slots of a block other than one step's output slot.
struct Fanins<'v> {
    below: &'v [u64],
    above: &'v [u64],
    out: usize,
    width: usize,
    len: usize,
}

impl<'v> Fanins<'v> {
    /// The first `len` words of `slot`.
    fn slot(&self, slot: usize) -> &'v [u64] {
        let words = if slot < self.out {
            &self.below[slot * self.width..]
        } else {
            assert_ne!(slot, self.out, "a step reads its own output slot");
            &self.above[(slot - self.out - 1) * self.width..]
        };
        &words[..self.len]
    }
}

/// `width` pattern words for every slot of a [`Tape`], slot-major.
pub(crate) struct Block {
    width: usize,
    values: Vec<u64>,
}

impl Block {
    /// A zeroed block for `tape`, with the constant slots filled.
    pub(crate) fn new(tape: &Tape, width: usize) -> Self {
        let mut values = vec![0u64; tape.slots * width];
        values[width..2 * width].fill(u64::MAX);
        Block { width, values }
    }

    /// Sets word `w` of every primary input: `words[i]` to input `i`.
    pub(crate) fn set_inputs(&mut self, w: usize, words: &[u64]) {
        for (i, &word) in words.iter().enumerate() {
            self.values[(FIXED_SLOTS + i) * self.width + w] = word;
        }
    }

    /// Word `w` of primary input `i`.
    pub(crate) fn input(&self, i: usize, w: usize) -> u64 {
        self.values[(FIXED_SLOTS + i) * self.width + w]
    }

    /// Word `w` of `sig`, polarity applied.
    pub(crate) fn word(&self, sig: Sig, w: usize) -> u64 {
        self.values[(sig >> 1) as usize * self.width + w] ^ mask(sig)
    }

    /// Whether `a` and `b` differ, under `mask`, on any of the first
    /// `len` words.
    pub(crate) fn differ(&self, a: Sig, b: Sig, len: usize, within: u64) -> bool {
        let words = |sig: Sig| &self.values[(sig >> 1) as usize * self.width..][..len];
        let flip = mask(a) ^ mask(b);
        let diff = words(a)
            .iter()
            .zip(words(b))
            .fold(0, |acc, (x, y)| acc | (x ^ y ^ flip));
        diff & within != 0
    }
}

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
    let (block, sigs) = run_network(network, input_words);
    sigs.iter().map(|&sig| block.word(sig, 0)).collect()
}

/// Simulates `network` and returns one word per primary output (polarity
/// applied).
///
/// # Panics
///
/// Panics if `input_words.len()` differs from the number of primary inputs.
pub fn simulate_outputs(network: &Network, input_words: &[u64]) -> Vec<u64> {
    let (block, sigs) = run_network(network, input_words);
    Tape::network_outputs(network, &sigs)
        .into_iter()
        .map(|sig| block.word(sig, 0))
        .collect()
}

/// Runs `network` at width 1; returns the block and every node's signal.
fn run_network(network: &Network, input_words: &[u64]) -> (Block, Vec<Sig>) {
    let mut tape = Tape::new(input_words.len());
    let sigs = tape.add_network(network);
    let mut block = Block::new(&tape, 1);
    block.set_inputs(0, input_words);
    tape.run(&mut block, 1);
    (block, sigs)
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
    fn reused_slots_hold_only_live_results() {
        // A chain of 100 gates over 4 inputs, with its last gate and one
        // early gate as outputs.
        let mut net = Network::new();
        let inputs: Vec<Signal> = (0..4)
            .map(|i| net.add_input(format!("i{i}")).into())
            .collect();
        let mut last = inputs[0];
        let mut early = last;
        for g in 1..=100 {
            let op = if g % 2 == 0 { NodeOp::And } else { NodeOp::Or };
            last = net.add_gate(op, vec![!last, inputs[g % 4]]).into();
            if g == 3 {
                early = last;
            }
        }
        net.add_output("z", last);
        net.add_output("e", !early);

        let mut tape = Tape::new(4);
        let sigs = tape.add_network(&net);
        let mut outputs = Tape::network_outputs(&net, &sigs);
        assert_eq!(tape.slots(), FIXED_SLOTS + 4 + 100);
        tape.reuse_slots(&mut [&mut outputs]);
        // The two kept results, and at most the gate being computed and
        // the chain value it reads.
        assert!(
            tape.slots() <= FIXED_SLOTS + 4 + 3,
            "{} slots",
            tape.slots()
        );

        let words = [0x0123_4567_89ab_cdef, !0x5555, 0xf0f0_f0f0, 77];
        let mut block = Block::new(&tape, 1);
        block.set_inputs(0, &words);
        tape.run(&mut block, 1);
        let got: Vec<u64> = outputs.iter().map(|&sig| block.word(sig, 0)).collect();
        assert_eq!(got, simulate_outputs(&net, &words));
    }

    #[test]
    #[should_panic(expected = "one input word per primary input")]
    fn wrong_input_count_panics() {
        let mut net = Network::new();
        net.add_input("a");
        simulate(&net, &[]);
    }
}
