//! Circuits of K-input lookup tables — the output of technology mapping.
//!
//! A [`LutCircuit`] is a DAG of lookup tables over the primary inputs of the
//! source [`Network`]. Each [`Lut`] carries an explicit truth table, so the
//! circuit is self-contained: it can be simulated and checked for
//! equivalence against the source network without reference to the mapping
//! algorithm that produced it.
//!
//! [`Network`]: crate::Network

use std::fmt;

use crate::error::LutError;
use crate::network::NodeId;
use crate::sim::{Block, Tape};
use crate::truth_table::TruthTable;

/// Identifier of a lookup table within a [`LutCircuit`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LutId(pub(crate) u32);

impl LutId {
    /// Index of this LUT within the circuit's table array.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index (ids are dense positions within
    /// [`LutCircuit::luts`]); using an index from a different circuit is
    /// a logic error.
    pub fn from_index(index: usize) -> Self {
        LutId(u32::try_from(index).expect("LUT index fits in u32"))
    }
}

impl fmt::Debug for LutId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A signal a lookup table input (or a circuit output) can connect to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LutSource {
    /// A primary input of the source network.
    Input(NodeId),
    /// The output of another lookup table in the same circuit.
    Lut(LutId),
    /// A constant value.
    Const(bool),
}

/// One K-input lookup table: an input list and a truth table over exactly
/// those inputs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Lut {
    inputs: Vec<LutSource>,
    table: TruthTable,
}

impl Lut {
    /// The LUT's input connections, in truth-table variable order.
    pub fn inputs(&self) -> &[LutSource] {
        &self.inputs
    }

    /// The LUT's function over its inputs (variable `i` = input `i`).
    pub fn table(&self) -> &TruthTable {
        &self.table
    }

    /// Number of used inputs (the *utilization* in the paper's terms).
    pub fn utilization(&self) -> usize {
        self.inputs.len()
    }
}

/// A named output of a [`LutCircuit`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LutOutput {
    /// The output's name (mirrors the source network's output name).
    pub name: String,
    /// The signal driving the output.
    pub source: LutSource,
    /// Whether the output is inverted relative to `source`.
    ///
    /// Inverters are free in the paper's cost model (they are merged into
    /// lookup tables by a trivial post-processor), so an inverted output
    /// binding costs nothing.
    pub inverted: bool,
}

/// A circuit of K-input lookup tables implementing a Boolean network.
///
/// # Examples
///
/// ```
/// use chortle_netlist::{LutCircuit, LutSource, Network, TruthTable};
///
/// let mut net = Network::new();
/// let a = net.add_input("a");
/// let b = net.add_input("b");
///
/// let mut circuit = LutCircuit::new(4);
/// let t = TruthTable::var(2, 0).and(&TruthTable::var(2, 1));
/// let l = circuit
///     .add_lut(vec![LutSource::Input(a), LutSource::Input(b)], t)
///     .unwrap();
/// circuit.add_output("z", LutSource::Lut(l), false);
/// assert_eq!(circuit.num_luts(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LutCircuit {
    k: usize,
    luts: Vec<Lut>,
    outputs: Vec<LutOutput>,
}

impl LutCircuit {
    /// Creates an empty circuit of `k`-input lookup tables.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "lookup tables need at least one input");
        LutCircuit {
            k,
            luts: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The LUT input limit `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Adds a lookup table and returns its id.
    ///
    /// Inputs must refer to primary inputs, constants, or LUTs already in
    /// the circuit, so the LUT array is always topologically ordered.
    ///
    /// # Errors
    ///
    /// * [`LutError::TooManyInputs`] if more than `K` inputs are given.
    /// * [`LutError::ArityMismatch`] if the table arity differs from the
    ///   input count.
    /// * [`LutError::UnknownSource`] if an input references a LUT id not
    ///   yet in the circuit.
    pub fn add_lut(
        &mut self,
        inputs: Vec<LutSource>,
        table: TruthTable,
    ) -> Result<LutId, LutError> {
        if inputs.len() > self.k {
            return Err(LutError::TooManyInputs {
                inputs: inputs.len(),
                k: self.k,
            });
        }
        if table.num_vars() != inputs.len() {
            return Err(LutError::ArityMismatch {
                inputs: inputs.len(),
                table_vars: table.num_vars(),
            });
        }
        for src in &inputs {
            if let LutSource::Lut(id) = src {
                if id.index() >= self.luts.len() {
                    return Err(LutError::UnknownSource(format!("{id:?}")));
                }
            }
        }
        let id = LutId(self.luts.len() as u32);
        self.luts.push(Lut { inputs, table });
        Ok(id)
    }

    /// Declares a named output.
    pub fn add_output(&mut self, name: impl Into<String>, source: LutSource, inverted: bool) {
        self.outputs.push(LutOutput {
            name: name.into(),
            source,
            inverted,
        });
    }

    /// The lookup tables, in topological order.
    pub fn luts(&self) -> &[Lut] {
        &self.luts
    }

    /// The LUT with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not from this circuit.
    pub fn lut(&self, id: LutId) -> &Lut {
        &self.luts[id.index()]
    }

    /// The circuit's outputs, in declaration order.
    pub fn outputs(&self) -> &[LutOutput] {
        &self.outputs
    }

    /// Number of lookup tables — the cost function minimized by Chortle.
    pub fn num_luts(&self) -> usize {
        self.luts.len()
    }

    /// Maximum depth (in LUT levels) over all outputs; primary inputs have
    /// depth 0.
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.luts.len()];
        for (i, lut) in self.luts.iter().enumerate() {
            depth[i] = 1 + lut
                .inputs
                .iter()
                .map(|s| match s {
                    LutSource::Lut(id) => depth[id.index()],
                    _ => 0,
                })
                .max()
                .unwrap_or(0);
        }
        self.outputs
            .iter()
            .map(|o| match o.source {
                LutSource::Lut(id) => depth[id.index()],
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// Bit-parallel simulation: given one 64-pattern word per primary input
    /// of the source network (indexed by `input_index`), returns one word
    /// per circuit output.
    ///
    /// `input_index` maps a primary-input [`NodeId`] to its position in
    /// `input_words`; typically built from [`Network::inputs`].
    ///
    /// # Panics
    ///
    /// Panics if a LUT references a primary input absent from
    /// `input_index`.
    ///
    /// [`Network::inputs`]: crate::Network::inputs
    pub fn simulate(&self, input_words: &[u64], input_index: &dyn Fn(NodeId) -> usize) -> Vec<u64> {
        let mut tape = Tape::new(input_words.len());
        let outputs = tape.add_circuit(self, input_index);
        let mut block = Block::new(&tape, 1);
        block.set_inputs(0, input_words);
        tape.run(&mut block, 1);
        outputs.into_iter().map(|sig| block.word(sig, 0)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    #[test]
    fn rejects_oversized_lut() {
        let mut net = Network::new();
        let inputs: Vec<NodeId> = (0..5).map(|i| net.add_input(format!("i{i}"))).collect();
        let mut c = LutCircuit::new(4);
        let sources: Vec<LutSource> = inputs.iter().map(|&i| LutSource::Input(i)).collect();
        let err = c
            .add_lut(sources, TruthTable::constant(5, false))
            .unwrap_err();
        assert!(matches!(err, LutError::TooManyInputs { inputs: 5, k: 4 }));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let mut c = LutCircuit::new(4);
        let err = c
            .add_lut(vec![LutSource::Input(a)], TruthTable::constant(2, false))
            .unwrap_err();
        assert!(matches!(err, LutError::ArityMismatch { .. }));
    }

    #[test]
    fn rejects_forward_reference() {
        let mut c = LutCircuit::new(2);
        let err = c
            .add_lut(vec![LutSource::Lut(LutId(3))], TruthTable::var(1, 0))
            .unwrap_err();
        assert!(matches!(err, LutError::UnknownSource(_)));
    }

    #[test]
    fn simulate_two_level() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let inputs = [a, b, c];

        let mut circuit = LutCircuit::new(2);
        let and = TruthTable::var(2, 0).and(&TruthTable::var(2, 1));
        let or = TruthTable::var(2, 0).or(&TruthTable::var(2, 1));
        let l0 = circuit
            .add_lut(vec![LutSource::Input(a), LutSource::Input(b)], and)
            .unwrap();
        let l1 = circuit
            .add_lut(vec![LutSource::Lut(l0), LutSource::Input(c)], or)
            .unwrap();
        circuit.add_output("z", LutSource::Lut(l1), false);
        circuit.add_output("nz", LutSource::Lut(l1), true);

        let words = [0b1100u64, 0b1010, 0b0001];
        let index = |id: NodeId| inputs.iter().position(|&x| x == id).unwrap();
        let out = circuit.simulate(&words, &index);
        // z = (a & b) | c per bit position.
        let expect = (words[0] & words[1]) | words[2];
        assert_eq!(out[0] & 0xF, expect & 0xF);
        assert_eq!(out[1] & 0xF, !expect & 0xF);
    }

    #[test]
    fn depth_counts_lut_levels() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let mut c = LutCircuit::new(2);
        let buf = TruthTable::var(1, 0);
        let l0 = c.add_lut(vec![LutSource::Input(a)], buf.clone()).unwrap();
        let l1 = c.add_lut(vec![LutSource::Lut(l0)], buf.clone()).unwrap();
        let l2 = c.add_lut(vec![LutSource::Lut(l1)], buf).unwrap();
        c.add_output("z", LutSource::Lut(l2), false);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn constant_sources_simulate() {
        let mut c = LutCircuit::new(2);
        let or = TruthTable::var(2, 0).or(&TruthTable::var(2, 1));
        let l = c
            .add_lut(vec![LutSource::Const(false), LutSource::Const(true)], or)
            .unwrap();
        c.add_output("z", LutSource::Lut(l), false);
        let out = c.simulate(&[], &|_| unreachable!());
        assert_eq!(out[0], u64::MAX);
    }
}
