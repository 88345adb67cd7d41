//! Differential tests of the word-parallel equivalence checker against
//! the frozen bit-serial one ([`baseline_check_equivalence`]): on mapped
//! suite circuits with one LUT table bit flipped, both must return the
//! identical result — the same output name and the same counterexample,
//! on the exhaustive path (≤ 16 inputs) and the random path alike.

use chortle::{map_network, MapOptions};
use chortle_bench::baseline::baseline_check_equivalence;
use chortle_bench::optimized_suite;
use chortle_netlist::{check_equivalence, LutCircuit, SplitMix64, TruthTable, MAX_VARS};

/// How many single-bit mutants each mapped circuit contributes per K.
const MUTANTS: usize = 3;

/// A copy of `circuit` with bit `bit` of LUT `target`'s table flipped.
fn flip_table_bit(circuit: &LutCircuit, target: usize, bit: u32) -> LutCircuit {
    let mut out = LutCircuit::new(circuit.k());
    for (i, lut) in circuit.luts().iter().enumerate() {
        let mut table: TruthTable = lut.table().clone();
        if i == target {
            table.set(bit, !table.eval(bit));
        }
        out.add_lut(lut.inputs().to_vec(), table)
            .expect("same shape as a valid circuit");
    }
    for o in circuit.outputs() {
        out.add_output(o.name.clone(), o.source, o.inverted);
    }
    out
}

#[test]
fn word_parallel_checker_reports_what_the_bit_serial_one_did() {
    let suite = optimized_suite();
    let mut rng = SplitMix64::new(0x7e57_f11b);
    let (mut exhaustive, mut random, mut caught) = (0usize, 0usize, 0usize);
    for k in 3..=6 {
        let options = MapOptions::builder(k).build().expect("valid K");
        for (name, net, _) in &suite {
            let circuit = map_network(net, &options)
                .unwrap_or_else(|e| panic!("{name} K={k}: {e}"))
                .circuit;
            if net.num_inputs() <= MAX_VARS {
                exhaustive += 1;
            } else {
                random += 1;
            }
            assert_eq!(check_equivalence(net, &circuit), Ok(()), "{name} K={k}");
            for _ in 0..MUTANTS {
                let target = rng.choose_index(circuit.luts());
                let rows = 1u64 << circuit.luts()[target].utilization();
                let bit = rng.next_below(rows) as u32;
                let mutant = flip_table_bit(&circuit, target, bit);
                let want = baseline_check_equivalence(net, &mutant);
                let got = check_equivalence(net, &mutant);
                assert_eq!(got, want, "{name} K={k}: LUT {target} bit {bit}");
                caught += usize::from(got.is_err());
            }
        }
    }
    assert!(
        exhaustive > 0 && random > 0,
        "both checker paths must be covered ({exhaustive} exhaustive, {random} random)"
    );
    // Most single-bit flips are observable; a few land on don't-cares.
    assert!(caught > 0, "no mutant was ever caught");
}
