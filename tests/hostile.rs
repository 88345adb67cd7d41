//! Hostile-depth inputs on a deliberately small stack.
//!
//! Every walk whose depth the input controls must be iterative: here a
//! fanout-free chain of 10^5 two-input gates — one tree 10^5 levels deep
//! — goes through `parse_blif` → `map_network` → `write_lut_blif` on a
//! thread with a 256 KiB stack, so a new unbounded recursion fails this
//! test instead of aborting a daemon worker or the CLI.

use std::fmt::Write as _;
use std::thread;

use chortle::{map_network, MapOptions};
use chortle_netlist::{parse_blif, write_lut_blif};

/// Stack of the thread the hostile inputs run on.
const SMALL_STACK: usize = 256 * 1024;

/// Runs `f` on a fresh thread with a [`SMALL_STACK`] stack.
fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    thread::Builder::new()
        .stack_size(SMALL_STACK)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no stack overflow")
}

/// A chain `x{i} = x{i-1} op a{i mod 8}` of `gates` two-input gates,
/// alternating AND and OR so no normalization can flatten it.
fn chain_blif(gates: usize) -> String {
    let mut blif = String::from(".model chain\n.inputs");
    for i in 0..8 {
        let _ = write!(blif, " a{i}");
    }
    let _ = writeln!(blif, "\n.outputs x{gates}");
    let _ = writeln!(blif, ".names a0 x0\n1 1");
    for i in 1..=gates {
        let _ = writeln!(blif, ".names x{} a{} x{i}", i - 1, i % 8);
        blif.push_str(if i % 2 == 0 { "11 1\n" } else { "1- 1\n-1 1\n" });
    }
    blif.push_str(".end\n");
    blif
}

#[test]
fn a_deep_chain_maps_on_a_small_stack() {
    const GATES: usize = 100_000;
    let blif = chain_blif(GATES);
    let (luts, text) = on_small_stack(move || {
        let network = parse_blif(&blif).expect("the chain parses");
        let options = MapOptions::builder(4)
            .jobs(1)
            .build()
            .expect("valid options");
        let mapping = map_network(&network, &options).expect("the chain maps");
        let text = write_lut_blif(&network, &mapping.circuit, "chain");
        (mapping.circuit.num_luts(), text)
    });
    // A 4-LUT absorbs three chain gates, so the cover is about a third of
    // the gate count.
    assert!((GATES / 4..=GATES / 2).contains(&luts), "{luts} LUTs");
    assert!(text.starts_with(".model chain\n"));
}
