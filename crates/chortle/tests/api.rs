//! Public-API surface tests for the chortle crate: option builders,
//! report fields, tree accessors and error displays.

use chortle::{
    crf_network_cost, map_network, tree_lut_cost, CacheMode, Forest, MapOptions, Objective,
    TreeChild,
};
use chortle_netlist::{
    check_equivalence, check_networks, parse_blif, write_blif, write_lut_blif, Network, NodeOp,
    Signal,
};

fn demo_network() -> Network {
    let mut net = Network::new();
    let a = net.add_input("a");
    let b = net.add_input("b");
    let c = net.add_input("c");
    let g1 = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
    let z = net.add_gate(NodeOp::Or, vec![g1.into(), Signal::inverted(c)]);
    net.add_output("z", z.into());
    net
}

#[test]
fn options_builders_compose() {
    let opts = MapOptions::builder(5)
        .split_threshold(12)
        .expect("in range")
        .objective(Objective::Depth)
        .cache(CacheMode::Tree)
        .build()
        .expect("valid K");
    assert_eq!(opts.k, 5);
    assert_eq!(opts.split_threshold, 12);
    assert_eq!(opts.objective, Objective::Depth);
    assert_eq!(opts.cache, CacheMode::Tree);
    assert_eq!(Objective::default(), Objective::Area);
    assert_eq!(CacheMode::default(), CacheMode::Shared);
}

#[test]
fn builder_rejects_out_of_range_knobs() {
    assert!(MapOptions::builder(1).build().is_err());
    assert!(MapOptions::builder(9).build().is_err());
    assert!(MapOptions::builder(4).split_threshold(17).is_err());
    assert!(MapOptions::builder(4).split_threshold(1).is_err());
}

// The builder is the only construction path (the panicking
// `MapOptions::new`/`with_*` chainers were removed after a deprecation
// cycle); these assertions absorb what their compat test used to pin.
#[test]
fn builder_covers_every_removed_chainer() {
    let opts = MapOptions::builder(5)
        .split_threshold(12)
        .expect("in range")
        .objective(Objective::Depth)
        .build()
        .expect("valid K");
    assert_eq!(opts.k, 5);
    assert_eq!(opts.split_threshold, 12);
    assert_eq!(opts.objective, Objective::Depth);
    assert_eq!(opts.cache, CacheMode::Shared);
    // Defaults of the knobs the chainers never covered.
    assert!(!opts.cancel.is_cancelled());
    assert!(opts.warm_cache.is_none());
    // Out-of-range knobs are typed errors, never panics.
    assert!(matches!(
        MapOptions::builder(9).build(),
        Err(chortle::MapError::InvalidK { k: 9 })
    ));
    assert!(matches!(
        MapOptions::builder(4).split_threshold(17),
        Err(chortle::MapError::InvalidSplitThreshold { threshold: 17 })
    ));
}

#[test]
fn report_fields_are_consistent() {
    let net = demo_network();
    let opts = MapOptions::builder(3).build().unwrap();
    let mapped = map_network(&net, &opts).expect("maps");
    assert_eq!(mapped.report.luts, mapped.circuit.num_luts());
    assert_eq!(mapped.report.trees, 1);
    assert!(mapped.report.tree_nodes >= 2);
    assert!(mapped.report.max_fanin >= 2);
}

#[test]
fn tree_accessors() {
    let net = demo_network();
    let forest = Forest::of(&net.simplified());
    assert_eq!(forest.trees.len(), 1);
    let tree = &forest.trees[0];
    assert_eq!(tree.root_index(), tree.nodes.len() - 1);
    assert_eq!(tree.leaf_count(), 3);
    assert_eq!(tree.max_fanin(), 2);
    assert_eq!(forest.node_count(), 2);
    // Children enumerate leaves and internal nodes.
    let root = &tree.nodes[tree.root_index()];
    let leaves = root
        .children
        .iter()
        .filter(|c| matches!(c, TreeChild::Leaf(_)))
        .count();
    assert_eq!(leaves, 1); // !c is a leaf of the root; g1 is internal
}

#[test]
fn tree_cost_and_crf_agree_on_demo() {
    let net = demo_network();
    let forest = Forest::of(&net.simplified());
    assert_eq!(tree_lut_cost(&forest.trees[0], 3), 1);
    assert_eq!(crf_network_cost(&net, 3), 1);
}

#[test]
fn map_error_displays() {
    // MapError is only constructible through LutError today; check the
    // Display path through the public From impl.
    use chortle::MapError;
    use chortle_netlist::LutError;
    let e = MapError::from(LutError::TooManyInputs { inputs: 9, k: 4 });
    let msg = e.to_string();
    assert!(msg.contains("lookup-table circuit construction failed"));
    assert!(std::error::Error::source(&e).is_some());
}

#[test]
fn mapping_is_cloneable_and_debuggable() {
    let net = demo_network();
    let mapped = map_network(&net, &MapOptions::builder(4).build().unwrap()).expect("maps");
    let cloned = mapped.clone();
    assert_eq!(cloned.report.luts, mapped.report.luts);
    let dbg = format!("{:?}", cloned.report);
    assert!(dbg.contains("luts"));
}

#[test]
fn figures_are_exposed() {
    use chortle::figures;
    assert_eq!(figures::figure1_network().num_inputs(), 5);
    assert_eq!(figures::figure3_network().num_outputs(), 2);
    assert_eq!(figures::figure7_network().num_inputs(), 6);
}

#[test]
fn writers_step_generated_names_aside_for_user_nets() {
    // User nets named like the writers' generated names: `n<i>` for
    // unnamed nodes, `lut<i>` and `const<v>` for LUTs and constants.
    // Both writers' text must re-parse to the circuit they describe.
    let cases = [
        // An output named like its own LUT, which must not turn into the
        // self-loop `.names lut0 lut0`.
        ".model a\n.inputs a b c\n.outputs lut0\n.names a b c lut0\n111 1\n.end\n",
        // An output named like a LUT that drives something else.
        ".model b\n.inputs a b c d e\n.outputs lut0 x\n.names a b c d x\n1111 1\n\
         .names x e lut1\n11 1\n.names lut1 a lut0\n10 1\n01 1\n.end\n",
        // Inputs named n3, lut0 and const1, and a constant-1 output.
        ".model c\n.inputs n3 lut0 const1\n.outputs n4 one n3x\n.names n3 lut0 t\n11 1\n\
         .names t const1 n4\n1- 1\n-1 1\n.names one\n1\n.names n4 n3 n3x\n10 1\n.end\n",
        // Constant outputs named like the generated constant names.
        ".model e\n.inputs a b\n.outputs const1 const0 y\n.names const1\n1\n.names const0\n\
         .names a b y\n11 1\n.end\n",
        // Outputs named n3 and n5 that other nodes drive.
        ".model d\n.inputs a b c\n.outputs n3 n5\n.names a b t\n11 1\n.names t c n5\n01 1\n\
         .names n5 n3\n0 1\n.end\n",
    ];
    for src in cases {
        let net = parse_blif(src).expect("fixture parses");
        let text = write_blif(&net, "w");
        let again =
            parse_blif(&text).unwrap_or_else(|e| panic!("write_blif text re-parses: {e}\n{text}"));
        check_networks(&net, &again).expect("write_blif keeps the function");
        for k in [2, 4] {
            let opts = MapOptions::builder(k).build().expect("valid K");
            let mapping = map_network(&net, &opts).expect("maps");
            let text = write_lut_blif(&net, &mapping.circuit, "mapped");
            let again = parse_blif(&text)
                .unwrap_or_else(|e| panic!("write_lut_blif text re-parses: {e}\n{text}"));
            check_equivalence(&again, &mapping.circuit)
                .unwrap_or_else(|e| panic!("LUT text matches its circuit: {e}\n{text}"));
        }
    }
    // Without a collision the generated names are untouched.
    let text = write_blif(&demo_network(), "demo");
    assert!(text.contains(".names a b n3\n"), "{text}");
}
