//! Integration contracts of the sequential-design pipeline: a
//! handcrafted multi-model design cuts into the clouds its structure
//! dictates, and no cache mode may change a single byte
//! of the assembled netlist, any per-cloud result, or the `design.*`
//! counters.

use chortle::{map_design, stats, CacheMode, DesignOptions, MapOptions, Telemetry};
use chortle_netlist::{
    check_networks, parse_blif, parse_design, read_design, write_blif, write_lut_blif,
};

/// A hierarchical two-model design with two register stages. After
/// `.subckt` flattening the combinational logic splits at the latch
/// boundaries into three clouds — one per pipeline stage — plus one
/// passthrough (`w`, a buffered input).
const MULTI_MODEL: &str = "\
.model top
.inputs a b c e
.outputs z w
.latch d0 q0 re clk 0
.latch d1 q1 re clk 0
.subckt stage p=a q=b r=t
.names t c d0
1- 1
-1 1
.subckt stage p=q0 q=e r=d1
.names q1 c z
11 1
.names a w
1 1
.end
.model stage
.inputs p q
.outputs r
.names p q r
11 1
.end
";

/// Every cache mode the mapper offers, against the cache-off reference.
const CACHES: [CacheMode; 4] = [
    CacheMode::Off,
    CacheMode::Tree,
    CacheMode::Shared,
    CacheMode::Fn,
];

fn map_with(cache: CacheMode) -> (chortle::MappedDesign, String) {
    let (design, _) = parse_design(MULTI_MODEL).expect("fixture parses");
    let telemetry = Telemetry::enabled();
    let options = MapOptions::builder(4)
        .cache(cache)
        .telemetry(telemetry.clone())
        .build()
        .expect("valid options");
    let mapped = map_design(&design, &DesignOptions::new(options)).expect("design maps");
    (mapped, telemetry.snapshot().to_json())
}

#[test]
fn multi_model_design_cuts_into_the_expected_clouds() {
    let (mapped, _) = map_with(CacheMode::Off);
    assert_eq!(mapped.latches, 2, "both registers survive flattening");
    assert_eq!(
        mapped.clouds.len(),
        3,
        "one cloud per pipeline stage: {:?}",
        mapped.clouds.iter().map(|c| c.luts).collect::<Vec<_>>()
    );
    assert_eq!(mapped.passthroughs, 1, "w is a buffered input");
    assert_eq!(
        mapped.luts,
        mapped.clouds.iter().map(|c| c.luts).sum::<usize>()
    );
    assert_eq!(
        mapped.depth,
        mapped.clouds.iter().map(|c| c.depth).max().unwrap_or(0)
    );

    // The assembled netlist is a valid sequential design again, with
    // the register boundary intact.
    let (reread, _) = read_design(mapped.netlist.as_bytes()).expect("assembled netlist re-parses");
    assert_eq!(reread.latches().len(), 2);
}

#[test]
fn per_cloud_results_match_the_offline_mapper() {
    // Each cloud's `mapped` bytes must equal an offline `map_network`
    // run over that cloud's standalone BLIF — the in-design mapping is
    // the offline mapping, not an approximation of it.
    let (mapped, _) = map_with(CacheMode::Off);
    let options = MapOptions::builder(4).build().expect("valid options");
    let (design, _) = parse_design(MULTI_MODEL).expect("fixture parses");
    let cut = design.clouds();
    for (i, cloud) in mapped.clouds.iter().enumerate() {
        let source = write_blif(&cut.clouds[i].network, &format!("cloud{i}"));
        let net = parse_blif(&source).unwrap_or_else(|e| panic!("cloud {i} source parses: {e}"));
        let offline = chortle::map_network(&net, &options)
            .unwrap_or_else(|e| panic!("cloud {i} maps offline: {e}"));
        let rendered = write_lut_blif(&net, &offline.circuit, "mapped");
        assert_eq!(cloud.mapped, rendered, "cloud {i} diverged from offline");
        assert_eq!(cloud.luts, offline.circuit.num_luts());
    }
}

#[test]
fn design_mapping_is_bit_identical_across_caches() {
    let (reference, reference_report) = map_with(CacheMode::Off);
    for &cache in &CACHES {
        let (mapped, report) = map_with(cache);
        assert_eq!(
            mapped.netlist, reference.netlist,
            "netlist diverged at cache={cache:?}"
        );
        for (i, (got, want)) in mapped.clouds.iter().zip(&reference.clouds).enumerate() {
            assert_eq!(
                got.mapped, want.mapped,
                "cloud {i} diverged at cache={cache:?}"
            );
            assert_eq!(got.network, want.network, "cloud {i} network changed");
        }
        // The design.* counters are part of the determinism contract
        // too: same clouds, same latches, same LUT tally.
        for counter in [
            stats::DESIGN_CLOUDS,
            stats::DESIGN_LATCHES,
            stats::DESIGN_PASSTHROUGHS,
            stats::DESIGN_CLOUD_LUTS,
        ] {
            assert_eq!(
                counter_value(&report, counter),
                counter_value(&reference_report, counter),
                "{counter} diverged at cache={cache:?}"
            );
        }
    }
}

/// Reads one counter out of a serialized telemetry report.
fn counter_value(report_json: &str, name: &str) -> u64 {
    use chortle_telemetry::json::{self, Value};
    let report = json::parse(report_json).expect("report parses");
    report
        .get("counters")
        .and_then(Value::as_array)
        .expect("counters section")
        .iter()
        .find(|c| c.get("name").and_then(Value::as_str) == Some(name))
        .and_then(|c| c.get("value").and_then(Value::as_u64))
        .unwrap_or_else(|| panic!("missing counter {name:?}"))
}

/// Maps `src` as a design and checks the per-cloud contracts: each
/// cloud's network is what its own standalone BLIF parses back to, each
/// cloud maps exactly as that text maps offline, and the assembled
/// netlist re-parses to logic equivalent to the input design.
fn assert_design_maps_like_offline(src: &str) -> chortle::MappedDesign {
    let (design, _) = parse_design(src).expect("design parses");
    let options = MapOptions::builder(4).build().expect("valid options");
    let mapped = map_design(&design, &DesignOptions::new(options.clone()))
        .unwrap_or_else(|e| panic!("design maps: {e}"));
    let cut = design.clouds();
    assert_eq!(mapped.clouds.len(), cut.clouds.len());
    for (i, (cloud, got)) in cut.clouds.iter().zip(&mapped.clouds).enumerate() {
        let source = write_blif(&cloud.network, &format!("cloud{i}"));
        let net = parse_blif(&source).unwrap_or_else(|e| panic!("cloud {i} re-parses: {e}"));
        assert_eq!(
            net, cloud.network,
            "cloud {i} text round trip is not the identity"
        );
        let offline = chortle::map_network(&net, &options).expect("cloud maps offline");
        let rendered = write_lut_blif(&net, &offline.circuit, "mapped");
        assert_eq!(got.mapped, rendered, "cloud {i} diverged from offline");
        parse_blif(&got.mapped).unwrap_or_else(|e| panic!("cloud {i} mapped text parses: {e}"));
    }
    let (reread, _) = parse_design(&mapped.netlist).expect("assembled netlist re-parses");
    assert_eq!(reread.latches().len(), design.latches().len());
    check_networks(design.logic(), reread.logic()).expect("assembled netlist is equivalent");
    mapped
}

#[test]
fn nets_named_like_generated_names_map_and_verify() {
    // `n3` is also the name the BLIF writer generates for the cloud's
    // fourth node; the cloud must still map, verify and re-parse.
    let mapped = assert_design_maps_like_offline(
        ".model c3\n.inputs a b\n.outputs n3\n.latch a q re clk 0\n\
         .names q a t\n11 1\n.names t b n3\n11 1\n.end\n",
    );
    assert_eq!(mapped.clouds.len(), 1);
}

#[test]
fn same_valued_constants_feeding_one_and_collapse_like_the_reader() {
    // Two distinct constant-1 nets feed one AND: the cloud shares one
    // constant node, so the AND sees a duplicate literal, which the
    // reader's reduction removes.
    let mapped = assert_design_maps_like_offline(
        ".model k2\n.inputs a b\n.outputs y z\n.latch y q re clk 0\n\
         .names one1\n1\n.names one2\n1\n.names one1 one2 a y\n111 1\n\
         .names zero1\n.names zero2\n.names zero1 zero2 q b z\n0011 1\n.end\n",
    );
    assert!(mapped.luts >= 1);
}
