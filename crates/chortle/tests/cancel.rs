//! Integration tests for cooperative cancellation and the process-wide
//! warm cache — the two hooks `chortle-serve` builds on.

use chortle::{
    map_design, map_network, CacheMode, CancelToken, DesignError, DesignOptions, MapError,
    MapOptions, WarmCache,
};
use chortle_netlist::{parse_design, write_blif, Network, NodeOp, Signal};

/// A forest with enough trees that per-tree cancellation polls run many
/// times under any driver. Every tree has more leaf occurrences than
/// the K = 4 and 5 the tests map at, so each one reaches the DP and the
/// cache instead of the single-LUT path.
fn layered_network(width: usize) -> Network {
    let mut net = Network::new();
    let inputs: Vec<Signal> = (0..width * 6)
        .map(|i| Signal::new(net.add_input(format!("i{i}"))))
        .collect();
    for (c, x) in inputs.chunks(6).enumerate() {
        let g1 = Signal::new(net.add_gate(NodeOp::And, x.to_vec()));
        let a = Signal::new(net.add_gate(NodeOp::And, vec![x[0], x[1]]));
        let b = Signal::new(net.add_gate(NodeOp::And, vec![!x[2], x[3]]));
        let g2 = Signal::new(net.add_gate(NodeOp::Or, vec![g1, a, b, x[4], !x[5]]));
        // g1 fans out (g2 and the output), so each column is two trees.
        net.add_output(format!("y{c}"), g2);
        net.add_output(format!("s{c}"), g1);
    }
    net
}

#[test]
fn fired_token_cancels_both_drivers() {
    // The network driver and the design driver, which maps its clouds
    // through the same tree-order loop.
    let net = layered_network(16);
    let token = CancelToken::armed();
    token.cancel();
    let opts = MapOptions::builder(4).cancel(token).build().unwrap();
    assert_eq!(map_network(&net, &opts).unwrap_err(), MapError::Cancelled);
    let blif = write_blif(&net, "layered");
    let (design, _) = parse_design(&blif).expect("parses");
    match map_design(&design, &DesignOptions::new(opts)) {
        Err(DesignError::Map {
            error: MapError::Cancelled,
            ..
        }) => {}
        other => panic!("expected a cancelled cloud, got {other:?}"),
    }
}

#[test]
fn expired_deadline_cancels() {
    let net = layered_network(16);
    let token = CancelToken::with_timeout(std::time::Duration::ZERO);
    let opts = MapOptions::builder(4).cancel(token).build().unwrap();
    assert_eq!(map_network(&net, &opts).unwrap_err(), MapError::Cancelled);
}

#[test]
fn inert_and_unexpired_tokens_do_not_perturb_mapping() {
    let net = layered_network(8);
    let baseline = map_network(&net, &MapOptions::builder(4).build().unwrap()).unwrap();
    for token in [
        CancelToken::default(),
        CancelToken::armed(),
        CancelToken::with_timeout(std::time::Duration::from_secs(3600)),
    ] {
        let opts = MapOptions::builder(4).cancel(token).build().unwrap();
        let mapped = map_network(&net, &opts).unwrap();
        assert_eq!(mapped.circuit, baseline.circuit);
    }
}

#[test]
fn warm_cache_is_reused_across_runs_without_changing_the_circuit() {
    let net = layered_network(16);
    let baseline = map_network(&net, &MapOptions::builder(4).build().unwrap()).unwrap();

    let warm = WarmCache::new();
    let opts = MapOptions::builder(4)
        .warm_cache(warm.clone())
        .build()
        .unwrap();
    // Cold first run populates; warm second run replays. Both must be
    // byte-identical to the un-warmed mapping.
    let cold = map_network(&net, &opts).unwrap();
    let shapes_after_cold = warm.shapes();
    assert!(shapes_after_cold > 0, "warm cache populated");
    let rewarm = map_network(&net, &opts).unwrap();
    assert_eq!(
        warm.shapes(),
        shapes_after_cold,
        "warm run added no new shapes"
    );
    assert_eq!(cold.circuit, baseline.circuit);
    assert_eq!(rewarm.circuit, baseline.circuit);
}

#[test]
fn warm_cache_segments_do_not_leak_across_options() {
    let net = layered_network(4);
    let warm = WarmCache::new();
    let at = |k: usize| {
        MapOptions::builder(k)
            .warm_cache(warm.clone())
            .build()
            .unwrap()
    };
    let k4 = map_network(&net, &at(4)).unwrap();
    let seg4 = warm.shapes();
    let k5 = map_network(&net, &at(5)).unwrap();
    assert!(warm.shapes() > seg4, "k=5 fills its own segment");
    // Each matches its own un-warmed baseline.
    for (k, mapped) in [(4, &k4), (5, &k5)] {
        let base = map_network(&net, &MapOptions::builder(k).build().unwrap()).unwrap();
        assert_eq!(base.circuit, mapped.circuit, "k={k}");
    }
}

#[test]
fn warm_cache_is_inert_outside_shared_mode() {
    let net = layered_network(4);
    let warm = WarmCache::new();
    for mode in [CacheMode::Off, CacheMode::Tree] {
        let opts = MapOptions::builder(4)
            .cache(mode)
            .warm_cache(warm.clone())
            .build()
            .unwrap();
        map_network(&net, &opts).unwrap();
        assert_eq!(warm.shapes(), 0, "{mode:?} must not touch the warm cache");
    }
}
