//! Differential tests of the word-row cube algebra against the frozen
//! `Vec<Literal>` one ([`chortle_bench::baseline::algebra`]): `kernels`
//! (the full list, in order), `Sop::divide`, `Sop::minimize` and `factor`
//! must return exactly what the frozen copies return, on seeded random
//! SOPs of 1–150 support variables (one to five words per row) and 2–120
//! cubes, and on every node of the suite and the `flow_suite` draws after
//! `eliminate`.

use chortle_bench::baseline::algebra::{
    baseline_divide, baseline_factor, baseline_kernels, baseline_minimize,
};
use chortle_circuits::{control, des_like, random_logic, suite};
use chortle_logic_opt::{factor, kernels, Cube, Literal, Sop, SopNetwork};
use chortle_netlist::{parse_blif, write_blif, Network, SplitMix64};

/// Checks every algebra operation on `f` against the frozen copy,
/// dividing by `f`'s first kernels and by each of `divisors`.
fn assert_same_algebra(name: &str, f: &Sop, divisors: &[Sop]) {
    let got = kernels(f);
    let want = baseline_kernels(f);
    assert!(got == want, "{name}: kernels differ for {f:?}");

    let mut minimized = f.clone();
    minimized.minimize();
    assert_eq!(minimized, baseline_minimize(f), "{name}: minimize of {f:?}");

    assert_eq!(factor(f), baseline_factor(f), "{name}: factor of {f:?}");

    let kernel_divisors = want.iter().take(16).map(|k| &k.kernel);
    for d in kernel_divisors.chain(divisors) {
        assert_eq!(
            f.divide(d),
            baseline_divide(f, d),
            "{name}: {f:?} divided by {d:?}"
        );
    }
}

/// `count` distinct indices below `n`, ascending.
fn pick(rng: &mut SplitMix64, n: usize, count: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    for i in 0..count {
        let j = rng.next_range(i, n);
        all.swap(i, j);
    }
    let mut chosen = all[..count].to_vec();
    chosen.sort_unstable();
    chosen
}

/// A random cube of 1..=`max_lits` literals over `support`.
fn random_cube(rng: &mut SplitMix64, support: &[usize], max_lits: usize) -> Cube {
    let lits = rng.next_range(1, max_lits.min(support.len()) + 1);
    Cube::from_literals(
        pick(rng, support.len(), lits)
            .into_iter()
            .map(|i| Literal::with_phase(support[i], rng.next_bool(1, 3))),
    )
    .expect("distinct variables")
}

/// A seeded SOP with 1–150 support variables spread over a sparse global
/// range and 2–120 cubes. Half the draws are a product of two
/// variable-disjoint random SOPs plus noise cubes, so kernels and
/// divisions have structure to find.
fn random_sop(rng: &mut SplitMix64) -> Sop {
    let n = rng.next_range(1, 151);
    let stride = rng.next_range(1, 4);
    let offset = rng.next_range(0, 50);
    let support: Vec<usize> = (0..n).map(|i| offset + i * stride).collect();
    let target = rng.next_range(2, 121);
    let mut cubes: Vec<Cube> = Vec::new();
    if n >= 4 && rng.next_bool(1, 2) {
        let split = rng.next_range(1, n);
        let (left, right) = support.split_at(split);
        let a: Vec<Cube> = (0..rng.next_range(2, 6))
            .map(|_| random_cube(rng, left, 3))
            .collect();
        let b: Vec<Cube> = (0..rng.next_range(2, 6))
            .map(|_| random_cube(rng, right, 3))
            .collect();
        for x in &a {
            for y in &b {
                cubes.extend(x.product(y));
            }
        }
    }
    while cubes.len() < target {
        cubes.push(random_cube(rng, &support, 5));
    }
    Sop::from_cubes(cubes)
}

#[test]
fn random_sops_match_the_frozen_algebra() {
    let mut rng = SplitMix64::new(0xa16e_b2a0);
    let mut widths = [0usize; 6];
    for case in 0..300 {
        let f = random_sop(&mut rng);
        let g = random_sop(&mut rng);
        widths[(2 * f.support().len()).div_ceil(64)] += 1;
        // Divisors: a random subset of f's cubes, an unrelated SOP, one
        // of f's cubes alone, f itself and the constants.
        let subset = Sop::from_cubes(f.cubes().iter().filter(|_| rng.next_bool(1, 3)).cloned());
        let single = Sop::from_cubes([f.cubes()[rng.choose_index(f.cubes())].clone()]);
        let divisors = [subset, g, single, f.clone(), Sop::one(), Sop::zero()];
        assert_same_algebra(&format!("random{case}"), &f, &divisors);
    }
    // Rows of one to five words all occurred.
    assert!(widths[1..=5].iter().all(|&n| n > 0), "widths {widths:?}");
}

/// The seeded draws of the `flow_suite` benchmark workload for `seed`,
/// round-tripped through BLIF as `chortle-map` reads them.
fn flow_draws(seed: u64) -> Vec<(String, Network)> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED_BE4C_0000_0000);
    let s: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
    [
        ("draw_control", control(s[0], 40, 30, 150, (2, 5), (2, 6))),
        ("draw_random", random_logic(s[1], 80, 350, 50, 4)),
        ("draw_des", des_like(s[2], 32, 2)),
    ]
    .into_iter()
    .map(|(name, net)| {
        let parsed = parse_blif(&write_blif(&net, name)).expect("written BLIF parses");
        (format!("{name}@seed{seed}"), parsed)
    })
    .collect()
}

#[test]
fn eliminated_corpus_nodes_match_the_frozen_algebra() {
    let mut corpus: Vec<(String, Network)> = suite()
        .into_iter()
        .map(|b| (b.name.to_string(), b.network))
        .collect();
    for seed in [3, 7, 11] {
        corpus.extend(flow_draws(seed));
    }
    let mut nodes = 0;
    for (name, net) in &corpus {
        let mut sop_net = SopNetwork::from_network(net);
        sop_net.eliminate(0);
        let vars = sop_net.node_vars();
        for (i, &var) in vars.iter().enumerate() {
            let f = sop_net.node_sop(var).expect("node");
            // Each node is also divided by its neighbour in node order.
            let next = sop_net.node_sop(vars[(i + 1) % vars.len()]).expect("node");
            assert_same_algebra(&format!("{name} v{var}"), f, std::slice::from_ref(next));
            nodes += 1;
        }
    }
    assert!(nodes > 1000, "{nodes} nodes checked");
}
