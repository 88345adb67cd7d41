//! The frozen `Vec<Literal>` cube algebra of the optimization script.
//!
//! A verbatim transcription, over the public [`Cube`] and [`Sop`], of
//! `chortle_logic_opt`'s weak division ([`baseline_divide`]),
//! single-cube-containment minimization ([`baseline_minimize`]), kernel
//! enumeration ([`baseline_kernels`]), quick factoring
//! ([`baseline_factor`]), cube extraction ([`baseline_extract_cubes`])
//! and network emission ([`baseline_to_network`]) as they were before
//! the cubes of the hot loops became word rows. [`super::baseline_optimize`]
//! runs on these copies, so the differential tests compare the live
//! algebra with this one and never with itself.

use std::collections::{HashMap, HashSet};

use chortle_logic_opt::{Cube, Factored, Kernel, Literal, Sop, SopNetwork};
use chortle_netlist::{Network, NetworkError, NodeOp, Signal};

/// Removes single-cube containment: drops any cube covered by another
/// cube of `f`; constant true absorbs everything.
pub fn baseline_minimize(f: &Sop) -> Sop {
    if f.is_one() {
        return Sop::one();
    }
    let cubes = f.cubes();
    let mut kept: Vec<Cube> = Vec::with_capacity(cubes.len());
    'outer: for (i, c) in cubes.iter().enumerate() {
        for (j, other) in cubes.iter().enumerate() {
            if i != j && other.covers(c) && (other.len() < c.len() || j < i) {
                continue 'outer;
            }
        }
        kept.push(c.clone());
    }
    Sop::from_cubes(kept)
}

/// The intersection of every cube of `f`; the empty cube for an empty SOP.
fn common_cube(f: &Sop) -> Cube {
    let mut it = f.cubes().iter();
    let first = match it.next() {
        Some(c) => c.clone(),
        None => return Cube::one(),
    };
    it.fold(first, |acc, c| acc.intersection(c))
}

fn is_cube_free(f: &Sop) -> bool {
    f.num_cubes() >= 2 && common_cube(f).is_empty()
}

fn make_cube_free(f: &Sop) -> (Cube, Sop) {
    let common = common_cube(f);
    if common.is_empty() {
        return (Cube::one(), f.clone());
    }
    let free = Sop::from_cubes(f.cubes().iter().map(|c| c.without(&common)));
    (common, free)
}

fn divide_by_cube(f: &Sop, d: &Cube) -> Sop {
    Sop::from_cubes(
        f.cubes()
            .iter()
            .filter(|c| d.covers(c))
            .map(|c| c.without(d)),
    )
}

fn intersect_cubes(a: &Sop, b: &Sop) -> Sop {
    Sop::from_cubes(
        a.cubes()
            .iter()
            .filter(|c| b.cubes().binary_search(c).is_ok())
            .cloned(),
    )
}

/// Weak (algebraic) division `f = q·d + r`, returning `(q, r)`.
pub fn baseline_divide(f: &Sop, divisor: &Sop) -> (Sop, Sop) {
    if divisor.is_zero() {
        return (Sop::zero(), f.clone());
    }
    let mut quotient: Option<Sop> = None;
    for d in divisor.cubes() {
        let qi = divide_by_cube(f, d);
        quotient = Some(match quotient {
            None => qi,
            Some(q) => intersect_cubes(&q, &qi),
        });
        if quotient.as_ref().is_some_and(Sop::is_zero) {
            break;
        }
    }
    let quotient = quotient.unwrap_or_else(Sop::zero);
    if quotient.is_zero() {
        return (Sop::zero(), f.clone());
    }
    let mut product: Vec<Cube> = Vec::new();
    for q in quotient.cubes() {
        for d in divisor.cubes() {
            if let Some(p) = q.product(d) {
                product.push(p);
            }
        }
    }
    let product = Sop::from_cubes(product);
    let remainder = Sop::from_cubes(
        f.cubes()
            .iter()
            .filter(|c| !product.cubes().contains(c))
            .cloned(),
    );
    (quotient, remainder)
}

/// Every kernel of `f` with its co-kernel, sorted by `(kernel, co_kernel)`
/// and deduplicated; empty for SOPs of fewer than two cubes.
pub fn baseline_kernels(f: &Sop) -> Vec<Kernel> {
    let mut out = Vec::new();
    if f.num_cubes() < 2 {
        return out;
    }
    let (common, free) = make_cube_free(f);
    out.push(Kernel {
        co_kernel: common.clone(),
        kernel: free.clone(),
    });
    let lits = sorted_multi_literals(&free);
    kernel_rec(&free, &common, &lits, 0, &mut out);
    out.sort_by(|a, b| (&a.kernel, &a.co_kernel).cmp(&(&b.kernel, &b.co_kernel)));
    out.dedup();
    out
}

fn sorted_multi_literals(f: &Sop) -> Vec<Literal> {
    let counts = f.literal_counts();
    let mut lits: Vec<_> = counts
        .into_iter()
        .filter(|&(_, c)| c >= 2)
        .map(|(l, _)| l)
        .collect();
    lits.sort_unstable();
    lits
}

fn kernel_rec(g: &Sop, co_kernel: &Cube, lits: &[Literal], start: usize, out: &mut Vec<Kernel>) {
    for (i, &lit) in lits.iter().enumerate().skip(start) {
        let cube_lit = Cube::from_literals([lit]).expect("single literal cube");
        let quotient = divide_by_cube(g, &cube_lit);
        if quotient.num_cubes() < 2 {
            continue;
        }
        let (extra, free) = make_cube_free(&quotient);
        let full_extra = extra
            .product(&cube_lit)
            .expect("literal not in quotient common cube");
        if full_extra.literals().iter().any(|l| lits[..i].contains(l)) {
            continue;
        }
        let new_co = co_kernel
            .product(&full_extra)
            .expect("co-kernel cubes are variable-disjoint");
        out.push(Kernel {
            co_kernel: new_co.clone(),
            kernel: free.clone(),
        });
        kernel_rec(&free, &new_co, lits, i + 1, out);
    }
}

fn is_level0_kernel(k: &Sop) -> bool {
    if k.num_cubes() < 2 || !is_cube_free(k) {
        return false;
    }
    k.literal_counts().values().all(|&c| c == 1)
}

fn and(xs: Vec<Factored>) -> Factored {
    let mut flat = Vec::new();
    for x in xs {
        match x {
            Factored::Const(false) => return Factored::Const(false),
            Factored::Const(true) => {}
            Factored::And(inner) => flat.extend(inner),
            other => flat.push(other),
        }
    }
    match flat.len() {
        0 => Factored::Const(true),
        1 => flat.pop().expect("one element"),
        _ => Factored::And(flat),
    }
}

fn or(xs: Vec<Factored>) -> Factored {
    let mut flat = Vec::new();
    for x in xs {
        match x {
            Factored::Const(true) => return Factored::Const(true),
            Factored::Const(false) => {}
            Factored::Or(inner) => flat.extend(inner),
            other => flat.push(other),
        }
    }
    match flat.len() {
        0 => Factored::Const(false),
        1 => flat.pop().expect("one element"),
        _ => Factored::Or(flat),
    }
}

/// Kernel-driven quick factoring of `f` into an AND/OR expression.
pub fn baseline_factor(f: &Sop) -> Factored {
    if f.is_zero() {
        return Factored::Const(false);
    }
    if f.is_one() {
        return Factored::Const(true);
    }
    if f.is_single_cube() {
        return cube_to_factored(&f.cubes()[0]);
    }
    let (common, free) = make_cube_free(f);
    let inner = factor_cube_free(&free);
    if common.is_empty() {
        inner
    } else {
        and(vec![cube_to_factored(&common), inner])
    }
}

fn cube_to_factored(c: &Cube) -> Factored {
    match c.len() {
        0 => Factored::Const(true),
        1 => Factored::Literal(c.literals()[0]),
        _ => Factored::And(c.literals().iter().map(|&l| Factored::Literal(l)).collect()),
    }
}

fn factor_cube_free(f: &Sop) -> Factored {
    if is_level0_kernel(f) {
        return or(f.cubes().iter().map(cube_to_factored).collect());
    }
    let Some(divisor) = choose_divisor(f) else {
        return factor_by_best_literal(f);
    };
    let (q, r) = baseline_divide(f, &divisor);
    or(vec![
        and(vec![baseline_factor(&q), baseline_factor(&divisor)]),
        baseline_factor(&r),
    ])
}

fn choose_divisor(f: &Sop) -> Option<Sop> {
    baseline_kernels(f)
        .into_iter()
        .filter(|k| k.kernel != *f && is_level0_kernel(&k.kernel))
        .max_by_key(|k| (k.kernel.num_literals(), k.kernel.num_cubes()))
        .map(|k| k.kernel)
}

fn factor_by_best_literal(f: &Sop) -> Factored {
    let counts = f.literal_counts();
    let (&lit, _) = counts
        .iter()
        .max_by_key(|&(l, c)| (*c, std::cmp::Reverse(l.code())))
        .expect("non-constant SOP has literals");
    let d = Sop::from_cubes([Cube::from_literals([lit]).expect("single literal")]);
    let (q, r) = baseline_divide(f, &d);
    or(vec![
        and(vec![Factored::Literal(lit), baseline_factor(&q)]),
        baseline_factor(&r),
    ])
}

/// One greedy cube-extraction sweep (MIS' `gcx`); returns the number of
/// cubes extracted.
pub fn baseline_extract_cubes(net: &mut SopNetwork) -> usize {
    let mut extracted = 0;
    loop {
        let mut candidates: HashMap<Cube, ()> = HashMap::new();
        for var in net.node_vars() {
            let cubes = net.node_sop(var).expect("node").cubes();
            for i in 0..cubes.len() {
                for j in (i + 1)..cubes.len().min(i + 40) {
                    let inter = cubes[i].intersection(&cubes[j]);
                    if inter.len() >= 2 {
                        candidates.insert(inter, ());
                    }
                }
            }
        }
        let mut best: Option<(isize, Cube, Vec<usize>)> = None;
        for (cube, ()) in candidates {
            let mut uses = Vec::new();
            let mut total: isize = -(cube.len() as isize);
            for var in net.node_vars() {
                let f = net.node_sop(var).expect("node");
                let covered = f.cubes().iter().filter(|c| cube.covers(c)).count() as isize;
                if covered >= 1 {
                    let v = covered * (cube.len() as isize - 1);
                    if v > 0 {
                        uses.push(var);
                        total += v;
                    }
                }
            }
            if uses.is_empty() || total <= 0 {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bt, bc, _)) => total > *bt || (total == *bt && cube < *bc),
            };
            if better {
                best = Some((total, cube, uses));
            }
        }
        let Some((_, cube, uses)) = best else {
            break;
        };
        let x = net.add_node(Sop::from_cubes([cube.clone()]));
        let x_cube = Cube::from_literals([Literal::positive(x)]).expect("fresh variable");
        for var in uses {
            let f = net.node_sop(var).expect("node").clone();
            let cubes: Vec<Cube> = f
                .cubes()
                .iter()
                .map(|c| {
                    if cube.covers(c) {
                        c.without(&cube)
                            .product(&x_cube)
                            .expect("fresh variable cannot clash")
                    } else {
                        c.clone()
                    }
                })
                .collect();
            net.set_node_sop(var, Sop::from_cubes(cubes));
        }
        extracted += 1;
    }
    extracted
}

/// Variables each node SOP depends on, indexed by variable (empty for
/// inputs).
fn deps(net: &SopNetwork, i: usize) -> Vec<usize> {
    net.node_sop(i).map(Sop::support).unwrap_or_default()
}

fn topological_order(net: &SopNetwork) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks = vec![Mark::White; net.len()];
    let mut order = Vec::with_capacity(net.len());
    for root in 0..net.len() {
        if marks[root] != Mark::White {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (i, ref mut child)) = stack.last_mut() {
            if marks[i] == Mark::Black {
                stack.pop();
                continue;
            }
            marks[i] = Mark::Grey;
            let deps = deps(net, i);
            if *child < deps.len() {
                let d = deps[*child];
                *child += 1;
                match marks[d] {
                    Mark::White => stack.push((d, 0)),
                    Mark::Grey => return None,
                    Mark::Black => {}
                }
            } else {
                marks[i] = Mark::Black;
                order.push(i);
                stack.pop();
            }
        }
    }
    Some(order)
}

fn live_items(net: &SopNetwork) -> Vec<bool> {
    let mut live = vec![false; net.len()];
    let mut stack: Vec<usize> = net.outputs().iter().map(|(_, l)| l.var()).collect();
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut live[i], true) {
            continue;
        }
        stack.extend(deps(net, i));
    }
    for i in net.input_vars() {
        live[i] = true;
    }
    live
}

/// Factors every node of `net` and emits the AND/OR network, naming the
/// primary inputs (in declaration order) from `input_names`.
///
/// # Errors
///
/// Returns [`NetworkError::Structure`] if `net` has a cycle.
pub fn baseline_to_network(
    net: &SopNetwork,
    input_names: &[String],
) -> Result<Network, NetworkError> {
    let order = topological_order(net)
        .ok_or_else(|| NetworkError::Structure("cycle in SOP network".into()))?;
    let live = live_items(net);
    let mut out = Network::new();
    let mut signal_of: HashMap<usize, Signal> = HashMap::new();
    for (i, name) in net.input_vars().into_iter().zip(input_names) {
        let id = out.add_input(name.clone());
        signal_of.insert(i, Signal::new(id));
    }
    for &i in &order {
        if !live[i] {
            continue;
        }
        if let Some(sop) = net.node_sop(i) {
            let tree = baseline_factor(sop);
            let sig = emit_factored(&tree, &signal_of, &mut out);
            signal_of.insert(i, sig);
        }
    }
    for (name, lit) in net.outputs() {
        let sig = signal_of[&lit.var()];
        out.add_output(
            name.clone(),
            sig.with_inversion(sig.is_inverted() ^ lit.is_inverted()),
        );
    }
    Ok(out)
}

fn emit_factored(tree: &Factored, signal_of: &HashMap<usize, Signal>, net: &mut Network) -> Signal {
    match tree {
        Factored::Const(v) => Signal::new(net.add_const(*v)),
        Factored::Literal(l) => {
            let s = signal_of[&l.var()];
            s.with_inversion(s.is_inverted() ^ l.is_inverted())
        }
        Factored::And(xs) | Factored::Or(xs) => {
            let op = if matches!(tree, Factored::And(_)) {
                NodeOp::And
            } else {
                NodeOp::Or
            };
            let mut fanins: Vec<Signal> = xs
                .iter()
                .map(|x| emit_factored(x, signal_of, net))
                .collect();
            let mut seen = HashSet::new();
            fanins.retain(|s| seen.insert(*s));
            if fanins.iter().any(|s| seen.contains(&!*s)) {
                return Signal::new(net.add_const(op == NodeOp::Or));
            }
            if fanins.len() == 1 {
                return fanins[0];
            }
            Signal::new(net.add_gate(op, fanins))
        }
    }
}
