//! Property tests: the marked-graph model is an exact oracle for
//! simulated steady-state throughput across randomly parameterised
//! topology families — far beyond the few configurations the paper
//! tabulates — and its policy-iteration solver agrees with a
//! Bellman-Ford search on every design tried, legal or not.

use std::collections::HashSet;

use lip_analysis::model::{MarkedGraph, ModelEdge};
use lip_analysis::{equalize, predict_throughput, transient_bound};
use lip_core::pearl::{IdentityPearl, RouterPearl};
use lip_core::RelayKind;
use lip_graph::{generate, Netlist, NodeId};
use lip_sim::measure::{find_periodicity, measure};
use lip_sim::{Ratio, System};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The search the model ran before policy iteration, kept as the test
/// oracle: find a cycle strictly below the bound, tighten the bound to
/// that cycle's ratio, repeat; then probe just above the minimum for a
/// cycle achieving it.
mod oracle {
    use super::{ModelEdge, Ratio};

    /// Minimum cycle ratio capped at 1, and a cycle achieving it when it
    /// is below 1.
    pub fn binding(edges: &[ModelEdge], n: usize) -> (Ratio, Option<Vec<ModelEdge>>) {
        let mut best = Ratio::new(1, 1);
        while let Some(cycle) = cycle_below(edges, n, best) {
            best = ratio(&cycle);
        }
        if best == Ratio::new(1, 1) {
            return (best, None);
        }
        // No cycle is strictly below `best`, so probe with the next
        // larger rational step (denominator scaled by the total delay,
        // which dominates every cycle).
        let total: u64 = edges.iter().map(|e| e.delay).sum::<u64>().max(1);
        let probe = Ratio::new(best.num() * total + 1, best.den() * total);
        (best, cycle_below(edges, n, probe))
    }

    pub fn ratio(cycle: &[ModelEdge]) -> Ratio {
        let tokens = cycle.iter().map(|e| e.tokens).sum();
        let delay = cycle.iter().map(|e| e.delay).sum();
        Ratio::new(tokens, delay)
    }

    /// A cycle with ratio strictly below `bound`: Bellman-Ford under
    /// weights `bound.den·tokens − bound.num·delay` from a virtual source,
    /// walking predecessors back onto the negative cycle.
    fn cycle_below(edges: &[ModelEdge], n: usize, bound: Ratio) -> Option<Vec<ModelEdge>> {
        let w = |e: &ModelEdge| -> i128 {
            i128::from(bound.den()) * i128::from(e.tokens)
                - i128::from(bound.num()) * i128::from(e.delay)
        };
        let mut dist = vec![0i128; n];
        let mut pred: Vec<Option<usize>> = vec![None; n];
        let mut updated = None;
        for _ in 0..=n {
            updated = None;
            for (ei, e) in edges.iter().enumerate() {
                let cand = dist[e.from.index()] + w(e);
                if cand < dist[e.to.index()] {
                    dist[e.to.index()] = cand;
                    pred[e.to.index()] = Some(ei);
                    updated = Some(e.to.index());
                }
            }
            updated?;
        }
        let mut v = updated?;
        for _ in 0..n {
            v = edges[pred[v]?].from.index();
        }
        let start = v;
        let mut cycle = Vec::new();
        loop {
            let e = edges[pred[v]?];
            cycle.push(e);
            v = e.from.index();
            if v == start {
                break;
            }
        }
        cycle.reverse();
        Some(cycle)
    }
}

/// Policy iteration and the oracle agree on `netlist`: the same minimum
/// ratio; a binding cycle that is closed, simple, starts at its lowest
/// node and achieves that ratio; and, when no other cycle achieves it,
/// the oracle's node set.
fn assert_matches_oracle(netlist: &Netlist, what: &str) {
    let graph = MarkedGraph::new(netlist);
    let edges: Vec<ModelEdge> = graph.edges().collect();
    let n = netlist.node_count();
    let (expected, oracle_cycle) = oracle::binding(&edges, n);
    assert_eq!(graph.min_cycle_ratio(), expected, "{what}: minimum ratio");
    let binding = graph.binding_cycle();
    let Some((cycle, ratio)) = binding else {
        assert_eq!(expected, Ratio::new(1, 1), "{what}: nothing binds");
        return;
    };
    assert_eq!(ratio, expected, "{what}: binding ratio");
    assert_eq!(oracle::ratio(&cycle), ratio, "{what}: cycle sums");
    for (i, e) in cycle.iter().enumerate() {
        assert_eq!(e.to, cycle[(i + 1) % cycle.len()].from, "{what}: closed");
        assert!(edges.contains(e), "{what}: {e:?} is a model edge");
    }
    let nodes: Vec<NodeId> = cycle.iter().map(|e| e.from).collect();
    let set: HashSet<NodeId> = nodes.iter().copied().collect();
    assert_eq!(set.len(), nodes.len(), "{what}: simple");
    assert_eq!(nodes.iter().min(), Some(&nodes[0]), "{what}: lowest first");
    let oracle_cycle = oracle_cycle.expect("the oracle finds a cycle at the minimum");
    assert_eq!(
        oracle::ratio(&oracle_cycle),
        expected,
        "{what}: oracle cycle"
    );
    // A cycle is the unique minimum iff dropping any one of its edges
    // raises the minimum; checked on small designs only, where the
    // repeated search stays cheap.
    let unique = || {
        cycle.iter().all(|e| {
            let mut rest = edges.clone();
            rest.retain(|x| x != e);
            oracle::binding(&rest, n).0 != expected
        })
    };
    if edges.len() <= 64 && unique() {
        let oracle_set: HashSet<NodeId> = oracle_cycle.iter().map(|e| e.from).collect();
        assert_eq!(set, oracle_set, "{what}: unique binding cycle");
    }
}

/// A random, usually illegal, netlist: shells of arity 1–2 (some
/// buffered), relays of every kind including FIFOs of fewer than two
/// places, a few sources and sinks, and ports wired at random with some
/// left open.
fn random_wiring(seed: u64) -> Netlist {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut n = Netlist::new();
    let mut outs = Vec::new();
    let mut ins = Vec::new();
    for i in 0..rng.gen_range(2..12usize) {
        let id = match rng.gen_range(0..8u32) {
            0 => n.add_source(format!("in{i}")),
            1 => n.add_sink(format!("out{i}")),
            2 | 3 => {
                let pearl = RouterPearl::new(rng.gen_range(1..3usize), rng.gen_range(1..3usize));
                if rng.gen_bool(0.3) {
                    n.add_buffered_shell(format!("s{i}"), pearl)
                } else {
                    n.add_shell(format!("s{i}"), pearl)
                }
            }
            4 => n.add_relay(RelayKind::Full),
            5 => n.add_relay(RelayKind::Half),
            _ => n.add_relay(RelayKind::Fifo(rng.gen_range(0..4u8))),
        };
        let kind = n.node(id).kind();
        outs.extend((0..kind.num_outputs()).map(|p| (id, p)));
        ins.extend((0..kind.num_inputs()).map(|p| (id, p)));
    }
    while !outs.is_empty() && !ins.is_empty() && rng.gen_bool(0.9) {
        let (from, fp) = outs.swap_remove(rng.gen_range(0..outs.len()));
        let (to, tp) = ins.swap_remove(rng.gen_range(0..ins.len()));
        n.connect(from, fp, to, tp).expect("free ports");
    }
    n
}

/// The `lip-benchmark` rungs (`ladder` and `lint_ladder`): chains with
/// four relays per stage, rings, fork-joins, coupled compositions and
/// binary trees, all with full stations.
fn rungs() -> Vec<(String, Netlist)> {
    const FULL: RelayKind = RelayKind::Full;
    let mut out = Vec::new();
    for k in [4, 16, 32, 64, 256, 512] {
        out.push((format!("chain({k},4)"), generate::chain(k, 4, FULL).netlist));
    }
    for k in [4, 16, 64, 128, 256, 512, 1024] {
        out.push((format!("ring({k},{k})"), generate::ring(k, k, FULL).netlist));
    }
    for k in [4, 16, 64, 128, 256, 512] {
        let f = generate::fork_join(k, k, k / 2);
        out.push((format!("fork_join({k},{k},{})", k / 2), f.netlist));
    }
    for k in [2, 8, 32, 64, 128, 256] {
        let c = generate::composed_coupled(k, k, k / 2, k, k);
        out.push((format!("composed_coupled({k})"), c.netlist));
    }
    for d in [2, 6, 8, 10, 12, 14] {
        out.push((format!("tree({d},2,1)"), generate::tree(d, 2, 1).netlist));
    }
    out
}

#[test]
fn policy_iteration_matches_bellman_ford_on_random_families() {
    for seed in 0..300u64 {
        let (family, netlist) = generate::random_family(seed);
        assert_matches_oracle(&netlist, &format!("seed {seed} {family:?}"));
    }
}

#[test]
fn policy_iteration_matches_bellman_ford_on_benchmark_rungs() {
    for (name, netlist) in rungs() {
        assert_matches_oracle(&netlist, &name);
    }
}

#[test]
fn policy_iteration_matches_bellman_ford_on_buffered_half_and_fifo_loops() {
    for s in 1..5 {
        for r in 0..4 {
            assert_matches_oracle(
                &generate::buffered_ring(s, r).netlist,
                &format!("buffered_ring({s},{r})"),
            );
            for kind in [RelayKind::Half, RelayKind::Fifo(2), RelayKind::Fifo(3)] {
                let ring = generate::ring(s, r, kind);
                assert_matches_oracle(&ring.netlist, &format!("{kind} ring({s},{r})"));
                let chain = generate::chain(s, r, kind);
                assert_matches_oracle(&chain.netlist, &format!("{kind} chain({s},{r})"));
            }
        }
    }
}

#[test]
fn policy_iteration_matches_bellman_ford_on_random_wiring() {
    for seed in 0..500u64 {
        assert_matches_oracle(&random_wiring(seed), &format!("wiring {seed}"));
    }
}

/// Two disjoint rings of one shell and two full relays, both at 1/3:
/// the reported one holds the lowest node.
#[test]
fn equal_ratio_loops_report_the_one_with_the_lowest_node() {
    fn ring_of_three(n: &mut Netlist, name: &str) -> Vec<NodeId> {
        let shell = n.add_shell(name, IdentityPearl::new());
        let r1 = n.add_relay(RelayKind::Full);
        let r2 = n.add_relay(RelayKind::Full);
        n.chain(&[shell, r1, r2, shell]).expect("fresh ports");
        vec![shell, r1, r2]
    }
    let mut n = Netlist::new();
    let first = ring_of_three(&mut n, "A");
    ring_of_three(&mut n, "B");
    let (cycle, ratio) = MarkedGraph::new(&n).binding_cycle().expect("binds");
    assert_eq!(ratio, Ratio::new(1, 3));
    let nodes: Vec<NodeId> = cycle.iter().map(|e| e.from).collect();
    assert_eq!(nodes, first);

    // Built the other way round, the second ring now holds node 0.
    let mut n = Netlist::new();
    let shell_b = n.add_shell("B", IdentityPearl::new());
    let first = ring_of_three(&mut n, "A");
    let r1 = n.add_relay(RelayKind::Full);
    let r2 = n.add_relay(RelayKind::Full);
    n.chain(&[shell_b, r1, r2, shell_b]).expect("fresh ports");
    let (cycle, _) = MarkedGraph::new(&n).binding_cycle().expect("binds");
    let nodes: Vec<NodeId> = cycle.iter().map(|e| e.from).collect();
    assert_eq!(nodes, vec![shell_b, r1, r2]);
    assert_ne!(nodes, first);
}

/// Loops the validator rejects never panic the model, and a zero-delay
/// cycle never binds: a shell ring with no relay (its spaces return
/// combinationally), a shell-free ring of half relays, and shells
/// joined by half relays all run at 1.
#[test]
fn illegal_loops_do_not_bind() {
    let ring = generate::ring(3, 0, RelayKind::Full).netlist;
    let mut halves = Netlist::new();
    let h1 = halves.add_relay(RelayKind::Half);
    let h2 = halves.add_relay(RelayKind::Half);
    halves.chain(&[h1, h2, h1]).expect("fresh ports");
    let mut mixed = Netlist::new();
    let s1 = mixed.add_shell("s1", IdentityPearl::new());
    let m1 = mixed.add_relay(RelayKind::Half);
    let s2 = mixed.add_shell("s2", IdentityPearl::new());
    let m2 = mixed.add_relay(RelayKind::Half);
    mixed.chain(&[s1, m1, s2, m2, s1]).expect("fresh ports");
    for (name, netlist) in [
        ("ring(3,0)", ring),
        ("half ring", halves),
        ("shell/half", mixed),
    ] {
        let graph = MarkedGraph::new(&netlist);
        assert_eq!(graph.min_cycle_ratio(), Ratio::new(1, 1), "{name}");
        assert!(graph.binding_cycle().is_none(), "{name}");
        assert_eq!(
            predict_throughput(&netlist),
            Some(Ratio::new(1, 1)),
            "{name}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Model == simulation on arbitrary fork-joins.
    #[test]
    fn model_matches_sim_on_fork_joins(r1 in 0usize..4, r2 in 0usize..4, s in 0usize..4) {
        let f = generate::fork_join(r1, r2, s);
        let predicted = predict_throughput(&f.netlist).expect("periodic");
        let measured = measure(&f.netlist).unwrap().system_throughput().unwrap();
        prop_assert_eq!(predicted, measured, "fork_join({},{},{})", r1, r2, s);
    }

    /// Model == simulation on arbitrary rings of either kind.
    #[test]
    fn model_matches_sim_on_rings(s in 1usize..6, r in 0usize..6, half in any::<bool>()) {
        let kind = if half { RelayKind::Half } else { RelayKind::Full };
        let ring = generate::ring(s, r, kind);
        if ring.netlist.validate().is_err() {
            return Ok(());
        }
        let predicted = predict_throughput(&ring.netlist).expect("periodic");
        let measured = measure(&ring.netlist).unwrap().system_throughput().unwrap();
        prop_assert_eq!(predicted, measured, "{} ring({},{})", kind, s, r);
    }

    /// Model == simulation on buffered rings (relay-free loops).
    #[test]
    fn model_matches_sim_on_buffered_rings(s in 1usize..5, r in 0usize..3) {
        let ring = generate::buffered_ring(s, r);
        let predicted = predict_throughput(&ring.netlist).expect("periodic");
        let measured = measure(&ring.netlist).unwrap().system_throughput().unwrap();
        prop_assert_eq!(predicted, measured, "buffered_ring({},{})", s, r);
    }

    /// Model == simulation on coupled compositions, and equals the
    /// min of the sub-topology forms.
    #[test]
    fn model_matches_sim_on_coupled_compositions(
        r1 in 1usize..3, r2 in 1usize..3, s in 1usize..3,
        ring_s in 1usize..4, ring_r in 1usize..4,
    ) {
        let c = generate::composed_coupled(r1, r2, s, ring_s, ring_r);
        let predicted = predict_throughput(&c.netlist).expect("periodic");
        let measured = measure(&c.netlist).unwrap().system_throughput().unwrap();
        prop_assert_eq!(predicted, measured);
    }

    /// Equalization always yields exactly T = 1 on the fork-join family.
    #[test]
    fn equalization_always_reaches_one(r1 in 0usize..4, r2 in 0usize..4, s in 0usize..4) {
        let mut f = generate::fork_join(r1, r2, s);
        equalize(&mut f.netlist).unwrap();
        f.netlist.validate().unwrap();
        let t = measure(&f.netlist).unwrap().system_throughput().unwrap();
        prop_assert_eq!(t, Ratio::new(1, 1));
    }

    /// The transient bound holds on arbitrary ring + environment
    /// disturbances.
    #[test]
    fn transient_bound_holds_on_disturbed_rings(
        s in 1usize..4, r in 1usize..4,
        void_period in 2u32..5, stop_period in 2u32..5,
    ) {
        use lip_core::Pattern;
        let ring = generate::ring_with_entry(
            s, r, RelayKind::Full,
            Pattern::EveryNth { period: void_period, phase: 0 },
            Pattern::EveryNth { period: stop_period, phase: 1 },
        );
        let bound = transient_bound(&ring.netlist);
        let mut sys = System::new(&ring.netlist).unwrap();
        let p = find_periodicity(&mut sys, 200_000).expect("periodic environment");
        prop_assert!(p.transient <= bound, "transient {} > bound {}", p.transient, bound);
    }

    /// Throughput is monotone in loop relay count: adding a full relay
    /// station to a ring never speeds it up.
    #[test]
    fn ring_throughput_is_antitone_in_relays(s in 1usize..5, r in 1usize..5) {
        let t1 = predict_throughput(&generate::ring(s, r, RelayKind::Full).netlist).unwrap();
        let t2 = predict_throughput(&generate::ring(s, r + 1, RelayKind::Full).netlist).unwrap();
        prop_assert!(t2.to_f64() <= t1.to_f64() + 1e-12);
    }

    /// Increasing fork-join imbalance never increases throughput.
    #[test]
    fn fork_join_throughput_is_antitone_in_imbalance(base in 1usize..3, extra in 0usize..3) {
        let t1 = predict_throughput(&generate::fork_join(base, 1, 1).netlist).unwrap();
        let t2 = predict_throughput(&generate::fork_join(base + extra, 1, 1).netlist).unwrap();
        prop_assert!(t2.to_f64() <= t1.to_f64() + 1e-12);
    }

    /// The binding cycle's ratio is the minimum cycle ratio (1 when
    /// there is no binding cycle), so lint takes both from one pass.
    #[test]
    fn binding_cycle_ratio_is_the_minimum_cycle_ratio(seed in 0u64..400) {
        let (_, netlist) = generate::random_family(seed);
        if netlist.validate().is_err() {
            return Ok(());
        }
        let graph = MarkedGraph::new(&netlist);
        let binding = graph.binding_cycle().map_or(Ratio::new(1, 1), |(_, r)| r);
        prop_assert_eq!(binding, graph.min_cycle_ratio(), "seed {}", seed);
    }
}
