//! Property tests: the marked-graph model is an exact oracle for
//! simulated steady-state throughput across randomly parameterised
//! topology families — far beyond the few configurations the paper
//! tabulates.

use lip_analysis::model::MarkedGraph;
use lip_analysis::{equalize, predict_throughput, transient_bound};
use lip_core::RelayKind;
use lip_graph::generate;
use lip_sim::measure::{find_periodicity, measure};
use lip_sim::{Ratio, System};
use proptest::prelude::*;

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
