//! Property tests: the three protocol implementations (interpreter,
//! skeleton, RTL-on-kernel) are observationally equivalent, and
//! measurement is deterministic and stable.

use lip_core::{Pattern, RelayKind};
use lip_graph::{generate, Netlist};
use lip_kernel::{CycleEngine, Engine, EventEngine};
use lip_sim::measure::measure;
use lip_sim::rtl::elaborate_rtl;
use lip_sim::{SkeletonSystem, System};
use proptest::prelude::*;

fn sink_counts_interp(netlist: &Netlist, cycles: u64) -> Vec<(u64, u64)> {
    let mut sys = System::new(netlist).unwrap();
    sys.run(cycles);
    netlist
        .sinks()
        .iter()
        .map(|s| {
            let k = sys.sink(*s).unwrap();
            (k.received().len() as u64, k.voids_seen())
        })
        .collect()
}

fn sink_counts_skeleton(netlist: &Netlist, cycles: u64) -> Vec<(u64, u64)> {
    let mut sk = SkeletonSystem::new(netlist).unwrap();
    sk.run(cycles);
    netlist
        .sinks()
        .iter()
        .map(|s| sk.sink_counts(*s).unwrap())
        .collect()
}

fn sink_counts_rtl(netlist: &Netlist, cycles: u64, event: bool) -> Vec<(u64, u64)> {
    let (circuit, probes) = elaborate_rtl(netlist).unwrap();
    let mut engine: Box<dyn Engine> = if event {
        Box::new(EventEngine::new(circuit))
    } else {
        Box::new(CycleEngine::new(circuit))
    };
    engine.run(cycles);
    netlist
        .sinks()
        .iter()
        .map(|s| {
            (
                probes.read_sink_valid(engine.as_ref(), *s).unwrap(),
                probes.read_sink_voids(engine.as_ref(), *s).unwrap(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Interpreter == skeleton == RTL(cycle) == RTL(event), sink for
    /// sink, on the random corpus.
    #[test]
    fn four_way_equivalence(seed in 0u64..400, cycles in 10u64..60) {
        let (_, netlist) = generate::random_family(seed);
        if netlist.validate().is_err() {
            return Ok(());
        }
        let a = sink_counts_interp(&netlist, cycles);
        let b = sink_counts_skeleton(&netlist, cycles);
        let c = sink_counts_rtl(&netlist, cycles, false);
        let d = sink_counts_rtl(&netlist, cycles, true);
        prop_assert_eq!(&a, &b, "skeleton diverges");
        prop_assert_eq!(&a, &c, "rtl(cycle) diverges");
        prop_assert_eq!(&a, &d, "rtl(event) diverges");
    }

    /// Measurement is deterministic: two runs agree on everything.
    #[test]
    fn measurement_is_stable(seed in 0u64..200) {
        let (_, netlist) = generate::random_family(seed);
        if netlist.validate().is_err() {
            return Ok(());
        }
        prop_assert_eq!(measure(&netlist).unwrap(), measure(&netlist).unwrap());
    }

    /// Simulation of patterned environments respects the pattern rates:
    /// a sink stopping k of p cycles consumes at most (p-k)/p.
    #[test]
    fn stop_patterns_bound_consumption(period in 2u32..6, phase_count in 1u32..3, cycles in 60u64..200) {
        let phase_count = phase_count.min(period - 1);
        let mut n = Netlist::new();
        let src = n.add_source("in");
        let bits: Vec<bool> = (0..period).map(|c| c < phase_count).collect();
        let sink = n.add_sink_with_pattern("out", Pattern::Cyclic(bits));
        n.connect(src, 0, sink, 0).unwrap();
        let mut sys = System::new(&n).unwrap();
        sys.run(cycles);
        let consumed = sys.sink(sink).unwrap().received().len() as u64;
        let accept_rate = u64::from(period - phase_count);
        let bound = cycles * accept_rate / u64::from(period) + u64::from(period);
        prop_assert!(consumed <= bound, "{} > {}", consumed, bound);
        prop_assert!(consumed + u64::from(period) >= cycles * accept_rate / u64::from(period));
    }

    /// Evolution tables never disagree with direct channel inspection.
    #[test]
    fn evolution_matches_system(seed in 0u64..100, cycles in 5u64..20) {
        use lip_sim::Evolution;
        let (_, netlist) = generate::random_family(seed);
        if netlist.validate().is_err() {
            return Ok(());
        }
        let shells = netlist.shells();
        if shells.is_empty() {
            return Ok(());
        }
        let ev = Evolution::record(&netlist, &shells, cycles).unwrap();
        // Re-simulate and compare outputs cycle by cycle.
        let mut sys = System::new(&netlist).unwrap();
        for (r, row) in ev.rows().iter().enumerate() {
            sys.settle();
            for (k, id) in shells.iter().enumerate() {
                prop_assert_eq!(
                    &row.outputs[k].0,
                    &sys.node_outputs(*id),
                    "row {} shell {}", r, id
                );
            }
            sys.step();
        }
    }

    /// Relay-chain delivery invariants hold under random mixed chains
    /// driven by patterned environments: tokens arrive in order with no
    /// duplicates (end-to-end, via sequence-numbered sources).
    #[test]
    fn chains_deliver_in_order(
        shells in 1usize..4,
        relays in 0usize..3,
        half in any::<bool>(),
        stop_period in 2u32..5,
        cycles in 40u64..150,
    ) {
        let kind = if half { RelayKind::Half } else { RelayKind::Full };
        let c = generate::chain(shells, relays, kind);
        // Replace the sink with a stopping one by rebuilding: simpler to
        // re-drive via patterns on a fresh netlist.
        let mut n = Netlist::new();
        let src = n.add_source("in");
        let mut prev = (src, 0usize);
        for i in 0..shells {
            let sh = n.add_shell(format!("s{i}"), lip_core::pearl::IdentityPearl::new());
            n.connect_via_relays(prev.0, prev.1, sh, 0, relays, kind).unwrap();
            prev = (sh, 0);
        }
        let sink = n.add_sink_with_pattern(
            "out",
            Pattern::EveryNth { period: stop_period, phase: 0 },
        );
        n.connect_via_relays(prev.0, prev.1, sink, 0, relays, kind).unwrap();
        let mut sys = System::new(&n).unwrap();
        sys.run(cycles);
        let got = sys.sink(sink).unwrap().received();
        // Identity shells inject their initial zeros; after those, the
        // stream must be 0,1,2,...
        // Leading zeros: one initial token per identity shell plus the
        // source's own 0; afterwards the stream must be 1,2,3,...
        let zeros = got.iter().take_while(|v| **v == 0).count();
        prop_assert!(zeros <= shells + 1, "too many zeros in {:?}", got);
        for (i, v) in got.iter().skip(zeros).enumerate() {
            prop_assert_eq!(*v, i as u64 + 1, "corrupted stream {:?}", got);
        }
        let _ = c;
    }
}
