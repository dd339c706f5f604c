//! Edge-case coverage of measurement and evolution recording.

use lip_core::{Pattern, RelayKind};
use lip_graph::{generate, Netlist};
use lip_sim::measure::{find_periodicity, measure_activity, measure_with, MeasureOptions};
use lip_sim::{Evolution, System};

#[test]
fn record_from_skips_the_transient() {
    let f = generate::fig1();
    let mut sys = System::new(&f.netlist).unwrap();
    // Skip past the transient, then record a steady window: every row
    // must already be periodic (period 5).
    sys.run(10);
    let ev = Evolution::record_from(&mut sys, &f.netlist, &[f.join], 10).unwrap();
    assert_eq!(ev.rows().first().unwrap().cycle, 10);
    let voids: Vec<usize> = (0..10)
        .filter(|&r| ev.rows()[r].outputs[0].0[0].is_void())
        .collect();
    assert_eq!(voids.len(), 2, "{voids:?}");
    assert_eq!(voids[1] - voids[0], 5);
}

#[test]
fn measure_options_control_the_window() {
    let ring = generate::ring(2, 1, RelayKind::Full);
    let opts = MeasureOptions {
        max_transient: 100,
        fallback_cycles: 1,
    };
    let m = measure_with(&ring.netlist, opts).unwrap();
    let p = m.periodicity.unwrap();
    // The lasso closes one period past the stem, and that one period
    // gives the exact rate: nothing runs after it.
    assert_eq!(m.cycles, p.transient + p.period);
    assert_eq!(m.system_throughput().unwrap().to_string(), "2/3");
    // Without a recurrence in budget, the search cycles plus the
    // fallback window are all that run.
    let cut = MeasureOptions {
        max_transient: 1,
        fallback_cycles: 30,
    };
    let m = measure_with(&ring.netlist, cut).unwrap();
    assert_eq!((m.periodicity, m.cycles), (None, 31));
}

#[test]
fn zero_budgets_measure_an_empty_window() {
    // No search and no fallback window: nothing is simulated, every
    // rate reads 0 instead of dividing by a zero-cycle window.
    let ring = generate::ring(2, 1, RelayKind::Full);
    let none = MeasureOptions {
        max_transient: 0,
        fallback_cycles: 0,
    };
    let m = measure_with(&ring.netlist, none).unwrap();
    assert_eq!((m.periodicity, m.cycles), (None, 0));
    assert_eq!(m.system_throughput().unwrap().num(), 0);
}

#[test]
fn periodicity_budget_is_respected() {
    let ring = generate::ring(3, 2, RelayKind::Full);
    let mut sys = System::new(&ring.netlist).unwrap();
    // A budget of 1 cycle cannot find the period.
    assert_eq!(find_periodicity(&mut sys, 1), None);
    assert!(sys.cycle() <= 1);
}

#[test]
fn activity_of_starved_shells_is_zero() {
    let mut n = Netlist::new();
    let src = n.add_source_with_pattern("in", Pattern::Always); // only voids
    let a = n.add_shell("a", lip_core::pearl::IdentityPearl::new());
    let out = n.add_sink("out");
    n.connect(src, 0, a, 0).unwrap();
    n.connect(a, 0, out, 0).unwrap();
    let acts = measure_activity(&n).unwrap();
    assert_eq!(acts.len(), 1);
    assert_eq!(acts[0].utilisation.num(), 0);
}

#[test]
fn evolution_of_single_cycle_is_initial_state() {
    let f = generate::fig1();
    let ev = Evolution::record(&f.netlist, &[f.fork, f.mid, f.join], 1).unwrap();
    assert_eq!(ev.rows().len(), 1);
    // At cycle 0 every shell output is its initial valid token.
    for col in 0..3 {
        assert!(ev.rows()[0].outputs[col].0[0].is_valid(), "col {col}");
    }
}

#[test]
fn aperiodic_ring_still_measures_by_fallback() {
    let ring = generate::ring_with_entry(
        2,
        1,
        RelayKind::Full,
        Pattern::Random {
            num: 1,
            denom: 3,
            seed: 5,
        },
        Pattern::Never,
    );
    let opts = MeasureOptions {
        max_transient: 50,
        fallback_cycles: 3000,
    };
    let m = measure_with(&ring.netlist, opts).unwrap();
    assert!(m.periodicity.is_none());
    let t = m.system_throughput().unwrap().to_f64();
    // Bounded by both the loop (2/3) and the voidy source (2/3 data
    // rate feeding the entry): strictly positive, at most 2/3.
    assert!(t > 0.2 && t <= 2.0 / 3.0 + 0.05, "t = {t}");
}

#[test]
fn skeleton_periodicity_agrees_with_full() {
    use lip_sim::SkeletonSystem;
    for netlist in [
        generate::fig1().netlist,
        generate::ring(2, 2, RelayKind::Full).netlist,
        generate::fork_join(2, 1, 1).netlist,
    ] {
        let mut full = System::new(&netlist).unwrap();
        let full_p = find_periodicity(&mut full, 10_000).unwrap();
        let mut sk = SkeletonSystem::new(&netlist).unwrap();
        let sk_p = sk.find_periodicity(10_000).unwrap();
        assert_eq!(full_p.period, sk_p.period);
        assert_eq!(full_p.transient, sk_p.transient);
    }
}
