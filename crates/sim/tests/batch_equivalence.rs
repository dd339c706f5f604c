//! Lane-equivalence property tests: every lane of the 64-lane
//! [`BatchSkeleton`] must be cycle-for-cycle bit-identical to a scalar
//! [`SkeletonSystem`] run of the same scenario — over the topology
//! corpus (fig1 fork/join, fig2 feedback rings of every relay kind,
//! random netlists), under both protocol variants, driven both by
//! external stall schedules and by per-lane environment patterns — and
//! the periodic sweep must report the scalar lasso's exact verdicts.

use std::collections::HashMap;
use std::sync::Arc;

use lip_core::{Pattern, ProtocolVariant, RelayKind};
use lip_graph::{generate, Netlist};
use lip_obs::{Event, MetricsRegistry, NullProbe, Probe};
use lip_sim::{
    measure_batch, measure_batch_periodic, BatchSkeleton, LanePatterns, Periodicity, SettleProgram,
    SkeletonSystem, LANES,
};
use proptest::prelude::*;

/// Deterministic schedule words from a splitmix64 stream.
fn schedule_words(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
        .collect()
}

/// Drive the batch engine with random external schedules and check the
/// sampled lanes against scalar replicas every cycle.
fn assert_lanes_match_scalar(netlist: &Netlist, cycles: u64, seed: u64) {
    assert_lanes_match_scalar_probed(netlist, cycles, seed, &mut NullProbe);
}

/// [`assert_lanes_match_scalar`], with the batch engine additionally
/// driving `probe` — probing must never change behaviour.
fn assert_lanes_match_scalar_probed<P: Probe>(
    netlist: &Netlist,
    cycles: u64,
    seed: u64,
    probe: &mut P,
) {
    let prog = Arc::new(SettleProgram::compile(netlist).unwrap());
    let n_src = prog.source_count();
    let n_snk = prog.sink_count();
    let mut batch = BatchSkeleton::from_program(Arc::clone(&prog));
    let check_lanes = [0usize, 1, 31, 62, 63];
    let mut scalars: Vec<SkeletonSystem> = check_lanes
        .iter()
        .map(|_| SkeletonSystem::from_program(Arc::clone(&prog)))
        .collect();

    for t in 0..cycles {
        let srcs = schedule_words(seed ^ (t << 1), n_src);
        let snks = schedule_words(seed ^ (t << 1) ^ 1, n_snk);
        batch.step_with_masks_probed(&srcs, &snks, probe);
        for (scalar, &lane) in scalars.iter_mut().zip(&check_lanes) {
            let valids: Vec<bool> = srcs.iter().map(|w| (w >> lane) & 1 == 1).collect();
            let stops: Vec<bool> = snks.iter().map(|w| (w >> lane) & 1 == 1).collect();
            scalar.step_with(&valids, &stops);
            assert_eq!(
                batch.lane_component_state(lane),
                scalar.component_state(),
                "lane {lane} diverged at cycle {t}"
            );
        }
    }
    for (scalar, &lane) in scalars.iter().zip(&check_lanes) {
        assert_eq!(
            batch.total_fires_lane(lane),
            scalar.total_fires(),
            "lane {lane} fires"
        );
        for s in netlist.sinks() {
            assert_eq!(
                batch.sink_counts_lane(s, lane),
                scalar.sink_counts(s),
                "lane {lane} sink {s}"
            );
        }
        for sh in netlist.shells() {
            assert_eq!(
                batch.shell_fires_lane(sh, lane),
                scalar.shell_fires(sh),
                "lane {lane} shell {sh}"
            );
        }
    }
}

/// Per-lane *pattern* environments: the batch run must produce exactly
/// the counts of 64 scalar runs over netlists rebuilt with each lane's
/// patterns (exercising `from_patterns` and the pattern mutators).
fn assert_pattern_lanes_match_scalar(netlist: &Netlist, cycles: u64, seed: u64) {
    let prog = Arc::new(SettleProgram::compile(netlist).unwrap());
    let sources = netlist.sources();
    let sinks = netlist.sinks();
    let mut pats = LanePatterns::broadcast(&prog);
    for lane in 0..LANES {
        for (j, _) in sinks.iter().enumerate() {
            let denom = 4 + (lane as u32 % 5);
            pats.set_sink(
                j,
                lane,
                Pattern::Random {
                    num: lane as u32 % denom,
                    denom,
                    seed: seed ^ lane as u64,
                },
            );
        }
        if lane % 3 == 0 {
            for (i, _) in sources.iter().enumerate() {
                pats.set_source(
                    i,
                    lane,
                    Pattern::EveryNth {
                        period: 2 + lane as u32 % 4,
                        phase: 0,
                    },
                );
            }
        }
    }
    let m = measure_batch(netlist, &pats, cycles).unwrap();
    for lane in [0usize, 3, 17, 63] {
        let mut reference = netlist.clone();
        for (i, &s) in sources.iter().enumerate() {
            assert!(reference.set_source_pattern(s, pats.source_pattern(i, lane).clone()));
        }
        for (j, &s) in sinks.iter().enumerate() {
            assert!(reference.set_sink_pattern(s, pats.sink_pattern(j, lane).clone()));
        }
        let mut scalar = SkeletonSystem::new(&reference).unwrap();
        scalar.run(cycles);
        for (j, &s) in sinks.iter().enumerate() {
            assert_eq!(
                Some(m.counts[j][lane]),
                scalar.sink_counts(s),
                "lane {lane} sink {s} counts"
            );
        }
    }
}

/// Every topology in the deterministic corpus, under both variants.
fn corpus() -> Vec<Netlist> {
    let mut out = Vec::new();
    let base: Vec<Netlist> = vec![
        generate::fig1().netlist,
        generate::tree(2, 2, 1).netlist,
        generate::reconvergent(2, 3).netlist,
        generate::ring(2, 1, RelayKind::Full).netlist,
        generate::ring(2, 2, RelayKind::Half).netlist,
        generate::ring(2, 2, RelayKind::Fifo(3)).netlist,
        generate::buffered_ring(2, 0).netlist,
        generate::composed_coupled(1, 1, 1, 2, 1).netlist,
    ];
    for n in base {
        for variant in ProtocolVariant::ALL {
            let mut m = n.clone();
            m.set_variant(variant);
            out.push(m);
        }
    }
    out
}

#[test]
fn lanes_match_scalar_over_corpus_both_variants() {
    for (i, netlist) in corpus().iter().enumerate() {
        assert_lanes_match_scalar(netlist, 60, 0xC0FFEE ^ (i as u64) << 8);
    }
}

#[test]
fn probed_lanes_still_match_scalar_over_corpus() {
    // A live MetricsRegistry on the batch engine must not perturb any
    // lane, and its popcount totals must agree with the per-lane reads.
    for (i, netlist) in corpus().iter().enumerate() {
        let prog = SettleProgram::compile(netlist).unwrap();
        let mut metrics = MetricsRegistry::with_lanes(prog.topology(), LANES as u32);
        assert_lanes_match_scalar_probed(netlist, 60, 0xC0FFEE ^ (i as u64) << 8, &mut metrics);
        assert_eq!(metrics.cycles(), 60, "one end_cycle per step");

        // Replay unprobed and compare the aggregate fire count.
        let prog = Arc::new(prog);
        let mut batch = BatchSkeleton::from_program(Arc::clone(&prog));
        for t in 0..60u64 {
            let srcs = schedule_words(0xC0FFEE ^ (i as u64) << 8 ^ (t << 1), prog.source_count());
            let snks = schedule_words(0xC0FFEE ^ (i as u64) << 8 ^ (t << 1) ^ 1, prog.sink_count());
            batch.step_with_masks(&srcs, &snks);
        }
        let all_lanes: u64 = (0..LANES).map(|l| batch.total_fires_lane(l)).sum();
        assert_eq!(metrics.total_fires(), all_lanes, "netlist {i} fire totals");
    }
}

#[test]
fn early_exit_matches_full_budget_over_random_corpus() {
    // The periodicity early-exit must be invisible in the *numbers*: a
    // converged sweep reports the same exact rational throughputs as
    // burning the whole (here, doubled) budget, and the same exact
    // rationals as the scalar measurement path, over a random corpus.
    let mut items: Vec<Netlist> = Vec::new();
    let mut seed = 0u64;
    while items.len() < 12 {
        let (_, netlist) = generate::random_family(seed);
        if netlist.validate().is_ok() && !netlist.shells().is_empty() {
            items.push(netlist);
        }
        seed += 1;
    }
    for (i, netlist) in items.iter().enumerate() {
        let prog = SettleProgram::compile(netlist).unwrap();
        let pats = LanePatterns::broadcast(&prog);
        let short = lip_sim::measure_batch_periodic(netlist, &pats, 4096).unwrap();
        let long = lip_sim::measure_batch_periodic(netlist, &pats, 8192).unwrap();
        assert!(short.all_converged(), "netlist {i} did not converge");
        assert!(
            short.cycles_saved() > 0,
            "netlist {i}: no cycles saved on a converged corpus"
        );
        let scalar = lip_sim::measure(netlist).unwrap();
        let scalar_t = scalar.system_throughput().unwrap();
        for lane in 0..LANES {
            let t = short.system_throughput(lane);
            assert_eq!(t, long.system_throughput(lane), "netlist {i} lane {lane}");
            assert_eq!(t, Some(scalar_t), "netlist {i} lane {lane} vs scalar");
        }
    }
}

#[test]
fn pattern_lanes_match_scalar_on_fig1_and_ring() {
    for netlist in [
        generate::fig1().netlist,
        generate::ring(2, 1, RelayKind::Full).netlist,
        generate::ring(2, 2, RelayKind::Fifo(2)).netlist,
    ] {
        assert_pattern_lanes_match_scalar(&netlist, 300, 99);
    }
}

// ---------------------------------------------------------------------
// Event streams and periodic verdicts, lane by lane.
// ---------------------------------------------------------------------

/// Probe that records every event it sees.
#[derive(Default)]
struct EventLog(Vec<Event>);

impl Probe for EventLog {
    fn event(&mut self, ev: Event) {
        self.0.push(ev);
    }
}

/// Sortable per-lane fingerprint of an event: engines may emit a
/// cycle's events in different entity orders, so streams compare as
/// sorted `(cycle, kind, entity)` sequences.
fn fingerprint(ev: &Event) -> (u64, u8, u32) {
    (ev.cycle, ev.kind as u8, ev.entity)
}

/// Per-lane periodic environments: stop periods 2–8 and periodic
/// sources on every third lane.
fn periodic_patterns(prog: &SettleProgram, seed: u64) -> LanePatterns {
    let mut pats = LanePatterns::broadcast(prog);
    for lane in 0..LANES {
        let base = lane as u32;
        for j in 0..prog.sink_count() {
            let period = 2 + (base + seed as u32 % 5) % 7;
            pats.set_sink(
                j,
                lane,
                Pattern::EveryNth {
                    period,
                    phase: base % period,
                },
            );
        }
        if base.is_multiple_of(3) {
            for i in 0..prog.source_count() {
                pats.set_source(
                    i,
                    lane,
                    Pattern::EveryNth {
                        period: 2 + base % 4,
                        phase: 0,
                    },
                );
            }
        }
    }
    pats
}

/// Rebuild `netlist` with `lane`'s patterns from `pats`.
fn rebuild_for_lane(netlist: &Netlist, pats: &LanePatterns, lane: usize) -> Netlist {
    let mut reference = netlist.clone();
    for (i, &s) in netlist.sources().iter().enumerate() {
        assert!(reference.set_source_pattern(s, pats.source_pattern(i, lane).clone()));
    }
    for (j, &s) in netlist.sinks().iter().enumerate() {
        assert!(reference.set_sink_pattern(s, pats.sink_pattern(j, lane).clone()));
    }
    reference
}

/// Lanes to spot-check: both ends of the word and the middle.
const SAMPLE_LANES: [usize; 5] = [0, 1, 32, 62, 63];

/// The full fire/stall/void event stream of every sampled lane is
/// identical to a scalar probed run of that lane's scenario, and the
/// final counters agree.
fn assert_event_streams_match_scalar(netlist: &Netlist, cycles: u64, seed: u64) {
    let prog = Arc::new(SettleProgram::compile(netlist).unwrap());
    let pats = periodic_patterns(&prog, seed);
    let mut batch = BatchSkeleton::from_patterns(Arc::clone(&prog), &pats);
    let mut log = EventLog::default();
    batch.run_patterns_probed(&pats, cycles, &mut log);

    for lane in SAMPLE_LANES {
        let reference = rebuild_for_lane(netlist, &pats, lane);
        let mut scalar = SkeletonSystem::new(&reference).unwrap();
        let mut slog = EventLog::default();
        scalar.run_probed(cycles, &mut slog);

        let mut got: Vec<_> = log
            .0
            .iter()
            .filter(|e| e.lane as usize == lane)
            .map(fingerprint)
            .collect();
        let mut want: Vec<_> = slog.0.iter().map(fingerprint).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "lane {lane} event stream");
        assert_eq!(
            batch.total_fires_lane(lane),
            scalar.total_fires(),
            "lane {lane} fires"
        );
        for s in netlist.sinks() {
            assert_eq!(
                batch.sink_counts_lane(s, lane),
                scalar.sink_counts(s),
                "lane {lane} sink {s}"
            );
        }
    }
}

#[test]
fn event_streams_match_scalar_over_corpus() {
    for (i, netlist) in corpus().iter().enumerate() {
        assert_event_streams_match_scalar(netlist, 80, 0xABCD ^ (i as u64) << 4);
    }
}

#[test]
fn periodic_measurement_matches_scalar_exact_rationals() {
    // Exact Periodicity and Ratio per lane: each sampled lane reports
    // the same exact steady-state throughput as the scalar measurement
    // of its rebuilt netlist — covering every relay kind around the
    // feedback rings.
    let items: Vec<Netlist> = vec![
        generate::fig1().netlist,
        generate::ring(2, 1, RelayKind::Full).netlist,
        generate::ring(2, 2, RelayKind::Half).netlist,
        generate::ring(2, 2, RelayKind::Fifo(3)).netlist,
    ];
    for netlist in &items {
        let prog = SettleProgram::compile(netlist).unwrap();
        let pats = periodic_patterns(&prog, 5);
        let m = measure_batch_periodic(netlist, &pats, 4096).unwrap();
        assert!(m.all_converged(), "the sweep did not converge");
        for lane in SAMPLE_LANES {
            let reference = rebuild_for_lane(netlist, &pats, lane);
            let scalar = lip_sim::measure(&reference).unwrap();
            assert_eq!(
                m.periodicity[lane], scalar.periodicity,
                "lane {lane} periodicity"
            );
            assert_eq!(
                m.system_throughput(lane),
                scalar.system_throughput(),
                "lane {lane} exact ratio vs scalar"
            );
        }
    }
}

/// Scenarios [`mixed_patterns`] deals out; the last one is aperiodic.
const SCENARIOS: u64 = 24;

/// The scenario of `lane`: a hash of its index, so neighbouring lanes
/// run different environments.
fn scenario(lane: usize, seed: u64) -> u32 {
    (schedule_words(seed ^ lane as u64, 1)[0] % SCENARIOS) as u32
}

/// Per-lane environments mixing env periods 1–60 and phases in one
/// sweep, plus an aperiodic scenario: lane `l` runs [`scenario`]`(l)`.
fn mixed_patterns(prog: &SettleProgram, seed: u64) -> LanePatterns {
    let mut pats = LanePatterns::broadcast(prog);
    for lane in 0..LANES {
        let s = scenario(lane, seed);
        for j in 0..prog.sink_count() {
            let period = 1 + (s + j as u32) % 5;
            let p = if u64::from(s) == SCENARIOS - 1 {
                Pattern::Random {
                    num: 1,
                    denom: 3,
                    seed,
                }
            } else {
                Pattern::EveryNth {
                    period,
                    phase: s % period,
                }
            };
            pats.set_sink(j, lane, p);
        }
        if s.is_multiple_of(3) {
            for i in 0..prog.source_count() {
                let period = 2 + s % 4;
                pats.set_source(
                    i,
                    lane,
                    Pattern::EveryNth {
                        period,
                        phase: s % period,
                    },
                );
            }
        }
    }
    pats
}

/// Every lane of a periodic sweep under [`mixed_patterns`] against the
/// scalar lasso on its rebuilt netlist: with room to converge, each
/// lane's `Periodicity` and every sink's exact `Ratio` equal
/// `measure`'s; at a `short` budget, each lane's verdict is
/// `find_periodicity`'s on the same cycles.
fn assert_periodic_lanes_match_scalar(netlist: &Netlist, seed: u64, short: u64) {
    let prog = SettleProgram::compile(netlist).unwrap();
    let pats = mixed_patterns(&prog, seed);
    let long = measure_batch_periodic(netlist, &pats, 4096).unwrap();
    let cut = measure_batch_periodic(netlist, &pats, short).unwrap();
    let mut oracle = HashMap::new();
    for lane in 0..LANES {
        let (full, at_cut) = oracle.entry(scenario(lane, seed)).or_insert_with(|| {
            let reference = rebuild_for_lane(netlist, &pats, lane);
            let at_cut = SkeletonSystem::new(&reference)
                .unwrap()
                .find_periodicity(short);
            (lip_sim::measure(&reference).unwrap(), at_cut)
        });
        let at = format!("lane {lane}");
        assert_eq!(long.periodicity[lane], full.periodicity, "{at} periodicity");
        assert_eq!(
            long.lane_converged(lane),
            full.periodicity.is_some(),
            "{at}"
        );
        assert_eq!(
            cut.periodicity[lane], *at_cut,
            "{at} periodicity at {short}"
        );
        assert_eq!(
            cut.lane_converged(lane),
            at_cut.is_some(),
            "{at} at {short}"
        );
        if full.periodicity.is_none() {
            continue;
        }
        for (j, sink) in full.sinks.iter().enumerate() {
            assert_eq!(long.throughput[j][lane], sink.throughput, "{at} sink {j}");
            if at_cut.is_some() {
                assert_eq!(cut.throughput[j][lane], sink.throughput, "{at} sink {j}");
            }
        }
    }
}

#[test]
fn budget_edge_matches_the_lasso_verdict() {
    // fig1's lasso closes at t = 7 (stem 2, period 5). Its binding
    // cycle has delay 5, so the binding-cycle lag sees the recurrence at
    // t = 7 too, where Brent's checkpoints alone would wait until 13.
    // Under sink stops every 6 cycles its lasso closes at t = 14 (stem
    // 2, period 12), which neither lag (6, lcm(6, 5) = 30) matches, so
    // Brent's checkpoints first see it at t = 28 and budgets 15..=28
    // are settled by the replay. A one-shell chain recurs at once (stem
    // 0, period 1), which the environment lag sees at t = 1.
    let mut stopped = generate::fig1().netlist;
    let sink = stopped.sinks()[0];
    stopped.set_sink_pattern(
        sink,
        Pattern::EveryNth {
            period: 6,
            phase: 3,
        },
    );
    let cases = [
        (generate::fig1().netlist, 6..=16, (2, 5), 7),
        (stopped, 12..=32, (2, 12), 28),
        (
            generate::chain(1, 0, RelayKind::Full).netlist,
            0..=4,
            (0, 1),
            1,
        ),
    ];
    for (netlist, budgets, (transient, period), close) in cases {
        let lasso = |budget| {
            SkeletonSystem::new(&netlist)
                .unwrap()
                .find_periodicity(budget)
        };
        assert_eq!(lasso(64), Some(Periodicity { transient, period }));
        let scalar = lip_sim::measure(&netlist).unwrap().system_throughput();
        let pats = LanePatterns::broadcast(&SettleProgram::compile(&netlist).unwrap());
        for budget in budgets {
            let m = measure_batch_periodic(&netlist, &pats, budget).unwrap();
            let verdict = lasso(budget);
            assert_eq!(m.cycles, budget.min(close), "budget {budget} cycles");
            for lane in 0..LANES {
                assert_eq!(m.periodicity[lane], verdict, "budget {budget} lane {lane}");
                assert_eq!(m.lane_converged(lane), verdict.is_some(), "budget {budget}");
                if verdict.is_some() {
                    assert_eq!(m.system_throughput(lane), scalar, "budget {budget}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random netlists under mixed per-lane environments: the
    /// word-wide lasso reports exactly the scalar lasso's stems, periods
    /// and ratios, also when a short budget cuts it off.
    #[test]
    fn periodic_lanes_match_scalar_lasso(
        family_seed in 0u64..200,
        seed in any::<u64>(),
        short in 1u64..40,
    ) {
        let (_, netlist) = generate::random_family(family_seed);
        if netlist.validate().is_ok() {
            assert_periodic_lanes_match_scalar(&netlist, seed, short);
        }
    }

    /// Random netlist family x random schedule seed: every sampled lane
    /// bit-identical to its scalar replica, in whichever variant the
    /// family generator picked.
    #[test]
    fn lanes_match_scalar_on_random_netlists(family_seed in 0u64..200, seed in any::<u64>()) {
        let (_, netlist) = generate::random_family(family_seed);
        if netlist.validate().is_ok() {
            assert_lanes_match_scalar(&netlist, 40, seed);
        }
    }

    /// Random netlists, opposite variant forced: the discard-on-void
    /// refinement must stay lane-exact too.
    #[test]
    fn lanes_match_scalar_on_random_netlists_flipped_variant(
        family_seed in 0u64..120,
        seed in any::<u64>(),
    ) {
        let (_, mut netlist) = generate::random_family(family_seed);
        let flipped = match netlist.variant() {
            ProtocolVariant::Refined => ProtocolVariant::Carloni,
            ProtocolVariant::Carloni => ProtocolVariant::Refined,
        };
        netlist.set_variant(flipped);
        if netlist.validate().is_ok() {
            assert_lanes_match_scalar(&netlist, 40, seed);
        }
    }

    /// Batched throughput sweep equals 64 scalar pattern runs on random
    /// feed-forward netlists.
    #[test]
    fn batched_throughput_matches_scalar_on_random_netlists(family_seed in 0u64..60) {
        let (_, netlist) = generate::random_family(family_seed);
        if netlist.validate().is_ok() {
            assert_pattern_lanes_match_scalar(&netlist, 120, family_seed);
        }
    }
}
