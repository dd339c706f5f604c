//! Randomized whole-system deadlock hunt: the cheap pre-pass before the
//! exhaustive adversarial proof.
//!
//! [`lip_mc::check_adversarial`] universally quantifies over **all**
//! environment behaviours by enumerating every per-cycle choice (each
//! source offers or withholds, each sink stops or accepts); its cost
//! grows as `2^(sources+sinks)` per state. This module *samples* that
//! space instead: many random stall schedules run in lock-step on the
//! bit-parallel [`BatchEngine`], and lanes are probed in bulk for wedged
//! states — states from which the fully permissive continuation (all
//! sources offering, no sink stopping) fires no shell within the
//! transient bound. A hit is reported as a [`Counterexample`] and
//! confirmed by [`confirm_stuck`] on the scalar skeleton, the same check
//! every `lip-mc` adversarial counterexample passes.

use std::sync::Arc;

use lip_graph::{Netlist, NetlistError};
use lip_mc::{confirm_stuck, Counterexample, EnvChoice, Schedule};
use lip_sim::{dispatch_lane_width, BatchEngine, LaneWidthVisitor, LaneWord, SettleProgram};

use lip_analysis::transient_bound;

/// What [`random_explore_system`] runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomSearchOptions {
    /// Cycles each schedule runs.
    pub cycles: u64,
    /// Seed of the schedule stream; shard `k` draws from
    /// `seed ^ k·0x9E3779B97F4A7C15`, so shard 0 uses `seed` itself.
    pub seed: u64,
    /// Schedules per engine pass: one of [`lip_sim::LANE_WIDTHS`]
    /// ([`lip_sim::LANES`] for the classic 64-lane hunt).
    pub lanes: usize,
    /// Independent engine passes fanned out over
    /// [`lip_par::par_map_indexed`] (`0` runs one).
    pub shards: usize,
}

/// Result of [`random_explore_system`]: a randomized (incomplete but
/// fast) hunt for wedged states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomSystemSearch {
    /// Cycles each schedule ran (up to the hit, when one was found).
    pub cycles: u64,
    /// Independent random stall schedules tried: `lanes × shards`.
    pub schedules: usize,
    /// A confirmed environment schedule into a wedged state, if any lane
    /// found one. Its `continuation` is `None`: the permissive
    /// environment fires nothing from the stuck state.
    pub wedged: Option<Counterexample>,
}

impl RandomSystemSearch {
    /// `true` when no sampled schedule reached a wedged state. Unlike
    /// [`lip_mc::AdversarialProof::deadlock_free`] this is *not* a proof
    /// — it is the cheap pre-pass to run before the exhaustive search.
    #[must_use]
    pub fn deadlock_free(&self) -> bool {
        self.wedged.is_none()
    }
}

/// Randomized whole-system deadlock hunt: each of `opts.shards` shards
/// drives `opts.lanes` independent random stall schedules in lock-step
/// on one [`BatchEngine`] (each cycle, every lane draws fresh
/// source-offer and sink-stop choices) and periodically probes all its
/// lanes at once for wedged states. A hit is replayed and confirmed on
/// the scalar skeleton before it is reported, so a returned schedule is
/// always genuine.
///
/// Sampling costs linear time per cycle instead of the exponential
/// per-state branching of [`lip_mc::check_adversarial`], which makes it
/// the right first pass on systems whose exhaustive state space is out
/// of budget.
///
/// The result is a pure function of `(netlist, opts)`: each shard's
/// schedule stream derives from its index alone, and the merge (first
/// wedged shard by index wins; `schedules` sums) is byte-identical for
/// every worker count, including serial. With `shards == 1` the hunt is
/// exactly the single-pass one with `seed`; at 64 lanes the per-cycle
/// draw consumes one `splitmix64` word per source and sink, the
/// historical 64-lane stream.
///
/// # Errors
///
/// Propagates [`NetlistError`] from elaboration.
///
/// # Panics
///
/// Panics if `opts.lanes` is not one of [`lip_sim::LANE_WIDTHS`].
pub fn random_explore_system(
    netlist: &Netlist,
    opts: &RandomSearchOptions,
) -> Result<RandomSystemSearch, NetlistError> {
    struct Hunt<'a> {
        netlist: &'a Netlist,
        prog: Arc<SettleProgram>,
        opts: &'a RandomSearchOptions,
    }
    impl LaneWidthVisitor for Hunt<'_> {
        type Out = Vec<RandomSystemSearch>;
        fn visit<W: LaneWord>(&mut self) -> Self::Out {
            let shard_ids: Vec<u64> = (0..self.opts.shards.max(1) as u64).collect();
            lip_par::par_map_indexed(&shard_ids, |_, &k| {
                let seed = self.opts.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                hunt_shard::<W>(self.netlist, &self.prog, self.opts.cycles, seed)
            })
        }
    }
    let prog = Arc::new(SettleProgram::compile(netlist)?);
    let results = dispatch_lane_width(
        opts.lanes,
        &mut Hunt {
            netlist,
            prog,
            opts,
        },
    );
    Ok(merge_shards(results, opts.cycles))
}

/// Merge per-shard results, given in shard order: the first shard with a
/// confirmed hit wins and keeps its `cycles`; `schedules` sums over every
/// shard.
fn merge_shards(results: Vec<RandomSystemSearch>, cycles: u64) -> RandomSystemSearch {
    let schedules = results.iter().map(|r| r.schedules).sum();
    match results.into_iter().find(|r| r.wedged.is_some()) {
        Some(hit) => RandomSystemSearch { schedules, ..hit },
        None => RandomSystemSearch {
            cycles,
            schedules,
            wedged: None,
        },
    }
}

/// One shard: `W::LANES` schedules per pass, wedge probes batched over
/// the whole word, [`confirm_stuck`] per hit.
fn hunt_shard<W: LaneWord>(
    netlist: &Netlist,
    prog: &Arc<SettleProgram>,
    cycles: u64,
    seed: u64,
) -> RandomSystemSearch {
    let n_src = prog.source_count();
    let n_snk = prog.sink_count();
    let has_shells = prog.shell_count() > 0;
    let horizon = transient_bound(netlist) + 4;
    let probe_every = horizon.max(8);

    let mut batch = BatchEngine::<W>::from_program(Arc::clone(prog));
    let mut rng = seed;
    let mut schedule: Vec<(Vec<W>, Vec<W>)> = Vec::with_capacity(cycles as usize);
    for t in 0..cycles {
        let srcs: Vec<W> = (0..n_src).map(|_| rand_word::<W>(&mut rng)).collect();
        let snks: Vec<W> = (0..n_snk).map(|_| rand_word::<W>(&mut rng)).collect();
        batch.step_with_masks(&srcs, &snks);
        schedule.push((srcs, snks));
        if has_shells && ((t + 1) % probe_every == 0 || t + 1 == cycles) {
            let wedged_lanes = batch_wedged_mask(&batch, n_src, n_snk, horizon);
            let hit = (0..W::LANES)
                .filter(|&l| wedged_lanes.lane(l))
                .map(|lane| lane_counterexample(&batch, &schedule, lane))
                .find(|cex| confirm_stuck(netlist, cex).is_ok());
            if let Some(cex) = hit {
                return RandomSystemSearch {
                    cycles: t + 1,
                    schedules: W::LANES,
                    wedged: Some(cex),
                };
            }
        }
    }
    RandomSystemSearch {
        cycles,
        schedules: W::LANES,
        wedged: None,
    }
}

/// One fresh random lane word: `W::WORDS` `splitmix64` draws, little
/// endian, so the `u64` shape consumes exactly one draw per call and
/// reproduces the historical 64-lane schedule stream bit for bit.
fn rand_word<W: LaneWord>(rng: &mut u64) -> W {
    let mut words = [0u64; 16];
    for w in words.iter_mut().take(W::WORDS) {
        *w = splitmix64(rng);
    }
    W::from_fn(|l| (words[l / 64] >> (l % 64)) & 1 == 1)
}

/// Lanes that fail to fire any shell within `horizon` permissive cycles,
/// all `W::LANES` lanes probed at once.
fn batch_wedged_mask<W: LaneWord>(
    batch: &BatchEngine<W>,
    n_src: usize,
    n_snk: usize,
    horizon: u64,
) -> W {
    let mut probe = batch.clone();
    probe.reset_fired_mask();
    let all_valid = vec![W::ONES; n_src];
    let no_stop = vec![W::ZERO; n_snk];
    for _ in 0..horizon {
        probe.step_with_masks(&all_valid, &no_stop);
    }
    probe.fired_mask().not()
}

/// `lane`'s bits of the recorded schedule as a counterexample whose
/// stuck state is the lane's state on the batch engine; [`confirm_stuck`]
/// then checks that the scalar replay lands there and stays wedged.
fn lane_counterexample<W: LaneWord>(
    batch: &BatchEngine<W>,
    schedule: &[(Vec<W>, Vec<W>)],
    lane: usize,
) -> Counterexample {
    let choices = schedule
        .iter()
        .map(|(srcs, snks)| EnvChoice {
            source_valid: srcs.iter().map(|w| w.lane(lane)).collect(),
            sink_stop: snks.iter().map(|w| w.lane(lane)).collect(),
        })
        .collect();
    Counterexample {
        schedule: Schedule { choices },
        stuck_state: batch.lane_component_state(lane),
        continuation: None,
    }
}

/// The splitmix64 step: cheap, well-mixed, and dependency-free.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_core::{Pattern, RelayKind};
    use lip_graph::generate;
    use lip_mc::{check_adversarial, McConfig};
    use lip_sim::LANES;

    fn opts(cycles: u64, seed: u64, lanes: usize, shards: usize) -> RandomSearchOptions {
        RandomSearchOptions {
            cycles,
            seed,
            lanes,
            shards,
        }
    }

    #[test]
    fn random_prepass_agrees_with_exhaustive_on_safe_systems() {
        // The randomized pre-pass samples the same space the exhaustive
        // search enumerates; on systems proven safe it must never report
        // a wedge (a report is scalar-confirmed, so a failure here is a
        // genuine engine bug, not sampling noise).
        for netlist in [
            generate::fig1().netlist,
            generate::ring_with_entry(2, 1, RelayKind::Full, Pattern::Never, Pattern::Never)
                .netlist,
            generate::ring_with_entry(2, 2, RelayKind::Half, Pattern::Never, Pattern::Never)
                .netlist,
        ] {
            let cfg = McConfig {
                max_states: 200_000,
            };
            assert!(check_adversarial(&netlist, &cfg).unwrap().deadlock_free());
            for seed in 0..3 {
                let random = random_explore_system(&netlist, &opts(500, seed, LANES, 1)).unwrap();
                assert!(random.deadlock_free(), "seed {seed}: {:?}", random.wedged);
                assert_eq!(random.schedules, LANES);
                assert_eq!(random.cycles, 500);
            }
        }
    }

    #[test]
    fn sharded_prepass_covers_more_schedules_deterministically() {
        let f = generate::fig1();
        let sharded = random_explore_system(&f.netlist, &opts(200, 3, LANES, 4)).unwrap();
        assert!(sharded.deadlock_free());
        assert_eq!(sharded.schedules, 4 * LANES);
        assert_eq!(sharded.cycles, 200);
        // Shard 0 is exactly the unsharded run with the same seed, and
        // the merged verdict is independent of worker count.
        let single = random_explore_system(&f.netlist, &opts(200, 3, LANES, 1)).unwrap();
        assert_eq!(single.wedged, sharded.wedged);
        let again = random_explore_system(&f.netlist, &opts(200, 3, LANES, 4)).unwrap();
        assert_eq!(sharded, again);
        // No shards still runs one.
        let none = random_explore_system(&f.netlist, &opts(200, 3, LANES, 0)).unwrap();
        assert_eq!(none, single);
    }

    #[test]
    fn wider_words_scale_schedules() {
        let f = generate::fig1();
        for lanes in [128, 256] {
            let wide = random_explore_system(&f.netlist, &opts(300, 11, lanes, 1)).unwrap();
            assert!(wide.deadlock_free(), "{lanes} lanes: {:?}", wide.wedged);
            assert_eq!(wide.schedules, lanes);
            assert_eq!(wide.cycles, 300);
        }
    }

    #[test]
    fn sharded_wide_prepass_multiplies_walkers_deterministically() {
        let r = generate::ring_with_entry(2, 1, RelayKind::Full, Pattern::Never, Pattern::Never);
        let sharded = random_explore_system(&r.netlist, &opts(160, 9, 256, 2)).unwrap();
        assert!(sharded.deadlock_free(), "{:?}", sharded.wedged);
        assert_eq!(sharded.schedules, 2 * 256);
        let again = random_explore_system(&r.netlist, &opts(160, 9, 256, 2)).unwrap();
        assert_eq!(sharded, again);
    }

    #[test]
    fn lane_schedules_replay_into_the_lane_state() {
        // A hit is confirmed by replaying its lane's schedule on the
        // scalar skeleton, which must land in the lane's batch state.
        let netlist =
            generate::ring_with_entry(2, 2, RelayKind::Half, Pattern::Never, Pattern::Never)
                .netlist;
        let prog = Arc::new(SettleProgram::compile(&netlist).unwrap());
        let mut batch = BatchEngine::<u64>::from_program(Arc::clone(&prog));
        let mut rng = 5;
        let mut schedule = Vec::new();
        for _ in 0..40 {
            let srcs: Vec<u64> = (0..prog.source_count())
                .map(|_| splitmix64(&mut rng))
                .collect();
            let snks: Vec<u64> = (0..prog.sink_count())
                .map(|_| splitmix64(&mut rng))
                .collect();
            batch.step_with_masks(&srcs, &snks);
            schedule.push((srcs, snks));
        }
        for lane in [0, 17, 63] {
            let cex = lane_counterexample(&batch, &schedule, lane);
            assert_eq!(cex.schedule.len(), 40);
            let scalar = lip_mc::replay(&netlist, &cex.schedule).unwrap();
            assert_eq!(scalar.component_state(), cex.stuck_state, "lane {lane}");
            // So the hunt's filter rejects these live lanes for firing,
            // never for landing in another state.
            let err = confirm_stuck(&netlist, &cex).unwrap_err();
            assert!(err.contains("shell firings"), "lane {lane}: {err}");
        }
    }

    #[test]
    fn first_wedged_shard_wins_the_merge() {
        let shard = |cycles, stuck: Option<u64>| RandomSystemSearch {
            cycles,
            schedules: LANES,
            wedged: stuck.map(|s| Counterexample {
                schedule: Schedule::default(),
                stuck_state: vec![s],
                continuation: None,
            }),
        };
        // Shard 1 of 3 hits at cycle 40; shard 2's earlier hit comes
        // later in shard order and loses.
        let merged = merge_shards(
            vec![shard(100, None), shard(40, Some(1)), shard(10, Some(2))],
            100,
        );
        assert_eq!(merged.schedules, 3 * LANES);
        assert_eq!(merged.cycles, 40, "the hit keeps its own cycle count");
        assert_eq!(merged.wedged.unwrap().stuck_state, vec![1]);
        // No hit: the full budget ran in every shard.
        let clean = merge_shards(vec![shard(100, None), shard(100, None)], 100);
        assert_eq!(clean.schedules, 2 * LANES);
        assert_eq!(clean.cycles, 100);
        assert!(clean.deadlock_free());
    }

    #[test]
    fn random_prepass_handles_shell_free_systems() {
        let mut n = lip_graph::Netlist::new();
        let src = n.add_source("in");
        let out = n.add_sink("out");
        n.connect(src, 0, out, 0).unwrap();
        let search = random_explore_system(&n, &opts(200, 7, LANES, 1)).unwrap();
        assert!(search.deadlock_free());
    }
}
