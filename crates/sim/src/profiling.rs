//! One-call causal profiling of a netlist on the skeleton engines.
//!
//! Ties the pieces together: compile the netlist, detect its periodic
//! steady state, attach a [`CausalProfiler`] from reset so relay
//! occupancy tracks exactly, [`rebase`](CausalProfiler::rebase) the
//! window at the end of the transient, and profile a whole number of
//! steady-state periods with a [`MetricsRegistry`] teed over the same
//! window for cross-checking. Profiling whole periods is what makes the
//! blame counts *exact*: on Fig. 1 the report charges precisely one
//! lost cycle per 5 to the short-branch relay (`T = (m−i)/m = 4/5`),
//! and on a ring every loop relay collects `R + S − S` =
//! `den − num` blame per period (`T = S/(S+R)`).
//!
//! Used by the `exp_profile` bench bin (EXP-O2), the `waveform_vcd`
//! example, and the profiling equivalence tests.

use std::sync::Arc;

use lip_graph::{Netlist, NetlistError};
use lip_obs::{chrome_trace_json, BlameReport, CausalProfiler, MetricsRegistry, Tee};

use crate::measure::Periodicity;
use crate::program::SettleProgram;
use crate::skeleton::SkeletonSystem;

/// How [`profile_netlist`] sizes its observation window.
#[derive(Debug, Clone, Copy)]
pub struct ProfileOptions {
    /// Whole steady-state periods to profile.
    pub periods: u64,
    /// Cycle budget for periodicity detection.
    pub max_probe: u64,
    /// Fallback `(warmup, pseudo_period)` when no periodicity is found
    /// within the budget (aperiodic environments, budget too small).
    pub fallback: (u64, u64),
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            periods: 8,
            max_probe: 4096,
            fallback: (256, 256),
        }
    }
}

/// The outcome of [`profile_netlist`]: the blame report, the teed
/// cross-check counters, and the rendered Chrome trace.
#[derive(Debug)]
pub struct ProfiledRun {
    /// The profiler's blame/latency report over the steady window.
    pub report: BlameReport,
    /// Counters over exactly the same window (attached after warmup),
    /// for `channel_stalls`/`channel_voids` cross-checks.
    pub metrics: MetricsRegistry,
    /// Chrome-trace JSON of the window's spans.
    pub trace_json: String,
    /// Detected periodicity, `None` if the budget ran out.
    pub periodicity: Option<Periodicity>,
    /// Cycles run before the window opened.
    pub warmup: u64,
    /// Window length in cycles (a whole multiple of the period when one
    /// was found).
    pub window: u64,
}

/// Profile `netlist`'s steady state on the scalar skeleton engine.
///
/// # Errors
///
/// Propagates any [`NetlistError`] from compilation.
pub fn profile_netlist(
    netlist: &Netlist,
    opts: ProfileOptions,
) -> Result<ProfiledRun, NetlistError> {
    let prog = SettleProgram::compile_shared(netlist)?;
    let graph = prog.channel_graph(netlist);

    // Detect the steady state on a scratch system.
    let periodicity =
        SkeletonSystem::from_program(Arc::clone(&prog)).find_periodicity(opts.max_probe);
    let (warmup, window) = match &periodicity {
        Some(p) => (p.transient, opts.periods.max(1) * p.period),
        None => (opts.fallback.0, opts.periods.max(1) * opts.fallback.1),
    };

    // Profile from reset so relay occupancy tracking is exact, then
    // restrict the window to the steady state.
    let mut sys = SkeletonSystem::from_program(Arc::clone(&prog));
    let mut profiler = CausalProfiler::new(graph);
    sys.run_probed(warmup, &mut profiler);
    profiler.rebase(sys.cycle());

    let mut metrics = MetricsRegistry::new(prog.topology());
    sys.run_probed(window, &mut Tee(&mut profiler, &mut metrics));

    let report = profiler.report();
    let trace_json = chrome_trace_json(&profiler, sys.cycle());
    Ok(ProfiledRun {
        report,
        metrics,
        trace_json,
        periodicity,
        warmup,
        window,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_graph::generate;

    #[test]
    fn fig1_blames_the_short_branch_one_in_five() {
        let f = generate::fig1();
        let run = profile_netlist(&f.netlist, ProfileOptions::default()).unwrap();
        let p = run.periodicity.expect("fig1 is periodic");
        assert_eq!(p.period % 5, 0, "fig1 steady period is a multiple of 5");
        // The imbalanced (short) branch's relay is charged exactly one
        // lost cycle per 5 — the paper's (m−i)/m = 4/5.
        let short = f.short_relays[0].index() as u32;
        assert_eq!(run.report.blame_of_node(short), run.window / 5);
        // The dominant causal loop contains the short-branch relay and
        // the top-blamed entity — it is the binding cycle.
        assert!(run.report.top_cycle_nodes().contains(&short));
        let top = run.report.entries.first().expect("some blame");
        assert!(run.report.top_cycle.contains(&top.entity));
        // And the sink observes exactly 4 tokens per 5 cycles.
        assert_eq!(run.report.consumed, run.window * 4 / 5);
        assert_eq!(run.report.lost_cycles, run.window / 5);
    }

    #[test]
    fn ring_blames_every_loop_relay_den_minus_num_per_period() {
        use lip_core::RelayKind;
        let r = generate::ring(2, 3, RelayKind::Full); // T = 2/5
        let run = profile_netlist(&r.netlist, ProfileOptions::default()).unwrap();
        let p = run.periodicity.expect("ring is periodic");
        assert_eq!(p.period % 5, 0);
        let periods = run.window / 5;
        // Every relay on the loop is charged (den - num) = 3 lost
        // cycles per period of 5.
        for &relay in &r.relays {
            let node = relay.index() as u32;
            assert_eq!(
                run.report.blame_of_node(node),
                3 * periods,
                "loop relay under-blamed"
            );
        }
        assert_eq!(run.report.consumed, periods * 2);
    }

    #[test]
    fn blame_totals_match_teed_metrics_exactly() {
        let f = generate::fig1();
        let run = profile_netlist(&f.netlist, ProfileOptions::default()).unwrap();
        for ch in 0..run.report.channel_stalls.len() {
            assert_eq!(run.report.channel_stalls[ch], run.metrics.stalls(ch));
            assert_eq!(run.report.channel_voids[ch], run.metrics.voids(ch));
        }
    }

    #[test]
    fn scalar_and_batch_lane_blame_agree() {
        let f = generate::fig1();
        let prog = Arc::new(SettleProgram::compile(&f.netlist).unwrap());
        let graph = prog.channel_graph(&f.netlist);
        let cycles = 200;

        let mut scalar = SkeletonSystem::from_program(Arc::clone(&prog));
        let mut sp = CausalProfiler::new(graph.clone());
        scalar.run_probed(cycles, &mut sp);

        let pats = crate::LanePatterns::broadcast(&prog);
        let mut batch = crate::BatchSkeleton::from_program(Arc::clone(&prog));
        // Lane 17, arbitrarily: broadcast patterns make every lane
        // identical, so its profile must equal the scalar lane-0 one.
        let mut bp = CausalProfiler::for_lane(graph, 17);
        batch.run_patterns_probed(&pats, cycles, &mut bp);

        let (sr, br) = (sp.report(), bp.report());
        assert_eq!(sr.channel_stalls, br.channel_stalls);
        assert_eq!(sr.channel_voids, br.channel_voids);
        assert_eq!(sr.consumed, br.consumed);
        assert_eq!(sr.lost_cycles, br.lost_cycles);
        assert_eq!(
            sr.entries
                .iter()
                .map(|e| (e.entity, e.blamed))
                .collect::<Vec<_>>(),
            br.entries
                .iter()
                .map(|e| (e.entity, e.blamed))
                .collect::<Vec<_>>()
        );
        assert_eq!(sr.top_cycle, br.top_cycle);
        assert_eq!(
            sr.relay_occupancy, br.relay_occupancy,
            "occupancy histograms diverge between engines"
        );
    }

    #[test]
    fn trace_json_has_a_span_per_delivered_token() {
        let f = generate::fig1();
        let run = profile_netlist(&f.netlist, ProfileOptions::default()).unwrap();
        let begins = run.trace_json.matches("\"ph\":\"b\"").count() as u64;
        let ends = run.trace_json.matches("\"ph\":\"e\"").count() as u64;
        assert_eq!(begins, ends);
        assert!(begins >= run.report.consumed);
    }
}
