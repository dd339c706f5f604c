//! The determinism contract of the parallel executor, end to end: every
//! parallel entry point in the workspace must produce *byte-identical*
//! results no matter how many workers ran it — including the merged
//! [`MetricsRegistry`] counters and the serialised [`Report`] JSON that
//! experiments persist to disk.

use std::sync::Arc;

use lip_core::RelayKind;
use lip_graph::{generate, Netlist};
use lip_obs::{MetricsRegistry, Report};
use lip_sim::{BatchSkeleton, SettleProgram, LANES};
use lip_verify::{explore_random, random_explore_system, Dut, RandomSearchOptions};

/// Deterministic schedule words from a splitmix64 stream (same scheme as
/// the sim-side equivalence tests).
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

/// One shard of a probed sweep: run `cycles` random-schedule steps of the
/// batch engine on its own registry and summarise into a `Report`. The
/// whole unit is a pure function of `(netlist, seed, shard)`.
fn probed_shard(prog: &Arc<SettleProgram>, seed: u64, shard: usize) -> (MetricsRegistry, Report) {
    let shard_seed = seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut metrics = MetricsRegistry::with_lanes(prog.topology(), LANES as u32);
    let mut batch = BatchSkeleton::from_program(Arc::clone(prog));
    for t in 0..48u64 {
        let srcs = schedule_words(shard_seed ^ (t << 1), prog.source_count());
        let snks = schedule_words(shard_seed ^ (t << 1) ^ 1, prog.sink_count());
        batch.step_with_masks_probed(&srcs, &snks, &mut metrics);
    }
    let mut report = Report::new(format!("shard{shard}"));
    report
        .push_int("cycles", metrics.cycles())
        .push_int("fires", metrics.total_fires());
    (metrics, report)
}

/// Run the sharded sweep under an explicit worker count and fold the
/// per-worker outputs in *input order* into one registry + one report.
fn sweep_with_workers(workers: usize, netlist: &Netlist, seed: u64) -> (String, String) {
    let prog = Arc::new(SettleProgram::compile(netlist).unwrap());
    let shards: Vec<usize> = (0..8).collect();
    let outputs =
        lip_par::par_map_indexed_jobs(workers, &shards, |_, &s| probed_shard(&prog, seed, s));
    let mut merged = MetricsRegistry::with_lanes(prog.topology(), LANES as u32);
    let mut master = Report::new("parallel_sweep");
    for (metrics, report) in &outputs {
        merged.merge(metrics);
        master.absorb(report);
    }
    master.push_int("merged_fires", merged.total_fires());
    (merged.to_json(), master.to_json())
}

#[test]
fn merged_metrics_and_report_json_are_byte_identical_across_worker_counts() {
    let netlist = generate::fig1().netlist;
    let (metrics_1, report_1) = sweep_with_workers(1, &netlist, 0xDECAF);
    let (metrics_8, report_8) = sweep_with_workers(8, &netlist, 0xDECAF);
    assert_eq!(metrics_1, metrics_8, "merged MetricsRegistry JSON diverged");
    assert_eq!(report_1, report_8, "absorbed Report JSON diverged");
    // And re-running the whole sweep is reproducible, not merely
    // self-consistent.
    let (metrics_again, report_again) = sweep_with_workers(3, &netlist, 0xDECAF);
    assert_eq!(metrics_1, metrics_again);
    assert_eq!(report_1, report_again);
}

#[test]
fn explore_random_verdict_is_identical_across_worker_counts() {
    // `explore_random` and a sharded `random_explore_system` read the
    // ambient LIP_JOBS count, so this test owns the env var; other tests
    // in this binary pin worker counts explicitly and never read it.
    let duts = [Dut::full_relay(), Dut::fifo_relay(2)];
    let ring = generate::ring(2, 1, RelayKind::Full).netlist;
    let hunt = RandomSearchOptions {
        cycles: 160,
        seed: 7,
        lanes: LANES,
        shards: 4,
    };

    std::env::set_var("LIP_JOBS", "1");
    let verdicts_1: Vec<_> = duts
        .iter()
        .map(|d| explore_random(d.clone(), 5, 7))
        .collect();
    let search_1 = random_explore_system(&ring, &hunt).unwrap();

    std::env::set_var("LIP_JOBS", "8");
    let verdicts_8: Vec<_> = duts
        .iter()
        .map(|d| explore_random(d.clone(), 5, 7))
        .collect();
    let search_8 = random_explore_system(&ring, &hunt).unwrap();
    std::env::remove_var("LIP_JOBS");

    assert_eq!(verdicts_1, verdicts_8, "explore_random verdict diverged");
    assert_eq!(search_1, search_8, "sharded system search diverged");
    assert!(verdicts_1.iter().all(|v| v.holds));
}

#[test]
fn par_map_preserves_input_order_regardless_of_workers() {
    let items: Vec<u64> = (0..97).collect();
    let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
    for workers in [1usize, 2, 8, 16] {
        let got = lip_par::par_map_jobs(workers, &items, |&x| x * x + 1);
        assert_eq!(got, expect, "{workers} workers reordered results");
    }
}
