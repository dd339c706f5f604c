//! The determinism contract of the parallel executor, end to end: a
//! sharded probed sweep must produce *byte-identical* results no matter
//! how many workers ran it — including the merged [`MetricsRegistry`]
//! counters and the serialised [`Report`] JSON that experiments persist
//! to disk.

use std::sync::Arc;

use lip_graph::{generate, Netlist};
use lip_obs::{MetricsRegistry, Report};
use lip_sim::{BatchSkeleton, SettleProgram, LANES};

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
