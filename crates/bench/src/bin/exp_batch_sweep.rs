//! EXP-B1 — 64-lane bit-parallel batched skeleton sweep.
//!
//! The paper's cost argument ("the simulation cost is absolutely
//! negligible") invites sweeping *many* stall scenarios, not just one.
//! The batched engine packs 64 independent scenarios into the bits of a
//! `u64` lane word and settles all of them per pass with word-wide
//! boolean operations over the streaming op tape. This experiment runs
//! the throughput sweep against a scalar [`SkeletonSystem`] baseline,
//! verifies the sink counts are bit-identical lane for lane, and
//! persists the measured rates to `BENCH_skeleton.json` so the perf
//! trajectory is tracked across changes.
//!
//! Gate: the 64-lane engine must stay `>= 8x` scalar (the historical
//! floor) on every topology. Statistic: each timing round runs the
//! scalar leg and then the batch leg back to back, so a shift in host
//! speed lands on both sides of a speedup instead of on one; each leg
//! keeps its best (fastest) of the `REPS` rounds, a topology's speedup
//! is the ratio of those two bests, and the gate reads the worst
//! topology's speedup (`min_speedup`).

use std::sync::Arc;
use std::time::Instant;

use lip_bench::{banner, emit_report, mark, report_dir, table, write_bench, Json, Report};
use lip_core::Pattern;
use lip_graph::{generate, Netlist, NodeId};
use lip_obs::{ProgressSink, ProgressSnapshot, PromFileProgress};
use lip_sim::{measure_batch, LanePatterns, SettleProgram, SkeletonSystem, LANES};

const CYCLES: u64 = 4096;
const REPS: usize = 3;
/// The historical 64-lane floor over the scalar engine.
const CLAIMED_SPEEDUP: f64 = 8.0;

/// Duty-ramp stall pattern for lane `lane`: a period-64 cyclic word
/// asserting stop on exactly `lane` of every 64 cycles, spread evenly
/// (Bresenham), so the sweep spans free-running to almost-starved
/// back-pressure. Periodic with lcm 64 across all lanes, so the
/// engine's compiled pattern tables stay in play.
fn duty_pattern(lane: usize) -> Pattern {
    let bits: Vec<bool> = (0..64)
        .map(|c| (c + 1) * lane / 64 > c * lane / 64)
        .collect();
    Pattern::Cyclic(bits)
}

/// The per-lane stall ramp: lane `l` runs [`duty_pattern`]`(l)`.
fn sweep_patterns(prog: &SettleProgram) -> LanePatterns {
    let mut pats = LanePatterns::broadcast(prog);
    for lane in 0..LANES {
        for j in 0..prog.sink_count() {
            pats.set_sink(j, lane, duty_pattern(lane));
        }
    }
    pats
}

/// fig1 plus the first few valid random-family netlists.
fn corpus() -> Vec<(String, Netlist)> {
    let mut tops = vec![
        ("fig1".to_string(), generate::fig1().netlist),
        (
            "ring4x4_full".to_string(),
            generate::ring(4, 4, lip_core::RelayKind::Full).netlist,
        ),
    ];
    let mut seed = 0u64;
    while tops.len() < 5 {
        let (family, netlist) = generate::random_family(seed);
        // At least two shells, so settle work (the bit-parallel part)
        // dominates per-lane environment-pattern evaluation.
        if netlist.validate().is_ok() && netlist.shells().len() >= 2 {
            tops.push((format!("rand{seed}_{family:?}"), netlist));
        }
        seed += 1;
    }
    tops
}

/// The scalar baseline: one [`SkeletonSystem`] per lane, each over
/// the netlist rebuilt with that lane's environment patterns.
fn scalar_sweep(
    netlist: &Netlist,
    pats: &LanePatterns,
    sources: &[NodeId],
    sinks: &[NodeId],
) -> Vec<Vec<(u64, u64)>> {
    let mut counts = vec![vec![(0u64, 0u64); LANES]; sinks.len()];
    // `lane` indexes the *inner* axis of `counts[j][lane]`, which
    // needless_range_loop misreads as iterable.
    #[allow(clippy::needless_range_loop)]
    for lane in 0..LANES {
        let mut reference = netlist.clone();
        for (i, &s) in sources.iter().enumerate() {
            assert!(reference.set_source_pattern(s, pats.source_pattern(i, lane).clone()));
        }
        for (j, &s) in sinks.iter().enumerate() {
            assert!(reference.set_sink_pattern(s, pats.sink_pattern(j, lane).clone()));
        }
        let mut sys = SkeletonSystem::new(&reference).expect("elaborates");
        sys.run(CYCLES);
        for (j, &s) in sinks.iter().enumerate() {
            counts[j][lane] = sys.sink_counts(s).expect("sink counts");
        }
    }
    counts
}

/// Seconds one call of `f` takes.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

struct Row {
    name: String,
    shells: usize,
    scalar_rate: f64,
    batch_rate: f64,
    speedup: f64,
    /// The batch counts equal the scalar runs', lane for lane.
    identical: bool,
}

fn main() {
    banner(
        "EXP-B1",
        "64-lane bit-parallel batched skeleton sweep",
        "64-lane batch >= 8x scalar on every topology; counts bit-identical lane for lane",
    );

    // Live telemetry: one snapshot per completed topology, published to
    // the Prometheus exposition the `lip_top` bin renders.
    let mut progress = PromFileProgress::new(report_dir().join("progress.prom"));
    let sweep_started = Instant::now();
    let lane_cycles = (LANES as u64 * CYCLES) as f64;
    let mut rows = Vec::new();
    for (name, netlist) in corpus() {
        let prog = Arc::new(SettleProgram::compile(&netlist).expect("compiles"));
        let sources = netlist.sources();
        let sinks = netlist.sinks();
        let pats = sweep_patterns(&prog);

        // Bit-identity first: the speedup is worthless if lanes drift.
        let scalar = scalar_sweep(&netlist, &pats, &sources, &sinks);
        let batch = || measure_batch(&netlist, &pats, CYCLES).expect("batch sweep");
        let m = batch();
        let identical = m.lanes == LANES && m.counts == scalar;
        if !identical {
            eprintln!("{name}: batch sink counts diverge from the scalar runs");
        }

        // Timing rounds: the scalar leg, then the batch leg, interleaved;
        // construction included on both sides since a sweep pays it
        // either way.
        let (mut t_scalar, mut t_batch) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..REPS {
            let (_, t) = timed(|| scalar_sweep(&netlist, &pats, &sources, &sinks));
            t_scalar = t_scalar.min(t);
            t_batch = t_batch.min(timed(batch).1);
        }
        let (scalar_rate, batch_rate) = (lane_cycles / t_scalar, lane_cycles / t_batch);
        progress.publish(&ProgressSnapshot {
            experiment: "exp_batch_sweep".to_string(),
            topology: name.clone(),
            lanes: LANES as u64,
            lanes_converged: LANES as u64,
            cycles_executed: CYCLES,
            cycles_per_sec: batch_rate,
            cache_hits: 0,
            cache_misses: 0,
            elapsed_ns: u64::try_from(sweep_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
        rows.push(Row {
            name,
            shells: netlist.shells().len(),
            scalar_rate,
            batch_rate,
            speedup: batch_rate / scalar_rate,
            identical,
        });
    }
    if let Some(e) = progress.take_error() {
        eprintln!("warning: progress exposition stopped updating: {e}");
    }

    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.shells.to_string(),
                format!("{:.3e}", r.scalar_rate),
                format!("{:.3e}", r.batch_rate),
                format!("{:.1}x", r.speedup),
                mark(r.speedup >= CLAIMED_SPEEDUP).into(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "topology",
                "shells",
                "scalar lane-cyc/s",
                "batch lane-cyc/s",
                "speedup",
                ">=8x",
            ],
            &printable
        )
    );
    let identical = rows.iter().all(|r| r.identical);
    println!(
        "counts bit-identical lane-for-lane on every topology: {}",
        mark(identical)
    );
    let min_speedup = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    // How the gate reads the timings (see the module docs).
    let statistic = format!("best of {REPS} interleaved rounds per leg, worst topology");
    println!("gate statistic: {statistic}; min speedup {min_speedup:.1}x");

    let topologies = rows.iter().map(|r| {
        Json::obj([
            ("name", r.name.as_str().into()),
            ("shells", r.shells.into()),
            ("scalar_lane_cycles_per_sec", Json::fixed(r.scalar_rate, 1)),
            ("batch_lane_cycles_per_sec", Json::fixed(r.batch_rate, 1)),
            ("speedup", Json::fixed(r.speedup, 2)),
        ])
    });
    let doc = Json::obj([
        ("schema_version", lip_obs::SCHEMA_VERSION.into()),
        ("experiment", "exp_batch_sweep".into()),
        ("lanes", LANES.into()),
        ("cycles", CYCLES.into()),
        ("claimed_speedup", CLAIMED_SPEEDUP.into()),
        ("gate_statistic", statistic.as_str().into()),
        ("min_speedup", Json::fixed(min_speedup, 2)),
        ("topologies", topologies.collect()),
    ]);
    write_bench("BENCH_skeleton.json", &doc);

    if min_speedup < CLAIMED_SPEEDUP {
        eprintln!("64-lane speedup below {CLAIMED_SPEEDUP}x: {min_speedup:.1}x");
    }
    if rows.is_empty() {
        eprintln!("no topology measured");
    }
    // `ok`: a non-empty corpus, bit-identical counts, and the worst
    // topology's best-of-REPS speedup at or above the floor.
    let ok = !rows.is_empty() && identical && min_speedup >= CLAIMED_SPEEDUP;
    let mut report = Report::new("exp_batch_sweep");
    report
        .push_int("lanes", LANES as u64)
        .push_int("cycles", CYCLES)
        .push_f64("claimed_speedup", CLAIMED_SPEEDUP)
        .push_f64("min_speedup", min_speedup)
        .push_int("topologies", rows.len() as u64)
        .push_bool("bit_identical", identical)
        .push_bool("ok", ok);
    emit_report(&report);
}
