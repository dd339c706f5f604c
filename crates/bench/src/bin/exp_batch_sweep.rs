//! EXP-B1 — many-lane bit-parallel batched skeleton sweep.
//!
//! The paper's cost argument ("the simulation cost is absolutely
//! negligible") invites sweeping *many* stall scenarios, not just one.
//! The batched engine packs independent scenarios into the bits of a
//! lane word — `u64` up to `[u64; 16]` (64 to 1024 lanes) — and settles
//! all of them per pass with word-wide boolean operations over the
//! streaming op tape. This experiment runs the throughput sweep at
//! every supported width against a scalar [`SkeletonSystem`] baseline,
//! verifies the sink counts are bit-identical lane for lane across all
//! widths, and persists the measured per-width rates to
//! `BENCH_skeleton.json` so the perf trajectory is tracked across PRs.
//!
//! Gates: the classic 64-lane engine must stay `>= 8x` scalar (the
//! historical floor), and the widest word must reach `>= 100x`. Each
//! timing round runs the scalar leg and then every width back to back,
//! and each leg keeps its best round, so a shift in host speed lands on
//! both sides of a speedup instead of on one.

use std::sync::Arc;
use std::time::Instant;

use lip_bench::{banner, emit_report, mark, report_dir, table, write_bench, Json, Report};
use lip_core::Pattern;
use lip_graph::{generate, Netlist, NodeId};
use lip_obs::{ProgressSink, ProgressSnapshot, PromFileProgress};
use lip_sim::{
    dispatch_lane_width, measure_batch_wide, BatchMeasurement, LanePatterns, LaneWidthVisitor,
    LaneWord, SettleProgram, SkeletonSystem, LANES, LANE_WIDTHS,
};

const CYCLES: u64 = 4096;
const REPS: usize = 3;
/// W = 1 floor: the historical 64-lane gate.
const CLAIMED_SPEEDUP: f64 = 8.0;
/// Widest-word gate: 1024 lanes must beat scalar by two orders.
const WIDE_SPEEDUP: f64 = 100.0;
/// The widest lane word the sweep must reach.
const WIDEST_LANES: usize = 1024;

/// Duty-ramp stall pattern for base lane `b`: a period-64 cyclic word
/// asserting stop on exactly `b` of every 64 cycles, spread evenly
/// (Bresenham), so the sweep spans free-running to almost-starved
/// back-pressure. Periodic with lcm 64 across all lanes, so the
/// engine's compiled pattern tables stay in play at every width.
fn duty_pattern(base: usize) -> Pattern {
    let bits: Vec<bool> = (0..64)
        .map(|c| (c + 1) * base / 64 > c * base / 64)
        .collect();
    Pattern::Cyclic(bits)
}

/// Per-lane stall ramp at `lanes` lanes: lane `l` replicates base lane
/// `l % 64`, so every width runs *exact copies* of the 64 base
/// scenarios and cross-width equivalence is `counts[l] ==
/// counts64[l % 64]`, bit for bit.
fn sweep_patterns(prog: &SettleProgram, lanes: usize) -> LanePatterns {
    let mut pats = LanePatterns::broadcast_wide(prog, lanes);
    for lane in 0..lanes {
        for j in 0..prog.sink_count() {
            pats.set_sink(j, lane, duty_pattern(lane % LANES));
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

/// The scalar baseline: one [`SkeletonSystem`] per base lane, each over
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

/// Run the batch sweep once at word shape `W`, timed: construction
/// included on both sides since a sweep pays it either way.
struct WidthRun<'a> {
    netlist: &'a Netlist,
    pats: &'a LanePatterns,
}

impl LaneWidthVisitor for WidthRun<'_> {
    type Out = (BatchMeasurement, f64);

    fn visit<W: LaneWord>(&mut self) -> Self::Out {
        timed(|| measure_batch_wide::<W>(self.netlist, self.pats, CYCLES).expect("batch sweep"))
    }
}

struct WidthRow {
    lanes: usize,
    rate: f64,
    speedup: f64,
}

struct Row {
    name: String,
    shells: usize,
    scalar_rate: f64,
    widths: Vec<WidthRow>,
    /// Every width's counts equal the scalar runs', lane for lane.
    identical: bool,
}

impl Row {
    /// Speedup of the width carrying `lanes` lanes.
    fn speedup_at(&self, lanes: usize) -> f64 {
        self.widths
            .iter()
            .find(|w| w.lanes == lanes)
            .expect("width measured")
            .speedup
    }
}

fn main() {
    banner(
        "EXP-B1",
        "many-lane bit-parallel batched skeleton sweep",
        "64-lane batch >= 8x scalar; 1024-lane batch >= 100x; all widths bit-identical",
    );

    let widest = *LANE_WIDTHS.last().expect("widths non-empty");
    // Live telemetry: one snapshot per completed (topology, width) unit,
    // published to the Prometheus exposition the `lip_top` bin renders.
    let mut progress = PromFileProgress::new(report_dir().join("progress.prom"));
    let sweep_started = Instant::now();
    let mut rows = Vec::new();
    for (name, netlist) in corpus() {
        let prog = Arc::new(SettleProgram::compile(&netlist).expect("compiles"));
        let sources = netlist.sources();
        let sinks = netlist.sinks();
        let base_pats = sweep_patterns(&prog, LANES);

        // Bit-identity first: the speedup is worthless if lanes drift.
        // The 64-lane engine is checked against 64 scalar runs, then
        // every wider word is checked lane-for-lane against the 64-lane
        // counts (lane `l` replicates base scenario `l % 64`).
        let scalar = scalar_sweep(&netlist, &base_pats, &sources, &sinks);
        let width_pats: Vec<LanePatterns> = LANE_WIDTHS
            .iter()
            .map(|&lanes| sweep_patterns(&prog, lanes))
            .collect();
        let run_width = |k: usize| {
            let mut run = WidthRun {
                netlist: &netlist,
                pats: &width_pats[k],
            };
            dispatch_lane_width(LANE_WIDTHS[k], &mut run)
        };

        // Timing rounds: the scalar leg, then every width, interleaved.
        let mut t_scalar = f64::INFINITY;
        let mut t_width = vec![f64::INFINITY; LANE_WIDTHS.len()];
        for _ in 0..REPS {
            let (_, t) = timed(|| scalar_sweep(&netlist, &base_pats, &sources, &sinks));
            t_scalar = t_scalar.min(t);
            for (k, best) in t_width.iter_mut().enumerate() {
                *best = best.min(run_width(k).1);
            }
        }
        let scalar_rate = (LANES as u64 * CYCLES) as f64 / t_scalar;

        let mut widths = Vec::new();
        let mut identical = true;
        for (k, lanes) in LANE_WIDTHS.into_iter().enumerate() {
            let (m, _) = run_width(k);
            let t = t_width[k];
            // Lane `l` of every width replicates base scenario `l % 64`,
            // whose counts the scalar runs give.
            let width_identical = m.lanes == lanes
                && m.counts.len() == scalar.len()
                && m.counts.iter().zip(&scalar).all(|(per_lane, base)| {
                    per_lane.len() == lanes
                        && per_lane
                            .iter()
                            .enumerate()
                            .all(|(l, &c)| c == base[l % LANES])
                });
            if !width_identical {
                eprintln!("{name}: width {lanes} sink counts diverge from the scalar runs");
            }
            identical &= width_identical;
            let rate = (lanes as u64 * CYCLES) as f64 / t;
            progress.publish(&ProgressSnapshot {
                experiment: "exp_batch_sweep".to_string(),
                topology: format!("{name}@{lanes}L"),
                lanes: lanes as u64,
                lanes_converged: lanes as u64,
                cycles_executed: CYCLES,
                cycles_per_sec: rate,
                cache_hits: 0,
                cache_misses: 0,
                elapsed_ns: u64::try_from(sweep_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            });
            widths.push(WidthRow {
                lanes,
                rate,
                speedup: rate / scalar_rate,
            });
        }
        rows.push(Row {
            name,
            shells: netlist.shells().len(),
            scalar_rate,
            widths,
            identical,
        });
    }
    if let Some(e) = progress.take_error() {
        eprintln!("warning: progress exposition stopped updating: {e}");
    }

    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![
                r.name.clone(),
                r.shells.to_string(),
                format!("{:.3e}", r.scalar_rate),
            ];
            for w in &r.widths {
                row.push(format!("{:.1}x", w.speedup));
            }
            row.push(mark(r.speedup_at(LANES) >= CLAIMED_SPEEDUP).into());
            row.push(mark(r.speedup_at(widest) >= WIDE_SPEEDUP).into());
            row
        })
        .collect();
    let headers: Vec<String> = ["topology", "shells", "scalar lane-cyc/s"]
        .iter()
        .map(|s| (*s).to_string())
        .chain(LANE_WIDTHS.iter().map(|l| format!("{l}L")))
        .chain([">=8x @64".to_string(), ">=100x @widest".to_string()])
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("{}", table(&header_refs, &printable));
    let identical = rows.iter().all(|r| r.identical);
    println!(
        "counts bit-identical lane-for-lane across all widths on every topology: {}",
        mark(identical)
    );

    let min_at = |lanes: usize| {
        rows.iter()
            .map(|r| r.speedup_at(lanes))
            .fold(f64::INFINITY, f64::min)
    };

    let lane_widths = LANE_WIDTHS.iter().map(|&lanes| {
        let claimed = if lanes == LANES {
            CLAIMED_SPEEDUP
        } else if lanes == widest {
            WIDE_SPEEDUP
        } else {
            0.0
        };
        Json::obj([
            ("lanes", lanes.into()),
            ("words", (lanes / 64).into()),
            ("min_speedup", Json::fixed(min_at(lanes), 2)),
            ("claimed_speedup", claimed.into()),
            ("ok", (min_at(lanes) >= claimed).into()),
        ])
    });
    let rate = |w: &WidthRow| Json::fixed(w.rate, 1);
    let speedup = |w: &WidthRow| Json::fixed(w.speedup, 2);
    let topologies = rows.iter().map(|r| {
        let widths = r.widths.iter().map(|w| {
            Json::obj([
                ("lanes", w.lanes.into()),
                ("batch_lane_cycles_per_sec", rate(w)),
                ("speedup", speedup(w)),
            ])
        });
        Json::obj([
            ("name", r.name.as_str().into()),
            ("shells", r.shells.into()),
            ("scalar_lane_cycles_per_sec", Json::fixed(r.scalar_rate, 1)),
            ("batch_lane_cycles_per_sec", rate(&r.widths[0])),
            ("speedup", speedup(&r.widths[0])),
            ("widths", widths.collect()),
        ])
    });
    let doc = Json::obj([
        ("schema_version", lip_obs::SCHEMA_VERSION.into()),
        ("experiment", "exp_batch_sweep".into()),
        ("lanes", LANES.into()),
        ("cycles", CYCLES.into()),
        ("claimed_speedup", CLAIMED_SPEEDUP.into()),
        ("wide_speedup", WIDE_SPEEDUP.into()),
        ("lane_widths", lane_widths.collect()),
        ("topologies", topologies.collect()),
    ]);
    write_bench("BENCH_skeleton.json", &doc);

    if min_at(LANES) < CLAIMED_SPEEDUP {
        eprintln!(
            "64-lane speedup below {CLAIMED_SPEEDUP}x: {:.1}x",
            min_at(LANES)
        );
    }
    if min_at(widest) < WIDE_SPEEDUP {
        eprintln!(
            "{widest}-lane speedup below {WIDE_SPEEDUP}x: {:.1}x",
            min_at(widest)
        );
    }
    if widest != WIDEST_LANES || rows.is_empty() {
        eprintln!(
            "widest width is {widest} lanes (gate {WIDEST_LANES}) over {} topologies",
            rows.len()
        );
    }
    let ok = widest == WIDEST_LANES
        && !rows.is_empty()
        && identical
        && min_at(LANES) >= CLAIMED_SPEEDUP
        && min_at(widest) >= WIDE_SPEEDUP;
    let mut report = Report::new("exp_batch_sweep");
    report
        .push_int("lanes", LANES as u64)
        .push_int("widest_lanes", widest as u64)
        .push_int("cycles", CYCLES)
        .push_f64("claimed_speedup", CLAIMED_SPEEDUP)
        .push_f64("wide_speedup", WIDE_SPEEDUP)
        .push_f64("min_speedup", min_at(LANES))
        .push_f64("widest_min_speedup", min_at(widest))
        .push_int("topologies", rows.len() as u64)
        .push_bool("bit_identical", identical)
        .push_bool("ok", ok);
    emit_report(&report);
}
