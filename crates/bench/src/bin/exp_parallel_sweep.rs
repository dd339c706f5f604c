//! EXP-P1 — parallel sweep executor + batched periodicity early-exit.
//!
//! Two independent throughput multipliers on top of the batched engine:
//!
//! 1. **Fan-out**: a corpus of independent measurements spread across
//!    threads by the deterministic work-stealing executor in `lip-par`.
//!    The sweep's *results* are byte-identical for every worker count
//!    (that is `par_map`'s contract, asserted here); only the wall
//!    clock changes. On a ≥ 4-core host the multi-thread sweep must be
//!    ≥ 3× faster than the same sweep pinned to one worker.
//!
//! 2. **Early exit**: [`measure_batch_periodic`] retires each of the 64
//!    lanes the moment its control state recurs, and stops the whole
//!    batch once every lane has an exact periodic reading. On the
//!    Fig. 1 / tree / feedback-ring corpus the detector must cut
//!    ≥ 40 % of the budgeted cycles while reporting the *same exact
//!    rational throughputs* as the scalar path (Fig. 1 stays exactly
//!    4/5).
//!
//! Results land in `BENCH_parallel.json` (threads, wall times, speedup,
//! cycles saved) so the perf trajectory is tracked across PRs.

use std::time::Instant;

use lip_bench::{banner, emit_report, mark, report_dir, table, write_bench, Json, Report};
use lip_core::RelayKind;
use lip_graph::{generate, Netlist};
use lip_obs::{ProgressSink, ProgressSnapshot, PromFileProgress};
use lip_sim::{measure, measure_batch_periodic, LanePatterns, Ratio, SettleProgram, LANES};

const REPS: usize = 3;
const CLAIMED_SPEEDUP: f64 = 3.0;
const MIN_CORES_FOR_SPEEDUP_GATE: usize = 4;
const EARLY_EXIT_BUDGET: u64 = 4096;
const CLAIMED_SAVED_FRACTION: f64 = 0.40;

/// The measurement corpus: every item is one independent scalar
/// steady-state measurement, the unit of work the executor spreads
/// across threads.
fn corpus() -> Vec<(String, Netlist)> {
    let mut tops = vec![
        ("fig1".to_string(), generate::fig1().netlist),
        ("tree2x2".to_string(), generate::tree(2, 2, 1).netlist),
        ("tree3x2".to_string(), generate::tree(3, 2, 2).netlist),
    ];
    for (s, r) in [(1usize, 1usize), (2, 1), (2, 2), (3, 1), (3, 2), (1, 3)] {
        tops.push((
            format!("ring{s}x{r}"),
            generate::ring(s, r, RelayKind::Full).netlist,
        ));
    }
    let mut seed = 0u64;
    let mut found = 0;
    while found < 8 {
        let (family, netlist) = generate::random_family(seed);
        if netlist.validate().is_ok() && !netlist.shells().is_empty() {
            tops.push((format!("rand{seed}_{family:?}"), netlist));
            found += 1;
        }
        seed += 1;
    }
    tops
}

/// One worker's unit of work: measure to steady state and serialise the
/// outcome, so whole-sweep results compare byte-for-byte.
fn measure_item(name: &str, netlist: &Netlist) -> String {
    let m = measure(netlist).expect("corpus netlists elaborate");
    let t = m.system_throughput().expect("corpus netlists have sinks");
    match m.periodicity {
        Some(p) => format!(
            "{name}: T={t} transient={} period={}",
            p.transient, p.period
        ),
        None => format!("{name}: T={t} aperiodic"),
    }
}

fn sweep(workers: usize, items: &[(String, Netlist)]) -> Vec<String> {
    lip_par::par_map_jobs(workers, items, |(name, netlist)| {
        measure_item(name, netlist)
    })
}

fn main() {
    banner(
        "EXP-P1",
        "parallel sweep executor + batched periodicity early-exit",
        "threads multiply sweep rate without changing results; lane retirement cuts >=40% of cycles",
    );

    // ------------------------------------------------------------------
    // Part 1: deterministic fan-out.
    // ------------------------------------------------------------------
    let items = corpus();
    let threads = lip_par::jobs();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let serial_results = sweep(1, &items);
    let parallel_results = sweep(threads, &items);
    assert_eq!(
        serial_results, parallel_results,
        "parallel sweep results diverge from serial — determinism contract broken"
    );

    let mut t_serial = f64::INFINITY;
    let mut t_parallel = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        std::hint::black_box(sweep(1, &items));
        t_serial = t_serial.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        std::hint::black_box(sweep(threads, &items));
        t_parallel = t_parallel.min(t0.elapsed().as_secs_f64());
    }
    let speedup = t_serial / t_parallel;
    let speedup_gated =
        threads >= MIN_CORES_FOR_SPEEDUP_GATE && cores >= MIN_CORES_FOR_SPEEDUP_GATE;
    // An un-gated run is recorded explicitly, never passed silently: the
    // JSON carries the machine-readable reason so log replay (and
    // `run_experiments.sh`) can surface which gate was skipped and why.
    let gate_skipped: Option<&str> = if speedup_gated {
        None
    } else if cores < MIN_CORES_FOR_SPEEDUP_GATE {
        Some("insufficient_cores")
    } else {
        Some("insufficient_workers")
    };
    println!(
        "corpus sweep: {} measurements, {} thread(s) on {} core(s): \
         {:.1} ms serial vs {:.1} ms parallel ({:.2}x), results byte-identical",
        items.len(),
        threads,
        cores,
        t_serial * 1e3,
        t_parallel * 1e3,
        speedup,
    );
    if let Some(reason) = gate_skipped {
        println!(
            "({CLAIMED_SPEEDUP}x gate SKIPPED [{reason}]: needs >= \
             {MIN_CORES_FOR_SPEEDUP_GATE} cores and LIP_JOBS >= \
             {MIN_CORES_FOR_SPEEDUP_GATE}; determinism still asserted)"
        );
    }
    println!();

    // ------------------------------------------------------------------
    // Part 2: periodicity early-exit at exact throughputs.
    // ------------------------------------------------------------------
    struct EarlyExitRow {
        name: String,
        throughput: Ratio,
        executed: u64,
        saved: u64,
        exact: bool,
    }
    let early_corpus = vec![
        ("fig1".to_string(), generate::fig1().netlist),
        ("tree2x2".to_string(), generate::tree(2, 2, 1).netlist),
        (
            "ring2x1".to_string(),
            generate::ring(2, 1, RelayKind::Full).netlist,
        ),
        (
            "ring3x2".to_string(),
            generate::ring(3, 2, RelayKind::Full).netlist,
        ),
    ];
    // Live telemetry: one snapshot per completed early-exit unit,
    // published to the Prometheus exposition the `lip_top` bin renders.
    let mut progress = PromFileProgress::new(report_dir().join("progress.prom"));
    let part2_started = Instant::now();
    let mut rows: Vec<EarlyExitRow> = Vec::new();
    for (name, netlist) in &early_corpus {
        let prog = SettleProgram::compile(netlist).expect("compiles");
        let pats = LanePatterns::broadcast(&prog);
        let t0 = Instant::now();
        let batch =
            measure_batch_periodic(netlist, &pats, EARLY_EXIT_BUDGET).expect("batch measures");
        #[allow(clippy::cast_precision_loss)]
        let rate = (batch.cycles * LANES as u64) as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        let converged = batch.periodicity.iter().filter(|p| p.is_some()).count() as u64;
        progress.publish(&ProgressSnapshot {
            experiment: "exp_parallel_sweep".to_string(),
            topology: name.clone(),
            lanes: LANES as u64,
            lanes_converged: converged,
            cycles_executed: batch.cycles,
            cycles_per_sec: rate,
            cache_hits: 0,
            cache_misses: 0,
            elapsed_ns: u64::try_from(part2_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
        assert!(
            batch.all_converged(),
            "{name}: periodic corpus must converge within {EARLY_EXIT_BUDGET} cycles"
        );
        let scalar_t = measure(netlist)
            .expect("measures")
            .system_throughput()
            .expect("one sink");
        let batch_t = batch.system_throughput(0).expect("one sink");
        let exact = (0..LANES).all(|l| batch.system_throughput(l) == Some(scalar_t));
        rows.push(EarlyExitRow {
            name: name.clone(),
            throughput: batch_t,
            executed: batch.cycles,
            saved: batch.cycles_saved(),
            exact,
        });
    }
    if let Some(e) = progress.take_error() {
        eprintln!("warning: progress exposition stopped updating: {e}");
    }
    let fig1_exact = rows[0].throughput == Ratio::new(4, 5);
    let total_budget = EARLY_EXIT_BUDGET * early_corpus.len() as u64;
    let total_saved: u64 = rows.iter().map(|r| r.saved).sum();
    #[allow(clippy::cast_precision_loss)]
    let saved_fraction = total_saved as f64 / total_budget as f64;
    let all_exact = rows.iter().all(|r| r.exact);

    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.throughput.to_string(),
                r.executed.to_string(),
                r.saved.to_string(),
                mark(r.exact).into(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "topology",
                "T (exact)",
                "cycles executed",
                "cycles saved",
                "matches scalar"
            ],
            &printable,
        )
    );
    println!(
        "early exit saved {total_saved} of {total_budget} budgeted cycles \
         ({:.1}% — gate {:.0}%), throughputs exact on all {LANES} lanes",
        saved_fraction * 100.0,
        CLAIMED_SAVED_FRACTION * 100.0,
    );

    // ------------------------------------------------------------------
    // Persist + gate.
    // ------------------------------------------------------------------
    let topologies = rows.iter().map(|r| {
        Json::obj([
            ("name", r.name.as_str().into()),
            ("throughput", r.throughput.to_string().into()),
            ("cycles_executed", r.executed.into()),
            ("cycles_saved", r.saved.into()),
            ("exact", r.exact.into()),
        ])
    });
    let doc = Json::obj([
        ("schema_version", lip_obs::SCHEMA_VERSION.into()),
        ("experiment", "exp_parallel_sweep".into()),
        ("threads", threads.into()),
        ("cores", cores.into()),
        ("corpus_size", items.len().into()),
        ("wall_time_serial_sec", Json::fixed(t_serial, 6)),
        ("wall_time_parallel_sec", Json::fixed(t_parallel, 6)),
        ("speedup", Json::fixed(speedup, 3)),
        ("speedup_gated", speedup_gated.into()),
        ("gate_skipped", gate_skipped.into()),
        ("early_exit_budget", total_budget.into()),
        ("cycles_saved", total_saved.into()),
        ("saved_fraction", Json::fixed(saved_fraction, 4)),
        ("topologies", topologies.collect()),
    ]);
    write_bench("BENCH_parallel.json", &doc);

    let ok = all_exact
        && fig1_exact
        && saved_fraction >= CLAIMED_SAVED_FRACTION
        && (!speedup_gated || speedup >= CLAIMED_SPEEDUP);
    let mut report = Report::new("exp_parallel_sweep");
    report
        .push_int("threads", threads as u64)
        .push_int("cores", cores as u64)
        .push_int("corpus_size", items.len() as u64)
        .push_f64("wall_time_serial_sec", t_serial)
        .push_f64("wall_time_parallel_sec", t_parallel)
        .push_f64("speedup", speedup)
        .push_bool("speedup_gated", speedup_gated)
        .push_str("gate_skipped", gate_skipped.unwrap_or("none"))
        .push_int("early_exit_budget", total_budget)
        .push_int("cycles_saved", total_saved)
        .push_f64("saved_fraction", saved_fraction)
        .push_bool("fig1_exact_four_fifths", fig1_exact)
        .push_bool("ok", ok);
    emit_report(&report);

    assert!(fig1_exact, "fig1 must stay exactly 4/5");
    assert!(all_exact, "batch throughputs must match the scalar path");
    assert!(
        saved_fraction >= CLAIMED_SAVED_FRACTION,
        "early exit saved only {:.1}% (< {:.0}%)",
        saved_fraction * 100.0,
        CLAIMED_SAVED_FRACTION * 100.0,
    );
    if speedup_gated && speedup < CLAIMED_SPEEDUP {
        eprintln!("parallel speedup below {CLAIMED_SPEEDUP}x: {speedup:.2}x");
        std::process::exit(1);
    }
}
