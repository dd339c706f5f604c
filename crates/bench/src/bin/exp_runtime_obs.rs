//! EXP-O3 — engine flight recorder: self-profiling overhead, kernel
//! execution counters, and live sweep telemetry.
//!
//! Observability is only trustworthy when it is *accounted for*: this
//! experiment measures the measurement. Three legs over one corpus:
//!
//! 1. **Baseline** (`NullRecorder` / `NullProgress`): the generic
//!    measurement loop with every hook compiled away — what every other
//!    experiment pays.
//! 2. **Disabled recorder** ([`FlightRecorder::disabled`]): the hooks
//!    are compiled in but gated off at runtime. The wall-clock delta
//!    against leg 1 is the price of *shipping* the instrumentation, and
//!    it is gated `< 3%`.
//! 3. **Enabled recorder**: first the same corpus again, recorder on,
//!    min-of-N like the other legs — the apples-to-apples *enabled*
//!    overhead, gated `< 15%` (occupancy popcounts are sampled every
//!    [`lip_sim::OCC_SAMPLE_EVERY`] settles; retirement counters stay
//!    exact). Then a full self-profiled run — ambient recorder
//!    installed, root `sweep` span over per-topology `measure` spans,
//!    counted kernel execution, a memoized capacity search (cache +
//!    analysis telemetry) and a `lip-par` fan-out (worker spans). The
//!    drained dump must explain `>= 95%` of the root span's wall time,
//!    and the per-opcode counters must reconcile *exactly*: ops retired
//!    equals op-tape length × settles, per topology and merged.
//!
//! Artefacts: `BENCH_runtime.json` (versioned [`RuntimeReport`]),
//! `TRACE_runtime.json` (Chrome trace of the enabled leg) and
//! `progress.prom` (Prometheus text exposition, the `lip-top` input) in
//! the report directory.
//!
//! `LIP_FLIGHT=0` runs only legs 1–2 (the overhead gate) — the mode CI
//! uses to check the disabled path in isolation without rewriting the
//! enabled-leg artefacts.

use std::time::Instant;

use lip_analysis::minimal_equalizing_capacity;
use lip_bench::{banner, emit_report, mark, report_dir, table, trace_phases, Report};
use lip_core::{Pattern, RelayKind};
use lip_graph::{generate, Netlist};
use lip_obs::{
    flight, runtime_chrome_trace, span_coverage, FlightRecorder, KernelCounters, NullProgress,
    PromFileProgress, RuntimeReport,
};
use lip_sim::{
    measure_batch_periodic, measure_batch_periodic_obs, LanePatterns, SettleProgram,
    ThroughputCache, LANES,
};

const BUDGET: u64 = 8192;
const REPS: usize = 25;
/// Corpus passes per timed leg: one pass takes well under a
/// millisecond, too short to hold a 3% gate against host noise.
const PASSES: usize = 8;
/// Gate: runtime-disabled instrumentation must cost `< 3%` wall clock.
const MAX_DISABLED_OVERHEAD_PCT: f64 = 3.0;
/// Gate: the fully-enabled recorder (spans + counted kernels with
/// sampled occupancy) over the same corpus, min-of-[`REPS`] like the
/// other legs. Exact retirement counters are cheap; the popcount
/// occupancy probe is the dominant cost and is sampled
/// (`lip_sim::OCC_SAMPLE_EVERY`) to keep this small.
const MAX_ENABLED_OVERHEAD_PCT: f64 = 15.0;
/// Gate: the span tree must explain `>= 95%` of the sweep's wall time.
const MIN_SPAN_COVERAGE: f64 = 0.95;

/// Period-64 duty stall pattern asserting stop on `base` of every 64
/// cycles (Bresenham-spread) — keeps lanes from converging instantly so
/// the timed legs do real settle work.
fn duty_pattern(base: usize) -> Pattern {
    let bits: Vec<bool> = (0..64)
        .map(|c| (c + 1) * base / 64 > c * base / 64)
        .collect();
    Pattern::Cyclic(bits)
}

fn stall_patterns(prog: &SettleProgram) -> LanePatterns {
    let mut pats = LanePatterns::broadcast(prog);
    for lane in 0..LANES {
        for j in 0..prog.sink_count() {
            pats.set_sink(j, lane, duty_pattern(lane));
        }
    }
    pats
}

fn corpus() -> Vec<(String, Netlist)> {
    vec![
        ("fig1".to_string(), generate::fig1().netlist),
        ("tree2x2".to_string(), generate::tree(2, 2, 1).netlist),
        (
            "ring3x2".to_string(),
            generate::ring(3, 2, RelayKind::Full).netlist,
        ),
    ]
}

/// One timed leg ([`PASSES`] passes over the corpus) with all hooks
/// compiled away.
fn leg_baseline(items: &[(String, Netlist, LanePatterns)]) {
    for (_, netlist, pats) in items.iter().cycle().take(PASSES * items.len()) {
        std::hint::black_box(
            measure_batch_periodic(netlist, pats, BUDGET).expect("corpus measures"),
        );
    }
}

/// One timed leg with the recorder present but runtime-disabled.
fn leg_disabled(items: &[(String, Netlist, LanePatterns)], rec: &FlightRecorder) {
    for (name, netlist, pats) in items.iter().cycle().take(PASSES * items.len()) {
        let (m, kc) = measure_batch_periodic_obs::<u64, _, _>(
            netlist,
            pats,
            BUDGET,
            name,
            rec,
            &mut NullProgress,
        )
        .expect("corpus measures");
        assert!(kc.is_none(), "disabled recorder must not count kernels");
        std::hint::black_box(m);
    }
}

/// One timed leg with the recorder fully enabled: spans recorded and
/// kernel executions counted — the apples-to-apples cost of *running*
/// the instrumentation over the exact work the other legs time.
fn leg_enabled(items: &[(String, Netlist, LanePatterns)], rec: &FlightRecorder) {
    for (name, netlist, pats) in items.iter().cycle().take(PASSES * items.len()) {
        let (m, kc) = measure_batch_periodic_obs::<u64, _, _>(
            netlist,
            pats,
            BUDGET,
            name,
            rec,
            &mut NullProgress,
        )
        .expect("corpus measures");
        assert!(kc.is_some(), "enabled recorder must count kernels");
        std::hint::black_box((m, kc));
    }
}

/// Best time of each leg over [`REPS`] rounds. Every round runs each
/// leg once, starting one leg later than the round before, so a shift
/// in host speed lands on every leg rather than on one.
fn interleaved_best(legs: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; legs.len()];
    for round in 0..REPS {
        for k in 0..legs.len() {
            let leg = (round + k) % legs.len();
            let t0 = Instant::now();
            legs[leg]();
            best[leg] = best[leg].min(t0.elapsed().as_secs_f64());
        }
    }
    best
}

struct TopoRow {
    name: String,
    cycles: u64,
    settles: u64,
    ops: u64,
    occupancy: f64,
    reconciled: bool,
}

fn main() {
    banner(
        "EXP-O3",
        "engine flight recorder: overhead, kernel counters, live telemetry",
        "disabled recorder < 3% overhead; span tree covers >= 95%; counters reconcile exactly",
    );

    let overhead_only = std::env::var("LIP_FLIGHT").is_ok_and(|v| v == "0");

    let items: Vec<(String, Netlist, LanePatterns)> = corpus()
        .into_iter()
        .map(|(name, netlist)| {
            let prog = SettleProgram::compile(&netlist).expect("corpus compiles");
            let pats = stall_patterns(&prog);
            (name, netlist, pats)
        })
        .collect();

    // ------------------------------------------------------------------
    // Legs 1 + 2: the overhead gate.
    // ------------------------------------------------------------------
    leg_baseline(&items); // warm-up: fault code + allocator before timing
    let off = FlightRecorder::disabled();
    // Leg 3a, timed in the same rounds: the *fair* enabled-overhead
    // measurement — identical corpus work, recorder on. (The
    // self-profiled sweep below does strictly more work — searches,
    // lint fixes, fan-out — so its wall time is not an overhead
    // number.)
    let on = FlightRecorder::new();
    let mut base = || leg_baseline(&items);
    let mut disabled = || leg_disabled(&items, &off);
    let mut enabled = || leg_enabled(&items, &on);
    let times = if overhead_only {
        interleaved_best(&mut [&mut base, &mut disabled])
    } else {
        interleaved_best(&mut [&mut base, &mut disabled, &mut enabled])
    };
    drop(on.drain());
    let (t_base, t_off) = (times[0], times[1]);
    let overhead_disabled_pct = ((t_off / t_base) - 1.0).max(0.0) * 100.0;
    println!(
        "overhead: baseline {:.2} ms, disabled recorder {:.2} ms -> {:.2}% (gate < {MAX_DISABLED_OVERHEAD_PCT}%) {}",
        t_base * 1e3,
        t_off * 1e3,
        overhead_disabled_pct,
        mark(overhead_disabled_pct < MAX_DISABLED_OVERHEAD_PCT),
    );
    println!();

    if overhead_only {
        println!("LIP_FLIGHT=0: overhead gate only, enabled-leg artefacts untouched");
        if overhead_disabled_pct >= MAX_DISABLED_OVERHEAD_PCT {
            eprintln!(
                "disabled recorder costs {overhead_disabled_pct:.2}% (gate {MAX_DISABLED_OVERHEAD_PCT}%)"
            );
        }
        let mut report = Report::new("exp_runtime_obs");
        report
            .push_str("mode", "disabled_only")
            .push_f64("wall_time_baseline_sec", t_base)
            .push_f64("wall_time_disabled_sec", t_off)
            .push_f64("overhead_pct", overhead_disabled_pct)
            .push_bool("ok", overhead_disabled_pct < MAX_DISABLED_OVERHEAD_PCT);
        emit_report(&report);
        return;
    }

    let t_on_corpus = times[2];
    let overhead_enabled_pct = ((t_on_corpus / t_base) - 1.0).max(0.0) * 100.0;
    println!(
        "overhead: enabled recorder {:.2} ms -> {:.2}% (gate < {MAX_ENABLED_OVERHEAD_PCT}%) {}",
        t_on_corpus * 1e3,
        overhead_enabled_pct,
        mark(overhead_enabled_pct < MAX_ENABLED_OVERHEAD_PCT),
    );
    println!();

    // ------------------------------------------------------------------
    // Leg 3: the self-profiled run.
    // ------------------------------------------------------------------
    let rec = FlightRecorder::new();
    flight::install(&rec);
    let mut progress = PromFileProgress::new(report_dir().join("progress.prom"));
    let mut rows: Vec<TopoRow> = Vec::new();
    let mut merged: Option<KernelCounters> = None;
    let t0 = Instant::now();
    {
        let _root = rec.span("sweep", "exp_runtime_obs");
        for (name, netlist, pats) in &items {
            let (m, kc) = measure_batch_periodic_obs::<u64, _, _>(
                netlist,
                pats,
                BUDGET,
                name,
                &rec,
                &mut progress,
            )
            .expect("corpus measures");
            let kc = kc.expect("enabled recorder must count kernels");
            // The exact accounting check: every tape op of every settle
            // counted once, and settles match the cycles executed.
            let tape_len = SettleProgram::compile(netlist)
                .expect("corpus compiles")
                .kernel_op_count() as u64;
            assert_eq!(kc.settles, m.cycles, "{name}: one counted settle per cycle");
            assert_eq!(
                kc.total_ops(),
                tape_len * kc.settles,
                "{name}: ops retired must equal tape length x settles"
            );
            assert!(kc.reconciles(), "{name}: kernel counters must reconcile");
            rows.push(TopoRow {
                name: name.clone(),
                cycles: m.cycles,
                settles: kc.settles,
                ops: kc.total_ops(),
                occupancy: kc.occupancy(),
                reconciled: kc.reconciles(),
            });
            match merged.as_mut() {
                Some(acc) => acc.merge(&kc),
                None => merged = Some(kc),
            }
        }

        // Cache + analysis telemetry: a memoized capacity search run
        // twice — the second run is pure cache hits.
        {
            let f = generate::fig1();
            let mut cache = ThroughputCache::new();
            let first = minimal_equalizing_capacity(&f.netlist, f.short_relays[0], 6, &mut cache)
                .expect("fig1 sizes");
            let second = minimal_equalizing_capacity(&f.netlist, f.short_relays[0], 6, &mut cache)
                .expect("fig1 sizes");
            assert_eq!(first, second);
            assert!(cache.hits() > 0 && cache.misses() > 0);
        }

        // Lint-fix telemetry: the `lip-lint --fix` flow — one compile
        // per file, then every insertion fix-it applied as an
        // incremental patch (`compile.patch`), never a per-fix
        // recompile.
        {
            let src = "source in\n\
                       shell a identity\n\
                       shell b identity\n\
                       sink out\n\
                       connect in:0 -> a:0\n\
                       connect a:0 -> b:0\n\
                       connect b:0 -> out:0\n";
            let parsed = lip_graph::parse_netlist_spanned(src).expect("lint corpus parses");
            let mut netlist = parsed.netlist;
            let diags = lip_lint::lint(&netlist, &parsed.source_map);
            let mut program = SettleProgram::compile(&netlist).expect("lint corpus compiles");
            let fix = lip_lint::apply_fixits_compiled(&mut netlist, &mut program, &diags)
                .expect("fixes apply");
            assert!(
                fix.total_inserted() > 0,
                "lint corpus must trigger insertion fix-its"
            );
            assert_eq!(
                program,
                SettleProgram::compile(&netlist).expect("fixed netlist compiles"),
                "patched program must equal a fresh compile of the fixed netlist"
            );
        }

        // Worker telemetry: a small fan-out so `par` spans land in the
        // dump (worker spans live on their own threads; the wrapper
        // span keeps the main thread's time accounted).
        {
            let _fanout = rec.span("par", "fanout");
            let names: Vec<String> = items.iter().map(|(n, _, _)| n.clone()).collect();
            let lens = lip_par::par_map_jobs(2, &names, String::len);
            assert_eq!(lens.len(), items.len());
        }
    }
    let t_on = t0.elapsed().as_secs_f64();
    flight::uninstall();
    let dump = rec.drain();
    if let Some(e) = progress.take_error() {
        eprintln!("error: progress exposition failed: {e}");
        std::process::exit(1);
    }

    let coverage = span_coverage(&dump, "sweep");
    let merged = merged.expect("corpus is non-empty");

    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.cycles.to_string(),
                r.settles.to_string(),
                r.ops.to_string(),
                format!("{:.1}%", r.occupancy * 100.0),
                mark(r.reconciled).into(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "topology",
                "cycles",
                "settles",
                "ops retired",
                "occupancy",
                "reconciled"
            ],
            &printable,
        )
    );
    println!(
        "merged: {} ops over {} settles at {} lanes, occupancy {:.1}%, reconciled: {}",
        merged.total_ops(),
        merged.settles,
        merged.lanes,
        merged.occupancy() * 100.0,
        mark(merged.reconciles()),
    );
    println!(
        "span tree: {} spans on {} thread(s), {} dropped; coverage {:.1}% (gate >= {:.0}%) {}",
        dump.spans.len(),
        dump.threads,
        dump.dropped,
        coverage * 100.0,
        MIN_SPAN_COVERAGE * 100.0,
        mark(coverage >= MIN_SPAN_COVERAGE),
    );
    let counter = |key: &str| dump.counters.get(key).copied();
    let surfaced = [
        "cache.hits",
        "cache.misses",
        "analysis.capacity_probes",
        "par.items",
        "compile.full",
        "compile.patch",
    ]
    .iter()
    .all(|key| counter(key).is_some());
    // The edit loops must run on the patch path: bisection probes and
    // lint fix-its are patches, so full compiles stay a small constant
    // (corpus setup + one per search/file) while patches track probes.
    let patched = counter("compile.patch") >= counter("analysis.capacity_probes");
    let shown = |key| counter(key).unwrap_or(0);
    println!(
        "counters: cache {}h/{}m, {} capacity probes, {} par items, compiles {} full / {} patched",
        shown("cache.hits"),
        shown("cache.misses"),
        shown("analysis.capacity_probes"),
        shown("par.items"),
        shown("compile.full"),
        shown("compile.patch"),
    );
    println!();

    // ------------------------------------------------------------------
    // Persist + gate.
    // ------------------------------------------------------------------
    let mut runtime = RuntimeReport::new("exp_runtime_obs", dump);
    runtime.set_kernel(merged.clone());
    runtime.set_overhead(overhead_disabled_pct, overhead_enabled_pct);
    runtime.set_span_coverage(coverage);
    std::fs::write("BENCH_runtime.json", runtime.to_json()).expect("write BENCH_runtime.json");
    println!("wrote BENCH_runtime.json");

    let trace_path = report_dir().join("TRACE_runtime.json");
    let trace = runtime_chrome_trace(runtime.dump());
    std::fs::create_dir_all(report_dir()).expect("create report dir");
    std::fs::write(&trace_path, &trace).expect("write TRACE_runtime.json");
    println!("wrote {} (chrome://tracing)", trace_path.display());
    let prom_path = report_dir().join("progress.prom");
    println!("wrote {} (lip-top input)", prom_path.display());

    let phases = trace_phases(&trace);
    let checks = [
        ("all six counters surfaced", surfaced),
        ("every capacity probe is a patch", patched),
        (
            "6 opcodes, 5 strata",
            merged.by_op.len() == 6 && merged.by_stratum.len() == 5,
        ),
        ("spans recorded", !runtime.dump().spans.is_empty()),
        (
            "trace has M and X events",
            phases.contains_key("M") && phases.contains_key("X"),
        ),
        (
            "progress.prom has lip_lanes",
            std::fs::read_to_string(&prom_path)
                .is_ok_and(|text| text.lines().any(|l| l.starts_with("lip_lanes{"))),
        ),
    ];
    for (what, held) in checks {
        if !held {
            eprintln!("artefact check failed: {what}");
        }
    }

    if overhead_disabled_pct >= MAX_DISABLED_OVERHEAD_PCT {
        eprintln!(
            "disabled recorder costs {overhead_disabled_pct:.2}% (gate {MAX_DISABLED_OVERHEAD_PCT}%)"
        );
    }
    if overhead_enabled_pct >= MAX_ENABLED_OVERHEAD_PCT {
        eprintln!(
            "enabled recorder costs {overhead_enabled_pct:.2}% (gate {MAX_ENABLED_OVERHEAD_PCT}%)"
        );
    }
    if coverage < MIN_SPAN_COVERAGE {
        eprintln!(
            "span tree covers only {:.1}% of the sweep (gate {:.0}%)",
            coverage * 100.0,
            MIN_SPAN_COVERAGE * 100.0,
        );
    }
    let ok = overhead_disabled_pct < MAX_DISABLED_OVERHEAD_PCT
        && overhead_enabled_pct < MAX_ENABLED_OVERHEAD_PCT
        && coverage >= MIN_SPAN_COVERAGE
        && merged.reconciles()
        && checks.iter().all(|&(_, held)| held);
    let mut report = Report::new("exp_runtime_obs");
    report
        .push_str("mode", "full")
        .push_f64("wall_time_baseline_sec", t_base)
        .push_f64("wall_time_disabled_sec", t_off)
        .push_f64("wall_time_enabled_sec", t_on_corpus)
        .push_f64("wall_time_selfprofile_sec", t_on)
        .push_f64("overhead_pct", overhead_disabled_pct)
        .push_f64("overhead_enabled_pct", overhead_enabled_pct)
        .push_f64("span_coverage", coverage)
        .push_int("kernel_ops_total", merged.total_ops())
        .push_int("kernel_settles", merged.settles)
        .push_f64("kernel_occupancy", merged.occupancy())
        .push_bool("kernel_reconciled", merged.reconciles())
        .push_int("topologies", rows.len() as u64)
        .push_bool("ok", ok);
    emit_report(&report);
}
