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
//!    it is gated `< 3%`: the median, over [`REPS`] rounds that
//!    interleave the legs pass by pass, of the two legs' time ratio
//!    within a round.
//! 3. **Enabled recorder**: first the same corpus again, recorder on,
//!    timed in the same rounds — the apples-to-apples *enabled*
//!    overhead, gated `< 15%` (occupancy popcounts are sampled every
//!    [`lip_sim::OCC_SAMPLE_EVERY`] settles; retirement counters stay
//!    exact). Then a full self-profiled run — ambient recorder
//!    installed, root `sweep` span over per-topology `measure` spans,
//!    counted kernel execution and a memoized capacity search (cache +
//!    analysis telemetry). The drained dump must explain `>= 95%` of
//!    the root span's wall time, and the per-opcode counters must
//!    reconcile *exactly*: ops retired equals op-tape length × settles,
//!    per topology and merged.
//!
//! Artefacts: `BENCH_runtime.json` (versioned [`RuntimeReport`]),
//! `TRACE_runtime.json` (Chrome trace of the enabled leg) and
//! `progress.prom` (Prometheus text exposition, the `lip-top` input) in
//! the report directory.
//!
//! `LIP_FLIGHT=0` runs only legs 1–2 (the overhead gate) — the mode CI
//! uses to check the disabled path in isolation without rewriting the
//! enabled-leg artefacts.
//!
//! A full run then records how the `lip_lint` path scales with design
//! size: parse, validate, lint, compile and proof times, parse MB/s and
//! the minor page faults one parse takes, on binary trees of depth
//! 8–16 and four-relay chains, 10³ to 1.3·10⁵ relay stations. Those
//! numbers are reported, not gated; the gate is that each parsed design
//! writes back to its generator's text.

use std::sync::Arc;
use std::time::Instant;

use lip_analysis::minimal_equalizing_capacity;
use lip_bench::{banner, emit_report, mark, report_dir, table, trace_phases, Json, Report};
use lip_core::{Pattern, RelayKind};
use lip_graph::{generate, parse_netlist_spanned, write_netlist, Netlist};
use lip_mc::{check_declared_compiled, McConfig};
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
/// Shortest timed leg: one corpus pass takes well under a millisecond,
/// too short to hold a 3% gate against host noise, so each leg repeats
/// the corpus until it lasts this long.
const MIN_LEG_SECS: f64 = 0.05;
/// Timed rounds per design of the scaling section (best of).
const SCALE_REPS: usize = 3;
/// Gate: runtime-disabled instrumentation must cost `< 3%` wall clock.
const MAX_DISABLED_OVERHEAD_PCT: f64 = 3.0;
/// Gate: the fully-enabled recorder (spans + counted kernels with
/// sampled occupancy) over the same corpus, by the same median of
/// per-round ratios as the disabled leg. Exact retirement counters are cheap; the popcount
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

/// `passes` passes over the corpus with all hooks compiled away.
fn leg_baseline(items: &[(String, Netlist, LanePatterns)], passes: usize) {
    for (_, netlist, pats) in items.iter().cycle().take(passes * items.len()) {
        std::hint::black_box(
            measure_batch_periodic(netlist, pats, BUDGET).expect("corpus measures"),
        );
    }
}

/// One pass over the corpus with the recorder present but
/// runtime-disabled; `false` if any measurement counted kernels.
fn leg_disabled(items: &[(String, Netlist, LanePatterns)], rec: &FlightRecorder) -> bool {
    let mut uncounted = true;
    for (name, netlist, pats) in items {
        let (m, kc) = measure_batch_periodic_obs::<u64, _, _>(
            netlist,
            pats,
            BUDGET,
            name,
            rec,
            &mut NullProgress,
        )
        .expect("corpus measures");
        uncounted &= kc.is_none();
        std::hint::black_box(m);
    }
    uncounted
}

/// One pass over the corpus with the recorder fully enabled: spans
/// recorded and kernel executions counted — the apples-to-apples cost
/// of *running* the instrumentation over the exact work the other legs
/// time; `false` if any measurement went uncounted.
fn leg_enabled(items: &[(String, Netlist, LanePatterns)], rec: &FlightRecorder) -> bool {
    let mut counted = true;
    for (name, netlist, pats) in items {
        let (m, kc) = measure_batch_periodic_obs::<u64, _, _>(
            netlist,
            pats,
            BUDGET,
            name,
            rec,
            &mut NullProgress,
        )
        .expect("corpus measures");
        counted &= kc.is_some();
        std::hint::black_box((m, kc));
    }
    counted
}

/// Corpus passes that make a baseline leg last [`MIN_LEG_SECS`]: whole
/// legs are timed and rescaled until one does, since a lone pass runs
/// colder than the passes of a leg.
fn passes_per_leg(items: &[(String, Netlist, LanePatterns)]) -> usize {
    let mut passes = 1;
    loop {
        let t0 = Instant::now();
        leg_baseline(items, passes);
        let secs = t0.elapsed().as_secs_f64();
        if secs >= MIN_LEG_SECS {
            return passes;
        }
        passes = ((passes as f64 * MIN_LEG_SECS / secs).ceil() as usize).max(passes + 1);
    }
}

/// Each leg's seconds in each of [`REPS`] rounds, `[leg][round]`,
/// where a leg is `passes` calls of its closure (one corpus pass each).
/// A round interleaves the legs pass by pass, each time starting one
/// leg later, so a slow spell of the host, shorter than a round, lands
/// on every leg of it rather than on one.
fn interleaved_rounds(legs: &mut [&mut dyn FnMut()], passes: usize) -> Vec<Vec<f64>> {
    let mut secs = vec![Vec::with_capacity(REPS); legs.len()];
    for _ in 0..REPS {
        let mut round = vec![0.0; legs.len()];
        for pass in 0..passes {
            for k in 0..legs.len() {
                let leg = (pass + k) % legs.len();
                let t0 = Instant::now();
                legs[leg]();
                round[leg] += t0.elapsed().as_secs_f64();
            }
        }
        for (leg, t) in secs.iter_mut().zip(round) {
            leg.push(t);
        }
    }
    secs
}

/// The median of `values`.
fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Overhead of `leg` over the baseline (leg 0) in percent: the median
/// over rounds of the two legs' time ratio within each round. Each
/// ratio pairs legs timed moments apart, so a slow spell of the host
/// scales both; and the median lets no single fast or slow round
/// decide, as a best-of-rounds comparison does.
fn paired_overhead_pct(rounds: &[Vec<f64>], leg: usize) -> f64 {
    let ratio = median(rounds[leg].iter().zip(&rounds[0]).map(|(t, base)| t / base));
    (ratio - 1.0).max(0.0) * 100.0
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
    leg_baseline(&items, 1); // warm-up: fault code + allocator before timing
    let passes = passes_per_leg(&items);
    let off = FlightRecorder::disabled();
    // Leg 3a, timed in the same rounds: the *fair* enabled-overhead
    // measurement — identical corpus work, recorder on. (The
    // self-profiled sweep below does strictly more work — searches
    // and lint fixes — so its wall time is not an overhead number.)
    let on = FlightRecorder::new();
    let (mut uncounted, mut counted) = (true, true);
    let mut base = || leg_baseline(&items, 1);
    let mut disabled = || uncounted &= leg_disabled(&items, &off);
    let mut enabled = || counted &= leg_enabled(&items, &on);
    let rounds = if overhead_only {
        interleaved_rounds(&mut [&mut base, &mut disabled], passes)
    } else {
        interleaved_rounds(&mut [&mut base, &mut disabled, &mut enabled], passes)
    };
    drop(on.drain());
    let times: Vec<f64> = rounds
        .iter()
        .map(|leg| median(leg.iter().copied()))
        .collect();
    let (t_base, t_off) = (times[0], times[1]);
    let overhead_disabled_pct = paired_overhead_pct(&rounds, 1);
    println!(
        "overhead: {passes} corpus passes per leg, medians of {REPS} rounds; baseline {:.2} ms, disabled recorder {:.2} ms -> {:.2}% by paired ratio (gate < {MAX_DISABLED_OVERHEAD_PCT}%) {}",
        t_base * 1e3,
        t_off * 1e3,
        overhead_disabled_pct,
        mark(overhead_disabled_pct < MAX_DISABLED_OVERHEAD_PCT),
    );
    if !uncounted {
        eprintln!("the disabled recorder counted kernels");
    }
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
            .push_int("passes_per_leg", passes as u64)
            .push_f64("wall_time_baseline_sec", t_base)
            .push_f64("wall_time_disabled_sec", t_off)
            .push_f64("overhead_pct", overhead_disabled_pct)
            .push_bool(
                "ok",
                overhead_disabled_pct < MAX_DISABLED_OVERHEAD_PCT && uncounted,
            );
        emit_report(&report);
        return;
    }

    let t_on_corpus = times[2];
    let overhead_enabled_pct = paired_overhead_pct(&rounds, 2);
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
    let (cache_ok, fix_ok) = {
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
            let Some(kc) = kc else {
                counted = false;
                continue;
            };
            // The exact accounting check: every tape op of every settle
            // counted once, and settles match the cycles executed.
            let tape_len = SettleProgram::compile_shared(netlist)
                .expect("corpus compiles")
                .kernel_op_count() as u64;
            rows.push(TopoRow {
                name: name.clone(),
                cycles: m.cycles,
                settles: kc.settles,
                ops: kc.total_ops(),
                occupancy: kc.occupancy(),
                reconciled: kc.reconciles()
                    && kc.settles == m.cycles
                    && kc.total_ops() == tape_len * kc.settles,
            });
            match merged.as_mut() {
                Some(acc) => acc.merge(&kc),
                None => merged = Some(kc),
            }
        }

        // Cache + analysis telemetry: a memoized capacity search run
        // twice — the second run is pure cache hits.
        let cache_ok = {
            let _search = rec.span("analysis", "capacity_search");
            let f = generate::fig1();
            let mut cache = ThroughputCache::new();
            let first = minimal_equalizing_capacity(&f.netlist, f.short_relays[0], 6, &mut cache)
                .expect("fig1 sizes");
            let second = minimal_equalizing_capacity(&f.netlist, f.short_relays[0], 6, &mut cache)
                .expect("fig1 sizes");
            first == second && cache.hits() > 0 && cache.misses() > 0
        };

        // Lint-fix telemetry: the `lip-lint --fix` flow — one compile
        // per file, then every insertion fix-it applied as an
        // incremental patch (`compile.patch`), never a per-fix
        // recompile.
        let fix_ok = {
            let _fix = rec.span("lint", "fix");
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
            // The fixes insert relays, and the patched program equals a
            // fresh compile of the fixed netlist.
            fix.total_inserted() > 0
                && SettleProgram::compile(&netlist).is_ok_and(|fresh| fresh == program)
        };
        (cache_ok, fix_ok)
    };
    let t_on = t0.elapsed().as_secs_f64();
    flight::uninstall();
    let dump = rec.drain();
    if let Some(e) = progress.take_error() {
        eprintln!("error: progress exposition failed: {e}");
        std::process::exit(1);
    }

    let coverage = span_coverage(&dump, "sweep");
    let Some(merged) = merged else {
        eprintln!("error: the enabled recorder counted no topology");
        std::process::exit(1);
    };

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
        "counters: cache {}h/{}m, {} capacity probes, compiles {} full / {} patched",
        shown("cache.hits"),
        shown("cache.misses"),
        shown("analysis.capacity_probes"),
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

    // The stalled corpus, then the same designs under their declared
    // environment, which one scalar lasso settles.
    let declared = corpus().into_iter().map(|(name, netlist)| {
        let prog = SettleProgram::compile(&netlist).expect("corpus compiles");
        let pats = LanePatterns::broadcast(&prog);
        (format!("{name} declared"), netlist, pats)
    });
    let provenance: Vec<ProvenanceRow> = items
        .iter()
        .cloned()
        .chain(declared)
        .map(|(name, netlist, pats)| provenance_row(&name, &netlist, &pats))
        .collect();
    print_provenance(&provenance);

    let scaling = scale_rows(scaling_corpus());
    print_scaling(&scaling);

    let phases = trace_phases(&trace);
    let checks = [
        ("every measurement counted when enabled", counted),
        ("no measurement counted when disabled", uncounted),
        (
            "every topology settles once per cycle and reconciles",
            rows.len() == items.len() && rows.iter().all(|r| r.reconciled),
        ),
        ("capacity search repeats from the cache", cache_ok),
        ("lint fixes patch the program exactly", fix_ok),
        (
            "every converged lane has one verdict path",
            provenance.iter().all(ProvenanceRow::sums),
        ),
        (
            "a declared environment settles on one scalar lasso",
            provenance[items.len()..]
                .iter()
                .all(|r| r.declared == LANES as u64 && r.converged == LANES as u64),
        ),
        (
            "each parsed design equals its generator's",
            scaling.iter().all(|r| r.same),
        ),
        ("all five counters surfaced", surfaced),
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
        .push_int("passes_per_leg", passes as u64)
        .push_raw("verdicts", provenance_json(&provenance).to_compact())
        .push_raw("parse_scaling", scaling_json(&scaling).to_compact())
        .push_bool("ok", ok);
    emit_report(&report);
}

/// How one corpus design's lanes got their verdicts, from the
/// `measure.close.*` counters of a recorder private to its sweep.
struct ProvenanceRow {
    name: String,
    cycles: u64,
    /// The largest μ + λ among the converged lanes: the cycles a
    /// per-lane lasso would need.
    lasso_cycles: u64,
    env_lag: u64,
    hint: u64,
    checkpoint: u64,
    replay: u64,
    /// Lanes of a declared environment, settled by one scalar lasso.
    declared: u64,
    converged: u64,
}

impl ProvenanceRow {
    /// Every converged lane counted on exactly one path.
    fn sums(&self) -> bool {
        self.env_lag + self.hint + self.checkpoint + self.replay + self.declared == self.converged
    }
}

fn provenance_row(name: &str, netlist: &Netlist, pats: &LanePatterns) -> ProvenanceRow {
    let rec = FlightRecorder::new();
    let (m, _) = measure_batch_periodic_obs::<u64, _, _>(
        netlist,
        pats,
        BUDGET,
        name,
        &rec,
        &mut NullProgress,
    )
    .expect("corpus measures");
    let counters = rec.drain().counters;
    let count = |key: &str| counters.get(key).copied().unwrap_or(0);
    let periods = m.periodicity.iter().flatten();
    ProvenanceRow {
        name: name.to_owned(),
        cycles: m.cycles,
        lasso_cycles: periods.map(|p| p.transient + p.period).max().unwrap_or(0),
        env_lag: count("measure.close.env_lag"),
        hint: count("measure.close.hint"),
        checkpoint: count("measure.close.checkpoint"),
        replay: count("measure.close.replay"),
        declared: count("measure.close.declared"),
        converged: (0..m.lanes).filter(|&l| m.lane_converged(l)).count() as u64,
    }
}

fn print_provenance(rows: &[ProvenanceRow]) {
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.cycles.to_string(),
                r.lasso_cycles.to_string(),
                r.env_lag.to_string(),
                r.hint.to_string(),
                r.checkpoint.to_string(),
                r.replay.to_string(),
                r.declared.to_string(),
                r.converged.to_string(),
                mark(r.sums()).into(),
            ]
        })
        .collect();
    println!("lane verdicts by path (measure.close.*):");
    println!(
        "{}",
        table(
            &[
                "topology",
                "cycles",
                "max mu+lambda",
                "env lag",
                "hint",
                "checkpoint",
                "replay",
                "declared",
                "converged",
                "sums"
            ],
            &printable,
        )
    );
    println!();
}

fn provenance_json(rows: &[ProvenanceRow]) -> Json {
    rows.iter()
        .map(|r| {
            Json::obj([
                ("design", r.name.as_str().into()),
                ("cycles", r.cycles.into()),
                ("max_lasso_cycles", r.lasso_cycles.into()),
                ("env_lag", r.env_lag.into()),
                ("hint", r.hint.into()),
                ("checkpoint", r.checkpoint.into()),
                ("replay", r.replay.into()),
                ("declared", r.declared.into()),
                ("converged", r.converged.into()),
            ])
        })
        .collect()
}

/// The scaling section's designs: binary trees of depth 8–16 and
/// four-relay chains, 10³ to 1.3·10⁵ relay stations.
fn scaling_corpus() -> Vec<(String, Netlist)> {
    let trees = (8..=16).map(|d| (format!("tree({d},2,1)"), generate::tree(d, 2, 1).netlist));
    let chains = [256, 1024, 4096, 16384, 32768].map(|k| {
        (
            format!("chain({k},4)"),
            generate::chain(k, 4, RelayKind::Full).netlist,
        )
    });
    trees.chain(chains).collect()
}

/// One design of the scaling section: best-of-[`SCALE_REPS`] seconds
/// per layer of the `lip_lint` path, and of the compile and proof that
/// lint runs on designs other than live forests.
struct ScaleRow {
    name: String,
    relays: usize,
    bytes: usize,
    parse_s: f64,
    validate_s: f64,
    lint_s: f64,
    compile_s: f64,
    /// One [`check_declared_compiled`] run on the compiled program, if
    /// the design was proved and the proof held.
    proof_s: Option<f64>,
    /// Minor page faults of the last parse (a repeated parse, so the
    /// allocator has seen one of its size), where `/proc` tells.
    parse_faults: Option<u64>,
    /// The parsed design writes back to its generator's text.
    same: bool,
}

/// This process's minor page faults so far: field 10 of
/// `/proc/self/stat`, read only; `None` where there is no such file.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(7)?.parse().ok()
}

fn scale_row(name: String, generated: &Netlist, prove: bool) -> ScaleRow {
    let text = write_netlist(generated);
    let mut row = ScaleRow {
        name,
        relays: generated.census().relays(),
        bytes: text.len(),
        parse_s: f64::INFINITY,
        validate_s: f64::INFINITY,
        lint_s: f64::INFINITY,
        compile_s: f64::INFINITY,
        proof_s: None,
        parse_faults: None,
        same: false,
    };
    for rep in 0..SCALE_REPS {
        let faults = minor_faults();
        let t0 = Instant::now();
        let Ok(parsed) = parse_netlist_spanned(&text) else {
            return row;
        };
        let t1 = Instant::now();
        row.parse_faults = faults.zip(minor_faults()).map(|(a, b)| b - a);
        let valid = parsed.netlist.validate();
        let t2 = Instant::now();
        std::hint::black_box(lip_lint::lint(&parsed.netlist, &parsed.source_map));
        let t3 = Instant::now();
        let Ok(program) = SettleProgram::compile(&parsed.netlist) else {
            return row;
        };
        let t4 = Instant::now();
        if rep == 0 {
            row.same = valid.is_ok() && write_netlist(&parsed.netlist) == text;
            if prove {
                let t = Instant::now();
                let proof = check_declared_compiled(
                    &parsed.netlist,
                    Arc::new(program),
                    &McConfig::default(),
                );
                row.proof_s = proof.is_ok().then(|| t.elapsed().as_secs_f64());
            }
        }
        row.parse_s = row.parse_s.min((t1 - t0).as_secs_f64());
        row.validate_s = row.validate_s.min((t2 - t1).as_secs_f64());
        row.lint_s = row.lint_s.min((t3 - t2).as_secs_f64());
        row.compile_s = row.compile_s.min((t4 - t3).as_secs_f64());
    }
    row
}

/// Proofs the scaling section may take, per design: the proof grows
/// faster than the design (quadratically on chains), so a rung is proved
/// only while the last proved rung of its family, scaled by the square
/// of the size ratio, predicts no more than this.
const PROOF_BUDGET_SECS: f64 = 1.0;

/// The scaling rows of `corpus`, in order.
fn scale_rows(corpus: Vec<(String, Netlist)>) -> Vec<ScaleRow> {
    let mut rows: Vec<ScaleRow> = Vec::with_capacity(corpus.len());
    for (name, netlist) in corpus {
        let family = |n: &str| n.split('(').next().unwrap_or_default().to_owned();
        let relays = netlist.census().relays() as f64;
        let last = rows
            .iter()
            .rev()
            .find(|r| family(&r.name) == family(&name) && r.proof_s.is_some());
        let prove = last.is_none_or(|r| {
            let grown = relays / r.relays as f64;
            r.proof_s.unwrap_or_default() * grown * grown <= PROOF_BUDGET_SECS
        });
        rows.push(scale_row(name, &netlist, prove));
    }
    rows
}

impl ScaleRow {
    fn parse_mb_per_sec(&self) -> f64 {
        self.bytes as f64 / self.parse_s / 1e6
    }
}

fn print_scaling(rows: &[ScaleRow]) {
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.relays.to_string(),
                format!("{:.2}", r.bytes as f64 / 1e6),
                format!("{:.2}", r.parse_s * 1e3),
                format!("{:.1}", r.parse_mb_per_sec()),
                format!("{:.2}", r.validate_s * 1e3),
                format!("{:.2}", r.lint_s * 1e3),
                format!("{:.2}", r.compile_s * 1e3),
                r.proof_s
                    .map_or_else(|| "-".to_owned(), |s| format!("{:.2}", s * 1e3)),
                r.parse_faults
                    .map_or_else(|| "-".to_owned(), |f| f.to_string()),
                mark(r.same).into(),
            ]
        })
        .collect();
    println!("lint path scaling (best of {SCALE_REPS}; timings reported, not gated):");
    println!(
        "{}",
        table(
            &[
                "design",
                "relays",
                "MB",
                "parse ms",
                "parse MB/s",
                "validate ms",
                "lint ms",
                "compile ms",
                "proof ms",
                "parse faults",
                "round trip"
            ],
            &printable,
        )
    );
}

fn scaling_json(rows: &[ScaleRow]) -> Json {
    rows.iter()
        .map(|r| {
            Json::obj([
                ("design", r.name.as_str().into()),
                ("relays", r.relays.into()),
                ("bytes", r.bytes.into()),
                ("parse_ms", Json::fixed(r.parse_s * 1e3, 3)),
                ("parse_mb_per_sec", Json::fixed(r.parse_mb_per_sec(), 1)),
                ("validate_ms", Json::fixed(r.validate_s * 1e3, 3)),
                ("lint_ms", Json::fixed(r.lint_s * 1e3, 3)),
                ("compile_ms", Json::fixed(r.compile_s * 1e3, 3)),
                (
                    "proof_ms",
                    r.proof_s.map_or(Json::Null, |s| Json::fixed(s * 1e3, 3)),
                ),
                (
                    "parse_minor_faults",
                    r.parse_faults.map_or(Json::Null, Json::from),
                ),
                ("round_trip", r.same.into()),
            ])
        })
        .collect()
}
