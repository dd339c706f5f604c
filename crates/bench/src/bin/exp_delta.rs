//! EXP-D1 — the cross-run differ catches an injected capacity
//! regression end-to-end and stays silent across identical re-runs.
//!
//! The self-test drives `lip-delta` exactly the way `run_experiments.sh`
//! and CI do, against a dedicated store:
//!
//! 1. **Baseline**: fig1 with its short-branch relay as `Fifo(2)`
//!    (capacity equal to the stock full relay, `T = 4/5`), profiled
//!    and proved; several captures build the sentinel's timing
//!    history.
//! 2. **Identical re-run**: a fresh sweep of the same design must diff
//!    *clean* — exact leaves byte-equal, wall-clock inside the noise
//!    band (no false positives).
//! 3. **Injected regression**: the short relay's fifo capacity is
//!    downgraded 2 → 1 through PR 8's patch path
//!    (`patch_fifo_capacity`, hash maintained in place and equal to a
//!    cold compile of the edited netlist). The diff must flag it: the
//!    measured *and* mc-proved throughput `Ratio`s move as hard exact
//!    diffs, the kernel op tape shrinks per-opcode, and the throughput
//!    delta is attributed to the edited channel's blame shift.
//! 4. **Injected timing regression**: a synthetic 20× wall-clock
//!    inflation on otherwise identical artifacts trips the sentinel
//!    (and nothing else).
//!
//! Writes `BENCH_delta.json` and the usual `exp_delta.json` report;
//! the bin's exit status is its gate.

use std::time::Instant;

use lip_bench::{banner, emit_report, mark, table, write_bench, Json, Report};
use lip_core::RelayKind;
use lip_delta::{diff_runs, RunBuilder, RunStore, Sentinel};
use lip_graph::{generate, Netlist, NodeId};
use lip_mc::{check_declared, McConfig};
use lip_obs::{FlightRecorder, KernelCounters, NullProgress};
use lip_sim::{
    measure_batch_periodic_obs, profile_netlist, LanePatterns, ProfileOptions, Ratio, SettleProgram,
};

/// Dedicated store so the self-test's injected regressions never
/// pollute the real sweep trajectory under `target/runs`.
const STORE_ROOT: &str = "target/runs-exp-delta";

/// Cycle budget for the counted kernel leg.
const KERNEL_CYCLES: u64 = 640;

/// One sweep's artifacts for a netlist, as committed to the store.
struct Snapshot {
    blame_json: String,
    check_json: String,
    kernel_json: String,
    measured: Ratio,
    /// The proved rate; `None` when the proof found no live run.
    proved: Option<Ratio>,
    live: bool,
    /// The kernel counters reconcile (ops retired = tape × settles).
    reconciled: bool,
    structural_hash: u64,
    top_blamed: Option<String>,
}

impl Snapshot {
    fn top_blamed(&self) -> &str {
        self.top_blamed.as_deref().unwrap_or("-")
    }
}

fn ratio_json(r: Ratio) -> Json {
    Json::obj([("num", r.num().into()), ("den", r.den().into())])
}

fn kernel_json(kc: &KernelCounters) -> String {
    let by_op = kc.by_op.iter().map(|r| {
        Json::obj([
            ("name", r.name.into()),
            ("ops_retired", r.ops_retired.into()),
        ])
    });
    let by_stratum = kc
        .by_stratum
        .iter()
        .map(|&(name, n)| Json::obj([("name", name.into()), ("ops_retired", n.into())]));
    let doc = Json::obj([
        ("schema_version", lip_obs::schema::REPORT.into()),
        ("kind", "kernel_counters".into()),
        ("lanes", kc.lanes.into()),
        ("settles", kc.settles.into()),
        ("ops_total", kc.total_ops().into()),
        ("reconciled", kc.reconciles().into()),
        ("by_opcode", by_op.collect()),
        ("by_stratum", by_stratum.collect()),
    ]);
    doc.to_compact() + "\n"
}

/// Profile, prove and count one design — everything a sweep would
/// capture about it.
fn snapshot(netlist: &Netlist) -> Snapshot {
    let run = profile_netlist(netlist, ProfileOptions::default()).expect("design compiles");
    let measured = Ratio::new(run.report.consumed, run.window);
    let proof = check_declared(netlist, &McConfig::default()).expect("design proves");
    let live = proof.is_live();
    let proved = proof.system_throughput();
    let prog = SettleProgram::compile(netlist).expect("design compiles");
    // Lane by lane, so the counted leg runs the 64-lane kernel: the
    // broadcast environment is measured by one scalar lasso, uncounted.
    let pats = LanePatterns::per_lane(&prog);
    let rec = FlightRecorder::new();
    let _guard = rec.span("exp", "kernel_leg");
    let (_m, kc) = measure_batch_periodic_obs::<u64, _, _>(
        netlist,
        &pats,
        KERNEL_CYCLES,
        "exp_delta",
        &rec,
        &mut NullProgress,
    )
    .expect("counted measurement runs");
    let kc = kc.expect("enabled recorder yields counters");
    let agree = proved == Some(measured);
    let check_json = Json::obj([
        ("schema_version", lip_obs::schema::REPORT.into()),
        ("kind", "throughput_check".into()),
        ("topology", "fig1".into()),
        (
            "structural_hash",
            format!("{:016x}", prog.stable_structural_hash()).into(),
        ),
        ("measured", ratio_json(measured)),
        ("proved", proved.map_or(Json::Null, ratio_json)),
        ("live", live.into()),
        ("agree", agree.into()),
    ])
    .to_compact()
        + "\n";
    Snapshot {
        blame_json: run.report.to_json(),
        check_json,
        kernel_json: kernel_json(&kc),
        measured,
        proved,
        live,
        reconciled: kc.reconciles(),
        structural_hash: prog.stable_structural_hash(),
        top_blamed: run.report.entries.first().map(|e| e.name.clone()),
    }
}

/// Shortest timed batch of fig1 measurements: one takes ~10 µs, too
/// short to time alone against the sentinel's noise band.
const MIN_BATCH_NS: f64 = 1e6;

/// Wall time of one 64-lane fig1 measurement: the per-call time of a
/// batch of calls lasting at least [`MIN_BATCH_NS`], min of 3 batches.
/// Small but genuinely noisy, which is what the sentinel is for. The
/// environment is set lane by lane, so the bit-plane sweep runs: the
/// broadcast one is a few-µs scalar lasso of allocations and hashing,
/// which a slow spell of the host stretches by more than the noise band.
fn sweep_ns() -> f64 {
    let fig1 = generate::fig1().netlist;
    let prog = SettleProgram::compile(&fig1).expect("fig1 compiles");
    let pats = LanePatterns::per_lane(&prog);
    let batch = |calls: u32| {
        let t = Instant::now();
        for _ in 0..calls {
            std::hint::black_box(
                lip_sim::measure_batch_periodic(&fig1, &pats, 2048).expect("fig1 measures"),
            );
        }
        t.elapsed().as_nanos() as f64
    };
    let mut calls = 1;
    while batch(calls) < MIN_BATCH_NS {
        calls *= 2;
    }
    (0..3)
        .map(|_| batch(calls) / f64::from(calls))
        .fold(f64::INFINITY, f64::min)
}

/// Commit one sweep: the snapshot's artifacts plus a wall-clock
/// timing artifact (`timing_ns` measured, or overridden to inject a
/// synthetic regression).
fn commit_run(
    store: &RunStore,
    label: &str,
    snap: &Snapshot,
    timing_ns_override: Option<f64>,
) -> String {
    let timing_ns = timing_ns_override.unwrap_or_else(sweep_ns);
    let timing_json = Json::obj([
        ("schema_version", lip_obs::schema::REPORT.into()),
        ("kind", "timing".into()),
        ("sweep_ns", timing_ns.into()),
    ])
    .to_compact()
        + "\n";
    let mut b = RunBuilder::new(label);
    b.add_artifact("BLAME_fig1.json", &snap.blame_json);
    b.add_artifact("CHECK_fig1.json", &snap.check_json);
    b.add_artifact("KERNEL_fig1.json", &snap.kernel_json);
    b.add_artifact("TIMING_fig1.json", &timing_json);
    b.commit(store).expect("run commits")
}

fn main() {
    banner(
        "EXP-D1",
        "cross-run differ: artifact store, blame attribution, regression sentinel",
        "an injected fifo-capacity downgrade on fig1 is flagged with the throughput delta attributed to the edited channel's blame shift, exact ratio diffs match the mc proofs, and identical re-runs diff clean",
    );

    // Fresh store per invocation: the self-test is deterministic.
    let _ = std::fs::remove_dir_all(STORE_ROOT);
    let store = RunStore::open(STORE_ROOT);
    let sentinel = Sentinel::default();

    // Baseline design: fig1 with the short-branch relay as Fifo(2) —
    // same capacity as the stock full relay, so T = 4/5, but on the
    // fifo table where PR 8's capacity patches apply.
    let fig = generate::fig1();
    let short: NodeId = fig.short_relays[0];
    let short_name = fig.netlist.node(short).name().to_owned();
    let mut baseline = fig.netlist.clone();
    baseline.set_relay_kind(short, RelayKind::Fifo(2));

    let base_snap = snapshot(&baseline);
    let baseline_exact = base_snap.measured == Ratio::new(4, 5);

    // 1. Build timing history: four baseline sweeps. Exact artifacts
    //    are byte-identical; only the timing artifact varies, so each
    //    capture lands under its own content hash.
    let mut history_ids = Vec::new();
    for i in 0..8 {
        let id = commit_run(&store, &format!("baseline history {i}"), &base_snap, None);
        if !history_ids.contains(&id) {
            history_ids.push(id);
        }
        if history_ids.len() == 4 {
            break;
        }
    }
    // Wall-clock jitter spreads the captures over distinct ids.
    let history_spread = history_ids.len() >= 2;

    // 2. Identical re-run: diff the last two baseline sweeps — clean.
    let rerun_id = commit_run(&store, "baseline re-run", &base_snap, None);
    let prev = store.load(history_ids.last().unwrap()).expect("prev loads");
    let rerun = store.load(&rerun_id).expect("re-run loads");
    let clean_diff = diff_runs(&store, &prev, &rerun, &sentinel);
    let rerun_clean = clean_diff.clean();
    println!("== identical re-run ==");
    print!("{}", clean_diff.render_human());

    // 3. Inject the regression through the incremental layer: the
    //    compiled program's capacity patch must agree (hash and all)
    //    with a cold compile of the edited netlist — that is how a
    //    stored diff pairs with a `NetlistDelta` edit.
    let mut patched = SettleProgram::compile(&baseline).expect("baseline compiles");
    let _patch = patched.patch_fifo_capacity(short, 1);
    let mut regressed = baseline.clone();
    regressed.set_relay_kind(short, RelayKind::Fifo(1));
    let cold = SettleProgram::compile(&regressed).expect("regressed compiles");
    let patch_pairs_with_delta = patched.stable_structural_hash() == cold.stable_structural_hash();

    let reg_snap = snapshot(&regressed);
    let reg_id = commit_run(&store, "injected fifo downgrade", &reg_snap, None);
    let reg_run = store.load(&reg_id).expect("regressed run loads");
    let reg_diff = diff_runs(&store, &rerun, &reg_run, &sentinel);
    println!("== injected fifo-capacity downgrade (2 → 1) ==");
    print!("{}", reg_diff.render_human());

    let regression_flagged = !reg_diff.clean() && reg_diff.exact_diffs() > 0;
    // The proved and measured ratios both move, as exact diffs.
    let ratio_paths = ["measured.num", "measured.den", "proved.num", "proved.den"];
    let ratio_diffed = reg_diff
        .entries
        .iter()
        .filter(|e| e.artifact == "CHECK_fig1.json")
        .filter(|e| ratio_paths.contains(&e.path.as_str()))
        .count()
        >= 2;
    let hash_diffed = reg_diff
        .entries
        .iter()
        .any(|e| e.artifact == "CHECK_fig1.json" && e.path == "structural_hash");
    let kernel_diffed = reg_diff
        .entries
        .iter()
        .any(|e| e.artifact == "KERNEL_fig1.json" && e.path.starts_with("by_opcode["));
    // Attribution: the edited channel's relay gains the blame.
    let attributions = reg_diff.attributions();
    let attributed = attributions
        .first()
        .map(|s| s.name.clone())
        .unwrap_or_default();
    let attribution_ok = attributed == short_name;
    // And the diff's ratio values agree with what lip-mc proves on
    // each side.
    let mc_agrees = base_snap.proved == Some(base_snap.measured)
        && reg_snap.proved == Some(reg_snap.measured)
        && base_snap.structural_hash != reg_snap.structural_hash;
    let live = base_snap.live && reg_snap.live;
    let reconciled = base_snap.reconciled && reg_snap.reconciled;

    // 4. Synthetic timing regression: identical exact artifacts, 20×
    //    the wall clock. Only the sentinel should fire.
    let inflated = {
        let hist_median = 20.0 * 1_000_000.0; // 20ms: far outside any band here
        commit_run(
            &store,
            "injected timing spike",
            &base_snap,
            Some(hist_median),
        )
    };
    let inflated_run = store.load(&inflated).expect("timing run loads");
    let timing_diff = diff_runs(&store, &rerun, &inflated_run, &sentinel);
    let timing_flagged = timing_diff.timing_regressions() >= 1 && timing_diff.exact_diffs() == 0;
    println!("== injected timing spike ==");
    print!("{}", timing_diff.render_human());

    // Fig. 1's 4/5 falls to 1/2 once the short branch holds one place.
    let ratio_after_exact = reg_snap.measured == Ratio::new(1, 2);

    let runs_stored = store.list().expect("store lists").len() as u64;
    let ok = baseline_exact
        && history_spread
        && live
        && reconciled
        && rerun_clean
        && ratio_after_exact
        && regression_flagged
        && ratio_diffed
        && hash_diffed
        && kernel_diffed
        && attribution_ok
        && patch_pairs_with_delta
        && mc_agrees
        && timing_flagged;

    println!("== verdict ==");
    println!(
        "{}",
        table(
            &["check", "result"],
            &[
                vec![
                    format!("fig1 baseline {} (4/5)", base_snap.measured),
                    mark(baseline_exact).into()
                ],
                vec!["both designs proved live".into(), mark(live).into()],
                vec!["kernel counters reconcile".into(), mark(reconciled).into()],
                vec![
                    "timing history spreads over captures".into(),
                    mark(history_spread).into()
                ],
                vec![
                    "identical re-run diffs clean".into(),
                    mark(rerun_clean).into()
                ],
                vec!["regression flagged".into(), mark(regression_flagged).into()],
                vec![
                    format!(
                        "throughput {} -> {} (4/5 -> 1/2)",
                        base_snap.measured, reg_snap.measured
                    ),
                    mark(ratio_after_exact).into()
                ],
                vec![
                    "ratio moved as exact diff".into(),
                    mark(ratio_diffed).into()
                ],
                vec!["structural hash moved".into(), mark(hash_diffed).into()],
                vec![
                    "kernel tape delta per opcode".into(),
                    mark(kernel_diffed).into()
                ],
                vec![
                    format!("blame attributed to '{short_name}'"),
                    mark(attribution_ok).into()
                ],
                vec![
                    "patch pairs with NetlistDelta".into(),
                    mark(patch_pairs_with_delta).into()
                ],
                vec!["ratios match mc proofs".into(), mark(mc_agrees).into()],
                vec![
                    "timing spike trips sentinel".into(),
                    mark(timing_flagged).into()
                ],
            ],
        )
    );

    let bench = Json::obj([
        ("schema_version", lip_obs::schema::DELTA.into()),
        ("experiment", "exp_delta".into()),
        ("store", STORE_ROOT.into()),
        ("runs_stored", runs_stored.into()),
        ("rerun_clean", rerun_clean.into()),
        ("regression_flagged", regression_flagged.into()),
        ("regression_exact_diffs", reg_diff.exact_diffs().into()),
        ("ratio_before", ratio_json(base_snap.measured)),
        ("ratio_after", ratio_json(reg_snap.measured)),
        ("attributed_channel", attributed.as_str().into()),
        ("attribution_expected", short_name.as_str().into()),
        ("attribution_ok", attribution_ok.into()),
        ("mc_agrees", mc_agrees.into()),
        ("timing_regression_flagged", timing_flagged.into()),
        ("ok", ok.into()),
    ]);
    write_bench("BENCH_delta.json", &bench);

    let mut report = Report::new("exp_delta");
    report
        .push_int("runs_stored", runs_stored)
        .push_bool("rerun_clean", rerun_clean)
        .push_bool("regression_flagged", regression_flagged)
        .push_ratio(
            "throughput_before",
            base_snap.measured.num(),
            base_snap.measured.den(),
        )
        .push_ratio(
            "throughput_after",
            reg_snap.measured.num(),
            reg_snap.measured.den(),
        )
        .push_str("attributed_channel", &attributed)
        .push_str("top_blamed_after", reg_snap.top_blamed())
        .push_bool("attribution_ok", attribution_ok)
        .push_bool("mc_agrees", mc_agrees)
        .push_bool("timing_regression_flagged", timing_flagged)
        .push_bool("ok", ok);
    emit_report(&report);
}
