//! EXP-M1 — the exact model checker (`lip-mc`) against every other
//! oracle in the workspace: its statically derived throughput equals
//! the batched simulator's measured steady state AND the marked-graph
//! prediction as exact `Ratio` equalities; its deadlock verdict matches
//! the simulated liveness oracle on pristine and sabotaged
//! environments; every deadlock counterexample replays on the real
//! `SkeletonSystem` into the proved stuck state; and the adversarial
//! BFS agrees state-for-state with `lip-verify`'s explorer.
//!
//! Writes `BENCH_check.json` (schema under `EXPERIMENTS.md` EXP-M1):
//! the agreement matrix, state-space telemetry (states/sec, peak arena
//! bytes) and the `gate_skipped` marker when a corpus entry exceeded
//! the state budget.

use std::time::Instant;

use lip_bench::{banner, emit_report, mark, table, write_bench, Json, Report};
use lip_core::RelayKind;
use lip_graph::{generate, Netlist};
use lip_mc::{check_adversarial, check_declared, confirm_stuck, McConfig, McError, Verdict};
use lip_sim::measure::check_liveness;
use lip_sim::{measure_batch_periodic, LanePatterns, Ratio, SettleProgram};
use lip_verify::explore_system;

/// Lane-0 steady state from the batched periodic simulator.
fn batch_measured(netlist: &Netlist) -> Option<Ratio> {
    let prog = SettleProgram::compile(netlist).ok()?;
    let pats = LanePatterns::broadcast(&prog);
    let m = measure_batch_periodic(netlist, &pats, 8192).ok()?;
    m.periodicity[0].as_ref()?;
    m.system_throughput(0)
}

/// Rewrite the first pattern-free `source` statement to void on every
/// cycle — a statically dead environment — and reparse.
fn kill_first_source(netlist: &Netlist) -> Option<Netlist> {
    let text = lip_graph::write_netlist(netlist);
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let line = lines
        .iter_mut()
        .find(|l| l.starts_with("source ") && !l.contains("voids="))?;
    line.push_str(" voids=every:1:0");
    let (mutated, _) = lip_graph::parse_netlist(&lines.join("\n")).ok()?;
    Some(mutated)
}

/// Same, stalling the first sink with a permanent stop.
fn kill_first_sink(netlist: &Netlist) -> Option<Netlist> {
    let text = lip_graph::write_netlist(netlist);
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let line = lines
        .iter_mut()
        .find(|l| l.starts_with("sink ") && !l.contains("stops="))?;
    line.push_str(" stops=every:1:0");
    let (mutated, _) = lip_graph::parse_netlist(&lines.join("\n")).ok()?;
    Some(mutated)
}

/// Every shipped `.lid` design, parsed.
fn shipped_designs() -> Vec<(String, Netlist)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../designs");
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return out;
    };
    let mut paths: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "lid"))
        .collect();
    paths.sort();
    for path in paths {
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Ok((netlist, _)) = lip_graph::parse_netlist(&src) else {
            continue;
        };
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        out.push((format!("designs/{name}"), netlist));
    }
    out
}

/// Mutable tallies threaded through every corpus entry.
#[derive(Default)]
struct Tally {
    checked: u64,
    skipped_aperiodic: u64,
    skipped_cap: u64,
    states_total: u64,
    peak_arena_bytes: usize,
    mc_seconds: f64,
    deadlock_agree: u64,
    deadlock_total: u64,
    tp_sim_agree: u64,
    tp_sim_total: u64,
    tp_static_agree: u64,
    tp_static_total: u64,
    cex_replayed: u64,
    cex_total: u64,
    bounds_ok: u64,
    bounds_total: u64,
}

/// Run every declared-mode check on one corpus entry and fold the
/// results into `tally`; returns a human row when the proof ran.
fn check_entry(name: &str, netlist: &Netlist, tally: &mut Tally) -> Option<Vec<String>> {
    if netlist.validate().is_err() {
        return None;
    }
    let cfg = McConfig::default();
    let t0 = Instant::now();
    let proof = match check_declared(netlist, &cfg) {
        Ok(p) => p,
        Err(McError::Aperiodic) => {
            tally.skipped_aperiodic += 1;
            return None;
        }
        Err(McError::StateCap { .. }) => {
            tally.skipped_cap += 1;
            return None;
        }
        Err(McError::Netlist(_)) => return None,
    };
    tally.mc_seconds += t0.elapsed().as_secs_f64();
    tally.checked += 1;
    tally.states_total += proof.states as u64;
    tally.peak_arena_bytes = tally.peak_arena_bytes.max(proof.peak_arena_bytes);

    // Deadlock verdict vs the simulated liveness oracle.
    let oracle = check_liveness(netlist, 20_000, 5_000).expect("valid netlist");
    tally.deadlock_total += 1;
    let dead_agree = proof.is_live() == oracle.is_live();
    tally.deadlock_agree += u64::from(dead_agree);

    // Exact throughput: proof == simulator == marked-graph prediction.
    let proved = proof.system_throughput();
    let mut tp_cell = "-".to_owned();
    if let (Some(proved), Some(measured)) = (proved, batch_measured(netlist)) {
        tally.tp_sim_total += 1;
        tally.tp_sim_agree += u64::from(proved == measured);
        tp_cell = format!("{proved}");
        if let Some(predicted) = lip_analysis::predict_throughput(netlist) {
            tally.tp_static_total += 1;
            tally.tp_static_agree += u64::from(proved == predicted);
        }
    }

    // Deadlock counterexamples must replay into the proved stuck state.
    if proof.deadlock() {
        tally.cex_total += 1;
        if let Some(cex) = proof.counterexample(netlist) {
            tally.cex_replayed += u64::from(confirm_stuck(netlist, &cex).is_ok());
        }
    }

    // Occupancy certificates are bounded by the declared capacities.
    for &(_, occ, cap) in &proof.relay_bounds {
        tally.bounds_total += 1;
        tally.bounds_ok += u64::from(occ <= cap);
    }

    Some(vec![
        name.to_owned(),
        proof.states.to_string(),
        format!("{}+{}", proof.stem, proof.period),
        if proof.is_live() { "live" } else { "DEAD" }.to_owned(),
        tp_cell,
        mark(dead_agree).into(),
    ])
}

fn main() {
    banner(
        "EXP-M1",
        "exact model checking (lip-mc) vs simulation and analysis",
        "statically derived throughput, liveness and occupancy bounds are proofs over the whole reachable space, and they agree exactly with every sampling oracle in the workspace",
    );

    // 1. Named + shipped corpus under the declared environment.
    let mut corpus: Vec<(String, Netlist)> = vec![
        ("fig1".into(), generate::fig1().netlist),
        ("tree(2,2,1)".into(), generate::tree(2, 2, 1).netlist),
        (
            "ring(2,3,full)".into(),
            generate::ring(2, 3, RelayKind::Full).netlist,
        ),
        (
            "chain(3,2,full)".into(),
            generate::chain(3, 2, RelayKind::Full).netlist,
        ),
        (
            "fork_join(3,0,2)".into(),
            generate::fork_join(3, 0, 2).netlist,
        ),
        (
            "composed(1,1,1,2,1)".into(),
            generate::composed_coupled(1, 1, 1, 2, 1).netlist,
        ),
        (
            "buffered_ring(3,1)".into(),
            generate::buffered_ring(3, 1).netlist,
        ),
    ];
    corpus.extend(shipped_designs());

    let mut tally = Tally::default();
    let mut rows = Vec::new();
    for (name, netlist) in &corpus {
        if let Some(row) = check_entry(name, netlist, &mut tally) {
            rows.push(row);
        }
    }
    let named_checked = tally.checked;
    println!(
        "{}",
        table(
            &[
                "system",
                "states",
                "stem+period",
                "verdict",
                "proved T",
                "oracle"
            ],
            &rows
        )
    );

    // 2. Random corpus (>= 40 seeds), pristine and with injected
    // blocking environments (the deadlock side of the matrix needs
    // designs that actually deadlock).
    let seeds = 48u64;
    for seed in 0..seeds {
        let (family, netlist) = generate::random_family(seed);
        if netlist.validate().is_err() {
            continue;
        }
        let name = format!("seed {seed} {family:?}");
        check_entry(&name, &netlist, &mut tally);
        for (what, mutated) in [
            ("dead source", kill_first_source(&netlist)),
            ("dead sink", kill_first_sink(&netlist)),
        ] {
            let Some(mutated) = mutated else { continue };
            check_entry(&format!("{name} + {what}"), &mutated, &mut tally);
        }
    }
    println!(
        "random corpus ({seeds} seeds + injected deadlocks): {} systems proved ({} aperiodic, {} over cap)",
        tally.checked - named_checked,
        tally.skipped_aperiodic,
        tally.skipped_cap
    );

    // 3. Adversarial BFS vs lip-verify's explorer on small systems.
    let mut adv_agree = 0u64;
    let mut adv_total = 0u64;
    let mut adv_states = 0u64;
    let mut adv_rows = Vec::new();
    let adv_t0 = Instant::now();
    for (name, netlist) in [
        ("fig1", generate::fig1().netlist),
        (
            "ring(2,1,full)",
            generate::ring(2, 1, RelayKind::Full).netlist,
        ),
        ("buffered_ring(2,0)", generate::buffered_ring(2, 0).netlist),
        (
            "chain(2,1,full)",
            generate::chain(2, 1, RelayKind::Full).netlist,
        ),
    ] {
        let cfg = McConfig {
            max_states: 200_000,
        };
        let proof = check_adversarial(&netlist, &cfg).expect("elaborates");
        let search = explore_system(&netlist, 200_000).expect("elaborates");
        adv_total += 1;
        adv_states += proof.states as u64;
        tally.peak_arena_bytes = tally.peak_arena_bytes.max(proof.peak_arena_bytes);
        let verdict_agrees = (proof.verdict == Verdict::DeadlockFree) == search.deadlock_free();
        let states_agree = !(proof.complete && search.complete && search.deadlock_free())
            || proof.states == search.states;
        adv_agree += u64::from(verdict_agrees && states_agree);
        adv_rows.push(vec![
            name.to_owned(),
            proof.states.to_string(),
            search.states.to_string(),
            proof.verdict.to_string(),
            mark(verdict_agrees && states_agree).into(),
        ]);
    }
    let adv_seconds = adv_t0.elapsed().as_secs_f64();
    println!(
        "{}",
        table(
            &["system", "mc states", "explorer states", "verdict", "agree"],
            &adv_rows
        )
    );

    let states_per_sec = if tally.mc_seconds > 0.0 {
        (tally.states_total as f64 + adv_states as f64) / (tally.mc_seconds + adv_seconds)
    } else {
        0.0
    };
    let agreement = [
        (
            "deadlock_oracle",
            tally.deadlock_agree == tally.deadlock_total,
        ),
        (
            "throughput_sim",
            tally.tp_sim_agree == tally.tp_sim_total && tally.tp_sim_total > 0,
        ),
        (
            "throughput_static",
            tally.tp_static_agree == tally.tp_static_total && tally.tp_static_total > 0,
        ),
        (
            "cex_replay",
            tally.cex_replayed == tally.cex_total && tally.cex_total > 0,
        ),
        (
            "bounds",
            tally.bounds_ok == tally.bounds_total && tally.bounds_total > 0,
        ),
        ("adversarial_explorer", adv_agree == adv_total),
    ];
    let all_agree = agreement.iter().all(|&(_, ok)| ok);
    println!(
        "agreement matrix: deadlock {}/{}, throughput-sim {}/{}, throughput-static {}/{}, \
         cex replay {}/{}, bounds {}/{}, adversarial {}/{} {}",
        tally.deadlock_agree,
        tally.deadlock_total,
        tally.tp_sim_agree,
        tally.tp_sim_total,
        tally.tp_static_agree,
        tally.tp_static_total,
        tally.cex_replayed,
        tally.cex_total,
        tally.bounds_ok,
        tally.bounds_total,
        adv_agree,
        adv_total,
        mark(all_agree)
    );
    println!(
        "state-space telemetry: {} states proved at {:.0} states/sec, peak arena {} bytes",
        tally.states_total + adv_states,
        states_per_sec,
        tally.peak_arena_bytes
    );

    // BENCH_check.json — jq-gated in CI (agreement matrix must be all
    // true; gate_skipped surfaces state-budget truncation).
    let gate_skipped = (tally.skipped_cap > 0).then_some("state_space_cap");
    let agreement = agreement.iter().map(|&(key, ok)| (key, Json::from(ok)));
    let doc = Json::obj([
        ("schema_version", lip_obs::SCHEMA_VERSION.into()),
        ("systems_proved", tally.checked.into()),
        ("random_seeds", seeds.into()),
        ("skipped_aperiodic", tally.skipped_aperiodic.into()),
        ("skipped_state_cap", tally.skipped_cap.into()),
        ("gate_skipped", gate_skipped.into()),
        ("states_total", (tally.states_total + adv_states).into()),
        ("states_per_sec", Json::fixed(states_per_sec, 1)),
        ("peak_arena_bytes", tally.peak_arena_bytes.into()),
        ("deadlocks_proved", tally.cex_total.into()),
        ("agreement", Json::obj(agreement)),
        ("ok", all_agree.into()),
    ]);
    write_bench("BENCH_check.json", &doc);

    let mut report = Report::new("exp_model_check");
    report
        .push_int("systems_proved", tally.checked)
        .push_int("states_total", tally.states_total + adv_states)
        .push_int("deadlocks_proved", tally.cex_total)
        .push_int("counterexamples_replayed", tally.cex_replayed)
        .push_int("skipped_state_cap", tally.skipped_cap)
        .push_bool("agreement_all", all_agree)
        .push_bool("ok", all_agree);
    emit_report(&report);
}
