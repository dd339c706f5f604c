//! EXP-L1 — `lip-lint` proves the paper's implementation issues without
//! simulation: every LIP005 bottleneck prediction equals the batched
//! simulator's measured steady state *exactly* (Ratio equality, no
//! tolerance), LIP003's deadlock verdict matches the liveness oracle on
//! pristine and sabotaged environments, and applying the machine fix-its
//! restores full throughput on the paper's Fig. 1. On forests whose
//! sinks never stop, lint decides LIP006–LIP008 from closed-form
//! declared facts; those must equal the exhaustive `check_declared`
//! proof in liveness, throughput, lasso shape and relay bounds.

use lip_analysis::{forest_facts, ForestFacts};
use lip_bench::{banner, emit_report, mark, table, Report};
use lip_core::{Pattern, RelayKind};
use lip_graph::{generate, topology, Netlist, SourceMap};
use lip_lint::{apply_fixits, lint, RuleId};
use lip_mc::{check_declared, McConfig};
use lip_sim::measure::check_liveness;
use lip_sim::{measure_batch_periodic, LanePatterns, Ratio, SettleProgram};

/// The linter's throughput verdict: LIP005's attached prediction, or
/// full rate when the bottleneck rule stays silent.
fn lint_prediction(netlist: &Netlist) -> Ratio {
    lint(netlist, &SourceMap::new())
        .iter()
        .find(|d| d.rule == RuleId::Lip005)
        .and_then(|d| d.predicted_throughput)
        .unwrap_or(Ratio::new(1, 1))
}

/// Lane-0 steady state from the batched periodic simulator.
fn batch_measured(netlist: &Netlist) -> Option<Ratio> {
    let prog = SettleProgram::compile(netlist).ok()?;
    let pats = LanePatterns::broadcast(&prog);
    let m = measure_batch_periodic(netlist, &pats, 8192).ok()?;
    m.periodicity[0].as_ref()?;
    m.system_throughput(0)
}

/// The codes of every rule that fires on `netlist`, comma-joined.
fn fired_codes(netlist: &Netlist) -> String {
    let diags = lint(netlist, &SourceMap::new());
    if diags.is_empty() {
        return "-".into();
    }
    let codes: Vec<&str> = diags.iter().map(|d| d.rule.code()).collect();
    codes.join(",")
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

/// No join, no loop: at most one input channel per node and acyclic.
fn is_forest(netlist: &Netlist) -> bool {
    netlist
        .nodes()
        .all(|(_, node)| node.kind().num_inputs() <= 1)
        && topology::is_acyclic(netlist)
}

/// One forest-facts table row, and whether the closed form equals the
/// exhaustive proof on `netlist` (liveness, per-sink throughput, stem,
/// period and relay bounds).
fn forest_row(name: &str, netlist: &Netlist) -> (Vec<String>, bool) {
    let facts = forest_facts(netlist);
    let proof = check_declared(netlist, &McConfig::default()).ok();
    let agree = match (&facts, &proof) {
        (Some(f), Some(p)) => {
            f.is_live() == p.is_live()
                && f.dead_shells == p.dead_shells
                && f.throughput == p.throughput
                && (f.stem, f.period) == (p.stem, p.period)
                && f.relay_bounds == p.relay_bounds
        }
        _ => false,
    };
    let show = |v: Option<String>| v.unwrap_or_else(|| "-".into());
    let row = vec![
        name.to_owned(),
        show(facts.as_ref().map(|f| format!("{}+{}", f.stem, f.period))),
        show(proof.as_ref().map(|p| format!("{}+{}", p.stem, p.period))),
        show(
            facts
                .as_ref()
                .and_then(ForestFacts::system_throughput)
                .map(|r| r.to_string()),
        ),
        mark(agree).into(),
    ];
    (row, agree)
}

fn main() {
    banner(
        "EXP-L1",
        "static protocol analysis (lip-lint) vs simulation",
        "all five rule families are provable from the netlist alone: bottleneck ratios match the simulator exactly, deadlock verdicts match the liveness oracle, and fix-its restore full rate",
    );

    // 1. Named corpus: static prediction vs measured steady state.
    let corpus: Vec<(&str, Netlist)> = vec![
        ("fig1", generate::fig1().netlist),
        ("tree(2,2,1)", generate::tree(2, 2, 1).netlist),
        ("tree(3,2,2)", generate::tree(3, 2, 2).netlist),
        (
            "ring(2,1,full)",
            generate::ring(2, 1, RelayKind::Full).netlist,
        ),
        (
            "ring(2,3,full)",
            generate::ring(2, 3, RelayKind::Full).netlist,
        ),
        (
            "ring(3,2,half)",
            generate::ring(3, 2, RelayKind::Half).netlist,
        ),
        (
            "chain(3,2,full)",
            generate::chain(3, 2, RelayKind::Full).netlist,
        ),
        ("fork_join(3,0,2)", generate::fork_join(3, 0, 2).netlist),
        (
            "composed(1,1,1,2,1)",
            generate::composed_coupled(1, 1, 1, 2, 1).netlist,
        ),
        ("buffered_ring(3,1)", generate::buffered_ring(3, 1).netlist),
    ];
    let named_total = corpus.len() as u64;
    let mut named_exact = 0u64;
    let mut rows = Vec::new();
    for (name, netlist) in &corpus {
        let predicted = lint_prediction(netlist);
        let measured = batch_measured(netlist).expect("lane 0 converges");
        let exact = predicted == measured;
        named_exact += u64::from(exact);
        rows.push(vec![
            (*name).to_owned(),
            fired_codes(netlist),
            predicted.to_string(),
            measured.to_string(),
            mark(exact).into(),
        ]);
    }
    println!(
        "{}",
        table(
            &["system", "rules fired", "predicted", "measured", "exact"],
            &rows
        )
    );
    println!("predictions are exact Ratio equalities, not approximations\n");

    // 2. Random corpus: exact agreement + per-rule census.
    let mut random_checked = 0u64;
    let mut random_exact = 0u64;
    let mut census = [0u64; RuleId::ALL.len()];
    for seed in 0..60u64 {
        let (_, netlist) = generate::random_family(seed);
        if netlist.validate().is_err() {
            continue;
        }
        for d in lint(&netlist, &SourceMap::new()) {
            census[d.rule.index()] += 1;
        }
        let Some(measured) = batch_measured(&netlist) else {
            continue;
        };
        random_checked += 1;
        random_exact += u64::from(lint_prediction(&netlist) == measured);
    }
    println!("== random corpus (seeds 0..60) ==");
    let census_rows: Vec<Vec<String>> = RuleId::ALL
        .iter()
        .map(|r| {
            vec![
                r.code().to_owned(),
                r.summary().to_owned(),
                census[r.index()].to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["rule", "checks", "diagnostics"], &census_rows)
    );
    println!(
        "{random_exact}/{random_checked} periodic lanes: static == measured {}",
        mark(random_exact == random_checked && random_checked > 0)
    );

    // 3. LIP003 vs the liveness oracle, pristine and sabotaged.
    let mut live_total = 0u64;
    let mut live_agree = 0u64;
    for seed in 0..40u64 {
        let (_, netlist) = generate::random_family(seed);
        if netlist.validate().is_err() {
            continue;
        }
        for system in [Some(netlist.clone()), kill_first_source(&netlist)] {
            let Some(system) = system else { continue };
            if system.validate().is_err() {
                continue;
            }
            let static_dead = lint(&system, &SourceMap::new())
                .iter()
                .any(|d| d.rule == RuleId::Lip003);
            let report = check_liveness(&system, 20_000, 5_000).expect("valid netlist");
            live_total += 1;
            live_agree += u64::from(static_dead != report.is_live());
        }
    }
    println!("\n== LIP003 (guaranteed deadlock) vs simulated liveness ==");
    println!(
        "{live_agree}/{live_total} verdicts agree (pristine + dead-source injections) {}\n",
        mark(live_agree == live_total && live_total > 0)
    );

    // 4. Fix-its on Fig. 1: equalization restores full rate.
    let mut fig1 = generate::fig1().netlist;
    let before_predicted = lint_prediction(&fig1);
    let before_measured = batch_measured(&fig1).expect("fig1 converges");
    let diags = lint(&fig1, &SourceMap::new());
    let fix_report = apply_fixits(&mut fig1, &diags).expect("fix-its apply");
    let after_predicted = lint_prediction(&fig1);
    let after_measured = batch_measured(&fig1).expect("fixed fig1 converges");
    let after_clean = lint(&fig1, &SourceMap::new()).is_empty();
    let full = Ratio::new(1, 1);
    let fix_ok = before_predicted == before_measured
        && after_predicted == full
        && after_measured == full
        && after_clean;
    println!("== machine-applicable fix-its (Fig. 1) ==");
    println!(
        "{}",
        table(
            &["stage", "predicted", "measured", "lints clean"],
            &[
                vec![
                    "before".into(),
                    before_predicted.to_string(),
                    before_measured.to_string(),
                    "no".into(),
                ],
                vec![
                    format!("after ({} relay(s) inserted)", fix_report.total_inserted()),
                    after_predicted.to_string(),
                    after_measured.to_string(),
                    if after_clean {
                        "yes".into()
                    } else {
                        "no".into()
                    },
                ],
            ],
        )
    );
    println!(
        "equalization lifts Fig. 1 from {before_measured} to {after_measured} tokens/cycle {}",
        mark(fix_ok)
    );

    // 5. Forest facts: the closed form behind LIP006–LIP008 on live
    //    forests equals the exhaustive declared proof.
    let mut forests: Vec<(String, Netlist)> =
        [RelayKind::Full, RelayKind::Half, RelayKind::Fifo(3)]
            .into_iter()
            .map(|kind| {
                (
                    format!("chain(32,4,{kind})"),
                    generate::chain(32, 4, kind).netlist,
                )
            })
            .collect();
    forests.push(("tree(8,2,1)".into(), generate::tree(8, 2, 1).netlist));
    for seed in 0..60u64 {
        let (_, mut netlist) = generate::random_family(seed);
        if netlist.validate().is_err() || !is_forest(&netlist) {
            continue;
        }
        let pattern = Pattern::EveryNth {
            period: 2 + (seed % 3) as u32,
            phase: (seed % 2) as u32,
        };
        for id in netlist.sources() {
            netlist.set_source_pattern(id, pattern.clone());
        }
        forests.push((format!("random {seed}"), netlist));
    }
    let forest_total = forests.len() as u64;
    let mut forest_agree = 0u64;
    let mut forest_rows = Vec::new();
    for (name, netlist) in &forests {
        let (row, agree) = forest_row(name, netlist);
        forest_agree += u64::from(agree);
        forest_rows.push(row);
    }
    println!("\n== forest facts: closed form vs exhaustive proof ==");
    println!(
        "{}",
        table(
            &[
                "system",
                "formula stem+period",
                "proof stem+period",
                "T",
                "equal"
            ],
            &forest_rows
        )
    );
    println!(
        "{forest_agree}/{forest_total} forests: closed form == proof {}",
        mark(forest_agree == forest_total && forest_total >= 10)
    );

    let mut report = Report::new("exp_static_analysis");
    report
        .push_int("named_systems", named_total)
        .push_int("named_exact", named_exact)
        .push_int("random_checked", random_checked)
        .push_int("random_exact", random_exact)
        .push_int("liveness_verdicts", live_total)
        .push_int("liveness_agree", live_agree)
        .push_ratio("fig1_before", before_measured.num(), before_measured.den())
        .push_ratio("fig1_after", after_measured.num(), after_measured.den())
        .push_bool("fixits_clean", after_clean)
        .push_int("forest_systems", forest_total)
        .push_int("forest_agree", forest_agree)
        .push_bool(
            "ok",
            named_exact == named_total
                && random_exact == random_checked
                && random_checked >= 30
                && live_agree == live_total
                && fix_ok
                && forest_agree == forest_total
                && forest_total >= 10,
        );
    emit_report(&report);
}
