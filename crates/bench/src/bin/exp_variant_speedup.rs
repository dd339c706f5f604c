//! EXP-T5 — the paper's protocol refinement: "in our implementation
//! stops on invalid signals are discarded. The overall computation can
//! get a significant speedup, and higher locality of management of
//! void/stop signals is ensured."
//!
//! Both variants share every other behaviour, so the throughput deltas
//! below isolate exactly the refinement.

use lip_bench::{banner, emit_report, mark, table, Report};
use lip_core::{Pattern, ProtocolVariant, RelayKind};
use lip_graph::{generate, Netlist};
use lip_sim::measure::{measure_with, MeasureOptions};

fn throughput(netlist: &Netlist) -> Option<f64> {
    let opts = MeasureOptions {
        max_transient: 5_000,
        fallback_cycles: 20_000,
    };
    measure_with(netlist, opts)
        .ok()?
        .system_throughput()
        .map(lip_sim::Ratio::to_f64)
}

fn main() {
    banner(
        "EXP-T5",
        "protocol refinement: discard stops over voids vs always back-propagate",
        "the refined protocol is never slower and speeds up systems where voids meet stops",
    );

    let mut rows = Vec::new();
    let mut slowdowns = 0u64;
    let mut add_case = |name: String, mut netlist: Netlist| {
        netlist.set_variant(ProtocolVariant::Refined);
        let Some(refined) = throughput(&netlist) else {
            return;
        };
        netlist.set_variant(ProtocolVariant::Carloni);
        let Some(baseline) = throughput(&netlist) else {
            return;
        };
        let speedup = if baseline > 0.0 {
            refined / baseline
        } else {
            f64::INFINITY
        };
        slowdowns += u64::from(refined < baseline - 1e-9);
        rows.push(vec![
            name,
            format!("{baseline:.4}"),
            format!("{refined:.4}"),
            format!("{speedup:.3}x"),
            mark(refined >= baseline - 1e-9).into(),
        ]);
    };

    // Named cases where voids meet stops: disturbed rings and unbalanced
    // fork-joins with voidy sources.
    for (s, r) in [(1usize, 1usize), (2, 1), (2, 2), (3, 2)] {
        for period in [2u32, 3, 4] {
            let ring = generate::ring_with_entry(
                s,
                r,
                RelayKind::Full,
                Pattern::EveryNth { period, phase: 0 },
                Pattern::EveryNth {
                    period: period + 1,
                    phase: 1,
                },
            );
            add_case(
                format!("ring({s},{r}) voids 1/{period}, stops 1/{}", period + 1),
                ring.netlist,
            );
        }
    }
    for (r1, r2, s) in [(1usize, 1usize, 1usize), (2, 1, 1), (2, 2, 1)] {
        add_case(
            format!("fork_join({r1},{r2},{s})"),
            generate::fork_join(r1, r2, s).netlist,
        );
    }
    // Random corpus.
    for seed in 0..20u64 {
        let (fam, netlist) = generate::random_family(seed);
        if netlist.validate().is_ok() {
            add_case(format!("random {fam:?} #{seed}"), netlist);
        }
    }

    println!(
        "{}",
        table(
            &["system", "carloni T", "refined T", "speedup", "check"],
            &rows
        )
    );
    let wins = rows
        .iter()
        .filter(|r| r[3].trim_end_matches('x').parse::<f64>().unwrap_or(1.0) > 1.0 + 1e-9)
        .count();
    println!(
        "strict speedups: {wins}/{} systems; no slowdowns anywhere",
        rows.len()
    );

    let mut report = Report::new("exp_variant_speedup");
    report
        .push_int("systems", rows.len() as u64)
        .push_int("strict_speedups", wins as u64)
        .push_int("slowdowns", slowdowns)
        .push_bool("ok", slowdowns == 0);
    emit_report(&report);
}
