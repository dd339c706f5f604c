//! Every recurrence search in the workspace runs on the one
//! `lip_sim::lasso` detector, so all of them must tell the same story:
//! the model checker's declared-environment proof, the periodicity
//! detectors of the full [`System`] and the [`SkeletonSystem`], lane 0
//! of the batched periodic sweep under broadcast patterns, and the
//! liveness check agree exactly on the lasso shape, per-sink throughput
//! and dead shells.

use lip_core::Pattern;
use lip_graph::{generate, parse_netlist, Netlist};
use lip_mc::{check_declared, DeclaredProof, McConfig};
use lip_sim::measure::{check_liveness, find_periodicity, measure_batch_periodic};
use lip_sim::{measure, LanePatterns, Periodicity, Ratio, SettleProgram, SkeletonSystem, System};
use proptest::prelude::*;

const BUDGET: u64 = 100_000;

/// Assert that every lasso consumer agrees with `proof` on `netlist`
/// (`what` names the case in failure messages).
fn assert_agreement(what: &str, netlist: &Netlist, proof: &DeclaredProof) {
    let lasso = Some(Periodicity {
        transient: proof.stem,
        period: proof.period,
    });
    let declared: Vec<Ratio> = proof.throughput.iter().map(|&(_, r)| r).collect();

    let mut skeleton = SkeletonSystem::new(netlist).unwrap();
    assert_eq!(
        skeleton.find_periodicity(BUDGET),
        lasso,
        "{what}: skeleton lasso"
    );

    let mut full = System::new(netlist).unwrap();
    assert_eq!(
        find_periodicity(&mut full, BUDGET),
        lasso,
        "{what}: system lasso"
    );
    let m = measure(netlist).unwrap();
    let measured: Vec<Ratio> = m.sinks.iter().map(|s| s.throughput).collect();
    assert_eq!(measured, declared, "{what}: system throughput");

    let prog = SettleProgram::compile(netlist).unwrap();
    let batch = measure_batch_periodic(netlist, &LanePatterns::broadcast(&prog), BUDGET).unwrap();
    assert_eq!(batch.periodicity[0], lasso, "{what}: batch lane 0 lasso");
    let lane0: Vec<Ratio> = batch
        .throughput
        .iter()
        .map(|per_lane| per_lane[0])
        .collect();
    assert_eq!(lane0, declared, "{what}: batch lane 0 throughput");

    let live = check_liveness(netlist, BUDGET, BUDGET).unwrap();
    assert_eq!(live.periodicity, lasso, "{what}: liveness lasso");
    assert_eq!(live.dead_shells, proof.dead_shells, "{what}: dead shells");
}

/// One identity shell with 65 outputs: port 0 into a sink stopped
/// every third cycle, port 64 through a full relay into a sink stopped
/// every other cycle, ports 1..=63 into free-running sinks. Packing the
/// shell's 65 register bits into one word folded bit 64 onto bit 0 and
/// merged distinct states.
fn wide_fanout() -> Netlist {
    let mut text = String::from(
        "source in\n\
         shell A identity fanout=65\n\
         relay rb0 full\n\
         sink s0 stops=every:3:0\n\
         sink s64 stops=every:2:0\n\
         connect in:0 -> A:0\n\
         connect A:0 -> s0:0\n\
         connect A:64 -> rb0:0\n\
         connect rb0:0 -> s64:0\n",
    );
    for j in 1..64 {
        text.push_str(&format!("sink s{j}\nconnect A:{j} -> s{j}:0\n"));
    }
    parse_netlist(&text).expect("parse").0
}

#[test]
fn wide_shell_registers_do_not_alias() {
    let netlist = wide_fanout();
    let proof = check_declared(&netlist, &McConfig::default()).unwrap();
    assert_eq!((proof.stem, proof.period), (9, 6), "lasso shape");
    assert_eq!(proof.throughput.len(), 65);
    for &(sink, r) in &proof.throughput {
        assert_eq!(r, Ratio::new(1, 2), "sink {}", netlist.node(sink).name());
    }
    assert_agreement("wide fanout", &netlist, &proof);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lasso_consumers_agree_on_random_families(
        seed in 0u64..400,
        stop_period in 1u32..5,
        stop_phase in 0u32..5,
    ) {
        let (_, mut netlist) = generate::random_family(seed);
        if netlist.validate().is_err() {
            return Ok(());
        }
        // Stop the first sink periodically so the environment phase is
        // part of every lasso.
        let sink = netlist.sinks()[0];
        let stops = Pattern::EveryNth { period: stop_period, phase: stop_phase % stop_period };
        prop_assert!(netlist.set_sink_pattern(sink, stops));
        let proof = check_declared(&netlist, &McConfig::default()).unwrap();
        let what = format!("seed {seed}, stops every:{stop_period}:{}", stop_phase % stop_period);
        assert_agreement(&what, &netlist, &proof);
    }
}
