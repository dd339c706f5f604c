//! Every recurrence search in the workspace runs on the one
//! `lip_sim::lasso` detector, so all of them must tell the same story:
//! the model checker's declared-environment proof, the periodicity
//! detectors of the full [`System`] and the [`SkeletonSystem`], the
//! skeleton-based measurement, activity and liveness views, and lane 0
//! of the batched periodic sweep under broadcast patterns agree exactly
//! on the lasso shape, per-sink throughput and dead shells. The
//! data-carrying [`System`] is the oracle: its token and fire counts
//! over one period it found itself must match every skeleton reading.

use lip_core::Pattern;
use lip_graph::{generate, parse_netlist, Netlist, NodeId};
use lip_mc::{check_declared, DeclaredProof, McConfig};
use lip_sim::measure::{
    check_liveness, find_periodicity, measure_activity, measure_batch_periodic,
};
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
    // The oracle: the full System's sink tokens and shell fires over
    // one more period, starting at the recurrence it found.
    let counts = |sys: &System| -> Vec<u64> {
        let tokens = netlist
            .sinks()
            .into_iter()
            .map(|s| sys.sink(s).unwrap().received().len() as u64);
        let fires = netlist
            .shells()
            .into_iter()
            .map(|s| sys.shell_stats(s).unwrap().fires);
        tokens.chain(fires).collect()
    };
    let before = counts(&full);
    full.run(proof.period);
    let per_period: Vec<u64> = counts(&full)
        .iter()
        .zip(before)
        .map(|(a, b)| a - b)
        .collect();
    let (system_tokens, system_fires) = per_period.split_at(netlist.sinks().len());
    let rates =
        |n: &[u64]| -> Vec<Ratio> { n.iter().map(|&n| Ratio::new(n, proof.period)).collect() };

    let m = measure(netlist).unwrap();
    assert_eq!(m.periodicity, lasso, "{what}: measured lasso");
    let measured: Vec<Ratio> = m.sinks.iter().map(|s| s.throughput).collect();
    assert_eq!(measured, declared, "{what}: measured throughput");
    assert_eq!(
        measured,
        rates(system_tokens),
        "{what}: system tokens per period"
    );

    let activity: Vec<Ratio> = measure_activity(netlist)
        .unwrap()
        .iter()
        .map(|a| a.utilisation)
        .collect();
    assert_eq!(
        activity,
        rates(system_fires),
        "{what}: system fires per period"
    );

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
    let system_dead: Vec<NodeId> = netlist
        .shells()
        .into_iter()
        .zip(system_fires)
        .filter(|&(_, &fires)| fires == 0)
        .map(|(s, _)| s)
        .collect();
    assert_eq!(live.dead_shells, system_dead, "{what}: system dead shells");
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

/// Three disconnected parts with different rates and more shells than
/// sinks in one of them: a shell at 1/2, two shells starved behind a
/// sink that always stops, and a bare source-to-sink wire at rate 1.
/// Sink and shell readings differ here, so a misaligned row shows.
#[test]
fn disconnected_parts_keep_sink_and_shell_rows_apart() {
    let text = "source in1\nshell A identity\nsink s1 stops=every:2:0\n\
                connect in1:0 -> A:0\nconnect A:0 -> s1:0\n\
                source in2\nshell B identity\nrelay r full\nshell C identity\n\
                sink s2 stops=every:1:0\nconnect in2:0 -> B:0\nconnect B:0 -> r:0\n\
                connect r:0 -> C:0\nconnect C:0 -> s2:0\n\
                source in3\nsink s3\nconnect in3:0 -> s3:0\n";
    let netlist = parse_netlist(text).expect("parse").0;
    let proof = check_declared(&netlist, &McConfig::default()).unwrap();
    let rates: Vec<Ratio> = proof.throughput.iter().map(|&(_, r)| r).collect();
    assert_eq!(
        rates,
        [Ratio::new(1, 2), Ratio::new(0, 1), Ratio::new(1, 1)]
    );
    assert_eq!(proof.dead_shells.len(), 2, "B and C starve");
    assert_agreement("disconnected parts", &netlist, &proof);
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
