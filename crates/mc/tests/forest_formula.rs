//! The closed-form forest facts (`lip_analysis::forest_facts`) against
//! the declared-environment proof they stand in for.
//!
//! On every forest the corpora generate — chains of full, half and
//! FIFO relays, buffered-shell chains, trees of several depths and
//! fanouts, and the forests among `random_family` — under a spread of
//! periodic source patterns (dead ones included), the formula must
//! equal `check_declared` in liveness, per-sink throughput, relay
//! bounds, stem, period and state count whenever the proof stays
//! within its state budget. On every design that is not a forest, and
//! on every forest with a sink that ever stops, the formula must
//! decline.

use lip_analysis::{forest_facts, ForestFacts};
use lip_core::{Pattern, ProtocolVariant, RelayKind};
use lip_graph::{generate, parse_netlist, topology, Netlist, NodeKind};
use lip_mc::{check_declared, DeclaredProof, McConfig, McError};

/// Source patterns the corpus is swept under: full rate, regular and
/// irregular periodic voids, a phase-shifted one, and a dead source.
fn source_patterns() -> Vec<Pattern> {
    vec![
        Pattern::Never,
        Pattern::EveryNth {
            period: 2,
            phase: 0,
        },
        Pattern::EveryNth {
            period: 3,
            phase: 1,
        },
        Pattern::EveryNth {
            period: 5,
            phase: 4,
        },
        Pattern::Cyclic(vec![true, false, false, true, true, false, true]),
        Pattern::Always,
    ]
}

/// Every source of `netlist` voided by `pattern`, the `i`-th shifted by
/// `i` cycles when cyclic, so sibling roots differ.
fn with_sources(netlist: &Netlist, pattern: &Pattern) -> Netlist {
    let mut n = netlist.clone();
    for (i, id) in n.sources().into_iter().enumerate() {
        let p = match pattern {
            Pattern::Cyclic(bits) => {
                let mut bits = bits.clone();
                let shift = i % bits.len();
                bits.rotate_left(shift);
                Pattern::Cyclic(bits)
            }
            other => other.clone(),
        };
        assert!(n.set_source_pattern(id, p));
    }
    n
}

/// No join, no loop: at most one input channel per node and acyclic.
fn is_forest(netlist: &Netlist) -> bool {
    netlist
        .nodes()
        .all(|(_, node)| node.kind().num_inputs() <= 1)
        && topology::is_acyclic(netlist)
}

fn assert_equal(what: &str, facts: &ForestFacts, proof: &DeclaredProof) {
    assert_eq!(facts.dead_shells, proof.dead_shells, "{what}: dead shells");
    assert_eq!(facts.shell_count, proof.shell_count, "{what}: shell count");
    assert_eq!(facts.throughput, proof.throughput, "{what}: throughput");
    assert_eq!(
        facts.relay_bounds, proof.relay_bounds,
        "{what}: relay bounds"
    );
    assert_eq!(
        (facts.stem, facts.period, facts.states),
        (proof.stem, proof.period, proof.states as u64),
        "{what}: lasso shape"
    );
    assert_eq!(facts.is_live(), proof.is_live(), "{what}: liveness");
    assert_eq!(
        facts.system_throughput(),
        proof.system_throughput(),
        "{what}: system throughput"
    );
}

/// Check one design: the formula decides exactly the forests whose
/// sinks never stop, and agrees with the proof wherever both answer.
/// Returns whether a formula/proof pair was compared.
fn check(what: &str, netlist: &Netlist) -> bool {
    netlist.validate().expect("corpus designs are valid");
    let facts = forest_facts(netlist);
    let never_stops = netlist.sinks().iter().all(|&id| {
        matches!(
            netlist.node(id).kind(),
            NodeKind::Sink {
                stop_pattern: Pattern::Never
            }
        )
    });
    if !(is_forest(netlist) && never_stops) {
        assert_eq!(facts, None, "{what}: the formula must decline");
        return false;
    }
    let facts = facts.unwrap_or_else(|| panic!("{what}: the formula must decide a forest"));
    match check_declared(netlist, &McConfig::default()) {
        Ok(proof) => {
            assert_equal(what, &facts, &proof);
            true
        }
        Err(McError::StateCap { .. }) => false,
        Err(e) => panic!("{what}: proof failed: {e}"),
    }
}

/// `check` under every source pattern, plus the declining cases: a
/// stopping sink, and the baseline protocol variant.
fn sweep(what: &str, netlist: &Netlist) -> usize {
    let mut compared = 0;
    for pattern in source_patterns() {
        let n = with_sources(netlist, &pattern);
        compared += usize::from(check(&format!("{what} voids={pattern:?}"), &n));
    }
    if let Some(&sink) = netlist.sinks().first() {
        let mut stopped = netlist.clone();
        assert!(stopped.set_sink_pattern(
            sink,
            Pattern::EveryNth {
                period: 3,
                phase: 2
            }
        ));
        check(&format!("{what} with a stopping sink"), &stopped);
    }
    let mut baseline = netlist.clone();
    baseline.set_variant(ProtocolVariant::Carloni);
    assert_eq!(forest_facts(&baseline), None, "{what}: baseline variant");
    compared
}

#[test]
fn chains_of_every_relay_kind() {
    let kinds = [
        RelayKind::Full,
        RelayKind::Half,
        RelayKind::Fifo(2),
        RelayKind::Fifo(3),
        RelayKind::Fifo(4),
    ];
    let mut compared = 0;
    for kind in kinds {
        for shells in 1..=4 {
            for relays in 0..=4 {
                let chain = generate::chain(shells, relays, kind).netlist;
                compared += sweep(&format!("chain({shells},{relays},{kind})"), &chain);
            }
        }
    }
    for shells in 1..=5 {
        let (simple, buffered) = generate::memory_equivalent_chains(shells);
        compared += sweep(&format!("half chain({shells})"), &simple.netlist);
        compared += sweep(&format!("buffered chain({shells})"), &buffered.netlist);
    }
    assert!(compared >= 600, "only {compared} chains compared");
}

#[test]
fn one_place_fifo_chains_decline() {
    // A one-place FIFO stops its producer while it holds a token, so
    // back-pressure exists even under sinks that never stop.
    let chain = generate::chain(2, 1, RelayKind::Fifo(1)).netlist;
    assert_eq!(forest_facts(&chain), None);
}

#[test]
fn trees_of_several_depths_and_fanouts() {
    let mut compared = 0;
    for depth in 1..=5 {
        for fanout in 1..=3 {
            for relays in 0..=2 {
                let tree = generate::tree(depth, fanout, relays).netlist;
                compared += sweep(&format!("tree({depth},{fanout},{relays})"), &tree);
            }
        }
    }
    assert!(compared >= 200, "only {compared} trees compared");
}

#[test]
fn random_family_forests_and_non_forests() {
    let (mut forests, mut others) = (0, 0);
    for seed in 0..400u64 {
        let (_, netlist) = generate::random_family(seed);
        if netlist.validate().is_err() {
            continue;
        }
        if is_forest(&netlist) {
            forests += sweep(&format!("random {seed}"), &netlist);
        } else {
            others += 1;
            for pattern in source_patterns() {
                let n = with_sources(&netlist, &pattern);
                check(&format!("random {seed} voids={pattern:?}"), &n);
            }
        }
    }
    assert!(forests >= 300, "only {forests} random forests compared");
    assert!(others >= 100, "only {others} random non-forests checked");
}

#[test]
fn input_less_shells_root_their_own_trees() {
    // A counter shell offers data on every cycle, like a source that
    // never voids; here it roots one tree beside a source-rooted one.
    let text = "\
source in
shell  g  counter
relay  r1 full
shell  f  identity fanout=2
relay  r2 half
shell  a  identity
relay  r3 fifo:3
shell  b  identity
relay  r4 full
sink   o1
sink   o2
sink   o3
connect g:0  -> r1:0
connect r1:0 -> f:0
connect f:0  -> r2:0
connect r2:0 -> a:0
connect a:0  -> o1:0
connect f:1  -> r3:0
connect r3:0 -> o2:0
connect in:0 -> b:0
connect b:0  -> r4:0
connect r4:0 -> o3:0
";
    let (netlist, _) = parse_netlist(text).expect("well-formed forest");
    assert_eq!(sweep("counter + source forest", &netlist), 6);
}

#[test]
fn named_non_forests_decline() {
    let designs = [
        ("fig1", generate::fig1().netlist),
        ("ring(4,4)", generate::ring(4, 4, RelayKind::Full).netlist),
        ("buffered_ring(3,1)", generate::buffered_ring(3, 1).netlist),
        ("reconvergent(3,1)", generate::reconvergent(3, 1).netlist),
        (
            "composed_coupled(1,1,1,2,1)",
            generate::composed_coupled(1, 1, 1, 2, 1).netlist,
        ),
    ];
    for (name, netlist) in &designs {
        assert_eq!(forest_facts(netlist), None, "{name}");
    }
}

#[test]
fn the_formula_answers_past_the_state_budget() {
    // A 2^16-state budget stops the proof; the formula is a theorem
    // and answers anyway: one shell between two runs of 2^15 full relays
    // has a stem of one cycle per register on the path.
    let chain = generate::chain(1, 1 << 15, RelayKind::Full).netlist;
    let facts = forest_facts(&chain).expect("a chain is a forest");
    assert_eq!((facts.stem, facts.period), ((1 << 16) + 1, 1));
    assert!(facts.is_live());
    assert!(matches!(
        check_declared(&chain, &McConfig::default()),
        Err(McError::StateCap { .. })
    ));
}
