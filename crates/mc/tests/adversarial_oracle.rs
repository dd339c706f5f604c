//! `check_adversarial` against an independent oracle: a plain
//! breadth-first explorer that hashes `component_state()` vectors and
//! decides each state by a bounded permissive run, where the checker
//! interns packed states in a [`lip_mc::StateArena`] and decides wedges
//! exactly by backward closure over the reachable graph.
//!
//! On every system where both complete they must agree on the verdict
//! and on the exact number of reachable states and transitions.

use lip_core::{Pattern, RelayKind};
use lip_graph::{generate, Netlist};
use lip_mc::{check_adversarial, McConfig, Verdict};

mod oracle {
    use std::collections::{HashSet, VecDeque};

    use lip_analysis::transient_bound;
    use lip_graph::Netlist;
    use lip_sim::SkeletonSystem;

    /// Result of [`explore`].
    pub struct Search {
        pub states: usize,
        pub transitions: u64,
        pub complete: bool,
        pub wedged: bool,
    }

    /// Breadth-first search over every per-cycle environment choice,
    /// up to `max_states` distinct control states, noting whether any
    /// visited state is wedged.
    pub fn explore(netlist: &Netlist, max_states: usize) -> Search {
        let initial = SkeletonSystem::new(netlist).unwrap();
        let (n_src, n_snk) = (netlist.sources().len(), netlist.sinks().len());
        let has_shells = !netlist.shells().is_empty();
        let horizon = transient_bound(netlist) + 4;
        let mut visited = HashSet::from([initial.component_state()]);
        let mut queue = VecDeque::from([initial]);
        let (mut transitions, mut complete, mut wedged) = (0, true, false);
        while let Some(state) = queue.pop_front() {
            wedged |= has_shells && is_wedged(&state, n_src, n_snk, horizon);
            if visited.len() >= max_states {
                complete = false;
                continue; // drain the queue without expanding further
            }
            for src_mask in 0..1u32 << n_src {
                let valids: Vec<bool> = (0..n_src).map(|i| src_mask >> i & 1 == 1).collect();
                for snk_mask in 0..1u32 << n_snk {
                    let stops: Vec<bool> = (0..n_snk).map(|j| snk_mask >> j & 1 == 1).collect();
                    let mut next = state.clone();
                    next.step_with(&valids, &stops);
                    transitions += 1;
                    if visited.insert(next.component_state()) {
                        queue.push_back(next);
                    }
                }
            }
        }
        Search {
            states: visited.len(),
            transitions,
            complete,
            wedged,
        }
    }

    /// Under the fully permissive environment, does the system fail to
    /// fire any shell within `horizon` cycles?
    fn is_wedged(state: &SkeletonSystem, n_src: usize, n_snk: usize, horizon: u64) -> bool {
        let mut probe = state.clone();
        let before = probe.total_fires();
        let (valids, stops) = (vec![true; n_src], vec![false; n_snk]);
        (0..horizon).all(|_| {
            probe.step_with(&valids, &stops);
            probe.total_fires() == before
        })
    }
}

const CAP: usize = 200_000;

/// Run both searches and assert agreement; returns the verdict and the
/// shared `(states, transitions)` when both enumerated the complete
/// space.
fn agree(name: &str, netlist: &Netlist) -> Option<(Verdict, usize, u64)> {
    let proof = check_adversarial(netlist, &McConfig { max_states: CAP })
        .unwrap_or_else(|e| panic!("{name}: adversarial check failed: {e}"));
    let search = oracle::explore(netlist, CAP);
    if proof.verdict == Verdict::Unknown || !search.complete {
        return None;
    }
    assert_eq!(
        proof.verdict == Verdict::DeadlockFree,
        !search.wedged,
        "{name}: verdict disagreement"
    );
    assert_eq!(
        proof.states, search.states,
        "{name}: reachable-state count disagreement"
    );
    assert_eq!(
        proof.transitions, search.transitions,
        "{name}: transition count disagreement"
    );
    Some((proof.verdict, proof.states, proof.transitions))
}

fn ring_with_entry(shells: usize, relays: usize, kind: RelayKind) -> Netlist {
    generate::ring_with_entry(shells, relays, kind, Pattern::Never, Pattern::Never).netlist
}

#[test]
fn named_small_systems_agree_exactly() {
    // Every system pins its reachable states and transitions: oracle
    // agreement alone would pass a skeleton regression that shrinks
    // both searches' space alike. fig1, chain(2,1,full), ring(2,1,full)
    // and buffered_ring(2,0) are the counts `exp_model_check` pins.
    let corpus: Vec<(&str, Netlist, (usize, u64))> = vec![
        ("fig1", generate::fig1().netlist, (56, 224)),
        (
            "chain(2,1,full)",
            generate::chain(2, 1, RelayKind::Full).netlist,
            (120, 480),
        ),
        (
            "chain(1,1,half)",
            generate::chain(1, 1, RelayKind::Half).netlist,
            (12, 48),
        ),
        (
            "ring(2,1,full)",
            generate::ring(2, 1, RelayKind::Full).netlist,
            (4, 8),
        ),
        (
            "buffered_ring(2,0)",
            generate::buffered_ring(2, 0).netlist,
            (2, 4),
        ),
        ("tree(1,2,1)", generate::tree(1, 2, 1).netlist, (152, 1216)),
        // The universal-exploration table of `exp_deadlock` (with fig1
        // above): its printed states and transitions.
        (
            "full ring S=2 R=1 (with entry)",
            ring_with_entry(2, 1, RelayKind::Full),
            (8, 32),
        ),
        (
            "half ring S=2 R=2 (with entry)",
            ring_with_entry(2, 2, RelayKind::Half),
            (6, 24),
        ),
        (
            "half ring S=3 R=3 (with entry)",
            ring_with_entry(3, 3, RelayKind::Half),
            (6, 24),
        ),
        (
            "buffered ring S=3 R=0",
            generate::buffered_ring(3, 0).netlist,
            (4, 8),
        ),
        (
            "coupled composition",
            generate::composed_coupled(1, 1, 1, 2, 1).netlist,
            (354, 1416),
        ),
    ];
    for (name, netlist, (states, transitions)) in corpus {
        let counts =
            agree(name, &netlist).unwrap_or_else(|| panic!("{name}: expected a complete search"));
        let want = (Verdict::DeadlockFree, states, transitions);
        assert_eq!(counts, want, "{name}: pinned (states, transitions)");
    }
}

#[test]
fn shell_free_wire_is_not_reported() {
    // A plain wire has nothing to wedge.
    let mut n = Netlist::new();
    let src = n.add_source("in");
    let out = n.add_sink("out");
    n.connect(src, 0, out, 0).unwrap();
    let proof = check_adversarial(&n, &McConfig::default()).unwrap();
    assert!(proof.deadlock_free());
    assert!(!oracle::explore(&n, CAP).wedged);
}

#[test]
fn random_corpus_agrees() {
    let mut compared = 0u32;
    for seed in 0..24u64 {
        let (family, netlist) = generate::random_family(seed);
        if netlist.validate().is_err() {
            continue;
        }
        // Both searches are capped; agree() skips truncated runs.
        if agree(&format!("seed {seed} {family:?}"), &netlist)
            .is_some_and(|(v, ..)| v == Verdict::DeadlockFree)
        {
            compared += 1;
        }
    }
    assert!(
        compared >= 8,
        "too few random systems completed under the cap ({compared})"
    );
}

#[test]
fn system_exploration_is_deterministic() {
    let fig1 = generate::fig1().netlist;
    let cfg = McConfig { max_states: 50_000 };
    let a = check_adversarial(&fig1, &cfg).unwrap();
    let b = check_adversarial(&fig1, &cfg).unwrap();
    assert_eq!(a, b);
}

#[test]
fn carloni_rings_deadlock_and_every_search_confirms_it() {
    use lip_core::ProtocolVariant;
    use lip_mc::confirm_stuck;

    // Under the original discipline a stop back-propagates even against
    // a void, and these tiny rings wedge; the refinement keeps them live.
    let rings: [(&str, Netlist, (usize, u64), usize); 2] = [
        (
            "ring(2,1,full)",
            generate::ring(2, 1, RelayKind::Full).netlist,
            (5, 10),
            4,
        ),
        (
            "ring(2,1,full) with entry",
            ring_with_entry(2, 1, RelayKind::Full),
            (12, 48),
            8,
        ),
    ];
    for (name, refined, (states, transitions), refined_states) in rings {
        let mut carloni = refined.clone();
        carloni.set_variant(ProtocolVariant::Carloni);
        let counts = agree(name, &carloni).unwrap_or_else(|| panic!("{name}: incomplete"));
        assert_eq!(counts, (Verdict::Deadlock, states, transitions), "{name}");

        let proof = check_adversarial(&carloni, &McConfig::default()).unwrap();
        let cex = proof
            .counterexample
            .expect("a deadlock ships a counterexample");
        confirm_stuck(&carloni, &cex).unwrap_or_else(|e| panic!("{name}: {e}"));

        let live = check_adversarial(&refined, &McConfig::default()).unwrap();
        assert_eq!(live.verdict, Verdict::DeadlockFree, "{name}: refined");
        assert_eq!(live.states, refined_states, "{name}: refined states");
    }
}
