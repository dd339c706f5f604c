//! Adversarial-environment model checking: exact deadlock freedom
//! against *every* environment.
//!
//! The declared checker trusts the endpoint patterns; this one
//! universally quantifies over them. Breadth-first search over every
//! per-cycle environment choice (each source offers or withholds, each
//! sink stops or accepts) enumerates the reachable component-state
//! space, interned in a [`StateArena`] with parent pointers.
//!
//! The deadlock predicate is *exact*, not a simulation horizon: record
//! which transitions fire a shell, then propagate "can eventually fire"
//! backwards over the reachable graph. A state outside that backward
//! closure can never fire another shell no matter what the environment
//! does — the paper's deadlock. Because BFS ids are discovery-ordered,
//! the lowest-id wedged state yields a *minimal* counterexample
//! schedule via the parent pointers, replayable on the real simulator
//! ([`confirm_stuck`](crate::schedule::confirm_stuck)).
//!
//! The verdict is only claimed when the whole space fit in the budget
//! (`complete`); a truncated search answers [`Verdict::Unknown`].

use std::collections::VecDeque;

use lip_graph::Netlist;
use lip_sim::lasso::StateArena;
use lip_sim::SkeletonSystem;

use crate::schedule::{Counterexample, EnvChoice, Schedule};
use crate::{McConfig, McError, Verdict};

/// Most combined sources and sinks [`check_adversarial`] accepts: the
/// per-cycle choice masks are `u32` shifts.
const MAX_ENDPOINTS: usize = 31;

/// Exhaustive (or budget-truncated) adversarial search result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversarialProof {
    /// Distinct component states reached.
    pub states: usize,
    /// Environment transitions expanded.
    pub transitions: u64,
    /// `true` when the whole reachable space was enumerated.
    pub complete: bool,
    /// The deadlock verdict ([`Verdict::Unknown`] when truncated).
    pub verdict: Verdict,
    /// Minimal schedule into a wedged state, when one is reachable.
    pub counterexample: Option<Counterexample>,
    /// Peak [`StateArena`] footprint in bytes.
    pub peak_arena_bytes: usize,
}

impl AdversarialProof {
    /// `true` when the search proved no environment can wedge the
    /// system.
    #[must_use]
    pub fn deadlock_free(&self) -> bool {
        self.verdict == Verdict::DeadlockFree
    }
}

/// Model-check `netlist` against every environment behaviour.
///
/// # Errors
///
/// Propagates [`McError::Netlist`] from elaboration, and returns
/// [`McError::EnvironmentFanOut`] when the design has more than 31
/// combined sources and sinks (the per-cycle choice
/// fan-out `2^(sources+sinks)` is enumerated exhaustively). A state
/// space larger than `cfg.max_states` is *not* an error: the search
/// returns with `complete = false` and [`Verdict::Unknown`].
pub fn check_adversarial(netlist: &Netlist, cfg: &McConfig) -> Result<AdversarialProof, McError> {
    let n_src = netlist.sources().len();
    let n_snk = netlist.sinks().len();
    if n_src + n_snk > MAX_ENDPOINTS {
        return Err(McError::EnvironmentFanOut {
            endpoints: n_src + n_snk,
            max: MAX_ENDPOINTS,
        });
    }
    let initial = SkeletonSystem::new(netlist)?;
    let has_shells = !netlist.shells().is_empty();

    let mut arena = StateArena::new(initial.component_state().len());
    let (root, _) = arena.intern(&initial.component_state());
    debug_assert_eq!(root, 0);
    // Parent pointer per state id (id 0 = root, parent unused).
    let mut parents: Vec<(u32, EnvChoice)> = vec![(
        0,
        EnvChoice {
            source_valid: Vec::new(),
            sink_stop: Vec::new(),
        },
    )];
    // Forward edges per state (deduplicated per expansion), and whether
    // the state has an immediately-firing transition.
    let mut edges: Vec<Vec<u32>> = vec![Vec::new()];
    let mut fires_now: Vec<bool> = vec![false];

    let mut queue: VecDeque<(u32, SkeletonSystem)> = VecDeque::new();
    queue.push_back((0, initial));
    let mut transitions = 0u64;
    let mut complete = true;

    while let Some((id, state)) = queue.pop_front() {
        if arena.len() >= cfg.max_states {
            complete = false;
            continue; // drain without expanding further
        }
        for src_mask in 0..(1u32 << n_src) {
            let valids: Vec<bool> = (0..n_src).map(|i| src_mask & (1 << i) != 0).collect();
            for snk_mask in 0..(1u32 << n_snk) {
                let stops: Vec<bool> = (0..n_snk).map(|j| snk_mask & (1 << j) != 0).collect();
                let mut next = state.clone();
                let before = next.total_fires();
                next.step_with(&valids, &stops);
                transitions += 1;
                if next.total_fires() > before {
                    fires_now[id as usize] = true;
                }
                let (nid, fresh) = arena.intern(&next.component_state());
                if !edges[id as usize].contains(&nid) {
                    edges[id as usize].push(nid);
                }
                if fresh {
                    parents.push((
                        id,
                        EnvChoice {
                            source_valid: valids.clone(),
                            sink_stop: stops.clone(),
                        },
                    ));
                    edges.push(Vec::new());
                    fires_now.push(false);
                    queue.push_back((nid, next));
                }
            }
        }
    }

    let verdict = if !has_shells {
        // Nothing can deadlock: there is nothing to fire.
        Verdict::DeadlockFree
    } else if !complete {
        Verdict::Unknown
    } else {
        match first_wedged(&edges, &fires_now) {
            None => Verdict::DeadlockFree,
            Some(_) => Verdict::Deadlock,
        }
    };
    let counterexample = if verdict == Verdict::Deadlock {
        let wedged = first_wedged(&edges, &fires_now).expect("verdict");
        let mut choices = Vec::new();
        let mut at = wedged;
        while at != 0 {
            let (parent, choice) = &parents[at as usize];
            choices.push(choice.clone());
            at = *parent;
        }
        choices.reverse();
        Some(Counterexample {
            schedule: Schedule { choices },
            stuck_state: arena.get(wedged).to_vec(),
            continuation: None,
        })
    } else {
        None
    };

    Ok(AdversarialProof {
        states: arena.len(),
        transitions,
        complete,
        verdict,
        counterexample,
        peak_arena_bytes: arena.bytes(),
    })
}

/// Lowest-id state from which no shell can ever fire again: the
/// complement of the backward closure of the firing states over the
/// (complete) reachable graph. `None` when every state can still fire.
fn first_wedged(edges: &[Vec<u32>], fires_now: &[bool]) -> Option<u32> {
    let n = edges.len();
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (u, outs) in edges.iter().enumerate() {
        for &v in outs {
            rev[v as usize].push(u as u32);
        }
    }
    // Seed: states that can fire on some immediate choice; propagate
    // "can eventually fire" backwards.
    let mut good = fires_now.to_vec();
    let mut queue: VecDeque<u32> = (0..n as u32).filter(|&i| good[i as usize]).collect();
    while let Some(v) = queue.pop_front() {
        for &u in &rev[v as usize] {
            if !good[u as usize] {
                good[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    (0..n as u32).find(|&i| !good[i as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wedged_detection_over_a_toy_graph() {
        // 0 -> 1 (fires), 0 -> 2, 2 -> 2 (never fires).
        let edges = vec![vec![1, 2], vec![1], vec![2]];
        let fires = vec![false, true, false];
        assert_eq!(first_wedged(&edges, &fires), Some(2));
        // Make the trap escape back to the firing state: all good.
        let edges = vec![vec![1, 2], vec![1], vec![1]];
        assert_eq!(first_wedged(&edges, &fires), None);
    }
}
