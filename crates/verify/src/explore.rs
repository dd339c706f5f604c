//! The explicit-state explorer: an SMV substitute for block-level
//! safety.
//!
//! The composed state space — device × upstream environments × observer
//! — is enumerated breadth-first. Every cycle the explorer branches over
//! all environment choices (each input nondeterministically offers the
//! next token or a void; each output nondeterministically receives a
//! stop), checks the safety observer, and clocks everything. Exploration
//! is exhaustive up to an emitted-tokens bound `depth`; since the blocks
//! buffer at most two tokens, every distinct protocol control situation
//! occurs well within a small bound (the classic finite-window data
//! abstraction SMV models of FIFOs use).

use std::collections::{HashMap, HashSet, VecDeque};

use lip_core::Token;

use crate::dut::{Dut, ShellSpec};
use crate::env::UpstreamEnv;

/// Which safety property an observer step violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A consumed output token was out of order or skipped data
    /// (expected `expected`, saw `saw`). Covers the paper's "produces
    /// outputs in the correct order" and "does not skip any valid
    /// output".
    OrderOrSkip {
        /// Expected datum.
        expected: u64,
        /// Observed datum.
        saw: u64,
    },
    /// A consumed output was not the pearl function of the consumed
    /// inputs ("elaborates coherent data").
    Incoherent {
        /// Expected datum.
        expected: u64,
        /// Observed datum.
        saw: u64,
    },
    /// A stopped valid output changed before it was consumed ("keeps
    /// its output on asserted stops").
    DroppedUnderStop {
        /// The held token that disappeared.
        held: u64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::OrderOrSkip { expected, saw } => {
                write!(
                    f,
                    "output order/skip violation: expected {expected}, saw {saw}"
                )
            }
            Violation::Incoherent { expected, saw } => {
                write!(f, "incoherent data: expected {expected}, saw {saw}")
            }
            Violation::DroppedUnderStop { held } => {
                write!(
                    f,
                    "stopped output dropped: token {held} vanished while held"
                )
            }
        }
    }
}

/// One step of a counterexample trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// Validity choice per input.
    pub input_valid: Vec<bool>,
    /// Stop choice per output.
    pub output_stop: Vec<bool>,
    /// Tokens the device presented.
    pub outputs: Vec<Token>,
}

/// Result of an exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// `true` when no violation is reachable within the bound.
    pub holds: bool,
    /// Distinct composed states visited.
    pub states: usize,
    /// Transitions executed.
    pub transitions: usize,
    /// The first violation found, if any.
    pub violation: Option<Violation>,
    /// Environment choices leading to the violation.
    pub counterexample: Vec<TraceStep>,
}

/// The safety observer, specialised by device kind.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Observer {
    /// Index of the next output datum the spec expects.
    next_out: u64,
    /// Last cycle's (token, stop) per output, for the hold check.
    prev: Vec<(Option<u64>, bool)>,
    /// Whether the hold check applies (relay stations only).
    check_hold: bool,
    /// Expected-stream generator.
    spec: StreamSpec,
}

/// What the consumed output stream should look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StreamSpec {
    /// Relay stations: the identity on the input stream (0, 1, 2, …).
    RelayFifo,
    /// Shells: `f(0..)` prefixed by the initial output `f(0)`.
    Shell(ShellSpec),
}

impl StreamSpec {
    /// Expected datum at output index `k`.
    fn expected(self, k: u64) -> u64 {
        match self {
            StreamSpec::RelayFifo => k,
            // Shell outputs: index 0 is the initialisation firing over
            // zero inputs; index j >= 1 corresponds to input j-1.
            StreamSpec::Shell(ShellSpec::Identity | ShellSpec::Join2) => k.saturating_sub(1),
            StreamSpec::Shell(ShellSpec::Accumulator) => {
                // sum of 0..k (inputs 0..=k-1), and 0 at init.
                (k.saturating_sub(1)) * k / 2
            }
        }
    }

    fn is_shell(self) -> bool {
        matches!(self, StreamSpec::Shell(_))
    }
}

impl Observer {
    fn new(dut: &Dut) -> Self {
        let (check_hold, spec) = match dut {
            Dut::Shell(_, s) | Dut::Buffered(_, s) => (false, StreamSpec::Shell(*s)),
            _ => (true, StreamSpec::RelayFifo),
        };
        Observer {
            next_out: 0,
            prev: vec![(None, false); dut.num_outputs()],
            check_hold,
            spec,
        }
    }

    /// Observe one settled cycle; `outputs`/`stops` are the device's
    /// settled output tokens and the downstream stop choices.
    fn observe(&mut self, outputs: &[Token], stops: &[bool]) -> Result<(), Violation> {
        // Hold check: a valid token under stop must reappear unchanged.
        if self.check_hold {
            for (j, &(prev, was_stopped)) in self.prev.iter().enumerate() {
                if let (Some(held), true) = (prev, was_stopped) {
                    if outputs[j].value() != Some(held) {
                        return Err(Violation::DroppedUnderStop { held });
                    }
                }
            }
        }
        // Consumption check: port 0 carries the specified stream (multi
        // output shells replicate, so checking port 0 suffices for the
        // specs used here).
        if let (Some(v), false) = (outputs[0].value(), stops[0]) {
            let expected = self.spec.expected(self.next_out);
            if v != expected {
                let violation = if self.spec.is_shell() {
                    Violation::Incoherent { expected, saw: v }
                } else {
                    Violation::OrderOrSkip { expected, saw: v }
                };
                return Err(violation);
            }
            self.next_out += 1;
        }
        for (j, slot) in self.prev.iter_mut().enumerate() {
            *slot = (outputs[j].value(), stops[j]);
        }
        Ok(())
    }

    fn encode(&self) -> Vec<u64> {
        let mut v = vec![self.next_out, u64::from(self.check_hold)];
        for (t, s) in &self.prev {
            v.push(match t {
                Some(x) => x + 2,
                None => 0,
            });
            v.push(u64::from(*s));
        }
        v
    }
}

/// One composed exploration state.
#[derive(Debug, Clone)]
struct Composed {
    dut: Dut,
    envs: Vec<UpstreamEnv>,
    observer: Observer,
}

impl Composed {
    fn encode(&self) -> Vec<u64> {
        let mut v = self.dut.encode();
        for e in &self.envs {
            v.extend(e.encode());
        }
        v.extend(self.observer.encode());
        v
    }
}

/// Exhaustively explore `dut` under all appropriate environments that
/// emit at most `depth` tokens per input. Checks the paper's three
/// relay-station properties (order, no-skip, hold-on-stop) or three
/// shell properties (coherent data, order, no-skip) depending on the
/// device kind.
#[must_use]
pub fn explore(dut: Dut, depth: u64) -> Verdict {
    let n_in = dut.num_inputs();
    let n_out = dut.num_outputs();
    let observer = Observer::new(&dut);

    // Initial states: every combination of first-token validity.
    let mut queue: VecDeque<Composed> = VecDeque::new();
    let mut visited: HashSet<Vec<u64>> = HashSet::new();
    let mut parents: HashMap<Vec<u64>, (Vec<u64>, TraceStep)> = HashMap::new();
    for mask in 0..(1u32 << n_in) {
        let envs: Vec<UpstreamEnv> = (0..n_in)
            .map(|i| UpstreamEnv::new(mask & (1 << i) != 0))
            .collect();
        let c = Composed {
            dut: dut.clone(),
            envs,
            observer: observer.clone(),
        };
        if visited.insert(c.encode()) {
            queue.push_back(c);
        }
    }

    let mut transitions = 0usize;
    while let Some(state) = queue.pop_front() {
        let inputs: Vec<Token> = state.envs.iter().map(UpstreamEnv::offered).collect();
        // Branch over every stop choice and every next-validity choice.
        for stop_mask in 0..(1u32 << n_out) {
            let stops: Vec<bool> = (0..n_out).map(|j| stop_mask & (1 << j) != 0).collect();
            let outputs = state.dut.outputs(&inputs);
            for valid_mask in 0..(1u32 << n_in) {
                let choices: Vec<bool> = (0..n_in).map(|i| valid_mask & (1 << i) != 0).collect();
                let mut next = state.clone();
                transitions += 1;
                let step = TraceStep {
                    input_valid: choices.clone(),
                    output_stop: stops.clone(),
                    outputs: outputs.clone(),
                };
                if let Err(violation) = next.observer.observe(&outputs, &stops) {
                    let mut counterexample = vec![step];
                    let mut key = state.encode();
                    while let Some((parent, s)) = parents.get(&key) {
                        counterexample.push(s.clone());
                        key = parent.clone();
                    }
                    counterexample.reverse();
                    return Verdict {
                        holds: false,
                        states: visited.len(),
                        transitions,
                        violation: Some(violation),
                        counterexample,
                    };
                }
                // Clock device and environments.
                let dut_stops: Vec<bool> = (0..n_in)
                    .map(|i| next.dut.stop_upstream(i, &inputs, &stops))
                    .collect();
                next.dut.clock(&inputs, &stops);
                for (i, env) in next.envs.iter_mut().enumerate() {
                    env.clock(dut_stops[i], choices[i]);
                }
                // Depth bound: stop expanding once any environment has
                // emitted `depth` tokens.
                if next.envs.iter().any(|e| e.emitted() > depth) {
                    continue;
                }
                let key = next.encode();
                if visited.insert(key.clone()) {
                    parents.insert(key, (state.encode(), step));
                    queue.push_back(next);
                }
            }
        }
    }
    Verdict {
        holds: true,
        states: visited.len(),
        transitions,
        violation: None,
        counterexample: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_core::ProtocolVariant;

    #[test]
    fn full_relay_is_safe() {
        let v = explore(Dut::full_relay(), 6);
        assert!(v.holds, "violation: {:?}", v.violation);
        assert!(v.states > 50);
    }

    #[test]
    fn half_relay_is_safe() {
        let v = explore(Dut::half_relay(), 6);
        assert!(v.holds, "violation: {:?}", v.violation);
    }

    #[test]
    fn identity_shell_is_safe_in_both_variants() {
        for variant in ProtocolVariant::ALL {
            let v = explore(Dut::shell(ShellSpec::Identity, variant), 6);
            assert!(v.holds, "{variant}: {:?}", v.violation);
        }
    }

    #[test]
    fn accumulator_shell_is_coherent() {
        let v = explore(
            Dut::shell(ShellSpec::Accumulator, ProtocolVariant::Refined),
            6,
        );
        assert!(v.holds, "violation: {:?}", v.violation);
    }

    #[test]
    fn join_shell_is_safe() {
        let v = explore(Dut::shell(ShellSpec::Join2, ProtocolVariant::Refined), 5);
        assert!(v.holds, "violation: {:?}", v.violation);
    }

    #[test]
    fn naive_one_reg_station_is_caught() {
        let v = explore(Dut::naive_one_reg(), 6);
        assert!(!v.holds, "the mutant must violate safety");
        assert!(!v.counterexample.is_empty());
    }

    #[test]
    fn leaky_relay_is_caught_dropping_under_stop() {
        let v = explore(Dut::leaky_relay(), 6);
        assert!(!v.holds);
        assert!(
            matches!(
                v.violation,
                Some(Violation::DroppedUnderStop { .. }) | Some(Violation::OrderOrSkip { .. })
            ),
            "{:?}",
            v.violation
        );
    }

    #[test]
    fn violation_display_forms() {
        assert!(Violation::OrderOrSkip {
            expected: 1,
            saw: 3
        }
        .to_string()
        .contains("expected 1"));
        assert!(Violation::Incoherent {
            expected: 2,
            saw: 0
        }
        .to_string()
        .contains("incoherent"));
        assert!(Violation::DroppedUnderStop { held: 4 }
            .to_string()
            .contains("vanished"));
    }
}
