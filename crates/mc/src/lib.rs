//! `lip-mc` — exact model checking of latency-insensitive protocol
//! systems.
//!
//! The simulator *samples* behaviours; this crate *enumerates* them.
//! Working over the same compiled [`SettleProgram`](lip_sim::SettleProgram)
//! semantics as every engine in the workspace, it interns each reachable
//! control state (relay occupancies, shell outputs, source/sink phase)
//! into the hash-consed [`StateArena`] of [`lip_sim::lasso`] — the same
//! store and key encoding the simulator's periodicity detectors use —
//! and proves properties of the whole reachable space:
//!
//! * [`check_declared`] — under the netlist's *declared* periodic
//!   environment the system is a deterministic FSM; the search finds its
//!   lasso (stem + period) and derives **exact sustained throughput**,
//!   **per-shell liveness** and **relay occupancy bounds** statically,
//!   with no simulation budget to tune;
//! * [`check_adversarial`] — breadth-first search over *every*
//!   environment choice per cycle proves **deadlock freedom against any
//!   environment**, or returns a minimal replayable [`Counterexample`].
//!   It is the workspace's one adversarial deadlock search;
//! * [`confirm_stuck`] / [`replay`] — every deadlock verdict is
//!   validated by replaying its schedule on the real
//!   [`SkeletonSystem`](lip_sim::SkeletonSystem) and watching it wedge;
//! * [`schedule_tracks`] — counterexamples render to Chrome-trace JSON
//!   via [`lip_obs::schedule_chrome_trace`].
//!
//! The `lip_mc` binary surfaces all of this on `.lid` netlist files;
//! the `lip-lint` rules LIP006/LIP007/LIP008 surface it as diagnostics.
//!
//! # Example
//!
//! Prove the Fig. 1 system live and derive its throughput statically:
//!
//! ```
//! use lip_graph::generate;
//! use lip_mc::{check_declared, McConfig};
//! use lip_sim::measure::Ratio;
//!
//! let fig1 = generate::fig1();
//! let proof = check_declared(&fig1.netlist, &McConfig::default()).unwrap();
//! assert!(proof.is_live());
//! assert_eq!(proof.system_throughput(), Some(Ratio::new(4, 5)));
//! ```

#![warn(missing_docs)]

pub mod adversarial;
pub mod declared;
pub mod schedule;

use std::fmt;

use lip_graph::NetlistError;

pub use adversarial::{check_adversarial, AdversarialProof};
pub use declared::{
    check_declared, check_declared_and_hand_off, check_declared_compiled, DeclaredProof,
};
pub use lip_sim::lasso::StateArena;
pub use schedule::{confirm_stuck, replay, schedule_tracks, Counterexample, EnvChoice, Schedule};

/// Search budget and options shared by both checkers.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Maximum distinct states to intern before giving up: the
    /// declared checker errors past it ([`McError::StateCap`]), the
    /// adversarial checker degrades to [`Verdict::Unknown`].
    pub max_states: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            max_states: 1 << 16,
        }
    }
}

/// Outcome of a deadlock-freedom proof attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No reachable state is wedged — proved over the whole space.
    DeadlockFree,
    /// A wedged state is reachable; a counterexample exists.
    Deadlock,
    /// The search was truncated by the state budget; no claim.
    Unknown,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::DeadlockFree => "deadlock-free",
            Verdict::Deadlock => "deadlock",
            Verdict::Unknown => "unknown",
        })
    }
}

/// Model-checking failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McError {
    /// The netlist did not elaborate.
    Netlist(NetlistError),
    /// An endpoint pattern is aperiodic, so the declared-mode state
    /// space is not finite. The adversarial checker still applies.
    Aperiodic,
    /// The reachable space exceeded [`McConfig::max_states`].
    StateCap {
        /// States interned when the cap was hit.
        visited: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The adversarial checker enumerates `2^(sources+sinks)`
    /// environment choices per state; the design has more endpoints
    /// than that enumeration supports.
    EnvironmentFanOut {
        /// Sources plus sinks in the design.
        endpoints: usize,
        /// The most endpoints the adversarial checker accepts.
        max: usize,
    },
}

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McError::Netlist(e) => write!(f, "netlist: {e}"),
            McError::Aperiodic => {
                f.write_str("aperiodic endpoint pattern: declared-mode state space is not finite")
            }
            McError::StateCap { visited, cap } => {
                write!(f, "state space exceeds cap ({visited} states, cap {cap})")
            }
            McError::EnvironmentFanOut { endpoints, max } => write!(
                f,
                "adversarial environment fan-out too large: {endpoints} sources and sinks \
                 (2^{endpoints} choices per state, at most {max} endpoints supported)"
            ),
        }
    }
}

impl std::error::Error for McError {}

impl From<NetlistError> for McError {
    fn from(e: NetlistError) -> Self {
        McError::Netlist(e)
    }
}
