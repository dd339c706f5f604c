//! Formal verification of latency-insensitive protocol blocks — the
//! paper's SMV work, rebuilt as an explicit-state explorer.
//!
//! * [`explore`] — exhaustive breadth-first search over a block composed
//!   with the most general *appropriate environment* (inputs hold their
//!   values on asserted stops; valid inputs are ordered), with a safety
//!   observer encoding the paper's properties;
//! * [`props`] — the six obligations (three per shell,
//!   three per relay station) as a reproducible report, including two
//!   mutants whose counterexamples demonstrate the minimum-memory
//!   theorem: a one-register station with a registered stop provably
//!   loses data;
//! * [`liveness`] — the paper's three topology-level
//!   deadlock statements, checked by its own skeleton-simulation recipe
//!   over a generated corpus.
//!
//! Whole-system deadlock freedom against every environment is proved
//! exhaustively by `lip_mc::check_adversarial`.
//!
//! # Example
//!
//! ```
//! use lip_verify::{explore, Dut};
//!
//! // The full relay station satisfies all three properties...
//! let verdict = explore(Dut::full_relay(), 5);
//! assert!(verdict.holds);
//!
//! // ...while the naive one-register station the paper rules out is
//! // caught with a counterexample trace.
//! let verdict = explore(Dut::naive_one_reg(), 5);
//! assert!(!verdict.holds);
//! assert!(!verdict.counterexample.is_empty());
//! ```

#![warn(missing_docs)]

mod dut;
mod env;
pub mod equivalence;
mod explore;
pub mod liveness;
pub mod props;

pub use dut::{Dut, ShellSpec};
pub use env::UpstreamEnv;
pub use equivalence::{check_latency_insensitivity, EquivalenceReport};
pub use explore::{explore, TraceStep, Verdict, Violation};
pub use props::{verify_all, PropertyResult, RELAY_PROPERTIES, SHELL_PROPERTIES};
