//! `lip-lint` — a static protocol analyzer for latency-insensitive
//! designs.
//!
//! The paper's implementation issues are *structural* facts: a stop
//! cannot back-propagate combinationally through a chain of simplified
//! shells, a loop needs a shell, and throughput is a closed-form
//! function of topology. This crate detects all of them at
//! netlist-construction time, without running the simulator:
//!
//! * [`rules::lint`] walks a [`Netlist`](lip_graph::Netlist) and emits
//!   structured [`Diagnostic`]s with rule ids (`LIP001`–`LIP008`),
//!   severities, node/channel spans (resolved through the
//!   [`SourceMap`] of the textual format) and
//!   machine-applicable [`FixIt`]s — `LIP006`–`LIP008` rest on the
//!   declared-environment facts: on live forests whose sinks never
//!   stop, the closed form `lip_analysis::forest_facts` (the paper's
//!   tree and feed-forward theorems, no simulation), elsewhere an
//!   exhaustive model-checking proof from `lip_mc`;
//! * [`fix::apply_fixits`] rewrites the netlist per those fixes
//!   (`--fix` in the CLI);
//! * [`render`] provides the human renderer and the versioned JSON
//!   document ([`LINT_SCHEMA_VERSION`]);
//! * the `lip_lint` binary drives it all over `.lid` files with
//!   `--deny`/`--allow` per rule.
//!
//! Statically predicted throughputs are exact: the engine's
//! [`rules::predicted_throughput`] agrees with
//! `lip_sim::measure_batch_periodic` as an equality of
//! [`Ratio`](lip_sim::Ratio)s, which the crate's test suite enforces over the
//! random-netlist corpus.
//!
//! # Example
//!
//! ```
//! use lip_graph::generate;
//! use lip_lint::{lint, RuleId, SourceMap};
//!
//! let fig1 = generate::fig1();
//! let diags = lint(&fig1.netlist, &SourceMap::new());
//! // Fig. 1's reconvergent imbalance is caught without simulating:
//! assert_eq!(diags[0].rule, RuleId::Lip004);
//! assert_eq!(
//!     diags[0].predicted_throughput,
//!     Some(lip_sim::Ratio::new(4, 5)),
//! );
//! ```

#![warn(missing_docs)]

pub mod diag;
pub mod fix;
pub mod render;
pub mod rules;

pub use diag::{DiagChannel, DiagNode, Diagnostic, RuleId, Severity};
pub use fix::{apply_fixits, apply_fixits_compiled, FixIt, FixReport};
pub use render::{render_human, render_json, LINT_SCHEMA_VERSION};
pub use rules::{lint, predicted_throughput};

// Re-exported so CLI-level callers need only this crate.
pub use lip_graph::SourceMap;

/// Per-rule allow/deny policy, mirroring the CLI's `--allow`/`--deny`
/// flags. `allow` wins over `deny`; an allowed rule's diagnostics are
/// dropped entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct LintConfig {
    denied: [bool; RuleId::ALL.len()],
    allowed: [bool; RuleId::ALL.len()],
}

impl LintConfig {
    /// Default policy: nothing denied, nothing allowed away.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Treat any diagnostic of `rule` as fatal.
    pub fn deny(&mut self, rule: RuleId) {
        self.denied[rule.index()] = true;
    }

    /// Treat every rule as fatal.
    pub fn deny_all(&mut self) {
        self.denied = [true; RuleId::ALL.len()];
    }

    /// Suppress diagnostics of `rule` entirely.
    pub fn allow(&mut self, rule: RuleId) {
        self.allowed[rule.index()] = true;
    }

    /// Suppress every rule (renders every file clean).
    pub fn allow_all(&mut self) {
        self.allowed = [true; RuleId::ALL.len()];
    }

    /// Is `rule` suppressed?
    #[must_use]
    pub fn is_allowed(&self, rule: RuleId) -> bool {
        self.allowed[rule.index()]
    }

    /// Is `rule` fatal (and not suppressed)?
    #[must_use]
    pub fn is_denied(&self, rule: RuleId) -> bool {
        self.denied[rule.index()] && !self.is_allowed(rule)
    }

    /// Drop suppressed diagnostics.
    #[must_use]
    pub fn filter(&self, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
        diags
            .into_iter()
            .filter(|d| !self.is_allowed(d.rule))
            .collect()
    }

    /// Should these (already filtered) diagnostics fail the run?
    /// `true` when any is `Error`-severity or of a denied rule.
    #[must_use]
    pub fn should_fail(&self, diags: &[Diagnostic]) -> bool {
        diags
            .iter()
            .any(|d| d.severity == Severity::Error || self.is_denied(d.rule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_graph::generate;

    #[test]
    fn allow_wins_over_deny() {
        let fig1 = generate::fig1();
        let diags = lint(&fig1.netlist, &SourceMap::new());
        let mut config = LintConfig::new();
        config.deny_all();
        assert!(config.should_fail(&diags));
        config.allow(RuleId::Lip004);
        config.allow(RuleId::Lip005);
        let filtered = config.filter(diags);
        assert!(filtered.is_empty());
        assert!(!config.should_fail(&filtered));
    }

    #[test]
    fn errors_fail_without_deny() {
        let mut n = lip_graph::Netlist::new();
        let r1 = n.add_relay(lip_core::RelayKind::Full);
        let r2 = n.add_relay(lip_core::RelayKind::Full);
        n.connect(r1, 0, r2, 0).unwrap();
        n.connect(r2, 0, r1, 0).unwrap();
        let diags = lint(&n, &SourceMap::new());
        let config = LintConfig::new();
        assert!(config.should_fail(&diags), "LIP002 is error severity");
    }
}
