//! Machine-applicable fixes, and the batch applier behind `--fix`.
//!
//! Channel ids are stable under [`Netlist::insert_relay_on_channel`]
//! (the producer keeps the original channel record), so a batch of
//! insertion fix-its collected from one lint pass can be applied
//! sequentially without re-linting in between.

use lip_analysis::{equalize, EqualizeReport};
use lip_core::RelayKind;
use lip_graph::{ChannelId, Netlist, NetlistError, NodeId};
use lip_sim::{NetlistDelta, SettleProgram};

use crate::diag::Diagnostic;

/// A machine-applicable fix attached to a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixIt {
    /// Insert a relay station of `kind` on `channel` (LIP001: a half
    /// relay station restores the minimum stop-saving memory).
    InsertRelay {
        /// The channel to break.
        channel: ChannelId,
        /// The relay station kind to insert.
        kind: RelayKind,
    },
    /// Equalize reconvergent path lengths with spare relay stations
    /// (LIP004), via [`lip_analysis::equalize()`].
    Equalize,
    /// Shrink an over-provisioned FIFO relay station to `capacity`
    /// (LIP007): the model checker proved the extra places unreachable,
    /// so the resize is behaviour-preserving.
    ResizeFifo {
        /// The FIFO relay station to shrink.
        node: NodeId,
        /// The proved-sufficient capacity (always >= 2).
        capacity: u8,
    },
}

/// What [`apply_fixits`] did to the netlist.
#[derive(Debug, Clone, Default)]
pub struct FixReport {
    /// Relay stations inserted by [`FixIt::InsertRelay`] fixes.
    pub inserted: Vec<NodeId>,
    /// FIFO relay stations shrunk by [`FixIt::ResizeFifo`] fixes.
    pub resized: Vec<NodeId>,
    /// Result of the equalization pass, if any fix requested one.
    pub equalized: Option<EqualizeReport>,
}

impl FixReport {
    /// Total number of relay stations added by all fixes.
    #[must_use]
    pub fn total_inserted(&self) -> usize {
        self.inserted.len()
            + self
                .equalized
                .as_ref()
                .map_or(0, EqualizeReport::total_inserted)
    }
}

/// Apply every fix carried by `diags` to `netlist`.
///
/// Relay insertions are applied first (channel ids are stable under
/// insertion), then at most one equalization pass — [`FixIt::Equalize`]
/// operates on the whole netlist, so duplicates collapse.
///
/// # Errors
///
/// Propagates [`NetlistError`] from the equalization pass (it refuses
/// cyclic netlists); insertions themselves cannot fail.
pub fn apply_fixits(
    netlist: &mut Netlist,
    diags: &[Diagnostic],
) -> Result<FixReport, NetlistError> {
    let mut report = FixReport::default();
    let mut want_equalize = false;
    for diag in diags {
        match diag.fix {
            Some(FixIt::InsertRelay { channel, kind }) => {
                report
                    .inserted
                    .push(netlist.insert_relay_on_channel(channel, kind));
            }
            Some(FixIt::ResizeFifo { node, capacity }) => {
                let delta = NetlistDelta::SetRelayKind {
                    node,
                    kind: RelayKind::Fifo(capacity),
                };
                delta.apply_to(netlist); // in-place rewrite, inserts nothing
                report.resized.push(node);
            }
            Some(FixIt::Equalize) => want_equalize = true,
            None => {}
        }
    }
    if want_equalize {
        report.equalized = Some(equalize(netlist)?);
    }
    Ok(report)
}

/// [`apply_fixits`] on the incremental-compilation path: `program` is
/// the already-compiled [`SettleProgram`] of `netlist`, and every relay
/// insertion is applied to both in lockstep as a
/// [`NetlistDelta`] patch (`compile.patch`) instead of deferring a full
/// recompile to the caller. Only the equalization pass — a whole-
/// netlist structural rewrite by `lip_analysis` — falls back to one
/// full recompile (`compile.full`) at the end.
///
/// Afterwards `program` equals `SettleProgram::compile(netlist)`
/// byte-for-byte, so it can key a
/// [`ThroughputCache`](lip_sim::ThroughputCache) or drive an engine
/// directly.
///
/// # Errors
///
/// Propagates [`NetlistError`] from the equalization pass or its
/// recompile; insertions themselves cannot fail.
pub fn apply_fixits_compiled(
    netlist: &mut Netlist,
    program: &mut SettleProgram,
    diags: &[Diagnostic],
) -> Result<FixReport, NetlistError> {
    let mut report = FixReport::default();
    let mut want_equalize = false;
    for diag in diags {
        match diag.fix {
            Some(FixIt::InsertRelay { channel, kind }) => {
                let delta = NetlistDelta::InsertRelay { channel, kind };
                let inserted = delta.apply_to(netlist).expect("insertion returns its id");
                program
                    .recompile_delta(&delta)
                    .expect("an insertion names no node");
                report.inserted.push(inserted);
            }
            Some(FixIt::ResizeFifo { node, capacity }) => {
                let delta = NetlistDelta::SetRelayKind {
                    node,
                    kind: RelayKind::Fifo(capacity),
                };
                delta.apply_to(netlist); // in-place rewrite, inserts nothing
                program
                    .recompile_delta(&delta)
                    .expect("the netlist edit accepted a relay station");
                report.resized.push(node);
            }
            Some(FixIt::Equalize) => want_equalize = true,
            None => {}
        }
    }
    if want_equalize {
        report.equalized = Some(equalize(netlist)?);
        *program = SettleProgram::compile(netlist)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{RuleId, Severity};
    use lip_graph::generate;

    fn dummy_diag(fix: Option<FixIt>) -> Diagnostic {
        Diagnostic {
            rule: RuleId::Lip001,
            severity: Severity::Warning,
            message: String::new(),
            primary: None,
            nodes: Vec::new(),
            channels: Vec::new(),
            predicted_throughput: None,
            fix,
            fix_label: None,
            related: Vec::new(),
        }
    }

    #[test]
    fn inserts_then_equalizes_once() {
        let fig1 = generate::fig1();
        let mut n = fig1.netlist;
        let first_channel = n.channels().next().unwrap().0;
        let diags = vec![
            dummy_diag(Some(FixIt::InsertRelay {
                channel: first_channel,
                kind: RelayKind::Half,
            })),
            dummy_diag(Some(FixIt::Equalize)),
            dummy_diag(Some(FixIt::Equalize)),
            dummy_diag(None),
        ];
        let before = n.node_count();
        let report = apply_fixits(&mut n, &diags).unwrap();
        assert_eq!(report.inserted.len(), 1);
        // Fig. 1 has imbalance 1, so equalization adds exactly one
        // spare relay station — once, not twice.
        assert_eq!(report.equalized.as_ref().unwrap().total_inserted(), 1);
        assert_eq!(report.total_inserted(), 2);
        assert_eq!(n.node_count(), before + 2);
        n.validate().unwrap();
    }

    #[test]
    fn compiled_applier_keeps_program_in_lockstep() {
        let fig1 = generate::fig1();
        let mut n = fig1.netlist;
        let mut program = SettleProgram::compile(&n).unwrap();
        let channels: Vec<_> = n.channels().map(|(id, _)| id).take(2).collect();
        let diags = vec![
            dummy_diag(Some(FixIt::InsertRelay {
                channel: channels[0],
                kind: RelayKind::Half,
            })),
            dummy_diag(Some(FixIt::InsertRelay {
                channel: channels[1],
                kind: RelayKind::Full,
            })),
            dummy_diag(Some(FixIt::Equalize)),
            dummy_diag(None),
        ];
        let plain_report;
        let fresh = {
            // Reference: the plain applier on a parallel copy.
            let mut m = n.clone();
            plain_report = apply_fixits(&mut m, &diags).unwrap();
            SettleProgram::compile(&m).unwrap()
        };
        let report = apply_fixits_compiled(&mut n, &mut program, &diags).unwrap();
        assert_eq!(report.inserted, plain_report.inserted);
        assert_eq!(report.total_inserted(), plain_report.total_inserted());
        assert_eq!(program, fresh, "patched program != fresh compile");
        assert_eq!(
            program.stable_structural_hash(),
            fresh.stable_structural_hash()
        );
    }

    #[test]
    fn resize_fifo_keeps_program_in_lockstep() {
        let chain = generate::chain(2, 1, RelayKind::Fifo(6));
        let mut n = chain.netlist;
        let mut program = SettleProgram::compile(&n).unwrap();
        let relay = n.relays()[0];
        let diags = vec![dummy_diag(Some(FixIt::ResizeFifo {
            node: relay,
            capacity: 2,
        }))];
        let report = apply_fixits_compiled(&mut n, &mut program, &diags).unwrap();
        assert_eq!(report.resized, vec![relay]);
        assert_eq!(report.total_inserted(), 0);
        assert!(matches!(
            n.node(relay).kind(),
            lip_graph::NodeKind::Relay {
                kind: RelayKind::Fifo(2)
            }
        ));
        assert_eq!(program, SettleProgram::compile(&n).unwrap());

        let mut plain = generate::chain(2, 1, RelayKind::Fifo(6)).netlist;
        let plain_report = apply_fixits(&mut plain, &diags).unwrap();
        assert_eq!(plain_report.resized, vec![relay]);
        assert_eq!(SettleProgram::compile(&plain).unwrap(), program);
    }
}
