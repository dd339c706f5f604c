//! The rule engine: every LIP rule, run over a [`Netlist`] plus the
//! [`SourceMap`] that locates its nodes and channels in the source
//! text (pass [`SourceMap::new`] for programmatic netlists — spans
//! simply come back empty).
//!
//! | rule   | finds                                                        | fix-it |
//! |--------|--------------------------------------------------------------|--------|
//! | LIP001 | simplified shells back-to-back (minimum-memory violation)    | insert half relay station |
//! | LIP002 | shell-free cycle of relay stations                           | — |
//! | LIP003 | environment-guaranteed deadlock (starved / stalled shells)   | — |
//! | LIP004 | reconvergent relay imbalance `i > 0`                         | equalize |
//! | LIP005 | throughput bottleneck cycle (minimum cycle ratio < 1)        | — |
//! | LIP006 | model-checked deadlock (exhaustive state-space proof)        | — |
//! | LIP007 | over-provisioned FIFO (proved occupancy bound < capacity)    | shrink fifo |
//! | LIP008 | environment-limited throughput proved below 1                | — |
//!
//! LIP006–LIP008 are backed by one exhaustive [`lip_mc::check_declared`]
//! pass over the declared environment, run on the program lint compiles
//! as its validity guard; they stay silent when that environment is
//! aperiodic or the reachable space exceeds the default budget, and
//! never contradict the structural rules — related findings
//! are cross-referenced through [`Diagnostic::related`].

use std::collections::VecDeque;
use std::sync::Arc;

use lip_analysis::model::{pattern_accept_rate, pattern_data_rate, MarkedGraph, ModelEdge};
use lip_core::RelayKind;
use lip_graph::{topology, ChannelId, Netlist, NodeId, NodeKind, SourceMap};
use lip_mc::{check_declared_compiled, DeclaredProof, McConfig};
use lip_sim::{Ratio, SettleProgram};

use crate::diag::{DiagChannel, DiagNode, Diagnostic, RuleId};
use crate::fix::FixIt;

/// Run every rule over `netlist` and return the findings, ordered by
/// rule code and then by primary span.
#[must_use]
pub fn lint(netlist: &Netlist, map: &SourceMap) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    lip001(netlist, map, &mut diags);
    lip002(netlist, map, &mut diags);
    lip003(netlist, map, &mut diags);
    // The marked-graph rules assume a structurally legal netlist; on a
    // broken one (combinational loops, open ports, shell-free rings)
    // the model is meaningless and LIP001/LIP002 already carry the
    // diagnosis.
    let illegal = diags.iter().any(|d| d.rule == RuleId::Lip002);
    // Compiling validates, so the program is the guard and the proof's
    // input at once.
    let program = if illegal {
        None
    } else {
        SettleProgram::compile(netlist).ok()
    };
    if let Some(program) = program {
        // One minimum-cycle-ratio pass serves both marked-graph rules.
        let bottleneck = MarkedGraph::new(netlist).binding_cycle();
        lip004(netlist, map, bottleneck.as_ref(), &mut diags);
        lip005(netlist, map, bottleneck.as_ref(), &mut diags);
        // The model-checked rules share one exhaustive state-space
        // pass. They go silent (never wrong) when the declared
        // environment is aperiodic or the space exceeds the budget.
        let cfg = McConfig::default();
        if let Ok(proof) = check_declared_compiled(netlist, Arc::new(program), &cfg) {
            lip006(netlist, map, &proof, &mut diags);
            lip007(netlist, map, &proof, &mut diags);
            lip008(&proof, &mut diags);
        }
        cross_link(&mut diags);
    }
    diags.sort_by_key(|d| (d.rule, d.primary));
    diags
}

/// Cross-reference rule pairs where one finding refines the other:
/// LIP006 is the model-checked upgrade of LIP003, LIP008 the
/// environment-aware refinement of LIP005. Only links pairs that both
/// fired on this run.
fn cross_link(diags: &mut [Diagnostic]) {
    const PAIRS: [(RuleId, RuleId); 2] = [
        (RuleId::Lip003, RuleId::Lip006),
        (RuleId::Lip005, RuleId::Lip008),
    ];
    for (a, b) in PAIRS {
        let has_a = diags.iter().any(|d| d.rule == a);
        let has_b = diags.iter().any(|d| d.rule == b);
        if !(has_a && has_b) {
            continue;
        }
        for d in diags.iter_mut() {
            if d.rule == a && !d.related.contains(&b) {
                d.related.push(b);
            }
            if d.rule == b && !d.related.contains(&a) {
                d.related.push(a);
            }
        }
    }
}

/// The steady-state system throughput the rule engine predicts:
/// the marked-graph minimum cycle ratio combined with every periodic
/// environment rate. `None` when an environment pattern is aperiodic
/// (nothing exact can be promised statically).
#[must_use]
pub fn predicted_throughput(netlist: &Netlist) -> Option<Ratio> {
    lip_analysis::predict_throughput(netlist)
}

fn node_ref(netlist: &Netlist, map: &SourceMap, id: NodeId) -> DiagNode {
    let name = netlist.node(id).name();
    DiagNode {
        id,
        name: if name.is_empty() {
            id.to_string()
        } else {
            name.to_owned()
        },
        span: map.node(id),
    }
}

fn channel_ref(netlist: &Netlist, map: &SourceMap, id: ChannelId) -> DiagChannel {
    let ch = netlist.channel(id);
    let from = node_ref(netlist, map, ch.producer.node);
    let to = node_ref(netlist, map, ch.consumer.node);
    DiagChannel {
        id,
        endpoints: format!(
            "{}:{} -> {}:{}",
            from.name, ch.producer.index, to.name, ch.consumer.index
        ),
        span: map.channel(id),
    }
}

fn first_span(nodes: &[DiagNode], channels: &[DiagChannel]) -> Option<lip_graph::Span> {
    channels
        .iter()
        .filter_map(|c| c.span)
        .chain(nodes.iter().filter_map(|n| n.span))
        .min()
}

/// LIP001 — two simplified shells wired back-to-back. The paper's
/// minimum-memory theorem: the simplified shell stores no stops, so
/// back-pressure would have to propagate combinationally through the
/// upstream shell; at least one stop-saving element (a half relay
/// station) is required between any two shells.
fn lip001(netlist: &Netlist, map: &SourceMap, out: &mut Vec<Diagnostic>) {
    for id in netlist.shell_to_shell_channels() {
        let ch = netlist.channel(id);
        let channel = channel_ref(netlist, map, id);
        let producer = node_ref(netlist, map, ch.producer.node);
        let consumer = node_ref(netlist, map, ch.consumer.node);
        let message = format!(
            "shells `{}` and `{}` are wired back-to-back with no stop-saving \
             element between them; a stop from `{1}` must be absorbed by at \
             least one memory element (minimum-memory theorem)",
            producer.name, consumer.name,
        );
        let fix = FixIt::InsertRelay {
            channel: id,
            kind: RelayKind::Half,
        };
        out.push(Diagnostic {
            rule: RuleId::Lip001,
            severity: RuleId::Lip001.default_severity(),
            message,
            primary: channel
                .span
                .or(first_span(std::slice::from_ref(&producer), &[])),
            nodes: vec![producer, consumer],
            fix_label: Some(format!(
                "insert a half relay station on `{}`",
                channel.endpoints
            )),
            channels: vec![channel],
            predicted_throughput: None,
            fix: Some(fix),
            related: Vec::new(),
        });
    }
}

/// LIP002 — a closed cycle of relay stations with no shell. Relay
/// stations have exactly one input and one output, so such a cycle is
/// a sealed ring: with a full or fifo station it holds no data forever
/// (nothing can ever enter), and an all-half ring is a combinational
/// data loop. Either way the loop is illegal LID.
fn lip002(netlist: &Netlist, map: &SourceMap, out: &mut Vec<Diagnostic>) {
    // The relay-only subgraph is functional (each relay has at most
    // one successor relay), so pointer-chasing with a visit state
    // finds every ring exactly once.
    let mut state = vec![0u8; netlist.node_count()]; // 0 new, 1 on path, 2 done
    for start in netlist.relays() {
        if state[start.index()] != 0 {
            continue;
        }
        let mut path: Vec<NodeId> = Vec::new();
        let mut cur = Some(start);
        while let Some(id) = cur {
            if state[id.index()] != 0 {
                break;
            }
            state[id.index()] = 1;
            path.push(id);
            cur = netlist
                .successors_iter(id)
                .find(|&s| netlist.node(s).kind().is_relay());
        }
        if let Some(hit) = cur {
            if state[hit.index()] == 1 {
                let at = path.iter().position(|&n| n == hit).unwrap_or(0);
                let ring: Vec<NodeId> = path[at..].to_vec();
                emit_lip002(netlist, map, &ring, out);
            }
        }
        for id in &path {
            state[id.index()] = 2;
        }
    }
}

fn emit_lip002(netlist: &Netlist, map: &SourceMap, ring: &[NodeId], out: &mut Vec<Diagnostic>) {
    let nodes: Vec<DiagNode> = ring.iter().map(|&id| node_ref(netlist, map, id)).collect();
    let names: Vec<&str> = nodes.iter().map(|n| n.name.as_str()).collect();
    let sealed = ring.iter().any(|&id| {
        matches!(
            netlist.node(id).kind(),
            NodeKind::Relay {
                kind: RelayKind::Full | RelayKind::Fifo(_)
            }
        )
    });
    let consequence = if sealed {
        "no data item can ever enter the ring, so it idles forever"
    } else {
        "the half stations' bypasses close a combinational data loop"
    };
    let message = format!(
        "cycle of {} relay stations contains no shell (`{}` back to `{}`); \
         a legal LID loop needs at least one shell — {consequence}",
        ring.len(),
        names.join(" -> "),
        names[0],
    );
    out.push(Diagnostic {
        rule: RuleId::Lip002,
        severity: RuleId::Lip002.default_severity(),
        message,
        primary: first_span(&nodes, &[]),
        nodes,
        channels: Vec::new(),
        predicted_throughput: None,
        fix: None,
        fix_label: None,
        related: Vec::new(),
    });
}

/// LIP003 — guaranteed deadlock: the declared environment statically
/// prevents progress. A source whose periodic void pattern never
/// presents data starves every shell downstream of it; a sink whose
/// periodic stop pattern never accepts stalls every shell upstream
/// (a shell fires only when none of its outputs is stopped). This is
/// exactly the condition under which `verify::liveness` reports dead
/// shells, checked without simulating.
fn lip003(netlist: &Netlist, map: &SourceMap, out: &mut Vec<Diagnostic>) {
    let zero = Ratio::new(0, 1);
    for (id, node) in netlist.nodes() {
        let (is_source, starved) = match node.kind() {
            NodeKind::Source { void_pattern } => {
                (true, pattern_data_rate(void_pattern) == Some(zero))
            }
            NodeKind::Sink { stop_pattern } => {
                (false, pattern_accept_rate(stop_pattern) == Some(zero))
            }
            _ => continue,
        };
        if !starved {
            continue;
        }
        let affected = reachable_shells(netlist, id, is_source);
        if affected.is_empty() {
            continue;
        }
        let blocker = node_ref(netlist, map, id);
        let message = if is_source {
            format!(
                "source `{}` never presents data (void rate 1); {} downstream \
                 shell(s) are guaranteed to starve — the system deadlocks",
                blocker.name,
                affected.len(),
            )
        } else {
            format!(
                "sink `{}` stops on every cycle (accept rate 0); {} upstream \
                 shell(s) are guaranteed to stall — the system deadlocks",
                blocker.name,
                affected.len(),
            )
        };
        let mut nodes = vec![blocker];
        nodes.extend(affected.iter().map(|&s| node_ref(netlist, map, s)));
        out.push(Diagnostic {
            rule: RuleId::Lip003,
            severity: RuleId::Lip003.default_severity(),
            message,
            primary: first_span(&nodes[..1], &[]),
            nodes,
            channels: Vec::new(),
            predicted_throughput: Some(zero),
            fix: None,
            fix_label: None,
            related: Vec::new(),
        });
    }
}

/// Shells reachable from `from` following channels forward
/// (`forward = true`) or backward.
fn reachable_shells(netlist: &Netlist, from: NodeId, forward: bool) -> Vec<NodeId> {
    let mut seen = vec![false; netlist.node_count()];
    seen[from.index()] = true;
    let mut queue = VecDeque::from([from]);
    let mut shells = Vec::new();
    while let Some(id) = queue.pop_front() {
        let mut visit = |n: NodeId| {
            if !seen[n.index()] {
                seen[n.index()] = true;
                if netlist.node(n).kind().is_shell() {
                    shells.push(n);
                }
                queue.push_back(n);
            }
        };
        if forward {
            netlist.successors_iter(id).for_each(&mut visit);
        } else {
            netlist.predecessors_iter(id).for_each(&mut visit);
        }
    }
    shells.sort_unstable();
    shells
}

/// The marked-graph bottleneck ([`MarkedGraph::binding_cycle`]): the
/// binding cycle and its ratio, the minimum cycle ratio.
type Bottleneck = (Vec<ModelEdge>, Ratio);

/// LIP004 — reconvergent relay imbalance on a feed-forward design:
/// converging paths into a join differ by `i` relay stations, costing
/// `(m − i)/m` of the throughput until equalized.
fn lip004(
    netlist: &Netlist,
    map: &SourceMap,
    bottleneck: Option<&Bottleneck>,
    out: &mut Vec<Diagnostic>,
) {
    // Relay-count imbalance alone can be harmless (a half station adds
    // a place but no forward latency), so only report joins whose
    // reconvergence demonstrably costs throughput: in a feed-forward
    // design, a minimum cycle ratio below 1 comes from nothing else.
    let Some(&(_, predicted)) = bottleneck else {
        return;
    };
    if !topology::is_acyclic(netlist) {
        return; // feedback loops adapt by resizing, not equalization
    }
    let imbalanced: Vec<(NodeId, usize)> = topology::join_nodes(netlist)
        .into_iter()
        .filter_map(|j| {
            topology::join_imbalance(netlist, j)
                .filter(|&i| i > 0)
                .map(|i| (j, i))
        })
        .collect();
    for (join, i) in imbalanced {
        let node = node_ref(netlist, map, join);
        let message = format!(
            "join `{}` reconverges paths whose relay counts differ by i = {i}; \
             uncompensated reconvergence limits steady-state throughput to \
             {predicted} (the paper's (m - i)/m)",
            node.name,
        );
        out.push(Diagnostic {
            rule: RuleId::Lip004,
            severity: RuleId::Lip004.default_severity(),
            message,
            primary: node.span,
            nodes: vec![node],
            channels: Vec::new(),
            predicted_throughput: Some(predicted),
            fix: Some(FixIt::Equalize),
            fix_label: Some(
                "equalize path lengths with spare relay stations (analysis::equalize)".to_owned(),
            ),
            related: Vec::new(),
        });
    }
}

/// LIP005 — the slowest sub-topology dictates global throughput: a
/// minimum-cycle-ratio pass over the marked-graph model names the
/// binding cycle whenever the structural steady state is below 1
/// token/cycle.
fn lip005(
    netlist: &Netlist,
    map: &SourceMap,
    bottleneck: Option<&Bottleneck>,
    out: &mut Vec<Diagnostic>,
) {
    let Some(&(ref cycle, ratio)) = bottleneck else {
        return;
    };
    let mut ids: Vec<NodeId> = Vec::new();
    for edge in cycle {
        if !ids.contains(&edge.from) {
            ids.push(edge.from);
        }
    }
    let nodes: Vec<DiagNode> = ids.iter().map(|&id| node_ref(netlist, map, id)).collect();
    let names: Vec<&str> = nodes.iter().map(|n| n.name.as_str()).collect();
    let message = format!(
        "throughput bottleneck: the cycle through `{}` sustains at most \
         {ratio} tokens/cycle, and the slowest sub-topology dictates the \
         global throughput",
        names.join(" -> "),
    );
    out.push(Diagnostic {
        rule: RuleId::Lip005,
        severity: RuleId::Lip005.default_severity(),
        message,
        primary: first_span(&nodes, &[]),
        nodes,
        channels: Vec::new(),
        predicted_throughput: Some(ratio),
        fix: None,
        fix_label: None,
        related: Vec::new(),
    });
}

/// LIP006 — model-checked deadlock: the exhaustive declared-environment
/// search proved one or more shells never fire once the steady state is
/// entered. Unlike LIP003 this is decided over the actual reachable
/// state space, so it also catches protocol-level wedges whose endpoint
/// patterns look live.
fn lip006(netlist: &Netlist, map: &SourceMap, proof: &DeclaredProof, out: &mut Vec<Diagnostic>) {
    if proof.is_live() {
        return;
    }
    let full = proof.deadlock();
    let nodes: Vec<DiagNode> = proof
        .dead_shells
        .iter()
        .map(|&s| node_ref(netlist, map, s))
        .collect();
    let names: Vec<&str> = nodes.iter().map(|n| n.name.as_str()).collect();
    let message = if full {
        format!(
            "model checker proved whole-system deadlock: after cycle {} none \
             of the {} shell(s) ever fires again (all {} reachable states \
             searched)",
            proof.stem, proof.shell_count, proof.states,
        )
    } else {
        format!(
            "model checker proved partial deadlock: shell(s) `{}` never fire \
             once the steady state is entered at cycle {} (all {} reachable \
             states searched)",
            names.join("`, `"),
            proof.stem,
            proof.states,
        )
    };
    out.push(Diagnostic {
        rule: RuleId::Lip006,
        severity: RuleId::Lip006.default_severity(),
        message,
        primary: first_span(&nodes, &[]),
        nodes,
        channels: Vec::new(),
        predicted_throughput: full.then(|| Ratio::new(0, 1)),
        fix: None,
        fix_label: None,
        related: Vec::new(),
    });
}

/// LIP007 — over-provisioned FIFO: the model checker proved a maximum
/// reachable occupancy strictly below what the configured capacity
/// admits. Shrinking to one place above the proved bound is
/// behaviour-preserving — a FIFO asserts stop only when completely
/// full, and the search proved that fill level unreachable.
fn lip007(netlist: &Netlist, map: &SourceMap, proof: &DeclaredProof, out: &mut Vec<Diagnostic>) {
    for &(id, occ, cap) in &proof.relay_bounds {
        if !matches!(
            netlist.node(id).kind(),
            NodeKind::Relay {
                kind: RelayKind::Fifo(_)
            }
        ) {
            continue;
        }
        let tight = (occ + 1).max(2);
        if cap <= tight {
            continue;
        }
        let node = node_ref(netlist, map, id);
        let message = format!(
            "fifo relay station `{}` has capacity {cap} but a proved maximum \
             reachable occupancy of {occ}; {tight} place(s) suffice under the \
             declared environment",
            node.name,
        );
        let fix_label = Some(format!("shrink `{}` to fifo:{tight}", node.name));
        out.push(Diagnostic {
            rule: RuleId::Lip007,
            severity: RuleId::Lip007.default_severity(),
            message,
            primary: node.span,
            nodes: vec![node],
            channels: Vec::new(),
            predicted_throughput: None,
            fix: Some(FixIt::ResizeFifo {
                node: id,
                capacity: u8::try_from(tight).expect("fifo capacity fits u8"),
            }),
            fix_label,
            related: Vec::new(),
        });
    }
}

/// LIP008 — environment-limited throughput: the model checker proved a
/// sustained rate below 1 token/cycle that the structural bottleneck
/// rule (LIP005) either misses entirely (minimum cycle ratio 1) or
/// predicts differently. Either way the declared environment, not the
/// topology, is the binding constraint. Suppressed when any shell is
/// dead — LIP006 already carries that stronger verdict.
fn lip008(proof: &DeclaredProof, out: &mut Vec<Diagnostic>) {
    let Some(proved) = proof.system_throughput() else {
        return;
    };
    if proved.num() >= proved.den() || !proof.is_live() {
        return;
    }
    let structural = out
        .iter()
        .find(|d| d.rule == RuleId::Lip005)
        .and_then(|d| d.predicted_throughput);
    if structural == Some(proved) {
        return;
    }
    let message = match structural {
        Some(s) => format!(
            "model checker proved sustained throughput {proved}, but the \
             structural bottleneck analysis predicts {s}; the declared \
             environment is the binding constraint",
        ),
        None => format!(
            "model checker proved sustained throughput {proved} although no \
             structural bottleneck exists; the declared environment alone \
             limits the rate",
        ),
    };
    out.push(Diagnostic {
        rule: RuleId::Lip008,
        severity: RuleId::Lip008.default_severity(),
        message,
        primary: None,
        nodes: Vec::new(),
        channels: Vec::new(),
        predicted_throughput: Some(proved),
        fix: None,
        fix_label: None,
        related: Vec::new(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_core::pearl::IdentityPearl;
    use lip_core::Pattern;
    use lip_graph::generate;

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule.code()).collect()
    }

    #[test]
    fn fig1_fires_lip004_and_lip005_only() {
        let fig1 = generate::fig1();
        let diags = lint(&fig1.netlist, &SourceMap::new());
        assert_eq!(codes(&diags), ["LIP004", "LIP005"]);
        let expected = Ratio::new(4, 5);
        assert_eq!(diags[0].predicted_throughput, Some(expected));
        assert_eq!(diags[1].predicted_throughput, Some(expected));
        assert!(matches!(diags[0].fix, Some(FixIt::Equalize)));
    }

    #[test]
    fn back_to_back_shells_fire_lip001() {
        let mut n = Netlist::new();
        let s = n.add_source("in");
        let a = n.add_shell("a", IdentityPearl::new());
        let b = n.add_shell("b", IdentityPearl::new());
        let t = n.add_sink("out");
        n.connect(s, 0, a, 0).unwrap();
        let ab = n.connect(a, 0, b, 0).unwrap();
        n.connect(b, 0, t, 0).unwrap();
        let diags = lint(&n, &SourceMap::new());
        assert_eq!(codes(&diags), ["LIP001"]);
        assert_eq!(
            diags[0].fix,
            Some(FixIt::InsertRelay {
                channel: ab,
                kind: RelayKind::Half
            })
        );
        assert!(diags[0].message.contains("`a`"));
    }

    #[test]
    fn relay_ring_fires_lip002() {
        let mut n = Netlist::new();
        let r1 = n.add_relay(RelayKind::Full);
        let r2 = n.add_relay(RelayKind::Full);
        n.connect(r1, 0, r2, 0).unwrap();
        n.connect(r2, 0, r1, 0).unwrap();
        let diags = lint(&n, &SourceMap::new());
        assert_eq!(codes(&diags), ["LIP002"]);
        assert_eq!(diags[0].nodes.len(), 2);
        assert!(diags[0].message.contains("no shell"));
    }

    #[test]
    fn dead_environment_fires_lip003() {
        let mut n = Netlist::new();
        let s = n.add_source_with_pattern("in", Pattern::Always); // always void
        let a = n.add_shell("a", IdentityPearl::new());
        let t = n.add_sink("out");
        n.connect(s, 0, a, 0).unwrap();
        n.connect(a, 0, t, 0).unwrap();
        let diags = lint(&n, &SourceMap::new());
        // LIP006 (the model-checked proof) corroborates the structural
        // LIP003 verdict, and the two findings cross-reference.
        assert_eq!(codes(&diags), ["LIP003", "LIP006"]);
        assert_eq!(diags[0].predicted_throughput, Some(Ratio::new(0, 1)));
        assert!(diags[0].message.contains("starve"));
        assert_eq!(diags[0].related, [RuleId::Lip006]);
        assert_eq!(diags[1].related, [RuleId::Lip003]);
        assert_eq!(diags[1].predicted_throughput, Some(Ratio::new(0, 1)));
        assert!(diags[1].message.contains("whole-system deadlock"));
    }

    #[test]
    fn stopped_sink_fires_lip003() {
        let mut n = Netlist::new();
        let s = n.add_source("in");
        let a = n.add_shell("a", IdentityPearl::new());
        let t = n.add_sink_with_pattern("out", Pattern::Always); // always stop
        n.connect(s, 0, a, 0).unwrap();
        n.connect(a, 0, t, 0).unwrap();
        let diags = lint(&n, &SourceMap::new());
        assert_eq!(codes(&diags), ["LIP003", "LIP006"]);
        assert!(diags[0].message.contains("stall"));
    }

    #[test]
    fn oversized_fifo_fires_lip007_with_resize_fix() {
        // Chain relays never hold more than one item at full rate, so
        // every fifo:6 (one per gap) is provably over-provisioned.
        let chain = generate::chain(2, 1, RelayKind::Fifo(6));
        let diags = lint(&chain.netlist, &SourceMap::new());
        assert_eq!(codes(&diags), ["LIP007", "LIP007", "LIP007"]);
        let Some(FixIt::ResizeFifo { node, capacity }) = diags[0].fix else {
            panic!("LIP007 must carry a resize fix");
        };
        assert_eq!(capacity, 2);
        // Applying the fixes silences the rule without changing behavior.
        let mut fixed = chain.netlist.clone();
        let report = crate::fix::apply_fixits(&mut fixed, &diags).unwrap();
        assert_eq!(report.resized.len(), 3);
        assert!(matches!(
            fixed.node(node).kind(),
            NodeKind::Relay {
                kind: RelayKind::Fifo(2)
            }
        ));
        assert!(lint(&fixed, &SourceMap::new()).is_empty());
    }

    #[test]
    fn environment_limited_throughput_fires_lip008() {
        // Structurally this chain sustains 1 token/cycle (no LIP005),
        // but the source only offers data every other cycle: the model
        // checker proves the environment-limited rate 1/2.
        let mut n = Netlist::new();
        let s = n.add_source_with_pattern(
            "in",
            Pattern::EveryNth {
                period: 2,
                phase: 0,
            },
        );
        let a = n.add_shell("a", IdentityPearl::new());
        let t = n.add_sink("out");
        n.connect(s, 0, a, 0).unwrap();
        n.connect(a, 0, t, 0).unwrap();
        let diags = lint(&n, &SourceMap::new());
        assert_eq!(codes(&diags), ["LIP008"]);
        assert_eq!(diags[0].predicted_throughput, Some(Ratio::new(1, 2)));
        assert!(diags[0].message.contains("declared environment"));
        assert!(diags[0].related.is_empty()); // no LIP005 to link to
    }

    #[test]
    fn ring_fires_lip005_with_loop_formula() {
        // S = 2 shells, R = 3 relays: T = S/(S+R) = 2/5. The generator
        // puts every relay on the closing arc, so the two shells are
        // also back-to-back and LIP001 fires alongside the bottleneck.
        let ring = generate::ring(2, 3, RelayKind::Full);
        let diags = lint(&ring.netlist, &SourceMap::new());
        assert_eq!(codes(&diags), ["LIP001", "LIP005"]);
        let bottleneck = &diags[1];
        assert_eq!(bottleneck.predicted_throughput, Some(Ratio::new(2, 5)));
    }

    #[test]
    fn clean_designs_lint_clean() {
        // A tree is the paper's optimal topology: T = 1, nothing fires.
        let tree = generate::tree(2, 2, 1);
        assert!(lint(&tree.netlist, &SourceMap::new()).is_empty());
        let chain = generate::chain(3, 2, RelayKind::Full);
        assert!(lint(&chain.netlist, &SourceMap::new()).is_empty());
    }
}
