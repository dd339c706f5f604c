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
//! LIP006–LIP008 read the declared-environment facts: per-shell
//! liveness, system throughput and relay occupancy bounds. Lint tries
//! the closed form first: on a live forest whose sinks never stop,
//! [`forest_facts`] derives them from the topology and no proof runs.
//! Everything else — a join or a loop, a sink that ever stops, or a
//! shell that would be dead (LIP006 reports the proof's state count) —
//! runs one exhaustive declared-environment proof through
//! [`lip_mc::check_declared_and_hand_off`]. The flight-recorder
//! counters `lint.facts.formula` and `lint.facts.proof` record which
//! path decided. The proof stays silent when the environment is
//! aperiodic or the reachable space exceeds the default budget; the
//! closed form has no budget. Neither contradicts the structural rules
//! — related findings are cross-referenced through
//! [`Diagnostic::related`].
//!
//! Lint elaborates once for the whole pass. Both paths validate first,
//! which is free when the caller has just validated the same netlist
//! ([`Netlist::validate`] keeps its last stamp). The proof compiles
//! through [`SettleProgram::compile_shared`](lip_sim::SettleProgram::compile_shared),
//! which keeps the program for the pass's later compiles, and hands
//! the proof off: the caller's next `check_declared` of this netlist
//! under the default budget takes it instead of proving again. The
//! marked-graph rules read [`netlist_binding_cycle`], the solve the
//! batch measurement's binding-cycle lag reuses.

use std::collections::VecDeque;

use lip_analysis::model::{
    netlist_binding_cycle, pattern_accept_rate, pattern_data_rate, ModelEdge,
};
use lip_analysis::{forest_facts, ForestFacts};
use lip_core::RelayKind;
use lip_graph::{topology, ChannelId, Netlist, NodeId, NodeKind, SourceMap};
use lip_mc::{check_declared_and_hand_off, DeclaredProof, McConfig};
use lip_sim::Ratio;

use crate::diag::{DiagChannel, DiagNode, Diagnostic, RuleId};
use crate::fix::FixIt;

/// Run every rule over `netlist` and return the findings, ordered by
/// rule code and then by primary span.
#[must_use]
pub fn lint(netlist: &Netlist, map: &SourceMap) -> Vec<Diagnostic> {
    lint_decided(netlist, map).0
}

/// [`lint`], plus the flight-recorder counter naming which evidence
/// decided the declared-environment rules, `lint.facts.formula` or
/// `lint.facts.proof` (`None` when the netlist is illegal or invalid
/// and they did not run). That counter is bumped by one.
fn lint_decided(netlist: &Netlist, map: &SourceMap) -> (Vec<Diagnostic>, Option<&'static str>) {
    let mut diags = Vec::new();
    lip001(netlist, map, &mut diags);
    lip002(netlist, map, &mut diags);
    lip003(netlist, map, &mut diags);
    // The marked-graph rules assume a structurally legal netlist; on a
    // broken one (combinational loops, open ports, shell-free rings)
    // the model is meaningless and LIP001/LIP002 already carry the
    // diagnosis.
    let illegal = diags.iter().any(|d| d.rule == RuleId::Lip002);
    let decided = if illegal {
        None
    } else {
        declared_rules(netlist, map, &mut diags)
    };
    diags.sort_by_key(|d| (d.rule, d.primary));
    (diags, decided)
}

/// The rules that need a valid netlist: the marked-graph pair
/// LIP004/LIP005 and the declared-environment trio LIP006–LIP008.
///
/// A live forest whose sinks never stop takes the closed form and no
/// proof runs. Anything else — the formula declines, or some shell
/// would be dead, whose LIP006 message reports the proof's state count
/// — runs the exhaustive proof and hands it off to the caller's next
/// `check_declared`. The proof goes silent (never wrong) when the
/// declared environment is aperiodic or the space exceeds the default
/// budget.
fn declared_rules(
    netlist: &Netlist,
    map: &SourceMap,
    diags: &mut Vec<Diagnostic>,
) -> Option<&'static str> {
    let facts = if formula_enabled() {
        forest_facts(netlist).filter(ForestFacts::is_live)
    } else {
        None
    };
    netlist.validate().ok()?;
    // One minimum-cycle-ratio pass serves both marked-graph rules.
    let bottleneck = netlist_binding_cycle(netlist);
    lip004(netlist, map, bottleneck.as_ref(), diags);
    lip005(netlist, map, bottleneck.as_ref(), diags);
    let counter = match facts {
        Some(facts) => {
            lip007(netlist, map, &facts.relay_bounds, diags);
            lip008(
                FORMULA_PROVES,
                facts.system_throughput(),
                facts.is_live(),
                diags,
            );
            "lint.facts.formula"
        }
        None => {
            // A declined proof (aperiodic, over budget) leaves the
            // rules silent.
            let _ = check_declared_and_hand_off(netlist, &McConfig::default(), |proof| {
                lip006(netlist, map, proof, diags);
                lip007(netlist, map, &proof.relay_bounds, diags);
                lip008(
                    CHECKER_PROVES,
                    proof.system_throughput(),
                    proof.is_live(),
                    diags,
                );
            });
            "lint.facts.proof"
        }
    };
    cross_link(diags);
    lip_obs::flight::global_add(counter, 1);
    Some(counter)
}

/// Whether lint may decide LIP006–LIP008 by [`forest_facts`]. Tests can
/// switch the formula off to compare against the proof.
fn formula_enabled() -> bool {
    #[cfg(test)]
    if tests::FORCE_PROOF.get() {
        return false;
    }
    true
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

/// The marked-graph bottleneck ([`netlist_binding_cycle`]): the
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

/// LIP007 — over-provisioned FIFO: the declared facts (closed form or
/// proof) bound the reachable occupancy strictly below what the
/// configured capacity admits. Shrinking to one place above the proved
/// bound is behaviour-preserving — a FIFO asserts stop only when
/// completely full, and that fill level is proved unreachable.
fn lip007(
    netlist: &Netlist,
    map: &SourceMap,
    relay_bounds: &[(NodeId, u32, u32)],
    out: &mut Vec<Diagnostic>,
) {
    for &(id, occ, cap) in relay_bounds {
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

/// How LIP008 names the closed-form [`forest_facts`] as its evidence.
const FORMULA_PROVES: &str = "closed-form forest facts prove";
/// How LIP008 names the exhaustive proof as its evidence.
const CHECKER_PROVES: &str = "model checker proved";

/// LIP008 — environment-limited throughput: the declared facts prove a
/// sustained rate below 1 token/cycle that the structural bottleneck
/// rule (LIP005) either misses entirely (minimum cycle ratio 1) or
/// predicts differently. Either way the declared environment, not the
/// topology, is the binding constraint. Suppressed when any shell is
/// dead — LIP006 already carries that stronger verdict. `prover` names
/// the path that decided: [`FORMULA_PROVES`] or [`CHECKER_PROVES`].
fn lip008(prover: &str, throughput: Option<Ratio>, live: bool, out: &mut Vec<Diagnostic>) {
    let Some(proved) = throughput else {
        return;
    };
    if proved.num() >= proved.den() || !live {
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
            "{prover} sustained throughput {proved}, but the \
             structural bottleneck analysis predicts {s}; the declared \
             environment is the binding constraint",
        ),
        None => format!(
            "{prover} sustained throughput {proved} although no \
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
    use std::cell::Cell;

    use super::*;
    use lip_core::pearl::IdentityPearl;
    use lip_core::Pattern;
    use lip_graph::{generate, parse_netlist_spanned};

    thread_local! {
        /// Turns the closed-form facts off on this thread, so every
        /// valid design takes the compile + proof path.
        pub(super) static FORCE_PROOF: Cell<bool> = const { Cell::new(false) };
    }

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

    fn golden(name: &str) -> (Netlist, SourceMap) {
        let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let parsed = parse_netlist_spanned(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
        (parsed.netlist, parsed.source_map)
    }

    const FORMULA: Option<&str> = Some("lint.facts.formula");
    const PROOF: Option<&str> = Some("lint.facts.proof");

    fn decided(netlist: &Netlist, map: &SourceMap) -> Option<&'static str> {
        lint_decided(netlist, map).1
    }

    #[test]
    fn live_forests_take_the_formula_and_the_rest_the_proof() {
        let none = SourceMap::new();
        let chain = generate::chain(64, 4, RelayKind::Full).netlist;
        assert_eq!(decided(&chain, &none), FORMULA);
        let tree = generate::tree(6, 2, 1).netlist;
        assert_eq!(decided(&tree, &none), FORMULA);
        let (fifo, map) = golden("lip007.lid");
        assert_eq!(decided(&fifo, &map), FORMULA);

        let ring = generate::ring(4, 4, RelayKind::Full).netlist;
        assert_eq!(decided(&ring, &none), PROOF);
        assert_eq!(decided(&generate::fig1().netlist, &none), PROOF);
        // A sink that always stops: not the formula's precondition.
        let (stopped, map) = golden("lip006.lid");
        assert_eq!(decided(&stopped, &map), PROOF);
        // A forest whose source never offers data: its shells are dead,
        // and LIP006 reports the proof's state count.
        let mut dead = generate::tree(3, 2, 1).netlist;
        let source = dead.sources()[0];
        assert!(dead.set_source_pattern(source, Pattern::Always));
        assert_eq!(decided(&dead, &none), PROOF);
        // A shell-free ring is illegal: neither path runs.
        let (ring, map) = golden("lip002.lid");
        assert_eq!(decided(&ring, &map), None);

        // LIP008 names the path that decided it.
        let lip008 = |netlist: &Netlist, map: &SourceMap| {
            let diags = lint(netlist, map);
            diags
                .iter()
                .find(|d| d.rule == RuleId::Lip008)
                .map(|d| d.message.clone())
        };
        let (limited, map) = golden("lip008.lid");
        assert_eq!(decided(&limited, &map), FORMULA);
        let by_formula = lip008(&limited, &map).unwrap();
        assert!(by_formula.starts_with(FORMULA_PROVES), "{by_formula}");
        FORCE_PROOF.set(true);
        let by_proof = lip008(&limited, &map).unwrap();
        FORCE_PROOF.set(false);
        assert!(by_proof.starts_with(CHECKER_PROVES), "{by_proof}");
        // A period far past the proof's state budget: only the closed
        // form decides, and it must not credit the model checker.
        let parsed = parse_netlist_spanned(
            "source in voids=every:400000000:0\nshell a identity\nsink out\n\
             connect in:0 -> a:0\nconnect a:0 -> out:0\n",
        )
        .unwrap();
        let (slow, map) = (parsed.netlist, parsed.source_map);
        assert_eq!(decided(&slow, &map), FORMULA);
        let message = lip008(&slow, &map).unwrap();
        assert!(message.starts_with(FORMULA_PROVES), "{message}");
        assert!(message.contains("399999999/400000000"), "{message}");
        FORCE_PROOF.set(true);
        assert_eq!(lip008(&slow, &map), None, "the proof exceeds its budget");
        FORCE_PROOF.set(false);
    }

    /// Lint `netlist` with the formula on and off; both must report the
    /// same diagnostics but for LIP008 naming its evidence. Returns
    /// whether the formula decided.
    fn assert_formula_invisible(what: &str, netlist: &Netlist, map: &SourceMap) -> bool {
        let (with, facts) = lint_decided(netlist, map);
        FORCE_PROOF.set(true);
        let (without, fallback) = lint_decided(netlist, map);
        FORCE_PROOF.set(false);
        assert_ne!(fallback, FORMULA, "{what}: hook must hold");
        let with = format!("{with:?}").replace(FORMULA_PROVES, CHECKER_PROVES);
        assert_eq!(with, format!("{without:?}"), "{what}");
        facts == FORMULA
    }

    #[test]
    fn the_formula_changes_no_diagnostic() {
        let patterns = [
            Pattern::Never,
            Pattern::EveryNth {
                period: 2,
                phase: 0,
            },
            Pattern::EveryNth {
                period: 3,
                phase: 1,
            },
            Pattern::Cyclic(vec![true, false, false, true, true]),
            Pattern::Always,
        ];
        let mut corpus: Vec<(String, Netlist)> = Vec::new();
        for kind in [
            RelayKind::Full,
            RelayKind::Half,
            RelayKind::Fifo(2),
            RelayKind::Fifo(3),
            RelayKind::Fifo(6),
        ] {
            for shells in 1..=3 {
                for relays in 0..=3 {
                    let chain = generate::chain(shells, relays, kind).netlist;
                    corpus.push((format!("chain({shells},{relays},{kind})"), chain));
                }
            }
        }
        for depth in 1..=4 {
            for fanout in 1..=3 {
                for relays in 0..=2 {
                    let tree = generate::tree(depth, fanout, relays).netlist;
                    corpus.push((format!("tree({depth},{fanout},{relays})"), tree));
                }
            }
        }
        for seed in 0..200 {
            let (_, netlist) = generate::random_family(seed);
            corpus.push((format!("random {seed}"), netlist));
        }
        let none = SourceMap::new();
        let mut formula = 0;
        for (name, netlist) in &corpus {
            for pattern in &patterns {
                let mut n = netlist.clone();
                for id in n.sources() {
                    assert!(n.set_source_pattern(id, pattern.clone()));
                }
                let what = format!("{name} voids={pattern:?}");
                formula += usize::from(assert_formula_invisible(&what, &n, &none));
            }
        }
        assert!(formula >= 500, "the formula decided only {formula} designs");

        let dir = format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"));
        let mut goldens = 0;
        for entry in std::fs::read_dir(&dir).expect("golden dir") {
            let name = entry.expect("dir entry").file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".lid") {
                let (netlist, map) = golden(&name);
                assert_formula_invisible(&name, &netlist, &map);
                goldens += 1;
            }
        }
        assert!(goldens >= 11, "only {goldens} goldens checked");
    }
}
