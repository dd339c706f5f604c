//! Topology analysis: the structural queries behind the paper's
//! performance formulas.
//!
//! The paper distinguishes three representative graph shapes:
//!
//! * **trees** — no node has two inputs; throughput 1, transient bounded
//!   by the longest relay path;
//! * **reconvergent feed-forward** — acyclic, but some shell joins paths
//!   with different relay latencies; the reverse-flowing stops create an
//!   *implicit* loop and throughput drops to `(m − i)/m`;
//! * **feedback** — real directed cycles; throughput `S/(S+R)`.
//!
//! This module classifies a [`Netlist`], finds strongly connected
//! components (Tarjan), enumerates simple cycles (Johnson-style with a
//! budget), and measures relay latencies along paths — everything
//! `lip-analysis` needs to evaluate the closed forms.

use std::collections::HashMap;

use lip_core::RelayKind;

use crate::netlist::{Netlist, NodeId, NodeKind};

/// The paper's topology taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyClass {
    /// Acyclic and join-free: every node has at most one input.
    Tree,
    /// Acyclic with at least one multi-input shell (reconvergent inputs).
    ReconvergentFeedForward,
    /// Contains at least one directed cycle.
    Feedback,
}

impl std::fmt::Display for TopologyClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyClass::Tree => f.write_str("tree"),
            TopologyClass::ReconvergentFeedForward => f.write_str("reconvergent feed-forward"),
            TopologyClass::Feedback => f.write_str("feedback"),
        }
    }
}

/// Classify `netlist` according to the paper's taxonomy.
#[must_use]
pub fn classify(netlist: &Netlist) -> TopologyClass {
    if !simple_cycles(netlist, 1).is_empty() {
        TopologyClass::Feedback
    } else if join_nodes(netlist).is_empty() {
        TopologyClass::Tree
    } else {
        TopologyClass::ReconvergentFeedForward
    }
}

/// Nodes with two or more inputs (joins — where reconvergence bites).
#[must_use]
pub fn join_nodes(netlist: &Netlist) -> Vec<NodeId> {
    netlist
        .nodes()
        .map(|(id, _)| id)
        .filter(|&id| netlist.num_inputs(id) >= 2)
        .collect()
}

/// Strongly connected components (Tarjan, iterative). Components are
/// returned in reverse topological order; singletons without self-loops
/// are included.
#[must_use]
pub fn sccs(netlist: &Netlist) -> Vec<Vec<NodeId>> {
    let n = netlist.node_count();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<NodeId>> = Vec::new();

    // Iterative Tarjan: frame = (node, its remaining successors).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut work = Vec::new();
        let mut enter = Some(start);
        loop {
            if let Some(v) = enter.take() {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
                work.push((v, netlist.successors_iter(node_id(v))));
            }
            let Some((v, succs)) = work.last_mut() else {
                break;
            };
            let v = *v;
            if let Some(w) = succs.next() {
                let w = w.index();
                if index[w] == usize::MAX {
                    enter = Some(w);
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("scc stack");
                        on_stack[w] = false;
                        comp.push(node_id(w));
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
            }
        }
    }
    out
}

fn node_id(i: usize) -> NodeId {
    NodeId(u32::try_from(i).expect("node index"))
}

/// `true` if the netlist has no directed cycle (Kahn's algorithm: every
/// node is eventually left with no unvisited predecessor).
#[must_use]
pub fn is_acyclic(netlist: &Netlist) -> bool {
    let mut pending: Vec<usize> = netlist
        .nodes()
        .map(|(id, _)| netlist.predecessors_iter(id).count())
        .collect();
    let mut ready: Vec<NodeId> = netlist
        .nodes()
        .filter(|(id, _)| pending[id.index()] == 0)
        .map(|(id, _)| id)
        .collect();
    let mut left = netlist.node_count();
    while let Some(v) = ready.pop() {
        left -= 1;
        for w in netlist.successors_iter(v) {
            pending[w.index()] -= 1;
            if pending[w.index()] == 0 {
                ready.push(w);
            }
        }
    }
    left == 0
}

/// Enumerate up to `limit` simple directed cycles (each as a node list in
/// traversal order). A DFS-based enumeration adequate for the small
/// protocol graphs the paper studies; `limit` bounds worst-case blowup.
#[must_use]
pub fn simple_cycles(netlist: &Netlist, limit: usize) -> Vec<Vec<NodeId>> {
    let mut cycles: Vec<Vec<NodeId>> = Vec::new();
    let n = netlist.node_count();
    // For canonicalisation: only report cycles whose minimum node is the
    // DFS root, so each cycle is found exactly once.
    for root in 0..n {
        if cycles.len() >= limit {
            break;
        }
        let root_id = node_id(root);
        let mut path: Vec<NodeId> = vec![root_id];
        let mut on_path = vec![false; n];
        on_path[root] = true;
        let mut work = vec![(root_id, netlist.successors_iter(root_id))];
        while let Some((v, succs)) = work.last_mut() {
            if cycles.len() >= limit {
                break;
            }
            let v = *v;
            if let Some(w) = succs.next() {
                if w == root_id {
                    cycles.push(path.clone());
                } else if w.index() > root && !on_path[w.index()] {
                    on_path[w.index()] = true;
                    path.push(w);
                    work.push((w, netlist.successors_iter(w)));
                }
            } else {
                work.pop();
                path.pop();
                on_path[v.index()] = false;
            }
        }
    }
    cycles
}

/// Per-cycle composition: shells, relay stations and initial tokens,
/// enough to evaluate the `S/(S+R)` loop formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleProfile {
    /// The nodes of the cycle, in traversal order.
    pub nodes: Vec<NodeId>,
    /// Shells on the cycle (`S`).
    pub shells: usize,
    /// Full relay stations on the cycle.
    pub full_relays: usize,
    /// Half relay stations on the cycle.
    pub half_relays: usize,
}

impl CycleProfile {
    /// Total relay stations (`R`).
    #[must_use]
    pub fn relays(&self) -> usize {
        self.full_relays + self.half_relays
    }

    /// Forward register stages around the loop (shells + full relays):
    /// the loop's recurrence length in cycles.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.shells + self.full_relays
    }
}

/// Profile every simple cycle (bounded by `limit`).
#[must_use]
pub fn cycle_profiles(netlist: &Netlist, limit: usize) -> Vec<CycleProfile> {
    simple_cycles(netlist, limit)
        .into_iter()
        .map(|nodes| {
            let mut p = CycleProfile {
                nodes,
                shells: 0,
                full_relays: 0,
                half_relays: 0,
            };
            for id in &p.nodes.clone() {
                match netlist.node(*id).kind() {
                    NodeKind::Shell { .. } => p.shells += 1,
                    NodeKind::Relay {
                        kind: RelayKind::Full,
                    } => p.full_relays += 1,
                    NodeKind::Relay {
                        kind: RelayKind::Half,
                    } => p.half_relays += 1,
                    _ => {}
                }
            }
            p
        })
        .collect()
}

/// All simple paths from `from` to `to` (as node sequences including both
/// endpoints), up to `limit` paths. Used to measure branch imbalance at
/// joins.
#[must_use]
pub fn simple_paths(netlist: &Netlist, from: NodeId, to: NodeId, limit: usize) -> Vec<Vec<NodeId>> {
    let n = netlist.node_count();
    let mut out = Vec::new();
    let mut path = vec![from];
    let mut on_path = vec![false; n];
    on_path[from.index()] = true;
    let mut work = vec![(from, netlist.successors_iter(from))];
    while let Some((v, succs)) = work.last_mut() {
        if out.len() >= limit {
            break;
        }
        let v = *v;
        if let Some(w) = succs.next() {
            if w == to {
                let mut p = path.clone();
                p.push(to);
                out.push(p);
            } else if !on_path[w.index()] {
                on_path[w.index()] = true;
                path.push(w);
                work.push((w, netlist.successors_iter(w)));
            }
        } else {
            work.pop();
            path.pop();
            on_path[v.index()] = false;
        }
    }
    out
}

/// Count relay stations along `path` (any kind), excluding endpoints'
/// own kind only if they are not relays themselves.
#[must_use]
pub fn relay_count(netlist: &Netlist, path: &[NodeId]) -> usize {
    path.iter()
        .filter(|id| netlist.node(**id).kind().is_relay())
        .count()
}

/// Count shells along `path`.
#[must_use]
pub fn shell_count(netlist: &Netlist, path: &[NodeId]) -> usize {
    path.iter()
        .filter(|id| netlist.node(**id).kind().is_shell())
        .count()
}

/// Forward latency along `path` in cycles (sum of node forward
/// latencies: shells and full relays contribute 1).
#[must_use]
pub fn path_latency(netlist: &Netlist, path: &[NodeId]) -> u64 {
    path.iter()
        .map(|id| netlist.node(*id).kind().forward_latency())
        .sum()
}

/// Longest source→sink forward latency in an acyclic netlist — the
/// paper's transient bound for trees ("the initial latency for each node
/// ... can be as much as the longest path in the tree").
///
/// Returns `None` if the netlist has cycles (use the transient analysis
/// in `lip-analysis` instead) or has no source/sink.
#[must_use]
pub fn longest_latency(netlist: &Netlist) -> Option<u64> {
    if !is_acyclic(netlist) {
        return None;
    }
    let sinks = netlist.sinks();
    if netlist.sources().is_empty() || sinks.is_empty() {
        return None;
    }
    // Longest path over the DAG by memoised DFS from every node.
    let mut memo: HashMap<NodeId, u64> = HashMap::new();
    fn go(netlist: &Netlist, v: NodeId, memo: &mut HashMap<NodeId, u64>) -> u64 {
        if let Some(&d) = memo.get(&v) {
            return d;
        }
        let best = netlist
            .successors_iter(v)
            .map(|w| go(netlist, w, memo))
            .max()
            .unwrap_or(0);
        let d = best + netlist.node(v).kind().forward_latency();
        memo.insert(v, d);
        d
    }
    netlist
        .sources()
        .into_iter()
        .map(|s| go(netlist, s, &mut memo))
        .max()
}

/// Relay imbalance at a join: for shell `join`, the spread (max − min)
/// of relay-station counts over all simple paths from each common
/// ancestor or source to the join's inputs. This is the paper's `i`.
///
/// Concretely we measure, for each input port of the join, the maximum
/// relay count over simple paths from any source to that port, and return
/// the spread across ports. Sound for the feed-forward structures the
/// formula addresses.
#[must_use]
pub fn join_imbalance(netlist: &Netlist, join: NodeId) -> Option<usize> {
    let preds = netlist.predecessors(join);
    if preds.len() < 2 {
        return None;
    }
    let sources = netlist.sources();
    let mut per_port: Vec<usize> = Vec::new();
    for p in preds {
        let mut best: Option<usize> = None;
        for s in &sources {
            for path in simple_paths(netlist, *s, p, 64) {
                let r = relay_count(netlist, &path);
                best = Some(best.map_or(r, |b: usize| b.max(r)));
            }
        }
        per_port.push(best?);
    }
    let max = *per_port.iter().max()?;
    let min = *per_port.iter().min()?;
    Some(max - min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_core::pearl::{IdentityPearl, JoinPearl};
    use lip_core::RelayKind;

    fn tree() -> Netlist {
        let mut n = Netlist::new();
        let src = n.add_source("in");
        let a = n.add_shell("A", IdentityPearl::with_fanout(2));
        let b = n.add_shell("B", IdentityPearl::new());
        let c = n.add_shell("C", IdentityPearl::new());
        let o1 = n.add_sink("o1");
        let o2 = n.add_sink("o2");
        n.connect(src, 0, a, 0).unwrap();
        n.connect(a, 0, b, 0).unwrap();
        n.connect(a, 1, c, 0).unwrap();
        n.connect(b, 0, o1, 0).unwrap();
        n.connect(c, 0, o2, 0).unwrap();
        n
    }

    /// Fig. 1-like: two sources reconverge at a join with imbalanced
    /// relay counts.
    fn reconvergent(r_long: usize, r_short: usize) -> (Netlist, NodeId) {
        let mut n = Netlist::new();
        let a = n.add_source("A");
        let b = n.add_source("B");
        let c = n.add_shell("C", JoinPearl::first(2));
        let out = n.add_sink("out");
        n.connect_via_relays(a, 0, c, 0, r_long, RelayKind::Full)
            .unwrap();
        n.connect_via_relays(b, 0, c, 1, r_short, RelayKind::Full)
            .unwrap();
        n.connect(c, 0, out, 0).unwrap();
        (n, c)
    }

    /// Fig. 2-like: ring of `s` shells and `r` relays, with one sink tap.
    fn ring(s: usize, r: usize) -> Netlist {
        let mut n = Netlist::new();
        assert!(s >= 1);
        let shells: Vec<NodeId> = (0..s)
            .map(|i| {
                if i == 0 {
                    n.add_shell("tap", IdentityPearl::with_fanout(2))
                } else {
                    n.add_shell(format!("s{i}"), IdentityPearl::new())
                }
            })
            .collect();
        // Ring edges with relays distributed after shell 0.
        let mut prev = shells[0];
        let mut prev_port = 0usize;
        for _ in 0..r {
            let rs = n.add_relay(RelayKind::Full);
            n.connect(prev, prev_port, rs, 0).unwrap();
            prev = rs;
            prev_port = 0;
        }
        for sh in shells.iter().skip(1) {
            n.connect(prev, prev_port, *sh, 0).unwrap();
            prev = *sh;
            prev_port = 0;
        }
        // Close the ring into shell 0's input.
        n.connect(prev, prev_port, shells[0], 0).unwrap();
        // Tap to a sink from shell 0's second output.
        let out = n.add_sink("out");
        n.connect(shells[0], 1, out, 0).unwrap();
        n
    }

    #[test]
    fn classify_tree() {
        assert_eq!(classify(&tree()), TopologyClass::Tree);
        assert!(is_acyclic(&tree()));
        assert!(join_nodes(&tree()).is_empty());
    }

    #[test]
    fn classify_reconvergent() {
        let (n, c) = reconvergent(2, 1);
        assert_eq!(classify(&n), TopologyClass::ReconvergentFeedForward);
        assert_eq!(join_nodes(&n), vec![c]);
    }

    #[test]
    fn classify_feedback() {
        let n = ring(2, 1);
        assert_eq!(classify(&n), TopologyClass::Feedback);
        assert!(!is_acyclic(&n));
    }

    #[test]
    fn scc_finds_ring() {
        let n = ring(3, 2);
        let comps = sccs(&n);
        let big: Vec<_> = comps.iter().filter(|c| c.len() > 1).collect();
        assert_eq!(big.len(), 1);
        assert_eq!(big[0].len(), 5); // 3 shells + 2 relays
    }

    #[test]
    fn simple_cycles_counts_ring_once() {
        let n = ring(2, 1);
        let cycles = simple_cycles(&n, 16);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 3);
    }

    #[test]
    fn cycle_profiles_count_kinds() {
        let n = ring(2, 3);
        let profiles = cycle_profiles(&n, 16);
        assert_eq!(profiles.len(), 1);
        let p = &profiles[0];
        assert_eq!(p.shells, 2);
        assert_eq!(p.full_relays, 3);
        assert_eq!(p.half_relays, 0);
        assert_eq!(p.relays(), 3);
        assert_eq!(p.stages(), 5);
    }

    #[test]
    fn paths_and_latency() {
        let (n, c) = reconvergent(2, 1);
        let a = n.sources()[0];
        let paths = simple_paths(&n, a, c, 8);
        assert_eq!(paths.len(), 1);
        assert_eq!(relay_count(&n, &paths[0]), 2);
        assert_eq!(shell_count(&n, &paths[0]), 1); // the join itself
        assert_eq!(path_latency(&n, &paths[0]), 3); // 2 relays + join shell
    }

    #[test]
    fn join_imbalance_matches_relay_difference() {
        let (n, c) = reconvergent(2, 1);
        assert_eq!(join_imbalance(&n, c), Some(1));
        let (n, c) = reconvergent(4, 1);
        assert_eq!(join_imbalance(&n, c), Some(3));
        let (n, c) = reconvergent(3, 3);
        assert_eq!(join_imbalance(&n, c), Some(0));
    }

    #[test]
    fn longest_latency_of_tree() {
        let n = tree();
        // src(0) -> A(1) -> B(1) -> sink: total 2.
        assert_eq!(longest_latency(&n), Some(2));
        assert_eq!(longest_latency(&ring(2, 1)), None);
    }

    #[test]
    fn display_topology_class() {
        assert_eq!(TopologyClass::Tree.to_string(), "tree");
        assert_eq!(
            TopologyClass::ReconvergentFeedForward.to_string(),
            "reconvergent feed-forward"
        );
        assert_eq!(TopologyClass::Feedback.to_string(), "feedback");
    }
}
