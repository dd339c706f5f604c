//! The marked-graph performance model: exact steady-state throughput of
//! any legal latency-insensitive netlist as a minimum cycle ratio.
//!
//! Every storage element of the protocol contributes two constraint
//! edges between its producer `u` and its consumer `v`:
//!
//! * a **forward** edge `u → v` carrying the element's initial
//!   informative tokens, with the element's forward latency as delay;
//! * a **backward** edge `v → u` carrying the element's free *spaces*
//!   (capacity − tokens), with the latency of its back-pressure path as
//!   delay (1 for relay stations, whose `stop` is registered; 0 for
//!   shells, whose stop traverses combinationally).
//!
//! A firing consumes a token forward and a space backward, so in steady
//! state every directed cycle `c` bounds the throughput by
//! `tokens(c)/delay(c)`; the binding constraint is the **minimum cycle
//! ratio**. This generalises both formulas in the paper: a ring of `S`
//! shells (1 token, 1 delay each) and `R` full relay stations (0 tokens,
//! 1 delay) yields `S/(S+R)`; the implicit fork-join loop of Fig. 1
//! yields `(m − i)/m`. It also covers half relay stations, mixed loops
//! and compositions exactly — the test-suite checks it against simulated
//! throughput over the whole topology corpus.
//!
//! ## Solving it
//!
//! [`MarkedGraph::binding_cycle`] finds the minimum exactly by Howard's
//! policy iteration (Cochet-Terrasson et al. 1998; Dasdan, TODAES 2004).
//! Lint, `lip_analysis::predict_throughput` and
//! `lip_analysis::closed_form` all go through it (`lip-analysis`
//! re-exports this module as `lip_analysis::model`), and so does the
//! 64-lane batch measurement: [`binding_delay`] gives
//! [`measure_batch_periodic`](crate::measure_batch_periodic) the lag at
//! which a loop's lanes recur (its declared-environment path, one
//! scalar lasso, needs no lag). Lint and the measurement share one
//! solve per netlist through [`netlist_binding_cycle`], which keeps the
//! last result per thread by the netlist's stamp.
//!
//! * [`MarkedGraph::new`] builds the adjacency once, in compressed form.
//!   Every edge has a reverse edge, so the solver first peels off the
//!   nodes on no cycle longer than two (it keeps the 2-core of the
//!   channel graph). A peeled two-edge cycle is never below 1 for a
//!   legal element; a channel whose own two-edge cycle is below 1 (a
//!   FIFO of fewer than two places) is kept. Trees and chains peel away
//!   entirely.
//! * Every remaining node starts on its lowest-`tokens/delay` out-edge,
//!   zero-delay edges last. The policy graph is functional: each node
//!   drains into one policy cycle, whose ratio λ is the node's value.
//! * Value determination gives each node a potential scaled by λ's
//!   denominator, so the weights `den·tokens − num·delay` stay exact
//!   integers (`i128`). A zero-delay policy cycle (a combinational loop)
//!   gets λ = ∞ and never binds.
//! * λ-improvement moves nodes onto edges into basins of lower λ. When
//!   none can move, potential improvement runs a work queue: a node
//!   switches to the same-λ edge that lowers its potential most, and a
//!   node whose potential drops requeues its same-λ in-neighbours. A
//!   budget of drops ends the phase when a switch closes a faster cycle;
//!   the next evaluation picks that cycle up.
//! * At the fixed point the lowest policy-cycle ratio is the minimum
//!   cycle ratio. The reported cycle is the lowest-ratio policy cycle
//!   holding the lowest node, rotated to start at that node.
//!
//! The Bellman-Ford search this replaced survives as the test oracle in
//! `lip-analysis`'s `tests/model_properties.rs`.

use std::cell::RefCell;
use std::collections::VecDeque;

use lip_core::{Pattern, RelayKind};
use lip_graph::{Netlist, NodeId, NodeKind};

use crate::measure::Ratio;

/// One constraint edge of the marked-graph model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelEdge {
    /// Origin node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Initial tokens (data forward, spaces backward).
    pub tokens: u64,
    /// Latency in cycles.
    pub delay: u64,
}

/// The constraint graph extracted from a netlist, in compressed
/// adjacency form: the out-edges of node `u` are
/// `arcs[first[u]..first[u + 1]]`.
#[derive(Debug, Clone)]
pub struct MarkedGraph {
    ids: Vec<NodeId>,
    first: Vec<u32>,
    arcs: Vec<Arc>,
    /// Both ends of every channel whose own two-edge cycle is below 1
    /// (only a FIFO of fewer than two places makes one).
    pinned: Vec<u32>,
}

/// One out-edge in the adjacency: target index, tokens and delay (a
/// FIFO holds at most 255 places, so both fit 16 bits).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Arc {
    to: u32,
    tokens: u16,
    delay: u16,
}

impl Arc {
    /// The edge's own `tokens/delay`; a zero-delay edge ranks last.
    fn ratio(self) -> Lambda {
        Lambda::of(self.tokens.into(), self.delay.into())
    }
}

/// A storage element as the model sees it: forward tokens and latency,
/// free spaces and back-pressure latency, and whether it is a buffered
/// shell, which fuses a one-place skid buffer (a half station) into
/// each input: one extra space and one extra cycle backward.
#[derive(Debug, Clone, Copy)]
struct Element {
    tokens: u8,
    delay: u8,
    spaces: u8,
    back_delay: u8,
    buffered: bool,
}

impl Element {
    /// `None` for sources and sinks, which neither run out of tokens nor
    /// of spaces.
    fn of(kind: &NodeKind) -> Option<Element> {
        let (tokens, delay, spaces, back_delay) = match kind {
            NodeKind::Source { .. } | NodeKind::Sink { .. } => return None,
            NodeKind::Shell { .. } => (1, 1, 0, 0),
            NodeKind::Relay {
                kind: RelayKind::Full,
            } => (0, 1, 2, 1),
            NodeKind::Relay {
                kind: RelayKind::Half,
            } => (0, 0, 1, 1),
            NodeKind::Relay {
                kind: RelayKind::Fifo(k),
            } => (0, 1, *k, 1),
        };
        Some(Element {
            tokens,
            delay,
            spaces,
            back_delay,
            buffered: kind.is_buffered_shell(),
        })
    }
}

impl MarkedGraph {
    /// Build the model of `netlist`.
    ///
    /// Sources and sinks contribute no constraints here (they neither
    /// run out of tokens nor of spaces); their rate limits from void and
    /// stop patterns are handled by `lip_analysis::predict_throughput`.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let (ids, elems): (Vec<NodeId>, Vec<Option<Element>>) = netlist
            .nodes()
            .map(|(id, node)| (id, Element::of(node.kind())))
            .unzip();
        let pairs = || channel_arcs(netlist, &elems);
        // Counting sort by origin: `first[u]` counts up to the end of
        // `u`'s run, then counts back down to its start while filling.
        let mut first = vec![0u32; ids.len() + 1];
        for (u, v, _, _) in pairs() {
            first[u] += 1;
            first[v] += 1;
        }
        let mut end = 0;
        for f in &mut first {
            end += *f;
            *f = end;
        }
        let mut arcs = vec![Arc::default(); end as usize];
        let mut pinned = Vec::new();
        for (u, v, forward, backward) in pairs() {
            first[u] -= 1;
            arcs[first[u] as usize] = forward;
            first[v] -= 1;
            arcs[first[v] as usize] = backward;
            if pins(forward, backward) {
                pinned.extend([u as u32, v as u32]);
            }
        }
        MarkedGraph {
            ids,
            first,
            arcs,
            pinned,
        }
    }

    /// The constraint edges, grouped by origin node in [`NodeId`] order.
    /// Every edge `u → v` has a reverse edge `v → u`.
    pub fn edges(&self) -> impl Iterator<Item = ModelEdge> + '_ {
        (0..self.ids.len()).flat_map(move |u| self.out(u).iter().map(move |a| self.edge(u, *a)))
    }

    /// Minimum cycle ratio `tokens/delay` over all directed cycles,
    /// capped at 1 (a LID never exceeds one token per cycle). Returns
    /// `Ratio::new(1, 1)` when no constraining cycle exists (pure
    /// feed-forward systems). The ratio of
    /// [`MarkedGraph::binding_cycle`].
    #[must_use]
    pub fn min_cycle_ratio(&self) -> Ratio {
        self.binding_cycle().map_or(Ratio::new(1, 1), |(_, r)| r)
    }

    /// The cycle achieving the minimum ratio, as edges in traversal
    /// order from its lowest [`NodeId`], together with that ratio — the
    /// design's *bottleneck*. Returns `None` when nothing constrains the
    /// design below `T = 1` (trees, balanced fork-joins, sufficiently
    /// tokenised loops). Of several minimal cycles in the final policy,
    /// the one with the lowest node is reported.
    ///
    /// Designers use this to know *which* loop to attack: insert spare
    /// stations on its backward (space) segment, or remove latency from
    /// its forward segment.
    ///
    /// Exact: Howard's policy iteration over integer potentials (see the
    /// [module docs](self)).
    #[must_use]
    pub fn binding_cycle(&self) -> Option<(Vec<ModelEdge>, Ratio)> {
        let mut howard = Howard::new(self);
        howard.solve();
        let (ratio, start) = howard.binding()?;
        let mut cycle = Vec::new();
        let mut v = start;
        loop {
            let a = howard.state[v].next;
            cycle.push(self.edge(v, a));
            v = a.to as usize;
            if v == start {
                break;
            }
        }
        Some((cycle, Ratio::new(ratio.num, ratio.den)))
    }

    fn out(&self, u: usize) -> &[Arc] {
        &self.arcs[self.first[u] as usize..self.first[u + 1] as usize]
    }

    fn edge(&self, u: usize, a: Arc) -> ModelEdge {
        ModelEdge {
            from: self.ids[u],
            to: self.ids[a.to as usize],
            tokens: u64::from(a.tokens),
            delay: u64::from(a.delay),
        }
    }
}

/// Each channel `u → v` between storage elements as its forward edge
/// `u → v` and its backward edge `v → u`. Sinks apply no sustained
/// back-pressure in free flow, so a channel into a sink lies on no
/// cycle and yields no edge at all; neither does one out of a source.
fn channel_arcs<'a>(
    netlist: &'a Netlist,
    elems: &'a [Option<Element>],
) -> impl Iterator<Item = (usize, usize, Arc, Arc)> + 'a {
    netlist.channels().filter_map(|(_, ch)| {
        let (u, v) = (ch.producer.node.index(), ch.consumer.node.index());
        let (producer, consumer) = (elems[u]?, elems[v]?);
        let skid = u16::from(consumer.buffered);
        let forward = Arc {
            to: v as u32,
            tokens: producer.tokens.into(),
            delay: producer.delay.into(),
        };
        let backward = Arc {
            to: u as u32,
            tokens: u16::from(producer.spaces) + skid,
            delay: u16::from(producer.back_delay) + skid,
        };
        Some((u, v, forward, backward))
    })
}

/// `true` when a channel's own two-edge cycle is below 1 (only a FIFO
/// of fewer than two places makes one).
fn pins(forward: Arc, backward: Arc) -> bool {
    forward.tokens + backward.tokens < forward.delay + backward.delay
}

/// A binding cycle and its ratio, as [`MarkedGraph::binding_cycle`]
/// returns it.
type Binding = Option<(Vec<ModelEdge>, Ratio)>;

thread_local! {
    /// The binding cycle this thread last solved, by the stamp of its
    /// netlist.
    static LAST_BINDING: RefCell<Option<(u64, Binding)>> = const { RefCell::new(None) };
}

/// `netlist`'s binding cycle: [`MarkedGraph::binding_cycle`] of
/// [`MarkedGraph::new`]`(netlist)`, solved once per netlist. The last
/// result is kept per thread by the netlist's
/// [`stamp`](Netlist::stamp), so lint's bottleneck rules and
/// [`binding_delay`] in the batch measurement that follows share one
/// solve. Trees and chains skip the model and the solver (see
/// [`binding_delay`]).
#[must_use]
pub fn netlist_binding_cycle(netlist: &Netlist) -> Option<(Vec<ModelEdge>, Ratio)> {
    with_binding(netlist, Clone::clone)
}

/// Total delay of `netlist`'s binding cycle ([`netlist_binding_cycle`]),
/// or `None` when nothing binds below `T = 1`.
///
/// By the paper's loop formula, a loop of `S` shells and `R` relays
/// repeats every `S + R` cycles, its delay; the batch measurement uses
/// this delay as a lasso lag. Whether anything can bind (`can_bind`)
/// is decided on the netlist's channels first, so trees and chains
/// skip building the model and running the solver.
#[must_use]
pub fn binding_delay(netlist: &Netlist) -> Option<u64> {
    with_binding(netlist, |binding| {
        binding
            .as_ref()
            .map(|(cycle, _)| cycle.iter().map(|e| e.delay).sum())
    })
}

/// `read` the binding cycle of `netlist`, solving it unless this thread
/// last solved the same stamp.
fn with_binding<T>(netlist: &Netlist, read: impl FnOnce(&Binding) -> T) -> T {
    let stamp = netlist.stamp();
    LAST_BINDING.with_borrow_mut(|last| match last {
        Some((s, binding)) if *s == stamp => read(binding),
        _ => read(&last.insert((stamp, solve_binding(netlist))).1),
    })
}

/// The binding cycle of `netlist`, with nothing kept. Only a channel
/// graph that `can_bind` needs the model and the solver: otherwise
/// every cycle is a channel's own two-edge cycle, never below 1.
fn solve_binding(netlist: &Netlist) -> Binding {
    let elems: Vec<Option<Element>> = netlist
        .nodes()
        .map(|(_, node)| Element::of(node.kind()))
        .collect();
    let channels = channel_arcs(netlist, &elems).map(|(u, v, f, b)| (u, v, pins(f, b)));
    if !can_bind(elems.len(), channels) {
        return None;
    }
    MarkedGraph::new(netlist).binding_cycle()
}

/// `true` unless the channels between storage elements, each given once
/// as its two ends and whether it is pinned ([`pins`]), form a forest
/// and pin nothing. Only then can nothing bind below 1: every cycle of
/// such a model is a channel's own two-edge cycle. One union-find pass
/// with path halving: a channel whose ends already share a root closes
/// a loop.
fn can_bind(nodes: usize, channels: impl IntoIterator<Item = (usize, usize, bool)>) -> bool {
    let mut parent: Vec<u32> = (0..nodes as u32).collect();
    let root = |parent: &mut [u32], mut x: usize| {
        while parent[x] as usize != x {
            parent[x] = parent[parent[x] as usize];
            x = parent[x] as usize;
        }
        x
    };
    channels.into_iter().any(|(u, v, pinned)| {
        let (ru, rv) = (root(&mut parent, u), root(&mut parent, v));
        parent[ru] = rv as u32;
        ru == rv || pinned
    })
}

/// A cycle ratio `num/den` in lowest terms. `den == 0` stands for +∞,
/// the ratio of a zero-delay cycle: a combinational loop never binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lambda {
    num: u64,
    den: u64,
}

impl Lambda {
    const ONE: Lambda = Lambda { num: 1, den: 1 };

    fn of(tokens: u64, delay: u64) -> Lambda {
        if delay == 0 {
            return Lambda { num: 1, den: 0 };
        }
        let (mut a, mut b) = (tokens, delay);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        Lambda {
            num: tokens / a,
            den: delay / a,
        }
    }

    fn lt(self, other: Lambda) -> bool {
        u128::from(self.num) * u128::from(other.den) < u128::from(other.num) * u128::from(self.den)
    }

    /// The edge weight `den·tokens − num·delay`: a cycle of ratio λ sums
    /// to 0, a lower one to less.
    fn weight(self, a: Arc) -> i128 {
        i128::from(self.den) * i128::from(a.tokens) - i128::from(self.num) * i128::from(a.delay)
    }
}

const NONE: u32 = u32::MAX;

/// One node's share of the policy iteration, kept together so a visit
/// touches one cache line.
#[derive(Debug, Clone, Copy)]
struct State {
    /// The out-edge the policy follows; `to == NONE` for a node without
    /// out-edges, which lies on no cycle.
    next: Arc,
    /// The policy cycle the node drains into (index into `cycles`).
    cycle: u32,
    /// Evaluation stamp: `epoch - 1` on the current walk, `epoch` done.
    stamp: u32,
    /// Potential, scaled by the denominator of the node's λ:
    /// `pot[u] = pot[v] + weight(u → v)` along the policy, 0 at one node
    /// of each policy cycle.
    pot: i128,
}

/// How the potential-improvement phase ended.
enum Improve {
    /// No policy edge could be improved: the policy is optimal.
    Optimal,
    /// The potentials settled after some switches: still optimal, but
    /// the policy cycles may have moved.
    Settled,
    /// The drop budget ran out, most likely because a switch closed a
    /// cycle below λ: evaluate the policy again.
    Budget,
}

/// Howard's policy iteration over one [`MarkedGraph`]. Every node that
/// lies on a cycle follows one out-edge (its *policy*); the policy graph
/// is functional, so each node drains into one policy cycle, whose
/// ratio is the node's λ.
struct Howard<'g> {
    g: &'g MarkedGraph,
    state: Vec<State>,
    /// Each policy cycle's ratio and one node on it.
    cycles: Vec<(Lambda, usize)>,
    epoch: u32,
    path: Vec<usize>,
    queue: VecDeque<usize>,
    queued: Vec<bool>,
}

impl<'g> Howard<'g> {
    /// Prune the graph to its cycles longer than two, then start every
    /// remaining node on its lowest-ratio out-edge. A graph in which
    /// nothing can bind ([`can_bind`]) gets no states at all.
    ///
    /// Every edge has a reverse edge, so the graph is an undirected
    /// multigraph of channels; a simple cycle through three or more
    /// nodes, or through two channels between the same pair, lies in
    /// its 2-core. Peeling off nodes with at most one channel left
    /// therefore drops only single-channel two-edge cycles, which are
    /// never below 1 unless the channel is pinned.
    fn new(g: &'g MarkedGraph) -> Self {
        const GONE: u32 = u32::MAX;
        let mut howard = Howard {
            g,
            state: Vec::new(),
            cycles: Vec::new(),
            epoch: 0,
            path: Vec::new(),
            queue: VecDeque::new(),
            queued: Vec::new(),
        };
        // Each channel once, as its edge up the node order (a self-loop
        // twice, which closes the same loop).
        let channels = (0..g.ids.len()).flat_map(|u| {
            let up = g.out(u).iter().filter(move |a| a.to as usize >= u);
            up.map(move |a| (u, a.to as usize, false))
        });
        if g.pinned.is_empty() && !can_bind(g.ids.len(), channels) {
            return howard;
        }
        let mut degree: Vec<u32> = g.first.windows(2).map(|w| w[1] - w[0]).collect();
        for &u in &g.pinned {
            degree[u as usize] += 2;
        }
        // Sweep down the node order, cascading into nodes already
        // passed; each node is peeled at most once. Designs numbered
        // producers first (the generators, most `.lid` files) peel
        // leaves-first, mostly without cascading.
        let mut peel = Vec::new();
        for u in (0..degree.len()).rev() {
            if degree[u] > 1 || g.first[u] == g.first[u + 1] {
                continue;
            }
            peel.push(u);
            while let Some(x) = peel.pop() {
                degree[x] = GONE;
                for a in g.out(x) {
                    let d = &mut degree[a.to as usize];
                    if *d != GONE {
                        *d -= 1;
                        if *d == 1 && a.to as usize > u {
                            peel.push(a.to as usize);
                        }
                    }
                }
            }
        }
        let in_core = |v: u32| degree[v as usize] != GONE;
        howard.state = (0..g.ids.len())
            .map(|u| {
                let mut next = Arc {
                    to: NONE,
                    ..Arc::default()
                };
                if in_core(u as u32) {
                    for &a in g.out(u) {
                        if in_core(a.to) && (next.to == NONE || a.ratio().lt(next.ratio())) {
                            next = a;
                        }
                    }
                }
                State {
                    next,
                    cycle: 0,
                    stamp: 0,
                    pot: 0,
                }
            })
            .collect();
        howard
    }

    fn solve(&mut self) {
        loop {
            self.evaluate();
            if self.improve_ratios() {
                continue;
            }
            match self.improve_potentials() {
                Improve::Optimal => return,
                Improve::Settled => {
                    self.evaluate();
                    return;
                }
                Improve::Budget => {}
            }
        }
    }

    fn lam(&self, u: usize) -> Lambda {
        self.cycles[self.state[u].cycle as usize].0
    }

    /// Value determination: find every policy cycle, its ratio, and the
    /// potentials of the nodes draining into it.
    fn evaluate(&mut self) {
        self.epoch += 2;
        let (on_path, done) = (self.epoch - 1, self.epoch);
        let st = &mut self.state;
        self.cycles.clear();
        for s in 0..st.len() {
            if st[s].next.to == NONE || st[s].stamp == done {
                continue;
            }
            let mut u = s;
            while st[u].stamp != done && st[u].stamp != on_path {
                st[u].stamp = on_path;
                self.path.push(u);
                u = st[u].next.to as usize;
            }
            if st[u].stamp == on_path {
                // A new cycle closes at `u`.
                let (mut tokens, mut delay) = (0u64, 0u64);
                let mut v = u;
                loop {
                    let a = st[v].next;
                    tokens += u64::from(a.tokens);
                    delay += u64::from(a.delay);
                    v = a.to as usize;
                    if v == u {
                        break;
                    }
                }
                st[u].cycle = self.cycles.len() as u32;
                st[u].pot = 0;
                st[u].stamp = done;
                self.cycles.push((Lambda::of(tokens, delay), u));
            }
            while let Some(x) = self.path.pop() {
                if st[x].stamp == done {
                    continue;
                }
                let a = st[x].next;
                let y = st[a.to as usize];
                st[x].cycle = y.cycle;
                st[x].pot = y.pot + self.cycles[y.cycle as usize].0.weight(a);
                st[x].stamp = done;
            }
        }
    }

    /// λ-improvement: move every node with an out-edge into a basin of
    /// lower λ onto the lowest such basin. Returns whether any node
    /// moved; if none did, queues the nodes a same-λ edge would lower.
    fn improve_ratios(&mut self) -> bool {
        let mut moved = false;
        for u in 0..self.state.len() {
            let su = self.state[u];
            if su.next.to == NONE {
                continue;
            }
            let lu = self.lam(u);
            let mut best = lu;
            let mut best_arc = None;
            let mut lowers = false;
            for &a in self.g.out(u) {
                let sv = &self.state[a.to as usize];
                if sv.next.to == NONE {
                    continue;
                }
                let lv = if sv.cycle == su.cycle {
                    lu
                } else {
                    self.cycles[sv.cycle as usize].0
                };
                if lv == lu {
                    lowers |= !moved && sv.pot + lu.weight(a) < su.pot;
                } else if lv.lt(best) {
                    best = lv;
                    best_arc = Some(a);
                }
            }
            if let Some(a) = best_arc {
                self.state[u].next = a;
                moved = true;
            } else if lowers && !moved {
                self.queue.push_back(u);
            }
        }
        if moved {
            self.queue.clear();
        }
        moved
    }

    /// Potential improvement: move queued nodes onto the same-λ edge
    /// that lowers their potential most, and requeue the same-λ
    /// in-neighbours of every node whose potential drops (every edge has
    /// a reverse edge, so in-neighbours are out-neighbours). A switch
    /// that closes a cycle below λ makes the potentials drop forever, so
    /// the phase stops after a budget of drops.
    fn improve_potentials(&mut self) -> Improve {
        if self.queue.is_empty() {
            return Improve::Optimal;
        }
        self.queued.clear();
        self.queued.resize(self.state.len(), false);
        for &u in &self.queue {
            self.queued[u] = true;
        }
        let budget = 2 * (self.state.len() + self.g.arcs.len());
        let mut drops = 0;
        while let Some(u) = self.queue.pop_front() {
            self.queued[u] = false;
            let su = self.state[u];
            let lu = self.lam(u);
            let same = |h: &Self, v: usize| {
                let sv = &h.state[v];
                sv.next.to != NONE && (sv.cycle == su.cycle || h.cycles[sv.cycle as usize].0 == lu)
            };
            let mut best = su.pot;
            let mut best_arc = su.next;
            for &a in self.g.out(u) {
                let v = a.to as usize;
                if !same(self, v) {
                    continue;
                }
                let cand = self.state[v].pot + lu.weight(a);
                // Ties keep the current edge.
                if cand < best || (cand == best && a == su.next) {
                    best = cand;
                    best_arc = a;
                }
            }
            if best >= su.pot {
                continue;
            }
            self.state[u].pot = best;
            self.state[u].next = best_arc;
            drops += 1;
            if drops > budget {
                self.queue.clear();
                return Improve::Budget;
            }
            for &a in self.g.out(u) {
                let w = a.to as usize;
                if !self.queued[w] && same(self, w) {
                    self.queued[w] = true;
                    self.queue.push_back(w);
                }
            }
        }
        Improve::Settled
    }

    /// The policy cycle of lowest ratio below 1 — ties go to the cycle
    /// with the lowest node — as its ratio and its lowest node.
    fn binding(&self) -> Option<(Lambda, usize)> {
        let mut best: Option<(Lambda, usize)> = None;
        for &(lam, at) in &self.cycles {
            if !lam.lt(Lambda::ONE) || best.is_some_and(|(b, _)| b.lt(lam)) {
                continue;
            }
            let mut low = at;
            let mut v = self.state[at].next.to as usize;
            while v != at {
                low = low.min(v);
                v = self.state[v].next.to as usize;
            }
            if best.is_none_or(|(b, l)| lam.lt(b) || low < l) {
                best = Some((lam, low));
            }
        }
        best
    }
}

/// Steady-state valid-token rate of a periodic [`Pattern`] used as a
/// *void* pattern (fraction of cycles that carry data), or `None` for
/// aperiodic or malformed patterns.
#[must_use]
pub fn pattern_data_rate(void_pattern: &Pattern) -> Option<Ratio> {
    // A malformed pattern (period 0) has no rate either.
    let period = void_pattern.period().filter(|&p| p > 0)?;
    let voids = match *void_pattern {
        // One asserted cycle per period, or none when the phase is out
        // of range; counting cycle by cycle would cost the period.
        Pattern::EveryNth { period, phase } => u64::from(phase < period),
        _ => (0..period).filter(|&c| void_pattern.at(c)).count() as u64,
    };
    Some(Ratio::new(period - voids, period))
}

/// Steady-state acceptance rate of a periodic stop [`Pattern`] (fraction
/// of cycles the consumer accepts), or `None` for aperiodic or malformed
/// patterns.
#[must_use]
pub fn pattern_accept_rate(stop_pattern: &Pattern) -> Option<Ratio> {
    pattern_data_rate(stop_pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_graph::generate;

    fn min_ratio(netlist: &Netlist) -> Ratio {
        MarkedGraph::new(netlist).min_cycle_ratio()
    }

    #[test]
    fn fig1_model_gives_four_fifths() {
        let f = generate::fig1();
        assert_eq!(min_ratio(&f.netlist), Ratio::new(4, 5));
    }

    #[test]
    fn fork_join_sweep_matches_formula() {
        // (m - i)/m with m = relays-in-loop + shells on the long branch
        // (A and B), i = imbalance.
        for (r1, r2, s) in [
            (1usize, 1usize, 1usize),
            (2, 1, 1),
            (1, 2, 1),
            (2, 2, 1),
            (2, 1, 2),
        ] {
            let f = generate::fork_join(r1, r2, s);
            let m = (r1 + r2 + s + 2) as u64;
            let i = (r1 + r2 - s) as u64;
            assert_eq!(
                min_ratio(&f.netlist),
                Ratio::new(m - i, m),
                "fork_join({r1},{r2},{s})"
            );
        }
    }

    #[test]
    fn ring_model_gives_s_over_s_plus_r() {
        for (s, r) in [(1usize, 1usize), (2, 1), (2, 2), (3, 1), (1, 4)] {
            let ring = generate::ring(s, r, RelayKind::Full);
            assert_eq!(
                min_ratio(&ring.netlist),
                Ratio::new(s as u64, (s + r) as u64),
                "ring({s},{r})"
            );
        }
    }

    #[test]
    fn trees_and_chains_are_unconstrained() {
        assert_eq!(
            min_ratio(&generate::tree(2, 2, 1).netlist),
            Ratio::new(1, 1)
        );
        assert_eq!(
            min_ratio(&generate::chain(3, 2, RelayKind::Full).netlist),
            Ratio::new(1, 1)
        );
    }

    #[test]
    fn balanced_fork_join_reaches_one() {
        let f = generate::fork_join(1, 1, 2);
        assert_eq!(min_ratio(&f.netlist), Ratio::new(1, 1));
    }

    #[test]
    fn half_relay_ring_model() {
        // Half stations add no forward delay: a ring of 2 shells and 1
        // half relay has cycle tokens 2, delay 2 -> capped at 1.
        let ring = generate::ring(2, 1, RelayKind::Half);
        assert_eq!(min_ratio(&ring.netlist), Ratio::new(1, 1));
    }

    #[test]
    fn composed_is_bound_by_slowest_subtopology() {
        // Ring 1 shell + 2 relays -> 1/3; front-end fork imbalance mild.
        let c = generate::composed(2, 1, 1, 2);
        let t = min_ratio(&c.netlist);
        assert_eq!(t, Ratio::new(1, 3));
    }

    #[test]
    fn model_matches_simulation_on_corpus() {
        for seed in 0..40u64 {
            let (fam, netlist) = generate::random_family(seed);
            if netlist.validate().is_err() {
                continue;
            }
            let predicted = min_ratio(&netlist);
            let measured = crate::measure(&netlist).unwrap();
            if measured.periodicity.is_none() {
                continue;
            }
            assert_eq!(
                measured.system_throughput(),
                Some(predicted),
                "seed {seed} family {fam:?}"
            );
        }
    }

    #[test]
    fn binding_cycle_names_the_bottleneck() {
        // Fig. 1: the binding cycle is the implicit fork-join loop at
        // ratio 4/5, traversing A and the long branch.
        let f = generate::fig1();
        let g = MarkedGraph::new(&f.netlist);
        let (cycle, ratio) = g.binding_cycle().expect("constrained");
        assert_eq!(ratio, Ratio::new(4, 5));
        let nodes: std::collections::HashSet<_> = cycle.iter().map(|e| e.from).collect();
        assert!(nodes.contains(&f.fork), "fork on the loop");
        assert!(nodes.contains(&f.mid), "mid shell on the loop");
        // The cycle is closed.
        for w in cycle.windows(2) {
            assert_eq!(w[0].to, w[1].from);
        }
        assert_eq!(cycle.last().unwrap().to, cycle[0].from);

        // Rings: the loop itself binds.
        let r = generate::ring(2, 3, RelayKind::Full);
        let (_, ratio) = MarkedGraph::new(&r.netlist)
            .binding_cycle()
            .expect("constrained");
        assert_eq!(ratio, Ratio::new(2, 5));

        // Trees: unconstrained.
        assert!(MarkedGraph::new(&generate::tree(2, 2, 1).netlist)
            .binding_cycle()
            .is_none());
    }

    #[test]
    fn pattern_rates() {
        assert_eq!(pattern_data_rate(&Pattern::Never), Some(Ratio::new(1, 1)));
        assert_eq!(pattern_data_rate(&Pattern::Always), Some(Ratio::new(0, 1)));
        assert_eq!(
            pattern_data_rate(&Pattern::EveryNth {
                period: 5,
                phase: 0
            }),
            Some(Ratio::new(4, 5))
        );
        let long = u32::MAX;
        assert_eq!(
            pattern_data_rate(&Pattern::EveryNth {
                period: long,
                phase: 7
            }),
            Some(Ratio::new(u64::from(long) - 1, u64::from(long)))
        );
        assert_eq!(
            pattern_data_rate(&Pattern::EveryNth {
                period: 3,
                phase: 3
            }),
            Some(Ratio::new(1, 1))
        );
        assert_eq!(
            pattern_data_rate(&Pattern::Random {
                num: 1,
                denom: 2,
                seed: 0
            }),
            None
        );
        assert_eq!(
            pattern_accept_rate(&Pattern::Cyclic(vec![true, false])),
            Some(Ratio::new(1, 2))
        );
    }

    use lip_core::RelayKind;
}
