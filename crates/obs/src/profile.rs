//! Causal stall profiling: blame attribution and token-level latency
//! tracing.
//!
//! The counters in [`MetricsRegistry`](crate::metrics::MetricsRegistry)
//! say *that* shells stalled; this module says *why*. A
//! [`CausalProfiler`] is a heavyweight [`Probe`] that classifies every
//! stalled shell-cycle ([`StallCause`]), charges each lost cycle to the
//! channel endpoint that caused it, and tags tokens at the sources with
//! sequence ids so end-to-end latency and per-relay residency become
//! measurable. Its output is a versioned [`BlameReport`]
//! ([`BLAME_SCHEMA_VERSION`]).
//!
//! # Blame model
//!
//! Every settled cycle, each channel contributes at most two *blame
//! edges* over the [`ChannelGraph`]:
//!
//! * a **void** edge `consumer → producer` whenever the channel carries
//!   a void — the consumer lost the cycle because the producer had
//!   nothing informative to offer;
//! * a **stop** edge `producer → consumer` whenever the channel's stop
//!   bit is asserted — the producer lost the cycle because the consumer
//!   refused the token.
//!
//! The *blame* of an entity is the number of edges pointing at it. In a
//! periodic steady state the heaviest edges trace exactly the
//! throughput-binding loop of the marked-graph model (the void bubble
//! circulates forward along it, the backpressure backward), so the
//! greedy max-weight walk in [`BlameReport::top_cycle`] recovers the
//! same cycle `lip-lint`'s LIP005 predicts statically — the experiment
//! suite asserts this equivalence netlist by netlist.
//!
//! # Token tracing
//!
//! Sources tag emissions with sequence ids (the k-th emission is token
//! k). Latency-insensitive protocols preserve token order, so the k-th
//! informative token consumed by a sink is sequence-matched against the
//! k-th emission of each source that reaches it; the difference is the
//! *sequence latency* reported per source→sink pair (initial in-flight
//! reset tokens shift the matching by a constant — matches that would
//! be negative are skipped). Relay residency is recovered from
//! fill/drain order (relays are FIFOs), and per-relay occupancy
//! histograms are tracked from the same events.
//!
//! Unlike the zero-cost counting probes, a profiler retains spans and
//! per-endpoint cycle logs — memory grows with the observed window.
//! Profile bounded windows, or [`CausalProfiler::rebase`] after warmup
//! to restrict the window to the steady state.

use std::collections::VecDeque;

use crate::event::{Event, EventKind};
use crate::json::Json;
use crate::probe::Probe;

/// Version of the [`BlameReport`] JSON layout. Re-exported from the
/// central [`crate::schema`] registry; bump it there.
pub const BLAME_SCHEMA_VERSION: u32 = crate::schema::BLAME;

/// A channel endpoint in the blame model: the protocol-visible entities
/// of the compiled netlist, in engine row numbering (relays full, then
/// half, then FIFO).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Entity {
    /// Shell row.
    Shell(u32),
    /// Relay row (full, then half, then FIFO numbering).
    Relay(u32),
    /// Source row.
    Source(u32),
    /// Sink row.
    Sink(u32),
}

impl Entity {
    /// Stable machine label, e.g. `"shell:2"` or `"relay:0"`.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Entity::Shell(i) => format!("shell:{i}"),
            Entity::Relay(i) => format!("relay:{i}"),
            Entity::Source(i) => format!("source:{i}"),
            Entity::Sink(i) => format!("sink:{i}"),
        }
    }
}

/// The channel-level wiring of a compiled netlist: who produces and who
/// consumes every channel, shell port geometry, relay rows, and the
/// mapping back to netlist node ids and display names.
///
/// Engines provide this next to [`Topology`](crate::Topology) (see
/// `SettleProgram::channel_graph` in `lip-sim`); the profiler only
/// needs the wiring, never the netlist itself, which keeps the
/// dependency graph acyclic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelGraph {
    /// Per channel: its producing entity.
    pub producer: Vec<Entity>,
    /// Per channel: its consuming entity.
    pub consumer: Vec<Entity>,
    /// Per source row: its single output channel.
    pub source_out: Vec<u32>,
    /// Per sink row: its single input channel.
    pub sink_in: Vec<u32>,
    /// Per relay row: its input channel.
    pub relay_in: Vec<u32>,
    /// Per relay row: its output channel.
    pub relay_out: Vec<u32>,
    /// Per relay row: its token capacity (2 full, 1 half, k FIFO).
    pub relay_capacity: Vec<u32>,
    /// Shell row → start of its input-channel run (`len = shells + 1`).
    pub shell_in_off: Vec<u32>,
    /// Flat input channels of all shells.
    pub shell_in_ch: Vec<u32>,
    /// Shell row → start of its output-channel run (`len = shells + 1`).
    pub shell_out_off: Vec<u32>,
    /// Flat output channels of all shells.
    pub shell_out_ch: Vec<u32>,
    /// Per dense entity id (see [`ChannelGraph::dense`]): netlist node
    /// id.
    pub nodes: Vec<u32>,
    /// Per dense entity id: display name from the netlist.
    pub names: Vec<String>,
}

impl ChannelGraph {
    /// Number of channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.producer.len()
    }

    /// Number of shell rows.
    #[must_use]
    pub fn shell_count(&self) -> usize {
        self.shell_in_off.len().saturating_sub(1)
    }

    /// Number of relay rows.
    #[must_use]
    pub fn relay_count(&self) -> usize {
        self.relay_in.len()
    }

    /// Number of sources.
    #[must_use]
    pub fn source_count(&self) -> usize {
        self.source_out.len()
    }

    /// Number of sinks.
    #[must_use]
    pub fn sink_count(&self) -> usize {
        self.sink_in.len()
    }

    /// Total entity count (shells + relays + sources + sinks).
    #[must_use]
    pub fn entity_count(&self) -> usize {
        self.shell_count() + self.relay_count() + self.source_count() + self.sink_count()
    }

    /// Dense id of `e`: shells first, then relays, sources, sinks —
    /// the index into [`ChannelGraph::nodes`] / [`ChannelGraph::names`].
    #[must_use]
    pub fn dense(&self, e: Entity) -> usize {
        match e {
            Entity::Shell(i) => i as usize,
            Entity::Relay(i) => self.shell_count() + i as usize,
            Entity::Source(i) => self.shell_count() + self.relay_count() + i as usize,
            Entity::Sink(i) => {
                self.shell_count() + self.relay_count() + self.source_count() + i as usize
            }
        }
    }

    /// Inverse of [`ChannelGraph::dense`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn entity(&self, id: usize) -> Entity {
        let (s, r, src) = (self.shell_count(), self.relay_count(), self.source_count());
        if id < s {
            Entity::Shell(id as u32)
        } else if id < s + r {
            Entity::Relay((id - s) as u32)
        } else if id < s + r + src {
            Entity::Source((id - s - r) as u32)
        } else {
            assert!(id < self.entity_count(), "entity id out of range");
            Entity::Sink((id - s - r - src) as u32)
        }
    }

    /// Display name of `e`.
    #[must_use]
    pub fn name(&self, e: Entity) -> &str {
        &self.names[self.dense(e)]
    }

    /// Netlist node id of `e`.
    #[must_use]
    pub fn node(&self, e: Entity) -> u32 {
        self.nodes[self.dense(e)]
    }

    /// Input channels of shell row `s`.
    #[must_use]
    pub fn shell_inputs(&self, s: usize) -> &[u32] {
        &self.shell_in_ch[self.shell_in_off[s] as usize..self.shell_in_off[s + 1] as usize]
    }

    /// Output channels of shell row `s`.
    #[must_use]
    pub fn shell_outputs(&self, s: usize) -> &[u32] {
        &self.shell_out_ch[self.shell_out_off[s] as usize..self.shell_out_off[s + 1] as usize]
    }

    /// `true` if tokens can flow from source row `i` to sink row `j`
    /// (forward reachability over the channel wiring).
    #[must_use]
    pub fn source_reaches_sink(&self, i: usize, j: usize) -> bool {
        let target = self.sink_in[j];
        let mut seen = vec![false; self.channel_count()];
        let mut queue = VecDeque::from([self.source_out[i]]);
        seen[self.source_out[i] as usize] = true;
        while let Some(ch) = queue.pop_front() {
            if ch == target {
                return true;
            }
            let outs: &[u32] = match self.consumer[ch as usize] {
                Entity::Shell(s) => self.shell_outputs(s as usize),
                Entity::Relay(r) => std::slice::from_ref(&self.relay_out[r as usize]),
                Entity::Sink(_) | Entity::Source(_) => &[],
            };
            for &o in outs {
                if !seen[o as usize] {
                    seen[o as usize] = true;
                    queue.push_back(o);
                }
            }
        }
        false
    }
}

/// Why a shell lost a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Some input carried a void and no output was stopped.
    UpstreamVoid,
    /// Every input was informative but a stopped output blocked firing.
    DownstreamStop,
    /// Void inputs and stopped outputs at once.
    Both,
}

/// A histogram over small non-negative integer samples (latencies,
/// residencies), with exact percentiles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

/// Largest representable histogram sample; larger values saturate into
/// the final bucket (keeps a corrupt sample from allocating unbounded
/// memory).
const HISTOGRAM_CLAMP: u64 = 1 << 24;

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let v = usize::try_from(value.min(HISTOGRAM_CLAMP)).expect("clamped sample fits usize");
        if self.counts.len() <= v {
            self.counts.resize(v + 1, 0);
        }
        self.counts[v] += 1;
        self.total += 1;
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest recorded sample, `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.counts.iter().rposition(|&c| c > 0).map(|v| v as u64)
    }

    /// Smallest value `v` such that at least `p`% of the samples are
    /// `<= v` (`p` in `0..=100`); `None` when empty.
    #[must_use]
    pub fn percentile(&self, p: u8) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let need = (self.total * u64::from(p.min(100))).div_ceil(100).max(1);
        let mut cum = 0u64;
        for (v, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= need {
                return Some(v as u64);
            }
        }
        self.max()
    }

    /// `{"samples":…,"p50":…,"p95":…,"max":…}` (nulls when empty).
    #[must_use]
    pub fn summary_json(&self) -> Json {
        Json::obj([
            ("samples", self.total.into()),
            ("p50", self.percentile(50).into()),
            ("p95", self.percentile(95).into()),
            ("max", self.max().into()),
        ])
    }
}

/// One ranked entry of the blame profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameEntry {
    /// The blamed entity.
    pub entity: Entity,
    /// Its netlist node id.
    pub node: u32,
    /// Its display name.
    pub name: String,
    /// Lane-cycles charged to it (incoming blame edges).
    pub blamed: u64,
}

/// An aggregated blame edge between two entities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameEdge {
    /// The losing entity.
    pub from: Entity,
    /// The entity it blames.
    pub to: Entity,
    /// Cycles blamed because a channel between them carried a void.
    pub void_weight: u64,
    /// Cycles blamed because a channel between them was stopped.
    pub stop_weight: u64,
}

impl BlameEdge {
    /// Combined weight of the edge.
    #[must_use]
    pub fn weight(&self) -> u64 {
        self.void_weight + self.stop_weight
    }
}

/// Sequence-latency statistics of one source→sink pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairLatency {
    /// Source row.
    pub source: u32,
    /// Sink row.
    pub sink: u32,
    /// Latency histogram (cycles between the k-th emission and the k-th
    /// informative consumption).
    pub histogram: Histogram,
}

/// The profiler's versioned output document (JSON via
/// [`BlameReport::to_json`], `schema_version` =
/// [`BLAME_SCHEMA_VERSION`]).
#[derive(Debug, Clone)]
pub struct BlameReport {
    /// Cycles observed (after any [`CausalProfiler::rebase`]).
    pub cycles: u64,
    /// The batch lane observed (0 for scalar engines).
    pub lane: u16,
    /// Void tokens consumed by sinks — the lost cycles.
    pub lost_cycles: u64,
    /// Informative tokens consumed by sinks.
    pub consumed: u64,
    /// Shell-cycles that did not fire, by cause.
    pub upstream_void: u64,
    /// See [`StallCause::DownstreamStop`].
    pub downstream_stop: u64,
    /// See [`StallCause::Both`].
    pub both: u64,
    /// Per channel: cycles its stop bit was asserted (equals
    /// `MetricsRegistry::stalls` over the same window).
    pub channel_stalls: Vec<u64>,
    /// Per channel: cycles it carried a void (equals
    /// `MetricsRegistry::voids`).
    pub channel_voids: Vec<u64>,
    /// Blame profile, heaviest first (ties broken by dense entity id).
    pub entries: Vec<BlameEntry>,
    /// The dominant causal loop: greedy max-weight walk over the blame
    /// edges from the top-blamed entity. Empty when nothing is blamed
    /// or the walk dead-ends (feed-forward designs at full rate).
    pub top_cycle: Vec<Entity>,
    /// Aggregated non-zero blame edges, ordered by (from, to).
    pub edges: Vec<BlameEdge>,
    /// Sequence latency per reachable source→sink pair.
    pub latency: Vec<PairLatency>,
    /// Per relay row: residency histogram (cycles between fill and the
    /// matching drain).
    pub relay_residency: Vec<Histogram>,
    /// Per relay row: occupancy histogram (`[occ] = cycles spent at
    /// exactly `occ` tokens`).
    pub relay_occupancy: Vec<Vec<u64>>,
    /// Tokens emitted by sources in the observed window.
    pub tokens_emitted: u64,
    graph: ChannelGraph,
}

impl BlameReport {
    /// Total blame mass (sum over [`BlameReport::entries`]).
    #[must_use]
    pub fn total_blame(&self) -> u64 {
        self.entries.iter().map(|e| e.blamed).sum()
    }

    /// Blame charged to `e` (0 when absent from the profile).
    #[must_use]
    pub fn blame_of(&self, e: Entity) -> u64 {
        self.entries
            .iter()
            .find(|en| en.entity == e)
            .map_or(0, |en| en.blamed)
    }

    /// Blame charged to the entity mapped to netlist node `node`.
    #[must_use]
    pub fn blame_of_node(&self, node: u32) -> u64 {
        self.entries
            .iter()
            .filter(|en| en.node == node)
            .map(|en| en.blamed)
            .sum()
    }

    /// Netlist node ids of [`BlameReport::top_cycle`], sorted and
    /// deduplicated — the set to compare against a static bottleneck
    /// prediction.
    #[must_use]
    pub fn top_cycle_nodes(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self.top_cycle.iter().map(|&e| self.graph.node(e)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// The wiring the report was built over.
    #[must_use]
    pub fn graph(&self) -> &ChannelGraph {
        &self.graph
    }

    /// Serialise as a versioned JSON document (compact, one line).
    #[must_use]
    pub fn to_json(&self) -> String {
        let g = &self.graph;
        let ent = |e: Entity, name: &str, node: u32| {
            vec![
                ("entity", Json::Str(e.label())),
                ("name", name.into()),
                ("node", node.into()),
            ]
        };
        let total = self.total_blame();
        let entries = self.entries.iter().map(|e| {
            #[allow(clippy::cast_precision_loss)]
            let share = if total == 0 {
                0.0
            } else {
                e.blamed as f64 / total as f64
            };
            let mut row = ent(e.entity, &e.name, e.node);
            row.extend([("blamed", e.blamed.into()), ("share", share.into())]);
            Json::obj(row)
        });
        let cycle = self
            .top_cycle
            .iter()
            .map(|&e| Json::obj(ent(e, g.name(e), g.node(e))));
        let edges = self.edges.iter().map(|e| {
            Json::obj([
                ("from", Json::Str(e.from.label())),
                ("to", Json::Str(e.to.label())),
                ("void", e.void_weight.into()),
                ("stop", e.stop_weight.into()),
            ])
        });
        let latency = self.latency.iter().map(|p| {
            Json::obj([
                ("source", g.name(Entity::Source(p.source)).into()),
                ("sink", g.name(Entity::Sink(p.sink)).into()),
                ("latency", p.histogram.summary_json()),
            ])
        });
        let relays = (0..g.relay_count()).map(|r| {
            let e = Entity::Relay(r as u32);
            Json::obj([
                ("entity", Json::Str(e.label())),
                ("name", g.name(e).into()),
                ("capacity", g.relay_capacity[r].into()),
                ("residency", self.relay_residency[r].summary_json()),
                (
                    "occupancy",
                    self.relay_occupancy[r].iter().copied().collect(),
                ),
            ])
        });
        let doc = Json::obj([
            ("schema_version", BLAME_SCHEMA_VERSION.into()),
            ("kind", "blame_report".into()),
            ("cycles", self.cycles.into()),
            ("lane", u32::from(self.lane).into()),
            ("lost_cycles", self.lost_cycles.into()),
            ("consumed", self.consumed.into()),
            (
                "classification",
                Json::obj([
                    ("upstream_void", self.upstream_void.into()),
                    ("downstream_stop", self.downstream_stop.into()),
                    ("both", self.both.into()),
                ]),
            ),
            (
                "channel_stalls",
                self.channel_stalls.iter().copied().collect(),
            ),
            (
                "channel_voids",
                self.channel_voids.iter().copied().collect(),
            ),
            ("blame", entries.collect()),
            ("top_cycle", cycle.collect()),
            ("edges", edges.collect()),
            ("latency", latency.collect()),
            ("relays", relays.collect()),
            ("tokens_emitted", self.tokens_emitted.into()),
        ]);
        doc.to_compact() + "\n"
    }
}

/// Matched relay residency: a token entered `relay` at `enter` and left
/// at `exit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopSpan {
    /// Relay row.
    pub relay: u32,
    /// Fill cycle.
    pub enter: u64,
    /// Drain cycle.
    pub exit: u64,
}

/// A closed interval of consecutive cycles a shell did not fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallSpan {
    /// Shell row.
    pub shell: u32,
    /// First stalled cycle.
    pub start: u64,
    /// One past the last stalled cycle.
    pub end: u64,
}

/// The causal profiling probe (see the [module docs](self)).
///
/// Observes exactly one lane: lane 0 by default (the scalar engines),
/// or any batch lane via [`CausalProfiler::for_lane`] — the `*_mask`
/// hooks filter the configured lane's bit, so attaching the profiler to
/// a 64-lane run profiles that lane alone.
#[derive(Debug, Clone)]
pub struct CausalProfiler {
    graph: ChannelGraph,
    lane: u16,
    cycles: u64,
    // Per-cycle scratch, cleared at end_cycle.
    cur_stall: Vec<bool>,
    cur_void: Vec<bool>,
    cur_fired: Vec<bool>,
    // Persistent counters.
    channel_stalls: Vec<u64>,
    channel_voids: Vec<u64>,
    lost_cycles: u64,
    consumed: u64,
    upstream_void: u64,
    downstream_stop: u64,
    both: u64,
    // Token tracing.
    emits: Vec<Vec<u64>>,
    consumes: Vec<Vec<u64>>,
    relay_queue: Vec<VecDeque<u64>>,
    relay_residency: Vec<Histogram>,
    relay_occupancy: Vec<Vec<u64>>,
    cur_occ: Vec<u32>,
    unmatched_drains: u64,
    // Span retention for trace export.
    hop_spans: Vec<HopSpan>,
    stall_spans: Vec<StallSpan>,
    stall_run: Vec<Option<u64>>,
}

impl CausalProfiler {
    /// A profiler over `graph`, observing lane 0.
    #[must_use]
    pub fn new(graph: ChannelGraph) -> Self {
        Self::for_lane(graph, 0)
    }

    /// A profiler observing batch lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64` (the lanes of the batch engine's word).
    #[must_use]
    pub fn for_lane(graph: ChannelGraph, lane: u16) -> Self {
        assert!(lane < 64, "lane must be in 0..64");
        let nch = graph.channel_count();
        let nsh = graph.shell_count();
        let nre = graph.relay_count();
        CausalProfiler {
            lane,
            cycles: 0,
            cur_stall: vec![false; nch],
            cur_void: vec![false; nch],
            cur_fired: vec![false; nsh],
            channel_stalls: vec![0; nch],
            channel_voids: vec![0; nch],
            lost_cycles: 0,
            consumed: 0,
            upstream_void: 0,
            downstream_stop: 0,
            both: 0,
            emits: vec![Vec::new(); graph.source_count()],
            consumes: vec![Vec::new(); graph.sink_count()],
            relay_queue: vec![VecDeque::new(); nre],
            relay_residency: vec![Histogram::new(); nre],
            relay_occupancy: graph
                .relay_capacity
                .iter()
                .map(|&cap| vec![0; cap as usize + 1])
                .collect(),
            cur_occ: vec![0; nre],
            unmatched_drains: 0,
            hop_spans: Vec::new(),
            stall_spans: Vec::new(),
            stall_run: vec![None; nsh],
            graph,
        }
    }

    /// The wiring this profiler observes.
    #[must_use]
    pub fn graph(&self) -> &ChannelGraph {
        &self.graph
    }

    /// Cycles observed since construction or the last
    /// [`rebase`](Self::rebase).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Void tokens consumed by sinks in the window.
    #[must_use]
    pub fn lost_cycles(&self) -> u64 {
        self.lost_cycles
    }

    /// Per-channel stop-asserted cycle counts.
    #[must_use]
    pub fn channel_stalls(&self) -> &[u64] {
        &self.channel_stalls
    }

    /// Per-channel void-carried cycle counts.
    #[must_use]
    pub fn channel_voids(&self) -> &[u64] {
        &self.channel_voids
    }

    /// Relay drains that found no matched fill (only possible when the
    /// profiler attached mid-run without [`rebase`](Self::rebase)
    /// semantics — from reset this stays 0).
    #[must_use]
    pub fn unmatched_drains(&self) -> u64 {
        self.unmatched_drains
    }

    /// Retained relay residency spans (for trace export).
    #[must_use]
    pub fn hop_spans(&self) -> &[HopSpan] {
        &self.hop_spans
    }

    /// Retained closed stall intervals (for trace export); runs still
    /// open at the end of the window are in
    /// [`open_stall_runs`](Self::open_stall_runs).
    #[must_use]
    pub fn stall_spans(&self) -> &[StallSpan] {
        &self.stall_spans
    }

    /// Per shell: start cycle of a still-open stall run.
    #[must_use]
    pub fn open_stall_runs(&self) -> &[Option<u64>] {
        &self.stall_run
    }

    /// Per source row: cycle of each emission in the window.
    #[must_use]
    pub fn emissions(&self) -> &[Vec<u64>] {
        &self.emits
    }

    /// Per sink row: cycle of each informative consumption.
    #[must_use]
    pub fn consumptions(&self) -> &[Vec<u64>] {
        &self.consumes
    }

    /// Restrict the window to everything *after* `cycle`: zero every
    /// counter, histogram, log and span, but keep the relay occupancy
    /// tracking state so histograms stay correct. Call after a warmup
    /// run to profile the steady state alone.
    pub fn rebase(&mut self, cycle: u64) {
        self.cycles = 0;
        self.channel_stalls.iter_mut().for_each(|c| *c = 0);
        self.channel_voids.iter_mut().for_each(|c| *c = 0);
        self.lost_cycles = 0;
        self.consumed = 0;
        self.upstream_void = 0;
        self.downstream_stop = 0;
        self.both = 0;
        self.emits.iter_mut().for_each(Vec::clear);
        self.consumes.iter_mut().for_each(Vec::clear);
        for q in &mut self.relay_queue {
            for enter in q.iter_mut() {
                *enter = (*enter).max(cycle);
            }
        }
        self.relay_residency
            .iter_mut()
            .for_each(|h| *h = Histogram::new());
        for hist in &mut self.relay_occupancy {
            hist.iter_mut().for_each(|c| *c = 0);
        }
        self.unmatched_drains = 0;
        self.hop_spans.clear();
        self.stall_spans.clear();
        for start in self.stall_run.iter_mut().flatten() {
            *start = (*start).max(cycle);
        }
    }

    /// Build the [`BlameReport`] for the observed window.
    #[must_use]
    pub fn report(&self) -> BlameReport {
        let g = &self.graph;
        let n_ent = g.entity_count();
        // Fold per-channel counters into blame edges and per-entity
        // blame: void edge consumer -> producer, stop edge
        // producer -> consumer.
        let mut edge_w: Vec<std::collections::BTreeMap<usize, [u64; 2]>> =
            vec![std::collections::BTreeMap::new(); n_ent];
        let mut blame = vec![0u64; n_ent];
        for ch in 0..g.channel_count() {
            let p = g.dense(g.producer[ch]);
            let c = g.dense(g.consumer[ch]);
            let voids = self.channel_voids[ch];
            let stalls = self.channel_stalls[ch];
            if voids > 0 {
                edge_w[c].entry(p).or_default()[0] += voids;
                blame[p] += voids;
            }
            if stalls > 0 {
                edge_w[p].entry(c).or_default()[1] += stalls;
                blame[c] += stalls;
            }
        }
        let mut order: Vec<usize> = (0..n_ent).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(blame[i]), i));
        let entries: Vec<BlameEntry> = order
            .iter()
            .filter(|&&i| blame[i] > 0)
            .map(|&i| {
                let e = g.entity(i);
                BlameEntry {
                    entity: e,
                    node: g.node(e),
                    name: g.name(e).to_owned(),
                    blamed: blame[i],
                }
            })
            .collect();
        // Greedy max-weight walk from the top-blamed entity; the first
        // revisited entity closes the dominant causal loop.
        let top_cycle = entries.first().map_or_else(Vec::new, |top| {
            let mut path: Vec<usize> = vec![g.dense(top.entity)];
            loop {
                let cur = *path.last().expect("path non-empty");
                let next = edge_w[cur]
                    .iter()
                    .max_by_key(|&(&t, w)| (w[0] + w[1], std::cmp::Reverse(t)))
                    .map(|(&t, _)| t);
                let Some(next) = next else { break Vec::new() };
                if let Some(i) = path.iter().position(|&e| e == next) {
                    break path[i..].iter().map(|&e| g.entity(e)).collect();
                }
                if path.len() > n_ent {
                    break Vec::new();
                }
                path.push(next);
            }
        });
        let mut edges = Vec::new();
        for (from, targets) in edge_w.iter().enumerate() {
            for (&to, w) in targets {
                edges.push(BlameEdge {
                    from: g.entity(from),
                    to: g.entity(to),
                    void_weight: w[0],
                    stop_weight: w[1],
                });
            }
        }
        // Sequence latency per reachable source -> sink pair.
        let mut latency = Vec::new();
        for i in 0..g.source_count() {
            for j in 0..g.sink_count() {
                if !g.source_reaches_sink(i, j) {
                    continue;
                }
                let mut hist = Histogram::new();
                for (em, co) in self.emits[i].iter().zip(&self.consumes[j]) {
                    if let Some(lat) = co.checked_sub(*em) {
                        hist.record(lat);
                    }
                }
                latency.push(PairLatency {
                    source: i as u32,
                    sink: j as u32,
                    histogram: hist,
                });
            }
        }
        BlameReport {
            cycles: self.cycles,
            lane: self.lane,
            lost_cycles: self.lost_cycles,
            consumed: self.consumed,
            upstream_void: self.upstream_void,
            downstream_stop: self.downstream_stop,
            both: self.both,
            channel_stalls: self.channel_stalls.clone(),
            channel_voids: self.channel_voids.clone(),
            entries,
            top_cycle,
            edges,
            latency,
            relay_residency: self.relay_residency.clone(),
            relay_occupancy: self.relay_occupancy.clone(),
            tokens_emitted: self.emits.iter().map(|v| v.len() as u64).sum(),
            graph: self.graph.clone(),
        }
    }
}

impl CausalProfiler {
    /// `true` if the observed lane's bit is set in the lane mask `mask`.
    #[inline]
    fn observes(&self, mask: u64) -> bool {
        (mask >> self.lane) & 1 == 1
    }
}

impl Probe for CausalProfiler {
    /// Replayed event streams route to the same handlers as direct
    /// hooks. Since schema version 2 the stream carries
    /// `channel_void`/`consume` records, so a recorded JSONL stream
    /// replays into the same blame a live engine attachment produces —
    /// void-side attribution included.
    fn event(&mut self, ev: Event) {
        match ev.kind {
            EventKind::Fire => self.fire(ev.cycle, ev.entity, ev.lane),
            EventKind::Stall => self.stall(ev.cycle, ev.entity, ev.lane),
            EventKind::VoidIn => self.void_in(ev.cycle, ev.entity, ev.lane),
            EventKind::RelayFill => self.relay_fill(ev.cycle, ev.entity, ev.lane),
            EventKind::RelayDrain => self.relay_drain(ev.cycle, ev.entity, ev.lane),
            EventKind::ChannelVoid => self.channel_void(ev.cycle, ev.entity, ev.lane),
            EventKind::Consume => self.consume(ev.cycle, ev.entity, ev.lane),
            EventKind::VoidDiscard => {}
        }
    }

    #[inline]
    fn fire(&mut self, _cycle: u64, shell: u32, lane: u16) {
        if lane == self.lane {
            self.cur_fired[shell as usize] = true;
        }
    }

    #[inline]
    fn stall(&mut self, _cycle: u64, ch: u32, lane: u16) {
        if lane == self.lane {
            self.cur_stall[ch as usize] = true;
        }
    }

    #[inline]
    fn channel_void(&mut self, _cycle: u64, ch: u32, lane: u16) {
        if lane == self.lane {
            self.cur_void[ch as usize] = true;
        }
    }

    #[inline]
    fn consume(&mut self, cycle: u64, ch: u32, lane: u16) {
        if lane == self.lane {
            self.consumed += 1;
            if let Entity::Sink(j) = self.graph.consumer[ch as usize] {
                self.consumes[j as usize].push(cycle);
            }
        }
    }

    #[inline]
    fn void_in(&mut self, _cycle: u64, _ch: u32, lane: u16) {
        if lane == self.lane {
            self.lost_cycles += 1;
        }
    }

    #[inline]
    fn relay_fill(&mut self, cycle: u64, relay: u32, lane: u16) {
        if lane == self.lane {
            self.relay_queue[relay as usize].push_back(cycle);
            self.cur_occ[relay as usize] += 1;
        }
    }

    #[inline]
    fn relay_drain(&mut self, cycle: u64, relay: u32, lane: u16) {
        if lane == self.lane {
            if let Some(enter) = self.relay_queue[relay as usize].pop_front() {
                self.relay_residency[relay as usize].record(cycle.saturating_sub(enter));
                self.hop_spans.push(HopSpan {
                    relay,
                    enter,
                    exit: cycle,
                });
            } else {
                self.unmatched_drains += 1;
            }
            let occ = &mut self.cur_occ[relay as usize];
            *occ = occ.saturating_sub(1);
        }
    }

    fn end_cycle(&mut self, cycle: u64) {
        // Blame counters: a channel's void charges its producer, its
        // stop charges its consumer (folded into edges at report time).
        for ch in 0..self.graph.channel_count() {
            self.channel_stalls[ch] += u64::from(self.cur_stall[ch]);
            self.channel_voids[ch] += u64::from(self.cur_void[ch]);
        }
        // Stall classification per non-firing shell.
        for s in 0..self.graph.shell_count() {
            if self.cur_fired[s] {
                if let Some(start) = self.stall_run[s].take() {
                    self.stall_spans.push(StallSpan {
                        shell: s as u32,
                        start,
                        end: cycle,
                    });
                }
                continue;
            }
            if self.stall_run[s].is_none() {
                self.stall_run[s] = Some(cycle);
            }
            let some_void = self
                .graph
                .shell_inputs(s)
                .iter()
                .any(|&ch| self.cur_void[ch as usize]);
            let some_stop = self
                .graph
                .shell_outputs(s)
                .iter()
                .any(|&ch| self.cur_stall[ch as usize]);
            match (some_void, some_stop) {
                (true, false) => self.upstream_void += 1,
                (false, true) => self.downstream_stop += 1,
                (true, true) => self.both += 1,
                (false, false) => {}
            }
        }
        // Source emissions: a valid, unstopped output channel moved one
        // token into the network this cycle.
        for i in 0..self.graph.source_count() {
            let ch = self.graph.source_out[i] as usize;
            if !self.cur_void[ch] && !self.cur_stall[ch] {
                self.emits[i].push(cycle);
            }
        }
        // Occupancy histograms.
        for (r, &occ) in self.cur_occ.iter().enumerate() {
            let hist = &mut self.relay_occupancy[r];
            let slot = (occ as usize).min(hist.len() - 1);
            hist[slot] += 1;
        }
        self.cur_stall.iter_mut().for_each(|b| *b = false);
        self.cur_void.iter_mut().for_each(|b| *b = false);
        self.cur_fired.iter_mut().for_each(|b| *b = false);
        self.cycles += 1;
    }

    #[inline]
    fn fire_mask(&mut self, cycle: u64, shell: u32, mask: u64) {
        if self.observes(mask) {
            self.fire(cycle, shell, self.lane);
        }
    }

    #[inline]
    fn stall_mask(&mut self, cycle: u64, ch: u32, mask: u64) {
        if self.observes(mask) {
            self.stall(cycle, ch, self.lane);
        }
    }

    #[inline]
    fn channel_void_mask(&mut self, cycle: u64, ch: u32, mask: u64) {
        if self.observes(mask) {
            self.channel_void(cycle, ch, self.lane);
        }
    }

    #[inline]
    fn consume_mask(&mut self, cycle: u64, ch: u32, mask: u64) {
        if self.observes(mask) {
            self.consume(cycle, ch, self.lane);
        }
    }

    #[inline]
    fn void_in_mask(&mut self, cycle: u64, ch: u32, mask: u64) {
        if self.observes(mask) {
            self.void_in(cycle, ch, self.lane);
        }
    }

    #[inline]
    fn void_discard_mask(&mut self, _cycle: u64, _ch: u32, _mask: u64) {}

    #[inline]
    fn relay_fill_mask(&mut self, cycle: u64, relay: u32, mask: u64) {
        if self.observes(mask) {
            self.relay_fill(cycle, relay, self.lane);
        }
    }

    #[inline]
    fn relay_drain_mask(&mut self, cycle: u64, relay: u32, mask: u64) {
        if self.observes(mask) {
            self.relay_drain(cycle, relay, self.lane);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-entity pipeline: source -> c0 -> shell -> c1 -> sink.
    fn pipeline_graph() -> ChannelGraph {
        ChannelGraph {
            producer: vec![Entity::Source(0), Entity::Shell(0)],
            consumer: vec![Entity::Shell(0), Entity::Sink(0)],
            source_out: vec![0],
            sink_in: vec![1],
            relay_in: vec![],
            relay_out: vec![],
            relay_capacity: vec![],
            shell_in_off: vec![0, 1],
            shell_in_ch: vec![0],
            shell_out_off: vec![0, 1],
            shell_out_ch: vec![1],
            nodes: vec![1, 0, 2],
            names: vec!["A".into(), "in".into(), "out".into()],
        }
    }

    #[test]
    fn dense_roundtrip_and_reachability() {
        let g = pipeline_graph();
        assert_eq!(g.entity_count(), 3);
        for i in 0..g.entity_count() {
            assert_eq!(g.dense(g.entity(i)), i);
        }
        assert_eq!(g.name(Entity::Shell(0)), "A");
        assert!(g.source_reaches_sink(0, 0));
    }

    #[test]
    fn histogram_percentiles_are_exact() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.percentile(50), Some(2));
        assert_eq!(h.percentile(95), Some(100));
        assert_eq!(h.max(), Some(100));
        assert_eq!(Histogram::new().percentile(50), None);
    }

    #[test]
    fn empty_histogram_reports_nulls() {
        let h = Histogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.max(), None);
        assert_eq!(h.percentile(0), None);
        assert_eq!(h.percentile(100), None);
        assert_eq!(
            h.summary_json().to_compact(),
            "{\"samples\":0,\"p50\":null,\"p95\":null,\"max\":null}"
        );
    }

    #[test]
    fn single_sample_pins_every_statistic() {
        let mut h = Histogram::new();
        h.record(7);
        assert_eq!(h.total(), 1);
        assert_eq!(h.percentile(50), Some(7));
        assert_eq!(h.percentile(95), Some(7));
        assert_eq!(h.percentile(0), Some(7));
        assert_eq!(h.max(), Some(7));
    }

    #[test]
    fn downstream_stop_blames_the_stopping_consumer() {
        let g = pipeline_graph();
        let mut p = CausalProfiler::new(g);
        // Cycle 0: sink stops the shell's output; the shell holds a
        // valid token everywhere, does not fire.
        p.stall(0, 1, 0);
        p.end_cycle(0);
        assert_eq!(p.cycles(), 1);
        let r = p.report();
        assert_eq!(r.downstream_stop, 1);
        assert_eq!(r.upstream_void, 0);
        assert_eq!(r.blame_of(Entity::Sink(0)), 1);
        assert_eq!(r.channel_stalls, vec![0, 1]);
        // Source emitted (its channel was valid and unstopped).
        assert_eq!(r.tokens_emitted, 1);
    }

    #[test]
    fn upstream_void_blames_the_starving_producer() {
        let g = pipeline_graph();
        let mut p = CausalProfiler::new(g);
        p.channel_void(0, 0, 0);
        p.end_cycle(0);
        let r = p.report();
        assert_eq!(r.upstream_void, 1);
        assert_eq!(r.blame_of(Entity::Source(0)), 1);
        assert_eq!(r.channel_voids, vec![1, 0]);
        assert_eq!(r.tokens_emitted, 0);
    }

    #[test]
    fn other_lanes_are_filtered() {
        let g = pipeline_graph();
        let mut p = CausalProfiler::for_lane(g, 3);
        p.stall_mask(0, 1, 0b0001); // lane 0 only: ignored
        p.stall_mask(0, 0, 0b1000); // lane 3: observed
        p.end_cycle(0);
        let r = p.report();
        assert_eq!(r.channel_stalls, vec![1, 0]);
        assert_eq!(r.lane, 3);
    }

    #[test]
    fn the_top_lane_filters() {
        let mut p = CausalProfiler::for_lane(pipeline_graph(), 63);
        p.stall_mask(0, 0, !0 >> 1); // lanes 0..=62: ignored
        p.stall_mask(0, 1, 1 << 63); // lane 63: observed
        p.end_cycle(0);
        assert_eq!(p.report().channel_stalls, vec![0, 1]);
        assert_eq!(p.report().lane, 63);
    }

    #[test]
    #[should_panic(expected = "lane must be in 0..64")]
    fn lanes_past_the_word_are_rejected() {
        let _ = CausalProfiler::for_lane(pipeline_graph(), 64);
    }

    #[test]
    fn replayed_stream_reproduces_void_side_blame() {
        // Schema v2: channel_void/consume arrive as events, so feeding
        // a recorded stream through `event()` must match live hooks.
        let mut live = CausalProfiler::new(pipeline_graph());
        live.channel_void(0, 0, 0);
        live.consume(0, 1, 0);
        live.end_cycle(0);
        let mut replay = CausalProfiler::new(pipeline_graph());
        replay.event(Event::new(0, EventKind::ChannelVoid, 0, 0));
        replay.event(Event::new(0, EventKind::Consume, 1, 0));
        replay.end_cycle(0);
        let (a, b) = (live.report(), replay.report());
        assert_eq!(a.channel_voids, b.channel_voids);
        assert_eq!(a.consumed, b.consumed);
        assert_eq!(a.upstream_void, b.upstream_void);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn relay_residency_matches_fill_drain_order() {
        let mut g = pipeline_graph();
        g.relay_in.push(0);
        g.relay_out.push(1);
        g.relay_capacity.push(2);
        let mut p = CausalProfiler::new(g);
        p.relay_fill(0, 0, 0);
        p.end_cycle(0);
        p.relay_fill(1, 0, 0);
        p.relay_drain(1, 0, 0); // drains the cycle-0 token
        p.end_cycle(1);
        p.relay_drain(2, 0, 0); // drains the cycle-1 token
        p.end_cycle(2);
        let r = p.report();
        assert_eq!(r.relay_residency[0].total(), 2);
        assert_eq!(r.relay_residency[0].max(), Some(1));
        // occ: 1 after cycle 0, 1 after cycle 1, 0 after cycle 2.
        assert_eq!(r.relay_occupancy[0], vec![1, 2, 0]);
        assert_eq!(p.hop_spans().len(), 2);
        assert_eq!(p.unmatched_drains(), 0);
    }

    #[test]
    fn rebase_clears_the_window_but_keeps_tracking_state() {
        let mut g = pipeline_graph();
        g.relay_in.push(0);
        g.relay_out.push(1);
        g.relay_capacity.push(2);
        let mut p = CausalProfiler::new(g);
        p.relay_fill(0, 0, 0);
        p.stall(0, 1, 0);
        p.end_cycle(0);
        p.rebase(1);
        assert_eq!(p.cycles(), 0);
        assert_eq!(p.channel_stalls(), &[0, 0]);
        // The in-flight token survives the rebase; a later drain still
        // matches (with the enter clamped to the rebase cycle).
        p.relay_drain(3, 0, 0);
        p.end_cycle(3);
        assert_eq!(p.unmatched_drains(), 0);
        let r = p.report();
        assert_eq!(r.relay_residency[0].max(), Some(2));
    }

    #[test]
    fn blame_json_is_versioned() {
        let g = pipeline_graph();
        let mut p = CausalProfiler::new(g);
        p.stall(0, 1, 0);
        p.end_cycle(0);
        let j = p.report().to_json();
        let doc = crate::json::parse(&j).unwrap();
        assert_eq!(doc.get("schema_version"), Some(&Json::Int(1)));
        assert_eq!(doc.get("kind"), Some(&Json::from("blame_report")));
        let top = &doc.get("blame").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(top.get("blamed"), Some(&Json::Int(1)));
        assert_eq!(top.get("share"), Some(&Json::Float(1.0)));
        assert!(j.contains("\"channel_stalls\":[0,1]"));
    }
}
