//! The latency-insensitive netlist: nodes (sources, shells, relay
//! stations, sinks) connected by point-to-point channels.
//!
//! Every channel has exactly one producer port and one consumer port; each
//! port carries the protocol triple `data`/`valid` forward and `stop`
//! backward. Fanout is expressed as a shell output *per consumer* (e.g.
//! [`IdentityPearl::with_fanout`](lip_core::pearl::IdentityPearl::with_fanout)),
//! because each copy of a datum needs its own valid/stop pair to be
//! consumable independently.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use lip_core::pearl::Pearl;
use lip_core::{Pattern, ProtocolVariant, RelayKind};

use crate::error::NetlistError;
use crate::names::NameArena;

/// Handle to a node of a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The id of the node at dense index `index`, the inverse of
    /// [`index`](Self::index): for tables indexed by node, such as a
    /// compiled program's.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit a `u32`.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index fits u32"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Handle to a channel of a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub(crate) u32);

impl ChannelId {
    /// Dense index of this channel.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// What a node is.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// Primary input, emitting sequence-numbered tokens with an optional
    /// void pattern.
    Source {
        /// Cycles on which the source emits a void instead of data.
        void_pattern: Pattern,
    },
    /// Primary output, with an optional back-pressure pattern.
    Sink {
        /// Cycles on which the sink refuses the offered token.
        stop_pattern: Pattern,
    },
    /// A shell-wrapped pearl.
    Shell {
        /// The functional module.
        pearl: Box<dyn Pearl>,
        /// `true` for the buffered shell of earlier proposals (inputs
        /// registered, stops saved inside the shell); `false` for the
        /// paper's simplified shell.
        buffered: bool,
    },
    /// A relay station of the given kind.
    Relay {
        /// Full (two registers) or half (one register).
        kind: RelayKind,
    },
}

impl NodeKind {
    /// Number of input ports.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        match self {
            NodeKind::Source { .. } => 0,
            NodeKind::Sink { .. } | NodeKind::Relay { .. } => 1,
            NodeKind::Shell { pearl, .. } => pearl.num_inputs(),
        }
    }

    /// Number of output ports.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        match self {
            NodeKind::Sink { .. } => 0,
            NodeKind::Source { .. } | NodeKind::Relay { .. } => 1,
            NodeKind::Shell { pearl, .. } => pearl.num_outputs(),
        }
    }

    /// `true` for relay stations of either kind.
    #[must_use]
    pub fn is_relay(&self) -> bool {
        matches!(self, NodeKind::Relay { .. })
    }

    /// `true` for shells of either flavour.
    #[must_use]
    pub fn is_shell(&self) -> bool {
        matches!(self, NodeKind::Shell { .. })
    }

    /// `true` for buffered shells (registered inputs: the stop path is
    /// cut inside the shell).
    #[must_use]
    pub fn is_buffered_shell(&self) -> bool {
        matches!(self, NodeKind::Shell { buffered: true, .. })
    }

    /// `true` for the paper's simplified shells (stops traverse
    /// combinationally).
    #[must_use]
    pub fn is_simple_shell(&self) -> bool {
        matches!(
            self,
            NodeKind::Shell {
                buffered: false,
                ..
            }
        )
    }

    /// Forward (data) latency contributed by the node when flowing:
    /// shells and full relay stations register data (1); half stations
    /// and endpoints are transparent (0 — source registers count as the
    /// producer's).
    #[must_use]
    pub fn forward_latency(&self) -> u64 {
        match self {
            NodeKind::Shell { .. } => 1,
            NodeKind::Relay { kind } => kind.forward_latency(),
            NodeKind::Source { .. } | NodeKind::Sink { .. } => 0,
        }
    }
}

/// A node: its kind and display name, borrowed from the netlist (which
/// keeps every name in one arena rather than one `String` per node).
#[derive(Debug, Clone, Copy)]
pub struct Node<'a> {
    name: &'a str,
    kind: &'a NodeKind,
}

impl<'a> Node<'a> {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'a str {
        self.name
    }

    /// The node's kind.
    #[must_use]
    pub fn kind(self) -> &'a NodeKind {
        self.kind
    }
}

/// One endpoint of a channel: a node and a port index on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Port {
    /// The node.
    pub node: NodeId,
    /// Port index within the node's input or output ports.
    pub index: usize,
}

/// A point-to-point channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Channel {
    /// Producing output port.
    pub producer: Port,
    /// Consuming input port.
    pub consumer: Port,
}

/// A channel as the netlist stores it: both endpoints in 16 bytes, half
/// of a [`Channel`] with its `usize` port indices.
#[derive(Debug, Clone, Copy)]
struct Link {
    producer: NodeId,
    producer_port: u32,
    consumer: NodeId,
    consumer_port: u32,
}

impl Link {
    fn channel(self) -> Channel {
        Channel {
            producer: Port {
                node: self.producer,
                index: self.producer_port as usize,
            },
            consumer: Port {
                node: self.consumer,
                index: self.consumer_port as usize,
            },
        }
    }
}

/// A port slot that no channel fills: channel ids stay below it.
const UNCONNECTED: u32 = u32::MAX;

/// Every node's port slots, one way, in one flat array, so a netlist
/// allocates nothing per node: node `i`'s ports are
/// `slots[first[i]..first[i + 1]]`, each the id of the channel on it or
/// [`UNCONNECTED`]. A node's arity is the length of its range, so port
/// checks and validation read it here rather than asking the shell's
/// boxed pearl.
#[derive(Debug, Clone)]
struct PortTable {
    first: Vec<u32>,
    slots: Vec<u32>,
}

impl Default for PortTable {
    fn default() -> Self {
        PortTable {
            first: vec![0],
            slots: Vec::new(),
        }
    }
}

impl PortTable {
    /// An empty table with room for `nodes` nodes holding `slots` ports.
    fn with_capacity(nodes: usize, slots: usize) -> Self {
        let mut first = Vec::with_capacity(nodes + 1);
        first.push(0);
        PortTable {
            first,
            slots: Vec::with_capacity(slots),
        }
    }

    /// Add the next node's `count` unconnected ports.
    fn push(&mut self, count: usize) {
        self.slots.resize(self.slots.len() + count, UNCONNECTED);
        self.first
            .push(u32::try_from(self.slots.len()).expect("too many ports"));
    }

    fn of(&self, node: NodeId) -> &[u32] {
        &self.slots[self.first[node.index()] as usize..self.first[node.index() + 1] as usize]
    }

    fn of_mut(&mut self, node: NodeId) -> &mut [u32] {
        &mut self.slots[self.first[node.index()] as usize..self.first[node.index() + 1] as usize]
    }

    /// Number of ports of `node`.
    fn arity(&self, node: NodeId) -> usize {
        (self.first[node.index() + 1] - self.first[node.index()]) as usize
    }

    /// The channel on port `port` of `node`, if that port exists and is
    /// connected.
    fn channel(&self, node: NodeId, port: usize) -> Option<ChannelId> {
        match self.of(node).get(port) {
            Some(&UNCONNECTED) | None => None,
            Some(&c) => Some(ChannelId(c)),
        }
    }

    /// The channels on `node`'s connected ports, in port order.
    fn channels(&self, node: NodeId) -> impl Iterator<Item = ChannelId> + '_ {
        self.of(node)
            .iter()
            .filter(|&&c| c != UNCONNECTED)
            .map(|&c| ChannelId(c))
    }

    /// `node`'s first unconnected port, if any.
    fn first_unconnected(&self, node: NodeId) -> Option<usize> {
        self.of(node).iter().position(|&c| c == UNCONNECTED)
    }
}

/// Netlist stamps come from one process-wide counter in blocks of this
/// many, so drawing a stamp (every builder call draws one) is a
/// thread-local increment, not an atomic read-modify-write.
const STAMP_BLOCK: u64 = 1 << 16;

/// The first stamp of the next unclaimed block. Stamps start at 1, so 0
/// never names a netlist and an empty memo slot can hold it.
static NEXT_STAMP_BLOCK: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's next stamp and the end of its block.
    static STAMPS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// The stamp of the netlist this thread last validated.
    static VALIDATED: Cell<u64> = const { Cell::new(0) };
}

/// A netlist's identity stamp: drawn fresh at construction and on
/// every mutation, copied by `clone`. Two netlists with one stamp have
/// the same contents, so whatever was derived from one holds for the
/// other.
#[derive(Debug, Clone, Copy)]
struct Stamp(u64);

impl Stamp {
    fn fresh() -> Self {
        let (mut next, mut end) = STAMPS.get();
        if next == end {
            next = NEXT_STAMP_BLOCK.fetch_add(STAMP_BLOCK, Ordering::Relaxed);
            end = next + STAMP_BLOCK;
        }
        STAMPS.set((next + 1, end));
        Stamp(next)
    }
}

impl Default for Stamp {
    fn default() -> Self {
        Stamp::fresh()
    }
}

/// A latency-insensitive netlist.
///
/// Every netlist carries an identity [`stamp`](Netlist::stamp). It
/// takes no part in what the netlist means: it only lets the crates
/// that elaborate a netlist reuse what they derived from the same,
/// unchanged netlist.
///
/// # Example
///
/// ```
/// use lip_graph::Netlist;
/// use lip_core::pearl::IdentityPearl;
/// use lip_core::RelayKind;
///
/// # fn main() -> Result<(), lip_graph::NetlistError> {
/// let mut n = Netlist::new();
/// let src = n.add_source("in");
/// let rs = n.add_relay(RelayKind::Full);
/// let a = n.add_shell("A", IdentityPearl::new());
/// let out = n.add_sink("out");
/// n.connect(src, 0, rs, 0)?;
/// n.connect(rs, 0, a, 0)?;
/// n.connect(a, 0, out, 0)?;
/// n.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    kinds: Vec<NodeKind>,
    /// Every node's name, in node order.
    names: NameArena,
    channels: Vec<Link>,
    /// Per node: channel driven by each output port.
    out_ports: PortTable,
    /// Per node: channel feeding each input port.
    in_ports: PortTable,
    variant: ProtocolVariant,
    stamp: Stamp,
}

impl Netlist {
    /// An empty netlist using the paper's refined protocol variant.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty netlist with room for `nodes` nodes named in
    /// `name_bytes` bytes and `channels` channels, and as many ports
    /// each way as channels: building a connected netlist of that size
    /// grows no table.
    #[must_use]
    pub(crate) fn with_capacity(nodes: usize, name_bytes: usize, channels: usize) -> Self {
        Netlist {
            kinds: Vec::with_capacity(nodes),
            names: NameArena::with_capacity(nodes, name_bytes),
            channels: Vec::with_capacity(channels),
            out_ports: PortTable::with_capacity(nodes, channels),
            in_ports: PortTable::with_capacity(nodes, channels),
            variant: ProtocolVariant::default(),
            stamp: Stamp::fresh(),
        }
    }

    /// An empty netlist under an explicit protocol variant.
    #[must_use]
    pub fn with_variant(variant: ProtocolVariant) -> Self {
        Netlist {
            variant,
            ..Self::default()
        }
    }

    /// The protocol variant shells of this netlist will follow.
    #[must_use]
    pub fn variant(&self) -> ProtocolVariant {
        self.variant
    }

    /// Switch the protocol variant (used by the variant-comparison
    /// experiment to re-elaborate the same topology both ways).
    pub fn set_variant(&mut self, variant: ProtocolVariant) {
        self.renew();
        self.variant = variant;
    }

    /// The identity stamp: unique to this netlist's contents since it
    /// was built or last changed. Construction and parsing draw a fresh
    /// stamp from a process-wide counter, every `&mut` method draws
    /// another, and `clone` keeps it, so equal stamps mean equal
    /// contents. Validation, compilation, the binding-cycle solve and
    /// the declared-environment proof key their per-thread reuse on it.
    #[must_use]
    pub fn stamp(&self) -> u64 {
        self.stamp.0
    }

    /// Draw a fresh stamp: everything derived from the old contents is
    /// stale.
    fn renew(&mut self) {
        self.stamp = Stamp::fresh();
    }

    /// Add a node whose name the caller has just appended to the arena.
    fn push_node(&mut self, kind: NodeKind) -> NodeId {
        self.renew();
        // `VACANT` in the name table is `u32::MAX`, so ids stay below it.
        let id = u32::try_from(self.kinds.len())
            .ok()
            .filter(|&i| i != u32::MAX)
            .expect("too many nodes");
        self.out_ports.push(kind.num_outputs());
        self.in_ports.push(kind.num_inputs());
        self.kinds.push(kind);
        NodeId(id)
    }

    /// Add a node named `name`.
    pub(crate) fn add_node(&mut self, name: &str, kind: NodeKind) -> NodeId {
        self.names.push(name);
        self.push_node(kind)
    }

    /// Add a node named as `name` displays, written straight into the
    /// name arena.
    fn add_node_display(&mut self, name: impl fmt::Display, kind: NodeKind) -> NodeId {
        self.names.push_display(name);
        self.push_node(kind)
    }

    /// Every node's name, in node order.
    pub(crate) fn names(&self) -> &NameArena {
        &self.names
    }

    /// Add a free-flowing primary input.
    pub fn add_source(&mut self, name: impl fmt::Display) -> NodeId {
        self.add_node_display(
            name,
            NodeKind::Source {
                void_pattern: Pattern::Never,
            },
        )
    }

    /// Add a primary input that injects voids where `void_pattern`
    /// asserts.
    pub fn add_source_with_pattern(
        &mut self,
        name: impl fmt::Display,
        void_pattern: Pattern,
    ) -> NodeId {
        self.add_node_display(name, NodeKind::Source { void_pattern })
    }

    /// Add a free-flowing primary output.
    pub fn add_sink(&mut self, name: impl fmt::Display) -> NodeId {
        self.add_node_display(
            name,
            NodeKind::Sink {
                stop_pattern: Pattern::Never,
            },
        )
    }

    /// Add a primary output that stops where `stop_pattern` asserts.
    pub fn add_sink_with_pattern(
        &mut self,
        name: impl fmt::Display,
        stop_pattern: Pattern,
    ) -> NodeId {
        self.add_node_display(name, NodeKind::Sink { stop_pattern })
    }

    /// Replace the void pattern of the source at `node`; returns `false`
    /// (and changes nothing) if `node` is not a source.
    ///
    /// Patterns are environment, not structure — swapping one never
    /// invalidates a validated netlist, so parameter sweeps can reuse a
    /// single topology.
    pub fn set_source_pattern(&mut self, node: NodeId, pattern: Pattern) -> bool {
        self.renew();
        match &mut self.kinds[node.index()] {
            NodeKind::Source { void_pattern } => {
                *void_pattern = pattern;
                true
            }
            _ => false,
        }
    }

    /// Replace the stop pattern of the sink at `node`; returns `false`
    /// (and changes nothing) if `node` is not a sink.
    pub fn set_sink_pattern(&mut self, node: NodeId, pattern: Pattern) -> bool {
        self.renew();
        match &mut self.kinds[node.index()] {
            NodeKind::Sink { stop_pattern } => {
                *stop_pattern = pattern;
                true
            }
            _ => false,
        }
    }

    /// Add a shell wrapping `pearl`.
    pub fn add_shell(&mut self, name: impl fmt::Display, pearl: impl Pearl + 'static) -> NodeId {
        self.add_node_display(
            name,
            NodeKind::Shell {
                pearl: Box::new(pearl),
                buffered: false,
            },
        )
    }

    /// Add a shell wrapping an already-boxed pearl.
    pub fn add_shell_boxed(&mut self, name: impl fmt::Display, pearl: Box<dyn Pearl>) -> NodeId {
        self.add_node_display(
            name,
            NodeKind::Shell {
                pearl,
                buffered: false,
            },
        )
    }

    /// Add a *buffered* shell (registered inputs, as in the proposals
    /// the paper simplifies): no relay station is required on its input
    /// channels, at the cost of one register per input.
    pub fn add_buffered_shell(
        &mut self,
        name: impl fmt::Display,
        pearl: impl Pearl + 'static,
    ) -> NodeId {
        self.add_node_display(
            name,
            NodeKind::Shell {
                pearl: Box::new(pearl),
                buffered: true,
            },
        )
    }

    /// Add a buffered shell wrapping an already-boxed pearl.
    pub fn add_buffered_shell_boxed(
        &mut self,
        name: impl fmt::Display,
        pearl: Box<dyn Pearl>,
    ) -> NodeId {
        self.add_node_display(
            name,
            NodeKind::Shell {
                pearl,
                buffered: true,
            },
        )
    }

    /// Add a relay station with an automatic name.
    pub fn add_relay(&mut self, kind: RelayKind) -> NodeId {
        let name = format_args!("{}_rs{}", kind, self.kinds.len());
        self.add_node_display(name, NodeKind::Relay { kind })
    }

    /// Add a named relay station.
    pub fn add_relay_named(&mut self, name: impl fmt::Display, kind: RelayKind) -> NodeId {
        self.add_node_display(name, NodeKind::Relay { kind })
    }

    fn check_port(&self, node: NodeId, port: usize, output: bool) -> Result<(), NetlistError> {
        let ports = if output {
            &self.out_ports
        } else {
            &self.in_ports
        };
        match ports.of(node).get(port) {
            Some(&UNCONNECTED) => Ok(()),
            Some(_) => Err(NetlistError::PortAlreadyConnected { node, port, output }),
            None => Err(NetlistError::PortOutOfRange {
                node,
                port,
                arity: ports.arity(node),
                output,
            }),
        }
    }

    /// The id of the next channel.
    fn next_channel(&self) -> ChannelId {
        // `UNCONNECTED` is `u32::MAX`, so ids stay below it.
        let id = u32::try_from(self.channels.len())
            .ok()
            .filter(|&i| i != UNCONNECTED)
            .expect("too many channels");
        ChannelId(id)
    }

    /// Connect output port `from_port` of `from` to input port `to_port`
    /// of `to`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError`] if either port is out of range or already
    /// connected.
    pub fn connect(
        &mut self,
        from: NodeId,
        from_port: usize,
        to: NodeId,
        to_port: usize,
    ) -> Result<ChannelId, NetlistError> {
        self.renew();
        self.check_port(from, from_port, true)?;
        self.check_port(to, to_port, false)?;
        let id = self.next_channel();
        // Both ports exist, so both indices fit the `u32` slot offsets.
        self.channels.push(Link {
            producer: from,
            producer_port: from_port as u32,
            consumer: to,
            consumer_port: to_port as u32,
        });
        self.out_ports.of_mut(from)[from_port] = id.0;
        self.in_ports.of_mut(to)[to_port] = id.0;
        Ok(id)
    }

    /// Connect a linear chain through port 0 of each node:
    /// `nodes[0] -> nodes[1] -> …`.
    ///
    /// # Errors
    ///
    /// As [`connect`](Self::connect).
    pub fn chain(&mut self, nodes: &[NodeId]) -> Result<Vec<ChannelId>, NetlistError> {
        let mut out = Vec::new();
        for pair in nodes.windows(2) {
            out.push(self.connect(pair[0], 0, pair[1], 0)?);
        }
        Ok(out)
    }

    /// Connect `from`/`from_port` to `to`/`to_port` through `n` freshly
    /// created relay stations of `kind`.
    ///
    /// # Errors
    ///
    /// As [`connect`](Self::connect).
    pub fn connect_via_relays(
        &mut self,
        from: NodeId,
        from_port: usize,
        to: NodeId,
        to_port: usize,
        n: usize,
        kind: RelayKind,
    ) -> Result<Vec<NodeId>, NetlistError> {
        let mut relays = Vec::with_capacity(n);
        let mut prev = (from, from_port);
        for _ in 0..n {
            let rs = self.add_relay(kind);
            self.connect(prev.0, prev.1, rs, 0)?;
            relays.push(rs);
            prev = (rs, 0);
        }
        self.connect(prev.0, prev.1, to, to_port)?;
        Ok(relays)
    }

    /// Split `channel` by inserting a relay station of `kind` on it,
    /// returning the new node. Used by path equalization and deadlock
    /// cures ("adding/substituting few relay stations").
    ///
    /// # Panics
    ///
    /// Panics if `channel` is not a channel of this netlist.
    pub fn insert_relay_on_channel(&mut self, channel: ChannelId, kind: RelayKind) -> NodeId {
        let ch = self.channels[channel.index()];
        let rs = self.add_relay(kind);
        // Rewire: producer -> rs (reusing the existing channel record),
        // rs -> consumer (new channel).
        let link = &mut self.channels[channel.index()];
        link.consumer = rs;
        link.consumer_port = 0;
        self.in_ports.of_mut(rs)[0] = channel.0;
        let new_id = self.next_channel();
        self.channels.push(Link {
            producer: rs,
            producer_port: 0,
            consumer: ch.consumer,
            consumer_port: ch.consumer_port,
        });
        self.out_ports.of_mut(rs)[0] = new_id.0;
        self.in_ports.of_mut(ch.consumer)[ch.consumer_port as usize] = new_id.0;
        rs
    }

    /// Replace the kind of relay-station node `node` (used by deadlock
    /// cures that substitute half stations with full ones).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a relay station.
    pub fn set_relay_kind(&mut self, node: NodeId, kind: RelayKind) {
        self.renew();
        match &mut self.kinds[node.index()] {
            NodeKind::Relay { kind: k } => *k = kind,
            other => panic!("node {node} is not a relay station (found {other:?})"),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The node behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is from another netlist.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Node<'_> {
        Node {
            name: self.names.get(id.index()),
            kind: &self.kinds[id.index()],
        }
    }

    /// Number of input ports of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is from another netlist.
    #[must_use]
    pub fn num_inputs(&self, id: NodeId) -> usize {
        self.in_ports.arity(id)
    }

    /// Number of output ports of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is from another netlist.
    #[must_use]
    pub fn num_outputs(&self, id: NodeId) -> usize {
        self.out_ports.arity(id)
    }

    /// The channel behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is from another netlist.
    #[must_use]
    pub fn channel(&self, id: ChannelId) -> Channel {
        self.channels[id.index()].channel()
    }

    /// Iterate `(id, node)` in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, Node<'_>)> {
        (0..self.kinds.len()).map(|i| {
            let id = NodeId(u32::try_from(i).expect("node index"));
            (id, self.node(id))
        })
    }

    /// Iterate `(id, channel)` in insertion order.
    pub fn channels(&self) -> impl Iterator<Item = (ChannelId, Channel)> + '_ {
        self.channels.iter().enumerate().map(|(i, c)| {
            (
                ChannelId(u32::try_from(i).expect("channel index")),
                c.channel(),
            )
        })
    }

    /// Channel driven by output port `port` of `node`, if connected.
    #[must_use]
    pub fn out_channel(&self, node: NodeId, port: usize) -> Option<ChannelId> {
        self.out_ports.channel(node, port)
    }

    /// Channel feeding input port `port` of `node`, if connected.
    #[must_use]
    pub fn in_channel(&self, node: NodeId, port: usize) -> Option<ChannelId> {
        self.in_ports.channel(node, port)
    }

    /// Successor nodes of `node` (one per connected output port).
    #[must_use]
    pub fn successors(&self, node: NodeId) -> Vec<NodeId> {
        self.successors_iter(node).collect()
    }

    /// Predecessor nodes of `node` (one per connected input port).
    #[must_use]
    pub fn predecessors(&self, node: NodeId) -> Vec<NodeId> {
        self.predecessors_iter(node).collect()
    }

    /// [`Netlist::successors`], borrowed from the netlist instead of
    /// collected: graph walks take one step without allocating.
    pub fn successors_iter(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_ports
            .channels(node)
            .map(|ch| self.channels[ch.index()].consumer)
    }

    /// [`Netlist::predecessors`], borrowed from the netlist instead of
    /// collected.
    pub fn predecessors_iter(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_ports
            .channels(node)
            .map(|ch| self.channels[ch.index()].producer)
    }

    /// All node ids of a kind selected by `pred`.
    fn nodes_where(&self, pred: impl Fn(&NodeKind) -> bool) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| pred(n.kind))
            .map(|(id, _)| id)
            .collect()
    }

    /// All sources.
    #[must_use]
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes_where(|k| matches!(k, NodeKind::Source { .. }))
    }

    /// All sinks.
    #[must_use]
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes_where(|k| matches!(k, NodeKind::Sink { .. }))
    }

    /// All shells.
    #[must_use]
    pub fn shells(&self) -> Vec<NodeId> {
        self.nodes_where(NodeKind::is_shell)
    }

    /// All relay stations.
    #[must_use]
    pub fn relays(&self) -> Vec<NodeId> {
        self.nodes_where(NodeKind::is_relay)
    }

    /// Channels connecting a shell output directly to a shell input —
    /// legal but flagged, because the simplified shell stores no stops;
    /// the paper inserts at least a half relay station on each.
    #[must_use]
    pub fn shell_to_shell_channels(&self) -> Vec<ChannelId> {
        self.channels()
            .filter(|(_, c)| {
                self.kinds[c.producer.node.index()].is_shell()
                    && self.kinds[c.consumer.node.index()].is_simple_shell()
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Validate connectivity, endpoint patterns and the
    /// combinational-loop rules.
    ///
    /// The last stamp that validated is kept per thread: validating the
    /// same unchanged netlist (or a clone of it) again returns `Ok` at
    /// once.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::UnconnectedPort`] — some port is dangling.
    /// * [`NetlistError::MalformedPattern`] — a source or sink pattern
    ///   is undefined on some cycle (period 0, denominator 0 or an
    ///   empty cycle).
    /// * [`NetlistError::StopLoop`] — a cycle contains no relay station,
    ///   so its backward stop path never meets a register (the
    ///   minimum-memory theorem).
    /// * [`NetlistError::DataLoop`] — a cycle contains neither a shell
    ///   nor a full relay station, so its forward data path is purely
    ///   combinational.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let stamp = self.stamp();
        if VALIDATED.get() == stamp {
            return Ok(());
        }
        self.check()?;
        VALIDATED.set(stamp);
        Ok(())
    }

    /// [`validate`](Self::validate)'s walk over ports, patterns and
    /// loops.
    fn check(&self) -> Result<(), NetlistError> {
        for (i, kind) in self.kinds.iter().enumerate() {
            let id = NodeId(u32::try_from(i).expect("node index"));
            if let Some(port) = self.out_ports.first_unconnected(id) {
                return Err(NetlistError::UnconnectedPort {
                    node: id,
                    port,
                    output: true,
                });
            }
            if let Some(port) = self.in_ports.first_unconnected(id) {
                return Err(NetlistError::UnconnectedPort {
                    node: id,
                    port,
                    output: false,
                });
            }
            let pattern = match kind {
                NodeKind::Source { void_pattern } => Some(void_pattern),
                NodeKind::Sink { stop_pattern } => Some(stop_pattern),
                _ => None,
            };
            if let Some(defect) = pattern.and_then(Pattern::malformation) {
                return Err(NetlistError::MalformedPattern { node: id, defect });
            }
        }
        // Combinational loop rules: in the subgraph where "stop-cutting"
        // nodes (relays) are removed, any remaining cycle is a stop loop;
        // likewise removing "data-cutting" nodes (shells + full relays)
        // must leave the graph acyclic.
        if let Some(cycle) = self.cycle_avoiding(|k| k.is_relay() || k.is_buffered_shell()) {
            return Err(NetlistError::StopLoop { cycle });
        }
        if let Some(cycle) = self.cycle_avoiding(|k| {
            k.is_shell()
                || matches!(
                    k,
                    NodeKind::Relay {
                        kind: RelayKind::Full | RelayKind::Fifo(_)
                    }
                )
        }) {
            return Err(NetlistError::DataLoop { cycle });
        }
        Ok(())
    }

    /// Find a directed cycle in the subgraph of nodes **not** satisfying
    /// `cut` (cut nodes break the path). Returns the cycle's nodes.
    fn cycle_avoiding(&self, cut: impl Fn(&NodeKind) -> bool) -> Option<Vec<NodeId>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let n = self.kinds.len();
        let mut mark = vec![Mark::White; n];
        let mut stack: Vec<NodeId> = Vec::new();

        // Iterative DFS with an explicit path stack.
        for start in 0..n {
            let start_id = NodeId(u32::try_from(start).expect("node index"));
            if mark[start] != Mark::White || cut(&self.kinds[start]) {
                continue;
            }
            let mut work = vec![(start_id, self.successors_iter(start_id))];
            mark[start] = Mark::Grey;
            stack.push(start_id);
            while let Some((node, succs)) = work.last_mut() {
                let node = *node;
                if let Some(s) = succs.next() {
                    if cut(&self.kinds[s.index()]) {
                        continue;
                    }
                    match mark[s.index()] {
                        Mark::White => {
                            mark[s.index()] = Mark::Grey;
                            stack.push(s);
                            work.push((s, self.successors_iter(s)));
                        }
                        Mark::Grey => {
                            // Found a cycle: slice the path stack.
                            let pos = stack.iter().position(|&x| x == s).expect("grey on stack");
                            return Some(stack[pos..].to_vec());
                        }
                        Mark::Black => {}
                    }
                } else {
                    mark[node.index()] = Mark::Black;
                    stack.pop();
                    work.pop();
                }
            }
        }
        None
    }

    /// The zero-latency reference design: the same netlist with every
    /// relay station removed and its channels short-circuited. This is
    /// the design the latency-insensitive system must be observationally
    /// equal to ("identity of behavior"); see
    /// `lip-verify`'s equivalence checks.
    ///
    /// Returns the reference netlist and a map from old node ids to new
    /// ones (`None` for removed relay stations).
    ///
    /// Note: stripping relays from a loop that has no buffered shells
    /// yields a netlist that fails validation (a combinational stop
    /// loop) — correctly so: the reference semantics of such a loop is
    /// the original *synchronous* design whose shells cut the loop, and
    /// its behaviour is compared per-stream, not elaborated.
    #[must_use]
    pub fn without_relays(&self) -> (Netlist, Vec<Option<NodeId>>) {
        let mut out = Netlist::with_variant(self.variant);
        let mut map: Vec<Option<NodeId>> = Vec::with_capacity(self.kinds.len());
        for (_, node) in self.nodes() {
            map.push(match node.kind {
                NodeKind::Relay { .. } => None,
                kind => Some(out.add_node(node.name, kind.clone())),
            });
        }
        // Re-connect: for every channel leaving a kept node, follow
        // through relay stations to the next kept consumer.
        for (_, ch) in self.channels() {
            let Some(new_from) = map[ch.producer.node.index()] else {
                continue;
            };
            let mut cursor = ch.consumer;
            loop {
                match map[cursor.node.index()] {
                    Some(new_to) => {
                        out.connect(new_from, ch.producer.index, new_to, cursor.index)
                            .expect("reference ports are fresh");
                        break;
                    }
                    None => {
                        // A relay station: follow its single output.
                        let next = self
                            .out_channel(cursor.node, 0)
                            .expect("relay output connected");
                        cursor = self.channel(next).consumer;
                    }
                }
            }
        }
        (out, map)
    }

    /// Render the netlist as a Graphviz `dot` digraph: shells as boxes
    /// (buffered ones double-bordered), relay stations as small
    /// diamonds, endpoints as ellipses.
    ///
    /// ```
    /// # use lip_graph::generate;
    /// let dot = generate::fig1().netlist.to_dot();
    /// assert!(dot.starts_with("digraph lid {"));
    /// ```
    #[must_use]
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph lid {\n  rankdir=LR;\n");
        for (id, node) in self.nodes() {
            let (shape, extra) = match node.kind() {
                NodeKind::Source { .. } | NodeKind::Sink { .. } => ("ellipse", ""),
                NodeKind::Shell { buffered: true, .. } => ("box", ", peripheries=2"),
                NodeKind::Shell { .. } => ("box", ""),
                NodeKind::Relay { .. } => ("diamond", ", height=0.3, width=0.5"),
            };
            let label = match node.kind() {
                NodeKind::Relay { kind } => format!("{kind}"),
                _ => node.name().to_owned(),
            };
            let _ = writeln!(out, "  {id} [label=\"{label}\", shape={shape}{extra}];");
        }
        for (_, ch) in self.channels() {
            let _ = writeln!(out, "  {} -> {};", ch.producer.node, ch.consumer.node);
        }
        out.push_str("}\n");
        out
    }

    /// Count nodes per kind: `(sources, sinks, shells, full_relays,
    /// half_relays)`.
    #[must_use]
    pub fn census(&self) -> NetlistCensus {
        let mut c = NetlistCensus::default();
        for kind in &self.kinds {
            match kind {
                NodeKind::Source { .. } => c.sources += 1,
                NodeKind::Sink { .. } => c.sinks += 1,
                NodeKind::Shell { buffered, .. } => {
                    c.shells += 1;
                    if *buffered {
                        c.buffered_shells += 1;
                    }
                }
                NodeKind::Relay {
                    kind: RelayKind::Full,
                } => c.full_relays += 1,
                NodeKind::Relay {
                    kind: RelayKind::Half,
                } => c.half_relays += 1,
                NodeKind::Relay {
                    kind: RelayKind::Fifo(_),
                } => c.fifo_relays += 1,
            }
        }
        c
    }
}

/// Node counts per kind (see [`Netlist::census`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetlistCensus {
    /// Number of sources.
    pub sources: usize,
    /// Number of sinks.
    pub sinks: usize,
    /// Number of shells (simplified + buffered).
    pub shells: usize,
    /// Number of buffered shells (subset of `shells`).
    pub buffered_shells: usize,
    /// Number of full relay stations.
    pub full_relays: usize,
    /// Number of half relay stations.
    pub half_relays: usize,
    /// Number of sized FIFO stations.
    pub fifo_relays: usize,
}

impl NetlistCensus {
    /// Total relay stations of any kind.
    #[must_use]
    pub fn relays(&self) -> usize {
        self.full_relays + self.half_relays + self.fifo_relays
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.census();
        write!(
            f,
            "Netlist({} nodes, {} channels: {} src, {} sink, {} shell, {} full-rs, {} half-rs, {} fifo-rs)",
            self.node_count(),
            self.channel_count(),
            c.sources,
            c.sinks,
            c.shells,
            c.full_relays,
            c.half_relays,
            c.fifo_relays
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_core::pearl::{IdentityPearl, JoinPearl};

    fn simple_pipeline() -> (Netlist, NodeId, NodeId) {
        let mut n = Netlist::new();
        let src = n.add_source("in");
        let rs = n.add_relay(RelayKind::Full);
        let a = n.add_shell("A", IdentityPearl::new());
        let out = n.add_sink("out");
        n.chain(&[src, rs, a, out]).unwrap();
        (n, src, out)
    }

    #[test]
    fn build_and_validate_pipeline() {
        let (n, ..) = simple_pipeline();
        n.validate().unwrap();
        let c = n.census();
        assert_eq!((c.sources, c.sinks, c.shells, c.full_relays), (1, 1, 1, 1));
        assert_eq!(n.channel_count(), 3);
    }

    #[test]
    fn unconnected_port_is_rejected() {
        let mut n = Netlist::new();
        let _ = n.add_source("in");
        assert!(matches!(
            n.validate(),
            Err(NetlistError::UnconnectedPort { .. })
        ));
    }

    #[test]
    fn double_connect_is_rejected() {
        let mut n = Netlist::new();
        let src = n.add_source("in");
        let s1 = n.add_sink("o1");
        let s2 = n.add_sink("o2");
        n.connect(src, 0, s1, 0).unwrap();
        assert!(matches!(
            n.connect(src, 0, s2, 0),
            Err(NetlistError::PortAlreadyConnected { .. })
        ));
    }

    #[test]
    fn port_out_of_range_is_rejected() {
        let mut n = Netlist::new();
        let src = n.add_source("in");
        let snk = n.add_sink("out");
        assert!(matches!(
            n.connect(src, 1, snk, 0),
            Err(NetlistError::PortOutOfRange { .. })
        ));
    }

    #[test]
    fn shell_only_loop_is_a_stop_loop() {
        // a -> b -> a with no relay station: the backward stop path is a
        // combinational loop.
        let mut n = Netlist::new();
        let src = n.add_source("in");
        let a = n.add_shell("A", JoinPearl::first(2));
        let b = n.add_shell("B", IdentityPearl::new());
        n.connect(src, 0, a, 0).unwrap();
        n.connect(a, 0, b, 0).unwrap();
        n.connect(b, 0, a, 1).unwrap();
        assert!(matches!(n.validate(), Err(NetlistError::StopLoop { .. })));
    }

    #[test]
    fn relay_in_loop_fixes_stop_loop() {
        let mut n = Netlist::new();
        let a = n.add_shell("A", JoinPearl::first(2));
        let b = n.add_shell("B", IdentityPearl::new());
        let rs = n.add_relay(RelayKind::Half);
        let src = n.add_source("in");
        n.connect(a, 0, b, 0).unwrap();
        n.connect(b, 0, rs, 0).unwrap();
        n.connect(rs, 0, a, 1).unwrap();
        n.connect(src, 0, a, 0).unwrap();
        n.validate().unwrap();
    }

    #[test]
    fn half_relay_only_loop_is_a_data_loop() {
        let mut n = Netlist::new();
        let r1 = n.add_relay(RelayKind::Half);
        let r2 = n.add_relay(RelayKind::Half);
        n.connect(r1, 0, r2, 0).unwrap();
        n.connect(r2, 0, r1, 0).unwrap();
        assert!(matches!(n.validate(), Err(NetlistError::DataLoop { .. })));
    }

    #[test]
    fn shell_to_shell_channels_are_flagged() {
        let mut n = Netlist::new();
        let src = n.add_source("in");
        let a = n.add_shell("A", IdentityPearl::new());
        let b = n.add_shell("B", IdentityPearl::new());
        let out = n.add_sink("out");
        let chans = n.chain(&[src, a, b, out]).unwrap();
        assert_eq!(n.shell_to_shell_channels(), vec![chans[1]]);
    }

    #[test]
    fn insert_relay_rewires_channel() {
        let mut n = Netlist::new();
        let src = n.add_source("in");
        let a = n.add_shell("A", IdentityPearl::new());
        let b = n.add_shell("B", IdentityPearl::new());
        let out = n.add_sink("out");
        let chans = n.chain(&[src, a, b, out]).unwrap();
        let rs = n.insert_relay_on_channel(chans[1], RelayKind::Half);
        n.validate().unwrap();
        assert!(n.shell_to_shell_channels().is_empty());
        assert_eq!(n.successors(a), vec![rs]);
        assert_eq!(n.predecessors(b), vec![rs]);
    }

    #[test]
    fn connect_via_relays_builds_pipeline() {
        let mut n = Netlist::new();
        let src = n.add_source("in");
        let out = n.add_sink("out");
        let relays = n
            .connect_via_relays(src, 0, out, 0, 3, RelayKind::Full)
            .unwrap();
        assert_eq!(relays.len(), 3);
        n.validate().unwrap();
        assert_eq!(n.census().full_relays, 3);
    }

    #[test]
    fn set_relay_kind_substitutes() {
        let mut n = Netlist::new();
        let rs = n.add_relay(RelayKind::Half);
        n.set_relay_kind(rs, RelayKind::Full);
        assert!(matches!(
            n.node(rs).kind(),
            NodeKind::Relay {
                kind: RelayKind::Full
            }
        ));
    }

    #[test]
    #[should_panic(expected = "not a relay station")]
    fn set_relay_kind_rejects_non_relay() {
        let mut n = Netlist::new();
        let s = n.add_source("in");
        n.set_relay_kind(s, RelayKind::Full);
    }

    #[test]
    fn successors_and_predecessors() {
        let (n, src, out) = simple_pipeline();
        assert_eq!(n.successors(src).len(), 1);
        assert_eq!(n.predecessors(out).len(), 1);
        assert!(n.predecessors(src).is_empty());
    }

    #[test]
    fn display_summarises() {
        let (n, ..) = simple_pipeline();
        let s = n.to_string();
        assert!(s.contains("4 nodes"), "{s}");
        assert!(s.contains("1 full-rs"), "{s}");
    }

    #[test]
    fn dot_export_lists_all_nodes_and_edges() {
        let (n, ..) = simple_pipeline();
        let dot = n.to_dot();
        assert!(dot.starts_with("digraph lid {"));
        assert!(dot.trim_end().ends_with('}'));
        assert_eq!(dot.matches("->").count(), n.channel_count());
        assert_eq!(dot.matches("shape=").count(), n.node_count());
        assert!(dot.contains("shape=diamond"), "{dot}");
    }

    #[test]
    fn without_relays_short_circuits_stations() {
        let mut n = Netlist::new();
        let src = n.add_source("in");
        let a = n.add_shell("A", IdentityPearl::new());
        let out = n.add_sink("out");
        n.connect(src, 0, a, 0).unwrap();
        n.connect_via_relays(a, 0, out, 0, 3, RelayKind::Full)
            .unwrap();
        let (reference, map) = n.without_relays();
        reference.validate().unwrap();
        assert_eq!(reference.census().relays(), 0);
        assert_eq!(reference.node_count(), 3);
        assert_eq!(reference.channel_count(), 2);
        // Kept nodes map; relays do not.
        assert!(map[src.index()].is_some());
        assert!(map.iter().filter(|m| m.is_none()).count() == 3);
        // A's successor in the reference is the sink directly.
        let new_a = map[a.index()].unwrap();
        let new_out = map[out.index()].unwrap();
        assert_eq!(reference.successors(new_a), vec![new_out]);
    }

    #[test]
    fn census_relays_total() {
        let mut n = Netlist::new();
        n.add_relay(RelayKind::Full);
        n.add_relay(RelayKind::Half);
        assert_eq!(n.census().relays(), 2);
    }
}
