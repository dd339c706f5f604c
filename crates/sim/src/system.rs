//! Elaboration of a netlist into an executable latency-insensitive
//! system, and its cycle-accurate simulation.
//!
//! Each cycle is evaluated in the three phases the protocol defines:
//!
//! 1. **forward settle** — every channel's token. Sources, shells and
//!    full relay stations present registered outputs; half relay stations
//!    bypass combinationally, so channels are settled in a precomputed
//!    topological order over half-station chains;
//! 2. **backward settle** — every channel's stop. Sinks and relay
//!    stations produce stops from their own state; shells propagate stops
//!    combinationally from their outputs to their inputs (they store no
//!    stops), so stops settle in reverse topological order over shells;
//! 3. **clock edge** — every component advances.
//!
//! The netlist validator guarantees both settle orders exist: every
//! directed cycle contains a relay station (stop cut) and a shell or full
//! relay station (data cut).

use lip_core::{BufferedShell, RelayStation, Shell, Sink, Source, Token};
use lip_graph::{ChannelId, Netlist, NetlistError, NodeId, NodeKind};

use crate::lasso::KeyWriter;
use crate::program::{env_period, kahn};

/// One elaborated component.
#[derive(Debug, Clone)]
enum Comp {
    Source(Source),
    Sink(Sink),
    Shell(Shell),
    Buffered(BufferedShell),
    Relay(RelayStation),
}

/// An executable latency-insensitive system elaborated from a
/// [`Netlist`].
///
/// # Example
///
/// ```
/// use lip_graph::generate;
/// use lip_sim::System;
///
/// # fn main() -> Result<(), lip_graph::NetlistError> {
/// let chain = generate::chain(2, 1, lip_core::RelayKind::Full);
/// let mut sys = System::new(&chain.netlist)?;
/// sys.run(100);
/// // A linear pipeline reaches throughput 1 after its fill transient.
/// let sink = sys.sink(chain.sink).expect("sink");
/// assert!(sink.received().len() >= 95);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct System {
    comps: Vec<Comp>,
    /// Per node: input channels in port order.
    in_chs: Vec<Vec<ChannelId>>,
    /// Per node: output channels in port order.
    out_chs: Vec<Vec<ChannelId>>,
    /// Per channel: producing node (copied out of the netlist).
    producer: Vec<(NodeId, usize)>,
    /// Per channel: consuming node and port.
    consumer: Vec<(NodeId, usize)>,
    /// Forward settle order (channel indices).
    fwd_order: Vec<usize>,
    /// Backward settle order (channel indices).
    bwd_order: Vec<usize>,
    /// Settled token per channel (valid after `settle`/`step`).
    fwd: Vec<Token>,
    /// Settled stop per channel.
    stop: Vec<bool>,
    cycle: u64,
    /// LCM of all environment pattern periods, or `None` when some
    /// pattern is aperiodic. Folds the environment phase into the control
    /// state for periodicity detection.
    env_period: Option<u64>,
}

impl System {
    /// Validate `netlist` and elaborate it.
    ///
    /// # Errors
    ///
    /// Propagates any [`NetlistError`] from [`Netlist::validate`].
    pub fn new(netlist: &Netlist) -> Result<Self, NetlistError> {
        netlist.validate()?;
        let mut comps = Vec::with_capacity(netlist.node_count());
        for (_, node) in netlist.nodes() {
            comps.push(match node.kind() {
                NodeKind::Source { void_pattern } => {
                    Comp::Source(Source::with_void_pattern(void_pattern.clone()))
                }
                NodeKind::Sink { stop_pattern } => {
                    Comp::Sink(Sink::with_stop_pattern(stop_pattern.clone()))
                }
                NodeKind::Shell {
                    pearl,
                    buffered: false,
                } => Comp::Shell(Shell::from_box(pearl.clone(), netlist.variant())),
                NodeKind::Shell {
                    pearl,
                    buffered: true,
                } => Comp::Buffered(BufferedShell::from_box(pearl.clone(), netlist.variant())),
                NodeKind::Relay { kind } => Comp::Relay(RelayStation::new(*kind)),
            });
        }

        let n_nodes = netlist.node_count();
        let n_ch = netlist.channel_count();
        let mut in_chs = vec![Vec::new(); n_nodes];
        let mut out_chs = vec![Vec::new(); n_nodes];
        for (id, node) in netlist.nodes() {
            for p in 0..node.kind().num_inputs() {
                in_chs[id.index()].push(netlist.in_channel(id, p).expect("validated"));
            }
            for p in 0..node.kind().num_outputs() {
                out_chs[id.index()].push(netlist.out_channel(id, p).expect("validated"));
            }
        }
        let mut producer = Vec::with_capacity(n_ch);
        let mut consumer = Vec::with_capacity(n_ch);
        for (_, ch) in netlist.channels() {
            producer.push((ch.producer.node, ch.producer.index));
            consumer.push((ch.consumer.node, ch.consumer.index));
        }

        // Forward order: channel produced by a half relay depends on that
        // relay's input channel.
        let is_half = |node: NodeId| {
            matches!(
                netlist.node(node).kind(),
                NodeKind::Relay {
                    kind: lip_core::RelayKind::Half
                }
            )
        };
        let fwd_order = kahn(n_ch, |ch| {
            let (p, _) = producer[ch];
            if is_half(p) {
                vec![in_chs[p.index()][0].index()]
            } else {
                Vec::new()
            }
        })
        .expect("validator rejects combinational data loops");

        // Backward order: stop of a shell's input channel depends on the
        // stops of all that shell's output channels.
        let bwd_order = kahn(n_ch, |ch| {
            let (c, _) = consumer[ch];
            // Only *simplified* shells propagate stops combinationally;
            // buffered shells (like relay stations) emit registered
            // stops.
            if netlist.node(c).kind().is_simple_shell() {
                out_chs[c.index()].iter().map(|x| x.index()).collect()
            } else {
                Vec::new()
            }
        })
        .expect("validator rejects combinational stop loops");

        Ok(System {
            comps,
            in_chs,
            out_chs,
            producer,
            consumer,
            fwd_order,
            bwd_order,
            fwd: vec![Token::VOID; n_ch],
            stop: vec![false; n_ch],
            cycle: 0,
            env_period: env_period(netlist.nodes().filter_map(|(_, node)| match node.kind() {
                NodeKind::Source { void_pattern } => Some(void_pattern),
                NodeKind::Sink { stop_pattern } => Some(stop_pattern),
                _ => None,
            })),
        })
    }

    /// Settle this cycle's channel tokens and stops without clocking.
    /// Idempotent; called by [`step`](Self::step).
    pub fn settle(&mut self) {
        // Forward phase.
        for i in 0..self.fwd_order.len() {
            let ch = self.fwd_order[i];
            let (p, port) = self.producer[ch];
            let tok = match &self.comps[p.index()] {
                Comp::Source(s) => s.output(),
                Comp::Shell(s) => s.outputs()[port],
                Comp::Buffered(s) => s.outputs()[port],
                Comp::Relay(r) => {
                    let input = self.in_chs[p.index()]
                        .first()
                        .map_or(Token::VOID, |c| self.fwd[c.index()]);
                    r.output(input)
                }
                Comp::Sink(_) => unreachable!("sinks have no outputs"),
            };
            self.fwd[ch] = tok;
        }
        // Backward phase.
        for i in 0..self.bwd_order.len() {
            let ch = self.bwd_order[i];
            let (c, port) = self.consumer[ch];
            let s = match &self.comps[c.index()] {
                Comp::Sink(k) => k.stop(),
                Comp::Relay(r) => r.stop_upstream(),
                Comp::Shell(sh) => {
                    let inputs: Vec<Token> = self.in_chs[c.index()]
                        .iter()
                        .map(|x| self.fwd[x.index()])
                        .collect();
                    let stops: Vec<bool> = self.out_chs[c.index()]
                        .iter()
                        .map(|x| self.stop[x.index()])
                        .collect();
                    sh.stop_upstream(port, &inputs, &stops)
                }
                Comp::Buffered(sh) => sh.stop_upstream(port),
                Comp::Source(_) => unreachable!("sources have no inputs"),
            };
            self.stop[ch] = s;
        }
    }

    /// Advance one clock cycle (settle + edge).
    pub fn step(&mut self) {
        self.settle();
        for i in 0..self.comps.len() {
            let inputs: Vec<Token> = self.in_chs[i].iter().map(|x| self.fwd[x.index()]).collect();
            let stops: Vec<bool> = self.out_chs[i]
                .iter()
                .map(|x| self.stop[x.index()])
                .collect();
            match &mut self.comps[i] {
                Comp::Source(s) => s.clock(stops[0]),
                Comp::Sink(k) => k.clock(inputs[0]),
                Comp::Shell(sh) => sh.clock(&inputs, &stops),
                Comp::Buffered(sh) => sh.clock(&inputs, &stops),
                Comp::Relay(r) => r.clock(inputs[0], stops[0]),
            }
        }
        self.cycle += 1;
    }

    /// Run `n` cycles.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Cycles executed so far.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Token settled on `ch` in the current cycle (call
    /// [`settle`](Self::settle) first for mid-cycle inspection).
    #[must_use]
    pub fn channel_token(&self, ch: ChannelId) -> Token {
        self.fwd[ch.index()]
    }

    /// Stop settled on `ch` in the current cycle.
    #[must_use]
    pub fn channel_stop(&self, ch: ChannelId) -> bool {
        self.stop[ch.index()]
    }

    /// The sink component at `node`, if that node is a sink.
    #[must_use]
    pub fn sink(&self, node: NodeId) -> Option<&Sink> {
        match &self.comps[node.index()] {
            Comp::Sink(k) => Some(k),
            _ => None,
        }
    }

    /// The source component at `node`, if that node is a source.
    #[must_use]
    pub fn source(&self, node: NodeId) -> Option<&Source> {
        match &self.comps[node.index()] {
            Comp::Source(s) => Some(s),
            _ => None,
        }
    }

    /// The shell component at `node`, if that node is a simplified
    /// shell.
    #[must_use]
    pub fn shell(&self, node: NodeId) -> Option<&Shell> {
        match &self.comps[node.index()] {
            Comp::Shell(s) => Some(s),
            _ => None,
        }
    }

    /// The buffered shell at `node`, if that node is one.
    #[must_use]
    pub fn buffered_shell(&self, node: NodeId) -> Option<&BufferedShell> {
        match &self.comps[node.index()] {
            Comp::Buffered(s) => Some(s),
            _ => None,
        }
    }

    /// Firing statistics of the shell at `node`, of either flavour.
    #[must_use]
    pub fn shell_stats(&self, node: NodeId) -> Option<lip_core::ShellStats> {
        match &self.comps[node.index()] {
            Comp::Shell(s) => Some(s.stats()),
            Comp::Buffered(s) => Some(s.stats()),
            _ => None,
        }
    }

    /// The relay station at `node`, if that node is a relay station.
    #[must_use]
    pub fn relay(&self, node: NodeId) -> Option<&RelayStation> {
        match &self.comps[node.index()] {
            Comp::Relay(r) => Some(r),
            _ => None,
        }
    }

    /// Output tokens of every node, for evolution tables: `(node,
    /// tokens)` where endpoints contribute their single token.
    #[must_use]
    pub fn node_outputs(&self, node: NodeId) -> Vec<Token> {
        match &self.comps[node.index()] {
            Comp::Source(s) => vec![s.output()],
            Comp::Sink(_) => Vec::new(),
            Comp::Shell(s) => s.outputs().to_vec(),
            Comp::Buffered(s) => s.outputs().to_vec(),
            Comp::Relay(r) => {
                let input = self.in_chs[node.index()]
                    .first()
                    .map_or(Token::VOID, |c| self.fwd[c.index()]);
                vec![r.output(input)]
            }
        }
    }

    /// The *control state* of the system: everything that determines the
    /// future movement of tokens — validity bits, occupancies and
    /// environment phases — but no data values. Two cycles with equal
    /// control states evolve identically (control-wise) forever, which is
    /// what makes the paper's periodicity and transient analysis work.
    ///
    /// Returns `None` when an environment pattern is aperiodic.
    #[must_use]
    pub fn control_state(&self) -> Option<Vec<u64>> {
        let mut out = Vec::new();
        self.push_control_state(&mut out)?;
        Some(out)
    }

    /// Append [`control_state`](Self::control_state) to `out` — the
    /// allocation-free form the lasso detector keys on, in the
    /// [`KeyWriter`] layout shared with
    /// [`SkeletonSystem`](crate::SkeletonSystem). It reads registers
    /// only, so it needs no [`settle`](Self::settle) first. Returns
    /// `None` (leaving `out` untouched) when an environment pattern is
    /// aperiodic.
    pub(crate) fn push_control_state(&self, out: &mut Vec<u64>) -> Option<()> {
        let mut key = KeyWriter::new(out, self.cycle % self.env_period?);
        for comp in &self.comps {
            match comp {
                Comp::Source(s) => key.bit(s.output().is_valid()),
                Comp::Sink(_) => {}
                Comp::Shell(sh) => {
                    for t in sh.outputs() {
                        key.bit(t.is_valid());
                    }
                }
                Comp::Buffered(sh) => {
                    for t in sh.outputs() {
                        key.bit(t.is_valid());
                    }
                    for b in 0..sh.num_inputs() {
                        key.bit(sh.buffer(b).is_valid());
                    }
                }
                Comp::Relay(r) => key.relay(r.occupancy() as u32, r.capacity() as u32),
            }
        }
        key.finish();
        Some(())
    }

    /// Total informative tokens delivered to all sinks.
    #[must_use]
    pub fn total_received(&self) -> u64 {
        self.comps
            .iter()
            .map(|c| match c {
                Comp::Sink(k) => k.received().len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Total pearl firings across all shells.
    #[must_use]
    pub fn total_fires(&self) -> u64 {
        self.comps
            .iter()
            .map(|c| match c {
                Comp::Shell(s) => s.stats().fires,
                Comp::Buffered(s) => s.stats().fires,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::lcm;
    use lip_core::{Pattern, RelayKind};
    use lip_graph::generate;

    #[test]
    fn pipeline_delivers_all_tokens() {
        let chain = generate::chain(3, 1, RelayKind::Full);
        let mut sys = System::new(&chain.netlist).unwrap();
        sys.run(50);
        let sink = sys.sink(chain.sink).unwrap();
        // In-order, duplicate-free prefix.
        for (i, &v) in sink.received().iter().enumerate() {
            // Shell initial tokens (identity of 0) precede the stream.
            let _ = (i, v);
        }
        // 4 relay gaps x 1 full relay = 4 fill voids; 3 shells add their
        // initial valid tokens, so at least 50 - 4 tokens arrive.
        assert!(sink.received().len() >= 46, "{}", sink.received().len());
    }

    #[test]
    fn half_relay_pipeline_is_transparent() {
        let chain = generate::chain(2, 1, RelayKind::Half);
        let mut sys = System::new(&chain.netlist).unwrap();
        sys.run(50);
        let sink = sys.sink(chain.sink).unwrap();
        assert_eq!(sink.voids_seen(), 0);
        assert_eq!(sink.received().len(), 50);
    }

    #[test]
    fn invalid_netlist_is_rejected() {
        let ring = generate::ring(2, 0, RelayKind::Full);
        assert!(System::new(&ring.netlist).is_err());
    }

    #[test]
    fn ring_throughput_matches_s_over_s_plus_r() {
        // Fig. 2: S = 2 shells, R = 1 relay -> T = 2/3.
        let ring = generate::ring(2, 1, RelayKind::Full);
        let mut sys = System::new(&ring.netlist).unwrap();
        sys.run(300);
        let sink = sys.sink(ring.sink).unwrap();
        let t = sink.throughput();
        assert!((t - 2.0 / 3.0).abs() < 0.02, "throughput {t}");
    }

    #[test]
    fn fig1_fork_join_throughput_is_four_fifths() {
        // Fig. 1: fork A, long branch A -> rs -> B -> rs -> C, short
        // branch A -> rs -> C. m = 3 relays + shells A, B = 5; i = 1;
        // T = (m - i)/m = 4/5, with one void at the output every 5
        // cycles after the transient.
        let f = generate::fig1();
        let mut sys = System::new(&f.netlist).unwrap();
        sys.run(505);
        let sink = sys.sink(f.sink).unwrap();
        let t = sink.throughput();
        assert!((t - 0.8).abs() < 0.01, "throughput {t}");
    }

    #[test]
    fn independent_sources_decouple() {
        // Negative control: with independent sources instead of a fork,
        // there is no implicit loop and throughput recovers to 1 after
        // the transient (the branches decouple).
        let r = generate::reconvergent(2, 1);
        let mut sys = System::new(&r.netlist).unwrap();
        sys.run(500);
        let sink = sys.sink(r.sink).unwrap();
        assert!(sink.throughput() > 0.99, "throughput {}", sink.throughput());
    }

    #[test]
    fn control_state_detects_periodicity() {
        let ring = generate::ring(2, 1, RelayKind::Full);
        let mut sys = System::new(&ring.netlist).unwrap();
        let mut states = Vec::new();
        for _ in 0..60 {
            sys.settle();
            states.push(sys.control_state().unwrap());
            sys.step();
        }
        // After some transient the state sequence must repeat with the
        // loop period 3 (S + R = 3).
        let tail = &states[30..];
        for w in 0..tail.len() - 3 {
            assert_eq!(tail[w], tail[w + 3], "not periodic at {w}");
        }
    }

    #[test]
    fn aperiodic_environment_disables_control_state() {
        let mut n = Netlist::new();
        let src = n.add_source_with_pattern(
            "in",
            Pattern::Random {
                num: 1,
                denom: 2,
                seed: 7,
            },
        );
        let sink = n.add_sink("out");
        n.connect(src, 0, sink, 0).unwrap();
        let sys = System::new(&n).unwrap();
        assert!(sys.control_state().is_none());
    }

    #[test]
    fn accessors_discriminate_kinds() {
        let chain = generate::chain(1, 1, RelayKind::Full);
        let sys = System::new(&chain.netlist).unwrap();
        assert!(sys.source(chain.source).is_some());
        assert!(sys.sink(chain.source).is_none());
        assert!(sys.shell(chain.shells[0]).is_some());
        assert!(sys.relay(chain.shells[0]).is_none());
    }

    #[test]
    fn totals_accumulate() {
        let chain = generate::chain(2, 0, RelayKind::Half);
        let mut sys = System::new(&chain.netlist).unwrap();
        sys.run(10);
        assert!(sys.total_received() > 0);
        assert!(sys.total_fires() > 0);
        assert_eq!(sys.cycle(), 10);
    }

    #[test]
    fn lcm_behaviour() {
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(1, 7), 7);
        assert_eq!(lcm(0, 0), 1);
    }
}
