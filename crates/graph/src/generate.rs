//! Generators for the netlist families the paper studies.
//!
//! The paper validates its protocol on "many proof-of-concept examples
//! that comprise various combinations of feedforward and feedback
//! topologies". These constructors build those families parametrically,
//! so the experiments can sweep sizes, imbalances and relay mixes:
//!
//! * [`chain`] — linear pipelines (degenerate trees);
//! * [`tree`] — fanout trees (`T = 1`, transient = longest relay path);
//! * [`reconvergent`] — the Fig. 1 family: two sources joining with a
//!   relay imbalance `i`;
//! * [`ring`] — the Fig. 2 family: a loop of `S` shells and `R` relay
//!   stations with an output tap;
//! * [`ring_with_entry`] — a ring fed and drained through one shell, so
//!   external stop/void patterns can disturb the loop (deadlock studies);
//! * [`composed`] — a reconvergent front-end feeding a ring: the "most
//!   general topology" whose slowest sub-topology dictates system speed;
//! * [`random_family`] — seeded random instances across all families,
//!   used by corpus tests.

use lip_core::pearl::{IdentityPearl, JoinPearl, RouterPearl};
use lip_core::{Pattern, RelayKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::netlist::{Netlist, NodeId};

/// A generated linear pipeline:
/// `source -> [relays] -> shell -> [relays] -> shell ... -> sink`.
#[derive(Debug, Clone)]
pub struct Chain {
    /// The netlist.
    pub netlist: Netlist,
    /// The single source.
    pub source: NodeId,
    /// Shells in pipeline order.
    pub shells: Vec<NodeId>,
    /// The single sink.
    pub sink: NodeId,
}

/// Build a linear pipeline of `shells` identity shells with
/// `relays_between` relay stations of `kind` on every channel.
#[must_use]
pub fn chain(shells: usize, relays_between: usize, kind: RelayKind) -> Chain {
    let mut n = Netlist::new();
    let source = n.add_source("in");
    let mut prev = (source, 0usize);
    let mut shell_ids = Vec::with_capacity(shells);
    for i in 0..shells {
        let sh = n.add_shell(format_args!("s{i}"), IdentityPearl::new());
        n.connect_via_relays(prev.0, prev.1, sh, 0, relays_between, kind)
            .expect("fresh ports");
        shell_ids.push(sh);
        prev = (sh, 0);
    }
    let sink = n.add_sink("out");
    n.connect_via_relays(prev.0, prev.1, sink, 0, relays_between, kind)
        .expect("fresh ports");
    Chain {
        netlist: n,
        source,
        shells: shell_ids,
        sink,
    }
}

/// A generated fanout tree.
#[derive(Debug, Clone)]
pub struct Tree {
    /// The netlist.
    pub netlist: Netlist,
    /// The single source at the root.
    pub source: NodeId,
    /// The leaf sinks.
    pub sinks: Vec<NodeId>,
}

/// Build a fanout tree of `depth` levels of shells, each with `fanout`
/// children, and `relays_per_edge` full relay stations on every channel.
/// `depth == 0` connects the source directly to one sink.
#[must_use]
pub fn tree(depth: usize, fanout: usize, relays_per_edge: usize) -> Tree {
    assert!(fanout >= 1, "fanout must be at least 1");
    let mut n = Netlist::new();
    let source = n.add_source("in");
    let mut sinks = Vec::new();
    // Frontier of (node, out_port) needing children.
    let mut frontier = vec![(source, 0usize)];
    for level in 0..depth {
        let mut next = Vec::new();
        for (i, (node, port)) in frontier.into_iter().enumerate() {
            let sh = if fanout == 1 {
                n.add_shell(format_args!("l{level}_{i}"), IdentityPearl::new())
            } else {
                n.add_shell(
                    format_args!("l{level}_{i}"),
                    IdentityPearl::with_fanout(fanout),
                )
            };
            n.connect_via_relays(node, port, sh, 0, relays_per_edge, RelayKind::Full)
                .expect("fresh ports");
            for p in 0..fanout {
                next.push((sh, p));
            }
        }
        frontier = next;
    }
    for (i, (node, port)) in frontier.into_iter().enumerate() {
        let sink = n.add_sink(format_args!("out{i}"));
        n.connect_via_relays(node, port, sink, 0, relays_per_edge, RelayKind::Full)
            .expect("fresh ports");
        sinks.push(sink);
    }
    Tree {
        netlist: n,
        source,
        sinks,
    }
}

/// The Fig. 1 family: two sources reconverging at a join shell.
#[derive(Debug, Clone)]
pub struct Reconvergent {
    /// The netlist.
    pub netlist: Netlist,
    /// Source feeding the branch with `long_relays` stations.
    pub source_long: NodeId,
    /// Source feeding the branch with `short_relays` stations.
    pub source_short: NodeId,
    /// The join shell ("C" in Fig. 1).
    pub join: NodeId,
    /// The primary output.
    pub sink: NodeId,
    /// Relay stations on the long branch.
    pub long_branch: Vec<NodeId>,
    /// Relay stations on the short branch.
    pub short_branch: Vec<NodeId>,
}

/// Build the reconvergent-inputs topology of Fig. 1: sources `A` and `B`
/// joined at shell `C`, with `long_relays` and `short_relays` full relay
/// stations on the two branches.
#[must_use]
pub fn reconvergent(long_relays: usize, short_relays: usize) -> Reconvergent {
    let mut n = Netlist::new();
    let a = n.add_source("A");
    let b = n.add_source("B");
    let c = n.add_shell("C", JoinPearl::first(2));
    let out = n.add_sink("out");
    let long_branch = n
        .connect_via_relays(a, 0, c, 0, long_relays, RelayKind::Full)
        .expect("fresh ports");
    let short_branch = n
        .connect_via_relays(b, 0, c, 1, short_relays, RelayKind::Full)
        .expect("fresh ports");
    n.connect(c, 0, out, 0).expect("fresh ports");
    Reconvergent {
        netlist: n,
        source_long: a,
        source_short: b,
        join: c,
        sink: out,
        long_branch,
        short_branch,
    }
}

/// The true Fig. 1 topology: a fork whose branches reconverge at a join.
///
/// Unlike [`reconvergent`] (independent sources, whose branches decouple
/// and reach throughput 1 after the transient), a *fork* couples the two
/// branches: the reverse-flowing stop on the short branch and the forward
/// long branch form the paper's implicit loop, and throughput drops to
/// `(m − i)/m`.
#[derive(Debug, Clone)]
pub struct ForkJoin {
    /// The netlist.
    pub netlist: Netlist,
    /// The external source feeding the fork.
    pub source: NodeId,
    /// The fork shell ("A" in Fig. 1).
    pub fork: NodeId,
    /// The middle shell on the long branch ("B" in Fig. 1).
    pub mid: NodeId,
    /// The join shell ("C" in Fig. 1).
    pub join: NodeId,
    /// The primary output.
    pub sink: NodeId,
    /// Relay stations on the long branch (before and after `mid`).
    pub long_relays: Vec<NodeId>,
    /// Relay stations on the short branch.
    pub short_relays: Vec<NodeId>,
}

/// Build the fork-join of Fig. 1: source → `A` (fork), long branch
/// `A → [r1 relays] → B → [r2 relays] → C`, short branch
/// `A → [s relays] → C`, then `C → sink`. All stations are full.
///
/// A zero relay count on a branch segment inserts one half relay station
/// instead, honouring the rule that shell-to-shell channels need a memory
/// element for the stop.
///
/// The paper's Fig. 1 instance is `fork_join(1, 1, 1)`: three relay
/// stations in the implicit loop plus the two shells `A`, `B` on the long
/// branch give `m = 5`; the imbalance is `i = 2 − 1 = 1`; the output
/// utters one void every `m = 5` cycles and `T = 4/5`.
#[must_use]
pub fn fork_join(r1: usize, r2: usize, s: usize) -> ForkJoin {
    let mut n = Netlist::new();
    let source = n.add_source("in");
    let fork = n.add_shell("A", IdentityPearl::with_fanout(2));
    let mid = n.add_shell("B", IdentityPearl::new());
    let join = n.add_shell("C", JoinPearl::first(2));
    let sink = n.add_sink("out");
    n.connect(source, 0, fork, 0).expect("fresh ports");
    let mut long_relays = Vec::new();
    long_relays.extend(segment(&mut n, fork, 0, mid, 0, r1));
    long_relays.extend(segment(&mut n, mid, 0, join, 0, r2));
    let short_relays = segment(&mut n, fork, 1, join, 1, s);
    n.connect(join, 0, sink, 0).expect("fresh ports");
    ForkJoin {
        netlist: n,
        source,
        fork,
        mid,
        join,
        sink,
        long_relays,
        short_relays,
    }
}

/// Connect through `count` full relay stations, or one half station when
/// `count == 0` (minimum-memory rule between shells).
fn segment(
    n: &mut Netlist,
    from: NodeId,
    from_port: usize,
    to: NodeId,
    to_port: usize,
    count: usize,
) -> Vec<NodeId> {
    if count == 0 {
        n.connect_via_relays(from, from_port, to, to_port, 1, RelayKind::Half)
            .expect("fresh ports")
    } else {
        n.connect_via_relays(from, from_port, to, to_port, count, RelayKind::Full)
            .expect("fresh ports")
    }
}

/// The Fig. 1 instance: `fork_join(1, 1, 1)` with `m = 5`, `i = 1`,
/// `T = 4/5`.
#[must_use]
pub fn fig1() -> ForkJoin {
    fork_join(1, 1, 1)
}

/// The Fig. 2 family: a closed loop with an output tap.
#[derive(Debug, Clone)]
pub struct Ring {
    /// The netlist.
    pub netlist: Netlist,
    /// Shells on the loop, starting with the tapped one.
    pub shells: Vec<NodeId>,
    /// Relay stations on the loop.
    pub relays: Vec<NodeId>,
    /// The primary output tapping the first shell.
    pub sink: NodeId,
}

/// Build a closed loop of `shells` shells and `relays` relay stations of
/// `kind`, with the first shell fanning out to a sink so loop throughput
/// is observable. All relay stations sit on the channel leaving the first
/// shell.
///
/// # Panics
///
/// Panics if `shells == 0`.
#[must_use]
pub fn ring(shells: usize, relays: usize, kind: RelayKind) -> Ring {
    assert!(shells >= 1, "a ring needs at least one shell");
    let mut n = Netlist::new();
    let mut shell_ids = Vec::with_capacity(shells);
    for i in 0..shells {
        let sh = if i == 0 {
            n.add_shell("tap", IdentityPearl::with_fanout(2))
        } else {
            n.add_shell(format_args!("s{i}"), IdentityPearl::new())
        };
        shell_ids.push(sh);
    }
    // Loop: tap(port0) -> relays -> s1 -> ... -> s_{k-1} -> tap(in).
    let mut relay_ids = Vec::new();
    let mut prev = (shell_ids[0], 0usize);
    for _ in 0..relays {
        let rs = n.add_relay(kind);
        n.connect(prev.0, prev.1, rs, 0).expect("fresh ports");
        relay_ids.push(rs);
        prev = (rs, 0);
    }
    for sh in shell_ids.iter().skip(1) {
        n.connect(prev.0, prev.1, *sh, 0).expect("fresh ports");
        prev = (*sh, 0);
    }
    n.connect(prev.0, prev.1, shell_ids[0], 0)
        .expect("fresh ports");
    let sink = n.add_sink("out");
    n.connect(shell_ids[0], 1, sink, 0).expect("fresh ports");
    Ring {
        netlist: n,
        shells: shell_ids,
        relays: relay_ids,
        sink,
    }
}

/// A ring fed and drained through an entry shell, so that external void
/// and stop patterns can disturb the loop.
#[derive(Debug, Clone)]
pub struct RingWithEntry {
    /// The netlist.
    pub netlist: Netlist,
    /// The entry shell (2 inputs: external + loop; 2 outputs: loop +
    /// external).
    pub entry: NodeId,
    /// The external source.
    pub source: NodeId,
    /// The external sink.
    pub sink: NodeId,
    /// Shells on the loop including the entry.
    pub shells: Vec<NodeId>,
    /// Relay stations on the loop.
    pub relays: Vec<NodeId>,
}

/// Build a ring of `shells` shells and `relays` loop relay stations of
/// `kind`, where the first shell also consumes an external source (with
/// `void_pattern`) and produces to an external sink (with
/// `stop_pattern`). This is the configuration in which loop deadlocks can
/// be injected from outside.
///
/// # Panics
///
/// Panics if `shells == 0`.
#[must_use]
pub fn ring_with_entry(
    shells: usize,
    relays: usize,
    kind: RelayKind,
    void_pattern: Pattern,
    stop_pattern: Pattern,
) -> RingWithEntry {
    assert!(shells >= 1, "a ring needs at least one shell");
    let mut n = Netlist::new();
    let entry = n.add_shell("entry", RouterPearl::new(2, 2));
    let mut shell_ids = vec![entry];
    for i in 1..shells {
        shell_ids.push(n.add_shell(format_args!("s{i}"), IdentityPearl::new()));
    }
    // Loop: entry(out0) -> relays -> s1 ... -> entry(in0).
    let mut relay_ids = Vec::new();
    let mut prev = (entry, 0usize);
    for _ in 0..relays {
        let rs = n.add_relay(kind);
        n.connect(prev.0, prev.1, rs, 0).expect("fresh ports");
        relay_ids.push(rs);
        prev = (rs, 0);
    }
    for sh in shell_ids.iter().skip(1) {
        n.connect(prev.0, prev.1, *sh, 0).expect("fresh ports");
        prev = (*sh, 0);
    }
    n.connect(prev.0, prev.1, entry, 0).expect("fresh ports");
    // External I/O on the entry shell.
    let source = n.add_source_with_pattern("in", void_pattern);
    let sink = n.add_sink_with_pattern("out", stop_pattern);
    n.connect(source, 0, entry, 1).expect("fresh ports");
    n.connect(entry, 1, sink, 0).expect("fresh ports");
    RingWithEntry {
        netlist: n,
        entry,
        source,
        sink,
        shells: shell_ids,
        relays: relay_ids,
    }
}

/// A reconvergent front-end feeding a ring: the paper's "feed-forward
/// combination of self-interacting loops".
#[derive(Debug, Clone)]
pub struct Composed {
    /// The netlist.
    pub netlist: Netlist,
    /// The reconvergent join shell.
    pub join: NodeId,
    /// The ring entry shell.
    pub entry: NodeId,
    /// The primary output.
    pub sink: NodeId,
}

/// Build a composition: two sources reconverge (imbalance
/// `long_relays − short_relays`), the joined stream feeds a ring of
/// `ring_shells`/`ring_relays`, whose output drains to a sink. The system
/// throughput must equal the minimum of the two sub-topology throughputs.
#[must_use]
pub fn composed(
    long_relays: usize,
    short_relays: usize,
    ring_shells: usize,
    ring_relays: usize,
) -> Composed {
    assert!(ring_shells >= 1, "a ring needs at least one shell");
    let mut n = Netlist::new();
    // Front-end.
    let a = n.add_source("A");
    let b = n.add_source("B");
    let join = n.add_shell("join", JoinPearl::first(2));
    n.connect_via_relays(a, 0, join, 0, long_relays, RelayKind::Full)
        .expect("fresh ports");
    n.connect_via_relays(b, 0, join, 1, short_relays, RelayKind::Full)
        .expect("fresh ports");
    // Ring with entry; the entry's external input comes from the join
    // (via one relay station, respecting the shell-to-shell rule).
    let entry = n.add_shell("entry", RouterPearl::new(2, 2));
    let mut shell_ids = vec![entry];
    for i in 1..ring_shells {
        shell_ids.push(n.add_shell(format_args!("r{i}"), IdentityPearl::new()));
    }
    let mut prev = (entry, 0usize);
    for _ in 0..ring_relays {
        let rs = n.add_relay(RelayKind::Full);
        n.connect(prev.0, prev.1, rs, 0).expect("fresh ports");
        prev = (rs, 0);
    }
    for sh in shell_ids.iter().skip(1) {
        n.connect(prev.0, prev.1, *sh, 0).expect("fresh ports");
        prev = (*sh, 0);
    }
    n.connect(prev.0, prev.1, entry, 0).expect("fresh ports");
    n.connect_via_relays(join, 0, entry, 1, 1, RelayKind::Full)
        .expect("fresh ports");
    let sink = n.add_sink("out");
    n.connect(entry, 1, sink, 0).expect("fresh ports");
    Composed {
        netlist: n,
        join,
        entry,
        sink,
    }
}

/// A coupled composition: a fork-join front-end (a *binding*
/// reconvergence, unlike [`composed`]'s independent sources) feeding a
/// ring. The system throughput is exactly
/// `min(front-end (m−i)/m, ring S/(S+R))`.
#[derive(Debug, Clone)]
pub struct ComposedCoupled {
    /// The netlist.
    pub netlist: Netlist,
    /// The fork shell of the front-end.
    pub fork: NodeId,
    /// The join shell of the front-end.
    pub join: NodeId,
    /// The ring entry shell.
    pub entry: NodeId,
    /// The primary output.
    pub sink: NodeId,
}

/// Build `source → fork-join(r1, r2, s) → [RS] → ring(ring_shells,
/// ring_relays) → sink`: both sub-topologies bind, so the measured
/// system throughput equals the minimum of their closed forms.
#[must_use]
pub fn composed_coupled(
    r1: usize,
    r2: usize,
    s: usize,
    ring_shells: usize,
    ring_relays: usize,
) -> ComposedCoupled {
    assert!(ring_shells >= 1, "a ring needs at least one shell");
    let mut n = Netlist::new();
    let source = n.add_source("in");
    let fork = n.add_shell("A", IdentityPearl::with_fanout(2));
    let mid = n.add_shell("B", IdentityPearl::new());
    let join = n.add_shell("C", JoinPearl::first(2));
    n.connect(source, 0, fork, 0).expect("fresh ports");
    segment(&mut n, fork, 0, mid, 0, r1);
    segment(&mut n, mid, 0, join, 0, r2);
    segment(&mut n, fork, 1, join, 1, s);
    // Ring fed through its entry shell.
    let entry = n.add_shell("entry", RouterPearl::new(2, 2));
    let mut shell_ids = vec![entry];
    for i in 1..ring_shells {
        shell_ids.push(n.add_shell(format_args!("r{i}"), IdentityPearl::new()));
    }
    let mut prev = (entry, 0usize);
    for _ in 0..ring_relays {
        let rs = n.add_relay(RelayKind::Full);
        n.connect(prev.0, prev.1, rs, 0).expect("fresh ports");
        prev = (rs, 0);
    }
    for sh in shell_ids.iter().skip(1) {
        n.connect(prev.0, prev.1, *sh, 0).expect("fresh ports");
        prev = (*sh, 0);
    }
    n.connect(prev.0, prev.1, entry, 0).expect("fresh ports");
    n.connect_via_relays(join, 0, entry, 1, 1, RelayKind::Full)
        .expect("fresh ports");
    let sink = n.add_sink("out");
    n.connect(entry, 1, sink, 0).expect("fresh ports");
    ComposedCoupled {
        netlist: n,
        fork,
        join,
        entry,
        sink,
    }
}

/// A closed loop of *buffered* shells — legal with no relay stations at
/// all, because each buffered shell registers its inputs (saving the
/// stop inside the shell, as in the proposals the paper simplifies).
#[derive(Debug, Clone)]
pub struct BufferedRing {
    /// The netlist.
    pub netlist: Netlist,
    /// Shells on the loop, starting with the tapped one.
    pub shells: Vec<NodeId>,
    /// The primary output tapping the first shell.
    pub sink: NodeId,
}

/// Build a loop of `shells` buffered shells with `relays` full relay
/// stations, tapped to a sink. With `relays == 0` this is the
/// configuration the simplified shell *cannot* realise — the buffered
/// shell's input registers supply the loop's mandatory memory elements.
///
/// # Panics
///
/// Panics if `shells == 0`.
#[must_use]
pub fn buffered_ring(shells: usize, relays: usize) -> BufferedRing {
    assert!(shells >= 1, "a ring needs at least one shell");
    let mut n = Netlist::new();
    let mut shell_ids = Vec::with_capacity(shells);
    for i in 0..shells {
        let sh = if i == 0 {
            n.add_buffered_shell("tap", IdentityPearl::with_fanout(2))
        } else {
            n.add_buffered_shell(format_args!("s{i}"), IdentityPearl::new())
        };
        shell_ids.push(sh);
    }
    let mut prev = (shell_ids[0], 0usize);
    for _ in 0..relays {
        let rs = n.add_relay(RelayKind::Full);
        n.connect(prev.0, prev.1, rs, 0).expect("fresh ports");
        prev = (rs, 0);
    }
    for sh in shell_ids.iter().skip(1) {
        n.connect(prev.0, prev.1, *sh, 0).expect("fresh ports");
        prev = (*sh, 0);
    }
    n.connect(prev.0, prev.1, shell_ids[0], 0)
        .expect("fresh ports");
    let sink = n.add_sink("out");
    n.connect(shell_ids[0], 1, sink, 0).expect("fresh ports");
    BufferedRing {
        netlist: n,
        shells: shell_ids,
        sink,
    }
}

/// The two memory-equivalent realisations of the same `shells`-stage
/// pipeline: `(simplified shells + half stations, buffered shells)`.
/// Used by the minimum-memory ablation (`EXP-A2`): both use the same
/// total storage and behave identically.
#[must_use]
pub fn memory_equivalent_chains(shells: usize) -> (Chain, Chain) {
    // Simplified: one half station immediately before each shell input.
    let mut n = Netlist::new();
    let source = n.add_source("in");
    let mut prev = (source, 0usize);
    let mut shell_ids = Vec::with_capacity(shells);
    for i in 0..shells {
        let sh = n.add_shell(format_args!("s{i}"), IdentityPearl::new());
        n.connect_via_relays(prev.0, prev.1, sh, 0, 1, RelayKind::Half)
            .expect("fresh ports");
        shell_ids.push(sh);
        prev = (sh, 0);
    }
    let sink = n.add_sink("out");
    n.connect(prev.0, prev.1, sink, 0).expect("fresh ports");
    let simple = Chain {
        netlist: n,
        source,
        shells: shell_ids,
        sink,
    };

    // Buffered: same pipeline, the stations fused into the shells.
    let mut n = Netlist::new();
    let source = n.add_source("in");
    let mut prev = (source, 0usize);
    let mut shell_ids = Vec::with_capacity(shells);
    for i in 0..shells {
        let sh = n.add_buffered_shell(format_args!("s{i}"), IdentityPearl::new());
        n.connect(prev.0, prev.1, sh, 0).expect("fresh ports");
        shell_ids.push(sh);
        prev = (sh, 0);
    }
    let sink = n.add_sink("out");
    n.connect(prev.0, prev.1, sink, 0).expect("fresh ports");
    let buffered = Chain {
        netlist: n,
        source,
        shells: shell_ids,
        sink,
    };
    (simple, buffered)
}

/// Which family a random instance belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Linear pipeline.
    Chain,
    /// Fanout tree.
    Tree,
    /// Independent-source reconvergence (decoupled branches).
    Reconvergent,
    /// Fig. 1 fork-join reconvergence (coupled branches).
    ForkJoin,
    /// Fig. 2 ring.
    Ring,
    /// Reconvergence feeding a ring.
    Composed,
    /// Ring of buffered shells.
    BufferedRing,
    /// Ring with sized FIFO stations.
    FifoRing,
}

/// A seeded random instance from one of the families, with bounded size.
/// Deterministic in `seed`. Used by corpus tests and the deadlock sweep.
#[must_use]
pub fn random_family(seed: u64) -> (Family, Netlist) {
    let mut rng = SmallRng::seed_from_u64(seed);
    match rng.gen_range(0..8u32) {
        6 => {
            let r = buffered_ring(rng.gen_range(1..5), rng.gen_range(0..3));
            (Family::BufferedRing, r.netlist)
        }
        7 => {
            let cap = rng.gen_range(2..5u8);
            let r = ring(
                rng.gen_range(1..4),
                rng.gen_range(1..4),
                RelayKind::Fifo(cap),
            );
            (Family::FifoRing, r.netlist)
        }
        0 => {
            let c = chain(
                rng.gen_range(1..5),
                rng.gen_range(0..3),
                pick_kind(&mut rng),
            );
            (Family::Chain, c.netlist)
        }
        1 => {
            let t = tree(
                rng.gen_range(1..4),
                rng.gen_range(1..3),
                rng.gen_range(0..3),
            );
            (Family::Tree, t.netlist)
        }
        2 => {
            let long = rng.gen_range(1..6);
            let short = rng.gen_range(0..=long);
            (Family::Reconvergent, reconvergent(long, short).netlist)
        }
        3 => {
            let r = ring(rng.gen_range(1..5), rng.gen_range(0..4), RelayKind::Full);
            (Family::Ring, r.netlist)
        }
        4 => {
            let f = fork_join(
                rng.gen_range(0..3),
                rng.gen_range(0..3),
                rng.gen_range(0..3),
            );
            (Family::ForkJoin, f.netlist)
        }
        _ => {
            let long = rng.gen_range(1..4);
            let short = rng.gen_range(0..=long);
            let c = composed(long, short, rng.gen_range(1..4), rng.gen_range(0..3));
            (Family::Composed, c.netlist)
        }
    }
}

fn pick_kind(rng: &mut SmallRng) -> RelayKind {
    if rng.gen_bool(0.5) {
        RelayKind::Full
    } else {
        RelayKind::Half
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{classify, TopologyClass};

    #[test]
    fn chain_validates() {
        let c = chain(3, 2, RelayKind::Full);
        c.netlist.validate().unwrap();
        assert_eq!(c.shells.len(), 3);
        assert_eq!(c.netlist.census().full_relays, 8); // 4 gaps x 2
        assert_eq!(classify(&c.netlist), TopologyClass::Tree);
    }

    #[test]
    fn chain_with_half_relays_validates() {
        let c = chain(2, 1, RelayKind::Half);
        c.netlist.validate().unwrap();
        assert_eq!(c.netlist.census().half_relays, 3);
    }

    #[test]
    fn tree_validates_and_counts_leaves() {
        let t = tree(2, 2, 1);
        t.netlist.validate().unwrap();
        assert_eq!(t.sinks.len(), 4);
        assert_eq!(classify(&t.netlist), TopologyClass::Tree);
        // Edges: 1 + 2 + 4 = 7, one relay each.
        assert_eq!(t.netlist.census().full_relays, 7);
    }

    #[test]
    fn degenerate_tree_is_a_wire() {
        let t = tree(0, 1, 0);
        t.netlist.validate().unwrap();
        assert_eq!(t.sinks.len(), 1);
    }

    #[test]
    fn reconvergent_matches_fig1_shape() {
        let r = reconvergent(2, 1);
        r.netlist.validate().unwrap();
        assert_eq!(classify(&r.netlist), TopologyClass::ReconvergentFeedForward);
        assert_eq!(r.long_branch.len(), 2);
        assert_eq!(r.short_branch.len(), 1);
    }

    #[test]
    fn fork_join_matches_fig1_shape() {
        let f = fig1();
        f.netlist.validate().unwrap();
        assert_eq!(classify(&f.netlist), TopologyClass::ReconvergentFeedForward);
        assert_eq!(f.long_relays.len(), 2);
        assert_eq!(f.short_relays.len(), 1);
        assert_eq!(f.netlist.census().shells, 3); // A, B, C
    }

    #[test]
    fn fork_join_zero_segments_use_half_relays() {
        let f = fork_join(0, 0, 0);
        f.netlist.validate().unwrap();
        assert_eq!(f.netlist.census().half_relays, 3);
        assert_eq!(f.netlist.census().full_relays, 0);
    }

    #[test]
    fn ring_matches_fig2_shape() {
        let r = ring(2, 1, RelayKind::Full);
        r.netlist.validate().unwrap();
        assert_eq!(classify(&r.netlist), TopologyClass::Feedback);
        assert_eq!(r.shells.len(), 2);
        assert_eq!(r.relays.len(), 1);
    }

    #[test]
    fn shell_only_ring_is_invalid() {
        // A loop with zero relay stations violates the minimum-memory
        // rule and must be rejected.
        let r = ring(2, 0, RelayKind::Full);
        assert!(r.netlist.validate().is_err());
    }

    #[test]
    fn ring_with_entry_validates() {
        let r = ring_with_entry(
            2,
            1,
            RelayKind::Half,
            Pattern::Never,
            Pattern::EveryNth {
                period: 3,
                phase: 0,
            },
        );
        r.netlist.validate().unwrap();
        assert_eq!(classify(&r.netlist), TopologyClass::Feedback);
    }

    #[test]
    fn composed_validates() {
        let c = composed(2, 1, 2, 1);
        c.netlist.validate().unwrap();
        assert_eq!(classify(&c.netlist), TopologyClass::Feedback);
    }

    #[test]
    fn buffered_ring_without_relays_is_legal() {
        // The whole point of the buffered shell: a loop with no relay
        // stations at all still satisfies minimum memory (the input
        // registers save the stops).
        let r = buffered_ring(3, 0);
        r.netlist.validate().unwrap();
        assert_eq!(classify(&r.netlist), TopologyClass::Feedback);
        assert_eq!(r.netlist.census().relays(), 0);
        assert_eq!(r.netlist.census().buffered_shells, 3);
        // The same loop with simplified shells is rejected.
        let bad = ring(3, 0, RelayKind::Full);
        assert!(bad.netlist.validate().is_err());
    }

    #[test]
    fn memory_equivalent_chains_have_equal_storage() {
        let (simple, buffered) = memory_equivalent_chains(3);
        simple.netlist.validate().unwrap();
        buffered.netlist.validate().unwrap();
        let cs = simple.netlist.census();
        let cb = buffered.netlist.census();
        // Registers: shell outputs + half-station registers vs shell
        // outputs + input buffers: identical totals.
        let simple_regs = cs.shells + cs.half_relays;
        let buffered_regs = cb.shells + cb.buffered_shells; // outputs + input buffers
        assert_eq!(simple_regs, buffered_regs);
    }

    #[test]
    fn random_family_is_deterministic() {
        for seed in 0..30u64 {
            let (fam_a, net_a) = random_family(seed);
            let (fam_b, net_b) = random_family(seed);
            assert_eq!(fam_a, fam_b);
            assert_eq!(net_a.node_count(), net_b.node_count());
            assert_eq!(net_a.channel_count(), net_b.channel_count());
        }
    }

    #[test]
    fn random_instances_mostly_validate() {
        // Rings with zero relays are generated occasionally and are
        // legitimately invalid (stop loop); everything else validates.
        let mut valid = 0;
        for seed in 0..60u64 {
            let (_, net) = random_family(seed);
            if net.validate().is_ok() {
                valid += 1;
            }
        }
        assert!(valid >= 40, "only {valid}/60 random instances validated");
    }
}
