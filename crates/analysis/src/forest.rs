//! Declared-environment facts on forests, in closed form.
//!
//! `lip_mc::check_declared` finds the lasso of the skeleton under the
//! declared environment by stepping it. On a forest whose sinks never
//! stop, the paper already proves what that search finds:
//!
//! * §2 (the refinement): a stop over a void is discarded, so a shell
//!   with one input raises a stop only when its valid input meets a
//!   stopped output. Sinks that never stop, relays that start empty and
//!   drain every cycle, and shells that fire on every valid input then
//!   raise none at all: no register ever holds a token back.
//! * §3: without back-pressure every register is a delay line, so each
//!   channel replays its root source's pattern shifted by the registers
//!   on its path: T = the source's data rate, and the transient ends
//!   once the longest relay path has flushed its reset values.
//! * §5: a feed-forward design cannot deadlock; a shell is dead only
//!   when its source never presents data.
//!
//! [`forest_facts`] turns that into the proof's numbers. A register at
//! register depth `d` (shells and full/FIFO relays count; half relays
//! are transparent bypasses and stay empty) holds at cycle `t` the
//! reset value of its ancestor at depth `d − t` while `t < d`, and the
//! source's offer of cycle `t − d` after. With `P` the declared
//! environment period, the state at `s` recurs at `s + P` exactly when
//! every register agrees with itself `P` cycles later, so the stem is
//! the last cycle some register still disagrees, plus one. Register
//! `r` disagrees at cycle `t` only while the reset wave passes over it:
//! if `k` is the shallowest depth on `r`'s path whose reset value
//! differs from what arrives there `P` cycles later, `r` keeps
//! disagreeing until cycle `depth(r) − k`. No simulation, no state
//! arena: one walk over the forest.

use lip_core::{Pattern, RelayKind};
use lip_graph::{Netlist, NodeId, NodeKind};
use lip_sim::Ratio;

use crate::model::pattern_data_rate;

/// What the declared-environment proof finds on a forest, derived in
/// closed form by [`forest_facts`]. The fields mean what the
/// same-named fields of `lip_mc::DeclaredProof` mean, in the same
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForestFacts {
    /// Distinct reachable states: `stem + period`.
    pub states: u64,
    /// Cycles before the lasso is entered.
    pub stem: u64,
    /// Lasso length in cycles: the declared environment period.
    pub period: u64,
    /// Shells that never fire once the lasso is entered, in node order.
    pub dead_shells: Vec<NodeId>,
    /// Total shells in the design.
    pub shell_count: usize,
    /// Sustained throughput per sink, in node order: its root source's
    /// data rate.
    pub throughput: Vec<(NodeId, Ratio)>,
    /// Per relay, in node order: `(node, max reachable occupancy,
    /// capacity)`.
    pub relay_bounds: Vec<(NodeId, u32, u32)>,
}

impl ForestFacts {
    /// `true` when no shell is dead.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.dead_shells.is_empty()
    }

    /// System throughput: the minimum sink rate; `None` without sinks.
    #[must_use]
    pub fn system_throughput(&self) -> Option<Ratio> {
        self.throughput
            .iter()
            .map(|&(_, r)| r)
            .min_by(|a, b| (a.num() * b.den()).cmp(&(b.num() * a.den())))
    }
}

/// A root of the forest: what it offers at cycle `u ≥ 0`.
enum Root<'a> {
    /// A source, valid whenever its void pattern is not asserted.
    Source(&'a Pattern),
    /// A shell without inputs fires, and so offers, on every cycle.
    Shell,
}

impl Root<'_> {
    fn offers(&self, u: u64) -> bool {
        match self {
            Root::Source(pattern) => !pattern.at(u),
            Root::Shell => true,
        }
    }

    fn rate(&self) -> Option<Ratio> {
        match self {
            Root::Source(pattern) => pattern_data_rate(pattern),
            Root::Shell => Some(Ratio::new(1, 1)),
        }
    }
}

/// Walk state carried from a node to its successors.
#[derive(Clone, Copy)]
struct Ctx {
    /// Index into the root table.
    root: usize,
    /// Register depth of the node (0 at the root).
    depth: u64,
    /// Shallowest depth on the path whose reset value disagrees with
    /// what arrives there one environment period later.
    first_mismatch: Option<u64>,
    /// Whether a shell with an input sits at or above the node.
    shell_above: bool,
}

/// The declared-environment facts of `netlist` in closed form, or
/// `None` unless all of these hold:
///
/// * the protocol variant is the refined one (stops over voids are
///   discarded);
/// * no node has two input channels and every node is reached from a
///   source or an input-less shell, so the channel graph is a forest
///   (no join, no loop);
/// * every sink's stop pattern is [`Pattern::Never`];
/// * every source's void pattern is periodic and well formed, and the
///   environment period fits a `u64`;
/// * every FIFO relay has at least two places (a one-place FIFO stops
///   its producer whenever it holds a token).
///
/// `netlist` should pass [`Netlist::validate`]; the facts are what
/// `lip_mc::check_declared` proves on it, with no state budget.
#[must_use]
pub fn forest_facts(netlist: &Netlist) -> Option<ForestFacts> {
    if !netlist.variant().discards_stop_on_void() {
        return None;
    }
    let n = netlist.node_count();
    let mut roots: Vec<Root<'_>> = Vec::new();
    let mut stack: Vec<(NodeId, Ctx)> = Vec::new();
    let mut period = 1u64;
    for (id, node) in netlist.nodes() {
        let kind = node.kind();
        let inputs = netlist.num_inputs(id);
        if inputs > 1 {
            return None;
        }
        let root = match kind {
            NodeKind::Sink { stop_pattern } if *stop_pattern != Pattern::Never => return None,
            NodeKind::Relay {
                kind: RelayKind::Fifo(k),
            } if *k < 2 => return None,
            NodeKind::Source { void_pattern } => {
                if void_pattern.malformation().is_some() {
                    return None;
                }
                let p = void_pattern.period()?;
                period = period.checked_mul(p / gcd(period, p))?;
                Root::Source(void_pattern)
            }
            NodeKind::Shell { .. } if inputs == 0 => Root::Shell,
            _ => continue,
        };
        let ctx = Ctx {
            root: roots.len(),
            depth: 0,
            first_mismatch: None,
            shell_above: false,
        };
        roots.push(root);
        stack.push((id, ctx));
    }
    let rates: Vec<Ratio> = roots.iter().map(Root::rate).collect::<Option<_>>()?;

    // One pre-order walk; with at most one input per node it reaches
    // each node at most once. `resets[d - 1]` holds the reset value of
    // the register at depth `d` on the current path: pre-order visits a
    // register's whole subtree before any other node of its depth.
    let mut resets: Vec<bool> = Vec::new();
    // Per node: its root, and whether a shell sits above it.
    let mut walked: Vec<(usize, bool)> = vec![(0, false); n];
    let mut visited = 0usize;
    let mut stem = 0u64;
    while let Some((id, parent)) = stack.pop() {
        visited += 1;
        let kind = netlist.node(id).kind();
        let mut ctx = parent;
        let register = match kind {
            NodeKind::Shell { .. } => (netlist.num_inputs(id) == 1).then_some(true),
            NodeKind::Relay {
                kind: RelayKind::Full | RelayKind::Fifo(_),
            } => Some(false),
            _ => None,
        };
        if let Some(reset) = register {
            let d = parent.depth + 1;
            resets.truncate(d as usize - 1);
            resets.push(reset);
            // What reaches depth `d` at cycle `P`: the root's offer of
            // cycle `P − d`, or an ancestor's reset value while the
            // reset wave is still passing.
            let later = if period >= d {
                roots[parent.root].offers(period - d)
            } else {
                resets[(d - period) as usize - 1]
            };
            ctx.depth = d;
            if reset != later && ctx.first_mismatch.is_none() {
                ctx.first_mismatch = Some(d);
            }
            if let Some(k) = ctx.first_mismatch {
                stem = stem.max(d - k + 1);
            }
            ctx.shell_above |= reset;
        }
        walked[id.index()] = (ctx.root, ctx.shell_above);
        for succ in netlist.successors_iter(id) {
            stack.push((succ, ctx));
        }
    }
    if visited != n {
        return None; // some node sits on or below a loop
    }

    let mut facts = ForestFacts {
        states: stem.checked_add(period)?,
        stem,
        period,
        dead_shells: Vec::new(),
        shell_count: 0,
        throughput: Vec::new(),
        relay_bounds: Vec::new(),
    };
    let zero = Ratio::new(0, 1);
    for (id, node) in netlist.nodes() {
        let (root, shell_above) = walked[id.index()];
        let live = rates[root] != zero;
        match node.kind() {
            NodeKind::Shell { .. } => {
                facts.shell_count += 1;
                if !live {
                    facts.dead_shells.push(id);
                }
            }
            NodeKind::Sink { .. } => facts.throughput.push((id, rates[root])),
            NodeKind::Relay { kind } => {
                // Nothing is ever stopped, so a full or FIFO relay holds
                // at most the one token it took last cycle, and a half
                // relay never captures. A live root offers data within
                // every period. A dead one delivers only the reset
                // tokens of the shells above, and those arrive within
                // the stem: the shallowest shell whose reset value
                // disagrees with its later one sits no deeper than the
                // nearest shell above the relay.
                let peak = !matches!(kind, RelayKind::Half) && (live || shell_above);
                let cap = u32::try_from(kind.capacity()).expect("relay capacity fits u32");
                facts.relay_bounds.push((id, u32::from(peak), cap));
            }
            NodeKind::Source { .. } => {}
        }
    }
    Some(facts)
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}
