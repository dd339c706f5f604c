//! Measured capacity searches with memoized simulation.
//!
//! Queue-sizing (the paper's reference \[5\], Carloni &
//! Sangiovanni-Vincentelli DAC'00) trades *station insertion* for
//! *queue deepening*: instead of adding relay stations to a short
//! reconvergent branch, deepen the FIFO already there until the slack
//! matches. Finding the minimal sufficient capacity is a search over
//! candidate netlists, each of which costs a simulation to steady
//! state — and searches over several relays (or repeated analysis
//! passes) keep re-proposing structurally identical configurations.
//! Every function here therefore measures through a caller-supplied
//! [`ThroughputCache`], so each distinct compiled structure is
//! simulated exactly once per cache lifetime.
//!
//! Throughput is monotone non-decreasing in any FIFO's capacity (more
//! slack never slows a latency-insensitive system), which lets the
//! minimal-capacity search bisect the capacity range instead of
//! scanning it.
//!
//! Since the incremental-compilation layer landed, probes run on the
//! **patch path**: a search compiles the input netlist once
//! (`compile.full`), then every candidate capacity is a
//! [`recompile_delta`](lip_sim::SettleProgram::recompile_delta) kind
//! edit or a
//! [`patch_fifo_capacity`](lip_sim::SettleProgram::patch_fifo_capacity)
//! on that one program (`compile.patch`) and a program-keyed cache
//! lookup — a cache hit never clones, compiles or simulates anything.

use lip_core::RelayKind;
use lip_graph::{Netlist, NetlistError, NodeId, NodeKind};
use lip_sim::{NetlistDelta, Ratio, SettleProgram, ThroughputCache};

/// Outcome of a minimal-capacity search for one relay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityChoice {
    /// The relay that was resized.
    pub relay: NodeId,
    /// Smallest capacity achieving `throughput`.
    pub capacity: u8,
    /// The best throughput reachable by deepening this relay alone
    /// (its value at `max_cap`).
    pub throughput: Ratio,
}

/// One working candidate shared by every probe of a search: a netlist
/// copy and its compiled program, mutated in lockstep through the
/// incremental patch layer so a whole bisection (or a batch over many
/// relays) pays exactly one full compile.
struct Prober {
    netlist: Netlist,
    program: SettleProgram,
}

impl Prober {
    fn new(netlist: &Netlist) -> Result<Self, NetlistError> {
        let netlist = netlist.clone();
        let program = SettleProgram::compile(&netlist)?;
        Ok(Prober { netlist, program })
    }

    /// Throughput with `relay` set to kind `kind`, via the memo table.
    /// The edit is a program patch, and a cache miss measures the
    /// patched program itself: no netlist is materialised.
    fn throughput_with(
        &mut self,
        relay: NodeId,
        kind: RelayKind,
        cache: &mut ThroughputCache,
    ) -> Result<Ratio, NetlistError> {
        let delta = NetlistDelta::SetRelayKind { node: relay, kind };
        delta.apply_to(&mut self.netlist);
        self.program
            .recompile_delta(&delta)
            .expect("sizing edits relay stations");
        let m = cache.measure_program_with(&self.program, Default::default(), Netlist::new)?;
        Ok(m.system_throughput()
            .expect("netlist has at least one sink"))
    }

    /// The current kind of `relay` in the working copy.
    fn relay_kind(&self, relay: NodeId) -> RelayKind {
        match self.netlist.node(relay).kind() {
            NodeKind::Relay { kind } => *kind,
            _ => panic!("{relay} is not a relay station"),
        }
    }
}

/// Find the smallest FIFO capacity in `2..=max_cap` (FIFO stations need
/// at least two places) for `relay` that reaches the best throughput
/// deepening this relay can buy, by bisection over the monotone
/// capacity→throughput curve. All simulations go through `cache`;
/// re-running the search (or running it for another relay that produces
/// identical structures) costs no simulation for already-seen
/// configurations.
///
/// # Errors
///
/// Propagates [`NetlistError`] from elaboration.
///
/// # Panics
///
/// Panics if `max_cap < 2`, `relay` is not a relay station, or the
/// netlist has no sink.
pub fn minimal_equalizing_capacity(
    netlist: &Netlist,
    relay: NodeId,
    max_cap: u8,
    cache: &mut ThroughputCache,
) -> Result<CapacityChoice, NetlistError> {
    let mut prober = Prober::new(netlist)?;
    bisect_one(&mut prober, relay, max_cap, cache)
}

/// The bisection body, probing through an existing [`Prober`] so
/// callers searching several relays share one compiled program.
fn bisect_one(
    prober: &mut Prober,
    relay: NodeId,
    max_cap: u8,
    cache: &mut ThroughputCache,
) -> Result<CapacityChoice, NetlistError> {
    assert!(max_cap >= 2, "fifo stations need capacity >= 2");
    // Ambient flight-recorder span + probe counter: capacity searches
    // dominate equalization sweeps, so attribute their wall-clock and
    // candidate count when a recorder is installed.
    let _bisect_span = lip_obs::flight::global_span("analysis", "capacity_bisect");
    let best = prober.throughput_with(relay, RelayKind::Fifo(max_cap), cache)?;
    lip_obs::flight::global_add("analysis.capacity_probes", 1);
    let (mut lo, mut hi) = (2u8, max_cap);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        lip_obs::flight::global_add("analysis.capacity_probes", 1);
        if prober.throughput_with(relay, RelayKind::Fifo(mid), cache)? == best {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(CapacityChoice {
        relay,
        capacity: lo,
        throughput: best,
    })
}

/// [`minimal_equalizing_capacity`] for each relay independently,
/// sharing one memo table *and one compiled program* — the batch form
/// the queue-sizing experiment uses to compare candidate stations.
/// After each relay's search its original kind is patched back, so
/// every relay is probed against the input configuration without a
/// recompile.
///
/// # Errors
///
/// Propagates [`NetlistError`] from elaboration.
pub fn size_each_relay(
    netlist: &Netlist,
    relays: &[NodeId],
    max_cap: u8,
    cache: &mut ThroughputCache,
) -> Result<Vec<CapacityChoice>, NetlistError> {
    let mut prober = Prober::new(netlist)?;
    relays
        .iter()
        .map(|&r| {
            let original = prober.relay_kind(r);
            let choice = bisect_one(&mut prober, r, max_cap, cache)?;
            let delta = NetlistDelta::SetRelayKind {
                node: r,
                kind: original,
            };
            delta.apply_to(&mut prober.netlist);
            prober
                .program
                .recompile_delta(&delta)
                .expect("sizing edits relay stations");
            Ok(choice)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_graph::generate;

    #[test]
    fn fig1_short_branch_equalizes_at_capacity_three() {
        // Paper/DAC'00: T = min(1, (k+2)/5), so capacity 3 is the knee.
        let f = generate::fig1();
        let mut cache = ThroughputCache::new();
        let choice =
            minimal_equalizing_capacity(&f.netlist, f.short_relays[0], 6, &mut cache).unwrap();
        assert_eq!(choice.capacity, 3);
        assert_eq!(choice.throughput, Ratio::new(1, 1));
        assert!(cache.misses() >= 2, "bisection must simulate");
    }

    #[test]
    fn rerunning_the_search_is_fully_memoized() {
        let f = generate::fig1();
        let mut cache = ThroughputCache::new();
        let first =
            minimal_equalizing_capacity(&f.netlist, f.short_relays[0], 6, &mut cache).unwrap();
        let misses = cache.misses();
        let second =
            minimal_equalizing_capacity(&f.netlist, f.short_relays[0], 6, &mut cache).unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.misses(), misses, "second run must not simulate");
        assert!(cache.hits() >= misses);
    }

    #[test]
    fn loop_relays_cannot_buy_throughput_with_depth() {
        // Rings are latency-bound: the best reachable equals capacity 1…
        let ring = generate::ring(2, 1, lip_core::RelayKind::Full);
        let mut cache = ThroughputCache::new();
        let choices = size_each_relay(&ring.netlist, &ring.relays, 5, &mut cache).unwrap();
        for c in &choices {
            assert_eq!(c.capacity, 2, "relay {}: depth bought nothing", c.relay);
            assert_eq!(c.throughput, Ratio::new(2, 3));
        }
    }
}
