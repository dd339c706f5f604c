//! Memoized throughput measurement for analysis searches.
//!
//! Equalization and queue-sizing searches (see `lip-analysis`) evaluate
//! many candidate netlists, and different candidates frequently
//! elaborate to the *same* compiled structure — inserting a relay on a
//! channel that already has one, or re-visiting a capacity assignment
//! reached along two search paths. [`ThroughputCache`] keys full
//! [`Measurement`]s by the compiled program's
//! [structural fingerprint](SettleProgram::stable_structural_hash)
//! (plus the measurement options), so each distinct structure is
//! simulated exactly once per search.
//!
//! The fingerprint covers everything observable behaviour depends on —
//! channel wiring, relay kinds and capacities, shell geometry, protocol
//! variant, and source/sink environment patterns — so a cache hit is
//! guaranteed to return the measurement the simulator would have
//! produced. Compiling the fingerprint is linear in netlist size and
//! orders of magnitude cheaper than simulating to steady state — and
//! with the incremental patch path (see [`crate::patch`]) a search can
//! skip even that: [`measure_program_with`](ThroughputCache::measure_program_with)
//! keys on an already-patched program: a hit costs one hash lookup, and
//! a miss runs the skeleton's steady-state pass (see [`mod@crate::measure`])
//! on that program, never materialising a netlist.
//!
//! Service-style sweeps run unbounded numbers of candidates through one
//! cache, so it can be bounded:
//! [`with_capacity`](ThroughputCache::with_capacity) caps the table and
//! evicts the least-recently-used entry on overflow (an eviction can
//! only cost a re-measurement, never change a result).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use lip_graph::{Netlist, NetlistError};

use crate::measure::{measure_program, MeasureOptions, Measurement};
use crate::program::SettleProgram;

/// Key: structural fingerprint + the two measurement knobs (different
/// budgets can legitimately produce different fallback estimates for
/// aperiodic systems, so they must not alias).
type Key = (u64, u64, u64);

/// A memo table of [`Measurement`]s keyed by compiled-netlist structure.
///
/// # Example
///
/// ```
/// use lip_graph::generate;
/// use lip_sim::{Ratio, ThroughputCache};
///
/// # fn main() -> Result<(), lip_graph::NetlistError> {
/// let mut cache = ThroughputCache::new();
/// let fig1 = generate::fig1();
/// let a = cache.measure(&fig1.netlist)?;
/// let b = cache.measure(&fig1.netlist)?; // memoized: no simulation
/// assert_eq!(a, b);
/// assert_eq!(a.system_throughput(), Some(Ratio::new(4, 5)));
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ThroughputCache {
    /// Value carries its recency stamp (the `order` key).
    map: HashMap<Key, (u64, Measurement)>,
    /// Recency index: stamp → key, oldest first. Stamps are unique
    /// (`tick` only grows), so a `BTreeMap` gives O(log n) LRU updates
    /// without an unsafe linked list.
    order: BTreeMap<u64, Key>,
    /// Monotonic recency clock.
    tick: u64,
    /// Maximum resident entries; `None` = unbounded.
    capacity: Option<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ThroughputCache {
    /// An empty, unbounded cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache bounded to at most `capacity` resident
    /// measurements; inserting past the bound evicts the
    /// least-recently-used entry. A `capacity` of zero disables
    /// memoization entirely (every lookup misses).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// Memoized [`measure`](crate::measure::measure) (default options).
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from elaboration.
    pub fn measure(&mut self, netlist: &Netlist) -> Result<Measurement, NetlistError> {
        self.measure_with(netlist, MeasureOptions::default())
    }

    /// Memoized [`measure_with`](crate::measure::measure_with): on a
    /// structural hit the stored [`Measurement`] is cloned back without
    /// any simulation.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError`] from compilation (a failing netlist
    /// is never cached).
    pub fn measure_with(
        &mut self,
        netlist: &Netlist,
        opts: MeasureOptions,
    ) -> Result<Measurement, NetlistError> {
        let program = SettleProgram::compile_shared(netlist)?;
        self.measure_program_with(&program, opts, Netlist::new)
    }

    /// Memoized measurement keyed on an **already compiled** program —
    /// the incremental edit loop's entry point (see [`crate::patch`]).
    /// A hit costs one hash lookup: no compile, no simulation. A miss
    /// clones `program` into an `Arc` and runs the skeleton's
    /// steady-state pass on it, so the patched program is what gets
    /// measured. `_netlist` is never called and the `Result` is never
    /// an error; both stay so existing callers keep compiling.
    pub fn measure_program_with(
        &mut self,
        program: &SettleProgram,
        opts: MeasureOptions,
        _netlist: impl FnOnce() -> Netlist,
    ) -> Result<Measurement, NetlistError> {
        let key = Self::key(program, opts);
        if let Some(m) = self.lookup(key) {
            return Ok(m);
        }
        let m = {
            // The miss is the expensive path — span it so sweeps can
            // attribute wall-clock to cold measurements.
            let _miss_span = lip_obs::flight::global_span("cache", "measure_miss");
            measure_program(&Arc::new(program.clone()), opts)
        };
        self.insert(key, m.clone());
        Ok(m)
    }

    fn key(program: &SettleProgram, opts: MeasureOptions) -> Key {
        (
            program.stable_structural_hash(),
            opts.max_transient,
            opts.fallback_cycles,
        )
    }

    /// Hit path: clone the stored measurement and refresh its recency.
    fn lookup(&mut self, key: Key) -> Option<Measurement> {
        let (stamp, m) = self.map.get_mut(&key)?;
        let new = self.tick;
        self.tick += 1;
        let old = std::mem::replace(stamp, new);
        self.order.remove(&old);
        self.order.insert(new, key);
        self.hits += 1;
        lip_obs::flight::global_add("cache.hits", 1);
        Some(m.clone())
    }

    fn insert(&mut self, key: Key, m: Measurement) {
        self.misses += 1;
        lip_obs::flight::global_add("cache.misses", 1);
        if let Some(cap) = self.capacity {
            if cap == 0 {
                return;
            }
            // Evict the least-recently-used entry to stay within the
            // bound. Costs at most a future re-measurement; the
            // fingerprint keying keeps every answer exact regardless.
            while self.map.len() >= cap {
                let (_, victim) = self.order.pop_first().expect("map non-empty implies order");
                self.map.remove(&victim);
                self.evictions += 1;
                lip_obs::flight::global_add("cache.evictions", 1);
            }
        }
        let stamp = self.tick;
        self.tick += 1;
        self.map.insert(key, (stamp, m));
        self.order.insert(stamp, key);
    }

    /// Lookups answered from the memo table.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to simulation.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries dropped by the LRU bound so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Fraction of lookups answered from the table (`None` before the
    /// first lookup).
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        #[allow(clippy::cast_precision_loss)]
        (total > 0).then(|| self.hits as f64 / total as f64)
    }

    /// Measurements currently resident (≤ the capacity bound).
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is currently resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Ratio;
    use lip_graph::generate;

    #[test]
    fn hit_returns_identical_measurement() {
        let mut cache = ThroughputCache::new();
        let fig1 = generate::fig1();
        let cold = cache.measure(&fig1.netlist).expect("measure");
        let warm = cache.measure(&fig1.netlist).expect("measure");
        assert_eq!(cold, warm);
        assert_eq!(cold.system_throughput(), Some(Ratio::new(4, 5)));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hit_rate(), Some(0.5));
    }

    #[test]
    fn distinct_structures_do_not_alias() {
        let mut cache = ThroughputCache::new();
        let fig1 = generate::fig1();
        let ring = generate::ring(4, 2, lip_core::RelayKind::Full);
        let a = cache.measure(&fig1.netlist).expect("measure");
        let b = cache.measure(&ring.netlist).expect("measure");
        assert_ne!(a.system_throughput(), b.system_throughput());
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn options_are_part_of_the_key() {
        let mut cache = ThroughputCache::new();
        let fig1 = generate::fig1();
        let _ = cache.measure(&fig1.netlist).expect("measure");
        let opts = MeasureOptions {
            max_transient: 5_000,
            ..MeasureOptions::default()
        };
        let _ = cache.measure_with(&fig1.netlist, opts).expect("measure");
        assert_eq!(cache.misses(), 2, "different options must re-measure");
    }

    #[test]
    fn structural_hash_is_stable_across_compiles() {
        let fig1 = generate::fig1();
        let a = SettleProgram::compile(&fig1.netlist).expect("compile");
        let b = SettleProgram::compile(&fig1.netlist).expect("compile");
        assert_eq!(a.stable_structural_hash(), b.stable_structural_hash());
    }

    #[test]
    fn program_keyed_hit_skips_netlist_materialisation() {
        let mut cache = ThroughputCache::new();
        let fig1 = generate::fig1();
        let program = SettleProgram::compile(&fig1.netlist).expect("compile");
        let opts = MeasureOptions::default();
        let cold = cache
            .measure_program_with(&program, opts, || {
                panic!("a miss must measure the program, not a netlist")
            })
            .expect("measure");
        let warm = cache
            .measure_program_with(&program, opts, || {
                panic!("hit must not materialise the netlist")
            })
            .expect("measure");
        assert_eq!(cold, warm);
        // And the netlist-keyed entry point aliases onto the same slot.
        let again = cache.measure(&fig1.netlist).expect("measure");
        assert_eq!(cold, again);
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }

    #[test]
    fn lru_bound_evicts_oldest_and_stays_correct() {
        let mut cache = ThroughputCache::with_capacity(2);
        let fig1 = generate::fig1();
        let ring = generate::ring(4, 2, lip_core::RelayKind::Full);
        let chain = generate::chain(3, 1, lip_core::RelayKind::Full);
        let a0 = cache.measure(&fig1.netlist).expect("measure");
        let _ = cache.measure(&ring.netlist).expect("measure");
        // Touch fig1 so the ring becomes the LRU victim.
        let _ = cache.measure(&fig1.netlist).expect("measure");
        let _ = cache.measure(&chain.netlist).expect("measure");
        assert_eq!(cache.len(), 2, "bound holds");
        assert_eq!(cache.evictions(), 1, "ring evicted");
        // Evicted entry re-measures — and still answers identically.
        let before = cache.misses();
        let a1 = cache.measure(&fig1.netlist).expect("measure");
        assert_eq!(a0, a1, "fig1 still resident");
        let r1 = cache.measure(&ring.netlist).expect("measure");
        assert_eq!(
            cache.misses(),
            before + 1,
            "ring re-measured after eviction"
        );
        assert_eq!(r1.system_throughput(), {
            let mut fresh = ThroughputCache::new();
            fresh
                .measure(&ring.netlist)
                .expect("measure")
                .system_throughput()
        });
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let mut cache = ThroughputCache::with_capacity(0);
        let fig1 = generate::fig1();
        let a = cache.measure(&fig1.netlist).expect("measure");
        let b = cache.measure(&fig1.netlist).expect("measure");
        assert_eq!(a, b);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        assert!(cache.is_empty());
    }
}
