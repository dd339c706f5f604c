//! Per-channel / per-shell / per-relay counters and occupancy
//! histograms.
//!
//! A [`MetricsRegistry`] is the counting probe: attach it to any probed
//! engine run and read back, per channel, how many cycles the stop bit
//! was asserted, how many stops the refined variant discarded against
//! voids, how many voids were carried and consumed; per shell, how often
//! it fired; per relay, fill/drain totals and the full occupancy
//! histogram. These are exactly the quantities the paper's closed forms
//! predict (`T = (m − i)/m`, `T = S/(S+R)`), so a registry turns any run
//! into a checkable throughput report.
//!
//! The registry aggregates over lanes: counters sum events from all
//! lanes (a scalar run only ever reports lane 0). The `*_mask` hooks are
//! overridden with popcounts, so counting a 64-lane word costs one word
//! op.

use crate::event::Event;
use crate::json::Json;
use crate::probe::{for_each_lane, Probe};

/// The shape of the observed system: how many channels, shells and
/// relays there are, and each relay's capacity (histogram range).
///
/// Engines provide this (e.g. `SettleProgram::topology()` in `lip-sim`);
/// relay rows are numbered full relays first, then half, then FIFO, each
/// in compiled-table order, and `relay_capacities[row]` is the row's
/// token capacity (2 for full, 1 for half, `k` for `Fifo(k)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Number of channels.
    pub channels: u32,
    /// Number of shells.
    pub shells: u32,
    /// Per relay row: its capacity.
    pub relay_capacities: Vec<u32>,
}

impl Topology {
    /// Number of relay rows.
    #[must_use]
    pub fn relays(&self) -> usize {
        self.relay_capacities.len()
    }
}

/// Counters and histograms accumulated from probe hooks.
///
/// See the [module docs](self) for the meaning of each family. Build
/// with [`MetricsRegistry::new`] for scalar engines or
/// [`MetricsRegistry::with_lanes`] for the batch engine (the lane count
/// sizes the per-lane relay occupancy tracking; counters always
/// aggregate across lanes).
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    topo: Topology,
    lanes: u32,
    /// Steps observed (`end_cycle` calls).
    cycles: u64,
    /// Per channel: lane-cycles with the stop bit asserted.
    stalls: Vec<u64>,
    /// Per channel: stops suppressed against a void (refined variant).
    stall_discards: Vec<u64>,
    /// Per channel: lane-cycles the channel carried a void.
    voids: Vec<u64>,
    /// Per channel: void tokens consumed by a sink.
    void_ins: Vec<u64>,
    /// Per channel: informative tokens consumed by a sink.
    consumed: Vec<u64>,
    /// Per shell: firings.
    fires: Vec<u64>,
    /// Per relay: occupancy increments / decrements.
    relay_fills: Vec<u64>,
    relay_drains: Vec<u64>,
    /// Per relay × lane: current occupancy (tracked from fills/drains).
    cur_occ: Vec<u32>,
    /// Per relay: histogram over occupancy `0..=capacity`, in
    /// lane-cycles (folded once per `end_cycle` per lane).
    occupancy: Vec<Vec<u64>>,
}

impl MetricsRegistry {
    /// Registry for a scalar (single-lane) engine.
    #[must_use]
    pub fn new(topo: Topology) -> Self {
        Self::with_lanes(topo, 1)
    }

    /// Registry observing `lanes` batch lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is 0 or greater than 1024 (the widest lane
    /// word).
    #[must_use]
    pub fn with_lanes(topo: Topology, lanes: u32) -> Self {
        assert!((1..=1024).contains(&lanes), "lanes must be in 1..=1024");
        let nch = topo.channels as usize;
        let nsh = topo.shells as usize;
        let nre = topo.relays();
        MetricsRegistry {
            lanes,
            cycles: 0,
            stalls: vec![0; nch],
            stall_discards: vec![0; nch],
            voids: vec![0; nch],
            void_ins: vec![0; nch],
            consumed: vec![0; nch],
            fires: vec![0; nsh],
            relay_fills: vec![0; nre],
            relay_drains: vec![0; nre],
            cur_occ: vec![0; nre * lanes as usize],
            occupancy: topo
                .relay_capacities
                .iter()
                .map(|&cap| vec![0; cap as usize + 1])
                .collect(),
            topo,
        }
    }

    /// The topology this registry was sized for.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Steps observed so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Lanes observed per step.
    #[must_use]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Lane-cycles channel `ch` had its stop bit asserted.
    #[must_use]
    pub fn stalls(&self, ch: usize) -> u64 {
        self.stalls[ch]
    }

    /// Stops the refined variant discarded against a void on `ch`.
    #[must_use]
    pub fn stall_discards(&self, ch: usize) -> u64 {
        self.stall_discards[ch]
    }

    /// Lane-cycles channel `ch` carried a void.
    #[must_use]
    pub fn voids(&self, ch: usize) -> u64 {
        self.voids[ch]
    }

    /// Void tokens consumed by a sink from channel `ch`.
    #[must_use]
    pub fn void_ins(&self, ch: usize) -> u64 {
        self.void_ins[ch]
    }

    /// Informative tokens consumed by a sink from channel `ch`.
    #[must_use]
    pub fn consumed(&self, ch: usize) -> u64 {
        self.consumed[ch]
    }

    /// Firings of shell row `shell`.
    #[must_use]
    pub fn fires(&self, shell: usize) -> u64 {
        self.fires[shell]
    }

    /// `(fills, drains)` of relay row `relay`.
    #[must_use]
    pub fn relay_traffic(&self, relay: usize) -> (u64, u64) {
        (self.relay_fills[relay], self.relay_drains[relay])
    }

    /// Occupancy histogram of relay row `relay`: entry `o` is the number
    /// of lane-cycles the relay held exactly `o` tokens.
    #[must_use]
    pub fn occupancy_histogram(&self, relay: usize) -> &[u64] {
        &self.occupancy[relay]
    }

    /// Measured throughput at the sink fed by channel `ch`: informative
    /// tokens per observed lane-cycle, as a `(num, den)` pair (den =
    /// cycles × lanes). `None` before the first cycle.
    #[must_use]
    pub fn sink_throughput(&self, ch: usize) -> Option<(u64, u64)> {
        let den = self.cycles.checked_mul(u64::from(self.lanes))?;
        if den == 0 {
            return None;
        }
        Some((self.consumed[ch], den))
    }

    /// Total shell firings, summed over shells and lanes.
    #[must_use]
    pub fn total_fires(&self) -> u64 {
        self.fires.iter().sum()
    }

    /// The counters as one JSON object (used inside `Report`s).
    #[must_use]
    pub fn to_json(&self) -> String {
        let list = |v: &[u64]| v.iter().copied().collect::<Json>();
        Json::obj([
            ("cycles", self.cycles.into()),
            ("lanes", self.lanes.into()),
            ("stalls", list(&self.stalls)),
            ("stall_discards", list(&self.stall_discards)),
            ("voids", list(&self.voids)),
            ("void_ins", list(&self.void_ins)),
            ("consumed", list(&self.consumed)),
            ("fires", list(&self.fires)),
            ("relay_fills", list(&self.relay_fills)),
            ("relay_drains", list(&self.relay_drains)),
            (
                "relay_occupancy",
                self.occupancy.iter().map(|h| list(h)).collect(),
            ),
        ])
        .to_compact()
    }

    #[inline]
    fn occ_slot(&mut self, relay: u32, lane: u16) -> &mut u32 {
        &mut self.cur_occ[relay as usize * self.lanes as usize + lane as usize]
    }
}

impl Probe for MetricsRegistry {
    /// Raw events route to the same counters as the dedicated hooks.
    fn event(&mut self, ev: Event) {
        use crate::event::EventKind as K;
        match ev.kind {
            K::Fire => self.fires[ev.entity as usize] += 1,
            K::Stall => self.stalls[ev.entity as usize] += 1,
            K::VoidIn => self.void_ins[ev.entity as usize] += 1,
            K::VoidDiscard => self.stall_discards[ev.entity as usize] += 1,
            K::RelayFill => {
                self.relay_fills[ev.entity as usize] += 1;
                *self.occ_slot(ev.entity, ev.lane) += 1;
            }
            K::RelayDrain => {
                self.relay_drains[ev.entity as usize] += 1;
                let slot = self.occ_slot(ev.entity, ev.lane);
                *slot = slot.saturating_sub(1);
            }
            K::ChannelVoid => self.voids[ev.entity as usize] += 1,
            K::Consume => self.consumed[ev.entity as usize] += 1,
        }
    }

    #[inline]
    fn channel_void(&mut self, _cycle: u64, ch: u32, _lane: u16) {
        self.voids[ch as usize] += 1;
    }

    #[inline]
    fn consume(&mut self, _cycle: u64, ch: u32, _lane: u16) {
        self.consumed[ch as usize] += 1;
    }

    fn end_cycle(&mut self, _cycle: u64) {
        self.cycles += 1;
        for relay in 0..self.occupancy.len() {
            for lane in 0..self.lanes as usize {
                let occ = self.cur_occ[relay * self.lanes as usize + lane] as usize;
                let hist = &mut self.occupancy[relay];
                let slot = occ.min(hist.len() - 1);
                hist[slot] += 1;
            }
        }
    }

    // Aggregate counters only need popcounts for word-wide hooks; relay
    // hooks still need per-lane decomposition for the occupancy model.

    #[inline]
    fn fire_mask(&mut self, _cycle: u64, shell: u32, mask: u64) {
        self.fires[shell as usize] += u64::from(mask.count_ones());
    }

    #[inline]
    fn stall_mask(&mut self, _cycle: u64, ch: u32, mask: u64) {
        self.stalls[ch as usize] += u64::from(mask.count_ones());
    }

    #[inline]
    fn channel_void_mask(&mut self, _cycle: u64, ch: u32, mask: u64) {
        self.voids[ch as usize] += u64::from(mask.count_ones());
    }

    #[inline]
    fn consume_mask(&mut self, _cycle: u64, ch: u32, mask: u64) {
        self.consumed[ch as usize] += u64::from(mask.count_ones());
    }

    #[inline]
    fn void_in_mask(&mut self, _cycle: u64, ch: u32, mask: u64) {
        self.void_ins[ch as usize] += u64::from(mask.count_ones());
    }

    #[inline]
    fn void_discard_mask(&mut self, _cycle: u64, ch: u32, mask: u64) {
        self.stall_discards[ch as usize] += u64::from(mask.count_ones());
    }

    #[inline]
    fn relay_fill_mask(&mut self, _cycle: u64, relay: u32, mask: u64) {
        self.relay_fills[relay as usize] += u64::from(mask.count_ones());
        for_each_lane(mask, |lane| *self.occ_slot(relay, lane) += 1);
    }

    #[inline]
    fn relay_drain_mask(&mut self, _cycle: u64, relay: u32, mask: u64) {
        self.relay_drains[relay as usize] += u64::from(mask.count_ones());
        for_each_lane(mask, |lane| {
            let slot = self.occ_slot(relay, lane);
            *slot = slot.saturating_sub(1);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology {
            channels: 3,
            shells: 2,
            relay_capacities: vec![2, 1],
        }
    }

    #[test]
    fn counters_accumulate_via_scalar_hooks() {
        let mut m = MetricsRegistry::new(topo());
        m.stall(0, 1, 0);
        m.stall(1, 1, 0);
        m.channel_void(0, 2, 0);
        m.void_in(1, 2, 0);
        m.void_discard(1, 0, 0);
        m.fire(1, 1, 0);
        m.consume(1, 2, 0);
        m.end_cycle(0);
        m.end_cycle(1);
        assert_eq!(m.stalls(1), 2);
        assert_eq!(m.voids(2), 1);
        assert_eq!(m.void_ins(2), 1);
        assert_eq!(m.stall_discards(0), 1);
        assert_eq!(m.fires(1), 1);
        assert_eq!(m.consumed(2), 1);
        assert_eq!(m.cycles(), 2);
        assert_eq!(m.sink_throughput(2), Some((1, 2)));
    }

    #[test]
    fn mask_hooks_count_lanes() {
        let mut m = MetricsRegistry::with_lanes(topo(), 64);
        m.fire_mask(0, 0, 0xFF);
        m.stall_mask(0, 2, !0);
        m.consume_mask(0, 1, 0b111);
        assert_eq!(m.fires(0), 8);
        assert_eq!(m.stalls(2), 64);
        assert_eq!(m.consumed(1), 3);
    }

    #[test]
    fn mask_hooks_reach_the_top_lane() {
        let mut m = MetricsRegistry::with_lanes(topo(), 64);
        m.fire_mask(0, 1, 1 << 63 | 0b11);
        m.relay_fill_mask(0, 1, 1 << 63);
        m.end_cycle(0);
        assert_eq!(m.fires(1), 3);
        assert_eq!(m.relay_traffic(1), (1, 0));
        // Lane 63 is at occupancy 1; the other 63 lanes are empty.
        assert_eq!(m.occupancy_histogram(1), &[63, 1]);
    }

    #[test]
    fn popcount_overrides_match_the_default_decomposition() {
        // The registry overrides `*_mask` with popcounts; the default
        // path decomposes into per-lane scalar calls. Both must agree,
        // occupancy histogram included.
        let topo = Topology {
            channels: 2,
            shells: 1,
            relay_capacities: vec![3],
        };
        let mask = (0..64).step_by(5).fold(0u64, |m, l| m | 1 << l);
        let mut fast = MetricsRegistry::with_lanes(topo.clone(), 64);
        fast.fire_mask(0, 0, mask);
        fast.stall_mask(0, 1, mask);
        fast.relay_fill_mask(0, 0, mask);
        fast.relay_drain_mask(0, 0, mask & 0xFF);
        fast.end_cycle(0);
        let mut slow = MetricsRegistry::with_lanes(topo, 64);
        for_each_lane(mask, |l| {
            slow.fire(0, 0, l);
            slow.stall(0, 1, l);
            slow.relay_fill(0, 0, l);
        });
        for_each_lane(mask & 0xFF, |l| slow.relay_drain(0, 0, l));
        slow.end_cycle(0);
        let set = u64::from(mask.count_ones());
        assert_eq!(fast.fires(0), set);
        assert_eq!(fast.to_json(), slow.to_json());
        // Lanes 0 and 5 filled and drained; the other set lanes hold one.
        assert_eq!(fast.occupancy_histogram(0), &[64 - set + 2, set - 2, 0, 0]);
    }

    #[test]
    fn occupancy_histogram_tracks_fills_and_drains() {
        let mut m = MetricsRegistry::new(topo());
        // Relay 0 (cap 2): fill, fill -> occ 2 for one cycle, then drain.
        m.relay_fill(0, 0, 0);
        m.end_cycle(0); // occ 1
        m.relay_fill(1, 0, 0);
        m.end_cycle(1); // occ 2
        m.relay_drain(2, 0, 0);
        m.end_cycle(2); // occ 1
        assert_eq!(m.occupancy_histogram(0), &[0, 2, 1]);
        assert_eq!(m.relay_traffic(0), (2, 1));
        // Relay 1 never touched: all cycles at occupancy 0.
        assert_eq!(m.occupancy_histogram(1), &[3, 0]);
    }

    #[test]
    fn json_snapshot_is_object() {
        let mut m = MetricsRegistry::new(topo());
        m.fire(0, 0, 0);
        m.end_cycle(0);
        let j = m.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"fires\":[1,0]"));
        assert!(j.contains("\"relay_occupancy\":[[1,0,0],[1,0]]"));
    }
}
