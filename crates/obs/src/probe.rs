//! The [`Probe`] trait: the zero-cost instrumentation seam of every
//! engine.
//!
//! Engines take a `&mut P: Probe` in their `*_probed` entry points and
//! invoke its hooks from the settle/clock loop, always guarded by
//! `P::ENABLED`. With [`NullProbe`] every hook is an empty `#[inline]`
//! function and `ENABLED` is `false`, so monomorphisation deletes both
//! the calls *and* the work of computing their arguments — the unprobed
//! fast path compiles to exactly the code it was before observability
//! existed. That is the layer's zero-overhead guarantee; the
//! lane-equivalence and batch-sweep suites run both ways to hold it.
//!
//! The `*_mask` hooks carry one full lane word as a slice of `u64`
//! sub-words: bit `l` of `masks[w]` means "this happened in lane
//! `64·w + l`". A 64-lane engine passes a single-element slice; the
//! widest (1024-lane) engine passes sixteen words. Probes that only
//! count override them with popcounts, so counting any width costs
//! O(words) word ops.
//!
//! Probes shipped in this crate:
//!
//! * [`MetricsRegistry`](crate::metrics::MetricsRegistry) — counters and
//!   occupancy histograms, overriding the `*_mask` hooks with popcounts
//!   so lane-word counting costs O(words);
//! * [`JsonlSink`](crate::sink::JsonlSink) and
//!   [`TraceSink`](crate::sink::TraceSink) — record every event as JSON
//!   lines or as a VCD waveform.
//!
//! Compose them with [`Tee`].

use crate::event::{Event, EventKind};

/// Call `f(lane)` for every set bit of the single word `mask` (bit `l`
/// = lane `l`).
#[inline]
pub fn for_each_lane(mut mask: u64, mut f: impl FnMut(u16)) {
    while mask != 0 {
        let lane = mask.trailing_zeros() as u16;
        f(lane);
        mask &= mask - 1;
    }
}

/// Call `f(lane)` for every set bit of a multi-word lane mask: bit `l`
/// of `masks[w]` is lane `64·w + l`.
#[inline]
pub fn for_each_lane_word(masks: &[u64], mut f: impl FnMut(u16)) {
    for (w, &mask) in masks.iter().enumerate() {
        let base = (w * 64) as u16;
        for_each_lane(mask, |l| f(base + l));
    }
}

/// Total set lanes of a multi-word lane mask.
#[inline]
#[must_use]
pub fn mask_count(masks: &[u64]) -> u64 {
    masks.iter().map(|m| u64::from(m.count_ones())).sum()
}

/// `true` if `lane` is set in a multi-word lane mask.
#[inline]
#[must_use]
pub fn mask_lane(masks: &[u64], lane: u16) -> bool {
    let w = usize::from(lane) / 64;
    w < masks.len() && masks[w] >> (usize::from(lane) % 64) & 1 == 1
}

/// Observation hooks invoked by the engines' probed settle/clock loops.
///
/// Every hook has a default implementation, so a probe only overrides
/// what it cares about. The scalar hooks take a `lane` (0 for scalar
/// engines); the `*_mask` variants are the batch engine's word-wide
/// form — bit `l` of `masks[w]` means "this happened in lane
/// `64·w + l`" — and default to decomposing the words into per-lane
/// scalar calls.
///
/// `cycle` is always the cycle being settled/clocked (the value the
/// engine's `cycle()` returned before the step).
pub trait Probe {
    /// `false` only for [`NullProbe`]-like probes: engines guard every
    /// hook invocation (and the computation of its arguments) with this
    /// constant, so disabled probes cost literally nothing.
    const ENABLED: bool = true;

    /// Receive one structured event. The event-mapped hooks below
    /// funnel here by default, so a sink-style probe only implements
    /// this.
    fn event(&mut self, ev: Event);

    /// The engine finished clocking `cycle` (called once per step, after
    /// every event of that cycle).
    #[inline]
    fn end_cycle(&mut self, _cycle: u64) {}

    /// Shell `shell` fired. Maps to [`EventKind::Fire`].
    #[inline]
    fn fire(&mut self, cycle: u64, shell: u32, lane: u16) {
        self.event(Event::new(cycle, EventKind::Fire, shell, lane));
    }

    /// Channel `ch`'s settled stop bit was asserted. Maps to
    /// [`EventKind::Stall`].
    #[inline]
    fn stall(&mut self, cycle: u64, ch: u32, lane: u16) {
        self.event(Event::new(cycle, EventKind::Stall, ch, lane));
    }

    /// Channel `ch` carried a void this cycle (settled valid bit low).
    /// Maps to [`EventKind::ChannelVoid`] since schema version 2, so a
    /// recorded stream replays into the same blame a live attachment
    /// produces.
    #[inline]
    fn channel_void(&mut self, cycle: u64, ch: u32, lane: u16) {
        self.event(Event::new(cycle, EventKind::ChannelVoid, ch, lane));
    }

    /// A sink consumed an informative token from its input channel
    /// `ch` (the throughput numerator). Maps to [`EventKind::Consume`]
    /// since schema version 2.
    #[inline]
    fn consume(&mut self, cycle: u64, ch: u32, lane: u16) {
        self.event(Event::new(cycle, EventKind::Consume, ch, lane));
    }

    /// A sink consumed a void token from channel `ch`. Maps to
    /// [`EventKind::VoidIn`].
    #[inline]
    fn void_in(&mut self, cycle: u64, ch: u32, lane: u16) {
        self.event(Event::new(cycle, EventKind::VoidIn, ch, lane));
    }

    /// The refined variant suppressed a stop against a void on channel
    /// `ch`. Maps to [`EventKind::VoidDiscard`].
    #[inline]
    fn void_discard(&mut self, cycle: u64, ch: u32, lane: u16) {
        self.event(Event::new(cycle, EventKind::VoidDiscard, ch, lane));
    }

    /// Relay row `relay` gained a token. Maps to
    /// [`EventKind::RelayFill`].
    #[inline]
    fn relay_fill(&mut self, cycle: u64, relay: u32, lane: u16) {
        self.event(Event::new(cycle, EventKind::RelayFill, relay, lane));
    }

    /// Relay row `relay` released a token. Maps to
    /// [`EventKind::RelayDrain`].
    #[inline]
    fn relay_drain(&mut self, cycle: u64, relay: u32, lane: u16) {
        self.event(Event::new(cycle, EventKind::RelayDrain, relay, lane));
    }

    /// Word-wide [`Probe::fire`].
    #[inline]
    fn fire_mask(&mut self, cycle: u64, shell: u32, masks: &[u64]) {
        for_each_lane_word(masks, |l| self.fire(cycle, shell, l));
    }

    /// Word-wide [`Probe::stall`].
    #[inline]
    fn stall_mask(&mut self, cycle: u64, ch: u32, masks: &[u64]) {
        for_each_lane_word(masks, |l| self.stall(cycle, ch, l));
    }

    /// Word-wide [`Probe::channel_void`].
    #[inline]
    fn channel_void_mask(&mut self, cycle: u64, ch: u32, masks: &[u64]) {
        for_each_lane_word(masks, |l| self.channel_void(cycle, ch, l));
    }

    /// Word-wide [`Probe::consume`].
    #[inline]
    fn consume_mask(&mut self, cycle: u64, ch: u32, masks: &[u64]) {
        for_each_lane_word(masks, |l| self.consume(cycle, ch, l));
    }

    /// Word-wide [`Probe::void_in`].
    #[inline]
    fn void_in_mask(&mut self, cycle: u64, ch: u32, masks: &[u64]) {
        for_each_lane_word(masks, |l| self.void_in(cycle, ch, l));
    }

    /// Word-wide [`Probe::void_discard`].
    #[inline]
    fn void_discard_mask(&mut self, cycle: u64, ch: u32, masks: &[u64]) {
        for_each_lane_word(masks, |l| self.void_discard(cycle, ch, l));
    }

    /// Word-wide [`Probe::relay_fill`].
    #[inline]
    fn relay_fill_mask(&mut self, cycle: u64, relay: u32, masks: &[u64]) {
        for_each_lane_word(masks, |l| self.relay_fill(cycle, relay, l));
    }

    /// Word-wide [`Probe::relay_drain`].
    #[inline]
    fn relay_drain_mask(&mut self, cycle: u64, relay: u32, masks: &[u64]) {
        for_each_lane_word(masks, |l| self.relay_drain(cycle, relay, l));
    }
}

/// The probe that observes nothing, at no cost.
///
/// `ENABLED = false` lets the engines skip the hook guard entirely, so
/// `step()` (which delegates to `step_probed(&mut NullProbe)`)
/// monomorphizes to the uninstrumented loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ENABLED: bool = false;

    #[inline]
    fn event(&mut self, _ev: Event) {}
}

impl<P: Probe + ?Sized> Probe for &mut P {
    const ENABLED: bool = P::ENABLED;

    #[inline]
    fn event(&mut self, ev: Event) {
        (**self).event(ev);
    }

    #[inline]
    fn end_cycle(&mut self, cycle: u64) {
        (**self).end_cycle(cycle);
    }

    #[inline]
    fn fire_mask(&mut self, cycle: u64, shell: u32, masks: &[u64]) {
        (**self).fire_mask(cycle, shell, masks);
    }

    #[inline]
    fn stall_mask(&mut self, cycle: u64, ch: u32, masks: &[u64]) {
        (**self).stall_mask(cycle, ch, masks);
    }

    #[inline]
    fn channel_void_mask(&mut self, cycle: u64, ch: u32, masks: &[u64]) {
        (**self).channel_void_mask(cycle, ch, masks);
    }

    #[inline]
    fn consume_mask(&mut self, cycle: u64, ch: u32, masks: &[u64]) {
        (**self).consume_mask(cycle, ch, masks);
    }

    #[inline]
    fn void_in_mask(&mut self, cycle: u64, ch: u32, masks: &[u64]) {
        (**self).void_in_mask(cycle, ch, masks);
    }

    #[inline]
    fn void_discard_mask(&mut self, cycle: u64, ch: u32, masks: &[u64]) {
        (**self).void_discard_mask(cycle, ch, masks);
    }

    #[inline]
    fn relay_fill_mask(&mut self, cycle: u64, relay: u32, masks: &[u64]) {
        (**self).relay_fill_mask(cycle, relay, masks);
    }

    #[inline]
    fn relay_drain_mask(&mut self, cycle: u64, relay: u32, masks: &[u64]) {
        (**self).relay_drain_mask(cycle, relay, masks);
    }

    #[inline]
    fn fire(&mut self, cycle: u64, shell: u32, lane: u16) {
        (**self).fire(cycle, shell, lane);
    }

    #[inline]
    fn stall(&mut self, cycle: u64, ch: u32, lane: u16) {
        (**self).stall(cycle, ch, lane);
    }

    #[inline]
    fn channel_void(&mut self, cycle: u64, ch: u32, lane: u16) {
        (**self).channel_void(cycle, ch, lane);
    }

    #[inline]
    fn consume(&mut self, cycle: u64, ch: u32, lane: u16) {
        (**self).consume(cycle, ch, lane);
    }

    #[inline]
    fn void_in(&mut self, cycle: u64, ch: u32, lane: u16) {
        (**self).void_in(cycle, ch, lane);
    }

    #[inline]
    fn void_discard(&mut self, cycle: u64, ch: u32, lane: u16) {
        (**self).void_discard(cycle, ch, lane);
    }

    #[inline]
    fn relay_fill(&mut self, cycle: u64, relay: u32, lane: u16) {
        (**self).relay_fill(cycle, relay, lane);
    }

    #[inline]
    fn relay_drain(&mut self, cycle: u64, relay: u32, lane: u16) {
        (**self).relay_drain(cycle, relay, lane);
    }
}

/// Run two probes side by side (e.g. counters *and* an event stream).
///
/// Enabled iff either side is; hooks fan out to both.
#[derive(Debug, Clone, Default)]
pub struct Tee<A, B>(pub A, pub B);

macro_rules! tee_scalar {
    ($name:ident, $($arg:ident : $ty:ty),*) => {
        #[inline]
        fn $name(&mut self, $($arg: $ty),*) {
            self.0.$name($($arg),*);
            self.1.$name($($arg),*);
        }
    };
}

impl<A: Probe, B: Probe> Probe for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn event(&mut self, ev: Event) {
        self.0.event(ev);
        self.1.event(ev);
    }

    tee_scalar!(end_cycle, cycle: u64);
    tee_scalar!(fire, cycle: u64, shell: u32, lane: u16);
    tee_scalar!(stall, cycle: u64, ch: u32, lane: u16);
    tee_scalar!(channel_void, cycle: u64, ch: u32, lane: u16);
    tee_scalar!(consume, cycle: u64, ch: u32, lane: u16);
    tee_scalar!(void_in, cycle: u64, ch: u32, lane: u16);
    tee_scalar!(void_discard, cycle: u64, ch: u32, lane: u16);
    tee_scalar!(relay_fill, cycle: u64, relay: u32, lane: u16);
    tee_scalar!(relay_drain, cycle: u64, relay: u32, lane: u16);
    tee_scalar!(fire_mask, cycle: u64, shell: u32, masks: &[u64]);
    tee_scalar!(stall_mask, cycle: u64, ch: u32, masks: &[u64]);
    tee_scalar!(channel_void_mask, cycle: u64, ch: u32, masks: &[u64]);
    tee_scalar!(consume_mask, cycle: u64, ch: u32, masks: &[u64]);
    tee_scalar!(void_in_mask, cycle: u64, ch: u32, masks: &[u64]);
    tee_scalar!(void_discard_mask, cycle: u64, ch: u32, masks: &[u64]);
    tee_scalar!(relay_fill_mask, cycle: u64, relay: u32, masks: &[u64]);
    tee_scalar!(relay_drain_mask, cycle: u64, relay: u32, masks: &[u64]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct CountingProbe {
        events: Vec<Event>,
        cycles_ended: u64,
    }

    impl Probe for CountingProbe {
        fn event(&mut self, ev: Event) {
            self.events.push(ev);
        }

        fn end_cycle(&mut self, _cycle: u64) {
            self.cycles_ended += 1;
        }
    }

    #[test]
    fn mask_hooks_decompose_into_lanes() {
        let mut p = CountingProbe::default();
        p.fire_mask(9, 2, &[0b1010_0001]);
        let lanes: Vec<u16> = p.events.iter().map(|e| e.lane).collect();
        assert_eq!(lanes, vec![0, 5, 7]);
        assert!(p
            .events
            .iter()
            .all(|e| e.kind == EventKind::Fire && e.entity == 2 && e.cycle == 9));
    }

    #[test]
    fn multi_word_masks_offset_lanes_by_word() {
        let mut p = CountingProbe::default();
        p.stall_mask(3, 7, &[0b1, 0b100, 0, 1 << 63]);
        let lanes: Vec<u16> = p.events.iter().map(|e| e.lane).collect();
        assert_eq!(lanes, vec![0, 66, 255]);
        assert_eq!(mask_count(&[0b1, 0b100, 0, 1 << 63]), 3);
        assert!(mask_lane(&[0b1, 0b100], 66));
        assert!(!mask_lane(&[0b1, 0b100], 67));
        assert!(!mask_lane(&[0b1], 1000), "out of range is unset");
    }

    #[test]
    fn channel_void_and_consume_default_to_events() {
        // Schema v2: the previously counter-only hooks now reach the
        // event stream, so replaying a recorded stream reproduces
        // void-side blame.
        let mut p = CountingProbe::default();
        p.channel_void(4, 2, 1);
        p.consume(4, 3, 0);
        p.consume_mask(5, 3, &[0b10]);
        assert_eq!(
            p.events,
            vec![
                Event::new(4, EventKind::ChannelVoid, 2, 1),
                Event::new(4, EventKind::Consume, 3, 0),
                Event::new(5, EventKind::Consume, 3, 1),
            ]
        );
    }

    #[test]
    fn null_probe_is_disabled() {
        const {
            assert!(!NullProbe::ENABLED);
            assert!(CountingProbe::ENABLED);
            // &mut P inherits the flag.
            assert!(!<&mut NullProbe as Probe>::ENABLED);
        }
    }

    #[test]
    fn tee_fans_out() {
        let mut tee = Tee(CountingProbe::default(), CountingProbe::default());
        tee.stall(1, 4, 0);
        tee.end_cycle(1);
        assert_eq!(tee.0.events.len(), 1);
        assert_eq!(tee.1.events.len(), 1);
        assert_eq!(tee.0.cycles_ended, 1);
        const { assert!(<Tee<CountingProbe, NullProbe> as Probe>::ENABLED) }
    }
}
