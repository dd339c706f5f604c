//! Structured cycle events: the one vocabulary every engine speaks.
//!
//! The scalar skeleton, the 64-lane batch engine and the
//! RTL-on-kernel path all describe protocol activity with the same
//! eight [`EventKind`]s.
//! An [`Event`] stamps a kind with the cycle it happened in, the entity
//! it happened to (a channel, shell or relay row — see the kind's
//! documentation) and, for the batch engine, the lane it happened in.
//! Events flow through any [`Probe`](crate::probe::Probe) — the JSONL
//! and VCD [`sink`](crate::sink)s among them — so waveforms and skeleton
//! telemetry share one pipeline.

use std::fmt;

/// What happened. The `entity` field of an [`Event`] is interpreted per
/// kind, as documented on each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A shell fired (consumed one token per input, produced one per
    /// output). `entity` = shell row (compiled table order).
    Fire,
    /// A channel's settled stop bit was asserted this cycle — someone
    /// upstream must hold. `entity` = channel id.
    Stall,
    /// A sink consumed a void token — the observable throughput loss of
    /// the paper's Fig. 1 ("the output utters an invalid datum every 5
    /// cycles"). `entity` = the sink's input channel id.
    VoidIn,
    /// The refined protocol variant discarded a stop that arrived
    /// against a void output register (the paper's §refinement: stalling
    /// a void costs nothing, so the stop is not propagated).
    /// `entity` = channel id whose stop was suppressed.
    VoidDiscard,
    /// A relay station's occupancy increased. `entity` = relay row
    /// (full relays first, then half, then FIFO, each in table order).
    RelayFill,
    /// A relay station's occupancy decreased. `entity` = relay row.
    RelayDrain,
    /// A channel's settled valid bit was low this cycle — it carried a
    /// void token. `entity` = channel id. Streamed since schema
    /// version 2 so post-hoc replay blame matches live blame.
    ChannelVoid,
    /// A sink consumed an informative token. `entity` = the sink's
    /// input channel id. Streamed since schema version 2 (the
    /// throughput numerator, previously counter-only).
    Consume,
}

impl EventKind {
    /// Stable lowercase name used in JSONL output and VCD signal names.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Fire => "fire",
            EventKind::Stall => "stall",
            EventKind::VoidIn => "void_in",
            EventKind::VoidDiscard => "void_discard",
            EventKind::RelayFill => "relay_fill",
            EventKind::RelayDrain => "relay_drain",
            EventKind::ChannelVoid => "channel_void",
            EventKind::Consume => "consume",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One cycle event: at `cycle`, `kind` happened to `entity` in `lane`.
///
/// Scalar engines always report lane 0; the batch engine reports the
/// lane the event occurred in (`0..lanes`, up to 1024 with the widest
/// lane word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Cycle the event occurred in (pre-clock-edge numbering — the same
    /// cycle the engines' `cycle()` reported while settling it).
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
    /// Which channel / shell / relay it happened to (see [`EventKind`]).
    pub entity: u32,
    /// Which batch lane it happened in (0 for scalar engines, `0..64`
    /// for the batch engine).
    pub lane: u16,
}

impl Event {
    /// Construct an event.
    #[must_use]
    pub fn new(cycle: u64, kind: EventKind, entity: u32, lane: u16) -> Self {
        Event {
            cycle,
            kind,
            entity,
            lane,
        }
    }

    /// The event as one JSON object (no trailing newline) — the JSONL
    /// record format of [`JsonlSink`](crate::sink::JsonlSink).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cycle\":{},\"kind\":\"{}\",\"entity\":{},\"lane\":{}}}",
            self.cycle,
            self.kind.name(),
            self.entity,
            self.lane
        )
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "@{} {} entity={} lane={}",
            self.cycle, self.kind, self.entity, self.lane
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_record_is_stable() {
        let ev = Event::new(17, EventKind::VoidIn, 3, 5);
        assert_eq!(
            ev.to_json(),
            "{\"cycle\":17,\"kind\":\"void_in\",\"entity\":3,\"lane\":5}"
        );
    }

    #[test]
    fn kind_names_are_unique() {
        let kinds = [
            EventKind::Fire,
            EventKind::Stall,
            EventKind::VoidIn,
            EventKind::VoidDiscard,
            EventKind::RelayFill,
            EventKind::RelayDrain,
            EventKind::ChannelVoid,
            EventKind::Consume,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }
}
