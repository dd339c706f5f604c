//! Event sinks: where the cycle-event stream goes.
//!
//! [`EventSink`] is the one API behind which waveforms and skeleton
//! telemetry unify. Three implementations ship here:
//!
//! * [`RingBufferSink`] — bounded in-memory buffer for tests and
//!   interactive inspection (oldest events drop first);
//! * [`JsonlSink`] — one JSON object per event, newline-delimited, for
//!   offline tooling;
//! * [`TraceSink`] — renders events onto a wires-only
//!   [`lip_kernel::Circuit`] and records them into the kernel's
//!   [`Trace`], so skeleton-engine activity can be viewed in the same
//!   VCD viewer as RTL waveforms.

use std::collections::VecDeque;
use std::io::{self, Write};

use lip_kernel::{Circuit, CircuitBuilder, SignalId, Trace};

use crate::event::{Event, EventKind};
use crate::metrics::Topology;

/// Receives the event stream produced by an
/// [`EventStreamProbe`](crate::probe::EventStreamProbe).
pub trait EventSink {
    /// Receive one event. Events of a cycle arrive before that cycle's
    /// [`EventSink::end_cycle`], in engine order (not sorted).
    fn accept(&mut self, ev: &Event);

    /// The engine finished clocking `cycle`.
    fn end_cycle(&mut self, _cycle: u64) {}

    /// Flush buffered output (meaningful for I/O-backed sinks).
    fn flush(&mut self) {}
}

/// A bounded in-memory event buffer; the oldest events drop first.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    buf: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl RingBufferSink {
    /// Buffer at most `capacity` events (must be non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be non-zero");
        RingBufferSink {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Events currently buffered, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if no events are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Remove and return all buffered events, oldest first.
    pub fn drain(&mut self) -> Vec<Event> {
        self.buf.drain(..).collect()
    }
}

impl EventSink for RingBufferSink {
    fn accept(&mut self, ev: &Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(*ev);
    }
}

/// Writes one JSON object per event, newline-delimited (JSONL).
///
/// I/O errors are latched rather than panicking mid-simulation: the
/// first error stops further writes and is retrievable via
/// [`JsonlSink::take_error`].
///
/// Dropping the sink flushes the writer (best effort, errors ignored):
/// a sink that goes out of scope mid-experiment — early return, panic
/// unwind, forgotten [`JsonlSink::finish`] — must not leave records
/// stranded in a `BufWriter`, where a truncated-but-well-formed prefix
/// would silently pass downstream `jq` schema checks. Call
/// [`JsonlSink::finish`] to *observe* flush errors.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    /// `Some` until `finish` takes the writer; `Drop` flushes what
    /// remains.
    writer: Option<W>,
    written: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Stream records into `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Some(writer),
            written: 0,
            error: None,
        }
    }

    /// Records successfully written so far.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first I/O error hit, if any (clears it).
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// Flush and return the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns the latched write error or the final flush error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut writer = self.writer.take().expect("writer present until finish");
        writer.flush()?;
        Ok(writer)
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.as_mut() {
            let _ = writer.flush();
        }
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn accept(&mut self, ev: &Event) {
        if self.error.is_some() {
            return;
        }
        let writer = self.writer.as_mut().expect("writer present until finish");
        match writeln!(writer, "{}", ev.to_json()) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            let writer = self.writer.as_mut().expect("writer present until finish");
            if let Err(e) = writer.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// Renders lane 0 of the event stream as waveforms in the kernel's VCD
/// [`Trace`].
///
/// The sink elaborates a wires-only [`Circuit`] from the observed
/// [`Topology`] — per channel `chN_stall` / `chN_void_in` /
/// `chN_void_discard` / `chN_void` / `chN_consume` pulse bits, per
/// shell `shellN_fire` pulse bits, per relay an occupancy level
/// `relayN_occ` — and records one trace entry per `end_cycle`. Pulse
/// wires read 1 exactly in the cycles the event occurred; occupancy
/// wires integrate fill/drain events. Other lanes are ignored: a
/// multi-lane run traces its lane-0 "scalar twin".
#[derive(Debug)]
pub struct TraceSink {
    circuit: Circuit,
    trace: Trace,
    values: Vec<u64>,
    /// Indices of pulse wires to clear after each recorded cycle.
    pulses: Vec<SignalId>,
    stall: Vec<SignalId>,
    void_in: Vec<SignalId>,
    void_discard: Vec<SignalId>,
    void: Vec<SignalId>,
    consume: Vec<SignalId>,
    fire: Vec<SignalId>,
    occ: Vec<SignalId>,
}

impl TraceSink {
    /// Build the observer circuit for `topo`.
    ///
    /// # Panics
    ///
    /// Panics if a relay capacity exceeds 255 (the occupancy wires are
    /// 8 bits wide).
    #[must_use]
    pub fn new(topo: &Topology) -> Self {
        let mut b = CircuitBuilder::new();
        let mut pulses = Vec::new();
        let mut pulse = |b: &mut CircuitBuilder, name: String| {
            let sig = b.wire(name, 1, 0);
            pulses.push(sig);
            sig
        };
        let mut stall = Vec::new();
        let mut void_in = Vec::new();
        let mut void_discard = Vec::new();
        let mut void = Vec::new();
        let mut consume = Vec::new();
        for ch in 0..topo.channels {
            stall.push(pulse(&mut b, format!("ch{ch}_stall")));
            void_in.push(pulse(&mut b, format!("ch{ch}_void_in")));
            void_discard.push(pulse(&mut b, format!("ch{ch}_void_discard")));
            void.push(pulse(&mut b, format!("ch{ch}_void")));
            consume.push(pulse(&mut b, format!("ch{ch}_consume")));
        }
        let mut fire = Vec::new();
        for sh in 0..topo.shells {
            fire.push(pulse(&mut b, format!("shell{sh}_fire")));
        }
        let mut occ = Vec::new();
        for (i, &cap) in topo.relay_capacities.iter().enumerate() {
            assert!(cap <= 255, "relay capacity exceeds occupancy wire width");
            occ.push(b.wire(format!("relay{i}_occ"), 8, 0));
        }
        let circuit = b.build().expect("wires-only observer circuit");
        let values = vec![0; circuit.signal_count()];
        TraceSink {
            circuit,
            trace: Trace::new(),
            values,
            pulses,
            stall,
            void_in,
            void_discard,
            void,
            consume,
            fire,
            occ,
        }
    }

    /// The recorded trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The observer circuit (needed to serialise the trace).
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Serialise the recorded waveform as a VCD document.
    #[must_use]
    pub fn to_vcd(&self) -> String {
        self.trace.to_vcd(&self.circuit)
    }
}

impl EventSink for TraceSink {
    fn accept(&mut self, ev: &Event) {
        if ev.lane != 0 {
            return;
        }
        let entity = ev.entity as usize;
        match ev.kind {
            EventKind::Fire => self.values[self.fire[entity].index()] = 1,
            EventKind::Stall => self.values[self.stall[entity].index()] = 1,
            EventKind::VoidIn => self.values[self.void_in[entity].index()] = 1,
            EventKind::VoidDiscard => self.values[self.void_discard[entity].index()] = 1,
            EventKind::ChannelVoid => self.values[self.void[entity].index()] = 1,
            EventKind::Consume => self.values[self.consume[entity].index()] = 1,
            EventKind::RelayFill => {
                let v = &mut self.values[self.occ[entity].index()];
                *v = (*v + 1).min(255);
            }
            EventKind::RelayDrain => {
                let v = &mut self.values[self.occ[entity].index()];
                *v = v.saturating_sub(1);
            }
        }
    }

    fn end_cycle(&mut self, cycle: u64) {
        self.trace
            .record(cycle, &self.circuit, &self.values)
            .expect("observer circuit and values are consistent");
        for &sig in &self.pulses {
            self.values[sig.index()] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, kind: EventKind, entity: u32) -> Event {
        Event::new(cycle, kind, entity, 0)
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut s = RingBufferSink::new(2);
        s.accept(&ev(0, EventKind::Fire, 0));
        s.accept(&ev(1, EventKind::Fire, 0));
        s.accept(&ev(2, EventKind::Fire, 0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 1);
        let drained = s.drain();
        assert_eq!(drained[0].cycle, 1);
        assert_eq!(drained[1].cycle, 2);
        assert!(s.is_empty());
    }

    #[test]
    fn ring_buffer_wraparound_over_many_laps() {
        let mut s = RingBufferSink::new(3);
        for c in 0..10 {
            s.accept(&ev(c, EventKind::Stall, 0));
        }
        // Capacity holds, eviction count is exact, and the survivors
        // are the newest three in oldest-first order.
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 7);
        let cycles: Vec<u64> = s.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
        // Draining empties the buffer but keeps the eviction history;
        // the sink then refills from scratch without further drops.
        let drained = s.drain();
        assert_eq!(drained.len(), 3);
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 7);
        s.accept(&ev(10, EventKind::Fire, 1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.dropped(), 7);
    }

    /// A writer that fails after accepting a fixed number of bytes.
    struct FailAfter {
        remaining: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.remaining < buf.len() {
                return Err(io::Error::other("disk full"));
            }
            self.remaining -= buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_latches_the_first_io_error() {
        let first = ev(0, EventKind::Fire, 0).to_json();
        let mut s = JsonlSink::new(FailAfter {
            remaining: first.len() + 1, // exactly one record + newline
        });
        s.accept(&ev(0, EventKind::Fire, 0));
        s.accept(&ev(1, EventKind::Fire, 0)); // hits the error
        s.accept(&ev(2, EventKind::Fire, 0)); // silently skipped
        assert_eq!(s.written(), 1);
        assert!(s.finish().is_err());
    }

    #[test]
    fn json_string_escaping_of_unusual_netlist_names() {
        // Netlist names flow into JSON documents (telemetry reports,
        // blame reports, Chrome-trace track names) through one shared
        // escaper; quotes, backslashes, control characters and
        // non-ASCII must all survive as valid JSON string content.
        let escape = |s: &str| {
            let mut out = String::new();
            crate::json::write_str(&mut out, s);
            out
        };
        assert_eq!(escape(r#"a"b"#), r#""a\"b""#);
        assert_eq!(escape(r"a\b"), r#""a\\b""#);
        assert_eq!(escape("a\nb\tc"), r#""a\nb\tc""#);
        assert_eq!(escape("\u{1}"), r#""\u0001""#);
        // Non-ASCII passes through unescaped (JSON is UTF-8).
        assert_eq!(escape("fifo·π→Ω"), "\"fifo·π→Ω\"");
        // End to end: a report field with a hostile name round-trips
        // into a syntactically balanced JSON document.
        let mut report = crate::Report::new("escape_test");
        report.push_str("name", "w\\6\"\n·π");
        let json = report.to_json();
        assert!(json.contains(r#""w\\6\"\n·π""#));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    /// A writer whose flushes are visible after the sink is gone.
    struct FlushWitness {
        buffered: Vec<u8>,
        flushed: std::rc::Rc<std::cell::RefCell<Vec<u8>>>,
    }

    impl Write for FlushWitness {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.buffered.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushed.borrow_mut().append(&mut self.buffered);
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_flushes_buffered_records_on_drop() {
        let flushed = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        {
            let mut s = JsonlSink::new(FlushWitness {
                buffered: Vec::new(),
                flushed: std::rc::Rc::clone(&flushed),
            });
            s.accept(&ev(0, EventKind::Fire, 0));
            s.accept(&ev(1, EventKind::Stall, 1));
            // No explicit flush/finish: the sink is simply dropped, as
            // happens on early return or panic unwind.
        }
        let out = String::from_utf8(flushed.borrow().clone()).unwrap();
        assert_eq!(out.lines().count(), 2, "drop must flush buffered records");
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn jsonl_sink_finish_does_not_double_flush() {
        let flushed = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut s = JsonlSink::new(FlushWitness {
            buffered: Vec::new(),
            flushed: std::rc::Rc::clone(&flushed),
        });
        s.accept(&ev(0, EventKind::Fire, 0));
        let writer = s.finish().unwrap();
        drop(writer);
        assert_eq!(flushed.borrow().iter().filter(|&&b| b == b'\n').count(), 1);
    }

    #[test]
    fn jsonl_sink_writes_one_record_per_line() {
        let mut s = JsonlSink::new(Vec::new());
        s.accept(&ev(3, EventKind::VoidIn, 1));
        s.accept(&ev(4, EventKind::Stall, 2));
        s.flush();
        assert_eq!(s.written(), 2);
        let out = String::from_utf8(s.finish().unwrap()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"cycle\":3,\"kind\":\"void_in\",\"entity\":1,\"lane\":0}"
        );
    }

    #[test]
    fn trace_sink_pulses_and_integrates_occupancy() {
        let topo = Topology {
            channels: 1,
            shells: 1,
            relay_capacities: vec![2],
        };
        let mut s = TraceSink::new(&topo);
        // Cycle 0: a fire and a relay fill.
        s.accept(&ev(0, EventKind::Fire, 0));
        s.accept(&ev(0, EventKind::RelayFill, 0));
        s.end_cycle(0);
        // Cycle 1: quiet (pulse must fall, occupancy must hold).
        s.end_cycle(1);
        // Cycle 2: drain.
        s.accept(&ev(2, EventKind::RelayDrain, 0));
        s.end_cycle(2);
        let fire = s.fire[0];
        let occ = s.occ[0];
        assert_eq!(s.trace().value_at(fire, 0), Some(1));
        assert_eq!(s.trace().value_at(fire, 1), Some(0));
        assert_eq!(s.trace().value_at(occ, 0), Some(1));
        assert_eq!(s.trace().value_at(occ, 1), Some(1));
        assert_eq!(s.trace().value_at(occ, 2), Some(0));
        let vcd = s.to_vcd();
        assert!(vcd.contains("shell0_fire"));
        assert!(vcd.contains("relay0_occ"));
    }

    #[test]
    fn trace_sink_pulses_void_and_consume_wires() {
        let topo = Topology {
            channels: 2,
            shells: 1,
            relay_capacities: vec![],
        };
        let mut s = TraceSink::new(&topo);
        s.accept(&ev(0, EventKind::ChannelVoid, 1));
        s.accept(&ev(0, EventKind::Consume, 0));
        s.end_cycle(0);
        s.end_cycle(1);
        assert_eq!(s.trace().value_at(s.void[1], 0), Some(1));
        assert_eq!(s.trace().value_at(s.void[1], 1), Some(0));
        assert_eq!(s.trace().value_at(s.consume[0], 0), Some(1));
        assert_eq!(s.trace().value_at(s.consume[0], 1), Some(0));
        let vcd = s.to_vcd();
        assert!(vcd.contains("ch1_void"));
        assert!(vcd.contains("ch0_consume"));
    }

    #[test]
    fn trace_sink_ignores_other_lanes() {
        let topo = Topology {
            channels: 1,
            shells: 1,
            relay_capacities: vec![],
        };
        let mut s = TraceSink::new(&topo);
        s.accept(&Event::new(0, EventKind::Fire, 0, 3));
        s.end_cycle(0);
        assert_eq!(s.trace().value_at(s.fire[0], 0), Some(0));
    }
}
