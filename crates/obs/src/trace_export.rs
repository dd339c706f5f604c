//! Chrome-trace-format export of a profiled run.
//!
//! Renders the spans retained by a [`CausalProfiler`] as a Trace Event
//! Format JSON document (`{"traceEvents":[...]}`) loadable in
//! `chrome://tracing` and Perfetto, next to the existing VCD and JSONL
//! sinks:
//!
//! * one named track (`tid` = dense entity id) per shell, relay, source
//!   and sink, via `"M"` metadata events;
//! * a complete (`"X"`) *stall* slice per maximal run of consecutive
//!   cycles a shell did not fire;
//! * a complete (`"X"`) *resident* slice per token's stay in a relay
//!   station (fill → drain, FIFO-matched);
//! * an async `"b"`/`"e"` span pair per delivered token, one per
//!   source→sink pair, carrying the token's sequence id — load the
//!   trace and the protocol's end-to-end latency is the visible span
//!   length.
//!
//! Timestamps are protocol cycles written as microseconds (1 cycle =
//! 1 µs), so viewer zoom levels stay sane. Events are [`Json`] values,
//! and all three exporters share one envelope writer: one event per
//! line inside `{"displayTimeUnit":"ms","traceEvents":[…]}`.

use crate::flight::FlightDump;
use crate::json::Json;
use crate::profile::{CausalProfiler, Entity};

/// The shared Chrome-trace document: `events` one per line, compact.
fn trace_document(events: &[Json]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&ev.to_compact());
    }
    if !events.is_empty() {
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// A `"M"` metadata event naming the process (`tid` 0) or thread `tid`.
fn track_name(what: &str, tid: u64, name: String) -> Json {
    Json::obj([
        ("name", what.into()),
        ("ph", "M".into()),
        ("pid", 1u64.into()),
        ("tid", tid.into()),
        ("args", Json::obj([("name", name.into())])),
    ])
}

/// A complete (`"X"`) slice.
fn slice(name: &str, cat: &str, ts: Json, dur: Json, tid: u64) -> Json {
    Json::obj([
        ("name", name.into()),
        ("cat", cat.into()),
        ("ph", "X".into()),
        ("ts", ts),
        ("dur", dur),
        ("pid", 1u64.into()),
        ("tid", tid.into()),
    ])
}

/// Render `profiler`'s retained spans as a Chrome-trace JSON document.
///
/// `end_cycle` closes any still-open stall runs (pass the cycle the run
/// stopped at — e.g. `system.cycle()` — so trailing deadlocked
/// intervals render with their true extent).
#[must_use]
pub fn chrome_trace_json(profiler: &CausalProfiler, end_cycle: u64) -> String {
    let g = profiler.graph();
    // Track metadata: one process, one named thread per entity.
    let mut events = vec![track_name("process_name", 0, "lip".to_owned())];
    for id in 0..g.entity_count() {
        let e = g.entity(id);
        let name = format!("{} {}", e.label(), g.name(e));
        events.push(track_name("thread_name", id as u64, name));
    }

    // Shell stall slices (closed runs, then runs still open at the end
    // of the window).
    let mut stall_slice = |shell: u32, start: u64, end: u64| {
        let tid = g.dense(Entity::Shell(shell)) as u64;
        let dur = end.saturating_sub(start).max(1);
        events.push(slice("stall", "stall", start.into(), dur.into(), tid));
    };
    for span in profiler.stall_spans() {
        stall_slice(span.shell, span.start, span.end);
    }
    for (shell, run) in profiler.open_stall_runs().iter().enumerate() {
        if let Some(start) = run {
            stall_slice(shell as u32, *start, end_cycle.max(*start + 1));
        }
    }

    // Relay residency slices.
    for hop in profiler.hop_spans() {
        let tid = g.dense(Entity::Relay(hop.relay)) as u64;
        let dur = hop.exit.saturating_sub(hop.enter).max(1);
        events.push(slice(
            "resident",
            "relay",
            hop.enter.into(),
            dur.into(),
            tid,
        ));
    }

    // Async token spans: the k-th informative consumption at a sink
    // closes the span the k-th emission of each reaching source opened
    // (order preservation is the protocol's invariant). Ids are unique
    // per (pair, sequence).
    let mut pair = 0u64;
    for i in 0..g.source_count() {
        for j in 0..g.sink_count() {
            if !g.source_reaches_sink(i, j) {
                continue;
            }
            let name = format!(
                "token {}\u{2192}{}",
                g.name(Entity::Source(i as u32)),
                g.name(Entity::Sink(j as u32))
            );
            let tid = g.dense(Entity::Sink(j as u32)) as u64;
            let emits = &profiler.emissions()[i];
            let consumes = &profiler.consumptions()[j];
            for (k, (&em, &co)) in emits.iter().zip(consumes).enumerate() {
                if co < em {
                    continue; // initial in-flight token, not ours
                }
                let id = (pair << 32) | k as u64;
                let async_event = |ph: &str, ts: u64| {
                    vec![
                        ("name", name.as_str().into()),
                        ("cat", "token".into()),
                        ("ph", ph.into()),
                        ("ts", ts.into()),
                        ("pid", 1u64.into()),
                        ("tid", tid.into()),
                        ("id", id.into()),
                    ]
                };
                let mut begin = async_event("b", em);
                begin.push(("args", Json::obj([("seq", k.into())])));
                events.push(Json::obj(begin));
                events.push(Json::obj(async_event("e", co)));
            }
            pair += 1;
        }
    }
    trace_document(&events)
}

/// Render a drained flight-recorder dump (see
/// [`flight`](crate::flight)) as a Chrome-trace JSON document.
///
/// Same Trace Event Format as [`chrome_trace_json`], but over the
/// *engine's* wall clock instead of protocol cycles: one named track
/// per recording thread, one complete (`"X"`) slice per closed span
/// (`name` = span name, `cat` = span category, nesting conveyed by the
/// timestamps), and one counter (`"C"`) event per named counter at the
/// end of the timeline. Timestamps are nanoseconds rendered as
/// fractional microseconds, the format's native unit.
#[must_use]
pub fn runtime_chrome_trace(dump: &FlightDump) -> String {
    let mut events = vec![track_name("process_name", 0, "lip-runtime".to_owned())];
    for tid in 0..dump.threads {
        let name = if tid == 0 { "driver" } else { "worker" };
        events.push(track_name(
            "thread_name",
            tid.into(),
            format!("{name} {tid}"),
        ));
    }
    #[allow(clippy::cast_precision_loss)]
    let us = |ns: u64| Json::Float(ns as f64 / 1000.0);
    for span in &dump.spans {
        let (ts, dur) = (us(span.start_ns), us(span.dur_ns.max(1)));
        events.push(slice(&span.name, span.cat, ts, dur, span.tid.into()));
    }
    for (name, &value) in &dump.counters {
        events.push(Json::obj([
            ("name", name.as_str().into()),
            ("ph", "C".into()),
            ("ts", us(dump.wall_ns)),
            ("pid", 1u64.into()),
            ("tid", 0u64.into()),
            ("args", Json::obj([("value", value.into())])),
        ]));
    }
    trace_document(&events)
}

/// One interval on a [`ScheduleTrack`], in protocol cycles.
///
/// `end` is exclusive; zero-length slices render with `dur` 1 so they
/// stay visible at any zoom level.
#[derive(Debug, Clone)]
pub struct ScheduleSlice {
    /// Slice label shown in the viewer (escaped on render).
    pub name: String,
    /// Trace Event Format category (escaped on render).
    pub cat: String,
    /// First cycle of the interval.
    pub start: u64,
    /// One past the last cycle of the interval.
    pub end: u64,
}

/// A named horizontal track of [`ScheduleSlice`]s — one per node when
/// rendering a model-checker counterexample schedule.
#[derive(Debug, Clone)]
pub struct ScheduleTrack {
    /// Track label shown in the viewer (escaped on render).
    pub name: String,
    /// Slices on this track, any order.
    pub slices: Vec<ScheduleSlice>,
}

/// Render an explicit cycle-by-cycle schedule (e.g. a model-checker
/// counterexample trace) as a Chrome-trace JSON document.
///
/// Same Trace Event Format and conventions as [`chrome_trace_json`]:
/// one process named `process`, one named thread per track (`tid` =
/// track index), a complete (`"X"`) slice per [`ScheduleSlice`], and
/// cycles written as microseconds.
#[must_use]
pub fn schedule_chrome_trace(process: &str, tracks: &[ScheduleTrack]) -> String {
    let mut events = vec![track_name("process_name", 0, process.to_owned())];
    for (tid, track) in tracks.iter().enumerate() {
        events.push(track_name("thread_name", tid as u64, track.name.clone()));
    }
    for (tid, track) in tracks.iter().enumerate() {
        for s in &track.slices {
            let dur = s.end.saturating_sub(s.start).max(1);
            events.push(slice(
                &s.name,
                &s.cat,
                s.start.into(),
                dur.into(),
                tid as u64,
            ));
        }
    }
    trace_document(&events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{FlightRecorder, Recorder};
    use crate::probe::Probe;
    use crate::profile::ChannelGraph;

    fn relay_pipeline() -> ChannelGraph {
        // source -> c0 -> shell -> c1 -> relay -> c2 -> sink
        ChannelGraph {
            producer: vec![Entity::Source(0), Entity::Shell(0), Entity::Relay(0)],
            consumer: vec![Entity::Shell(0), Entity::Relay(0), Entity::Sink(0)],
            source_out: vec![0],
            sink_in: vec![2],
            relay_in: vec![1],
            relay_out: vec![2],
            relay_capacity: vec![2],
            shell_in_off: vec![0, 1],
            shell_in_ch: vec![0],
            shell_out_off: vec![0, 1],
            shell_out_ch: vec![1],
            nodes: vec![1, 2, 0, 3],
            names: vec!["A".into(), "r\"1".into(), "in".into(), "out".into()],
        }
    }

    #[test]
    fn trace_has_tracks_slices_and_token_spans() {
        let mut p = CausalProfiler::new(relay_pipeline());
        // Cycle 0: source emits, relay fills, shell stalls (stopped).
        p.stall(0, 1, 0);
        p.relay_fill(0, 0, 0);
        p.end_cycle(0);
        // Cycle 1: relay drains, sink consumes.
        p.relay_drain(1, 0, 0);
        p.consume(1, 2, 0);
        p.end_cycle(1);
        let json = chrome_trace_json(&p, 2);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\""));
        // One named track per entity (4), plus process_name.
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 5);
        // The quote in the relay name is escaped.
        assert!(json.contains("relay:0 r\\\"1"));
        // The shell's open stall run is closed at end_cycle.
        assert!(json.contains("\"cat\":\"stall\""));
        // Relay residency slice.
        assert!(json.contains("\"cat\":\"resident\"") || json.contains("\"name\":\"resident\""));
        // Exactly one async begin/end pair for the delivered token.
        assert_eq!(json.matches("\"ph\":\"b\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"e\"").count(), 1);
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn empty_profiler_renders_valid_skeleton() {
        let p = CausalProfiler::new(relay_pipeline());
        let json = chrome_trace_json(&p, 0);
        assert!(json.contains("\"traceEvents\""));
        assert_eq!(json.matches("\"ph\":\"b\"").count(), 0);
    }

    #[test]
    fn runtime_trace_renders_spans_threads_and_counters() {
        let rec = FlightRecorder::new();
        {
            let _root = rec.span("sweep", "corpus");
            let _child = rec.span("measure", "fig\"1");
            rec.add("cache.hits", 5);
        }
        let json = runtime_chrome_trace(&rec.drain());
        assert!(json.starts_with("{\"displayTimeUnit\""));
        // process_name + one thread_name.
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 2);
        assert!(json.contains("lip-runtime"));
        // Two complete slices, quote escaped.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("fig\\\"1"));
        // One counter event.
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 1);
        assert!(json.contains("\"value\":5"));
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn schedule_trace_renders_tracks_and_slices() {
        let tracks = vec![
            ScheduleTrack {
                name: "source \"A\"".into(),
                slices: vec![
                    ScheduleSlice {
                        name: "offer".into(),
                        cat: "env".into(),
                        start: 0,
                        end: 3,
                    },
                    ScheduleSlice {
                        name: "void".into(),
                        cat: "env".into(),
                        start: 3,
                        end: 3, // zero-length still renders
                    },
                ],
            },
            ScheduleTrack {
                name: "shell S".into(),
                slices: vec![ScheduleSlice {
                    name: "starved".into(),
                    cat: "stall".into(),
                    start: 1,
                    end: 4,
                }],
            },
        ];
        let json = schedule_chrome_trace("lip-mc", &tracks);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        // process_name + two thread_names, quote escaped.
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 3);
        assert!(json.contains("lip-mc"));
        assert!(json.contains("source \\\"A\\\""));
        // Three complete slices; the empty one got dur 1.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"ts\":3,\"dur\":1"));
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn schedule_trace_with_no_tracks_is_valid() {
        let json = schedule_chrome_trace("empty", &[]);
        assert!(json.contains("\"traceEvents\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 0);
        assert!(!json.contains(",\n]"));
    }
}
