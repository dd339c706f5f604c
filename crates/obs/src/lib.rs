//! Unified protocol observability for latency-insensitive designs:
//! zero-cost probes, structured cycle events, counters and throughput
//! telemetry.
//!
//! The paper's results are quantitative — closed-form steady-state
//! throughput and bounded transients — but checking them requires
//! *seeing* protocol activity: where stop bits originate, where void
//! tokens enter and get discarded, how relay-station occupancy evolves.
//! This crate is the one observability seam shared by every engine in
//! the workspace (the scalar skeleton interpreter, the 64-lane batch
//! engine, and the RTL-on-kernel path):
//!
//! * [`Probe`] — the instrumentation trait engines call from their
//!   settle/clock loops. [`NullProbe`] has `ENABLED = false` and
//!   monomorphizes to nothing: unprobed simulation compiles to exactly
//!   the code it was before this crate existed. Mask hooks carry the
//!   batch engine's 64-lane word as one `u64` (bit `l` = lane `l`).
//! * [`Event`] / [`EventKind`] — the eight-kind structured event
//!   vocabulary (`fire`, `stall`, `void_in`, `void_discard`,
//!   `relay_fill`, `relay_drain`, `channel_void`, `consume`),
//!   recorded by two probes: the newline-delimited-JSON [`JsonlSink`]
//!   and the [`TraceSink`] rendering onto the kernel's VCD
//!   [`Trace`](lip_kernel::Trace).
//! * [`MetricsRegistry`] — per-channel / per-shell / per-relay counters
//!   and occupancy histograms over a declared [`Topology`].
//! * [`Report`] — the versioned JSON document ([`SCHEMA_VERSION`])
//!   every `exp_*` bench bin emits.
//! * [`CausalProfiler`] / [`BlameReport`] — causal stall profiling:
//!   classifies every stalled shell-cycle, charges lost cycles to their
//!   originating channel endpoint over a [`ChannelGraph`], and traces
//!   tokens end-to-end (sequence latency, relay residency, occupancy).
//!   [`chrome_trace_json`] renders the retained spans for
//!   `chrome://tracing` / Perfetto.
//! * [`Recorder`] / [`FlightRecorder`] — the engine flight recorder:
//!   wall-clock self-profiling of the *simulator* (compile, settle,
//!   periodicity detection, cache lookups) with the same
//!   compile-away [`NullRecorder`] idiom, rolled up with
//!   [`KernelCounters`] into the versioned [`RuntimeReport`]
//!   (`BENCH_runtime.json`) and rendered by [`runtime_chrome_trace`].
//! * [`ProgressSink`] / [`ProgressSnapshot`] — live sweep telemetry
//!   (lanes converged, cycles/s, cache hit rate) published by
//!   long-running measurement loops, exposed as a Prometheus-style
//!   text file by [`PromFileProgress`] for the `lip-top` dashboard.
//!
//! * [`json`] — the workspace's one JSON module: the [`Json`] value,
//!   its [`parse`](json::parse)r, the string escaper and float policy,
//!   and the compact and pretty layouts. Every artefact writer and
//!   reader in the workspace goes through it, so an integral float
//!   reads back as a float (`2.0`) and hostile input (nesting deeper
//!   than [`json::MAX_DEPTH`], lone surrogates) yields an error or
//!   U+FFFD, never a panic.
//!
//! Layering: this crate depends only on `lip-kernel` (for the VCD
//! trace). The engines in `lip-sim` depend on it; analytic targets from
//! `lip-analysis` are passed in as plain `(num, den)` ratios by the
//! caller, keeping the dependency graph acyclic.

#![warn(missing_docs)]

pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod probe;
pub mod profile;
pub mod runtime_report;
pub mod schema;
pub mod sink;
pub mod telemetry;
pub mod trace_export;

pub use event::{Event, EventKind};
pub use flight::{
    rec_span, FlightDump, FlightRecorder, FlightSpan, NullRecorder, RecSpan, Recorder, SpanRecord,
    SpanToken,
};
pub use json::Json;
pub use metrics::{MetricsRegistry, Topology};
pub use probe::{for_each_lane, NullProbe, Probe, Tee};
pub use profile::{
    BlameEdge, BlameEntry, BlameReport, CausalProfiler, ChannelGraph, Entity, Histogram,
    PairLatency, StallCause, BLAME_SCHEMA_VERSION,
};
pub use runtime_report::{
    rollup_spans, span_coverage, KernelCounters, KernelOpRow, RuntimeReport, SpanRollup,
};
pub use sink::{JsonlSink, TraceSink};
pub use telemetry::{
    MemoryProgress, NullProgress, ProgressSink, ProgressSnapshot, PromFileProgress, Report,
    SCHEMA_VERSION,
};
pub use trace_export::{
    chrome_trace_json, runtime_chrome_trace, schedule_chrome_trace, ScheduleSlice, ScheduleTrack,
};
