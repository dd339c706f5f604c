//! Engine flight recorder: wall-clock self-profiling for the simulator
//! itself.
//!
//! Every observability layer so far watches the *simulated protocol*
//! (probes, events, blame). This module watches the *engine*: where
//! wall time goes between netlist compilation, settle passes,
//! periodicity hashing and throughput-cache lookups.
//!
//! The design mirrors [`Probe`](crate::Probe)/[`NullProbe`](crate::NullProbe):
//!
//! * [`Recorder`] is the monomorphization seam. Hot loops are generic
//!   over `R: Recorder`; instantiated with [`NullRecorder`]
//!   (`ENABLED = false`) every recording branch is dead code and the
//!   loop compiles to exactly what it was before this module existed.
//! * [`FlightRecorder`] is the live implementation: a cloneable handle
//!   around shared per-thread span logs and named counters. Spans are
//!   timestamped against one common origin, so logs from every thread
//!   that records merge into a single coherent timeline.
//!   A recorder can also be constructed *runtime-disabled*
//!   ([`FlightRecorder::disabled`]) — same monomorphization, one
//!   predictable branch per instrumentation site — which is what the
//!   `exp_runtime_obs` overhead gate measures.
//! * A process-global **ambient** recorder ([`install`] /
//!   [`uninstall`] / [`global_span`] / [`global_add`]) lets cold paths
//!   that cannot thread a recorder parameter (settle-program
//!   compilation, throughput-cache lookups) publish spans and
//!   counters. When nothing is installed the cost is one relaxed
//!   atomic load.
//!
//! The recorded data drains into a [`FlightDump`], which
//! [`RuntimeReport`](crate::RuntimeReport) rolls up into the versioned
//! `BENCH_runtime.json` artefact and
//! [`runtime_chrome_trace`](crate::runtime_chrome_trace) renders for
//! `chrome://tracing` / Perfetto.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

/// Closed spans retained per recorder before newcomers are counted as
/// dropped instead of stored. Spans are coarse (per measurement, per
/// compile, per worker), so this bound is generous; it exists so a
/// misbehaving caller cannot grow the log without limit.
pub const MAX_SPANS: usize = 1 << 16;

/// The self-profiling seam hot loops are generic over.
///
/// Like [`Probe`](crate::Probe), the `ENABLED` associated constant
/// lets the [`NullRecorder`] instantiation compile every recording
/// branch away. Implementations with `ENABLED = true` may still be
/// *runtime*-disabled ([`Recorder::active`] returns `false`): that is
/// the configuration whose overhead the `exp_runtime_obs` bin gates.
pub trait Recorder {
    /// `false` only for [`NullRecorder`]: lets generic code skip
    /// recording branches at compile time.
    const ENABLED: bool = true;

    /// `true` when spans and counters are actually being collected.
    /// Generic code should gate optional work on
    /// `R::ENABLED && rec.active()`.
    fn active(&self) -> bool {
        Self::ENABLED
    }

    /// Open a span of category `cat` named `name` on the calling
    /// thread. Must be balanced by [`Recorder::exit`] with the
    /// returned token (or use the RAII [`rec_span`] helper).
    fn enter(&self, cat: &'static str, name: &str) -> SpanToken;

    /// Close the span opened by the matching [`Recorder::enter`].
    fn exit(&self, token: SpanToken);

    /// Add `delta` to the named counter.
    fn add(&self, name: &'static str, delta: u64);
}

/// Opaque handle tying a [`Recorder::exit`] to its
/// [`Recorder::enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanToken {
    tid: u32,
    idx: u32,
    live: bool,
}

impl SpanToken {
    const DEAD: SpanToken = SpanToken {
        tid: 0,
        idx: 0,
        live: false,
    };
}

/// The recorder that records nothing and costs nothing.
///
/// `ENABLED = false`: code generic over [`Recorder`] instantiated with
/// `NullRecorder` monomorphizes to the unrecorded loop, the same way
/// [`NullProbe`](crate::NullProbe) vanishes from unprobed simulation.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn enter(&self, _cat: &'static str, _name: &str) -> SpanToken {
        SpanToken::DEAD
    }

    #[inline(always)]
    fn exit(&self, _token: SpanToken) {}

    #[inline(always)]
    fn add(&self, _name: &'static str, _delta: u64) {}
}

/// One closed span in the flight log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static category (`"measure"`, `"compile"`, `"cache"`, `"sweep"`,
    /// ...).
    pub cat: &'static str,
    /// Instance name (topology, width, ...).
    pub name: String,
    /// Dense thread index (0 = first thread that recorded).
    pub tid: u32,
    /// Nesting depth on its thread at open time (0 = top level).
    pub depth: u16,
    /// Open timestamp, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

#[derive(Debug)]
struct OpenSpan {
    cat: &'static str,
    name: String,
    start_ns: u64,
}

#[derive(Debug)]
struct FlightState {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<&'static str, u64>,
    /// Dense thread-index mapping, in first-recording order.
    threads: Vec<ThreadId>,
    /// Per-thread stacks of currently open spans.
    open: Vec<Vec<OpenSpan>>,
    dropped: u64,
}

impl FlightState {
    fn thread_index(&mut self, id: ThreadId) -> usize {
        if let Some(i) = self.threads.iter().position(|&t| t == id) {
            i
        } else {
            self.threads.push(id);
            self.open.push(Vec::new());
            self.threads.len() - 1
        }
    }

    fn close(&mut self, tid: usize, idx: usize, now_ns: u64) {
        // Spans close LIFO per thread; tolerate a skipped exit by
        // closing everything opened above the token first.
        while self.open[tid].len() > idx {
            let span = self.open[tid].pop().expect("stack non-empty");
            let depth = u16::try_from(self.open[tid].len()).unwrap_or(u16::MAX);
            if self.spans.len() < MAX_SPANS {
                self.spans.push(SpanRecord {
                    cat: span.cat,
                    name: span.name,
                    tid: u32::try_from(tid).expect("dense thread index fits u32"),
                    depth,
                    start_ns: span.start_ns,
                    dur_ns: now_ns.saturating_sub(span.start_ns),
                });
            } else {
                self.dropped += 1;
            }
        }
    }
}

#[derive(Debug)]
struct FlightInner {
    origin: Instant,
    state: Mutex<FlightState>,
}

/// Shared, thread-safe flight recorder.
///
/// Cloning is cheap (an `Arc` bump); all clones feed the same span
/// logs and counters, timestamped against one origin. Spans recorded
/// from different threads interleave into one timeline and are told
/// apart by their dense [`SpanRecord::tid`].
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<FlightInner>,
    enabled: bool,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A recording (enabled) flight recorder.
    #[must_use]
    pub fn new() -> Self {
        FlightRecorder {
            inner: Arc::new(FlightInner {
                origin: Instant::now(),
                state: Mutex::new(FlightState {
                    spans: Vec::new(),
                    counters: BTreeMap::new(),
                    threads: Vec::new(),
                    open: Vec::new(),
                    dropped: 0,
                }),
            }),
            enabled: true,
        }
    }

    /// A runtime-disabled recorder: same monomorphization as an
    /// enabled one, but every instrumentation site reduces to one
    /// predictable branch. This is the configuration the
    /// `exp_runtime_obs` <3% overhead gate times against the
    /// [`NullRecorder`] baseline.
    #[must_use]
    pub fn disabled() -> Self {
        let mut r = FlightRecorder::new();
        r.enabled = false;
        r
    }

    /// Whether this handle records (`disabled()` handles do not).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FlightState> {
        // A panic while holding the lock only loses telemetry; the
        // data itself is append-only counters and closed spans.
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Open a RAII span guard; the span closes when the guard drops.
    #[must_use]
    pub fn span(&self, cat: &'static str, name: &str) -> FlightSpan {
        FlightSpan {
            rec: self.clone(),
            token: self.enter(cat, name),
        }
    }

    /// Run `f` inside a span.
    pub fn scoped<T>(&self, cat: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(cat, name);
        f()
    }

    /// Drain everything recorded so far into a [`FlightDump`],
    /// leaving the recorder empty and reusable. Still-open spans are
    /// closed as of the drain instant.
    pub fn drain(&self) -> FlightDump {
        let now = self.now_ns();
        let mut st = self.lock();
        for tid in 0..st.open.len() {
            st.close(tid, 0, now);
        }
        let spans = std::mem::take(&mut st.spans);
        let counters = st
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_owned(), v))
            .collect();
        st.counters.clear();
        let threads = u32::try_from(st.threads.len()).expect("dense thread count fits u32");
        let dropped = st.dropped;
        st.dropped = 0;
        FlightDump {
            spans,
            counters,
            threads,
            dropped,
            wall_ns: now,
        }
    }
}

impl Recorder for FlightRecorder {
    fn active(&self) -> bool {
        self.enabled
    }

    fn enter(&self, cat: &'static str, name: &str) -> SpanToken {
        if !self.enabled {
            return SpanToken::DEAD;
        }
        let start_ns = self.now_ns();
        let mut st = self.lock();
        let tid = st.thread_index(std::thread::current().id());
        let idx = st.open[tid].len();
        st.open[tid].push(OpenSpan {
            cat,
            name: name.to_owned(),
            start_ns,
        });
        SpanToken {
            tid: u32::try_from(tid).expect("dense thread index fits u32"),
            idx: u32::try_from(idx).expect("open-span depth fits u32"),
            live: true,
        }
    }

    fn exit(&self, token: SpanToken) {
        if !self.enabled || !token.live {
            return;
        }
        let now = self.now_ns();
        let mut st = self.lock();
        let tid = token.tid as usize;
        if tid < st.open.len() {
            st.close(tid, token.idx as usize, now);
        }
    }

    fn add(&self, name: &'static str, delta: u64) {
        if !self.enabled {
            return;
        }
        let mut st = self.lock();
        *st.counters.entry(name).or_insert(0) += delta;
    }
}

/// RAII guard closing a [`FlightRecorder`] span on drop.
#[derive(Debug)]
pub struct FlightSpan {
    rec: FlightRecorder,
    token: SpanToken,
}

impl Drop for FlightSpan {
    fn drop(&mut self) {
        self.rec.exit(self.token);
    }
}

/// RAII guard for spans recorded through the generic [`Recorder`]
/// seam; see [`rec_span`].
#[derive(Debug)]
pub struct RecSpan<'a, R: Recorder> {
    rec: &'a R,
    token: SpanToken,
}

/// Open a span on any [`Recorder`], closed when the guard drops.
///
/// With `R = NullRecorder` this is fully inlined away.
#[must_use]
pub fn rec_span<'a, R: Recorder>(rec: &'a R, cat: &'static str, name: &str) -> RecSpan<'a, R> {
    let token = if R::ENABLED {
        rec.enter(cat, name)
    } else {
        SpanToken::DEAD
    };
    RecSpan { rec, token }
}

impl<R: Recorder> Drop for RecSpan<'_, R> {
    fn drop(&mut self) {
        if R::ENABLED {
            self.rec.exit(self.token);
        }
    }
}

/// Everything one [`FlightRecorder::drain`] produced.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Closed spans, in close order (interleaved across threads).
    pub spans: Vec<SpanRecord>,
    /// Named counters.
    pub counters: BTreeMap<String, u64>,
    /// Number of distinct threads that recorded.
    pub threads: u32,
    /// Spans discarded because the [`MAX_SPANS`] cap was hit.
    pub dropped: u64,
    /// Nanoseconds from the recorder's origin to the drain instant.
    pub wall_ns: u64,
}

impl FlightDump {
    /// Total duration of spans of category `cat` at depth `depth`.
    #[must_use]
    pub fn total_ns(&self, cat: &str, depth: u16) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.cat == cat && s.depth == depth)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// The single longest span of category `cat`, if any.
    #[must_use]
    pub fn longest(&self, cat: &str) -> Option<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.cat == cat)
            .max_by_key(|s| s.dur_ns)
    }
}

// ---------------------------------------------------------------------
// Ambient (process-global) recorder.
// ---------------------------------------------------------------------

static INSTALLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: Mutex<Option<FlightRecorder>> = Mutex::new(None);

fn global() -> Option<FlightRecorder> {
    if !INSTALLED.load(Ordering::Relaxed) {
        return None;
    }
    GLOBAL
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Install `rec` as the process-global ambient recorder, so cold
/// paths that cannot take a recorder parameter (settle-program
/// compilation, `ThroughputCache` lookups) publish into it. Replaces
/// any previously installed recorder.
pub fn install(rec: &FlightRecorder) {
    let mut g = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
    *g = Some(rec.clone());
    INSTALLED.store(true, Ordering::Release);
}

/// Remove and return the ambient recorder, if one was installed.
pub fn uninstall() -> Option<FlightRecorder> {
    let mut g = GLOBAL.lock().unwrap_or_else(PoisonError::into_inner);
    INSTALLED.store(false, Ordering::Release);
    g.take()
}

/// `true` while an ambient recorder is installed.
#[must_use]
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Guard for an ambient span; a no-op (one relaxed atomic load) when
/// no recorder is installed or the installed one is disabled.
#[derive(Debug)]
pub struct GlobalSpan {
    _guard: Option<FlightSpan>,
}

/// Open a span on the ambient recorder, if one is installed.
#[must_use]
pub fn global_span(cat: &'static str, name: &str) -> GlobalSpan {
    GlobalSpan {
        _guard: global().map(|rec| rec.span(cat, name)),
    }
}

/// Add to a counter on the ambient recorder, if one is installed.
pub fn global_add(name: &'static str, delta: u64) {
    if let Some(rec) = global() {
        rec.add(name, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ambient recorder is process-global; tests touching it
    /// serialize on this lock so `cargo test`'s default parallelism
    /// cannot interleave installs.
    static AMBIENT_TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_nest_and_record_depth() {
        let rec = FlightRecorder::new();
        {
            let _outer = rec.span("sweep", "corpus");
            {
                let _inner = rec.span("measure", "fig1");
            }
            {
                let _inner = rec.span("measure", "ring");
            }
        }
        let dump = rec.drain();
        assert_eq!(dump.spans.len(), 3);
        assert_eq!(dump.threads, 1);
        let outer = dump.spans.iter().find(|s| s.cat == "sweep").unwrap();
        assert_eq!(outer.depth, 0);
        for inner in dump.spans.iter().filter(|s| s.cat == "measure") {
            assert_eq!(inner.depth, 1);
            assert!(inner.start_ns >= outer.start_ns);
            assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
        }
        // Drain left the recorder empty and reusable.
        assert!(rec.drain().spans.is_empty());
    }

    #[test]
    fn counters_sum_and_drain() {
        let rec = FlightRecorder::new();
        rec.add("cache.hits", 2);
        rec.add("cache.hits", 3);
        rec.add("cache.misses", 1);
        let dump = rec.drain();
        assert_eq!(dump.counters["cache.hits"], 5);
        assert_eq!(dump.counters["cache.misses"], 1);
        assert!(rec.drain().counters.is_empty());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = FlightRecorder::disabled();
        assert!(!rec.active());
        {
            let _s = rec.span("measure", "fig1");
            rec.add("cache.hits", 7);
        }
        let dump = rec.drain();
        assert!(dump.spans.is_empty());
        assert!(dump.counters.is_empty());
    }

    #[test]
    fn cross_thread_spans_merge_with_dense_tids() {
        let rec = FlightRecorder::new();
        let _root = rec.span("sweep", "threads");
        std::thread::scope(|scope| {
            for w in 0..3 {
                let rec = rec.clone();
                scope.spawn(move || {
                    let _s = rec.span("thread", &format!("worker{w}"));
                    rec.add("thread.items", 1);
                });
            }
        });
        drop(_root);
        let dump = rec.drain();
        assert_eq!(dump.counters["thread.items"], 3);
        let workers: Vec<&SpanRecord> = dump.spans.iter().filter(|s| s.cat == "thread").collect();
        assert_eq!(workers.len(), 3);
        // 4 distinct threads recorded: the driver and three workers.
        assert_eq!(dump.threads, 4);
        // Worker spans are top-of-stack on their own threads.
        for w in workers {
            assert_eq!(w.depth, 0);
            assert!(w.tid > 0);
        }
    }

    #[test]
    fn span_cap_counts_dropped() {
        let rec = FlightRecorder::new();
        for i in 0..(MAX_SPANS + 10) {
            let _s = rec.span("spam", &i.to_string());
        }
        let dump = rec.drain();
        assert_eq!(dump.spans.len(), MAX_SPANS);
        assert_eq!(dump.dropped, 10);
    }

    #[test]
    fn drain_closes_open_spans() {
        let rec = FlightRecorder::new();
        let guard = rec.span("measure", "still-open");
        let dump = rec.drain();
        assert_eq!(dump.spans.len(), 1);
        assert_eq!(dump.spans[0].name, "still-open");
        drop(guard); // late exit after drain is harmless
        assert!(rec.drain().spans.is_empty());
    }

    #[test]
    fn null_recorder_is_inert() {
        let rec = NullRecorder;
        const { assert!(!NullRecorder::ENABLED) };
        assert!(!rec.active());
        let t = rec.enter("x", "y");
        rec.exit(t);
        rec.add("n", 1);
        let _guard = rec_span(&rec, "x", "y");
    }

    #[test]
    fn ambient_recorder_install_and_route() {
        let _l = AMBIENT_TEST_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Nothing installed: free no-ops.
        assert!(!installed());
        {
            let _s = global_span("cache", "miss");
            global_add("cache.hits", 1);
        }
        let rec = FlightRecorder::new();
        install(&rec);
        assert!(installed());
        {
            let _s = global_span("cache", "miss");
            global_add("cache.hits", 2);
        }
        let back = uninstall().expect("was installed");
        assert!(!installed());
        let dump = back.drain();
        assert_eq!(dump.counters["cache.hits"], 2);
        assert_eq!(dump.spans.len(), 1);
        assert_eq!(dump.spans[0].cat, "cache");
    }

    #[test]
    fn rec_span_guards_through_the_trait() {
        let rec = FlightRecorder::new();
        {
            let _g = rec_span(&rec, "measure", "generic");
        }
        let dump = rec.drain();
        assert_eq!(dump.spans.len(), 1);
        assert_eq!(dump.spans[0].cat, "measure");
    }
}
