//! The per-layer ledger of a traced run: where each op's wall time went.
//!
//! Every op runs under a root span ([`OP`]); the benchmark opens one
//! span per layer call inside it, and the crates' own ambient spans
//! (settle-program compiles and patches, cache misses, the measurement
//! loop) nest below those. A span's self time is its duration minus its
//! direct children's, and it is charged to the layer the span belongs
//! to, so a compile inside `lint` counts as `sim.compile`, not `lint`.

use std::collections::BTreeMap;

use lip_obs::{FlightDump, SpanRecord};

use crate::ops::OP;
use crate::stats::{loglog_slope, median};
use crate::Metric;

/// The layers, in pipeline order.
pub const LAYERS: [&str; 9] = [
    "graph.parse",
    "graph.validate",
    "lint",
    "sim.compile",
    "mc",
    "sim.measure",
    "emit",
    "sim.patch",
    "sim.cache",
];

const ROOT: usize = LAYERS.len();
const OTHER: usize = ROOT + 1;
const SLOTS: usize = OTHER + 1;

/// Designs below this size are left out of every slope fit: their op
/// times are dominated by fixed costs, not by size.
const SLOPE_MIN_RELAYS: u64 = 64;

/// Spans kept for the Chrome trace export.
const TRACE_SPANS: usize = 20_000;

fn layer(name: &str) -> usize {
    LAYERS
        .iter()
        .position(|l| *l == name)
        .expect("a listed layer")
}

/// The ledger slot a span is charged to.
fn slot(span: &SpanRecord) -> usize {
    match span.cat {
        OP => ROOT,
        "compile" if span.name.starts_with("patch_") => layer("sim.patch"),
        "compile" => layer("sim.compile"),
        "measure" => layer("sim.measure"),
        "cache" => layer("sim.cache"),
        cat => LAYERS.iter().position(|l| *l == cat).unwrap_or(OTHER),
    }
}

/// Per-slot self time and call count of one op's spans. A call is a
/// span not nested in another span of the same slot, so the benchmark's
/// `sim.compile` span and the compile span inside it count once.
fn attribute(spans: &[SpanRecord]) -> ([u64; SLOTS], [u64; SLOTS]) {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].tid, spans[i].start_ns, spans[i].depth));
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    let mut calls = [0u64; SLOTS];
    let mut open: Vec<Option<usize>> = Vec::new();
    let mut tid = None;
    for &i in &order {
        let s = &spans[i];
        if tid != Some(s.tid) {
            open.clear();
            tid = Some(s.tid);
        }
        let depth = usize::from(s.depth);
        open.resize(depth, None);
        let parent = depth.checked_sub(1).and_then(|d| open[d]);
        if let Some(p) = parent {
            self_ns[p] = self_ns[p].saturating_sub(s.dur_ns);
        }
        if parent.map(|p| slot(&spans[p])) != Some(slot(s)) {
            calls[slot(s)] += 1;
        }
        open.push(Some(i));
    }
    let mut by_slot = [0u64; SLOTS];
    for (s, ns) in spans.iter().zip(self_ns) {
        by_slot[slot(s)] += ns;
    }
    (by_slot, calls)
}

/// Log-log slope of the median time per op against design size, fitted
/// within families (each with its own constant) over designs of at
/// least [`SLOPE_MIN_RELAYS`] relays; 0 when no family has two sizes.
/// `sizes` holds each design's `(family, relays)`, `times` its op times.
#[must_use]
pub fn size_slope(sizes: &[(String, u64)], times: &[Vec<f64>]) -> f64 {
    let mut groups: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
    for ((family, relays), ms) in sizes.iter().zip(times) {
        if *relays >= SLOPE_MIN_RELAYS && !ms.is_empty() {
            #[allow(clippy::cast_precision_loss)]
            groups
                .entry(family)
                .or_default()
                .push((*relays as f64, median(ms)));
        }
    }
    loglog_slope(&groups.into_values().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// What an op reported about its own work, for the per-layer rates.
#[derive(Debug, Default, Clone, Copy)]
pub struct Facts {
    /// Bytes of `.lid` text parsed.
    pub parsed_bytes: u64,
    /// `(states, peak arena bytes)` of an explicit `check_declared`.
    pub mc: Option<(u64, u64)>,
    /// The periodic measurement, if the op ran one.
    pub measure: Option<MeasureFacts>,
    /// Bytes emitted.
    pub emit_bytes: Option<u64>,
    /// Lint diagnostics reported.
    pub diags: Option<u64>,
    /// The op was one netlist edit.
    pub edit: bool,
}

/// Work done by one periodic measurement.
#[derive(Debug, Default, Clone, Copy)]
pub struct MeasureFacts {
    /// Lanes × simulated cycles.
    pub lane_cycles: u64,
    /// Σ over lanes of transient + period: the lane-cycles the answer
    /// needed.
    pub useful_lane_cycles: u64,
    /// Wall time of the raw settle kernel over the same cycles and lanes.
    pub kernel_ns: u64,
}

/// Accumulated spans and facts of a traced phase.
#[derive(Debug)]
pub struct Ledger {
    ops: u64,
    op_ns: u64,
    self_ns: [u64; SLOTS],
    calls: [u64; SLOTS],
    /// Per design: `(family, relays)`.
    sizes: Vec<(String, u64)>,
    /// Per design: each op's self time per slot.
    per_design: Vec<Vec<[u64; SLOTS]>>,
    compile_relays: u64,
    cache_miss_ns: u64,
    counters: BTreeMap<String, u64>,
    totals: Totals,
    trace: FlightDump,
}

#[derive(Debug, Default)]
struct Totals {
    parsed_bytes: u64,
    mc_calls: u64,
    mc_states: u64,
    mc_arena_max: u64,
    measures: u64,
    lane_cycles: u64,
    useful_lane_cycles: u64,
    kernel_ns: u64,
    emits: u64,
    emit_bytes: u64,
    lints: u64,
    diags: u64,
    edits: u64,
}

impl Ledger {
    /// An empty ledger over designs of the given `(family, relays)`.
    #[must_use]
    pub fn new(sizes: &[(String, u64)]) -> Self {
        Ledger {
            ops: 0,
            op_ns: 0,
            self_ns: [0; SLOTS],
            calls: [0; SLOTS],
            sizes: sizes.to_vec(),
            per_design: sizes.iter().map(|_| Vec::new()).collect(),
            compile_relays: 0,
            cache_miss_ns: 0,
            counters: BTreeMap::new(),
            totals: Totals::default(),
            trace: FlightDump {
                spans: Vec::new(),
                counters: BTreeMap::new(),
                threads: 0,
                dropped: 0,
                wall_ns: 0,
            },
        }
    }

    /// Charge one op: its drained spans and counters, and its facts.
    pub fn record(&mut self, design: usize, relays: u64, dump: FlightDump, facts: Facts) {
        let (self_ns, calls) = attribute(&dump.spans);
        self.ops += 1;
        self.op_ns += dump
            .spans
            .iter()
            .filter(|s| s.cat == OP)
            .map(|s| s.dur_ns)
            .sum::<u64>();
        for i in 0..SLOTS {
            self.self_ns[i] += self_ns[i];
            self.calls[i] += calls[i];
        }
        self.per_design[design].push(self_ns);
        self.compile_relays += calls[layer("sim.compile")] * relays;
        self.cache_miss_ns += dump
            .spans
            .iter()
            .filter(|s| s.cat == "cache")
            .map(|s| s.dur_ns)
            .sum::<u64>();
        for (k, v) in &dump.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }

        let t = &mut self.totals;
        t.parsed_bytes += facts.parsed_bytes;
        if let Some((states, arena)) = facts.mc {
            t.mc_calls += 1;
            t.mc_states += states;
            t.mc_arena_max = t.mc_arena_max.max(arena);
        }
        if let Some(m) = facts.measure {
            t.measures += 1;
            t.lane_cycles += m.lane_cycles;
            t.useful_lane_cycles += m.useful_lane_cycles;
            t.kernel_ns += m.kernel_ns;
        }
        if let Some(bytes) = facts.emit_bytes {
            t.emits += 1;
            t.emit_bytes += bytes;
        }
        if let Some(diags) = facts.diags {
            t.lints += 1;
            t.diags += diags;
        }
        t.edits += u64::from(facts.edit);

        let room = TRACE_SPANS.saturating_sub(self.trace.spans.len());
        self.trace.threads = self.trace.threads.max(dump.threads);
        self.trace.wall_ns = dump.wall_ns;
        self.trace.spans.extend(dump.spans.into_iter().take(room));
        for (k, v) in dump.counters {
            *self.trace.counters.entry(k).or_default() += v;
        }
    }

    /// Share of op wall time covered by layer spans.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        per(self.op_ns - self.self_ns[ROOT].min(self.op_ns), self.op_ns)
    }

    /// The first spans recorded, with every counter, for the Chrome
    /// trace export.
    #[must_use]
    pub fn trace(&self) -> &FlightDump {
        &self.trace
    }

    /// `(layer, share of op wall, self ms per op, calls per op)`, largest
    /// share first: where the time goes.
    #[must_use]
    pub fn ranked(&self) -> Vec<(&'static str, f64, f64, f64)> {
        let mut rows: Vec<_> = LAYERS
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                (
                    l,
                    per(self.self_ns[i], self.op_ns),
                    per(self.self_ns[i], self.ops) / 1e6,
                    per(self.calls[i], self.ops),
                )
            })
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// [`size_slope`] of one layer's self time per op.
    fn slope(&self, name: &str) -> f64 {
        let i = layer(name);
        #[allow(clippy::cast_precision_loss)]
        let times: Vec<Vec<f64>> = self
            .per_design
            .iter()
            .map(|ops| ops.iter().map(|o| o[i] as f64 / 1e6).collect())
            .collect();
        size_slope(&self.sizes, &times)
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    /// `overhead_pct` compares untraced with traced ops per second;
    /// `scaling_slope` is the untraced end-to-end fit.
    #[must_use]
    pub fn metrics(&self, overhead_pct: f64, scaling_slope: f64) -> Vec<Metric> {
        let t = &self.totals;
        let ns = |l: &str| self.self_ns[layer(l)];
        let secs = |l: &str| {
            #[allow(clippy::cast_precision_loss)]
            let s = ns(l) as f64 / 1e9;
            s
        };
        let rate = |n: u64, l: &str| {
            #[allow(clippy::cast_precision_loss)]
            let n = n as f64;
            if secs(l) > 0.0 {
                n / secs(l)
            } else {
                0.0
            }
        };
        let counter = |k: &str| self.counters.get(k).copied().unwrap_or(0);
        let (hits, misses) = (counter("cache.hits"), counter("cache.misses"));
        let (detector, step) = (
            counter("measure.sampled_detector_ns"),
            counter("measure.sampled_step_ns"),
        );

        let mut out = Vec::new();
        for (i, l) in LAYERS.iter().enumerate() {
            out.push(Metric::new(
                format!("{l}.self_ms"),
                per(self.self_ns[i], self.ops) / 1e6,
                "ms",
            ));
            out.push(Metric::new(
                format!("{l}.share"),
                per(self.self_ns[i], self.op_ns),
                "ratio",
            ));
            out.push(Metric::new(
                format!("{l}.calls"),
                per(self.calls[i], self.ops),
                "count",
            ));
        }
        let measure_lcps = rate(t.lane_cycles, "sim.measure");
        #[allow(clippy::cast_precision_loss)]
        let kernel_lcps = if t.kernel_ns > 0 {
            t.lane_cycles as f64 / (t.kernel_ns as f64 / 1e9)
        } else {
            0.0
        };
        let rows: [(&str, f64, &'static str); 23] = [
            ("sim.measure.lane_cycles_per_sec", measure_lcps, "1/s"),
            (
                "sim.measure.detector_share",
                per(detector, detector + step),
                "ratio",
            ),
            (
                "sim.measure.kernel_ratio",
                if measure_lcps > 0.0 {
                    kernel_lcps / measure_lcps
                } else {
                    0.0
                },
                "ratio",
            ),
            (
                "sim.measure.useful_lane_frac",
                per(t.useful_lane_cycles, t.lane_cycles),
                "ratio",
            ),
            (
                "sim.measure.cycles",
                per(t.lane_cycles, t.measures * crate::inputs::LANES as u64),
                "count",
            ),
            ("sim.measure.slope", self.slope("sim.measure"), "1"),
            ("mc.states", per(t.mc_states, t.mc_calls), "count"),
            ("mc.states_per_sec", rate(t.mc_states, "mc"), "1/s"),
            (
                "mc.peak_arena_bytes",
                {
                    #[allow(clippy::cast_precision_loss)]
                    let b = t.mc_arena_max as f64;
                    b
                },
                "B",
            ),
            ("mc.slope", self.slope("mc"), "1"),
            ("lint.diags", per(t.diags, t.lints), "count"),
            ("lint.slope", self.slope("lint"), "1"),
            (
                "graph.parse.mb_per_sec",
                rate(t.parsed_bytes, "graph.parse") / 1e6,
                "MB/s",
            ),
            ("graph.parse.slope", self.slope("graph.parse"), "1"),
            ("sim.patch.ns_per_edit", per(ns("sim.patch"), t.edits), "ns"),
            ("sim.cache.hit_rate", per(hits, hits + misses), "ratio"),
            (
                "sim.cache.miss_ms",
                per(self.cache_miss_ns, misses) / 1e6,
                "ms",
            ),
            (
                "sim.compile.ns_per_relay",
                per(ns("sim.compile"), self.compile_relays),
                "ns",
            ),
            ("sim.compile.slope", self.slope("sim.compile"), "1"),
            ("emit.bytes", per(t.emit_bytes, t.emits), "B"),
            ("trace.span_coverage", self.coverage(), "ratio"),
            ("trace.overhead_pct", overhead_pct, "%"),
            ("scaling_slope", scaling_slope, "1"),
        ];
        out.extend(
            rows.into_iter()
                .map(|(n, v, u)| Metric::new(n.to_owned(), v, u)),
        );
        out
    }
}

/// `n / d`, or 0 when `d` is 0.
fn per(n: u64, d: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &'static str, name: &str, depth: u16, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            cat,
            name: name.to_owned(),
            tid: 0,
            depth,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_charges_ambient_spans() {
        let spans = vec![
            span("sim.compile", "x", 1, 12, 30),
            span("compile", "settle_program", 2, 14, 25),
            span("lint", "x", 1, 50, 40),
            span("compile", "settle_program", 2, 60, 10),
            span(OP, "x", 0, 10, 100),
        ];
        let (self_ns, calls) = attribute(&spans);
        assert_eq!(self_ns[layer("sim.compile")], 5 + 25 + 10);
        assert_eq!(self_ns[layer("lint")], 30);
        assert_eq!(self_ns[ROOT], 100 - 30 - 40);
        // The ambient compile inside the benchmark's compile span is the
        // same call; the one inside lint is a call of its own.
        assert_eq!(calls[layer("sim.compile")], 2);
        assert_eq!(calls[layer("lint")], 1);

        let mut ledger = Ledger::new(&[("chain".to_owned(), 100)]);
        ledger.record(
            0,
            100,
            FlightDump {
                spans,
                counters: BTreeMap::new(),
                threads: 1,
                dropped: 0,
                wall_ns: 200,
            },
            Facts::default(),
        );
        assert!((ledger.coverage() - 0.7).abs() < 1e-12);
        assert_eq!(ledger.ranked()[0].0, "sim.compile");
    }
}
