//! Versioned runtime self-observability report: kernel execution
//! counters and the merged wall-clock span rollup, serialized as the
//! `BENCH_runtime.json` artefact.
//!
//! Two data sources meet here:
//!
//! * [`KernelCounters`] — per-opcode / per-stratum ops retired,
//!   lane-words processed and active-lane occupancy, filled by the
//!   stream kernel's counted execution path in `lip-sim`. The layout
//!   (opcode names, stratum labels) is declared by the kernel side so
//!   this crate stays ignorant of `lip-sim` internals; the counters
//!   reconcile *exactly*: total ops retired must equal the op-tape
//!   length times the number of settles executed
//!   ([`KernelCounters::reconciles`]).
//! * [`FlightDump`] — the drained flight-recorder span log and named
//!   counters (see [`flight`](crate::flight)).
//!
//! [`RuntimeReport`] rolls both into one JSON document carrying the
//! workspace-wide [`SCHEMA_VERSION`](crate::SCHEMA_VERSION), so the
//! `run_experiments.sh` / CI `check_report` gates apply unchanged.

use crate::flight::{FlightDump, SpanRecord};
use crate::json::Json;

/// Per-opcode execution counters for one stream-kernel opcode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelOpRow {
    /// Opcode name, declared by the kernel side.
    pub name: &'static str,
    /// Tape ops of this opcode retired across all counted settles.
    pub ops_retired: u64,
    /// Lane words processed (`ops_retired × words-per-lane-value`).
    pub lane_words: u64,
    /// Total set destination lanes after each occupancy-sampled op:
    /// the occupancy numerator (how much of the SWAR width carried
    /// live data).
    pub active_lanes: u64,
    /// Ops whose destination occupancy was popcounted — the occupancy
    /// denominator. The counted path samples occupancy on a subset of
    /// settles (popcounting every destination write is the dominant
    /// enabled-recorder cost), so `occ_ops <= ops_retired`; the
    /// retirement counters stay exact on every settle.
    pub occ_ops: u64,
}

impl KernelOpRow {
    /// Fraction of destination lanes set over the occupancy-sampled
    /// ops, `0.0..=1.0` (`NaN`-free: 0 when nothing sampled).
    #[must_use]
    pub fn occupancy(&self, lanes: u32) -> f64 {
        let denom = self.occ_ops.saturating_mul(u64::from(lanes));
        if denom == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.active_lanes as f64 / denom as f64
            }
        }
    }
}

/// Kernel execution counters: per-opcode and per-stratum ops retired,
/// lane-words processed, active-lane occupancy.
///
/// Constructed with a fixed layout ([`KernelCounters::new`]) by the
/// engine that owns the op tape; the counted execution path indexes
/// rows positionally, so accumulation is branch-light. Counters from
/// several measurements (even over different netlists) merge with
/// [`KernelCounters::merge`]: `expected_ops` accumulates each tape's
/// length per settle, keeping the reconciliation invariant exact
/// across heterogeneous corpora.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelCounters {
    /// SWAR lane count of the engine that filled these counters.
    pub lanes: u32,
    /// Kernel executions (settle passes) counted.
    pub settles: u64,
    /// Sum over counted settles of that settle's op-tape length: what
    /// `total_ops` must equal for the counters to reconcile.
    pub expected_ops: u64,
    /// Per-opcode rows, in the kernel's opcode order.
    pub by_op: Vec<KernelOpRow>,
    /// Per-stratum ops retired, in tape order
    /// (`(label, ops_retired)`).
    pub by_stratum: Vec<(&'static str, u64)>,
}

impl KernelCounters {
    /// An empty counter set for an engine with `lanes` SWAR lanes,
    /// opcodes named `op_names` (in opcode-index order) and settle
    /// strata labelled `strata` (in tape order).
    #[must_use]
    pub fn new(lanes: u32, op_names: &[&'static str], strata: &[&'static str]) -> Self {
        KernelCounters {
            lanes,
            settles: 0,
            expected_ops: 0,
            by_op: op_names
                .iter()
                .map(|&name| KernelOpRow {
                    name,
                    ops_retired: 0,
                    lane_words: 0,
                    active_lanes: 0,
                    occ_ops: 0,
                })
                .collect(),
            by_stratum: strata.iter().map(|&s| (s, 0)).collect(),
        }
    }

    /// Total ops retired, summed over opcodes.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.by_op.iter().map(|r| r.ops_retired).sum()
    }

    /// Total lane words processed, summed over opcodes.
    #[must_use]
    pub fn total_lane_words(&self) -> u64 {
        self.by_op.iter().map(|r| r.lane_words).sum()
    }

    /// Exact accounting check: every tape op of every counted settle
    /// was counted exactly once, both per-opcode and per-stratum.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        let strata: u64 = self.by_stratum.iter().map(|&(_, n)| n).sum();
        self.total_ops() == self.expected_ops && strata == self.expected_ops
    }

    /// Overall active-lane occupancy across all opcodes over the
    /// occupancy-sampled ops, `0.0..=1.0`.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        let sampled: u64 = self.by_op.iter().map(|r| r.occ_ops).sum();
        let denom = sampled.saturating_mul(u64::from(self.lanes));
        if denom == 0 {
            0.0
        } else {
            let active: u64 = self.by_op.iter().map(|r| r.active_lanes).sum();
            #[allow(clippy::cast_precision_loss)]
            {
                active as f64 / denom as f64
            }
        }
    }

    /// Fold `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the layouts (lane count, opcode names, stratum
    /// labels) differ: counters from engines of different widths or
    /// kernel revisions must not be silently summed.
    pub fn merge(&mut self, other: &KernelCounters) {
        assert_eq!(self.lanes, other.lanes, "merging across lane widths");
        assert_eq!(
            self.by_op.len(),
            other.by_op.len(),
            "merging across opcode layouts"
        );
        assert_eq!(
            self.by_stratum.len(),
            other.by_stratum.len(),
            "merging across stratum layouts"
        );
        self.settles += other.settles;
        self.expected_ops += other.expected_ops;
        for (a, b) in self.by_op.iter_mut().zip(&other.by_op) {
            assert_eq!(a.name, b.name, "merging across opcode layouts");
            a.ops_retired += b.ops_retired;
            a.lane_words += b.lane_words;
            a.active_lanes += b.active_lanes;
            a.occ_ops += b.occ_ops;
        }
        for (a, b) in self.by_stratum.iter_mut().zip(&other.by_stratum) {
            assert_eq!(a.0, b.0, "merging across stratum layouts");
            a.1 += b.1;
        }
    }

    fn to_json(&self) -> Json {
        let by_op = self.by_op.iter().map(|r| {
            Json::obj([
                ("name", r.name.into()),
                ("ops_retired", r.ops_retired.into()),
                ("lane_words", r.lane_words.into()),
                ("active_lanes", r.active_lanes.into()),
                ("occ_ops", r.occ_ops.into()),
                ("occupancy", Json::fixed(r.occupancy(self.lanes), 6)),
            ])
        });
        let by_stratum = self
            .by_stratum
            .iter()
            .map(|&(label, n)| Json::obj([("name", label.into()), ("ops_retired", n.into())]));
        Json::obj([
            ("lanes", self.lanes.into()),
            ("settles", self.settles.into()),
            ("expected_ops", self.expected_ops.into()),
            ("ops_total", self.total_ops().into()),
            ("lane_words_total", self.total_lane_words().into()),
            ("occupancy", Json::fixed(self.occupancy(), 6)),
            ("reconciled", self.reconciles().into()),
            ("by_opcode", by_op.collect()),
            ("by_stratum", by_stratum.collect()),
        ])
    }
}

/// One `(category, name)` line of the span rollup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRollup {
    /// Span category.
    pub cat: &'static str,
    /// Span name.
    pub name: String,
    /// Number of spans merged into this line.
    pub count: u64,
    /// Total wall-clock nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

/// Aggregate a span log by `(cat, name)`, longest total first.
#[must_use]
pub fn rollup_spans(spans: &[SpanRecord]) -> Vec<SpanRollup> {
    let mut rows: Vec<SpanRollup> = Vec::new();
    for s in spans {
        if let Some(row) = rows.iter_mut().find(|r| r.cat == s.cat && r.name == s.name) {
            row.count += 1;
            row.total_ns += s.dur_ns;
            row.max_ns = row.max_ns.max(s.dur_ns);
        } else {
            rows.push(SpanRollup {
                cat: s.cat,
                name: s.name.clone(),
                count: 1,
                total_ns: s.dur_ns,
                max_ns: s.dur_ns,
            });
        }
    }
    rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    rows
}

/// Fraction of the root span's wall time covered by its direct
/// children: the "no unexplained time" metric the `exp_runtime_obs`
/// bin gates at ≥ 95%.
///
/// The root is the unique depth-0 span of category `root_cat` (on the
/// root's thread); children are depth-1 spans on the same thread that
/// start inside it. Returns 0 when no root span exists.
#[must_use]
pub fn span_coverage(dump: &FlightDump, root_cat: &str) -> f64 {
    let Some(root) = dump
        .spans
        .iter()
        .find(|s| s.cat == root_cat && s.depth == 0)
    else {
        return 0.0;
    };
    if root.dur_ns == 0 {
        return 0.0;
    }
    let end = root.start_ns + root.dur_ns;
    let covered: u64 = dump
        .spans
        .iter()
        .filter(|s| {
            s.tid == root.tid && s.depth == 1 && s.start_ns >= root.start_ns && s.start_ns < end
        })
        .map(|s| s.dur_ns)
        .sum();
    #[allow(clippy::cast_precision_loss)]
    {
        (covered as f64 / root.dur_ns as f64).min(1.0)
    }
}

/// The versioned runtime self-observability document
/// (`BENCH_runtime.json`).
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    experiment: String,
    dump: FlightDump,
    kernel: Option<KernelCounters>,
    overhead_disabled_pct: Option<f64>,
    overhead_enabled_pct: Option<f64>,
    span_coverage: Option<f64>,
}

impl RuntimeReport {
    /// Wrap a drained flight dump for experiment `experiment`.
    #[must_use]
    pub fn new(experiment: &str, dump: FlightDump) -> Self {
        RuntimeReport {
            experiment: experiment.to_owned(),
            dump,
            kernel: None,
            overhead_disabled_pct: None,
            overhead_enabled_pct: None,
            span_coverage: None,
        }
    }

    /// Attach merged kernel execution counters.
    pub fn set_kernel(&mut self, kernel: KernelCounters) {
        self.kernel = Some(kernel);
    }

    /// Attach the measured recorder overheads (percent vs. the
    /// `NullRecorder` baseline): `disabled` is gate-bearing, `enabled`
    /// informational.
    pub fn set_overhead(&mut self, disabled_pct: f64, enabled_pct: f64) {
        self.overhead_disabled_pct = Some(disabled_pct);
        self.overhead_enabled_pct = Some(enabled_pct);
    }

    /// Attach the computed span-tree coverage (see [`span_coverage`]).
    pub fn set_span_coverage(&mut self, coverage: f64) {
        self.span_coverage = Some(coverage);
    }

    /// The underlying flight dump.
    #[must_use]
    pub fn dump(&self) -> &FlightDump {
        &self.dump
    }

    /// Attached kernel counters, if any.
    #[must_use]
    pub fn kernel(&self) -> Option<&KernelCounters> {
        self.kernel.as_ref()
    }

    /// Serialize as the `BENCH_runtime.json` document. Carries the
    /// workspace [`SCHEMA_VERSION`](crate::SCHEMA_VERSION) so the
    /// shared `check_report` gate applies.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut doc = vec![
            ("schema_version", crate::SCHEMA_VERSION.into()),
            ("experiment", self.experiment.as_str().into()),
            ("wall_ns", self.dump.wall_ns.into()),
            ("threads", self.dump.threads.into()),
            ("dropped_spans", self.dump.dropped.into()),
        ];
        let fixed = |key, v: Option<f64>, places| v.map(|v| (key, Json::fixed(v, places)));
        doc.extend(fixed("span_coverage", self.span_coverage, 4));
        doc.extend(fixed("overhead_pct", self.overhead_disabled_pct, 3));
        doc.extend(fixed("overhead_enabled_pct", self.overhead_enabled_pct, 3));
        let spans = rollup_spans(&self.dump.spans).into_iter().map(|r| {
            Json::obj([
                ("cat", r.cat.into()),
                ("name", r.name.into()),
                ("count", r.count.into()),
                ("total_ns", r.total_ns.into()),
                ("max_ns", r.max_ns.into()),
            ])
        });
        doc.push(("spans", spans.collect()));
        let counters = self
            .dump
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), (*v).into()));
        doc.push(("counters", Json::obj(counters)));
        if let Some(k) = &self.kernel {
            doc.push(("kernel", k.to_json()));
        }
        Json::obj(doc).to_pretty() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{FlightRecorder, Recorder};

    fn sample_counters() -> KernelCounters {
        let mut k = KernelCounters::new(64, &["copy", "or"], &["fwd", "bwd"]);
        k.settles = 2;
        k.expected_ops = 10;
        k.by_op[0].ops_retired = 6;
        k.by_op[0].lane_words = 6;
        k.by_op[0].active_lanes = 6 * 32;
        k.by_op[0].occ_ops = 6;
        k.by_op[1].ops_retired = 4;
        k.by_op[1].lane_words = 4;
        k.by_op[1].active_lanes = 4 * 64;
        k.by_op[1].occ_ops = 4;
        k.by_stratum[0].1 = 7;
        k.by_stratum[1].1 = 3;
        k
    }

    #[test]
    fn counters_reconcile_and_merge() {
        let mut a = sample_counters();
        assert!(a.reconciles());
        assert_eq!(a.total_ops(), 10);
        let occ = a.occupancy();
        assert!((occ - (6.0 * 32.0 + 4.0 * 64.0) / (10.0 * 64.0)).abs() < 1e-12);
        let b = sample_counters();
        a.merge(&b);
        assert!(a.reconciles());
        assert_eq!(a.total_ops(), 20);
        assert_eq!(a.settles, 4);
        assert_eq!(a.by_stratum[0].1, 14);
    }

    #[test]
    fn counters_detect_missing_ops() {
        let mut k = sample_counters();
        k.expected_ops += 1; // one settle's op went uncounted
        assert!(!k.reconciles());
    }

    #[test]
    #[should_panic(expected = "lane widths")]
    fn merge_rejects_mismatched_widths() {
        let mut a = sample_counters();
        let mut b = sample_counters();
        b.lanes = 128;
        a.merge(&b);
    }

    #[test]
    fn rollup_groups_and_sorts() {
        let rec = FlightRecorder::new();
        for _ in 0..3 {
            let _s = rec.span("measure", "fig1");
        }
        {
            let _s = rec.span("compile", "fig1");
        }
        let rows = rollup_spans(&rec.drain().spans);
        assert_eq!(rows.len(), 2);
        let m = rows.iter().find(|r| r.cat == "measure").unwrap();
        assert_eq!(m.count, 3);
        assert!(m.max_ns <= m.total_ns);
    }

    #[test]
    fn coverage_of_fully_spanned_root_is_high() {
        let rec = FlightRecorder::new();
        {
            let _root = rec.span("sweep", "corpus");
            for i in 0..4 {
                let _child = rec.span("measure", &format!("t{i}"));
                // Burn real wall time inside the child span: a
                // constant-foldable sum leaves the children only
                // nanoseconds wide and the coverage ratio at the mercy
                // of per-span bookkeeping noise.
                let t0 = std::time::Instant::now();
                while t0.elapsed() < std::time::Duration::from_micros(200) {
                    std::hint::black_box(0u64);
                }
            }
        }
        let dump = rec.drain();
        let cov = span_coverage(&dump, "sweep");
        assert!(cov > 0.5, "coverage {cov} unexpectedly low");
        assert!(cov <= 1.0);
        // No such root → zero, not a panic.
        assert_eq!(span_coverage(&dump, "nonexistent"), 0.0);
    }

    #[test]
    fn report_json_is_balanced_and_versioned() {
        let rec = FlightRecorder::new();
        {
            let _s = rec.span("measure", "fig1");
            rec.add("cache.hits", 3);
        }
        let mut report = RuntimeReport::new("exp_runtime_obs", rec.drain());
        report.set_kernel(sample_counters());
        report.set_overhead(0.8, 12.0);
        report.set_span_coverage(0.97);
        let doc = crate::json::parse(&report.to_json()).unwrap();
        let int = |v: u32| Some(Json::from(v));
        assert_eq!(
            doc.get("schema_version").cloned(),
            int(crate::SCHEMA_VERSION)
        );
        assert_eq!(doc.get("overhead_pct"), Some(&Json::Float(0.8)));
        assert_eq!(doc.get("overhead_enabled_pct"), Some(&Json::Float(12.0)));
        assert_eq!(doc.get("span_coverage"), Some(&Json::Float(0.97)));
        let kernel = doc.get("kernel").unwrap();
        assert_eq!(
            kernel
                .get("by_opcode")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(kernel.get("reconciled"), Some(&Json::Bool(true)));
        let counters = doc.get("counters").unwrap();
        assert_eq!(counters.get("cache.hits").cloned(), int(3));
    }
}
