//! Derived telemetry: the versioned `Report` JSON every `exp_*` bin
//! emits, and live sweep progress.
//!
//! [`Report`] packages counters and telemetry as a small versioned JSON
//! document (`schema_version` = [`SCHEMA_VERSION`]) written next to the
//! raw bench numbers, so downstream tooling can evolve the format
//! safely.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::{write_f64, write_str};

/// Version of the `Report` JSON layout (and of the `schema_version`
/// field in `BENCH_skeleton.json`). Re-exported from the central
/// [`crate::schema`] registry; bump it there.
pub const SCHEMA_VERSION: u32 = crate::schema::REPORT;

/// A versioned telemetry document: `schema_version`, the experiment
/// name, and an ordered set of fields.
///
/// Fields keep insertion order; values are JSON fragments written by
/// the typed `push_*` helpers through [`crate::json`], or by
/// [`Report::push_raw`] for nested objects such as
/// [`MetricsRegistry::to_json`](crate::metrics::MetricsRegistry::to_json).
/// The document streams straight from those fragments, with no
/// intermediate [`Json`](crate::json::Json) tree.
#[derive(Debug, Clone)]
pub struct Report {
    experiment: String,
    fields: Vec<(String, String)>,
}

impl Report {
    /// A report for the experiment `name` (also the output file stem).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Report {
            experiment: name.into(),
            fields: Vec::new(),
        }
    }

    /// The experiment name.
    #[must_use]
    pub fn experiment(&self) -> &str {
        &self.experiment
    }

    /// Append a field holding a pre-serialised JSON fragment.
    pub fn push_raw(&mut self, key: impl Into<String>, json: impl Into<String>) -> &mut Self {
        self.fields.push((key.into(), json.into()));
        self
    }

    /// Append an integer field.
    pub fn push_int(&mut self, key: impl Into<String>, value: u64) -> &mut Self {
        self.push_raw(key, value.to_string())
    }

    /// Append a float field (see [`write_f64`]: an integral value keeps
    /// its `.0`, a non-finite one is `null`).
    pub fn push_f64(&mut self, key: impl Into<String>, value: f64) -> &mut Self {
        let mut json = String::new();
        write_f64(&mut json, value);
        self.push_raw(key, json)
    }

    /// Append a string field (escaped).
    pub fn push_str(&mut self, key: impl Into<String>, value: &str) -> &mut Self {
        let mut json = String::new();
        write_str(&mut json, value);
        self.push_raw(key, json)
    }

    /// Append a boolean field.
    pub fn push_bool(&mut self, key: impl Into<String>, value: bool) -> &mut Self {
        self.push_raw(key, value.to_string())
    }

    /// Append an exact ratio as `{"num":…,"den":…,"value":…}`.
    pub fn push_ratio(&mut self, key: impl Into<String>, num: u64, den: u64) -> &mut Self {
        let mut json = format!("{{\"num\":{num},\"den\":{den},\"value\":");
        #[allow(clippy::cast_precision_loss)]
        write_f64(&mut json, num as f64 / den as f64);
        json.push('}');
        self.push_raw(key, json)
    }

    /// Serialise the report (pretty-printed, one field per line).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        out.push_str("  \"experiment\": ");
        write_str(&mut out, &self.experiment);
        for (key, json) in &self.fields {
            out.push_str(",\n  ");
            write_str(&mut out, key);
            out.push_str(": ");
            out.push_str(json);
        }
        out.push_str("\n}\n");
        out
    }

    /// Write the report to `dir/<experiment>.json`, creating `dir` as
    /// needed, and return the path written.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write errors.
    pub fn write_to(&self, dir: impl AsRef<Path>) -> io::Result<PathBuf> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.experiment));
        fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// One live progress sample from a long-running sweep or measurement.
///
/// The identity of a sample is `(experiment, topology)`; sinks that
/// retain state (like [`PromFileProgress`]) keep the latest sample per
/// identity so a dashboard shows every in-flight unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// Publishing experiment (e.g. `exp_batch_sweep`).
    pub experiment: String,
    /// Work unit within the experiment (topology name, width tag…).
    pub topology: String,
    /// Total SWAR lanes being measured.
    pub lanes: u64,
    /// Lanes whose exact periodicity has been found so far.
    pub lanes_converged: u64,
    /// Simulated cycles executed so far for this unit.
    pub cycles_executed: u64,
    /// Simulated cycles per wall-clock second (smoothed over the run).
    pub cycles_per_sec: f64,
    /// Throughput-cache hits observed by the publisher.
    pub cache_hits: u64,
    /// Throughput-cache misses observed by the publisher.
    pub cache_misses: u64,
    /// Wall-clock nanoseconds since the publisher started this unit.
    pub elapsed_ns: u64,
}

impl ProgressSnapshot {
    /// Render as Prometheus text-exposition lines (no trailing
    /// `# EOF`; callers concatenate snapshots into one document).
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        let mut labels = String::from("{experiment=");
        write_str(&mut labels, &self.experiment);
        labels.push_str(",topology=");
        write_str(&mut labels, &self.topology);
        labels.push('}');
        let mut out = String::new();
        let _ = writeln!(out, "lip_lanes{labels} {}", self.lanes);
        let _ = writeln!(out, "lip_lanes_converged{labels} {}", self.lanes_converged);
        let _ = writeln!(out, "lip_cycles_executed{labels} {}", self.cycles_executed);
        let _ = writeln!(out, "lip_cycles_per_sec{labels} {}", self.cycles_per_sec);
        let _ = writeln!(out, "lip_cache_hits{labels} {}", self.cache_hits);
        let _ = writeln!(out, "lip_cache_misses{labels} {}", self.cache_misses);
        #[allow(clippy::cast_precision_loss)]
        let secs = self.elapsed_ns as f64 / 1e9;
        let _ = writeln!(out, "lip_elapsed_seconds{labels} {secs}");
        out
    }
}

/// Where long-running sweeps publish [`ProgressSnapshot`]s.
///
/// Mirrors [`Probe`](crate::Probe): `ENABLED = false` on
/// [`NullProgress`] lets generic measurement loops compile publishing
/// away entirely.
pub trait ProgressSink {
    /// `false` only for [`NullProgress`].
    const ENABLED: bool = true;

    /// Receive one snapshot. Publishers send at a coarse cadence
    /// (every ~1024 simulated cycles and at completion), so sinks may
    /// do I/O here.
    fn publish(&mut self, snap: &ProgressSnapshot);
}

/// The progress sink that publishes nowhere at zero cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProgress;

impl ProgressSink for NullProgress {
    const ENABLED: bool = false;

    #[inline(always)]
    fn publish(&mut self, _snap: &ProgressSnapshot) {}
}

/// Retains every published snapshot in memory (tests, dashboards).
#[derive(Debug, Clone, Default)]
pub struct MemoryProgress {
    /// All snapshots, in publish order.
    pub snaps: Vec<ProgressSnapshot>,
}

impl MemoryProgress {
    /// An empty in-memory sink.
    #[must_use]
    pub fn new() -> Self {
        MemoryProgress::default()
    }

    /// The latest snapshot for `topology`, if any.
    #[must_use]
    pub fn latest(&self, topology: &str) -> Option<&ProgressSnapshot> {
        self.snaps.iter().rev().find(|s| s.topology == topology)
    }
}

impl ProgressSink for MemoryProgress {
    fn publish(&mut self, snap: &ProgressSnapshot) {
        self.snaps.push(snap.clone());
    }
}

/// Publishes the latest snapshot per `(experiment, topology)` as a
/// Prometheus-style text file, rewritten atomically (temp file +
/// rename) on every publish so readers — the `lip-top` dashboard, a
/// future sweep service scraper — never observe a torn document.
#[derive(Debug)]
pub struct PromFileProgress {
    path: PathBuf,
    latest: Vec<ProgressSnapshot>,
    error: Option<io::Error>,
}

impl PromFileProgress {
    /// Expose progress at `path` (parent directories are created on
    /// first publish).
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        PromFileProgress {
            path: path.into(),
            latest: Vec::new(),
            error: None,
        }
    }

    /// The first I/O error hit, if any (publishing continues in
    /// memory; the file simply stops updating).
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }

    /// The full text-exposition document for the current state.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "# lip runtime progress (Prometheus text exposition)\n\
             # one block per (experiment, topology); latest sample wins\n",
        );
        for snap in &self.latest {
            out.push_str(&snap.prometheus_text());
        }
        out
    }

    fn write_atomic(&mut self) {
        let text = self.to_text();
        let tmp = self.path.with_extension("prom.tmp");
        let res = self
            .path
            .parent()
            .map_or(Ok(()), fs::create_dir_all)
            .and_then(|()| fs::write(&tmp, &text))
            .and_then(|()| fs::rename(&tmp, &self.path));
        if let Err(e) = res {
            if self.error.is_none() {
                self.error = Some(e);
            }
        }
    }
}

impl ProgressSink for PromFileProgress {
    fn publish(&mut self, snap: &ProgressSnapshot) {
        if let Some(slot) = self
            .latest
            .iter_mut()
            .find(|s| s.experiment == snap.experiment && s.topology == snap.topology)
        {
            *slot = snap.clone();
        } else {
            self.latest.push(snap.clone());
        }
        self.write_atomic();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serialises_versioned_fields_in_order() {
        let mut r = Report::new("unit_test");
        r.push_int("cycles", 100)
            .push_ratio("throughput", 4, 5)
            .push_str("note", "a \"quoted\" line")
            .push_bool("ok", true)
            .push_raw("nested", "{\"x\":1}");
        let j = r.to_json();
        assert!(j.starts_with("{\n  \"schema_version\": 2,\n  \"experiment\": \"unit_test\""));
        assert!(j.contains("\"throughput\": {\"num\":4,\"den\":5,\"value\":0.8}"));
        assert!(j.contains("\"note\": \"a \\\"quoted\\\" line\""));
        let cy = j.find("\"cycles\"").unwrap();
        let ok = j.find("\"ok\"").unwrap();
        assert!(cy < ok, "insertion order preserved");
    }

    #[test]
    fn float_fields_read_back_as_floats() {
        use crate::json::{parse, Json};
        let mut r = Report::new("floats");
        r.push_f64("ratio", 1.0)
            .push_f64("nan", f64::NAN)
            .push_ratio("full_rate", 1, 1)
            .push_ratio("empty", 0, 0);
        let j = r.to_json();
        assert!(j.contains("\"ratio\": 1.0"), "{j}");
        let doc = parse(&j).unwrap();
        assert_eq!(doc.get("ratio"), Some(&Json::Float(1.0)));
        assert_eq!(doc.get("nan"), Some(&Json::Null));
        let full = doc.get("full_rate").unwrap();
        assert_eq!(full.get("num"), Some(&Json::Int(1)));
        assert_eq!(full.get("value"), Some(&Json::Float(1.0)));
        assert_eq!(doc.get("empty").unwrap().get("value"), Some(&Json::Null));
    }

    #[test]
    fn report_write_creates_directory_and_file() {
        let dir = std::env::temp_dir().join("lip_obs_report_test");
        let _ = fs::remove_dir_all(&dir);
        let mut r = Report::new("smoke");
        r.push_int("n", 1);
        let path = r.write_to(&dir).unwrap();
        let body = fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"schema_version\": 2"));
        let _ = fs::remove_dir_all(&dir);
    }

    fn snap(topology: &str, converged: u64) -> ProgressSnapshot {
        ProgressSnapshot {
            experiment: "exp_test".to_owned(),
            topology: topology.to_owned(),
            lanes: 64,
            lanes_converged: converged,
            cycles_executed: 1024,
            cycles_per_sec: 5e8,
            cache_hits: 3,
            cache_misses: 1,
            elapsed_ns: 2_000_000_000,
        }
    }

    #[test]
    fn progress_snapshot_renders_prometheus_lines() {
        let text = snap("fig1", 60).prometheus_text();
        assert!(text.contains("lip_lanes{experiment=\"exp_test\",topology=\"fig1\"} 64"));
        assert!(text.contains("lip_lanes_converged{experiment=\"exp_test\",topology=\"fig1\"} 60"));
        assert!(text.contains("lip_elapsed_seconds{experiment=\"exp_test\",topology=\"fig1\"} 2"));
        // Every line is `name{labels} value`.
        for line in text.lines() {
            assert!(line.starts_with("lip_"), "unexpected line {line:?}");
            assert_eq!(line.matches(' ').count(), 1);
        }
    }

    #[test]
    fn memory_progress_retains_in_order() {
        let mut m = MemoryProgress::new();
        m.publish(&snap("fig1", 10));
        m.publish(&snap("fig1", 40));
        m.publish(&snap("ring", 64));
        assert_eq!(m.snaps.len(), 3);
        assert_eq!(m.latest("fig1").unwrap().lanes_converged, 40);
        assert!(m.latest("absent").is_none());
    }

    #[test]
    fn prom_file_progress_keeps_latest_per_unit_and_writes_atomically() {
        let dir = std::env::temp_dir().join("lip_obs_prom_test");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("progress.prom");
        let mut p = PromFileProgress::new(&path);
        p.publish(&snap("fig1", 10));
        p.publish(&snap("ring", 5));
        p.publish(&snap("fig1", 64)); // replaces the fig1 row
        assert!(p.take_error().is_none());
        let body = fs::read_to_string(&path).unwrap();
        assert!(body.contains("lip_lanes_converged{experiment=\"exp_test\",topology=\"fig1\"} 64"));
        assert!(!body.contains("lip_lanes_converged{experiment=\"exp_test\",topology=\"fig1\"} 10"));
        assert!(body.contains("topology=\"ring\"}"));
        // The temp file was renamed away, not left behind.
        assert!(!path.with_extension("prom.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn null_progress_is_inert() {
        const { assert!(!NullProgress::ENABLED) };
        NullProgress.publish(&snap("fig1", 0));
    }
}
