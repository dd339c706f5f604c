//! Shared helpers for the experiment binaries that regenerate every
//! figure and claim of Casu & Macchiarulo (DATE 2004).
//!
//! Each binary in `src/bin/` prints one paper artefact as a plain-text
//! table (see `EXPERIMENTS.md` for the index); the Criterion benches in
//! `benches/` cover the cost claims. These helpers keep the output
//! format uniform.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

pub use lip_obs::{Json, Report};

/// Render a fixed-width text table: a header row, a rule, then rows.
/// Column widths adapt to content.
#[must_use]
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(out, "{h:>w$}  ");
    }
    out.push('\n');
    for w in &widths {
        let _ = write!(out, "{}  ", "-".repeat(*w));
    }
    out.push('\n');
    for row in rows {
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(out, "{cell:>w$}  ");
        }
        out.push('\n');
    }
    out
}

/// Print an experiment banner: id, paper artefact, and the claim.
pub fn banner(id: &str, artefact: &str, claim: &str) {
    println!("=== {id}: {artefact} ===");
    println!("paper claim: {claim}");
    println!();
}

/// Format a pass/fail marker for claim tables.
#[must_use]
pub fn mark(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "MISMATCH"
    }
}

/// Directory where experiment [`Report`] JSON lands: `$LIP_REPORT_DIR`
/// if set, otherwise `target/reports` relative to the working
/// directory.
#[must_use]
pub fn report_dir() -> PathBuf {
    std::env::var_os("LIP_REPORT_DIR")
        .map_or_else(|| PathBuf::from("target/reports"), PathBuf::from)
}

/// Write `report` into [`report_dir`] (creating it) and print the
/// path. Exits the binary with status 1 on I/O failure — an experiment
/// whose artefact cannot be written has failed — and, after writing,
/// when the report says `"ok": false`: the experiment's claim did not
/// hold. The bin's exit status is its gate; no script re-reads the
/// JSON to decide.
pub fn emit_report(report: &Report) {
    let dir = report_dir();
    match report.write_to(&dir) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write report to {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    if report_failed(report) {
        eprintln!(
            "error: {}: claim failed (\"ok\": false) or report is not valid JSON",
            report.experiment()
        );
        std::process::exit(1);
    }
}

/// `true` when `report`'s `ok` field is `false` (the experiment's claim
/// did not hold) or the report does not parse (its claim cannot be
/// read). A report without an `ok` field makes no claim.
fn report_failed(report: &Report) -> bool {
    !matches!(
        lip_obs::json::parse(&report.to_json()),
        Ok(doc) if doc.get("ok") != Some(&Json::Bool(false))
    )
}

/// Write a `BENCH_*.json` artefact to `path` in the working directory
/// (pretty layout) and print the path. Panics on I/O failure — an
/// experiment whose artefact cannot be written has failed.
pub fn write_bench(path: &str, doc: &Json) {
    std::fs::write(path, doc.to_pretty() + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// Event count per phase (`"ph"`: `M`, `X`, `b`, `e`, …) of a
/// Chrome-trace document; empty when `trace` does not parse or has no
/// `traceEvents` array.
#[must_use]
pub fn trace_phases(trace: &str) -> BTreeMap<String, u64> {
    let mut phases = BTreeMap::new();
    let doc = lip_obs::json::parse(trace).unwrap_or(Json::Null);
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]);
    for ph in events.iter().filter_map(|e| e.get("ph")?.as_str()) {
        *phases.entry(ph.to_owned()).or_insert(0) += 1;
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["a", "long_header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long_header"));
        assert!(lines[1].starts_with("---"));
    }

    #[test]
    fn failed_claims_are_detected() {
        let mut report = Report::new("t");
        assert!(!report_failed(&report), "no ok field, no claim");
        report.push_bool("ok", true);
        assert!(!report_failed(&report));
        let mut failed = Report::new("t");
        failed.push_bool("ok", false);
        assert!(report_failed(&failed));
        let mut nested = Report::new("outer");
        nested.push_bool("t.ok", false);
        assert!(!report_failed(&nested), "a dotted `t.ok` is not `ok`");
        let mut malformed = Report::new("t");
        malformed.push_bool("ok", true).push_raw("broken", "{");
        assert!(report_failed(&malformed), "an unparsable report fails");
    }

    #[test]
    fn trace_phases_count_events() {
        let trace = r#"{"traceEvents":[{"ph":"M"},{"ph":"b"},{"ph":"e"},{"ph":"b"}]}"#;
        let phases = trace_phases(trace);
        assert_eq!(phases["b"], 2);
        assert_eq!(phases["e"], 1);
        assert_eq!(phases["M"], 1);
        assert!(trace_phases("{").is_empty());
        assert!(trace_phases("{}").is_empty());
    }

    /// The bin's exit status is its gate, and `emit_report` is what
    /// turns `"ok": false` into a non-zero exit: every experiment bin
    /// (all but the `lip_top` viewer) must call it, on a report named
    /// after the bin.
    #[test]
    fn every_experiment_bin_emits_its_report() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut bins = 0;
        for entry in std::fs::read_dir(&dir).expect("bin dir") {
            let path = entry.expect("dir entry").path();
            let bin = path.file_stem().expect("bin name").to_string_lossy();
            if bin == "lip_top" {
                continue;
            }
            let src = std::fs::read_to_string(&path).expect("bin source");
            assert!(src.contains("emit_report(&"), "{bin}");
            assert!(src.contains(&format!("Report::new(\"{bin}\")")), "{bin}");
            bins += 1;
        }
        assert!(bins >= 22, "only {bins} experiment bins");
    }

    #[test]
    fn marks() {
        assert_eq!(mark(true), "ok");
        assert_eq!(mark(false), "MISMATCH");
    }
}
