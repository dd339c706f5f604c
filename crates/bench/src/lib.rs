//! Shared helpers for the experiment binaries that regenerate every
//! figure and claim of Casu & Macchiarulo (DATE 2004).
//!
//! Each binary in `src/bin/` prints one paper artefact as a plain-text
//! table (see `EXPERIMENTS.md` for the index); the Criterion benches in
//! `benches/` cover the cost claims. These helpers keep the output
//! format uniform.

#![warn(missing_docs)]

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
/// path, so `run_experiments.sh` and CI can pick the JSON up. Exits the
/// binary with a message on I/O failure — an experiment whose artefact
/// cannot be written has failed.
pub fn emit_report(report: &Report) {
    let dir = report_dir();
    match report.write_to(&dir) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write report to {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}

/// Write a `BENCH_*.json` artefact to `path` in the working directory
/// (pretty layout) and print the path. Panics on I/O failure — an
/// experiment whose artefact cannot be written has failed.
pub fn write_bench(path: &str, doc: &Json) {
    std::fs::write(path, doc.to_pretty() + "\n").unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
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
    fn marks() {
        assert_eq!(mark(true), "ok");
        assert_eq!(mark(false), "MISMATCH");
    }
}
