//! Single source of truth for every versioned artifact schema in the
//! workspace.
//!
//! Each JSON document we emit (`BENCH_*.json` reports, `BLAME_*.json`
//! profiles, lint findings, model-checker verdicts, run-store
//! manifests, diff documents) carries a `schema_version` field so
//! downstream tooling can evolve safely. Emitters read the constants
//! here, and every run-store manifest records [`ALL`], so there is
//! exactly one place to bump. Whether an experiment's artefact holds
//! is decided by the experiment bin itself: its exit status is its
//! gate.

/// `Report` JSON layout (`BENCH_*.json` bench reports).
///
/// Version 2: the JSONL cycle-event stream gained `channel_void` and
/// `consume` records (post-hoc replay blame now equals live blame).
/// Batch reports written while several lane widths existed also carry
/// per-width `lane_widths` arrays; readers must not require them.
pub const REPORT: u32 = 2;

/// `RuntimeReport` JSON layout (`BENCH_runtime.json`).
///
/// Version 3: the kernel counters dropped `lane_words` and
/// `lane_words_total`, which with one `u64` lane word per op always
/// equalled `ops_retired` and `ops_total`. Versions up to 2 followed
/// [`REPORT`].
pub const RUNTIME: u32 = 3;

/// `BlameReport` JSON layout (`BLAME_*.json` causal stall profiles).
pub const BLAME: u32 = 1;

/// `lip-lint` JSON findings document.
pub const LINT: u32 = 1;

/// `lip_mc` CLI JSON verdict document.
pub const MC: u32 = 1;

/// Run-store manifest (`target/runs/<run_id>/manifest.json`).
pub const MANIFEST: u32 = 1;

/// `lip_diff` comparison document and `BENCH_delta.json`.
pub const DELTA: u32 = 1;

/// Every `(key, version)` pair, in stable order, as recorded in each
/// run-store manifest.
pub const ALL: &[(&str, u32)] = &[
    ("report", REPORT),
    ("runtime", RUNTIME),
    ("blame", BLAME),
    ("lint", LINT),
    ("mc", MC),
    ("manifest", MANIFEST),
    ("delta", DELTA),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_unique() {
        for (i, &(k, _)) in ALL.iter().enumerate() {
            assert!(
                ALL.iter().skip(i + 1).all(|&(other, _)| other != k),
                "duplicate schema key {k}"
            );
        }
    }
}
