//! Cross-run differential observability for latency-insensitive
//! protocol experiments.
//!
//! The paper's results are all *comparative* — throughput before and
//! after relay insertion, queue sizing, topology edits — yet a single
//! sweep only ever describes a single run: every `BENCH_*.json` is
//! overwritten blind and perf gates are hand-tuned absolute
//! thresholds. This crate closes that gap with three layers:
//!
//! * [`store`] — a content-addressed **run-artifact store**
//!   (`target/runs/<run_id>/`) capturing a sweep's `BENCH_*.json`
//!   reports, `BlameReport`s, kernel counters and proof matrices under
//!   a provenance manifest (git SHA, lane width, `LIP_JOBS`, host
//!   fingerprint, schema versions). The run id digests the artifact
//!   contents, so identical sweeps commit idempotently.
//! * [`diff`] — a **differential profiler** that compares two runs
//!   structurally: exact comparison for deterministic leaves (proved
//!   `Ratio`s change ⇒ hard error, no tolerance), per-channel blame
//!   deltas that *attribute* a throughput move to the channel whose
//!   stop/void blame grew ("4/5 → 3/5 because blame moved to w6"),
//!   and per-opcode/per-stratum kernel-counter deltas.
//! * [`sentinel`] — a **statistical regression sentinel** for
//!   wall-clock metrics: noise bands estimated from stored run
//!   history (`median ± k·MAD` with a jitter floor) replace the
//!   ad-hoc absolute thresholds that either flap or go stale.
//!
//! [`baseline`] extracts the machine-independent exact subset of an
//! artifact into committed snapshots, re-checked by CI. Artifacts are
//! read with [`lip_obs::json`], the module that also writes them. The
//! `lip_diff` CLI fronts all of it for `run_experiments.sh` and CI.

#![warn(missing_docs)]

pub mod baseline;
pub mod diff;
pub mod sentinel;
pub mod store;

pub use baseline::{baseline_doc, check_one, extract_exact};
pub use diff::{diff_docs, diff_runs, BlameShift, DiffEntry, Domain, RunDiff};
pub use lip_obs::json::{parse, Json};
pub use sentinel::{direction_of, Direction, Sentinel, Verdict};
pub use store::{fnv1a, ArtifactRef, Manifest, Run, RunBuilder, RunStore};
