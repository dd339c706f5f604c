//! System-level simulation of latency-insensitive designs.
//!
//! This crate turns a [`lip_graph::Netlist`] into an executable system
//! and provides the measurement machinery behind every experiment in the
//! reproduction:
//!
//! * [`System`] — full cycle-accurate simulation of tokens, stops, pearls
//!   and clock gating, for the data-level checks (order, no skips,
//!   equivalence, [`Evolution`]) and as the tests' differential oracle;
//! * [`SkeletonSystem`] — the paper's data-free valid/stop simulation,
//!   control-equivalent to the full system but "absolutely negligible"
//!   in cost: the engine every measurement runs on;
//! * [`lasso`] — the one recurrence (transient + period) detector;
//! * [`model`] — the marked-graph minimum-cycle-ratio model: exact
//!   steady-state throughput of any legal netlist, and the binding
//!   cycle whose delay the batch measurement uses as a lasso lag;
//! * [`measure`](mod@crate::measure) — exact rational steady-state
//!   throughput, shell activity and the liveness check, all views of
//!   one skeleton lasso pass over the compiled [`SettleProgram`];
//! * [`Evolution`] — cycle-by-cycle tables in the style of the paper's
//!   Fig. 1 and Fig. 2.
//!
//! Every engine also has `*_probed` entry points taking a
//! [`lip_obs::Probe`] — counters, event streams and telemetry hook in
//! there at zero cost to the unprobed paths (see the [`lip_obs`] crate).
//!
//! # Example
//!
//! Reproduce the headline number of Fig. 1 (`T = 4/5`, period 5):
//!
//! ```
//! use lip_graph::generate;
//! use lip_sim::measure::{measure, Ratio};
//!
//! # fn main() -> Result<(), lip_graph::NetlistError> {
//! let fig1 = generate::fig1();
//! let m = measure(&fig1.netlist)?;
//! assert_eq!(m.periodicity.expect("periodic").period, 5);
//! assert_eq!(m.system_throughput(), Some(Ratio::new(4, 5)));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod evolution;
pub mod lane;
pub mod lasso;
pub mod measure;
pub mod model;
pub mod patch;
pub mod profiling;
pub mod program;
pub mod rtl;
mod skeleton;
mod stream;
mod system;

pub use batch::{BatchEngine, BatchSkeleton, LanePatterns, LANES, OCC_SAMPLE_EVERY};
pub use cache::ThroughputCache;
pub use evolution::Evolution;
pub use lane::{
    dispatch_lane_width, LaneWidthVisitor, LaneWord, Lanes1024, Lanes128, Lanes256, Lanes512,
    LANE_WIDTHS,
};
pub use measure::{
    measure, measure_activity, measure_batch_periodic, measure_batch_periodic_obs,
    measure_batch_periodic_wide, measure_batch_wide, BatchMeasurement, BatchPeriodicMeasurement,
    LivenessReport, Measurement, Periodicity, Ratio, ShellActivity,
};
pub use patch::{NetlistDelta, PatchError, ProgramPatch};
pub use profiling::{profile_netlist, ProfileOptions, ProfiledRun};
pub use program::{SettleProgram, VerifyError};
pub use skeleton::SkeletonSystem;
pub use system::System;
