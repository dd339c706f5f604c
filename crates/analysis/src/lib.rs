//! Performance analysis and structural optimisation of
//! latency-insensitive designs — the quantitative half of the paper.
//!
//! * [`model`] — the marked-graph minimum-cycle-ratio model: exact
//!   steady-state throughput of any legal netlist, generalising every
//!   closed form in the paper (it lives in `lip-sim`, whose batch
//!   measurement reads its binding cycle, and is re-exported here);
//! * [`forest`](mod@crate::forest) — the declared-environment facts
//!   `lip_mc::check_declared` would prove (liveness, throughput, relay
//!   occupancy bounds, lasso shape), in closed form on forests whose
//!   sinks never stop;
//! * [`formulas`] — the paper's closed forms: trees
//!   (`T = 1`), reconvergent feed-forward (`T = (m − i)/m`), feedback
//!   loops (`T = S/(S+R)`), plus [`predict_throughput`] combining the
//!   model with environment rates;
//! * [`transient`](mod@crate::transient) — the upfront transient-length
//!   bound the deadlock recipe relies on;
//! * [`equalize`](mod@crate::equalize) — path equalization by spare relay
//!   stations;
//! * [`cure`](mod@crate::cure) — minimum-memory insertion and the
//!   half-station-in-loop deadlock cure.
//!
//! # Example
//!
//! Predict Fig. 1 without simulating, then confirm by simulation:
//!
//! ```
//! use lip_analysis::predict_throughput;
//! use lip_graph::generate;
//! use lip_sim::{measure, Ratio};
//!
//! # fn main() -> Result<(), lip_graph::NetlistError> {
//! let fig1 = generate::fig1();
//! let predicted = predict_throughput(&fig1.netlist).expect("periodic env");
//! assert_eq!(predicted, Ratio::new(4, 5));
//! assert_eq!(measure(&fig1.netlist)?.system_throughput(), Some(predicted));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cure;
pub mod equalize;
pub mod forest;
pub mod formulas;
pub mod pipeline;
pub mod search;
pub mod transient;

pub use cure::{cure_deadlocks, enforce_min_memory, half_relays_in_loops, CureReport};
pub use equalize::{equalize, EqualizeReport};
pub use forest::{forest_facts, ForestFacts};
pub use formulas::{
    closed_form, loop_throughput, predict_throughput, reconvergent_throughput, tree_throughput,
    ClosedForm,
};
pub use lip_sim::model;
pub use model::MarkedGraph;
pub use pipeline::{pipeline_wires, PipelineReport, WireLatency};
pub use search::{minimal_equalizing_capacity, size_each_relay, CapacityChoice};
pub use transient::transient_bound;
