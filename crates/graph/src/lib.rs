//! Netlists of latency-insensitive designs, and the topology analyses the
//! paper's performance formulas rest on.
//!
//! A [`Netlist`] is the LID system graph: sources, [`Shell`]-wrapped
//! pearls, relay stations and sinks joined by point-to-point channels.
//! [`Netlist::validate`] enforces the paper's structural rules — above
//! all the minimum-memory theorem: every directed cycle must contain a
//! relay station (otherwise the backward `stop` path is a combinational
//! loop, since the simplified shell stores no stops), and every cycle
//! must contain a shell or full relay station (otherwise the forward data
//! path is combinational through half-station bypasses).
//!
//! [`topology`] classifies netlists into the paper's taxonomy (tree /
//! reconvergent feed-forward / feedback) and measures the quantities in
//! its throughput formulas; [`generate`] builds the proof-of-concept
//! families parametrically.
//!
//! # Example
//!
//! ```
//! use lip_graph::{generate, topology};
//!
//! // The Fig. 1 instance: relay imbalance i = 1.
//! let fig1 = generate::reconvergent(2, 1);
//! fig1.netlist.validate()?;
//! assert_eq!(
//!     topology::classify(&fig1.netlist),
//!     topology::TopologyClass::ReconvergentFeedForward,
//! );
//! assert_eq!(topology::join_imbalance(&fig1.netlist, fig1.join), Some(1));
//! # Ok::<(), lip_graph::NetlistError>(())
//! ```
//!
//! [`Shell`]: lip_core::Shell

#![warn(missing_docs)]

mod error;
pub mod generate;
mod names;
mod netlist;
pub mod span;
pub mod text;
pub mod topology;

pub use error::NetlistError;
pub use netlist::{Channel, ChannelId, Netlist, NetlistCensus, Node, NodeId, NodeKind, Port};
pub use span::{SourceMap, Span};
pub use text::{
    parse_netlist, parse_netlist_spanned, write_netlist, ParseErrorKind, ParseNetlistError,
    ParsedNetlist,
};
