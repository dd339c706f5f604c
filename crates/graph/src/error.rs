//! Netlist construction and validation errors.

use std::error::Error;
use std::fmt;

use crate::netlist::NodeId;

/// Error building or validating a latency-insensitive netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A port index exceeded the node's arity.
    PortOutOfRange {
        /// Offending node.
        node: NodeId,
        /// Offending port index.
        port: usize,
        /// The node's arity in that direction.
        arity: usize,
        /// `true` for an output port, `false` for an input port.
        output: bool,
    },
    /// The port already drives / is driven by another channel.
    PortAlreadyConnected {
        /// Offending node.
        node: NodeId,
        /// Offending port index.
        port: usize,
        /// `true` for an output port, `false` for an input port.
        output: bool,
    },
    /// A port was left unconnected at validation time.
    UnconnectedPort {
        /// Offending node.
        node: NodeId,
        /// Offending port index.
        port: usize,
        /// `true` for an output port, `false` for an input port.
        output: bool,
    },
    /// A directed cycle contains no relay station: the backward `stop`
    /// path is purely combinational (shells do not store stops), which is
    /// the paper's minimum-memory violation.
    StopLoop {
        /// Nodes on the offending cycle.
        cycle: Vec<NodeId>,
    },
    /// A directed cycle contains neither a shell nor a full relay
    /// station: the forward `valid/data` path is purely combinational
    /// (half relay stations bypass while empty).
    DataLoop {
        /// Nodes on the offending cycle.
        cycle: Vec<NodeId>,
    },
    /// A source's void pattern or a sink's stop pattern is malformed
    /// (see [`Pattern::malformation`](lip_core::Pattern::malformation)),
    /// so it is undefined on some cycle.
    MalformedPattern {
        /// The source or sink.
        node: NodeId,
        /// What is wrong with its pattern.
        defect: &'static str,
    },
    /// The netlist has no nodes of a kind an operation requires (for
    /// example measuring throughput with no sink).
    Empty {
        /// What was missing.
        what: &'static str,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn dir(output: bool) -> &'static str {
            if output {
                "output"
            } else {
                "input"
            }
        }
        match self {
            NetlistError::PortOutOfRange {
                node,
                port,
                arity,
                output,
            } => write!(
                f,
                "{} port {port} of node {node} out of range (arity {arity})",
                dir(*output)
            ),
            NetlistError::PortAlreadyConnected { node, port, output } => {
                write!(
                    f,
                    "{} port {port} of node {node} is already connected",
                    dir(*output)
                )
            }
            NetlistError::UnconnectedPort { node, port, output } => {
                write!(
                    f,
                    "{} port {port} of node {node} is not connected",
                    dir(*output)
                )
            }
            NetlistError::StopLoop { cycle } => write!(
                f,
                "cycle without any relay station (combinational stop loop): {}",
                fmt_cycle(cycle)
            ),
            NetlistError::DataLoop { cycle } => write!(
                f,
                "cycle without any shell or full relay station (combinational data loop): {}",
                fmt_cycle(cycle)
            ),
            NetlistError::MalformedPattern { node, defect } => {
                write!(f, "endpoint pattern of node {node} is malformed ({defect})")
            }
            NetlistError::Empty { what } => write!(f, "netlist has no {what}"),
        }
    }
}

fn fmt_cycle(cycle: &[NodeId]) -> String {
    cycle
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(" -> ")
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = NetlistError::StopLoop {
            cycle: vec![NodeId(0), NodeId(1)],
        };
        assert!(e.to_string().contains("combinational stop loop"));
        let e = NetlistError::UnconnectedPort {
            node: NodeId(3),
            port: 1,
            output: false,
        };
        assert_eq!(e.to_string(), "input port 1 of node n3 is not connected");
        let e = NetlistError::Empty { what: "sink" };
        assert_eq!(e.to_string(), "netlist has no sink");
        let e = NetlistError::MalformedPattern {
            node: NodeId(2),
            defect: "period 0",
        };
        assert_eq!(
            e.to_string(),
            "endpoint pattern of node n2 is malformed (period 0)"
        );
    }
}
