//! Source spans for textual netlists.
//!
//! The parser in [`text`](crate::text) records, for every node and
//! channel it creates, the line/column of the declaring statement.
//! Parse errors and the `lip-lint` rule engine share this machinery, so
//! a diagnostic about a netlist object can point back into the `.lid`
//! file it came from.

use std::fmt;

use crate::netlist::{ChannelId, NodeId};

/// A position in a textual netlist: 1-based line and 1-based byte
/// column of the first character of the relevant token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Span {
    /// 1-based line number.
    pub line: u32,
    /// 1-based byte column within the line.
    pub col: u32,
}

impl Span {
    /// Construct a span from 1-based line and column.
    #[must_use]
    pub const fn new(line: u32, col: u32) -> Self {
        Self { line, col }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Maps netlist nodes and channels back to the spans of the statements
/// that declared them.
///
/// Lookups are total: nodes or channels created *after* parsing (for
/// example by a fix-it that inserts a relay station) have no span and
/// return `None`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceMap {
    nodes: Vec<Option<Span>>,
    channels: Vec<Option<Span>>,
}

impl SourceMap {
    /// An empty map: every lookup returns `None`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty map with room for `nodes` nodes and `channels` channels.
    #[must_use]
    pub(crate) fn with_capacity(nodes: usize, channels: usize) -> Self {
        SourceMap {
            nodes: Vec::with_capacity(nodes),
            channels: Vec::with_capacity(channels),
        }
    }

    /// Span of the statement that declared `node`, if it was parsed
    /// from text.
    #[must_use]
    pub fn node(&self, node: NodeId) -> Option<Span> {
        self.nodes.get(node.index()).copied().flatten()
    }

    /// Span of the `connect` statement that created `channel`, if it
    /// was parsed from text.
    #[must_use]
    pub fn channel(&self, channel: ChannelId) -> Option<Span> {
        self.channels.get(channel.index()).copied().flatten()
    }

    /// Record the declaring span of `node`.
    pub fn record_node(&mut self, node: NodeId, span: Span) {
        let i = node.index();
        if self.nodes.len() <= i {
            self.nodes.resize(i + 1, None);
        }
        self.nodes[i] = Some(span);
    }

    /// Record the declaring span of `channel`.
    pub fn record_channel(&mut self, channel: ChannelId, span: Span) {
        let i = channel.index();
        if self.channels.len() <= i {
            self.channels.resize(i + 1, None);
        }
        self.channels[i] = Some(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_are_total() {
        let mut map = SourceMap::new();
        let missing = NodeId(7);
        assert_eq!(map.node(missing), None);
        map.record_node(NodeId(2), Span::new(4, 9));
        assert_eq!(map.node(NodeId(2)), Some(Span::new(4, 9)));
        assert_eq!(map.node(NodeId(0)), None);
        assert_eq!(map.node(missing), None);
        map.record_channel(ChannelId(1), Span::new(10, 1));
        assert_eq!(map.channel(ChannelId(1)), Some(Span::new(10, 1)));
        assert_eq!(map.channel(ChannelId(0)), None);
    }

    #[test]
    fn span_displays_line_col() {
        assert_eq!(Span::new(3, 14).to_string(), "3:14");
    }
}
