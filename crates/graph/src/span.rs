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
/// return `None`. Lines are 1-based, so the map stores a missing span
/// as a span on line 0, in 8 bytes where an `Option<Span>` takes 12.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceMap {
    nodes: Vec<Span>,
    channels: Vec<Span>,
}

/// The stored form of "no span".
const NO_SPAN: Span = Span::new(0, 0);

/// `span`, unless it is [`NO_SPAN`].
fn present(span: Option<&Span>) -> Option<Span> {
    span.copied().filter(|s| s.line != 0)
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
        present(self.nodes.get(node.index()))
    }

    /// Span of the `connect` statement that created `channel`, if it
    /// was parsed from text.
    #[must_use]
    pub fn channel(&self, channel: ChannelId) -> Option<Span> {
        present(self.channels.get(channel.index()))
    }

    /// Record the declaring span of `node` (a span on line 0, before
    /// the 1-based first line, reads back as `None`).
    pub fn record_node(&mut self, node: NodeId, span: Span) {
        record(&mut self.nodes, node.index(), span);
    }

    /// Record the declaring span of `channel` (a span on line 0 reads
    /// back as `None`).
    pub fn record_channel(&mut self, channel: ChannelId, span: Span) {
        record(&mut self.channels, channel.index(), span);
    }
}

/// Set `spans[i]`, padding with [`NO_SPAN`] up to it.
fn record(spans: &mut Vec<Span>, i: usize, span: Span) {
    if spans.len() <= i {
        spans.resize(i + 1, NO_SPAN);
    }
    spans[i] = span;
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
