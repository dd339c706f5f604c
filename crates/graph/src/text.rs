//! A plain-text netlist format, so designs can be written by hand, kept
//! in files, and fed to the CLI.
//!
//! ```text
//! # Fig. 1 by hand. '#' starts a comment.
//! source  in
//! shell   A   identity fanout=2
//! shell   B   identity
//! shell   C   join arity=2
//! relay   r1  full
//! relay   r2  full
//! relay   r3  full
//! sink    out
//!
//! connect in:0  -> A:0
//! connect A:0   -> r1:0
//! connect r1:0  -> B:0
//! connect B:0   -> r2:0
//! connect r2:0  -> C:0
//! connect A:1   -> r3:0
//! connect r3:0  -> C:1
//! connect C:0   -> out:0
//! ```
//!
//! Node statements: `source NAME [voids=every:P:PH]`,
//! `sink NAME [stops=every:P:PH]`, `relay NAME full|half|fifo:K`,
//! `shell NAME PEARL [key=value…]` and `buffered-shell NAME PEARL …`.
//! Pearls: `identity [fanout=N]`, `join arity=N [op=first|sum|max]`,
//! `router in=N out=M`, `accumulator`, `counter`, `delay k=N`,
//! `const value=V`.
//!
//! [`parse_netlist_spanned`] additionally returns a [`SourceMap`]
//! recording the line/column every node and channel was declared at, so
//! downstream diagnostics (notably the `lip-lint` rules) can point back
//! into the file. Parse errors carry the same [`Span`] machinery plus a
//! structured [`ParseErrorKind`].

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::num::NonZeroU32;

use lip_core::pearl::{
    AccumulatorPearl, ConstPearl, CounterPearl, DelayPearl, IdentityPearl, JoinPearl, Pearl,
    RouterPearl,
};
use lip_core::{Pattern, RelayKind};

use crate::names::NameTable;
use crate::netlist::{Netlist, NodeId, NodeKind};
use crate::span::{SourceMap, Span};
use crate::NetlistError;

/// What went wrong while parsing a textual netlist, without the
/// position (see [`ParseNetlistError`] for the spanned wrapper).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// A node statement is missing its name token.
    MissingName {
        /// The statement keyword (`source`, `relay`, …).
        statement: &'static str,
    },
    /// `relay NAME` without a kind token.
    MissingRelayKind,
    /// A relay kind other than `full`, `half` or `fifo:K`.
    UnknownRelayKind(String),
    /// `fifo:K` whose capacity is not an integer ≥ 2 (a fifo relay
    /// station needs at least the two places of a full relay station).
    BadFifoCapacity(String),
    /// `shell NAME` without a pearl token.
    MissingPearl,
    /// An unrecognised pearl name.
    UnknownPearl(String),
    /// An unrecognised `op=` value on a join pearl.
    UnknownJoinOp(String),
    /// A `key=value` argument whose value is not a number, or is below
    /// the minimum its key allows (e.g. `fanout=0`).
    BadNumber {
        /// The argument key.
        key: String,
        /// The offending value.
        value: String,
    },
    /// A `voids=`/`stops=` pattern that is not `every:P:PHASE` with
    /// `P >= 1`.
    BadPattern(String),
    /// A connect endpoint that is not `node:index`.
    BadPort(String),
    /// A `connect` statement without exactly two endpoints.
    MalformedConnect,
    /// An unknown statement keyword.
    UnknownStatement(String),
    /// A node name declared twice.
    DuplicateName(String),
    /// A connect endpoint naming an undeclared node.
    UnknownNode(String),
    /// The underlying [`Netlist::connect`] rejected the channel.
    Connect(NetlistError),
}

impl fmt::Display for ParseErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingName { statement } => write!(f, "{statement} needs a name"),
            Self::MissingRelayKind => {
                write!(f, "relay needs a kind: `full`, `half` or `fifo:K`")
            }
            Self::UnknownRelayKind(k) => write!(f, "unknown relay kind `{k}`"),
            Self::BadFifoCapacity(k) => {
                write!(f, "bad fifo capacity `{k}` (must be an integer >= 2)")
            }
            Self::MissingPearl => write!(f, "shell needs a pearl"),
            Self::UnknownPearl(p) => write!(f, "unknown pearl `{p}`"),
            Self::UnknownJoinOp(op) => write!(f, "unknown join op `{op}`"),
            Self::BadNumber { key, value } => write!(f, "bad `{key}={value}`"),
            Self::BadPattern(p) => write!(f, "pattern must be `every:P:PHASE`, got `{p}`"),
            Self::BadPort(p) => write!(f, "port must be `node:index`, got `{p}`"),
            Self::MalformedConnect => write!(f, "connect needs `from:port -> to:port`"),
            Self::UnknownStatement(s) => write!(f, "unknown statement `{s}`"),
            Self::DuplicateName(n) => write!(f, "duplicate node name `{n}`"),
            Self::UnknownNode(n) => write!(f, "unknown node `{n}`"),
            Self::Connect(e) => write!(f, "{e}"),
        }
    }
}

/// Error parsing a textual netlist: a structured [`ParseErrorKind`]
/// plus the [`Span`] of the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetlistError {
    /// Position of the offending token (1-based line and column).
    pub span: Span,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

impl ParseNetlistError {
    /// The human-readable description, without the position prefix.
    #[must_use]
    pub fn message(&self) -> String {
        self.kind.to_string()
    }
}

impl fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.span.line, self.span.col, self.kind
        )
    }
}

impl Error for ParseNetlistError {}

fn err(span: Span, kind: ParseErrorKind) -> ParseNetlistError {
    ParseNetlistError { span, kind }
}

/// A parsed textual netlist: the graph and the source map locating
/// every node and channel in the input text.
#[derive(Debug)]
pub struct ParsedNetlist {
    /// The parsed (not yet validated) netlist.
    pub netlist: Netlist,
    /// Where each node/channel was declared.
    pub source_map: SourceMap,
}

impl ParsedNetlist {
    /// Declared name → node id. Every parsed node carries its declared
    /// name, so the map is rebuilt from the netlist on request rather
    /// than kept (and freed) with every parse.
    #[must_use]
    pub fn names(&self) -> HashMap<String, NodeId> {
        self.netlist
            .nodes()
            .map(|(id, node)| (node.name().to_owned(), id))
            .collect()
    }
}

/// A whitespace-delimited token with its position.
#[derive(Debug, Clone, Copy)]
struct Tok<'a> {
    span: Span,
    text: &'a str,
}

/// The input split into lines of tokens in one scan over its bytes: a
/// line ends at `\n`, a `#` comments out the rest of it, and every other
/// ASCII whitespace byte (`\r` included) separates tokens.
struct Lexer<'a> {
    text: &'a str,
    /// Byte offset of the next line.
    pos: usize,
    /// 1-based number of the line last read.
    line: u32,
}

impl<'a> Lexer<'a> {
    /// Refill `toks` with the next line's tokens; `false` at the end of
    /// the text.
    fn next_line(&mut self, toks: &mut Vec<Tok<'a>>) -> bool {
        let bytes = self.text.as_bytes();
        if self.pos >= bytes.len() {
            return false;
        }
        toks.clear();
        self.line = self.line.saturating_add(1);
        let start = self.pos;
        let mut i = start;
        while i < bytes.len() && bytes[i] != b'\n' {
            let b = bytes[i];
            if b == b'#' {
                i = bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |end| i + end);
                break;
            }
            if b.is_ascii_whitespace() {
                i += 1;
                continue;
            }
            let begin = i;
            while i < bytes.len() && !bytes[i].is_ascii_whitespace() && bytes[i] != b'#' {
                i += 1;
            }
            let col = u32::try_from(begin - start + 1).unwrap_or(u32::MAX);
            toks.push(Tok {
                span: Span::new(self.line, col),
                text: &self.text[begin..i],
            });
        }
        self.pos = i + 1;
        true
    }
}

/// Estimated node and `connect` statements in `text`, from two byte
/// counts in one pass: lines, and colons, of which every `connect`
/// holds two (`a:0 b:0`). These are the capacities the parser sizes its
/// tables at. A blank line or a pattern's colons cost a little slack,
/// never a wrong parse (an underestimate only grows a table); and no
/// estimate exceeds what the text's length could hold of the shortest
/// statements (`sink a` and `connect a:0 b:0`, each with its line end),
/// so a file of blank lines reserves no more than one of real
/// statements.
fn statement_counts(text: &str) -> (usize, usize) {
    let room = text.len() + 1;
    let (newlines, colons) = count_newlines_and_colons(text.as_bytes());
    let lines = newlines + 1;
    let connects = (colons / 2).min(lines).min(room / 16);
    ((lines - connects).min(room / 7), connects)
}

/// `\n` and `:` bytes in `bytes`, counted a 64-byte block at a time
/// into byte-wide sums the compiler turns into vector compares.
fn count_newlines_and_colons(bytes: &[u8]) -> (usize, usize) {
    let tally = |block: &[u8]| {
        block.iter().fold((0u8, 0u8), |(n, c), &b| {
            (n + u8::from(b == b'\n'), c + u8::from(b == b':'))
        })
    };
    let mut blocks = bytes.chunks_exact(64);
    let (mut newlines, mut colons) = (0, 0);
    for block in &mut blocks {
        let (n, c) = tally(block);
        newlines += usize::from(n);
        colons += usize::from(c);
    }
    let (n, c) = tally(blocks.remainder());
    (newlines + usize::from(n), colons + usize::from(c))
}

/// Parse the textual format into a [`Netlist`] plus a name → node map.
///
/// Convenience wrapper around [`parse_netlist_spanned`] for callers
/// that do not need the source map.
///
/// # Errors
///
/// Returns [`ParseNetlistError`] with the offending span on any syntax
/// or connectivity problem. The returned netlist is *not* validated;
/// call [`Netlist::validate`] separately so structural errors carry
/// their own diagnostics.
pub fn parse_netlist(text: &str) -> Result<(Netlist, HashMap<String, NodeId>), ParseNetlistError> {
    let parsed = parse_netlist_spanned(text)?;
    let names = parsed.names();
    Ok((parsed.netlist, names))
}

/// Parse the textual format, keeping the [`SourceMap`] that locates
/// every node and channel in the input.
///
/// One scan over the text's bytes, with every table sized beforehand
/// from an estimate of its statements, so on a typical file nothing
/// grows or rehashes while parsing; names are resolved in batches of
/// statements (see `Parser`). The first error in text order is
/// returned; a `connect` may only name nodes declared above it.
///
/// # Errors
///
/// Returns [`ParseNetlistError`] with the offending span on any syntax
/// or connectivity problem. The returned netlist is *not* validated.
pub fn parse_netlist_spanned(text: &str) -> Result<ParsedNetlist, ParseNetlistError> {
    let (nodes, connects) = statement_counts(text);
    let mut parser = Parser {
        netlist: Netlist::with_capacity(nodes, (nodes * NAME_BYTES).min(text.len()), connects),
        names: NameTable::with_capacity(nodes),
        source_map: SourceMap::with_capacity(nodes, connects),
        budget: text.len(),
        pending: Vec::with_capacity(SETTLE_EVERY.min(connects)),
        hashes: Vec::new(),
        found: Vec::new(),
    };
    let mut lexer = Lexer {
        text,
        pos: 0,
        line: 0,
    };
    let mut toks = Vec::new();
    while lexer.next_line(&mut toks) {
        if let Err(e) = parser.statement(&toks) {
            // Whatever waits to be settled sits above this line.
            return Err(parser.settle().err().unwrap_or(e));
        }
        if parser.settle_due() {
            parser.settle()?;
        }
    }
    parser.settle()?;
    Ok(ParsedNetlist {
        netlist: parser.netlist,
        source_map: parser.source_map,
    })
}

/// Name bytes per node the parser reserves in the netlist's name arena
/// (which grows past it like any `String`).
const NAME_BYTES: usize = 8;

/// Declarations or `connect`s the parser reads before it settles their
/// names in one batch.
const SETTLE_EVERY: usize = 1024;

/// What one parse builds as it goes.
///
/// Names are resolved in batches rather than statement by statement:
/// node statements add their node (and name) at once, `connect`s wait in
/// `pending`, and [`Parser::settle`] then checks the new names for
/// duplicates and resolves the waiting endpoints, each batch hashed
/// before it is probed. Every error still comes out first in text
/// order: a batch only holds statements above the line being read.
struct Parser<'a> {
    netlist: Netlist,
    /// Declared name → node, resolved against the netlist's name arena
    /// under std's keyed hasher (see [`NameTable`]).
    names: NameTable,
    source_map: SourceMap,
    /// What the text's counts may still add up to; see [`Parser::count`].
    budget: usize,
    /// `connect`s read since the last settle, in text order.
    pending: Vec<Pending<'a>>,
    /// Scratch: the hashes of a batch of names.
    hashes: Vec<u64>,
    /// Scratch: the nodes a batch of endpoint names resolved to.
    found: Vec<Option<NodeId>>,
}

/// A `connect` statement read but not yet resolved.
#[derive(Debug, Clone, Copy)]
struct Pending<'a> {
    /// The `connect` keyword's span.
    head: Span,
    from: Tok<'a>,
    from_name: &'a str,
    from_port: usize,
    to: Tok<'a>,
    to_name: &'a str,
    to_port: usize,
    /// Nodes declared above the statement: a name declared below it is
    /// unknown to it.
    declared: usize,
}

impl<'a> Parser<'a> {
    /// Parse one line's tokens (none for a blank or comment line). Only
    /// syntax errors come out here; names wait for [`Parser::settle`].
    fn statement(&mut self, toks: &[Tok<'a>]) -> Result<(), ParseNetlistError> {
        let Some(&head) = toks.first() else {
            return Ok(());
        };
        let name = |statement: &'static str| {
            toks.get(1)
                .copied()
                .ok_or_else(|| err(head.span, ParseErrorKind::MissingName { statement }))
        };
        let (name, kind) = match head.text {
            "source" => {
                let name = name("source")?;
                let void_pattern = parse_pattern(&toks[2..], "voids")?;
                (name, NodeKind::Source { void_pattern })
            }
            "sink" => {
                let name = name("sink")?;
                let stop_pattern = parse_pattern(&toks[2..], "stops")?;
                (name, NodeKind::Sink { stop_pattern })
            }
            "relay" => {
                let name = name("relay")?;
                let kind_tok = toks
                    .get(2)
                    .copied()
                    .ok_or_else(|| err(name.span, ParseErrorKind::MissingRelayKind))?;
                let kind = parse_relay_kind(kind_tok)?;
                (name, NodeKind::Relay { kind })
            }
            "shell" | "buffered-shell" => {
                let name = name("shell")?;
                let pearl = self.pearl(name.span, &toks[2..])?;
                let buffered = head.text == "buffered-shell";
                (name, NodeKind::Shell { pearl, buffered })
            }
            "connect" => return self.connect(head, &toks[1..]),
            other => {
                return Err(err(
                    head.span,
                    ParseErrorKind::UnknownStatement(other.to_owned()),
                ))
            }
        };
        let id = self.netlist.add_node(name.text, kind);
        self.source_map.record_node(id, name.span);
        Ok(())
    }

    /// `connect a:0 -> b:1`: every `->` is optional, and exactly two
    /// endpoints must remain. The endpoints' names wait for the next
    /// settle.
    fn connect(&mut self, head: Tok<'a>, args: &[Tok<'a>]) -> Result<(), ParseNetlistError> {
        let mut ends = args.iter().copied().filter(|t| t.text != "->");
        let (Some(from), Some(to), None) = (ends.next(), ends.next(), ends.next()) else {
            return Err(err(head.span, ParseErrorKind::MalformedConnect));
        };
        let (from_name, from_port) = parse_port(from)?;
        let (to_name, to_port) = parse_port(to)?;
        self.pending.push(Pending {
            head: head.span,
            from,
            from_name,
            from_port,
            to,
            to_name,
            to_port,
            declared: self.netlist.node_count(),
        });
        Ok(())
    }

    /// Whether a full batch of declarations or `connect`s waits.
    fn settle_due(&self) -> bool {
        self.pending.len() >= SETTLE_EVERY
            || self.netlist.node_count() - self.names.named() >= SETTLE_EVERY
    }

    /// Resolve the names of everything read since the last settle: add
    /// the new nodes' names, then connect the pending `connect`s in text
    /// order. Returns the first error in text order among them: a name
    /// declared twice, an unknown endpoint, or a channel
    /// [`Netlist::connect`] refuses.
    fn settle(&mut self) -> Result<(), ParseNetlistError> {
        let taken = self
            .names
            .insert_rest(self.netlist.names(), &mut self.hashes)
            .map(|id| {
                let span = self.source_map.node(id).expect("parsed nodes have spans");
                let name = self.netlist.node(id).name().to_owned();
                err(span, ParseErrorKind::DuplicateName(name))
            });
        let mut pending = std::mem::take(&mut self.pending);
        let failed = self.connect_all(&pending).err();
        pending.clear();
        self.pending = pending;
        match (taken, failed) {
            (Some(taken), Some(failed)) => Err(if failed.span < taken.span {
                failed
            } else {
                taken
            }),
            (Some(e), None) | (None, Some(e)) => Err(e),
            (None, None) => Ok(()),
        }
    }

    /// Resolve `pending`'s endpoints, hashing every name before probing
    /// for any, then add their channels in order up to the first error.
    ///
    /// A chain of connects (`a -> b`, `b -> c`, …) starts each where the
    /// last ended: such a `from` is the node the last `to` resolved to,
    /// since names are unique, and is neither hashed nor probed.
    fn connect_all(&mut self, pending: &[Pending<'a>]) -> Result<(), ParseNetlistError> {
        let continues = |k: usize| k > 0 && pending[k].from_name == pending[k - 1].to_name;
        let lookups = || {
            pending.iter().enumerate().flat_map(move |(k, p)| {
                let from = (!continues(k)).then_some(p.from_name);
                from.into_iter().chain(std::iter::once(p.to_name))
            })
        };
        let (names, arena) = (&self.names, self.netlist.names());
        self.hashes.clear();
        self.hashes.extend(lookups().map(|name| names.hash(name)));
        self.found.clear();
        self.found.extend(
            lookups()
                .zip(&self.hashes)
                .map(|(name, &hash)| names.find(arena, name, hash)),
        );
        let mut found = self.found.iter().copied();
        let mut last_to = None;
        for (k, p) in pending.iter().enumerate() {
            let from = if continues(k) {
                last_to
            } else {
                found.next().flatten()
            };
            let to = found.next().flatten();
            let known = |node: Option<NodeId>, tok: Tok<'_>, name: &str| {
                node.filter(|id| id.index() < p.declared)
                    .ok_or_else(|| err(tok.span, ParseErrorKind::UnknownNode(name.to_owned())))
            };
            let from = known(from, p.from, p.from_name)?;
            let to = known(to, p.to, p.to_name)?;
            last_to = Some(to);
            let channel = self
                .netlist
                .connect(from, p.from_port, to, p.to_port)
                .map_err(|e| err(p.head, ParseErrorKind::Connect(e)))?;
            self.source_map.record_channel(channel, p.from.span);
        }
        Ok(())
    }

    fn pearl(
        &mut self,
        name_span: Span,
        args: &[Tok<'_>],
    ) -> Result<Box<dyn Pearl>, ParseNetlistError> {
        let (&kind, args) = args
            .split_first()
            .ok_or_else(|| err(name_span, ParseErrorKind::MissingPearl))?;
        Ok(match kind.text {
            "identity" => Box::new(IdentityPearl::with_fanout(
                self.count(args, "fanout", 1, 1)?,
            )),
            "join" => {
                let arity = self.count(args, "arity", 2, 1)?;
                match arg(args, "op") {
                    None | Some(("first", _)) => Box::new(JoinPearl::first(arity)),
                    Some(("sum", _)) => Box::new(JoinPearl::sum(arity)),
                    Some(("max", _)) => Box::new(JoinPearl::max(arity)),
                    Some((other, span)) => {
                        return Err(err(span, ParseErrorKind::UnknownJoinOp(other.to_owned())))
                    }
                }
            }
            "router" => {
                let inputs = self.count(args, "in", 1, 0)?;
                Box::new(RouterPearl::new(inputs, self.count(args, "out", 1, 1)?))
            }
            "accumulator" => Box::new(AccumulatorPearl::new()),
            "counter" => Box::new(CounterPearl::new()),
            "delay" => Box::new(DelayPearl::new(self.count(args, "k", 1, 1)?)),
            "const" => Box::new(ConstPearl::new(
                number(args, "value", 0, usize::MAX)?.unwrap_or(0) as u64,
            )),
            other => {
                return Err(err(
                    kind.span,
                    ParseErrorKind::UnknownPearl(other.to_owned()),
                ))
            }
        })
    }

    /// The port count or pipeline depth `key=N` (`default` when absent),
    /// at least `min`: the pearl constructors assert the minimum, and
    /// text must never reach those asserts. The counts a text states
    /// size tables, so together they may not exceed its byte length:
    /// every port of a design that validates takes part in a `connect`
    /// statement, at least 15 bytes for two ports, and a short hostile
    /// line cannot ask for gigabytes.
    fn count(
        &mut self,
        args: &[Tok<'_>],
        key: &str,
        default: usize,
        min: usize,
    ) -> Result<usize, ParseNetlistError> {
        let n = number(args, key, min, self.budget)?;
        self.budget -= n.unwrap_or(0);
        Ok(n.unwrap_or(default))
    }
}

fn parse_relay_kind(tok: Tok<'_>) -> Result<RelayKind, ParseNetlistError> {
    match tok.text {
        "full" => Ok(RelayKind::Full),
        "half" => Ok(RelayKind::Half),
        other => match other.strip_prefix("fifo:") {
            Some(k) => {
                let bad = || err(tok.span, ParseErrorKind::BadFifoCapacity(k.to_owned()));
                let cap: u8 = k.parse().map_err(|_| bad())?;
                // RelayKind::Fifo(k).capacity() requires k >= 2; reject
                // here so the panic can never be reached from text.
                if cap < 2 {
                    return Err(bad());
                }
                Ok(RelayKind::Fifo(cap))
            }
            None => Err(err(
                tok.span,
                ParseErrorKind::UnknownRelayKind(other.to_owned()),
            )),
        },
    }
}

fn parse_port(tok: Tok<'_>) -> Result<(&str, usize), ParseNetlistError> {
    let bad = || err(tok.span, ParseErrorKind::BadPort(tok.text.to_owned()));
    let (name, port) = tok.text.split_once(':').ok_or_else(bad)?;
    let port = port.parse().map_err(|_| bad())?;
    Ok((name, port))
}

/// The value of the `key=value` argument and its token's span. A key
/// given twice takes its last value.
fn arg<'a>(args: &[Tok<'a>], key: &str) -> Option<(&'a str, Span)> {
    args.iter().rev().find_map(|t| {
        let value = t.text.strip_prefix(key)?.strip_prefix('=')?;
        Some((value, t.span))
    })
}

/// The number `key=N` within `min..=max`, if given.
fn number(
    args: &[Tok<'_>],
    key: &str,
    min: usize,
    max: usize,
) -> Result<Option<usize>, ParseNetlistError> {
    let Some((value, span)) = arg(args, key) else {
        return Ok(None);
    };
    match value.parse() {
        Ok(n) if (min..=max).contains(&n) => Ok(Some(n)),
        _ => Err(err(
            span,
            ParseErrorKind::BadNumber {
                key: key.to_owned(),
                value: value.to_owned(),
            },
        )),
    }
}

/// `every:P:PHASE` with `P >= 1` under `key=`, or `Never` without one.
fn parse_pattern(args: &[Tok<'_>], key: &str) -> Result<Pattern, ParseNetlistError> {
    let Some((value, span)) = arg(args, key) else {
        return Ok(Pattern::Never);
    };
    let bad = || err(span, ParseErrorKind::BadPattern(value.to_owned()));
    let mut parts = value.split(':');
    let (Some("every"), Some(period), Some(phase), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(bad());
    };
    // A zero period has no cycles to assert in.
    let period: NonZeroU32 = period.parse().map_err(|_| bad())?;
    let phase = phase.parse().map_err(|_| bad())?;
    Ok(Pattern::EveryNth {
        period: period.get(),
        phase,
    })
}

/// Serialise `netlist` back into the textual format (patterns other than
/// `Never`/`EveryNth` are emitted as comments, since the format cannot
/// express them).
///
/// When every node's (sanitised) name is unique and non-empty — always
/// the case for netlists parsed from this format — names are preserved
/// verbatim, so a parse → fix → write round trip stays readable.
/// Otherwise every name gets a `_nID` suffix to stay unambiguous.
#[must_use]
pub fn write_netlist(netlist: &Netlist) -> String {
    use std::fmt::Write as _;
    let names = display_names(netlist);
    let mut out = String::new();
    for (id, node) in netlist.nodes() {
        let name = &names[id.index()];
        match node.kind() {
            NodeKind::Source { void_pattern } => {
                let _ = writeln!(out, "source {name}{}", fmt_pattern(void_pattern, "voids"));
            }
            NodeKind::Sink { stop_pattern } => {
                let _ = writeln!(out, "sink {name}{}", fmt_pattern(stop_pattern, "stops"));
            }
            NodeKind::Relay { kind } => {
                let k = match kind {
                    RelayKind::Full => "full".to_owned(),
                    RelayKind::Half => "half".to_owned(),
                    RelayKind::Fifo(c) => format!("fifo:{c}"),
                };
                let _ = writeln!(out, "relay {name} {k}");
            }
            NodeKind::Shell { pearl, buffered } => {
                let stmt = if *buffered { "buffered-shell" } else { "shell" };
                let spec = pearl_spec(pearl.as_ref());
                let _ = writeln!(out, "{stmt} {name} {spec}");
            }
        }
    }
    out.push('\n');
    for (_, ch) in netlist.channels() {
        let from = &names[ch.producer.node.index()];
        let to = &names[ch.consumer.node.index()];
        let _ = writeln!(
            out,
            "connect {from}:{} -> {to}:{}",
            ch.producer.index, ch.consumer.index
        );
    }
    out
}

/// One serialisable name per node: the sanitised originals when they
/// are all unique and non-empty, else `{base}_nID` for every node.
fn display_names(netlist: &Netlist) -> Vec<String> {
    let bases: Vec<String> = netlist
        .nodes()
        .map(|(_, node)| sanitize_base(node.name()))
        .collect();
    let mut seen = std::collections::HashSet::new();
    let all_usable = bases.iter().all(|b| !b.is_empty() && seen.insert(b));
    if all_usable {
        bases
    } else {
        netlist
            .nodes()
            .zip(&bases)
            .map(|((id, _), base)| format!("{base}_{id}"))
            .collect()
    }
}

/// Whitespace-free rendering of a node name.
fn sanitize_base(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_whitespace() || c == ':' || c == '#' {
                '_'
            } else {
                c
            }
        })
        .collect()
}

fn fmt_pattern(p: &Pattern, key: &str) -> String {
    match p {
        Pattern::Never => String::new(),
        Pattern::EveryNth { period, phase } => format!(" {key}=every:{period}:{phase}"),
        other => format!(" # unrepresentable pattern: {other:?}"),
    }
}

fn pearl_spec(pearl: &dyn Pearl) -> String {
    match pearl.name() {
        "identity" => format!("identity fanout={}", pearl.num_outputs()),
        "join" => format!("join arity={}", pearl.num_inputs()),
        "router" => format!(
            "router in={} out={}",
            pearl.num_inputs(),
            pearl.num_outputs()
        ),
        "accumulator" => "accumulator".to_owned(),
        "counter" => "counter".to_owned(),
        "delay" => format!("delay k={}", pearl.state().len()),
        "const" => "const value=0".to_owned(),
        other => format!("# unrepresentable pearl `{other}`; identity stand-in\nidentity"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    const FIG1_TEXT: &str = "
        # Fig. 1 by hand
        source  in
        shell   A   identity fanout=2
        shell   B   identity
        shell   C   join arity=2
        relay   r1  full
        relay   r2  full
        relay   r3  full
        sink    out

        connect in:0  -> A:0
        connect A:0   -> r1:0
        connect r1:0  -> B:0
        connect B:0   -> r2:0
        connect r2:0  -> C:0
        connect A:1   -> r3:0
        connect r3:0  -> C:1
        connect C:0   -> out:0
    ";

    #[test]
    fn statement_estimates_cover_the_text_and_no_more() {
        let (nodes, connects) = statement_counts(FIG1_TEXT);
        assert!(
            nodes >= 8 && connects == 8,
            "{nodes} nodes, {connects} connects"
        );
        let blank = "\n".repeat(7_000);
        assert!(statement_counts(&blank).0 <= 1_000);
        let colons = ":".repeat(1_000);
        assert_eq!(statement_counts(&colons), (0, 1));
    }

    #[test]
    fn parses_fig1_by_hand() {
        let (n, names) = parse_netlist(FIG1_TEXT).unwrap();
        n.validate().unwrap();
        assert_eq!(n.census().shells, 3);
        assert_eq!(n.census().full_relays, 3);
        assert!(names.contains_key("A"));
    }

    #[test]
    fn hand_written_fig1_measures_four_fifths() {
        let (n, _) = parse_netlist(FIG1_TEXT).unwrap();
        // The hand-written netlist is throughput-identical to the
        // generated one (the point of the format).
        let generated = generate::fig1().netlist;
        use lip_core::RelayKind as _RK;
        let _ = _RK::Full;
        assert_eq!(n.census().shells, generated.census().shells);
    }

    #[test]
    fn reports_line_and_column() {
        let e = parse_netlist("source in\n  bogus x\n").unwrap_err();
        assert_eq!(e.span, Span::new(2, 3));
        assert_eq!(e.kind, ParseErrorKind::UnknownStatement("bogus".into()));
        assert!(e.to_string().contains("line 2, column 3"));
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn rejects_duplicates_and_unknowns() {
        assert!(matches!(
            parse_netlist("source a\nsource a\n").unwrap_err().kind,
            ParseErrorKind::DuplicateName(_)
        ));
        assert!(matches!(
            parse_netlist("connect a:0 -> b:0\n").unwrap_err().kind,
            ParseErrorKind::UnknownNode(_)
        ));
        assert!(matches!(
            parse_netlist("shell s mystery\n").unwrap_err().kind,
            ParseErrorKind::UnknownPearl(_)
        ));
        assert!(matches!(
            parse_netlist("relay r bogus\n").unwrap_err().kind,
            ParseErrorKind::UnknownRelayKind(_)
        ));
        assert!(matches!(
            parse_netlist("source s voids=sometimes\n")
                .unwrap_err()
                .kind,
            ParseErrorKind::BadPattern(_)
        ));
    }

    #[test]
    fn rejects_hostile_counts_and_periods() {
        // Each of these used to parse and then panic: the zero counts in
        // the pearl constructors' asserts, the zero periods later in the
        // lint rules and the simulators.
        for (text, col) in [
            ("shell j join arity=0\n", 14),
            ("shell r router out=0\n", 16),
            ("shell a identity fanout=0\n", 18),
            ("shell d delay k=0\n", 15),
        ] {
            let e = parse_netlist(text).unwrap_err();
            assert!(
                matches!(e.kind, ParseErrorKind::BadNumber { .. }),
                "{text}: {e}"
            );
            assert_eq!(e.span, Span::new(1, col), "{text}");
        }
        for text in ["sink s stops=every:0:0\n", "source s voids=every:0:0\n"] {
            let e = parse_netlist(text).unwrap_err();
            assert_eq!(e.kind, ParseErrorKind::BadPattern("every:0:0".into()));
            assert_eq!(e.span.line, 1, "{text}");
        }
        assert!(parse_netlist("shell r router in=0 out=1\nshell c const value=0\n").is_ok());
    }

    #[test]
    fn rejects_undersized_fifos() {
        // fifo:0 and fifo:1 used to parse and only panic later inside
        // RelayKind::capacity(); the parser now rejects them up front.
        for text in ["relay q fifo:0\n", "relay q fifo:1\n", "relay q fifo:x\n"] {
            let e = parse_netlist(text).unwrap_err();
            assert!(
                matches!(e.kind, ParseErrorKind::BadFifoCapacity(_)),
                "{text}: {e}"
            );
            assert_eq!(e.span, Span::new(1, 9));
        }
        assert!(parse_netlist("relay q fifo:2\n").is_ok());
    }

    #[test]
    fn patterns_and_fifos_parse() {
        let text = "
            source in voids=every:3:0
            relay q fifo:4
            sink out stops=every:5:2
            connect in:0 -> q:0
            connect q:0 -> out:0
        ";
        let (n, names) = parse_netlist(text).unwrap();
        n.validate().unwrap();
        assert_eq!(n.census().fifo_relays, 1);
        let _ = names["q"];
    }

    #[test]
    fn source_map_locates_nodes_and_channels() {
        let parsed = parse_netlist_spanned(FIG1_TEXT).unwrap();
        let a = parsed.names()["A"];
        // `shell   A …` is on line 4; the name token starts at col 17.
        assert_eq!(parsed.source_map.node(a), Some(Span::new(4, 17)));
        // Every node and channel has a span.
        for (id, _) in parsed.netlist.nodes() {
            assert!(parsed.source_map.node(id).is_some(), "{id} has no span");
        }
        for (id, _) in parsed.netlist.channels() {
            let span = parsed.source_map.channel(id);
            assert!(span.is_some(), "{id} has no span");
            assert!(span.unwrap().line >= 12, "{id} span {span:?}");
        }
    }

    #[test]
    fn write_preserves_unique_names() {
        let parsed = parse_netlist_spanned(FIG1_TEXT).unwrap();
        let text = write_netlist(&parsed.netlist);
        assert!(text.contains("shell A identity fanout=2"), "{text}");
        assert!(text.contains("connect A:1 -> r3:0"), "{text}");
        let (reparsed, names) = parse_netlist(&text).unwrap();
        assert_eq!(reparsed.census(), parsed.netlist.census());
        assert!(names.contains_key("A"));
    }

    #[test]
    fn roundtrip_preserves_structure() {
        for build in [
            generate::fig1().netlist,
            generate::ring(2, 2, RelayKind::Half).netlist,
            generate::buffered_ring(3, 1).netlist,
            generate::composed_coupled(1, 1, 1, 2, 1).netlist,
        ] {
            let text = write_netlist(&build);
            let (reparsed, _) = parse_netlist(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(reparsed.node_count(), build.node_count());
            assert_eq!(reparsed.channel_count(), build.channel_count());
            let (a, b) = (reparsed.census(), build.census());
            assert_eq!(a, b);
            reparsed.validate().unwrap();
        }
    }
}
