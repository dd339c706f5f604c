//! The `.lid` parser's contract: one row per error kind with its exact
//! span, the statement rules the format documents, and a differential
//! test against the previous per-statement parser, kept here as an
//! oracle.

use std::sync::OnceLock;

use lip_core::{Pattern, RelayKind};
use lip_graph::text::{
    parse_netlist_spanned, write_netlist, ParseErrorKind, ParseNetlistError, ParsedNetlist,
};
use lip_graph::{generate, NetlistError, NodeId, SourceMap, Span};
use proptest::prelude::*;

/// What a parse is compared on: the netlist as written back, and where
/// each node and channel was declared; or the error and its span.
type Outcome = Result<(String, SourceMap), (ParseErrorKind, Span)>;

fn outcome(parsed: Result<ParsedNetlist, ParseNetlistError>) -> Outcome {
    parsed
        .map(|p| (write_netlist(&p.netlist), p.source_map))
        .map_err(|e| (e.kind, e.span))
}

fn parse_err(text: &str) -> (ParseErrorKind, Span) {
    match parse_netlist_spanned(text) {
        Ok(_) => panic!("{text:?} parsed"),
        Err(e) => (e.kind, e.span),
    }
}

fn bad_number(key: &str, value: &str) -> ParseErrorKind {
    ParseErrorKind::BadNumber {
        key: key.to_owned(),
        value: value.to_owned(),
    }
}

/// One row per [`ParseErrorKind`] variant, plus the rules that decide
/// which error a text gets: the exact kind and span the parser reports.
#[test]
fn every_error_kind_has_its_span() {
    use ParseErrorKind as K;
    let rows: Vec<(&str, K, Span)> = vec![
        (
            "source\n",
            K::MissingName {
                statement: "source",
            },
            Span::new(1, 1),
        ),
        (
            "  sink\n",
            K::MissingName { statement: "sink" },
            Span::new(1, 3),
        ),
        (
            "relay # no name\n",
            K::MissingName { statement: "relay" },
            Span::new(1, 1),
        ),
        (
            "buffered-shell\n",
            K::MissingName { statement: "shell" },
            Span::new(1, 1),
        ),
        ("relay r\n", K::MissingRelayKind, Span::new(1, 7)),
        (
            "relay r  slow\n",
            K::UnknownRelayKind("slow".into()),
            Span::new(1, 10),
        ),
        (
            "relay r fifo:1\n",
            K::BadFifoCapacity("1".into()),
            Span::new(1, 9),
        ),
        (
            "relay r fifo:256\n",
            K::BadFifoCapacity("256".into()),
            Span::new(1, 9),
        ),
        ("shell s\n", K::MissingPearl, Span::new(1, 7)),
        (
            "shell s mystery\n",
            K::UnknownPearl("mystery".into()),
            Span::new(1, 9),
        ),
        (
            "shell j join arity=2 op=min\n",
            K::UnknownJoinOp("min".into()),
            Span::new(1, 22),
        ),
        (
            "shell a identity fanout=two\n",
            bad_number("fanout", "two"),
            Span::new(1, 18),
        ),
        (
            "shell r router in=-1\n",
            bad_number("in", "-1"),
            Span::new(1, 16),
        ),
        (
            "source s voids=every:3\n",
            K::BadPattern("every:3".into()),
            Span::new(1, 10),
        ),
        (
            "sink s stops=sometimes\n",
            K::BadPattern("sometimes".into()),
            Span::new(1, 8),
        ),
        (
            "source a\nsink b\nconnect a0 -> b:0\n",
            K::BadPort("a0".into()),
            Span::new(3, 9),
        ),
        (
            "source a\nsink b\nconnect a:0 -> b:x\n",
            K::BadPort("b:x".into()),
            Span::new(3, 16),
        ),
        (
            "source a\nsink b\n  connect a:0 -> b:0 -> c:0\n",
            K::MalformedConnect,
            Span::new(3, 3),
        ),
        ("connect a:0 ->\n", K::MalformedConnect, Span::new(1, 1)),
        (
            "source a\nwire a b\n",
            K::UnknownStatement("wire".into()),
            Span::new(2, 1),
        ),
        (
            "source a\nsink   a\n",
            K::DuplicateName("a".into()),
            Span::new(2, 8),
        ),
        (
            "source a\nsink b\nconnect a:0 -> c:0\n",
            K::UnknownNode("c".into()),
            Span::new(3, 16),
        ),
        (
            "source a\nsink b\nconnect a:1 -> b:0\n",
            K::Connect(NetlistError::PortOutOfRange {
                node: node(0),
                port: 1,
                arity: 1,
                output: true,
            }),
            Span::new(3, 1),
        ),
        (
            "source a\nsink b\nsink c\nconnect a:0 -> b:0\nconnect a:0 -> c:0\n",
            K::Connect(NetlistError::PortAlreadyConnected {
                node: node(0),
                port: 0,
                output: true,
            }),
            Span::new(5, 1),
        ),
        // A connect naming a node declared later in the file.
        (
            "source a\nconnect a:0 -> b:0\nsink b\n",
            K::UnknownNode("b".into()),
            Span::new(2, 16),
        ),
        // The first error in text order wins.
        (
            "relay r bogus\nshell s mystery\n",
            K::UnknownRelayKind("bogus".into()),
            Span::new(1, 9),
        ),
        // A statement's own argument errors come before its name clash.
        (
            "source a\nsource a voids=never\n",
            K::BadPattern("never".into()),
            Span::new(2, 10),
        ),
        // Both endpoints are read before either is looked up.
        (
            "connect x:0 -> y\n",
            K::BadPort("y".into()),
            Span::new(1, 16),
        ),
        // The last duplicate key wins.
        (
            "shell a identity fanout=2 fanout=0\n",
            bad_number("fanout", "0"),
            Span::new(1, 27),
        ),
        // `#` starts a comment anywhere on a line.
        (
            "source a # sink b\nsink c\nconnect a:0 -> b:0\n",
            K::UnknownNode("b".into()),
            Span::new(3, 16),
        ),
        // CRLF line ends count lines like LF.
        (
            "source a\r\nsink b\r\nconnect a:0 -> b:9\r\n",
            K::Connect(NetlistError::PortOutOfRange {
                node: node(1),
                port: 9,
                arity: 1,
                output: false,
            }),
            Span::new(3, 1),
        ),
        // Counts draw on a budget of the text's byte length.
        (
            "shell r router out=1099511627776\n",
            bad_number("out", "1099511627776"),
            Span::new(1, 16),
        ),
        (
            "shell d delay k=1099511627776\n",
            bad_number("k", "1099511627776"),
            Span::new(1, 15),
        ),
        (
            "shell a identity fanout=30\nshell b identity fanout=30\n",
            bad_number("fanout", "30"),
            Span::new(2, 18),
        ),
    ];
    for (text, kind, span) in rows {
        assert_eq!(parse_err(text), (kind, span), "{text:?}");
    }
}

/// The id the parser gives the `i`-th node statement.
fn node(i: usize) -> NodeId {
    let parsed = parse_netlist_spanned("source n0\nsource n1\n").expect("two sources parse");
    parsed.names()[&format!("n{i}")]
}

/// Texts the format accepts, with the rules that make them legal.
#[test]
fn accepted_statement_forms() {
    let text = "# comment line\r\n\
                source in voids=every:2:1 voids=every:3:0 # last wins\r\n\
                \tshell   a   router in=1 out=2\n\
                buffered-shell b join arity=1 op=max extra\n\
                relay q fifo:3\n\
                sink out\n\
                sink spare stops=every:4:1\n\
                connect in:0 a:0\n\
                connect -> a:0 -> -> q:0\n\
                connect q:0 -> b:0\n\
                connect b:0 -> out:0\n\
                connect a:1 -> spare:0";
    let parsed = parse_netlist_spanned(text).unwrap_or_else(|e| panic!("{e}"));
    parsed.netlist.validate().expect("valid");
    let names = parsed.names();
    assert_eq!(parsed.source_map.node(names["a"]), Some(Span::new(3, 10)));
    let written = write_netlist(&parsed.netlist);
    assert!(written.contains("source in voids=every:3:0\n"), "{written}");
    assert!(
        written.contains("buffered-shell b join arity=1\n"),
        "{written}"
    );
    assert!(written.contains("relay q fifo:3\n"), "{written}");
    let spans: Vec<Span> = parsed
        .netlist
        .channels()
        .map(|(id, _)| parsed.source_map.channel(id).expect("spanned"))
        .collect();
    assert_eq!(
        spans,
        [
            Span::new(8, 9),
            Span::new(9, 12),
            Span::new(10, 9),
            Span::new(11, 9),
            Span::new(12, 9)
        ]
    );
    // An empty text is an empty netlist.
    let empty = parse_netlist_spanned("").expect("empty parses");
    assert_eq!(empty.netlist.node_count(), 0);
    // A design whose counts fill exactly its byte length still parses.
    let text = "shell a identity fanout=26";
    assert_eq!(text.len(), 26);
    assert!(parse_netlist_spanned(text).is_ok());
    let text = "shell a identity fanout=27";
    assert!(parse_netlist_spanned(text).is_err());
}

/// The previous parser: a `Vec` of tokens per line, a `HashMap` of
/// `key=value` arguments per node statement, tables grown as they
/// fill. It shares the count budget; otherwise it is the parser as it
/// was, kept to pin the rewrite's output.
mod oracle {
    use std::collections::HashMap;
    use std::num::NonZeroU32;

    use lip_core::pearl::{
        AccumulatorPearl, ConstPearl, CounterPearl, DelayPearl, IdentityPearl, JoinPearl, Pearl,
        RouterPearl,
    };
    use lip_core::{Pattern, RelayKind};
    use lip_graph::text::{ParseErrorKind, ParseNetlistError, ParsedNetlist};
    use lip_graph::{Netlist, NodeId, SourceMap, Span};

    fn err(span: Span, kind: ParseErrorKind) -> ParseNetlistError {
        ParseNetlistError { span, kind }
    }

    #[derive(Debug, Clone, Copy)]
    struct Tok<'a> {
        span: Span,
        text: &'a str,
    }

    fn tokenize(line_no: u32, raw: &str) -> Vec<Tok<'_>> {
        let code = raw.split('#').next().unwrap_or("");
        let bytes = code.as_bytes();
        let mut toks = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i].is_ascii_whitespace() {
                i += 1;
                continue;
            }
            let start = i;
            while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            let col = u32::try_from(start).map_or(u32::MAX, |c| c + 1);
            toks.push(Tok {
                span: Span::new(line_no, col),
                text: &code[start..i],
            });
        }
        toks
    }

    pub fn parse_netlist_spanned(text: &str) -> Result<ParsedNetlist, ParseNetlistError> {
        fn declare<'a>(
            names: &mut HashMap<&'a str, NodeId>,
            source_map: &mut SourceMap,
            tok: Tok<'a>,
            id: NodeId,
        ) -> Result<(), ParseNetlistError> {
            if names.insert(tok.text, id).is_some() {
                return Err(err(
                    tok.span,
                    ParseErrorKind::DuplicateName(tok.text.to_owned()),
                ));
            }
            source_map.record_node(id, tok.span);
            Ok(())
        }

        let mut n = Netlist::new();
        let mut names: HashMap<&str, NodeId> = HashMap::new();
        let mut source_map = SourceMap::new();
        let mut budget = text.len();

        for (li, raw) in text.lines().enumerate() {
            let line_no = u32::try_from(li).map_or(u32::MAX, |l| l + 1);
            let toks = tokenize(line_no, raw);
            let Some(&head) = toks.first() else { continue };
            let name_tok = |statement: &'static str| -> Result<Tok<'_>, ParseNetlistError> {
                toks.get(1)
                    .copied()
                    .ok_or_else(|| err(head.span, ParseErrorKind::MissingName { statement }))
            };
            match head.text {
                "source" => {
                    let name = name_tok("source")?;
                    let pattern = parse_pattern(&toks[2..], "voids")?;
                    let id = n.add_source_with_pattern(name.text, pattern);
                    declare(&mut names, &mut source_map, name, id)?;
                }
                "sink" => {
                    let name = name_tok("sink")?;
                    let pattern = parse_pattern(&toks[2..], "stops")?;
                    let id = n.add_sink_with_pattern(name.text, pattern);
                    declare(&mut names, &mut source_map, name, id)?;
                }
                "relay" => {
                    let name = name_tok("relay")?;
                    let kind_tok = toks
                        .get(2)
                        .copied()
                        .ok_or_else(|| err(name.span, ParseErrorKind::MissingRelayKind))?;
                    let kind = parse_relay_kind(kind_tok)?;
                    let id = n.add_relay_named(name.text, kind);
                    declare(&mut names, &mut source_map, name, id)?;
                }
                "shell" | "buffered-shell" => {
                    let name = name_tok("shell")?;
                    let pearl = parse_pearl(name.span, &toks[2..], &mut budget)?;
                    let id = if head.text == "shell" {
                        n.add_shell_boxed(name.text, pearl)
                    } else {
                        n.add_buffered_shell_boxed(name.text, pearl)
                    };
                    declare(&mut names, &mut source_map, name, id)?;
                }
                "connect" => {
                    let parts: Vec<Tok<'_>> = toks[1..]
                        .iter()
                        .copied()
                        .filter(|t| t.text != "->")
                        .collect();
                    if parts.len() != 2 {
                        return Err(err(head.span, ParseErrorKind::MalformedConnect));
                    }
                    let (fa, fp) = parse_port(parts[0])?;
                    let (ta, tp) = parse_port(parts[1])?;
                    let from = *names.get(fa).ok_or_else(|| {
                        err(parts[0].span, ParseErrorKind::UnknownNode(fa.to_owned()))
                    })?;
                    let to = *names.get(ta).ok_or_else(|| {
                        err(parts[1].span, ParseErrorKind::UnknownNode(ta.to_owned()))
                    })?;
                    let channel = n
                        .connect(from, fp, to, tp)
                        .map_err(|e| err(head.span, ParseErrorKind::Connect(e)))?;
                    source_map.record_channel(channel, parts[0].span);
                }
                other => {
                    return Err(err(
                        head.span,
                        ParseErrorKind::UnknownStatement(other.to_owned()),
                    ))
                }
            }
        }
        Ok(ParsedNetlist {
            netlist: n,
            source_map,
        })
    }

    fn parse_relay_kind(tok: Tok<'_>) -> Result<RelayKind, ParseNetlistError> {
        match tok.text {
            "full" => Ok(RelayKind::Full),
            "half" => Ok(RelayKind::Half),
            other => match other.strip_prefix("fifo:") {
                Some(k) => {
                    let bad = || err(tok.span, ParseErrorKind::BadFifoCapacity(k.to_owned()));
                    let cap: u8 = k.parse().map_err(|_| bad())?;
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

    fn kv<'a>(args: &[Tok<'a>]) -> HashMap<&'a str, (&'a str, Span)> {
        args.iter()
            .filter_map(|t| t.text.split_once('=').map(|(k, v)| (k, (v, t.span))))
            .collect()
    }

    fn parse_pattern(args: &[Tok<'_>], key: &str) -> Result<Pattern, ParseNetlistError> {
        match kv(args).get(key) {
            None => Ok(Pattern::Never),
            Some(&(v, span)) => {
                let bad_pattern = || err(span, ParseErrorKind::BadPattern(v.to_owned()));
                let parts: Vec<&str> = v.split(':').collect();
                if parts.len() == 3 && parts[0] == "every" {
                    let period: NonZeroU32 = parts[1].parse().map_err(|_| bad_pattern())?;
                    let (period, phase) =
                        (period.get(), parts[2].parse().map_err(|_| bad_pattern())?);
                    Ok(Pattern::EveryNth { period, phase })
                } else {
                    Err(bad_pattern())
                }
            }
        }
    }

    fn parse_pearl(
        name_span: Span,
        args: &[Tok<'_>],
        budget: &mut usize,
    ) -> Result<Box<dyn Pearl>, ParseNetlistError> {
        let kind = *args
            .first()
            .ok_or_else(|| err(name_span, ParseErrorKind::MissingPearl))?;
        let kv = kv(&args[1..]);
        // `bounded`: the value is a count and draws on the budget.
        let mut get_num = |key: &str, default: usize, min: usize, bounded: bool| match kv.get(key) {
            None => Ok(default),
            Some(&(v, span)) => v
                .parse()
                .ok()
                .filter(|&n| n >= min && (!bounded || n <= *budget))
                .inspect(|&n| {
                    if bounded {
                        *budget -= n;
                    }
                })
                .ok_or_else(|| {
                    err(
                        span,
                        ParseErrorKind::BadNumber {
                            key: key.to_owned(),
                            value: v.to_owned(),
                        },
                    )
                }),
        };
        Ok(match kind.text {
            "identity" => {
                let fanout = get_num("fanout", 1, 1, true)?;
                Box::new(IdentityPearl::with_fanout(fanout))
            }
            "join" => {
                let arity = get_num("arity", 2, 1, true)?;
                match kv.get("op") {
                    None => Box::new(JoinPearl::first(arity)),
                    Some(&(op, span)) => match op {
                        "first" => Box::new(JoinPearl::first(arity)),
                        "sum" => Box::new(JoinPearl::sum(arity)),
                        "max" => Box::new(JoinPearl::max(arity)),
                        other => {
                            return Err(err(span, ParseErrorKind::UnknownJoinOp(other.to_owned())))
                        }
                    },
                }
            }
            "router" => {
                let inputs = get_num("in", 1, 0, true)?;
                Box::new(RouterPearl::new(inputs, get_num("out", 1, 1, true)?))
            }
            "accumulator" => Box::new(AccumulatorPearl::new()),
            "counter" => Box::new(CounterPearl::new()),
            "delay" => Box::new(DelayPearl::new(get_num("k", 1, 1, true)?)),
            "const" => Box::new(ConstPearl::new(get_num("value", 0, 0, false)? as u64)),
            other => {
                return Err(err(
                    kind.span,
                    ParseErrorKind::UnknownPearl(other.to_owned()),
                ))
            }
        })
    }
}

/// Every text the differential tests start from: the shipped designs
/// and one instance of every generator family, written back as text.
fn seed_texts() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(build_seed_texts)
}

fn build_seed_texts() -> Vec<String> {
    let designs = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../designs");
    let mut texts: Vec<String> = ["fig1", "soc", "buffered_loop"]
        .iter()
        .map(|d| std::fs::read_to_string(designs.join(format!("{d}.lid"))).expect("shipped design"))
        .collect();
    let (plain, minimal) = generate::memory_equivalent_chains(3);
    let pattern = Pattern::EveryNth {
        period: 3,
        phase: 1,
    };
    let generated = [
        generate::chain(3, 2, RelayKind::Half).netlist,
        generate::chain(2, 1, RelayKind::Fifo(3)).netlist,
        generate::tree(3, 2, 1).netlist,
        generate::reconvergent(3, 1).netlist,
        generate::fork_join(2, 1, 1).netlist,
        generate::fig1().netlist,
        generate::ring(3, 2, RelayKind::Full).netlist,
        generate::ring_with_entry(2, 2, RelayKind::Full, pattern.clone(), pattern).netlist,
        generate::composed(2, 1, 2, 1).netlist,
        generate::composed_coupled(2, 1, 1, 2, 1).netlist,
        generate::buffered_ring(3, 1).netlist,
        plain.netlist,
        minimal.netlist,
    ];
    texts.extend(generated.iter().map(write_netlist));
    texts.extend((0..16).map(|seed| write_netlist(&generate::random_family(seed).1)));
    texts
}

/// Fragments a mutation splices in: statement keywords, separators,
/// comments, line ends, arguments, and numbers from legal to hostile.
const FRAGMENTS: [&str; 30] = [
    " ",
    "\n",
    "\r\n",
    "#",
    "->",
    ":",
    "=",
    "connect",
    "source",
    "sink",
    "relay",
    "shell",
    "fifo:1",
    "full",
    "0",
    "1",
    "2",
    "fanout=3",
    "k=1099511627776",
    "out=99999999999999999999",
    "arity=0",
    "stops=every:0:1",
    "voids=every:2:1",
    "in:0",
    "fanout=1",
    "arity=3",
    "op=sum",
    "in=2",
    "out=3",
    "k=2",
];

/// `text` with `edits` seeded edits: a byte range deleted, a fragment
/// inserted, a line duplicated or dropped, or a fragment appended to a
/// line as one more argument (so keys repeat). Edits land on character
/// boundaries, so the result stays a `str`.
fn mutate(text: &str, edits: &[(u8, u64, u64)]) -> String {
    let mut out = text.to_owned();
    for &(op, at, arg) in edits {
        let boundary = |s: &str, pos: u64| {
            let mut i = (pos % (s.len() as u64 + 1)) as usize;
            while !s.is_char_boundary(i) {
                i -= 1;
            }
            i
        };
        let i = boundary(&out, at);
        match op % 5 {
            0 => {
                let j = boundary(&out, i as u64 + arg % 8).max(i);
                out.replace_range(i..j, "");
            }
            1 => out.insert_str(i, FRAGMENTS[(arg % FRAGMENTS.len() as u64) as usize]),
            2..=4 => {
                let lines: Vec<&str> = out.lines().collect();
                if lines.is_empty() {
                    continue;
                }
                let k = (arg % lines.len() as u64) as usize;
                let mut edited: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
                match op % 5 {
                    2 => edited.insert(k, lines[(at % lines.len() as u64) as usize].to_owned()),
                    3 => {
                        edited.remove(k);
                    }
                    _ => {
                        let fragment = FRAGMENTS[(at % FRAGMENTS.len() as u64) as usize];
                        edited[k] = format!("{} {fragment}", edited[k]);
                    }
                }
                out = edited.join("\n");
            }
            _ => unreachable!(),
        }
    }
    out
}

#[test]
fn seed_texts_parse_alike() {
    for text in seed_texts() {
        let new = outcome(parse_netlist_spanned(text));
        assert!(new.is_ok(), "{text}");
        assert_eq!(new, outcome(oracle::parse_netlist_spanned(text)), "{text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Mutated designs: the parser and the oracle agree on the written
    /// netlist and source map, or on the first error and its span.
    #[test]
    fn mutated_designs_parse_as_the_oracle_does(
        pick in 0usize..64,
        edits in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..6),
    ) {
        let texts = seed_texts();
        let text = mutate(&texts[pick % texts.len()], &edits);
        let new = outcome(parse_netlist_spanned(&text));
        let old = outcome(oracle::parse_netlist_spanned(&text));
        prop_assert_eq!(new, old, "text:\n{}", text);
    }

    /// Every generator family, at random sizes, written and parsed back.
    #[test]
    fn generated_designs_parse_as_the_oracle_does(seed in 0u64..100_000) {
        let text = write_netlist(&generate::random_family(seed).1);
        let new = outcome(parse_netlist_spanned(&text));
        prop_assert!(new.is_ok(), "text:\n{}", text);
        prop_assert_eq!(new, outcome(oracle::parse_netlist_spanned(&text)));
    }
}
