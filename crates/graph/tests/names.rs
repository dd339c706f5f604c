//! Node names after the parse: the netlist's name arena through clones,
//! round trips and later edits, the parser's name table past its size
//! estimate, and the first-error-in-text-order rule across the batches
//! the parser settles names in.

use lip_core::pearl::IdentityPearl;
use lip_core::{Pattern, RelayKind};
use lip_graph::text::{parse_netlist_spanned, write_netlist, ParseErrorKind, ParsedNetlist};
use lip_graph::{generate, Netlist, NetlistError, NodeId, Span};
use proptest::prelude::*;

/// `n` patterned sources, `n` patterned sinks and a channel between
/// each pair. Every pattern's colons count as a `connect` in the
/// parser's statement estimate, which so expects half the nodes there
/// are: its name table has to grow, several times over.
fn patterned_pairs(n: usize) -> (String, Netlist) {
    let mut text = String::new();
    let mut built = Netlist::new();
    let mut ends = Vec::new();
    for i in 0..n {
        text.push_str(&format!("source in{i} voids=every:3:{}\n", i % 3));
        text.push_str(&format!("sink out_é{i} stops=every:2:{}\n", i % 2));
        let phase = u32::try_from(i).unwrap();
        let s = built.add_source_with_pattern(
            format_args!("in{i}"),
            Pattern::EveryNth {
                period: 3,
                phase: phase % 3,
            },
        );
        let t = built.add_sink_with_pattern(
            format_args!("out_é{i}"),
            Pattern::EveryNth {
                period: 2,
                phase: phase % 2,
            },
        );
        ends.push((s, t));
    }
    for (i, &(s, t)) in ends.iter().enumerate() {
        text.push_str(&format!("connect in{i}:0 -> out_é{i}:0\n"));
        built.connect(s, 0, t, 0).unwrap();
    }
    (text, built)
}

#[test]
fn a_text_past_the_estimate_grows_the_table_and_parses_whole() {
    let (text, built) = patterned_pairs(3_000);
    let parsed = parse_netlist_spanned(&text).unwrap();
    assert_eq!(write_netlist(&parsed.netlist), write_netlist(&built));
    parsed.netlist.validate().unwrap();
    let names = parsed.names();
    assert_eq!(names.len(), 6_000);
    for (id, node) in built.nodes() {
        assert_eq!(names[node.name()], id);
        assert_eq!(parsed.netlist.node(id).name(), node.name());
        let line = u32::try_from(id.index() + 1).unwrap();
        let col = if id.index() % 2 == 0 { 8 } else { 6 };
        assert_eq!(parsed.source_map.node(id), Some(Span::new(line, col)));
    }
    for (id, ch) in parsed.netlist.channels() {
        let line = u32::try_from(6_000 + id.index() + 1).unwrap();
        assert_eq!(parsed.source_map.channel(id), Some(Span::new(line, 9)));
        assert_eq!(ch.producer.node.index() + 1, ch.consumer.node.index());
    }
}

#[test]
fn names_survive_clones_round_trips_and_later_nodes() {
    let text = write_netlist(&generate::fork_join(40, 30, 20).netlist);
    let parsed = parse_netlist_spanned(&text).unwrap();
    let names: Vec<String> = parsed
        .netlist
        .nodes()
        .map(|(_, n)| n.name().to_owned())
        .collect();

    let ids: Vec<NodeId> = parsed.netlist.nodes().map(|(id, _)| id).collect();
    let mut edited = parsed.netlist.clone();
    // A fix-it's relay station and a builder's, after the parse.
    let first = edited.channels().next().unwrap().0;
    let inserted = edited.insert_relay_on_channel(first, RelayKind::Half);
    let added = edited.add_relay(RelayKind::Full);
    let shell = edited.add_shell(String::from("late shell"), IdentityPearl::new());
    drop(parsed.netlist);

    for (&id, name) in ids.iter().zip(&names) {
        assert_eq!(edited.node(id).name(), name);
    }
    assert_eq!(
        edited.node(inserted).name(),
        format!("half_rs{}", names.len())
    );
    assert_eq!(
        edited.node(added).name(),
        format!("full_rs{}", names.len() + 1)
    );
    assert_eq!(edited.node(shell).name(), "late shell");
    // The source map stays total: parsed nodes keep their spans, later
    // ones have none, and ids past the netlist answer `None`.
    for &id in &ids {
        assert!(parsed.source_map.node(id).is_some());
    }
    for id in [inserted, added, shell] {
        assert_eq!(parsed.source_map.node(id), None);
    }
    let (last, _) = edited.channels().last().unwrap();
    assert_eq!(parsed.source_map.channel(last), None);

    // The edited netlist writes its names back, the space sanitised.
    let written = write_netlist(&edited);
    let reparsed = parse_netlist_spanned(&written).unwrap();
    for (id, n) in reparsed.netlist.nodes() {
        assert_eq!(n.name(), edited.node(id).name().replace(' ', "_"));
    }
    edited.set_relay_kind(added, RelayKind::Half);
    assert_eq!(reparsed.netlist.census().relays(), edited.census().relays());
}

/// The first `lines` lines of `text`, padded with a comment to the
/// length of `text`: the count budget is the text's length, so the
/// padded prefix parses under the same budget.
fn prefix(text: &str, lines: usize) -> String {
    let mut out: String = text.split_inclusive('\n').take(lines).collect();
    if out.len() < text.len() {
        out.push('#');
        out.push_str(&"x".repeat(text.len() - out.len()));
    }
    out
}

/// The first-error rule, checked against the text itself: an error on
/// line `L` means the first `L - 1` lines parse, and the first `L`
/// lines fail with that same error.
fn first_error_holds(text: &str, parsed: &Result<ParsedNetlist, lip_graph::ParseNetlistError>) {
    let Err(e) = parsed else {
        return;
    };
    let line = e.span.line as usize;
    let before = parse_netlist_spanned(&prefix(text, line - 1));
    assert!(before.is_ok(), "{e} but the lines above fail: {before:?}");
    let upto = parse_netlist_spanned(&prefix(text, line))
        .map(|_| ())
        .unwrap_err();
    assert_eq!(&upto, e);
}

/// A line inserted before original line `at` (0-based): `(at, line)`.
type Edit = (usize, String);

/// A design of a few thousand statements: several settle batches.
fn big_text() -> String {
    write_netlist(&generate::tree(9, 2, 1).netlist)
}

#[test]
fn errors_deep_in_a_big_text_come_out_in_text_order() {
    let text = big_text();
    let source = parse_netlist_spanned(&text).unwrap().names()["in"];
    let lines: Vec<&str> = text.lines().collect();
    let decl = |i: usize| lines[i].split_whitespace().nth(1).unwrap().to_owned();
    let first_connect = lines.iter().position(|l| l.starts_with("connect")).unwrap();
    // Each edit inserts a line before original line `at` (0-based).
    let with = |edits: &[Edit]| {
        let mut sorted = edits.to_vec();
        sorted.sort_by_key(|&(at, _)| std::cmp::Reverse(at));
        let mut out: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
        for (at, line) in sorted {
            out.insert(at, line);
        }
        out.join("\n")
    };
    let busy_port = || {
        ParseErrorKind::Connect(NetlistError::PortAlreadyConnected {
            node: source,
            port: 0,
            output: true,
        })
    };
    let dup = |at: usize, of: usize| (at, format!("sink {}", decl(of)));
    let unknown = |at: usize| (at, "connect nowhere:0 -> out0:0".to_owned());
    let busy = |at: usize| (at, lines[first_connect].to_owned());
    let syntax = |at: usize| (at, "relay r9 slow".to_owned());
    let slow = || ParseErrorKind::UnknownRelayKind("slow".into());
    // Each case: its inserted lines, and the error and where it is.
    let cases: Vec<(Vec<Edit>, ParseErrorKind, usize)> = vec![
        (
            vec![dup(1500, 3)],
            ParseErrorKind::DuplicateName(decl(3)),
            1500,
        ),
        (
            vec![dup(1500, 3), unknown(first_connect + 1200)],
            ParseErrorKind::DuplicateName(decl(3)),
            1500,
        ),
        (
            vec![unknown(first_connect + 1200), syntax(first_connect + 1900)],
            ParseErrorKind::UnknownNode("nowhere".into()),
            first_connect + 1200,
        ),
        (
            vec![syntax(first_connect + 5), unknown(first_connect + 1200)],
            slow(),
            first_connect + 5,
        ),
        (
            vec![busy(first_connect + 1100)],
            busy_port(),
            first_connect + 1100,
        ),
        (
            vec![dup(first_connect + 2000, 0), busy(first_connect + 1025)],
            busy_port(),
            first_connect + 1025,
        ),
    ];
    for (edits, kind, at) in cases {
        let text = with(&edits);
        let parsed = parse_netlist_spanned(&text);
        let e = parsed.as_ref().map(|_| ()).unwrap_err();
        // Every case's first edit in text order is the error.
        assert_eq!(e.kind, kind, "{edits:?}");
        assert_eq!(e.span.line as usize, at + 1, "{edits:?}: {e}");
        first_error_holds(&text, &parsed);
    }
}

#[test]
fn a_connect_never_names_a_node_declared_below_it() {
    let mut text = big_text();
    text.push_str("connect latecomer:0 -> out0:0\nsource latecomer\n");
    let e = parse_netlist_spanned(&text).unwrap_err();
    assert_eq!(e.kind, ParseErrorKind::UnknownNode("latecomer".into()));
    first_error_holds(&text, &Err(e));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lines of a big design dropped, doubled or swapped: whatever the
    /// parser reports obeys the first-error rule.
    #[test]
    fn shuffled_big_texts_keep_the_first_error_rule(
        edits in proptest::collection::vec((0u8..3, any::<u64>(), any::<u64>()), 1..5),
    ) {
        let text = big_text();
        let mut lines: Vec<&str> = text.lines().collect();
        for &(op, a, b) in &edits {
            let (i, j) = ((a % lines.len() as u64) as usize, (b % lines.len() as u64) as usize);
            match op {
                0 => {
                    lines.remove(i);
                }
                1 => lines.insert(i, lines[j]),
                _ => lines.swap(i, j),
            }
        }
        let text = lines.join("\n");
        first_error_holds(&text, &parse_netlist_spanned(&text));
    }
}
