//! Hostile input through the whole `.lid` path: random 1–4-byte
//! mutations of the shipped `designs/*.lid` go through parse →
//! validate → `lint` → `check_declared` → `SettleProgram::compile`.
//! Every stage must either succeed or return its typed error; none may
//! panic.

use lip_graph::parse_netlist_spanned;
use lip_lint::lint;
use lip_mc::{check_declared, McConfig};
use lip_sim::SettleProgram;
use proptest::prelude::*;

const DESIGNS: [&str; 3] = [
    include_str!("../../../designs/fig1.lid"),
    include_str!("../../../designs/soc.lid"),
    include_str!("../../../designs/buffered_loop.lid"),
];

/// One byte edit: `(position seed, op, byte)`. Op 0 overwrites, 1
/// inserts, 2 deletes; the position wraps into the current text.
type Edit = (usize, u8, u8);

/// `design` with `edits` applied in order, read back lossily as UTF-8
/// (the parser takes `&str`, so invalid bytes become U+FFFD).
fn mutate(design: &str, edits: &[Edit]) -> String {
    let mut bytes = design.as_bytes().to_vec();
    for &(pos, op, byte) in edits {
        let at = pos % (bytes.len() + 1);
        match op % 3 {
            0 if at < bytes.len() => bytes[at] = byte,
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Bytes a mutation writes: mostly the characters `.lid` is made of,
/// so edits land in numbers, names and keywords, plus arbitrary bytes.
fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        Just(b'0'),
        Just(b'9'),
        Just(b' '),
        Just(b'\n'),
        Just(b'-'),
        Just(b'#'),
        Just(b'.'),
        Just(b'x'),
        any::<u8>(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// No stage panics on a mutated design; each returns its typed
    /// error or a value.
    #[test]
    fn mutated_designs_never_panic(
        design in 0usize..DESIGNS.len(),
        edits in proptest::collection::vec((any::<usize>(), 0u8..3, byte()), 1..5),
    ) {
        let text = mutate(DESIGNS[design], &edits);
        let Ok(parsed) = parse_netlist_spanned(&text) else {
            return Ok(());
        };
        let valid = parsed.netlist.validate().is_ok();
        let _ = lint(&parsed.netlist, &parsed.source_map);
        let cfg = McConfig { max_states: 1 << 12 };
        let _ = check_declared(&parsed.netlist, &cfg);
        let compiled = SettleProgram::compile(&parsed.netlist);
        prop_assert_eq!(compiled.is_ok(), valid, "compile agrees with validate");
    }
}

#[test]
fn unmutated_designs_pass_every_stage() {
    for text in DESIGNS {
        let parsed = parse_netlist_spanned(text).expect("shipped design parses");
        parsed.netlist.validate().expect("shipped design validates");
        let _ = lint(&parsed.netlist, &parsed.source_map);
        check_declared(&parsed.netlist, &McConfig::default()).expect("proof");
        SettleProgram::compile(&parsed.netlist).expect("compile");
    }
}
