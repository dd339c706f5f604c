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

/// A programmatically built netlist can carry an endpoint pattern that
/// is undefined on some cycle. Validation names the endpoint, every
/// entry point that elaborates returns that error, and `lint` returns
/// its diagnostics; nothing panics.
#[test]
fn malformed_endpoint_patterns_are_typed_errors() {
    use lip_core::{Pattern, RelayKind};
    use lip_graph::{generate, NetlistError, SourceMap};
    use lip_lint::RuleId;
    use lip_mc::McError;
    use lip_sim::measure::{check_liveness, measure, measure_activity};
    use lip_sim::{SkeletonSystem, System};

    let malformed = [
        Pattern::EveryNth {
            period: 0,
            phase: 0,
        },
        Pattern::Cyclic(Vec::new()),
        Pattern::Random {
            num: 1,
            denom: 0,
            seed: 7,
        },
    ];
    // Shells wired back-to-back: LIP001 fires on structure alone.
    let pristine = generate::chain(3, 0, RelayKind::Full).netlist;
    let structural: Vec<RuleId> = lint(&pristine, &SourceMap::new())
        .iter()
        .map(|d| d.rule)
        .filter(|&r| r < RuleId::Lip004)
        .collect();
    assert!(!structural.is_empty());
    for pattern in malformed {
        for on_source in [true, false] {
            let mut netlist = pristine.clone();
            let node = if on_source {
                let node = netlist.sources()[0];
                assert!(netlist.set_source_pattern(node, pattern.clone()));
                node
            } else {
                let node = netlist.sinks()[0];
                assert!(netlist.set_sink_pattern(node, pattern.clone()));
                node
            };
            let what = format!("{pattern:?} on {node}");
            let want = NetlistError::MalformedPattern {
                node,
                defect: pattern.malformation().expect("malformed"),
            };
            assert_eq!(netlist.validate(), Err(want.clone()), "{what}: validate");
            let compiled = SettleProgram::compile(&netlist).map(|_| ());
            assert_eq!(compiled, Err(want.clone()), "{what}: compile");
            let skeleton = SkeletonSystem::new(&netlist).map(|_| ());
            assert_eq!(skeleton, Err(want.clone()), "{what}: skeleton");
            assert_eq!(System::new(&netlist).err(), Some(want.clone()), "{what}");
            let proof = check_declared(&netlist, &McConfig::default()).map(|_| ());
            assert_eq!(proof, Err(McError::Netlist(want.clone())), "{what}: mc");
            assert_eq!(measure(&netlist).err(), Some(want.clone()), "{what}");
            let activity = measure_activity(&netlist).map(|_| ());
            assert_eq!(activity, Err(want.clone()), "{what}: activity");
            let liveness = check_liveness(&netlist, 100, 100).map(|_| ());
            assert_eq!(liveness, Err(want), "{what}: liveness");
            // The structural rules still report; the model-based ones
            // stay silent on a netlist that does not elaborate.
            let rules: Vec<RuleId> = lint(&netlist, &SourceMap::new())
                .iter()
                .map(|d| d.rule)
                .collect();
            assert_eq!(rules, structural, "{what}: lint");
        }
    }
}
