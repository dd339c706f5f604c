//! The verification tooling must be reproducible: identical inputs give
//! identical verdicts, state counts and counterexamples.

use lip_core::ProtocolVariant;
use lip_verify::{explore, verify_all, Dut, ShellSpec};

#[test]
fn block_exploration_is_deterministic() {
    for mk in [
        || Dut::full_relay(),
        || Dut::half_relay(),
        || Dut::naive_one_reg(),
        || Dut::shell(ShellSpec::Join2, ProtocolVariant::Refined),
    ] {
        let a = explore(mk(), 5);
        let b = explore(mk(), 5);
        assert_eq!(a.holds, b.holds);
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.violation, b.violation);
        assert_eq!(a.counterexample, b.counterexample);
    }
}

#[test]
fn report_is_stable_across_depths() {
    // Increasing the bound can only grow the explored space; verdicts on
    // safe blocks never flip.
    for depth in 3..=6u64 {
        for row in verify_all(depth) {
            assert!(row.as_expected(), "{} at depth {depth}", row.block);
        }
    }
}

#[test]
fn deeper_bounds_explore_more_states() {
    let shallow = explore(Dut::full_relay(), 3);
    let deep = explore(Dut::full_relay(), 7);
    assert!(deep.states >= shallow.states);
    assert!(deep.holds && shallow.holds);
}
