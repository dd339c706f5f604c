//! The declared-environment proof is handed off, not proved twice: a
//! proof read through `check_declared_and_hand_off` serves the next
//! `check_declared` of the same netlist and `max_states`, equal in every
//! field to a fresh proof, and nothing else takes it.

use lip_core::{Pattern, RelayKind};
use lip_graph::{generate, Netlist};
use lip_mc::{check_declared, check_declared_and_hand_off, DeclaredProof, McConfig, McError};
use lip_obs::{flight, FlightRecorder};

fn assert_same(a: &DeclaredProof, b: &DeclaredProof) {
    assert_eq!(a.states, b.states);
    assert_eq!(a.stem, b.stem);
    assert_eq!(a.period, b.period);
    assert_eq!(a.throughput, b.throughput);
    assert_eq!(a.relay_bounds, b.relay_bounds);
    assert_eq!(a.dead_shells, b.dead_shells);
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.peak_arena_bytes, b.peak_arena_bytes);
}

/// The only test here whose `check_declared` takes a handed-off proof,
/// so the process-wide `mc.proof.reused` counter counts its handoffs.
#[test]
fn a_handed_off_proof_equals_a_fresh_proof() {
    let cfg = McConfig::default();
    let rec = FlightRecorder::new();
    flight::install(&rec);
    let designs = [
        generate::fig1().netlist,
        generate::ring(3, 2, RelayKind::Full).netlist,
        generate::fork_join(4, 4, 2).netlist,
    ];
    for netlist in &designs {
        let states = check_declared_and_hand_off(netlist, &cfg, |p| p.states).unwrap();
        let handed = check_declared(netlist, &cfg).unwrap();
        assert_eq!(handed.states, states);
        // The slot is empty now: this proves again.
        let fresh = check_declared(netlist, &cfg).unwrap();
        assert_same(&handed, &fresh);
    }
    flight::uninstall();
    let reused = rec.drain().counters.get("mc.proof.reused").copied();
    assert_eq!(reused, Some(designs.len() as u64));
}

#[test]
fn a_different_max_states_misses_the_slot() {
    let netlist = generate::ring(3, 2, RelayKind::Full).netlist;
    check_declared_and_hand_off(&netlist, &McConfig::default(), |_| ()).unwrap();
    // A handed-off proof would be `Ok`; a fresh one runs into the cap.
    let capped = check_declared(&netlist, &McConfig { max_states: 1 });
    assert!(
        matches!(capped, Err(McError::StateCap { .. })),
        "{capped:?}"
    );
}

#[test]
fn an_edited_netlist_misses_the_slot() {
    let cfg = McConfig::default();
    let mut netlist: Netlist = generate::fig1().netlist;
    let before =
        check_declared_and_hand_off(&netlist, &cfg, DeclaredProof::system_throughput).unwrap();
    let sink = netlist.sinks()[0];
    netlist.set_sink_pattern(
        sink,
        Pattern::EveryNth {
            period: 2,
            phase: 0,
        },
    );
    let after = check_declared(&netlist, &cfg).unwrap();
    assert_ne!(
        after.system_throughput(),
        before,
        "the old proof was served"
    );
    let clone = netlist.clone();
    assert_same(&after, &check_declared(&clone, &cfg).unwrap());
}
