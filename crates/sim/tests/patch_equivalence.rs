//! Property suite for the incremental-compilation layer: random
//! netlists under random single-relay edit sequences.
//!
//! Three invariants, checked after *every committed edit* and again at
//! the end of each sequence:
//!
//! 1. **Structural** — the patched [`SettleProgram`] compares equal
//!    (tables, op tape — `PartialEq`) to a from-scratch compile of the
//!    identically edited netlist, and the incrementally maintained
//!    [`stable_structural_hash`](SettleProgram::stable_structural_hash)
//!    equals the full recompute.
//! 2. **Measured** — a [`ThroughputCache`] keyed by the patched
//!    program reports the same exact Ratio and Periodicity as a direct
//!    measurement of the edited netlist.
//! 3. **Behavioural** — a [`BatchSkeleton`] that *adopts* the patched
//!    program at reset steps identically to one built from the fresh
//!    compile: same per-lane sink consumption/void counts and the same
//!    total fire count.
//!
//! Edits that would make the netlist invalid (e.g. rewriting every
//! relay of a feedback loop to half) are refused: `recompile_delta`
//! returns [`PatchError::Invalid`] with the error `validate` gives the
//! edited netlist, and leaves the program as it was.

use std::mem::discriminant;
use std::sync::Arc;

use lip_core::RelayKind;
use lip_graph::{generate, Netlist, NodeKind};
use lip_sim::{
    measure, BatchSkeleton, LanePatterns, NetlistDelta, PatchError, SettleProgram, ThroughputCache,
    LANES,
};
use proptest::prelude::*;

const RUN_CYCLES: u64 = 200;

/// Decode one edit from two raw proptest words against the *current*
/// netlist shape. Returns `None` when the netlist has no relay to edit.
fn decode_edit(netlist: &Netlist, sel: u16, raw_kind: u8) -> Option<NetlistDelta> {
    let kind = match raw_kind % 8 {
        0 => RelayKind::Full,
        1 => RelayKind::Half,
        k => RelayKind::Fifo(k), // capacities 2..=7
    };
    if sel % 4 == 3 {
        // Insertion: split an existing channel.
        let channels: Vec<_> = netlist.channels().map(|(id, _)| id).collect();
        let channel = channels[(sel as usize / 4) % channels.len()];
        return Some(NetlistDelta::InsertRelay { channel, kind });
    }
    let relays = netlist.relays();
    if relays.is_empty() {
        return None;
    }
    let node = relays[(sel as usize / 4) % relays.len()];
    Some(NetlistDelta::SetRelayKind { node, kind })
}

/// Current kind of `node`, for reporting.
fn relay_kind(netlist: &Netlist, delta: &NetlistDelta) -> Option<RelayKind> {
    if let NetlistDelta::SetRelayKind { node, .. } = delta {
        if let NodeKind::Relay { kind } = netlist.node(*node).kind() {
            return Some(*kind);
        }
    }
    None
}

/// Step engines built from the patched and the fresh program in
/// lockstep; every lane must agree on sink counts and total fires. The
/// patched engine takes the *adopt* path: built from the pre-edit
/// program, then re-pointed at the patched program, the
/// state-preserving invalidation the edit loop performs.
fn assert_engines_agree(
    base: &Arc<SettleProgram>,
    patched: &Arc<SettleProgram>,
    fresh: &Arc<SettleProgram>,
    netlist: &Netlist,
) {
    let pats = LanePatterns::broadcast(patched);
    let mut adopted = BatchSkeleton::from_program(Arc::clone(base));
    adopted.adopt(Arc::clone(patched));
    let mut scratch = BatchSkeleton::from_program(Arc::clone(fresh));
    adopted.run_patterns(&pats, RUN_CYCLES);
    scratch.run_patterns(&pats, RUN_CYCLES);
    for lane in [0, LANES / 2, LANES - 1] {
        assert_eq!(
            adopted.total_fires_lane(lane),
            scratch.total_fires_lane(lane),
            "lane {lane} fires diverged"
        );
        for (id, node) in netlist.nodes() {
            if matches!(node.kind(), NodeKind::Sink { .. }) {
                assert_eq!(
                    adopted.sink_counts_lane(id, lane),
                    scratch.sink_counts_lane(id, lane),
                    "lane {lane} sink {id} diverged"
                );
            }
        }
    }
}

/// Apply `edits` to `netlist` one by one, checking each committed edit
/// against a fresh compile and each refused one against `validate`,
/// then the measurement and the engine adopt path on the result.
fn check_edit_sequence(mut netlist: Netlist, edits: Vec<(u16, u8)>) -> Result<(), TestCaseError> {
    let base = Arc::new(SettleProgram::compile(&netlist).unwrap());
    let mut prog = (*base).clone();
    let mut committed = 0u32;
    for (sel, raw_kind) in edits {
        let Some(delta) = decode_edit(&netlist, sel, raw_kind) else {
            continue;
        };
        // A kind edit that is a structural no-op is skipped, like the
        // edit loop itself would.
        if relay_kind(&netlist, &delta)
            == match &delta {
                NetlistDelta::SetRelayKind { kind, .. } => Some(*kind),
                _ => None,
            }
        {
            continue;
        }
        let mut trial = netlist.clone();
        delta.apply_to(&mut trial);
        if let Err(invalid) = trial.validate() {
            // The patcher refuses it with the validator's error and
            // leaves the program as it was.
            let before = prog.clone();
            let refused = prog.recompile_delta(&delta);
            prop_assert!(
                matches!(&refused, Err(PatchError::Invalid(e)) if discriminant(e) == discriminant(&invalid)),
                "{:?} on {:?}: want Invalid({})",
                refused,
                delta,
                invalid
            );
            prop_assert!(prog == before, "a refused {:?} changed the program", delta);
            prop_assert_eq!(
                prog.stable_structural_hash(),
                before.stable_structural_hash()
            );
            continue;
        }
        netlist = trial;
        prog.recompile_delta(&delta).unwrap();
        committed += 1;
        let fresh = SettleProgram::compile(&netlist).unwrap();
        prop_assert!(prog == fresh, "patched != fresh after {delta:?}");
        prop_assert_eq!(
            prog.stable_structural_hash(),
            fresh.stable_structural_hash(),
            "incremental hash != full recompute after {:?}",
            delta
        );
        // The IR verifier must accept every patched program — it
        // runs here unconditionally (not just under
        // debug_assertions), so release-mode CI still exercises it.
        if let Err(e) = prog.verify() {
            prop_assert!(
                false,
                "IR verifier rejected patched program after {:?}: {}",
                delta,
                e
            );
        }
    }
    if committed == 0 {
        return Ok(());
    }
    let fresh = Arc::new(SettleProgram::compile(&netlist).unwrap());

    // Measurement equivalence: the program-keyed cache path on the
    // patched program vs a direct measurement of the netlist. The
    // miss measures the patched program itself, never a netlist.
    let mut cache = ThroughputCache::new();
    let via_patched = cache
        .measure_program_with(&prog, Default::default(), || {
            panic!("a miss must measure the patched program")
        })
        .unwrap();
    let direct = measure(&netlist).unwrap();
    prop_assert_eq!(via_patched.periodicity, direct.periodicity);
    prop_assert_eq!(via_patched.system_throughput(), direct.system_throughput());

    // Behavioural equivalence of the engine adopt path.
    let patched = Arc::new(prog);
    assert_engines_agree(&base, &patched, &fresh, &netlist);
    Ok(())
}

/// A one-shell pipeline plus a detached loop of relay stations of
/// `kinds` (`u8 % 8` decoded like an edit, the first forced to full so
/// the loop starts valid): the loop holds every relay, and a kind edit
/// to half on its last full or FIFO relay closes a data loop.
fn pipeline_with_relay_loop(kinds: &[u8]) -> Netlist {
    let mut netlist = generate::chain(1, 0, RelayKind::Full).netlist;
    let relays: Vec<_> = kinds
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            netlist.add_relay(match (i, k % 8) {
                (0, _) | (_, 0) => RelayKind::Full,
                (_, 1) => RelayKind::Half,
                (_, k) => RelayKind::Fifo(k),
            })
        })
        .collect();
    for (i, &r) in relays.iter().enumerate() {
        netlist
            .connect(r, 0, relays[(i + 1) % relays.len()], 0)
            .unwrap();
    }
    netlist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random edit sequences keep the patched program byte-equal,
    /// hash-equal, measurement-equal and behaviourally equal to
    /// from-scratch compiles.
    #[test]
    fn random_edit_sequences_match_fresh_compiles(
        family_seed in 0u64..64,
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..7),
    ) {
        let (_, netlist) = generate::random_family(family_seed);
        if netlist.validate().is_ok() {
            check_edit_sequence(netlist, edits)?;
        }
    }

    /// On a design with a loop of relay stations, an edit that makes
    /// the loop all half is refused with the validator's data loop and
    /// changes nothing; every other edit still matches a fresh compile.
    #[test]
    fn edits_closing_a_half_relay_loop_are_refused(
        kinds in proptest::collection::vec(any::<u8>(), 1..4),
        edits in proptest::collection::vec((any::<u16>(), 1u8..2), 1..7),
    ) {
        check_edit_sequence(pipeline_with_relay_loop(&kinds), edits)?;
    }
}
