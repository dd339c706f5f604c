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
//! 3. **Behavioural across widths** — a [`BatchEngine`] that *adopts*
//!    the patched program at reset steps identically to one built
//!    from the fresh compile, at widths 64 (`u64`) and 1024
//!    ([`Lanes1024`]): same per-lane sink consumption/void counts and
//!    the same total fire count.
//!
//! Edits that would make the netlist invalid (e.g. rewriting every
//! relay of a feedback loop to half) are skipped — the netlist mutation
//! API allows them, but neither path can compile the result.

use std::sync::Arc;

use lip_core::RelayKind;
use lip_graph::{generate, Netlist, NodeKind};
use lip_sim::{
    measure, BatchEngine, LanePatterns, LaneWord, Lanes1024, NetlistDelta, SettleProgram,
    ThroughputCache,
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
/// lockstep at width `W`; every lane must agree on sink counts and
/// total fires. The patched engine takes the *adopt* path: built from
/// the pre-edit program, then re-pointed at the patched program, the
/// state-preserving invalidation the edit loop performs.
fn assert_engines_agree<W: LaneWord>(
    base: &Arc<SettleProgram>,
    patched: &Arc<SettleProgram>,
    fresh: &Arc<SettleProgram>,
    netlist: &Netlist,
) {
    let pats = LanePatterns::broadcast_wide(patched, W::LANES);
    let mut adopted = BatchEngine::<W>::from_program(Arc::clone(base));
    adopted.adopt(Arc::clone(patched));
    let mut scratch = BatchEngine::<W>::from_program(Arc::clone(fresh));
    adopted.run_patterns(&pats, RUN_CYCLES);
    scratch.run_patterns(&pats, RUN_CYCLES);
    for lane in [0, W::LANES / 2, W::LANES - 1] {
        assert_eq!(
            adopted.total_fires_lane(lane),
            scratch.total_fires_lane(lane),
            "width {} lane {lane} fires diverged",
            W::LANES
        );
        for (id, node) in netlist.nodes() {
            if matches!(node.kind(), NodeKind::Sink { .. }) {
                assert_eq!(
                    adopted.sink_counts_lane(id, lane),
                    scratch.sink_counts_lane(id, lane),
                    "width {} lane {lane} sink {id} diverged",
                    W::LANES
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random edit sequences keep the patched program byte-equal,
    /// hash-equal, measurement-equal and behaviourally equal (widths
    /// 64 and 1024) to from-scratch compiles.
    #[test]
    fn random_edit_sequences_match_fresh_compiles(
        family_seed in 0u64..64,
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..7),
    ) {
        let (_, mut netlist) = generate::random_family(family_seed);
        if netlist.validate().is_err() {
            return Ok(());
        }
        let base = Arc::new(SettleProgram::compile(&netlist).unwrap());
        let mut prog = (*base).clone();
        let mut committed = 0u32;
        for (sel, raw_kind) in edits {
            let Some(delta) = decode_edit(&netlist, sel, raw_kind) else {
                continue;
            };
            // A kind edit that is a structural no-op or would break
            // validation is skipped, like the edit loop itself would.
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
            if trial.validate().is_err() {
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
                "incremental hash != full recompute after {:?}", delta
            );
            // The IR verifier must accept every patched program — it
            // runs here unconditionally (not just under
            // debug_assertions), so release-mode CI still exercises it.
            if let Err(e) = prog.verify() {
                prop_assert!(false, "IR verifier rejected patched program after {:?}: {}", delta, e);
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

        // Behavioural equivalence of the engine adopt path, narrow and
        // widest word shapes.
        let patched = Arc::new(prog);
        assert_engines_agree::<u64>(&base, &patched, &fresh, &netlist);
        assert_engines_agree::<Lanes1024>(&base, &patched, &fresh, &netlist);
    }
}
