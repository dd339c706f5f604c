//! One elaboration per netlist. Validation, compilation and the
//! binding-cycle solve are reused per thread by the netlist's stamp, so
//! the stamp must change on every mutation and survive only `clone`,
//! and whatever is reused must equal what a fresh elaboration builds.

use std::sync::Arc;

use lip_core::pearl::IdentityPearl;
use lip_core::{Pattern, ProtocolVariant, RelayKind};
use lip_graph::{generate, Netlist, NodeKind};
use lip_sim::model::{binding_delay, netlist_binding_cycle, MarkedGraph};
use lip_sim::{NetlistDelta, SettleProgram};
use proptest::prelude::*;

/// The first node of `netlist` that `is` accepts, or node 0.
fn first_node(netlist: &Netlist, is: impl Fn(&NodeKind) -> bool) -> lip_graph::NodeId {
    netlist
        .nodes()
        .find(|(_, node)| is(node.kind()))
        .map_or(lip_graph::NodeId::from_index(0), |(id, _)| id)
}

/// Apply public `&mut` method number `op` of [`Netlist`] to `netlist`
/// and name it. `arg` picks a pattern or kind. Methods that may refuse
/// (a taken port, a node of the wrong kind) are called anyway: a refusal
/// renews the stamp too.
fn mutate(netlist: &mut Netlist, op: u8, arg: u8) -> &'static str {
    let pattern = Pattern::EveryNth {
        period: u32::from(arg % 4) + 2,
        phase: 1,
    };
    let kind = match arg % 3 {
        0 => RelayKind::Full,
        1 => RelayKind::Half,
        _ => RelayKind::Fifo(arg % 5 + 2),
    };
    match op % 18 {
        0 => {
            netlist.add_source("s");
            "add_source"
        }
        1 => {
            netlist.add_source_with_pattern("s", pattern);
            "add_source_with_pattern"
        }
        2 => {
            netlist.add_sink("k");
            "add_sink"
        }
        3 => {
            netlist.add_sink_with_pattern("k", pattern);
            "add_sink_with_pattern"
        }
        4 => {
            netlist.add_shell("a", IdentityPearl::new());
            "add_shell"
        }
        5 => {
            netlist.add_shell_boxed("a", Box::new(IdentityPearl::new()));
            "add_shell_boxed"
        }
        6 => {
            netlist.add_buffered_shell("b", IdentityPearl::new());
            "add_buffered_shell"
        }
        7 => {
            netlist.add_buffered_shell_boxed("b", Box::new(IdentityPearl::new()));
            "add_buffered_shell_boxed"
        }
        8 => {
            netlist.add_relay(kind);
            "add_relay"
        }
        9 => {
            netlist.add_relay_named("r", kind);
            "add_relay_named"
        }
        10 => {
            let variant = if arg.is_multiple_of(2) {
                ProtocolVariant::Refined
            } else {
                ProtocolVariant::Carloni
            };
            netlist.set_variant(variant);
            "set_variant"
        }
        11 => {
            let node = first_node(netlist, |k| matches!(k, NodeKind::Source { .. }));
            netlist.set_source_pattern(node, pattern);
            "set_source_pattern"
        }
        12 => {
            let node = first_node(netlist, |k| matches!(k, NodeKind::Sink { .. }));
            netlist.set_sink_pattern(node, pattern);
            "set_sink_pattern"
        }
        13 => {
            let (a, b) = (netlist.add_source("s"), netlist.add_sink("k"));
            let before = netlist.stamp();
            netlist.connect(a, 0, b, 0).unwrap();
            assert_ne!(netlist.stamp(), before, "connect keeps the stamp");
            "connect"
        }
        14 => {
            let (a, b) = (netlist.add_source("s"), netlist.add_sink("k"));
            let before = netlist.stamp();
            netlist.chain(&[a, b]).unwrap();
            assert_ne!(netlist.stamp(), before, "chain keeps the stamp");
            "chain"
        }
        15 => {
            let (a, b) = (netlist.add_source("s"), netlist.add_sink("k"));
            let before = netlist.stamp();
            netlist
                .connect_via_relays(a, 0, b, 0, usize::from(arg % 3), kind)
                .unwrap();
            assert_ne!(
                netlist.stamp(),
                before,
                "connect_via_relays keeps the stamp"
            );
            "connect_via_relays"
        }
        16 => {
            if netlist.channel_count() == 0 {
                let (a, b) = (netlist.add_source("s"), netlist.add_sink("k"));
                netlist.connect(a, 0, b, 0).unwrap();
            }
            let ch = netlist.channels().next().expect("a channel").0;
            netlist.insert_relay_on_channel(ch, kind);
            "insert_relay_on_channel"
        }
        _ => {
            let node = match netlist.relays().first() {
                Some(&node) => node,
                None => netlist.add_relay(RelayKind::Full),
            };
            netlist.set_relay_kind(node, kind);
            "set_relay_kind"
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every public `&mut` method draws a fresh stamp, and `clone`
    /// keeps it.
    #[test]
    fn every_mutator_renews_the_stamp_and_clone_keeps_it(
        family_seed in 0u64..64,
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..24),
    ) {
        let (_, mut netlist) = generate::random_family(family_seed);
        for (op, arg) in ops {
            let before = netlist.stamp();
            let copy = netlist.clone();
            prop_assert_eq!(copy.stamp(), before, "clone drew a stamp");
            let name = mutate(&mut netlist, op, arg);
            prop_assert_ne!(netlist.stamp(), before, "{} kept the stamp", name);
            prop_assert_eq!(copy.stamp(), before, "{} moved the clone's stamp", name);
        }
    }

    /// Every [`NetlistDelta`], applied through `apply_to`, draws a fresh
    /// stamp.
    #[test]
    fn every_delta_renews_the_stamp(family_seed in 0u64..64, arg in any::<u8>()) {
        let (_, netlist) = generate::random_family(family_seed);
        let kind = if arg.is_multiple_of(2) { RelayKind::Full } else { RelayKind::Fifo(arg % 5 + 2) };
        let pattern = Pattern::EveryNth { period: u32::from(arg % 4) + 2, phase: 0 };
        let mut deltas = vec![NetlistDelta::InsertRelay {
            channel: netlist.channels().next().expect("a channel").0,
            kind,
        }];
        if let Some(&node) = netlist.relays().first() {
            deltas.push(NetlistDelta::SetRelayKind { node, kind });
        }
        if let Some(&node) = netlist.sources().first() {
            deltas.push(NetlistDelta::SetSourcePattern { node, pattern: pattern.clone() });
        }
        if let Some(&node) = netlist.sinks().first() {
            deltas.push(NetlistDelta::SetSinkPattern { node, pattern });
        }
        for delta in &deltas {
            let mut edited = netlist.clone();
            delta.apply_to(&mut edited);
            prop_assert_ne!(edited.stamp(), netlist.stamp(), "{:?} kept the stamp", delta);
        }
    }
}

/// Designs with and without binding cycles, valid and elaborating.
fn corpus() -> Vec<Netlist> {
    vec![
        generate::fig1().netlist,
        generate::tree(3, 2, 1).netlist,
        generate::chain(4, 2, RelayKind::Half).netlist,
        generate::ring(3, 2, RelayKind::Full).netlist,
        generate::fork_join(4, 4, 2).netlist,
        generate::composed_coupled(2, 2, 1, 2, 2).netlist,
        generate::buffered_ring(3, 1).netlist,
    ]
}

/// A netlist equal to `netlist` under a fresh stamp: nothing this
/// thread kept can serve it.
fn restamped(netlist: &Netlist) -> Netlist {
    let mut copy = netlist.clone();
    copy.set_variant(netlist.variant());
    copy
}

#[test]
fn a_reused_program_equals_a_fresh_compile() {
    for netlist in corpus() {
        let kept = SettleProgram::compile_shared(&netlist).unwrap();
        let again = SettleProgram::compile_shared(&netlist).unwrap();
        assert!(
            Arc::ptr_eq(&kept, &again),
            "the second compile was not reused"
        );
        let served = SettleProgram::compile(&netlist).unwrap();
        let fresh = SettleProgram::compile_shared(&restamped(&netlist)).unwrap();
        assert!(
            !Arc::ptr_eq(&fresh, &kept),
            "a new stamp reused the program"
        );
        assert_eq!(served, *fresh);
        assert_eq!(
            served.stable_structural_hash(),
            fresh.stable_structural_hash()
        );
    }
}

#[test]
fn a_mutated_netlist_compiles_its_new_contents() {
    let mut netlist = generate::fig1().netlist;
    let before = SettleProgram::compile(&netlist).unwrap();
    let sink = netlist.sinks()[0];
    netlist.set_sink_pattern(
        sink,
        Pattern::EveryNth {
            period: 3,
            phase: 0,
        },
    );
    let after = SettleProgram::compile(&netlist).unwrap();
    assert_ne!(before, after, "a pattern edit served the old program");
    assert_eq!(
        after,
        *SettleProgram::compile_shared(&restamped(&netlist)).unwrap()
    );
}

/// Repeated, so other tests compiling at the same time cannot hide a
/// slot that threads share.
#[test]
fn a_second_thread_compiles_afresh() {
    let netlist = generate::ring(3, 2, RelayKind::Full).netlist;
    for _ in 0..64 {
        let here = SettleProgram::compile_shared(&netlist).unwrap();
        let there = std::thread::scope(|s| {
            s.spawn(|| SettleProgram::compile_shared(&netlist).unwrap())
                .join()
                .unwrap()
        });
        assert!(
            !Arc::ptr_eq(&here, &there),
            "another thread's program was reused"
        );
        assert_eq!(*here, *there);
    }
}

#[test]
fn the_shared_binding_cycle_equals_a_fresh_solve() {
    for mut netlist in corpus() {
        for _ in 0..2 {
            let solved = MarkedGraph::new(&netlist).binding_cycle();
            assert_eq!(netlist_binding_cycle(&netlist), solved);
            assert_eq!(netlist_binding_cycle(&netlist), solved, "reuse");
            assert_eq!(
                binding_delay(&netlist),
                solved.map(|(cycle, _)| cycle.iter().map(|e| e.delay).sum())
            );
            // A relay on the first channel moves or makes the cycle.
            let ch = netlist.channels().next().unwrap().0;
            netlist.insert_relay_on_channel(ch, RelayKind::Full);
        }
    }
}
