//! Netlists the validator rejects, fed through every public entry point
//! that elaborates one: each returns the typed [`NetlistError`] and none
//! panics. Every entry point validates before it elaborates, so the
//! `expect`s elaboration keeps (in `System::new`: a port's channel, an
//! acyclic data and stop order) are never reached on these netlists.

use lip_core::pearl::IdentityPearl;
use lip_core::RelayKind;
use lip_graph::{generate, Netlist, NetlistError};
use lip_sim::{
    measure, measure_activity, measure_batch_periodic, profile_netlist, Evolution, LanePatterns,
    ProfileOptions, SettleProgram, SkeletonSystem, System,
};

/// A ring of two shells and no relay station: its stop path is
/// combinational.
fn stop_loop() -> Netlist {
    generate::ring(2, 0, RelayKind::Full).netlist
}

/// Two half relay stations in a loop: they register the stop, but bypass
/// data while empty, so the data path is combinational.
fn data_loop() -> Netlist {
    let mut n = Netlist::new();
    let a = n.add_relay(RelayKind::Half);
    let b = n.add_relay(RelayKind::Half);
    n.connect(a, 0, b, 0).unwrap();
    n.connect(b, 0, a, 0).unwrap();
    n
}

/// A shell with its input port left unconnected.
fn dangling() -> Netlist {
    let mut n = Netlist::new();
    let shell = n.add_shell("A", IdentityPearl::new());
    let sink = n.add_sink("out");
    n.connect(shell, 0, sink, 0).unwrap();
    n
}

/// Every public entry point that elaborates `netlist`, by name, with the
/// error it returned (`None` if it accepted the netlist).
fn entry_points(netlist: &Netlist) -> Vec<(&'static str, Option<NetlistError>)> {
    vec![
        ("System::new", System::new(netlist).err()),
        ("SkeletonSystem::new", SkeletonSystem::new(netlist).err()),
        (
            "SettleProgram::compile",
            SettleProgram::compile(netlist).err(),
        ),
        ("measure", measure(netlist).err()),
        ("measure_activity", measure_activity(netlist).err()),
        (
            "Evolution::record",
            Evolution::record(netlist, &[], 4).err(),
        ),
        (
            "profile_netlist",
            profile_netlist(netlist, ProfileOptions::default()).err(),
        ),
        (
            "measure_batch_periodic",
            SettleProgram::compile(&generate::fig1().netlist)
                .ok()
                .and_then(|prog| {
                    measure_batch_periodic(netlist, &LanePatterns::broadcast(&prog), 64).err()
                }),
        ),
    ]
}

#[test]
fn hostile_netlists_get_typed_errors_from_every_entry_point() {
    type Kind = fn(&NetlistError) -> bool;
    let cases: [(&str, Netlist, Kind); 3] = [
        (
            "stop loop",
            stop_loop(),
            |e| matches!(e, NetlistError::StopLoop { cycle } if !cycle.is_empty()),
        ),
        (
            "data loop",
            data_loop(),
            |e| matches!(e, NetlistError::DataLoop { cycle } if !cycle.is_empty()),
        ),
        ("dangling port", dangling(), |e| {
            matches!(e, NetlistError::UnconnectedPort { output: false, .. })
        }),
    ];
    for (what, netlist, kind) in cases {
        for (entry, err) in entry_points(&netlist) {
            let err = err.unwrap_or_else(|| panic!("{entry} accepted a {what}"));
            assert!(kind(&err), "{entry} on a {what}: {err}");
        }
    }
}
