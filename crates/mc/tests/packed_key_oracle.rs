//! `check_declared` keys its lasso on the bit-packed control state.
//! This suite checks every proof against an independent oracle: the
//! same [`Lasso`] keyed on `[cycle % env_period] ++ component_state()`,
//! the word-per-component encoding, with counters and relay levels read
//! through the per-node accessors, every fire counted each cycle and
//! the relay maxima scanned each cycle. Packing must never merge two
//! states the word encoding keeps apart, nor split one. The recorded
//! schedule is rebuilt cycle by cycle, and `peak_arena_bytes` comes
//! from a second lasso keyed on the data-carrying [`System`]'s packed
//! key, so the proof's arena is pinned by an engine that does not
//! share the skeleton's step.

use lip_core::{Pattern, RelayKind};
use lip_graph::{generate, parse_netlist, Netlist, NodeId, NodeKind};
use lip_mc::{check_declared, EnvChoice, McConfig};
use lip_sim::lasso::Lasso;
use lip_sim::{Ratio, SkeletonSystem, System};
use proptest::prelude::*;

/// `(states, stem, period, throughput, dead shells, relay bounds,
/// schedule, peak arena bytes)`.
type Proof = (
    usize,
    u64,
    u64,
    Vec<(NodeId, Ratio)>,
    Vec<NodeId>,
    Vec<(NodeId, u32, u32)>,
    Vec<EnvChoice>,
    usize,
);

fn oracle(netlist: &Netlist) -> Proof {
    let mut sys = SkeletonSystem::new(netlist).unwrap();
    // The data-carrying engine has no single-slot FIFO; those designs
    // key the second lasso on the skeleton's own packed key.
    let fifo1 = netlist.relays().into_iter().any(|r| {
        matches!(
            netlist.node(r).kind(),
            NodeKind::Relay {
                kind: RelayKind::Fifo(1)
            }
        )
    });
    let mut full = (!fifo1).then(|| System::new(netlist).unwrap());
    let env = sys.program().env_period().expect("periodic environment");
    let (sinks, shells, relays) = (netlist.sinks(), netlist.shells(), netlist.relays());
    let stop_pats: Vec<Pattern> = sinks
        .iter()
        .map(|&id| match netlist.node(id).kind() {
            NodeKind::Sink { stop_pattern } => stop_pattern.clone(),
            _ => unreachable!("sink"),
        })
        .collect();
    let mut lasso = Lasso::new(0, sinks.len() + shells.len());
    let mut packed = Lasso::new(0, 0);
    let mut relay_max = vec![0; relays.len()];
    let mut schedule = Vec::new();
    loop {
        let mut key = vec![sys.cycle() % env];
        key.extend(sys.component_state());
        let row: Vec<u64> = (sinks.iter().map(|&s| sys.sink_counts(s).unwrap().0))
            .chain(shells.iter().map(|&s| sys.shell_fires(s).unwrap()))
            .collect();
        let full_key = match &full {
            Some(full) => full.control_state(),
            None => sys.control_state(),
        };
        let full_key = full_key.expect("periodic environment");
        let packed_closed = packed.observe(&full_key, &[]).is_some();
        if let Some((p, first)) = lasso.observe(&key, &row) {
            assert!(
                packed_closed,
                "the System's key must recur with the skeleton's"
            );
            let delta: Vec<u64> = row.iter().zip(first).map(|(n, f)| n - f).collect();
            let (sink_d, fire_d) = delta.split_at(sinks.len());
            let throughput = (sinks.iter().zip(sink_d))
                .map(|(&id, &d)| (id, Ratio::new(d, p.period)))
                .collect();
            let dead = (shells.iter().zip(fire_d))
                .filter(|&(_, &d)| d == 0)
                .map(|(&id, _)| id)
                .collect();
            let bounds = (relays.iter().zip(relay_max))
                .map(|(&id, occ)| (id, occ, sys.relay_level(id).unwrap().1))
                .collect();
            return (
                lasso.arena().len(),
                p.transient,
                p.period,
                throughput,
                dead,
                bounds,
                schedule,
                packed.arena().bytes(),
            );
        }
        assert!(!packed_closed, "the System's key recurred first");
        for (max, &r) in relay_max.iter_mut().zip(&relays) {
            *max = (*max).max(sys.relay_level(r).unwrap().0);
        }
        let sink_stop = stop_pats.iter().map(|p| p.at(sys.cycle())).collect();
        sys.step();
        if let Some(full) = &mut full {
            full.step();
        }
        schedule.push(EnvChoice {
            source_valid: sys.source_offers().to_vec(),
            sink_stop,
        });
    }
}

fn assert_matches_oracle(what: &str, netlist: &Netlist) {
    let p = check_declared(netlist, &McConfig::default()).unwrap();
    let got = (
        p.states,
        p.stem,
        p.period,
        p.throughput,
        p.dead_shells,
        p.relay_bounds,
        p.schedule.choices,
        p.peak_arena_bytes,
    );
    assert_eq!(got, oracle(netlist), "{what}");
}

/// Stop every sink on a periodic pattern of its own so the environment
/// phase enters the lasso.
fn stop_sinks(netlist: &mut Netlist, period: u32) {
    for (j, sink) in netlist.sinks().into_iter().enumerate() {
        let p = period + j as u32 % 3;
        let stops = Pattern::EveryNth {
            period: p,
            phase: j as u32 % p,
        };
        assert!(netlist.set_sink_pattern(sink, stops));
    }
}

#[test]
fn every_relay_kind_matches_the_oracle() {
    let mut kinds = vec![RelayKind::Full, RelayKind::Half];
    kinds.extend([1, 2, 3, 4, 7, 8, 255].map(RelayKind::Fifo));
    for kind in kinds {
        for shells in 1..4 {
            for relays in 0..4 {
                let mut chain = generate::chain(shells, relays, kind).netlist;
                stop_sinks(&mut chain, 2 + relays as u32);
                assert_matches_oracle(&format!("chain({shells},{relays},{kind})"), &chain);
                let mut ring = generate::ring(shells, relays, kind).netlist;
                if ring.validate().is_ok() {
                    stop_sinks(&mut ring, 3);
                    assert_matches_oracle(&format!("ring({shells},{relays},{kind})"), &ring);
                }
            }
        }
    }
}

#[test]
fn buffered_shells_match_the_oracle() {
    for shells in 1..4 {
        for relays in 0..3 {
            let mut ring = generate::buffered_ring(shells, relays).netlist;
            stop_sinks(&mut ring, 2);
            assert_matches_oracle(&format!("buffered_ring({shells},{relays})"), &ring);
        }
    }
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../designs/buffered_loop.lid"
    ))
    .unwrap();
    let (mut design, _) = parse_netlist(&text).unwrap();
    assert_matches_oracle("buffered_loop.lid", &design);
    stop_sinks(&mut design, 3);
    assert_matches_oracle("buffered_loop.lid, stopped sink", &design);
}

/// A FIFO of capacity 255 whose sink stops for 300 cycles, then drains
/// for 300: the FIFO reaches occupancy 255, the widest relay field.
#[test]
fn full_fifo_255_matches_the_oracle() {
    let mut chain = generate::chain(1, 1, RelayKind::Fifo(255)).netlist;
    let sink = chain.sinks()[0];
    let stops = Pattern::Cyclic((0..600).map(|t| t < 300).collect());
    assert!(chain.set_sink_pattern(sink, stops));
    let p = check_declared(&chain, &McConfig::default()).unwrap();
    let fifo = chain.relays()[0];
    assert!(
        p.relay_bounds.contains(&(fifo, 255, 255)),
        "{:?}",
        p.relay_bounds
    );
    assert_matches_oracle("chain(1,1,fifo255), stopped 300 of 600", &chain);
}

/// One identity shell with 65 outputs (65 register bits, so its field
/// straddles a word) feeding a buffered 65-input join (66 register
/// bits), under a voiding source and sinks stopped on coprime periods.
#[test]
fn wide_shells_match_the_oracle() {
    let mut text = String::from(
        "source in\n\
         shell A identity fanout=65\n\
         buffered-shell J join arity=65\n\
         relay r0 full\n\
         sink s0 stops=every:3:0\n\
         sink j stops=every:2:1\n\
         connect in:0 -> A:0\n\
         connect A:0 -> s0:0\n\
         connect A:64 -> r0:0\n\
         connect r0:0 -> J:0\n\
         connect J:0 -> j:0\n",
    );
    for k in 1..64 {
        text.push_str(&format!("connect A:{k} -> J:{k}\n"));
    }
    text.push_str("source extra voids=every:4:1\nconnect extra:0 -> J:64\n");
    let (netlist, _) = parse_netlist(&text).expect("parse");
    assert_matches_oracle("65-bit shell into a 65-input buffered join", &netlist);
}

/// One mid-size rung per generator family, against the oracle and
/// against `(states, stem, period, peak arena bytes)` pinned before the
/// skeleton's step became activity-driven.
#[test]
fn mid_size_rungs_match_the_oracle_and_pinned_values() {
    let full = RelayKind::Full;
    let rungs = [
        (
            "chain(64,4)",
            generate::chain(64, 4, full).netlist,
            (325, 324, 1, 35_100),
        ),
        (
            "ring(64,64)",
            generate::ring(64, 64, full).netlist,
            (128, 0, 128, 7_680),
        ),
        (
            "fork_join(64,64,32)",
            generate::fork_join(64, 64, 32).netlist,
            (195, 33, 162, 14_820),
        ),
        (
            "composed_coupled(32,32,16,32,32)",
            generate::composed_coupled(32, 32, 16, 32, 32).netlist,
            (231, 149, 82, 15_708),
        ),
        (
            "tree(8,2,1)",
            generate::tree(8, 2, 1).netlist,
            (18, 17, 1, 3_960),
        ),
    ];
    for (what, netlist, pinned) in rungs {
        let p = check_declared(&netlist, &McConfig::default()).unwrap();
        let got = (p.states, p.stem, p.period, p.peak_arena_bytes);
        assert_eq!(got, pinned, "{what}");
        assert_eq!(p.schedule.choices.len() as u64, p.stem + p.period, "{what}");
        assert_matches_oracle(what, &netlist);
    }
}

/// Shells that fire while a pipeline fills and never again, because
/// the sink always stops, are dead. In `source → A → relay → sink`, A
/// fires on cycles 0 and 1 and its second token parks in the relay's
/// aux register, which is the last state change: A's last fire is the
/// stem's last cycle, the tightest case of "dead iff the last fire
/// precedes the stem".
#[test]
fn shells_firing_only_in_the_stem_are_dead() {
    let text = "source in\n\
                shell A identity\n\
                relay r full\n\
                sink out\n\
                connect in:0 -> A:0\n\
                connect A:0 -> r:0\n\
                connect r:0 -> out:0\n";
    let (tight, _) = parse_netlist(text).expect("parse");
    let chain = generate::chain(3, 1, RelayKind::Full).netlist;
    for (what, mut netlist, tightest) in [
        ("source → A → relay", tight, true),
        ("chain(3,1)", chain, false),
    ] {
        let sink = netlist.sinks()[0];
        assert!(netlist.set_sink_pattern(sink, Pattern::Always));
        let p = check_declared(&netlist, &McConfig::default()).unwrap();
        assert_eq!(p.dead_shells, netlist.shells(), "{what}: every shell dies");
        assert!(p.deadlock(), "{what}");
        let mut sys = SkeletonSystem::new(&netlist).unwrap();
        sys.run(p.stem + p.period);
        let last: Vec<Option<u64>> = sys.shell_last_fires().collect();
        assert!(
            last.iter().all(|l| l.is_some_and(|c| c < p.stem)),
            "{what}: {last:?}"
        );
        if tightest {
            assert_eq!(last, [Some(p.stem - 1)], "{what}: stem {}", p.stem);
        }
        assert_matches_oracle(what, &netlist);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_families_match_the_oracle(seed in 0u64..400, period in 1u32..6) {
        let (_, mut netlist) = generate::random_family(seed);
        if netlist.validate().is_err() {
            return Ok(());
        }
        stop_sinks(&mut netlist, period);
        assert_matches_oracle(&format!("seed {seed}, period {period}"), &netlist);
    }
}
