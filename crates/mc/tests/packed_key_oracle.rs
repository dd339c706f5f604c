//! `check_declared` keys its lasso on the bit-packed control state.
//! This suite checks every proof against an independent oracle: the
//! same [`Lasso`] keyed on `[cycle % env_period] ++ component_state()`,
//! the word-per-component encoding, with counters and relay levels read
//! through the per-node accessors. Packing must never merge two states
//! the word encoding keeps apart, nor split one.

use lip_core::{Pattern, RelayKind};
use lip_graph::{generate, parse_netlist, Netlist, NodeId};
use lip_mc::{check_declared, McConfig};
use lip_sim::lasso::Lasso;
use lip_sim::{Ratio, SkeletonSystem};
use proptest::prelude::*;

/// `(states, stem, period, throughput, dead shells, relay bounds)`.
type Proof = (
    usize,
    u64,
    u64,
    Vec<(NodeId, Ratio)>,
    Vec<NodeId>,
    Vec<(NodeId, u32, u32)>,
);

fn oracle(netlist: &Netlist) -> Proof {
    let mut sys = SkeletonSystem::new(netlist).unwrap();
    let env = sys.program().env_period().expect("periodic environment");
    let (sinks, shells, relays) = (netlist.sinks(), netlist.shells(), netlist.relays());
    let mut lasso = Lasso::new(0, sinks.len() + shells.len());
    let mut relay_max = vec![0; relays.len()];
    loop {
        let mut key = vec![sys.cycle() % env];
        key.extend(sys.component_state());
        let row: Vec<u64> = (sinks.iter().map(|&s| sys.sink_counts(s).unwrap().0))
            .chain(shells.iter().map(|&s| sys.shell_fires(s).unwrap()))
            .collect();
        if let Some((p, first)) = lasso.observe(&key, &row) {
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
            );
        }
        for (max, &r) in relay_max.iter_mut().zip(&relays) {
            *max = (*max).max(sys.relay_level(r).unwrap().0);
        }
        sys.step();
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
