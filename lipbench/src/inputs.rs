//! Workload inputs: the designs, the lane patterns and round orders
//! derived from `--seed`, and the edit scripts. The program under test
//! only ever receives what these functions generate.

use std::path::PathBuf;

use lip_core::{Pattern, RelayKind};
use lip_graph::{generate, parse_netlist_spanned, write_netlist, Netlist, NodeKind};
use lip_sim::NetlistDelta;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Lanes of the batch engine a pipeline pass measures.
pub const LANES: usize = 64;

/// Edits in one `edit_loop` episode, which starts from the pristine
/// design with an empty cache.
pub const EDITS_PER_EPISODE: usize = 64;

/// An independent generator for one purpose (`stream`) under `seed`.
#[must_use]
pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generator family of a ladder rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `chain(k, 4, kind)`: `k` shells, four relays per channel.
    Chain,
    /// `ring(k, k, kind)`: `k` shells and `k` loop relays.
    Ring,
    /// `fork_join(k, k, k/2)`: the Fig. 1 family.
    ForkJoin,
    /// `composed_coupled(k, k, k/2, k, k)`: a fork-join feeding a ring.
    Composed,
    /// `tree(k, 2, 1)`: a binary fanout tree of depth `k`.
    Tree,
}

/// One design, shipped in `designs/` or produced by a `lip-graph`
/// generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// `designs/<name>.lid`.
    Shipped(&'static str),
    /// A generated rung; `kind` is the relay kind of chains and rings.
    Rung(Family, usize, RelayKind),
}

use Design::{Rung, Shipped};
use Family::{Chain, Composed, ForkJoin, Ring, Tree};

const FULL: RelayKind = RelayKind::Full;

/// `shipped_sweep`: the shipped designs, by name.
pub const SHIPPED: [Design; 3] = [Shipped("fig1"), Shipped("soc"), Shipped("buffered_loop")];

/// `ladder`: design size from a handful to 2·10³ relays. The top rungs
/// keep one round of the ladder near a second, so a run of a few seconds
/// holds whole rounds and the op mix is the same on every run.
pub const LADDER: [Design; 20] = [
    Rung(Chain, 4, FULL),
    Rung(Chain, 16, FULL),
    Rung(Chain, 32, FULL),
    Rung(Chain, 64, FULL),
    Rung(Ring, 4, FULL),
    Rung(Ring, 16, FULL),
    Rung(Ring, 64, FULL),
    Rung(Ring, 128, FULL),
    Rung(ForkJoin, 4, FULL),
    Rung(ForkJoin, 16, FULL),
    Rung(ForkJoin, 64, FULL),
    Rung(ForkJoin, 128, FULL),
    Rung(Composed, 2, FULL),
    Rung(Composed, 8, FULL),
    Rung(Composed, 32, FULL),
    Rung(Composed, 64, FULL),
    Rung(Tree, 2, FULL),
    Rung(Tree, 6, FULL),
    Rung(Tree, 8, FULL),
    Rung(Tree, 10, FULL),
];

/// `lint_ladder`: larger designs, since linting needs no measurement.
pub const LINT_LADDER: [Design; 12] = [
    Rung(Chain, 64, FULL),
    Rung(Chain, 256, FULL),
    Rung(Chain, 512, FULL),
    Rung(Ring, 256, FULL),
    Rung(Ring, 512, FULL),
    Rung(Ring, 1024, FULL),
    Rung(ForkJoin, 256, FULL),
    Rung(ForkJoin, 512, FULL),
    Rung(Composed, 128, FULL),
    Rung(Composed, 256, FULL),
    Rung(Tree, 12, FULL),
    Rung(Tree, 14, FULL),
];

/// `edit_loop`: small designs with FIFOs to resize, plus `soc.lid`.
pub const EDIT_DESIGNS: [Design; 4] = [
    Rung(Chain, 16, RelayKind::Fifo(3)),
    Rung(Ring, 16, RelayKind::Fifo(3)),
    Rung(ForkJoin, 8, FULL),
    Shipped("soc"),
];

impl Design {
    /// Stable display name, also the row key in `expected.json` and
    /// `results.json`.
    #[must_use]
    pub fn name(self) -> String {
        let kind = match self {
            Rung(_, _, RelayKind::Fifo(c)) => format!(",fifo{c}"),
            _ => String::new(),
        };
        match self {
            Shipped(name) => name.to_owned(),
            Rung(Chain, k, _) => format!("chain({k},4{kind})"),
            Rung(Ring, k, _) => format!("ring({k},{k}{kind})"),
            Rung(ForkJoin, k, _) => format!("fork_join({k},{k},{})", k / 2),
            Rung(Composed, k, _) => format!("composed_coupled({k},{k},{},{k},{k})", k / 2),
            Rung(Tree, d, _) => format!("tree({d},2,1)"),
        }
    }

    /// The family whose sizes share a scaling law; a shipped design is
    /// a family of its own.
    #[must_use]
    pub fn family(self) -> String {
        match self {
            Shipped(name) => name.to_owned(),
            Rung(family, ..) => format!("{family:?}"),
        }
    }

    /// The design's `.lid` text: read from `designs/`, or generated and
    /// written with [`write_netlist`].
    ///
    /// # Errors
    ///
    /// The I/O error reading a shipped design.
    pub fn text(self) -> Result<String, String> {
        match self {
            Shipped(name) => {
                let path = designs_dir().join(format!("{name}.lid"));
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
            }
            Rung(..) => Ok(write_netlist(&self.generate())),
        }
    }

    /// The design as a netlist (parsed, for a shipped design).
    ///
    /// # Errors
    ///
    /// Reading or parsing a shipped design failed.
    pub fn netlist(self) -> Result<Netlist, String> {
        match self {
            Shipped(_) => parse_netlist_spanned(&self.text()?)
                .map(|p| p.netlist)
                .map_err(|e| format!("{}: {e}", self.name())),
            Rung(..) => Ok(self.generate()),
        }
    }

    fn generate(self) -> Netlist {
        match self {
            Shipped(_) => unreachable!("shipped designs are read, not generated"),
            Rung(Chain, k, kind) => generate::chain(k, 4, kind).netlist,
            Rung(Ring, k, kind) => generate::ring(k, k, kind).netlist,
            Rung(ForkJoin, k, _) => generate::fork_join(k, k, k / 2).netlist,
            Rung(Composed, k, _) => generate::composed_coupled(k, k, k / 2, k, k).netlist,
            Rung(Tree, d, _) => generate::tree(d, 2, 1).netlist,
        }
    }
}

/// The shipped `designs/` directory, located from this package so the
/// benchmark runs from any working directory.
fn designs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../designs")
}

/// Relay stations in `netlist`.
#[must_use]
pub fn relay_count(netlist: &Netlist) -> u64 {
    netlist.census().relays() as u64
}

/// A seeded permutation of `0..n` (the op order inside one round).
#[must_use]
pub fn order(rng: &mut SmallRng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// `EveryNth { p, φ }` with `p ∈ 2..=8` and a uniform phase.
fn every_nth(rng: &mut SmallRng) -> Pattern {
    let period = rng.gen_range(2..=8u32);
    Pattern::EveryNth {
        period,
        phase: rng.gen_range(0..period),
    }
}

/// Stop patterns for lanes `1..LANES` (lane 0 keeps the declared
/// environment), one per sink. Each sink's 63 lanes get every pattern
/// of `Never` and `EveryNth { p, φ }`, `p ∈ 2..=8`, `φ < p` (36 of
/// them), then the first 27 again, dealt in a seeded order. Every seed
/// so sweeps the same environments, and a run's work does not depend on
/// its seed; the seed decides which lane runs which.
#[must_use]
pub fn lane_stops(rng: &mut SmallRng, sinks: usize) -> Vec<Vec<Pattern>> {
    let all: Vec<Pattern> =
        std::iter::once(Pattern::Never)
            .chain((2..=8u32).flat_map(|period| {
                (0..period).map(move |phase| Pattern::EveryNth { period, phase })
            }))
            .collect();
    let deck: Vec<&Pattern> = all.iter().cycle().take(LANES - 1).collect();
    let dealt: Vec<Vec<usize>> = (0..sinks).map(|_| order(rng, LANES - 1)).collect();
    (0..LANES - 1)
        .map(|lane| dealt.iter().map(|d| deck[d[lane]].clone()).collect())
        .collect()
}

/// One episode of edits against `pristine`: 60% relay-kind changes
/// among `Full` and `Fifo(2..=5)`, 20% `EveryNth` environment patterns
/// on a source or sink, 20% `Full` relay insertions. Targets are drawn
/// from the netlist as the script's own earlier edits leave it.
#[must_use]
pub fn edit_script(pristine: &Netlist, rng: &mut SmallRng, len: usize) -> Vec<NetlistDelta> {
    const KINDS: [RelayKind; 5] = [
        RelayKind::Full,
        RelayKind::Fifo(2),
        RelayKind::Fifo(3),
        RelayKind::Fifo(4),
        RelayKind::Fifo(5),
    ];
    let mut scratch = pristine.clone();
    let mut script = Vec::with_capacity(len);
    for _ in 0..len {
        let roll = rng.gen_range(0..10u32);
        let resizable: Vec<_> = scratch
            .nodes()
            .filter_map(|(id, n)| match n.kind() {
                NodeKind::Relay { kind } if *kind != RelayKind::Half => Some((id, *kind)),
                _ => None,
            })
            .collect();
        let delta = if roll < 6 && !resizable.is_empty() {
            let (node, old) = resizable[rng.gen_range(0..resizable.len())];
            let choices: Vec<RelayKind> = KINDS.into_iter().filter(|k| *k != old).collect();
            NetlistDelta::SetRelayKind {
                node,
                kind: choices[rng.gen_range(0..choices.len())],
            }
        } else if roll < 8 {
            let sources = scratch.sources();
            let sinks = scratch.sinks();
            let pick = rng.gen_range(0..sources.len() + sinks.len());
            let pattern = every_nth(rng);
            match sources.get(pick) {
                Some(&node) => NetlistDelta::SetSourcePattern { node, pattern },
                None => NetlistDelta::SetSinkPattern {
                    node: sinks[pick - sources.len()],
                    pattern,
                },
            }
        } else {
            let pick = rng.gen_range(0..scratch.channel_count());
            let (channel, _) = scratch.channels().nth(pick).expect("index below count");
            NetlistDelta::InsertRelay {
                channel,
                kind: RelayKind::Full,
            }
        };
        delta.apply_to(&mut scratch);
        script.push(delta);
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for design in SHIPPED.iter().chain(&LADDER).chain(&EDIT_DESIGNS) {
            assert_eq!(design.text().unwrap(), design.text().unwrap());
        }
        let lanes = |seed| lane_stops(&mut rng(seed, 7), 2);
        assert_eq!(lanes(1), lanes(1));
        assert_ne!(lanes(1), lanes(2));
        let ord = |seed| order(&mut rng(seed, 1), LADDER.len());
        assert_eq!(ord(1), ord(1));
        assert_ne!(ord(1), ord(2));
        for design in EDIT_DESIGNS {
            let pristine = design.netlist().unwrap();
            let script = |seed| edit_script(&pristine, &mut rng(seed, 3), 64);
            assert_eq!(script(1), script(1));
            assert_ne!(script(1), script(2));
        }
    }

    #[test]
    fn edit_mix_follows_the_stated_shares() {
        let pristine = EDIT_DESIGNS[0].netlist().unwrap();
        let script = edit_script(&pristine, &mut rng(5, 9), 4000);
        let count = |f: fn(&NetlistDelta) -> bool| script.iter().filter(|d| f(d)).count();
        let kinds = count(|d| matches!(d, NetlistDelta::SetRelayKind { .. }));
        let inserts = count(|d| matches!(d, NetlistDelta::InsertRelay { .. }));
        assert!((2200..2600).contains(&kinds), "{kinds}");
        assert!((600..1000).contains(&inserts), "{inserts}");
    }

    #[test]
    fn lane_stops_deal_the_same_environments_for_every_seed() {
        let stops = lane_stops(&mut rng(1, 2), 3);
        assert_eq!(stops.len(), LANES - 1);
        assert!(stops.iter().all(|lane| lane.len() == 3));
        let sorted = |seed| {
            let mut v: Vec<String> = lane_stops(&mut rng(seed, 2), 1)
                .iter()
                .map(|l| format!("{:?}", l[0]))
                .collect();
            v.sort();
            v
        };
        assert_eq!(sorted(1), sorted(2));
        assert!(sorted(1).contains(&format!(
            "{:?}",
            Pattern::EveryNth {
                period: 8,
                phase: 7
            }
        )));
    }
}
