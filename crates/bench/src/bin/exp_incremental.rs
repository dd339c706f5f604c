//! EXP-I1 — incremental compilation: patch latency, byte-equivalence,
//! and the end-to-end edit loop.
//!
//! The delta-compilation layer (see `lip_sim::patch`) claims that a
//! one-relay edit costs a table splice instead of a full
//! `SettleProgram::compile`. This experiment pins that down with three
//! gates over a sweep corpus of FIFO-relay topologies:
//!
//! 1. **Patch latency** — a schedule of capacity edits applied as
//!    [`patch_fifo_capacity`](lip_sim::SettleProgram::patch_fifo_capacity)
//!    must run `>= 20x` faster per edit (min-of-7) than paying a full
//!    recompile per edit.
//! 2. **Byte-equivalence** — after *every* edit of a mixed schedule
//!    (capacity changes, kind changes, relay insertions) the patched
//!    program must compare equal to a from-scratch compile of the
//!    identically edited netlist: tables, op tape and
//!    `stable_structural_hash` — the property `ThroughputCache` keying
//!    rests on.
//! 3. **Edit-loop wall time** — `size_each_relay` on a cold cache must
//!    beat the pre-incremental baseline (clone + full compile per
//!    bisection probe, reconstructed here) end to end (min-of-5).
//!
//! Artefact: `BENCH_incremental.json` (versioned, jq-gated in CI) plus
//! the standard report in `target/reports/`.

use std::time::Instant;

use lip_analysis::size_each_relay;
use lip_bench::{banner, emit_report, mark, table, write_bench, Json, Report};
use lip_core::RelayKind;
use lip_graph::{generate, Netlist, NodeId, NodeKind};
use lip_sim::{NetlistDelta, Ratio, SettleProgram, ThroughputCache};

const REPS: usize = 7;
const SIZING_REPS: usize = 5;
/// Gate: capacity-only patches beat per-edit full recompiles by this.
const CLAIMED_SPEEDUP: f64 = 20.0;
/// Edits per timed pass — enough to amortise timer quantisation.
const EDITS_PER_PASS: usize = 64;

/// Sweep corpus: every topology carries FIFO relay stations so capacity
/// patches apply, spanning a pipeline, a feedback ring and a
/// reconvergent pair.
fn corpus() -> Vec<(String, Netlist)> {
    vec![
        (
            "chain32x4_fifo3".to_string(),
            generate::chain(32, 4, RelayKind::Fifo(3)).netlist,
        ),
        (
            "ring16x6_fifo3".to_string(),
            generate::ring(16, 6, RelayKind::Fifo(3)).netlist,
        ),
        ("fork_join_48_24".to_string(), {
            let mut n = generate::fork_join(48, 48, 24).netlist;
            // Give the first long-branch relay a FIFO so the corpus
            // exercises the queue-sizing shape on this topology too.
            let relay = first_relay(&n);
            n.set_relay_kind(relay, RelayKind::Fifo(3));
            n
        }),
    ]
}

/// First relay station in node-id order.
fn first_relay(netlist: &Netlist) -> NodeId {
    netlist
        .nodes()
        .find(|(_, node)| matches!(node.kind(), NodeKind::Relay { .. }))
        .map(|(id, _)| id)
        .expect("corpus topologies have relays")
}

/// First FIFO relay station in node-id order.
fn first_fifo(netlist: &Netlist) -> NodeId {
    netlist
        .nodes()
        .find(|(_, node)| {
            matches!(
                node.kind(),
                NodeKind::Relay {
                    kind: RelayKind::Fifo(_)
                }
            )
        })
        .map(|(id, _)| id)
        .expect("corpus topologies have FIFO relays")
}

/// The timed capacity schedule: same-plane toggles, i.e. pure op
/// splices with no occupancy-plane growth. This is the edit the gate
/// names ("capacity-only patch") and the hot case of a bisection
/// narrowing within a plane; plane-crossing edits (in-place tape
/// rebuilds) are exercised by the equivalence schedule instead.
fn capacity_schedule() -> Vec<u8> {
    // 2 and 3 share two occupancy planes, so every toggle is a splice;
    // starting from capacity 3 every edit is a real change, never a
    // no-op.
    (0..EDITS_PER_PASS)
        .map(|i| if i % 2 == 0 { 2 } else { 3 })
        .collect()
}

fn min_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut t = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        t = t.min(t0.elapsed().as_secs_f64());
    }
    t
}

struct LatencyRow {
    name: String,
    full_us: f64,
    patch_us: f64,
    speedup: f64,
}

/// Gate 1: per-edit latency, full recompile vs capacity patch.
fn latency_rows() -> Vec<LatencyRow> {
    let schedule = capacity_schedule();
    corpus()
        .into_iter()
        .map(|(name, netlist)| {
            let fifo = first_fifo(&netlist);
            // Full-recompile leg: what every edit cost before this
            // layer — mutate the netlist, compile from scratch.
            let mut full_netlist = netlist.clone();
            let t_full = min_time(REPS, || {
                for &cap in &schedule {
                    full_netlist.set_relay_kind(fifo, RelayKind::Fifo(cap));
                    std::hint::black_box(
                        SettleProgram::compile(&full_netlist).expect("corpus compiles"),
                    );
                }
            });
            // Patch leg: one compile up front, then pure patches.
            let mut prog = SettleProgram::compile(&netlist).expect("corpus compiles");
            let t_patch = min_time(REPS, || {
                for &cap in &schedule {
                    std::hint::black_box(prog.patch_fifo_capacity(fifo, cap));
                }
            });
            let per_edit = |t: f64| t / schedule.len() as f64 * 1e6;
            LatencyRow {
                name,
                full_us: per_edit(t_full),
                patch_us: per_edit(t_patch),
                speedup: t_full / t_patch,
            }
        })
        .collect()
}

/// Gate 2: a mixed edit schedule, checking byte-equivalence against a
/// from-scratch compile after every single edit.
fn equivalence_ok() -> (bool, u64) {
    let mut edits = 0u64;
    for (name, mut netlist) in corpus() {
        let mut prog = SettleProgram::compile(&netlist).expect("corpus compiles");
        let fifo = first_fifo(&netlist);
        let channels: Vec<_> = netlist.channels().map(|(id, _)| id).collect();
        let mut deltas: Vec<NetlistDelta> = Vec::new();
        for (i, cap) in [2u8, 4, 3, 9, 2].into_iter().enumerate() {
            deltas.push(NetlistDelta::SetRelayKind {
                node: fifo,
                kind: RelayKind::Fifo(cap),
            });
            deltas.push(NetlistDelta::InsertRelay {
                channel: channels[(i * 3) % channels.len()],
                kind: match i % 3 {
                    0 => RelayKind::Full,
                    1 => RelayKind::Fifo(3),
                    _ => RelayKind::Half,
                },
            });
        }
        deltas.push(NetlistDelta::SetRelayKind {
            node: fifo,
            kind: RelayKind::Full,
        });
        deltas.push(NetlistDelta::SetRelayKind {
            node: fifo,
            kind: RelayKind::Fifo(2),
        });
        for delta in &deltas {
            delta.apply_to(&mut netlist);
            prog.recompile_delta(delta);
            let fresh = SettleProgram::compile(&netlist).expect("edited corpus compiles");
            if prog != fresh || prog.stable_structural_hash() != fresh.stable_structural_hash() {
                eprintln!("{name}: patched program diverged from fresh compile on {delta:?}");
                return (false, edits);
            }
            edits += 1;
        }
    }
    (true, edits)
}

/// The pre-incremental bisection: clone + full compile + memoized
/// measure per probe — reconstructed verbatim so the end-to-end gate
/// compares against what `size_each_relay` cost before this layer.
fn baseline_size_each_relay(
    netlist: &Netlist,
    relays: &[NodeId],
    max_cap: u8,
    cache: &mut ThroughputCache,
) -> Vec<(NodeId, u8, Ratio)> {
    let throughput_at = |relay: NodeId, k: u8, cache: &mut ThroughputCache| {
        let mut candidate = netlist.clone();
        candidate.set_relay_kind(relay, RelayKind::Fifo(k));
        cache
            .measure(&candidate)
            .expect("corpus measures")
            .system_throughput()
            .expect("corpus has sinks")
    };
    relays
        .iter()
        .map(|&relay| {
            let best = throughput_at(relay, max_cap, cache);
            let (mut lo, mut hi) = (2u8, max_cap);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if throughput_at(relay, mid, cache) == best {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            (relay, lo, best)
        })
        .collect()
}

struct SizingResult {
    baseline_sec: f64,
    patched_sec: f64,
    speedup: f64,
    agree: bool,
}

/// Gate 3: end-to-end `size_each_relay` on a cold cache, old path vs
/// patch path, over a small fast-converging topology where compile
/// time is a visible fraction of every probe.
fn sizing_comparison() -> SizingResult {
    let fig1 = generate::fig1();
    let relays: Vec<NodeId> = fig1.netlist.relays();
    let max_cap = 8u8;

    let mut baseline = Vec::new();
    let t_base = min_time(SIZING_REPS, || {
        let mut cache = ThroughputCache::new(); // cold per rep
        baseline = baseline_size_each_relay(&fig1.netlist, &relays, max_cap, &mut cache);
    });
    let mut patched = Vec::new();
    let t_patch = min_time(SIZING_REPS, || {
        let mut cache = ThroughputCache::new(); // cold per rep
        patched = size_each_relay(&fig1.netlist, &relays, max_cap, &mut cache).expect("fig1 sizes");
    });
    let agree = baseline.len() == patched.len()
        && baseline
            .iter()
            .zip(&patched)
            .all(|(b, p)| b.0 == p.relay && b.1 == p.capacity && b.2 == p.throughput);
    SizingResult {
        baseline_sec: t_base,
        patched_sec: t_patch,
        speedup: t_base / t_patch,
        agree,
    }
}

fn main() {
    banner(
        "EXP-I1",
        "incremental compilation: patch latency, equivalence, edit loop",
        "capacity patch >= 20x full recompile; patched == fresh compile byte-for-byte; \
         cold-cache size_each_relay faster end to end",
    );

    let rows = latency_rows();
    let printable: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.2}", r.full_us),
                format!("{:.3}", r.patch_us),
                format!("{:.1}x", r.speedup),
                mark(r.speedup >= CLAIMED_SPEEDUP).into(),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "topology",
                "full us/edit",
                "patch us/edit",
                "speedup",
                ">=20x"
            ],
            &printable,
        )
    );
    let min_speedup = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);

    let (equivalent, edits_checked) = equivalence_ok();
    println!(
        "equivalence: {} mixed edits (capacity / kind / insertion) byte-equal to fresh compiles {}",
        edits_checked,
        mark(equivalent),
    );

    let sizing = sizing_comparison();
    println!(
        "size_each_relay (cold cache): baseline {:.2} ms, patch path {:.2} ms -> {:.2}x, \
         results agree: {} (gate > 1x) {}",
        sizing.baseline_sec * 1e3,
        sizing.patched_sec * 1e3,
        sizing.speedup,
        mark(sizing.agree),
        mark(sizing.speedup > 1.0),
    );
    println!();

    let ok = min_speedup >= CLAIMED_SPEEDUP && equivalent && sizing.speedup > 1.0 && sizing.agree;

    let topologies = rows.iter().map(|r| {
        Json::obj([
            ("name", r.name.as_str().into()),
            ("full_us_per_edit", Json::fixed(r.full_us, 3)),
            ("patch_us_per_edit", Json::fixed(r.patch_us, 4)),
            ("speedup", Json::fixed(r.speedup, 2)),
            ("ok", (r.speedup >= CLAIMED_SPEEDUP).into()),
        ])
    });
    let doc = Json::obj([
        ("schema_version", lip_obs::SCHEMA_VERSION.into()),
        ("experiment", "exp_incremental".into()),
        ("claimed_speedup", CLAIMED_SPEEDUP.into()),
        ("min_patch_speedup", Json::fixed(min_speedup, 2)),
        ("equivalent", equivalent.into()),
        ("edits_checked", edits_checked.into()),
        ("topologies", topologies.collect()),
        (
            "sizing",
            Json::obj([
                ("baseline_sec", Json::fixed(sizing.baseline_sec, 6)),
                ("patched_sec", Json::fixed(sizing.patched_sec, 6)),
                ("speedup", Json::fixed(sizing.speedup, 3)),
                ("agree", sizing.agree.into()),
                ("ok", (sizing.speedup > 1.0 && sizing.agree).into()),
            ]),
        ),
        ("ok", ok.into()),
    ]);
    write_bench("BENCH_incremental.json", &doc);

    let mut report = Report::new("exp_incremental");
    report
        .push_f64("claimed_speedup", CLAIMED_SPEEDUP)
        .push_f64("min_patch_speedup", min_speedup)
        .push_bool("equivalent", equivalent)
        .push_int("edits_checked", edits_checked)
        .push_f64("sizing_baseline_sec", sizing.baseline_sec)
        .push_f64("sizing_patched_sec", sizing.patched_sec)
        .push_f64("sizing_speedup", sizing.speedup)
        .push_bool("sizing_agree", sizing.agree)
        .push_int("topologies", rows.len() as u64)
        .push_bool("ok", ok);
    emit_report(&report);

    assert!(
        min_speedup >= CLAIMED_SPEEDUP,
        "capacity patch only {min_speedup:.1}x faster than full recompile (gate {CLAIMED_SPEEDUP}x)"
    );
    assert!(equivalent, "patched programs diverged from fresh compiles");
    assert!(
        sizing.agree,
        "patch-path size_each_relay changed the answer"
    );
    assert!(
        sizing.speedup > 1.0,
        "cold-cache size_each_relay not faster on the patch path ({:.2}x)",
        sizing.speedup
    );
}
