//! EXP-I1 bench — per-edit latency of the incremental patch layer.
//!
//! Three legs per topology, all applying the same 64-edit capacity
//! schedule to one FIFO relay station:
//!
//! * `full_compile` — the pre-incremental edit loop: mutate the
//!   netlist, run [`SettleProgram::compile`] from scratch per edit;
//! * `capacity_patch` — [`SettleProgram::patch_fifo_capacity`]
//!   same-plane toggles (pure op-tape splices, O(1) hash update);
//! * `delta_kind` — [`SettleProgram::recompile_delta`] kind walks
//!   (`Fifo → Full → Fifo`), the in-place table-move path.
//!
//! Throughput is reported in edits/sec (`Throughput::Elements`), so
//! criterion's elem/s axis reads directly as edit-loop rate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lip_core::RelayKind;
use lip_graph::{generate, Netlist, NodeId, NodeKind};
use lip_sim::{NetlistDelta, SettleProgram};

const EDITS: usize = 64;

fn corpus() -> Vec<(String, Netlist)> {
    vec![
        (
            "chain32x4".to_string(),
            generate::chain(32, 4, RelayKind::Fifo(3)).netlist,
        ),
        (
            "ring16x6".to_string(),
            generate::ring(16, 6, RelayKind::Fifo(3)).netlist,
        ),
    ]
}

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

fn bench_compile_vs_patch(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile_vs_patch");
    group.throughput(Throughput::Elements(EDITS as u64));
    for (name, netlist) in corpus() {
        let fifo = first_fifo(&netlist);
        group.bench_with_input(
            BenchmarkId::new("full_compile", &name),
            &netlist,
            |b, netlist| {
                let mut n = netlist.clone();
                b.iter(|| {
                    for i in 0..EDITS {
                        n.set_relay_kind(fifo, RelayKind::Fifo(if i % 2 == 0 { 2 } else { 3 }));
                        std::hint::black_box(SettleProgram::compile(&n).expect("compiles"));
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("capacity_patch", &name),
            &netlist,
            |b, netlist| {
                let mut prog = SettleProgram::compile(netlist).expect("compiles");
                b.iter(|| {
                    for i in 0..EDITS {
                        std::hint::black_box(
                            prog.patch_fifo_capacity(fifo, if i % 2 == 0 { 2 } else { 3 }),
                        );
                    }
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("delta_kind", &name),
            &netlist,
            |b, netlist| {
                let mut prog = SettleProgram::compile(netlist).expect("compiles");
                b.iter(|| {
                    for i in 0..EDITS {
                        let kind = if i % 2 == 0 {
                            RelayKind::Full
                        } else {
                            RelayKind::Fifo(3)
                        };
                        let delta = NetlistDelta::SetRelayKind { node: fifo, kind };
                        std::hint::black_box(
                            prog.recompile_delta(&delta).expect("a relay kind edit"),
                        );
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_compile_vs_patch);
criterion_main!(benches);
