//! Observability-layer integration tests on the paper's Fig. 1: counter
//! correctness (one void per 5 cycles, T = 4/5), probed/unprobed
//! equivalence, event streams, and RTL trace replay.

use std::sync::Arc;

use lip_graph::{generate, topology};
use lip_kernel::{CycleEngine, Engine};
use lip_obs::{json, JsonlSink, MetricsRegistry, Tee, TraceSink};
use lip_sim::rtl::{elaborate_rtl, replay_trace_events};
use lip_sim::{measure, SettleProgram, SkeletonSystem};

const CYCLES: u64 = 100;

/// Run Fig. 1 on the scalar skeleton with a [`MetricsRegistry`].
fn fig1_metrics() -> (MetricsRegistry, Arc<SettleProgram>) {
    let fig1 = generate::fig1();
    let mut sys = SkeletonSystem::new(&fig1.netlist).unwrap();
    let prog = sys.program().clone();
    let mut metrics = MetricsRegistry::new(prog.topology());
    sys.run_probed(CYCLES, &mut metrics);
    (metrics, prog)
}

#[test]
fn fig1_sink_counters_show_one_void_per_period() {
    let (metrics, prog) = fig1_metrics();
    let sink_ch = prog.sink_input_channel(0) as usize;
    let consumed = metrics.consumed(sink_ch);
    let voids = metrics.void_ins(sink_ch);
    // The sink sees a token every cycle; after the 2-cycle transient
    // exactly one in five is void (T = 4/5).
    assert_eq!(consumed + voids, CYCLES);
    assert_eq!(consumed, 79);
    assert_eq!(voids, 21);
    assert_eq!(metrics.sink_throughput(sink_ch), Some((79, CYCLES)));
    assert_eq!(metrics.cycles(), CYCLES);
}

#[test]
fn fig1_transient_settles_within_relay_path_bound() {
    let fig1 = generate::fig1();
    let p = measure(&fig1.netlist)
        .unwrap()
        .periodicity
        .expect("fig1 is periodic");
    let bound = topology::longest_latency(&fig1.netlist).expect("fig1 is acyclic");
    assert!(
        p.transient <= bound,
        "transient {} > bound {bound}",
        p.transient
    );

    // Counters attached after the stem see whole periods at exactly 4/5.
    let mut sys = SkeletonSystem::new(&fig1.netlist).unwrap();
    let prog = sys.program().clone();
    sys.run(p.transient);
    let mut steady = MetricsRegistry::new(prog.topology());
    sys.run_probed(19 * p.period, &mut steady);
    let (num, den) = steady
        .sink_throughput(prog.sink_input_channel(0) as usize)
        .unwrap();
    assert_eq!(num * 5, den * 4, "steady state is exactly 4/5");
}

#[test]
fn probing_does_not_change_skeleton_behaviour() {
    let fig1 = generate::fig1();
    let mut probed = SkeletonSystem::new(&fig1.netlist).unwrap();
    let mut plain = SkeletonSystem::new(&fig1.netlist).unwrap();
    let mut metrics = MetricsRegistry::new(probed.program().topology());
    for _ in 0..CYCLES {
        probed.step_probed(&mut metrics);
        plain.step();
        assert_eq!(probed.component_state(), plain.component_state());
    }
    assert_eq!(probed.total_fires(), plain.total_fires());
    assert_eq!(metrics.total_fires(), plain.total_fires());
    for s in fig1.netlist.sinks() {
        assert_eq!(probed.sink_counts(s), plain.sink_counts(s));
    }
}

#[test]
fn event_stream_agrees_with_counters() {
    let fig1 = generate::fig1();
    let mut sys = SkeletonSystem::new(&fig1.netlist).unwrap();
    let topo = sys.program().topology();
    let mut probe = Tee(MetricsRegistry::new(topo), JsonlSink::new(Vec::new()));
    sys.run_probed(CYCLES, &mut probe);
    let Tee(metrics, sink) = probe;
    let written = sink.written();
    let text = String::from_utf8(sink.finish().unwrap()).unwrap();
    assert_eq!(text.lines().count() as u64, written);

    let kinds: Vec<String> = text
        .lines()
        .map(|line| {
            let record = json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(record.get("cycle").is_some(), "{line}");
            record
                .get("kind")
                .and_then(|k| k.as_str())
                .unwrap()
                .to_owned()
        })
        .collect();
    let count = |kind: &str| kinds.iter().filter(|k| *k == kind).count() as u64;
    assert_eq!(count("fire"), metrics.total_fires());
    let void_ins: u64 = (0..metrics.topology().channels as usize)
        .map(|ch| metrics.void_ins(ch))
        .sum();
    assert_eq!(count("void_in"), void_ins);
    let fills: u64 = (0..metrics.topology().relays())
        .map(|r| metrics.relay_traffic(r).0)
        .sum();
    assert_eq!(count("relay_fill"), fills);
}

#[test]
fn trace_sink_captures_protocol_waveform() {
    let fig1 = generate::fig1();
    let mut sys = SkeletonSystem::new(&fig1.netlist).unwrap();
    let mut sink = TraceSink::new(&sys.program().topology());
    sys.run_probed(30, &mut sink);
    assert_eq!(sink.trace().len(), 30, "one capture per cycle");
    let vcd = sink.to_vcd();
    assert!(vcd.contains("ch0_void_in"));
    assert!(vcd.contains("shell0_fire"));
    assert!(vcd.contains("relay0_occ"));
}

#[test]
fn rtl_trace_replay_matches_skeleton_stall_void_counts() {
    let fig1 = generate::fig1();

    // Skeleton side: per-channel stall/void counters from the probed
    // settle sweep.
    let mut sys = SkeletonSystem::new(&fig1.netlist).unwrap();
    let topo = sys.program().topology();
    let mut skel = MetricsRegistry::new(topo.clone());
    sys.run_probed(CYCLES, &mut skel);

    // RTL side: run the elaborated circuit with tracing, then replay
    // the waveform into the same counters.
    let (circuit, probes) = elaborate_rtl(&fig1.netlist).unwrap();
    let mut engine = CycleEngine::new(circuit);
    engine.enable_trace();
    engine.run(CYCLES);
    let mut rtl = MetricsRegistry::new(topo);
    replay_trace_events(engine.trace().unwrap(), &probes, &mut rtl);

    assert_eq!(rtl.cycles(), CYCLES);
    for ch in 0..probes.channel_count() {
        assert_eq!(
            skel.voids(ch),
            rtl.voids(ch),
            "channel {ch} void-cycle count"
        );
        assert_eq!(skel.stalls(ch), rtl.stalls(ch), "channel {ch} stall count");
    }
}
