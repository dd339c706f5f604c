//! Dump a VCD waveform of the Fig. 1 system, as one would inspect in a
//! wave viewer — the RTL-on-kernel path end to end: netlist → RTL
//! elaboration → cycle engine → trace → `fig1.vcd` — plus the same
//! run's protocol events as `fig1_events.jsonl` via the observability
//! layer's trace replay, and the causal profiler's Chrome trace as
//! `fig1_trace.json`.
//!
//! Run with: `cargo run --example waveform_vcd`
//! Then open `target/fig1.vcd` in GTKWave (or any VCD viewer),
//! `target/fig1_events.jsonl` with jq or any log tool, and
//! `target/fig1_trace.json` in `chrome://tracing` or Perfetto.

use std::fs;

use lip::graph::generate;
use lip::kernel::{CycleEngine, Engine};
use lip::obs::JsonlSink;
use lip::sim::rtl::{elaborate_rtl, replay_trace_events};
use lip::sim::{profile_netlist, ProfileOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fig1 = generate::fig1();
    let (circuit, probes) = elaborate_rtl(&fig1.netlist)?;
    println!(
        "RTL elaboration: {} signals, {} processes",
        circuit.signal_count(),
        circuit.process_count()
    );

    let mut engine = CycleEngine::new(circuit);
    engine.enable_trace();
    engine.run(30);

    let valid = probes
        .read_sink_valid(&engine, fig1.sink)
        .expect("sink probe");
    let voids = probes
        .read_sink_voids(&engine, fig1.sink)
        .expect("sink probe");
    println!("30 cycles: {valid} informative tokens, {voids} voids at the output");

    let vcd = engine
        .trace()
        .expect("tracing enabled")
        .to_vcd(engine.circuit());
    let path = "target/fig1.vcd";
    fs::create_dir_all("target")?;
    fs::write(path, &vcd)?;
    println!("wrote {path} ({} bytes)", vcd.len());
    println!("look for the `c*_valid` / `c*_stop` channel signals: the stop pulse");
    println!("climbing the short branch every 5 cycles is the paper's Fig. 1");

    // Sanity: the waveform really contains periodic stop activity.
    let stop_lines = vcd.lines().filter(|l| l.contains("_stop")).count();
    assert!(stop_lines >= 1, "stop signals missing from the VCD header");

    // The same waveform as a structured event stream: replay the trace
    // through the observability layer and dump one JSON object per
    // stall/void event.
    let mut sink = JsonlSink::new(Vec::new());
    replay_trace_events(engine.trace().expect("tracing enabled"), &probes, &mut sink);
    let events = sink.written();
    let jsonl = sink.finish()?;
    let events_path = "target/fig1_events.jsonl";
    fs::write(events_path, &jsonl)?;
    println!("wrote {events_path} ({events} events)");
    assert!(events > 0, "Fig. 1 produces stall events every period");

    // And the *causal* view of the same design: the replayed RTL stream
    // above carries stall/void events but no consume/emit records, so
    // the profiler runs the identical netlist on the skeleton engine
    // (proven event-equivalent by the obs_fig1 suite) over an exact
    // steady-state window, then renders token spans and stall slices as
    // Chrome-trace JSON.
    let profiled = profile_netlist(&fig1.netlist, ProfileOptions::default())?;
    let trace_path = "target/fig1_trace.json";
    fs::write(trace_path, &profiled.trace_json)?;
    println!(
        "wrote {trace_path} ({} bytes): open in chrome://tracing or Perfetto;",
        profiled.trace_json.len()
    );
    println!(
        "the short-branch relay is blamed for {} of {} cycles (1 in 5)",
        profiled
            .report
            .blame_of_node(fig1.short_relays[0].index() as u32),
        profiled.window
    );
    Ok(())
}
