//! EXP-F1 — Fig. 1: feed-forward (reconvergent) topology evolution.
//!
//! Paper: "After the initial transient, the situation becomes periodic,
//! and the output utters an invalid datum every 5 cycles. ... In the
//! present case, n = 5, while i = 1. The number of valid data every 4
//! periods is 4 and the throughput is 4/5."

use lip_bench::{banner, emit_report, mark, table, Report};
use lip_graph::{generate, topology};
use lip_obs::{MetricsRegistry, Tee};
use lip_sim::{measure, Evolution, Ratio, SkeletonSystem};

fn main() {
    banner(
        "EXP-F1",
        "Fig. 1 — feed-forward topology evolution",
        "periodic after transient; one void at the output every n = 5 cycles; T = 4/5",
    );

    let fig1 = generate::fig1();
    println!("topology: {}\n", fig1.netlist);
    let ev = Evolution::record(&fig1.netlist, &[fig1.fork, fig1.mid, fig1.join], 20)
        .expect("fig1 elaborates");
    println!("{ev}");

    let m = measure(&fig1.netlist).expect("fig1 measures");
    let p = m.periodicity.expect("fig1 is periodic");
    let t = m.system_throughput().expect("one sink");

    let rows = vec![
        vec![
            "period n".into(),
            "5".into(),
            p.period.to_string(),
            mark(p.period == 5).into(),
        ],
        vec![
            "voids per period".into(),
            "1 (i = 1)".into(),
            format!("{}", p.period - t.num() * p.period / t.den()),
            mark(p.period - t.num() * p.period / t.den() == 1).into(),
        ],
        vec![
            "throughput T".into(),
            "4/5".into(),
            t.to_string(),
            mark(t == Ratio::new(4, 5)).into(),
        ],
        vec![
            "transient".into(),
            "system dependent".into(),
            format!("{} cycles", p.transient),
            "ok".into(),
        ],
    ];
    println!(
        "{}",
        table(&["figure quantity", "paper", "measured", "check"], &rows)
    );

    // Probed re-run: count the same numbers from the observability
    // layer instead of the measurement machinery, as a cross-check. A
    // second registry attached after the lasso's stem sees whole
    // steady-state periods only.
    const CYCLES: u64 = 100;
    let mut sys = SkeletonSystem::new(&fig1.netlist).expect("fig1 elaborates");
    let prog = sys.program().clone();
    let mut metrics = MetricsRegistry::new(prog.topology());
    let mut steady = MetricsRegistry::new(prog.topology());
    let window = (CYCLES - p.transient) / p.period * p.period;
    sys.run_probed(p.transient, &mut metrics);
    sys.run_probed(window, &mut Tee(&mut metrics, &mut steady));
    sys.run_probed(CYCLES - p.transient - window, &mut metrics);

    let sink_ch = prog.sink_input_channel(0) as usize;
    let (consumed, cycles) = metrics.sink_throughput(sink_ch).expect("sink channel");
    let voids = metrics.void_ins(sink_ch);
    let (st_num, st_den) = steady.sink_throughput(sink_ch).expect("sink channel");
    let bound = topology::longest_latency(&fig1.netlist).expect("fig1 is acyclic");
    println!("probed over {cycles} cycles: {consumed} informative, {voids} voids at the sink");
    println!("steady state: {st_num}/{st_den} informative — one void per 5 cycles");
    println!(
        "transient: {} cycles (relay-path bound: {bound})\n",
        p.transient
    );
    let ok = p.period == 5
        && t == Ratio::new(4, 5)
        && consumed + voids == cycles
        && st_num * 5 == st_den * 4
        && p.transient <= bound;

    let mut report = Report::new("fig1_feedforward");
    report
        .push_int("period", p.period)
        .push_int("transient", p.transient)
        .push_ratio("throughput", t.num(), t.den())
        .push_int("probed_cycles", cycles)
        .push_int("probed_consumed", consumed)
        .push_int("probed_voids", voids)
        .push_ratio("probed_steady_throughput", st_num, st_den)
        .push_int("transient_bound", bound)
        .push_int("total_fires", metrics.total_fires())
        .push_bool("ok", ok);
    emit_report(&report);
}
