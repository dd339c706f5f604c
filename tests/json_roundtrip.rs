//! Every JSON artefact the workspace writes reads back with the one
//! parser, `lip::obs::json::parse`, and keeps its values: names with
//! quotes, control characters and non-ASCII survive, exact counters
//! stay integers and derived ratios stay floats.

use lip::delta::{baseline_doc, diff_runs, RunBuilder, RunStore, Sentinel};
use lip::graph::generate;
use lip::lint::{lint, render_json};
use lip::obs::json::{parse, Json};
use lip::obs::{
    chrome_trace_json, runtime_chrome_trace, schedule_chrome_trace, CausalProfiler, ChannelGraph,
    Entity, Event, EventKind, FlightRecorder, KernelCounters, MetricsRegistry, Probe, Recorder,
    Report, RuntimeReport, ScheduleSlice, ScheduleTrack, Topology,
};
use lip::sim::profiling::{profile_netlist, ProfileOptions};

/// A name exercising every escape class.
const HOSTILE: &str = "w\"6\\\n\t\u{1}·π→Ω😀";

fn parsed(what: &str, text: &str) -> Json {
    parse(text).unwrap_or_else(|e| panic!("{what} does not parse: {e}\n{text}"))
}

fn path<'a>(doc: &'a Json, keys: &[&str]) -> &'a Json {
    keys.iter().fold(doc, |v, k| {
        v.get(k).unwrap_or_else(|| panic!("no {k} in {v:?}"))
    })
}

/// One source → shell → relay → sink pipeline whose relay, the one
/// blamed for the shell's stall, carries a hostile name.
fn hostile_profiler() -> CausalProfiler {
    let mut p = CausalProfiler::new(ChannelGraph {
        producer: vec![Entity::Source(0), Entity::Shell(0), Entity::Relay(0)],
        consumer: vec![Entity::Shell(0), Entity::Relay(0), Entity::Sink(0)],
        source_out: vec![0],
        sink_in: vec![2],
        relay_in: vec![1],
        relay_out: vec![2],
        relay_capacity: vec![2],
        shell_in_off: vec![0, 1],
        shell_in_ch: vec![0],
        shell_out_off: vec![0, 1],
        shell_out_ch: vec![1],
        nodes: vec![1, 2, 0, 3],
        names: vec!["A".into(), HOSTILE.into(), "in".into(), "out".into()],
    });
    p.stall(0, 1, 0);
    p.relay_fill(0, 0, 0);
    p.end_cycle(0);
    p.relay_drain(1, 0, 0);
    p.consume(1, 2, 0);
    p.end_cycle(1);
    p
}

#[test]
fn report_round_trips() {
    let mut r = Report::new(HOSTILE);
    r.push_int("cycles", 100)
        .push_f64("ratio", 1.0)
        .push_ratio("throughput", 4, 5)
        .push_str("name", HOSTILE)
        .push_bool("ok", true);
    let doc = parsed("Report", &r.to_json());
    assert_eq!(doc.get("experiment"), Some(&Json::from(HOSTILE)));
    assert_eq!(doc.get("cycles"), Some(&Json::Int(100)));
    assert_eq!(doc.get("ratio"), Some(&Json::Float(1.0)));
    assert_eq!(path(&doc, &["throughput", "value"]), &Json::Float(0.8));
    assert_eq!(doc.get("name"), Some(&Json::from(HOSTILE)));
}

#[test]
fn metrics_registry_round_trips() {
    let mut m = MetricsRegistry::new(Topology {
        channels: 2,
        shells: 2,
        relay_capacities: vec![2],
    });
    m.fire(0, 1, 0);
    m.end_cycle(0);
    let doc = parsed("MetricsRegistry", &m.to_json());
    assert_eq!(
        doc.get("fires"),
        Some(&Json::Arr(vec![Json::Int(0), Json::Int(1)]))
    );
    assert_eq!(doc.get("cycles"), Some(&Json::Int(1)));
}

#[test]
fn blame_report_and_profile_trace_round_trip() {
    let run = profile_netlist(&generate::fig1().netlist, ProfileOptions::default()).unwrap();
    let doc = parsed("BlameReport", &run.report.to_json());
    assert_eq!(doc.get("kind"), Some(&Json::from("blame_report")));
    assert_eq!(
        doc.get("lost_cycles").and_then(Json::as_int),
        Some(run.report.lost_cycles as i64)
    );
    parsed("chrome_trace_json", &run.trace_json);

    let p = hostile_profiler();
    let doc = parsed("BlameReport", &p.report().to_json());
    let names: Vec<&str> = doc
        .get("blame")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(names.contains(&HOSTILE), "{names:?}");
    let trace = parsed("chrome_trace_json", &chrome_trace_json(&p, 2));
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    let thread = format!("relay:0 {HOSTILE}");
    assert!(events
        .iter()
        .any(|e| path(e, &["args"]).get("name").and_then(Json::as_str) == Some(&thread)));
}

#[test]
fn runtime_report_and_trace_round_trip() {
    let rec = FlightRecorder::new();
    {
        let _root = rec.span("sweep", HOSTILE);
        rec.add("cache.hits", 5);
    }
    let dump = rec.drain();
    let trace = parsed("runtime_chrome_trace", &runtime_chrome_trace(&dump));
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    let slice = events
        .iter()
        .find(|e| e.get("ph") == Some(&Json::from("X")));
    assert_eq!(
        slice.and_then(|e| e.get("name")),
        Some(&Json::from(HOSTILE))
    );
    assert!(matches!(
        slice.and_then(|e| e.get("ts")),
        Some(Json::Float(_))
    ));

    let mut report = RuntimeReport::new(HOSTILE, dump);
    report.set_kernel(KernelCounters::new(64, &["or"], &["fwd"]));
    report.set_span_coverage(1.0);
    let doc = parsed("RuntimeReport", &report.to_json());
    assert_eq!(doc.get("experiment"), Some(&Json::from(HOSTILE)));
    assert_eq!(doc.get("span_coverage"), Some(&Json::Float(1.0)));
    assert_eq!(path(&doc, &["counters", "cache.hits"]), &Json::Int(5));
    assert_eq!(path(&doc, &["kernel", "occupancy"]), &Json::Float(0.0));
}

#[test]
fn schedule_trace_round_trips() {
    let tracks = [ScheduleTrack {
        name: HOSTILE.into(),
        slices: vec![ScheduleSlice {
            name: "offer".into(),
            cat: "env".into(),
            start: 3,
            end: 3,
        }],
    }];
    let trace = parsed(
        "schedule_chrome_trace",
        &schedule_chrome_trace(HOSTILE, &tracks),
    );
    let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert_eq!(path(&events[0], &["args", "name"]), &Json::from(HOSTILE));
    assert_eq!(events[2].get("dur"), Some(&Json::Int(1)));
    let empty = parsed(
        "schedule_chrome_trace",
        &schedule_chrome_trace("empty", &[]),
    );
    assert_eq!(
        empty
            .get("traceEvents")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(1)
    );
}

#[test]
fn lint_report_round_trips() {
    let diags = lint(&generate::fig1().netlist, &lip::graph::SourceMap::new());
    let doc = parsed("render_json", &render_json(&[(HOSTILE.to_owned(), diags)]));
    let file = &doc.get("files").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(file.get("file"), Some(&Json::from(HOSTILE)));
    let d = &file.get("diagnostics").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(path(d, &["predicted_throughput", "num"]), &Json::Int(4));
    parsed("render_json", &render_json(&[]));
}

#[test]
fn jsonl_event_round_trips() {
    let doc = parsed("Event", &Event::new(17, EventKind::VoidIn, 3, 5).to_json());
    assert_eq!(doc.get("kind"), Some(&Json::from("void_in")));
    assert_eq!(doc.get("cycle"), Some(&Json::Int(17)));
}

#[test]
fn store_manifest_baseline_and_run_diff_round_trip() {
    let root = std::env::temp_dir().join(format!("lip_json_roundtrip_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = RunStore::open(&root);
    let commit = |label: &str, ratio: f64| {
        let mut b = RunBuilder::new(label);
        let doc = Json::obj([
            ("schema_version", Json::Int(2)),
            ("name", HOSTILE.into()),
            ("ratio", Json::Float(ratio)),
        ]);
        b.add_artifact("BENCH_x.json", &(doc.to_pretty() + "\n"));
        b.commit(&store).unwrap()
    };
    let a = commit(HOSTILE, 1.0);
    let b = commit("second", 0.5);
    let manifest = std::fs::read_to_string(root.join(&a).join("manifest.json")).unwrap();
    let manifest = parsed("Manifest", &manifest);
    assert_eq!(manifest.get("label"), Some(&Json::from(HOSTILE)));
    let (run_a, run_b) = (store.load(&a).unwrap(), store.load(&b).unwrap());
    let artifact = run_a.artifact_json("BENCH_x.json").unwrap();
    assert_eq!(artifact.get("ratio"), Some(&Json::Float(1.0)));

    let baseline = baseline_doc("BENCH_x.json", &artifact);
    assert_eq!(parsed("baseline", &baseline.to_compact()), baseline);
    // The integral float is derived, not exact: it is not baselined.
    assert_eq!(path(&baseline, &["extracted"]).get("ratio"), None);

    let diff = diff_runs(&store, &run_a, &run_b, &Sentinel::default()).to_json();
    assert_eq!(parsed("RunDiff", &diff.to_compact()), diff);
    assert_eq!(diff.get("exact_diffs"), Some(&Json::Int(0)));
    let _ = std::fs::remove_dir_all(&root);
}
