//! `lip-benchmark`: the end-to-end benchmark of the lip pipeline.
//!
//! With `--workload`, one run sets the workload up several times
//! (reporting the median set-up time), runs whole rounds of ops for
//! `--seconds` with the host's reference timed between them (see
//! [`calib`]), checks every op's output, and prints each metric as
//! `workload metric value unit`, then a one-line JSON summary. With
//! `--trace 1` it instead alternates untraced rounds with rounds under
//! the flight recorder, and prints the per-layer ledger.
//!
//! Without `--workload`, it runs every workload untraced and then traced,
//! each in a fresh single-threaded child process, and writes
//! `out/results.json` and `out/layers.json`. See `README.md`.

#![forbid(unsafe_code)]

mod calib;
mod expected;
mod inputs;
mod ledger;
mod ops;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use lip_delta::{Json, RunBuilder, RunStore};

use crate::calib::Calibration;
use crate::ledger::{size_slope, Ledger};
use crate::stats::{median, tail_percentile};
use crate::workload::{Kind, Phase, Workload};

/// Seconds of timed rounds per run when `--seconds` is not given; equal
/// to `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;

/// A run sets its workload up at least this many times, and for at
/// least [`SETUP_SECS`] of wall time; the median calibrated set-up time
/// is reported. The time floor gives millisecond set-ups enough samples
/// for a steady median.
const SETUPS: usize = 5;
const SETUP_SECS: f64 = 1.0;

/// Lowest span coverage of op wall time a traced run accepts.
const MIN_COVERAGE: f64 = 0.95;

const USAGE: &str =
    "usage: lip-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--store]
  workloads: shipped_sweep ladder lint_ladder edit_loop (default: all, each in a child process)";

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    store: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        store: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--store" {
            args.store = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.store && args.workload.is_some() {
        return Err("--store records a full run; drop --workload".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lip-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(kind) => run_one(kind, &args),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("lip-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

/// Where runs write their documents.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(name: &str, text: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Ops per second, median and p90 latency (nearest rank), and relays per
/// second of ops taking `ms` and processing `relays` in `wall_s`
/// seconds, each metric named `prefix` and its base name.
fn speed(prefix: &str, ms: &[f64], relays: u64, wall_s: f64) -> [Metric; 4] {
    #[allow(clippy::cast_precision_loss)]
    let (ops, relays) = (ms.len() as f64, relays as f64);
    let pct = |q| tail_percentile(ms, q).expect("a timed phase keeps at least MIN_OPS ops");
    [
        Metric::new(format!("{prefix}ops_per_sec"), ops / wall_s, "ops/s"),
        Metric::new(format!("{prefix}op_p50_ms"), pct(0.5), "ms"),
        Metric::new(format!("{prefix}op_p90_ms"), pct(0.9), "ms"),
        Metric::new(
            format!("{prefix}relays_per_sec"),
            relays / wall_s,
            "relays/s",
        ),
    ]
}

/// The end-to-end metrics: those `BENCHMARK.json` bounds, in its order,
/// then the raw speeds over every op and the wall time of the phase. The
/// bounded speeds are over the quiet half (see [`Phase::quiet`]) of the
/// op latencies scaled to a quiet host by `calib`, as if those ops had
/// run back to back.
fn end_to_end(
    w: &Workload,
    phase: &Phase,
    calib: &Calibration,
    setup_s: f64,
    rss_mb: f64,
) -> (Vec<Metric>, [Metric; 4]) {
    let relays_of = |pos: usize| w.layout()[pos].1;
    let quiet = phase.quiet(&phase.calibrated_ms(calib));
    let quiet_ms: Vec<f64> = quiet.iter().map(|&(_, ms)| ms).collect();
    let quiet_relays = quiet.iter().map(|&(pos, _)| relays_of(pos)).sum();
    let all_relays = phase.rounds * (0..w.layout().len()).map(relays_of).sum::<u64>();
    let mut bounded = vec![Metric::new("setup_s", setup_s, "s")];
    let quiet_s = quiet_ms.iter().sum::<f64>() / 1e3;
    bounded.extend(speed("cal_", &quiet_ms, quiet_relays, quiet_s));
    bounded.push(Metric::new("peak_rss_mb", rss_mb, "MiB"));
    let all = speed("", &phase.op_ms(), all_relays, phase.wall_s());
    (bounded, all)
}

/// Log-log slope of median op time against design size.
fn scaling_slope(w: &Workload, op_ms: &[f64]) -> f64 {
    size_slope(&w.sizes(), &w.per_design(op_ms))
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".to_owned(), Json::Float(m.value)),
                    ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                ]);
                (m.name.clone(), v)
            })
            .collect(),
    )
}

/// Print every metric line (`extra` first), then the one-line JSON
/// summary of `metrics`.
fn report(
    name: &str,
    metrics: &[Metric],
    extra: &[Metric],
    correct: bool,
    attempted: u64,
    failed: u64,
) {
    for m in extra.iter().chain(metrics) {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    let summary = Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(correct)),
        ("attempted".to_owned(), Json::Int(attempted as i64)),
        ("failed".to_owned(), Json::Int(failed as i64)),
        ("metrics".to_owned(), metrics_json(metrics)),
    ]);
    println!("{}", summary.to_compact());
}

/// One workload in this process.
fn run_one(kind: Kind, args: &Args) -> Result<bool, String> {
    let name = kind.name();
    let mut calib = Calibration::new(kind.host_sensitivity());
    let mut setups = Vec::new();
    let mut w = None;
    // Only an untraced run reports the set-up time.
    let (min_setups, min_secs) = if args.trace {
        (1, 0.0)
    } else {
        (SETUPS, SETUP_SECS)
    };
    let start = Instant::now();
    while setups.len() < min_setups || start.elapsed().as_secs_f64() < min_secs {
        calib.bracket();
        let t = Instant::now();
        w = Some(Workload::setup(kind, args.seed)?);
        setups.push((t.elapsed().as_secs_f64(), calib.mark()));
    }
    calib.bracket();
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|&(s, mark)| calib.calibrate(s, mark))
        .collect();
    let mut w = w.expect("at least one set-up");

    if !args.trace {
        let mut phase = w.run(args.seconds, &mut calib);
        // Read before the checks below allocate.
        let rss_mb = peak_rss_mb()?;
        w.verify(&mut phase)?;
        let (metrics, all_ops) = end_to_end(&w, &phase, &calib, median(&setup_s), rss_mb);
        let (attempted, failed) = (phase.attempted(), phase.failed);
        let op_ms = phase.op_ms();
        // Printed and stored, but not bounded: the failure share is 0
        // whenever the run passes, and the slope is only defined on
        // workloads with two sizes of a family.
        let mut extra = all_ops.to_vec();
        #[allow(clippy::cast_precision_loss)]
        extra.push(Metric::new(
            "failed_frac",
            failed as f64 / attempted as f64,
            "ratio",
        ));
        extra.push(Metric::new("scaling_slope", scaling_slope(&w, &op_ms), "1"));
        let mut doc = vec![
            ("name".to_owned(), Json::Str(name.to_owned())),
            (
                "seed".to_owned(),
                Json::Int(i64::try_from(args.seed).unwrap_or(i64::MAX)),
            ),
            ("correct".to_owned(), Json::Bool(failed == 0)),
            ("failed".to_owned(), Json::Int(failed as i64)),
            // Depends on the run length, so under a key the run differ
            // treats as timing, not as exact.
            ("wall_ops".to_owned(), Json::Int(attempted as i64)),
        ];
        // `setup_s` is stored as `setup_secs`, a key the run differ
        // treats as timing.
        for m in metrics.iter().chain(&extra) {
            let key = if m.name == "setup_s" {
                "setup_secs"
            } else {
                &m.name
            };
            doc.push((key.to_owned(), Json::Float(m.value)));
        }
        doc.push(("designs".to_owned(), Json::Arr(w.design_rows(&op_ms))));
        write_out(&format!("{name}.json"), &Json::Obj(doc).to_compact())?;
        for note in w.notes() {
            eprintln!("{name}: FAILED {note}");
        }
        report(name, &metrics, &extra, failed == 0, attempted, failed);
        return Ok(failed == 0);
    }

    let mut ledger = Ledger::new(&w.sizes());
    let (mut plain, mut traced) = w.run_alternating(args.seconds, &mut ledger);
    w.verify(&mut plain)?;
    w.verify(&mut traced)?;
    let attempted = plain.attempted() + traced.attempted();
    let failed = plain.failed + traced.failed;
    let plain_ms = plain.op_ms();
    // Both sides ran the same ops, so their speeds compare by the sum of
    // op latencies; the traced rounds' wall also holds the ledger's work.
    let overhead_pct =
        (1.0 - plain_ms.iter().sum::<f64>() / traced.op_ms().iter().sum::<f64>()) * 100.0;
    let metrics = ledger.metrics(overhead_pct, scaling_slope(&w, &plain_ms));

    println!("{name} ledger: layer, share of op wall, self ms/op, calls/op");
    for (layer, share, ms, calls) in ledger.ranked() {
        println!(
            "{name} ledger {layer:<15} {:>6.2}% {ms:>10.4} {calls:>6.2}",
            share * 100.0
        );
    }
    let coverage = ledger.coverage();
    if coverage < MIN_COVERAGE {
        eprintln!("{name}: FAILED span coverage {coverage:.4} < {MIN_COVERAGE}");
    }
    for note in w.notes() {
        eprintln!("{name}: FAILED {note}");
    }
    let mut doc = vec![("name".to_owned(), Json::Str(name.to_owned()))];
    doc.extend(
        metrics
            .iter()
            .map(|m| (m.name.clone(), Json::Float(m.value))),
    );
    let doc = Json::Obj(doc);
    write_out(&format!("{name}.layers.json"), &doc.to_compact())?;
    write_out(
        &format!("TRACE_{name}.json"),
        &lip_obs::runtime_chrome_trace(ledger.trace()),
    )?;
    let correct = failed == 0 && coverage >= MIN_COVERAGE;
    report(name, &metrics, &[], correct, attempted, failed);
    Ok(correct)
}

/// Every workload, untraced then traced, each in a fresh child process.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut all_ok = true;
    let mut docs = (Vec::new(), Vec::new());
    for trace in [false, true] {
        for kind in Kind::ALL {
            let file = format!("{}{}.json", kind.name(), if trace { ".layers" } else { "" });
            let path = out_dir().join(&file);
            let _ = std::fs::remove_file(&path);
            let status = Command::new(&exe)
                .args(["--workload", kind.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .env("LIP_JOBS", "1")
                .env_remove("LIP_LANE_WORDS")
                .status()
                .map_err(|e| format!("spawning {}: {e}", kind.name()))?;
            all_ok &= status.success();
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let doc = lip_delta::parse(&text).map_err(|e| format!("{file}: {e}"))?;
            if trace {
                docs.1.push(doc);
            } else {
                docs.0.push(doc);
            }
        }
    }
    let wrap = |workloads: Vec<Json>| {
        Json::Obj(vec![
            ("schema_version".to_owned(), Json::Int(1)),
            ("kind".to_owned(), Json::Str("lip_benchmark".to_owned())),
            (
                "seed".to_owned(),
                Json::Int(i64::try_from(args.seed).unwrap_or(i64::MAX)),
            ),
            ("workloads".to_owned(), Json::Arr(workloads)),
        ])
        .to_compact()
    };
    let (results, layers) = (wrap(docs.0), wrap(docs.1));
    write_out("results.json", &results)?;
    write_out("layers.json", &layers)?;
    println!("wrote {}", out_dir().join("results.json").display());
    if args.store {
        let mut run = RunBuilder::new("lip_benchmark");
        run.add_artifact("results.json", &results);
        run.add_artifact("layers.json", &layers);
        let store = RunStore::open(RunStore::default_root());
        let id = run.commit(&store).map_err(|e| format!("run store: {e}"))?;
        println!("stored run {id} in {}", store.root().display());
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload ladder --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Kind::Ladder));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.store),
            (7, 10.0, true, false)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--workload ladder --store").is_err());
    }

    /// `BENCHMARK.json` lists exactly the metrics the benchmark prints,
    /// in the same order, and its run length is the default one.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = lip_delta::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let run_seconds = doc.get("run_seconds").and_then(Json::as_int).unwrap();
        assert_eq!(args("").unwrap().seconds, run_seconds as f64);
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let listed = |ms: Vec<Metric>| -> Vec<(String, String)> {
            ms.into_iter()
                .map(|m| (m.name, m.unit.to_owned()))
                .collect()
        };
        let ledger = Ledger::new(&[]);
        assert_eq!(names("per_layer"), listed(ledger.metrics(0.0, 0.0)));
        let mut w = Workload::setup(Kind::ShippedSweep, 3).unwrap();
        let mut calib = Calibration::new(Kind::ShippedSweep.host_sensitivity());
        let phase = w.run(0.0, &mut calib);
        let (bounded, _) = end_to_end(&w, &phase, &calib, 1.0, 1.0);
        assert_eq!(names("end_to_end"), listed(bounded));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_owned()));
    }

    /// The run document parses back with the run store's JSON reader.
    #[test]
    fn run_documents_parse_with_lip_delta() {
        let m = vec![
            Metric::new("op_p50_ms", 1.25, "ms"),
            Metric::new("ops_per_sec", 800.0, "ops/s"),
        ];
        let doc = lip_delta::parse(&metrics_json(&m).to_compact()).unwrap();
        assert_eq!(
            doc.get("op_p50_ms")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(1.25)
        );
        let mut w = Workload::setup(Kind::ShippedSweep, 3).unwrap();
        let mut calib = Calibration::new(Kind::ShippedSweep.host_sensitivity());
        let mut phase = w.run(0.0, &mut calib);
        w.verify(&mut phase).unwrap();
        let rows = Json::Arr(w.design_rows(&phase.op_ms())).to_compact();
        let parsed = lip_delta::parse(&rows).unwrap();
        let fig1 = &parsed.as_arr().unwrap()[0];
        assert_eq!(fig1.get("name").and_then(Json::as_str), Some("fig1"));
        assert_eq!(fig1.get("ratio_num").and_then(Json::as_int), Some(4));
        assert_eq!(fig1.get("mc_states").and_then(Json::as_int), Some(7));
        let (bounded, all) = end_to_end(&w, &phase, &calib, 1.0, 1.0);
        for m in bounded.iter().chain(&all) {
            let key = if m.name == "setup_s" {
                "setup_secs"
            } else {
                &m.name
            };
            let exact = m.name == "peak_rss_mb";
            assert_eq!(lip_delta::diff::is_timing_key(key), !exact, "{key}");
        }
        assert!(lip_delta::diff::is_timing_key("wall_ops"));
    }
}
