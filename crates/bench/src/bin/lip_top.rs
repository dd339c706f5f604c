//! `lip-top` — live text dashboard over the sweep progress exposition.
//!
//! The long-running experiment bins (`exp_runtime_obs`,
//! `exp_batch_sweep`) publish
//! [`ProgressSnapshot`](lip_obs::ProgressSnapshot)s to a
//! Prometheus-style text file (`progress.prom` in the report
//! directory, atomically rewritten on every publish). This bin renders
//! that file as a per-`(experiment, topology)` table — a `top`-style
//! view of an in-flight sweep.
//!
//! Usage: `lip_top [--file PATH] [--watch]`. Without `--watch` it
//! prints one table and exits; with it, the table refreshes twice a
//! second until interrupted, and a `Δcycles` column shows how far each
//! unit advanced since the previous refresh (`-` on first sight — a
//! stalled unit reads `+0` at a glance). A missing file is not an
//! error — it just means nothing has published yet.

use std::path::PathBuf;

use lip_bench::{report_dir, table};

/// One parsed `(experiment, topology)` row of the exposition.
#[derive(Debug, Default, Clone)]
struct Unit {
    experiment: String,
    topology: String,
    lanes: f64,
    converged: f64,
    cycles: f64,
    cycles_per_sec: f64,
    cache_hits: f64,
    cache_misses: f64,
    elapsed_s: f64,
}

/// Parse one exposition line: `name{experiment="…",topology="…"} value`.
fn parse_line(line: &str) -> Option<(&str, String, String, f64)> {
    let line = line.strip_prefix("lip_")?;
    let brace = line.find('{')?;
    let close = line.find('}')?;
    let metric = &line[..brace];
    let labels = &line[brace + 1..close];
    let value: f64 = line[close + 1..].trim().parse().ok()?;
    let label = |key: &str| -> Option<String> {
        let pat = format!("{key}=\"");
        let start = labels.find(&pat)? + pat.len();
        let end = labels[start..].find('"')? + start;
        Some(labels[start..end].to_string())
    };
    Some((metric, label("experiment")?, label("topology")?, value))
}

fn parse(text: &str) -> Vec<Unit> {
    let mut units: Vec<Unit> = Vec::new();
    for line in text.lines() {
        let Some((metric, experiment, topology, value)) = parse_line(line) else {
            continue;
        };
        let unit = match units
            .iter_mut()
            .find(|u| u.experiment == experiment && u.topology == topology)
        {
            Some(u) => u,
            None => {
                units.push(Unit {
                    experiment,
                    topology,
                    ..Unit::default()
                });
                units.last_mut().expect("just pushed")
            }
        };
        match metric {
            "lanes" => unit.lanes = value,
            "lanes_converged" => unit.converged = value,
            "cycles_executed" => unit.cycles = value,
            "cycles_per_sec" => unit.cycles_per_sec = value,
            "cache_hits" => unit.cache_hits = value,
            "cache_misses" => unit.cache_misses = value,
            "elapsed_seconds" => unit.elapsed_s = value,
            _ => {}
        }
    }
    units
}

/// Cycles each current unit advanced since the previous refresh,
/// keyed by `(experiment, topology)`; `None` for units not seen
/// before (first refresh, or a new unit appearing mid-watch).
fn deltas(prev: &[Unit], cur: &[Unit]) -> Vec<Option<f64>> {
    cur.iter()
        .map(|u| {
            prev.iter()
                .find(|p| p.experiment == u.experiment && p.topology == u.topology)
                .map(|p| u.cycles - p.cycles)
        })
        .collect()
}

fn render(units: &[Unit], deltas: &[Option<f64>]) -> String {
    let rows: Vec<Vec<String>> = units
        .iter()
        .zip(deltas)
        .map(|(u, d)| {
            vec![
                u.experiment.clone(),
                u.topology.clone(),
                format!("{}/{}", u.converged, u.lanes),
                format!("{}", u.cycles),
                d.map_or_else(|| "-".to_string(), |d| format!("{d:+}")),
                format!("{:.3e}", u.cycles_per_sec),
                format!("{}/{}", u.cache_hits, u.cache_misses),
                format!("{:.2}s", u.elapsed_s),
            ]
        })
        .collect();
    table(
        &[
            "experiment",
            "topology",
            "lanes conv",
            "cycles",
            "Δcycles",
            "cyc/s",
            "cache h/m",
            "elapsed",
        ],
        &rows,
    )
}

fn main() {
    let mut path: Option<PathBuf> = None;
    let mut watch = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--file" => path = Some(PathBuf::from(args.next().expect("--file takes a path"))),
            "--watch" => watch = true,
            other => {
                eprintln!("usage: lip_top [--file PATH] [--watch] (unknown arg {other:?})");
                std::process::exit(2);
            }
        }
    }
    let path = path.unwrap_or_else(|| report_dir().join("progress.prom"));

    let mut prev: Vec<Unit> = Vec::new();
    loop {
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                let units = parse(&text);
                let ds = deltas(&prev, &units);
                if watch {
                    // ANSI clear + home, so the refresh reads like top.
                    print!("\x1b[2J\x1b[H");
                }
                println!("lip-top — {} unit(s) from {}", units.len(), path.display());
                print!("{}", render(&units, &ds));
                prev = units;
            }
            Err(_) => {
                println!(
                    "lip-top: nothing published yet at {} (run an exp_* bin first)",
                    path.display()
                );
            }
        }
        if !watch {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(500));
    }
}

#[cfg(test)]
mod tests {
    use super::{deltas, parse, render};
    use lip_obs::{MemoryProgress, ProgressSink, ProgressSnapshot};

    fn snap(topology: &str, cycles: u64) -> ProgressSnapshot {
        ProgressSnapshot {
            experiment: "exp_test".to_string(),
            topology: topology.to_string(),
            lanes: 64,
            lanes_converged: 32,
            cycles_executed: cycles,
            cycles_per_sec: 1.0e6,
            cache_hits: 3,
            cache_misses: 1,
            elapsed_ns: 2_000_000_000,
        }
    }

    #[test]
    fn delta_column_tracks_cycles_between_published_snapshots() {
        // Two refreshes of the same unit published through the
        // in-memory sink, exactly as a sweep publishes to the prom
        // file lip_top tails.
        let mut sink = MemoryProgress::new();
        sink.publish(&snap("fig1", 1024));
        sink.publish(&snap("fig1", 4096));

        let first = parse(&sink.snaps[0].prometheus_text());
        let second = parse(&sink.snaps[1].prometheus_text());
        assert_eq!(first.len(), 1);
        assert_eq!(second[0].cycles, 4096.0);

        // First refresh has no history; second shows the advance.
        assert_eq!(deltas(&[], &first), vec![None]);
        let ds = deltas(&first, &second);
        assert_eq!(ds, vec![Some(3072.0)]);

        let out = render(&second, &ds);
        assert!(out.contains("+3072"), "delta column renders signed: {out}");
        let cold = render(&first, &deltas(&[], &first));
        assert!(
            cold.lines().nth(2).is_some_and(|r| r.contains(" - ")),
            "unseen units render '-': {cold}"
        );
    }

    #[test]
    fn deltas_pair_units_by_experiment_and_topology() {
        let mut sink = MemoryProgress::new();
        sink.publish(&snap("fig1", 100));
        sink.publish(&snap("ring3x2", 700));
        let prev_text: String = sink
            .snaps
            .iter()
            .map(ProgressSnapshot::prometheus_text)
            .collect();
        let prev = parse(&prev_text);

        // Next refresh: ring advanced, fig1 gone, a new unit appeared.
        let mut next_sink = MemoryProgress::new();
        next_sink.publish(&snap("ring3x2", 1200));
        next_sink.publish(&snap("tree2x2", 50));
        let cur_text: String = next_sink
            .snaps
            .iter()
            .map(ProgressSnapshot::prometheus_text)
            .collect();
        let cur = parse(&cur_text);

        assert_eq!(deltas(&prev, &cur), vec![Some(500.0), None]);
    }
}
