//! `lip_mc` — prove protocol properties of textual netlists by
//! exhaustive model checking.
//!
//! ```text
//! lip_mc [--json] [--prove deadlock|throughput|bounds]...
//!        [--env declared|adversarial] [--max-states N]
//!        [--trace out.json] [--deny all] <file.lid>...
//! ```
//!
//! * `--prove` — which properties to prove (repeatable; default all
//!   three): `deadlock` (deadlock freedom or a counterexample),
//!   `throughput` (exact sustained rate per sink, statically),
//!   `bounds` (maximum reachable occupancy per relay station);
//! * `--env` — `declared` (default) checks the environment the netlist
//!   declares; `adversarial` universally quantifies over every
//!   environment for the deadlock proof (throughput/bounds are
//!   declared-environment notions and always use the declared checker);
//! * `--max-states` — state budget (default 65536);
//! * `--trace FILE` — write the counterexample (on deadlock) or the
//!   proved lasso schedule as Chrome-trace JSON;
//! * `--deny all` — also fail on non-verdicts: a truncated adversarial
//!   search (`unknown`) or an aperiodic declared-mode skip.
//!
//! Exit codes: 0 proofs passed, 1 deadlock proved (or denied
//! non-verdict), 2 usage or parse error.

use lip_graph::{parse_netlist_spanned, Netlist};
use lip_mc::{
    check_adversarial, check_declared, confirm_stuck, schedule_tracks, McConfig, McError, Schedule,
    Verdict,
};
use lip_obs::{schedule_chrome_trace, Json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args.iter().map(String::as_str).collect::<Vec<_>>());
    std::process::exit(code);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prop {
    Deadlock,
    Throughput,
    Bounds,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Env {
    Declared,
    Adversarial,
}

struct Options {
    json: bool,
    props: Vec<Prop>,
    env: Env,
    deny_all: bool,
    trace: Option<String>,
    config: McConfig,
    files: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            json: false,
            props: Vec::new(),
            env: Env::Declared,
            deny_all: false,
            trace: None,
            config: McConfig::default(),
            files: Vec::new(),
        }
    }
}

fn parse_args(args: &[&str]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        match arg {
            "--json" => opts.json = true,
            "--prove" => {
                let value = *it.next().ok_or("--prove needs a property")?;
                opts.props.push(match value {
                    "deadlock" => Prop::Deadlock,
                    "throughput" => Prop::Throughput,
                    "bounds" => Prop::Bounds,
                    other => return Err(format!("unknown property `{other}`")),
                });
            }
            "--env" => {
                let value = *it.next().ok_or("--env needs a mode")?;
                opts.env = match value {
                    "declared" => Env::Declared,
                    "adversarial" => Env::Adversarial,
                    other => return Err(format!("unknown environment mode `{other}`")),
                };
            }
            "--max-states" => {
                let value = *it.next().ok_or("--max-states needs a number")?;
                opts.config.max_states = value
                    .parse()
                    .map_err(|_| format!("bad state budget `{value}`"))?;
            }
            "--trace" => {
                let value = *it.next().ok_or("--trace needs a file")?;
                opts.trace = Some(value.to_owned());
            }
            "--deny" => {
                let value = *it.next().ok_or("--deny needs `all`")?;
                if !value.eq_ignore_ascii_case("all") {
                    return Err(format!("--deny takes `all`, got `{value}`"));
                }
                opts.deny_all = true;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            file => opts.files.push(file.to_owned()),
        }
    }
    if opts.props.is_empty() {
        opts.props = vec![Prop::Deadlock, Prop::Throughput, Prop::Bounds];
    }
    if opts.files.is_empty() {
        return Err("no input files".to_owned());
    }
    Ok(opts)
}

fn usage(err: &str) -> i32 {
    eprintln!("error: {err}");
    eprintln!(
        "usage: lip_mc [--json] [--prove deadlock|throughput|bounds] \
         [--env declared|adversarial] [--max-states N] [--trace FILE] \
         [--deny all] <file.lid>..."
    );
    2
}

/// Everything proved about one file, for both renderers.
struct FileOutcome {
    file: String,
    /// Human lines already formatted.
    lines: Vec<String>,
    /// JSON members after `"file"`, in proof order.
    fields: Vec<(&'static str, Json)>,
    /// Proved deadlock (fails the run).
    deadlock: bool,
    /// Non-verdict: truncated or aperiodic skip (fails under --deny).
    unknown: bool,
}

fn run(args: &[&str]) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let mut failed = false;
    let mut denied = false;
    let mut outcomes = Vec::new();
    for file in &opts.files {
        match check_file(file, &opts) {
            Ok(out) => {
                failed |= out.deadlock;
                denied |= out.unknown;
                outcomes.push(out);
            }
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        }
    }
    if opts.json {
        print!("{}", json_doc(&outcomes));
    } else {
        for out in &outcomes {
            for line in &out.lines {
                println!("{}: {line}", out.file);
            }
        }
    }
    i32::from(failed || (opts.deny_all && denied))
}

/// The `--json` document: one object per file, its proof members in
/// order.
fn json_doc(outcomes: &[FileOutcome]) -> String {
    let files = outcomes.iter().map(|out| {
        let file = ("file", out.file.as_str().into());
        Json::obj(std::iter::once(file).chain(out.fields.iter().cloned()))
    });
    let doc = Json::obj([
        ("schema_version", lip_obs::schema::MC.into()),
        ("files", files.collect()),
    ]);
    doc.to_pretty() + "\n"
}

fn check_file(file: &str, opts: &Options) -> Result<FileOutcome, String> {
    let text =
        std::fs::read_to_string(file).map_err(|e| format!("error: cannot read `{file}`: {e}"))?;
    let parsed = parse_netlist_spanned(&text)
        .map_err(|e| format!("{file}:{}: error[parse]: {}", e.span, e.message()))?;
    let netlist = parsed.netlist;
    netlist
        .validate()
        .map_err(|e| format!("{file}: error[validate]: {e}"))?;

    let mut out = FileOutcome {
        file: file.to_owned(),
        lines: Vec::new(),
        fields: Vec::new(),
        deadlock: false,
        unknown: false,
    };
    let declared = check_declared(&netlist, &opts.config);
    match &declared {
        Ok(proof) => {
            out.fields.extend([
                ("states", proof.states.into()),
                ("stem", proof.stem.into()),
                ("period", proof.period.into()),
            ]);
            out.lines.push(format!(
                "explored {} states (stem {}, period {})",
                proof.states, proof.stem, proof.period
            ));
        }
        Err(McError::Aperiodic) => {
            out.unknown = true;
            out.fields.push(("skipped", "aperiodic".into()));
            out.lines
                .push("skipped: aperiodic endpoint pattern (declared mode)".to_owned());
        }
        Err(McError::StateCap { visited, cap }) => {
            out.unknown = true;
            out.fields.push(("skipped", "state_space_cap".into()));
            out.lines.push(format!(
                "skipped: state space exceeds budget ({visited} states, cap {cap})"
            ));
        }
        Err(e) => return Err(format!("{file}: error[mc]: {e}")),
    }

    for prop in &opts.props {
        match prop {
            Prop::Deadlock => prove_deadlock(&netlist, opts, &declared, &mut out)?,
            Prop::Throughput => {
                if let Ok(proof) = &declared {
                    let sinks = proof.throughput.iter().map(|&(id, r)| {
                        Json::obj([
                            ("sink", netlist.node(id).name().into()),
                            ("num", r.num().into()),
                            ("den", r.den().into()),
                        ])
                    });
                    out.fields.push(("throughput", sinks.collect()));
                    match proof.system_throughput() {
                        Some(r) => out.lines.push(format!(
                            "proved throughput {}/{} ({:.3})",
                            r.num(),
                            r.den(),
                            r.to_f64()
                        )),
                        None => out.lines.push("no sinks: no throughput".to_owned()),
                    }
                }
            }
            Prop::Bounds => {
                if let Ok(proof) = &declared {
                    let relays = proof.relay_bounds.iter().map(|&(id, occ, cap)| {
                        Json::obj([
                            ("relay", netlist.node(id).name().into()),
                            ("max_occupancy", occ.into()),
                            ("capacity", cap.into()),
                        ])
                    });
                    out.fields.push(("relay_bounds", relays.collect()));
                    for &(id, occ, cap) in &proof.relay_bounds {
                        out.lines.push(format!(
                            "relay {}: max occupancy {occ} of {cap}",
                            netlist.node(id).name()
                        ));
                    }
                }
            }
        }
    }
    Ok(out)
}

fn prove_deadlock(
    netlist: &Netlist,
    opts: &Options,
    declared: &Result<lip_mc::DeclaredProof, McError>,
    out: &mut FileOutcome,
) -> Result<(), String> {
    let (verdict, cex, trace_schedule): (Verdict, _, Option<Schedule>) = match opts.env {
        Env::Declared => match declared {
            Ok(proof) => {
                let verdict = if proof.deadlock() {
                    Verdict::Deadlock
                } else {
                    Verdict::DeadlockFree
                };
                (
                    verdict,
                    proof.counterexample(netlist),
                    Some(proof.schedule.clone()),
                )
            }
            Err(_) => (Verdict::Unknown, None, None),
        },
        Env::Adversarial => {
            let proof =
                check_adversarial(netlist, &opts.config).map_err(|e| format!("error[mc]: {e}"))?;
            out.fields.extend([
                ("adversarial_states", proof.states.into()),
                ("complete", proof.complete.into()),
            ]);
            let sched = proof.counterexample.as_ref().map(|c| c.schedule.clone());
            (proof.verdict, proof.counterexample, sched)
        }
    };
    out.fields.push(("verdict", verdict.to_string().into()));
    match verdict {
        Verdict::DeadlockFree => out.lines.push("proved deadlock-free".to_owned()),
        Verdict::Unknown => {
            out.unknown = true;
            out.lines
                .push("deadlock verdict unknown (state budget exceeded)".to_owned());
        }
        Verdict::Deadlock => {
            out.deadlock = true;
            if let Some(cex) = &cex {
                confirm_stuck(netlist, cex)
                    .map_err(|e| format!("error[mc]: counterexample failed replay: {e}"))?;
                out.lines.push(format!(
                    "DEADLOCK proved: wedged after {} cycles (counterexample replayed)",
                    cex.schedule.len()
                ));
            } else {
                out.lines.push("DEADLOCK proved".to_owned());
            }
        }
    }
    if let Some(path) = &opts.trace {
        // Counterexample when deadlocked, else the proved lasso.
        let schedule = cex
            .as_ref()
            .map_or(trace_schedule, |c| Some(c.schedule.clone()));
        if let Some(schedule) = schedule {
            let tracks = schedule_tracks(netlist, &schedule)
                .map_err(|e| format!("error[mc]: trace replay: {e}"))?;
            let json = schedule_chrome_trace("lip-mc", &tracks);
            std::fs::write(path, json).map_err(|e| format!("error: cannot write `{path}`: {e}"))?;
            eprintln!("trace: wrote {path}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIVE_CHAIN: &str = "source in\n\
                              shell a identity\n\
                              relay r full\n\
                              shell b identity\n\
                              sink out\n\
                              connect in:0 -> a:0\n\
                              connect a:0 -> r:0\n\
                              connect r:0 -> b:0\n\
                              connect b:0 -> out:0\n";

    fn temp_file(name: &str, contents: &str) -> String {
        let dir = std::env::temp_dir().join("lip_mc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path.to_str().unwrap().to_owned()
    }

    #[test]
    fn parses_flags() {
        let opts = parse_args(&[
            "--json",
            "--prove",
            "deadlock",
            "--env",
            "adversarial",
            "--max-states",
            "100",
            "--deny",
            "all",
            "x.lid",
        ])
        .unwrap();
        assert!(opts.json && opts.deny_all);
        assert_eq!(opts.config.max_states, 100);
        assert!(matches!(opts.env, Env::Adversarial));
        assert_eq!(opts.props, vec![Prop::Deadlock]);
        assert!(parse_args(&["--prove", "bogus", "x"]).is_err());
        assert!(parse_args(&["--env", "bogus", "x"]).is_err());
        assert!(parse_args(&["--deny", "LIP001", "x"]).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn proves_a_live_chain_clean() {
        let file = temp_file("live.lid", LIVE_CHAIN);
        assert_eq!(run(&[&file]), 0);
        assert_eq!(run(&["--json", "--deny", "all", &file]), 0);
        assert_eq!(
            run(&["--env", "adversarial", "--prove", "deadlock", &file]),
            0
        );
    }

    #[test]
    fn json_document_parses_back() {
        let file = temp_file("json.lid", LIVE_CHAIN);
        let opts = parse_args(&["--json", &file]).unwrap();
        let out = check_file(&file, &opts).unwrap();
        let doc = lip_obs::json::parse(&json_doc(&[out])).unwrap();
        assert_eq!(
            doc.get("schema_version"),
            Some(&Json::from(lip_obs::schema::MC))
        );
        let f = &doc.get("files").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(f.get("file"), Some(&Json::from(file.as_str())));
        assert_eq!(f.get("verdict"), Some(&Json::from("deadlock-free")));
        let sink = &f.get("throughput").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(sink.get("sink"), Some(&Json::from("out")));
        assert_eq!(sink.get("num"), Some(&Json::Int(1)));
        assert_eq!(sink.get("den"), Some(&Json::Int(1)));
        assert!(f.get("relay_bounds").and_then(Json::as_arr).is_some());
    }

    #[test]
    fn budget_exhaustion_is_denied_only_with_deny_all() {
        let file = temp_file("budget.lid", LIVE_CHAIN);
        let args = [
            "--env",
            "adversarial",
            "--prove",
            "deadlock",
            "--max-states",
            "1",
            &file,
        ];
        assert_eq!(run(&args), 0);
        let mut denied = vec!["--deny", "all"];
        denied.extend_from_slice(&args);
        assert_eq!(run(&denied), 1);
    }

    #[test]
    fn parse_errors_exit_2() {
        let file = temp_file("broken.lid", "relay r fifo:1\n");
        assert_eq!(run(&[&file]), 2);
        assert_eq!(run(&["missing-file.lid"]), 2);
    }

    #[test]
    fn trace_writes_a_chrome_document() {
        let file = temp_file("trace.lid", LIVE_CHAIN);
        let trace = temp_file("trace.json", "");
        assert_eq!(run(&["--prove", "deadlock", "--trace", &trace, &file]), 0);
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("shell a"));
    }
}
