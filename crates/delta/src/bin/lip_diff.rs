//! `lip_diff` — capture sweep artifacts into the run store, diff runs,
//! and gate CI on committed baselines.
//!
//! ```text
//! lip_diff capture [--store DIR] [--label L] FILE...
//! lip_diff list [--store DIR]
//! lip_diff compare [--store DIR] [--json] <run_a> <run_b>
//! lip_diff baseline check [--baselines DIR]
//! lip_diff baseline accept [--baselines DIR] [FILE...]
//! ```
//!
//! * `capture` — commit the given artifact files as one run
//!   (content-addressed: an identical artifact set re-commits under
//!   the same id). Prints the run id.
//! * `list` — the stored runs, oldest first.
//! * `compare` — diff two runs (ids or unique prefixes); `--json`
//!   prints the versioned document instead of the human rendering.
//! * `baseline check` — re-extract the exact-domain subset of every
//!   artifact named by a committed baseline under `baselines/` and
//!   fail on any divergence (timing is never baselined).
//! * `baseline accept` — rewrite the baselines from the current
//!   artifacts: all of them, or just the files given.
//!
//! Exit codes: 0 clean, 1 diff/regression/check failure, 2 usage or
//! I/O error.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lip_delta::{baseline_doc, check_one, diff_runs, parse, Json, RunBuilder, RunStore, Sentinel};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(exit_code(&args))
}

/// The process exit code for `args`: 0 clean, 1 diff or check failure,
/// 2 usage or I/O error.
fn exit_code(args: &[String]) -> u8 {
    match run(args) {
        Ok(clean) => u8::from(!clean),
        Err(msg) => {
            eprintln!("lip_diff: {msg}");
            2
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "capture" => capture(rest),
        "list" => list(rest),
        "compare" => compare(rest),
        "baseline" => baseline(rest),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(true)
        }
        other => Err(format!("unknown subcommand '{other}'\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: lip_diff capture [--store DIR] [--label L] FILE...\n\
     \u{20}      lip_diff list [--store DIR]\n\
     \u{20}      lip_diff compare [--store DIR] [--json] <run_a> <run_b>\n\
     \u{20}      lip_diff baseline check|accept [--baselines DIR] [FILE...]"
        .to_owned()
}

/// `(valued options, flag hits, positionals)` from [`parse_opts`].
type ParsedArgs<'a> = (Vec<(&'a str, &'a str)>, Vec<bool>, Vec<&'a str>);

/// Split `--store DIR` / `--label L` / `--json` style options from
/// positional arguments.
fn parse_opts<'a>(
    args: &'a [String],
    valued: &[&str],
    flags: &[&str],
) -> Result<ParsedArgs<'a>, String> {
    let mut values = Vec::new();
    let mut flag_hits = vec![false; flags.len()];
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(i) = flags.iter().position(|f| f == a) {
            flag_hits[i] = true;
        } else if valued.contains(&a.as_str()) {
            let v = it
                .next()
                .ok_or_else(|| format!("option {a} needs a value"))?;
            values.push((a.as_str(), v.as_str()));
        } else if a.starts_with("--") {
            return Err(format!("unknown option {a}"));
        } else {
            positional.push(a.as_str());
        }
    }
    Ok((values, flag_hits, positional))
}

fn opt<'a>(values: &[(&'a str, &'a str)], name: &str) -> Option<&'a str> {
    values.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
}

fn store_from(values: &[(&str, &str)]) -> RunStore {
    RunStore::open(opt(values, "--store").map_or_else(RunStore::default_root, PathBuf::from))
}

fn capture(args: &[String]) -> Result<bool, String> {
    let (values, _, files) = parse_opts(args, &["--store", "--label"], &[])?;
    if files.is_empty() {
        return Err("capture needs at least one artifact file".into());
    }
    let store = store_from(&values);
    let mut b = RunBuilder::new(opt(&values, "--label").unwrap_or("sweep"));
    for f in &files {
        b.add_file(Path::new(f)).map_err(|e| format!("{f}: {e}"))?;
    }
    let id = b.commit(&store).map_err(|e| e.to_string())?;
    println!("{id}");
    Ok(true)
}

fn list(args: &[String]) -> Result<bool, String> {
    let (values, _, positional) = parse_opts(args, &["--store"], &[])?;
    if !positional.is_empty() {
        return Err("list takes no positional arguments".into());
    }
    let store = store_from(&values);
    let runs = store.list().map_err(|e| e.to_string())?;
    if runs.is_empty() {
        println!("no runs in {}", store.root().display());
        return Ok(true);
    }
    for m in runs {
        println!(
            "{}  {:>4} artifact(s)  git {}  {}",
            m.run_id,
            m.artifacts.len(),
            m.git_sha.get(..12).unwrap_or(&m.git_sha),
            m.label
        );
    }
    Ok(true)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let (values, flags, runs) = parse_opts(args, &["--store"], &["--json"])?;
    let json = flags[0];
    let [id_a, id_b] = runs.as_slice() else {
        return Err("compare needs exactly two run ids".into());
    };
    let store = store_from(&values);
    let a = store.load(id_a).map_err(|e| e.to_string())?;
    let b = store.load(id_b).map_err(|e| e.to_string())?;
    let diff = diff_runs(&store, &a, &b, &Sentinel::default());
    if json {
        println!("{}", diff.to_json().to_compact());
    } else {
        print!("{}", diff.render_human());
    }
    Ok(diff.clean())
}

/// Where a baselined artifact may live now: as given, repo root, or
/// the report directory.
fn resolve_artifact(name: &str) -> Result<PathBuf, String> {
    let report_dir =
        std::env::var("LIP_REPORT_DIR").unwrap_or_else(|_| "target/reports".to_owned());
    let candidates = [PathBuf::from(name), Path::new(&report_dir).join(name)];
    candidates
        .iter()
        .find(|p| p.exists())
        .cloned()
        .ok_or_else(|| format!("artifact {name} not found (looked in . and {report_dir})"))
}

fn baseline(args: &[String]) -> Result<bool, String> {
    let Some(verb) = args.first() else {
        return Err("baseline needs 'check' or 'accept'".into());
    };
    let (values, _, files) = parse_opts(&args[1..], &["--baselines"], &[])?;
    let dir = PathBuf::from(opt(&values, "--baselines").unwrap_or("baselines"));
    match verb.as_str() {
        "check" => baseline_check(&dir),
        "accept" => baseline_accept(&dir, &files),
        other => Err(format!("unknown baseline verb '{other}'")),
    }
}

fn baseline_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let p = entry.map_err(|e| e.to_string())?.path();
        if p.extension().is_some_and(|x| x == "json") {
            out.push(p);
        }
    }
    out.sort();
    Ok(out)
}

fn load_json(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn baseline_check(dir: &Path) -> Result<bool, String> {
    let files = baseline_files(dir)?;
    if files.is_empty() {
        return Err(format!("no baselines under {}", dir.display()));
    }
    let mut clean = true;
    for f in &files {
        let base = load_json(f)?;
        let Some(source) = base.get("source").and_then(Json::as_str) else {
            return Err(format!("{}: missing 'source'", f.display()));
        };
        let current = load_json(&resolve_artifact(source)?)?;
        let diffs = check_one(source, &base, &current);
        if diffs.is_empty() {
            println!("baseline ok: {source}");
        } else {
            clean = false;
            println!("baseline DIVERGED: {source}");
            for d in &diffs {
                let show =
                    |v: &Option<Json>| v.as_ref().map_or_else(|| "∅".to_owned(), Json::to_compact);
                println!("  {}: {} → {}", d.path, show(&d.before), show(&d.after));
            }
        }
    }
    if !clean {
        println!(
            "baseline check failed — if the change is intentional, run \
             'cargo run --release --bin lip_diff -- baseline accept' and commit"
        );
    }
    Ok(clean)
}

fn baseline_accept(dir: &Path, files: &[&str]) -> Result<bool, String> {
    // With explicit files: (re)create those baselines. Without:
    // refresh every committed baseline from its current artifact.
    let sources: Vec<String> = if files.is_empty() {
        baseline_files(dir)?
            .iter()
            .map(|f| {
                let base = load_json(f)?;
                base.get("source")
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("{}: missing 'source'", f.display()))
            })
            .collect::<Result<_, _>>()?
    } else {
        files.iter().map(|&f| f.to_owned()).collect()
    };
    if sources.is_empty() {
        return Err(format!(
            "no baselines under {} and no artifact files given",
            dir.display()
        ));
    }
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for source in &sources {
        let path = resolve_artifact(source)?;
        let doc = load_json(&path)?;
        let name = Path::new(source)
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| format!("bad artifact name {source}"))?;
        let out = dir.join(name);
        fs::write(&out, baseline_doc(name, &doc).to_compact() + "\n")
            .map_err(|e| format!("{}: {e}", out.display()))?;
        println!("accepted {name} → {}", out.display());
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(args: &[&str]) -> u8 {
        exit_code(&args.iter().map(|&a| a.to_owned()).collect::<Vec<_>>())
    }

    /// A fresh scratch directory for one test.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lip_diff-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn usage_errors_and_missing_inputs_exit_2() {
        for args in [
            &[][..],
            &["frobnicate"],
            &["schema", "report"],
            &["baseline"],
            &["baseline", "bless"],
            &["compare", "--bogus"],
        ] {
            assert_eq!(code(args), 2, "{args:?}");
        }
        let dir = scratch("missing");
        let store = dir.join("store");
        let (store, missing) = (store.to_str().unwrap(), "no/such/BENCH_x.json");
        assert_eq!(code(&["capture", "--store", store, missing]), 2);
        assert_eq!(code(&["compare", "--store", store, "0123", "4567"]), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_or_garbled_baselines_exit_2() {
        let dir = scratch("baseline");
        let baselines = dir.join("baselines");
        let check = || {
            code(&[
                "baseline",
                "check",
                "--baselines",
                baselines.to_str().unwrap(),
            ])
        };
        assert_eq!(check(), 2, "no baseline directory");
        fs::create_dir_all(&baselines).unwrap();
        assert_eq!(check(), 2, "no baselines in it");
        let source = dir.join("BENCH_x.json");
        let source = source.to_str().unwrap();
        let good = baseline_doc(source, &parse("{\"ok\": true}").unwrap()).to_compact();
        for garbled in ["", "{\"source\": ", "{\"source\": 7}", "[1, 2]", &good] {
            // The last one is well formed, but its artifact is missing.
            fs::write(baselines.join("BENCH_x.json"), garbled).unwrap();
            assert_eq!(check(), 2, "baseline {garbled:?}");
        }
        fs::write(source, "{\"ok\": tru").unwrap();
        assert_eq!(check(), 2, "garbled artifact");
        fs::write(source, "{\"ok\": false}").unwrap();
        assert_eq!(check(), 1, "a diverged artifact fails the check");
        fs::write(source, "{\"ok\": true}").unwrap();
        assert_eq!(check(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_manifests_exit_2_or_list() {
        let dir = scratch("manifest");
        let store = dir.join("store");
        let artifact = dir.join("BENCH_x.json");
        fs::write(&artifact, "{}").unwrap();
        let (store_s, artifact_s) = (store.to_str().unwrap(), artifact.to_str().unwrap());
        assert_eq!(code(&["capture", "--store", store_s, artifact_s]), 0);
        let id = RunStore::open(&store).list().unwrap()[0].run_id.clone();
        assert_eq!(code(&["compare", "--store", store_s, &id, &id]), 0);
        assert_eq!(code(&["compare", "--store", store_s, &id, "ffff"]), 2);
        let manifest = store.join(&id).join("manifest.json");
        let text = fs::read_to_string(&manifest).unwrap();
        // A multi-byte character straddling the 12-byte short SHA.
        let sha = text.replace("\"git_sha\":\"", "\"git_sha\":\"01234567890\u{e9}");
        assert_ne!(sha, text);
        fs::write(&manifest, sha).unwrap();
        assert_eq!(code(&["list", "--store", store_s]), 0);
        fs::write(&manifest, &text[..text.len() / 2]).unwrap();
        assert_eq!(code(&["list", "--store", store_s]), 2);
        assert_eq!(code(&["compare", "--store", store_s, &id, &id]), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
