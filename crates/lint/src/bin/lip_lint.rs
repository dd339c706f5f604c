//! `lip_lint` — lint textual netlists for the paper's implementation
//! issues, without simulating.
//!
//! ```text
//! lip_lint [--json] [--fix] [--deny RULE|all]... [--allow RULE|all]... <file.lid>...
//! ```
//!
//! * `--json` — emit one versioned JSON document (schema_version 1)
//!   covering every input file instead of the human renderer;
//! * `--fix` — apply machine-applicable fix-its and rewrite each file
//!   in place (names are preserved, comments are not), then report the
//!   diagnostics that remain;
//! * `--deny RULE` — exit non-zero if RULE fires (`all` for every
//!   rule); error-severity diagnostics always fail the run;
//! * `--allow RULE` — suppress RULE entirely (`all` for every rule);
//!   allow wins over deny.
//!
//! Exit codes: 0 clean, 1 lint failure, 2 usage or parse error.

use lip_graph::{parse_netlist_spanned, write_netlist};
use lip_lint::{
    apply_fixits, apply_fixits_compiled, lint, render_human, render_json, Diagnostic, LintConfig,
    RuleId,
};
use lip_sim::SettleProgram;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args.iter().map(String::as_str).collect::<Vec<_>>());
    std::process::exit(code);
}

#[derive(Default)]
struct Options {
    json: bool,
    fix: bool,
    config: LintConfig,
    files: Vec<String>,
}

fn parse_args(args: &[&str]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        match arg {
            "--json" => opts.json = true,
            "--fix" => opts.fix = true,
            "--deny" | "--allow" => {
                let value = *it.next().ok_or_else(|| format!("{arg} needs a rule"))?;
                let rules: Vec<RuleId> = if value.eq_ignore_ascii_case("all") {
                    RuleId::ALL.to_vec()
                } else {
                    vec![RuleId::from_code(value)
                        .ok_or_else(|| format!("unknown rule `{value}`"))?]
                };
                for rule in rules {
                    if arg == "--deny" {
                        opts.config.deny(rule);
                    } else {
                        opts.config.allow(rule);
                    }
                }
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            file => opts.files.push(file.to_owned()),
        }
    }
    if opts.files.is_empty() {
        return Err("no input files".to_owned());
    }
    Ok(opts)
}

fn usage(err: &str) -> i32 {
    eprintln!("error: {err}");
    eprintln!(
        "usage: lip_lint [--json] [--fix] [--deny RULE|all] [--allow RULE|all] <file.lid>..."
    );
    eprintln!("rules:");
    for rule in RuleId::ALL {
        eprintln!(
            "  {} ({}): {}",
            rule.code(),
            rule.default_severity(),
            rule.summary()
        );
    }
    2
}

fn run(args: &[&str]) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let mut failed = false;
    let mut per_file: Vec<(String, Vec<Diagnostic>)> = Vec::new();
    for file in &opts.files {
        let diags = match lint_file(file, &opts) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        };
        if opts.config.should_fail(&diags) {
            failed = true;
        }
        if opts.json {
            per_file.push((file.clone(), diags));
        } else {
            print!("{}", render_human(file, &diags));
        }
    }
    if opts.json {
        print!("{}", render_json(&per_file));
    }
    i32::from(failed)
}

/// Lint one file; with `--fix`, rewrite it and report what remains.
fn lint_file(file: &str, opts: &Options) -> Result<Vec<Diagnostic>, String> {
    let text =
        std::fs::read_to_string(file).map_err(|e| format!("error: cannot read `{file}`: {e}"))?;
    let parsed = parse_netlist_spanned(&text)
        .map_err(|e| format!("{file}:{}: error[parse]: {}", e.span, e.message()))?;
    let mut netlist = parsed.netlist;
    let diags = opts.config.filter(lint(&netlist, &parsed.source_map));
    if !opts.fix || diags.iter().all(|d| d.fix.is_none()) {
        return Ok(diags);
    }
    // One compile per file; each insertion fix-it is then an
    // incremental patch on that program (`compile.patch`), so a batch
    // of fixes never pays per-fix recompiles. A netlist that does not
    // compile (e.g. a combinational loop the lint is reporting) falls
    // back to the uncompiled applier.
    let report = match SettleProgram::compile(&netlist) {
        Ok(mut program) => apply_fixits_compiled(&mut netlist, &mut program, &diags),
        Err(_) => apply_fixits(&mut netlist, &diags),
    }
    .map_err(|e| format!("error: cannot fix `{file}`: {e}"))?;
    let fixed_text = write_netlist(&netlist);
    std::fs::write(file, &fixed_text).map_err(|e| format!("error: cannot write `{file}`: {e}"))?;
    eprintln!(
        "{file}: applied {} fix(es), inserted {} relay station(s)",
        diags.iter().filter(|d| d.fix.is_some()).count(),
        report.total_inserted()
    );
    // Re-parse what we wrote so remaining diagnostics carry fresh spans.
    let reparsed = parse_netlist_spanned(&fixed_text)
        .map_err(|e| format!("{file}: error[parse] after fix: {e}"))?;
    Ok(opts
        .config
        .filter(lint(&reparsed.netlist, &reparsed.source_map)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_obs::Json;

    const BACK_TO_BACK: &str = "source in\n\
                                shell a identity\n\
                                shell b identity\n\
                                sink out\n\
                                connect in:0 -> a:0\n\
                                connect a:0 -> b:0\n\
                                connect b:0 -> out:0\n";

    fn temp_file(name: &str, contents: &str) -> String {
        let dir = std::env::temp_dir().join("lip_lint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path.to_str().unwrap().to_owned()
    }

    #[test]
    fn parses_flags() {
        let opts = parse_args(&["--json", "--deny", "all", "--allow", "lip004", "x.lid"]).unwrap();
        assert!(opts.json && !opts.fix);
        assert_eq!(opts.files, ["x.lid"]);
        assert!(opts.config.is_denied(RuleId::Lip001));
        assert!(opts.config.is_allowed(RuleId::Lip004));
        assert!(!opts.config.is_denied(RuleId::Lip004), "allow wins");
        assert!(parse_args(&["--deny"]).is_err());
        assert!(parse_args(&["--deny", "LIP999", "x"]).is_err());
        assert!(parse_args(&["--bogus", "x"]).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn lints_and_denies() {
        let file = temp_file("warn.lid", BACK_TO_BACK);
        // LIP001 is warning severity: reported, but only --deny fails.
        assert_eq!(run(&[&file]), 0);
        assert_eq!(run(&["--deny", "LIP001", &file]), 1);
        assert_eq!(run(&["--deny", "all", "--allow", "all", &file]), 0);
        assert_eq!(run(&["--json", "--deny", "all", &file]), 1);
    }

    #[test]
    fn fix_rewrites_until_clean() {
        let file = temp_file("fix.lid", BACK_TO_BACK);
        assert_eq!(run(&["--fix", "--deny", "all", &file]), 0);
        let fixed = std::fs::read_to_string(&file).unwrap();
        assert!(fixed.contains("relay"), "{fixed}");
        // The fixed file now lints clean even under --deny all.
        assert_eq!(run(&["--deny", "all", &file]), 0);
    }

    /// The `--json` contract on the paper's Fig. 1: the stable schema,
    /// one warning, the reconvergence pair with the exact 4/5
    /// prediction, and the binding cycle node for node.
    #[test]
    fn json_contract_on_fig1() {
        let file = concat!(env!("CARGO_MANIFEST_DIR"), "/../../designs/fig1.lid");
        assert_eq!(run(&["--json", file]), 0);
        let opts = parse_args(&["--json", file]).unwrap();
        let per_file = [(file.to_owned(), lint_file(file, &opts).unwrap())];
        let doc = lip_obs::json::parse(&render_json(&per_file)).unwrap();
        assert_eq!(
            doc.get("schema_version"),
            Some(&Json::from(lip_obs::schema::LINT))
        );
        let files = doc.get("files").and_then(Json::as_arr).unwrap();
        assert_eq!(files.len(), 1);
        let counts = files[0].get("counts").unwrap();
        assert_eq!(counts.get("warning"), Some(&Json::Int(1)));
        let diags = files[0].get("diagnostics").and_then(Json::as_arr).unwrap();
        let strs = |items: &[Json], key| -> Vec<String> {
            items
                .iter()
                .filter_map(|d| Some(d.get(key)?.as_str()?.to_owned()))
                .collect()
        };
        assert_eq!(strs(diags, "rule"), ["LIP004", "LIP005"]);
        assert_eq!(
            diags[0].get("predicted_throughput"),
            Some(&Json::obj([("num", Json::Int(4)), ("den", Json::Int(5))]))
        );
        let nodes = diags[1].get("nodes").and_then(Json::as_arr).unwrap();
        assert_eq!(strs(nodes, "name"), ["A", "r1", "B", "r2", "C", "r3"]);
    }

    #[test]
    fn parse_errors_exit_2() {
        let file = temp_file("broken.lid", "relay r fifo:1\n");
        assert_eq!(run(&[&file]), 2);
        for (i, text) in [
            "shell j join arity=0\n",
            "shell r router out=0\n",
            "shell a identity fanout=0\n",
            "shell d delay k=0\n",
            "shell r router out=1099511627776\n",
            "shell d delay k=1099511627776\n",
            "source in\nsink out stops=every:0:0\nconnect in:0 -> out:0\n",
            "source in voids=every:0:0\nsink out\nconnect in:0 -> out:0\n",
        ]
        .into_iter()
        .enumerate()
        {
            let file = temp_file(&format!("hostile{i}.lid"), text);
            assert_eq!(run(&[&file]), 2, "{text}");
        }
        assert_eq!(run(&["missing-file.lid"]), 2);
    }
}
