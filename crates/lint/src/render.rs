//! Diagnostic renderers: a human-readable text form and a versioned
//! JSON document, streamed straight into one buffer with strings
//! escaped by [`lip_obs::json::write_str`].

use std::fmt::Write as _;

use lip_graph::Span;
use lip_obs::json::write_str;

use crate::diag::{Diagnostic, Severity};

/// Version of the JSON diagnostics schema emitted by [`render_json`].
/// Re-exported from the central `lip_obs::schema` registry; bump it
/// there.
pub const LINT_SCHEMA_VERSION: u32 = lip_obs::schema::LINT;

fn position(file: &str, span: Option<Span>) -> String {
    match span {
        Some(s) => format!("{file}:{s}"),
        None => file.to_owned(),
    }
}

/// Render `diags` for humans: one block per diagnostic, then a
/// one-line tally (or `clean`).
#[must_use]
pub fn render_human(file: &str, diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(
            out,
            "{}: {}[{}]: {}",
            position(file, d.primary),
            d.severity,
            d.rule,
            d.message
        );
        for n in &d.nodes {
            let _ = writeln!(out, "  --> node `{}` at {}", n.name, position(file, n.span));
        }
        for c in &d.channels {
            let _ = writeln!(
                out,
                "  --> channel `{}` at {}",
                c.endpoints,
                position(file, c.span)
            );
        }
        if let Some(t) = d.predicted_throughput {
            let _ = writeln!(out, "  = predicted steady-state throughput: {t}");
        }
        if let Some(fix) = &d.fix_label {
            let _ = writeln!(out, "  = fix: {fix}");
        }
        if !d.related.is_empty() {
            let codes: Vec<&str> = d.related.iter().map(|r| r.code()).collect();
            let _ = writeln!(out, "  = related: {}", codes.join(", "));
        }
    }
    if diags.is_empty() {
        let _ = writeln!(out, "{file}: clean");
    } else {
        let (e, w, i) = Diagnostic::tally(diags);
        let _ = writeln!(
            out,
            "{file}: {} diagnostic(s): {e} error(s), {w} warning(s), {i} info(s)",
            diags.len()
        );
    }
    out
}

/// Render diagnostics for one or more files as a single versioned JSON
/// document:
///
/// ```json
/// {
///   "schema_version": 1,
///   "files": [
///     { "file": "...", "diagnostics": [...],
///       "counts": { "error": 0, "warning": 1, "info": 0 } }
///   ]
/// }
/// ```
#[must_use]
pub fn render_json(files: &[(String, Vec<Diagnostic>)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": {LINT_SCHEMA_VERSION},");
    out.push_str("  \"files\": [");
    for (fi, (file, diags)) in files.iter().enumerate() {
        if fi > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n      \"file\": ");
        write_str(&mut out, file);
        out.push_str(",\n      \"diagnostics\": [");
        for (di, d) in diags.iter().enumerate() {
            if di > 0 {
                out.push(',');
            }
            out.push('\n');
            diag_json(&mut out, d, "        ");
        }
        if diags.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n      ],\n");
        }
        let (e, w, i) = Diagnostic::tally(diags);
        let _ = writeln!(
            out,
            "      \"counts\": {{ \"error\": {e}, \"warning\": {w}, \"info\": {i} }}"
        );
        out.push_str("    }");
    }
    if files.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

/// One diagnostic object, each member on its own line under `indent`.
fn diag_json(out: &mut String, d: &Diagnostic, indent: &str) {
    let mut sep = "";
    let mut member = |out: &mut String, key: &str| {
        let _ = write!(out, "{sep}{indent}  \"{key}\": ");
        sep = ",\n";
    };
    let _ = writeln!(out, "{indent}{{");
    member(out, "rule");
    write_str(out, d.rule.code());
    member(out, "severity");
    write_str(out, &d.severity.to_string());
    member(out, "message");
    write_str(out, &d.message);
    member(out, "span");
    span_json(out, d.primary);
    member(out, "nodes");
    list(out, &d.nodes, |out, n| {
        out.push_str("{ \"name\": ");
        write_str(out, &n.name);
        out.push_str(", \"span\": ");
        span_json(out, n.span);
        out.push_str(" }");
    });
    member(out, "channels");
    list(out, &d.channels, |out, c| {
        out.push_str("{ \"endpoints\": ");
        write_str(out, &c.endpoints);
        out.push_str(", \"span\": ");
        span_json(out, c.span);
        out.push_str(" }");
    });
    member(out, "related");
    list(out, &d.related, |out, r| write_str(out, r.code()));
    member(out, "predicted_throughput");
    match d.predicted_throughput {
        Some(t) => {
            let _ = write!(out, "{{ \"num\": {}, \"den\": {} }}", t.num(), t.den());
        }
        None => out.push_str("null"),
    }
    member(out, "fix");
    match &d.fix_label {
        Some(fix) => write_str(out, fix),
        None => out.push_str("null"),
    }
    let _ = write!(out, "\n{indent}}}");
}

/// `[a, b, …]` on one line.
fn list<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        item(out, v);
    }
    out.push(']');
}

fn span_json(out: &mut String, span: Option<Span>) {
    match span {
        Some(s) => {
            let _ = write!(out, "{{ \"line\": {}, \"col\": {} }}", s.line, s.col);
        }
        None => out.push_str("null"),
    }
}

/// `true` when a diagnostic of `severity` should fail the build on its
/// own (without an explicit `--deny`).
#[must_use]
pub fn fails_by_default(severity: Severity) -> bool {
    severity == Severity::Error
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lint;
    use lip_graph::{generate, SourceMap};

    #[test]
    fn human_render_mentions_rule_and_prediction() {
        let fig1 = generate::fig1();
        let diags = lint(&fig1.netlist, &SourceMap::new());
        let text = render_human("fig1", &diags);
        assert!(text.contains("warning[LIP004]"), "{text}");
        assert!(text.contains("info[LIP005]"), "{text}");
        assert!(text.contains("predicted steady-state throughput: 4/5"));
        assert!(text.contains("2 diagnostic(s)"));
    }

    #[test]
    fn clean_render_says_clean() {
        assert_eq!(render_human("x", &[]), "x: clean\n");
    }

    #[test]
    fn json_has_schema_version_and_balanced_braces() {
        let fig1 = generate::fig1();
        let diags = lint(&fig1.netlist, &SourceMap::new());
        let json = render_json(&[("fig1".to_owned(), diags)]);
        assert!(json.starts_with("{\n  \"schema_version\": 1,"), "{json}");
        assert!(json.contains("\"rule\": \"LIP004\""));
        assert!(json.contains("\"predicted_throughput\": { \"num\": 4, \"den\": 5 }"));
        let opens = json.chars().filter(|c| "{[".contains(*c)).count();
        let closes = json.chars().filter(|c| "}]".contains(*c)).count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn json_escapes_strings() {
        let mut d = lint(&generate::fig1().netlist, &SourceMap::new()).remove(0);
        d.message = "a\"b\\c\nd".to_owned();
        let json = render_json(&[("x".to_owned(), vec![d])]);
        assert!(json.contains("\"message\": \"a\\\"b\\\\c\\nd\","), "{json}");
        let doc = lip_obs::json::parse(&json).unwrap();
        let files = doc.get("files").and_then(lip_obs::Json::as_arr).unwrap();
        let diags = files[0]
            .get("diagnostics")
            .and_then(lip_obs::Json::as_arr)
            .unwrap();
        assert_eq!(
            diags[0].get("message").and_then(lip_obs::Json::as_str),
            Some("a\"b\\c\nd")
        );
    }

    #[test]
    fn empty_file_list_renders() {
        let json = render_json(&[]);
        assert!(json.contains("\"files\": []"));
    }
}
