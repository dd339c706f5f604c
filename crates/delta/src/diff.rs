//! The structural run differ.
//!
//! Two runs from the [store](crate::store) are compared artifact by
//! artifact, walking the parsed JSON trees in parallel. Every leaf is
//! classified into one of three domains by its key:
//!
//! * **Exact** — schema versions, `Ratio` numerators/denominators,
//!   kernel counters, booleans, names, structural hashes. These are
//!   deterministic outputs of the engines and the model checker; *any*
//!   change is a reportable diff and fails a gate (no tolerance).
//! * **Timing** — wall-clock metrics (`*_ns`, `*_per_sec`, speedups,
//!   overhead percentages). Never exact-compared; judged by the
//!   [sentinel](crate::sentinel) against noise bands from stored run
//!   history.
//! * **Info** — derived floats (occupancy, blame shares) that follow
//!   exact counters. Changes are reported for the reader but never
//!   fail a gate on their own (their integer sources already do).
//!
//! Arrays of named objects (blame entries, `by_opcode`, `by_stratum`
//! rows) pair by `name`, so a reordered report diffs clean and a
//! renamed channel shows up as remove + add. On top of the generic
//! walk, blame artifacts get a specialized per-channel *blame shift*
//! analysis: when a topology's throughput ratio moves, the differ
//! attributes it to the channel whose stop/void blame grew the most —
//! "throughput went 4/5 → 3/5 *because* stop-blame moved to w6".

use std::fmt::Write as _;

use crate::sentinel::{direction_of, Sentinel, Verdict};
use crate::store::{Run, RunStore};
use lip_obs::json::Json;

/// Which comparison regime a leaf belongs to (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Deterministic: any change is a diff.
    Exact,
    /// Wall-clock: judged by the sentinel, never exact-compared.
    Timing,
    /// Derived floats: reported, never gate-failing.
    Info,
}

impl Domain {
    /// Stable lowercase label for JSON output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Domain::Exact => "exact",
            Domain::Timing => "timing",
            Domain::Info => "info",
        }
    }
}

/// Classify a leaf by its key name and value.
#[must_use]
pub fn classify(key: &str, value: &Json) -> Domain {
    if is_timing_key(key) {
        return Domain::Timing;
    }
    match value {
        Json::Float(_) => Domain::Info,
        _ => Domain::Exact,
    }
}

/// True for keys carrying wall-clock-derived numbers.
#[must_use]
pub fn is_timing_key(key: &str) -> bool {
    const SUFFIXES: [&str; 6] = ["_ns", "_ms", "_us", "_pct", "_secs", "_sec"];
    const MARKERS: [&str; 6] = ["per_sec", "speedup", "elapsed", "overhead", "dur_", "wall_"];
    SUFFIXES.iter().any(|s| key.ends_with(s)) || MARKERS.iter().any(|m| key.contains(m))
}

/// One divergent leaf (or structural mismatch) between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Artifact file name.
    pub artifact: String,
    /// Dotted path to the leaf (`kernel.by_opcode[or].ops_retired`).
    pub path: String,
    /// Comparison regime the leaf fell under.
    pub domain: Domain,
    /// Value on the A side (`None` when added in B).
    pub before: Option<Json>,
    /// Value on the B side (`None` when removed in B).
    pub after: Option<Json>,
    /// Sentinel verdict, for timing leaves.
    pub verdict: Option<Verdict>,
}

/// A channel whose blame changed between runs, from a blame artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameShift {
    /// Blame artifact the shift came from.
    pub artifact: String,
    /// Blamed entity name (channel / shell / relay label).
    pub name: String,
    /// Lane-cycles blamed on the A side.
    pub before: i64,
    /// Lane-cycles blamed on the B side.
    pub after: i64,
}

impl BlameShift {
    /// Signed blame movement (positive: gained blame in B).
    #[must_use]
    pub fn delta(&self) -> i64 {
        self.after - self.before
    }
}

/// The full comparison of two runs.
#[derive(Debug, Clone)]
pub struct RunDiff {
    /// Run id of the A (old) side.
    pub run_a: String,
    /// Run id of the B (new) side.
    pub run_b: String,
    /// Artifacts present on only one side (`(name, side)` where side
    /// is `"a"` or `"b"`).
    pub missing: Vec<(String, &'static str)>,
    /// Every divergent leaf.
    pub entries: Vec<DiffEntry>,
    /// Per-channel blame movements from blame artifacts.
    pub blame_shifts: Vec<BlameShift>,
    /// Timing leaves judged (including passes), for the summary.
    pub timing_checked: usize,
}

impl RunDiff {
    /// Exact-domain diffs (each one a hard gate failure).
    #[must_use]
    pub fn exact_diffs(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.domain == Domain::Exact)
            .count()
    }

    /// Timing leaves the sentinel flagged as regressed.
    #[must_use]
    pub fn timing_regressions(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.verdict.as_ref().is_some_and(Verdict::is_regression))
            .count()
    }

    /// No exact diffs, no timing regressions, no missing artifacts.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.exact_diffs() == 0 && self.timing_regressions() == 0 && self.missing.is_empty()
    }

    /// The channel that gained the most blame in B, per blame artifact
    /// — the attribution for a throughput move.
    #[must_use]
    pub fn attributions(&self) -> Vec<&BlameShift> {
        let mut per_artifact: Vec<&BlameShift> = Vec::new();
        for shift in &self.blame_shifts {
            if shift.delta() <= 0 {
                continue;
            }
            match per_artifact
                .iter_mut()
                .find(|s| s.artifact == shift.artifact)
            {
                Some(slot) if slot.delta() < shift.delta() => *slot = shift,
                Some(_) => {}
                None => per_artifact.push(shift),
            }
        }
        per_artifact
    }

    /// Versioned JSON document (`schema_version` =
    /// [`lip_obs::schema::DELTA`]).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let entries = self.entries.iter().map(|e| {
            let mut obj = vec![
                ("artifact", e.artifact.as_str().into()),
                ("path", e.path.as_str().into()),
                ("domain", e.domain.label().into()),
                ("before", e.before.clone().into()),
                ("after", e.after.clone().into()),
            ];
            if let Some(v) = &e.verdict {
                obj.push(("verdict", verdict_json(v)));
            }
            Json::obj(obj)
        });
        let attributions = self.attributions().into_iter().map(|s| {
            Json::obj([
                ("artifact", s.artifact.as_str().into()),
                ("channel", s.name.as_str().into()),
                ("blame_before", s.before.into()),
                ("blame_after", s.after.into()),
            ])
        });
        let missing = self.missing.iter().map(|(name, side)| {
            Json::obj([
                ("artifact", name.as_str().into()),
                ("only_in", (*side).into()),
            ])
        });
        Json::obj([
            ("schema_version", lip_obs::schema::DELTA.into()),
            ("kind", "run_diff".into()),
            ("run_a", self.run_a.as_str().into()),
            ("run_b", self.run_b.as_str().into()),
            ("clean", self.clean().into()),
            ("exact_diffs", self.exact_diffs().into()),
            ("timing_checked", self.timing_checked.into()),
            ("timing_regressions", self.timing_regressions().into()),
            ("missing", missing.collect()),
            ("attribution", attributions.collect()),
            ("entries", entries.collect()),
        ])
    }

    /// Multi-line human rendering.
    #[must_use]
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "diff {} → {}: {}",
            &self.run_a[..self.run_a.len().min(12)],
            &self.run_b[..self.run_b.len().min(12)],
            if self.clean() { "clean" } else { "DIVERGED" }
        );
        for (name, side) in &self.missing {
            let _ = writeln!(out, "  only in {side}: {name}");
        }
        for e in &self.entries {
            let show =
                |v: &Option<Json>| v.as_ref().map_or_else(|| "∅".to_owned(), Json::to_compact);
            match (&e.domain, &e.verdict) {
                (Domain::Timing, Some(v)) => {
                    let _ = writeln!(
                        out,
                        "  [timing] {}:{} {} → {} ({})",
                        e.artifact,
                        e.path,
                        show(&e.before),
                        show(&e.after),
                        verdict_label(v)
                    );
                }
                _ => {
                    let _ = writeln!(
                        out,
                        "  [{}] {}:{} {} → {}",
                        e.domain.label(),
                        e.artifact,
                        e.path,
                        show(&e.before),
                        show(&e.after)
                    );
                }
            }
        }
        for s in self.attributions() {
            let _ = writeln!(
                out,
                "  attribution: {} blame moved to '{}' ({} → {} lane-cycles)",
                s.artifact, s.name, s.before, s.after
            );
        }
        let _ = writeln!(
            out,
            "  {} exact diff(s), {} timing regression(s) over {} timing metric(s)",
            self.exact_diffs(),
            self.timing_regressions(),
            self.timing_checked
        );
        out
    }
}

fn verdict_label(v: &Verdict) -> String {
    match v {
        Verdict::Pass { .. } => "within noise".into(),
        Verdict::Improved { .. } => "improved".into(),
        Verdict::Regressed { band } => {
            format!("REGRESSED, noise band [{:.1}, {:.1}]", band.0, band.1)
        }
        Verdict::NoHistory { have, need } => {
            format!("no verdict: {have}/{need} history samples")
        }
    }
}

fn verdict_json(v: &Verdict) -> Json {
    let (label, band) = match v {
        Verdict::Pass { band } => ("pass", Some(band)),
        Verdict::Improved { band } => ("improved", Some(band)),
        Verdict::Regressed { band } => ("regressed", Some(band)),
        Verdict::NoHistory { .. } => ("no_history", None),
    };
    let mut obj = vec![("verdict", label.into())];
    if let Some(&(lo, hi)) = band {
        obj.extend([("band_lo", lo.into()), ("band_hi", hi.into())]);
    }
    Json::obj(obj)
}

/// Compare two loaded runs. `store` supplies the history the sentinel
/// estimates noise bands from (runs other than `b`, oldest first).
#[must_use]
pub fn diff_runs(store: &RunStore, a: &Run, b: &Run, sentinel: &Sentinel) -> RunDiff {
    let mut diff = RunDiff {
        run_a: a.manifest.run_id.clone(),
        run_b: b.manifest.run_id.clone(),
        missing: Vec::new(),
        entries: Vec::new(),
        blame_shifts: Vec::new(),
        timing_checked: 0,
    };
    let names_a = a.artifact_names();
    let names_b = b.artifact_names();
    for name in &names_a {
        if !names_b.contains(name) {
            diff.missing.push((name.clone(), "a"));
        }
    }
    for name in &names_b {
        if !names_a.contains(name) {
            diff.missing.push((name.clone(), "b"));
        }
    }
    let history = History::gather(store, &b.manifest.run_id);
    for name in names_a.iter().filter(|n| names_b.contains(*n)) {
        let (Ok(doc_a), Ok(doc_b)) = (a.artifact_json(name), b.artifact_json(name)) else {
            diff.entries.push(DiffEntry {
                artifact: name.clone(),
                path: String::new(),
                domain: Domain::Exact,
                before: None,
                after: None,
                verdict: None,
            });
            continue;
        };
        walk(
            name,
            "",
            "",
            Some(&doc_a),
            Some(&doc_b),
            &history,
            sentinel,
            &mut diff,
        );
        collect_blame_shifts(name, &doc_a, &doc_b, &mut diff.blame_shifts);
    }
    diff
}

/// Diff two standalone documents (no store, no timing history): every
/// divergent exact/info leaf, with timing leaves skipped. This is the
/// comparison `baseline check` runs against committed snapshots.
#[must_use]
pub fn diff_docs(artifact: &str, a: &Json, b: &Json) -> Vec<DiffEntry> {
    let mut diff = RunDiff {
        run_a: String::new(),
        run_b: String::new(),
        missing: Vec::new(),
        entries: Vec::new(),
        blame_shifts: Vec::new(),
        timing_checked: 0,
    };
    let history = History { docs: Vec::new() };
    walk(
        artifact,
        "",
        "",
        Some(a),
        Some(b),
        &history,
        &Sentinel {
            // No history is ever available here; timing leaves always
            // judge NoHistory, which diff entries record but gates
            // ignore. Extracted baselines carry no timing leaves at
            // all, so this path is normally untaken.
            min_history: usize::MAX,
            ..Sentinel::default()
        },
        &mut diff,
    );
    diff.entries
}

/// Timing history per `(artifact, path)` across stored runs.
struct History {
    docs: Vec<Vec<(String, Json)>>,
}

impl History {
    fn gather(store: &RunStore, exclude_run: &str) -> History {
        let mut docs = Vec::new();
        let manifests = store.list().unwrap_or_default();
        // Cap history at the most recent 32 runs to bound work.
        for m in manifests.iter().rev().take(32) {
            if m.run_id == exclude_run {
                continue;
            }
            let Ok(run) = store.load(&m.run_id) else {
                continue;
            };
            let mut parsed = Vec::new();
            for name in run.artifact_names() {
                if let Ok(doc) = run.artifact_json(&name) {
                    parsed.push((name, doc));
                }
            }
            docs.push(parsed);
        }
        History { docs }
    }

    fn series(&self, artifact: &str, path: &str) -> Vec<f64> {
        let mut out = Vec::new();
        for parsed in &self.docs {
            if let Some((_, doc)) = parsed.iter().find(|(n, _)| n == artifact) {
                if let Some(v) = lookup(doc, path).and_then(Json::as_f64) {
                    out.push(v);
                }
            }
        }
        out
    }
}

/// Resolve a dotted path (as produced by [`walk`]) inside a document.
fn lookup<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    let mut cur = doc;
    if path.is_empty() {
        return Some(cur);
    }
    for seg in path.split('.') {
        // `name[key]` → member `name`, then the element named `key`.
        let (member, selector) = match seg.find('[') {
            Some(i) => (&seg[..i], Some(&seg[i + 1..seg.len() - 1])),
            None => (seg, None),
        };
        if !member.is_empty() {
            cur = cur.get(member)?;
        }
        if let Some(sel) = selector {
            let items = cur.as_arr()?;
            cur = if let Ok(idx) = sel.parse::<usize>() {
                items.get(idx)?
            } else {
                items
                    .iter()
                    .find(|e| e.get("name").and_then(Json::as_str) == Some(sel))?
            };
        }
    }
    Some(cur)
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_owned()
    } else {
        format!("{path}.{key}")
    }
}

#[allow(clippy::too_many_arguments)]
fn walk(
    artifact: &str,
    path: &str,
    key: &str,
    a: Option<&Json>,
    b: Option<&Json>,
    history: &History,
    sentinel: &Sentinel,
    diff: &mut RunDiff,
) {
    match (a, b) {
        (Some(Json::Obj(ma)), Some(Json::Obj(mb))) => {
            for (k, va) in ma {
                walk(
                    artifact,
                    &join(path, k),
                    k,
                    Some(va),
                    mb.iter().find(|(bk, _)| bk == k).map(|(_, v)| v),
                    history,
                    sentinel,
                    diff,
                );
            }
            for (k, vb) in mb {
                if ma.iter().all(|(ak, _)| ak != k) {
                    walk(
                        artifact,
                        &join(path, k),
                        k,
                        None,
                        Some(vb),
                        history,
                        sentinel,
                        diff,
                    );
                }
            }
        }
        (Some(Json::Arr(xs)), Some(Json::Arr(ys))) => {
            if named_rows(xs) && named_rows(ys) {
                for x in xs {
                    let n = x.get("name").and_then(Json::as_str).unwrap_or_default();
                    let y = ys
                        .iter()
                        .find(|e| e.get("name").and_then(Json::as_str) == Some(n));
                    walk(
                        artifact,
                        &format!("{path}[{n}]"),
                        key,
                        Some(x),
                        y,
                        history,
                        sentinel,
                        diff,
                    );
                }
                for y in ys {
                    let n = y.get("name").and_then(Json::as_str).unwrap_or_default();
                    if !xs
                        .iter()
                        .any(|e| e.get("name").and_then(Json::as_str) == Some(n))
                    {
                        walk(
                            artifact,
                            &format!("{path}[{n}]"),
                            key,
                            None,
                            Some(y),
                            history,
                            sentinel,
                            diff,
                        );
                    }
                }
            } else {
                let len = xs.len().max(ys.len());
                for i in 0..len {
                    walk(
                        artifact,
                        &format!("{path}[{i}]"),
                        key,
                        xs.get(i),
                        ys.get(i),
                        history,
                        sentinel,
                        diff,
                    );
                }
            }
        }
        (Some(va), Some(vb)) => {
            let domain = classify(key, vb);
            match domain {
                Domain::Timing => {
                    let (Some(_), Some(cur)) = (va.as_f64(), vb.as_f64()) else {
                        return;
                    };
                    diff.timing_checked += 1;
                    let series = history.series(artifact, path);
                    let verdict = sentinel.judge(&series, cur, direction_of(key));
                    // Only non-pass verdicts are worth an entry.
                    if !matches!(verdict, Verdict::Pass { .. }) {
                        diff.entries.push(DiffEntry {
                            artifact: artifact.to_owned(),
                            path: path.to_owned(),
                            domain,
                            before: Some(va.clone()),
                            after: Some(vb.clone()),
                            verdict: Some(verdict),
                        });
                    }
                }
                Domain::Info => {
                    let close = match (va.as_f64(), vb.as_f64()) {
                        (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                        _ => va == vb,
                    };
                    if !close {
                        diff.entries.push(DiffEntry {
                            artifact: artifact.to_owned(),
                            path: path.to_owned(),
                            domain,
                            before: Some(va.clone()),
                            after: Some(vb.clone()),
                            verdict: None,
                        });
                    }
                }
                Domain::Exact => {
                    if va != vb {
                        diff.entries.push(DiffEntry {
                            artifact: artifact.to_owned(),
                            path: path.to_owned(),
                            domain,
                            before: Some(va.clone()),
                            after: Some(vb.clone()),
                            verdict: None,
                        });
                    }
                }
            }
        }
        (va, vb) => {
            // Added or removed subtree: always an exact-domain diff,
            // except timing leaves (a new timing metric is not a
            // regression).
            let present = va.or(vb).expect("one side present");
            let domain = classify(key, present);
            if domain != Domain::Timing {
                diff.entries.push(DiffEntry {
                    artifact: artifact.to_owned(),
                    path: path.to_owned(),
                    domain: Domain::Exact,
                    before: va.cloned(),
                    after: vb.cloned(),
                    verdict: None,
                });
            }
        }
    }
}

/// True when every element is an object with a string `name` member —
/// the workspace's row convention (`by_opcode`, blame entries, …).
fn named_rows(items: &[Json]) -> bool {
    !items.is_empty()
        && items
            .iter()
            .all(|e| e.get("name").and_then(Json::as_str).is_some())
}

/// Pull per-entity blame totals out of a blame artifact and pair them
/// by name.
fn collect_blame_shifts(artifact: &str, a: &Json, b: &Json, out: &mut Vec<BlameShift>) {
    let is_blame = |d: &Json| d.get("kind").and_then(Json::as_str) == Some("blame_report");
    if !is_blame(a) || !is_blame(b) {
        return;
    }
    let rows = |d: &Json| -> Vec<(String, i64)> {
        d.get("blame")
            .and_then(Json::as_arr)
            .map(|entries| {
                entries
                    .iter()
                    .filter_map(|e| {
                        let name = e.get("name").and_then(Json::as_str)?;
                        let blamed = e.get("blamed").and_then(Json::as_int)?;
                        Some((name.to_owned(), blamed))
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let rows_a = rows(a);
    let rows_b = rows(b);
    for (name, before) in &rows_a {
        let after = rows_b
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v);
        if after != *before {
            out.push(BlameShift {
                artifact: artifact.to_owned(),
                name: name.clone(),
                before: *before,
                after,
            });
        }
    }
    for (name, after) in &rows_b {
        if rows_a.iter().all(|(n, _)| n != name) && *after != 0 {
            out.push(BlameShift {
                artifact: artifact.to_owned(),
                name: name.clone(),
                before: 0,
                after: *after,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{RunBuilder, RunStore};
    use std::fs;
    use std::path::PathBuf;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lip-delta-diff-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn commit(store: &RunStore, label: &str, artifacts: &[(&str, &str)]) -> String {
        let mut b = RunBuilder::new(label);
        for (n, c) in artifacts {
            b.add_artifact(n, c);
        }
        b.commit(store).unwrap()
    }

    #[test]
    fn integral_float_leaves_stay_info() {
        let printed = lip_obs::json::parse(&Json::Float(2.0).to_compact()).unwrap();
        assert_eq!(printed, Json::Float(2.0));
        assert_eq!(classify("ratio", &printed), Domain::Info);
        let mut r = lip_obs::Report::new("floats");
        r.push_f64("ratio", 1.0).push_ratio("full_rate", 1, 1);
        let doc = lip_obs::json::parse(&r.to_json()).unwrap();
        assert_eq!(classify("ratio", doc.get("ratio").unwrap()), Domain::Info);
        let full = doc.get("full_rate").unwrap();
        assert_eq!(classify("value", full.get("value").unwrap()), Domain::Info);
        assert_eq!(classify("num", full.get("num").unwrap()), Domain::Exact);
    }

    #[test]
    fn identical_runs_diff_clean() {
        let root = tmp_root("clean");
        let store = RunStore::open(&root);
        let doc = r#"{"schema_version": 2, "num": 4, "den": 5, "settle_ns": 120.0}"#;
        let id_a = commit(&store, "a", &[("BENCH_x.json", doc)]);
        // Same content → same run id; diffing a run against itself
        // (the degenerate identical re-run) must be clean.
        let a = store.load(&id_a).unwrap();
        let d = diff_runs(&store, &a, &a, &Sentinel::default());
        assert!(d.clean(), "{}", d.render_human());
        assert_eq!(d.exact_diffs(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn exact_ratio_changes_are_hard_diffs() {
        let root = tmp_root("ratio");
        let store = RunStore::open(&root);
        let id_a = commit(
            &store,
            "a",
            &[("BENCH_x.json", r#"{"ratio": {"num": 4, "den": 5}}"#)],
        );
        let id_b = commit(
            &store,
            "b",
            &[("BENCH_x.json", r#"{"ratio": {"num": 3, "den": 5}}"#)],
        );
        let a = store.load(&id_a).unwrap();
        let b = store.load(&id_b).unwrap();
        let d = diff_runs(&store, &a, &b, &Sentinel::default());
        assert!(!d.clean());
        assert_eq!(d.exact_diffs(), 1);
        let e = &d.entries[0];
        assert_eq!(e.path, "ratio.num");
        assert_eq!(e.before, Some(Json::Int(4)));
        assert_eq!(e.after, Some(Json::Int(3)));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn timing_noise_passes_but_regressions_fail() {
        let root = tmp_root("timing");
        let store = RunStore::open(&root);
        // Build history: four runs with settle_ns around 100.
        for (i, ns) in [100.0f64, 101.0, 99.0, 100.5].iter().enumerate() {
            commit(
                &store,
                &format!("h{i}"),
                &[(
                    "BENCH_x.json",
                    &format!(r#"{{"ok": true, "settle_ns": {ns}}}"#),
                )],
            );
        }
        let runs = store.list().unwrap();
        let base = store.load(&runs[0].run_id).unwrap();
        // Within noise: clean.
        let id_ok = commit(
            &store,
            "ok",
            &[("BENCH_x.json", r#"{"ok": true, "settle_ns": 102.0}"#)],
        );
        let ok = store.load(&id_ok).unwrap();
        let d = diff_runs(&store, &base, &ok, &Sentinel::default());
        assert!(d.clean(), "{}", d.render_human());
        assert_eq!(d.timing_checked, 1);
        // Far outside: regression, and the exact field is untouched.
        let id_bad = commit(
            &store,
            "bad",
            &[("BENCH_x.json", r#"{"ok": true, "settle_ns": 500.0}"#)],
        );
        let bad = store.load(&id_bad).unwrap();
        let d = diff_runs(&store, &base, &bad, &Sentinel::default());
        assert!(!d.clean());
        assert_eq!(d.exact_diffs(), 0);
        assert_eq!(d.timing_regressions(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn blame_shift_attributes_to_the_gaining_channel() {
        let root = tmp_root("blame");
        let store = RunStore::open(&root);
        let blame = |w5: i64, w6: i64| {
            format!(
                r#"{{"kind": "blame_report", "lost_cycles": {}, "blame": [
                    {{"name": "w5", "blamed": {w5}}},
                    {{"name": "w6", "blamed": {w6}}}
                ]}}"#,
                w5 + w6
            )
        };
        let id_a = commit(&store, "a", &[("BLAME_fig1.json", &blame(10, 2))]);
        let id_b = commit(&store, "b", &[("BLAME_fig1.json", &blame(10, 90))]);
        let a = store.load(&id_a).unwrap();
        let b = store.load(&id_b).unwrap();
        let d = diff_runs(&store, &a, &b, &Sentinel::default());
        let attr = d.attributions();
        assert_eq!(attr.len(), 1);
        assert_eq!(attr[0].name, "w6");
        assert_eq!(attr[0].delta(), 88);
        let doc = d.to_json();
        assert_eq!(
            doc.get("attribution").unwrap().as_arr().unwrap()[0]
                .get("channel")
                .unwrap()
                .as_str(),
            Some("w6")
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_artifacts_are_flagged() {
        let root = tmp_root("missing");
        let store = RunStore::open(&root);
        let id_a = commit(&store, "a", &[("x.json", "{}"), ("y.json", "{}")]);
        let id_b = commit(&store, "b", &[("x.json", "{}")]);
        let a = store.load(&id_a).unwrap();
        let b = store.load(&id_b).unwrap();
        let d = diff_runs(&store, &a, &b, &Sentinel::default());
        assert!(!d.clean());
        assert_eq!(d.missing, vec![("y.json".to_owned(), "a")]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn lookup_resolves_walk_paths() {
        let doc = lip_obs::json::parse(
            r#"{"kernel": {"by_opcode": [{"name": "or", "ops_retired": 7}]}}"#,
        )
        .unwrap();
        assert_eq!(
            lookup(&doc, "kernel.by_opcode[or].ops_retired")
                .unwrap()
                .as_int(),
            Some(7)
        );
        assert!(lookup(&doc, "kernel.by_opcode[and]").is_none());
    }
}
