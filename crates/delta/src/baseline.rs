//! Committed baseline snapshots and the `baseline check` gate.
//!
//! A baseline is the *exact-domain subset* of one artifact — schema
//! versions, `Ratio` numerators/denominators, counters, booleans,
//! names — with every wall-clock and derived-float leaf stripped. That
//! subset is deterministic across machines (it is exactly what the
//! engines and the model checker prove or count), so it can be
//! committed to the repository under `baselines/` and re-checked on
//! every CI run: `lip_diff baseline check` re-extracts the current
//! artifacts and fails on any divergence; `lip_diff baseline accept`
//! rewrites the snapshots after an intentional change.

use crate::diff::{classify, diff_docs, DiffEntry, Domain};
use lip_obs::json::Json;

/// Extract the exact-domain subset of a document: every leaf the
/// differ would hard-compare, with timing and derived-float leaves
/// removed. Object member order is preserved; objects and arrays left
/// empty by the stripping are kept (their emptiness is structural).
#[must_use]
pub fn extract_exact(doc: &Json) -> Json {
    fn go(key: &str, v: &Json) -> Option<Json> {
        match v {
            Json::Obj(members) => Some(Json::Obj(
                members
                    .iter()
                    .filter_map(|(k, val)| go(k, val).map(|e| (k.clone(), e)))
                    .collect(),
            )),
            Json::Arr(items) => Some(Json::Arr(
                // Elements classify under the array's own key (scalar
                // rows like `channel_stalls` inherit it); object rows
                // classify per member inside the recursion.
                items.iter().filter_map(|e| go(key, e)).collect(),
            )),
            leaf => match classify(key, leaf) {
                Domain::Exact => Some(leaf.clone()),
                Domain::Timing | Domain::Info => None,
            },
        }
    }
    go("", doc).unwrap_or(Json::Obj(Vec::new()))
}

/// Wrap an extraction as a committed baseline document.
#[must_use]
pub fn baseline_doc(source: &str, doc: &Json) -> Json {
    Json::obj([
        ("schema_version", lip_obs::schema::DELTA.into()),
        ("kind", "baseline".into()),
        ("source", source.into()),
        ("extracted", extract_exact(doc)),
    ])
}

/// Check one current artifact against its committed baseline document.
/// Returns the divergent leaves (empty = the gate passes).
#[must_use]
pub fn check_one(source: &str, baseline: &Json, current: &Json) -> Vec<DiffEntry> {
    let expected = baseline.get("extracted").cloned().unwrap_or(Json::Null);
    diff_docs(source, &expected, &extract_exact(current))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_obs::json::parse;

    const DOC: &str = r#"{
        "schema_version": 2,
        "throughput": {"num": 4, "den": 5},
        "settle_ns": 123.4,
        "occupancy": 0.52,
        "channel_stalls": [0, 7, 0],
        "ok": true
    }"#;

    #[test]
    fn extraction_drops_timing_and_info_leaves() {
        let doc = parse(DOC).unwrap();
        let e = extract_exact(&doc);
        assert!(e.get("settle_ns").is_none(), "timing stripped");
        assert!(e.get("occupancy").is_none(), "derived float stripped");
        assert_eq!(e.get("schema_version").unwrap().as_int(), Some(2));
        assert_eq!(
            e.get("channel_stalls").unwrap().as_arr().unwrap().len(),
            3,
            "exact counter arrays survive"
        );
    }

    #[test]
    fn check_passes_on_identical_exact_subset_and_fails_on_drift() {
        let doc = parse(DOC).unwrap();
        let base = baseline_doc("BENCH_x.json", &doc);
        // Timing may move arbitrarily without tripping the baseline.
        let rerun = parse(&DOC.replace("123.4", "999.9")).unwrap();
        assert!(check_one("BENCH_x.json", &base, &rerun).is_empty());
        // An exact field moving is a failure.
        let drift = parse(&DOC.replace("\"num\": 4", "\"num\": 3")).unwrap();
        let diffs = check_one("BENCH_x.json", &base, &drift);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "throughput.num");
    }
}
