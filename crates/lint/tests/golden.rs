//! Golden-file snapshots of `lip-lint` diagnostics, one fixture per rule.
//!
//! Each `tests/golden/<name>.lid` netlist is linted and its human-readable
//! report compared byte-for-byte against the checked-in
//! `tests/golden/<name>.expected` snapshot. Run with `UPDATE_GOLDEN=1` to
//! regenerate the snapshots after an intentional output change.

use std::fs;
use std::path::PathBuf;

use lip_graph::parse_netlist_spanned;
use lip_lint::{lint, render_human, render_json, RuleId};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Lint `tests/golden/<name>.lid` and return the human-rendered report
/// alongside the raw diagnostics.
fn lint_fixture(name: &str) -> (String, Vec<lip_lint::Diagnostic>) {
    let path = golden_dir().join(format!("{name}.lid"));
    let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let parsed =
        parse_netlist_spanned(&src).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()));
    let diags = lint(&parsed.netlist, &parsed.source_map);
    let rendered = render_human(&format!("golden/{name}.lid"), &diags);
    (rendered, diags)
}

/// Compare `rendered` against the checked-in `<name><ext>` snapshot, or
/// rewrite the snapshot when `UPDATE_GOLDEN` is set in the environment.
fn assert_golden(name: &str, ext: &str, rendered: &str) {
    let expected_path = golden_dir().join(format!("{name}{ext}"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&expected_path, rendered)
            .unwrap_or_else(|e| panic!("write {}: {e}", expected_path.display()));
        return;
    }
    let expected = fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e}\n(run the golden tests once with UPDATE_GOLDEN=1 to generate snapshots)",
            expected_path.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "golden mismatch for {name}{ext}; rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

/// Check a fixture against its snapshot and assert exactly which rules fire.
fn check(name: &str, expected_rules: &[RuleId]) {
    let (rendered, diags) = lint_fixture(name);
    let fired: Vec<RuleId> = diags.iter().map(|d| d.rule).collect();
    assert_eq!(fired, expected_rules, "rules fired on {name}.lid");
    assert_golden(name, ".expected", &rendered);
}

#[test]
fn golden_lip001_back_to_back_shells() {
    check("lip001", &[RuleId::Lip001]);
}

#[test]
fn golden_lip002_relay_ring() {
    check("lip002", &[RuleId::Lip002]);
}

#[test]
fn golden_lip003_dead_source() {
    // The model-checked LIP006 corroborates the structural verdict.
    check("lip003", &[RuleId::Lip003, RuleId::Lip006]);
}

#[test]
fn golden_lip004_reconvergent_imbalance() {
    // Fig. 1 fires both the reconvergence rule and the bottleneck report.
    check("lip004", &[RuleId::Lip004, RuleId::Lip005]);
}

#[test]
fn golden_lip005_loop_bottleneck() {
    check("lip005", &[RuleId::Lip005]);
}

#[test]
fn golden_lip006_stopped_sink() {
    check("lip006", &[RuleId::Lip003, RuleId::Lip006]);
}

#[test]
fn golden_lip007_oversized_fifo() {
    check("lip007", &[RuleId::Lip007]);
}

#[test]
fn golden_lip008_environment_limited() {
    check("lip008", &[RuleId::Lip008]);
}

#[test]
fn golden_lip008_two_thirds_on_a_forest() {
    // Decided by the closed-form forest facts, not the proof.
    check("lip008_two_thirds", &[RuleId::Lip008]);
}

#[test]
fn golden_lip003_dead_tree() {
    // A dead forest takes the proof fallback.
    check("lip003_dead_tree", &[RuleId::Lip003, RuleId::Lip006]);
}

#[test]
fn golden_clean_pipeline() {
    check("clean", &[]);
}

#[test]
fn golden_json_schema_stable() {
    // One JSON snapshot pins the machine-readable schema (schema_version 1).
    let (_, diags) = lint_fixture("lip004");
    let json = render_json(&[("golden/lip004.lid".to_string(), diags)]);
    assert_golden("lip004", ".json.expected", &json);
}
