//! Reference results: `expected.json` pins, per design, the exact outputs
//! the pipeline must reproduce — lint findings, and for measured designs
//! the proved throughput, lasso and state count.

use std::collections::BTreeMap;
use std::path::PathBuf;

use lip_delta::Json;
use lip_sim::Ratio;

/// The pinned outputs of one design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Relay stations in the design.
    pub relays: u64,
    /// Lint findings per rule code.
    pub lint: BTreeMap<String, u64>,
    /// The declared-environment proof, for designs a pipeline pass
    /// measures.
    pub exact: Option<Exact>,
}

/// Exact results of the declared environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exact {
    /// System throughput.
    pub throughput: Ratio,
    /// Cycles before the lasso.
    pub stem: u64,
    /// Lasso length.
    pub period: u64,
    /// Reachable states (`stem + period`).
    pub states: u64,
}

/// Where the reference file lives.
#[must_use]
pub fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected.json")
}

/// Read `expected.json`, keyed by design name.
///
/// # Errors
///
/// The file is missing or malformed.
pub fn load() -> Result<BTreeMap<String, Expected>, String> {
    let p = path();
    let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
    let doc = lip_delta::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
    let rows = doc
        .get("designs")
        .and_then(Json::as_arr)
        .ok_or("expected.json: no designs array")?;
    rows.iter().map(parse_row).collect()
}

fn parse_row(row: &Json) -> Result<(String, Expected), String> {
    let int = |k: &str| {
        row.get(k)
            .and_then(Json::as_int)
            .and_then(|v| u64::try_from(v).ok())
    };
    let name = row
        .get("name")
        .and_then(Json::as_str)
        .ok_or("expected.json: row without a name")?;
    let bad = || format!("expected.json: malformed row {name}");
    let lint = row
        .get("lint")
        .and_then(Json::as_obj)
        .ok_or_else(bad)?
        .iter()
        .map(|(code, n)| {
            let n = n
                .as_int()
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(bad)?;
            Ok((code.clone(), n))
        })
        .collect::<Result<_, String>>()?;
    let exact = match (int("ratio_num"), int("ratio_den")) {
        (Some(num), Some(den)) if den > 0 => Some(Exact {
            throughput: Ratio::new(num, den),
            stem: int("stem").ok_or_else(bad)?,
            period: int("period").ok_or_else(bad)?,
            states: int("mc_states").ok_or_else(bad)?,
        }),
        _ => None,
    };
    Ok((
        name.to_owned(),
        Expected {
            relays: int("relays").ok_or_else(bad)?,
            lint,
            exact,
        },
    ))
}

/// Findings per rule code.
#[must_use]
pub fn tally(codes: &[&str]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for &c in codes {
        *out.entry(c.to_owned()).or_insert(0) += 1;
    }
    out
}

/// `e` as JSON members: the layout of `expected.json` rows, reused by
/// the per-design rows of `results.json`.
#[must_use]
pub fn members(e: &Expected) -> Vec<(String, Json)> {
    let int = |v: u64| Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
    let mut out = vec![
        ("relays".to_owned(), int(e.relays)),
        (
            "lint".to_owned(),
            Json::Obj(e.lint.iter().map(|(c, &n)| (c.clone(), int(n))).collect()),
        ),
    ];
    if let Some(x) = e.exact {
        out.extend([
            ("ratio_num".to_owned(), int(x.throughput.num())),
            ("ratio_den".to_owned(), int(x.throughput.den())),
            ("stem".to_owned(), int(x.stem)),
            ("period".to_owned(), int(x.period)),
            ("mc_states".to_owned(), int(x.states)),
        ]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Design, Family, LADDER, LINT_LADDER, SHIPPED};
    use lip_analysis::formulas::{loop_throughput, reconvergent_throughput, tree_throughput};
    use lip_mc::{check_declared, McConfig};

    /// The oracles' answer for `design`, computed from scratch.
    fn compute(design: Design, measured: bool) -> Expected {
        let text = design.text().unwrap();
        let parsed = lip_graph::parse_netlist_spanned(&text).unwrap();
        let codes: Vec<&str> = lip_lint::lint(&parsed.netlist, &parsed.source_map)
            .iter()
            .map(|d| d.rule.code())
            .collect();
        let lint = tally(&codes);
        let exact = measured.then(|| {
            let p = check_declared(&parsed.netlist, &McConfig::default()).unwrap();
            Exact {
                throughput: p.system_throughput().unwrap(),
                stem: p.stem,
                period: p.period,
                states: p.states as u64,
            }
        });
        Expected {
            relays: crate::inputs::relay_count(&parsed.netlist),
            lint,
            exact,
        }
    }

    /// `expected.json` is what the oracles say today. Run with
    /// `UPDATE_EXPECTED=1` to rewrite it after a deliberate change.
    #[test]
    fn expected_json_matches_the_oracles() {
        let mut rows: Vec<(String, Expected)> = Vec::new();
        let measured = SHIPPED.iter().chain(&LADDER).map(|&d| (d, true));
        for (design, is_measured) in measured.chain(LINT_LADDER.iter().map(|&d| (d, false))) {
            if rows.iter().any(|(n, _)| *n == design.name()) {
                continue;
            }
            rows.push((design.name(), compute(design, is_measured)));
        }
        if std::env::var_os("UPDATE_EXPECTED").is_some() {
            let mut text = String::from("{\"schema_version\": 1, \"designs\": [\n");
            for (i, (name, e)) in rows.iter().enumerate() {
                let mut obj = vec![("name".to_owned(), Json::Str(name.clone()))];
                obj.extend(members(e));
                text.push_str(&Json::Obj(obj).to_compact());
                text.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
            }
            text.push_str("]}\n");
            std::fs::write(path(), text).unwrap();
        }
        let file = load().unwrap();
        assert_eq!(file.len(), rows.len());
        for (name, e) in &rows {
            assert_eq!(file.get(name), Some(e), "{name}");
        }
    }

    #[test]
    fn pinned_results_follow_the_paper() {
        let file = load().unwrap();
        let exact = |name: &str| file[name].exact.unwrap();
        let fig1 = exact("fig1");
        assert_eq!(
            (fig1.throughput, fig1.states, fig1.stem, fig1.period),
            (Ratio::new(4, 5), 7, 2, 5)
        );
        let soc = exact("soc");
        assert_eq!(
            (soc.throughput, soc.states, soc.stem, soc.period),
            (Ratio::new(6, 7), 15, 8, 7)
        );
        assert_eq!(exact("buffered_loop").states, 1);
        assert_eq!(exact("buffered_loop").throughput, Ratio::new(1, 1));

        // The paper's closed forms: trees 1, loops S/(S+R), fork-joins
        // (m − i)/m, compositions the slowest part.
        let fork_join = |k: usize| reconvergent_throughput(2 * k + k / 2, 2, 2 * k - k / 2);
        let slower = |a: Ratio, b: Ratio| {
            if a.num() * b.den() < b.num() * a.den() {
                a
            } else {
                b
            }
        };
        for design in LADDER {
            let Design::Rung(family, k, _) = design else {
                unreachable!("the ladder is generated")
            };
            let closed = match family {
                Family::Chain | Family::Tree => tree_throughput(),
                Family::Ring => loop_throughput(k, k),
                Family::ForkJoin => fork_join(k),
                Family::Composed => slower(fork_join(k), loop_throughput(k, k)),
            };
            assert_eq!(
                exact(&design.name()).throughput,
                closed,
                "{}",
                design.name()
            );
        }
    }
}
