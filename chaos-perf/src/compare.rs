//! `chaos-perf compare A.json B.json`: two result files side by side.

use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, EXACT};

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn field(workload: &Json, group: &str, name: &str, key: &str) -> Option<f64> {
    workload.get(group)?.get(name)?.get(key)?.num()
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Either side's own run-to-run spread of the metric is wider than its
    /// bound, so the pair cannot tell a change of that size from noise.
    Unresolved,
}

/// `b` against base `a` for a metric that may worsen by `bound`.
pub fn verdict(a: f64, b: f64, better: Better, bound: f64, spread_pct: f64) -> Verdict {
    let worse = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if spread_pct > bound * 100.0 {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Fails when anything regressed, when an exact counter differs, and when
/// B lacks a workload, metric or counter that A has: absent data is not
/// agreement.
pub fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = paths else {
        return Err("usage: chaos-perf compare A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    if a.get("workloads").is_none_or(|w| w.entries().is_empty()) {
        return Err(format!("{a_path}: no workloads"));
    }
    println!("A = {a_path}\nB = {b_path}");
    Ok(if findings(&a, &b) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Prints, per workload and end-to-end metric, A, B, their ratio with its
/// base, the bound and a verdict; then every exact counter that differs.
/// Returns how many of those lines are reasons to fail.
fn findings(a: &Json, b: &Json) -> usize {
    let none = Json::Null;
    let mut bad = 0;
    for (name, wa) in a.get("workloads").unwrap_or(&none).entries() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name}: missing from B");
            bad += 1;
            continue;
        };
        println!("{name}");
        for m in END_TO_END {
            let side = |w: &Json| {
                Some((
                    field(w, "end_to_end", m.name, "value")?,
                    field(w, "end_to_end", m.name, "spread_pct")?,
                ))
            };
            let (Some((va, spread_a)), Some((vb, spread_b))) = (side(wa), side(wb)) else {
                println!("  {:<12} missing on one side", m.name);
                bad += 1;
                continue;
            };
            let v = verdict(va, vb, m.better, m.bound, spread_a.max(spread_b));
            bad += usize::from(v == Verdict::Regressed);
            println!(
                "  {:<12} A {va:>12.6} (spread {spread_a:.1}%)  B {vb:>12.6} (spread {spread_b:.1}%) {:<3} B/A {:.4} (base A)  bound {:.0}%  {}",
                m.name,
                m.unit,
                vb / va,
                m.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        for &counter in EXACT {
            let (va, vb) = (
                field(wa, "per_layer", counter, "value"),
                field(wb, "per_layer", counter, "value"),
            );
            if va != vb {
                let show = |v: Option<f64>| v.map_or("missing".to_string(), |v| v.to_string());
                println!(
                    "  exact counter {counter} differs: A {}  B {}",
                    show(va),
                    show(vb)
                );
                bad += 1;
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(1.0, 1.09, Lower, 0.10, 2.0), Verdict::Ok);
        assert_eq!(verdict(1.0, 0.5, Lower, 0.10, 2.0), Verdict::Ok);
        assert_eq!(verdict(1.0, 1.11, Lower, 0.10, 2.0), Verdict::Regressed);
        assert_eq!(verdict(1.0, 1.11, Lower, 0.10, 12.0), Verdict::Unresolved);
        assert_eq!(verdict(100.0, 85.0, Higher, 0.10, 0.0), Verdict::Regressed);
        assert_eq!(verdict(100.0, 95.0, Higher, 0.10, 0.0), Verdict::Ok);
    }

    /// A suite file with one workload: every end-to-end metric at `time`
    /// with a 1% spread, every exact counter at `count`.
    fn doc(time: f64, count: f64) -> Json {
        let value = |v: f64| Json::obj([("value", Json::Num(v)), ("spread_pct", Json::Num(1.0))]);
        let workload = Json::obj([
            (
                "end_to_end",
                Json::obj(END_TO_END.iter().map(|m| (m.name, value(time)))),
            ),
            (
                "per_layer",
                Json::obj(EXACT.iter().map(|&name| (name, value(count)))),
            ),
        ]);
        Json::obj([("workloads", Json::obj([("w", workload)]))])
    }

    #[test]
    fn regressions_differing_counters_and_missing_data_all_fail() {
        let a = doc(1.0, 7.0);
        assert_eq!(findings(&a, &a), 0);
        assert_eq!(findings(&a, &doc(1.05, 7.0)), 0);
        assert_eq!(findings(&a, &doc(1.3, 7.0)), END_TO_END.len());
        assert_eq!(findings(&a, &doc(1.0, 8.0)), EXACT.len());
        let empty = Json::obj([("workloads", Json::Obj(Vec::new()))]);
        assert_eq!(findings(&a, &empty), 1, "a workload B lacks");
        let bare = Json::obj([("workloads", Json::obj([("w", Json::Obj(Vec::new()))]))]);
        assert_eq!(findings(&a, &bare), END_TO_END.len() + EXACT.len());
    }
}
