//! All five workloads, each run the way `BENCHMARK.json`'s command runs
//! it: one process per run, [`RUN_SECONDS`] per run.
//!
//! A suite is one *set* of full runs: [`ROUNDS`] untraced runs per
//! workload, interleaved round-robin (w1 w2 … w5, w1 …) so that host drift
//! lands on all workloads equally, then one traced run per workload for
//! the per-layer metrics. The file it writes holds, per end-to-end metric,
//! every run, their median and their spread — what `compare` reads.

use std::path::Path;
use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::stats::{iqr_pct, median};
use crate::workloads::CELLS;
use crate::Flags;

/// Runs `program args…` and returns the first line of its output, or
/// "unknown" — provenance for the result file, never a reason to fail.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Untraced runs per workload in one suite.
pub const ROUNDS: usize = 5;

/// One child run; returns the parsed result line.
fn child(exe: &Path, workload: &str, seed: u64, trace: bool, smoke: bool) -> Result<Json, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &RUN_SECONDS.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr is captured with it.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout.lines().last().map(Json::parse);
    match parsed {
        // A run whose checks failed exits non-zero but still reports.
        Some(Ok(result)) if result.get("metrics").is_some() => Ok(result),
        _ => Err(format!(
            "{workload}: no result line (exit {:?})\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

fn count(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::num).unwrap_or(0.0)
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.num()
}

pub fn suite(mut flags: Flags, perf_dir: &Path) -> Result<ExitCode, String> {
    let seed: u64 = flags.value("--seed")?.unwrap_or(1);
    let smoke = flags.switch("--smoke");
    let out: Option<String> = flags.value("--out")?;
    flags.done()?;
    let rounds = if smoke { 1 } else { ROUNDS };
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;

    let mut untraced: Vec<Vec<Json>> = vec![Vec::new(); CELLS.len()];
    for round in 0..rounds {
        for (cell, results) in CELLS.iter().zip(&mut untraced) {
            eprintln!("round {}/{rounds}: {}", round + 1, cell.name);
            results.push(child(&exe, cell.name, seed, false, smoke)?);
        }
    }
    let mut spans = Vec::new();
    let mut workloads = Vec::new();
    let mut failed_total = 0.0;
    for (cell, results) in CELLS.iter().zip(&untraced) {
        eprintln!("traced: {}", cell.name);
        let traced = child(&exe, cell.name, seed, true, smoke)?;
        let trace_file = perf_dir.join(format!("trace-{}.json", cell.name));
        if let Ok(text) = std::fs::read_to_string(&trace_file) {
            spans.extend(Json::parse(&text)?.items().iter().cloned());
        }
        let attempted: f64 = results
            .iter()
            .chain([&traced])
            .map(|r| count(r, "attempted"))
            .sum();
        let failed: f64 = results
            .iter()
            .chain([&traced])
            .map(|r| count(r, "failed"))
            .sum();
        failed_total += failed;

        println!("{}  ({} of {} runs failed)", cell.name, failed, attempted);
        let end_to_end = END_TO_END.iter().map(|m| {
            let runs: Vec<f64> = results.iter().filter_map(|r| metric(r, m.name)).collect();
            let (value, spread_pct) = (median(&runs), iqr_pct(&runs));
            println!(
                "  {:<12} {value:>12.6} {:<3} {} is better, may worsen by {:.0}%; spread {spread_pct:.2}% over {} runs",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound * 100.0,
                runs.len()
            );
            let entry = Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(m.unit)),
                ("spread_pct", Json::Num(spread_pct)),
                ("runs", Json::Arr(runs.into_iter().map(Json::Num).collect())),
            ]);
            (m.name, entry)
        });
        let end_to_end = Json::obj(end_to_end.collect::<Vec<_>>());
        let per_layer = PER_LAYER.iter().filter_map(|&(name, unit, _)| {
            let value = metric(&traced, name)?;
            Some((
                name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ))
        });
        workloads.push((
            cell.name,
            Json::obj([
                ("why", Json::str(cell.why)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("end_to_end", end_to_end),
                ("per_layer", Json::obj(per_layer.collect::<Vec<_>>())),
            ]),
        ));
    }

    let trace_path = perf_dir.join("trace.json");
    std::fs::write(&trace_path, Json::Arr(spans).to_string())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    let doc = Json::obj([
        (
            "meta",
            Json::obj([
                ("seed", Json::Num(seed as f64)),
                ("smoke", Json::Bool(smoke)),
                ("run_seconds", Json::Num(RUN_SECONDS)),
                ("rounds", Json::Num(rounds as f64)),
                ("git", Json::str(first_line("git", &["rev-parse", "HEAD"]))),
                ("rustc", Json::str(first_line("rustc", &["--version"]))),
                (
                    "nproc",
                    Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
                ),
            ]),
        ),
        ("workloads", Json::obj(workloads)),
    ]);
    let out_path = out.map_or_else(|| perf_dir.join("result.json"), Into::into);
    std::fs::write(&out_path, format!("{doc}\n"))
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;
    println!(
        "result: {}   trace: {}",
        out_path.display(),
        trace_path.display()
    );
    Ok(if failed_total == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
