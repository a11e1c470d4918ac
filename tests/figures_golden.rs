//! Golden figure output: all 18 experiments of `chaos_bench::EXPERIMENTS`
//! at a tiny scale (RMAT base scale 7, 8 KiB chunks, 16 KiB memory budget,
//! m ∈ {1, 2, 4}, the cheap algorithms), rendered exactly as `figures`
//! prints them, pinned byte for byte in `tests/golden/figures_tiny.txt`.
//! Every cell is a simulated quantity, so the file is host-independent;
//! as a debug build, this test also runs the skip oracle on every run.
//!
//! On a mismatch the test writes the fresh output to
//! `target/golden/figures_tiny.txt` and fails, naming the experiment, the
//! row label and the column header of the first differing line. To
//! regenerate after an intended change: `cargo test --test
//! figures_golden`, then copy `target/golden/figures_tiny.txt` over
//! `tests/golden/figures_tiny.txt` and say in the change what moved.

mod common;

use std::iter::repeat_n;

use chaos::bench::{run_experiment, Harness, Line, Scale, Table, EXPERIMENTS};

fn tiny() -> Harness {
    Harness::new(Scale {
        base_scale: 7,
        chunk_bytes: 8 * 1024,
        mem_budget: 16 * 1024,
        machines: &[1, 2, 4],
        all_algorithms: false,
    })
}

/// Names the experiment, row and column of output line `at`, where the
/// fresh rendering of `tables` reads differently from `golden`.
fn locate(tables: &[(&str, Table)], at: usize, golden: &str) -> String {
    // The experiment and the table line behind each output line; `None`
    // for banner lines.
    let mut owners: Vec<(&str, &Table, Option<&Line>)> = Vec::new();
    for (id, t) in tables {
        let height = |l: &Line| l.to_string().split('\n').count();
        let body: usize = t.lines.iter().map(height).sum();
        let banner = t.to_string().lines().count() - body;
        owners.extend(repeat_n((*id, t, None), banner));
        for l in &t.lines {
            owners.extend(repeat_n((*id, t, Some(l)), height(l)));
        }
    }
    match owners.get(at) {
        None => "output past the last experiment".to_string(),
        Some((id, _, None)) => format!("experiment {id}, banner"),
        Some((id, _, Some(Line::Text(text)))) => format!("experiment {id}, line {text:?}"),
        Some((id, t, Some(line @ Line::Row(cells)))) => {
            let fresh = line.to_string();
            let byte = fresh
                .bytes()
                .zip(golden.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(fresh.len().min(golden.len()));
            // The first cell whose rendering reaches past the differing byte.
            let col = (0..cells.len())
                .find(|&i| Line::Row(cells[..=i].to_vec()).to_string().len() > byte)
                .unwrap_or(cells.len());
            let header = t.lines.iter().find_map(|l| match l {
                Line::Row(h) => Some(h),
                Line::Text(_) => None,
            });
            let column = header
                .and_then(|h| h.get(col))
                .map_or("<past the last column>".to_string(), |c| format!("{c:?}"));
            format!("experiment {id}, row {:?}, column {column}", cells[0])
        }
    }
}

#[test]
fn figures_match_the_golden_file() {
    let h = tiny();
    let tables: Vec<(&str, Table)> = EXPERIMENTS
        .iter()
        .flat_map(|&(id, _)| run_experiment(id, &h).into_iter().map(move |t| (id, t)))
        .collect();
    let fresh: String = tables.iter().map(|(_, t)| t.to_string()).collect();
    if let Some(diff) = common::golden_diff("figures_tiny.txt", &fresh) {
        panic!(
            "{}: figure output {diff}",
            locate(&tables, diff.line, &diff.golden)
        );
    }
}

/// An experiment's tables, its `states digest:` line included, are the same
/// whether it runs alone or after another experiment in the same harness.
#[test]
fn an_experiments_tables_do_not_depend_on_what_ran_before() {
    let alone = run_experiment("fig7", &tiny());
    let h = tiny();
    run_experiment("table1", &h);
    assert_eq!(run_experiment("fig7", &h), alone);
}
