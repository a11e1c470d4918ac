//! Benchmark harness for the Chaos reproduction.
//!
//! One module per table/figure of the paper's evaluation (§8-§10); each
//! regenerates the corresponding rows or series on the simulated cluster
//! and returns them as a [`Table`]. The `figures` binary prints them:
//!
//! ```text
//! cargo run -p chaos-bench --release --bin figures -- list
//! cargo run -p chaos-bench --release --bin figures -- fig7
//! cargo run -p chaos-bench --release --bin figures -- all --full
//! ```
//!
//! Scales are reduced relative to the paper (RMAT-12..17 instead of
//! RMAT-27..32 by default; `--full` raises them) with chunk sizes scaled
//! accordingly. Paper-vs-measured is recorded in the figure goldens:
//! `tests/golden/figures_quick.txt` is `figures all` stdout, each
//! experiment's measured rows next to its `paper:` line, and
//! `tests/golden/figures_tiny.txt` pins all 18 at a tiny scale
//! (`tests/figures_golden.rs`, tier-1).

pub mod ablations;
pub mod capacity;
pub mod cli;
pub mod fig05;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod harness;
pub mod table1;

#[cfg(test)]
mod tests;

pub use harness::{metrics_json, Harness, Line, Scale, Table};

/// All experiment ids in paper order, with a one-line description.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    ("table1", "single-machine X-Stream vs Chaos, 10 algorithms"),
    ("fig5", "theoretical storage utilization rho(m, k)"),
    ("fig7", "weak scaling, 10 algorithms, normalized runtime"),
    ("fig8", "strong scaling, 10 algorithms, normalized runtime"),
    ("fig9", "strong scaling on the web graph, HDD"),
    ("cap", "capacity scaling towards a trillion edges (9.3)"),
    ("fig10", "sensitivity to CPU cores"),
    ("fig11", "SSD vs HDD"),
    ("fig12", "40GigE vs 1GigE"),
    ("fig13", "checkpointing overhead"),
    ("fig14", "aggregate storage bandwidth"),
    ("fig15", "randomized vs centralized chunk directory"),
    ("fig16", "batch-factor sweep"),
    ("fig17", "runtime breakdown"),
    ("fig18", "work-stealing bias sweep"),
    ("fig19", "Chaos vs Giraph-like scaling"),
    ("fig20", "rebalance cost vs grid partitioning"),
    ("ablations", "extra design-decision probes beyond the paper"),
];

/// Runs one experiment by id and returns its tables (one each, several
/// for `ablations`) in print order. An experiment that ran the engine ends
/// with a `states digest:` line over its own runs, so its tables do not
/// depend on what the harness ran before.
///
/// # Panics
///
/// Panics on an unknown id; use [`EXPERIMENTS`] for the valid set.
pub fn run_experiment(id: &str, h: &Harness) -> Vec<Table> {
    let mut tables = match id {
        "table1" => vec![table1::run(h)],
        "fig5" => vec![fig05::run(h)],
        "fig7" => vec![fig07::run(h)],
        "fig8" => vec![fig08::run(h)],
        "fig9" => vec![fig09::run(h)],
        "cap" => vec![capacity::run(h)],
        "fig10" => vec![fig10::run(h)],
        "fig11" => vec![fig11::run(h)],
        "fig12" => vec![fig12::run(h)],
        "fig13" => vec![fig13::run(h)],
        "fig14" => vec![fig14::run(h)],
        "fig15" => vec![fig15::run(h)],
        "fig16" => vec![fig16::run(h)],
        "fig17" => vec![fig17::run(h)],
        "fig18" => vec![fig18::run(h)],
        "fig19" => vec![fig19::run(h)],
        "fig20" => vec![fig20::run(h)],
        "ablations" => ablations::run(h),
        other => panic!("unknown experiment {other:?}; try `list`"),
    };
    if let Some(digest) = h.take_states_digest() {
        let last = tables.last_mut().expect("every experiment has a table");
        last.note(format!("states digest: {digest:016x}"));
    }
    tables
}
