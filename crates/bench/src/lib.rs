//! Benchmark harness for the Chaos reproduction.
//!
//! One module per table/figure of the paper's evaluation (§8-§10); each
//! regenerates the corresponding rows or series on the simulated cluster
//! and prints them. The `figures` binary drives them:
//!
//! ```text
//! cargo run -p chaos-bench --release --bin figures -- list
//! cargo run -p chaos-bench --release --bin figures -- fig7
//! cargo run -p chaos-bench --release --bin figures -- all --full
//! ```
//!
//! Scales are reduced relative to the paper (RMAT-12..17 instead of
//! RMAT-27..32 by default; `--full` raises them) with chunk sizes scaled
//! accordingly; `EXPERIMENTS.md` records paper-vs-measured for one
//! captured run.

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

pub use harness::{metrics_json, Harness, Scale};

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

/// Runs one experiment by id.
///
/// # Panics
///
/// Panics on an unknown id; use [`EXPERIMENTS`] for the valid set.
pub fn run_experiment(id: &str, h: &Harness) {
    match id {
        "table1" => table1::run(h),
        "fig5" => fig05::run(h),
        "fig7" => fig07::run(h),
        "fig8" => fig08::run(h),
        "fig9" => fig09::run(h),
        "cap" => capacity::run(h),
        "fig10" => fig10::run(h),
        "fig11" => fig11::run(h),
        "fig12" => fig12::run(h),
        "fig13" => fig13::run(h),
        "fig14" => fig14::run(h),
        "fig15" => fig15::run(h),
        "fig16" => fig16::run(h),
        "fig17" => fig17::run(h),
        "fig18" => fig18::run(h),
        "fig19" => fig19::run(h),
        "fig20" => fig20::run(h),
        "ablations" => ablations::run(h),
        other => panic!("unknown experiment {other:?}; try `list`"),
    }
}
