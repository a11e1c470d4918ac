//! Figure 20: dynamic load balancing vs up-front grid partitioning.
//!
//! "We compare, for each algorithm and for 32 machines, the worst-case
//! dynamic load balancing cost across all machines to the time required to
//! initially partition the graph" with PowerGraph's in-memory grid
//! algorithm. The paper finds the rebalance cost to be about a tenth of
//! the partitioning time — in circumstances highly favorable to
//! partitioning.

use chaos_baselines::GridPartitioner;

use crate::harness::{Harness, Table};

/// Runs the experiment.
pub fn run(h: &Harness) -> Table {
    let m = *h.scale.machines.last().expect("non-empty");
    let scale = h.scale.base_scale + 2;
    let mut t = Table::new(
        "fig20",
        format!("rebalance cost vs PowerGraph grid partitioning, m={m}, RMAT-{scale}"),
    );
    t.header(&["algo", "rebal(ms)", "grid(ms)", "ratio"]);
    let mut ratios = Vec::new();
    for algo in h.algorithms() {
        let g = h.rmat_for(scale, algo);
        let mut cfg = h.config(m);
        cfg.mem_budget = h.scale.mem_budget / 2;
        let rep = h.run(algo, cfg, &g);
        // Worst-case per-machine load-balancing overhead: stealer copies,
        // accumulator merges and merge waits.
        let rebalance = rep
            .breakdowns
            .iter()
            .map(|b| b.copy + b.merge + b.merge_wait)
            .max()
            .unwrap_or(0);
        let grid = GridPartitioner::new(m).partition(&g);
        let ratio = rebalance as f64 / grid.time.max(1) as f64;
        ratios.push(ratio);
        t.push(vec![
            algo.into(),
            format!("{:.2}", rebalance as f64 / 1e6),
            format!("{:.2}", grid.time as f64 / 1e6),
            format!("{ratio:.2}"),
        ]);
    }
    t.note(format!(
        "\nmean rebalance/partitioning ratio: {:.2} (paper: ~0.1; grid replication factor {:.1})",
        ratios.iter().sum::<f64>() / ratios.len() as f64,
        GridPartitioner::new(m)
            .partition(&h.rmat_for(scale, "PR"))
            .replication_factor
    ));
    t
}
