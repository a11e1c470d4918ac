//! Figure 19: Chaos vs the Giraph-like baseline.
//!
//! Out-of-core Giraph is an order of magnitude slower in absolute terms
//! (JVM), so the paper normalizes each system to its own 1-machine runtime
//! and shows that static partitioning "severely affects scalability".

use chaos_baselines::giraph_config;

use crate::harness::{runtimes, series_row, Harness, Table};

/// Runs the experiment.
pub fn run(h: &Harness) -> Table {
    let scale = h.scale.base_scale + 2;
    let mut t = Table::new(
        "fig19",
        format!("PR strong scaling, RMAT-{scale}: Chaos vs Giraph-like, each normalized to itself"),
    );
    let g = h.rmat_for(scale, "PR");
    t.push(h.machine_header("system", &[]));
    let chaos = runtimes(&h.strong_series("PR", &g, |m| {
        let mut cfg = h.config(m);
        cfg.mem_budget = h.scale.mem_budget / 2;
        cfg
    }));
    let giraph = runtimes(&h.strong_series("PR", &g, |m| {
        let mut cfg = giraph_config(m);
        cfg.chunk_bytes = h.scale.chunk_bytes;
        cfg.mem_budget = h.scale.mem_budget / 2;
        cfg
    }));
    t.push(series_row("chaos", &chaos, chaos[0], 2));
    t.push(series_row("giraph", &giraph, giraph[0], 2));
    t.note(format!(
        "\nabsolute 1-machine ratio giraph/chaos: {:.1}x (the paper observed an",
        giraph[0] / chaos[0]
    ));
    t.note("order of magnitude, dominated by JVM engineering; Figure 19 therefore compares");
    t.note("normalized curves, where Chaos keeps scaling while static partitions stall)");
    t
}
