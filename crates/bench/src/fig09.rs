//! Figure 9: strong scaling on the real-world-shaped web graph from HDDs.
//!
//! The paper uses the 64-billion-edge Data Commons graph (too big for one
//! SSD) and reports speedups of 20x (BFS) and 18.5x (PR) at 32 machines —
//! better than RMAT-27 strong scaling because the graph is much larger
//! relative to memory. We use the synthetic Data-Commons stand-in.

use crate::harness::{runtimes, series_row, Harness, Table};

/// Runs the experiment.
pub fn run(h: &Harness) -> Table {
    let pages = 1u64 << (h.scale.base_scale + 3);
    let mut t = Table::new(
        "fig9",
        format!("strong scaling, {pages}-page web graph, HDD, normalized runtime"),
    );
    t.push(h.machine_header("algo", &["speedup"]));
    for algo in ["BFS", "PR"] {
        let g = h.webgraph(pages, algo == "BFS");
        let times = runtimes(&h.strong_series(algo, &g, |m| h.config(m).with_hdd()));
        let mut cells = series_row(algo, &times, times[0], 3);
        cells.push(format!("{:.1}x", 1.0 / (times[times.len() - 1] / times[0])));
        t.push(cells);
    }
    t.note("\npaper: 20x (BFS) and 18.5x (PR) at 32 machines");
    t
}
