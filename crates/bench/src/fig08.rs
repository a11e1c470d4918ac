//! Figure 8: strong scaling on a fixed RMAT graph, normalized runtime.
//!
//! The paper runs RMAT-27 on 1-32 machines: average speedup ~13x at 32
//! machines (23x for Conductance, 8x for MCST), limited by the small graph
//! size.

use crate::harness::{runtimes, series_row, Harness, Table};

/// Runs the experiment.
pub fn run(h: &Harness) -> Table {
    let scale = h.scale.base_scale + 2;
    let mut t = Table::new(
        "fig8",
        format!("strong scaling, RMAT-{scale}, normalized runtime (t_m / t_1)"),
    );
    t.push(h.machine_header("algo", &["speedup"]));
    let mut speedups = Vec::new();
    for algo in h.algorithms() {
        let g = h.rmat_for(scale, algo);
        let times = runtimes(&h.strong_series(algo, &g, |m| h.config(m)));
        let speedup = 1.0 / (times[times.len() - 1] / times[0]);
        speedups.push(speedup);
        let mut cells = series_row(algo, &times, times[0], 3);
        cells.push(format!("{speedup:.1}x"));
        t.push(cells);
    }
    t.note(format!(
        "\nmean speedup at m={}: {:.1}x (paper: ~13x on RMAT-27; 8x to 23x)",
        h.scale.machines.last().expect("non-empty sweep"),
        speedups.iter().sum::<f64>() / speedups.len() as f64
    ));
    t
}
