//! Figure 7: weak scaling — RMAT-s on 1 machine up to RMAT-(s+5) on 32,
//! runtime normalized to the single-machine runtime.
//!
//! The paper reports an average factor of 1.61x at 32 machines for a 32x
//! larger problem, ranging from 0.97x (Conductance, thanks to the buffer
//! cache) to 2.29x (MCST).

use crate::harness::{runtimes, series_row, Harness, Table};

/// Runs the experiment.
pub fn run(h: &Harness) -> Table {
    let base = h.scale.base_scale;
    let mut t = Table::new(
        "fig7",
        format!(
            "weak scaling, RMAT-{base} to RMAT-{}, normalized runtime",
            base + 5
        ),
    );
    t.push(h.machine_header("algo", &[]));
    let algos = h.algorithms();
    let mut sum_at_max = 0.0;
    for algo in &algos {
        let times = runtimes(&h.weak_series(algo, |m| h.config(m)));
        sum_at_max += times[times.len() - 1] / times[0];
        t.push(series_row(algo, &times, times[0], 2));
    }
    t.note(format!(
        "\nmean normalized runtime at m={}: {:.2} (paper: 1.61, range 0.97-2.29)",
        h.scale.machines.last().expect("non-empty sweep"),
        sum_at_max / algos.len() as f64
    ));
    t
}
