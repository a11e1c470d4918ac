//! Figure 16: runtime as a function of the batch factor φk.
//!
//! The paper sweeps the outstanding-request window at 32 machines and
//! finds a sweet spot at φk = 10 (k = 5, φ = 2), matching the queueing
//! analysis of §6.5; larger windows add queueing delay and incast.

use crate::harness::{series_row, Harness, Table};

/// Runs the experiment.
pub fn run(h: &Harness) -> Table {
    let m = *h.scale.machines.last().expect("non-empty");
    let scale = h.scale.base_scale + 5;
    let mut t = Table::new(
        "fig16",
        format!("batch-factor sweep at m={m}, RMAT-{scale}, normalized to phi*k=10"),
    );
    let windows = [1usize, 2, 3, 5, 10, 16, 32];
    let mut header = vec!["algo".to_string()];
    header.extend(windows.iter().map(|w| format!("pk={w}")));
    t.push(header);
    let algos = if h.scale.all_algorithms {
        vec!["BFS", "WCC", "PR", "Cond", "SpMV", "BP"]
    } else {
        vec!["BFS", "PR"]
    };
    for algo in algos {
        let g = h.rmat_for(scale, algo);
        let times: Vec<f64> = windows
            .iter()
            .map(|&w| {
                let mut cfg = h.config(m);
                cfg.batch_window = w;
                h.run(algo, cfg, &g).runtime as f64
            })
            .collect();
        // Normalized to phi*k = 10.
        t.push(series_row(algo, &times, times[4], 2));
    }
    t.note("\npaper: clear sweet spot at phi*k = 10; small windows starve devices");
    t
}
