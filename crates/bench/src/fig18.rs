//! Figure 18: the work-stealing bias α.
//!
//! α scales the benefit side of the steal criterion (§5.4): 0 disables
//! stealing, 1 is Chaos's default, ∞ always steals. The paper shows α = 1
//! is fastest — under-stealing leaves imbalance, over-stealing pays vertex
//! copies for no benefit.

use crate::harness::{runtimes, series_row, Harness, Table};

/// Runs the experiment.
pub fn run(h: &Harness) -> Table {
    let m = *h.scale.machines.last().expect("non-empty");
    let scale = h.scale.base_scale + 5;
    let mut t = Table::new(
        "fig18",
        format!("steal-bias sweep at m={m}, RMAT-{scale}, normalized to alpha=1"),
    );
    let alphas: [(f64, &str); 5] = [
        (0.0, "0"),
        (0.8, "0.8"),
        (1.0, "1.0"),
        (1.2, "1.2"),
        (f64::INFINITY, "inf"),
    ];
    let mut header = vec!["algo".to_string()];
    header.extend(alphas.iter().map(|(_, s)| format!("a={s}")));
    header.push("steals@1".into());
    t.push(header);
    for algo in ["BFS", "PR"] {
        let g = h.rmat_for(scale, algo);
        let reps: Vec<_> = alphas
            .iter()
            .map(|&(alpha, _)| {
                let mut cfg = h.config(m);
                cfg.mem_budget = h.scale.mem_budget / 2;
                cfg.steal_alpha = alpha;
                h.run(algo, cfg, &g)
            })
            .collect();
        // Normalized to alpha = 1.
        let times = runtimes(&reps);
        let mut cells = series_row(algo, &times, times[2], 2);
        cells.push(reps[2].steals.to_string());
        t.push(cells);
    }
    t.note("\npaper: alpha = 1 obtains the best performance");
    t
}
