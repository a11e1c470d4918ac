//! Figure 15: randomized placement vs a centralized chunk directory.
//!
//! The strawman routes every chunk placement and lookup through one
//! directory entity; the paper shows its runtime growing much faster with
//! machine count than Chaos's randomized scheme.

use chaos_core::Placement;

use crate::harness::{runtimes, series_row, Harness, Table};

/// Runs the experiment.
pub fn run(h: &Harness) -> Table {
    let mut t = Table::new(
        "fig15",
        "weak scaling: randomized chunks vs centralized directory, normalized to (m=1, Chaos)",
    );
    t.push(h.machine_header("series", &[]));
    for algo in ["BFS", "PR"] {
        let chaos = runtimes(&h.weak_series(algo, |m| h.config(m)));
        let central = runtimes(&h.weak_series(algo, |m| {
            let mut cfg = h.config(m);
            cfg.placement = Placement::Centralized;
            cfg
        }));
        t.push(series_row(&format!("{algo} chaos"), &chaos, chaos[0], 2));
        t.push(series_row(
            &format!("{algo} central"),
            &central,
            chaos[0],
            2,
        ));
    }
    t.note("\npaper: the centralized entity increasingly becomes the bottleneck with m");
    t
}
