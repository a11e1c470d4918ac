//! Figure 12: 40 GigE vs 1 GigE.
//!
//! On 1 GigE the network delivers about a quarter of the storage
//! bandwidth, violating Chaos's core assumption; scaling collapses
//! (normalized runtimes of 5-9x in the paper), "highlighting the need for
//! network links which are faster than the storage bandwidth per machine".

use crate::harness::{runtimes, series_row, Harness, Table};

/// Runs the experiment.
pub fn run(h: &Harness) -> Table {
    let mut t = Table::new(
        "fig12",
        "weak scaling over 40GigE vs 1GigE, normalized to (m=1, 40G)",
    );
    t.push(h.machine_header("series", &[]));
    let mut slow_norm_at_max = 0.0;
    for algo in ["BFS", "PR"] {
        let fast = runtimes(&h.weak_series(algo, |m| h.config(m)));
        let slow = runtimes(&h.weak_series(algo, |m| h.config(m).with_one_gige()));
        slow_norm_at_max = slow[slow.len() - 1] / fast[0];
        t.push(series_row(&format!("{algo} 40G"), &fast, fast[0], 2));
        t.push(series_row(&format!("{algo} 1G"), &slow, fast[0], 2));
    }
    t.note(format!(
        "\n1GigE normalized runtime at m={}: {:.1} (paper: 5-9x; the network becomes the bottleneck)",
        h.scale.machines.last().expect("non-empty"),
        slow_norm_at_max
    ));
    t
}
