//! Figure 10: sensitivity to the number of CPU cores.
//!
//! The paper varies the cores available to Chaos (p = 8, 12, 16) during
//! weak scaling and finds the system "performs adequately even with half
//! the CPU cores", since cores only matter for sustaining network and
//! storage throughput.

use crate::harness::{runtimes, series_row, Harness, Table};

/// Runs the experiment.
pub fn run(h: &Harness) -> Table {
    let mut t = Table::new(
        "fig10",
        "weak scaling at p = 8 / 12 / 16 cores, normalized to (m=1, p=16)",
    );
    t.push(h.machine_header("series", &[]));
    for algo in ["BFS", "PR"] {
        let mut base = 0.0;
        for cores in [16u32, 12, 8] {
            let times = runtimes(&h.weak_series(algo, |m| {
                let mut cfg = h.config(m);
                cfg.cores = cores;
                cfg
            }));
            if cores == 16 {
                base = times[0];
            }
            t.push(series_row(&format!("{algo} p={cores}"), &times, base, 2));
        }
    }
    t.note("\npaper: p=8 tracks p=16 closely; a minimum is needed for network throughput");
    t
}
