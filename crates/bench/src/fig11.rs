//! Figure 11: SSD vs HDD.
//!
//! "The HDD bandwidth is 2x less than the SSD bandwidth. Chaos scales as
//! expected regardless of the bandwidth, but the application takes time
//! inversely proportional to the available bandwidth."

use crate::harness::{runtimes, series_row, Harness, Table};

/// Runs the experiment.
pub fn run(h: &Harness) -> Table {
    let mut t = Table::new(
        "fig11",
        "weak scaling from SSD vs HDD, normalized to (m=1, SSD)",
    );
    t.push(h.machine_header("series", &[]));
    let mut hdd_over_ssd = Vec::new();
    for algo in ["BFS", "PR"] {
        let ssd = runtimes(&h.weak_series(algo, |m| h.config(m)));
        let hdd = runtimes(&h.weak_series(algo, |m| h.config(m).with_hdd()));
        hdd_over_ssd.extend(hdd.iter().zip(&ssd).map(|(d, s)| d / s));
        t.push(series_row(&format!("{algo} SSD"), &ssd, ssd[0], 2));
        t.push(series_row(&format!("{algo} HDD"), &hdd, ssd[0], 2));
    }
    t.note(format!(
        "\nmean HDD/SSD ratio: {:.2} (paper: ~2, the bandwidth ratio)",
        hdd_over_ssd.iter().sum::<f64>() / hdd_over_ssd.len() as f64
    ));
    t
}
