//! Figure 14: aggregate storage bandwidth during weak scaling.
//!
//! The paper normalizes the aggregate bandwidth seen by all computation
//! engines to the 1-machine bandwidth and overlays the theoretical maximum
//! (the fio-measured device bandwidth x machines): Chaos scales linearly
//! and stays within ~3% of the devices' limit.

use chaos_core::RunReport;

use crate::harness::{series_row, Harness, Table};

/// Runs the experiment.
pub fn run(h: &Harness) -> Table {
    let mut t = Table::new(
        "fig14",
        "aggregate storage bandwidth, weak scaling, normalized to 1 machine",
    );
    t.push(h.machine_header("algo", &["of max"]));
    let m = *h.scale.machines.last().expect("non-empty");
    let device_max = m as f64 * h.config(m).device.bandwidth as f64;
    for algo in ["BFS", "WCC", "PR", "SpMV", "BP"] {
        let reps = h.weak_series(algo, |m| {
            let mut cfg = h.config(m);
            // Measure the devices, not the cache.
            cfg.pagecache_bytes = 0;
            cfg
        });
        let bws: Vec<f64> = reps.iter().map(RunReport::aggregate_bandwidth).collect();
        let mut cells = series_row(algo, &bws, bws[0], 1);
        cells.push(format!("{:.0}%", 100.0 * (bws[bws.len() - 1] / device_max)));
        t.push(cells);
    }
    t.note("\npaper: linear scaling, within 3% of the fio-measured device maximum");
    t.note("note: 'of max' counts barriers and phase tails against the devices; the");
    t.note("      scaled-down runs have proportionally larger tails than RMAT-32");
    t
}
