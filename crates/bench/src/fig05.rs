//! Figure 5: theoretical storage-engine utilization ρ(m, k).
//!
//! Pure analytics (Equations 4 and 5); no simulation involved. The
//! empirical counterpart is the Figure 16 batch-factor sweep.

use chaos_core::batching::{utilization, utilization_floor};

use crate::harness::{Harness, Table};

/// Runs the experiment.
pub fn run(_h: &Harness) -> Table {
    let mut t = Table::new("fig5", "theoretical utilization rho(m,k) = 1 - (1 - k/m)^m");
    let ks = [1usize, 2, 3, 5];
    let mut header = vec!["m".to_string()];
    header.extend(ks.iter().map(|k| format!("k={k}")));
    t.push(header);
    for m in [2usize, 5, 10, 15, 20, 25, 30, 32] {
        let mut cells = vec![m.to_string()];
        cells.extend(ks.iter().map(|&k| format!("{:.4}", utilization(m, k))));
        t.push(cells);
    }
    let mut cells = vec!["inf".to_string()];
    cells.extend(ks.iter().map(|&k| format!("{:.4}", utilization_floor(k))));
    t.push(cells);
    t.note("\npaper: k=5 keeps utilization above 99.3% regardless of cluster size");
    assert!(utilization_floor(5) > 0.993);
    t
}
