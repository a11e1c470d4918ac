//! Figure 17: breakdown of runtime at 32 machines.
//!
//! Categories: graph processing on own partitions, graph processing on
//! stolen partitions, copy (stealers loading vertex sets / shipping
//! accumulators), merge (master-side accumulator merge + apply), merge
//! wait, and barrier idle time. The paper reports 74-87% useful work,
//! idle below 4%, copy+merge 0-22%.

use crate::harness::{Harness, Table};

/// Runs the experiment.
pub fn run(h: &Harness) -> Table {
    let m = *h.scale.machines.last().expect("non-empty");
    let scale = h.scale.base_scale + 5;
    let mut t = Table::new(
        "fig17",
        format!("runtime breakdown at m={m}, RMAT-{scale} (fractions of attributed time)"),
    );
    t.header(&[
        "algo",
        "gp_own",
        "gp_stolen",
        "copy",
        "merge",
        "mrg_wait",
        "barrier",
    ]);
    for algo in h.algorithms() {
        let g = h.rmat_for(scale, algo);
        let mut cfg = h.config(m);
        // More partitions per machine give the stealer something to do.
        cfg.mem_budget = h.scale.mem_budget / 2;
        let rep = h.run(algo, cfg, &g);
        // Normalize to the attributed total (the paper's categories also
        // sum to 1; our pre-processing and inter-partition gaps are not
        // attributed).
        let mut sums = [0.0f64; 6];
        for b in &rep.breakdowns {
            let f = b.fractions(b.total().max(1));
            for (s, x) in sums.iter_mut().zip(f.iter()) {
                *s += x;
            }
        }
        let n = rep.breakdowns.len() as f64;
        let mut cells = vec![algo.to_string()];
        cells.extend(sums.iter().map(|s| format!("{:.0}%", 100.0 * s / n)));
        t.push(cells);
    }
    t.note("\npaper: gp 74-87% (avg 83%), idle <4%, copy+merge 0-22% (avg 14%)");
    t
}
