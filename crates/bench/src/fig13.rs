//! Figure 13: checkpointing overhead.
//!
//! Per-barrier two-phase checkpointing of the vertex values costs under 6%
//! in the paper (RMAT-35 on 32 machines' HDDs), even though the runs write
//! hundreds of terabytes.

use crate::harness::{Harness, Table};

/// Runs the experiment.
pub fn run(h: &Harness) -> Table {
    let m = *h.scale.machines.last().expect("non-empty");
    let scale = h.scale.base_scale + 5;
    let mut t = Table::new(
        "fig13",
        format!("checkpointing overhead, m={m}, RMAT-{scale}, HDD"),
    );
    t.header(&["algo", "off(s)", "on(s)", "overhead"]);
    for algo in ["BFS", "PR"] {
        let g = h.rmat_for(scale, algo);
        let plain = h.run(algo, h.config(m).with_hdd(), &g);
        let mut cfg = h.config(m).with_hdd();
        cfg.checkpoint = true;
        let ck = h.run(algo, cfg, &g);
        t.push(vec![
            algo.into(),
            format!("{:.2}", plain.seconds()),
            format!("{:.2}", ck.seconds()),
            format!(
                "{:+.1}%",
                100.0 * (ck.runtime as f64 / plain.runtime as f64 - 1.0)
            ),
        ]);
    }
    t.note("\npaper: under 6% for both");
    t
}
