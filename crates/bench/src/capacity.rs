//! §9.3 capacity scaling: towards a trillion edges.
//!
//! The paper runs BFS and 5 Pagerank iterations on RMAT-36 (2^40 edges,
//! 16 TB of input) over 32 machines' HDDs: ~9 h for BFS (214 TB of I/O)
//! and ~19 h for PR (395 TB). We measure real runs at three feasible
//! scales, validate that per-iteration device I/O is linear in the edge
//! count (the extrapolation's premise — Chaos is I/O-bound), and project.

use chaos_core::capacity::{relative_error, CapacityModel};

use crate::harness::{Harness, Table};

/// Runs the experiment.
pub fn run(h: &Harness) -> Table {
    let mut t = Table::new(
        "cap",
        "capacity scaling towards RMAT-36 (trillion edges), HDD",
    );
    let machines = 8usize;
    t.header(&["algo", "scale", "sim(s)", "io(MB)", "B/edge", "B/edge/it"]);
    let base = h.scale.base_scale;
    for algo in ["BFS", "PR"] {
        let mut models = Vec::new();
        let mut iters = Vec::new();
        for scale in [base, base + 1, base + 2] {
            let g = h.rmat_for(scale, algo);
            let cfg = h.config(machines).with_hdd();
            let rep = h.run(algo, cfg, &g);
            let model = CapacityModel::from_report(&rep, g.num_edges());
            t.push(vec![
                algo.into(),
                scale.to_string(),
                format!("{:.2}", rep.seconds()),
                format!("{:.1}", rep.total_device_bytes() as f64 / 1e6),
                format!("{:.1}", model.io_per_edge()),
                format!("{:.1}", model.io_per_edge() / rep.iterations as f64),
            ]);
            iters.push(rep.iterations);
            models.push(model);
        }
        // Linearity: per-iteration bytes/edge stable across scales.
        let per_it: Vec<f64> = models
            .iter()
            .zip(&iters)
            .map(|(m, &i)| m.io_per_edge() / i as f64)
            .collect();
        let err = relative_error(per_it[2], per_it[0]);
        t.note(format!(
            "  {algo}: per-iteration bytes/edge spread {:.1}%",
            100.0 * err
        ));

        // Project to RMAT-36 on 32 machines. BFS iteration count grows
        // with the diameter (the paper's RMAT-36 BFS runs ~10-15 frontier
        // expansions); PR is fixed at 5 either way.
        let model = models.last().expect("measured");
        let target_iters: f64 = if algo == "BFS" { 12.0 } else { 5.0 };
        let measured_iters = *iters.last().expect("measured") as f64;
        let p = model.predict(1u64 << 40, 32.0 / machines as f64, 1.0);
        let io = p.io_bytes as f64 * target_iters / measured_iters;
        let time = p.runtime as f64 * target_iters / measured_iters;
        t.note(format!(
            "  {algo}: projected RMAT-36 on 32 machines: {:.0} TB of I/O, {:.1} h  \
             (paper: {})",
            io / 1e12,
            time / 3.6e12,
            if algo == "BFS" {
                "214 TB, ~9 h"
            } else {
                "395 TB, ~19 h"
            }
        ));
    }
    t.note(
        "\nthe paper's aggregate HDD bandwidth is 7 GB/s from 64 disks; ours scales the same way",
    );
    t
}
