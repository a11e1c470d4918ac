//! Design-decision probes beyond the paper's figures.
//!
//! 1. Chunk-size sweep — §6.2 argues chunks must be "large enough for
//!    sequential access, small enough to be units of distribution and
//!    stealing"; the sweep shows both cliffs.
//! 2. Placement policy — random-uniform vs locality-seeking placement at
//!    fixed machine count, isolating the "no locality needed" claim from
//!    the stealing machinery (both run with stealing on).

use chaos_core::Placement;

use crate::harness::{Harness, Table};

/// Runs the probes, one table each.
pub fn run(h: &Harness) -> Vec<Table> {
    vec![chunk_size_sweep(h), placement_probe(h)]
}

fn chunk_size_sweep(h: &Harness) -> Table {
    let m = 8;
    let scale = h.scale.base_scale + 3;
    let mut t = Table::new(
        "ablation: chunk size",
        format!("PR on RMAT-{scale}, m={m}, normalized to the default"),
    );
    let sizes: [u64; 5] = [4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024];
    let g = h.rmat_for(scale, "PR");
    let times: Vec<f64> = sizes
        .iter()
        .map(|&s| {
            let mut cfg = h.config(m);
            cfg.chunk_bytes = s;
            h.run("PR", cfg, &g).runtime as f64
        })
        .collect();
    t.push(sizes.iter().map(|s| format!("{}K", s / 1024)).collect());
    t.push(
        times
            .iter()
            .map(|x| format!("{:.2}", x / times[2]))
            .collect(),
    );
    t.note("tiny chunks pay per-request latency; huge chunks lose steal granularity");
    t
}

fn placement_probe(h: &Harness) -> Table {
    let m = 8;
    let scale = h.scale.base_scale + 3;
    let mut t = Table::new(
        "ablation: placement",
        format!("PR on RMAT-{scale}, m={m}: random-uniform vs locality placement"),
    );
    let g = h.rmat_for(scale, "PR");
    for placement in [Placement::RandomUniform, Placement::LocalOnly] {
        let mut cfg = h.config(m);
        cfg.mem_budget = h.scale.mem_budget / 2;
        cfg.placement = placement;
        let rep = h.run("PR", cfg, &g);
        let max = rep.device_busy.iter().copied().max().unwrap_or(0) as f64;
        let mean = rep.device_busy.iter().sum::<u64>() as f64 / rep.device_busy.len().max(1) as f64;
        t.note(format!(
            "{:<16} runtime {:>8.3}s  max-device-busy/mean {:.2}  steals {}",
            format!("{placement:?}"),
            rep.seconds(),
            max / mean.max(1.0),
            rep.steals
        ));
    }
    t.note("random placement evens device load; locality concentrates it on hub masters");
    t
}
