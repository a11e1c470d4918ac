//! Figure 7: weak scaling — RMAT-s on 1 machine up to RMAT-(s+5) on 32,
//! runtime normalized to the single-machine runtime.
//!
//! The paper reports an average factor of 1.61x at 32 machines for a 32x
//! larger problem, ranging from 0.97x (Conductance, thanks to the buffer
//! cache) to 2.29x (MCST).

use crate::harness::{banner, row, Harness};

/// Runs the experiment.
pub fn run(h: &Harness) {
    let base = h.scale.base_scale;
    banner(
        "fig7",
        &format!(
            "weak scaling, RMAT-{base} to RMAT-{}, normalized runtime",
            base + 5
        ),
    );
    let mut header = vec!["algo".to_string()];
    header.extend(h.scale.machines.iter().map(|m| format!("m={m}")));
    println!("{}", row(&header));
    let mut sum_at_max = 0.0;
    let mut count = 0usize;
    for algo in h.algorithms() {
        let mut cells = vec![algo.to_string()];
        let mut base_time = 0.0;
        let mut last = 0.0;
        for &m in h.scale.machines {
            let scale = base + (m as f64).log2().round() as u32;
            let g = h.rmat_for(scale, algo);
            let rep = h.run(algo, h.config(m), &g);
            if m == 1 {
                base_time = rep.runtime as f64;
            }
            last = rep.runtime as f64 / base_time;
            cells.push(format!("{last:.2}"));
        }
        sum_at_max += last;
        count += 1;
        println!("{}", row(&cells));
    }
    println!(
        "\nmean normalized runtime at m={}: {:.2} (paper: 1.61, range 0.97-2.29)",
        h.scale.machines.last().expect("non-empty sweep"),
        sum_at_max / count as f64
    );
    // Host-throughput numerator for scripts/bench_smoke.sh: simulated
    // quantities, so the lines are identical across the
    // selective/reference streaming modes.
    println!("records streamed: {}", h.records_streamed());
    println!("records skipped: {}", h.records_skipped());
    println!("records skipped mid-wavefront: {}", h.records_skipped_mid());
    // Sub-chunk selectivity from the block indexes: zero with
    // `--block-records 0`, so bench_smoke.sh compares the runs that differ
    // in this flag by their states-digest lines only.
    println!("blocks skipped: {}", h.blocks_skipped());
    println!("records skipped intra-chunk: {}", h.records_skipped_intra());
    // Layout-invariant fingerprint of every cell's final vertex states:
    // identical across cluster-bin layouts too (bench_smoke.sh compares
    // it between the clustered and unclustered runs).
    println!("states digest: {:016x}", h.states_digest());
}
