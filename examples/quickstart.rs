//! Quickstart: Pagerank on a simulated Chaos cluster.
//!
//! Generates an RMAT graph, runs five Pagerank iterations on clusters of
//! 1, 4 and 16 machines, and prints the run reports — including the
//! runtime breakdown of Figure 17 and the aggregate storage bandwidth of
//! Figure 14.
//!
//! Run with: `cargo run --release --example quickstart`

use chaos::prelude::*;

fn main() {
    let scale = 14;
    let graph = RmatConfig::paper(scale).generate();
    println!(
        "RMAT-{scale}: {} vertices, {} edges\n",
        graph.num_vertices,
        graph.num_edges()
    );

    let mut single_machine = 0.0;
    for machines in [1usize, 4, 16] {
        let mut cfg = ChaosConfig::new(machines);
        cfg.chunk_bytes = 64 * 1024; // scaled-down chunk for a scaled graph
        let (report, ranks) = run_chaos(cfg, Pagerank::new(5), &graph);
        if machines == 1 {
            single_machine = report.seconds();
        }
        let [gp_m, gp_s, copy, merge, merge_wait, barrier] = report.mean_breakdown_fractions();
        println!("== {machines} machine(s) ==");
        println!(
            "  runtime          {:>8.3} s  (speedup {:.2}x, preprocess {:.3} s)",
            report.seconds(),
            single_machine / report.seconds(),
            report.preprocess_time as f64 / 1e9,
        );
        println!(
            "  aggregate bw     {:>8.1} MB/s across {} devices (util {:.1}%)",
            report.aggregate_bandwidth() / 1e6,
            machines,
            100.0 * report.mean_device_utilization()
        );
        println!(
            "  breakdown        gp={:.0}%+{:.0}% copy={:.0}% merge={:.0}% wait={:.0}% barrier={:.0}%",
            100.0 * gp_m,
            100.0 * gp_s,
            100.0 * copy,
            100.0 * merge,
            100.0 * merge_wait,
            100.0 * barrier
        );
        println!(
            "  partitions={} steals={} network={} MB\n",
            report.partitions,
            report.steals,
            report.fabric.remote_bytes / 1_000_000
        );
        // The vertex with the highest rank is a low-id RMAT hub.
        let (best, rank) = ranks
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
            .expect("non-empty graph");
        assert!(best < 32, "RMAT hubs live at low ids");
        println!(
            "  hottest vertex: v{best} with rank {rank:.1}\n",
            rank = rank.0
        );
    }
}
