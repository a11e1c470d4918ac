//! Engine-level invariants: determinism, placement equivalence, stealing,
//! batching, conservation.

mod common;

use chaos::graph::reference;
use chaos::prelude::*;
use common::{close, directed_graph, test_config};

#[test]
fn runs_are_deterministic_in_results_and_time() {
    let g = directed_graph(9);
    let run = || run_chaos(test_config(4), Pagerank::new(4), &g);
    let (r1, s1) = run();
    let (r2, s2) = run();
    assert_eq!(
        r1.runtime, r2.runtime,
        "simulated time must be reproducible"
    );
    assert_eq!(r1.events, r2.events);
    assert_eq!(s1, s2);
    // A different seed changes the schedule but not the result.
    let mut cfg = test_config(4);
    cfg.seed ^= 0xDEAD;
    let (r3, s3) = run_chaos(cfg, Pagerank::new(4), &g);
    assert_ne!(r1.runtime, r3.runtime, "different schedule");
    for (a, b) in s1.iter().zip(s3.iter()) {
        assert!(close(a.0 as f64, b.0 as f64, 1e-5), "same ranks");
    }
}

#[test]
fn all_placements_agree_on_results() {
    let g = directed_graph(9);
    let oracle = reference::pagerank(&g, 3);
    for placement in [
        Placement::RandomUniform,
        Placement::LocalOnly,
        Placement::Centralized,
    ] {
        let mut cfg = test_config(5);
        cfg.placement = placement;
        let (_, states) = run_chaos(cfg, Pagerank::new(3), &g);
        for (v, (got, want)) in states.iter().zip(oracle.iter()).enumerate() {
            assert!(
                close(got.0 as f64, *want, 1e-3),
                "{placement:?} v{v}: {} vs {want}",
                got.0
            );
        }
    }
}

#[test]
fn centralized_directory_is_slower_at_scale() {
    let g = directed_graph(12);
    let mut rand_cfg = test_config(8);
    rand_cfg.mem_budget = 1 << 30;
    let mut dir_cfg = rand_cfg.clone();
    dir_cfg.placement = Placement::Centralized;
    // Make the directory expensive enough to bite at this scaled-down size
    // (the paper's effect compounds with machine count).
    dir_cfg.directory_op_ns = 100_000;
    let (r_rand, _) = run_chaos(rand_cfg, Pagerank::new(3), &g);
    let (r_dir, _) = run_chaos(dir_cfg, Pagerank::new(3), &g);
    assert!(
        r_dir.runtime > r_rand.runtime,
        "directory {} vs random {}",
        r_dir.runtime,
        r_rand.runtime
    );
}

#[test]
fn stealing_happens_and_alpha_zero_disables_it() {
    // A deliberately imbalanced workload: RMAT's low-id partitions hold
    // most edges, so masters of the sparse partitions finish early and
    // steal from the hub partition's master.
    let g = chaos::graph::RmatConfig::paper_weighted(12)
        .generate()
        .to_undirected();
    let mut cfg = test_config(4);
    cfg.chunk_bytes = 64 * 1024;
    // Several partitions per machine: stealing mostly targets partitions
    // still queued behind a busy master (§5.3).
    cfg.mem_budget = 2 * 1024;
    let (rep, _) = run_chaos(cfg.clone(), Sssp::new(0), &g);
    assert!(rep.steals > 0, "expected steals on an imbalanced run");

    cfg.steal_alpha = 0.0;
    let (rep0, states0) = run_chaos(cfg, Sssp::new(0), &g);
    assert_eq!(rep0.steals, 0, "alpha = 0 must disable stealing");
    // And the result is still right.
    let oracle = reference::dijkstra(&g, 0);
    for (got, want) in states0.iter().zip(oracle.iter()) {
        if want.is_finite() {
            assert!(close(got.0 as f64, *want as f64, 1e-4));
        }
    }
}

#[test]
fn always_steal_still_correct() {
    let g = directed_graph(11);
    let mut cfg = test_config(4);
    cfg.chunk_bytes = 64 * 1024;
    cfg.mem_budget = 2 * 1024;
    cfg.steal_alpha = f64::INFINITY;
    let (rep, states) = run_chaos(cfg, Pagerank::new(3), &g);
    assert!(rep.steals > 0);
    let oracle = reference::pagerank(&g, 3);
    for (got, want) in states.iter().zip(oracle.iter()) {
        assert!(close(got.0 as f64, *want, 1e-3));
    }
}

#[test]
fn batching_window_affects_time_not_results() {
    let g = directed_graph(9);
    let mut times = Vec::new();
    let oracle = reference::pagerank(&g, 3);
    for window in [1usize, 2, 10] {
        let mut cfg = test_config(6);
        cfg.batch_window = window;
        let (rep, states) = run_chaos(cfg, Pagerank::new(3), &g);
        for (got, want) in states.iter().zip(oracle.iter()) {
            assert!(close(got.0 as f64, *want, 1e-3), "window {window}");
        }
        times.push(rep.runtime);
    }
    // A window of 1 leaves devices idle; the paper's sweet spot is faster.
    assert!(
        times[2] < times[0],
        "window 10 ({}) should beat window 1 ({})",
        times[2],
        times[0]
    );
}

#[test]
fn update_bytes_conserved_between_scatter_and_gather() {
    // Every update written is read exactly once: written bytes to update
    // sets equal read bytes (cache hits count as reads via cache_bytes).
    let g = directed_graph(9);
    let mut cfg = test_config(3);
    cfg.pagecache_bytes = 0; // all update traffic hits the device
    let (rep, _) = run_chaos(cfg, Pagerank::new(3), &g);
    let total_updates: u64 = rep.iteration_aggs.iter().map(|a| a.updates_produced).sum();
    assert!(total_updates > 0);
    // Devices moved at least the update traffic both ways.
    let io = rep.total_device_bytes();
    assert!(io > 2 * total_updates * 8);
}

#[test]
fn page_cache_reduces_device_traffic() {
    let g = directed_graph(9);
    let mut cold = test_config(3);
    cold.pagecache_bytes = 0;
    let mut warm = test_config(3);
    warm.pagecache_bytes = 1 << 30; // everything fits
    let (r_cold, _) = run_chaos(cold, Pagerank::new(3), &g);
    let (r_warm, _) = run_chaos(warm, Pagerank::new(3), &g);
    let cold_reads: u64 = r_cold.devices.iter().map(|d| d.bytes_read).sum();
    let warm_reads: u64 = r_warm.devices.iter().map(|d| d.bytes_read).sum();
    assert!(warm_reads < cold_reads, "cache must absorb update reads");
    assert!(r_warm.runtime < r_cold.runtime);
    let hits: u64 = r_warm.devices.iter().map(|d| d.cache_hits).sum();
    assert!(hits > 0);
}

#[test]
fn partition_rule_is_smallest_multiple_of_machines() {
    let g = directed_graph(10); // 1024 vertices
    for m in [1usize, 2, 4] {
        let mut cfg = test_config(m);
        cfg.mem_budget = 2048; // 256 PR vertices of 8 bytes per partition
        let cluster = Cluster::new(cfg, Pagerank::new(1), &g).expect("valid");
        let parts = cluster.params().spec.num_partitions;
        assert_eq!(parts % m, 0, "multiple of machines");
        assert!(1024u64.div_ceil(parts as u64) * 8 <= 2048, "fits budget");
        // One fewer multiple would not fit.
        if parts > m {
            let fewer = parts - m;
            assert!(
                1024u64.div_ceil(fewer as u64) * 8 > 2048,
                "smallest multiple"
            );
        }
    }
}

#[test]
fn more_machines_do_not_lose_data() {
    // Weak sanity across many machine counts, including m > partitions'
    // natural fit and m not dividing the vertex count.
    let g = directed_graph(8);
    let oracle = reference::pagerank(&g, 2);
    for m in [2usize, 5, 7, 12] {
        let (_, states) = run_chaos(test_config(m), Pagerank::new(2), &g);
        assert_eq!(states.len() as u64, g.num_vertices);
        for (got, want) in states.iter().zip(oracle.iter()) {
            assert!(close(got.0 as f64, *want, 1e-3), "m={m}");
        }
    }
}

#[test]
fn invalid_configs_are_rejected_by_cluster() {
    let g = directed_graph(6);
    let mut cfg = test_config(2);
    cfg.batch_window = 0;
    assert!(Cluster::new(cfg, Pagerank::new(1), &g).is_err());
    let mut cfg = test_config(2);
    cfg.placement = Placement::Centralized;
    assert!(
        Cluster::new(cfg, Scc::new(), &g).is_err(),
        "centralized + reverse edges unsupported"
    );
}

#[test]
fn partitions_past_u32_offsets_are_a_config_error() {
    // One machine with memory for every vertex: a single partition of
    // 2^32 + 1 vertices, one more than a `u32` update offset addresses.
    // The compact edge format's id check rejects the graph before any
    // partitioning, and with it every stride a `u32` cannot address.
    let g = InputGraph::new((1 << 32) + 1, Vec::new(), false);
    let mut cfg = test_config(1);
    cfg.mem_budget = u64::MAX / 2;
    let err = match Cluster::new(cfg, Pagerank::new(1), &g) {
        Ok(_) => panic!("a partition past u32 offsets must be rejected"),
        Err(e) => e,
    };
    assert!(
        err.contains("4294967297 vertices") && err.contains("2^32"),
        "names the problem: {err}"
    );
}

#[test]
fn an_unusable_spill_dir_is_an_error_not_a_panic() {
    let scratch = chaos::storage::ScratchDir::new("chaos-bad-spill").expect("scratch dir");
    let file = scratch.path().join("not-a-directory");
    std::fs::write(&file, b"x").expect("regular file");
    let mut cfg = test_config(2);
    cfg.spill_dir = Some(file.join("spill"));
    let err = match Cluster::new(cfg, Pagerank::new(1), &directed_graph(6)) {
        Ok(_) => panic!("a spill directory under a regular file must be rejected"),
        Err(e) => e,
    };
    assert!(
        err.contains("spill directory") && err.contains(&*file.to_string_lossy()),
        "names the path: {err}"
    );
}
