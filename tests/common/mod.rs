//! Shared helpers for the cross-crate integration tests.
//!
//! Each integration-test binary compiles this module separately and uses
//! only a subset of the helpers, so per-binary dead-code analysis is noise.
#![allow(dead_code)]

use chaos::prelude::*;

/// A small cluster config tuned for test graphs: small chunks and a small
/// memory budget so even tiny graphs exercise multiple partitions, windows
/// and steals.
pub fn test_config(machines: usize) -> ChaosConfig {
    let mut cfg = ChaosConfig::new(machines);
    cfg.chunk_bytes = 16 * 1024;
    cfg.mem_budget = 16 * 1024;
    cfg
}

/// Relative-tolerance float comparison.
pub fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * b.abs().max(1.0)
}

/// Directed test graph: RMAT plus a sprinkle of extra randomness.
pub fn directed_graph(scale: u32) -> InputGraph {
    RmatConfig::paper(scale).generate()
}

/// Undirected expansion for the first five Table 1 algorithms.
pub fn undirected_graph(scale: u32) -> InputGraph {
    RmatConfig::paper(scale).generate().to_undirected()
}

/// Weighted undirected graph with distinct weights (MCST, SSSP).
pub fn weighted_graph(n: u64, extra: u64, seed: u64) -> InputGraph {
    chaos::graph::builder::connected_weighted(n, extra, seed)
}

/// `run_chaos` on the binary-heap event queue, the calendar queue's
/// whole-run reference (`Cluster::set_queue_kind`).
pub fn run_on_heap<P: GasProgram>(
    cfg: ChaosConfig,
    program: P,
    g: &InputGraph,
) -> (RunReport, Vec<P::VertexState>) {
    let mut cluster = Cluster::new(cfg, program, g).expect("valid configuration");
    cluster.set_queue_kind(QueueKind::Heap);
    let report = cluster.run();
    (report, cluster.final_states())
}
