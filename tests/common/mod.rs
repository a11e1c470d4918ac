//! Shared helpers for the cross-crate integration tests.
//!
//! Each integration-test binary compiles this module separately and uses
//! only a subset of the helpers, so per-binary dead-code analysis is noise.
#![allow(dead_code)]

use std::fmt;
use std::path::{Path, PathBuf};

use chaos::core::Layout;
use chaos::gas::CUSTOM_AGGREGATES;
use chaos::graph::VertexId;
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

/// The first line where fresh output differs from a committed golden file.
#[derive(Debug)]
pub struct GoldenDiff {
    /// The golden file's name under `tests/golden/`.
    pub name: String,
    /// Index of the first differing line (0-based).
    pub line: usize,
    /// That line in the golden file, or `<end>`.
    pub golden: String,
    /// That line in the fresh output, or `<end>`.
    pub fresh: String,
    /// Where the fresh output was written.
    pub written: PathBuf,
}

impl fmt::Display for GoldenDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "differs from tests/golden/{} at line {}:\n  golden: {}\n  fresh:  {}\n\
             fresh output written to {}",
            self.name,
            self.line + 1,
            self.golden,
            self.fresh,
            self.written.display()
        )
    }
}

/// Compares `fresh` with the committed `tests/golden/<name>` byte for byte.
/// On a mismatch, writes `fresh` to `target/golden/<name>` (copy it over
/// the golden to regenerate) and returns the first differing line.
pub fn golden_diff(name: &str, fresh: &str) -> Option<GoldenDiff> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(root.join("tests/golden").join(name))
        .unwrap_or_else(|e| panic!("tests/golden/{name} is committed: {e}"));
    if fresh == golden {
        return None;
    }
    let written = root.join("target/golden").join(name);
    std::fs::create_dir_all(written.parent().expect("has a parent")).expect("create target/golden");
    std::fs::write(&written, fresh).expect("write the fresh output");
    let (want, got): (Vec<&str>, Vec<&str>) = (golden.lines().collect(), fresh.lines().collect());
    // Equal lines with different line endings report the line past the end.
    let line = (0..want.len().max(got.len()))
        .find(|&i| want.get(i) != got.get(i))
        .unwrap_or(want.len());
    let at = |v: &[&str]| v.get(line).map_or("<end>".to_string(), |s| s.to_string());
    Some(GoldenDiff {
        name: name.to_string(),
        line,
        golden: at(&want),
        fresh: at(&got),
        written,
    })
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

/// `run_chaos` with a run that can skip laying its edges out in `layout`
/// instead of `Layout::DEFAULT` (`Cluster::with_layout`).
pub fn run_with_layout<P: GasProgram>(
    cfg: ChaosConfig,
    program: P,
    g: &InputGraph,
    layout: Layout,
) -> (RunReport, Vec<P::VertexState>) {
    let mut cluster = Cluster::with_layout(cfg, program, g, layout).expect("valid configuration");
    let report = cluster.run();
    (report, cluster.final_states())
}

/// `P` with the paper's dense activity model: the run streams every edge
/// every iteration and never compacts — the full-stream reference that
/// selective streaming must agree with in results. Every other method is
/// `P`'s own.
#[derive(Debug, Clone)]
pub struct DenseActivity<P>(pub P);

impl<P: GasProgram> GasProgram for DenseActivity<P> {
    type VertexState = P::VertexState;
    type Update = P::Update;
    type Accum = P::Accum;
    type HeldEdge = P::HeldEdge;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn needs_undirected(&self) -> bool {
        self.0.needs_undirected()
    }

    fn init(&self, v: VertexId, out_degree: u64) -> Self::VertexState {
        self.0.init(v, out_degree)
    }

    fn direction(&self) -> Direction {
        self.0.direction()
    }

    fn uses_reverse_edges(&self) -> bool {
        self.0.uses_reverse_edges()
    }

    fn scatter(
        &self,
        v: VertexId,
        state: &Self::VertexState,
        edge: &Edge,
        iter: u32,
    ) -> Option<Self::Update> {
        self.0.scatter(v, state, edge, iter)
    }

    fn gather(
        &self,
        acc: &mut Self::Accum,
        dst: VertexId,
        dst_state: &Self::VertexState,
        payload: &Self::Update,
    ) {
        self.0.gather(acc, dst, dst_state, payload)
    }

    fn merge(&self, into: &mut Self::Accum, from: &Self::Accum) {
        self.0.merge(into, from)
    }

    fn apply(
        &self,
        v: VertexId,
        state: &mut Self::VertexState,
        acc: &Self::Accum,
        iter: u32,
    ) -> bool {
        self.0.apply(v, state, acc, iter)
    }

    fn activity(&self) -> ActivityModel {
        ActivityModel::Dense
    }

    fn is_active(&self, v: VertexId, state: &Self::VertexState, iter: u32) -> bool {
        self.0.is_active(v, state, iter)
    }

    fn edge_dead(&self, v: VertexId, state: &Self::VertexState, edge: &Edge, iter: u32) -> bool {
        self.0.edge_dead(v, state, edge, iter)
    }

    fn shrinks_now(&self, iter: u32) -> bool {
        self.0.shrinks_now(iter)
    }

    fn aggregate(&self, state: &Self::VertexState) -> [f64; CUSTOM_AGGREGATES] {
        self.0.aggregate(state)
    }

    fn end_iteration(&mut self, iter: u32, agg: &IterationAggregates) -> Control {
        self.0.end_iteration(iter, agg)
    }

    fn update_payload_bytes(&self) -> u64 {
        self.0.update_payload_bytes()
    }

    fn vertex_state_bytes(&self) -> u64 {
        self.0.vertex_state_bytes()
    }
}
