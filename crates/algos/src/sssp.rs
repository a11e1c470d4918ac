//! Single-Source Shortest Paths: Bellman-Ford style relaxation.

use chaos_gas::{ActivityModel, Control, GasProgram, IterationAggregates};
use chaos_graph::{Edge, VertexId};

/// Distance of unreached vertices.
pub const UNREACHABLE: f32 = f32::INFINITY;

/// SSSP from a root over non-negative edge weights. Vertices whose distance
/// improved in the previous iteration relax their out-edges.
#[derive(Debug, Clone)]
pub struct Sssp {
    root: VertexId,
}

impl Sssp {
    /// SSSP rooted at `root`.
    pub fn new(root: VertexId) -> Self {
        Self { root }
    }
}

/// Min-distance accumulator; identity is `+inf`.
#[derive(Debug, Clone, Copy)]
pub struct MinDist(pub f32);

impl Default for MinDist {
    fn default() -> Self {
        Self(UNREACHABLE)
    }
}

impl GasProgram for Sssp {
    /// `(distance, changed-last-iteration)`.
    type VertexState = (f32, bool);
    type Update = f32;
    type Accum = MinDist;
    type HeldEdge = chaos_gas::PackedEdge;

    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn needs_undirected(&self) -> bool {
        true
    }

    fn init(&self, v: VertexId, _out_degree: u64) -> (f32, bool) {
        if v == self.root {
            (0.0, true)
        } else {
            (UNREACHABLE, false)
        }
    }

    fn scatter(&self, _v: VertexId, state: &(f32, bool), edge: &Edge, _iter: u32) -> Option<f32> {
        state.1.then_some(state.0 + edge.weight)
    }

    fn activity(&self) -> ActivityModel {
        ActivityModel::Frontier
    }

    fn is_active(&self, _v: VertexId, state: &(f32, bool), _iter: u32) -> bool {
        state.1
    }

    fn gather(&self, acc: &mut MinDist, _dst: VertexId, _dst_state: &(f32, bool), payload: &f32) {
        acc.0 = acc.0.min(*payload);
    }

    fn merge(&self, into: &mut MinDist, from: &MinDist) {
        into.0 = into.0.min(from.0);
    }

    fn apply(&self, _v: VertexId, state: &mut (f32, bool), acc: &MinDist, _iter: u32) -> bool {
        if acc.0 < state.0 {
            state.0 = acc.0;
            state.1 = true;
            true
        } else {
            state.1 = false;
            false
        }
    }

    fn end_iteration(&mut self, _iter: u32, agg: &IterationAggregates) -> Control {
        if agg.vertices_changed == 0 {
            Control::Done
        } else {
            Control::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_gas::run_sequential;
    use chaos_graph::builder;
    use chaos_graph::reference::dijkstra;

    fn check(g: &chaos_graph::InputGraph, root: u64) {
        let res = run_sequential(Sssp::new(root), g, 100_000);
        let oracle = dijkstra(g, root);
        for (v, (got, want)) in res.states.iter().zip(oracle.iter()).enumerate() {
            if want.is_infinite() {
                assert!(got.0.is_infinite(), "vertex {v}");
            } else {
                assert!(
                    (got.0 - want).abs() <= 1e-4 * want.max(1.0),
                    "vertex {v}: got {} want {}",
                    got.0,
                    want
                );
            }
        }
    }

    #[test]
    fn matches_dijkstra_on_connected_graphs() {
        for seed in 0..4 {
            check(&builder::connected_weighted(60, 80, seed), 0);
        }
    }

    #[test]
    fn matches_dijkstra_with_unreachable() {
        // Weighted edges but a disconnected pair of cliques.
        let g = builder::gnm(50, 70, true, 9);
        check(&g, 0);
    }

    #[test]
    fn unweighted_reduces_to_bfs_distance() {
        let g = builder::path(6).to_undirected();
        let res = run_sequential(Sssp::new(0), &g, 100);
        let d: Vec<f32> = res.states.iter().map(|s| s.0).collect();
        assert_eq!(d, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }
}
