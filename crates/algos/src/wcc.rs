//! Weakly Connected Components via min-label propagation.

use chaos_gas::{ActivityModel, Control, GasProgram, IterationAggregates};
use chaos_graph::{Edge, VertexId};

/// WCC: every vertex converges to the minimum vertex id in its (weakly)
/// connected component. Requires the undirected expansion of the input so
/// labels flow both ways.
#[derive(Debug, Clone, Default)]
pub struct Wcc;

impl Wcc {
    /// Creates the program.
    pub fn new() -> Self {
        Self
    }
}

impl GasProgram for Wcc {
    /// `(label, changed-last-iteration)`.
    type VertexState = (u64, bool);
    type Update = u64;
    /// Minimum label seen; identity is `u64::MAX`.
    type Accum = MinLabel;
    type HeldEdge = chaos_gas::BareEdge;

    fn name(&self) -> &'static str {
        "WCC"
    }

    fn needs_undirected(&self) -> bool {
        true
    }

    fn init(&self, v: VertexId, _out_degree: u64) -> (u64, bool) {
        (v, true)
    }

    fn scatter(&self, _v: VertexId, state: &(u64, bool), _edge: &Edge, _iter: u32) -> Option<u64> {
        state.1.then_some(state.0)
    }

    fn activity(&self) -> ActivityModel {
        ActivityModel::Frontier
    }

    fn is_active(&self, _v: VertexId, state: &(u64, bool), _iter: u32) -> bool {
        state.1
    }

    fn gather(&self, acc: &mut MinLabel, _dst: VertexId, _dst_state: &(u64, bool), payload: &u64) {
        acc.0 = acc.0.min(*payload);
    }

    fn merge(&self, into: &mut MinLabel, from: &MinLabel) {
        into.0 = into.0.min(from.0);
    }

    fn apply(&self, _v: VertexId, state: &mut (u64, bool), acc: &MinLabel, _iter: u32) -> bool {
        let changed = acc.0 < state.0;
        if changed {
            state.0 = acc.0;
        }
        state.1 = changed;
        changed
    }

    fn end_iteration(&mut self, _iter: u32, agg: &IterationAggregates) -> Control {
        if agg.vertices_changed == 0 {
            Control::Done
        } else {
            Control::Continue
        }
    }
}

/// Min-fold accumulator whose `Default` is the identity `u64::MAX`.
#[derive(Debug, Clone, Copy)]
pub struct MinLabel(pub u64);

impl Default for MinLabel {
    fn default() -> Self {
        Self(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_gas::run_sequential;
    use chaos_graph::reference::weakly_connected_components;
    use chaos_graph::{builder, RmatConfig};

    fn check(g: &chaos_graph::InputGraph) {
        let res = run_sequential(Wcc::new(), g, 100_000);
        let got: Vec<u64> = res.states.iter().map(|s| s.0).collect();
        assert_eq!(got, weakly_connected_components(g));
    }

    #[test]
    fn matches_oracle_on_small_shapes() {
        check(&builder::two_cliques(4));
        check(&builder::cycle(9).to_undirected());
        check(&builder::path(12).to_undirected());
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..4 {
            check(&builder::gnm(100, 120, false, seed).to_undirected());
        }
        check(&RmatConfig::paper(8).generate().to_undirected());
    }

    #[test]
    fn isolated_vertices_keep_own_label() {
        let g = chaos_graph::InputGraph::new(5, vec![], false);
        let res = run_sequential(Wcc::new(), &g, 10);
        let got: Vec<u64> = res.states.iter().map(|s| s.0).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }
}
