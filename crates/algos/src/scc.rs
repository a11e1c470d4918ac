//! Strongly Connected Components: the forward-backward coloring algorithm.
//!
//! Each round: (1) *forward* max-id color propagation over out-edges until
//! fixpoint partitions the active subgraph into color regions rooted at
//! their maximum vertex id; (2) a *backward* sweep over in-edges, restricted
//! to each color region, collects the root's SCC; (3) a *reset* iteration
//! re-initializes colors for the still-unassigned vertices. Rounds repeat
//! until every vertex has an SCC label. This is the standard out-of-core
//! SCC used by X-Stream, expressible edge-centrically because both sweeps
//! are pure label propagations.

use chaos_gas::{ActivityModel, Control, Direction, GasProgram, IterationAggregates};
use chaos_graph::{Edge, VertexId};

/// SCC label of unassigned vertices.
pub const UNASSIGNED: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Forward,
    /// `bool` marks the root-discovery iteration (no propagation yet).
    BackwardInit,
    Backward,
    Reset,
}

/// FW-BW coloring SCC.
#[derive(Debug, Clone)]
pub struct Scc {
    phase: Phase,
}

impl Scc {
    /// Creates the program.
    pub fn new() -> Self {
        Self {
            phase: Phase::Forward,
        }
    }
}

impl Default for Scc {
    fn default() -> Self {
        Self::new()
    }
}

/// Accumulator for both sweeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct SccAccum {
    /// Maximum color seen (forward sweep); colors are vertex ids, and the
    /// fold identity 0 is safe because a vertex's own color is always a
    /// candidate at apply time.
    pub max_color: u64,
    /// Whether any update carried the max color (distinguishes "no update"
    /// from color 0).
    pub any: bool,
    /// A same-color SCC member points at this vertex (backward sweep).
    pub member_hit: bool,
}

impl GasProgram for Scc {
    /// `(color, scc, member)`.
    type VertexState = (u64, u64, bool);
    /// `(color, is_member)`.
    type Update = (u64, bool);
    type Accum = SccAccum;
    type HeldEdge = chaos_gas::BareEdge;

    fn name(&self) -> &'static str {
        "SCC"
    }

    fn init(&self, v: VertexId, _out_degree: u64) -> (u64, u64, bool) {
        (v, UNASSIGNED, false)
    }

    fn direction(&self) -> Direction {
        match self.phase {
            Phase::BackwardInit | Phase::Backward => Direction::In,
            _ => Direction::Out,
        }
    }

    fn uses_reverse_edges(&self) -> bool {
        true
    }

    fn scatter(
        &self,
        _v: VertexId,
        state: &(u64, u64, bool),
        _edge: &Edge,
        _iter: u32,
    ) -> Option<(u64, bool)> {
        match self.phase {
            Phase::Forward => (state.1 == UNASSIGNED).then_some((state.0, false)),
            // In backward phases, scatter-side vertices are edge *targets*;
            // members push their color against edge direction.
            Phase::BackwardInit | Phase::Backward => state.2.then_some((state.0, true)),
            Phase::Reset => None,
        }
    }

    fn gather(
        &self,
        acc: &mut SccAccum,
        _dst: VertexId,
        dst_state: &(u64, u64, bool),
        payload: &(u64, bool),
    ) {
        if dst_state.1 != UNASSIGNED {
            return; // Already assigned vertices ignore all traffic.
        }
        match self.phase {
            Phase::Forward => {
                if !acc.any || payload.0 > acc.max_color {
                    acc.max_color = payload.0;
                    acc.any = true;
                }
            }
            Phase::BackwardInit | Phase::Backward => {
                if payload.1 && payload.0 == dst_state.0 {
                    acc.member_hit = true;
                }
            }
            Phase::Reset => {}
        }
    }

    fn merge(&self, into: &mut SccAccum, from: &SccAccum) {
        if from.any && (!into.any || from.max_color > into.max_color) {
            into.max_color = from.max_color;
            into.any = true;
        }
        into.member_hit |= from.member_hit;
    }

    fn apply(&self, v: VertexId, state: &mut (u64, u64, bool), acc: &SccAccum, _iter: u32) -> bool {
        match self.phase {
            Phase::Forward => {
                if state.1 == UNASSIGNED && acc.any && acc.max_color > state.0 {
                    state.0 = acc.max_color;
                    true
                } else {
                    false
                }
            }
            Phase::BackwardInit => {
                // Roots: unassigned vertices whose color survived as their
                // own id claim their SCC.
                if state.1 == UNASSIGNED && state.0 == v {
                    state.1 = state.0;
                    state.2 = true;
                    true
                } else {
                    false
                }
            }
            Phase::Backward => {
                if state.1 == UNASSIGNED && acc.member_hit {
                    state.1 = state.0;
                    state.2 = true;
                    true
                } else {
                    false
                }
            }
            Phase::Reset => {
                state.2 = false;
                if state.1 == UNASSIGNED {
                    state.0 = v;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn activity(&self) -> ActivityModel {
        ActivityModel::Frontier
    }

    fn is_active(&self, _v: VertexId, state: &(u64, u64, bool), _iter: u32) -> bool {
        match self.phase {
            Phase::Forward => state.1 == UNASSIGNED,
            // Root discovery and backward propagation scatter from members
            // only; at BackwardInit no member exists yet and at Reset
            // nobody scatters — both iterations skip every chunk.
            Phase::BackwardInit | Phase::Backward => state.2,
            Phase::Reset => false,
        }
    }

    fn aggregate(&self, state: &(u64, u64, bool)) -> [f64; 4] {
        [if state.1 == UNASSIGNED { 1.0 } else { 0.0 }, 0.0, 0.0, 0.0]
    }

    fn end_iteration(&mut self, _iter: u32, agg: &IterationAggregates) -> Control {
        match self.phase {
            Phase::Forward => {
                if agg.vertices_changed == 0 {
                    self.phase = Phase::BackwardInit;
                }
                Control::Continue
            }
            Phase::BackwardInit => {
                self.phase = Phase::Backward;
                Control::Continue
            }
            Phase::Backward => {
                if agg.vertices_changed == 0 {
                    if agg.custom[0] as u64 == 0 {
                        return Control::Done;
                    }
                    self.phase = Phase::Reset;
                }
                Control::Continue
            }
            Phase::Reset => {
                self.phase = Phase::Forward;
                Control::Continue
            }
        }
    }
}

/// Normalizes an SCC (or any partition) labeling so equal partitions have
/// equal labels: each group is relabeled with its minimum member id.
pub fn normalize_partition(labels: &[u64]) -> Vec<u64> {
    use std::collections::HashMap;
    let mut min_of: HashMap<u64, u64> = HashMap::new();
    for (v, &l) in labels.iter().enumerate() {
        let e = min_of.entry(l).or_insert(v as u64);
        *e = (*e).min(v as u64);
    }
    labels.iter().map(|l| min_of[l]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_gas::run_sequential;
    use chaos_graph::reference::strongly_connected_components;
    use chaos_graph::{builder, RmatConfig};

    fn check(g: &chaos_graph::InputGraph) {
        let res = run_sequential(Scc::new(), g, 1_000_000);
        let got: Vec<u64> = res.states.iter().map(|s| s.1).collect();
        assert!(got.iter().all(|&s| s != UNASSIGNED));
        let want = strongly_connected_components(g);
        assert_eq!(normalize_partition(&got), normalize_partition(&want));
    }

    #[test]
    fn trivial_shapes() {
        check(&builder::path(6)); // All singletons.
        check(&builder::cycle(6)); // One SCC.
        check(&builder::star(5));
    }

    #[test]
    fn two_cycles_with_bridge() {
        let mut g = builder::cycle(4);
        let mut edges = g.edges.clone();
        // Second cycle 4..8 and a one-way bridge.
        for i in 0..4u64 {
            edges.push(chaos_graph::Edge::new(4 + i, 4 + (i + 1) % 4));
        }
        edges.push(chaos_graph::Edge::new(1, 5));
        g = chaos_graph::InputGraph::new(8, edges, false);
        check(&g);
    }

    #[test]
    fn matches_tarjan_on_random_graphs() {
        for seed in 0..4 {
            check(&builder::gnm(60, 150, false, seed));
        }
    }

    #[test]
    fn matches_tarjan_on_rmat() {
        check(&RmatConfig::paper(7).generate());
    }

    #[test]
    fn normalize_partition_canonicalizes() {
        assert_eq!(normalize_partition(&[9, 9, 5, 5, 9]), vec![0, 0, 2, 2, 0]);
    }
}
