//! Conductance of a deterministic pseudo-random vertex cut.

use chaos_gas::{Control, GasProgram, IterationAggregates};
use chaos_graph::{Edge, VertexId};
use chaos_sim::rng::mix2;

/// Deterministic membership predicate: roughly half the vertices, chosen by
/// a seeded hash bit. Shared between the GAS program and the oracle-based
/// tests.
pub fn in_set(v: u64, seed: u64) -> bool {
    mix2(seed, v) & 1 == 1
}

/// Conductance measures, for a vertex subset S, the fraction of edge volume
/// crossing the cut: `cross(S) / min(vol(S), vol(S̄))`. One scatter/gather
/// round: every vertex scatters its membership bit; each destination counts
/// arrivals from the other side. Volumes come from out-degrees.
#[derive(Debug, Clone)]
pub struct Conductance {
    seed: u64,
}

impl Conductance {
    /// Conductance of the hash-cut derived from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Extracts `(cross, vol_in, vol_out)` from the final aggregates.
    pub fn counts(agg: &IterationAggregates) -> (u64, u64, u64) {
        (
            agg.custom[0] as u64,
            agg.custom[1] as u64,
            agg.custom[2] as u64,
        )
    }

    /// Conductance value from the final aggregates.
    pub fn value(agg: &IterationAggregates) -> f64 {
        let (cross, vin, vout) = Self::counts(agg);
        let denom = vin.min(vout);
        if denom == 0 {
            0.0
        } else {
            cross as f64 / denom as f64
        }
    }
}

/// Counts of member/non-member updates received.
#[derive(Debug, Clone, Copy, Default)]
pub struct SideCounts {
    /// Updates from member sources.
    pub from_in: u64,
    /// Updates from non-member sources.
    pub from_out: u64,
}

impl GasProgram for Conductance {
    /// `(member, out_degree, cross_edges_in)`.
    type VertexState = (bool, u32, u32);
    type Update = bool;
    type Accum = SideCounts;
    type HeldEdge = chaos_gas::BareEdge;

    fn name(&self) -> &'static str {
        "Cond"
    }

    fn init(&self, v: VertexId, out_degree: u64) -> (bool, u32, u32) {
        (in_set(v, self.seed), out_degree as u32, 0)
    }

    fn scatter(
        &self,
        _v: VertexId,
        state: &(bool, u32, u32),
        _edge: &Edge,
        _iter: u32,
    ) -> Option<bool> {
        Some(state.0)
    }

    fn gather(
        &self,
        acc: &mut SideCounts,
        _dst: VertexId,
        _dst_state: &(bool, u32, u32),
        payload: &bool,
    ) {
        if *payload {
            acc.from_in += 1;
        } else {
            acc.from_out += 1;
        }
    }

    fn merge(&self, into: &mut SideCounts, from: &SideCounts) {
        into.from_in += from.from_in;
        into.from_out += from.from_out;
    }

    fn apply(
        &self,
        _v: VertexId,
        state: &mut (bool, u32, u32),
        acc: &SideCounts,
        _iter: u32,
    ) -> bool {
        // Edges crossing the cut, counted once at their destination.
        state.2 = if state.0 {
            acc.from_out as u32
        } else {
            acc.from_in as u32
        };
        true
    }

    fn aggregate(&self, state: &(bool, u32, u32)) -> [f64; 4] {
        let vol = state.1 as f64;
        [
            state.2 as f64,
            if state.0 { vol } else { 0.0 },
            if state.0 { 0.0 } else { vol },
            0.0,
        ]
    }

    fn end_iteration(&mut self, _iter: u32, _agg: &IterationAggregates) -> Control {
        Control::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_gas::run_sequential;
    use chaos_graph::reference::conductance_counts;
    use chaos_graph::{builder, RmatConfig};

    fn check(g: &chaos_graph::InputGraph, seed: u64) {
        let res = run_sequential(Conductance::new(seed), g, 2);
        let got = Conductance::counts(res.final_aggregates());
        let want = conductance_counts(g, |v| in_set(v, seed));
        assert_eq!(got, want);
    }

    #[test]
    fn matches_oracle_exactly() {
        check(&builder::gnm(64, 512, false, 3), 11);
        check(&RmatConfig::paper(8).generate(), 5);
        check(&builder::two_cliques(5), 7);
    }

    #[test]
    fn value_handles_empty_side() {
        // All edges from one vertex; a seed under which everything lands on
        // one side yields conductance 0 — emulate with a tiny graph.
        let g = chaos_graph::InputGraph::new(1, vec![], false);
        let res = run_sequential(Conductance::new(1), &g, 2);
        assert_eq!(Conductance::value(res.final_aggregates()), 0.0);
    }
}
