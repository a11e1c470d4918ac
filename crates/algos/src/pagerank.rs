//! Pagerank, exactly as in Figure 2 of the paper.

use chaos_gas::{Control, GasProgram, IterationAggregates};
use chaos_graph::{Edge, VertexId};

/// Pagerank with damping 0.85 for a fixed number of iterations:
/// `Scatter` emits `rank / degree`, `Gather` sums, `Apply` computes
/// `0.15 + 0.85 * a` (Figure 2).
#[derive(Debug, Clone)]
pub struct Pagerank {
    iterations: u32,
}

impl Pagerank {
    /// Runs `iterations` synchronous Pagerank iterations.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn new(iterations: u32) -> Self {
        assert!(iterations > 0, "need at least one iteration");
        Self { iterations }
    }
}

/// Sum accumulator in `f64` to keep replica-merge order effects negligible.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankSum(pub f64);

impl GasProgram for Pagerank {
    /// `(rank, out_degree)`.
    type VertexState = (f32, u32);
    type Update = f32;
    type Accum = RankSum;
    type HeldEdge = chaos_gas::BareEdge;

    fn name(&self) -> &'static str {
        "PR"
    }

    fn init(&self, _v: VertexId, out_degree: u64) -> (f32, u32) {
        (1.0, out_degree as u32)
    }

    fn scatter(&self, _v: VertexId, state: &(f32, u32), _edge: &Edge, _iter: u32) -> Option<f32> {
        // Vertices with out-degree zero scatter nothing (they also have no
        // out-edges to scatter over; degree is carried for the division).
        (state.1 > 0).then(|| state.0 / state.1 as f32)
    }

    fn gather(&self, acc: &mut RankSum, _dst: VertexId, _dst_state: &(f32, u32), payload: &f32) {
        acc.0 += *payload as f64;
    }

    fn merge(&self, into: &mut RankSum, from: &RankSum) {
        into.0 += from.0;
    }

    fn apply(&self, _v: VertexId, state: &mut (f32, u32), acc: &RankSum, _iter: u32) -> bool {
        state.0 = (0.15 + 0.85 * acc.0) as f32;
        true
    }

    fn aggregate(&self, state: &(f32, u32)) -> [f64; 4] {
        [state.0 as f64, 0.0, 0.0, 0.0]
    }

    fn end_iteration(&mut self, iter: u32, _agg: &IterationAggregates) -> Control {
        if iter + 1 >= self.iterations {
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
    use chaos_graph::reference::pagerank as oracle_pagerank;
    use chaos_graph::{builder, RmatConfig};

    fn check(g: &chaos_graph::InputGraph, iters: u32) {
        let res = run_sequential(Pagerank::new(iters), g, iters + 1);
        assert_eq!(res.num_iterations(), iters);
        let oracle = oracle_pagerank(g, iters);
        for (v, (got, want)) in res.states.iter().zip(oracle.iter()).enumerate() {
            assert!(
                (got.0 as f64 - want).abs() <= 1e-3 * want.max(1.0),
                "vertex {v}: got {} want {}",
                got.0,
                want
            );
        }
    }

    #[test]
    fn matches_oracle() {
        check(&builder::cycle(10), 5);
        check(&builder::star(8), 3);
        check(&RmatConfig::paper(8).generate(), 5);
    }

    #[test]
    fn rank_mass_is_conserved_on_cycle() {
        // On a regular graph total rank stays at n.
        let g = builder::cycle(16);
        let res = run_sequential(Pagerank::new(4), &g, 10);
        assert!((res.final_aggregates().custom[0] - 16.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        let _ = Pagerank::new(0);
    }
}
