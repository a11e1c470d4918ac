//! Sequential GAS executor: a direct transcription of the paper's Figure 1.
//!
//! This executor runs a [`GasProgram`] over an in-memory edge list with no
//! partitioning, no storage and no distribution. It serves two purposes:
//! unit-testing algorithms against textbook oracles, and acting as the
//! semantic specification that the distributed engine must match
//! bit-for-bit (modulo floating-point summation order).

use chaos_graph::InputGraph;

use crate::program::{Control, GasProgram, IterationAggregates};
use crate::record::Update;

/// Outcome of a sequential run.
#[derive(Debug, Clone)]
pub struct SequentialResult<V> {
    /// Final vertex states.
    pub states: Vec<V>,
    /// Aggregates of every iteration, in order.
    pub iterations: Vec<IterationAggregates>,
}

impl<V> SequentialResult<V> {
    /// Number of iterations executed.
    pub fn num_iterations(&self) -> u32 {
        self.iterations.len() as u32
    }

    /// Aggregates of the final iteration.
    ///
    /// # Panics
    ///
    /// Panics if the run executed zero iterations.
    pub fn final_aggregates(&self) -> &IterationAggregates {
        self.iterations.last().expect("at least one iteration")
    }
}

/// Runs `program` to convergence (or `max_iterations`) over `graph`.
///
/// # Panics
///
/// Panics if the program fails to converge within `max_iterations`; callers
/// pick a bound appropriate for the algorithm (propagation algorithms need
/// on the order of the graph diameter).
pub fn run_sequential<P: GasProgram>(
    mut program: P,
    graph: &InputGraph,
    max_iterations: u32,
) -> SequentialResult<P::VertexState> {
    let degrees = graph.out_degrees();
    let n = graph.num_vertices as usize;
    let mut states: Vec<P::VertexState> = (0..graph.num_vertices)
        .map(|v| program.init(v, degrees[v as usize]))
        .collect();
    let mut iterations = Vec::new();
    for iter in 0.. {
        assert!(
            iter < max_iterations,
            "{} failed to converge in {max_iterations} iterations",
            program.name()
        );
        // Scatter (Figure 1): one pass over the edge list.
        let mut updates: Vec<Update<P::Update>> = Vec::new();
        program.scatter_chunk(0, &states, &graph.edges, iter, &mut updates);
        // Gather: fold updates into per-vertex accumulators.
        let mut accums: Vec<P::Accum> = (0..n).map(|_| P::Accum::default()).collect();
        program.gather_chunk(0, &states, &mut accums, &updates);
        // Apply + aggregates.
        let mut agg = IterationAggregates {
            updates_produced: updates.len() as u64,
            ..Default::default()
        };
        for v in 0..n {
            if program.apply(v as u64, &mut states[v], &accums[v], iter) {
                agg.vertices_changed += 1;
            }
        }
        for s in &states {
            let c = program.aggregate(s);
            for (slot, x) in agg.custom.iter_mut().zip(c.iter()) {
                *slot += x;
            }
        }
        let control = program.end_iteration(iter, &agg);
        iterations.push(agg);
        if control == Control::Done {
            break;
        }
    }
    SequentialResult { states, iterations }
}
