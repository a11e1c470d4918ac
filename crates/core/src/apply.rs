//! Gather-apply at a partition's master (§5, Figure 4).
//!
//! Once the master finished its own gather stream of a partition, it asks
//! every stealer of that partition for its accumulators, merges them into
//! its own — accumulation is commutative, so arrival order does not
//! matter — and applies once per vertex. The new vertex set is then
//! written back and the partition's update set dropped (§6.1), which the
//! engine does with what [`GatherFinish::apply`] returns.

use std::sync::Arc;

use chaos_gas::{GasProgram, IterationAggregates};
use chaos_graph::VertexId;
use chaos_sim::Time;

/// The master's wait for stealer accumulators, then apply, on one
/// partition.
pub(crate) struct GatherFinish<P: GasProgram> {
    /// The partition.
    pub part: usize,
    vertices: Vec<P::VertexState>,
    /// The master's own accumulators, one per vertex.
    accums: Vec<P::Accum>,
    /// Stealers' accumulators received so far.
    collected: Vec<Arc<Vec<P::Accum>>>,
    /// Stealers still to send theirs.
    awaiting: usize,
    wait_started: Time,
}

impl<P: GasProgram> GatherFinish<P> {
    /// The master's gather of `part` ended at `now` with `vertices` and
    /// `accums`; `stealers` machines still hold accumulators of it.
    pub fn new(
        part: usize,
        vertices: Vec<P::VertexState>,
        accums: Vec<P::Accum>,
        stealers: usize,
        now: Time,
    ) -> Self {
        Self {
            part,
            vertices,
            accums,
            collected: Vec::new(),
            awaiting: stealers,
            wait_started: now,
        }
    }

    /// Whether every stealer's accumulators are in.
    pub fn ready(&self) -> bool {
        self.awaiting == 0
    }

    /// One stealer's accumulators arrived at `now`. Returns how long the
    /// master waited when they were the last.
    pub fn collect(&mut self, accums: Arc<Vec<P::Accum>>, now: Time) -> Option<Time> {
        self.collected.push(accums);
        self.awaiting -= 1;
        self.ready().then(|| now - self.wait_started)
    }

    /// Records merge and apply go through: every vertex once, and once
    /// more per stealer's accumulators.
    pub fn records(&self) -> u64 {
        self.vertices.len() as u64 * (1 + self.collected.len() as u64)
    }

    /// Merges every stealer's accumulators into the master's, then applies
    /// each vertex of the partition (whose first vertex is `base`) once in
    /// iteration `iter`, counting changes and the program's aggregates
    /// into `agg`. Returns the new vertex set, to be written back, and the
    /// spent accumulator buffer.
    pub fn apply(
        mut self,
        program: &P,
        base: VertexId,
        iter: u32,
        agg: &mut IterationAggregates,
    ) -> (Vec<P::VertexState>, Vec<P::Accum>) {
        debug_assert!(
            self.ready(),
            "apply before every stealer's accumulators arrived"
        );
        for arr in &self.collected {
            for (into, from) in self.accums.iter_mut().zip(arr.iter()) {
                program.merge(into, from);
            }
        }
        for (off, (state, acc)) in self.vertices.iter_mut().zip(&self.accums).enumerate() {
            if program.apply(base + off as u64, state, acc, iter) {
                agg.vertices_changed += 1;
            }
            let c = program.aggregate(state);
            for (slot, x) in agg.custom.iter_mut().zip(c.iter()) {
                *slot += x;
            }
        }
        (self.vertices, self.accums)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_gas::{BareEdge, Control};
    use chaos_graph::Edge;

    /// Sums accumulators; apply adds the sum to the state.
    #[derive(Clone)]
    struct Sum;

    impl GasProgram for Sum {
        type VertexState = u64;
        type Update = u64;
        type Accum = u64;
        type HeldEdge = BareEdge;

        fn name(&self) -> &'static str {
            "Sum"
        }

        fn init(&self, _v: VertexId, _d: u64) -> u64 {
            0
        }

        fn scatter(&self, _v: VertexId, _s: &u64, _e: &Edge, _i: u32) -> Option<u64> {
            None
        }

        fn gather(&self, acc: &mut u64, _dst: VertexId, _s: &u64, payload: &u64) {
            *acc += payload;
        }

        fn merge(&self, into: &mut u64, from: &u64) {
            *into += from;
        }

        fn apply(&self, _v: VertexId, state: &mut u64, acc: &u64, _i: u32) -> bool {
            *state += acc;
            *acc != 0
        }

        fn end_iteration(&mut self, _i: u32, _a: &IterationAggregates) -> Control {
            Control::Done
        }
    }

    #[test]
    fn every_stealers_accumulators_merge_before_apply() {
        let mut fin = GatherFinish::<Sum>::new(0, vec![100; 3], vec![1, 0, 0], 2, 10);
        assert!(!fin.ready());
        assert_eq!(fin.collect(Arc::new(vec![0, 2, 0]), 12), None);
        assert!(!fin.ready(), "one stealer still out");
        assert_eq!(fin.collect(Arc::new(vec![0, 0, 0]), 15), Some(5));
        assert_eq!(fin.records(), 9, "three vertices, three accumulator arrays");
        let mut agg = IterationAggregates::default();
        let (states, accums) = fin.apply(&Sum, 0, 0, &mut agg);
        assert_eq!(states, [101, 102, 100]);
        assert_eq!(accums, [1, 2, 0]);
        assert_eq!(agg.vertices_changed, 2);
    }

    #[test]
    fn without_stealers_apply_is_ready_at_once() {
        let fin = GatherFinish::<Sum>::new(0, vec![5; 2], vec![1, 1], 0, 0);
        assert!(fin.ready());
        assert_eq!(fin.records(), 2);
        let (states, _) = fin.apply(&Sum, 0, 0, &mut IterationAggregates::default());
        assert_eq!(states, [6, 6]);
    }
}
