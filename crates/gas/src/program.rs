//! The [`GasProgram`] trait and iteration control types.

use chaos_graph::{Edge, VertexId};

use crate::active::ActivityModel;
use crate::record::{EdgeRecord, EdgeRef, Record, Update, UpdateRef};

/// Which edge endpoint supplies scatter state this iteration.
///
/// Chaos scatters over outgoing edges (PowerLyra simplification). Some
/// multi-phase algorithms (the backward sweep of SCC) need to push values
/// against edge direction; streaming the same edge set with
/// [`Direction::In`] sends updates to `e.src` using `e.dst`'s state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Stream out-edges: update flows `src -> dst` (the default GAS flow).
    #[default]
    Out,
    /// Stream in-edges: update flows `dst -> src`.
    In,
}

/// Number of algorithm-defined aggregate slots carried to barriers.
pub const CUSTOM_AGGREGATES: usize = 4;

/// Global aggregates combined across all machines at the end of each
/// iteration (piggybacked on barrier messages), driving convergence and
/// phase switching.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IterationAggregates {
    /// Updates produced by the scatter phase.
    pub updates_produced: u64,
    /// Vertices whose `apply` reported a change.
    pub vertices_changed: u64,
    /// Algorithm-defined sums over vertex state.
    pub custom: [f64; CUSTOM_AGGREGATES],
}

impl IterationAggregates {
    /// Element-wise accumulation of another machine's aggregates.
    pub fn absorb(&mut self, other: &IterationAggregates) {
        self.updates_produced += other.updates_produced;
        self.vertices_changed += other.vertices_changed;
        for (a, b) in self.custom.iter_mut().zip(other.custom.iter()) {
            *a += b;
        }
    }
}

/// Destination for updates emitted by a scatter kernel.
///
/// The engine supplies the sink; [`GasProgram::scatter_chunk`] calls
/// [`UpdateSink::push`] once per produced update, in edge order. Keeping
/// the sink a trait (rather than a `Vec`) lets the distributed engine
/// route updates straight into per-partition output buffers without an
/// intermediate copy.
pub trait UpdateSink<U> {
    /// Emits one update addressed to vertex `dst`.
    fn push(&mut self, dst: VertexId, payload: U);
}

/// A plain vector is a sink: the sequential executor and tests collect
/// updates in order.
impl<U> UpdateSink<U> for Vec<Update<U>> {
    #[inline]
    fn push(&mut self, dst: VertexId, payload: U) {
        Vec::push(self, Update { dst, payload });
    }
}

/// What the program wants the runtime to do after an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Run another scatter/gather iteration.
    Continue,
    /// The computation has converged; stop.
    Done,
}

/// An edge-centric GAS program (§2 of the paper).
///
/// The runtime clones the program onto every machine;
/// [`GasProgram::end_iteration`] is invoked identically everywhere with the
/// same global aggregates, so per-phase mutable state (iteration counters,
/// FW/BW mode switches) stays consistent across the cluster without extra
/// communication.
///
/// # Order independence
///
/// As in the paper, the final result of `scatter`, `gather`/`merge` and
/// `apply` must not depend on the order in which edges and updates are
/// processed, because chunks are delivered in arbitrary order and vertices
/// may be replicated across machines during gather.
pub trait GasProgram: Clone + Send + 'static {
    /// Per-vertex state (the only persistent computation state).
    type VertexState: Record + Default + PartialEq + std::fmt::Debug;
    /// Update payload carried from scatter to gather.
    type Update: Record;
    /// In-memory accumulator; `Default` must be the gather identity.
    /// `Sync` because accumulator arrays are shared (`Arc`) across engine
    /// actors, and the runtime's actor table is `Send`.
    type Accum: Clone + Default + Send + Sync + 'static;
    /// The edge record the engine holds for this program, from the input
    /// copy `Cluster::new` makes to the scatter kernels:
    /// [`PackedEdge`](crate::PackedEdge) if a per-edge body reads a
    /// weight, else the 8-byte [`BareEdge`](crate::BareEdge).
    /// A program that reads weights through a `BareEdge` panics or
    /// computes NaN (see [`BareEdge`](crate::BareEdge)).
    type HeldEdge: EdgeRecord;

    /// Short human-readable name ("BFS", "PR", ...).
    fn name(&self) -> &'static str;

    /// Whether the algorithm requires the undirected expansion of the input
    /// (the first five algorithms in Table 1 do).
    fn needs_undirected(&self) -> bool {
        false
    }

    /// Initial state of vertex `v` given its out-degree (computed during
    /// the pre-processing pass).
    fn init(&self, v: VertexId, out_degree: u64) -> Self::VertexState;

    /// Edge-streaming direction for the current iteration.
    fn direction(&self) -> Direction {
        Direction::Out
    }

    /// Whether any iteration uses [`Direction::In`]. When true, the engine
    /// additionally materializes a destination-keyed copy of the edge set
    /// during pre-processing so backward sweeps can stream partition-local
    /// edges (this is the storage cost X-Stream pays for its transposed
    /// edge lists).
    fn uses_reverse_edges(&self) -> bool {
        false
    }

    /// Produces an update over `edge` from the scatter-side state, or `None`
    /// to stay silent. `v` is the scatter-side vertex (`edge.src` when the
    /// direction is [`Direction::Out`], `edge.dst` when [`Direction::In`])
    /// and `state` its value; `iter` is the 0-based iteration number.
    fn scatter(
        &self,
        v: VertexId,
        state: &Self::VertexState,
        edge: &Edge,
        iter: u32,
    ) -> Option<Self::Update>;

    /// Folds one update into an accumulator. Must be commutative and
    /// associative over updates. `dst_state` is a read-only snapshot of the
    /// destination vertex's pre-apply state: every engine working on the
    /// partition (master or stealer) has loaded the same vertex set from
    /// storage (Figure 4, line 50 of the paper), so this is consistent
    /// under work stealing.
    fn gather(
        &self,
        acc: &mut Self::Accum,
        dst: VertexId,
        dst_state: &Self::VertexState,
        payload: &Self::Update,
    );

    /// Combines two replica accumulators (commutative).
    fn merge(&self, into: &mut Self::Accum, from: &Self::Accum);

    /// Applies the merged accumulator to the vertex state; returns whether
    /// the state changed (feeds [`IterationAggregates::vertices_changed`]).
    fn apply(
        &self,
        v: VertexId,
        state: &mut Self::VertexState,
        acc: &Self::Accum,
        iter: u32,
    ) -> bool;

    /// Scatters a whole edge chunk against one partition's vertex set.
    ///
    /// `base` is the first vertex id of the partition and `states` its
    /// (loaded) vertex set, so the scatter-side state of vertex `v` is
    /// `states[v - base]`. This is the engine's batching seam over the
    /// per-edge specification: it loops over [`GasProgram::scatter`]
    /// honoring [`GasProgram::direction`], so it emits at most one update
    /// per edge, in edge order, whatever slice of a stored chunk it is
    /// handed. The records are any [`EdgeRef`]: the engine's
    /// [`GasProgram::HeldEdge`]s or the sequential executor's [`Edge`]s.
    fn scatter_chunk<E: EdgeRef, S: UpdateSink<Self::Update>>(
        &self,
        base: VertexId,
        states: &[Self::VertexState],
        edges: &[E],
        iter: u32,
        out: &mut S,
    ) {
        match self.direction() {
            Direction::Out => {
                for e in edges {
                    let (v, to) = (e.src(), e.dst());
                    if let Some(p) = self.scatter(v, &states[(v - base) as usize], &e.edge(), iter)
                    {
                        out.push(to, p);
                    }
                }
            }
            Direction::In => {
                for e in edges {
                    let (v, to) = (e.dst(), e.src());
                    if let Some(p) = self.scatter(v, &states[(v - base) as usize], &e.edge(), iter)
                    {
                        out.push(to, p);
                    }
                }
            }
        }
    }

    /// Gathers a whole update chunk into one partition's accumulators.
    ///
    /// `base`, `states` and `accums` are partition-local (`v - base`
    /// indexed). This is the engine's batching seam over the per-update
    /// specification: it folds each update into `accums[u.offset(base)]`
    /// with [`GasProgram::gather`]. The records are either form of
    /// [`UpdateRef`]: the engine's partition-local
    /// [`LocalUpdate`](crate::LocalUpdate)s or global [`Update`]s.
    fn gather_chunk<R: UpdateRef<Self::Update>>(
        &self,
        base: VertexId,
        states: &[Self::VertexState],
        accums: &mut [Self::Accum],
        updates: &[R],
    ) {
        for u in updates {
            let off = u.offset(base);
            self.gather(
                &mut accums[off],
                base + off as u64,
                &states[off],
                u.payload(),
            );
        }
    }

    /// The program's activity contract (see [`crate::active`]). The
    /// default keeps the paper's dense streaming: every vertex is assumed
    /// able to scatter every iteration and nothing is ever skipped.
    ///
    /// The engine reads it when it builds the cluster, to decide whether
    /// the run can skip and how its edges are laid out, so it must return
    /// the same model for the whole run (per-phase activity goes through
    /// [`GasProgram::is_active`]).
    fn activity(&self) -> ActivityModel {
        ActivityModel::Dense
    }

    /// Whether vertex `v` may emit *any* update this iteration, under
    /// [`ActivityModel::Frontier`] or [`ActivityModel::Shrinking`].
    ///
    /// Must be conservative: `false` promises that [`GasProgram::scatter`]
    /// returns `None` for every edge whose scatter-side endpoint is `v` at
    /// this iteration. Debug builds of the engine enforce the promise at
    /// run time on every skipped chunk and block.
    fn is_active(&self, _v: VertexId, _state: &Self::VertexState, _iter: u32) -> bool {
        true
    }

    /// Whether `edge` can never produce an update in any future iteration
    /// (under [`ActivityModel::Shrinking`]): the engine may tombstone it
    /// and drop it from storage during chunk compaction. `v`/`state` are
    /// the scatter-side endpoint and its current value. Must only return
    /// `true` when deadness is *permanent* — compaction is irreversible.
    fn edge_dead(
        &self,
        _v: VertexId,
        _state: &Self::VertexState,
        _edge: &Edge,
        _iter: u32,
    ) -> bool {
        false
    }

    /// Whether dead-edge scanning is meaningful this iteration (gates the
    /// per-chunk [`GasProgram::dead_edges`] pass under
    /// [`ActivityModel::Shrinking`]; phases in which deadness cannot be
    /// decided yet should return `false`).
    fn shrinks_now(&self, _iter: u32) -> bool {
        false
    }

    /// Counts the permanently dead edges in a chunk: the engine's batching
    /// seam over [`GasProgram::edge_dead`], looping over it honoring
    /// [`GasProgram::direction`].
    fn dead_edges<E: EdgeRef>(
        &self,
        base: VertexId,
        states: &[Self::VertexState],
        edges: &[E],
        iter: u32,
    ) -> u64 {
        let reverse = self.direction() == Direction::In;
        let dead = edges.iter().filter(|e| {
            let v = if reverse { e.dst() } else { e.src() };
            self.edge_dead(v, &states[(v - base) as usize], &e.edge(), iter)
        });
        dead.count() as u64
    }

    /// Contribution of a vertex to the custom aggregate slots, sampled after
    /// apply each iteration.
    fn aggregate(&self, _state: &Self::VertexState) -> [f64; CUSTOM_AGGREGATES] {
        [0.0; CUSTOM_AGGREGATES]
    }

    /// Observes the global aggregates at the end of iteration `iter` and
    /// decides whether to continue. May mutate phase state.
    fn end_iteration(&mut self, iter: u32, agg: &IterationAggregates) -> Control;

    /// Encoded payload width of one update, for the storage cost model.
    fn update_payload_bytes(&self) -> u64 {
        Self::Update::ENCODED_BYTES as u64
    }

    /// Encoded width of one vertex record, for the storage cost model.
    fn vertex_state_bytes(&self) -> u64 {
        Self::VertexState::ENCODED_BYTES as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_absorb() {
        let mut a = IterationAggregates {
            updates_produced: 1,
            vertices_changed: 2,
            custom: [1.0, 0.0, 0.0, 0.0],
        };
        let b = IterationAggregates {
            updates_produced: 10,
            vertices_changed: 20,
            custom: [0.5, 1.0, 0.0, 0.0],
        };
        a.absorb(&b);
        assert_eq!(a.updates_produced, 11);
        assert_eq!(a.vertices_changed, 22);
        assert_eq!(a.custom, [1.5, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn direction_default_is_out() {
        assert_eq!(Direction::default(), Direction::Out);
    }
}
