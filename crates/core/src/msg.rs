//! The wire protocol between computation engines, storage engines, the
//! barrier coordinator and the (optional) centralized directory.
//!
//! Every variant is an actual message in the simulated cluster: it is
//! routed through the fabric model with a byte size, and it carries the
//! real typed data (chunks of edges/updates, accumulator arrays, degree
//! contributions). Small control messages are accounted at
//! [`CONTROL_BYTES`].

use std::sync::Arc;

use chaos_gas::{ActiveSet, GasProgram, IterationAggregates, LocalUpdate};

/// A shared chunk of edges in the record the program declares
/// ([`GasProgram::HeldEdge`]).
pub type EdgeChunk<P> = Arc<Vec<<P as GasProgram>::HeldEdge>>;

/// Account of chunks an activity filter consumed without serving (piggy-
/// backed on the chunk response; metadata-only, no wire-size charge).
pub struct SkipInfo<P: GasProgram> {
    /// Chunks skipped.
    pub chunks: u32,
    /// Records in those chunks.
    pub records: u64,
    /// Blocks of the served chunk skipped by its block index (intra-chunk
    /// selectivity; zero unless the serve was partial).
    pub blocks: u32,
    /// Records in those skipped blocks.
    pub records_intra: u64,
    /// Whether the served payload is a partial (block-filtered) view of
    /// its chunk. A partial payload must not seed a compaction rewrite —
    /// the skipped blocks' records would be silently dropped.
    pub partial: bool,
    /// Skipped payloads, riding along only in debug builds so the engine
    /// can verify they scatter to nothing (a host-side check, not
    /// simulated traffic).
    pub oracle: Vec<EdgeChunk<P>>,
}

impl<P: GasProgram> SkipInfo<P> {
    /// The no-skip account.
    pub fn none() -> Self {
        Self {
            chunks: 0,
            records: 0,
            blocks: 0,
            records_intra: 0,
            partial: false,
            oracle: Vec::new(),
        }
    }
}

/// Wire size charged for a control message (request, ack, proposal, ...).
pub const CONTROL_BYTES: u64 = 64;

/// One bin-pure partial edge chunk inside a [`Msg::WriteEdgeBatch`].
pub struct EdgeWrite<P: GasProgram> {
    /// Partition the edges belong to.
    pub part: usize,
    /// Whether the chunk belongs to the destination-keyed copy.
    pub reverse: bool,
    /// The edges (all from one cluster bin of `part`).
    pub data: EdgeChunk<P>,
}

/// Which engine phase a message refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Pre-processing: streaming-partition the input edge list (§3).
    Preprocess,
    /// Masters initialize and store their vertex sets.
    VertexInit,
    /// Scatter half of an iteration.
    Scatter,
    /// Gather (+ apply) half of an iteration.
    Gather,
}

/// Which data structure a write targets (for ack bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Edge set chunk (pre-processing).
    Edges,
    /// Update set chunk (scatter).
    Updates,
    /// Vertex set chunk (init / apply write-back).
    Vertices,
    /// Checkpoint copy of a vertex chunk.
    Checkpoint,
}

/// Kind selector for directory / read operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataKind {
    /// Input edge-list chunks.
    Input,
    /// Per-partition edge chunks (source-keyed).
    Edges,
    /// Per-partition reverse edge chunks (destination-keyed, for backward
    /// sweeps).
    EdgesReverse,
    /// Per-partition update chunks.
    Updates,
}

impl DataKind {
    /// The edge set of one direction: destination-keyed when `reverse`.
    pub(crate) fn edges(reverse: bool) -> Self {
        if reverse {
            Self::EdgesReverse
        } else {
            Self::Edges
        }
    }
}

/// A message of the Chaos protocol, generic over the running program.
pub enum Msg<P: GasProgram> {
    // ------------------------------------------------------ storage reads
    /// Ask a storage engine for any unprocessed input chunk.
    InputChunkReq {
        /// Requesting machine.
        from: usize,
    },
    /// Reply: an input chunk, or `None` when this engine is exhausted.
    InputChunkResp {
        /// Responding storage engine.
        source: usize,
        /// Chunk payload.
        data: Option<EdgeChunk<P>>,
    },
    /// Ask for any unprocessed edge chunk of `part` (§6.3).
    EdgeChunkReq {
        /// Target partition.
        part: usize,
        /// Stream the destination-keyed copy instead.
        reverse: bool,
        /// Requesting machine.
        from: usize,
        /// Active scatter-source summary for selective streaming: chunks
        /// whose source window misses it are consumed without being read.
        /// `None` streams densely. Charged on the wire at
        /// [`ActiveSet::wire_bytes`] on top of [`CONTROL_BYTES`].
        active: Option<Arc<ActiveSet>>,
    },
    /// Reply to [`Msg::EdgeChunkReq`].
    EdgeChunkResp {
        /// Target partition.
        part: usize,
        /// Responding storage engine.
        source: usize,
        /// Entry id of the served chunk within its chunk set (the stable
        /// address compaction replacements target).
        entry: u32,
        /// Chunk payload, or `None` when exhausted here.
        data: Option<EdgeChunk<P>>,
        /// Chunks the activity filter consumed without serving.
        skipped: SkipInfo<P>,
    },
    /// Ask for any unprocessed update chunk of `part`.
    UpdateChunkReq {
        /// Target partition.
        part: usize,
        /// Requesting machine.
        from: usize,
    },
    /// Reply to [`Msg::UpdateChunkReq`].
    UpdateChunkResp {
        /// Target partition.
        part: usize,
        /// Responding storage engine.
        source: usize,
        /// Chunk payload, or `None` when exhausted here.
        data: Option<Arc<Vec<LocalUpdate<P::Update>>>>,
    },
    /// Read one vertex chunk (§6.4).
    VertexChunkReq {
        /// Partition.
        part: usize,
        /// Chunk number within the partition's vertex set.
        chunk_no: u32,
        /// Requesting machine.
        from: usize,
    },
    /// Reply to [`Msg::VertexChunkReq`].
    VertexChunkResp {
        /// Partition.
        part: usize,
        /// Chunk number.
        chunk_no: u32,
        /// Chunk payload.
        data: Arc<Vec<P::VertexState>>,
    },

    // ----------------------------------------------------- storage writes
    /// Store an edge chunk (pre-processing).
    WriteEdgeChunk {
        /// Partition the edges belong to (by source vertex, or destination
        /// vertex when `reverse`).
        part: usize,
        /// Whether this chunk belongs to the destination-keyed copy.
        reverse: bool,
        /// Edge records.
        data: EdgeChunk<P>,
        /// Writing machine (for the ack).
        from: usize,
    },
    /// Store a batch of partial edge chunks (end of pre-processing, under
    /// the clustered layout). Each element is bin-pure; the storage
    /// engine merges them into its open per-(partition, bin) buffers.
    /// One message per (writer, target) pair instead of one per buffer —
    /// the per-bin partials are tiny and would otherwise multiply
    /// pre-processing traffic by the bin count. Wire-charged at the sum
    /// of the payloads.
    WriteEdgeBatch {
        /// The partial chunks.
        writes: Vec<EdgeWrite<P>>,
        /// Writing machine (for the single ack).
        from: usize,
    },
    /// Store an update chunk (scatter).
    WriteUpdateChunk {
        /// Partition of the updates' destination vertices.
        part: usize,
        /// Update records.
        data: Arc<Vec<LocalUpdate<P::Update>>>,
        /// Writing machine.
        from: usize,
    },
    /// Store (or overwrite) a vertex chunk.
    WriteVertexChunk {
        /// Partition.
        part: usize,
        /// Chunk number.
        chunk_no: u32,
        /// Vertex records.
        data: Arc<Vec<P::VertexState>>,
        /// Writing machine.
        from: usize,
    },
    /// Replace an edge chunk in place with its live (non-tombstoned)
    /// records — shrinking-graph compaction. The replacement applies from
    /// the next epoch on; serve-once semantics are untouched because the
    /// sender is the unique engine that streamed this chunk this epoch.
    ReplaceEdgeChunk {
        /// Partition the chunk belongs to.
        part: usize,
        /// Whether it lives in the destination-keyed copy.
        reverse: bool,
        /// Entry id reported by the serving [`Msg::EdgeChunkResp`].
        entry: u32,
        /// The surviving records.
        data: EdgeChunk<P>,
        /// Compacting machine (for the ack).
        from: usize,
    },
    /// Write acknowledgement.
    WriteAck {
        /// What was written.
        kind: WriteKind,
    },
    /// Drop all update chunks of `part` (after gather, §6.1).
    DeleteUpdates {
        /// Partition.
        part: usize,
    },
    /// Copy a partition's vertex chunk into the checkpoint area (phase one
    /// of the 2-phase checkpoint, §6.6).
    CheckpointChunk {
        /// Partition.
        part: usize,
        /// Chunk number.
        chunk_no: u32,
        /// Writing machine.
        from: usize,
    },
    /// Coordinator-side validation round between copy and promote: every
    /// storage engine re-reads the frames of its pending checkpoint chunks
    /// and reports whether the snapshot verifies. Promotion only happens
    /// after a unanimous OK — a snapshot that fails its frame checks is
    /// dropped instead of poisoning the committed chain.
    CheckpointValidate,
    /// Reply to [`Msg::CheckpointValidate`].
    CheckpointValidateAck {
        /// Whether every pending frame verified on this engine.
        ok: bool,
    },
    /// Phase two: atomically promote the pending checkpoint (shifting the
    /// depth-2 committed chain), or discard it when validation failed.
    CheckpointCommit {
        /// Promote (`true`) or discard the pending snapshot (`false`).
        promote: bool,
    },
    /// Ack for [`Msg::CheckpointCommit`].
    CheckpointCommitAck,
    /// Reset edge-chunk read cursors for the next iteration (§7).
    ResetEdgeEpoch,
    /// Ack for [`Msg::ResetEdgeEpoch`].
    EpochResetAck,

    // ------------------------------------------------- compute <-> compute
    /// Partial out-degree counts for a partition, sent to its master at
    /// the end of pre-processing.
    DegreeContrib {
        /// Partition.
        part: usize,
        /// Sparse `(vertex, count)` pairs.
        counts: Arc<Vec<(u64, u32)>>,
        /// Sender.
        from: usize,
    },
    /// Ack for [`Msg::DegreeContrib`].
    DegreeAck,
    /// Offer to help with `part` (§5.3).
    StealPropose {
        /// Partition offered help.
        part: usize,
        /// Phase the help applies to.
        phase: PhaseKind,
        /// Proposing machine.
        from: usize,
    },
    /// Master's verdict on a steal proposal.
    StealReply {
        /// Partition.
        part: usize,
        /// Whether the proposal was accepted.
        accept: bool,
    },
    /// Master requests a stealer's accumulators for `part` (Figure 4,
    /// line 42).
    GetAccums {
        /// Partition.
        part: usize,
        /// Requesting master.
        from: usize,
    },
    /// Stealer returns its accumulators (Figure 4, line 52).
    Accums {
        /// Partition.
        part: usize,
        /// The stealer's accumulator array for the partition.
        accums: Arc<Vec<P::Accum>>,
        /// Sending stealer.
        from: usize,
    },

    // ------------------------------------------------------- coordination
    /// A computation engine reached the current barrier.
    BarrierArrive {
        /// Arriving machine.
        from: usize,
        /// Its contribution to the iteration aggregates.
        agg: IterationAggregates,
    },
    /// The coordinator releases everyone into the next phase.
    BarrierRelease {
        /// Phase to enter.
        next: PhaseKind,
        /// Iteration number of that phase.
        iter: u32,
        /// The coordinator's program after every `end_iteration` so far:
        /// engines adopt it, so program phase state is decided once.
        program: P,
        /// Whether the computation has converged.
        done: bool,
    },
    /// Transient-failure recovery: abandon the current iteration, restore
    /// vertex sets from the last checkpoint (§6.6).
    Abort {
        /// New protocol generation; stale messages are dropped.
        gen: u32,
        /// Iteration the cluster resumes into after recovery (the redone
        /// iteration, or the next one when the crash landed after the
        /// iteration logically completed).
        iter: u32,
        /// Whether storage engines must promote their pending checkpoint
        /// before restoring: the crash interrupted a commit round whose
        /// copy phase had fully completed on every machine, so the pending
        /// snapshot is the consistent one (crash-during-commit recovery).
        commit: bool,
        /// Machine whose in-flight checkpoint write the crash tore, if any:
        /// that storage engine's committed copy holds a torn chunk whose
        /// frame check will fail during restore, forcing the depth-2
        /// fallback round.
        torn: Option<usize>,
        /// Second (fallback) round of the episode: the committed snapshot
        /// proved corrupt, so every storage engine shifts one snapshot down
        /// the committed chain and puts back the compactions since the
        /// last promote (the coordinator rewinds the program state).
        rewind: bool,
    },
    /// Storage finished restoring from checkpoint (or, with `fallback`,
    /// discovered its committed snapshot is corrupt and needs the
    /// coordinator to run the depth-2 fallback round).
    AbortAck {
        /// The committed snapshot failed its frame check on this engine.
        fallback: bool,
    },

    // ---------------------------------------------------- directory (Fig 15)
    /// Ask the directory where to write a chunk.
    DirWrite {
        /// Partition.
        part: usize,
        /// Structure kind.
        kind: DataKind,
        /// Requesting machine.
        from: usize,
    },
    /// Directory's placement decision for a write.
    DirWriteResp {
        /// Partition.
        part: usize,
        /// Structure kind.
        kind: DataKind,
        /// Engine to write to.
        engine: usize,
    },
    /// Ask the directory which engine holds an unprocessed chunk.
    DirRead {
        /// Partition.
        part: usize,
        /// Structure kind.
        kind: DataKind,
        /// Requesting machine.
        from: usize,
    },
    /// Directory's lookup result; `None` means globally exhausted.
    DirReadResp {
        /// Partition.
        part: usize,
        /// Structure kind.
        kind: DataKind,
        /// Engine holding an unprocessed chunk, if any.
        engine: Option<usize>,
    },

    // ------------------------------------------------------- self events
    /// CPU finished processing a batch of records; apply their effects.
    Processed {
        /// The completed work item.
        work: Work<P>,
    },
    /// Master's local query of remaining bytes for the steal criterion
    /// (§5.4: "the amount of edge or update data still to be processed on
    /// the local storage engine").
    RemainingReq {
        /// Partition.
        part: usize,
        /// Structure kind (edges during scatter, updates during gather).
        kind: DataKind,
        /// Asking master.
        from: usize,
    },
    /// Reply to [`Msg::RemainingReq`].
    RemainingResp {
        /// Partition.
        part: usize,
        /// Unconsumed bytes on this storage engine.
        bytes: u64,
    },
    /// A failed machine finished rebooting.
    RebootDone,
    /// Coordinator self-event arming a time-triggered crash from the fault
    /// plan. Carries no payload: on delivery the coordinator fires every
    /// due time trigger (the event time is the trigger time, so injection
    /// is a pure function of simulated time).
    FaultTimer,
    /// Storage-internal deferred send: fires when the device completes,
    /// then routes `inner` over the fabric (keeps fabric calls
    /// time-ordered).
    StorageRespond {
        /// Destination actor.
        to: crate::runtime::Addr,
        /// Wire size of the inner message.
        bytes: u64,
        /// The deferred message.
        inner: Box<Msg<P>>,
    },
}

/// A unit of CPU work whose completion is signalled by [`Msg::Processed`].
pub enum Work<P: GasProgram> {
    /// Scatter over an edge chunk of `part`.
    ScatterChunk {
        /// Partition being scattered.
        part: usize,
        /// The edges.
        data: EdgeChunk<P>,
        /// Chunk provenance `(storage engine, entry id)` so a compaction
        /// replacement can address the chunk in place; `None` when the
        /// chunk did not come from an addressable chunk set.
        origin: Option<(usize, u32)>,
    },
    /// Gather an update chunk of `part`.
    GatherChunk {
        /// Partition being gathered.
        part: usize,
        /// The updates.
        data: Arc<Vec<LocalUpdate<P::Update>>>,
    },
    /// Bin an input chunk into per-partition edge buffers (pre-processing).
    BinInputChunk {
        /// The raw input edges.
        data: EdgeChunk<P>,
    },
    /// Merge stealer accumulators and apply a partition (gather finale).
    ApplyPartition {
        /// Partition to apply.
        part: usize,
    },
    /// Initialize vertex states of a partition (after pre-processing).
    InitPartition {
        /// Partition to initialize.
        part: usize,
    },
}

impl<P: GasProgram> Msg<P> {
    /// The request for the next chunk of a `kind` stream of `part` from
    /// machine `from`, and its wire bytes. The active summary rides on
    /// every edge request (and is charged for): requests are independent,
    /// so every storage engine sees the frontier it needs for its skip
    /// decisions.
    pub(crate) fn chunk_req(
        kind: DataKind,
        part: usize,
        from: usize,
        active: Option<Arc<ActiveSet>>,
    ) -> (Self, u64) {
        let bytes = CONTROL_BYTES + active.as_ref().map_or(0, |a| a.wire_bytes());
        let msg = match kind {
            DataKind::Input => Msg::InputChunkReq { from },
            DataKind::Edges | DataKind::EdgesReverse => Msg::EdgeChunkReq {
                part,
                reverse: kind == DataKind::EdgesReverse,
                from,
                active,
            },
            DataKind::Updates => Msg::UpdateChunkReq { part, from },
        };
        (msg, bytes)
    }
}

impl<P: GasProgram> std::fmt::Debug for Msg<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Msg::InputChunkReq { .. } => "InputChunkReq",
            Msg::InputChunkResp { .. } => "InputChunkResp",
            Msg::EdgeChunkReq { .. } => "EdgeChunkReq",
            Msg::EdgeChunkResp { .. } => "EdgeChunkResp",
            Msg::UpdateChunkReq { .. } => "UpdateChunkReq",
            Msg::UpdateChunkResp { .. } => "UpdateChunkResp",
            Msg::VertexChunkReq { .. } => "VertexChunkReq",
            Msg::VertexChunkResp { .. } => "VertexChunkResp",
            Msg::WriteEdgeChunk { .. } => "WriteEdgeChunk",
            Msg::WriteEdgeBatch { .. } => "WriteEdgeBatch",
            Msg::ReplaceEdgeChunk { .. } => "ReplaceEdgeChunk",
            Msg::WriteUpdateChunk { .. } => "WriteUpdateChunk",
            Msg::WriteVertexChunk { .. } => "WriteVertexChunk",
            Msg::WriteAck { .. } => "WriteAck",
            Msg::DeleteUpdates { .. } => "DeleteUpdates",
            Msg::CheckpointChunk { .. } => "CheckpointChunk",
            Msg::CheckpointValidate => "CheckpointValidate",
            Msg::CheckpointValidateAck { .. } => "CheckpointValidateAck",
            Msg::CheckpointCommit { .. } => "CheckpointCommit",
            Msg::CheckpointCommitAck => "CheckpointCommitAck",
            Msg::ResetEdgeEpoch => "ResetEdgeEpoch",
            Msg::EpochResetAck => "EpochResetAck",
            Msg::DegreeContrib { .. } => "DegreeContrib",
            Msg::DegreeAck => "DegreeAck",
            Msg::StealPropose { .. } => "StealPropose",
            Msg::StealReply { .. } => "StealReply",
            Msg::GetAccums { .. } => "GetAccums",
            Msg::Accums { .. } => "Accums",
            Msg::BarrierArrive { .. } => "BarrierArrive",
            Msg::BarrierRelease { .. } => "BarrierRelease",
            Msg::Abort { .. } => "Abort",
            Msg::AbortAck { .. } => "AbortAck",
            Msg::DirWrite { .. } => "DirWrite",
            Msg::DirWriteResp { .. } => "DirWriteResp",
            Msg::DirRead { .. } => "DirRead",
            Msg::DirReadResp { .. } => "DirReadResp",
            Msg::Processed { .. } => "Processed",
            Msg::RemainingReq { .. } => "RemainingReq",
            Msg::RemainingResp { .. } => "RemainingResp",
            Msg::RebootDone => "RebootDone",
            Msg::FaultTimer => "FaultTimer",
            Msg::StorageRespond { .. } => "StorageRespond",
        };
        f.write_str(name)
    }
}
