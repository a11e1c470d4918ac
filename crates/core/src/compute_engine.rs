//! The computation engine actor (§5 of the paper, Figure 4).
//!
//! One computation engine runs per machine. Per iteration it executes the
//! scatter phase over its own partitions, then steals from other masters;
//! after the scatter barrier it executes gather (+ apply) the same way.
//! All storage access goes through the chunk protocol with a window of φk
//! outstanding requests to distinct, randomly chosen storage engines
//! (§6.5). The steal criterion is Equation 2 with the α bias of §10.2.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use chaos_gas::{ActiveSet, ActivityModel, Direction, GasProgram, IterationAggregates, Update, UpdateSink};
use chaos_graph::{Edge, PartitionSpec, VertexId};
use chaos_runtime::Actor;
use chaos_sim::rng::mix2;
use chaos_sim::{Resource, Rng, Time};

use crate::config::{ChaosConfig, Placement, Streaming};
use crate::metrics::{Breakdown, IterSelectivity};
use crate::msg::{DataKind, Msg, PhaseKind, SkipInfo, Work, WriteKind, CONTROL_BYTES};
use crate::runtime::{Addr, Ctx, RunParams};

/// Progress of one partition being streamed (scatter or gather).
///
/// The engine keeps one retired `PartWork` carcass and recycles it (and
/// the vertex/accumulator buffers, via the engine pools) so starting a
/// partition in steady state allocates nothing.
struct PartWork<P: GasProgram> {
    part: usize,
    stolen: bool,
    started: Time,
    vertices: Vec<P::VertexState>,
    vchunks_pending: u32,
    loaded: bool,
    loaded_at: Time,
    /// Gather-side accumulators (one per vertex of the partition).
    accums: Vec<P::Accum>,
    outstanding: usize,
    /// In-flight requests per storage engine. A count, not a flag: with an
    /// oversubscribed window (> machine count) two requests can target the
    /// same engine, and the first response must not mark the engine free
    /// while the second is still in flight.
    requested: Vec<u32>,
    exhausted: Vec<bool>,
    exhausted_count: usize,
    inflight_compute: usize,
    /// Centralized placement: the directory reported global exhaustion.
    dir_exhausted: bool,
    /// Active scatter-source summary for this stream, built from the
    /// loaded vertex states (scatter phases of non-dense programs only;
    /// `None` also when every vertex is active — a full set carries no
    /// information and would only cost wire bytes).
    active: Option<Arc<ActiveSet>>,
}

impl<P: GasProgram> PartWork<P> {
    fn new(machines: usize) -> Self {
        Self {
            part: 0,
            stolen: false,
            started: 0,
            vertices: Vec::new(),
            vchunks_pending: 0,
            loaded: false,
            loaded_at: 0,
            accums: Vec::new(),
            outstanding: 0,
            requested: vec![0; machines],
            exhausted: vec![false; machines],
            exhausted_count: 0,
            inflight_compute: 0,
            dir_exhausted: false,
            active: None,
        }
    }

    /// Rearms a (new or recycled) carcass for `part`. The vertex and
    /// accumulator buffers are installed by the caller from the engine
    /// pools.
    fn reset(&mut self, part: usize, stolen: bool, now: Time) {
        self.part = part;
        self.stolen = stolen;
        self.started = now;
        self.vchunks_pending = 0;
        self.loaded = false;
        self.loaded_at = now;
        self.outstanding = 0;
        self.requested.iter_mut().for_each(|r| *r = 0);
        self.exhausted.iter_mut().for_each(|e| *e = false);
        self.exhausted_count = 0;
        self.inflight_compute = 0;
        self.dir_exhausted = false;
        self.active = None;
    }

    fn stream_done(&self, machines: usize) -> bool {
        let exhausted = self.dir_exhausted || self.exhausted_count == machines;
        self.loaded && exhausted && self.outstanding == 0 && self.inflight_compute == 0
    }
}

/// Routes kernel-emitted updates into the engine's pooled per-partition
/// output buffers, recording which buffers filled during the chunk.
struct PartitionSink<'a, U> {
    spec: &'a PartitionSpec,
    bufs: &'a mut [Vec<Update<U>>],
    /// Target records per update chunk; a buffer crossing this is flushed
    /// after the kernel returns.
    cap: usize,
    /// Buffers that reached `cap` during this chunk, in fill order.
    full: &'a mut Vec<usize>,
    produced: u64,
}

impl<U> UpdateSink<U> for PartitionSink<'_, U> {
    #[inline]
    fn push(&mut self, dst: VertexId, payload: U) {
        self.produced += 1;
        let tp = self.spec.partition_of(dst);
        let b = &mut self.bufs[tp];
        b.push(Update { dst, payload });
        if b.len() == self.cap {
            self.full.push(tp);
        }
    }
}

/// Counting-only sink for the dense-streaming reference mode: skipped
/// chunks stream into it, and any update that lands here is an activity-
/// contract violation.
struct CountSink(u64);

impl<U> UpdateSink<U> for CountSink {
    #[inline]
    fn push(&mut self, _dst: VertexId, _payload: U) {
        self.0 += 1;
    }
}

/// Master-side wait for stealer accumulators, then apply.
struct GatherFinish<P: GasProgram> {
    part: usize,
    vertices: Vec<P::VertexState>,
    accums: Vec<P::Accum>,
    collected: Vec<Arc<Vec<P::Accum>>>,
    awaiting: usize,
    wait_started: Time,
    applying: bool,
}

/// Steal-scan progress for the current phase.
///
/// Proposals fan out to all candidate masters concurrently (one message
/// each); accepted partitions queue up and are worked one at a time. The
/// paper describes a sequential scan, but at scaled-down graph sizes the
/// per-proposal round trips would dominate the very imbalance stealing
/// removes; the fan-out preserves the protocol's semantics (each master
/// still applies the §5.4 criterion per proposal).
struct StealScan {
    candidates: Vec<usize>,
    started: bool,
    awaiting: HashSet<usize>,
    accepted: VecDeque<usize>,
}

impl StealScan {
    fn idle() -> Self {
        Self {
            candidates: Vec::new(),
            started: true,
            awaiting: HashSet::new(),
            accepted: VecDeque::new(),
        }
    }

    fn finished(&self) -> bool {
        self.started && self.awaiting.is_empty() && self.accepted.is_empty()
    }
}

/// Pre-processing progress.
struct Preprocess<P: GasProgram> {
    outstanding: usize,
    /// In-flight input requests per storage engine (see [`PartWork::requested`]).
    requested: Vec<u32>,
    exhausted: Vec<bool>,
    exhausted_count: usize,
    dir_exhausted: bool,
    inflight_compute: usize,
    edge_bufs: Vec<Vec<Edge>>,
    redge_bufs: Vec<Vec<Edge>>,
    /// Partial out-degree counts per partition, dense over the
    /// partition's vertex range (allocated lazily on first touch; an
    /// empty vector means no edge of that partition seen here). Dense
    /// indexing beats a hash map on this per-edge path — pre-processing
    /// touches every edge exactly once and most partitions see most of
    /// their high-degree sources anyway.
    degree_counts: Vec<Vec<u32>>,
    degree_acks_pending: usize,
    flushed: bool,
    _marker: std::marker::PhantomData<P>,
}

/// Checkpoint copy progress at a barrier (phase one of §6.6; phase two —
/// the commit round — is coordinator-driven once every machine arrived).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CkptState {
    Idle,
    Copy(usize),
    Done,
}

/// Pending write under centralized placement, waiting for a directory
/// placement decision.
enum PendingDirWrite<P: GasProgram> {
    Edges {
        part: usize,
        reverse: bool,
        data: Arc<Vec<Edge>>,
    },
    Updates {
        part: usize,
        data: Arc<Vec<Update<P::Update>>>,
    },
}

/// The computation engine of one machine.
pub struct ComputeEngine<P: GasProgram> {
    machine: usize,
    cfg: Arc<ChaosConfig>,
    params: Arc<RunParams>,
    program: P,
    rng: Rng,
    cpu: Resource,
    /// Protocol generation for failure recovery.
    pub gen: u32,

    phase: PhaseKind,
    iter: u32,
    my_parts: Vec<usize>,

    pp: Preprocess<P>,
    /// Master-side dense degree vectors, per owned partition.
    degrees: HashMap<usize, Vec<u32>>,

    own_queue: VecDeque<usize>,
    work: Option<PartWork<P>>,
    /// Retired [`PartWork`] carcass recycled by the next partition.
    spare_work: Option<PartWork<P>>,
    /// Scatter output buffers, one per destination partition. Owned by the
    /// engine (not per-[`PartWork`]) so their capacity survives across
    /// partitions and phases; flushing swaps a full buffer out instead of
    /// reallocating it (see [`ComputeEngine::flush_updates`]).
    out_bufs: Vec<Vec<Update<P::Update>>>,
    /// Scratch: partitions whose output buffer filled during the current
    /// chunk (fill order).
    flush_scratch: Vec<usize>,
    /// Recycled vertex-state buffers (partition-sized).
    state_pool: Vec<Vec<P::VertexState>>,
    /// Recycled accumulator buffers (partition-sized).
    accum_pool: Vec<Vec<P::Accum>>,
    scan: StealScan,
    gather_finish: Option<GatherFinish<P>>,
    waiting_getaccums: Option<(usize, Arc<Vec<P::Accum>>)>,
    pending_getaccums: HashSet<usize>,
    /// Stealers accepted per owned partition, this phase.
    stealers: HashMap<usize, Vec<usize>>,
    /// Owned partitions whose stream this engine completed this phase.
    /// Once a master finished a partition, every storage engine is
    /// exhausted for it (stream-done requires it), so its local
    /// remaining-bytes — and with it Equation 2's D — is provably zero:
    /// steal proposals are rejected immediately, without the
    /// master-to-storage remaining-bytes round trip.
    finished_parts: HashSet<usize>,
    /// Proposers queued for a remaining-bytes query, per partition.
    steal_queries: HashMap<usize, VecDeque<usize>>,
    /// Whether a RemainingReq is in flight for a partition.
    query_inflight: HashSet<usize>,

    pending_write_acks: usize,
    pending_inits: usize,
    ckpt: CkptState,
    pending_dir_writes: VecDeque<PendingDirWrite<P>>,

    agg: IterationAggregates,
    barrier_sent: bool,
    arrive_time: Time,
    /// Highest iteration whose predecessor's `end_iteration` this engine
    /// has replayed (scatter-release bookkeeping). Not reset on abort: a
    /// redo release must not replay the transition a second time —
    /// `end_iteration` may switch program phase state (e.g. MCST's
    /// min-edge/reduce/contract machine) and is exactly-once per
    /// iteration.
    replayed_iters: u32,
    /// Program states captured before each replayed `end_iteration`,
    /// labeled by the `replayed_iters` value they were taken at. The
    /// depth-2 checkpoint fallback rewinds one completed iteration, which
    /// un-does an `end_iteration` this engine already replayed; two levels
    /// kept, matching the storage engines' checkpoint chain.
    prog_snaps: Vec<(u32, P)>,
    getaccums_wait_since: Time,
    /// Per-machine Figure 17 breakdown.
    pub breakdown: Breakdown,
    /// Stolen-partition count (metrics).
    pub steals: u64,
    /// Edge + update records streamed through this engine's scatter/gather
    /// kernels (throughput accounting; kernel-invariant).
    pub records_processed: u64,
    /// Per-iteration selective-streaming account (indexed by iteration).
    pub selectivity: Vec<IterSelectivity>,
    done: bool,
}

impl<P: GasProgram> ComputeEngine<P> {
    /// Creates the engine for `machine`, owning the round-robin partitions.
    pub fn new(
        machine: usize,
        cfg: Arc<ChaosConfig>,
        params: Arc<RunParams>,
        program: P,
        rng: Rng,
    ) -> Self {
        let parts = params.spec.num_partitions;
        let my_parts: Vec<usize> = (0..parts)
            .filter(|p| params.master(*p) == machine)
            .collect();
        let m = cfg.machines;
        let cpu = Resource::new(cfg.cores as u64 * 1_000_000_000, 0);
        // One pre-processing edge buffer per (partition, cluster bin):
        // bin-pure buffers are what give stored chunks single-bin windows.
        let nbufs = parts * params.cluster.bins() as usize;
        Self {
            machine,
            params,
            program,
            rng,
            cpu,
            gen: 0,
            phase: PhaseKind::Preprocess,
            iter: 0,
            pp: Preprocess {
                outstanding: 0,
                requested: vec![0; m],
                exhausted: vec![false; m],
                exhausted_count: 0,
                dir_exhausted: false,
                inflight_compute: 0,
                edge_bufs: (0..nbufs).map(|_| Vec::new()).collect(),
                redge_bufs: (0..nbufs).map(|_| Vec::new()).collect(),
                degree_counts: (0..parts).map(|_| Vec::new()).collect(),
                degree_acks_pending: 0,
                flushed: false,
                _marker: std::marker::PhantomData,
            },
            degrees: HashMap::new(),
            my_parts,
            own_queue: VecDeque::new(),
            work: None,
            spare_work: None,
            out_bufs: (0..parts).map(|_| Vec::new()).collect(),
            flush_scratch: Vec::new(),
            state_pool: Vec::new(),
            accum_pool: Vec::new(),
            scan: StealScan::idle(),
            gather_finish: None,
            waiting_getaccums: None,
            pending_getaccums: HashSet::new(),
            stealers: HashMap::new(),
            finished_parts: HashSet::new(),
            steal_queries: HashMap::new(),
            query_inflight: HashSet::new(),
            pending_write_acks: 0,
            pending_inits: 0,
            ckpt: CkptState::Idle,
            pending_dir_writes: VecDeque::new(),
            agg: IterationAggregates::default(),
            barrier_sent: false,
            arrive_time: 0,
            replayed_iters: 0,
            prog_snaps: Vec::new(),
            getaccums_wait_since: 0,
            breakdown: Breakdown::default(),
            steals: 0,
            records_processed: 0,
            selectivity: Vec::new(),
            done: false,
            cfg,
        }
    }

    /// Whether the engine finished the whole computation.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// A reference to this engine's program (phase state is kept in sync
    /// across machines via the barrier protocol).
    pub fn program(&self) -> &P {
        &self.program
    }

    fn m(&self) -> usize {
        self.cfg.machines
    }

    fn centralized(&self) -> bool {
        self.cfg.placement == Placement::Centralized
    }

    /// Whether activity tracking applies to this run: the program declares
    /// a non-dense model, the streaming mode wants it, and chunk metadata
    /// is decentralized (the Figure 15 directory strawman keeps the
    /// paper's dense streaming — its per-engine chunk counts cannot see
    /// multi-chunk consumption).
    fn activity_on(&self) -> bool {
        self.cfg.streaming != Streaming::Dense
            && !self.centralized()
            && self.program.activity() != ActivityModel::Dense
    }

    /// Whether shrinking-graph tombstoning/compaction applies.
    fn shrinking_on(&self) -> bool {
        self.cfg.streaming != Streaming::Dense
            && !self.centralized()
            && self.program.activity() == ActivityModel::Shrinking
    }

    /// The selectivity account of the current iteration.
    fn sel_mut(&mut self) -> &mut IterSelectivity {
        let i = self.iter as usize;
        if self.selectivity.len() <= i {
            self.selectivity.resize(i + 1, IterSelectivity::default());
        }
        &mut self.selectivity[i]
    }

    /// Builds the active scatter-source summary once a scatter stream's
    /// vertex set is loaded (post any phase switch, so the bits reflect
    /// the program's current phase). Masters additionally record the
    /// active-vertex fraction — each partition counted once per iteration.
    fn arm_scatter_activity(&mut self) {
        if self.phase != PhaseKind::Scatter || !self.activity_on() {
            return;
        }
        let iter = self.iter;
        let (count, n, stolen) = {
            let Some(w) = self.work.as_mut() else {
                return;
            };
            let n = w.vertices.len();
            if n == 0 {
                return;
            }
            let base = self.params.spec.range(w.part).start;
            let program = &self.program;
            let vertices = &w.vertices;
            let set = ActiveSet::from_fn(base, n, |off| {
                program.is_active(base + off as u64, &vertices[off], iter)
            });
            let count = set.active_count();
            // A full set carries no information: stream densely for free.
            w.active = if set.all_active() {
                None
            } else {
                Some(Arc::new(set))
            };
            (count, n as u64, w.stolen)
        };
        if !stolen {
            let sel = self.sel_mut();
            sel.active_vertices += count;
            sel.total_vertices += n;
        }
    }

    /// CPU cost in core-nanosecond units for processing `records` records.
    fn chunk_cost(&self, records: usize) -> u64 {
        records as u64 * self.cfg.ns_per_record + self.cfg.msg_cpu_ns
    }

    // ------------------------------------------------------------------
    // Buffer pools (hot-path ownership discipline: buffers that stay on
    // this engine are recycled; buffers handed off in an `Arc` — update
    // chunks, stolen accumulators — are the protocol's to keep).
    // ------------------------------------------------------------------

    /// A cleared vertex-state buffer from the pool (capacity retained).
    fn take_state_buf(&mut self) -> Vec<P::VertexState> {
        let mut v = self.state_pool.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// A cleared accumulator buffer from the pool (capacity retained).
    fn take_accum_buf(&mut self) -> Vec<P::Accum> {
        let mut v = self.accum_pool.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Returns a vertex-state buffer to the pool. Capacity-less buffers
    /// (fields already moved elsewhere) are dropped so the pool stays
    /// balanced at one-in, one-out.
    fn recycle_state_buf(&mut self, mut v: Vec<P::VertexState>) {
        if v.capacity() > 0 {
            v.clear();
            self.state_pool.push(v);
        }
    }

    /// Returns an accumulator buffer to the pool (see
    /// [`ComputeEngine::recycle_state_buf`]).
    fn recycle_accum_buf(&mut self, mut v: Vec<P::Accum>) {
        if v.capacity() > 0 {
            v.clear();
            self.accum_pool.push(v);
        }
    }

    /// Retires a finished partition's work state: buffers return to the
    /// pools, the carcass is recycled by the next [`PartWork`].
    fn retire_work(&mut self, mut w: PartWork<P>) {
        self.recycle_state_buf(std::mem::take(&mut w.vertices));
        self.recycle_accum_buf(std::mem::take(&mut w.accums));
        self.spare_work = Some(w);
    }

    /// Schedules CPU work, returning nothing; completion arrives as
    /// [`Msg::Processed`].
    fn schedule_work(&mut self, ctx: &mut Ctx<P>, cost_units: u64, work: Work<P>) {
        let done = self.cpu.serve(ctx.now, cost_units);
        ctx.at(done, Addr::Compute(self.machine), Msg::Processed { work });
    }

    /// Which edge structure the current scatter direction streams.
    fn scatter_kind(&self) -> DataKind {
        match self.program.direction() {
            Direction::Out => DataKind::Edges,
            Direction::In => DataKind::EdgesReverse,
        }
    }

    /// The data kind streamed in the given phase.
    fn phase_kind_data(&self, phase: PhaseKind) -> DataKind {
        match phase {
            PhaseKind::Scatter => self.scatter_kind(),
            PhaseKind::Gather => DataKind::Updates,
            _ => DataKind::Input,
        }
    }

    // ------------------------------------------------------------------
    // Pre-processing
    // ------------------------------------------------------------------

    /// Kicks off pre-processing (called once by the cluster at t=0).
    pub fn start(&mut self, ctx: &mut Ctx<P>) {
        self.phase = PhaseKind::Preprocess;
        self.pump_input(ctx);
        self.maybe_finish_preprocess(ctx);
    }

    fn pump_input(&mut self, ctx: &mut Ctx<P>) {
        while self.pp.outstanding < self.params.window {
            if self.centralized() {
                if self.pp.dir_exhausted {
                    break;
                }
                ctx.send(
                    self.machine,
                    Addr::Directory,
                    Msg::DirRead {
                        part: 0,
                        kind: DataKind::Input,
                        from: self.machine,
                    },
                    CONTROL_BYTES,
                );
                self.pp.outstanding += 1;
            } else {
                let local = self.local_only_target(None);
                let oversub = self.params.window > self.m();
                let Some(target) = pick_engine(
                    &mut self.rng,
                    &self.pp.requested,
                    &self.pp.exhausted,
                    local,
                    oversub,
                ) else {
                    break;
                };
                self.pp.requested[target] += 1;
                self.pp.outstanding += 1;
                ctx.send(
                    self.machine,
                    Addr::Storage(target),
                    Msg::InputChunkReq { from: self.machine },
                    CONTROL_BYTES,
                );
            }
        }
    }

    /// Under [`Placement::LocalOnly`], the only engine to talk to for a
    /// partition (or the local engine for input).
    fn local_only_target(&self, part: Option<usize>) -> Option<usize> {
        if self.cfg.placement != Placement::LocalOnly {
            return None;
        }
        Some(match part {
            Some(p) => self.params.master(p),
            None => self.machine,
        })
    }

    fn on_input_chunk(&mut self, ctx: &mut Ctx<P>, source: Option<usize>, data: Option<Arc<Vec<Edge>>>) {
        self.pp.outstanding -= 1;
        if let Some(s) = source {
            self.pp.requested[s] = self.pp.requested[s].saturating_sub(1);
        }
        match data {
            Some(chunk) => {
                let cost = self.chunk_cost(chunk.len());
                self.pp.inflight_compute += 1;
                self.schedule_work(ctx, cost, Work::BinInputChunk { data: chunk });
                self.pump_input(ctx);
            }
            None => {
                match source {
                    Some(s) => {
                        if !self.pp.exhausted[s] {
                            self.pp.exhausted[s] = true;
                            self.pp.exhausted_count += 1;
                        }
                        if self.cfg.placement == Placement::LocalOnly {
                            self.pp.dir_exhausted = true;
                        }
                    }
                    None => self.pp.dir_exhausted = true,
                }
                self.pump_input(ctx);
                self.maybe_finish_preprocess(ctx);
            }
        }
    }

    fn bin_input_chunk(&mut self, ctx: &mut Ctx<P>, data: Arc<Vec<Edge>>) {
        let reverse_too = self.program.uses_reverse_edges();
        let stride = self.params.spec.stride;
        let cluster = self.params.cluster;
        let bins = cluster.bins() as usize;
        for e in data.iter() {
            let p = self.params.spec.partition_of(e.src);
            let dv = &mut self.pp.degree_counts[p];
            if dv.is_empty() {
                dv.resize(self.params.spec.len(p) as usize, 0);
            }
            dv[(e.src - p as u64 * stride) as usize] += 1;
            // Buffers are bin-pure: an edge lands in the buffer of its
            // partition *and* scatter-key sub-range, so every flushed
            // chunk covers at most one bin of the partition.
            let slot = p * bins + cluster.bin_of_offset(e.src - p as u64 * stride) as usize;
            self.pp.edge_bufs[slot].push(*e);
            if self.pp.edge_bufs[slot].len() >= self.params.edges_per_chunk {
                // Swap a pre-sized buffer in so the refill never regrows.
                let buf = &mut self.pp.edge_bufs[slot];
                let chunk = Arc::new(std::mem::replace(buf, Vec::with_capacity(buf.capacity())));
                self.write_edges(ctx, p, false, chunk);
            }
            if reverse_too {
                let rp = self.params.spec.partition_of(e.dst);
                let rslot =
                    rp * bins + cluster.bin_of_offset(e.dst - rp as u64 * stride) as usize;
                self.pp.redge_bufs[rslot].push(*e);
                if self.pp.redge_bufs[rslot].len() >= self.params.edges_per_chunk {
                    let buf = &mut self.pp.redge_bufs[rslot];
                    let chunk =
                        Arc::new(std::mem::replace(buf, Vec::with_capacity(buf.capacity())));
                    self.write_edges(ctx, rp, true, chunk);
                }
            }
        }
        self.pp.inflight_compute -= 1;
        self.maybe_finish_preprocess(ctx);
    }

    fn write_edges(&mut self, ctx: &mut Ctx<P>, part: usize, reverse: bool, data: Arc<Vec<Edge>>) {
        self.pending_write_acks += 1;
        if self.centralized() {
            self.pending_dir_writes.push_back(PendingDirWrite::Edges {
                part,
                reverse,
                data,
            });
            ctx.send(
                self.machine,
                Addr::Directory,
                Msg::DirWrite {
                    part,
                    kind: if reverse {
                        DataKind::EdgesReverse
                    } else {
                        DataKind::Edges
                    },
                    from: self.machine,
                },
                CONTROL_BYTES,
            );
            return;
        }
        let key = if reverse { data[0].dst } else { data[0].src };
        let target = self.edge_write_target(part, reverse, key);
        let bytes = data.len() as u64 * self.params.edge_bytes;
        ctx.send(
            self.machine,
            Addr::Storage(target),
            Msg::WriteEdgeChunk {
                part,
                reverse,
                data,
                from: self.machine,
            },
            bytes + CONTROL_BYTES,
        );
    }

    /// Storage engine an edge chunk of `(part, reverse)` containing `key`
    /// is written to. Unclustered: uniformly random per chunk (§8).
    /// Clustered: every writer of a (partition, bin, direction) targets
    /// the bin's deterministic home engine, so the sub-chunk writes of
    /// all pre-processing machines consolidate into full chunks there;
    /// placement stays uniform in aggregate — bins hash over the machines
    /// — and varies with the run seed like random placement.
    fn edge_write_target(&mut self, part: usize, reverse: bool, key: VertexId) -> usize {
        self.local_only_target(Some(part)).unwrap_or_else(|| {
            let bins = self.params.cluster.bins();
            if bins > 1 {
                let bin = self.params.cluster.bin_of(&self.params.spec, part, key);
                let id = mix2(part as u64, u64::from(bin) * 2 + u64::from(reverse));
                (mix2(id, self.cfg.seed) % self.m() as u64) as usize
            } else {
                self.rng.below(self.m() as u64) as usize
            }
        })
    }

    fn input_exhausted(&self) -> bool {
        self.pp.dir_exhausted || self.pp.exhausted_count == self.m()
    }

    fn maybe_finish_preprocess(&mut self, ctx: &mut Ctx<P>) {
        if self.phase != PhaseKind::Preprocess || self.barrier_sent {
            return;
        }
        if !(self.input_exhausted() && self.pp.outstanding == 0 && self.pp.inflight_compute == 0)
        {
            return;
        }
        if !self.pp.flushed {
            self.pp.flushed = true;
            // Flush partial edge buffers (one per partition and bin).
            let bins = self.params.cluster.bins() as usize;
            if bins > 1 && !self.centralized() {
                // Clustered layout: the per-bin partials are tiny, so a
                // message per buffer would multiply pre-processing
                // traffic by the bin count. Group them by their bin-home
                // target and ship one batched write per engine; the
                // storage side merges each element into its open buffer.
                let mut batches: Vec<Vec<crate::msg::EdgeWrite>> =
                    (0..self.m()).map(|_| Vec::new()).collect();
                let edge_bufs = std::mem::take(&mut self.pp.edge_bufs);
                let redge_bufs = std::mem::take(&mut self.pp.redge_bufs);
                for (reverse, bufs) in [(false, edge_bufs), (true, redge_bufs)] {
                    for (slot, buf) in bufs.into_iter().enumerate() {
                        if buf.is_empty() {
                            continue;
                        }
                        let part = slot / bins;
                        let key = if reverse { buf[0].dst } else { buf[0].src };
                        let target = self.edge_write_target(part, reverse, key);
                        batches[target].push(crate::msg::EdgeWrite {
                            part,
                            reverse,
                            data: Arc::new(buf),
                        });
                    }
                }
                for (target, writes) in batches.into_iter().enumerate() {
                    if writes.is_empty() {
                        continue;
                    }
                    let bytes: u64 = writes
                        .iter()
                        .map(|w| w.data.len() as u64)
                        .sum::<u64>()
                        * self.params.edge_bytes;
                    self.pending_write_acks += 1;
                    ctx.send(
                        self.machine,
                        Addr::Storage(target),
                        Msg::WriteEdgeBatch {
                            writes,
                            from: self.machine,
                        },
                        bytes + CONTROL_BYTES,
                    );
                }
            } else {
                for slot in 0..self.pp.edge_bufs.len() {
                    let p = slot / bins;
                    if !self.pp.edge_bufs[slot].is_empty() {
                        let chunk = Arc::new(std::mem::take(&mut self.pp.edge_bufs[slot]));
                        self.write_edges(ctx, p, false, chunk);
                    }
                    if !self.pp.redge_bufs[slot].is_empty() {
                        let chunk = Arc::new(std::mem::take(&mut self.pp.redge_bufs[slot]));
                        self.write_edges(ctx, p, true, chunk);
                    }
                }
            }
            // Ship partial degree counts to partition masters (sparse
            // pairs, scanned out of the dense per-partition counters).
            for p in 0..self.params.spec.num_partitions {
                if self.pp.degree_counts[p].is_empty() {
                    continue;
                }
                let base = self.params.spec.range(p).start;
                let dv = std::mem::take(&mut self.pp.degree_counts[p]);
                let entries: Vec<(u64, u32)> = dv
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(off, &c)| (base + off as u64, c))
                    .collect();
                let bytes = entries.len() as u64 * 12 + CONTROL_BYTES;
                self.pp.degree_acks_pending += 1;
                ctx.send(
                    self.machine,
                    Addr::Compute(self.params.master(p)),
                    Msg::DegreeContrib {
                        part: p,
                        counts: Arc::new(entries),
                        from: self.machine,
                    },
                    bytes,
                );
            }
        }
        if self.pending_write_acks == 0 && self.pp.degree_acks_pending == 0 {
            self.arrive_barrier(ctx);
        }
    }

    fn on_degree_contrib(
        &mut self,
        ctx: &mut Ctx<P>,
        part: usize,
        counts: &[(u64, u32)],
        from: usize,
    ) {
        debug_assert_eq!(self.params.master(part), self.machine);
        let len = self.params.spec.len(part) as usize;
        let base = self.params.spec.range(part).start;
        let dv = self
            .degrees
            .entry(part)
            .or_insert_with(|| vec![0u32; len]);
        for &(vid, c) in counts {
            dv[(vid - base) as usize] += c;
        }
        ctx.send(
            self.machine,
            Addr::Compute(from),
            Msg::DegreeAck,
            CONTROL_BYTES,
        );
    }

    // ------------------------------------------------------------------
    // Vertex initialization
    // ------------------------------------------------------------------

    fn start_vertex_init(&mut self, ctx: &mut Ctx<P>) {
        self.phase = PhaseKind::VertexInit;
        self.barrier_sent = false;
        self.pending_inits = self.my_parts.len();
        if self.pending_inits == 0 {
            self.arrive_barrier(ctx);
            return;
        }
        for i in 0..self.my_parts.len() {
            let part = self.my_parts[i];
            let records = self.params.spec.len(part);
            let cost = records * self.cfg.ns_per_record + self.cfg.msg_cpu_ns;
            self.schedule_work(ctx, cost, Work::InitPartition { part });
        }
    }

    fn init_partition(&mut self, ctx: &mut Ctx<P>, part: usize) {
        let range = self.params.spec.range(part);
        let base = range.start;
        let mut states = self.take_state_buf();
        let dv = self.degrees.get(&part);
        states.extend(range.clone().map(|v| {
            let deg = dv
                .and_then(|d| d.get((v - base) as usize))
                .copied()
                .unwrap_or(0) as u64;
            self.program.init(v, deg)
        }));
        self.write_vertex_set(ctx, part, &states);
        self.recycle_state_buf(states);
        self.pending_inits -= 1;
        self.maybe_arrive_simple(ctx);
    }

    /// Writes a full vertex set as chunks to their home engines.
    fn write_vertex_set(&mut self, ctx: &mut Ctx<P>, part: usize, states: &[P::VertexState]) {
        for c in 0..self.params.vertex_chunks(part) {
            let rows = self.params.vertex_chunk_rows(part, c);
            let data = Arc::new(states[rows].to_vec());
            let bytes = data.len() as u64 * self.params.vstate_bytes;
            let home = self.params.vertex_home(part, c);
            self.pending_write_acks += 1;
            ctx.send(
                self.machine,
                Addr::Storage(home),
                Msg::WriteVertexChunk {
                    part,
                    chunk_no: c,
                    data,
                    from: self.machine,
                },
                bytes + CONTROL_BYTES,
            );
        }
    }

    /// VertexInit barrier check. With checkpointing on, the initial vertex
    /// states are copied into the checkpoint area before arriving, so the
    /// commit round at this barrier gives iteration 0 a committed snapshot
    /// to roll back to.
    fn maybe_arrive_simple(&mut self, ctx: &mut Ctx<P>) {
        if self.phase == PhaseKind::VertexInit
            && !self.barrier_sent
            && self.pending_inits == 0
            && self.pending_write_acks == 0
        {
            if self.cfg.checkpoint {
                match self.ckpt {
                    CkptState::Idle => {
                        self.start_checkpoint(ctx);
                        return;
                    }
                    CkptState::Copy(_) => return,
                    CkptState::Done => {}
                }
            }
            self.arrive_barrier(ctx);
        }
    }

    // ------------------------------------------------------------------
    // Scatter / gather phase driving
    // ------------------------------------------------------------------

    fn start_phase(&mut self, ctx: &mut Ctx<P>, phase: PhaseKind, iter: u32) {
        self.phase = phase;
        self.iter = iter;
        self.barrier_sent = false;
        self.ckpt = CkptState::Idle;
        self.own_queue.clear();
        self.own_queue.extend(self.my_parts.iter().copied());
        self.stealers.clear();
        self.finished_parts.clear();
        self.steal_queries.clear();
        self.query_inflight.clear();
        self.pending_getaccums.clear();
        // Steal-scan candidates: every partition not owned by us, visited
        // in random order (§5.3). The scan's containers are reused across
        // phases (capacity retained).
        self.scan.candidates.clear();
        self.scan
            .candidates
            .extend((0..self.params.spec.num_partitions).filter(|p| self.params.master(*p) != self.machine));
        self.rng.shuffle(&mut self.scan.candidates);
        self.scan.started = false;
        self.scan.awaiting.clear();
        self.scan.accepted.clear();
        self.advance(ctx);
    }

    /// Moves to the next unit of work: own partitions first, then stealing,
    /// then the barrier.
    fn advance(&mut self, ctx: &mut Ctx<P>) {
        if self.done
            || self.barrier_sent
            || self.work.is_some()
            || self.gather_finish.is_some()
            || self.waiting_getaccums.is_some()
        {
            return;
        }
        if let Some(p) = self.own_queue.pop_front() {
            self.start_partition(ctx, p, false);
            return;
        }
        // Steal scan: fan out one proposal per foreign partition. The
        // candidate list is taken (not cloned) around the loop; it is not
        // consulted again once the scan has started.
        if !self.scan.started {
            self.scan.started = true;
            if self.cfg.steal_alpha != 0.0 {
                let cands = std::mem::take(&mut self.scan.candidates);
                for &p in &cands {
                    self.scan.awaiting.insert(p);
                    ctx.send(
                        self.machine,
                        Addr::Compute(self.params.master(p)),
                        Msg::StealPropose {
                            part: p,
                            phase: self.phase,
                            from: self.machine,
                        },
                        CONTROL_BYTES,
                    );
                }
                self.scan.candidates = cands;
            }
        }
        if let Some(p) = self.scan.accepted.pop_front() {
            self.start_partition(ctx, p, true);
            return;
        }
        if self.scan.finished() {
            self.maybe_barrier(ctx);
        }
    }

    fn start_partition(&mut self, ctx: &mut Ctx<P>, part: usize, stolen: bool) {
        debug_assert!(self.work.is_none());
        let mut w = match self.spare_work.take() {
            Some(w) => w,
            None => PartWork::new(self.m()),
        };
        w.reset(part, stolen, ctx.now);
        let n = self.params.spec.len(part) as usize;
        w.vertices = self.take_state_buf();
        w.vertices.resize(n, P::VertexState::default());
        if self.phase == PhaseKind::Gather {
            w.accums = self.take_accum_buf();
            w.accums.resize(n, P::Accum::default());
        }
        if stolen {
            self.steals += 1;
        }
        let chunks = self.params.vertex_chunks(part);
        w.vchunks_pending = chunks;
        if chunks == 0 {
            w.loaded = true;
            w.loaded_at = ctx.now;
        }
        self.work = Some(w);
        for c in 0..chunks {
            let home = self.params.vertex_home(part, c);
            ctx.send(
                self.machine,
                Addr::Storage(home),
                Msg::VertexChunkReq {
                    part,
                    chunk_no: c,
                    from: self.machine,
                },
                CONTROL_BYTES,
            );
        }
        if chunks == 0 {
            self.arm_scatter_activity();
            self.pump_reads(ctx);
            self.check_stream_done(ctx);
        }
    }

    /// Keeps the request window full for the current partition.
    fn pump_reads(&mut self, ctx: &mut Ctx<P>) {
        let kind = self.phase_kind_data(self.phase);
        let me = self.machine;
        let m = self.m();
        let window = self.params.window;
        let centralized = self.centralized();
        let local_target = self.work.as_ref().map(|w| w.part).and_then(|p| self.local_only_target(Some(p)));
        let Some(w) = &mut self.work else {
            return;
        };
        if !w.loaded {
            return;
        }
        while w.outstanding < window {
            if centralized {
                if w.dir_exhausted {
                    break;
                }
                w.outstanding += 1;
                ctx.send(
                    me,
                    Addr::Directory,
                    Msg::DirRead {
                        part: w.part,
                        kind,
                        from: me,
                    },
                    CONTROL_BYTES,
                );
                continue;
            }
            let Some(target) =
                pick_engine(&mut self.rng, &w.requested, &w.exhausted, local_target, window > m)
            else {
                break;
            };
            w.requested[target] += 1;
            w.outstanding += 1;
            // The active summary rides on every edge request (and is
            // charged for): requests are independent, so every storage
            // engine sees the frontier it needs for its skip decisions.
            let active_bytes = w.active.as_ref().map_or(0, |a| a.wire_bytes());
            let msg = match kind {
                DataKind::Edges => Msg::EdgeChunkReq {
                    part: w.part,
                    reverse: false,
                    from: me,
                    active: w.active.clone(),
                },
                DataKind::EdgesReverse => Msg::EdgeChunkReq {
                    part: w.part,
                    reverse: true,
                    from: me,
                    active: w.active.clone(),
                },
                DataKind::Updates => Msg::UpdateChunkReq {
                    part: w.part,
                    from: me,
                },
                DataKind::Input => unreachable!("input is handled by pump_input"),
            };
            ctx.send(me, Addr::Storage(target), msg, CONTROL_BYTES + active_bytes);
        }
    }

    fn on_vertex_chunk(
        &mut self,
        ctx: &mut Ctx<P>,
        part: usize,
        chunk_no: u32,
        data: Arc<Vec<P::VertexState>>,
    ) {
        let rows = self.params.vertex_chunk_rows(part, chunk_no);
        let mut loaded_now = false;
        let mut copy_ns = 0;
        if let Some(w) = &mut self.work {
            if w.part != part {
                return;
            }
            w.vertices[rows].clone_from_slice(&data);
            w.vchunks_pending -= 1;
            if w.vchunks_pending == 0 {
                w.loaded = true;
                w.loaded_at = ctx.now;
                if w.stolen {
                    copy_ns = ctx.now - w.started;
                }
                loaded_now = true;
            }
        }
        if loaded_now {
            self.breakdown.copy += copy_ns;
            self.arm_scatter_activity();
            self.pump_reads(ctx);
            self.check_stream_done(ctx);
        }
    }

    /// Common handling of an edge/update chunk response.
    fn on_stream_chunk<T>(
        &mut self,
        ctx: &mut Ctx<P>,
        part: usize,
        source: Option<usize>,
        data: Option<Arc<Vec<T>>>,
        make_work: impl FnOnce(Arc<Vec<T>>) -> Work<P>,
    ) {
        let local_only = self.cfg.placement == Placement::LocalOnly;
        {
            let Some(w) = &mut self.work else {
                return;
            };
            if w.part != part {
                return;
            }
            w.outstanding -= 1;
            if let Some(s) = source {
                w.requested[s] = w.requested[s].saturating_sub(1);
            }
        }
        match data {
            Some(chunk) => {
                let cost = self.chunk_cost(chunk.len());
                if let Some(w) = &mut self.work {
                    w.inflight_compute += 1;
                }
                self.schedule_work(ctx, cost, make_work(chunk));
                self.pump_reads(ctx);
            }
            None => {
                if let Some(w) = &mut self.work {
                    match source {
                        Some(s) => {
                            if !w.exhausted[s] {
                                w.exhausted[s] = true;
                                w.exhausted_count += 1;
                            }
                            if local_only {
                                w.dir_exhausted = true;
                            }
                        }
                        None => w.dir_exhausted = true,
                    }
                }
                self.pump_reads(ctx);
                self.check_stream_done(ctx);
            }
        }
    }

    fn scatter_chunk(
        &mut self,
        ctx: &mut Ctx<P>,
        part: usize,
        data: Arc<Vec<Edge>>,
        origin: Option<(usize, u32)>,
    ) {
        let base = self.params.spec.range(part).start;
        self.records_processed += data.len() as u64;
        let w = self.work.as_mut().expect("scatter work in progress");
        debug_assert_eq!(w.part, part);
        // One batched kernel call per chunk; the sink routes updates into
        // the pooled per-partition buffers. In steady state (no buffer
        // crossing its flush threshold) this path performs no allocation.
        let produced = {
            let mut sink = PartitionSink {
                spec: &self.params.spec,
                bufs: &mut self.out_bufs,
                cap: self.params.updates_per_chunk,
                full: &mut self.flush_scratch,
                produced: 0,
            };
            self.program
                .scatter_chunk(base, &w.vertices, &data, self.iter, &mut sink);
            sink.produced
        };
        self.agg.updates_produced += produced;
        w.inflight_compute -= 1;
        if self.activity_on() {
            // The live side of the skip account: what actually streamed
            // (feeds the steal criterion's density correction).
            let n = data.len() as u64;
            self.sel_mut().edge_records_streamed += n;
        }
        let mut k = 0;
        while k < self.flush_scratch.len() {
            let tp = self.flush_scratch[k];
            k += 1;
            self.flush_updates(ctx, tp);
        }
        self.flush_scratch.clear();
        self.maybe_compact_chunk(ctx, &data, origin);
        self.check_stream_done(ctx);
    }

    /// Shrinking-graph support: scans the just-scattered chunk for
    /// permanently dead edges and, once dead density crosses the
    /// configured threshold, ships the survivors back to the source
    /// storage engine as an in-place replacement. The serve-once-per-epoch
    /// protocol makes this engine the chunk's unique consumer this
    /// iteration, so exactly one replacement can target an entry per
    /// epoch.
    fn maybe_compact_chunk(
        &mut self,
        ctx: &mut Ctx<P>,
        data: &Arc<Vec<Edge>>,
        origin: Option<(usize, u32)>,
    ) {
        let Some((source, entry)) = origin else {
            return;
        };
        if data.is_empty() || !self.shrinking_on() || !self.program.shrinks_now(self.iter) {
            return;
        }
        let Some(w) = self.work.as_ref() else {
            return;
        };
        let base = self.params.spec.range(w.part).start;
        let dead = self
            .program
            .dead_edges(base, &w.vertices, data, self.iter);
        if dead == 0 || (dead as f64) < data.len() as f64 * self.cfg.compact_threshold {
            return;
        }
        let reverse = self.program.direction() == Direction::In;
        let survivors: Vec<Edge> = {
            let program = &self.program;
            let vertices = &w.vertices;
            let iter = self.iter;
            data.iter()
                .filter(|e| {
                    let v = if reverse { e.dst } else { e.src };
                    !program.edge_dead(v, &vertices[(v - base) as usize], e, iter)
                })
                .copied()
                .collect()
        };
        debug_assert_eq!(survivors.len() as u64, data.len() as u64 - dead);
        let part = w.part;
        let bytes = survivors.len() as u64 * self.params.edge_bytes;
        let sel = self.sel_mut();
        sel.edges_tombstoned += dead;
        sel.compactions += 1;
        self.pending_write_acks += 1;
        ctx.send(
            self.machine,
            Addr::Storage(source),
            Msg::ReplaceEdgeChunk {
                part,
                reverse,
                entry,
                data: Arc::new(survivors),
                from: self.machine,
            },
            bytes + CONTROL_BYTES,
        );
    }

    /// Accounts chunks — and, under block indexing, block runs inside the
    /// served chunk — the activity filter consumed without serving and, in
    /// the dense-streaming reference mode, streams their payloads through
    /// the scatter kernel to enforce the activity contract: a skipped
    /// chunk or block must produce nothing.
    fn on_edge_skips(&mut self, part: usize, skipped: &SkipInfo) {
        if skipped.chunks == 0 && skipped.blocks == 0 {
            return;
        }
        let mid;
        {
            let Some(w) = self.work.as_ref() else {
                return;
            };
            if w.part != part {
                return;
            }
            // A skip is "mid-wavefront" when the partition's frontier was
            // non-empty — the narrow-window/stride-summary case the
            // clustered layout exists for; with an empty frontier every
            // chunk skips regardless of layout.
            mid = w.active.as_ref().is_some_and(|a| !a.none_active());
            let base = self.params.spec.range(part).start;
            for chunk in &skipped.oracle {
                let mut sink = CountSink(0);
                self.program
                    .scatter_chunk(base, &w.vertices, chunk, self.iter, &mut sink);
                assert_eq!(
                    sink.0,
                    0,
                    "activity contract violated: {} produced {} update(s) from a chunk \
                     its active set skipped (partition {part}, iteration {})",
                    self.program.name(),
                    sink.0,
                    self.iter,
                );
            }
        }
        let sel = self.sel_mut();
        sel.chunks_skipped += skipped.chunks as u64;
        sel.records_skipped += skipped.records;
        sel.blocks_skipped += skipped.blocks as u64;
        sel.records_skipped_intra += skipped.records_intra;
        if mid {
            sel.chunks_skipped_mid += skipped.chunks as u64;
            sel.records_skipped_mid += skipped.records;
            sel.blocks_skipped_mid += skipped.blocks as u64;
            sel.records_skipped_intra_mid += skipped.records_intra;
        }
    }

    fn gather_chunk(&mut self, ctx: &mut Ctx<P>, part: usize, data: Arc<Vec<Update<P::Update>>>) {
        let base = self.params.spec.range(part).start;
        self.records_processed += data.len() as u64;
        let w = self.work.as_mut().expect("gather work in progress");
        debug_assert_eq!(w.part, part);
        self.program
            .gather_chunk(base, &w.vertices, &mut w.accums, &data);
        w.inflight_compute -= 1;
        self.check_stream_done(ctx);
    }

    /// Hands a non-empty output buffer to the write path, swapping in an
    /// equally sized empty buffer so the next chunk streams into retained
    /// capacity (the `Arc` hand-off is the one allocation a flush costs —
    /// the chunk itself leaves the engine for good).
    fn flush_updates(&mut self, ctx: &mut Ctx<P>, tp: usize) {
        let buf = &mut self.out_bufs[tp];
        if buf.is_empty() {
            return;
        }
        let full = std::mem::replace(buf, Vec::with_capacity(buf.capacity()));
        self.write_updates(ctx, tp, Arc::new(full));
    }

    fn write_updates(&mut self, ctx: &mut Ctx<P>, part: usize, data: Arc<Vec<Update<P::Update>>>) {
        if data.is_empty() {
            return;
        }
        self.pending_write_acks += 1;
        if self.centralized() {
            self.pending_dir_writes
                .push_back(PendingDirWrite::Updates { part, data });
            ctx.send(
                self.machine,
                Addr::Directory,
                Msg::DirWrite {
                    part,
                    kind: DataKind::Updates,
                    from: self.machine,
                },
                CONTROL_BYTES,
            );
            return;
        }
        let target = self
            .local_only_target(Some(part))
            .unwrap_or_else(|| self.rng.below(self.m() as u64) as usize);
        let bytes = data.len() as u64 * self.params.update_bytes;
        ctx.send(
            self.machine,
            Addr::Storage(target),
            Msg::WriteUpdateChunk {
                part,
                data,
                from: self.machine,
            },
            bytes + CONTROL_BYTES,
        );
    }

    /// Checks whether the current partition's stream is complete, and if so
    /// finishes the partition.
    fn check_stream_done(&mut self, ctx: &mut Ctx<P>) {
        let m = self.m();
        let Some(w) = &self.work else {
            return;
        };
        if !w.stream_done(m) {
            return;
        }
        let part = w.part;
        let stolen = w.stolen;
        if !stolen {
            // Every engine is exhausted for this partition now, so its
            // remaining bytes are zero: later steal proposals can be
            // rejected without asking storage.
            self.finished_parts.insert(part);
        }
        match self.phase {
            PhaseKind::Scatter => {
                // Flush partial update buffers, then the partition is done.
                for tp in 0..self.out_bufs.len() {
                    self.flush_updates(ctx, tp);
                }
                let w = self.work.take().expect("checked above");
                let gp = ctx.now - if stolen { w.loaded_at } else { w.started };
                if stolen {
                    self.breakdown.gp_stolen += gp;
                } else {
                    self.breakdown.gp_master += gp;
                }
                self.retire_work(w);
                self.advance(ctx);
            }
            PhaseKind::Gather => {
                let mut w = self.work.take().expect("checked above");
                let gp = ctx.now - if stolen { w.loaded_at } else { w.started };
                if stolen {
                    self.breakdown.gp_stolen += gp;
                } else {
                    self.breakdown.gp_master += gp;
                }
                if stolen {
                    // Hand the accumulators to the master when asked
                    // (Figure 4, line 52). The accumulator buffer leaves
                    // in an `Arc`; only the rest of the work state is
                    // recycled.
                    let accums = Arc::new(std::mem::take(&mut w.accums));
                    self.retire_work(w);
                    if self.pending_getaccums.remove(&part) {
                        self.send_accums(ctx, part, accums);
                        self.advance(ctx);
                    } else {
                        self.waiting_getaccums = Some((part, accums));
                        self.getaccums_wait_since = ctx.now;
                    }
                } else {
                    let vertices = std::mem::take(&mut w.vertices);
                    let accums = std::mem::take(&mut w.accums);
                    self.retire_work(w);
                    self.master_finish_gather(ctx, part, vertices, accums);
                }
            }
            _ => unreachable!("streaming only happens in scatter/gather"),
        }
    }

    fn send_accums(&mut self, ctx: &mut Ctx<P>, part: usize, accums: Arc<Vec<P::Accum>>) {
        let bytes = self.params.vertex_part_bytes(part);
        // Shipping accumulators is load-balancing overhead ("copy").
        let nic = Resource::new(self.cfg.fabric.nic_bytes_per_sec, 0);
        self.breakdown.copy += nic.transfer_time(bytes);
        ctx.send(
            self.machine,
            Addr::Compute(self.params.master(part)),
            Msg::Accums {
                part,
                accums,
                from: self.machine,
            },
            bytes + CONTROL_BYTES,
        );
    }

    fn master_finish_gather(
        &mut self,
        ctx: &mut Ctx<P>,
        part: usize,
        vertices: Vec<P::VertexState>,
        accums: Vec<P::Accum>,
    ) {
        let stealers = self.stealers.get(&part).cloned().unwrap_or_default();
        let mut fin = GatherFinish {
            part,
            vertices,
            accums,
            collected: Vec::new(),
            awaiting: stealers.len(),
            wait_started: ctx.now,
            applying: false,
        };
        for s in &stealers {
            ctx.send(
                self.machine,
                Addr::Compute(*s),
                Msg::GetAccums {
                    part,
                    from: self.machine,
                },
                CONTROL_BYTES,
            );
        }
        if fin.awaiting == 0 {
            self.schedule_apply(ctx, &mut fin);
        }
        self.gather_finish = Some(fin);
    }

    fn schedule_apply(&mut self, ctx: &mut Ctx<P>, fin: &mut GatherFinish<P>) {
        fin.applying = true;
        let n = fin.vertices.len() as u64;
        let cost = n * (1 + fin.collected.len() as u64) * self.cfg.ns_per_record
            + self.cfg.msg_cpu_ns;
        self.breakdown.merge += cost / self.cfg.cores as u64;
        let done = self.cpu.serve(ctx.now, cost);
        ctx.at(
            done,
            Addr::Compute(self.machine),
            Msg::Processed {
                work: Work::ApplyPartition { part: fin.part },
            },
        );
    }

    fn apply_partition(&mut self, ctx: &mut Ctx<P>, part: usize) {
        let mut fin = self.gather_finish.take().expect("apply without finish state");
        debug_assert_eq!(fin.part, part);
        let base = self.params.spec.range(part).start;
        // Merge replica accumulators (commutative), then apply once.
        for arr in &fin.collected {
            for (into, from) in fin.accums.iter_mut().zip(arr.iter()) {
                self.program.merge(into, from);
            }
        }
        for (off, (state, acc)) in fin.vertices.iter_mut().zip(fin.accums.iter()).enumerate() {
            let v = base + off as u64;
            if self.program.apply(v, state, acc, self.iter) {
                self.agg.vertices_changed += 1;
            }
            let c = self.program.aggregate(state);
            for (slot, x) in self.agg.custom.iter_mut().zip(c.iter()) {
                *slot += x;
            }
        }
        // Write the new vertex values back and drop the update set (§6.1);
        // the partition-sized buffers return to the engine pools.
        let states = std::mem::take(&mut fin.vertices);
        self.write_vertex_set(ctx, part, &states);
        self.recycle_state_buf(states);
        self.recycle_accum_buf(std::mem::take(&mut fin.accums));
        for s in 0..self.m() {
            ctx.send(
                self.machine,
                Addr::Storage(s),
                Msg::DeleteUpdates { part },
                CONTROL_BYTES,
            );
        }
        self.advance(ctx);
    }

    // ------------------------------------------------------------------
    // Stealing (master side)
    // ------------------------------------------------------------------

    fn on_steal_propose(&mut self, ctx: &mut Ctx<P>, part: usize, phase: PhaseKind, from: usize) {
        if phase != self.phase
            || self.params.master(part) != self.machine
            || self.finished_parts.contains(&part)
        {
            // Stale proposal from a phase we already left, or a partition
            // whose stream we already finished — in both cases Equation 2
            // evaluates with D = 0 and must reject, so skip the
            // remaining-bytes round trip.
            ctx.send(
                self.machine,
                Addr::Compute(from),
                Msg::StealReply {
                    part,
                    accept: false,
                },
                CONTROL_BYTES,
            );
            return;
        }
        self.steal_queries.entry(part).or_default().push_back(from);
        self.maybe_query_remaining(ctx, part);
    }

    fn maybe_query_remaining(&mut self, ctx: &mut Ctx<P>, part: usize) {
        if self.query_inflight.contains(&part) {
            return;
        }
        if self
            .steal_queries
            .get(&part)
            .map(|q| q.is_empty())
            .unwrap_or(true)
        {
            return;
        }
        self.query_inflight.insert(part);
        // "It estimates the value of D by multiplying the amount of edge or
        // update data still to be processed on the local storage engine by
        // the number of machines" (§5.4).
        ctx.send(
            self.machine,
            Addr::Storage(self.machine),
            Msg::RemainingReq {
                part,
                kind: self.phase_kind_data(self.phase),
                from: self.machine,
            },
            CONTROL_BYTES,
        );
    }

    fn on_remaining(&mut self, ctx: &mut Ctx<P>, part: usize, local_bytes: u64) {
        self.query_inflight.remove(&part);
        let Some(q) = self.steal_queries.get_mut(&part) else {
            return;
        };
        let Some(proposer) = q.pop_front() else {
            return;
        };
        let mut d = (local_bytes * self.m() as u64) as f64;
        // Selectivity-aware steal criterion: `bytes_remaining` counts
        // *stored* bytes, but under selective streaming only the live
        // fraction of them becomes work — the rest is consumed unread.
        // Scale D by this engine's observed live fraction for the current
        // scatter iteration so stealers stop chasing work that will be
        // skipped (a fully-skipped remainder offers D = 0 and is never
        // handed out). Deterministic and identical in the reference mode,
        // which makes the same skip decisions.
        if self.phase == PhaseKind::Scatter && self.activity_on() {
            d *= self
                .selectivity
                .get(self.iter as usize)
                .map_or(1.0, IterSelectivity::live_fraction);
        }
        let v = self.params.vertex_part_bytes(part) as f64;
        let h = 1.0 + self.stealers.get(&part).map(Vec::len).unwrap_or(0) as f64;
        let alpha = self.cfg.steal_alpha;
        // Equation 2 with the α bias of §10.2: V + D/(H+1) < α·D/H.
        let accept = d > 0.0 && (v + d / (h + 1.0)) < alpha * (d / h);
        if accept {
            self.stealers.entry(part).or_default().push(proposer);
        }
        ctx.send(
            self.machine,
            Addr::Compute(proposer),
            Msg::StealReply { part, accept },
            CONTROL_BYTES,
        );
        self.maybe_query_remaining(ctx, part);
    }

    fn on_steal_reply(&mut self, ctx: &mut Ctx<P>, part: usize, accept: bool) {
        if !self.scan.awaiting.remove(&part) {
            return; // Stale reply after an abort.
        }
        if accept {
            self.scan.accepted.push_back(part);
        }
        self.advance(ctx);
    }

    // ------------------------------------------------------------------
    // Barrier + checkpoint
    // ------------------------------------------------------------------

    fn maybe_barrier(&mut self, ctx: &mut Ctx<P>) {
        if self.barrier_sent
            || self.work.is_some()
            || self.gather_finish.is_some()
            || self.waiting_getaccums.is_some()
            || !self.own_queue.is_empty()
            || !self.scan.finished()
            || self.pending_write_acks != 0
        {
            return;
        }
        match self.phase {
            PhaseKind::Scatter | PhaseKind::Gather => {}
            _ => return,
        }
        if self.cfg.checkpoint && self.phase == PhaseKind::Gather {
            match self.ckpt {
                CkptState::Idle => {
                    self.start_checkpoint(ctx);
                    return;
                }
                CkptState::Copy(_) => return,
                CkptState::Done => {}
            }
        }
        self.arrive_barrier(ctx);
    }

    fn start_checkpoint(&mut self, ctx: &mut Ctx<P>) {
        let mut pending = 0;
        for &part in &self.my_parts {
            for c in 0..self.params.vertex_chunks(part) {
                pending += 1;
                ctx.send(
                    self.machine,
                    Addr::Storage(self.params.vertex_home(part, c)),
                    Msg::CheckpointChunk {
                        part,
                        chunk_no: c,
                        from: self.machine,
                    },
                    CONTROL_BYTES,
                );
            }
        }
        if pending == 0 {
            self.ckpt = CkptState::Done;
            self.arrive_barrier(ctx);
        } else {
            self.ckpt = CkptState::Copy(pending);
        }
    }

    fn on_ckpt_ack(&mut self, ctx: &mut Ctx<P>) {
        match self.ckpt {
            CkptState::Copy(n) => {
                if n == 1 {
                    // Copy complete; the coordinator drives phase two (the
                    // commit round) once every machine has arrived.
                    self.ckpt = CkptState::Done;
                    self.arrive_barrier(ctx);
                } else {
                    self.ckpt = CkptState::Copy(n - 1);
                }
            }
            _ => panic!("checkpoint ack in state {:?}", self.ckpt),
        }
    }

    fn arrive_barrier(&mut self, ctx: &mut Ctx<P>) {
        debug_assert!(!self.barrier_sent);
        self.barrier_sent = true;
        self.arrive_time = ctx.now;
        let agg = std::mem::take(&mut self.agg);
        ctx.send(
            self.machine,
            Addr::Coordinator,
            Msg::BarrierArrive {
                from: self.machine,
                agg,
            },
            CONTROL_BYTES,
        );
    }

    fn on_release(
        &mut self,
        ctx: &mut Ctx<P>,
        next: PhaseKind,
        iter: u32,
        agg: IterationAggregates,
        done: bool,
    ) {
        self.breakdown.barrier += ctx.now - self.arrive_time;
        if done {
            self.done = true;
            return;
        }
        match next {
            PhaseKind::VertexInit => self.start_vertex_init(ctx),
            PhaseKind::Scatter => {
                if iter > 0 && self.replayed_iters < iter {
                    // Synchronize program phase state with the coordinator's
                    // end-of-iteration decision (deterministic). Guarded so
                    // a redo release after an abort does not replay a
                    // transition this engine already made — end_iteration
                    // is exactly-once per completed iteration. The state
                    // about to be mutated is snapshotted first: a depth-2
                    // checkpoint fallback rewinds exactly one replayed
                    // transition.
                    self.prog_snaps.retain(|(i, _)| *i != self.replayed_iters);
                    self.prog_snaps
                        .push((self.replayed_iters, self.program.clone()));
                    if self.prog_snaps.len() > 2 {
                        self.prog_snaps.remove(0);
                    }
                    let _ = self.program.end_iteration(iter - 1, &agg);
                    self.replayed_iters = iter;
                }
                self.start_phase(ctx, PhaseKind::Scatter, iter);
            }
            PhaseKind::Gather => self.start_phase(ctx, PhaseKind::Gather, iter),
            PhaseKind::Preprocess => unreachable!("preprocess is never re-entered"),
        }
    }

    // ------------------------------------------------------------------
    // Failure recovery
    // ------------------------------------------------------------------

    fn on_abort(&mut self, ctx: &mut Ctx<P>, gen: u32, iter: u32, rewind: bool) {
        self.gen = gen;
        ctx.gen = gen;
        if rewind {
            // Depth-2 checkpoint fallback: iteration `iter` reruns, so the
            // end_iteration transition this engine replayed on entering
            // `iter + 1` must be un-done — restore the program state
            // captured just before that replay.
            if let Some((_, p)) = self.prog_snaps.iter().find(|(i, _)| *i == iter) {
                self.program = p.clone();
            }
            self.replayed_iters = iter;
        }
        self.work = None;
        // Partial update output of the aborted phase dies with it (the
        // buffers used to live on the PartWork; now they are pooled on the
        // engine and must be emptied explicitly).
        for b in &mut self.out_bufs {
            b.clear();
        }
        self.flush_scratch.clear();
        self.gather_finish = None;
        self.waiting_getaccums = None;
        self.pending_getaccums.clear();
        self.stealers.clear();
        self.finished_parts.clear();
        self.steal_queries.clear();
        self.query_inflight.clear();
        self.pending_write_acks = 0;
        self.pending_dir_writes.clear();
        self.scan = StealScan::idle();
        self.own_queue.clear();
        self.agg = IterationAggregates::default();
        self.barrier_sent = false;
        self.ckpt = CkptState::Idle;
        self.iter = iter;
        // The redone iteration re-records its selectivity account from
        // scratch; the aborted attempt's partial counts die with it.
        // (`iter` is the resume iteration, so a crash that advances past a
        // completed iteration keeps that iteration's row.)
        self.selectivity.truncate(iter as usize);
        ctx.send(
            self.machine,
            Addr::Coordinator,
            Msg::AbortAck { fallback: false },
            CONTROL_BYTES,
        );
    }

}

// ----------------------------------------------------------------------
// Dispatch
// ----------------------------------------------------------------------

impl<P: GasProgram> Actor for ComputeEngine<P> {
    type Addr = Addr;
    type Msg = Msg<P>;

    fn generation(&self) -> u32 {
        self.gen
    }

    /// Handles one message.
    fn handle(&mut self, ctx: &mut Ctx<P>, msg: Msg<P>) {
        match msg {
            Msg::InputChunkResp { source, data } => {
                self.on_input_chunk(ctx, Some(source), data);
            }
            Msg::EdgeChunkResp {
                part,
                source,
                entry,
                data,
                skipped,
            } => {
                self.on_edge_skips(part, &skipped);
                // A partial (block-granular) serve carries only the active
                // block runs — rewriting the stored entry from it would
                // drop the skipped blocks, so it must never seed a
                // compaction. Both the selective and the reference serve
                // path mark the same serves partial, keeping the
                // suppression deterministic.
                let origin = if skipped.partial {
                    None
                } else {
                    Some((source, entry))
                };
                self.on_stream_chunk(ctx, part, Some(source), data, |d| Work::ScatterChunk {
                    part,
                    data: d,
                    origin,
                });
            }
            Msg::UpdateChunkResp { part, source, data } => {
                self.on_stream_chunk(ctx, part, Some(source), data, |d| Work::GatherChunk {
                    part,
                    data: d,
                });
            }
            Msg::VertexChunkResp {
                part,
                chunk_no,
                data,
            } => self.on_vertex_chunk(ctx, part, chunk_no, data),
            Msg::WriteAck { kind } => {
                match kind {
                    WriteKind::Checkpoint => self.on_ckpt_ack(ctx),
                    _ => {
                        self.pending_write_acks -= 1;
                        match self.phase {
                            PhaseKind::Preprocess => self.maybe_finish_preprocess(ctx),
                            PhaseKind::VertexInit => self.maybe_arrive_simple(ctx),
                            _ => self.maybe_barrier(ctx),
                        }
                    }
                }
            }
            Msg::DegreeContrib { part, counts, from } => {
                self.on_degree_contrib(ctx, part, &counts, from)
            }
            Msg::DegreeAck => {
                self.pp.degree_acks_pending -= 1;
                self.maybe_finish_preprocess(ctx);
            }
            Msg::StealPropose { part, phase, from } => {
                self.on_steal_propose(ctx, part, phase, from)
            }
            Msg::StealReply { part, accept } => self.on_steal_reply(ctx, part, accept),
            Msg::RemainingResp { part, bytes } => self.on_remaining(ctx, part, bytes),
            Msg::GetAccums { part, from: _ } => {
                if let Some((p, accums)) = self.waiting_getaccums.take() {
                    if p == part {
                        self.breakdown.merge_wait += ctx.now - self.getaccums_wait_since;
                        self.send_accums(ctx, part, accums);
                        self.advance(ctx);
                        return;
                    }
                    self.waiting_getaccums = Some((p, accums));
                }
                if let Some(idx) = self.scan.accepted.iter().position(|&q| q == part) {
                    // Accepted but never started: the master finished its
                    // stream already, so abandon the steal and hand back
                    // identity accumulators.
                    self.scan.accepted.remove(idx);
                    let n = self.params.spec.len(part) as usize;
                    let empty: Arc<Vec<P::Accum>> =
                        Arc::new((0..n).map(|_| P::Accum::default()).collect());
                    self.send_accums(ctx, part, empty);
                    self.advance(ctx);
                    return;
                }
                self.pending_getaccums.insert(part);
            }
            Msg::Accums {
                part,
                accums,
                from: _,
            } => {
                let mut fin = self
                    .gather_finish
                    .take()
                    .expect("accums only arrive while the master waits");
                debug_assert_eq!(fin.part, part);
                fin.collected.push(accums);
                fin.awaiting -= 1;
                if fin.awaiting == 0 {
                    self.breakdown.merge_wait += ctx.now - fin.wait_started;
                    self.schedule_apply(ctx, &mut fin);
                }
                self.gather_finish = Some(fin);
            }
            Msg::Processed { work } => match work {
                Work::BinInputChunk { data } => self.bin_input_chunk(ctx, data),
                Work::ScatterChunk { part, data, origin } => {
                    self.scatter_chunk(ctx, part, data, origin)
                }
                Work::GatherChunk { part, data } => self.gather_chunk(ctx, part, data),
                Work::ApplyPartition { part } => self.apply_partition(ctx, part),
                Work::InitPartition { part } => self.init_partition(ctx, part),
            },
            Msg::BarrierRelease {
                next,
                iter,
                agg,
                done,
            } => self.on_release(ctx, next, iter, agg, done),
            Msg::Abort {
                gen,
                iter,
                commit: _,
                torn: _,
                rewind,
            } => self.on_abort(ctx, gen, iter, rewind),
            Msg::DirWriteResp {
                part,
                kind,
                engine,
            } => self.on_dir_write_resp(ctx, part, kind, engine),
            Msg::DirReadResp {
                part,
                kind,
                engine,
            } => self.on_dir_read_resp(ctx, part, kind, engine),
            other => panic!("compute engine got unexpected message {other:?}"),
        }
    }
}

// Directory plumbing ---------------------------------------------------

impl<P: GasProgram> ComputeEngine<P> {
    fn on_dir_write_resp(
        &mut self,
        ctx: &mut Ctx<P>,
        part: usize,
        kind: DataKind,
        engine: usize,
    ) {
        let pending = self
            .pending_dir_writes
            .pop_front()
            .expect("directory write response without a pending write");
        match (pending, kind) {
            (
                PendingDirWrite::Edges {
                    part: p,
                    reverse,
                    data,
                },
                DataKind::Edges | DataKind::EdgesReverse,
            ) => {
                debug_assert_eq!(p, part);
                let bytes = data.len() as u64 * self.params.edge_bytes;
                ctx.send(
                    self.machine,
                    Addr::Storage(engine),
                    Msg::WriteEdgeChunk {
                        part,
                        reverse,
                        data,
                        from: self.machine,
                    },
                    bytes + CONTROL_BYTES,
                );
            }
            (PendingDirWrite::Updates { part: p, data }, DataKind::Updates) => {
                debug_assert_eq!(p, part);
                let bytes = data.len() as u64 * self.params.update_bytes;
                ctx.send(
                    self.machine,
                    Addr::Storage(engine),
                    Msg::WriteUpdateChunk {
                        part,
                        data,
                        from: self.machine,
                    },
                    bytes + CONTROL_BYTES,
                );
            }
            _ => panic!("directory response kind mismatch"),
        }
    }

    fn on_dir_read_resp(
        &mut self,
        ctx: &mut Ctx<P>,
        part: usize,
        kind: DataKind,
        engine: Option<usize>,
    ) {
        match kind {
            DataKind::Input => match engine {
                Some(e) => {
                    ctx.send(
                        self.machine,
                        Addr::Storage(e),
                        Msg::InputChunkReq { from: self.machine },
                        CONTROL_BYTES,
                    );
                }
                None => self.on_input_chunk(ctx, None, None),
            },
            DataKind::Edges | DataKind::EdgesReverse => match engine {
                Some(e) => {
                    ctx.send(
                        self.machine,
                        Addr::Storage(e),
                        Msg::EdgeChunkReq {
                            part,
                            reverse: kind == DataKind::EdgesReverse,
                            from: self.machine,
                            // Centralized placement keeps dense streaming
                            // (see `activity_on`).
                            active: None,
                        },
                        CONTROL_BYTES,
                    );
                }
                None => self.on_stream_chunk::<Edge>(ctx, part, None, None, |_| unreachable!()),
            },
            DataKind::Updates => match engine {
                Some(e) => {
                    ctx.send(
                        self.machine,
                        Addr::Storage(e),
                        Msg::UpdateChunkReq {
                            part,
                            from: self.machine,
                        },
                        CONTROL_BYTES,
                    );
                }
                None => self
                    .on_stream_chunk::<Update<P::Update>>(ctx, part, None, None, |_| {
                        unreachable!()
                    }),
            },
        }
    }

}

/// Picks a uniformly random engine that is neither already requested nor
/// exhausted; under locality placement only `local` is eligible. With
/// `oversubscribe`, a second request may target an already-busy engine
/// (windows larger than the machine count, §6.5's past-the-sweet-spot
/// regime).
fn pick_engine(
    rng: &mut Rng,
    requested: &[u32],
    exhausted: &[bool],
    local: Option<usize>,
    oversubscribe: bool,
) -> Option<usize> {
    if let Some(l) = local {
        // LocalOnly: allow multiple outstanding requests to the single
        // eligible engine (its device queue serializes them).
        return (!exhausted[l]).then_some(l);
    }
    // Same distribution and rng consumption as indexing into a collected
    // Vec of candidates: one draw over the idle engines if there are any,
    // else (oversubscribed) one over the live ones.
    let idle = pick_kth(
        rng,
        requested.iter().zip(exhausted).map(|(&r, &x)| r == 0 && !x),
    );
    if idle.is_some() || !oversubscribe {
        return idle;
    }
    pick_kth(rng, exhausted.iter().map(|&x| !x))
}

/// A uniform pick among the positions where `eligible` yields `true`: one
/// `below(count)` draw, then the drawn-th such position; `None`, and no
/// draw, when there is none. This runs once per chunk request with an
/// eligibility that is close to a coin flip per engine, so neither pass
/// branches on it: the count is a sum, and the select packs 64 engines to
/// a word and clears the low set bits.
fn pick_kth(rng: &mut Rng, mut eligible: impl Iterator<Item = bool> + Clone) -> Option<usize> {
    let count: u64 = eligible.clone().map(u64::from).sum();
    if count == 0 {
        return None;
    }
    let mut k = rng.below(count) as u32;
    for base in (0..).step_by(64) {
        let mut word = eligible
            .by_ref()
            .take(64)
            .enumerate()
            .fold(0u64, |w, (i, ok)| w | u64::from(ok) << i);
        let ones = word.count_ones();
        if k < ones {
            for _ in 0..k {
                word &= word - 1;
            }
            return Some(base + word.trailing_zeros() as usize);
        }
        k -= ones;
    }
    unreachable!("the draw is below the eligible count")
}

#[cfg(test)]
mod tests {
    use super::pick_engine;
    use chaos_sim::Rng;

    /// Steady-state allocation regression: once warm, streaming a chunk
    /// through the scatter or gather kernel must not allocate. Flush
    /// boundaries (a full buffer leaving in an `Arc`) are the one
    /// sanctioned allocation point and are kept out of these loops.
    mod allocation_free {
        use std::sync::Arc;

        use chaos_gas::{Control, GasProgram, IterationAggregates};
        use chaos_graph::{Edge, PartitionSpec, VertexId};
        use chaos_runtime::Actor;
        use chaos_sim::Rng;

        use crate::alloc_count::thread_allocations;
        use crate::compute_engine::{ComputeEngine, PartWork};
        use crate::config::ChaosConfig;
        use crate::msg::{Msg, PhaseKind, Work};
        use crate::runtime::{Ctx, RunParams};

        /// Minimal branch-free program: every edge emits an update.
        #[derive(Clone)]
        struct Flood;

        impl GasProgram for Flood {
            type VertexState = u64;
            type Update = u64;
            type Accum = u64;

            fn name(&self) -> &'static str {
                "Flood"
            }

            fn init(&self, v: VertexId, _d: u64) -> u64 {
                v
            }

            fn scatter(&self, _v: VertexId, state: &u64, edge: &Edge, _i: u32) -> Option<u64> {
                Some(state ^ edge.dst)
            }

            fn gather(&self, acc: &mut u64, _dst: VertexId, _s: &u64, payload: &u64) {
                *acc = acc.wrapping_add(*payload);
            }

            fn merge(&self, into: &mut u64, from: &u64) {
                *into = into.wrapping_add(*from);
            }

            fn apply(&self, _v: VertexId, _s: &mut u64, _a: &u64, _i: u32) -> bool {
                false
            }

            fn end_iteration(&mut self, _i: u32, _a: &IterationAggregates) -> Control {
                Control::Done
            }
        }

        /// An engine frozen mid-stream on partition 0 of a 4-partition
        /// layout, with enough in-flight accounting that no chunk
        /// completes the stream (so handlers do pure kernel work).
        fn mid_stream_engine(phase: PhaseKind) -> ComputeEngine<Flood> {
            let cfg = Arc::new(ChaosConfig::new(2));
            let spec = PartitionSpec::with_partitions(256, 4);
            let params = Arc::new(RunParams::new(&cfg, spec, 20, 16, 8));
            let mut eng =
                ComputeEngine::new(0, Arc::clone(&cfg), params, Flood, Rng::new(7));
            eng.phase = phase;
            let mut w = PartWork::new(2);
            w.reset(0, false, 0);
            w.vertices = (0..64u64).collect();
            if phase == PhaseKind::Gather {
                w.accums = vec![0u64; 64];
            }
            w.loaded = true;
            w.outstanding = 1; // Keeps the stream open across chunks.
            w.inflight_compute = 1_000_000;
            eng.work = Some(w);
            eng
        }

        #[test]
        fn scatter_chunk_is_allocation_free_after_warmup() {
            let mut eng = mid_stream_engine(PhaseKind::Scatter);
            let edges: Arc<Vec<Edge>> = Arc::new(
                (0..512).map(|i| Edge::new(i % 64, (i * 7) % 256)).collect(),
            );
            let mut ctx = Ctx::new(0, 0);
            let chunk = |eng: &mut ComputeEngine<Flood>, ctx: &mut Ctx<Flood>| {
                eng.handle(
                    ctx,
                    Msg::Processed {
                        work: Work::ScatterChunk {
                            part: 0,
                            data: Arc::clone(&edges),
                            origin: None,
                        },
                    },
                );
            };
            // Warm-up: grow the pooled output buffers to their steady
            // capacity, then empty them the way a partition boundary does
            // (capacity is retained).
            for _ in 0..4 {
                chunk(&mut eng, &mut ctx);
            }
            for b in &mut eng.out_bufs {
                b.clear();
            }
            let before = thread_allocations();
            for _ in 0..4 {
                chunk(&mut eng, &mut ctx);
            }
            assert_eq!(
                thread_allocations() - before,
                0,
                "steady-state scatter chunks must not allocate"
            );
        }

        #[test]
        fn gather_chunk_is_allocation_free() {
            let mut eng = mid_stream_engine(PhaseKind::Gather);
            let updates: Arc<Vec<chaos_gas::Update<u64>>> = Arc::new(
                (0..512u64)
                    .map(|i| chaos_gas::Update {
                        dst: i % 64,
                        payload: i,
                    })
                    .collect(),
            );
            let mut ctx = Ctx::new(0, 0);
            let before = thread_allocations();
            for _ in 0..8 {
                eng.handle(
                    &mut ctx,
                    Msg::Processed {
                        work: Work::GatherChunk {
                            part: 0,
                            data: Arc::clone(&updates),
                        },
                    },
                );
            }
            assert_eq!(
                thread_allocations() - before,
                0,
                "gather chunks never allocate, warm or cold"
            );
        }
    }

    /// The selectivity-aware steal criterion: Equation 2's D is the
    /// stored remaining bytes scaled by this engine's observed live
    /// fraction for the current scatter iteration.
    mod steal_scaling {
        use std::sync::Arc;

        use chaos_gas::{ActivityModel, Control, GasProgram, IterationAggregates};
        use chaos_graph::{Edge, PartitionSpec, VertexId};
        use chaos_sim::Rng;

        use crate::compute_engine::ComputeEngine;
        use crate::config::ChaosConfig;
        use crate::metrics::IterSelectivity;
        use crate::msg::PhaseKind;
        use crate::runtime::{Ctx, RunParams};

        /// Frontier program that never scatters (only the activity model
        /// matters here).
        #[derive(Clone)]
        struct Sparse;

        impl GasProgram for Sparse {
            type VertexState = u64;
            type Update = u64;
            type Accum = u64;

            fn name(&self) -> &'static str {
                "Sparse"
            }

            fn init(&self, v: VertexId, _d: u64) -> u64 {
                v
            }

            fn scatter(&self, _v: VertexId, _s: &u64, _e: &Edge, _i: u32) -> Option<u64> {
                None
            }

            fn gather(&self, _acc: &mut u64, _dst: VertexId, _s: &u64, _p: &u64) {}

            fn merge(&self, _into: &mut u64, _from: &u64) {}

            fn apply(&self, _v: VertexId, _s: &mut u64, _a: &u64, _i: u32) -> bool {
                false
            }

            fn end_iteration(&mut self, _i: u32, _a: &IterationAggregates) -> Control {
                Control::Done
            }

            fn activity(&self) -> ActivityModel {
                ActivityModel::Frontier
            }

            fn is_active(&self, _v: VertexId, _s: &u64, _i: u32) -> bool {
                false
            }
        }

        fn scatter_master() -> ComputeEngine<Sparse> {
            let cfg = Arc::new(ChaosConfig::new(2));
            let spec = PartitionSpec::with_partitions(256, 4);
            let params = Arc::new(RunParams::new(&cfg, spec, 20, 16, 8));
            let mut eng = ComputeEngine::new(0, cfg, params, Sparse, Rng::new(1));
            eng.phase = PhaseKind::Scatter;
            eng.steal_queries.entry(0).or_default().push_back(1);
            eng
        }

        #[test]
        fn fully_skipped_remainder_is_never_handed_out() {
            let mut eng = scatter_master();
            // Everything observed this iteration was skipped unread:
            // D scales to zero, so plentiful stored bytes still reject.
            eng.selectivity = vec![IterSelectivity {
                records_skipped: 10_000,
                ..Default::default()
            }];
            let mut ctx = Ctx::new(0, 0);
            eng.on_remaining(&mut ctx, 0, 1 << 20);
            assert!(
                eng.stealers.get(&0).is_none_or(Vec::is_empty),
                "a fully-skippable remainder offers no work"
            );
        }

        #[test]
        fn live_stream_still_accepts() {
            let mut eng = scatter_master();
            // Same stored bytes, but the stream is observed fully live:
            // V + D/2 < D holds and the proposal is accepted.
            eng.selectivity = vec![IterSelectivity {
                edge_records_streamed: 10_000,
                ..Default::default()
            }];
            let mut ctx = Ctx::new(0, 0);
            eng.on_remaining(&mut ctx, 0, 1 << 20);
            assert_eq!(eng.stealers.get(&0).map(Vec::len), Some(1));
        }

        #[test]
        fn unobserved_iteration_defaults_to_dense() {
            let mut eng = scatter_master();
            // No selectivity account yet: live fraction defaults to 1.
            let mut ctx = Ctx::new(0, 0);
            eng.on_remaining(&mut ctx, 0, 1 << 20);
            assert_eq!(eng.stealers.get(&0).map(Vec::len), Some(1));
        }
    }

    /// `pick_engine` as it was before the eligibility mask — two filtered
    /// scans per draw — kept as the oracle for the test below.
    fn pick_engine_two_scan(
        rng: &mut Rng,
        requested: &[u32],
        exhausted: &[bool],
        local: Option<usize>,
        oversubscribe: bool,
    ) -> Option<usize> {
        if let Some(l) = local {
            return (!exhausted[l]).then_some(l);
        }
        let idle = (0..requested.len())
            .filter(|&e| requested[e] == 0 && !exhausted[e])
            .count();
        if idle > 0 {
            let k = rng.below(idle as u64) as usize;
            return (0..requested.len())
                .filter(|&e| requested[e] == 0 && !exhausted[e])
                .nth(k);
        }
        if oversubscribe {
            let live = exhausted.iter().filter(|&&x| !x).count();
            if live > 0 {
                let k = rng.below(live as u64) as usize;
                return (0..exhausted.len()).filter(|&e| !exhausted[e]).nth(k);
            }
        }
        None
    }

    /// Same engine, same rng state afterwards, over random request and
    /// exhaustion states — sparse, dense, all busy, all exhausted — at
    /// machine counts on both sides of the mask's 64-engine word.
    #[test]
    fn pick_engine_matches_the_two_scan_oracle() {
        let mut gen = Rng::new(0xE1161B1E);
        for machines in [1usize, 7, 32, 64, 65, 130] {
            for case in 0..600u64 {
                // Out of 8: how many engines are busy, how many exhausted.
                let (busy, gone) = (gen.below(10), gen.below(10));
                let requested: Vec<u32> = (0..machines)
                    .map(|_| u32::from(gen.below(8) < busy) * (1 + gen.below(3) as u32))
                    .collect();
                let exhausted: Vec<bool> = (0..machines).map(|_| gen.below(8) < gone).collect();
                let local = (gen.below(4) == 0).then(|| gen.below(machines as u64) as usize);
                let oversubscribe = gen.below(2) == 0;
                let mut rng = Rng::new(case).derive(machines as u64);
                let mut oracle_rng = rng.clone();
                // Several draws per state: the rng states must stay in step.
                for _ in 0..4 {
                    assert_eq!(
                        pick_engine(&mut rng, &requested, &exhausted, local, oversubscribe),
                        pick_engine_two_scan(
                            &mut oracle_rng,
                            &requested,
                            &exhausted,
                            local,
                            oversubscribe
                        ),
                        "m={machines} case={case} requested={requested:?} exhausted={exhausted:?}"
                    );
                    assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "rng out of step");
                }
            }
        }
    }

    #[test]
    fn pick_engine_prefers_idle_engines() {
        let mut rng = Rng::new(1);
        // Engine 0 has an in-flight request; only engine 1 is eligible.
        for _ in 0..32 {
            assert_eq!(
                pick_engine(&mut rng, &[1, 0], &[false, false], None, true),
                Some(1)
            );
        }
    }

    /// Regression: with an oversubscribed window, two requests may be in
    /// flight to one engine. After the *first* response the engine must
    /// still count as busy — a boolean flag would have marked it free and
    /// skewed the window accounting.
    #[test]
    fn one_response_does_not_clear_a_doubly_requested_engine() {
        let mut rng = Rng::new(2);
        let mut requested = vec![0u32, 0];
        // Window of 3 over 2 engines: one request each, then the fallback
        // doubles up on engine 0.
        requested[0] += 1;
        requested[1] += 1;
        requested[0] += 1;
        // First response from engine 0 arrives; one request is still in
        // flight there.
        requested[0] = requested[0].saturating_sub(1);
        assert_eq!(requested[0], 1, "second request still in flight");
        // With booleans the response would have freed engine 0 and the
        // next pick could target it as "idle"; with counts there is no
        // idle engine, so a non-oversubscribed pick finds nothing.
        assert_eq!(
            pick_engine(&mut rng, &requested, &[false, false], None, false),
            None
        );
        // Once the second response drains engine 0, it is idle again.
        requested[0] = requested[0].saturating_sub(1);
        for _ in 0..32 {
            assert_eq!(
                pick_engine(&mut rng, &requested, &[false, false], None, false),
                Some(0)
            );
        }
    }

    #[test]
    fn oversubscribe_falls_back_to_busy_engines_only_when_all_are_busy() {
        let mut rng = Rng::new(3);
        let requested = vec![1u32, 2];
        // Without oversubscription: nothing to pick.
        assert_eq!(
            pick_engine(&mut rng, &requested, &[false, false], None, false),
            None
        );
        // With oversubscription: any non-exhausted engine may be doubled up.
        let pick = pick_engine(&mut rng, &requested, &[false, true], None, true);
        assert_eq!(pick, Some(0), "exhausted engines are never picked");
    }

    #[test]
    fn local_only_ignores_inflight_counts() {
        let mut rng = Rng::new(4);
        // LocalOnly placement funnels everything to one engine; its device
        // queue serializes, so in-flight counts do not gate it.
        assert_eq!(
            pick_engine(&mut rng, &[5, 0], &[false, false], Some(0), false),
            Some(0)
        );
        assert_eq!(
            pick_engine(&mut rng, &[5, 0], &[true, false], Some(0), false),
            None,
            "but an exhausted local engine ends the stream"
        );
    }
}
