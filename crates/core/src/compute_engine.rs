//! The computation engine actor (§5 of the paper, Figure 4).
//!
//! One computation engine runs per machine. Per iteration it executes the
//! scatter phase over its own partitions, then steals from other masters;
//! after the scatter barrier it executes gather (+ apply) the same way.
//! All storage access goes through the chunk protocol with a window of φk
//! outstanding requests to distinct, randomly chosen storage engines
//! (§6.5). The steal criterion is Equation 2 with the α bias of §10.2.

use std::collections::VecDeque;
use std::sync::Arc;

use chaos_gas::{
    ActiveSet, ActivityModel, Direction, EdgeRef, GasProgram, IterationAggregates, LocalUpdate,
};
use chaos_graph::VertexId;
use chaos_runtime::Actor;
use chaos_sim::rng::mix2;
use chaos_sim::{Resource, Rng, Time};

use crate::config::{ChaosConfig, Placement};
use crate::metrics::{Breakdown, IterSelectivity};
use crate::msg::{
    DataKind, EdgeChunk, EdgeWrite, Msg, PhaseKind, SkipInfo, Work, WriteKind, CONTROL_BYTES,
};
use crate::runtime::{Addr, Ctx, RunParams};
use crate::sink::{BlockSink, CountSink, PartitionSink};
use crate::window::ReadWindow;

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
    /// The partition stream's request window.
    win: ReadWindow,
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
            win: ReadWindow::new(machines),
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
        self.win.reset();
        self.active = None;
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
    awaiting: PartSet,
    accepted: VecDeque<usize>,
}

impl StealScan {
    fn idle(partitions: usize) -> Self {
        Self {
            candidates: Vec::new(),
            started: true,
            awaiting: PartSet::new(partitions),
            accepted: VecDeque::new(),
        }
    }

    /// Back to idle in place (an abort), keeping the tables.
    fn stop(&mut self) {
        self.candidates.clear();
        self.started = true;
        self.awaiting.clear();
        self.accepted.clear();
    }

    fn finished(&self) -> bool {
        self.started && self.awaiting.is_empty() && self.accepted.is_empty()
    }
}

/// A set of partition indices, dense over the partition count: a lookup on
/// the per-event path is an index, not a hash.
struct PartSet {
    member: Vec<bool>,
    len: usize,
}

impl PartSet {
    fn new(partitions: usize) -> Self {
        Self {
            member: vec![false; partitions],
            len: 0,
        }
    }

    fn contains(&self, part: usize) -> bool {
        self.member[part]
    }

    fn insert(&mut self, part: usize) {
        if !std::mem::replace(&mut self.member[part], true) {
            self.len += 1;
        }
    }

    /// Removes `part`; whether it was present.
    fn remove(&mut self, part: usize) -> bool {
        let was = std::mem::replace(&mut self.member[part], false);
        self.len -= usize::from(was);
        was
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn clear(&mut self) {
        if self.len > 0 {
            self.member.fill(false);
            self.len = 0;
        }
    }
}

/// Pre-processing progress.
struct Preprocess<P: GasProgram> {
    /// The input stream's request window.
    win: ReadWindow,
    edge_bufs: Vec<Vec<P::HeldEdge>>,
    redge_bufs: Vec<Vec<P::HeldEdge>>,
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
    /// Master-side dense degree vectors, by partition (empty until the
    /// first count of an owned partition arrives).
    degrees: Vec<Vec<u32>>,

    own_queue: VecDeque<usize>,
    work: Option<PartWork<P>>,
    /// Retired [`PartWork`] carcass recycled by the next partition.
    spare_work: Option<PartWork<P>>,
    /// Scatter output buffers, one per destination partition. Owned by the
    /// engine (not per-[`PartWork`]) so their capacity survives across
    /// partitions and phases; flushing swaps a full buffer out instead of
    /// reallocating it (see [`ComputeEngine::flush_updates`]).
    out_bufs: Vec<Vec<LocalUpdate<P::Update>>>,
    /// Scratch: partitions whose output buffer filled during the current
    /// chunk (fill order).
    flush_scratch: Vec<usize>,
    /// The scatter sink's block driver (one cursor per output buffer).
    sink: BlockSink<P::Update>,
    /// Recycled vertex-state buffers (partition-sized).
    state_pool: Vec<Vec<P::VertexState>>,
    /// Recycled accumulator buffers (partition-sized).
    accum_pool: Vec<Vec<P::Accum>>,
    scan: StealScan,
    gather_finish: Option<GatherFinish<P>>,
    waiting_getaccums: Option<(usize, Arc<Vec<P::Accum>>)>,
    pending_getaccums: PartSet,
    /// Stealers accepted per owned partition, this phase.
    stealers: Vec<Vec<usize>>,
    /// Owned partitions whose stream this engine completed this phase.
    /// Once a master finished a partition, every storage engine is
    /// exhausted for it (stream-done requires it), so its local
    /// remaining-bytes — and with it Equation 2's D — is provably zero:
    /// steal proposals are rejected immediately, without the
    /// master-to-storage remaining-bytes round trip.
    finished_parts: PartSet,
    /// Proposers queued for a remaining-bytes query, per partition.
    steal_queries: Vec<VecDeque<usize>>,
    /// Partitions with a RemainingReq in flight.
    query_inflight: PartSet,

    pending_write_acks: usize,
    pending_inits: usize,
    ckpt: CkptState,
    /// Built chunk writes parked under centralized placement until the
    /// directory names their engine: `(part, kind, message, wire bytes)`.
    pending_dir_writes: VecDeque<(usize, DataKind, Msg<P>, u64)>,

    agg: IterationAggregates,
    barrier_sent: bool,
    arrive_time: Time,
    getaccums_wait_since: Time,
    /// Per-machine Figure 17 breakdown.
    pub breakdown: Breakdown,
    /// Stolen-partition count (metrics).
    pub steals: u64,
    /// Edge + update records streamed through this engine's scatter/gather
    /// kernels (throughput accounting).
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
                win: ReadWindow::new(m),
                edge_bufs: (0..nbufs).map(|_| Vec::new()).collect(),
                redge_bufs: (0..nbufs).map(|_| Vec::new()).collect(),
                degree_counts: (0..parts).map(|_| Vec::new()).collect(),
                degree_acks_pending: 0,
                flushed: false,
                _marker: std::marker::PhantomData,
            },
            degrees: (0..parts).map(|_| Vec::new()).collect(),
            my_parts,
            own_queue: VecDeque::new(),
            work: None,
            spare_work: None,
            out_bufs: (0..parts).map(|_| Vec::new()).collect(),
            flush_scratch: Vec::new(),
            sink: BlockSink::new(parts),
            state_pool: Vec::new(),
            accum_pool: Vec::new(),
            scan: StealScan::idle(parts),
            gather_finish: None,
            waiting_getaccums: None,
            pending_getaccums: PartSet::new(parts),
            stealers: (0..parts).map(|_| Vec::new()).collect(),
            finished_parts: PartSet::new(parts),
            steal_queries: (0..parts).map(|_| VecDeque::new()).collect(),
            query_inflight: PartSet::new(parts),
            pending_write_acks: 0,
            pending_inits: 0,
            ckpt: CkptState::Idle,
            pending_dir_writes: VecDeque::new(),
            agg: IterationAggregates::default(),
            barrier_sent: false,
            arrive_time: 0,
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

    /// Whether shrinking-graph tombstoning/compaction applies.
    fn shrinking_on(&self) -> bool {
        self.params.selective && self.program.activity() == ActivityModel::Shrinking
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
        if self.phase != PhaseKind::Scatter || !self.params.selective {
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
        self.pump(ctx);
        self.maybe_finish_preprocess(ctx);
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

    fn bin_input_chunk(&mut self, ctx: &mut Ctx<P>, data: EdgeChunk<P>) {
        let reverse_too = self.program.uses_reverse_edges();
        let stride = self.params.spec.stride;
        let cluster = self.params.cluster;
        let bins = cluster.bins() as usize;
        for e in data.iter() {
            let (src, dst) = (e.src(), e.dst());
            let p = self.params.spec.partition_of(src);
            let dv = &mut self.pp.degree_counts[p];
            if dv.is_empty() {
                dv.resize(self.params.spec.len(p) as usize, 0);
            }
            dv[(src - p as u64 * stride) as usize] += 1;
            // Buffers are bin-pure: an edge lands in the buffer of its
            // partition *and* scatter-key sub-range, so every flushed
            // chunk covers at most one bin of the partition.
            let slot = p * bins + cluster.bin_of_offset(src - p as u64 * stride) as usize;
            self.pp.edge_bufs[slot].push(*e);
            if self.pp.edge_bufs[slot].len() >= self.params.edges_per_chunk {
                // Swap a pre-sized buffer in so the refill never regrows.
                let buf = &mut self.pp.edge_bufs[slot];
                let chunk = Arc::new(std::mem::replace(buf, Vec::with_capacity(buf.capacity())));
                self.write_edges(ctx, p, false, chunk);
            }
            if reverse_too {
                let rp = self.params.spec.partition_of(dst);
                let rslot = rp * bins + cluster.bin_of_offset(dst - rp as u64 * stride) as usize;
                self.pp.redge_bufs[rslot].push(*e);
                if self.pp.redge_bufs[rslot].len() >= self.params.edges_per_chunk {
                    let buf = &mut self.pp.redge_bufs[rslot];
                    let chunk =
                        Arc::new(std::mem::replace(buf, Vec::with_capacity(buf.capacity())));
                    self.write_edges(ctx, rp, true, chunk);
                }
            }
        }
        self.pp.win.inflight_compute -= 1;
        self.maybe_finish_preprocess(ctx);
    }

    fn write_edges(&mut self, ctx: &mut Ctx<P>, part: usize, reverse: bool, data: EdgeChunk<P>) {
        let key = if reverse {
            data[0].dst()
        } else {
            data[0].src()
        };
        let kind = if reverse {
            DataKind::EdgesReverse
        } else {
            DataKind::Edges
        };
        let bytes = data.len() as u64 * self.params.edge_bytes + CONTROL_BYTES;
        let msg = Msg::WriteEdgeChunk {
            part,
            reverse,
            data,
            from: self.machine,
        };
        self.send_write(ctx, part, kind, msg, bytes, |eng| {
            eng.edge_write_target(part, reverse, key)
        });
    }

    /// Sends a built chunk write to the engine `target` picks — or, under
    /// centralized placement, parks it and asks the directory instead
    /// (`target` is then never called, so it draws nothing).
    fn send_write(
        &mut self,
        ctx: &mut Ctx<P>,
        part: usize,
        kind: DataKind,
        msg: Msg<P>,
        bytes: u64,
        target: impl FnOnce(&mut Self) -> usize,
    ) {
        self.pending_write_acks += 1;
        if self.centralized() {
            self.pending_dir_writes.push_back((part, kind, msg, bytes));
            ctx.send(
                self.machine,
                Addr::Directory,
                Msg::DirWrite {
                    part,
                    kind,
                    from: self.machine,
                },
                CONTROL_BYTES,
            );
            return;
        }
        let to = target(self);
        ctx.send(self.machine, Addr::Storage(to), msg, bytes);
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

    fn maybe_finish_preprocess(&mut self, ctx: &mut Ctx<P>) {
        if self.phase != PhaseKind::Preprocess || self.barrier_sent {
            return;
        }
        if !self.pp.win.drained() {
            return;
        }
        if !self.pp.flushed {
            self.check_window_idle(&self.pp.win, None, ctx.now);
            self.pp.flushed = true;
            // Flush partial edge buffers (one per partition and bin).
            let bins = self.params.cluster.bins() as usize;
            if bins > 1 && !self.centralized() {
                // Clustered layout: the per-bin partials are tiny, so a
                // message per buffer would multiply pre-processing
                // traffic by the bin count. Group them by their bin-home
                // target and ship one batched write per engine; the
                // storage side merges each element into its open buffer.
                let mut batches: Vec<Vec<EdgeWrite<P>>> =
                    (0..self.m()).map(|_| Vec::new()).collect();
                let edge_bufs = std::mem::take(&mut self.pp.edge_bufs);
                let redge_bufs = std::mem::take(&mut self.pp.redge_bufs);
                for (reverse, bufs) in [(false, edge_bufs), (true, redge_bufs)] {
                    for (slot, buf) in bufs.into_iter().enumerate() {
                        if buf.is_empty() {
                            continue;
                        }
                        let part = slot / bins;
                        let key = if reverse { buf[0].dst() } else { buf[0].src() };
                        let target = self.edge_write_target(part, reverse, key);
                        batches[target].push(EdgeWrite {
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
        let dv = &mut self.degrees[part];
        if dv.is_empty() {
            *dv = vec![0u32; len];
        }
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
        let dv = &self.degrees[part];
        states.extend(range.clone().map(|v| {
            let deg = dv.get((v - base) as usize).copied().unwrap_or(0) as u64;
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

    /// Forgets the phase's steal bookkeeping, keeping the tables.
    fn clear_steal_tables(&mut self) {
        self.stealers.iter_mut().for_each(Vec::clear);
        self.steal_queries.iter_mut().for_each(VecDeque::clear);
        self.finished_parts.clear();
        self.query_inflight.clear();
        self.pending_getaccums.clear();
    }

    fn start_phase(&mut self, ctx: &mut Ctx<P>, phase: PhaseKind, iter: u32) {
        self.phase = phase;
        self.iter = iter;
        self.barrier_sent = false;
        self.ckpt = CkptState::Idle;
        self.own_queue.clear();
        self.own_queue.extend(self.my_parts.iter().copied());
        self.clear_steal_tables();
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
            self.pump(ctx);
            self.check_stream_done(ctx);
        }
    }

    /// Keeps the request window of the current stream full: the input
    /// stream in pre-processing, the current partition's stream after
    /// (once its vertex set is loaded).
    fn pump(&mut self, ctx: &mut Ctx<P>) {
        let part = match &self.work {
            _ if self.phase == PhaseKind::Preprocess => None,
            Some(w) if w.loaded => Some(w.part),
            _ => return,
        };
        let kind = self.phase_kind_data(self.phase);
        let local = self.local_only_target(part);
        let (me, window, centralized) = (self.machine, self.params.window, self.centralized());
        let (win, active) = match (part, &mut self.work) {
            (Some(_), Some(w)) => (&mut w.win, &w.active),
            _ => (&mut self.pp.win, &None),
        };
        let part = part.unwrap_or(0);
        while let Some(to) = win.next_target(&mut self.rng, window, centralized, local) {
            let (msg, bytes) = match to {
                Addr::Directory => (Msg::DirRead { part, kind, from: me }, CONTROL_BYTES),
                _ => chunk_req(kind, part, me, active.clone()),
            };
            ctx.send(me, to, msg, bytes);
        }
    }

    /// Books one reply of a chunk stream — of partition `part`, or the
    /// input stream — from storage engine `source` (`None`: the
    /// directory): a served chunk as `(records, work)` goes to the CPU, an
    /// exhausted notice may finish the stream. Replies for a partition no
    /// longer being worked are stale and dropped.
    fn on_chunk_resp(
        &mut self,
        ctx: &mut Ctx<P>,
        part: Option<usize>,
        source: Option<usize>,
        chunk: Option<(usize, Work<P>)>,
    ) {
        let local_only = self.cfg.placement == Placement::LocalOnly;
        let win = match (part, &mut self.work) {
            (None, _) => &mut self.pp.win,
            (Some(p), Some(w)) if w.part == p => &mut w.win,
            _ => return,
        };
        win.on_response(source, chunk.is_some(), local_only);
        match chunk {
            Some((records, work)) => {
                let cost = self.chunk_cost(records);
                self.schedule_work(ctx, cost, work);
                self.pump(ctx);
            }
            None => {
                self.pump(ctx);
                match part {
                    Some(_) => self.check_stream_done(ctx),
                    None => self.maybe_finish_preprocess(ctx),
                }
            }
        }
    }

    /// In debug builds, checks that a finished stream left no request in
    /// flight at any storage engine.
    fn check_window_idle(&self, win: &ReadWindow, part: Option<usize>, now: Time) {
        debug_assert!(
            win.requested.iter().all(|&r| r == 0),
            "{} stream finished with requests in flight {:?}: machine {}, iteration {}, \
             t={now} ns",
            part.map_or_else(|| "input".to_string(), |p| format!("partition {p}")),
            win.requested,
            self.machine,
            self.iter,
        );
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
            self.pump(ctx);
            self.check_stream_done(ctx);
        }
    }

    fn scatter_chunk(
        &mut self,
        ctx: &mut Ctx<P>,
        part: usize,
        data: EdgeChunk<P>,
        origin: Option<(usize, u32)>,
    ) {
        let base = self.params.spec.range(part).start;
        self.records_processed += data.len() as u64;
        let w = self.work.as_mut().expect("scatter work in progress");
        debug_assert_eq!(w.part, part);
        // The block driver routes updates into the pooled per-partition
        // buffers. In steady state (no buffer crossing its flush
        // threshold) this path performs no allocation.
        let produced = {
            let mut out = PartitionSink::new(
                &self.params.spec,
                &mut self.out_bufs,
                self.params.updates_per_chunk,
                &mut self.flush_scratch,
            );
            self.sink
                .scatter_chunk(&self.program, base, &w.vertices, &data, self.iter, &mut out);
            out.produced()
        };
        self.agg.updates_produced += produced;
        w.win.inflight_compute -= 1;
        if self.params.selective {
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
    /// permanently dead edges and, once dead density crosses
    /// `COMPACT_THRESHOLD`, ships the survivors back to the source
    /// storage engine as an in-place replacement. The serve-once-per-epoch
    /// protocol makes this engine the chunk's unique consumer this
    /// iteration, so exactly one replacement can target an entry per
    /// epoch.
    fn maybe_compact_chunk(
        &mut self,
        ctx: &mut Ctx<P>,
        data: &EdgeChunk<P>,
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
        /// Minimum dead-edge fraction of a chunk that pays for rewriting it.
        const COMPACT_THRESHOLD: f64 = 0.5;
        if dead == 0 || (dead as f64) < data.len() as f64 * COMPACT_THRESHOLD {
            return;
        }
        let reverse = self.program.direction() == Direction::In;
        let survivors: Vec<P::HeldEdge> = {
            let program = &self.program;
            let vertices = &w.vertices;
            let iter = self.iter;
            data.iter()
                .filter(|e| {
                    let v = if reverse { e.dst() } else { e.src() };
                    !program.edge_dead(v, &vertices[(v - base) as usize], &e.edge(), iter)
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
    /// debug builds, streams their payloads through the scatter kernel to
    /// enforce the activity contract: a skipped chunk or block must
    /// produce nothing.
    fn on_edge_skips(&mut self, part: usize, skipped: &SkipInfo<P>) {
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

    fn gather_chunk(
        &mut self,
        ctx: &mut Ctx<P>,
        part: usize,
        data: Arc<Vec<LocalUpdate<P::Update>>>,
    ) {
        let base = self.params.spec.range(part).start;
        self.records_processed += data.len() as u64;
        let w = self.work.as_mut().expect("gather work in progress");
        debug_assert_eq!(w.part, part);
        self.program
            .gather_chunk(base, &w.vertices, &mut w.accums, &data);
        w.win.inflight_compute -= 1;
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

    fn write_updates(
        &mut self,
        ctx: &mut Ctx<P>,
        part: usize,
        data: Arc<Vec<LocalUpdate<P::Update>>>,
    ) {
        if data.is_empty() {
            return;
        }
        let bytes = data.len() as u64 * self.params.update_bytes + CONTROL_BYTES;
        let msg = Msg::WriteUpdateChunk {
            part,
            data,
            from: self.machine,
        };
        self.send_write(ctx, part, DataKind::Updates, msg, bytes, |eng| {
            eng.local_only_target(Some(part))
                .unwrap_or_else(|| eng.rng.below(eng.m() as u64) as usize)
        });
    }

    /// Checks whether the current partition's stream is complete, and if so
    /// finishes the partition.
    fn check_stream_done(&mut self, ctx: &mut Ctx<P>) {
        match &self.work {
            Some(w) if w.loaded && w.win.drained() => {
                self.check_window_idle(&w.win, Some(w.part), ctx.now)
            }
            _ => return,
        }
        let mut w = self.work.take().expect("checked above");
        let (part, stolen) = (w.part, w.stolen);
        if stolen {
            self.breakdown.gp_stolen += ctx.now - w.loaded_at;
        } else {
            // Every engine is exhausted for this partition now, so its
            // remaining bytes are zero: later steal proposals can be
            // rejected without asking storage.
            self.finished_parts.insert(part);
            self.breakdown.gp_master += ctx.now - w.started;
        }
        match self.phase {
            PhaseKind::Scatter => {
                // Flush partial update buffers, then the partition is done.
                for tp in 0..self.out_bufs.len() {
                    self.flush_updates(ctx, tp);
                }
                self.retire_work(w);
                self.advance(ctx);
            }
            PhaseKind::Gather if stolen => {
                // Hand the accumulators to the master when asked (Figure 4,
                // line 52). The accumulator buffer leaves in an `Arc`; only
                // the rest of the work state is recycled.
                let accums = Arc::new(std::mem::take(&mut w.accums));
                self.retire_work(w);
                if self.pending_getaccums.remove(part) {
                    self.send_accums(ctx, part, accums);
                    self.advance(ctx);
                } else {
                    self.waiting_getaccums = Some((part, accums));
                    self.getaccums_wait_since = ctx.now;
                }
            }
            PhaseKind::Gather => {
                let vertices = std::mem::take(&mut w.vertices);
                let accums = std::mem::take(&mut w.accums);
                self.retire_work(w);
                self.master_finish_gather(ctx, part, vertices, accums);
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
        let stealers = &self.stealers[part];
        let mut fin = GatherFinish {
            part,
            vertices,
            accums,
            collected: Vec::new(),
            awaiting: stealers.len(),
            wait_started: ctx.now,
            applying: false,
        };
        for &s in stealers {
            ctx.send(
                self.machine,
                Addr::Compute(s),
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
            || self.finished_parts.contains(part)
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
        self.steal_queries[part].push_back(from);
        self.maybe_query_remaining(ctx, part);
    }

    fn maybe_query_remaining(&mut self, ctx: &mut Ctx<P>, part: usize) {
        if self.query_inflight.contains(part) || self.steal_queries[part].is_empty() {
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
        self.query_inflight.remove(part);
        let Some(proposer) = self.steal_queries[part].pop_front() else {
            return;
        };
        let mut d = (local_bytes * self.m() as u64) as f64;
        // Selectivity-aware steal criterion: `bytes_remaining` counts
        // *stored* bytes, but under selective streaming only the live
        // fraction of them becomes work — the rest is consumed unread.
        // Scale D by this engine's observed live fraction for the current
        // scatter iteration so stealers stop chasing work that will be
        // skipped (a fully-skipped remainder offers D = 0 and is never
        // handed out). Deterministic, and identical in debug builds, which
        // make the same skip decisions.
        if self.phase == PhaseKind::Scatter && self.params.selective {
            d *= self
                .selectivity
                .get(self.iter as usize)
                .map_or(1.0, IterSelectivity::live_fraction);
        }
        let v = self.params.vertex_part_bytes(part) as f64;
        let h = 1.0 + self.stealers[part].len() as f64;
        let alpha = self.cfg.steal_alpha;
        // Equation 2 with the α bias of §10.2: V + D/(H+1) < α·D/H.
        let accept = d > 0.0 && (v + d / (h + 1.0)) < alpha * (d / h);
        if accept {
            self.stealers[part].push(proposer);
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
        if !self.scan.awaiting.remove(part) {
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

    /// The coordinator released the barrier: adopt its program — the
    /// one end-of-iteration decision, rewound by the coordinator alone
    /// when recovery redoes iterations — and enter `next`.
    fn on_release(&mut self, ctx: &mut Ctx<P>, next: PhaseKind, iter: u32, program: P, done: bool) {
        self.breakdown.barrier += ctx.now - self.arrive_time;
        self.program = program;
        if done {
            self.done = true;
            return;
        }
        match next {
            PhaseKind::VertexInit => self.start_vertex_init(ctx),
            PhaseKind::Scatter | PhaseKind::Gather => self.start_phase(ctx, next, iter),
            PhaseKind::Preprocess => unreachable!("preprocess is never re-entered"),
        }
    }

    // ------------------------------------------------------------------
    // Failure recovery
    // ------------------------------------------------------------------

    fn on_abort(&mut self, ctx: &mut Ctx<P>, gen: u32, iter: u32) {
        self.gen = gen;
        ctx.gen = gen;
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
        self.clear_steal_tables();
        self.pending_write_acks = 0;
        self.pending_dir_writes.clear();
        self.scan.stop();
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
                let chunk = data.map(|data| (data.len(), Work::BinInputChunk { data }));
                self.on_chunk_resp(ctx, None, Some(source), chunk);
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
                let chunk =
                    data.map(|data| (data.len(), Work::ScatterChunk { part, data, origin }));
                self.on_chunk_resp(ctx, Some(part), Some(source), chunk);
            }
            Msg::UpdateChunkResp { part, source, data } => {
                let chunk = data.map(|data| (data.len(), Work::GatherChunk { part, data }));
                self.on_chunk_resp(ctx, Some(part), Some(source), chunk);
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
                program,
                done,
            } => self.on_release(ctx, next, iter, program, done),
            Msg::Abort { gen, iter, .. } => self.on_abort(ctx, gen, iter),
            Msg::DirWriteResp { part, kind, engine } => {
                let (p, k, msg, bytes) = self
                    .pending_dir_writes
                    .pop_front()
                    .expect("directory write response without a parked write");
                assert_eq!(
                    (p, k),
                    (part, kind),
                    "directory write responses arrive in request order (per-link FIFO)"
                );
                ctx.send(self.machine, Addr::Storage(engine), msg, bytes);
            }
            Msg::DirReadResp { part, kind, engine } => match engine {
                // Centralized placement keeps dense streaming (see
                // `RunParams::selective`): no active summary.
                Some(e) => {
                    let (msg, bytes) = chunk_req(kind, part, self.machine, None);
                    ctx.send(self.machine, Addr::Storage(e), msg, bytes);
                }
                None => {
                    let part = (kind != DataKind::Input).then_some(part);
                    self.on_chunk_resp(ctx, part, None, None);
                }
            },
            other => panic!("compute engine got unexpected message {other:?}"),
        }
    }
}

/// The request for the next chunk of a `kind` stream of `part` from
/// machine `from`, and its wire bytes. The active summary rides on every
/// edge request (and is charged for): requests are independent, so every
/// storage engine sees the frontier it needs for its skip decisions.
fn chunk_req<P: GasProgram>(
    kind: DataKind,
    part: usize,
    from: usize,
    active: Option<Arc<ActiveSet>>,
) -> (Msg<P>, u64) {
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

#[cfg(test)]
mod tests {
    /// Steady-state allocation regression: once warm, streaming a chunk
    /// through the scatter or gather kernel must not allocate. Flush
    /// boundaries (a full buffer leaving in an `Arc`) are the one
    /// sanctioned allocation point and are kept out of these loops.
    mod allocation_free {
        use std::sync::Arc;

        use chaos_gas::{
            BareEdge, Control, EdgeRecord, GasProgram, IterationAggregates, LocalUpdate,
        };
        use chaos_graph::{Edge, PartitionSpec, VertexId};
        use chaos_runtime::Actor;
        use chaos_sim::Rng;

        use crate::alloc_count::thread_allocations;
        use crate::compute_engine::{ComputeEngine, PartWork};
        use crate::config::ChaosConfig;
        use crate::msg::{Msg, PhaseKind, Work};
        use crate::runtime::{Ctx, Layout, RunParams};

        /// Minimal branch-free program: every edge emits an update.
        #[derive(Clone)]
        struct Flood;

        impl GasProgram for Flood {
            type VertexState = u64;
            type Update = u64;
            type Accum = u64;
            type HeldEdge = BareEdge;

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
            let params = Arc::new(RunParams::new(&cfg, spec, 20, 16, 8, false, Layout::DEFAULT));
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
            w.win.outstanding = 1; // Keeps the stream open across chunks.
            w.win.inflight_compute = 1_000_000;
            eng.work = Some(w);
            eng
        }

        #[test]
        fn scatter_chunk_is_allocation_free_after_warmup() {
            let mut eng = mid_stream_engine(PhaseKind::Scatter);
            let edges: Arc<Vec<BareEdge>> = Arc::new(
                (0..512)
                    .map(|i| BareEdge::pack(&Edge::new(i % 64, (i * 7) % 256)))
                    .collect(),
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
            let updates: Arc<Vec<LocalUpdate<u64>>> = Arc::new(
                (0..512u64)
                    .map(|i| LocalUpdate {
                        off: (i % 64) as u32,
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

        use chaos_gas::{ActivityModel, BareEdge, Control, GasProgram, IterationAggregates};
        use chaos_graph::{Edge, PartitionSpec, VertexId};
        use chaos_sim::Rng;

        use crate::compute_engine::ComputeEngine;
        use crate::config::ChaosConfig;
        use crate::metrics::IterSelectivity;
        use crate::msg::PhaseKind;
        use crate::runtime::{Ctx, Layout, RunParams};

        /// Frontier program that never scatters (only the activity model
        /// matters here).
        #[derive(Clone)]
        struct Sparse;

        impl GasProgram for Sparse {
            type VertexState = u64;
            type Update = u64;
            type Accum = u64;
            type HeldEdge = BareEdge;

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
            let params = Arc::new(RunParams::new(&cfg, spec, 20, 16, 8, true, Layout::DEFAULT));
            let mut eng = ComputeEngine::new(0, cfg, params, Sparse, Rng::new(1));
            eng.phase = PhaseKind::Scatter;
            eng.steal_queries[0].push_back(1);
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
                eng.stealers[0].is_empty(),
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
            assert_eq!(eng.stealers[0].len(), 1);
        }

        #[test]
        fn unobserved_iteration_defaults_to_dense() {
            let mut eng = scatter_master();
            // No selectivity account yet: live fraction defaults to 1.
            let mut ctx = Ctx::new(0, 0);
            eng.on_remaining(&mut ctx, 0, 1 << 20);
            assert_eq!(eng.stealers[0].len(), 1);
        }
    }
}
