//! The computation engine actor (§5 of the paper, Figure 4).
//!
//! One computation engine runs per machine. Per iteration it executes the
//! scatter phase over its own partitions, then steals from other masters;
//! after the scatter barrier it executes gather (+ apply) the same way.
//! All storage access goes through the chunk protocol with a window of φk
//! outstanding requests to distinct, randomly chosen storage engines
//! (§6.5). This module is the phase state machine and the message
//! dispatch; pre-processing ([`crate::preprocess`]), work stealing
//! ([`crate::steal`]) and the master's gather-apply (`crate::apply`)
//! each keep their state and decisions in a module of their own.

use std::collections::VecDeque;
use std::sync::Arc;

use chaos_gas::{
    ActiveSet, ActivityModel, Direction, EdgeRef, GasProgram, IterationAggregates, LocalUpdate,
};
use chaos_graph::VertexId;
use chaos_runtime::Actor;
use chaos_sim::rng::mix2;
use chaos_sim::{Resource, Rng, Time};

use crate::apply::GatherFinish;
use crate::config::{ChaosConfig, Placement};
use crate::metrics::{Breakdown, IterSelectivity};
use crate::msg::{DataKind, EdgeChunk, EdgeWrite, Msg, PhaseKind, SkipInfo, Work, WriteKind};
use crate::preprocess::Preprocess;
use crate::runtime::{Addr, Ctx, Post, RunParams};
use crate::sink::{self, CountSink, Cursors};
use crate::steal::{remaining_work, Steal};
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

/// Recycled partition-sized buffers: the hot-path ownership discipline.
/// Buffers that stay on this engine are recycled; buffers handed off in an
/// `Arc` — update chunks, stolen accumulators — are the protocol's to keep.
struct Pool<T>(Vec<Vec<T>>);

impl<T> Pool<T> {
    /// An empty buffer, with a recycled one's capacity when there is one.
    fn take(&mut self) -> Vec<T> {
        self.0.pop().unwrap_or_default()
    }

    /// Returns a buffer, cleared. Capacity-less buffers (fields already
    /// moved elsewhere) are dropped so the pool stays balanced at one-in,
    /// one-out.
    fn give(&mut self, mut v: Vec<T>) {
        if v.capacity() > 0 {
            v.clear();
            self.0.push(v);
        }
    }
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

    pp: Preprocess<P::HeldEdge>,

    own_queue: VecDeque<usize>,
    work: Option<PartWork<P>>,
    /// Retired [`PartWork`] carcass recycled by the next partition.
    spare_work: Option<PartWork<P>>,
    /// Scatter output buffers, one per destination partition. Owned by the
    /// engine (not per-[`PartWork`]) so their capacity survives across
    /// partitions and phases; flushing swaps a full buffer out instead of
    /// reallocating it (see [`ComputeEngine::flush_updates`]).
    out_bufs: Vec<Vec<LocalUpdate<P::Update>>>,
    /// The scatter sink's scratch: one cursor per output buffer, and the
    /// partitions whose buffer filled during the current chunk (fill
    /// order).
    cursors: Cursors<P::Update>,
    /// Recycled vertex-state buffers.
    states: Pool<P::VertexState>,
    /// Recycled accumulator buffers.
    accums: Pool<P::Accum>,
    steal: Steal<P::Accum>,
    gather_finish: Option<GatherFinish<P>>,

    pending_write_acks: usize,
    pending_inits: usize,
    ckpt: CkptState,
    /// Built chunk writes parked under centralized placement until the
    /// directory names their engine: `(part, kind, message)`.
    pending_dir_writes: VecDeque<(usize, DataKind, Msg<P>)>,

    agg: IterationAggregates,
    barrier_sent: bool,
    arrive_time: Time,
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
        let cpu = Resource::new(cfg.cores as u64 * 1_000_000_000, 0);
        let pp = Preprocess::new(&params, program.uses_reverse_edges());
        let cursors = Cursors::new(&params.spec, params.updates_per_chunk);
        Self {
            machine,
            params,
            program,
            rng,
            cpu,
            gen: 0,
            phase: PhaseKind::Preprocess,
            iter: 0,
            pp,
            my_parts,
            own_queue: VecDeque::new(),
            work: None,
            spare_work: None,
            out_bufs: (0..parts).map(|_| Vec::new()).collect(),
            cursors,
            states: Pool(Vec::new()),
            accums: Pool(Vec::new()),
            steal: Steal::new(parts),
            gather_finish: None,
            pending_write_acks: 0,
            pending_inits: 0,
            ckpt: CkptState::Idle,
            pending_dir_writes: VecDeque::new(),
            agg: IterationAggregates::default(),
            barrier_sent: false,
            arrive_time: 0,
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
    fn chunk_cost(&self, records: u64) -> u64 {
        records * self.cfg.ns_per_record + self.cfg.msg_cpu_ns
    }

    /// Retires a finished partition's work state: buffers return to the
    /// pools, the carcass is recycled by the next [`PartWork`].
    fn retire_work(&mut self, mut w: PartWork<P>) {
        self.states.give(std::mem::take(&mut w.vertices));
        self.accums.give(std::mem::take(&mut w.accums));
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
        DataKind::edges(self.program.direction() == Direction::In)
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

    /// Bins one input chunk. A filled buffer is written at once, which
    /// takes the whole engine, so `pp` is moved out for the pass.
    fn bin_input_chunk(&mut self, ctx: &mut Ctx<P>, data: EdgeChunk<P>) {
        let (mut pp, params) = (std::mem::take(&mut self.pp), Arc::clone(&self.params));
        pp.bin(&params, &data, |part, reverse, chunk| {
            self.write_edges(ctx, part, reverse, chunk)
        });
        self.pp = pp;
        self.pp.win.inflight_compute -= 1;
        self.maybe_finish_preprocess(ctx);
    }

    fn write_edges(&mut self, ctx: &mut Ctx<P>, part: usize, reverse: bool, data: EdgeChunk<P>) {
        let key = data[0].key(reverse);
        let msg = Msg::WriteEdgeChunk {
            part,
            reverse,
            data,
            from: self.machine,
        };
        self.send_write(ctx, part, DataKind::edges(reverse), msg, |eng| {
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
        target: impl FnOnce(&mut Self) -> usize,
    ) {
        self.pending_write_acks += 1;
        if self.centralized() {
            self.pending_dir_writes.push_back((part, kind, msg));
            let ask = Msg::DirWrite {
                part,
                kind,
                from: self.machine,
            };
            return ctx.post(&self.params, self.machine, Addr::Directory, ask);
        }
        let to = target(self);
        ctx.post(&self.params, self.machine, Addr::Storage(to), msg);
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

    /// Once the input stream drained, flushes the partial edge buffers and
    /// ships the partial degree counts to the partition masters.
    fn maybe_finish_preprocess(&mut self, ctx: &mut Ctx<P>) {
        if self.phase != PhaseKind::Preprocess {
            return;
        }
        if !self.barrier_sent && !self.pp.flushed && self.pp.win.drained() {
            self.check_window_idle(&self.pp.win, None, ctx.now);
            self.flush_edges(ctx);
            for (part, entries) in self.pp.take_counts(&self.params) {
                let msg = Msg::DegreeContrib {
                    part,
                    counts: Arc::new(entries),
                    from: self.machine,
                };
                let master = Addr::Compute(self.params.master(part));
                ctx.post(&self.params, self.machine, master, msg);
            }
        }
        self.maybe_barrier(ctx);
    }

    /// Writes the partial edge buffers out. Under the clustered layout they
    /// are tiny, so a message per buffer would multiply pre-processing
    /// traffic by the bin count: they are grouped by their bin-home engine
    /// into one batched write each, and the storage side merges each
    /// element into its open buffer.
    fn flush_edges(&mut self, ctx: &mut Ctx<P>) {
        let (mut pp, params) = (std::mem::take(&mut self.pp), Arc::clone(&self.params));
        if params.cluster.bins() == 1 || self.centralized() {
            pp.flush(&params, |part, reverse, chunk| {
                self.write_edges(ctx, part, reverse, chunk)
            });
        } else {
            let mut batches: Vec<Vec<EdgeWrite<P>>> = (0..self.m()).map(|_| Vec::new()).collect();
            pp.flush(&params, |part, reverse, data| {
                let target = self.edge_write_target(part, reverse, data[0].key(reverse));
                batches[target].push(EdgeWrite {
                    part,
                    reverse,
                    data,
                });
            });
            for (target, writes) in batches.into_iter().enumerate() {
                if writes.is_empty() {
                    continue;
                }
                self.pending_write_acks += 1;
                let msg = Msg::WriteEdgeBatch {
                    writes,
                    from: self.machine,
                };
                ctx.post(&params, self.machine, Addr::Storage(target), msg);
            }
        }
        self.pp = pp;
    }

    // ------------------------------------------------------------------
    // Vertex initialization
    // ------------------------------------------------------------------

    fn start_vertex_init(&mut self, ctx: &mut Ctx<P>) {
        self.phase = PhaseKind::VertexInit;
        self.barrier_sent = false;
        self.pending_inits = self.my_parts.len();
        for i in 0..self.my_parts.len() {
            let part = self.my_parts[i];
            let cost = self.chunk_cost(self.params.spec.len(part));
            self.schedule_work(ctx, cost, Work::InitPartition { part });
        }
        self.maybe_barrier(ctx);
    }

    fn init_partition(&mut self, ctx: &mut Ctx<P>, part: usize) {
        let range = self.params.spec.range(part);
        let base = range.start;
        let mut states = self.states.take();
        states.extend(range.map(|v| {
            let deg = self.pp.degree(part, (v - base) as usize);
            self.program.init(v, deg)
        }));
        self.write_vertex_set(ctx, part, &states);
        self.states.give(states);
        self.pending_inits -= 1;
        self.maybe_barrier(ctx);
    }

    /// Writes a full vertex set as chunks to their home engines.
    fn write_vertex_set(&mut self, ctx: &mut Ctx<P>, part: usize, states: &[P::VertexState]) {
        for c in 0..self.params.vertex_chunks(part) {
            let rows = self.params.vertex_chunk_rows(part, c);
            let data = Arc::new(states[rows].to_vec());
            let home = self.params.vertex_home(part, c);
            self.pending_write_acks += 1;
            let msg = Msg::WriteVertexChunk {
                part,
                chunk_no: c,
                data,
                from: self.machine,
            };
            ctx.post(&self.params, self.machine, Addr::Storage(home), msg);
        }
    }

    // ------------------------------------------------------------------
    // Scatter / gather phase driving
    // ------------------------------------------------------------------

    fn start_phase(&mut self, ctx: &mut Ctx<P>, phase: PhaseKind, iter: u32) {
        // VertexInit, the one reader of the out-degrees, is over.
        self.pp.free_degrees();
        self.phase = phase;
        self.iter = iter;
        self.barrier_sent = false;
        self.ckpt = CkptState::Idle;
        self.own_queue.clear();
        self.own_queue.extend(self.my_parts.iter().copied());
        // Steal-scan candidates: every partition not owned by us (§5.3).
        let (params, me) = (&self.params, self.machine);
        let foreign = (0..params.spec.num_partitions).filter(|&p| params.master(p) != me);
        self.steal.arm(foreign, &mut self.rng);
        self.advance(ctx);
    }

    /// Whether a partition is being worked, applied or handed back, or the
    /// barrier is reached: nothing new starts then.
    fn busy(&self) -> bool {
        let streaming = self.work.is_some() || self.gather_finish.is_some();
        self.barrier_sent || streaming || self.steal.holding()
    }

    /// Moves to the next unit of work: own partitions first, then stealing,
    /// then the barrier.
    fn advance(&mut self, ctx: &mut Ctx<P>) {
        if self.done || self.busy() {
            return;
        }
        if let Some(p) = self.own_queue.pop_front() {
            self.start_partition(ctx, p, false);
            return;
        }
        // Steal scan: fan out one proposal per foreign partition.
        for &part in self.steal.proposals(self.cfg.steal_alpha) {
            let msg = Msg::StealPropose {
                part,
                phase: self.phase,
                from: self.machine,
            };
            let master = Addr::Compute(self.params.master(part));
            ctx.post(&self.params, self.machine, master, msg);
        }
        if let Some(p) = self.steal.next_accepted() {
            self.start_partition(ctx, p, true);
            return;
        }
        self.maybe_barrier(ctx);
    }

    fn start_partition(&mut self, ctx: &mut Ctx<P>, part: usize, stolen: bool) {
        debug_assert!(self.work.is_none());
        let mut w = match self.spare_work.take() {
            Some(w) => w,
            None => PartWork::new(self.m()),
        };
        w.reset(part, stolen, ctx.now);
        let n = self.params.spec.len(part) as usize;
        w.vertices = self.states.take();
        w.vertices.resize(n, P::VertexState::default());
        if self.phase == PhaseKind::Gather {
            w.accums = self.accums.take();
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
            let msg = Msg::VertexChunkReq {
                part,
                chunk_no: c,
                from: self.machine,
            };
            ctx.post(&self.params, self.machine, Addr::Storage(home), msg);
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
            let msg = match to {
                Addr::Directory => Msg::DirRead {
                    part,
                    kind,
                    from: me,
                },
                _ => Msg::chunk_req(kind, part, me, active.clone()),
            };
            ctx.post(&self.params, me, to, msg);
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
                let cost = self.chunk_cost(records as u64);
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

    /// In debug builds, checks that an engine arriving at a scatter
    /// barrier holds no update: every output buffer and the fill-order
    /// list are empty.
    fn check_updates_flushed(&self, now: Time) {
        let held = |tp: &usize| !self.out_bufs[*tp].is_empty();
        debug_assert!(
            self.phase != PhaseKind::Scatter
                || (self.out_bufs.iter().all(Vec::is_empty) && self.cursors.full.is_empty()),
            "scatter barrier reached with updates held for partitions {:?} (fill-order list \
             {:?}): machine {}, iteration {}, t={now} ns",
            (0..self.out_bufs.len()).filter(held).collect::<Vec<_>>(),
            self.cursors.full,
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
        // The sink routes updates into the pooled per-partition buffers.
        // In steady state (no buffer crossing its flush threshold) this
        // path performs no allocation.
        self.agg.updates_produced += sink::scatter_chunk(
            &self.program,
            base,
            &w.vertices,
            &data,
            self.iter,
            &mut self.out_bufs,
            &mut self.cursors,
        );
        w.win.inflight_compute -= 1;
        if self.params.selective {
            // The live side of the skip account: what actually streamed
            // (feeds the steal criterion's density correction).
            let n = data.len() as u64;
            self.sel_mut().edge_records_streamed += n;
        }
        let mut k = 0;
        while k < self.cursors.full.len() {
            let tp = self.cursors.full[k];
            k += 1;
            self.flush_updates(ctx, tp);
        }
        self.cursors.full.clear();
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
        let dead = self.program.dead_edges(base, &w.vertices, data, self.iter);
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
        let sel = self.sel_mut();
        sel.edges_tombstoned += dead;
        sel.compactions += 1;
        self.pending_write_acks += 1;
        let msg = Msg::ReplaceEdgeChunk {
            part,
            reverse,
            entry,
            data: Arc::new(survivors),
            from: self.machine,
        };
        ctx.post(&self.params, self.machine, Addr::Storage(source), msg);
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
        let msg = Msg::WriteUpdateChunk {
            part,
            data,
            from: self.machine,
        };
        self.send_write(ctx, part, DataKind::Updates, msg, |eng| {
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
            self.steal.finish(part);
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
                if let Some(accums) = self.steal.hand_back(part, accums, ctx.now) {
                    self.send_accums(ctx, part, accums);
                    self.advance(ctx);
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
        // Shipping accumulators is load-balancing overhead ("copy").
        let nic = Resource::new(self.cfg.fabric.nic_bytes_per_sec, 0);
        self.breakdown.copy += nic.transfer_time(self.params.vertex_part_bytes(part));
        let msg = Msg::Accums {
            part,
            accums,
            from: self.machine,
        };
        let master = Addr::Compute(self.params.master(part));
        ctx.post(&self.params, self.machine, master, msg);
    }

    fn master_finish_gather(
        &mut self,
        ctx: &mut Ctx<P>,
        part: usize,
        vertices: Vec<P::VertexState>,
        accums: Vec<P::Accum>,
    ) {
        let stealers = &self.steal.stealers[part];
        for &s in stealers {
            let msg = Msg::GetAccums {
                part,
                from: self.machine,
            };
            ctx.post(&self.params, self.machine, Addr::Compute(s), msg);
        }
        let fin = GatherFinish::new(part, vertices, accums, stealers.len(), ctx.now);
        if fin.ready() {
            self.schedule_apply(ctx, part, fin.records());
        }
        self.gather_finish = Some(fin);
    }

    /// Merge and apply cost the master's CPU by the records they touch.
    fn schedule_apply(&mut self, ctx: &mut Ctx<P>, part: usize, records: u64) {
        let cost = self.chunk_cost(records);
        self.breakdown.merge += cost / self.cfg.cores as u64;
        self.schedule_work(ctx, cost, Work::ApplyPartition { part });
    }

    fn apply_partition(&mut self, ctx: &mut Ctx<P>, part: usize) {
        let fin = self
            .gather_finish
            .take()
            .expect("apply without finish state");
        debug_assert_eq!(fin.part, part);
        let base = self.params.spec.range(part).start;
        let (states, accums) = fin.apply(&self.program, base, self.iter, &mut self.agg);
        // Write the new vertex values back and drop the update set (§6.1);
        // the partition-sized buffers return to the engine pools.
        self.write_vertex_set(ctx, part, &states);
        self.states.give(states);
        self.accums.give(accums);

        for s in 0..self.m() {
            let msg = Msg::DeleteUpdates { part };
            ctx.post(&self.params, self.machine, Addr::Storage(s), msg);
        }
        self.advance(ctx);
    }

    // ------------------------------------------------------------------
    // Stealing (master side)
    // ------------------------------------------------------------------

    fn maybe_query_remaining(&mut self, ctx: &mut Ctx<P>, part: usize) {
        if self.steal.query(part) {
            let msg = Msg::RemainingReq {
                part,
                kind: self.phase_kind_data(self.phase),
                from: self.machine,
            };
            let local = Addr::Storage(self.machine);
            ctx.post(&self.params, self.machine, local, msg);
        }
    }

    /// Answers the oldest proposal for `part` now that local storage
    /// reported `local_bytes` of it left.
    fn on_remaining(&mut self, ctx: &mut Ctx<P>, part: usize, local_bytes: u64) {
        let selective_scatter = self.phase == PhaseKind::Scatter && self.params.selective;
        let account = self.selectivity.get(self.iter as usize);
        let d = remaining_work(local_bytes, self.m(), account.filter(|_| selective_scatter));
        let v = self.params.vertex_part_bytes(part) as f64;
        let answer = self.steal.on_remaining(part, v, d, self.cfg.steal_alpha);
        if let Some((proposer, accept)) = answer {
            let msg = Msg::StealReply { part, accept };
            ctx.post(&self.params, self.machine, Addr::Compute(proposer), msg);
            self.maybe_query_remaining(ctx, part);
        }
    }

    // ------------------------------------------------------------------
    // Barrier + checkpoint
    // ------------------------------------------------------------------

    /// Arrives at the barrier once the phase's work is done and every
    /// write acknowledged: pre-processing flushed with its degree counts
    /// acknowledged, every owned vertex set initialized, or — in scatter
    /// and gather — the own partitions, the steal scan and every apply and
    /// hand-back finished. With checkpointing on, the vertex states are
    /// first copied into the checkpoint area at the VertexInit barrier
    /// (giving iteration 0 a committed snapshot to roll back to) and at
    /// every gather barrier.
    fn maybe_barrier(&mut self, ctx: &mut Ctx<P>) {
        let done = match self.phase {
            PhaseKind::Preprocess => self.pp.flushed && self.pp.acks_pending == 0,
            PhaseKind::VertexInit => self.pending_inits == 0,
            PhaseKind::Scatter | PhaseKind::Gather => {
                !self.busy() && self.own_queue.is_empty() && self.steal.scan_finished()
            }
        };
        if self.barrier_sent || !done || self.pending_write_acks != 0 {
            return;
        }
        if self.cfg.checkpoint && matches!(self.phase, PhaseKind::VertexInit | PhaseKind::Gather) {
            match self.ckpt {
                CkptState::Idle => return self.start_checkpoint(ctx),
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
                let msg = Msg::CheckpointChunk {
                    part,
                    chunk_no: c,
                    from: self.machine,
                };
                let home = Addr::Storage(self.params.vertex_home(part, c));
                ctx.post(&self.params, self.machine, home, msg);
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
        self.check_updates_flushed(ctx.now);
        self.barrier_sent = true;
        self.arrive_time = ctx.now;
        let agg = std::mem::take(&mut self.agg);
        let msg = Msg::BarrierArrive {
            from: self.machine,
            agg,
        };
        ctx.post(&self.params, self.machine, Addr::Coordinator, msg);
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
        self.cursors.full.clear();
        self.gather_finish = None;
        self.steal.reset();
        self.pending_write_acks = 0;
        self.pending_dir_writes.clear();
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
        let ack = Msg::AbortAck { fallback: false };
        ctx.post(&self.params, self.machine, Addr::Coordinator, ack);
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
            Msg::WriteAck {
                kind: WriteKind::Checkpoint,
            } => self.on_ckpt_ack(ctx),
            Msg::WriteAck { .. } => {
                self.pending_write_acks -= 1;
                self.maybe_barrier(ctx);
            }
            Msg::DegreeContrib { part, counts, from } => {
                debug_assert_eq!(self.params.master(part), self.machine);
                self.pp.add_counts(&self.params, part, &counts);
                let ack = Msg::DegreeAck;
                ctx.post(&self.params, self.machine, Addr::Compute(from), ack);
            }
            Msg::DegreeAck => {
                self.pp.acks_pending -= 1;
                self.maybe_barrier(ctx);
            }
            Msg::StealPropose { part, phase, from } => {
                let stale = phase != self.phase || self.params.master(part) != self.machine;
                if self.steal.propose(part, from, stale) {
                    self.maybe_query_remaining(ctx, part);
                } else {
                    let msg = Msg::StealReply {
                        part,
                        accept: false,
                    };
                    ctx.post(&self.params, self.machine, Addr::Compute(from), msg);
                }
            }
            Msg::StealReply { part, accept } => {
                if self.steal.on_reply(part, accept) {
                    self.advance(ctx);
                }
            }
            Msg::RemainingResp { part, bytes } => self.on_remaining(ctx, part, bytes),
            Msg::GetAccums { part, from: _ } => {
                let len = self.params.spec.len(part) as usize;
                if let Some((accums, since)) = self.steal.on_get_accums(part, len, ctx.now) {
                    self.breakdown.merge_wait += ctx.now - since;
                    self.send_accums(ctx, part, accums);
                    self.advance(ctx);
                }
            }
            Msg::Accums {
                part,
                accums,
                from: _,
            } => {
                let fin = self
                    .gather_finish
                    .as_mut()
                    .expect("accums only arrive while the master waits");
                debug_assert_eq!(fin.part, part);
                if let Some(waited) = fin.collect(accums, ctx.now) {
                    let records = fin.records();
                    self.breakdown.merge_wait += waited;
                    self.schedule_apply(ctx, part, records);
                }
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
                let (p, k, msg) = self
                    .pending_dir_writes
                    .pop_front()
                    .expect("directory write response without a parked write");
                assert_eq!(
                    (p, k),
                    (part, kind),
                    "directory write responses arrive in request order (per-link FIFO)"
                );
                ctx.post(&self.params, self.machine, Addr::Storage(engine), msg);
            }
            Msg::DirReadResp { part, kind, engine } => match engine {
                // Centralized placement keeps dense streaming (see
                // `RunParams::selective`): no active summary.
                Some(e) => {
                    let msg = Msg::chunk_req(kind, part, self.machine, None);
                    ctx.post(&self.params, self.machine, Addr::Storage(e), msg);
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

#[cfg(test)]
mod tests {
    /// Steady-state allocation regression: once warm, streaming a chunk
    /// through the scatter or gather kernel must not allocate. Flush
    /// boundaries (a full buffer leaving in an `Arc`) are the one
    /// sanctioned allocation point and are kept out of these loops.
    mod allocation_free {
        use std::sync::Arc;

        use chaos_algos::pagerank::{Pagerank, RankSum};
        use chaos_gas::{BareEdge, EdgeRecord, LocalUpdate};
        use chaos_graph::{Edge, PartitionSpec};
        use chaos_runtime::Actor;
        use chaos_sim::Rng;

        use crate::alloc_count::thread_allocations;
        use crate::compute_engine::{ComputeEngine, PartWork};
        use crate::config::ChaosConfig;
        use crate::msg::{Msg, PhaseKind, Work};
        use crate::runtime::{Ctx, Layout, RunParams};

        /// An engine frozen mid-stream on partition 0 of a 4-partition
        /// layout, with enough in-flight accounting that no chunk
        /// completes the stream (so handlers do pure kernel work). Every
        /// vertex has out-degree 1, so every edge emits an update.
        fn mid_stream_engine(phase: PhaseKind) -> ComputeEngine<Pagerank> {
            let cfg = Arc::new(ChaosConfig::new(2));
            let spec = PartitionSpec::with_partitions(256, 4);
            let params = Arc::new(RunParams::new(
                &cfg,
                spec,
                20,
                16,
                8,
                false,
                Layout::DEFAULT,
            ));
            let mut eng = ComputeEngine::new(0, cfg, params, Pagerank::new(1), Rng::new(7));
            eng.phase = phase;
            let mut w = PartWork::new(2);
            w.reset(0, false, 0);
            w.vertices = vec![(1.0, 1); 64];
            if phase == PhaseKind::Gather {
                w.accums = vec![RankSum::default(); 64];
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
            let chunk = |eng: &mut ComputeEngine<Pagerank>, ctx: &mut Ctx<Pagerank>| {
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
            let updates: Arc<Vec<LocalUpdate<f32>>> = Arc::new(
                (0..512u32)
                    .map(|i| LocalUpdate {
                        off: i % 64,
                        payload: i as f32,
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

    /// The checks at the phase boundaries, on an engine without a
    /// `Cluster`.
    mod boundaries {
        use std::sync::Arc;

        use chaos_algos::pagerank::Pagerank;
        use chaos_gas::LocalUpdate;
        use chaos_graph::PartitionSpec;
        use chaos_sim::Rng;

        use crate::compute_engine::ComputeEngine;
        use crate::config::ChaosConfig;
        use crate::msg::PhaseKind;
        use crate::runtime::{Ctx, Layout, RunParams};

        /// Machine 0 of two, owning partitions 0 and 2 of four, before
        /// VertexInit.
        fn engine() -> ComputeEngine<Pagerank> {
            let cfg = Arc::new(ChaosConfig::new(2));
            let spec = PartitionSpec::with_partitions(256, 4);
            let params = RunParams::new(&cfg, spec, 20, 16, 8, false, Layout::DEFAULT);
            ComputeEngine::new(0, cfg, Arc::new(params), Pagerank::new(1), Rng::new(7))
        }

        /// Drives an engine with nothing left to stream to the scatter
        /// barrier at t = 5 ns.
        fn arrive_at_scatter_barrier(eng: &mut ComputeEngine<Pagerank>) {
            eng.phase = PhaseKind::Scatter;
            eng.advance(&mut Ctx::new(5, 0));
            assert!(eng.barrier_sent, "the engine arrived");
        }

        #[test]
        #[cfg(debug_assertions)]
        #[should_panic(
            expected = "scatter barrier reached with updates held for partitions [2] \
                                   (fill-order list []): machine 0, iteration 0, t=5 ns"
        )]
        fn an_unflushed_update_at_the_scatter_barrier_is_named() {
            arrive_at_scatter_barrier(&mut engine());
            let mut eng = engine();
            // The planted bug: an update the stream's end did not flush.
            eng.out_bufs[2].push(LocalUpdate {
                off: 0,
                payload: 1.0,
            });
            arrive_at_scatter_barrier(&mut eng);
        }

        #[test]
        #[should_panic(expected = "out-degree tables used after VertexInit freed them")]
        fn degree_tables_are_freed_when_vertex_init_ends() {
            let mut eng = engine();
            let mut ctx = Ctx::new(0, 0);
            let params = Arc::clone(&eng.params);
            eng.pp.add_counts(&params, 0, &[(3, 2)]);
            eng.start_vertex_init(&mut ctx);
            for part in [0, 2] {
                eng.init_partition(&mut ctx, part);
            }
            assert_eq!(eng.pp.degree(0, 3), 2, "VertexInit reads the tables");
            eng.on_release(&mut ctx, PhaseKind::Scatter, 0, Pagerank::new(1), false);
            eng.pp.degree(0, 3);
        }
    }
}
