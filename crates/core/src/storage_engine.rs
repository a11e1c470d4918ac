//! The storage engine actor (§6 of the paper).
//!
//! One storage engine runs per machine, co-located with the computation
//! engine (Figure 6). It owns the machine's device-queue model, the chunk
//! sets of every partition's edge and update data that happened to be
//! placed here, the vertex chunks that hash here, and the page-cache model.
//!
//! Key protocol properties implemented here:
//! - a chunk request is served *in its entirety* before the next (FIFO
//!   device, §6.2);
//! - any unprocessed chunk may be returned for a partition, but each chunk
//!   is served exactly once per iteration (§6.3) — this is what lets
//!   multiple computation engines share a partition without synchronizing;
//! - an exhausted engine says so immediately (metadata-only reply);
//! - update reads that fit the page cache bypass the device (§7, and the
//!   Conductance effect of §9.1).
//!
//! Every device transfer goes through the framed, fault-tolerant I/O of
//! [`crate::integrity`], which also holds the depth-2 checkpoint chain;
//! this module serves, seals and dispatches.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use chaos_gas::{EdgeRef, GasProgram, LocalUpdate, Record};
use chaos_runtime::Actor;
use chaos_sim::Time;
use chaos_storage::{
    seal_chunk, ChunkIndex, ChunkSet, Device, FileBacking, PageCache, SealScratch, VertexArray,
    FRAME_BYTES,
};

use crate::integrity::{CheckpointChain, FramedDevice, Repair};
use crate::metrics::WindowHistogram;
use crate::msg::{DataKind, EdgeChunk, Msg, SkipInfo, WriteKind};
use crate::runtime::{Addr, Ctx, Post, RunParams};

/// The backing file of one (structure, partition) pair.
fn backing_path(dir: &Path, name: &str, part: usize) -> PathBuf {
    dir.join(format!("{name}-{part}.dat"))
}

/// The chunk set of one (structure, partition) pair: in memory, or in
/// its backing file under `dir`.
fn chunk_set<T: Record>(
    dir: Option<&Path>,
    name: &str,
    part: usize,
    record_bytes: u64,
) -> Result<ChunkSet<T>, String> {
    let Some(dir) = dir else {
        return Ok(ChunkSet::in_memory(record_bytes));
    };
    let path = backing_path(dir, name, part);
    let file = FileBacking::create(&path)
        .map_err(|e| format!("cannot create backing file {}: {e}", path.display()))?;
    Ok(ChunkSet::file_backed(record_bytes, file))
}

/// Which of a partition's two edge sets, as files and panics name it.
fn edge_set_name(reverse: bool) -> &'static str {
    if reverse {
        "redges"
    } else {
        "edges"
    }
}

/// Unwraps a chunk-set operation on one (structure, partition) pair. An
/// in-memory set never fails; under `spill_dir` the set is a real file and
/// this is where a filesystem error or a checksum mismatch on stored
/// bytes arrives. There is no second copy to repair a real file from, so
/// the run stops, naming what failed.
fn chunk_io<T>(res: std::io::Result<T>, structure: &str, part: usize) -> T {
    res.unwrap_or_else(|e| panic!("{structure} chunk set of partition {part}: {e}"))
}

/// Moves records from the front of `rest` into the open buffer `buf` until
/// it holds `target` records, and then hands the buffer over whole, leaving
/// an empty one behind. The buffer grows with what arrives, so one that
/// never fills holds no more than its records; a chunk cut from it is
/// shrunk to its length, so a sealed chunk never carries spare capacity.
/// `None` once `rest` is used up short of the target.
fn fill_open_chunk<E: Clone>(
    buf: &mut Vec<E>,
    rest: &mut &[E],
    target: usize,
) -> Option<Arc<Vec<E>>> {
    let (head, tail) = rest.split_at(rest.len().min(target - buf.len()));
    buf.extend_from_slice(head);
    *rest = tail;
    (buf.len() == target && target > 0).then(|| {
        buf.shrink_to_fit();
        Arc::new(std::mem::take(buf))
    })
}

/// Latency of a metadata-only reply (exhausted notices, remaining-bytes
/// queries) and of page-cache hits.
const METADATA_NS: Time = 2_000;

/// The storage engine of one machine.
pub struct StorageEngine<P: GasProgram> {
    machine: usize,
    params: Arc<RunParams>,
    /// Protocol generation for failure recovery.
    pub gen: u32,
    /// The device behind its checksum frames, with this engine's share of
    /// the run's fault and integrity account.
    pub io: FramedDevice,
    cache: PageCache,
    /// This machine's spill directory, `spill_dir/machine-<i>/`, when the
    /// chunk sets live in files.
    dir: Option<PathBuf>,
    /// The unsorted input edge list's chunks held here. Read once, by
    /// pre-processing: each payload is handed over on serve
    /// ([`ChunkSet::take_next`]) and freed once it has been binned.
    input: ChunkSet<P::HeldEdge>,
    /// Every input payload this engine was given, to check that none
    /// outlives its binning.
    #[cfg(test)]
    input_seen: Vec<std::sync::Weak<Vec<P::HeldEdge>>>,
    /// The edge sets by direction (`[forward, reverse]`), by partition.
    edges: [Vec<ChunkSet<P::HeldEdge>>; 2],
    /// Open accumulation buffers of the clustered layout by direction,
    /// each indexed by (partition, bin) slot. Writers of one bin all target
    /// this engine (the bin's deterministic home), so sub-chunk writes from
    /// different pre-processing machines consolidate here into full-size,
    /// bin-pure chunks instead of each leaving a partial — without this the
    /// partial-chunk count would scale with machines × partitions × bins.
    /// Sealed (flushed into the chunk sets) lazily at the first edge read
    /// or remaining-bytes query; empty and unused when `bins == 1`.
    open: [Vec<Vec<P::HeldEdge>>; 2],
    sealed: bool,
    seal_scratch: SealScratch,
    updates: Vec<ChunkSet<LocalUpdate<P::Update>>>,
    vertices: Vec<VertexArray<P::VertexState>>,
    /// The depth-2 checkpoint chain.
    pub(crate) ckpt: CheckpointChain<P::VertexState, P::HeldEdge>,
}

impl<P: GasProgram> StorageEngine<P> {
    /// Creates an empty storage engine. When `spill_dir` is set, edge,
    /// reverse-edge, update and input chunks live in real files under
    /// `spill_dir/machine-<i>/` — one file per (partition, structure),
    /// exactly the layout §7 describes.
    ///
    /// # Errors
    ///
    /// Names the directory or file that could not be created.
    pub fn new(
        machine: usize,
        params: Arc<RunParams>,
        device: Device,
        pagecache_bytes: u64,
        spill_dir: Option<&Path>,
    ) -> Result<Self, String> {
        let parts = params.spec.num_partitions;
        let dir = spill_dir.map(|d| d.join(format!("machine-{machine}")));
        if let Some(d) = &dir {
            std::fs::create_dir_all(d)
                .map_err(|e| format!("cannot create spill directory {}: {e}", d.display()))?;
        }
        let d = dir.as_deref();
        let slots = params.cluster.slot(parts, 0);
        let edge_sets = |reverse| {
            let name = edge_set_name(reverse);
            (0..parts)
                .map(|p| chunk_set(d, name, p, params.edge_bytes))
                .collect::<Result<_, _>>()
        };
        Ok(Self {
            machine,
            gen: 0,
            io: FramedDevice::new(device),
            cache: PageCache::new(pagecache_bytes),
            input: chunk_set(d, "input", 0, params.edge_bytes)?,
            #[cfg(test)]
            input_seen: Vec::new(),
            edges: [edge_sets(false)?, edge_sets(true)?],
            open: [(); 2].map(|()| (0..slots).map(|_| Vec::new()).collect()),
            sealed: params.cluster.bins() == 1,
            seal_scratch: SealScratch::default(),
            updates: (0..parts)
                .map(|p| chunk_set(d, "updates", p, params.update_bytes))
                .collect::<Result<_, _>>()?,
            vertices: (0..parts)
                .map(|_| VertexArray::new(params.vstate_bytes))
                .collect(),
            ckpt: CheckpointChain::new(parts, params.vstate_bytes, params.checkpoint),
            dir,
            params,
        })
    }

    /// Pre-loads an input chunk during cluster setup (the input edge list
    /// starts "randomly distributed over all storage devices", §8).
    ///
    /// # Errors
    ///
    /// Names the input file a spilled chunk could not be written to.
    pub fn preload_input(&mut self, chunk: EdgeChunk<P>) -> Result<(), String> {
        #[cfg(test)]
        self.input_seen.push(Arc::downgrade(&chunk));
        self.input.append(chunk).map(drop).map_err(|e| {
            let dir = self.dir.as_deref().unwrap_or(Path::new(""));
            format!(
                "cannot write {}: {e}",
                backing_path(dir, "input", 0).display()
            )
        })
    }

    /// How many of the input payloads this engine was given are still
    /// alive anywhere.
    #[cfg(test)]
    pub(crate) fn input_payloads_alive(&self) -> usize {
        self.input_seen
            .iter()
            .filter(|w| w.strong_count() > 0)
            .count()
    }

    /// Read access to the stored vertex chunks (used by the cluster to
    /// collect final states).
    pub fn vertex_chunk(&self, part: usize, chunk_no: u32) -> Option<Arc<Vec<P::VertexState>>> {
        self.vertices[part].get(chunk_no)
    }

    /// Read access to the committed checkpoint (tests / recovery).
    pub fn checkpoint_chunk(&self, part: usize, chunk_no: u32) -> Option<Arc<Vec<P::VertexState>>> {
        self.ckpt.committed_chunk(part, chunk_no)
    }

    /// Folds this engine's edge-chunk window widths (forward and reverse
    /// sets) into `h`, each relative to its partition's vertex span.
    pub fn accumulate_window_stats(&self, h: &mut WindowHistogram) {
        for sets in &self.edges {
            for (part, set) in sets.iter().enumerate() {
                let span = self.params.spec.len(part);
                for ix in set.indexes() {
                    match ix {
                        None => h.unindexed += 1,
                        Some(ix) => match ix.width() {
                            None => h.empty += 1,
                            Some(w) => h.record(w, span),
                        },
                    }
                }
            }
        }
    }

    /// Stores an edge chunk: appends it (`entry: None`) or replaces an
    /// existing entry in place (compaction), sealing it either way,
    /// charging one device write of the chunk's bytes, and acking
    /// `WriteKind::Edges`.
    ///
    /// Under the clustered layout (`bins > 1`) appends route through the
    /// open per-(partition, bin) buffer instead: incoming bin-pure
    /// sub-chunks from every pre-processing machine accumulate there and
    /// are cut into full-size chunks, leaving at most one partial chunk
    /// per bin engine-wide when the buffers are sealed.
    fn store_edge_chunk(
        &mut self,
        ctx: &mut Ctx<P>,
        part: usize,
        reverse: bool,
        data: EdgeChunk<P>,
        entry: Option<u32>,
        from: usize,
    ) {
        let now = ctx.now;
        let bytes = data.len() as u64 * self.params.edge_bytes;
        if entry.is_none() && self.params.cluster.bins() > 1 && !data.is_empty() {
            self.merge_edge_write(part, reverse, data);
        } else {
            self.seal_edge_chunk(part, reverse, entry, data);
        }
        let done = self.io.framed_write(now, bytes);
        self.ack(ctx, done, from, WriteKind::Edges);
    }

    /// Seals one edge chunk into its set — appended, or replacing `entry`
    /// in place — and returns its chunk-level index. The one place the
    /// sort-on-seal contract is applied ([`seal_chunk`]): forward chunks
    /// key on `src`, destination-keyed (reverse) chunks on `dst`,
    /// whichever endpoint supplies scatter state when the chunk streams.
    /// A chunk that arrives in key order (compaction survivors of a sorted
    /// chunk do) or with block indexing off keeps its shared payload;
    /// anything else is stored as the exactly sized sorted copy.
    fn seal_edge_chunk(
        &mut self,
        part: usize,
        reverse: bool,
        entry: Option<u32>,
        data: EdgeChunk<P>,
    ) -> ChunkIndex {
        let (scratch, blocks) = (&mut self.seal_scratch, self.params.block_records);
        let sealed = seal_chunk(&data, |e| e.key(reverse), blocks, scratch);
        let set = &mut self.edges[usize::from(reverse)][part];
        let payload = sealed.sorted.map_or(data, Arc::new);
        let index = Some(sealed.index);
        let stored = match entry {
            None => set
                .append_with_blocks(payload, index, sealed.blocks)
                .map(drop),
            Some(e) => set
                .replace_with_blocks(e, payload, index, sealed.blocks)
                .map(|old| self.ckpt.compacted(part, reverse, old)),
        };
        chunk_io(stored, edge_set_name(reverse), part);
        sealed.index
    }

    /// Consolidates one bin-pure edge write into the open per-(partition,
    /// bin) buffer, sealing the buffer whole each time it reaches the
    /// chunk size. Every chunk cut here is single-bin by construction —
    /// the narrow-window invariant of the clustered layout
    /// (debug-asserted below).
    fn merge_edge_write(&mut self, part: usize, reverse: bool, data: EdgeChunk<P>) {
        debug_assert!(
            !self.sealed,
            "edge appends happen only before the first read"
        );
        let bin_of = |params: &RunParams, key| params.cluster.bin_of(&params.spec, part, key);
        let key = |e: &P::HeldEdge| e.key(reverse);
        let bin = bin_of(&self.params, key(&data[0]));
        debug_assert!(
            data.iter().all(|e| bin_of(&self.params, key(e)) == bin),
            "writer sent a bin-impure edge chunk for partition {part}"
        );
        let (dir, slot) = (usize::from(reverse), self.params.cluster.slot(part, bin));
        let epc = self.params.edges_per_chunk;
        if self.open[dir][slot].is_empty() && data.len() == epc {
            // Fast path for the common case: writers cut their mid-stream
            // flushes at exactly the chunk size, so a full bin-pure chunk
            // arriving on an empty buffer is already a storage chunk —
            // seal the shared payload as-is instead of copying the whole
            // edge set through the open buffers. Only the tiny
            // end-of-pre-processing partials take the merge path below.
            self.seal_edge_chunk(part, reverse, None, data);
            return;
        }
        let mut rest = &data[..];
        while let Some(full) = fill_open_chunk(&mut self.open[dir][slot], &mut rest, epc) {
            let index = self.seal_edge_chunk(part, reverse, None, full);
            debug_assert!(
                bin_of(&self.params, index.lo) == bin && bin_of(&self.params, index.hi) == bin,
                "cut chunk of partition {part} spans multiple cluster bins"
            );
        }
    }

    /// Seals the clustered layout. Idempotent; called lazily at the first
    /// edge read or remaining-bytes query, which is necessarily after
    /// pre-processing finished (the barrier orders all edge writes before
    /// the first scatter).
    ///
    /// Rather than emitting one partial chunk per open buffer (which
    /// would add ~bins partial chunks per partition and tax every dense
    /// iteration with their chunk messages), the leftovers of each
    /// partition are concatenated *in bin order* and cut at the chunk
    /// size: the tail chunk count stays what the unclustered layout pays,
    /// and because consecutive bins cover consecutive key sub-ranges,
    /// each concatenated chunk's window spans a short contiguous run of
    /// bins — still narrow, still stride-summarized exactly.
    fn seal_edge_sets(&mut self) {
        if self.sealed {
            return;
        }
        self.sealed = true;
        let epc = self.params.edges_per_chunk;
        for part in 0..self.params.spec.num_partitions {
            for reverse in [false, true] {
                let (dir, slots) = (usize::from(reverse), self.params.cluster.slots(part));
                // Records of this partition not yet sealed: the last chunk
                // is cut, and allocated, at what is left of them.
                let mut left: usize = self.open[dir][slots.clone()].iter().map(Vec::len).sum();
                let mut run = Vec::new();
                for slot in slots {
                    let leftover = std::mem::take(&mut self.open[dir][slot]);
                    let mut rest = &leftover[..];
                    loop {
                        if run.capacity() == 0 {
                            run.reserve_exact(epc.min(left));
                        }
                        let Some(full) = fill_open_chunk(&mut run, &mut rest, epc.min(left)) else {
                            break;
                        };
                        left -= full.len();
                        self.seal_edge_chunk(part, reverse, None, full);
                    }
                }
            }
        }
    }

    /// Defers `msg` until the device completes at `at`, then sends it to
    /// `to`.
    fn respond_at(&self, ctx: &mut Ctx<P>, at: Time, to: Addr, msg: Msg<P>) {
        let inner = Box::new(msg);
        ctx.at(at, Addr::Storage(self.machine), Msg::Deferred { to, inner });
    }

    /// Answers a chunk request of machine `to` with `msg`: once the device
    /// read completing at `read` is done, or — when no chunk was left —
    /// after a metadata-only lookup, with the exhausted notice.
    fn respond_chunk(&self, ctx: &mut Ctx<P>, to: usize, read: Option<Time>, msg: Msg<P>) {
        let at = read.unwrap_or(ctx.now + METADATA_NS);
        self.respond_at(ctx, at, Addr::Compute(to), msg);
    }

    /// Sends a control message to the coordinator once the device
    /// completes at `at`.
    fn respond_coordinator(&self, ctx: &mut Ctx<P>, at: Time, msg: Msg<P>) {
        self.respond_at(ctx, at, Addr::Coordinator, msg);
    }

    /// Acks a write of machine `to` once the device completes it at `at`.
    fn ack(&self, ctx: &mut Ctx<P>, at: Time, to: usize, kind: WriteKind) {
        self.respond_at(ctx, at, Addr::Compute(to), Msg::WriteAck { kind });
    }
}

impl<P: GasProgram> Actor for StorageEngine<P> {
    type Addr = Addr;
    type Msg = Msg<P>;

    fn generation(&self) -> u32 {
        self.gen
    }

    /// Handles one message.
    fn handle(&mut self, ctx: &mut Ctx<P>, msg: Msg<P>) {
        let now = ctx.now;
        let me = self.machine;
        match msg {
            // ------------------------------------------------------ reads
            Msg::InputChunkReq { from } => {
                let data = chunk_io(self.input.take_next(), "input", 0);
                let read = data.as_ref().map(|d| {
                    let bytes = d.len() as u64 * self.params.edge_bytes;
                    self.io.framed_read(now, bytes, Repair::Reread)
                });
                let resp = Msg::InputChunkResp { source: me, data };
                self.respond_chunk(ctx, from, read, resp);
            }
            Msg::EdgeChunkReq {
                part,
                reverse,
                from,
                active,
            } => {
                self.seal_edge_sets();
                let materialize = cfg!(debug_assertions);
                let set = &mut self.edges[usize::from(reverse)][part];
                // Skipped chunks and skipped block runs cost neither device
                // time nor wire bytes: the chunk and block indexes are
                // in-memory metadata, skipped payloads are never read (debug
                // builds materialize them for the activity-contract check
                // without touching accounting), and a partial serve reads
                // only the active block runs — the device and the wire are
                // charged below for exactly the records served.
                let outcome = chunk_io(
                    set.serve_next_selective(active.as_deref(), materialize),
                    edge_set_name(reverse),
                    part,
                );
                let skipped = SkipInfo {
                    chunks: outcome.skipped_chunks,
                    records: outcome.skipped_records,
                    blocks: outcome.skipped_blocks,
                    records_intra: outcome.skipped_records_intra,
                    partial: outcome.served.as_ref().is_some_and(|s| s.partial),
                    oracle: outcome.skipped_payloads,
                };
                let read = outcome.served.as_ref().map(|served| {
                    let bytes = served.data.len() as u64 * self.params.edge_bytes;
                    self.io.framed_read(now, bytes, Repair::Reread)
                });
                let (entry, data) = outcome
                    .served
                    .map_or((0, None), |s| (s.entry, Some(s.data)));
                let resp = Msg::EdgeChunkResp {
                    part,
                    source: me,
                    entry,
                    data,
                    skipped,
                };
                self.respond_chunk(ctx, from, read, resp);
            }
            Msg::UpdateChunkReq { part, from } => {
                let data = chunk_io(self.updates[part].serve_next(), "updates", part);
                let read = data.as_ref().map(|d| {
                    let bytes = d.len() as u64 * self.params.update_bytes;
                    if self.cache.read_hits() {
                        // Cache hits are a memory path: device faults
                        // cannot touch them, and the frame was verified
                        // when the page entered the cache.
                        self.io.device.cache_read(now, bytes) + METADATA_NS
                    } else {
                        self.io.framed_read(now, bytes, Repair::Reread)
                    }
                });
                let resp = Msg::UpdateChunkResp {
                    part,
                    source: me,
                    data,
                };
                self.respond_chunk(ctx, from, read, resp);
            }
            Msg::VertexChunkReq {
                part,
                chunk_no,
                from,
            } => {
                let data = self.vertices[part]
                    .get(chunk_no)
                    .expect("vertex chunk must exist at its home engine");
                let bytes = data.len() as u64 * self.params.vstate_bytes;
                // Vertex chunks have a durable verified source (the vertex
                // array itself): a persistent mismatch re-seals the extent.
                let done = self.io.framed_read(now, bytes, Repair::Rewrite);
                let resp = Msg::VertexChunkResp {
                    part,
                    chunk_no,
                    data,
                };
                self.respond_at(ctx, done, Addr::Compute(from), resp);
            }
            Msg::RemainingReq { part, kind, from } => {
                if matches!(kind, DataKind::Edges | DataKind::EdgesReverse) {
                    self.seal_edge_sets();
                }
                let bytes = match kind {
                    DataKind::Edges => self.edges[0][part].bytes_remaining(),
                    DataKind::EdgesReverse => self.edges[1][part].bytes_remaining(),
                    DataKind::Updates => self.updates[part].bytes_remaining(),
                    DataKind::Input => self.input.bytes_remaining(),
                };
                let resp = Msg::RemainingResp { part, bytes };
                self.respond_at(ctx, now + METADATA_NS, Addr::Compute(from), resp);
            }

            // ----------------------------------------------------- writes
            Msg::WriteEdgeChunk {
                part,
                reverse,
                data,
                from,
            } => self.store_edge_chunk(ctx, part, reverse, data, None, from),
            Msg::WriteEdgeBatch { writes, from } => {
                let mut bytes = 0;
                for w in writes {
                    bytes += w.data.len() as u64 * self.params.edge_bytes;
                    self.merge_edge_write(w.part, w.reverse, w.data);
                }
                let done = self.io.framed_write(now, bytes);
                self.ack(ctx, done, from, WriteKind::Edges);
            }
            Msg::ReplaceEdgeChunk {
                part,
                reverse,
                entry,
                data,
                from,
            } => self.store_edge_chunk(ctx, part, reverse, data, Some(entry), from),
            Msg::WriteUpdateChunk { part, data, from } => {
                let bytes = data.len() as u64 * self.params.update_bytes;
                chunk_io(self.updates[part].append(data), "updates", part);
                self.cache.insert(bytes);
                let done = self.io.framed_write(now, bytes);
                self.ack(ctx, done, from, WriteKind::Updates);
            }
            Msg::WriteVertexChunk {
                part,
                chunk_no,
                data,
                from,
            } => {
                let bytes = self.vertices[part].put(chunk_no, data);
                let done = self.io.framed_write(now, bytes);
                self.ack(ctx, done, from, WriteKind::Vertices);
            }
            Msg::DeleteUpdates { part } => {
                let bytes = self.updates[part].stats().bytes;
                chunk_io(self.updates[part].clear(), "updates", part);
                self.cache.remove(bytes);
                // Metadata-only; no reply needed.
            }
            Msg::ResetEdgeEpoch => {
                self.seal_edge_sets();
                for cs in self.edges.iter_mut().flatten() {
                    cs.reset_epoch();
                }
                if self.params.scrub {
                    // Between-iterations scrub pass: walk every frame this
                    // engine holds — edge, reverse-edge and update chunks,
                    // live vertex chunks, and both levels of the checkpoint
                    // chain — re-reading and re-verifying each one through
                    // the detect–repair ladder. The ack is deferred until
                    // the scrub I/O completes, so scrubbing costs show up
                    // as iteration-boundary latency.
                    let mut frames = 0u64;
                    let mut bytes = 0u64;
                    for set in self.edges.iter().flatten() {
                        let s = set.stats();
                        frames += s.chunks;
                        bytes += s.bytes;
                    }
                    for set in &self.updates {
                        let s = set.stats();
                        frames += s.chunks;
                        bytes += s.bytes;
                    }
                    for va in self.vertices.iter().chain(self.ckpt.committed_levels()) {
                        frames += va.len() as u64;
                        bytes += va.total_bytes();
                    }
                    self.io.account.frames_scrubbed += frames;
                    let done = self
                        .io
                        .framed_read_frames(now, bytes, frames, Repair::Reread);
                    self.respond_coordinator(ctx, done, Msg::EpochResetAck);
                } else {
                    ctx.post(&self.params, me, Addr::Coordinator, Msg::EpochResetAck);
                }
            }

            // ------------------------------------------------- checkpoint
            Msg::CheckpointChunk {
                part,
                chunk_no,
                from,
            } => {
                let data = self.vertices[part]
                    .get(chunk_no)
                    .expect("checkpointing a chunk that exists");
                let bytes = data.len() as u64 * self.params.vstate_bytes;
                self.ckpt.copy(part, chunk_no, data);
                // The live chunk was just written by the master's apply and
                // is still in the cache; the checkpoint copy costs one
                // framed device write.
                let done = self.io.framed_write(now, bytes);
                self.io.account.checkpoint_bytes += bytes;
                self.io.account.checkpoint_time += done - now;
                self.ack(ctx, done, from, WriteKind::Checkpoint);
            }
            Msg::CheckpointValidate => {
                // Validation round between copy and promote: re-read the
                // frame of every pending checkpoint chunk and verify it, so
                // the coordinator only promotes snapshots whose on-device
                // framing is sound on every machine. The copies were
                // written moments ago and their frames are still
                // cache-resident, so verification is a memory-path pass (a
                // torn write is visible there too: the frame simply does
                // not match the payload).
                let frame_bytes = self.ckpt.pending_frames() * FRAME_BYTES;
                self.io.account.checksum_bytes += frame_bytes;
                let done = self.io.device.cache_read(now, frame_bytes) + METADATA_NS;
                let ok = !self.ckpt.pending_torn;
                self.respond_coordinator(ctx, done, Msg::CheckpointValidateAck { ok });
            }
            Msg::CheckpointCommit { promote } => {
                // Phase two of the 2-phase protocol (§6.6): promote the
                // pending copies — or, when validation failed on some
                // machine, drop them; the committed chain stands and the
                // next checkpoint round starts from scratch.
                if promote {
                    self.ckpt.promote();
                } else {
                    self.ckpt.drop_refused(&mut self.io.account);
                }
                self.respond_coordinator(ctx, now + METADATA_NS, Msg::CheckpointCommitAck);
            }

            // --------------------------------------------------- recovery
            Msg::Abort {
                gen,
                iter: _,
                commit,
                torn,
                rewind,
            } => {
                self.gen = gen;
                ctx.gen = gen;
                if rewind {
                    // Depth-2 fallback round: the committed snapshot proved
                    // torn during the first restore attempt, so restore one
                    // level down the chain.
                    self.ckpt.rewind(&mut self.io.account, &mut self.edges);
                } else if commit {
                    // The crash hit after every machine finished its copy
                    // phase but before the commit round completed: the
                    // pending snapshot is globally consistent, so finish
                    // the commit now and recover from it.
                    self.ckpt.promote();
                } else {
                    self.ckpt.discard_pending();
                }
                // Drop this iteration's partial update sets; rewind edge
                // cursors.
                for part in 0..self.updates.len() {
                    let b = self.updates[part].stats().bytes;
                    self.cache.remove(b);
                    chunk_io(self.updates[part].clear(), "updates", part);
                }
                for cs in self.edges.iter_mut().flatten() {
                    cs.reset_epoch();
                }
                // A torn checkpoint write on this machine makes the
                // coordinator fall back instead of restoring.
                let probe = (torn == Some(me))
                    .then(|| self.ckpt.torn_probe(&mut self.io, now))
                    .flatten();
                let (done, fallback) = match probe {
                    Some(done) => (done, true),
                    None => (
                        self.ckpt.restore(&mut self.io, now, &mut self.vertices),
                        false,
                    ),
                };
                self.respond_coordinator(ctx, done, Msg::AbortAck { fallback });
            }

            // --------------------------------------------- deferred sends
            Msg::Deferred { to, inner } => ctx.post(&self.params, me, to, *inner),

            other => panic!("storage engine got unexpected message {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_algos::bfs::Bfs;
    use chaos_gas::{BareEdge, EdgeRecord};
    use chaos_graph::{Edge, PartitionSpec};
    use chaos_storage::{BlockIndex, DeviceProfile};

    use crate::alloc_count::thread_allocations;
    use crate::config::ChaosConfig;
    use crate::msg::EdgeWrite;
    use crate::runtime::Layout;

    #[test]
    #[should_panic(expected = "updates chunk set of partition 3: checksum mismatch")]
    fn chunk_set_failures_name_structure_partition_and_error() {
        let bad = std::io::Error::new(std::io::ErrorKind::InvalidData, "checksum mismatch");
        chunk_io::<()>(Err(bad), "updates", 3);
    }

    /// Partition 0 (keys 0..128) in four 32-key bins, 64-edge chunks in
    /// 16-record blocks. Partial writes — bin 0's in key order, the other
    /// bins' shuffled — go through the merge cut and the tail seal; the
    /// sealed set must be what `extend` + cut + stable sort lays out, and
    /// every payload exactly as long as its allocation.
    #[test]
    fn merged_partials_seal_sorted_and_exactly_sized() {
        const EPC: usize = 64;
        let mut cfg = ChaosConfig::new(1);
        cfg.chunk_bytes = EPC as u64 * 8;
        let spec = PartitionSpec::with_partitions(256, 2);
        let layout = Layout {
            cluster_bins: 4,
            block_records: 16,
        };
        let params = RunParams::new(&cfg, spec, 8, 8, 4, true, layout);
        let device = Device::new(DeviceProfile::ssd());
        let mut eng = StorageEngine::<Bfs>::new(0, Arc::new(params), device, 0, None).unwrap();
        let mut ctx = Ctx::new(0, 0);

        let mut open: Vec<Vec<BareEdge>> = vec![Vec::new(); 4];
        let mut want: Vec<Vec<BareEdge>> = Vec::new();
        let seal = |mut chunk: Vec<BareEdge>| {
            chunk.sort_by_key(|e| e.src);
            chunk
        };
        let mut arrival = 0u64;
        for round in 0..5u64 {
            let mut writes = Vec::new();
            for bin in 0..4u64 {
                let data: Vec<BareEdge> = (0..25u64)
                    .map(|i| {
                        let nth = round * 25 + i;
                        let key = if bin == 0 {
                            nth * 32 / 125
                        } else {
                            nth * 13 % 32
                        };
                        arrival += 1;
                        BareEdge::pack(&Edge::new(bin * 32 + key, arrival))
                    })
                    .collect();
                let buf = &mut open[bin as usize];
                buf.extend_from_slice(&data);
                if buf.len() >= EPC {
                    let rest = buf.split_off(EPC);
                    want.push(seal(std::mem::replace(buf, rest)));
                }
                writes.push(EdgeWrite {
                    part: 0,
                    reverse: false,
                    data: Arc::new(data),
                });
            }
            eng.handle(&mut ctx, Msg::WriteEdgeBatch { writes, from: 0 });
        }
        assert_eq!(want.len(), 4, "one merge cut per bin");
        want.extend(open.concat().chunks(EPC).map(|c| seal(c.to_vec())));
        eng.seal_edge_sets();
        assert!(
            eng.open[0].iter().all(|b| b.capacity() == 0),
            "open buffers released"
        );

        let blocks: Vec<usize> = eng.edges[0][0]
            .block_indexes()
            .map(|b| b.map_or(1, BlockIndex::blocks))
            .collect();
        for (i, chunk) in want.iter().enumerate() {
            let got = eng.edges[0][0]
                .serve_next()
                .unwrap()
                .expect("a chunk per expected chunk");
            assert_eq!(*got, *chunk, "chunk {i}");
            assert_eq!(
                got.capacity(),
                got.len(),
                "chunk {i} carries spare capacity"
            );
            assert_eq!(blocks[i], chunk.len().div_ceil(16), "chunk {i}");
        }
        assert!(eng.edges[0][0].serve_next().unwrap().is_none());
    }

    /// Once the scratch has grown, sealing a chunk allocates the sorted
    /// payload and the block-window vector; a chunk that arrives sorted
    /// allocates the windows alone.
    #[test]
    fn seal_allocates_the_payload_and_the_block_windows_only() {
        let chunk: Vec<BareEdge> = (0..4096)
            .map(|i| BareEdge::pack(&Edge::new(i * 7919 % 256, i)))
            .collect();
        let mut scratch = SealScratch::default();
        seal_chunk(&chunk, BareEdge::src, 512, &mut scratch);
        let before = thread_allocations();
        let sealed = seal_chunk(&chunk, BareEdge::src, 512, &mut scratch);
        assert_eq!(thread_allocations() - before, 2);
        let sorted = sealed.sorted.expect("shuffled keys move");
        assert_eq!(sealed.blocks.expect("eight blocks").blocks(), 8);
        let before = thread_allocations();
        let again = seal_chunk(&sorted, BareEdge::src, 512, &mut scratch);
        assert_eq!(thread_allocations() - before, 1);
        assert!(again.sorted.is_none(), "a sorted chunk stays where it is");
    }
}
