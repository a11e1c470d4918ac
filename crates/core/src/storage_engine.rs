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

use std::sync::Arc;

use chaos_gas::{GasProgram, Update};
use chaos_graph::Edge;
use chaos_runtime::Actor;
use chaos_sim::{rng::mix2, Time, MICROS};
use chaos_storage::{
    seal_chunk, ChunkIndex, ChunkSet, Device, PageCache, SealScratch, VertexArray, FRAME_BYTES,
};

use chaos_storage::FileBacking;

use crate::config::Streaming;
use crate::metrics::WindowHistogram;
use crate::msg::{DataKind, Msg, SkipInfo, WriteKind, CONTROL_BYTES};
use crate::runtime::{Addr, Ctx, RunParams};

/// Opens the backing file for one (structure, partition) pair.
fn open_backing(dir: &std::path::Path, name: &str, part: usize) -> FileBacking {
    FileBacking::create(&dir.join(format!("{name}-{part}.dat"))).expect("create backing file")
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
/// an empty one behind. The buffer is allocated at exactly `target` when
/// its first record arrives, so a sealed chunk never carries spare
/// capacity. `None` once `rest` is used up short of the target.
fn fill_open_chunk(
    buf: &mut Vec<Edge>,
    rest: &mut &[Edge],
    target: usize,
) -> Option<Arc<Vec<Edge>>> {
    if buf.capacity() == 0 {
        buf.reserve_exact(target);
    }
    let (head, tail) = rest.split_at(rest.len().min(target - buf.len()));
    buf.extend_from_slice(head);
    *rest = tail;
    (buf.len() == target && target > 0).then(|| Arc::new(std::mem::take(buf)))
}

/// Latency of a metadata-only reply (exhausted notices, remaining-bytes
/// queries) and of page-cache hits.
const METADATA_NS: Time = 2_000;

/// Device-fault retry policy: bounded exponential backoff starting at
/// `RETRY_BASE`, doubling up to `RETRY_CAP`; after `RETRY_MAX_ATTEMPTS`
/// consecutive failures the engine stops probing and waits out the fault
/// window itself. Fully deterministic — no randomness — so retry latency
/// is a pure function of the run's inputs.
pub(crate) const RETRY_BASE: Time = 100 * MICROS;
pub(crate) const RETRY_CAP: Time = 1_600 * MICROS;
pub(crate) const RETRY_MAX_ATTEMPTS: u32 = 6;

/// One device operation through the transient-fault retry discipline, as a
/// free function so the boundary behavior is unit-testable in isolation: a
/// [`chaos_storage::DeviceError`] is absorbed by retrying with bounded
/// exponential backoff (`RETRY_BASE` doubling to `RETRY_CAP`); after
/// `RETRY_MAX_ATTEMPTS` failures the caller stops probing and jumps to the
/// fault window's reported close. Returns `(completion, retries, waited)`
/// where `waited` is the simulated time lost before the successful dispatch.
pub(crate) fn retry_device_io(
    device: &mut Device,
    now: Time,
    bytes: u64,
    write: bool,
) -> (Time, u64, Time) {
    let mut at = now;
    let mut backoff = RETRY_BASE;
    let mut attempts = 0u32;
    let mut retries = 0u64;
    loop {
        let res = if write {
            device.try_write(at, bytes)
        } else {
            device.try_read(at, bytes)
        };
        match res {
            Ok(done) => return (done, retries, at - now),
            Err(e) => {
                retries += 1;
                attempts += 1;
                at = if attempts >= RETRY_MAX_ATTEMPTS {
                    // Give up probing: the device told us when the
                    // fault window closes; resume right there.
                    at.max(e.until)
                } else {
                    at + backoff
                };
                backoff = (backoff * 2).min(RETRY_CAP);
            }
        }
    }
}

/// What the detect–repair ladder does once a corruption episode proves
/// persistent (every bounded-backoff re-read inside the window failed its
/// frame check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Repair {
    /// Wait the corrupting window out and re-read: the stored bytes are
    /// intact (the corruption hit the wire), nothing durable to fix.
    Reread,
    /// Additionally rewrite the extent from its verified source — vertex
    /// chunks and checkpoint frames are re-sealed so later reads start
    /// from a freshly framed copy. Charged as one extra read + write.
    Rewrite,
}

/// The storage engine of one machine.
pub struct StorageEngine<P: GasProgram> {
    machine: usize,
    params: Arc<RunParams>,
    /// Protocol generation for failure recovery.
    pub gen: u32,
    /// Device queue model.
    pub device: Device,
    cache: PageCache,
    input: ChunkSet<Edge>,
    edges: Vec<ChunkSet<Edge>>,
    redges: Vec<ChunkSet<Edge>>,
    /// Open per-(partition, bin) accumulation buffers of the clustered
    /// layout (slot = `part * bins + bin`), one pair for the forward and
    /// reverse copies. Writers of one bin all target this engine (the
    /// bin's deterministic home), so sub-chunk writes from different
    /// pre-processing machines consolidate here into full-size, bin-pure
    /// chunks instead of each leaving a partial — without this the
    /// partial-chunk count would scale with machines × partitions × bins.
    /// Sealed (flushed into the chunk sets) lazily at the first edge read
    /// or remaining-bytes query; empty and unused when `bins == 1`.
    open_edges: Vec<Vec<Edge>>,
    open_redges: Vec<Vec<Edge>>,
    sealed: bool,
    seal_scratch: SealScratch,
    updates: Vec<ChunkSet<Update<P::Update>>>,
    vertices: Vec<VertexArray<P::VertexState>>,
    ckpt_pending: Vec<VertexArray<P::VertexState>>,
    ckpt_committed: Vec<VertexArray<P::VertexState>>,
    /// One snapshot below `ckpt_committed` on the depth-2 chain: the
    /// snapshot that was committed before the current one. Recovery falls
    /// back here when the committed copy fails its frame check (a torn
    /// checkpoint write surfacing during restore).
    ckpt_prev: Vec<VertexArray<P::VertexState>>,
    /// A committed chunk whose frame check fails persistently (torn by a
    /// crash mid-write); detected during restore, cleared by the fallback
    /// round.
    torn_chunk: Option<(usize, u32)>,
    /// Monotone framed-read counter: the deterministic "offset" identity
    /// the corruption oracle hashes, advanced identically on every run
    /// because per-engine message order is deterministic.
    read_seq: u64,
    /// Fault-injection hook for the validation round: marks the pending
    /// snapshot torn so the next [`Msg::CheckpointValidate`] reports a
    /// failed frame check and the coordinator drops the snapshot instead
    /// of promoting it.
    pub pending_torn: bool,
    /// Fault account: transient device faults absorbed by retrying.
    pub device_retries: u64,
    /// Fault account: simulated time spent backing off on faulted devices.
    pub faulted_time: Time,
    /// Fault account: bytes written into checkpoint snapshots.
    pub checkpoint_bytes: u64,
    /// Fault account: device time charged to checkpoint snapshot writes.
    pub checkpoint_time: Time,
    /// Integrity account: framed reads whose checksum check failed.
    pub corruption_detected: u64,
    /// Integrity account: corruption episodes resolved (re-read clean,
    /// extent rewritten, or checkpoint chain fallback completed).
    pub corruption_repaired: u64,
    /// Integrity account: frames walked by scrub passes.
    pub frames_scrubbed: u64,
    /// Integrity account: frame bytes charged to checksummed transfers.
    pub checksum_bytes: u64,
    /// Pending snapshots dropped by a failed validation round.
    pub snapshots_dropped: u64,
}

impl<P: GasProgram> StorageEngine<P> {
    /// Creates an empty storage engine. When `spill_dir` is set, edge,
    /// reverse-edge, update and input chunks live in real files under
    /// `spill_dir/machine-<i>/` — one file per (partition, structure),
    /// exactly the layout §7 describes.
    pub fn new(
        machine: usize,
        params: Arc<RunParams>,
        device: Device,
        pagecache_bytes: u64,
        spill_dir: Option<&std::path::Path>,
    ) -> Self {
        let parts = params.spec.num_partitions;
        let dir = spill_dir.map(|d| {
            let dir = d.join(format!("machine-{machine}"));
            std::fs::create_dir_all(&dir).expect("create spill directory");
            dir
        });
        let make_edges = |name: &str, p: usize| -> ChunkSet<Edge> {
            match &dir {
                Some(d) => ChunkSet::file_backed(
                    params.edge_bytes,
                    crate::storage_engine::open_backing(d, name, p),
                ),
                None => ChunkSet::in_memory(params.edge_bytes),
            }
        };
        let slots = parts * params.cluster.bins() as usize;
        Self {
            machine,
            gen: 0,
            device,
            cache: PageCache::new(pagecache_bytes),
            input: make_edges("input", 0),
            edges: (0..parts).map(|p| make_edges("edges", p)).collect(),
            redges: (0..parts).map(|p| make_edges("redges", p)).collect(),
            open_edges: (0..slots).map(|_| Vec::new()).collect(),
            open_redges: (0..slots).map(|_| Vec::new()).collect(),
            sealed: params.cluster.bins() == 1,
            seal_scratch: SealScratch::default(),
            updates: (0..parts)
                .map(|p| match &dir {
                    Some(d) => ChunkSet::file_backed(
                        params.update_bytes,
                        open_backing(d, "updates", p),
                    ),
                    None => ChunkSet::in_memory(params.update_bytes),
                })
                .collect(),
            vertices: (0..parts)
                .map(|_| VertexArray::new(params.vstate_bytes))
                .collect(),
            ckpt_pending: (0..parts)
                .map(|_| VertexArray::new(params.vstate_bytes))
                .collect(),
            ckpt_committed: (0..parts)
                .map(|_| VertexArray::new(params.vstate_bytes))
                .collect(),
            ckpt_prev: (0..parts)
                .map(|_| VertexArray::new(params.vstate_bytes))
                .collect(),
            torn_chunk: None,
            read_seq: 0,
            pending_torn: false,
            device_retries: 0,
            faulted_time: 0,
            checkpoint_bytes: 0,
            checkpoint_time: 0,
            corruption_detected: 0,
            corruption_repaired: 0,
            frames_scrubbed: 0,
            checksum_bytes: 0,
            snapshots_dropped: 0,
            params,
        }
    }

    /// Pre-loads an input chunk during cluster setup (the input edge list
    /// starts "randomly distributed over all storage devices", §8).
    pub fn preload_input(&mut self, chunk: Arc<Vec<Edge>>) {
        chunk_io(self.input.append(chunk), "input", 0);
    }

    /// Read access to the stored vertex chunks (used by the cluster to
    /// collect final states).
    pub fn vertex_chunk(&self, part: usize, chunk_no: u32) -> Option<Arc<Vec<P::VertexState>>> {
        self.vertices[part].get(chunk_no)
    }

    /// Read access to the committed checkpoint (tests / recovery).
    pub fn checkpoint_chunk(
        &self,
        part: usize,
        chunk_no: u32,
    ) -> Option<Arc<Vec<P::VertexState>>> {
        self.ckpt_committed[part].get(chunk_no)
    }

    /// Read access to the previous committed checkpoint on the depth-2
    /// chain (tests / recovery).
    pub fn checkpoint_prev_chunk(
        &self,
        part: usize,
        chunk_no: u32,
    ) -> Option<Arc<Vec<P::VertexState>>> {
        self.ckpt_prev[part].get(chunk_no)
    }

    /// First chunk of the committed checkpoint in (partition, chunk)
    /// order — the probe target when a torn checkpoint write surfaces
    /// during restore.
    fn first_committed_chunk(&self) -> Option<(usize, u32)> {
        for part in 0..self.ckpt_committed.len() {
            if let Some(no) = self.ckpt_committed[part].chunk_nos().next() {
                return Some((part, no));
            }
        }
        None
    }

    /// Folds this engine's edge-chunk window widths (forward and reverse
    /// sets) into `h`, each relative to its partition's vertex span.
    pub fn accumulate_window_stats(&self, h: &mut WindowHistogram) {
        for sets in [&self.edges, &self.redges] {
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
        data: Arc<Vec<Edge>>,
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
        let done = self.framed_write(now, bytes);
        self.respond_at(
            ctx,
            done,
            from,
            Msg::WriteAck {
                kind: WriteKind::Edges,
            },
            CONTROL_BYTES,
        );
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
        data: Arc<Vec<Edge>>,
    ) -> ChunkIndex {
        let (scratch, blocks) = (&mut self.seal_scratch, self.params.block_records);
        let (sealed, set) = if reverse {
            (seal_chunk(&data, |e| e.dst, blocks, scratch), &mut self.redges[part])
        } else {
            (seal_chunk(&data, |e| e.src, blocks, scratch), &mut self.edges[part])
        };
        let payload = sealed.sorted.map_or(data, Arc::new);
        let index = Some(sealed.index);
        let stored = match entry {
            None => set.append_with_blocks(payload, index, sealed.blocks).map(drop),
            Some(e) => set.replace_with_blocks(e, payload, index, sealed.blocks).map(drop),
        };
        chunk_io(stored, edge_set_name(reverse), part);
        sealed.index
    }

    /// The open accumulation buffers of one direction, by slot.
    fn open_buffers(&mut self, reverse: bool) -> &mut Vec<Vec<Edge>> {
        if reverse {
            &mut self.open_redges
        } else {
            &mut self.open_edges
        }
    }

    /// Consolidates one bin-pure edge write into the open per-(partition,
    /// bin) buffer, sealing the buffer whole each time it reaches the
    /// chunk size. Every chunk cut here is single-bin by construction —
    /// the narrow-window invariant of the clustered layout
    /// (debug-asserted below).
    fn merge_edge_write(&mut self, part: usize, reverse: bool, data: Arc<Vec<Edge>>) {
        debug_assert!(!self.sealed, "edge appends happen only before the first read");
        let bin_of = |params: &RunParams, key| params.cluster.bin_of(&params.spec, part, key);
        let key = |e: &Edge| if reverse { e.dst } else { e.src };
        let bin = bin_of(&self.params, key(&data[0]));
        debug_assert!(
            data.iter().all(|e| bin_of(&self.params, key(e)) == bin),
            "writer sent a bin-impure edge chunk for partition {part}"
        );
        let slot = part * self.params.cluster.bins() as usize + bin as usize;
        let epc = self.params.edges_per_chunk;
        if self.open_buffers(reverse)[slot].is_empty() && data.len() == epc {
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
        while let Some(full) =
            fill_open_chunk(&mut self.open_buffers(reverse)[slot], &mut rest, epc)
        {
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
        let bins = self.params.cluster.bins() as usize;
        let epc = self.params.edges_per_chunk;
        for part in 0..self.edges.len() {
            for reverse in [false, true] {
                let slots = part * bins..(part + 1) * bins;
                // Records of this partition not yet sealed: the last chunk
                // is cut, and allocated, at what is left of them.
                let mut left: usize =
                    self.open_buffers(reverse)[slots.clone()].iter().map(Vec::len).sum();
                let mut run = Vec::new();
                for slot in slots {
                    let leftover = std::mem::take(&mut self.open_buffers(reverse)[slot]);
                    let mut rest = &leftover[..];
                    while let Some(full) = fill_open_chunk(&mut run, &mut rest, epc.min(left)) {
                        left -= full.len();
                        self.seal_edge_chunk(part, reverse, None, full);
                    }
                }
            }
        }
    }

    /// Serves one device operation through the fault layer. A transient
    /// device fault ([`chaos_storage::DeviceError`]) is absorbed by
    /// retrying with bounded exponential backoff; after
    /// `RETRY_MAX_ATTEMPTS` failures the engine waits out the fault
    /// window reported by the device. The backoff delay is charged as
    /// storage latency (the request completes later), counted in
    /// `device_retries` / `faulted_time`. With no fault window covering
    /// `now` this is arithmetically identical to a plain
    /// `Device::read`/`Device::write`.
    fn device_io(&mut self, now: Time, bytes: u64, write: bool) -> Time {
        let (done, retries, waited) = retry_device_io(&mut self.device, now, bytes, write);
        self.device_retries += retries;
        self.faulted_time += waited;
        done
    }

    /// A device read with transient-fault retry (see [`Self::device_io`]).
    fn device_read(&mut self, now: Time, bytes: u64) -> Time {
        self.device_io(now, bytes, false)
    }

    /// A device write with transient-fault retry (see [`Self::device_io`]).
    fn device_write(&mut self, now: Time, bytes: u64) -> Time {
        self.device_io(now, bytes, true)
    }

    /// A framed device write: the payload travels with its
    /// [`FRAME_BYTES`]-wide checksum frame, charged to the device and to
    /// the `checksum_bytes` account so integrity overhead is measurable.
    fn framed_write(&mut self, now: Time, bytes: u64) -> Time {
        self.checksum_bytes += FRAME_BYTES;
        self.device_write(now, bytes + FRAME_BYTES)
    }

    /// A framed device read through the detect–repair ladder.
    ///
    /// The read transfers `bytes + FRAME_BYTES` and then evaluates its
    /// frame check at the completion instant against the device's
    /// corruption oracle — a pure function of `(window salt, completion
    /// time, read sequence)`, so the same reads corrupt on every run.
    /// On a mismatch the engine re-reads with the PR 8 bounded-backoff
    /// discipline (transient corruption usually clears: the stored bytes
    /// are fine, the wire flipped a bit); if every attempt inside the
    /// window fails, it escalates per `repair`: wait the window out,
    /// re-read clean, and — for vertex/checkpoint extents — rewrite the
    /// extent from its verified committed copy.
    fn framed_read_frames(&mut self, now: Time, bytes: u64, frames: u64, repair: Repair) -> Time {
        self.checksum_bytes += frames * FRAME_BYTES;
        let total = bytes + frames * FRAME_BYTES;
        self.read_seq += 1;
        let key = mix2(self.read_seq, bytes);
        let mut start = now;
        let mut backoff = RETRY_BASE;
        let mut attempts = 0u32;
        loop {
            let done = self.device_io(start, total, false);
            let Some(window_end) = self.device.corrupt_read(done, key) else {
                // A clean read after at least one failed frame check is a
                // repaired episode (the backoff re-read did its job).
                if attempts > 0 {
                    self.corruption_repaired += 1;
                }
                return done;
            };
            self.corruption_detected += 1;
            attempts += 1;
            if attempts >= RETRY_MAX_ATTEMPTS {
                // Persistent inside this window: stop probing, resume at
                // the window's close, and re-read clean.
                let mut resume = done.max(window_end);
                loop {
                    self.faulted_time += resume - done;
                    // The re-read moves the frame bytes again.
                    self.checksum_bytes += frames * FRAME_BYTES;
                    let fin = self.device_io(resume, total, false);
                    match self.device.corrupt_read(fin, key) {
                        Some(until) => {
                            // Another window covers the re-read; hop again.
                            self.corruption_detected += 1;
                            resume = fin.max(until);
                        }
                        None => {
                            self.corruption_repaired += 1;
                            return match repair {
                                Repair::Reread => fin,
                                Repair::Rewrite => {
                                    // Re-seal the extent from the verified
                                    // copy: one read of the source plus one
                                    // framed write of the extent.
                                    let r = self.device_io(fin, total, false);
                                    self.checksum_bytes += FRAME_BYTES;
                                    self.device_io(r, total, true)
                                }
                            };
                        }
                    }
                }
            }
            self.faulted_time += backoff;
            self.checksum_bytes += frames * FRAME_BYTES;
            start = done + backoff;
            backoff = (backoff * 2).min(RETRY_CAP);
        }
    }

    /// A framed single-chunk read (see [`Self::framed_read_frames`]).
    fn framed_read(&mut self, now: Time, bytes: u64, repair: Repair) -> Time {
        self.framed_read_frames(now, bytes, 1, repair)
    }

    /// Promotes the pending checkpoint snapshot to committed, shifting the
    /// depth-2 chain: the outgoing committed snapshot becomes the fallback
    /// (`ckpt_prev`) and is only dropped when the *next* promote pushes it
    /// off the end (phase two of §6.6, extended for torn-write recovery).
    fn promote_checkpoint(&mut self) {
        for part in 0..self.ckpt_pending.len() {
            if self.ckpt_pending[part].is_empty() {
                // Nothing pending for this partition (e.g. a crash-driven
                // re-promote after the snapshot already moved): keep the
                // chain as is.
                continue;
            }
            let pending = std::mem::replace(
                &mut self.ckpt_pending[part],
                VertexArray::new(self.params.vstate_bytes),
            );
            self.ckpt_prev[part] = std::mem::replace(
                &mut self.ckpt_committed[part],
                VertexArray::new(self.params.vstate_bytes),
            );
            for no in pending.chunk_nos() {
                let c = pending.get(no).expect("iterated chunk exists");
                self.ckpt_committed[part].put(no, c);
            }
        }
    }

    /// Defers `msg` until the device completes at `at`, then sends it to
    /// the computation engine of machine `to` with the given wire size.
    fn respond_at(
        &self,
        ctx: &mut Ctx<P>,
        at: Time,
        to: usize,
        msg: Msg<P>,
        bytes: u64,
    ) {
        ctx.at(
            at,
            Addr::Storage(self.machine),
            Msg::StorageRespond {
                to,
                bytes,
                inner: Box::new(msg),
            },
        );
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
            Msg::InputChunkReq { from } => match chunk_io(self.input.serve_next(), "input", 0) {
                Some(data) => {
                    let bytes = data.len() as u64 * self.params.edge_bytes;
                    let done = self.framed_read(now, bytes, Repair::Reread);
                    self.respond_at(
                        ctx,
                        done,
                        from,
                        Msg::InputChunkResp {
                            source: me,
                            data: Some(data),
                        },
                        bytes + CONTROL_BYTES,
                    );
                }
                None => self.respond_at(
                    ctx,
                    now + METADATA_NS,
                    from,
                    Msg::InputChunkResp {
                        source: me,
                        data: None,
                    },
                    CONTROL_BYTES,
                ),
            },
            Msg::EdgeChunkReq {
                part,
                reverse,
                from,
                active,
            } => {
                self.seal_edge_sets();
                let materialize = self.params.streaming == Streaming::Reference;
                let set = if reverse {
                    &mut self.redges[part]
                } else {
                    &mut self.edges[part]
                };
                // Skipped chunks and skipped block runs cost neither device
                // time nor wire bytes: the chunk and block indexes are
                // in-memory metadata, skipped payloads are never read (the
                // reference mode materializes them for oracle streaming
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
                match outcome.served {
                    Some(served) => {
                        let bytes = served.data.len() as u64 * self.params.edge_bytes;
                        let done = self.framed_read(now, bytes, Repair::Reread);
                        self.respond_at(
                            ctx,
                            done,
                            from,
                            Msg::EdgeChunkResp {
                                part,
                                source: me,
                                entry: served.entry,
                                data: Some(served.data),
                                skipped,
                            },
                            bytes + CONTROL_BYTES,
                        );
                    }
                    None => self.respond_at(
                        ctx,
                        now + METADATA_NS,
                        from,
                        Msg::EdgeChunkResp {
                            part,
                            source: me,
                            entry: 0,
                            data: None,
                            skipped,
                        },
                        CONTROL_BYTES,
                    ),
                }
            }
            Msg::UpdateChunkReq { part, from } => {
                match chunk_io(self.updates[part].serve_next(), "updates", part) {
                    Some(data) => {
                        let bytes = data.len() as u64 * self.params.update_bytes;
                        let done = if self.cache.read_hits() {
                            // Cache hits are a memory path: device faults
                            // cannot touch them, and the frame was verified
                            // when the page entered the cache.
                            self.device.cache_read(now, bytes) + METADATA_NS
                        } else {
                            self.framed_read(now, bytes, Repair::Reread)
                        };
                        self.respond_at(
                            ctx,
                            done,
                            from,
                            Msg::UpdateChunkResp {
                                part,
                                source: me,
                                data: Some(data),
                            },
                            bytes + CONTROL_BYTES,
                        );
                    }
                    None => self.respond_at(
                        ctx,
                        now + METADATA_NS,
                        from,
                        Msg::UpdateChunkResp {
                            part,
                            source: me,
                            data: None,
                        },
                        CONTROL_BYTES,
                    ),
                }
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
                let done = self.framed_read(now, bytes, Repair::Rewrite);
                self.respond_at(
                    ctx,
                    done,
                    from,
                    Msg::VertexChunkResp {
                        part,
                        chunk_no,
                        data,
                    },
                    bytes + CONTROL_BYTES,
                );
            }
            Msg::RemainingReq { part, kind, from } => {
                if matches!(kind, DataKind::Edges | DataKind::EdgesReverse) {
                    self.seal_edge_sets();
                }
                let bytes = match kind {
                    DataKind::Edges => self.edges[part].bytes_remaining(),
                    DataKind::EdgesReverse => self.redges[part].bytes_remaining(),
                    DataKind::Updates => self.updates[part].bytes_remaining(),
                    DataKind::Input => self.input.bytes_remaining(),
                };
                self.respond_at(
                    ctx,
                    now + METADATA_NS,
                    from,
                    Msg::RemainingResp { part, bytes },
                    CONTROL_BYTES,
                );
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
                let done = self.framed_write(now, bytes);
                self.respond_at(
                    ctx,
                    done,
                    from,
                    Msg::WriteAck {
                        kind: WriteKind::Edges,
                    },
                    CONTROL_BYTES,
                );
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
                let done = self.framed_write(now, bytes);
                self.respond_at(
                    ctx,
                    done,
                    from,
                    Msg::WriteAck {
                        kind: WriteKind::Updates,
                    },
                    CONTROL_BYTES,
                );
            }
            Msg::WriteVertexChunk {
                part,
                chunk_no,
                data,
                from,
            } => {
                let bytes = self.vertices[part].put(chunk_no, data);
                let done = self.framed_write(now, bytes);
                self.respond_at(
                    ctx,
                    done,
                    from,
                    Msg::WriteAck {
                        kind: WriteKind::Vertices,
                    },
                    CONTROL_BYTES,
                );
            }
            Msg::DeleteUpdates { part } => {
                let bytes = self.updates[part].stats().bytes;
                chunk_io(self.updates[part].clear(), "updates", part);
                self.cache.remove(bytes);
                // Metadata-only; no reply needed.
            }
            Msg::ResetEdgeEpoch => {
                self.seal_edge_sets();
                for cs in &mut self.edges {
                    cs.reset_epoch();
                }
                for cs in &mut self.redges {
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
                    for set in self.edges.iter().chain(&self.redges) {
                        let s = set.stats();
                        frames += s.chunks;
                        bytes += s.bytes;
                    }
                    for set in &self.updates {
                        let s = set.stats();
                        frames += s.chunks;
                        bytes += s.bytes;
                    }
                    for arrs in [&self.vertices, &self.ckpt_committed, &self.ckpt_prev] {
                        for va in arrs.iter() {
                            frames += va.len() as u64;
                            bytes += va.total_bytes();
                        }
                    }
                    self.frames_scrubbed += frames;
                    let done = self.framed_read_frames(now, bytes, frames, Repair::Reread);
                    self.respond_at(ctx, done, usize::MAX, Msg::EpochResetAck, CONTROL_BYTES);
                } else {
                    ctx.send(me, Addr::Coordinator, Msg::EpochResetAck, CONTROL_BYTES);
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
                self.ckpt_pending[part].put(chunk_no, data);
                // The live chunk was just written by the master's apply and
                // is still in the cache; the checkpoint copy costs one
                // framed device write.
                let done = self.framed_write(now, bytes);
                self.checkpoint_bytes += bytes;
                self.checkpoint_time += done - now;
                self.respond_at(
                    ctx,
                    done,
                    from,
                    Msg::WriteAck {
                        kind: WriteKind::Checkpoint,
                    },
                    CONTROL_BYTES,
                );
            }
            Msg::CheckpointValidate => {
                // Validation round between copy and promote: re-read the
                // frame of every pending checkpoint chunk and verify it, so
                // the coordinator only promotes snapshots whose on-device
                // framing is sound on every machine.
                let frames: u64 = self.ckpt_pending.iter().map(|p| p.len() as u64).sum();
                // The copies were written moments ago and their frames are
                // still cache-resident, so verification is a memory-path
                // pass (a torn write is visible there too: the frame simply
                // does not match the payload).
                self.checksum_bytes += frames * FRAME_BYTES;
                let done = self.device.cache_read(now, frames * FRAME_BYTES) + METADATA_NS;
                let ok = !self.pending_torn;
                self.respond_at(
                    ctx,
                    done,
                    usize::MAX,
                    Msg::CheckpointValidateAck { ok },
                    CONTROL_BYTES,
                );
            }
            Msg::CheckpointCommit { from, promote } => {
                if promote {
                    // Phase two of the 2-phase protocol: promote pending
                    // copies, shifting the previous checkpoint one level
                    // down the chain only now (§6.6).
                    self.promote_checkpoint();
                } else {
                    // Validation failed on some machine: the snapshot is
                    // not globally sound. Drop every pending copy; the
                    // committed chain is untouched and the next checkpoint
                    // round starts from scratch.
                    self.pending_torn = false;
                    self.snapshots_dropped += 1;
                    for part in 0..self.ckpt_pending.len() {
                        self.ckpt_pending[part] = VertexArray::new(self.params.vstate_bytes);
                    }
                }
                self.respond_at(
                    ctx,
                    now + METADATA_NS,
                    from,
                    Msg::CheckpointCommitAck,
                    CONTROL_BYTES,
                );
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
                    // torn during the first restore attempt, so drop one
                    // level down the checkpoint chain — the previously
                    // committed snapshot becomes the restore source.
                    for part in 0..self.ckpt_committed.len() {
                        self.ckpt_committed[part] = std::mem::replace(
                            &mut self.ckpt_prev[part],
                            VertexArray::new(self.params.vstate_bytes),
                        );
                    }
                    if self.torn_chunk.take().is_some() {
                        self.corruption_repaired += 1;
                    }
                } else if commit {
                    // The crash hit after every machine finished its copy
                    // phase but before the commit round completed: the
                    // pending snapshot is globally consistent, so finish
                    // the commit now and recover from it.
                    self.promote_checkpoint();
                } else {
                    // Discard any half-taken snapshot — recovery rolls
                    // back to the last *committed* checkpoint, and the
                    // next copy phase starts from scratch.
                    for part in 0..self.ckpt_pending.len() {
                        self.ckpt_pending[part] = VertexArray::new(self.params.vstate_bytes);
                    }
                }
                // Drop this iteration's partial update sets; rewind edge
                // cursors.
                for part in 0..self.updates.len() {
                    let b = self.updates[part].stats().bytes;
                    self.cache.remove(b);
                    chunk_io(self.updates[part].clear(), "updates", part);
                    self.edges[part].reset_epoch();
                    self.redges[part].reset_epoch();
                }
                if torn == Some(me) {
                    if let Some((part, no)) = self.first_committed_chunk() {
                        // The crash tore this machine's checkpoint write:
                        // the first committed chunk fails its frame check on
                        // every bounded-backoff re-read. Probing is charged
                        // like the detect–repair ladder — the transfer plus
                        // backoff per attempt — and then the engine
                        // escalates instead of restoring from damaged data.
                        self.torn_chunk = Some((part, no));
                        self.checksum_bytes += FRAME_BYTES;
                        let bytes =
                            self.ckpt_committed[part].chunk_bytes(no) + FRAME_BYTES;
                        let mut start = now;
                        let mut backoff = RETRY_BASE;
                        let mut done = now;
                        for attempt in 1..=RETRY_MAX_ATTEMPTS {
                            done = self.device_read(start, bytes);
                            self.corruption_detected += 1;
                            if attempt < RETRY_MAX_ATTEMPTS {
                                self.faulted_time += backoff;
                                start = done + backoff;
                                backoff = (backoff * 2).min(RETRY_CAP);
                            }
                        }
                        ctx.at(
                            done,
                            Addr::Storage(me),
                            Msg::StorageRespond {
                                to: usize::MAX, // routed to the coordinator
                                bytes: CONTROL_BYTES,
                                inner: Box::new(Msg::AbortAck { fallback: true }),
                            },
                        );
                        return;
                    }
                }
                // Restore vertex chunks from the committed checkpoint.
                let mut restored_bytes = 0;
                let mut restored_frames = 0u64;
                for part in 0..self.vertices.len() {
                    let nos: Vec<u32> = self.ckpt_committed[part].chunk_nos().collect();
                    for no in nos {
                        let c = self.ckpt_committed[part].get(no).expect("iterated chunk");
                        restored_bytes += c.len() as u64 * self.params.vstate_bytes;
                        restored_frames += 1;
                        self.vertices[part].put(no, c);
                    }
                }
                // Restoration I/O: framed read of the checkpoint (every
                // chunk re-verifies its frame), framed write of the live
                // copies — through the fault layer, so a device fault
                // during recovery only delays the AbortAck.
                self.framed_read_frames(now, restored_bytes, restored_frames, Repair::Reread);
                self.checksum_bytes += restored_frames * FRAME_BYTES;
                let done =
                    self.device_write(now, restored_bytes + restored_frames * FRAME_BYTES);
                ctx.at(
                    done,
                    Addr::Storage(me),
                    Msg::StorageRespond {
                        to: usize::MAX, // routed to the coordinator below
                        bytes: CONTROL_BYTES,
                        inner: Box::new(Msg::AbortAck { fallback: false }),
                    },
                );
            }

            // --------------------------------------------- deferred sends
            Msg::StorageRespond { to, bytes, inner } => {
                let dst = if to == usize::MAX {
                    Addr::Coordinator
                } else {
                    Addr::Compute(to)
                };
                ctx.send(me, dst, *inner, bytes);
            }

            other => panic!("storage engine got unexpected message {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_algos::bfs::Bfs;
    use chaos_graph::PartitionSpec;
    use chaos_storage::{BlockIndex, DeviceProfile, FaultWindow};

    use crate::alloc_count::thread_allocations;
    use crate::config::ChaosConfig;
    use crate::msg::EdgeWrite;

    fn faulted_device(until: Time) -> Device {
        let mut d = Device::new(DeviceProfile::ssd());
        d.set_faults(vec![FaultWindow {
            from: 0,
            until,
            reads: true,
            writes: true,
        }]);
        d
    }

    #[test]
    #[should_panic(expected = "updates chunk set of partition 3: checksum mismatch")]
    fn chunk_set_failures_name_structure_partition_and_error() {
        let bad = std::io::Error::new(std::io::ErrorKind::InvalidData, "checksum mismatch");
        chunk_io::<()>(Err(bad), "updates", 3);
    }

    /// From `now = 0` the probe times are 0, 100 µs, 300 µs, 700 µs,
    /// 1500 µs and 3100 µs (base 100 µs doubling, capped at 1600 µs). A
    /// window closing *exactly* at the sixth probe lets it succeed with
    /// five retries and no jump.
    #[test]
    fn retry_succeeds_when_window_closes_at_the_sixth_probe() {
        let mut d = faulted_device(3_100 * MICROS);
        let (done, retries, waited) = retry_device_io(&mut d, 0, 1024, false);
        assert_eq!(retries, 5, "five failed probes, sixth lands healthy");
        assert_eq!(waited, 3_100 * MICROS);
        assert!(done > 3_100 * MICROS, "the read itself still takes time");
        assert_eq!(d.stats().reads, 1, "faulted probes never occupy the device");
    }

    /// One tick later and the sixth probe still faults: the engine stops
    /// probing, jumps to the window close the device reported, and the
    /// seventh dispatch succeeds — six retries total.
    #[test]
    fn retry_jumps_to_window_end_when_sixth_probe_still_faults() {
        let until = 3_100 * MICROS + 1;
        let mut d = faulted_device(until);
        let (done, retries, waited) = retry_device_io(&mut d, 0, 1024, false);
        assert_eq!(retries, 6, "sixth probe fails, then the jump succeeds");
        assert_eq!(waited, until, "resumes exactly at the reported close");
        assert!(done > until);
        assert_eq!(d.stats().reads, 1);
    }

    /// Writes share the same discipline and accounting.
    #[test]
    fn retry_discipline_applies_to_writes() {
        let mut d = faulted_device(250 * MICROS);
        let (_, retries, waited) = retry_device_io(&mut d, 0, 1024, true);
        assert_eq!(retries, 2, "fails at 0 and 100 µs, succeeds at 300 µs");
        assert_eq!(waited, 300 * MICROS);
        assert_eq!(d.stats().writes, 1);
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
        let params = RunParams::new(&cfg, spec, 8, 8, 4)
            .with_cluster_bins(4)
            .with_block_records(16);
        let device = Device::new(DeviceProfile::ssd());
        let mut eng = StorageEngine::<Bfs>::new(0, Arc::new(params), device, 0, None);
        let mut ctx = Ctx::new(0, 0);

        let mut open: Vec<Vec<Edge>> = vec![Vec::new(); 4];
        let mut want: Vec<Vec<Edge>> = Vec::new();
        let seal = |mut chunk: Vec<Edge>| {
            chunk.sort_by_key(|e| e.src);
            chunk
        };
        let mut arrival = 0u64;
        for round in 0..5u64 {
            let mut writes = Vec::new();
            for bin in 0..4u64 {
                let data: Vec<Edge> = (0..25u64)
                    .map(|i| {
                        let nth = round * 25 + i;
                        let key = if bin == 0 { nth * 32 / 125 } else { nth * 13 % 32 };
                        arrival += 1;
                        Edge::new(bin * 32 + key, arrival)
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
        assert!(eng.open_edges.iter().all(|b| b.capacity() == 0), "open buffers released");

        let blocks: Vec<usize> = eng.edges[0]
            .block_indexes()
            .map(|b| b.map_or(1, BlockIndex::blocks))
            .collect();
        for (i, chunk) in want.iter().enumerate() {
            let got = eng.edges[0].serve_next().unwrap().expect("a chunk per expected chunk");
            assert_eq!(*got, *chunk, "chunk {i}");
            assert_eq!(got.capacity(), got.len(), "chunk {i} carries spare capacity");
            assert_eq!(blocks[i], chunk.len().div_ceil(16), "chunk {i}");
        }
        assert!(eng.edges[0].serve_next().unwrap().is_none());
    }

    /// Once the scratch has grown, sealing a chunk allocates the sorted
    /// payload and the block-window vector; a chunk that arrives sorted
    /// allocates the windows alone.
    #[test]
    fn seal_allocates_the_payload_and_the_block_windows_only() {
        let chunk: Vec<Edge> = (0..4096).map(|i| Edge::new(i * 7919 % 256, i)).collect();
        let mut scratch = SealScratch::default();
        seal_chunk(&chunk, |e| e.src, 512, &mut scratch);
        let before = thread_allocations();
        let sealed = seal_chunk(&chunk, |e| e.src, 512, &mut scratch);
        assert_eq!(thread_allocations() - before, 2);
        let sorted = sealed.sorted.expect("shuffled keys move");
        assert_eq!(sealed.blocks.expect("eight blocks").blocks(), 8);
        let before = thread_allocations();
        let again = seal_chunk(&sorted, |e| e.src, 512, &mut scratch);
        assert_eq!(thread_allocations() - before, 1);
        assert!(again.sorted.is_none(), "a sorted chunk stays where it is");
    }
}
