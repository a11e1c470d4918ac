//! The storage engine's integrity layer: the fault layer's one retry
//! ladder ([`Backoff`]), framed device I/O through it
//! ([`FramedDevice`]), and the depth-2 checkpoint chain
//! ([`CheckpointChain`], §6.6).
//!
//! Every recovery rule a storage engine applies lives here, so a hook that
//! instruments recovery — a ledger of what an abort restored, a check on
//! the order of promote, drop and rewind — threads through this module
//! alone. The storage engine serves, seals and dispatches; it calls in
//! here for every device transfer and every checkpoint-round step.

use std::sync::Arc;

use chaos_gas::Record;
use chaos_sim::{rng::mix2, Time, MICROS};
use chaos_storage::{ChunkSet, Device, Replaced, VertexArray, FRAME_BYTES};

use crate::metrics::FaultAccount;

/// The fault layer's one retry rule, shared by device retries, framed
/// re-reads and the torn-checkpoint probe: bounded exponential backoff
/// starting at [`Backoff::BASE`], doubling up to [`Backoff::CAP`]; once
/// [`Backoff::MAX_ATTEMPTS`] consecutive probes failed, the caller waits
/// for the fault window to close, or escalates when it never does. Fully
/// deterministic — no randomness — so retry latency is a pure function of
/// the run's inputs.
#[derive(Default)]
struct Backoff {
    /// Probes that have failed so far.
    failures: u32,
}

impl Backoff {
    const BASE: Time = 100 * MICROS;
    const CAP: Time = 1_600 * MICROS;
    const MAX_ATTEMPTS: u32 = 6;

    /// The probe that completed at `at` failed; `close` is when its fault
    /// window closes (`None`: never). Returns when to probe next: after
    /// the backoff delay while probes remain, then at `close` — or `None`
    /// once the probes ran out and there is no close to wait for
    /// (escalate).
    fn next(&mut self, at: Time, close: Option<Time>) -> Option<Time> {
        self.failures += 1;
        if self.failures < Self::MAX_ATTEMPTS {
            Some(at + (Self::BASE << (self.failures - 1)).min(Self::CAP))
        } else {
            close.map(|c| at.max(c))
        }
    }

    /// Whether the probes ran out before the last one succeeded.
    fn ran_out(&self) -> bool {
        self.failures >= Self::MAX_ATTEMPTS
    }
}

/// One device operation through the transient-fault retry discipline, as a
/// free function so the boundary behavior is unit-testable in isolation: a
/// [`chaos_storage::DeviceError`] is absorbed by retrying on the
/// [`Backoff`] ladder, which waits for the fault window's reported close
/// once it runs out. Returns `(completion, retries, waited)` where
/// `waited` is the simulated time lost before the successful dispatch.
fn retry_device_io(device: &mut Device, now: Time, bytes: u64, write: bool) -> (Time, u64, Time) {
    let mut at = now;
    let mut backoff = Backoff::default();
    loop {
        let res = if write {
            device.try_write(at, bytes)
        } else {
            device.try_read(at, bytes)
        };
        match res {
            Ok(done) => return (done, u64::from(backoff.failures), at - now),
            Err(e) => {
                at = backoff
                    .next(at, Some(e.until))
                    .expect("a device fault window closes")
            }
        }
    }
}

/// What a framed read does once a corruption episode proves persistent
/// (every bounded-backoff re-read inside the window failed its frame
/// check) and the re-read at the window's close came back clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Repair {
    /// Nothing more: the stored bytes are intact (the corruption hit the
    /// wire), nothing durable to fix.
    Reread,
    /// Additionally rewrite the extent from its verified source — vertex
    /// chunks are re-sealed so later reads start from a freshly framed
    /// copy. Charged as one extra read + write.
    Rewrite,
}

/// One machine's device behind its checksum frames: every transfer goes
/// through the fault layer, and this engine's share of the run's fault
/// and integrity account is kept here (the cluster report absorbs every
/// engine's; the coordinator-side fields — aborts, redone iterations —
/// stay zero).
pub struct FramedDevice {
    /// Device queue model.
    pub device: Device,
    /// This engine's fault and integrity counters.
    pub account: FaultAccount,
    /// Monotone framed-read counter: the deterministic "offset" identity
    /// the corruption oracle hashes, advanced identically on every run
    /// because per-engine message order is deterministic.
    read_seq: u64,
}

impl FramedDevice {
    /// Wraps a device with an empty account.
    pub fn new(device: Device) -> Self {
        Self {
            device,
            account: FaultAccount::default(),
            read_seq: 0,
        }
    }

    /// Serves one device operation through the fault layer (see
    /// [`retry_device_io`]). The backoff is charged as storage latency
    /// (the request completes later), counted in `device_retries` /
    /// `faulted_time`. With no fault window covering `now` this is
    /// arithmetically identical to a plain `Device::read`/`Device::write`.
    pub(crate) fn device_io(&mut self, now: Time, bytes: u64, write: bool) -> Time {
        let (done, retries, waited) = retry_device_io(&mut self.device, now, bytes, write);
        self.account.device_retries += retries;
        self.account.faulted_time += waited;
        done
    }

    /// A framed device write: the payload travels with its
    /// [`FRAME_BYTES`]-wide checksum frame, charged to the device and to
    /// the `checksum_bytes` account so integrity overhead is measurable.
    pub(crate) fn framed_write(&mut self, now: Time, bytes: u64) -> Time {
        self.account.checksum_bytes += FRAME_BYTES;
        self.device_io(now, bytes + FRAME_BYTES, true)
    }

    /// Reads `bytes` with `frames` checksum frames on the [`Backoff`]
    /// ladder until a read's frame check passes. `check(device, done)` is
    /// the frame check at a read's completion: `None` when it passes,
    /// `Some(close)` when it fails, `close` being when the mismatch can
    /// clear (`None`: never). Returns the clean read's completion and the
    /// ladder it took, or `Err` with the last probe's completion once the
    /// ladder escalates.
    fn ladder(
        &mut self,
        now: Time,
        bytes: u64,
        frames: u64,
        check: impl Fn(&Device, Time) -> Option<Option<Time>>,
    ) -> Result<(Time, Backoff), Time> {
        let total = bytes + frames * FRAME_BYTES;
        let mut at = now;
        let mut backoff = Backoff::default();
        loop {
            // Every read, first or re-read, moves the frame bytes.
            self.account.checksum_bytes += frames * FRAME_BYTES;
            let done = self.device_io(at, total, false);
            let Some(close) = check(&self.device, done) else {
                return Ok((done, backoff));
            };
            self.account.corruption_detected += 1;
            at = backoff.next(done, close).ok_or(done)?;
            self.account.faulted_time += at - done;
        }
    }

    /// A framed device read through the detect–repair ladder.
    ///
    /// The read transfers `bytes + frames * FRAME_BYTES` and then
    /// evaluates its frame check at the completion instant against the
    /// device's corruption oracle — a pure function of `(window salt,
    /// completion time, read sequence)`, so the same reads corrupt on
    /// every run. On a mismatch the engine re-reads on the [`Backoff`]
    /// ladder (transient corruption usually clears: the stored bytes are
    /// fine, the wire flipped a bit); once the probes run out it re-reads
    /// at the window's close, hopping on while further windows cover the
    /// re-read — and then, if the ladder ran out, applies `repair`.
    pub(crate) fn framed_read_frames(
        &mut self,
        now: Time,
        bytes: u64,
        frames: u64,
        repair: Repair,
    ) -> Time {
        self.read_seq += 1;
        let key = mix2(self.read_seq, bytes);
        let (done, backoff) = self
            .ladder(now, bytes, frames, |device, at| {
                device.corrupt_read(at, key).map(Some)
            })
            .expect("a corruption window closes");
        if backoff.failures == 0 {
            return done;
        }
        // A clean read after at least one failed frame check is a repaired
        // episode.
        self.account.corruption_repaired += 1;
        if repair == Repair::Rewrite && backoff.ran_out() {
            // Re-seal the extent from the verified copy: one read of the
            // source plus one framed write of the extent.
            let total = bytes + frames * FRAME_BYTES;
            let read = self.device_io(done, total, false);
            self.account.checksum_bytes += FRAME_BYTES;
            return self.device_io(read, total, true);
        }
        done
    }

    /// A framed single-chunk read (see [`Self::framed_read_frames`]).
    pub(crate) fn framed_read(&mut self, now: Time, bytes: u64, repair: Repair) -> Time {
        self.framed_read_frames(now, bytes, 1, repair)
    }
}

/// One storage engine's depth-2 checkpoint chain (§6.6, extended for torn
/// writes): the pending copies of the round in progress, the committed
/// snapshot, and the one committed before it — plus, while checkpointing
/// is on, every edge chunk a compaction replaced since the last promote.
///
/// A compaction in iteration `t` drops edges dead under the state at the
/// start of `t`. The depth-2 fallback restores the snapshot from the end
/// of `t - 2`, under which some of those edges are still live, so the
/// rewind puts the replaced chunks back before it restores. Compactions
/// of earlier iterations stay: they dropped edges dead under the restored
/// state already.
pub struct CheckpointChain<S, E> {
    vstate_bytes: u64,
    /// Copies of the round in progress (phase one).
    pending: Vec<VertexArray<S>>,
    /// The newest committed snapshot: what an abort restores.
    committed: Vec<VertexArray<S>>,
    /// The snapshot committed before it: the restore source once the
    /// committed copy fails its frame check (a torn checkpoint write).
    prev: Vec<VertexArray<S>>,
    /// Fault-injection hook for the validation round: marks the pending
    /// snapshot torn so the next validation fails and the coordinator
    /// drops the snapshot instead of promoting it.
    pub pending_torn: bool,
    /// A committed chunk whose frame check fails persistently (torn by a
    /// crash mid-write); set by [`Self::torn_probe`], cleared by the
    /// rewind.
    torn_chunk: Option<(usize, u32)>,
    /// Whether compactions are kept for a rewind (checkpointing is on).
    keep: bool,
    /// What each compaction since the last promote replaced, oldest
    /// first, by partition and direction (`true`: the reverse set).
    kept: Vec<(usize, bool, Replaced<E>)>,
}

impl<S, E: Record> CheckpointChain<S, E> {
    /// An empty chain over `parts` partitions; `keep` when checkpointing
    /// is on.
    pub fn new(parts: usize, vstate_bytes: u64, keep: bool) -> Self {
        let empty = || (0..parts).map(|_| VertexArray::new(vstate_bytes)).collect();
        Self {
            vstate_bytes,
            pending: empty(),
            committed: empty(),
            prev: empty(),
            pending_torn: false,
            torn_chunk: None,
            keep,
            kept: Vec::new(),
        }
    }

    /// A chunk of the committed snapshot.
    pub fn committed_chunk(&self, part: usize, no: u32) -> Option<Arc<Vec<S>>> {
        self.committed[part].get(no)
    }

    /// Both committed levels, for the scrub pass.
    pub(crate) fn committed_levels(&self) -> impl Iterator<Item = &VertexArray<S>> {
        self.committed.iter().chain(&self.prev)
    }

    /// Phase one: copies a vertex chunk into the pending snapshot.
    pub(crate) fn copy(&mut self, part: usize, no: u32, data: Arc<Vec<S>>) {
        self.pending[part].put(no, data);
    }

    /// Frames in the pending snapshot, re-verified by the validation
    /// round.
    pub(crate) fn pending_frames(&self) -> u64 {
        self.pending.iter().map(|p| p.len() as u64).sum()
    }

    /// Phase two: the pending snapshot becomes committed and the outgoing
    /// committed one the fallback; the snapshot below it drops off the
    /// end, and so do the kept compactions, which no rewind can reach any
    /// more. A partition with nothing pending (a crash-driven re-promote
    /// after the snapshot already moved) keeps its chain as is.
    pub(crate) fn promote(&mut self) {
        for part in 0..self.pending.len() {
            if self.pending[part].is_empty() {
                continue;
            }
            let pending =
                std::mem::replace(&mut self.pending[part], VertexArray::new(self.vstate_bytes));
            self.prev[part] = std::mem::replace(&mut self.committed[part], pending);
        }
        self.kept.clear();
    }

    /// Discards a half-taken snapshot: recovery rolls back to the last
    /// committed one, and the next copy phase starts from scratch.
    pub(crate) fn discard_pending(&mut self) {
        for p in &mut self.pending {
            *p = VertexArray::new(self.vstate_bytes);
        }
    }

    /// The validation round refused the snapshot on some machine: drop
    /// every pending copy. The committed chain — kept compactions
    /// included — is untouched.
    pub(crate) fn drop_refused(&mut self, account: &mut FaultAccount) {
        self.pending_torn = false;
        account.snapshots_dropped += 1;
        self.discard_pending();
    }

    /// A compaction of partition `part` replaced `replaced`: keep it for
    /// a rewind until the next promote, if checkpointing is on.
    pub(crate) fn compacted(&mut self, part: usize, reverse: bool, replaced: Replaced<E>) {
        if self.keep {
            self.kept.push((part, reverse, replaced));
        }
    }

    /// The depth-2 fallback: the committed snapshot proved torn, so the
    /// previous one becomes the restore source, and every compaction since
    /// the last promote is put back, newest first.
    pub(crate) fn rewind(&mut self, account: &mut FaultAccount, edges: &mut [Vec<ChunkSet<E>>; 2]) {
        for part in 0..self.committed.len() {
            self.committed[part] =
                std::mem::replace(&mut self.prev[part], VertexArray::new(self.vstate_bytes));
        }
        for (part, reverse, replaced) in self.kept.drain(..).rev() {
            edges[usize::from(reverse)][part].put_back(replaced);
        }
        if self.torn_chunk.take().is_some() {
            account.corruption_repaired += 1;
        }
    }

    /// The crash tore this machine's checkpoint write: the first committed
    /// chunk in (partition, chunk) order fails its frame check on every
    /// probe of the ladder, each charged like a framed re-read, and then
    /// the engine escalates instead of restoring from damaged data.
    /// Returns when the ladder gave up, or `None` when nothing is
    /// committed here.
    pub(crate) fn torn_probe(&mut self, io: &mut FramedDevice, now: Time) -> Option<Time> {
        let (part, no) = self
            .committed
            .iter()
            .enumerate()
            .find_map(|(part, va)| va.chunk_nos().next().map(|no| (part, no)))?;
        self.torn_chunk = Some((part, no));
        let bytes = self.committed[part].chunk_bytes(no);
        let escalated = io.ladder(now, bytes, 1, |_, _| Some(None));
        Some(escalated.err().expect("a torn frame never verifies"))
    }

    /// Restores the live vertex chunks from the committed snapshot: a
    /// framed read of the checkpoint (every chunk re-verifies its frame)
    /// and a framed write of the live copies, through the fault layer, so
    /// a device fault during recovery only delays the returned
    /// completion.
    pub(crate) fn restore(
        &self,
        io: &mut FramedDevice,
        now: Time,
        vertices: &mut [VertexArray<S>],
    ) -> Time {
        let mut bytes = 0;
        let mut frames = 0u64;
        for (live, snap) in vertices.iter_mut().zip(&self.committed) {
            for no in snap.chunk_nos() {
                bytes += live.put(no, snap.get(no).expect("iterated chunk"));
                frames += 1;
            }
        }
        io.framed_read_frames(now, bytes, frames, Repair::Reread);
        io.account.checksum_bytes += frames * FRAME_BYTES;
        io.device_io(now, bytes + frames * FRAME_BYTES, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_storage::{ChunkIndex, CorruptionWindow, DeviceProfile, FaultWindow};

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

    /// A device whose every framed read corrupts inside each window.
    fn corrupting(windows: &[(Time, Time)]) -> FramedDevice {
        let mut d = Device::new(DeviceProfile::ssd());
        d.set_corruption(
            windows
                .iter()
                .map(|&(from, until)| CorruptionWindow {
                    from,
                    until,
                    salt: 7,
                    one_in: 1,
                })
                .collect(),
        );
        FramedDevice::new(d)
    }

    /// The one ladder: 100, 200, 400, 800 and 1600 µs before the second
    /// to sixth probes, then the window's close — and nothing without one.
    #[test]
    fn backoff_doubles_to_the_cap_then_waits_for_the_close() {
        let mut b = Backoff::default();
        let delays: Vec<Time> = std::iter::from_fn(|| b.next(0, None)).collect();
        assert_eq!(delays, [100, 200, 400, 800, 1600].map(|us| us * MICROS));
        assert!(b.ran_out());
        assert_eq!(b.next(0, None), None, "no close: escalate");
        assert_eq!(
            b.next(5, Some(9)),
            Some(9),
            "out of probes: wait for the close"
        );
        assert_eq!(
            b.next(9, Some(5)),
            Some(9),
            "a close already past: probe at once"
        );
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

    /// A re-read that comes back clean while the ladder still backs off
    /// repairs the episode without a rewrite; one that needs the window's
    /// close rewrites the extent — one more read and one framed write.
    #[test]
    fn rewrite_happens_only_after_the_ladder_runs_out() {
        let mut io = corrupting(&[(0, 250 * MICROS)]);
        io.framed_read(0, 4096, Repair::Rewrite);
        assert_eq!(io.account.corruption_detected, 2, "at 0 and 100 µs");
        assert_eq!(io.account.corruption_repaired, 1);
        assert_eq!((io.device.stats().reads, io.device.stats().writes), (3, 0));

        let mut io = corrupting(&[(0, 10_000 * MICROS)]);
        io.framed_read(0, 4096, Repair::Rewrite);
        assert_eq!(io.account.corruption_detected, 6);
        assert_eq!(io.account.corruption_repaired, 1);
        assert_eq!((io.device.stats().reads, io.device.stats().writes), (8, 1));
        assert_eq!(
            io.account.checksum_bytes,
            8 * FRAME_BYTES,
            "7 reads + the rewrite"
        );
    }

    /// Two back-to-back windows: the ladder runs out in the first, hops
    /// to its close, fails again and hops to the second's close. The
    /// fault time counts each wait once, from the probe it follows, so it
    /// stays below the time that passed.
    #[test]
    fn a_second_window_hop_counts_its_own_wait() {
        let mut io = corrupting(&[(0, 10_000 * MICROS), (10_000 * MICROS, 20_000 * MICROS)]);
        let done = io.framed_read(0, 4096, Repair::Reread);
        assert_eq!(io.account.corruption_detected, 7);
        assert_eq!(io.account.corruption_repaired, 1);
        assert_eq!(done, 20_059_804);
        assert_eq!(io.account.faulted_time, 19_581_372);
    }

    /// A torn committed chunk fails all six probes, and the engine
    /// escalates; with nothing committed there is nothing to probe.
    #[test]
    fn torn_probe_counts_six_detections_then_escalates() {
        let mut io = FramedDevice::new(Device::new(DeviceProfile::ssd()));
        let mut chain = CheckpointChain::<u64, u64>::new(2, 8, true);
        assert_eq!(chain.torn_probe(&mut io, 0), None);
        chain.copy(1, 3, Arc::new(vec![0; 512]));
        chain.promote();
        let done = chain.torn_probe(&mut io, 0).expect("a committed chunk");
        assert_eq!(io.account.corruption_detected, 6);
        assert_eq!(
            io.account.faulted_time,
            3_100 * MICROS,
            "five backoff delays"
        );
        assert_eq!(io.account.checksum_bytes, 6 * FRAME_BYTES);
        assert_eq!(io.device.stats().reads, 6);
        assert!(done > 3_100 * MICROS);
        assert_eq!(chain.torn_chunk, Some((1, 3)));
    }

    /// Promote shifts the chain and forgets the kept compactions; a
    /// refused snapshot changes neither level and keeps them; the rewind
    /// makes the older snapshot the restore source and puts every
    /// compaction since the last promote back, newest first.
    #[test]
    fn chain_order_of_promote_drop_and_rewind() {
        let snap = |v: u64| Arc::new(vec![v; 4]);
        let committed = |c: &CheckpointChain<u64, u64>| c.committed_chunk(0, 0).map(|d| d[0]);
        let mut account = FaultAccount::default();
        let mut edges = [(); 2].map(|()| vec![ChunkSet::<u64>::in_memory(8)]);
        let forward = Arc::new((0..10).collect());
        edges[0][0]
            .append_with_blocks(forward, Some(ChunkIndex::span(0, 9)), None)
            .unwrap();
        let compact = |set: &mut ChunkSet<u64>, lo: u64| {
            set.replace_with_blocks(
                0,
                Arc::new((lo..10).collect()),
                Some(ChunkIndex::span(lo, 9)),
                None,
            )
            .unwrap()
        };
        let mut chain = CheckpointChain::<u64, u64>::new(1, 8, true);
        for v in [1, 2] {
            chain.copy(0, 0, snap(v));
            chain.promote();
        }
        // Iteration 2 compacts; a promote forgets it.
        let r = compact(&mut edges[0][0], 2);
        chain.compacted(0, false, r);
        chain.copy(0, 0, snap(3));
        chain.promote();
        assert_eq!(committed(&chain), Some(3));
        // Iteration 3 compacts twice; its snapshot is refused.
        for lo in [4, 6] {
            let r = compact(&mut edges[0][0], lo);
            chain.compacted(0, false, r);
        }
        chain.copy(0, 0, snap(4));
        chain.pending_torn = true;
        chain.drop_refused(&mut account);
        assert_eq!((account.snapshots_dropped, chain.pending_frames()), (1, 0));
        assert!(!chain.pending_torn);
        assert_eq!(committed(&chain), Some(3));
        // The fallback restores snapshot 2 over the edges promote 3 saw.
        chain.rewind(&mut account, &mut edges);
        assert_eq!(committed(&chain), Some(2));
        assert_eq!(
            edges[0][0].stats().records,
            8,
            "iteration 2's compaction stays"
        );
        assert_eq!(
            edges[0][0].indexes().next(),
            Some(Some(ChunkIndex::span(2, 9)))
        );
        assert_eq!(account.corruption_repaired, 0, "nothing was found torn");

        // With checkpointing off nothing is kept.
        let mut chain = CheckpointChain::<u64, u64>::new(1, 8, false);
        let r = compact(&mut edges[0][0], 5);
        chain.compacted(0, false, r);
        chain.rewind(&mut account, &mut edges);
        assert_eq!(edges[0][0].stats().records, 5);
    }
}
