//! Typed chunk sets with read-once-per-iteration semantics (§6.3).
//!
//! Edge and update sets are stored and retrieved one chunk at a time. A
//! storage engine is free to return *any* unprocessed chunk for a partition
//! (order independence), but each chunk must be served exactly once per
//! iteration. Chaos implements this exactly as the paper does: a cursor per
//! set that only moves forward, reset at iteration boundaries ("the file
//! pointer is reset to the beginning of the file at the end of each
//! iteration", §7).

use std::sync::Arc;

use chaos_gas::{ActiveSet, Record};

use crate::file::FileBacking;

/// Where a chunk's payload lives.
#[derive(Debug)]
enum Payload<T> {
    /// Payload held in memory, shared with readers.
    Mem(Arc<Vec<T>>),
    /// Payload in the backing file at `(offset, encoded_len)`.
    File(u64, u64),
    /// In-memory payload handed over by [`ChunkSet::take_next`]; the set
    /// no longer holds it and cannot serve the entry again.
    Taken,
}

/// Scatter-key index of one chunk: the inclusive key window `(lo, hi)` of
/// its records plus a stride-occupancy summary — a bitmap of up to 64
/// equal-width buckets over the window, bit `i` set iff some record's key
/// falls in bucket `i`.
///
/// The window alone skips a chunk whose key range misses the active set
/// entirely; the occupancy bitmap additionally skips chunks whose window
/// *overlaps* the active set but whose occupied strides don't — the case
/// a mid-wavefront frontier leaves behind once the clustered layout makes
/// windows narrow. Both tests are exact over the chunk's real keys, so a
/// skip is always sound (a key outside every occupied stride cannot
/// exist).
///
/// An inverted window (`lo > hi`, occupancy 0) is the canonical empty
/// chunk, skippable under any active set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkIndex {
    /// Lowest scatter key present.
    pub lo: u64,
    /// Highest scatter key present (inclusive).
    pub hi: u64,
    /// Stride-occupancy bitmap over `[lo, hi]` at [`ChunkIndex::stride_width`].
    pub strides: u64,
}

impl ChunkIndex {
    /// The empty chunk's index: inverted window, no occupied strides.
    pub const EMPTY: ChunkIndex = ChunkIndex {
        lo: u64::MAX,
        hi: 0,
        strides: 0,
    };

    /// Builds the index from the chunk's scatter keys (two passes: window,
    /// then occupancy). An empty iterator yields [`ChunkIndex::EMPTY`].
    pub fn from_keys<I: Iterator<Item = u64> + Clone>(keys: I) -> Self {
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for k in keys.clone() {
            lo = lo.min(k);
            hi = hi.max(k);
        }
        if lo > hi {
            return Self::EMPTY;
        }
        let mut ix = Self { lo, hi, strides: 0 };
        let w = ix.stride_width();
        for k in keys {
            ix.strides |= 1u64 << ((k - lo) / w);
        }
        ix
    }

    /// A fully occupied index over the inclusive window `[lo, hi]` —
    /// window-only semantics (every stride counts as occupied).
    pub fn span(lo: u64, hi: u64) -> Self {
        if lo > hi {
            return Self::EMPTY;
        }
        Self {
            lo,
            hi,
            strides: !0,
        }
    }

    /// Width of one occupancy stride (so that at most 64 strides cover
    /// the window).
    pub fn stride_width(&self) -> u64 {
        debug_assert!(self.lo <= self.hi);
        (self.hi - self.lo) / 64 + 1
    }

    /// Key width of the window, `None` for the empty (inverted) index.
    pub fn width(&self) -> Option<u64> {
        (self.lo <= self.hi).then(|| self.hi - self.lo + 1)
    }

    /// Whether any occupied stride contains an active key — the chunk-skip
    /// test. The window test runs first (one cheap range query); only a
    /// window that overlaps the active set pays for the per-stride scan.
    pub fn intersects(&self, active: &ActiveSet) -> bool {
        if self.lo > self.hi || !active.any_in_window(self.lo, self.hi) {
            return false;
        }
        let w = self.stride_width();
        let mut bits = self.strides;
        while bits != 0 {
            let b = bits.trailing_zeros() as u64;
            let lo = self.lo + b * w;
            if active.any_in_window(lo, (lo + w - 1).min(self.hi)) {
                return true;
            }
            bits &= bits - 1;
        }
        false
    }
}

/// Sub-chunk index of one *key-sorted* chunk: fixed `block_records`-sized
/// blocks of consecutive records, each carrying its inclusive scatter-key
/// window — the LSM design point where the chunk is the SSTable and this
/// is its block index.
///
/// The windows are an exact, monotone refinement of the chunk's
/// [`ChunkIndex`]: sorted interiors make `windows[i].1 <= windows[i+1].0`,
/// so a scan for active blocks can jump over every block below the next
/// active key instead of probing each one. Equal keys may straddle a block
/// boundary (the sort is stable, not unique), which is why consecutive
/// windows may *touch*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockIndex {
    block_records: u32,
    /// Per-block inclusive key windows `(lo, hi)`, in record order.
    windows: Vec<(u64, u64)>,
}

impl BlockIndex {
    /// Builds the index over a chunk's scatter keys in record order, which
    /// must be sorted (non-decreasing) — the sort-on-seal contract.
    /// Returns `None` for an empty key sequence or a single block (a
    /// one-block index can never refine the chunk-level decision).
    ///
    /// # Panics
    ///
    /// Panics if `block_records == 0`; debug-panics on unsorted keys.
    pub fn from_sorted_keys<I: Iterator<Item = u64>>(keys: I, block_records: u32) -> Option<Self> {
        assert!(block_records > 0, "blocks must hold records");
        let mut windows = Vec::new();
        let mut fill = 0u32;
        let mut last = 0u64;
        for k in keys {
            debug_assert!(
                windows.is_empty() && fill == 0 || k >= last,
                "keys must be sorted"
            );
            last = k;
            if fill == 0 {
                windows.push((k, k));
            } else {
                windows.last_mut().expect("open block").1 = k;
            }
            fill += 1;
            if fill == block_records {
                fill = 0;
            }
        }
        (windows.len() > 1).then_some(Self {
            block_records,
            windows,
        })
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.windows.len()
    }

    /// Records per block (the last block may be shorter).
    pub fn block_records(&self) -> u32 {
        self.block_records
    }

    /// The inclusive key window of block `b`.
    pub fn window(&self, b: usize) -> (u64, u64) {
        self.windows[b]
    }

    /// The record-offset range `[start, end)` of block `b` within a chunk
    /// of `total` records.
    pub fn record_range(&self, b: usize, total: u64) -> (u64, u64) {
        let start = b as u64 * self.block_records as u64;
        (start, (start + self.block_records as u64).min(total))
    }

    /// Runs of consecutive blocks `[start, end)` holding at least one
    /// active key, in block order. Exploits window monotonicity: after the
    /// active set's next key is known, every block whose window tops out
    /// below it is skipped in one `partition_point`.
    pub fn active_runs(&self, active: &ActiveSet) -> Vec<(u32, u32)> {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        let n = self.windows.len();
        let mut b = 0usize;
        let mut key = active.first_active_in(self.windows[0].0, self.windows[n - 1].1);
        while b < n {
            let Some(k) = key else { break };
            // Jump past every block that tops out below the next active key.
            b += self.windows[b..].partition_point(|&(_, hi)| hi < k);
            if b >= n {
                break;
            }
            let (lo, hi) = self.windows[b];
            if k < lo {
                // The active key sits in a key gap between blocks; re-probe
                // from this block's window onward.
                key = active.first_active_in(lo, self.windows[n - 1].1);
                continue;
            }
            debug_assert!(k <= hi, "partition_point stopped at a covering block");
            match runs.last_mut() {
                Some(r) if r.1 == b as u32 => r.1 += 1,
                _ => runs.push((b as u32, b as u32 + 1)),
            }
            b += 1;
            if b < n {
                key = active.first_active_in(self.windows[b].0, self.windows[n - 1].1);
            }
        }
        runs
    }
}

/// Widest radix digit of one [`seal_chunk`] ordering pass: 4096 `u32`
/// counters, half of a 32 KiB L1. A key window up to that wide — a bin-pure
/// chunk of a partition of up to 64 K vertices at the default 16 bins —
/// orders in a single counting pass; a wider one splits into equal digits.
const MAX_DIGIT_BITS: u32 = 12;

/// Caller-owned scratch of [`seal_chunk`]: the digit histograms and the two
/// index permutations of the ordering passes. Grows to the largest chunk
/// sealed and is reused from then on.
#[derive(Debug, Default)]
pub struct SealScratch {
    counts: Vec<u32>,
    order: Vec<u32>,
    next: Vec<u32>,
}

/// What [`seal_chunk`] derives from one chunk's records.
#[derive(Debug)]
pub struct SealedChunk<T> {
    /// The records in stable scatter-key order, in an exactly sized buffer;
    /// `None` when they arrived in that order (or block indexing is off)
    /// and nothing had to move.
    pub sorted: Option<Vec<T>>,
    /// Chunk-level key window and stride occupancy.
    pub index: ChunkIndex,
    /// Per-block key windows of the sorted interior; `None` with block
    /// indexing off or a chunk of at most one block.
    pub blocks: Option<BlockIndex>,
}

/// Seals one chunk: the sort-on-seal ordering contract and both indexes.
///
/// With `block_records > 0` the sealed interior is the records in *stable*
/// scatter-key order — equal keys keep their arrival order, so the layout
/// is a pure function of the written record sequence — indexed exactly as
/// [`ChunkIndex::from_keys`] and [`BlockIndex::from_sorted_keys`] index it.
/// One pass finds the key window and whether the records already arrive
/// ordered (compaction survivors do, and are left where they are);
/// otherwise an LSD counting sort over `key - lo` orders record *indices*
/// — one pass for a window of up to `2^MAX_DIGIT_BITS` keys — and the
/// records move once, into a buffer of exactly their length. The stride
/// bitmap and the block windows are then read off the sorted run by
/// stepping from stride to stride and sampling block ends: no key is
/// divided, no window is grown record by record.
///
/// With `block_records == 0` nothing is ordered and only the chunk-level
/// index is built, the layout of the chunk-granularity serves.
///
/// # Panics
///
/// Panics on a chunk of `2^32` records or more.
pub fn seal_chunk<T: Copy>(
    records: &[T],
    key: impl Fn(&T) -> u64,
    block_records: u32,
    scratch: &mut SealScratch,
) -> SealedChunk<T> {
    if block_records == 0 {
        return SealedChunk {
            sorted: None,
            index: ChunkIndex::from_keys(records.iter().map(&key)),
            blocks: None,
        };
    }
    let (mut lo, mut hi, mut ordered) = (u64::MAX, 0u64, true);
    for r in records {
        let k = key(r);
        // While the run is ordered, `hi` is the previous key.
        ordered &= k >= hi;
        lo = lo.min(k);
        hi = hi.max(k);
    }
    let sorted = (!ordered).then(|| stable_key_order(records, &key, lo, hi, scratch));
    let run = sorted.as_deref().unwrap_or(records);
    SealedChunk {
        index: stride_index(run, &key, lo, hi),
        blocks: block_windows(run, &key, block_records),
        sorted,
    }
}

/// The records in stable key order: LSD counting passes over the digits of
/// `key - lo` permute record indices, then one gather moves the records.
fn stable_key_order<T: Copy>(
    records: &[T],
    key: &impl Fn(&T) -> u64,
    lo: u64,
    hi: u64,
    scratch: &mut SealScratch,
) -> Vec<T> {
    let n = u32::try_from(records.len()).expect("chunk record indices fit in 32 bits");
    let bits = u64::BITS - (hi - lo).leading_zeros();
    // Out of order, so `hi > lo`: at least one bit, hence one pass.
    let passes = bits.div_ceil(MAX_DIGIT_BITS);
    let digit_bits = bits.div_ceil(passes);
    let buckets = 1usize << digit_bits;
    let digit = |r: &T, pass: u32| ((key(r) - lo) >> (pass * digit_bits)) as usize & (buckets - 1);

    let SealScratch {
        counts,
        order,
        next,
    } = scratch;
    counts.clear();
    counts.resize(passes as usize * buckets, 0);
    for r in records {
        for pass in 0..passes {
            counts[pass as usize * buckets + digit(r, pass)] += 1;
        }
    }
    order.clear();
    order.extend(0..n);
    next.clear();
    next.resize(records.len(), 0);
    for (pass, starts) in counts.chunks_exact_mut(buckets).enumerate() {
        // Counts to first positions, then a stable placement pass.
        let mut at = 0;
        for c in starts.iter_mut() {
            at += std::mem::replace(c, at);
        }
        for &i in order.iter() {
            let slot = &mut starts[digit(&records[i as usize], pass as u32)];
            next[*slot as usize] = i;
            *slot += 1;
        }
        std::mem::swap(order, next);
    }
    order.iter().map(|&i| records[i as usize]).collect()
}

/// [`ChunkIndex::from_keys`] of a key-sorted run with known window: the
/// stride a key falls in is stepped up to, never divided out.
fn stride_index<T>(run: &[T], key: &impl Fn(&T) -> u64, lo: u64, hi: u64) -> ChunkIndex {
    if run.is_empty() {
        return ChunkIndex::EMPTY;
    }
    let mut index = ChunkIndex { lo, hi, strides: 0 };
    let width = index.stride_width();
    // The stride being filled: its first key (relative to `lo`) and its bit.
    let (mut start, mut bit) = (0u64, 1u64);
    for r in run {
        let rel = key(r) - lo;
        while rel - start >= width {
            start += width;
            bit <<= 1;
        }
        index.strides |= bit;
    }
    index
}

/// [`BlockIndex::from_sorted_keys`] of a key-sorted run, sampling each
/// block's first and last record.
fn block_windows<T>(run: &[T], key: &impl Fn(&T) -> u64, block_records: u32) -> Option<BlockIndex> {
    let block = block_records as usize;
    (run.len() > block).then(|| BlockIndex {
        block_records,
        windows: run
            .chunks(block)
            .map(|b| (key(&b[0]), key(&b[b.len() - 1])))
            .collect(),
    })
}

#[derive(Debug)]
struct Entry<T> {
    payload: Payload<T>,
    records: u64,
    /// Scatter-key index selective streaming tests active sets against;
    /// `None` means unindexed (never skipped).
    index: Option<ChunkIndex>,
    /// Block-granular refinement of `index` for key-sorted interiors;
    /// `None` means chunk-granularity serves only (PR 6 behavior).
    blocks: Option<BlockIndex>,
}

/// An entry [`ChunkSet::replace_with_blocks`] took out of its set, for
/// [`ChunkSet::put_back`]. On the file backend it names an extent of the
/// log-structured backing file, which no later write overwrites.
#[derive(Debug)]
pub struct Replaced<T> {
    entry: u32,
    old: Entry<T>,
}

/// One chunk handed out by [`ChunkSet::serve_next_selective`].
#[derive(Debug)]
pub struct ServedChunk<T> {
    /// Index of the entry within the set — the stable identity used to
    /// address in-place replacement (compaction).
    pub entry: u32,
    /// The payload.
    pub data: Arc<Vec<T>>,
    /// Whether block-granular filtering dropped records from this serve:
    /// the payload is the concatenation of the active block runs, not the
    /// whole chunk. A partial payload must not be used to rewrite the
    /// entry (compaction would silently drop the skipped blocks).
    pub partial: bool,
}

/// Outcome of one selective serve: the next chunk whose source window
/// intersects the active set (if any), plus an account of every chunk the
/// filter consumed without reading.
#[derive(Debug)]
pub struct ServeOutcome<T> {
    /// The served chunk, or `None` when the set is exhausted this epoch.
    pub served: Option<ServedChunk<T>>,
    /// Chunks skipped by the activity filter before this response.
    pub skipped_chunks: u32,
    /// Records in those skipped chunks.
    pub skipped_records: u64,
    /// Blocks of the *served* chunk skipped by its block index.
    pub skipped_blocks: u32,
    /// Records in those skipped blocks (intra-chunk skips).
    pub skipped_records_intra: u64,
    /// Skipped payloads, materialized only when the caller asks (the
    /// engine's debug builds stream them through the kernels to verify
    /// they produce nothing) — whole skipped chunks followed by the served
    /// chunk's skipped block runs, in storage order. Empty otherwise —
    /// skipping without reading is the point.
    pub skipped_payloads: Vec<Arc<Vec<T>>>,
}

/// Aggregate statistics for a chunk set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkSetStats {
    /// Number of chunks.
    pub chunks: u64,
    /// Total records across chunks.
    pub records: u64,
    /// Total storage bytes across chunks (at the configured record width).
    pub bytes: u64,
}

/// An append-only set of typed chunks for one (partition, structure) pair.
///
/// `record_bytes` is the *storage* width of a record (per the graph's
/// [`chaos_graph::SizeModel`]), which may differ from the in-memory width;
/// all byte accounting uses it.
#[derive(Debug)]
pub struct ChunkSet<T> {
    record_bytes: u64,
    entries: Vec<Entry<T>>,
    cursor: usize,
    file: Option<FileBacking>,
    /// Total records across entries — `records_remaining`'s reset value.
    records_total: u64,
    /// Records in entries the cursor has not yet consumed this epoch,
    /// maintained incrementally so the steal criterion's
    /// [`ChunkSet::bytes_remaining`] probe is O(1) instead of an
    /// O(entries) rescan.
    records_remaining: u64,
}

impl<T: Record> ChunkSet<T> {
    /// Creates an in-memory chunk set.
    ///
    /// # Panics
    ///
    /// Panics if `record_bytes == 0`.
    pub fn in_memory(record_bytes: u64) -> Self {
        assert!(record_bytes > 0, "records must occupy storage bytes");
        Self {
            record_bytes,
            entries: Vec::new(),
            cursor: 0,
            file: None,
            records_total: 0,
            records_remaining: 0,
        }
    }

    /// Creates a file-backed chunk set; payloads are written through to the
    /// file and decoded on read.
    pub fn file_backed(record_bytes: u64, file: FileBacking) -> Self {
        assert!(record_bytes > 0, "records must occupy storage bytes");
        Self {
            record_bytes,
            entries: Vec::new(),
            cursor: 0,
            file: Some(file),
            records_total: 0,
            records_remaining: 0,
        }
    }

    /// Whether this set stores payloads in a file.
    pub fn is_file_backed(&self) -> bool {
        self.file.is_some()
    }

    /// Appends an unindexed chunk. Returns its storage size in bytes.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file backend write fails.
    pub fn append(&mut self, records: Arc<Vec<T>>) -> std::io::Result<u64> {
        self.append_with_blocks(records, None, None)
    }

    /// Appends a chunk carrying both a scatter-key index and a block-level
    /// refinement over its (key-sorted) interior. Returns its storage size
    /// in bytes.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file backend write fails.
    pub fn append_with_blocks(
        &mut self,
        records: Arc<Vec<T>>,
        index: Option<ChunkIndex>,
        blocks: Option<BlockIndex>,
    ) -> std::io::Result<u64> {
        let n = records.len() as u64;
        debug_assert!(block_index_consistent(blocks.as_ref(), index.as_ref(), n));
        let bytes = n * self.record_bytes;
        let payload = match &mut self.file {
            Some(f) => {
                let (off, len) = f.append(records.as_slice())?;
                Payload::File(off, len)
            }
            None => Payload::Mem(records),
        };
        self.entries.push(Entry {
            payload,
            records: n,
            index,
            blocks,
        });
        self.records_total += n;
        self.records_remaining += n;
        Ok(bytes)
    }

    /// Replaces the payload of entry `entry` in place (chunk compaction:
    /// tombstoned records removed, identity and serve-once semantics
    /// preserved), with a rebuilt block index for the compacted payload
    /// (compaction preserves record order, so survivors of a sorted chunk
    /// stay sorted and the rebuilt blocks stay monotone). On the file
    /// backend the survivors are appended and the entry repointed —
    /// log-structured compaction; the dead extent stays in the backing
    /// file until the set is cleared or dropped (edge sets are never
    /// cleared mid-run, so their files only shrink when the run's scratch
    /// directory goes away — growth is bounded, since each replacement
    /// writes at most half the previous extent). Returns the entry it took
    /// out, which [`ChunkSet::put_back`] restores.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file backend write fails.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is out of range.
    pub fn replace_with_blocks(
        &mut self,
        entry: u32,
        records: Arc<Vec<T>>,
        index: Option<ChunkIndex>,
        blocks: Option<BlockIndex>,
    ) -> std::io::Result<Replaced<T>> {
        let n = records.len() as u64;
        debug_assert!(block_index_consistent(blocks.as_ref(), index.as_ref(), n));
        // Compaction only removes records, so a replacement can narrow a
        // chunk's key window but never widen it (compaction-to-empty
        // yields the inverted always-skip window, which trivially
        // narrows). This is what keeps clustered-layout windows narrow
        // across arbitrarily many compaction rounds.
        debug_assert!(
            match (&self.entries[entry as usize].index, &index) {
                (Some(old), Some(new)) => new.lo > new.hi || (new.lo >= old.lo && new.hi <= old.hi),
                _ => true,
            },
            "replacement widened a chunk window"
        );
        let payload = match &mut self.file {
            Some(f) => {
                let (off, len) = f.append(records.as_slice())?;
                Payload::File(off, len)
            }
            None => Payload::Mem(records),
        };
        let new = Entry {
            payload,
            records: n,
            index,
            blocks,
        };
        Ok(Replaced {
            entry,
            old: self.swap_entry(entry, new),
        })
    }

    /// Puts an entry [`ChunkSet::replace_with_blocks`] took out back in
    /// its place, undoing that compaction. Putting back every replacement
    /// since some point, newest first, restores the set as it was then.
    pub fn put_back(&mut self, replaced: Replaced<T>) {
        self.swap_entry(replaced.entry, replaced.old);
    }

    /// Swaps `new` in for entry `entry`, keeping the record counters, and
    /// returns the entry it displaced.
    fn swap_entry(&mut self, entry: u32, new: Entry<T>) -> Entry<T> {
        let n = new.records;
        let old = std::mem::replace(&mut self.entries[entry as usize], new);
        self.records_total = self.records_total - old.records + n;
        // Entries the cursor already consumed this epoch are not part of
        // the remaining-work estimate; compaction typically rewrites the
        // chunk just served, but a replacement can also land after an
        // epoch reset put the entry back in front of the cursor.
        if (entry as usize) >= self.cursor {
            self.records_remaining = self.records_remaining - old.records + n;
        }
        old
    }

    /// Serves the next unprocessed chunk for the current iteration, or
    /// `None` if all chunks have been consumed. Each chunk is returned at
    /// most once per iteration epoch.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file backend read fails.
    pub fn serve_next(&mut self) -> std::io::Result<Option<Arc<Vec<T>>>> {
        Ok(self
            .serve_next_selective(None, false)?
            .served
            .map(|s| s.data))
    }

    /// [`ChunkSet::serve_next`] for a set read exactly once: an in-memory
    /// payload is handed over, not shared, so the set stops holding it the
    /// moment it is served and no placeholder is allocated in its place.
    /// The entry keeps its record count, so [`ChunkSet::stats`],
    /// [`ChunkSet::bytes_remaining`] and [`ChunkSet::exhausted`] read
    /// exactly as after `serve_next`; a later epoch that reaches it panics.
    /// A file-backed payload stays in its file and is read as usual.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file backend read fails.
    pub fn take_next(&mut self) -> std::io::Result<Option<Arc<Vec<T>>>> {
        let idx = self.cursor;
        let Some(e) = self.entries.get_mut(idx) else {
            return Ok(None);
        };
        self.cursor += 1;
        self.records_remaining -= e.records;
        match std::mem::replace(&mut e.payload, Payload::Taken) {
            Payload::Mem(data) => Ok(Some(data)),
            kept => {
                e.payload = kept;
                self.read_entry(idx).map(Some)
            }
        }
    }

    /// Serves the next unprocessed chunk whose source window intersects
    /// `active`, consuming (but not reading) every indexed chunk in front
    /// of it that provably holds no active source. With `active = None`
    /// nothing is filtered and this is exactly [`ChunkSet::serve_next`].
    ///
    /// Skipped chunks count as served for the epoch: the cursor moves past
    /// them, [`ChunkSet::bytes_remaining`] drops by their size, and they
    /// come back only after [`ChunkSet::reset_epoch`]. With
    /// `materialize_skipped`, skipped payloads are read anyway and
    /// returned for oracle verification (the engine's debug-build skip
    /// check) — accounting is unchanged.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file backend read fails.
    pub fn serve_next_selective(
        &mut self,
        active: Option<&ActiveSet>,
        materialize_skipped: bool,
    ) -> std::io::Result<ServeOutcome<T>> {
        let mut out = ServeOutcome {
            served: None,
            skipped_chunks: 0,
            skipped_records: 0,
            skipped_blocks: 0,
            skipped_records_intra: 0,
            skipped_payloads: Vec::new(),
        };
        while self.cursor < self.entries.len() {
            let idx = self.cursor;
            self.cursor += 1;
            let records = self.entries[idx].records;
            // Consumed for the epoch whether skipped, partially served or
            // fully served: skips count toward remaining-work accounting
            // exactly like serves (§5.4 steal `D`), and a partial serve
            // consumes the *whole* entry (its skipped blocks do not come
            // back until the epoch resets).
            self.records_remaining -= records;
            let skip = match (active, &self.entries[idx].index) {
                (Some(a), Some(ix)) => !ix.intersects(a),
                _ => false,
            };
            if skip {
                out.skipped_chunks += 1;
                out.skipped_records += records;
                if materialize_skipped {
                    let data = self.read_entry(idx)?;
                    out.skipped_payloads.push(data);
                }
                continue;
            }
            // Block-granular refinement: a chunk that survives the
            // window/stride test may still be mostly dead; its block index
            // narrows the serve to the active block runs.
            let block_plan = match (active, &self.entries[idx].blocks) {
                (Some(a), Some(bix)) => Some((bix.active_runs(a), bix.blocks() as u32)),
                _ => None,
            };
            if let Some((runs, nblocks)) = block_plan {
                if runs.is_empty() {
                    // Every block is inactive: the stride summary was too
                    // coarse, but the outcome is an ordinary chunk skip.
                    out.skipped_chunks += 1;
                    out.skipped_records += records;
                    if materialize_skipped {
                        let data = self.read_entry(idx)?;
                        out.skipped_payloads.push(data);
                    }
                    continue;
                }
                let active_blocks: u32 = runs.iter().map(|&(s, e)| e - s).sum();
                if active_blocks < nblocks {
                    let data = Arc::new(self.read_runs(idx, &runs)?);
                    out.skipped_blocks += nblocks - active_blocks;
                    out.skipped_records_intra += records - data.len() as u64;
                    if materialize_skipped {
                        let dead = complement_runs(&runs, nblocks);
                        for run in &dead {
                            let payload = self.read_runs(idx, &[*run])?;
                            out.skipped_payloads.push(Arc::new(payload));
                        }
                    }
                    out.served = Some(ServedChunk {
                        entry: idx as u32,
                        data,
                        partial: true,
                    });
                    return Ok(out);
                }
                // All blocks active: fall through to the zero-copy full
                // serve below.
            }
            let data = self.read_entry(idx)?;
            out.served = Some(ServedChunk {
                entry: idx as u32,
                data,
                partial: false,
            });
            break;
        }
        Ok(out)
    }

    /// Materializes the concatenation of the given block runs of entry
    /// `idx`, reading only those byte ranges on the file backend.
    fn read_runs(&mut self, idx: usize, runs: &[(u32, u32)]) -> std::io::Result<Vec<T>> {
        let records = self.entries[idx].records;
        let bix = self.entries[idx]
            .blocks
            .as_ref()
            .expect("block runs without index");
        let rec_runs: Vec<(u64, u64)> = runs
            .iter()
            .map(|&(s, e)| {
                let (start, _) = bix.record_range(s as usize, records);
                let (_, end) = bix.record_range(e as usize - 1, records);
                (start, end)
            })
            .collect();
        let total: u64 = rec_runs.iter().map(|&(s, e)| e - s).sum();
        let mut data: Vec<T> = Vec::with_capacity(total as usize);
        match &self.entries[idx].payload {
            Payload::Mem(a) => {
                let a = Arc::clone(a);
                for &(s, e) in &rec_runs {
                    data.extend_from_slice(&a[s as usize..e as usize]);
                }
            }
            Payload::File(off, len) => {
                let (off, len) = (*off, *len);
                let rec_width = len / records.max(1);
                let f = self.file.as_mut().expect("file payload without backing");
                for &(s, e) in &rec_runs {
                    f.read_into(off + s * rec_width, (e - s) * rec_width, &mut data)?;
                }
            }
            Payload::Taken => panic!("entry {idx} was taken by a consume-once serve"),
        }
        Ok(data)
    }

    /// Materializes the payload of entry `idx`.
    fn read_entry(&mut self, idx: usize) -> std::io::Result<Arc<Vec<T>>> {
        match &self.entries[idx].payload {
            Payload::Mem(a) => Ok(Arc::clone(a)),
            Payload::File(off, len) => {
                let (off, len) = (*off, *len);
                let f = self.file.as_mut().expect("file payload without backing");
                Ok(Arc::new(f.read::<T>(off, len)?))
            }
            Payload::Taken => panic!("entry {idx} was taken by a consume-once serve"),
        }
    }

    /// Storage bytes not yet consumed this iteration; the master's estimate
    /// of local remaining work `D / machines` in the steal criterion (§5.4).
    /// O(1): maintained as a running counter across append/serve/replace
    /// instead of rescanning the entries on every steal check.
    pub fn bytes_remaining(&self) -> u64 {
        debug_assert_eq!(
            self.records_remaining,
            self.entries[self.cursor..]
                .iter()
                .map(|e| e.records)
                .sum::<u64>(),
            "memoized remaining-records counter drifted from the entries"
        );
        self.records_remaining * self.record_bytes
    }

    /// Whether every chunk has been served this iteration.
    pub fn exhausted(&self) -> bool {
        self.cursor >= self.entries.len()
    }

    /// Resets the iteration epoch: all chunks become unprocessed again.
    pub fn reset_epoch(&mut self) {
        self.cursor = 0;
        self.records_remaining = self.records_total;
    }

    /// Deletes all chunks (update sets are deleted after each gather, §6.1).
    ///
    /// # Errors
    ///
    /// Returns an I/O error if truncating the file backend fails.
    pub fn clear(&mut self) -> std::io::Result<()> {
        self.entries.clear();
        self.cursor = 0;
        self.records_total = 0;
        self.records_remaining = 0;
        if let Some(f) = &mut self.file {
            f.truncate()?;
        }
        Ok(())
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ChunkSetStats {
        let records: u64 = self.entries.iter().map(|e| e.records).sum();
        ChunkSetStats {
            chunks: self.entries.len() as u64,
            records,
            bytes: records * self.record_bytes,
        }
    }

    /// Storage bytes of one record.
    pub fn record_bytes(&self) -> u64 {
        self.record_bytes
    }

    /// The scatter-key indexes of all chunks, in entry order (`None` for
    /// unindexed entries) — layout observability for window-width
    /// histograms.
    pub fn indexes(&self) -> impl Iterator<Item = Option<ChunkIndex>> + '_ {
        self.entries.iter().map(|e| e.index)
    }

    /// The block indexes of all chunks, in entry order (`None` for
    /// entries without a block-level refinement).
    pub fn block_indexes(&self) -> impl Iterator<Item = Option<&BlockIndex>> + '_ {
        self.entries.iter().map(|e| e.blocks.as_ref())
    }
}

/// The block runs *not* listed in `runs` (which must be sorted and
/// disjoint), covering `[0, nblocks)` — the materialization set for the
/// reference oracle on a partial serve.
fn complement_runs(runs: &[(u32, u32)], nblocks: u32) -> Vec<(u32, u32)> {
    let mut dead = Vec::new();
    let mut at = 0u32;
    for &(s, e) in runs {
        if s > at {
            dead.push((at, s));
        }
        at = e;
    }
    if at < nblocks {
        dead.push((at, nblocks));
    }
    dead
}

/// Debug-build invariant tying a block index to its chunk: the block
/// windows tile the record count, stay inside the chunk-level window, and
/// are monotone (the sort-on-seal contract).
fn block_index_consistent(
    blocks: Option<&BlockIndex>,
    index: Option<&ChunkIndex>,
    records: u64,
) -> bool {
    let Some(b) = blocks else { return true };
    let covered = (b.blocks() as u64 - 1) * b.block_records() as u64;
    if !(covered < records && records <= covered + b.block_records() as u64) {
        return false;
    }
    let mut prev_hi = None;
    for i in 0..b.blocks() {
        let (lo, hi) = b.window(i);
        if lo > hi {
            return false;
        }
        if let Some(p) = prev_hi {
            if lo < p {
                return false;
            }
        }
        if let Some(ix) = index {
            if lo < ix.lo || hi > ix.hi {
                return false;
            }
        }
        prev_hi = Some(hi);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::ScratchDir;

    fn chunk(lo: u64, hi: u64) -> Arc<Vec<u64>> {
        Arc::new((lo..hi).collect())
    }

    #[test]
    fn serve_each_chunk_once_per_epoch() {
        let mut cs = ChunkSet::<u64>::in_memory(8);
        cs.append(chunk(0, 10)).unwrap();
        cs.append(chunk(10, 20)).unwrap();
        let a = cs.serve_next().unwrap().unwrap();
        let b = cs.serve_next().unwrap().unwrap();
        assert!(cs.serve_next().unwrap().is_none());
        assert!(cs.exhausted());
        let mut all: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());

        cs.reset_epoch();
        assert!(!cs.exhausted());
        assert!(cs.serve_next().unwrap().is_some());
    }

    #[test]
    fn bytes_remaining_tracks_cursor() {
        let mut cs = ChunkSet::<u64>::in_memory(8);
        cs.append(chunk(0, 10)).unwrap();
        cs.append(chunk(0, 5)).unwrap();
        assert_eq!(cs.bytes_remaining(), 120);
        cs.serve_next().unwrap();
        assert_eq!(cs.bytes_remaining(), 40);
        cs.serve_next().unwrap();
        assert_eq!(cs.bytes_remaining(), 0);
    }

    #[test]
    fn stats_and_clear() {
        let mut cs = ChunkSet::<u64>::in_memory(8);
        cs.append(chunk(0, 10)).unwrap();
        assert_eq!(
            cs.stats(),
            ChunkSetStats {
                chunks: 1,
                records: 10,
                bytes: 80
            }
        );
        cs.clear().unwrap();
        assert_eq!(cs.stats(), ChunkSetStats::default());
        assert!(cs.serve_next().unwrap().is_none());
    }

    #[test]
    fn file_backed_roundtrip() {
        let dir = ScratchDir::new("chaos-chunkset").unwrap();
        let fb = FileBacking::create(&dir.path().join("edges.dat")).unwrap();
        let mut cs = ChunkSet::<u64>::file_backed(8, fb);
        assert!(cs.is_file_backed());
        cs.append(chunk(0, 100)).unwrap();
        cs.append(chunk(100, 200)).unwrap();
        let a = cs.serve_next().unwrap().unwrap();
        assert_eq!(a.as_slice(), &(0..100).collect::<Vec<_>>()[..]);
        // Epoch reset re-reads from the file.
        cs.reset_epoch();
        let again = cs.serve_next().unwrap().unwrap();
        assert_eq!(again.as_slice(), a.as_slice());
        cs.clear().unwrap();
        assert!(cs.serve_next().unwrap().is_none());
    }

    /// `take_next` against a `serve_next` twin over the same chunks: the
    /// same payloads in the same order, and the same `stats`,
    /// `bytes_remaining` and `exhausted` after every serve. In memory the
    /// taken payload has no other holder.
    fn take_next_matches_serve_next(mut taken: ChunkSet<u64>, mut twin: ChunkSet<u64>) {
        for n in [7u64, 1, 12, 0, 3] {
            taken.append(chunk(100 * n, 100 * n + n)).unwrap();
            twin.append(chunk(100 * n, 100 * n + n)).unwrap();
        }
        let in_memory = !taken.is_file_backed();
        loop {
            let got = taken.take_next().unwrap();
            let want = twin.serve_next().unwrap();
            assert_eq!(
                got.as_deref(),
                want.as_deref(),
                "same payload bytes, same order"
            );
            assert_eq!(taken.stats(), twin.stats());
            assert_eq!(taken.bytes_remaining(), twin.bytes_remaining());
            assert_eq!(taken.exhausted(), twin.exhausted());
            let Some(got) = got else { break };
            if in_memory {
                assert_eq!(Arc::strong_count(&got), 1, "the set kept a reference");
            }
        }
        assert!(taken.exhausted());
    }

    #[test]
    fn take_next_hands_in_memory_payloads_over() {
        take_next_matches_serve_next(ChunkSet::in_memory(8), ChunkSet::in_memory(8));
    }

    #[test]
    fn take_next_reads_file_backed_payloads_like_serve_next() {
        let dir = ScratchDir::new("chaos-chunkset-take").unwrap();
        let file = |name: &str| FileBacking::create(&dir.path().join(name)).unwrap();
        take_next_matches_serve_next(
            ChunkSet::file_backed(8, file("taken.dat")),
            ChunkSet::file_backed(8, file("twin.dat")),
        );
    }

    #[test]
    #[should_panic(expected = "entry 0 was taken by a consume-once serve")]
    fn a_taken_entry_is_never_served_again() {
        let mut cs = ChunkSet::<u64>::in_memory(8);
        cs.append(chunk(0, 4)).unwrap();
        cs.take_next().unwrap();
        cs.reset_epoch();
        let _ = cs.serve_next();
    }

    /// §6.3: a storage engine may serve any unprocessed chunk, but each
    /// chunk exactly once per epoch — across *multiple* epochs.
    #[test]
    fn every_chunk_served_exactly_once_per_epoch_over_multiple_epochs() {
        let mut cs = ChunkSet::<u64>::in_memory(8);
        let ids: Vec<u64> = (0..5).collect();
        for &i in &ids {
            cs.append(chunk(i * 100, i * 100 + 10)).unwrap();
        }
        for _epoch in 0..3 {
            let mut served = Vec::new();
            while let Some(c) = cs.serve_next().unwrap() {
                served.push(c[0] / 100); // chunk identity from its first record
            }
            served.sort_unstable();
            assert_eq!(served, ids, "each chunk exactly once per epoch");
            // Exhausted stays exhausted until the epoch resets.
            assert!(cs.serve_next().unwrap().is_none());
            assert!(cs.exhausted());
            cs.reset_epoch();
        }
    }

    /// §5.4 feeds `bytes_remaining` into the steal criterion: it must
    /// shrink by exactly the served chunk's storage size, monotonically,
    /// down to zero.
    #[test]
    fn bytes_remaining_decreases_monotonically_while_serving() {
        let mut cs = ChunkSet::<u64>::in_memory(8);
        for n in [7u64, 1, 12, 3] {
            cs.append(chunk(0, n)).unwrap();
        }
        let mut last = cs.bytes_remaining();
        assert_eq!(last, (7 + 1 + 12 + 3) * 8);
        while let Some(c) = cs.serve_next().unwrap() {
            let now = cs.bytes_remaining();
            assert!(now < last, "strictly decreasing while serving");
            assert_eq!(last - now, c.len() as u64 * 8, "drop equals served bytes");
            last = now;
        }
        assert_eq!(last, 0);
    }

    #[test]
    fn reset_epoch_rewinds_after_partial_consumption() {
        let mut cs = ChunkSet::<u64>::in_memory(8);
        for i in 0..4 {
            cs.append(chunk(i * 10, i * 10 + 10)).unwrap();
        }
        cs.serve_next().unwrap();
        cs.serve_next().unwrap();
        assert_eq!(cs.bytes_remaining(), 2 * 10 * 8);
        cs.reset_epoch();
        assert_eq!(
            cs.bytes_remaining(),
            4 * 10 * 8,
            "rewind restores all bytes"
        );
        let mut count = 0;
        while cs.serve_next().unwrap().is_some() {
            count += 1;
        }
        assert_eq!(count, 4, "full epoch after a mid-epoch reset");
    }

    /// Scatter appends update chunks while gather of another machine may
    /// already be streaming the set: chunks appended mid-epoch are served
    /// in the same epoch.
    #[test]
    fn chunks_appended_mid_epoch_are_served_in_the_same_epoch() {
        let mut cs = ChunkSet::<u64>::in_memory(8);
        cs.append(chunk(0, 5)).unwrap();
        assert!(cs.serve_next().unwrap().is_some());
        assert!(cs.exhausted());
        cs.append(chunk(5, 9)).unwrap();
        assert!(!cs.exhausted(), "new chunk reopens the epoch");
        assert_eq!(cs.bytes_remaining(), 4 * 8);
        let c = cs.serve_next().unwrap().unwrap();
        assert_eq!(c.as_slice(), &[5, 6, 7, 8]);
        assert!(cs.serve_next().unwrap().is_none());
    }

    #[test]
    fn selective_serve_skips_inactive_windows() {
        use chaos_gas::ActiveSet;
        let mut cs = ChunkSet::<u64>::in_memory(8);
        cs.append_with_blocks(chunk(0, 10), Some(ChunkIndex::span(0, 9)), None)
            .unwrap();
        cs.append_with_blocks(chunk(10, 20), Some(ChunkIndex::span(10, 19)), None)
            .unwrap();
        cs.append_with_blocks(chunk(20, 30), Some(ChunkIndex::span(20, 29)), None)
            .unwrap();
        cs.append(chunk(30, 32)).unwrap(); // unindexed: never skipped
                                           // Only 20..30 active.
        let active = ActiveSet::from_fn(0, 32, |off| (20..30).contains(&off));
        let r = cs.serve_next_selective(Some(&active), false).unwrap();
        let served = r.served.expect("active chunk served");
        assert_eq!(served.entry, 2);
        assert_eq!(served.data[0], 20);
        assert_eq!(r.skipped_chunks, 2);
        assert_eq!(r.skipped_records, 20);
        assert!(
            r.skipped_payloads.is_empty(),
            "selective mode never reads skips"
        );
        // Skipped chunks are consumed for the epoch.
        assert_eq!(cs.bytes_remaining(), 2 * 8);
        let r = cs.serve_next_selective(Some(&active), false).unwrap();
        assert_eq!(r.served.expect("unindexed chunk").entry, 3);
        let r = cs.serve_next_selective(Some(&active), false).unwrap();
        assert!(r.served.is_none());
        assert!(cs.exhausted());
        // Epoch reset brings the skipped chunks back.
        cs.reset_epoch();
        assert_eq!(cs.serve_next().unwrap().unwrap()[0], 0);
    }

    #[test]
    fn reference_mode_materializes_skipped_payloads() {
        use chaos_gas::ActiveSet;
        let mut cs = ChunkSet::<u64>::in_memory(8);
        cs.append_with_blocks(chunk(0, 5), Some(ChunkIndex::span(0, 4)), None)
            .unwrap();
        cs.append_with_blocks(chunk(5, 9), Some(ChunkIndex::span(5, 8)), None)
            .unwrap();
        let active = ActiveSet::from_fn(0, 16, |_| false);
        let r = cs.serve_next_selective(Some(&active), true).unwrap();
        assert!(r.served.is_none());
        assert_eq!(r.skipped_chunks, 2);
        assert_eq!(r.skipped_records, 9);
        assert_eq!(r.skipped_payloads.len(), 2);
        assert_eq!(r.skipped_payloads[0].as_slice(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn replace_compacts_in_place_preserving_identity() {
        let mut cs = ChunkSet::<u64>::in_memory(8);
        cs.append_with_blocks(chunk(0, 10), Some(ChunkIndex::span(0, 9)), None)
            .unwrap();
        cs.append_with_blocks(chunk(10, 20), Some(ChunkIndex::span(10, 19)), None)
            .unwrap();
        cs.replace_with_blocks(0, chunk(0, 3), Some(ChunkIndex::span(0, 2)), None)
            .unwrap();
        assert_eq!(cs.stats().records, 13);
        assert_eq!(cs.stats().chunks, 2, "identity preserved");
        // The replaced entry serves its new, smaller payload.
        let a = cs.serve_next().unwrap().unwrap();
        assert_eq!(a.as_slice(), &[0, 1, 2]);
        // Compaction to empty yields an always-skippable inverted window.
        cs.replace_with_blocks(1, Arc::new(Vec::new()), Some(ChunkIndex::EMPTY), None)
            .unwrap();
        cs.reset_epoch();
        use chaos_gas::ActiveSet;
        let everything = ActiveSet::from_fn(0, 32, |_| true);
        let r = cs.serve_next_selective(Some(&everything), false).unwrap();
        assert_eq!(r.served.expect("live chunk").entry, 0);
        let r = cs.serve_next_selective(Some(&everything), false).unwrap();
        assert!(
            r.served.is_none(),
            "empty chunk skipped under any active set"
        );
        assert_eq!(r.skipped_chunks, 1);
        assert_eq!(r.skipped_records, 0);
    }

    #[test]
    fn file_backed_replace_roundtrip() {
        let dir = ScratchDir::new("chaos-chunkset-replace").unwrap();
        let fb = FileBacking::create(&dir.path().join("edges.dat")).unwrap();
        let mut cs = ChunkSet::<u64>::file_backed(8, fb);
        cs.append_with_blocks(chunk(0, 100), Some(ChunkIndex::span(0, 99)), None)
            .unwrap();
        cs.replace_with_blocks(0, chunk(40, 50), Some(ChunkIndex::span(40, 49)), None)
            .unwrap();
        let a = cs.serve_next().unwrap().unwrap();
        assert_eq!(a.as_slice(), &(40..50).collect::<Vec<_>>()[..]);
        cs.reset_epoch();
        let again = cs.serve_next().unwrap().unwrap();
        assert_eq!(again.as_slice(), a.as_slice());
    }

    /// Two compactions of one entry, put back newest first, leave the set
    /// as it was before either: payload, index, totals — in memory and in
    /// a file, whose first extent the compactions never overwrote.
    #[test]
    fn put_back_undoes_replacements_newest_first() {
        let dir = ScratchDir::new("chaos-chunkset-put-back").unwrap();
        let fb = FileBacking::create(&dir.path().join("edges.dat")).unwrap();
        for mut cs in [ChunkSet::<u64>::in_memory(8), ChunkSet::file_backed(8, fb)] {
            cs.append_with_blocks(chunk(0, 10), Some(ChunkIndex::span(0, 9)), None)
                .unwrap();
            cs.append_with_blocks(chunk(10, 20), Some(ChunkIndex::span(10, 19)), None)
                .unwrap();
            let first = cs.replace_with_blocks(0, chunk(4, 8), Some(ChunkIndex::span(4, 7)), None);
            let second = cs.replace_with_blocks(0, chunk(6, 7), Some(ChunkIndex::span(6, 6)), None);
            assert_eq!(cs.stats().records, 11);
            cs.put_back(second.unwrap());
            cs.put_back(first.unwrap());
            assert_eq!(cs.stats().records, 20);
            assert_eq!(cs.bytes_remaining(), 20 * 8);
            assert_eq!(cs.indexes().next(), Some(Some(ChunkIndex::span(0, 9))));
            assert_eq!(
                cs.serve_next().unwrap().unwrap().as_slice(),
                chunk(0, 10).as_slice()
            );
        }
    }

    #[test]
    fn chunk_index_from_keys_is_exact() {
        let ix = ChunkIndex::from_keys([100u64, 163, 110].into_iter());
        assert_eq!((ix.lo, ix.hi), (100, 163));
        assert_eq!(ix.stride_width(), 1, "64-key window: one key per stride");
        assert_eq!(ix.strides, 1 | (1 << 10) | (1 << 63));
        assert_eq!(ix.width(), Some(64));
        // Wider window: strides coarsen, every key stays covered.
        let ix = ChunkIndex::from_keys((0..1000u64).step_by(100));
        assert_eq!((ix.lo, ix.hi), (0, 900));
        let w = ix.stride_width();
        for k in (0..1000u64).step_by(100) {
            assert!(ix.strides & (1 << ((k - ix.lo) / w)) != 0);
        }
        assert_eq!(ChunkIndex::from_keys(std::iter::empty()), ChunkIndex::EMPTY);
        assert_eq!(ChunkIndex::EMPTY.width(), None);
    }

    #[test]
    fn stride_bitmap_skips_window_overlaps_without_occupancy() {
        use chaos_gas::ActiveSet;
        // Keys cluster at both ends of a wide window; the middle strides
        // are unoccupied.
        let ix = ChunkIndex::from_keys((0..10u64).chain(630..640));
        assert_eq!((ix.lo, ix.hi), (0, 639));
        assert_eq!(ix.stride_width(), 10);
        // Active only in the unoccupied middle: window overlaps, strides
        // do not -> no intersection.
        let mid = ActiveSet::from_fn(0, 640, |off| (300..330).contains(&off));
        assert!(!ix.intersects(&mid), "occupancy prunes a window overlap");
        // Active touching an occupied stride intersects.
        let lowend = ActiveSet::from_fn(0, 640, |off| off == 5);
        assert!(ix.intersects(&lowend));
        let highend = ActiveSet::from_fn(0, 640, |off| off == 635);
        assert!(ix.intersects(&highend));
        // Fully-occupied span never prunes past the window test.
        assert!(ChunkIndex::span(0, 639).intersects(&mid));
        // The empty index intersects nothing.
        assert!(!ChunkIndex::EMPTY.intersects(&lowend));
    }

    /// Serve ordering with stride-bitmap skips: skipped chunks are
    /// consumed for the epoch in front of the served one, accounting
    /// matches, and an epoch reset brings them back.
    #[test]
    fn stride_bitmap_skip_and_serve_ordering() {
        use chaos_gas::ActiveSet;
        let mut cs = ChunkSet::<u64>::in_memory(8);
        // Three chunks, all with windows overlapping [0, 96): the first
        // two occupy only strides the active set misses.
        let c0: Arc<Vec<u64>> = Arc::new(vec![0, 1, 90, 91]);
        let c1: Arc<Vec<u64>> = Arc::new(vec![10, 11, 80]);
        let c2: Arc<Vec<u64>> = Arc::new(vec![0, 50, 95]);
        for c in [&c0, &c1, &c2] {
            let index = ChunkIndex::from_keys(c.iter().copied());
            cs.append_with_blocks(Arc::clone(c), Some(index), None)
                .unwrap();
        }
        // Active only around 50: inside every window, outside c0/c1's
        // occupied strides.
        let active = ActiveSet::from_fn(0, 96, |off| (49..52).contains(&off));
        let r = cs.serve_next_selective(Some(&active), false).unwrap();
        let served = r.served.expect("c2 holds an active stride");
        assert_eq!(served.entry, 2, "both stride-pruned chunks consumed first");
        assert_eq!(served.data.as_slice(), c2.as_slice());
        assert_eq!(r.skipped_chunks, 2);
        assert_eq!(r.skipped_records, 7);
        assert!(cs.exhausted() || cs.bytes_remaining() == 0);
        let r = cs.serve_next_selective(Some(&active), false).unwrap();
        assert!(r.served.is_none());
        // Materializing the skipped payloads makes the same decisions.
        cs.reset_epoch();
        let r = cs.serve_next_selective(Some(&active), true).unwrap();
        assert_eq!(r.served.expect("same decision").entry, 2);
        assert_eq!(r.skipped_payloads.len(), 2);
        assert_eq!(r.skipped_payloads[0].as_slice(), c0.as_slice());
        assert_eq!(r.skipped_payloads[1].as_slice(), c1.as_slice());
    }

    /// What the stride bitmap skips that the block index would not: a
    /// block window straddling an active key in an unoccupied stride. The
    /// sealed chunk is skipped whole although `active_runs` names a
    /// block; with window-only chunk semantics the same chunk is served
    /// partially — records read and streamed for nothing.
    #[test]
    fn stride_bitmap_skips_a_block_indexed_chunk_the_blocks_would_serve() {
        use chaos_gas::ActiveSet;
        // Window [0, 639] in 10-key strides; only strides 0 and 63 are
        // occupied, and block 1's window (4, 635) spans the gap.
        let keys: Vec<u64> = vec![0, 1, 2, 3, 4, 5, 6, 635, 636, 637, 638, 639];
        let sealed = seal_chunk(&keys, |&k| k, 4, &mut SealScratch::default());
        let blocks = sealed.blocks.expect("three blocks");
        assert_eq!(blocks.window(1), (4, 635));
        let active = ActiveSet::from_fn(0, 640, |off| off == 300);
        assert_eq!(blocks.active_runs(&active), vec![(1, 2)]);

        let serve = |index: ChunkIndex| {
            let mut cs = ChunkSet::<u64>::in_memory(8);
            cs.append_with_blocks(Arc::new(keys.clone()), Some(index), Some(blocks.clone()))
                .unwrap();
            cs.serve_next_selective(Some(&active), false).unwrap()
        };
        let strided = serve(sealed.index);
        assert!(strided.served.is_none(), "the strides prove the chunk dead");
        assert_eq!((strided.skipped_chunks, strided.skipped_records), (1, 12));
        assert_eq!(strided.skipped_blocks, 0);

        let window_only = serve(ChunkIndex::span(0, 639));
        let served = window_only.served.expect("the block index serves block 1");
        assert!(served.partial);
        assert_eq!(served.data.as_slice(), &[4, 5, 6, 635]);
        assert_eq!(window_only.skipped_chunks, 0);
    }

    #[test]
    fn block_index_windows_and_ranges() {
        // 10 sorted keys, 3 per block -> 4 blocks, last short.
        let keys = [1u64, 1, 2, 5, 5, 5, 7, 9, 20, 21];
        let bix = BlockIndex::from_sorted_keys(keys.into_iter(), 3).unwrap();
        assert_eq!(bix.blocks(), 4);
        assert_eq!(bix.window(0), (1, 2));
        assert_eq!(bix.window(1), (5, 5));
        assert_eq!(bix.window(2), (7, 20));
        assert_eq!(bix.window(3), (21, 21));
        assert_eq!(bix.record_range(0, 10), (0, 3));
        assert_eq!(bix.record_range(3, 10), (9, 10));
        // Single-block and empty inputs carry no refinement.
        assert!(BlockIndex::from_sorted_keys([1u64, 2].into_iter(), 3).is_none());
        assert!(BlockIndex::from_sorted_keys(std::iter::empty(), 3).is_none());
    }

    #[test]
    fn block_index_active_runs_skip_and_merge() {
        use chaos_gas::ActiveSet;
        let keys: Vec<u64> = (0..40).map(|i| i * 10).collect(); // 0,10,..,390
        let bix = BlockIndex::from_sorted_keys(keys.iter().copied(), 4).unwrap();
        assert_eq!(bix.blocks(), 10);
        // One active key inside block 7 (keys 280..310).
        let one = ActiveSet::from_fn(0, 400, |off| off == 300);
        assert_eq!(bix.active_runs(&one), vec![(7, 8)]);
        // Active keys in blocks 2, 3 and 9 -> two runs, middle merged.
        let multi = ActiveSet::from_fn(0, 400, |off| [80, 120, 390].contains(&(off as u64)));
        assert_eq!(bix.active_runs(&multi), vec![(2, 4), (9, 10)]);
        // Active only in the key gaps *between* block windows (block b
        // covers [40b, 40b+30], so 40b+35 falls between windows) -> no
        // runs, even though the chunk-level window contains the keys.
        let gaps = ActiveSet::from_fn(0, 400, |off| off % 40 == 35);
        assert_eq!(bix.active_runs(&gaps), vec![]);
        // An active key *inside* a block window counts even when the block
        // holds no such key — the window test is conservative.
        let inside = ActiveSet::from_fn(0, 400, |off| off == 85);
        assert_eq!(bix.active_runs(&inside), vec![(2, 3)]);
        // Everything active -> one full run.
        let all = ActiveSet::from_fn(0, 400, |_| true);
        assert_eq!(bix.active_runs(&all), vec![(0, 10)]);
        let none = ActiveSet::from_fn(0, 400, |_| false);
        assert_eq!(bix.active_runs(&none), vec![]);
    }

    #[test]
    fn block_index_active_runs_match_bruteforce() {
        use chaos_gas::ActiveSet;
        // Sorted keys with duplicates straddling block boundaries.
        let keys: Vec<u64> = (0..97).map(|i| (i * 7 / 13) * 3).collect();
        let bix = BlockIndex::from_sorted_keys(keys.iter().copied(), 5).unwrap();
        for seed in 0..40u64 {
            let active = ActiveSet::from_fn(0, 80, |off| {
                (off as u64).wrapping_mul(seed ^ 0x9E37).wrapping_add(seed) % 7 == 0
            });
            let runs = bix.active_runs(&active);
            // Brute force: a block is active iff its window holds an
            // active vertex (the conservative window-overlap semantics).
            let mut want: Vec<(u32, u32)> = Vec::new();
            for b in 0..bix.blocks() {
                let (lo, hi) = bix.window(b);
                if active.any_in_window(lo, hi) {
                    match want.last_mut() {
                        Some(r) if r.1 == b as u32 => r.1 += 1,
                        _ => want.push((b as u32, b as u32 + 1)),
                    }
                }
            }
            assert_eq!(runs, want, "seed {seed}");
        }
    }

    #[test]
    fn block_granular_serve_returns_active_runs_only() {
        use chaos_gas::ActiveSet;
        // One chunk of 20 sorted keys 0..20, blocks of 4.
        let mut cs = ChunkSet::<u64>::in_memory(8);
        let data: Arc<Vec<u64>> = Arc::new((0..20).collect());
        let bix = BlockIndex::from_sorted_keys(data.iter().copied(), 4).unwrap();
        cs.append_with_blocks(Arc::clone(&data), Some(ChunkIndex::span(0, 19)), Some(bix))
            .unwrap();
        // Active keys 5 and 17: blocks 1 and 4 of 5.
        let active = ActiveSet::from_fn(0, 20, |off| off == 5 || off == 17);
        let r = cs.serve_next_selective(Some(&active), false).unwrap();
        let served = r.served.expect("two blocks active");
        assert!(served.partial);
        assert_eq!(served.data.as_slice(), &[4, 5, 6, 7, 16, 17, 18, 19]);
        assert_eq!(r.skipped_blocks, 3);
        assert_eq!(r.skipped_records_intra, 12);
        assert_eq!(r.skipped_chunks, 0);
        // The whole entry is consumed for the epoch despite the partial serve.
        assert_eq!(cs.bytes_remaining(), 0);
        assert!(cs.exhausted());
        // Epoch reset brings the skipped blocks back.
        cs.reset_epoch();
        assert_eq!(cs.bytes_remaining(), 20 * 8);
        // All blocks active -> full zero-copy serve, not partial.
        let all = ActiveSet::from_fn(0, 20, |_| true);
        let r = cs.serve_next_selective(Some(&all), false).unwrap();
        let served = r.served.expect("full serve");
        assert!(!served.partial);
        assert_eq!(served.data.len(), 20);
        assert_eq!(r.skipped_blocks, 0);
        // No block active -> plain chunk skip (chunk window intersects via
        // strides only when some stride is hit, so use a key gap).
        cs.reset_epoch();
        let none = ActiveSet::from_fn(0, 20, |_| false);
        let r = cs.serve_next_selective(Some(&none), false).unwrap();
        assert!(r.served.is_none());
        assert_eq!(r.skipped_chunks, 1);
        assert_eq!(r.skipped_records, 20);
        assert_eq!(r.skipped_blocks, 0, "whole-chunk skips are not block skips");
    }

    #[test]
    fn block_granular_reference_materializes_skipped_blocks() {
        use chaos_gas::ActiveSet;
        let mut cs = ChunkSet::<u64>::in_memory(8);
        let data: Arc<Vec<u64>> = Arc::new((0..20).collect());
        let bix = BlockIndex::from_sorted_keys(data.iter().copied(), 4).unwrap();
        cs.append_with_blocks(Arc::clone(&data), Some(ChunkIndex::span(0, 19)), Some(bix))
            .unwrap();
        let active = ActiveSet::from_fn(0, 20, |off| off == 5 || off == 17);
        let r = cs.serve_next_selective(Some(&active), true).unwrap();
        let served = r.served.expect("partial serve");
        assert!(served.partial);
        // Skipped block runs [0,1), [2,4) materialized in storage order.
        assert_eq!(r.skipped_payloads.len(), 2);
        assert_eq!(r.skipped_payloads[0].as_slice(), &[0, 1, 2, 3]);
        assert_eq!(
            r.skipped_payloads[1].as_slice(),
            &[8, 9, 10, 11, 12, 13, 14, 15]
        );
        // Served + materialized-skipped covers every record exactly once.
        let mut all: Vec<u64> = served.data.iter().copied().collect();
        for p in &r.skipped_payloads {
            all.extend(p.iter().copied());
        }
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn file_backed_block_serve_reads_only_active_ranges() {
        use chaos_gas::ActiveSet;
        let dir = ScratchDir::new("chaos-chunkset-blocks").unwrap();
        let fb = FileBacking::create(&dir.path().join("edges.dat")).unwrap();
        let mut cs = ChunkSet::<u64>::file_backed(8, fb);
        let data: Arc<Vec<u64>> = Arc::new((100..160).collect());
        let bix = BlockIndex::from_sorted_keys(data.iter().copied(), 16).unwrap();
        cs.append_with_blocks(
            Arc::clone(&data),
            Some(ChunkIndex::span(100, 159)),
            Some(bix),
        )
        .unwrap();
        // Active key 130 lives in block 1 (records 16..32 = keys 116..131).
        let active = ActiveSet::from_fn(100, 60, |off| off == 30);
        let r = cs.serve_next_selective(Some(&active), false).unwrap();
        let served = r.served.expect("one block active");
        assert!(served.partial);
        assert_eq!(served.data.as_slice(), &(116..132).collect::<Vec<_>>()[..]);
        assert_eq!(r.skipped_blocks, 3);
        assert_eq!(r.skipped_records_intra, 44);
        // Identical decisions with materialization (reference oracle).
        cs.reset_epoch();
        let r2 = cs.serve_next_selective(Some(&active), true).unwrap();
        assert_eq!(
            r2.served.expect("same").data.as_slice(),
            served.data.as_slice()
        );
        let skipped: u64 = r2.skipped_payloads.iter().map(|p| p.len() as u64).sum();
        assert_eq!(skipped, 44);
    }

    #[test]
    fn replace_with_blocks_rebuilds_index_and_narrows() {
        use chaos_gas::ActiveSet;
        let mut cs = ChunkSet::<u64>::in_memory(8);
        let data: Arc<Vec<u64>> = Arc::new((0..40).collect());
        let bix = BlockIndex::from_sorted_keys(data.iter().copied(), 8).unwrap();
        cs.append_with_blocks(Arc::clone(&data), Some(ChunkIndex::span(0, 39)), Some(bix))
            .unwrap();
        // Compact away the lower half; survivors keep their order.
        let survivors: Arc<Vec<u64>> = Arc::new((20..40).collect());
        let new_bix = BlockIndex::from_sorted_keys(survivors.iter().copied(), 8).unwrap();
        cs.replace_with_blocks(
            0,
            Arc::clone(&survivors),
            Some(ChunkIndex::span(20, 39)),
            Some(new_bix),
        )
        .unwrap();
        assert_eq!(
            cs.bytes_remaining(),
            20 * 8,
            "remaining tracks the replacement"
        );
        // Serves consult the rebuilt index: key 25 -> survivor block 0.
        let active = ActiveSet::from_fn(0, 40, |off| off == 25);
        let r = cs.serve_next_selective(Some(&active), false).unwrap();
        let served = r.served.expect("survivor block");
        assert!(served.partial);
        assert_eq!(served.data.as_slice(), &(20..28).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn memoized_bytes_remaining_survives_mixed_operations() {
        use chaos_gas::ActiveSet;
        let mut cs = ChunkSet::<u64>::in_memory(8);
        for i in 0..4u64 {
            let data: Arc<Vec<u64>> = Arc::new((i * 10..i * 10 + 10).collect());
            let ix = ChunkIndex::from_keys(data.iter().copied());
            let bix = BlockIndex::from_sorted_keys(data.iter().copied(), 4);
            cs.append_with_blocks(data, Some(ix), bix).unwrap();
        }
        assert_eq!(cs.bytes_remaining(), 40 * 8);
        // Serve with an active set hitting chunk 1 only (chunks 0 skipped,
        // 1 partially served).
        let active = ActiveSet::from_fn(0, 40, |off| off == 13);
        let r = cs.serve_next_selective(Some(&active), false).unwrap();
        assert!(r.served.expect("chunk 1").partial);
        assert_eq!(cs.bytes_remaining(), 20 * 8, "both consumed in full");
        // Replace an already-served entry: total changes, remaining doesn't.
        let compacted = Arc::new(vec![1, 2]);
        cs.replace_with_blocks(0, compacted, Some(ChunkIndex::span(1, 2)), None)
            .unwrap();
        assert_eq!(cs.bytes_remaining(), 20 * 8);
        // Replace an unserved entry: remaining adjusts.
        let compacted = Arc::new(vec![33]);
        cs.replace_with_blocks(3, compacted, Some(ChunkIndex::span(33, 33)), None)
            .unwrap();
        assert_eq!(cs.bytes_remaining(), 11 * 8);
        cs.reset_epoch();
        assert_eq!(cs.bytes_remaining(), (2 + 10 + 10 + 1) * 8);
        cs.clear().unwrap();
        assert_eq!(cs.bytes_remaining(), 0);
    }

    /// A record whose `tag` is its arrival position, so that comparing
    /// whole records checks stability too.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Rec {
        fwd: u64,
        rev: u64,
        tag: u32,
    }

    /// The contract [`seal_chunk`] must reproduce: the stable comparison
    /// sort followed by both index builds.
    fn oracle_seal(
        records: &[Rec],
        key: impl Fn(&Rec) -> u64,
        block_records: u32,
    ) -> (Vec<Rec>, ChunkIndex, Option<BlockIndex>) {
        let mut sorted = records.to_vec();
        sorted.sort_by_key(&key);
        let index = ChunkIndex::from_keys(sorted.iter().map(&key));
        let blocks = BlockIndex::from_sorted_keys(sorted.iter().map(&key), block_records);
        (sorted, index, blocks)
    }

    #[test]
    fn seal_chunk_matches_the_stable_sort_oracle() {
        let mut rng = chaos_sim::Rng::new(13);
        let mut draw = |n: usize, lo: u64, width: u64| -> Vec<u64> {
            (0..n).map(|_| lo + rng.below(width)).collect()
        };
        let sorted = |mut keys: Vec<u64>| {
            keys.sort_unstable();
            keys
        };
        let reversed = |mut keys: Vec<u64>| {
            keys.sort_unstable_by(|a, b| b.cmp(a));
            keys
        };
        let cases: Vec<(&str, Vec<u64>)> = vec![
            ("empty", Vec::new()),
            ("one record", vec![77]),
            ("all keys equal", vec![5; 300]),
            ("already sorted", sorted(draw(1000, 4096, 256))),
            ("reverse sorted", reversed(draw(1000, 4096, 256))),
            // 150 sorted records of keys 0, 1, 2: each key's run crosses a
            // block end at every block size below.
            (
                "equal keys straddling block ends",
                (0..150u64).map(|i| i / 50).collect(),
            ),
            (
                "equal keys straddling, shuffled",
                (0..150u64).map(|i| i * 7 % 3).collect(),
            ),
            ("one-bin window", draw(4096, 1 << 20, 2048)),
            (
                "window of exactly one digit",
                draw(4096, 9, 1 << MAX_DIGIT_BITS),
            ),
            ("two-digit window", draw(4096, 0, (1 << MAX_DIGIT_BITS) + 1)),
            ("whole-partition window", draw(4096, 1 << 33, 1 << 22)),
            (
                "window far wider than the chunk",
                draw(999, 3, u64::MAX - 3),
            ),
            (
                "window touching both ends of u64",
                vec![u64::MAX, 0, u64::MAX - 1, 1, u64::MAX],
            ),
        ];
        let mut scratch = SealScratch::default();
        for (what, keys) in &cases {
            let records: Vec<Rec> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| Rec {
                    fwd: k,
                    // An unrelated order for the reverse direction.
                    rev: k.rotate_left(17) ^ (i as u64 * 0x9E37_79B9 % 1024),
                    tag: i as u32,
                })
                .collect();
            // Blocks that divide the length, that do not, of one record
            // short of it, of exactly it, and longer than it.
            let n = records.len() as u32;
            for block_records in [16, 50, 512, n.saturating_sub(1).max(1), n.max(1), n + 7] {
                for reverse in [false, true] {
                    let key = |r: &Rec| if reverse { r.rev } else { r.fwd };
                    let got = seal_chunk(&records, key, block_records, &mut scratch);
                    let (sorted, index, blocks) = oracle_seal(&records, key, block_records);
                    let case = format!("{what}, blocks of {block_records}, reverse {reverse}");
                    assert_eq!(got.index, index, "{case}");
                    assert_eq!(got.blocks, blocks, "{case}");
                    match &got.sorted {
                        Some(moved) => {
                            assert_eq!(moved, &sorted, "{case}");
                            assert_eq!(moved.capacity(), moved.len(), "{case}: exactly sized");
                        }
                        None => assert_eq!(records, sorted, "{case}: left in place unsorted"),
                    }
                }
            }
            // Block indexing off: arrival order kept, chunk index only.
            let got = seal_chunk(&records, |r| r.fwd, 0, &mut scratch);
            assert!(got.sorted.is_none() && got.blocks.is_none(), "{what}");
            assert_eq!(
                got.index,
                ChunkIndex::from_keys(keys.iter().copied()),
                "{what}"
            );
        }
    }

    #[test]
    fn record_width_drives_byte_accounting() {
        // In-memory u64 records accounted at a 4-byte storage width
        // (compact encoding).
        let mut cs = ChunkSet::<u64>::in_memory(4);
        cs.append(chunk(0, 10)).unwrap();
        assert_eq!(cs.stats().bytes, 40);
    }
}
