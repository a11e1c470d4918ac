//! Checksummed chunk framing.
//!
//! Every sealed edge chunk, vertex spill and checkpoint snapshot chunk is
//! wrapped in a fixed-size frame: a magic word, the payload length, and a
//! CRC-32 of the payload. The frame is computed at write time and verified
//! on every read, which turns silent corruption (a flipped bit, a write
//! torn by a crash mid-flight) into a *detected* integrity fault the
//! storage engine can retry, repair from a checkpoint copy, or escalate to
//! the coordinator's recovery protocol.
//!
//! Two halves cooperate:
//!
//! - the **real** CRC path: [`crc32`] (hand-rolled, IEEE polynomial,
//!   slicing-by-16 over compile-time tables — no external crate) protects
//!   bytes that genuinely hit the host filesystem via `FileBacking`. An
//!   [`ExtentFrame`] keeps one CRC per run of [`RUN_RECORDS`] records, so
//!   sealing and verifying touch every byte exactly once, and PR 7's
//!   ranged sub-chunk reads check only the runs that enclose them;
//! - the **simulated** frame path: the DES charges [`FRAME_BYTES`] of
//!   checksum overhead per framed device transfer, and frame-check
//!   *failures* are decided by the deterministic corruption oracle on
//!   [`crate::Device`], so faulted runs stay a pure function of
//!   `(seed, machine, simulated time, offset)` and bit-identical across
//!   executor backends.

/// On-device size of one chunk frame: 4-byte magic, 8-byte payload length,
/// 4-byte CRC-32. Charged per framed transfer so checksum overhead is
/// measurable in reports.
pub const FRAME_BYTES: u64 = 16;

/// Frame magic word ("ChFr").
pub const FRAME_MAGIC: u32 = 0x4368_4672;

/// Records covered by one CRC of an [`ExtentFrame`]: a constant of the
/// file format, not the engine's `block_records` — a ranged read of any
/// block size widens to its enclosing runs, by nothing at the default 512.
pub const RUN_RECORDS: u64 = 64;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) slicing-by-16
/// lookup tables, built at compile time: `CRC_TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes, so sixteen message
/// bytes fold into the state with sixteen independent lookups. (By-16 over
/// by-8: 2.3 against 1.5 GB/s on the `storage.frame_*_mb_per_s` probes.)
const CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 over `data` (IEEE, the zlib/ethernet variant).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(16);
    for w in &mut words {
        // The state folds into the first four bytes; byte `i` then has
        // `15 - i` bytes after it in the word.
        let state = crc.to_le_bytes();
        crc = 0;
        for (i, &b) in w.iter().enumerate() {
            let b = if i < 4 { b ^ state[i] } else { b };
            crc ^= t[15 - i][usize::from(b)];
        }
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// A frame descriptor kept beside a file-backed extent: one CRC-32 per
/// run of [`RUN_RECORDS`] records (the last run may be short), enough to
/// check the whole extent in one pass or any record-aligned sub-range by
/// its enclosing runs, without re-reading the rest of the chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentFrame {
    /// Extent offset in the backing file.
    pub offset: u64,
    /// Extent length in bytes.
    pub len: u64,
    /// Encoded width of one record.
    pub record_bytes: u64,
    /// CRC-32 of each run of records, in order.
    pub run_crcs: Vec<u32>,
}

impl ExtentFrame {
    /// Builds a frame over freshly encoded extent bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a whole number of records wide.
    pub fn seal(offset: u64, bytes: &[u8], record_bytes: u64) -> Self {
        assert!(record_bytes > 0);
        assert_eq!(bytes.len() as u64 % record_bytes, 0, "torn extent seal");
        Self {
            offset,
            len: bytes.len() as u64,
            record_bytes,
            run_crcs: bytes
                .chunks((RUN_RECORDS * record_bytes) as usize)
                .map(crc32)
                .collect(),
        }
    }

    /// Verifies a full-extent read.
    pub fn verify(&self, bytes: &[u8]) -> bool {
        bytes.len() as u64 == self.len && self.verify_range(self.offset, bytes)
    }

    /// The byte range `(offset, len)` of the CRC runs that enclose the
    /// record-aligned range `[offset, offset + len)` — what a ranged read
    /// must fetch to be verifiable. `None` if the range is misaligned or
    /// not inside this extent.
    pub fn enclosing_runs(&self, offset: u64, len: u64) -> Option<(u64, u64)> {
        let rel = offset.checked_sub(self.offset)?;
        let end = rel.checked_add(len)?;
        if !rel.is_multiple_of(self.record_bytes)
            || !len.is_multiple_of(self.record_bytes)
            || end > self.len
        {
            return None;
        }
        let run = RUN_RECORDS * self.record_bytes;
        let start = rel / run * run;
        let stop = (end.div_ceil(run) * run).min(self.len);
        Some((self.offset + start, stop - start))
    }

    /// Verifies a read of whole CRC runs starting at absolute file offset
    /// `offset` — a range [`ExtentFrame::enclosing_runs`] returned.
    ///
    /// Returns `false` if the range is not whole runs of this extent (its
    /// own enclosing runs) or any covered run fails its CRC.
    pub fn verify_range(&self, offset: u64, bytes: &[u8]) -> bool {
        let len = bytes.len() as u64;
        if self.enclosing_runs(offset, len) != Some((offset, len)) {
            return false;
        }
        let run = RUN_RECORDS * self.record_bytes;
        bytes
            .chunks(run as usize)
            .zip(&self.run_crcs[((offset - self.offset) / run) as usize..])
            .all(|(b, &crc)| crc32(b) == crc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time CRC-32: the definition, sharing no table with the
    /// production kernel.
    fn crc32_oracle(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = chaos_sim::rng::Rng::new(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_matches_bitwise_oracle_at_every_length_and_alignment() {
        let buf = seeded_bytes(12, 8 + 257);
        for start in 0..8 {
            for len in 0..=257 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_oracle(data), "start {start} len {len}");
            }
        }
        for seed in [1, 2, 3] {
            let data = seeded_bytes(seed, 32 << 10);
            assert_eq!(crc32(&data), crc32_oracle(&data), "seed {seed}");
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 4096];
        let clean = crc32(&data);
        for bit in [0usize, 7, 8 * 1000 + 3, 8 * 4095 + 7] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&data), clean, "flip at bit {bit} undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32(&data), clean);
    }

    #[test]
    fn extent_frame_verifies_full_and_ranged_reads() {
        // 150 records of 8 bytes: two full runs and a short one.
        let bytes = seeded_bytes(7, 150 * 8);
        let f = ExtentFrame::seal(100, &bytes, 8);
        assert_eq!(f.run_crcs.len(), 3);
        assert!(f.verify(&bytes));
        // A range inside one run widens to that run; one reaching into the
        // short last run stops at the extent's end.
        assert_eq!(
            f.enclosing_runs(100 + 70 * 8, 3 * 8),
            Some((100 + 64 * 8, 64 * 8))
        );
        assert_eq!(f.enclosing_runs(100 + 60 * 8, 80 * 8), Some((100, 150 * 8)));
        assert!(f.verify_range(100 + 64 * 8, &bytes[64 * 8..128 * 8]));
        assert!(f.verify_range(100 + 128 * 8, &bytes[128 * 8..]));
        // Misaligned and out-of-extent ranges have no enclosing runs.
        assert_eq!(f.enclosing_runs(101, 16), None);
        assert_eq!(f.enclosing_runs(100, 12), None);
        assert_eq!(f.enclosing_runs(92, 16), None);
        assert_eq!(f.enclosing_runs(100 + 149 * 8, 16), None);
        // Reads that are not whole runs, or corrupted ones, fail.
        assert!(!f.verify_range(100 + 8, &bytes[8..64 * 8]));
        assert!(!f.verify_range(100, &bytes[..63 * 8]));
        assert!(!f.verify_range(100 + 128 * 8, &bytes[128 * 8 - 8..]));
        let mut torn = bytes[64 * 8..128 * 8].to_vec();
        torn[5] ^= 0x40;
        assert!(!f.verify_range(100 + 64 * 8, &torn));
    }

    #[test]
    fn torn_prefix_fails_whole_extent_check() {
        let bytes = vec![7u8; 64];
        let f = ExtentFrame::seal(0, &bytes, 8);
        assert!(!f.verify(&bytes[..32]), "a torn prefix must not verify");
    }
}
