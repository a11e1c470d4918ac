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
//! - the **real** CRC path: [`crc32`] (hand-rolled, IEEE polynomial, no
//!   external crate) protects bytes that genuinely hit the host filesystem
//!   via `FileBacking`. An [`ExtentFrame`] keeps one CRC per run of
//!   [`RUN_RECORDS`] records, so sealing and verifying touch every byte
//!   exactly once, and PR 7's ranged sub-chunk reads check only the runs
//!   that enclose them;
//! - the **simulated** frame path: the DES charges [`FRAME_BYTES`] of
//!   checksum overhead per framed device transfer, and frame-check
//!   *failures* are decided by the deterministic corruption oracle on
//!   [`crate::Device`], so faulted runs stay a pure function of
//!   `(seed, machine, simulated time, offset)`.
//!
//! # Two kernels, one value
//!
//! [`crc32`] is computed by one of two kernels that return the same 32
//! bits for every input, so which one ran shows in no frame, no file byte
//! and no verdict:
//!
//! - the **table kernel** — slicing-by-16 over tables built at compile
//!   time, safe and portable, 2.1–2.4 GB/s;
//! - the **folding kernel** — carry-less multiplication (`pclmulqdq`), four
//!   16-byte lanes of the message at a time, 20–25 GB/s on the run widths
//!   the file backend checks. It is `x86_64` code behind the crate's one
//!   `unsafe` block: the call into functions compiled for instruction sets
//!   the build does not assume.
//!
//! The selection is made per call from what the code observes, never from
//! a flag: on `x86_64`, when the CPU reports `pclmulqdq` and `sse4.1` and
//! the input has at least four lanes (64 bytes), the folding kernel takes
//! every whole lane and the table kernel finishes the tail of under
//! sixteen bytes from the state it is handed; on any other architecture,
//! CPU or shorter input the table kernel runs alone. The unit tests hold
//! both against a bit-at-a-time definition at every length 0..=1100 and
//! every start 0..16, call each kernel directly so the one `crc32` does
//! not pick on the test host stays checked, and pin a sealed frame to the
//! CRCs the table-only parent commit wrote.

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

/// Advances the raw (un-inverted) CRC state over `data` with the table
/// kernel: the whole computation where the folding kernel cannot run, the
/// tail of fewer than sixteen bytes where it can.
fn table_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    crc
}

/// The carry-less-multiplication kernel (Gopal et al., *Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ*, Intel 2009): the
/// message is a polynomial over GF(2), and a 128-bit slice of it that lies
/// `d` bits ahead of another is congruent, modulo the CRC polynomial, to
/// its two 64-bit halves multiplied by the constants `x^(d+32) mod P` and
/// `x^(d-32) mod P` — two `pclmulqdq` and two `pxor` carry sixteen bytes
/// of state across any distance, with no table and no dependence between
/// lanes.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Lanes folded side by side: the kernel needs `LANES * 16` bytes to
    /// start.
    pub(super) const LANES: usize = 4;

    // Constants for the reflected polynomial `0xEDB88320`, each `x^n mod P`
    // bit-reflected and shifted left by one (the reflected product of two
    // 64-bit operands sits one bit low in the 128-bit result).
    /// Fold across 512 bits (four lanes ahead): `x^(512+32)`, `x^(512-32)`.
    const K1: i64 = 0x01_5444_2bd4;
    const K2: i64 = 0x01_c6e4_1596;
    /// Fold across 128 bits (the next lane): `x^(128+32)`, `x^(128-32)`.
    const K3: i64 = 0x01_7519_97d0;
    const K4: i64 = 0x00_ccaa_009e;
    /// 64 → 32 bits: `x^64`.
    const K5: i64 = 0x01_63cd_6124;
    /// Barrett reduction: the polynomial itself and `μ = ⌊x^64 / P⌋`.
    const POLY: i64 = 0x01_db71_0641;
    const MU: i64 = 0x01_f701_1641;

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(lane: &[u8; 16]) -> __m128i {
        // A little-endian integer split in two, not a pointer intrinsic:
        // the compiler emits the one unaligned 16-byte load either way.
        let bits = u128::from_le_bytes(*lane);
        _mm_set_epi64x((bits >> 64) as i64, bits as i64)
    }

    /// `acc`, carried forward to where `next` lies, plus `next`. `keys`
    /// holds the constant for the low half of `acc` in its low half and
    /// the one for the high half in its high half.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, keys);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the raw CRC state over `head` and then `rest`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, head: &[[u8; 16]; LANES], rest: &[[u8; 16]]) -> u32 {
        let mut x = head.map(|lane| load(&lane));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));

        let (quads, singles) = rest.as_chunks::<LANES>();
        let across_four = _mm_set_epi64x(K2, K1);
        for quad in quads {
            for (acc, lane) in x.iter_mut().zip(quad) {
                *acc = fold(*acc, load(lane), across_four);
            }
        }

        let across_one = _mm_set_epi64x(K4, K3);
        let [first, others @ ..] = x;
        let mut acc = first;
        for lane in others {
            acc = fold(acc, lane, across_one);
        }
        for lane in singles {
            acc = fold(acc, load(lane), across_one);
        }

        // 128 → 64: the low half carried across the high one; then 64 →
        // 32: the low word of that carried across the rest.
        let low_word = _mm_set_epi64x(0, 0xFFFF_FFFF);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, across_one),
            _mm_srli_si128::<8>(acc),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low_word), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(acc),
        );

        // Barrett: the quotient by P is the low word times μ, and the
        // remainder is what is left of `acc` after subtracting quotient
        // times P — in the reflected domain, its second word.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let quotient = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low_word), poly_mu);
        let product = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(quotient, low_word), poly_mu);
        _mm_extract_epi32::<1>(_mm_xor_si128(acc, product)) as u32
    }
}

/// Advances the raw CRC state over as much of `data` as the folding kernel
/// takes — every whole 16-byte lane, when there are at least four and this
/// CPU has the two instruction sets; nothing otherwise — and returns the
/// state with the bytes still to be processed.
fn fold_prefix(state: u32, data: &[u8]) -> (u32, &[u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        let (lanes, tail) = data.as_chunks::<16>();
        if let Some((head, rest)) = lanes.split_first_chunk::<{ clmul::LANES }>() {
            if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
                // SAFETY: `clmul::update` is compiled with `pclmulqdq` and
                // `sse4.1` enabled and has no other requirement; both were
                // just detected on the CPU this is running on.
                return (unsafe { clmul::update(state, head, rest) }, tail);
            }
        }
    }
    (state, data)
}

/// CRC-32 over `data` (IEEE, the zlib/ethernet variant).
pub fn crc32(data: &[u8]) -> u32 {
    let (state, tail) = fold_prefix(0xFFFF_FFFF, data);
    !table_update(state, tail)
}

/// [`crc32`] by the table kernel alone, whatever the CPU: what runs on
/// other architectures, exposed so the layer bench and the differential
/// test have the second side on x86 too.
pub fn crc32_table(data: &[u8]) -> u32 {
    !table_update(0xFFFF_FFFF, data)
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

    /// The folding kernel called directly, the table kernel finishing the
    /// tail as in `crc32`; `None` where it does not run (an input under 64
    /// bytes, a CPU or an architecture without the instructions).
    fn crc32_folded(data: &[u8]) -> Option<u32> {
        let (state, tail) = fold_prefix(0xFFFF_FFFF, data);
        (tail.len() < data.len()).then(|| {
            assert!(tail.len() < 16, "the folding kernel left a whole lane");
            !table_update(state, tail)
        })
    }

    /// Says so on stderr and returns `false` when this host cannot run the
    /// folding kernel, so a test's folding half is skipped visibly.
    fn folding_kernel_runs() -> bool {
        let runs = crc32_folded(&[0; 64]).is_some();
        if !runs {
            eprintln!("skipped: no pclmulqdq + sse4.1 here, only the table kernel was checked");
        }
        runs
    }

    /// Every input the kernels are compared on, with a label: each length
    /// 0..=1100 at each start 0..16 of one buffer — table-only below 64
    /// bytes; the four-lane loop entered 0, 1 and 2 to 16 times; 0 to 3
    /// single folds after it; every tail 0..=15 — then seeded buffers of the
    /// two real run widths (64 `Update<f32>`, 64 `Edge`), 32 KiB and 1 MiB.
    fn for_each_input(mut check: impl FnMut(&[u8], std::fmt::Arguments)) {
        let buf = seeded_bytes(12, 16 + 1100);
        for start in 0..16 {
            for len in 0..=1100 {
                check(
                    &buf[start..start + len],
                    format_args!("start {start} len {len}"),
                );
            }
        }
        for (seed, len) in [(1, 768), (2, 1280), (3, 32 << 10), (4, 1 << 20)] {
            check(
                &seeded_bytes(seed, len),
                format_args!("seed {seed} len {len}"),
            );
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values, then three that zlib computed
        // for inputs long enough for the folding kernel.
        let fox = b"The quick brown fox jumps over the lazy dog";
        let vectors: [(&[u8], u32); 6] = [
            (b"", 0),
            (b"123456789", 0xCBF4_3926),
            (fox, 0x414F_A339),
            (&[0; 64], 0x758D_6336),
            (&fox.repeat(3), 0xD996_91F3),
            (&[b'a'; 1000], 0x9A38_DA03),
        ];
        let folding = folding_kernel_runs();
        for (data, crc) in vectors {
            assert_eq!(crc32(data), crc, "crc32 over {} bytes", data.len());
            assert_eq!(crc32_table(data), crc, "table over {} bytes", data.len());
            if folding && data.len() >= 64 {
                assert_eq!(
                    crc32_folded(data),
                    Some(crc),
                    "folded over {} bytes",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn crc32_matches_bitwise_oracle_at_every_length_and_alignment() {
        for_each_input(|data, what| assert_eq!(crc32(data), crc32_oracle(data), "{what}"));
    }

    /// `crc32` takes one kernel per input and host; this calls each kernel
    /// itself, so the table kernel stays checked at every length on a host
    /// where `crc32` folds, and the folding kernel is known to have run.
    #[test]
    fn table_and_folding_kernels_agree_when_called_directly() {
        let folding = folding_kernel_runs();
        for_each_input(|data, what| {
            let table = crc32_table(data);
            assert_eq!(table, crc32_oracle(data), "table, {what}");
            if folding {
                let folded = crc32_folded(data);
                assert_eq!(folded.is_some(), data.len() >= 64, "selection, {what}");
                assert_eq!(folded.unwrap_or(table), table, "folded, {what}");
            }
        });
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

    /// The file format does not depend on the kernel: these CRCs were
    /// computed by the parent commit (table kernel only), so an extent it
    /// wrote verifies here, and one written here verifies there.
    #[test]
    fn seal_matches_the_crcs_the_parent_commit_wrote() {
        // 150 records of 20 bytes (an `Edge`): runs of 1280, 1280 and 440
        // bytes, all long enough to fold.
        let bytes = seeded_bytes(18, 150 * 20);
        let f = ExtentFrame::seal(4096, &bytes, 20);
        assert_eq!(f.run_crcs, [0x94DD_9552, 0x959F_D4F7, 0xE747_639D]);
        assert_eq!(crc32(&bytes), 0xB0DA_7376);
        assert!(f.verify(&bytes));
    }

    #[test]
    fn torn_prefix_fails_whole_extent_check() {
        let bytes = vec![7u8; 64];
        let f = ExtentFrame::seal(0, &bytes, 8);
        assert!(!f.verify(&bytes[..32]), "a torn prefix must not verify");
    }
}
