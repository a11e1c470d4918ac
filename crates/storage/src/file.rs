//! Real file backing for chunk sets, plus a self-cleaning scratch directory.
//!
//! The simulated cluster normally keeps chunk payloads in memory (the DES
//! charges virtual I/O time either way), but the file backend writes and
//! reads genuine files through the [`chaos_gas::Record`] codec. The
//! out-of-core examples and `tests/backends.rs` use it to
//! demonstrate that the engine really can run with its working set on disk.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use chaos_gas::Record;

use crate::frame::ExtentFrame;

/// A unique, self-deleting scratch directory under the system temp dir.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

impl ScratchDir {
    /// Creates `<tmp>/<prefix>-<pid>-<seq>`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from directory creation.
    pub fn new(prefix: &str) -> std::io::Result<Self> {
        let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{seq}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// An append-only record file: chunks are byte ranges within one file, the
/// same layout the paper uses ("on each machine, for each streaming
/// partition, the vertex, edge and update set correspond to a separate
/// file", §7). Every extent is sealed with an [`ExtentFrame`] (one CRC-32
/// per run of records) at append time, and every read — full-extent and
/// ranged sub-chunk alike — fetches and checks the CRC runs that enclose
/// it, so a bit flipped on the real filesystem surfaces as an
/// `InvalidData` error instead of silently poisoning the run. Bytes are
/// encoded into and read into one scratch buffer the backing owns.
#[derive(Debug)]
pub struct FileBacking {
    file: File,
    len: u64,
    frames: BTreeMap<u64, ExtentFrame>,
    /// Encode/read scratch, reused across calls.
    buf: Vec<u8>,
}

impl FileBacking {
    /// Creates (truncating) a backing file at `path`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from file creation.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            file,
            len: 0,
            frames: BTreeMap::new(),
            buf: Vec::new(),
        })
    }

    /// Current file length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a chunk of records; returns `(offset, encoded_len)`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the write.
    pub fn append<R: Record>(&mut self, records: &[R]) -> std::io::Result<(u64, u64)> {
        self.buf.clear();
        for r in records {
            r.encode(&mut self.buf);
        }
        let (offset, len) = (self.len, self.buf.len() as u64);
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(&self.buf)?;
        self.len += len;
        self.frames.insert(
            offset,
            ExtentFrame::seal(offset, &self.buf, R::ENCODED_BYTES as u64),
        );
        Ok((offset, len))
    }

    /// Reads back a chunk previously written with [`FileBacking::append`],
    /// verifying the extent's CRC-32 frame.
    ///
    /// # Errors
    ///
    /// As [`FileBacking::read_into`].
    pub fn read<R: Record>(&mut self, offset: u64, len: u64) -> std::io::Result<Vec<R>> {
        let mut out = Vec::new();
        self.read_into(offset, len, &mut out)?;
        Ok(out)
    }

    /// Ranged read appended into `out`: decodes the byte range
    /// `[offset, offset + len)` — any record-aligned sub-range of one chunk
    /// extent, since the codec is fixed-width. Reads and checks the CRC
    /// runs enclosing the range (at most one run of over-read at each
    /// end) and decodes only the requested records. Block-granular serves
    /// read only the active block runs of a chunk this way.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the read, `InvalidInput` if the range is
    /// not a record-aligned part of a single appended extent (nothing is
    /// decoded unverified), or `InvalidData` if a covering run fails its
    /// CRC.
    pub fn read_into<R: Record>(
        &mut self,
        offset: u64,
        len: u64,
        out: &mut Vec<R>,
    ) -> std::io::Result<()> {
        // An empty extent has no bytes to verify, and its frame is replaced
        // by that of the next extent appended, at the same offset.
        if len == 0 {
            return Ok(());
        }
        let covered = self
            .frames
            .range(..=offset)
            .next_back()
            .filter(|(_, f)| f.record_bytes == R::ENCODED_BYTES as u64)
            .and_then(|(_, f)| Some((f, f.enclosing_runs(offset, len)?)));
        let Some((frame, (start, cover))) = covered else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "read of {len} bytes at offset {offset} is not a record range of one extent"
                ),
            ));
        };
        self.buf.resize(cover as usize, 0);
        self.file.seek(SeekFrom::Start(start))?;
        self.file.read_exact(&mut self.buf)?;
        if !frame.verify_range(start, &self.buf) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("checksum mismatch: {len} bytes at offset {offset}"),
            ));
        }
        let skip = (offset - start) as usize;
        let wanted = &self.buf[skip..skip + len as usize];
        out.extend(wanted.chunks_exact(R::ENCODED_BYTES).map(R::decode));
        Ok(())
    }

    /// Truncates the file to zero (update sets are deleted after gather).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the truncation.
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.len = 0;
        self.frames.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dir_is_unique_and_cleaned() {
        let p1;
        {
            let d1 = ScratchDir::new("chaos-test").unwrap();
            let d2 = ScratchDir::new("chaos-test").unwrap();
            assert_ne!(d1.path(), d2.path());
            assert!(d1.path().exists());
            p1 = d1.path().to_path_buf();
        }
        assert!(!p1.exists(), "dropped scratch dir must be removed");
    }

    #[test]
    fn append_read_roundtrip() {
        let dir = ScratchDir::new("chaos-file").unwrap();
        let mut fb = FileBacking::create(&dir.path().join("updates.dat")).unwrap();
        let a: Vec<u64> = (0..100).collect();
        let b: Vec<u64> = (100..150).collect();
        let (off_a, len_a) = fb.append(&a).unwrap();
        let (off_b, len_b) = fb.append(&b).unwrap();
        assert_eq!(off_a, 0);
        assert_eq!(len_a, 800);
        assert_eq!(off_b, 800);
        assert_eq!(fb.len(), 1200);
        assert_eq!(fb.read::<u64>(off_b, len_b).unwrap(), b);
        assert_eq!(fb.read::<u64>(off_a, len_a).unwrap(), a);
        // An empty chunk shares its offset with the next one; both read back.
        let (off_e, len_e) = fb.append::<u64>(&[]).unwrap();
        let (off_c, len_c) = fb.append(&[9u64]).unwrap();
        assert_eq!((off_e, len_e, off_c), (1200, 0, 1200));
        assert!(fb.read::<u64>(off_e, len_e).unwrap().is_empty());
        assert_eq!(fb.read::<u64>(off_c, len_c).unwrap(), vec![9]);
    }

    #[test]
    fn read_into_decodes_record_aligned_subranges() {
        let dir = ScratchDir::new("chaos-file").unwrap();
        let mut fb = FileBacking::create(&dir.path().join("r.dat")).unwrap();
        let a: Vec<u64> = (0..100).collect();
        let (off, _) = fb.append(&a).unwrap();
        // Two disjoint record runs of the same extent, concatenated.
        let mut out: Vec<u64> = Vec::new();
        fb.read_into(off + 10 * 8, 5 * 8, &mut out).unwrap();
        fb.read_into(off + 90 * 8, 10 * 8, &mut out).unwrap();
        let want: Vec<u64> = (10..15).chain(90..100).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn unknown_and_straddling_ranges_are_rejected_not_decoded() {
        use std::io::ErrorKind::InvalidInput;
        let dir = ScratchDir::new("chaos-file").unwrap();
        let mut fb = FileBacking::create(&dir.path().join("u.dat")).unwrap();
        let (off_a, len_a) = fb.append(&(0..100).collect::<Vec<u64>>()).unwrap();
        let (off_b, len_b) = fb.append(&(100..150).collect::<Vec<u64>>()).unwrap();
        let mut out: Vec<u64> = Vec::new();
        // The bytes exist in the file, but no single frame vouches for them.
        let straddle = fb.read_into(off_b - 16, 32, &mut out);
        assert_eq!(straddle.unwrap_err().kind(), InvalidInput);
        let both = fb.read::<u64>(off_a, len_a + len_b);
        assert_eq!(both.unwrap_err().kind(), InvalidInput);
        let misaligned = fb.read::<u64>(off_a + 4, 8);
        assert_eq!(misaligned.unwrap_err().kind(), InvalidInput);
        let wrong_width = fb.read::<(u64, u32)>(off_a, 24);
        assert_eq!(wrong_width.unwrap_err().kind(), InvalidInput);
        assert!(out.is_empty(), "a rejected read must decode nothing");
        // No frame is registered once the set is cleared.
        fb.truncate().unwrap();
        let unknown = fb.read::<u64>(off_a, len_a);
        assert_eq!(unknown.unwrap_err().kind(), InvalidInput);
    }

    #[test]
    fn any_flipped_bit_fails_every_read_that_covers_it() {
        use std::io::ErrorKind::InvalidData;
        let run = crate::frame::RUN_RECORDS;
        let dir = ScratchDir::new("chaos-file").unwrap();
        let path = dir.path().join("t.dat");
        let mut fb = FileBacking::create(&path).unwrap();
        // Three full CRC runs and a short fourth, after a first extent so
        // that offsets are not extent-relative by accident.
        let n = 3 * run + 10;
        fb.append(&[7u64; 5]).unwrap();
        let a: Vec<u64> = (0..n).collect();
        let (off, len) = fb.append(&a).unwrap();
        let mut rng = chaos_sim::rng::Rng::new(12);
        let mut flips: Vec<u64> = (0..4).map(|r| r * run * 64 + rng.below(64)).collect();
        flips.extend((0..12).map(|_| rng.below(len * 8)));
        // Flips one bit on the real filesystem, behind the backing's back.
        let flip = |bit: u64| {
            let mut f = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            let mut b = [0u8];
            f.seek(SeekFrom::Start(off + bit / 8)).unwrap();
            f.read_exact(&mut b).unwrap();
            f.seek(SeekFrom::Start(off + bit / 8)).unwrap();
            f.write_all(&[b[0] ^ (1 << (bit % 8))]).unwrap();
        };
        for bit in flips {
            flip(bit);
            let whole = fb.read::<u64>(off, len);
            assert_eq!(whole.unwrap_err().kind(), InvalidData, "bit {bit}");
            // Ranged reads: the flipped record alone, a range ending on
            // it, and one starting on it — all covered by the bad run.
            let rec = bit / 64;
            let mut out: Vec<u64> = Vec::new();
            for (first, count) in [
                (rec, 1),
                (rec.saturating_sub(70), rec.min(70) + 1),
                (rec, n - rec),
            ] {
                let ranged = fb.read_into(off + first * 8, count * 8, &mut out);
                assert_eq!(
                    ranged.unwrap_err().kind(),
                    InvalidData,
                    "bit {bit} range {first}+{count}"
                );
            }
            assert!(out.is_empty());
            // A range in a different run still verifies and decodes.
            let clean = (rec / run + 2) % 4 * run;
            fb.read_into(off + (clean + 3) * 8, 5 * 8, &mut out)
                .unwrap();
            assert_eq!(out, (clean + 3..clean + 8).collect::<Vec<u64>>());
            flip(bit);
        }
        assert_eq!(fb.read::<u64>(off, len).unwrap(), a);
    }

    #[test]
    fn truncate_resets() {
        let dir = ScratchDir::new("chaos-file").unwrap();
        let mut fb = FileBacking::create(&dir.path().join("x.dat")).unwrap();
        fb.append(&[1u32, 2, 3]).unwrap();
        fb.truncate().unwrap();
        assert!(fb.is_empty());
        let (off, _) = fb.append(&[9u32]).unwrap();
        assert_eq!(off, 0);
        assert_eq!(fb.read::<u32>(0, 4).unwrap(), vec![9]);
    }
}
