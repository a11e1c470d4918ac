//! `chaos-storage`: chunk sets, indexes, frames, the file backend and the
//! device model.

use std::hint::black_box;
use std::sync::Arc;

use chaos_gas::ActiveSet;
use chaos_graph::Edge;
use chaos_storage::{
    BlockIndex, ChunkIndex, ChunkSet, Device, DeviceProfile, ExtentFrame, FileBacking, ScratchDir,
};

use super::{best_mb_per_s, best_ns_per_op};
use crate::trace::Tracer;

/// Records per block of the engine's block indexes (`ChaosConfig::new`'s
/// default; the benchmark never sets it).
const BLOCK_RECORDS: u32 = 512;
/// Chunks in the probe's chunk set.
const CHUNKS: u64 = 64;
/// Encoded width of an `Edge` record in a spill file.
const EDGE_FILE_BYTES: u64 = 20;

pub struct StorageProbes {
    pub serve_whole_ns_per_chunk: f64,
    pub serve_ranged_ns_per_record: f64,
    pub serve_skip_ns_per_chunk: f64,
    pub append_ns_per_record: f64,
    pub index_build_ns_per_record: f64,
    pub frame_seal_mb_per_s: f64,
    pub frame_verify_mb_per_s: f64,
    pub file_append_mb_per_s: f64,
    pub file_read_mb_per_s: f64,
    pub device_op_ns: f64,
}

/// `CHUNKS` key-sorted chunks of `per_chunk` edges; chunk `c` holds the
/// scatter keys `[c * per_chunk / 4, (c + 1) * per_chunk / 4)`, four edges
/// per key — disjoint windows, as the clustered layout makes them.
fn sorted_chunks(per_chunk: u64) -> Vec<Vec<Edge>> {
    (0..CHUNKS)
        .map(|c| {
            (0..per_chunk)
                .map(|i| {
                    Edge::new(
                        (c * per_chunk + i) / 4,
                        (i * 2_654_435_761) % (CHUNKS * per_chunk / 4),
                    )
                })
                .collect()
        })
        .collect()
}

fn indexed_set(chunks: &[Vec<Edge>], record_bytes: u64) -> ChunkSet<Edge> {
    let mut set = ChunkSet::in_memory(record_bytes);
    for chunk in chunks {
        let keys = chunk.iter().map(|e| e.src);
        let index = ChunkIndex::from_keys(keys.clone());
        let blocks = BlockIndex::from_sorted_keys(keys, BLOCK_RECORDS);
        set.append_with_blocks(Arc::new(chunk.clone()), Some(index), blocks)
            .expect("in-memory appends cannot fail");
    }
    set
}

/// Drains one epoch of `set` under `active`; returns `(serve calls, records served)`.
fn drain(set: &mut ChunkSet<Edge>, active: &ActiveSet) -> (u64, u64) {
    set.reset_epoch();
    let (mut serves, mut records) = (0, 0);
    loop {
        let out = set
            .serve_next_selective(Some(active), false)
            .expect("in-memory serves cannot fail");
        match out.served {
            Some(chunk) => {
                serves += 1;
                records += chunk.data.len() as u64;
            }
            None => return (serves, records),
        }
    }
}

/// Runs every storage probe at the workload's chunk geometry:
/// `chunk_bytes` per chunk, `record_bytes` of storage per edge record.
pub fn probe(tr: &mut Tracer, chunk_bytes: u64, record_bytes: u64) -> StorageProbes {
    // Whole blocks, and at least two, so that a serve can be partial.
    let block = u64::from(BLOCK_RECORDS);
    let per_chunk = (chunk_bytes / record_bytes / block).max(2) * block;
    let chunks = sorted_chunks(per_chunk);
    let keys = CHUNKS * per_chunk / 4;
    let total = CHUNKS * per_chunk;

    let mut set = indexed_set(&chunks, record_bytes);
    let all = ActiveSet::from_fn(0, keys as usize, |_| true);
    let none = ActiveSet::from_fn(0, keys as usize, |_| false);
    // One active key at the start of every fourth block of each chunk: a
    // quarter of the blocks where a chunk has four or more, half of a
    // two-block chunk.
    let quarter = ActiveSet::from_fn(0, keys as usize, |k| {
        let offset = k as u64 * 4 % per_chunk;
        offset.is_multiple_of(4 * block)
    });

    assert_eq!(drain(&mut set, &all), (CHUNKS, total));
    let serve_whole_ns_per_chunk = best_ns_per_op(tr, "storage.serve_whole", CHUNKS * 64, || {
        for _ in 0..64 {
            black_box(drain(&mut set, &all));
        }
    });
    let (serves, ranged_records) = drain(&mut set, &quarter);
    assert!(
        serves == CHUNKS && ranged_records < total,
        "ranged serves must be partial"
    );
    let serve_ranged_ns_per_record =
        best_ns_per_op(tr, "storage.serve_ranged", ranged_records * 8, || {
            for _ in 0..8 {
                black_box(drain(&mut set, &quarter));
            }
        });
    assert_eq!(drain(&mut set, &none), (0, 0));
    let serve_skip_ns_per_chunk = best_ns_per_op(tr, "storage.serve_skip", CHUNKS * 256, || {
        for _ in 0..256 {
            black_box(drain(&mut set, &none));
        }
    });

    // Ingest copies each input slice into a fresh shared chunk.
    let append_ns_per_record = best_ns_per_op(tr, "storage.append", total, || {
        let mut fresh: ChunkSet<Edge> = ChunkSet::in_memory(record_bytes);
        for chunk in &chunks {
            fresh
                .append(Arc::new(chunk.to_vec()))
                .expect("in-memory appends cannot fail");
        }
        black_box(fresh.stats());
    });
    let index_build_ns_per_record = best_ns_per_op(tr, "storage.index_build", total, || {
        for chunk in &chunks {
            let keys = chunk.iter().map(|e| e.src);
            black_box(ChunkIndex::from_keys(keys.clone()));
            black_box(BlockIndex::from_sorted_keys(keys, BLOCK_RECORDS));
        }
    });

    // One chunk's worth of encoded edge records, as the file backend sees it.
    let extent: Vec<u8> = (0..per_chunk * EDGE_FILE_BYTES)
        .map(|i| (i * 31 % 251) as u8)
        .collect();
    let bytes = extent.len() as u64;
    let frame_seal_mb_per_s = best_mb_per_s(tr, "storage.frame_seal", bytes * 8, || {
        for _ in 0..8 {
            black_box(ExtentFrame::seal(0, black_box(&extent), EDGE_FILE_BYTES));
        }
    });
    let frame = ExtentFrame::seal(0, &extent, EDGE_FILE_BYTES);
    let frame_verify_mb_per_s = best_mb_per_s(tr, "storage.frame_verify", bytes * 16, || {
        for _ in 0..16 {
            assert!(frame.verify(black_box(&extent)));
        }
    });

    let dir =
        ScratchDir::new("chaos-perf-probe").expect("scratch directory inside the build directory");
    let path = dir.path().join("edges");
    let file_bytes = total * EDGE_FILE_BYTES;
    let file_append_mb_per_s = best_mb_per_s(tr, "storage.file_append", file_bytes, || {
        let mut file = FileBacking::create(&path).expect("probe file");
        for chunk in &chunks {
            black_box(file.append(chunk).expect("probe append"));
        }
    });
    let mut file = FileBacking::create(&path).expect("probe file");
    let extents: Vec<(u64, u64)> = chunks
        .iter()
        .map(|c| file.append(c).expect("probe append"))
        .collect();
    let file_read_mb_per_s = best_mb_per_s(tr, "storage.file_read", file_bytes, || {
        for &(offset, len) in &extents {
            black_box(file.read::<Edge>(offset, len).expect("probe read").len());
        }
    });

    let ops = 1_000_000u64;
    let device_op_ns = best_ns_per_op(tr, "storage.device_op", ops, || {
        let mut device = Device::new(DeviceProfile::ssd());
        let mut done = 0;
        for i in 0..ops {
            done = device
                .try_read(i * 100_000, black_box(chunk_bytes))
                .expect("no fault windows installed");
        }
        black_box(done);
    });

    StorageProbes {
        serve_whole_ns_per_chunk,
        serve_ranged_ns_per_record,
        serve_skip_ns_per_chunk,
        append_ns_per_record,
        index_build_ns_per_record,
        frame_seal_mb_per_s,
        frame_verify_mb_per_s,
        file_append_mb_per_s,
        file_read_mb_per_s,
        device_op_ns,
    }
}
