//! Criterion microbenchmarks of the reproduction's building blocks.
//!
//! These measure the *host* performance of the substrates (how fast the
//! simulator itself runs), complementing the simulated-time figure
//! harnesses in `src/`. One bench per hot component: the event queue
//! (narrow payloads, and the hold model with engine-width ones), the RNG,
//! graph generation, the streaming-partition pass, the record codec, the
//! chunk-store serve path, sort-on-seal of one edge chunk, the CRC-32
//! kernels at the out-of-core path's widths, the scatter/gather inner
//! kernels via the sequential executor, the reference oracles, the grid
//! partitioner, and one end-to-end simulated cluster run.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use chaos_algos::pagerank::Pagerank;
use chaos_algos::wcc::Wcc;
use chaos_baselines::GridPartitioner;
use chaos_core::{run_chaos, ChaosConfig};
use chaos_gas::record::{decode_all, encode_all};
use chaos_gas::run_sequential;
use chaos_graph::{partition_edges, reference, Edge, PartitionSpec, RmatConfig};
use chaos_sim::{EventQueue, QueueKind, Rng, MICROS};
use chaos_storage::{crc32, crc32_table, seal_chunk, ChunkSet, SealScratch};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("sim/event_queue_push_pop_10k", |b| {
        let mut rng = Rng::new(7);
        let times: Vec<u64> = (0..10_000).map(|_| rng.below(1_000_000)).collect();
        b.iter(|| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(t, i % 8, i as u64);
            }
            let mut sum = 0u64;
            while let Some(e) = q.pop() {
                sum = sum.wrapping_add(e.msg);
            }
            black_box(sum)
        })
    });
}

/// The hold model of `chaos-perf`'s `sim.queue_hold` probe at 32 machines
/// — 512 pending events, every pop schedules a successor one of the four
/// fabric/SSD quanta ahead, buckets tuned to local delivery — but carrying
/// a payload as wide as the engine's `Envelope<Msg>` (96 bytes), which the
/// probe's `u64` is not: the cost of keeping order then depends on how much
/// of an entry the store has to move. 200 000 holds per iteration (divide
/// by 400 000 for ns per push or pop).
fn bench_event_queue_hold_env96(c: &mut Criterion) {
    let fabric = ChaosConfig::new(32).fabric;
    let quanta = [
        fabric.local_delivery,
        fabric.propagation,
        fabric.propagation + 7 * MICROS,
        50 * MICROS,
    ];
    let (machines, depth) = (32, 512);
    for (kind, name) in [(QueueKind::Calendar, "calendar"), (QueueKind::Heap, "heap")] {
        let name = format!("sim/event_queue_hold_env96_{name}_d{depth}");
        c.bench_function(&name, |b| {
            b.iter(|| {
                let mut q: EventQueue<[u64; 12]> = EventQueue::with_kind(kind);
                q.tune(fabric.local_delivery);
                for i in 0..depth {
                    let at = quanta[i % 4] * (1 + i as u64 % 7);
                    q.push(at, i % machines, [i as u64; 12]);
                }
                let mut sum = 0u64;
                for i in 0..200_000usize {
                    let e = q.pop().expect("the hold model never drains the queue");
                    sum = sum.wrapping_add(e.msg[i % 12]);
                    q.push(e.time + quanta[i % 4], e.dst, e.msg);
                }
                black_box(sum)
            })
        });
    }
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("sim/rng_below_1m", |b| {
        let mut rng = Rng::new(3);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1_000_000 {
                acc = acc.wrapping_add(rng.below(32));
            }
            black_box(acc)
        })
    });
}

fn bench_rmat(c: &mut Criterion) {
    c.bench_function("graph/rmat_scale14_generate", |b| {
        b.iter(|| black_box(RmatConfig::paper(14).generate().num_edges()))
    });
    c.bench_function("graph/rmat_scale14_weighted_generate", |b| {
        b.iter(|| black_box(RmatConfig::paper_weighted(14).generate().num_edges()))
    });
    let g = RmatConfig::paper(14).generate();
    c.bench_function("graph/to_undirected_scale14", |b| {
        b.iter(|| black_box(g.to_undirected().num_edges()))
    });
}

fn bench_partitioner(c: &mut Criterion) {
    let g = RmatConfig::paper(14).generate();
    let spec = PartitionSpec::with_partitions(g.num_vertices, 32);
    c.bench_function("graph/streaming_partition_pass_256k_edges", |b| {
        b.iter(|| black_box(partition_edges(&g, &spec).len()))
    });
}

fn bench_record_codec(c: &mut Criterion) {
    let values: Vec<u64> = (0..100_000).collect();
    let encoded = encode_all(&values);
    c.bench_function("gas/encode_100k_u64", |b| {
        b.iter(|| black_box(encode_all(&values).len()))
    });
    c.bench_function("gas/decode_100k_u64", |b| {
        b.iter(|| black_box(decode_all::<u64>(&encoded).len()))
    });
}

fn bench_chunk_store(c: &mut Criterion) {
    c.bench_function("storage/chunkset_append_serve_1k_chunks", |b| {
        let chunk: Arc<Vec<u64>> = Arc::new((0..1024).collect());
        b.iter_batched(
            || {
                let mut cs = ChunkSet::<u64>::in_memory(8);
                for _ in 0..1000 {
                    cs.append(Arc::clone(&chunk)).expect("mem");
                }
                cs
            },
            |mut cs| {
                let mut n = 0;
                while let Some(ch) = cs.serve_next().expect("mem") {
                    n += ch.len();
                }
                black_box(n)
            },
            BatchSize::SmallInput,
        )
    });
}

/// Sort-on-seal plus both index builds over 4096-edge chunks in arrival
/// order, 64 chunks per iteration (divide by 262144 for ns/record): a
/// 256-key window is one cluster bin of a small partition (a single
/// counting pass), a 2^20-key window a whole unclustered partition (two).
fn bench_seal(c: &mut Criterion) {
    for (window, name) in [(256, "narrow"), (1 << 20, "wide")] {
        let mut rng = Rng::new(11);
        let chunks: Vec<Vec<Edge>> = (0..64u64)
            .map(|c| {
                (0..4096)
                    .map(|i| Edge::new(c * window + rng.below(window), i))
                    .collect()
            })
            .collect();
        let mut scratch = SealScratch::default();
        c.bench_function(&format!("storage/seal_edge_chunk_4096_{name}_x64"), |b| {
            b.iter(|| {
                for chunk in &chunks {
                    black_box(seal_chunk(black_box(chunk), |e| e.src, 512, &mut scratch));
                }
            })
        });
    }
}

/// CRC-32 at the widths the out-of-core path checks — one run of 64
/// `Update<f32>` (768 B), one of 64 `Edge` (1280 B), a 32 KiB block — through
/// the dispatching `crc32` and through the table kernel alone. A 960 KiB
/// buffer (a whole number of each width, and small enough to stay in the
/// second-level cache, as a chunk just encoded or just read is) is covered
/// four times per iteration: GB/s = 3.93 / ms.
fn bench_crc32(c: &mut Criterion) {
    let mut rng = Rng::new(5);
    let buf: Vec<u8> = (0..768 * 1280).map(|_| rng.next_u64() as u8).collect();
    for (width, name) in [(768, "run768"), (1280, "run1280"), (32 << 10, "32k")] {
        for (kernel, suffix) in [(crc32 as fn(&[u8]) -> u32, ""), (crc32_table, "_table")] {
            c.bench_function(&format!("storage/crc32_{name}{suffix}"), |b| {
                b.iter(|| {
                    let mut acc = 0u32;
                    for _ in 0..4 {
                        for run in black_box(&buf).chunks_exact(width) {
                            acc ^= kernel(run);
                        }
                    }
                    acc
                })
            });
        }
    }
}

fn bench_gas_kernels(c: &mut Criterion) {
    let g = RmatConfig::paper(13).generate();
    c.bench_function("gas/sequential_pagerank_3it_scale13", |b| {
        b.iter(|| black_box(run_sequential(Pagerank::new(3), &g, 4).states.len()))
    });
    let u = g.to_undirected();
    c.bench_function("gas/sequential_wcc_scale13", |b| {
        b.iter(|| black_box(run_sequential(Wcc::new(), &u, 10_000).states.len()))
    });
}

fn bench_oracles(c: &mut Criterion) {
    let g = RmatConfig::paper(13).generate();
    c.bench_function("reference/tarjan_scc_scale13", |b| {
        b.iter(|| black_box(reference::strongly_connected_components(&g).len()))
    });
    c.bench_function("reference/pagerank_3it_scale13", |b| {
        b.iter(|| black_box(reference::pagerank(&g, 3).len()))
    });
}

fn bench_grid_partitioner(c: &mut Criterion) {
    let g = RmatConfig::paper(13).generate();
    c.bench_function("baselines/grid_partition_scale13_m16", |b| {
        let gp = GridPartitioner::new(16);
        b.iter(|| black_box(gp.partition(&g).replication_factor))
    });
}

fn bench_cluster(c: &mut Criterion) {
    let g = RmatConfig::paper(11).generate();
    c.bench_function("core/cluster_pr3_m4_scale11", |b| {
        b.iter(|| {
            let mut cfg = ChaosConfig::new(4);
            cfg.chunk_bytes = 32 * 1024;
            black_box(run_chaos(cfg, Pagerank::new(3), &g).0.events)
        })
    });
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets =
        bench_event_queue,
        bench_event_queue_hold_env96,
        bench_rng,
        bench_rmat,
        bench_partitioner,
        bench_record_codec,
        bench_chunk_store,
        bench_seal,
        bench_crc32,
        bench_gas_kernels,
        bench_oracles,
        bench_grid_partitioner,
        bench_cluster
);
criterion_main!(kernels);
