//! Criterion microbenchmarks of the reproduction's building blocks.
//!
//! These measure the *host* performance of the substrates (how fast the
//! simulator itself runs), complementing the simulated-time figure
//! harnesses in `src/`. One bench per hot component: the event queue
//! (narrow payloads, and the hold model with engine-width ones), the RNG,
//! graph generation, the streaming-partition pass, the record codec, the
//! chunk-store serve path, sort-on-seal of one edge chunk, the CRC-32
//! kernels at the out-of-core path's widths, the scatter/gather inner
//! kernels via the sequential executor, the engine's scatter sink (no
//! `Cluster`) and gather over its partition-local update records for
//! PageRank, MCST and BFS, pre-processing's binning pass, the
//! reference oracles, the grid partitioner, and one end-to-end simulated
//! cluster run.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use chaos_algos::bfs::{Bfs, UNREACHED};
use chaos_algos::mcst::{Mcst, McstMsg};
use chaos_algos::pagerank::Pagerank;
use chaos_algos::wcc::Wcc;
use chaos_baselines::GridPartitioner;
use chaos_core::preprocess::Preprocess;
use chaos_core::sink::{self, Cursors};
use chaos_core::{run_chaos, ChaosConfig, Layout, RunParams};
use chaos_gas::record::{decode_all, encode_all};
use chaos_gas::{run_sequential, BareEdge, EdgeRecord, GasProgram, LocalUpdate};
use chaos_graph::{partition_edges, reference, Edge, PartitionSpec, RmatConfig, VertexId};
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
    // What starting one RMAT lane costs: a scale-15 list split in eight
    // is 65 536 edges of 15 draws each.
    c.bench_function("sim/rng_advance_983040", |b| {
        let mut rng = Rng::new(3);
        b.iter(|| {
            rng.advance(983_040);
            black_box(rng.next_u64())
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

/// The scatter sink's seam without a `Cluster`: a program's kernel over a
/// 4096-edge chunk of the records the engine holds for it (sources in
/// partition 0) through `sink::scatter_chunk` into `p` pooled output
/// buffers that flush at 4096 records. One iteration is 244 passes,
/// 999 424 edges: ms per iteration reads as ns per edge.
///
/// The warm cases draw destinations uniformly over 8192 vertices, as at
/// `pr_dense`'s scale, and a flush clears the full buffer, so every
/// buffer warms past 4096 slots and grows no more. PageRank (8-byte
/// `BareEdge`s, every edge emits) runs at four partitions,
/// `pr_dense`'s count, eight, `pr_faulted`'s, and 32. MCST and BFS are
/// the programs no benchmark workload streams through the engine: MCST
/// in its MinEdge phase (16-byte `PackedEdge`s, every non-loop edge
/// emits a 32-byte message carrying the weight), BFS with every other
/// source on the frontier.
///
/// `_flushed` is the engine's case: destinations skewed as RMAT draws
/// them (those of a scale-13 RMAT list), and each pass one stream whose
/// end flushes every buffer with its capacity kept, so the buffers of
/// the rarely targeted partitions keep small capacities.
fn bench_scatter_sink(c: &mut Criterion) {
    for parts in [4usize, 8, 32] {
        scatter_sink_case(c, "pr", &Pagerank::new(1), parts, Streams::Warm, |v| {
            (1.0, 1 + (v % 16) as u32)
        });
    }
    scatter_sink_case(c, "pr", &Pagerank::new(1), 8, Streams::Flushed, |v| {
        (1.0, 1 + (v % 16) as u32)
    });
    let mcst = Mcst::new();
    scatter_sink_case(c, "mcst", &mcst, 4, Streams::Warm, |v| mcst.init(v, 1));
    scatter_sink_case(c, "bfs", &Bfs::new(0), 4, Streams::Warm, |v| (v % 2) as u32);
}

/// Where a scatter-sink case sends its updates and when it flushes.
#[derive(Clone, Copy, PartialEq)]
enum Streams {
    /// Uniform destinations; a buffer is cleared only when it fills.
    Warm,
    /// RMAT destinations; every buffer is also cleared after each pass.
    Flushed,
}

fn scatter_sink_case<P: GasProgram>(
    c: &mut Criterion,
    name: &str,
    program: &P,
    parts: usize,
    streams: Streams,
    state: impl Fn(VertexId) -> P::VertexState,
) {
    const PASSES: usize = 244;
    let spec = PartitionSpec::with_partitions(8192, parts);
    let src = spec.range(0);
    let mut rng = Rng::new(13);
    let rmat = match streams {
        Streams::Warm => Vec::new(),
        Streams::Flushed => RmatConfig::paper(13).generate().edges,
    };
    let edges: Vec<P::HeldEdge> = (0..4096)
        .map(|i| {
            let s = src.start + rng.below(src.end - src.start);
            let d = match streams {
                Streams::Warm => rng.below(8192),
                Streams::Flushed => rmat[i].dst,
            };
            EdgeRecord::pack(&Edge::weighted(s, d, (1 + i % 64) as f32))
        })
        .collect();
    let states: Vec<P::VertexState> = src.clone().map(state).collect();
    let mut bufs: Vec<Vec<LocalUpdate<P::Update>>> = vec![Vec::new(); parts];
    let mut cursors = Cursors::new(&spec, 4096);
    let suffix = match streams {
        Streams::Warm => "",
        Streams::Flushed => "_flushed",
    };
    let id = format!("core/scatter_sink_{name}_4096_p{parts}{suffix}");
    c.bench_function(&id, |b| {
        b.iter(|| {
            for _ in 0..PASSES {
                sink::scatter_chunk(
                    program,
                    src.start,
                    &states,
                    &edges,
                    0,
                    &mut bufs,
                    &mut cursors,
                );
                for &tp in &cursors.full {
                    bufs[tp].clear();
                }
                cursors.full.clear();
                if streams == Streams::Flushed {
                    bufs.iter_mut().for_each(Vec::clear);
                }
            }
            black_box(bufs[0].len())
        })
    });
}

/// Gather's seam without a `Cluster`: a program's kernel folds a warm
/// 4096-record chunk of partition-local updates (offsets uniform over a
/// 2048-vertex partition, `pr_dense`'s four partitions of 8192 vertices)
/// into the partition's accumulators. One iteration is 244 passes,
/// 999 424 records: ms per iteration reads as ns per record. MCST folds
/// MinEdge messages from senders outside the partition, so every one is a
/// candidate; BFS marks the destination reached.
fn bench_gather(c: &mut Criterion) {
    gather_case(
        c,
        "pr",
        &Pagerank::new(1),
        |_| (1.0, 1),
        |i| 1.0 / (1 + i % 16) as f32,
    );
    let mcst = Mcst::new();
    gather_case(
        c,
        "mcst",
        &mcst,
        |v| mcst.init(v, 1),
        |i| {
            let sender = 2048 + i % 6144;
            McstMsg {
                comp: sender,
                label: sender,
                cand_w: f32::INFINITY,
                cand_target: sender,
                edge_w: (1 + i % 64) as f32,
            }
        },
    );
    gather_case(c, "bfs", &Bfs::new(0), |_| UNREACHED, |_| ());
}

fn gather_case<P: GasProgram>(
    c: &mut Criterion,
    name: &str,
    program: &P,
    state: impl Fn(VertexId) -> P::VertexState,
    payload: impl Fn(u64) -> P::Update,
) {
    const PASSES: usize = 244;
    const VERTICES: u64 = 2048;
    let mut rng = Rng::new(17);
    let updates: Vec<LocalUpdate<P::Update>> = (0..4096)
        .map(|i| LocalUpdate {
            off: rng.below(VERTICES) as u32,
            payload: payload(i),
        })
        .collect();
    let states: Vec<P::VertexState> = (0..VERTICES).map(state).collect();
    let mut accums = vec![P::Accum::default(); VERTICES as usize];
    c.bench_function(&format!("core/gather_{name}_4096"), |b| {
        b.iter(|| {
            for _ in 0..PASSES {
                program.gather_chunk(0, &states, &mut accums, black_box(&updates));
            }
            black_box(accums.len())
        })
    });
}

/// Pre-processing's binning pass without a `Cluster`: the 131 072
/// `BareEdge`s of an RMAT-13 list in default-sized input chunks, binned
/// into 8 partitions of the default layout's 16 bins (forward copy only,
/// as for BFS) and flushed; every cut or flushed chunk is dropped. One
/// iteration is 8 passes, 1 048 576 edges: ms per iteration reads as ns
/// per edge.
fn bench_bin_input(c: &mut Criterion) {
    let cfg = ChaosConfig::new(8);
    let spec = PartitionSpec::with_partitions(1 << 13, 8);
    let params = RunParams::new(&cfg, spec, 8, 8, 8, true, Layout::DEFAULT);
    let rmat = RmatConfig::paper(13).generate().edges;
    let edges: Vec<BareEdge> = rmat.iter().map(BareEdge::pack).collect();
    c.bench_function("core/bin_input_rmat13_p8", |b| {
        b.iter(|| {
            let mut chunks = 0;
            for _ in 0..8 {
                let mut pp = Preprocess::new(&params, false);
                for input in edges.chunks(params.edges_per_chunk) {
                    pp.bin(&params, input, |_, _, _| chunks += 1);
                }
                pp.flush(&params, |_, _, _| chunks += 1);
            }
            black_box(chunks)
        })
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
        bench_scatter_sink,
        bench_gather,
        bench_bin_input,
        bench_oracles,
        bench_grid_partitioner,
        bench_cluster
);
criterion_main!(kernels);
