//! `chaos-gas`: the workload's own scatter and gather kernels, the record
//! codec and the active-set query.

use std::hint::black_box;

use chaos_gas::{ActiveSet, GasProgram, Record, Update};
use chaos_graph::{partition_edges, Edge, InputGraph, PartitionSpec};

use super::{best_mb_per_s, best_ns_per_op};
use crate::trace::Tracer;

pub struct GasProbes {
    pub scatter_ns_per_edge: f64,
    pub gather_ns_per_update: f64,
    pub encode_mb_per_s: f64,
    pub decode_mb_per_s: f64,
    pub activeset_query_ns: f64,
}

/// Runs the workload's program through `scatter_chunk` and `gather_chunk`
/// on the first of `partitions` streaming partitions of `g`, from freshly
/// initialised vertex states (iteration 0).
pub fn probe<P: GasProgram>(
    tr: &mut Tracer,
    program: &P,
    g: &InputGraph,
    partitions: usize,
) -> GasProbes {
    let spec = PartitionSpec::with_partitions(g.num_vertices, partitions.max(1));
    let degrees = g.out_degrees();
    let range = spec.range(0);
    let base = range.start;
    let states: Vec<P::VertexState> = range
        .clone()
        .map(|v| program.init(v, degrees[v as usize]))
        .collect();
    let edges: Vec<Edge> = partition_edges(g, &spec).swap_remove(0);
    // Enough passes over the partition for a round of a few milliseconds.
    let passes = (2_000_000 / edges.len().max(1) as u64).clamp(1, 4096);

    let mut updates: Vec<Update<P::Update>> = Vec::with_capacity(edges.len());
    let scatter_ns_per_edge =
        best_ns_per_op(tr, "gas.scatter_chunk", edges.len() as u64 * passes, || {
            for _ in 0..passes {
                updates.clear();
                program.scatter_chunk(base, &states, black_box(&edges), 0, &mut updates);
            }
            black_box(updates.len());
        });
    // Gather what scatter just produced for this partition's own vertices;
    // a frontier program at iteration 0 emits few updates, and the figure
    // is then per update of a short stream.
    updates.retain(|u| range.contains(&u.dst));
    let mut accums = vec![P::Accum::default(); states.len()];
    let gather_ns_per_update = best_ns_per_op(
        tr,
        "gas.gather_chunk",
        updates.len() as u64 * passes,
        || {
            for _ in 0..passes {
                program.gather_chunk(base, &states, &mut accums, black_box(&updates));
            }
            black_box(accums.len());
        },
    );

    let sample = &g.edges[..g.edges.len().min(1 << 16)];
    let bytes = (sample.len() * Edge::ENCODED_BYTES) as u64;
    let mut buf = Vec::with_capacity(bytes as usize);
    let encode_mb_per_s = best_mb_per_s(tr, "gas.encode", bytes * 8, || {
        for _ in 0..8 {
            buf.clear();
            for e in black_box(sample) {
                e.encode(&mut buf);
            }
        }
        black_box(buf.len());
    });
    let decode_mb_per_s = best_mb_per_s(tr, "gas.decode", bytes * 8, || {
        for _ in 0..8 {
            let decoded: Vec<Edge> = black_box(&buf)
                .chunks_exact(Edge::ENCODED_BYTES)
                .map(Edge::decode)
                .collect();
            black_box(decoded.len());
        }
    });

    // One vertex in 64 active; windows a sixteenth of the partition wide,
    // stepping through it — the chunk-skip test's query shape.
    let n = states.len() as u64;
    let active = ActiveSet::from_fn(base, n as usize, |i| i % 64 == 0);
    let width = (n / 16).max(1);
    let queries = 1_000_000u64;
    let activeset_query_ns = best_ns_per_op(tr, "gas.activeset_query", queries, || {
        let mut hits = 0u64;
        for q in 0..queries {
            let lo = base + (q * 37) % n;
            hits += u64::from(active.any_in_window(lo, (lo + width).min(base + n - 1)));
        }
        black_box(hits);
    });

    GasProbes {
        scatter_ns_per_edge,
        gather_ns_per_update,
        encode_mb_per_s,
        decode_mb_per_s,
        activeset_query_ns,
    }
}
