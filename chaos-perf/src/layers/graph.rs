//! `chaos-graph`: generation, shaping and the streaming-partition pass.
//! All of it is set-up: none of it runs inside `Cluster::run`.

use std::hint::black_box;

use chaos_graph::{partition_edges, PartitionSpec, RmatConfig};

use super::best_ns_per_op;
use crate::trace::Tracer;

pub struct GraphProbes {
    pub rmat_edges_per_s: f64,
    pub undirected_s: f64,
    pub partition_edges_per_s: f64,
}

/// Probes at the workload's scale and partition count.
pub fn probe(tr: &mut Tracer, scale: u32, input_seed: u64, partitions: usize) -> GraphProbes {
    let mut rmat = RmatConfig::paper(scale);
    rmat.seed = input_seed;
    let rmat_ns = best_ns_per_op(tr, "graph.rmat", rmat.num_edges(), || {
        black_box(rmat.generate().num_edges());
    });
    let g = rmat.generate();
    let undirected_ns = best_ns_per_op(tr, "graph.undirected", 1, || {
        black_box(g.to_undirected().num_edges());
    });
    let spec = PartitionSpec::with_partitions(g.num_vertices, partitions.max(1));
    let partition_ns = best_ns_per_op(tr, "graph.partition", g.num_edges(), || {
        black_box(partition_edges(&g, &spec).len());
    });
    GraphProbes {
        rmat_edges_per_s: 1e9 / rmat_ns,
        undirected_s: undirected_ns / 1e9,
        partition_edges_per_s: 1e9 / partition_ns,
    }
}
