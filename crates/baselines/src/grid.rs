//! PowerGraph's constrained grid partitioner (Figure 20).
//!
//! PowerGraph's grid heuristic arranges the `m` machines in a (near-)
//! square grid and constrains each vertex's replicas to one row and one
//! column: vertex `v` hashes to a grid cell; an edge `(u, v)` may be
//! placed on any machine in the intersection of `u`'s candidate set
//! (its row ∪ column) and `v`'s — which is guaranteed non-empty and small.
//! The partitioner balances load by picking the least-loaded machine in
//! the intersection.
//!
//! The paper's Figure 20 compares the *time* of this in-memory
//! partitioning pass against the total dynamic-load-balancing overhead
//! Chaos pays at runtime, and finds the latter to be about a tenth of the
//! former. We reproduce the partitioner for real (placements, replication
//! factor, balance) and charge its time with the same CPU cost model the
//! engines use.

use std::collections::HashSet;

use chaos_graph::InputGraph;
use chaos_sim::rng::mix64;
use chaos_sim::Time;

/// Result of a grid partitioning pass.
#[derive(Debug, Clone)]
pub struct GridPartitioning {
    /// Edges assigned per machine.
    pub edges_per_machine: Vec<u64>,
    /// Vertex replication factor (average replicas per vertex) — the
    /// vertex-cut quality metric PowerGraph optimizes.
    pub replication_factor: f64,
    /// Modeled partitioning time.
    pub time: Time,
}

impl GridPartitioning {
    /// Max-over-mean edge balance (1.0 is perfect).
    pub fn imbalance(&self) -> f64 {
        let max = *self.edges_per_machine.iter().max().unwrap_or(&0) as f64;
        let mean = self.edges_per_machine.iter().sum::<u64>() as f64
            / self.edges_per_machine.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// The grid partitioner.
#[derive(Debug, Clone)]
pub struct GridPartitioner {
    machines: usize,
    rows: usize,
    cols: usize,
    /// Modeled nanoseconds per edge placement. PowerGraph's distributed
    /// ingest (hashing, candidate intersection, shuffle, replica-table
    /// updates) sustains roughly a million edges per second per machine;
    /// the pass parallelizes over machines but not meaningfully over cores
    /// (it is memory- and network-bound).
    pub ns_per_edge: u64,
    /// Cores per machine (kept for reporting; the time model is per
    /// machine).
    pub cores: u32,
}

impl GridPartitioner {
    /// Creates a partitioner for `machines` arranged in a near-square grid.
    ///
    /// # Panics
    ///
    /// Panics if `machines == 0`.
    pub fn new(machines: usize) -> Self {
        assert!(machines > 0);
        let rows = (machines as f64).sqrt().floor() as usize;
        let rows = (1..=rows.max(1))
            .rev()
            .find(|r| machines.is_multiple_of(*r))
            .unwrap_or(1);
        Self {
            machines,
            rows,
            cols: machines / rows,
            ns_per_edge: 1000,
            cores: 16,
        }
    }

    /// Grid shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn cell(&self, v: u64) -> (usize, usize) {
        let h = mix64(v) as usize;
        (h % self.rows, (h / self.rows) % self.cols)
    }

    /// Candidate machines of a vertex: its cell's row plus column.
    fn candidates(&self, v: u64) -> Vec<usize> {
        let (r, c) = self.cell(v);
        let mut out: Vec<usize> = (0..self.cols).map(|cc| r * self.cols + cc).collect();
        out.extend((0..self.rows).map(|rr| rr * self.cols + c));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Partitions the graph; returns placements and quality metrics.
    pub fn partition(&self, graph: &InputGraph) -> GridPartitioning {
        let mut load = vec![0u64; self.machines];
        let mut replicas: Vec<HashSet<u32>> = vec![HashSet::new(); graph.num_vertices as usize];
        for e in &graph.edges {
            let cu = self.candidates(e.src);
            let cv = self.candidates(e.dst);
            // Intersection is non-empty by construction (the cell machines
            // of either vertex are in both sets when rows == cols; in the
            // general rectangular case the row/column overlap guarantees
            // at least one common machine).
            let mut best: Option<usize> = None;
            for m in cu.iter().filter(|m| cv.binary_search(m).is_ok()) {
                if best.map(|b| load[*m] < load[b]).unwrap_or(true) {
                    best = Some(*m);
                }
            }
            let chosen = best.unwrap_or_else(|| {
                // Degenerate grids (1 x m): fall back to the less loaded of
                // the two cells.
                cu[load[cu[0]] as usize % cu.len()]
            });
            load[chosen] += 1;
            replicas[e.src as usize].insert(chosen as u32);
            replicas[e.dst as usize].insert(chosen as u32);
        }
        let placed: u64 = load.iter().sum();
        let rep_total: usize = replicas.iter().map(HashSet::len).sum();
        let with_edges = replicas.iter().filter(|r| !r.is_empty()).count();
        // The pass parallelizes over machines (each scans an equal share of
        // the input), as the paper generously assumes.
        let time = placed * self.ns_per_edge / self.machines.max(1) as u64;
        GridPartitioning {
            edges_per_machine: load,
            replication_factor: if with_edges == 0 {
                0.0
            } else {
                rep_total as f64 / with_edges as f64
            },
            time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_graph::RmatConfig;

    #[test]
    fn grid_shapes() {
        assert_eq!(GridPartitioner::new(16).shape(), (4, 4));
        assert_eq!(GridPartitioner::new(32).shape(), (4, 8));
        assert_eq!(GridPartitioner::new(1).shape(), (1, 1));
        assert_eq!(GridPartitioner::new(6).shape(), (2, 3));
    }

    #[test]
    fn every_edge_placed_and_replication_bounded() {
        let g = RmatConfig::paper(10).generate();
        let gp = GridPartitioner::new(16);
        let res = gp.partition(&g);
        assert_eq!(res.edges_per_machine.iter().sum::<u64>(), g.num_edges());
        // Grid constraint: at most rows + cols - 1 replicas per vertex.
        assert!(res.replication_factor <= (4 + 4) as f64);
        assert!(res.replication_factor >= 1.0);
        assert!(res.time > 0);
    }

    #[test]
    fn balance_is_reasonable_on_rmat() {
        let g = RmatConfig::paper(12).generate();
        let res = GridPartitioner::new(16).partition(&g);
        assert!(res.imbalance() < 2.0, "imbalance {}", res.imbalance());
    }

    #[test]
    fn candidates_intersect() {
        let gp = GridPartitioner::new(16);
        for u in 0..50u64 {
            for v in 50..100u64 {
                let cu = gp.candidates(u);
                let cv = gp.candidates(v);
                assert!(
                    cu.iter().any(|m| cv.contains(m)),
                    "empty intersection for {u},{v}"
                );
            }
        }
    }
}
