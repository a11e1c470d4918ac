//! Pre-processing (§3): the one pass over the unsorted input edge list
//! that bins every edge into its streaming partition.
//!
//! Each computation engine streams the input chunks held by the storage
//! engines and bins them here. An edge lands in the buffer of its
//! partition *and* scatter-key sub-range (a cluster bin, see
//! [`BinSpec`](chaos_graph::BinSpec)): keyed by source, and, for programs
//! that stream backwards, once more keyed by destination (the reverse
//! copy). Buffers are therefore bin-pure, so every chunk cut from one
//! covers at most one bin of its partition — the narrow key windows
//! selective streaming skips by. A buffer is cut when it reaches the chunk
//! size; what is left is flushed when the input stream ends. Out-degrees
//! are counted on the way and summed at each partition's master, which
//! initializes its vertices with them.
//!
//! `pub` so a layer bench can bin without a `Cluster`; where the chunks
//! go is the caller's business.

use std::sync::Arc;

use chaos_gas::EdgeRecord;

use crate::runtime::RunParams;
use crate::window::ReadWindow;

/// Pre-processing state of one computation engine.
pub struct Preprocess<E> {
    /// The input stream's request window.
    pub(crate) win: ReadWindow,
    /// Edge buffers by direction (`[forward, reverse]`), each indexed by
    /// (partition, bin) slot.
    bufs: [Vec<Vec<E>>; 2],
    /// Whether edges are binned a second time, keyed by destination.
    reverse_too: bool,
    /// Partial out-degree counts per partition, dense over the
    /// partition's vertex range (allocated lazily on first touch; an
    /// empty vector means no edge of that partition seen here). Dense
    /// indexing beats a hash map on this per-edge path — pre-processing
    /// touches every edge exactly once and most partitions see most of
    /// their high-degree sources anyway.
    counts: Vec<Vec<u32>>,
    /// Master side: summed out-degrees per owned partition (empty until
    /// the first contribution to it arrives); `None` once freed at the end
    /// of VertexInit, their one reader.
    degrees: Option<Vec<Vec<u32>>>,
    /// Degree contributions sent and not yet acknowledged.
    pub(crate) acks_pending: usize,
    /// Whether the end-of-stream flush ran.
    pub(crate) flushed: bool,
}

/// An empty state without buffer tables.
impl<E> Default for Preprocess<E> {
    fn default() -> Self {
        Self {
            win: ReadWindow::default(),
            bufs: Default::default(),
            reverse_too: false,
            counts: Vec::new(),
            degrees: None,
            acks_pending: 0,
            flushed: false,
        }
    }
}

impl<E: EdgeRecord> Preprocess<E> {
    /// Empty buffers for every (partition, bin) slot of `params`' layout;
    /// the reverse copy is binned when `reverse_too`.
    pub fn new(params: &RunParams, reverse_too: bool) -> Self {
        let parts = params.spec.num_partitions;
        let slots = params.cluster.slot(parts, 0);
        Self {
            win: ReadWindow::new(params.machines),
            bufs: [(); 2].map(|()| (0..slots).map(|_| Vec::new()).collect()),
            reverse_too,
            counts: (0..parts).map(|_| Vec::new()).collect(),
            degrees: Some((0..parts).map(|_| Vec::new()).collect()),
            ..Self::default()
        }
    }

    /// Bins `edges`: counts each source's out-degree and appends the edge
    /// to its (partition, bin) buffer of each direction. A buffer that
    /// reaches `params.edges_per_chunk` goes to `cut(partition, reverse,
    /// chunk)` at once — forward before reverse — and an empty one of the
    /// same capacity takes its place, so the refill never regrows.
    pub fn bin(
        &mut self,
        params: &RunParams,
        edges: &[E],
        mut cut: impl FnMut(usize, bool, Arc<Vec<E>>),
    ) {
        let (spec, cluster) = (&params.spec, params.cluster);
        let dirs = 1 + usize::from(self.reverse_too);
        for e in edges {
            for (dir, key) in [e.src(), e.dst()].into_iter().take(dirs).enumerate() {
                let part = spec.partition_of(key);
                let off = key - part as u64 * spec.stride;
                if dir == 0 {
                    let counts = &mut self.counts[part];
                    if counts.is_empty() {
                        counts.resize(spec.len(part) as usize, 0);
                    }
                    counts[off as usize] += 1;
                }
                let buf = &mut self.bufs[dir][cluster.slot(part, cluster.bin_of_offset(off))];
                buf.push(*e);
                if buf.len() >= params.edges_per_chunk {
                    let chunk = std::mem::replace(buf, Vec::with_capacity(buf.capacity()));
                    cut(part, dir == 1, Arc::new(chunk));
                }
            }
        }
    }

    /// The input stream ended: hands every non-empty buffer to
    /// `write(partition, reverse, chunk)` in slot order, forward before
    /// reverse, and drops the buffer tables.
    pub fn flush(&mut self, params: &RunParams, mut write: impl FnMut(usize, bool, Arc<Vec<E>>)) {
        self.flushed = true;
        let mut bufs = std::mem::take(&mut self.bufs);
        for part in 0..params.spec.num_partitions {
            for slot in params.cluster.slots(part) {
                for (dir, table) in bufs.iter_mut().enumerate() {
                    let buf = std::mem::take(&mut table[slot]);
                    if !buf.is_empty() {
                        write(part, dir == 1, Arc::new(buf));
                    }
                }
            }
        }
    }

    /// The partial out-degree counts as `(partition, [(vertex, count)])`,
    /// for each partition with an edge here, to be summed at its master.
    /// Each contribution taken counts as one acknowledgement pending.
    pub(crate) fn take_counts<'a>(
        &'a mut self,
        params: &'a RunParams,
    ) -> impl Iterator<Item = (usize, Vec<(u64, u32)>)> + 'a {
        let pending = &mut self.acks_pending;
        let parts = self.counts.iter_mut().enumerate();
        parts.filter(|(_, c)| !c.is_empty()).map(move |(part, c)| {
            *pending += 1;
            let base = params.spec.range(part).start;
            let nonzero = c.iter().enumerate().filter(|(_, &n)| n > 0);
            let entries = nonzero.map(|(off, &n)| (base + off as u64, n)).collect();
            *c = Vec::new();
            (part, entries)
        })
    }

    /// Master: adds one machine's contribution to owned partition
    /// `part`'s out-degrees.
    pub(crate) fn add_counts(&mut self, params: &RunParams, part: usize, counts: &[(u64, u32)]) {
        let base = params.spec.range(part).start;
        let degrees = &mut self.degrees.as_mut().expect(FREED)[part];
        if degrees.is_empty() {
            *degrees = vec![0; params.spec.len(part) as usize];
        }
        for &(v, n) in counts {
            degrees[(v - base) as usize] += n;
        }
    }

    /// Master: the out-degree of the vertex at offset `off` of owned
    /// partition `part` (0 for a vertex no contribution named).
    ///
    /// # Panics
    ///
    /// Panics once [`Preprocess::free_degrees`] ran.
    pub(crate) fn degree(&self, part: usize, off: usize) -> u64 {
        let degrees = self.degrees.as_ref().expect(FREED);
        degrees[part].get(off).copied().unwrap_or(0) as u64
    }

    /// Master: frees the out-degree tables. VertexInit is their one
    /// reader, and it is never re-entered.
    pub(crate) fn free_degrees(&mut self) {
        self.degrees = None;
    }
}

const FREED: &str = "out-degree tables used after VertexInit freed them";

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_gas::{BareEdge, EdgeRef};
    use chaos_graph::{PartitionSpec, RmatConfig};

    use crate::config::ChaosConfig;
    use crate::runtime::Layout;

    /// 1024 vertices in four partitions of 16 bins, 64-edge chunks.
    fn params() -> RunParams {
        let mut cfg = ChaosConfig::new(2);
        cfg.chunk_bytes = 64 * 8;
        let spec = PartitionSpec::with_partitions(1 << 10, 4);
        RunParams::new(&cfg, spec, 8, 8, 8, true, Layout::DEFAULT)
    }

    fn rmat() -> Vec<BareEdge> {
        RmatConfig::paper(10)
            .generate()
            .edges
            .iter()
            .map(BareEdge::pack)
            .collect()
    }

    /// Bins `edges` in 100-edge input chunks; every cut chunk and then
    /// every flushed one, as `(part, reverse, chunk, cut)`.
    fn bin_all(
        pp: &mut Preprocess<BareEdge>,
        params: &RunParams,
        edges: &[BareEdge],
    ) -> Vec<(usize, bool, Arc<Vec<BareEdge>>, bool)> {
        let mut out = Vec::new();
        for chunk in edges.chunks(100) {
            pp.bin(params, chunk, |p, r, c| out.push((p, r, c, true)));
        }
        pp.flush(params, |p, r, c| out.push((p, r, c, false)));
        out
    }

    #[test]
    fn chunks_are_bin_pure_and_cut_at_the_chunk_size() {
        let params = params();
        let edges = rmat();
        let mut pp = Preprocess::new(&params, true);
        let chunks = bin_all(&mut pp, &params, &edges);
        assert!(
            chunks.iter().filter(|c| c.3).count() > 10,
            "the graph fills buffers"
        );
        for (part, reverse, chunk, cut) in &chunks {
            let bin = |e: &BareEdge| params.cluster.bin_of(&params.spec, *part, e.key(*reverse));
            assert!(
                chunk.iter().all(|e| bin(e) == bin(&chunk[0])),
                "bin-impure chunk"
            );
            if *cut {
                assert_eq!(chunk.len(), params.edges_per_chunk);
            } else {
                assert!(!chunk.is_empty() && chunk.len() < params.edges_per_chunk);
            }
        }
    }

    #[test]
    fn both_copies_hold_every_edge_and_degrees_sum_at_the_master() {
        let params = params();
        let edges = rmat();
        let mut pp = Preprocess::new(&params, true);
        let mut copies = [Vec::new(), Vec::new()];
        for (_, reverse, chunk, _) in bin_all(&mut pp, &params, &edges) {
            copies[usize::from(reverse)].extend_from_slice(&chunk);
        }
        let sorted = |mut v: Vec<BareEdge>| {
            v.sort_by_key(|e| (e.src, e.dst));
            v
        };
        let want = sorted(edges.clone());
        for copy in copies {
            assert_eq!(sorted(copy), want);
        }

        // Two machines' halves, summed at one master.
        let mut master = Preprocess::<BareEdge>::new(&params, false);
        for half in edges.chunks(edges.len() / 2 + 1) {
            let mut pp = Preprocess::new(&params, false);
            bin_all(&mut pp, &params, half);
            for (part, counts) in pp.take_counts(&params) {
                master.add_counts(&params, part, &counts);
            }
            assert_eq!(pp.acks_pending, 4, "one contribution per partition");
        }
        let mut direct = vec![0u64; 1 << 10];
        for e in &edges {
            direct[e.src() as usize] += 1;
        }
        for (v, &n) in direct.iter().enumerate() {
            let part = params.spec.partition_of(v as u64);
            let off = v - params.spec.range(part).start as usize;
            assert_eq!(master.degree(part, off), n, "vertex {v}");
        }
    }
}
