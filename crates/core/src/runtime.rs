//! Chaos-specific runtime wiring over the generic actor layer.
//!
//! The event loop, send context, envelope/generation filtering and network
//! routing live in `chaos-runtime`; this module contributes only what is
//! specific to a Chaos cluster: the actor address space ([`Addr`]), its
//! mapping onto scheduler slots and machines ([`ClusterTopology`]), the
//! run-wide derived parameters ([`RunParams`], [`Layout`]), and the one
//! network send, `Post::post`, which charges every message its
//! [`Msg::wire_bytes`].

use chaos_gas::GasProgram;
use chaos_graph::{BinSpec, PartitionSpec};
use chaos_runtime::Topology;
use chaos_sim::rng::mix2;

use crate::config::{ChaosConfig, Placement};
use crate::msg::Msg;

/// Handler context for Chaos actors (generic context over [`Addr`] and
/// [`Msg`]).
pub type Ctx<P> = chaos_runtime::Ctx<Addr, Msg<P>>;

/// The one network send of a Chaos actor: every message crosses the
/// fabric through [`Post::post`], charged at [`Msg::wire_bytes`].
pub(crate) trait Post<P: GasProgram> {
    /// Sends `msg` from machine `from`'s NIC to `to`.
    fn post(&mut self, p: &RunParams, from: usize, to: Addr, msg: Msg<P>);
}

impl<P: GasProgram> Post<P> for Ctx<P> {
    #[inline]
    fn post(&mut self, p: &RunParams, from: usize, to: Addr, msg: Msg<P>) {
        let bytes = msg.wire_bytes(p);
        self.send(from, to, msg, bytes);
    }
}

/// Address of an actor in the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Addr {
    /// Computation engine of machine `i`.
    Compute(usize),
    /// Storage engine of machine `i`.
    Storage(usize),
    /// Barrier coordinator (co-located with machine 0).
    Coordinator,
    /// Centralized chunk directory (co-located with machine 0; only used
    /// under [`crate::config::Placement::Centralized`]).
    Directory,
}

impl Addr {
    /// The machine hosting this actor, for fabric routing.
    pub fn machine(&self) -> usize {
        match self {
            Addr::Compute(i) | Addr::Storage(i) => *i,
            Addr::Coordinator | Addr::Directory => 0,
        }
    }
}

/// Maps [`Addr`]s onto dense scheduler slots: computes first, then
/// storages, then the two singletons.
#[derive(Debug, Clone, Copy)]
pub struct ClusterTopology {
    /// Machine count.
    pub machines: usize,
}

impl Topology for ClusterTopology {
    type Addr = Addr;

    fn slots(&self) -> usize {
        2 * self.machines + 2
    }

    fn slot(&self, addr: Addr) -> usize {
        match addr {
            Addr::Compute(i) => i,
            Addr::Storage(i) => self.machines + i,
            Addr::Coordinator => 2 * self.machines,
            Addr::Directory => 2 * self.machines + 1,
        }
    }

    fn machine(&self, addr: Addr) -> usize {
        addr.machine()
    }
}

/// Edge layout of a run that can skip chunks: how pre-processing places
/// edges on storage and how finely serves can skip within a chunk. Only
/// layout and serve granularity change with it; computed results are
/// identical for any value. The engine runs [`Layout::DEFAULT`]; the
/// layout oracles reach the others through
/// [`Cluster::with_layout`](crate::Cluster::with_layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Radix bins per partition. Each partition's edges are binned by
    /// scatter key (src, or dst for the reverse copy) into this many
    /// consecutive key sub-ranges before chunking, so each stored chunk's
    /// scatter-key window covers ~1/bins of the partition instead of all
    /// of it: the narrow, disjoint windows that let selective streaming
    /// skip chunks mid-wavefront, not just on empty frontiers. `1` is the
    /// unclustered (arrival-order) layout.
    pub cluster_bins: u32,
    /// Records per block of a sealed edge chunk's block index. Each
    /// sealed chunk's interior is key-sorted (stable, so equal-key records
    /// keep arrival order) and carries per-block inclusive key windows;
    /// serves consult them after the chunk-level window/stride test and
    /// stream only the block runs the active set touches. `0` disables
    /// block indexing (chunk-granularity serves only).
    pub block_records: u32,
}

impl Layout {
    /// The layout every run uses: 16 bins per partition, 512-record
    /// blocks.
    pub const DEFAULT: Self = Self {
        cluster_bins: 16,
        block_records: 512,
    };
}

/// Derived, immutable parameters shared by all actors of a run.
#[derive(Debug)]
pub struct RunParams {
    /// Machine count.
    pub machines: usize,
    /// Streaming-partition layout.
    pub spec: PartitionSpec,
    /// Storage bytes per edge record.
    pub edge_bytes: u64,
    /// Storage bytes per update record.
    pub update_bytes: u64,
    /// Storage bytes per vertex record.
    pub vstate_bytes: u64,
    /// Edge records per chunk.
    pub edges_per_chunk: usize,
    /// Update records per chunk.
    pub updates_per_chunk: usize,
    /// Vertex records per chunk.
    pub verts_per_chunk: usize,
    /// Request window (φk). Up to `machines` requests go to distinct
    /// engines; a larger window over-subscribes random engines (the
    /// queueing-delay regime past the Figure 16 sweet spot).
    pub window: usize,
    /// Chunk placement policy (affects vertex-chunk homes).
    pub placement: Placement,
    /// Whether the run can skip chunks: the program's activity model is
    /// not dense and chunk metadata is decentralized (the Figure 15
    /// directory strawman keeps the paper's dense streaming — its
    /// per-engine chunk counts cannot see multi-chunk consumption). Off,
    /// every edge streams every iteration and nothing is compacted.
    pub selective: bool,
    /// Clustered-layout bin geometry: how pre-processing sub-bins each
    /// partition's edges by scatter key before chunking. Single-bin when
    /// the run cannot skip chunks anyway; see [`Layout::cluster_bins`].
    pub cluster: BinSpec,
    /// Records per block in sealed edge chunks' block indexes; `0`
    /// disables block indexing (chunk-granularity serves). Zeroed, like
    /// the cluster bins, when the run cannot skip anyway; see
    /// [`Layout::block_records`].
    pub block_records: u32,
    /// Whether storage engines scrub every resident and on-disk frame
    /// between iterations (see [`crate::config::ChaosConfig::scrub`]).
    pub scrub: bool,
    /// Whether the coordinator runs checkpoint rounds: storage engines
    /// then keep what each compaction replaced until the next promote.
    pub checkpoint: bool,
}

impl RunParams {
    /// Builds the derived parameters for a `(config, program, graph)` run.
    /// A `selective` run takes its clustered layout and block indexes from
    /// `layout`; any other keeps the single-bin layout and plain chunks,
    /// which only refine skip decisions it never makes.
    pub fn new(
        cfg: &ChaosConfig,
        spec: PartitionSpec,
        edge_bytes: u64,
        update_bytes: u64,
        vstate_bytes: u64,
        selective: bool,
        layout: Layout,
    ) -> Self {
        let cb = cfg.chunk_bytes;
        Self {
            machines: cfg.machines,
            cluster: BinSpec::new(&spec, if selective { layout.cluster_bins } else { 1 }),
            spec,
            edge_bytes,
            update_bytes,
            vstate_bytes,
            edges_per_chunk: (cb / edge_bytes).max(1) as usize,
            updates_per_chunk: (cb / update_bytes).max(1) as usize,
            verts_per_chunk: (cb / vstate_bytes).max(1) as usize,
            window: cfg.batch_window,
            placement: cfg.placement,
            selective,
            block_records: if selective { layout.block_records } else { 0 },
            scrub: cfg.scrub,
            checkpoint: cfg.checkpoint,
        }
    }

    /// Master machine of a partition (round-robin assignment).
    pub fn master(&self, part: usize) -> usize {
        part % self.machines
    }

    /// Number of vertex chunks of a partition.
    pub fn vertex_chunks(&self, part: usize) -> u32 {
        (self.spec.len(part) as usize).div_ceil(self.verts_per_chunk) as u32
    }

    /// Home storage engine of a vertex chunk: "the equivalent of hashing on
    /// the partition identifier and the chunk number" (§6.4). Under
    /// locality-seeking placement everything lives at the master.
    pub fn vertex_home(&self, part: usize, chunk_no: u32) -> usize {
        if self.placement == Placement::LocalOnly {
            return self.master(part);
        }
        (mix2(part as u64, chunk_no as u64) % self.machines as u64) as usize
    }

    /// Rows covered by vertex chunk `chunk_no` of `part`, as offsets within
    /// the partition.
    pub fn vertex_chunk_rows(&self, part: usize, chunk_no: u32) -> std::ops::Range<usize> {
        let n = self.spec.len(part) as usize;
        let lo = (chunk_no as usize * self.verts_per_chunk).min(n);
        let hi = (lo + self.verts_per_chunk).min(n);
        lo..hi
    }

    /// Total vertex-state bytes of a partition.
    pub fn vertex_part_bytes(&self, part: usize) -> u64 {
        self.spec.len(part) * self.vstate_bytes
    }
}

/// An actor of the Chaos protocol: addressed by [`Addr`], exchanging
/// [`Msg`]s. Blanket-satisfied by everything implementing the generic
/// [`chaos_runtime::Actor`] with matching address/message types.
pub trait ChaosActor<P: GasProgram>: chaos_runtime::Actor<Addr = Addr, Msg = Msg<P>> {}

impl<P: GasProgram, A: chaos_runtime::Actor<Addr = Addr, Msg = Msg<P>>> ChaosActor<P> for A {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_dense_in_actor_table_order() {
        let topo = ClusterTopology { machines: 5 };
        let addrs = (0..5)
            .map(Addr::Compute)
            .chain((0..5).map(Addr::Storage))
            .chain([Addr::Coordinator, Addr::Directory]);
        // Slot order is the actor-table order `Cluster::run` builds.
        let slots: Vec<usize> = addrs.map(|a| topo.slot(a)).collect();
        assert_eq!(slots, (0..topo.slots()).collect::<Vec<_>>());
    }

    #[test]
    fn run_params_geometry() {
        let cfg = ChaosConfig::new(4);
        let spec = PartitionSpec::with_partitions(1000, 8);
        let p = RunParams::new(&cfg, spec, 8, 8, 16, false, Layout::DEFAULT);
        assert_eq!(p.master(5), 1);
        assert_eq!(p.edges_per_chunk, (cfg.chunk_bytes / 8) as usize);
        // Partition 0 has 125 vertices; verts_per_chunk is large, so one
        // chunk covering rows 0..125.
        assert_eq!(p.vertex_chunks(0), 1);
        assert_eq!(p.vertex_chunk_rows(0, 0), 0..125);
        assert!(p.vertex_home(0, 0) < 4);
        assert_eq!(p.vertex_part_bytes(0), 125 * 16);
    }
}
