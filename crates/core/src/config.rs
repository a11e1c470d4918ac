//! Engine configuration.

use chaos_net::FabricConfig;
use chaos_sim::{QueueKind, Time, GIB, KIB, MIB};
use chaos_storage::DeviceProfile;

use crate::fault::FaultPlan;

/// How chunk placement and lookup are decided (§6.2 / Figure 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Paper Chaos: uniform random placement, random reads, no metadata
    /// service.
    RandomUniform,
    /// Giraph-style locality: every structure of a partition lives on its
    /// master's storage engine.
    LocalOnly,
    /// The Figure 15 strawman: a centralized directory actor assigns and
    /// locates every chunk.
    Centralized,
}

/// How the scatter phase consumes edge chunks.
///
/// Programs with a non-dense [`chaos_gas::ActivityModel`] let the engine
/// prove that whole chunks cannot produce updates; this knob selects what
/// the engine does with the proof. [`Streaming::Selective`] and
/// [`Streaming::Reference`] make *identical* simulated decisions — same
/// skips, same device/fabric accounting, same compactions — and therefore
/// produce bit-identical [`crate::RunReport`]s; the reference mode
/// additionally streams every skipped chunk through the scatter kernel on
/// the host and panics if anything comes out, enforcing the activity
/// contract at run time. [`Streaming::Dense`] switches the machinery off
/// entirely (the paper's full-stream behavior).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Streaming {
    /// Activity-aware: skippable chunks are consumed without being read.
    #[default]
    Selective,
    /// The dense-streaming oracle: identical simulated accounting to
    /// `Selective`, but skipped chunks are still read and streamed through
    /// the kernels host-side to verify they produce nothing.
    Reference,
    /// Full streaming, no activity tracking, no compaction.
    Dense,
}

impl std::str::FromStr for Streaming {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "selective" => Ok(Streaming::Selective),
            "reference" => Ok(Streaming::Reference),
            "dense" => Ok(Streaming::Dense),
            _ => Err(format!(
                "unknown streaming mode {s:?}; expected selective, reference or dense"
            )),
        }
    }
}

impl std::fmt::Display for Streaming {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Streaming::Selective => "selective",
            Streaming::Reference => "reference",
            Streaming::Dense => "dense",
        })
    }
}

/// Full configuration of a Chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of machines; each hosts one computation engine and one
    /// storage engine (Figure 6).
    pub machines: usize,
    /// Storage device profile per machine.
    pub device: DeviceProfile,
    /// Network fabric.
    pub fabric: FabricConfig,
    /// Chunk size in bytes; the paper uses 4 MiB, scaled runs less.
    pub chunk_bytes: u64,
    /// Per-machine memory budget for one partition's vertex set; drives the
    /// partition-count rule of §3.
    pub mem_budget: u64,
    /// Request window φk per computation engine (§6.5); the paper's sweet
    /// spot is 10 (k = 5, φ = 2).
    pub batch_window: usize,
    /// Work-stealing bias α (§10.2): 0 disables stealing, 1 is the paper's
    /// criterion, `f64::INFINITY` always steals.
    pub steal_alpha: f64,
    /// Chunk placement policy.
    pub placement: Placement,
    /// CPU cores per machine.
    pub cores: u32,
    /// CPU nanoseconds per record processed, at one core.
    pub ns_per_record: u64,
    /// Fixed CPU nanoseconds per chunk-bearing message, at one core.
    pub msg_cpu_ns: u64,
    /// Page-cache budget per machine in bytes (0 disables; §7).
    pub pagecache_bytes: u64,
    /// Whether to checkpoint vertex values at every barrier (§6.6).
    pub checkpoint: bool,
    /// Centralized-directory service time per operation.
    pub directory_op_ns: u64,
    /// Fault-injection schedule (crashes require `checkpoint`); the empty
    /// plan is a fault-free run. See [`crate::fault::FaultPlan`].
    pub faults: FaultPlan,
    /// Spill chunk payloads to real files under this directory (one
    /// subdirectory per machine, one file per (partition, structure) as in
    /// §7 of the paper). `None` keeps payloads in memory; simulated I/O
    /// timing is identical either way.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Event-queue store behind the executor (calendar by default, binary
    /// heap as the bit-identical oracle). Host-side only: pop order and
    /// therefore every simulated quantity are unchanged.
    pub queue: QueueKind,
    /// How the scatter phase consumes edge chunks (see [`Streaming`]).
    pub streaming: Streaming,
    /// Minimum dead-edge fraction (per chunk) that triggers in-place
    /// compaction under [`chaos_gas::ActivityModel::Shrinking`]. Values
    /// above 1.0 disable compaction.
    pub compact_threshold: f64,
    /// Source-clustered edge layout: radix bins per partition at
    /// pre-processing time. Each partition's edges are binned by scatter
    /// key (src, or dst for the reverse copy) into this many consecutive
    /// key sub-ranges before chunking, so each stored chunk's scatter-key
    /// window covers ~1/bins of the partition instead of all of it — the
    /// narrow, disjoint windows that let selective streaming skip chunks
    /// mid-wavefront, not just on empty frontiers. `1` is the unclustered
    /// (arrival-order) layout. Only layout changes: computed results are
    /// identical for any value. Programs with a dense activity model (and
    /// runs with streaming/placement modes that cannot skip) keep the
    /// single-bin layout regardless, since clustering buys them nothing.
    pub cluster_bins: u32,
    /// Block-granular selective serving: each sealed edge chunk's interior
    /// is key-sorted (stable, so equal-key records keep arrival order) and
    /// carries a block index of fixed `block_records`-sized blocks with
    /// per-block inclusive key windows. Serves consult it after the
    /// chunk-level window/stride test and stream only the block runs the
    /// active set touches — records streamed become proportional to the
    /// live frontier, not to surviving-chunk count. `0` disables block
    /// indexing (chunk-granularity serves only). Like `cluster_bins`, the
    /// knob only changes layout and serve granularity: computed results
    /// are identical for any value, and runs that cannot skip (dense
    /// activity, centralized placement, dense streaming) ignore it.
    pub block_records: u32,
    /// Between-iterations integrity scrub: at every epoch reset each
    /// storage engine re-reads and re-verifies every frame it holds (edge,
    /// reverse-edge and update chunks, live vertex chunks, and both levels
    /// of the checkpoint chain) through the detect–repair ladder. Off by
    /// default; scrub I/O is charged to the device, so it shows up as
    /// iteration-boundary latency and in the `frames_scrubbed` account.
    pub scrub: bool,
    /// RNG seed; a run is a pure function of (config, program, graph).
    pub seed: u64,
}

impl ChaosConfig {
    /// The default scaled-down cluster: SSDs, 40 GigE, 256 KiB chunks,
    /// window 10, α = 1, random placement, 16 cores, page cache enabled.
    pub fn new(machines: usize) -> Self {
        Self {
            machines,
            device: DeviceProfile::ssd(),
            fabric: FabricConfig::forty_gige(machines),
            chunk_bytes: 256 * KIB,
            mem_budget: GIB, // Effectively "one partition per machine".
            batch_window: 10,
            steal_alpha: 1.0,
            placement: Placement::RandomUniform,
            cores: 16,
            ns_per_record: 50,
            msg_cpu_ns: 50_000,
            pagecache_bytes: 8 * MIB,
            checkpoint: false,
            // One metadata operation through a single directory thread
            // (lookup + state update + reply marshaling). At 10 us the
            // directory saturates near 100k ops/s — comfortably above what
            // a few machines generate and well below what 32 machines of
            // chunk traffic demand, which is exactly the Figure 15 cliff.
            directory_op_ns: 10_000,
            faults: FaultPlan::none(),
            spill_dir: None,
            queue: QueueKind::default(),
            streaming: Streaming::Selective,
            compact_threshold: 0.5,
            cluster_bins: 16,
            block_records: 512,
            scrub: false,
            seed: 0xC4A05,
        }
    }

    /// Switches the clustered-layout bin count (`1` = unclustered).
    pub fn with_cluster_bins(mut self, bins: u32) -> Self {
        self.cluster_bins = bins;
        self
    }

    /// Switches the block-index granularity (`0` = chunk-granularity
    /// serves only).
    pub fn with_block_records(mut self, block_records: u32) -> Self {
        self.block_records = block_records;
        self
    }

    /// Schedules a single transient crash at a scatter barrier (requires
    /// `checkpoint`); richer schedules go through [`FaultPlan`] directly.
    pub fn with_crash(mut self, machine: usize, iteration: u32, downtime: Time) -> Self {
        self.faults = FaultPlan::crash(machine, iteration, downtime);
        self
    }

    /// Enables or disables the between-iterations integrity scrub.
    pub fn with_scrub(mut self, scrub: bool) -> Self {
        self.scrub = scrub;
        self
    }

    /// Switches the streaming mode.
    pub fn with_streaming(mut self, streaming: Streaming) -> Self {
        self.streaming = streaming;
        self
    }

    /// Switches the event-queue store.
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }

    /// Switches to the HDD profile (Figure 11 / §9.3).
    pub fn with_hdd(mut self) -> Self {
        self.device = DeviceProfile::hdd();
        self
    }

    /// Switches to the 1 GigE fabric (Figure 12).
    pub fn with_one_gige(mut self) -> Self {
        self.fabric = FabricConfig::one_gige(self.machines);
        self
    }

    /// The derived batching amplification φ = 1 + R_network / R_storage
    /// (Equation 3).
    pub fn phi(&self) -> f64 {
        1.0 + self.fabric.rtt() as f64 / self.device.latency.max(1) as f64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.machines == 0 {
            return Err("need at least one machine".into());
        }
        if self.fabric.machines != self.machines {
            return Err(format!(
                "fabric is sized for {} machines, config says {}",
                self.fabric.machines, self.machines
            ));
        }
        if self.chunk_bytes < 1024 {
            return Err("chunks below 1 KiB defeat sequential access".into());
        }
        if self.batch_window == 0 {
            return Err("batch window must be at least 1".into());
        }
        if self.steal_alpha < 0.0 {
            return Err("steal alpha must be non-negative".into());
        }
        if self.cores == 0 {
            return Err("need at least one core".into());
        }
        self.faults.validate(self.machines, self.checkpoint)?;
        if !self.faults.crashes.is_empty() && self.placement == Placement::Centralized {
            return Err(
                "crash injection under the centralized directory is unsupported (the \
                 directory does not participate in abort/rollback)"
                    .into(),
            );
        }
        if self.compact_threshold.is_nan() || self.compact_threshold <= 0.0 {
            return Err("compaction threshold must be positive (above 1.0 disables)".into());
        }
        if self.cluster_bins == 0 {
            return Err("cluster bins must be at least 1 (1 = unclustered layout)".into());
        }
        if self.cluster_bins > 4096 {
            return Err("more than 4096 bins per partition defeats chunking".into());
        }
        if self.block_records != 0 && self.block_records < 16 {
            return Err("block index below 16 records costs more than it skips".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ChaosConfig::new(4).validate().is_ok());
        assert!(ChaosConfig::new(1).validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(ChaosConfig::new(0).validate().is_err());
        let mut c = ChaosConfig::new(2);
        c.batch_window = 0;
        assert!(c.validate().is_err());
        let mut c = ChaosConfig::new(2).with_crash(0, 1, 0);
        assert!(c.validate().is_err(), "failure without checkpointing");
        c.checkpoint = true;
        assert!(c.validate().is_ok());
        c.placement = Placement::Centralized;
        assert!(c.validate().is_err(), "crashes need abort-aware placement");
    }

    #[test]
    fn phi_for_paper_ssd_is_two() {
        // SSD latency 50us, 40GigE RTT 50us => phi = 2 (§10.1).
        let c = ChaosConfig::new(8);
        assert!((c.phi() - 2.0).abs() < 0.01, "phi = {}", c.phi());
    }

    #[test]
    fn streaming_spec_parses() {
        assert_eq!("selective".parse::<Streaming>(), Ok(Streaming::Selective));
        assert_eq!("reference".parse::<Streaming>(), Ok(Streaming::Reference));
        assert_eq!("dense".parse::<Streaming>(), Ok(Streaming::Dense));
        assert!("eager".parse::<Streaming>().is_err());
        assert_eq!(Streaming::Reference.to_string(), "reference");
        let mut c = ChaosConfig::new(2).with_streaming(Streaming::Dense);
        assert!(c.validate().is_ok());
        c.compact_threshold = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn cluster_bins_validated() {
        assert_eq!(ChaosConfig::new(2).cluster_bins, 16, "clustered by default");
        let c = ChaosConfig::new(2).with_cluster_bins(1);
        assert!(c.validate().is_ok(), "1 bin = unclustered layout");
        assert!(ChaosConfig::new(2).with_cluster_bins(0).validate().is_err());
        assert!(ChaosConfig::new(2)
            .with_cluster_bins(8192)
            .validate()
            .is_err());
    }

    #[test]
    fn block_records_validated() {
        assert_eq!(ChaosConfig::new(2).block_records, 512, "block-indexed by default");
        assert!(ChaosConfig::new(2).with_block_records(0).validate().is_ok());
        assert!(ChaosConfig::new(2).with_block_records(16).validate().is_ok());
        assert!(ChaosConfig::new(2).with_block_records(7).validate().is_err());
    }

    #[test]
    fn queue_knob() {
        let c = ChaosConfig::new(2);
        assert_eq!(c.queue, QueueKind::Calendar, "calendar by default");
        let c = c.with_queue(QueueKind::Heap);
        assert_eq!(c.queue, QueueKind::Heap);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn hdd_and_one_gige_presets() {
        let c = ChaosConfig::new(4).with_hdd().with_one_gige();
        assert_eq!(c.device.name, "HDD");
        assert!(c.fabric.nic_bytes_per_sec < 200_000_000);
    }
}
