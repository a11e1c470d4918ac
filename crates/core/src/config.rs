//! Engine configuration.

use chaos_net::FabricConfig;
use chaos_sim::{Time, GIB, KIB, MIB};
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
            scrub: false,
            seed: 0xC4A05,
        }
    }

    /// Schedules a single transient crash at a scatter barrier (requires
    /// `checkpoint`); richer schedules go through [`FaultPlan`] directly.
    pub fn with_crash(mut self, machine: usize, iteration: u32, downtime: Time) -> Self {
        self.faults = FaultPlan::crash(machine, iteration, downtime);
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
        if self.mem_budget == 0 {
            return Err("memory budget must be at least one byte".into());
        }
        if self.batch_window == 0 {
            return Err("batch window must be at least 1".into());
        }
        // NaN would compare false in Equation 2 and silently disable
        // stealing; infinity is the documented "always steal".
        if self.steal_alpha.is_nan() || self.steal_alpha < 0.0 {
            return Err("steal alpha must be a non-negative number".into());
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
        let mut c = ChaosConfig::new(2);
        c.mem_budget = 0;
        assert!(c.validate().is_err(), "no room for any partition");
        let mut c = ChaosConfig::new(2);
        c.steal_alpha = f64::NAN;
        assert!(c.validate().is_err(), "NaN alpha");
        c.steal_alpha = f64::INFINITY;
        assert!(c.validate().is_ok(), "infinite alpha always steals");
    }

    #[test]
    fn phi_for_paper_ssd_is_two() {
        // SSD latency 50us, 40GigE RTT 50us => phi = 2 (§10.1).
        let c = ChaosConfig::new(8);
        assert!((c.phi() - 2.0).abs() < 0.01, "phi = {}", c.phi());
    }

    #[test]
    fn hdd_and_one_gige_presets() {
        let c = ChaosConfig::new(4).with_hdd().with_one_gige();
        assert_eq!(c.device.name, "HDD");
        assert!(c.fabric.nic_bytes_per_sec < 200_000_000);
    }
}
