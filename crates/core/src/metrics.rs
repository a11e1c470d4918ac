//! Runtime metrics: the per-machine breakdown of Figure 17, device and
//! fabric statistics, and the consolidated run report.

use std::fmt;

use chaos_gas::IterationAggregates;
use chaos_net::FabricStats;
use chaos_sim::Time;
use chaos_storage::device::DeviceStats;

/// Writes `key=value` pairs separated by spaces: the one text form of
/// every counter group.
fn write_pairs(f: &mut fmt::Formatter<'_>, pairs: &[(&str, u64)]) -> fmt::Result {
    for (i, (k, v)) in pairs.iter().enumerate() {
        write!(f, "{}{k}={v}", if i == 0 { "" } else { " " })?;
    }
    Ok(())
}

/// A counter's dump key: its field name, plus `_ns` for a simulated
/// [`Time`].
macro_rules! key {
    ($field:ident Time) => {
        concat!(stringify!($field), "_ns")
    };
    ($field:ident $ty:ident) => {
        stringify!($field)
    };
}

/// Declares a group of counters, one field each (`u64`, or `Time` in
/// nanoseconds), and derives the rest from that one declaration: the
/// struct, `absorb` (every counter adds), `counters` (each counter with its
/// `key!` in declaration order: the dump and the text lines) and a
/// `key=value` `Display`. A new counter is one more field here.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident { $($(#[$doc:meta])* $field:ident: $ty:ident,)* }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name { $($(#[$doc])* pub $field: $ty,)* }

        impl $name {
            /// Element-wise accumulation (merging machines', engines' or
            /// runs' accounts): every counter adds.
            pub fn absorb(&mut self, o: &Self) {
                $(self.$field += o.$field;)*
            }

            /// Every counter with its dump key, in declaration order.
            pub fn counters(&self) -> [(&'static str, u64); [$(stringify!($field)),*].len()] {
                [$((key!($field $ty), self.$field)),*]
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write_pairs(f, &self.counters())
            }
        }
    };
}

counters! {
    /// Per-machine wall-time breakdown in the categories of Figure 17.
    pub struct Breakdown {
        /// Graph processing on partitions this machine masters.
        gp_master: Time,
        /// Graph processing on stolen partitions.
        gp_stolen: Time,
        /// Copying overhead of load balancing: stealers loading vertex sets
        /// and shipping accumulators.
        copy: Time,
        /// Master-side merging of stealer accumulators and apply.
        merge: Time,
        /// Waiting for the master/stealer accumulator exchange.
        merge_wait: Time,
        /// Idle at barriers.
        barrier: Time,
    }
}

impl Breakdown {
    /// Sum of all categories.
    pub fn total(&self) -> Time {
        self.counters().iter().map(|&(_, t)| t).sum()
    }

    /// Fractions of `runtime` per category, in Figure 17 order
    /// `[gp_master, gp_stolen, copy, merge, merge_wait, barrier]`.
    pub fn fractions(&self, runtime: Time) -> [f64; 6] {
        let d = runtime.max(1) as f64;
        self.counters().map(|(_, t)| t as f64 / d)
    }
}

counters! {
    /// Per-iteration selective-streaming observability: how much of the
    /// scatter work the activity filter proved unnecessary, and how far
    /// shrinking-graph compaction has eaten into the stored edge set.
    ///
    /// All quantities are simulated and deterministic, and identical between
    /// release and debug builds (which read every skipped payload to check the
    /// activity contract, without charging for it).
    pub struct IterSelectivity {
        /// Scatter-side vertices the activity contract declared able to emit,
        /// summed over partitions (each partition counted once, by its master).
        active_vertices: u64,
        /// Vertices covered by those counts.
        total_vertices: u64,
        /// Edge chunks consumed without being read.
        chunks_skipped: u64,
        /// Records in those chunks.
        records_skipped: u64,
        /// The subset of [`IterSelectivity::chunks_skipped`] consumed while
        /// the partition's frontier was *non-empty* — mid-wavefront skips,
        /// possible only because the clustered layout keeps chunk windows
        /// narrow (an arrival-order layout skips almost exclusively when the
        /// whole partition is inactive).
        chunks_skipped_mid: u64,
        /// Records in the mid-wavefront skipped chunks.
        records_skipped_mid: u64,
        /// Blocks skipped *inside* served chunks by their block indexes —
        /// intra-chunk selectivity, possible only with key-sorted interiors
        /// (`block_records > 0`). Whole chunks whose every block proved
        /// inactive count as chunk skips, not block skips.
        blocks_skipped: u64,
        /// Records in those skipped blocks: edge records never read or
        /// streamed even though their chunk was served.
        records_skipped_intra: u64,
        /// The subset of [`IterSelectivity::blocks_skipped`] while the
        /// partition's frontier was non-empty (in practice all of them — a
        /// partial serve implies a live frontier; kept split for symmetry
        /// with the chunk counters).
        blocks_skipped_mid: u64,
        /// Records in the mid-wavefront skipped blocks.
        records_skipped_intra_mid: u64,
        /// Edge records actually streamed through scatter kernels while
        /// activity tracking was on (the denominator's live share; the
        /// selectivity-aware steal criterion scales remaining-bytes estimates
        /// by `streamed / (streamed + skipped)`).
        edge_records_streamed: u64,
        /// Edges dropped from storage by in-place chunk compaction.
        edges_tombstoned: u64,
        /// Chunk compactions performed.
        compactions: u64,
    }
}

impl IterSelectivity {
    /// The fraction of scatter-side edge records that survived the
    /// activity filter on this account (`1.0` when nothing was observed) —
    /// the steal criterion's density correction. Intra-chunk (block)
    /// skips count as filtered: those records are part of the stored
    /// bytes a remaining-work estimate covers but will never be streamed.
    pub fn live_fraction(&self) -> f64 {
        let seen = self.edge_records_streamed + self.records_skipped + self.records_skipped_intra;
        if seen == 0 {
            1.0
        } else {
            self.edge_records_streamed as f64 / seen as f64
        }
    }

    /// Fraction of covered vertices that were active (1.0 when nothing
    /// was tracked, i.e. dense programs).
    pub fn active_fraction(&self) -> f64 {
        if self.total_vertices == 0 {
            1.0
        } else {
            self.active_vertices as f64 / self.total_vertices as f64
        }
    }
}

/// Histogram of edge-chunk window widths relative to their partition's
/// vertex span, collected from every storage engine's (forward and
/// reverse) edge chunk sets at the end of a run — the direct observable of
/// the clustered layout: arrival-order layouts pile up in the widest
/// bucket, source-binned layouts in the narrow ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowHistogram {
    /// Chunk counts by `width / partition_span` ratio; bucket `i` holds
    /// ratios in `(2^-(7-i), 2^-(6-i)]`, i.e. buckets for ≤1/128, 1/64,
    /// 1/32, 1/16, 1/8, 1/4, 1/2 and 1.
    pub buckets: [u64; 8],
    /// Chunks compacted down to nothing (inverted always-skip window).
    pub empty: u64,
    /// Chunks without a scatter-key index.
    pub unindexed: u64,
}

impl WindowHistogram {
    /// Records one chunk whose window covers `width` of a `span`-vertex
    /// partition.
    pub fn record(&mut self, width: u64, span: u64) {
        let span = span.max(1);
        // Smallest bucket whose ratio bound covers width/span.
        let mut b = self.buckets.len() - 1;
        while b > 0 && width * (1u64 << (7 - (b - 1))) <= span {
            b -= 1;
        }
        self.buckets[b] += 1;
    }

    /// Total indexed, non-empty chunks recorded.
    pub fn chunks(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The bucket labels, aligned with [`WindowHistogram::buckets`].
    pub fn labels() -> [&'static str; 8] {
        [
            "<=1/128", "<=1/64", "<=1/32", "<=1/16", "<=1/8", "<=1/4", "<=1/2", "<=1",
        ]
    }
}

/// One abort episode entry in the run's abort log: when the
/// coordinator started (or re-started, for overlapping crashes) an abort,
/// at which protocol generation, and where the cluster resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortRecord {
    /// Simulated time the abort was broadcast.
    pub time: Time,
    /// Protocol generation the abort established.
    pub gen: u32,
    /// Iteration the cluster resumed into after recovery.
    pub resume_iter: u32,
    /// Whether the resume redoes an interrupted iteration (`false` when
    /// the crash landed after the iteration logically completed and the
    /// cluster advanced instead).
    pub redo: bool,
}

counters! {
    /// The fault-injection account of a run: recovery work performed and
    /// fault-induced costs. Everything here is simulated and deterministic.
    /// All zeros for fault-free runs without checkpointing.
    pub struct FaultAccount {
        /// Abort rounds broadcast (one per crash, including overlapping
        /// crashes that landed during a prior recovery).
        aborts: u64,
        /// Iterations rolled back and redone from a checkpoint.
        iterations_redone: u64,
        /// Storage-device operations that failed inside a fault window and
        /// were retried with backoff.
        device_retries: u64,
        /// Simulated time lost to faults: device retry backoff plus fabric
        /// degradation latency, summed over machines.
        faulted_time: Time,
        /// Bytes written to checkpoint areas (copy phase).
        checkpoint_bytes: u64,
        /// Device time spent writing checkpoints.
        checkpoint_time: Time,
        /// Framed reads whose checksum check failed (each ladder attempt
        /// that saw corruption counts once), summed over storage engines.
        corruption_detected: u64,
        /// Corruption episodes resolved — re-read clean after waiting a
        /// window out, extent rewritten from its verified source, or a torn
        /// committed checkpoint replaced via the depth-2 chain fallback.
        corruption_repaired: u64,
        /// Frames walked and re-verified by between-iterations scrub passes
        /// (0 unless [`crate::config::ChaosConfig::scrub`] is on).
        frames_scrubbed: u64,
        /// Checksum-frame bytes charged to devices on framed transfers — the
        /// direct integrity overhead of end-to-end checksumming.
        checksum_bytes: u64,
        /// Pending checkpoint snapshots dropped by a failed validation
        /// round, summed over storage engines (one per engine per refused
        /// round).
        snapshots_dropped: u64,
    }
}

/// Everything measured over one run of the engine.
///
/// Every field is a simulated quantity, so reports compare equal
/// (`PartialEq`) field by field across every host-side axis; the
/// equivalence tests rely on this.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Total simulated wall-clock time, pre-processing included (§8:
    /// "all results report the wall-clock time to go from the unsorted
    /// edge list ... to the final vertex state").
    pub runtime: Time,
    /// Simulated time when pre-processing (including vertex init) ended.
    pub preprocess_time: Time,
    /// Number of scatter/gather iterations executed.
    pub iterations: u32,
    /// Global aggregates per iteration.
    pub iteration_aggs: Vec<IterationAggregates>,
    /// Per-machine breakdowns (Figure 17).
    pub breakdowns: Vec<Breakdown>,
    /// Per-machine storage device statistics.
    pub devices: Vec<DeviceStats>,
    /// Per-machine device busy time (for utilization, Figure 14).
    pub device_busy: Vec<Time>,
    /// Fabric statistics.
    pub fabric: FabricStats,
    /// Partitions stolen at least once, per phase kind (scatter, gather).
    pub steals: u64,
    /// Number of streaming partitions used.
    pub partitions: usize,
    /// Total events processed by the simulation kernel: one per message
    /// delivered.
    pub events: u64,
    /// Edge + update records streamed through the scatter/gather kernels,
    /// summed over machines (host-throughput accounting). Records skipped
    /// by selective streaming are *not* counted here — they appear in
    /// [`RunReport::selectivity`].
    pub records_streamed: u64,
    /// Per-iteration selective-streaming account, summed over machines
    /// (all zeros when the run cannot skip: see
    /// [`crate::RunParams::selective`]).
    pub selectivity: Vec<IterSelectivity>,
    /// End-of-run edge-chunk window-width histogram across all storage
    /// engines (a simulated-layout quantity).
    pub window_widths: WindowHistogram,
    /// The *effective* clustered-layout bin count of the run: the
    /// layout's [`crate::runtime::Layout::cluster_bins`], or 1 when
    /// the run cannot skip chunks anyway (dense activity model,
    /// centralized placement) and keeps the arrival-order layout.
    pub cluster_bins: u32,
    /// Fault-injection account: aborts, redone iterations, device retries,
    /// fault-induced latency and checkpoint costs (simulated quantities).
    pub faults: FaultAccount,
    /// One entry per abort broadcast, in order (empty for fault-free runs).
    pub abort_log: Vec<AbortRecord>,
}

impl RunReport {
    /// Total bytes moved through all storage devices (the paper's "I/O"
    /// figure for capacity runs, §9.3).
    pub fn total_device_bytes(&self) -> u64 {
        self.devices
            .iter()
            .map(|d| d.bytes_read + d.bytes_written)
            .sum()
    }

    /// Aggregate storage bandwidth achieved, in bytes/second (Figure 14).
    pub fn aggregate_bandwidth(&self) -> f64 {
        if self.runtime == 0 {
            return 0.0;
        }
        self.total_device_bytes() as f64 / (self.runtime as f64 / 1e9)
    }

    /// Mean device utilization across machines over the whole run.
    pub fn mean_device_utilization(&self) -> f64 {
        if self.devices.is_empty() || self.runtime == 0 {
            return 0.0;
        }
        let s: f64 = self
            .device_busy
            .iter()
            .map(|&b| b as f64 / self.runtime as f64)
            .sum();
        s / self.devices.len() as f64
    }

    /// Runtime in (fractional) seconds.
    pub fn seconds(&self) -> f64 {
        self.runtime as f64 / 1e9
    }

    /// The selectivity account summed over every iteration.
    pub fn selectivity_total(&self) -> IterSelectivity {
        let mut total = IterSelectivity::default();
        for s in &self.selectivity {
            total.absorb(s);
        }
        total
    }

    /// Total edge records the activity filter consumed without reading.
    pub fn records_skipped(&self) -> u64 {
        self.selectivity_total().records_skipped
    }

    /// Total edge chunks consumed without being read.
    pub fn chunks_skipped(&self) -> u64 {
        self.selectivity_total().chunks_skipped
    }

    /// Total edge records skipped inside served chunks.
    pub fn records_skipped_intra(&self) -> u64 {
        self.selectivity_total().records_skipped_intra
    }

    /// Mean Figure 17 breakdown across machines, normalized by `runtime`.
    pub fn mean_breakdown_fractions(&self) -> [f64; 6] {
        let mut out = [0.0; 6];
        if self.breakdowns.is_empty() {
            return out;
        }
        for b in &self.breakdowns {
            let f = b.fractions(self.runtime);
            for (o, x) in out.iter_mut().zip(f.iter()) {
                *o += x;
            }
        }
        for o in &mut out {
            *o /= self.breakdowns.len() as f64;
        }
        out
    }

    /// The run object of `--metrics-json` in key order, one named group
    /// per text line: the run's own scalars, every selectivity total, the
    /// layout and device bytes, then every fault counter.
    pub fn counter_groups(&self) -> [(&'static str, Vec<(&'static str, u64)>); 4] {
        [
            (
                "run",
                vec![
                    ("runtime_ns", self.runtime),
                    ("preprocess_ns", self.preprocess_time),
                    ("iterations", self.iterations.into()),
                    ("partitions", self.partitions as u64),
                    ("steals", self.steals),
                    ("events", self.events),
                    ("records_streamed", self.records_streamed),
                ],
            ),
            ("selectivity", self.selectivity_total().counters().to_vec()),
            (
                "storage",
                vec![
                    ("cluster_bins", self.cluster_bins.into()),
                    ("device_bytes", self.total_device_bytes()),
                ],
            ),
            ("faults", self.faults.counters().to_vec()),
        ]
    }

    /// Every counter of the run object, in key order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.counter_groups()
            .into_iter()
            .flat_map(|(_, g)| g)
            .collect()
    }
}

/// One `<group>: key=value ...` line per [`RunReport::counter_groups`].
impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (group, pairs) in self.counter_groups() {
            write!(f, "{group}: ")?;
            write_pairs(f, &pairs)?;
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_histogram_buckets_by_ratio() {
        let mut h = WindowHistogram::default();
        h.record(1, 128); // 1/128 -> narrowest
        h.record(2, 128); // 1/64
        h.record(64, 128); // 1/2
        h.record(128, 128); // full span
        h.record(100, 128); // (1/2, 1] -> widest
        assert_eq!(h.buckets, [1, 1, 0, 0, 0, 0, 1, 2]);
        assert_eq!(h.chunks(), 5);
        assert_eq!(WindowHistogram::labels().len(), h.buckets.len());
    }

    #[test]
    fn live_fraction_defaults_dense() {
        let mut s = IterSelectivity::default();
        assert_eq!(s.live_fraction(), 1.0, "nothing observed = dense");
        s.edge_records_streamed = 30;
        s.records_skipped = 70;
        assert!((s.live_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn fault_account_absorb_adds_every_counter() {
        let mut a = FaultAccount {
            aborts: 1,
            faulted_time: 5,
            ..Default::default()
        };
        let b = FaultAccount {
            aborts: 2,
            faulted_time: 7,
            snapshots_dropped: 3,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!((a.aborts, a.faulted_time, a.snapshots_dropped), (3, 12, 3));
        assert_eq!(a.to_string().split(' ').nth(3), Some("faulted_time_ns=12"));
    }

    #[test]
    fn run_object_lists_every_declared_counter_once() {
        let rep = RunReport {
            runtime: 0,
            preprocess_time: 0,
            iterations: 0,
            iteration_aggs: vec![],
            breakdowns: vec![],
            devices: vec![],
            device_busy: vec![],
            fabric: FabricStats::default(),
            steals: 0,
            partitions: 0,
            events: 0,
            records_streamed: 0,
            selectivity: vec![],
            window_widths: WindowHistogram::default(),
            cluster_bins: 1,
            faults: FaultAccount::default(),
            abort_log: vec![],
        };
        let keys: Vec<&str> = rep.counters().iter().map(|&(k, _)| k).collect();
        let unique: std::collections::HashSet<&str> = keys.iter().copied().collect();
        assert_eq!(unique.len(), keys.len(), "duplicate key in {keys:?}");
        let declared = IterSelectivity::default().counters().into_iter();
        for (k, _) in declared.chain(FaultAccount::default().counters()) {
            assert!(
                unique.contains(k),
                "{k} is declared but not in the run object"
            );
        }
    }

    #[test]
    fn breakdown_fractions_sum() {
        let b = Breakdown {
            gp_master: 50,
            gp_stolen: 20,
            copy: 10,
            merge: 5,
            merge_wait: 5,
            barrier: 10,
        };
        assert_eq!(b.total(), 100);
        let f = b.fractions(100);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let mut c = Breakdown::default();
        c.absorb(&b);
        assert_eq!(c.total(), 100);
    }
}
