//! The simulated cluster: wiring and run reports.
//!
//! A [`Cluster`] owns one computation engine and one storage engine per
//! machine (Figure 6), the barrier coordinator, the optional centralized
//! directory and the fabric model. The event loop itself lives in
//! `chaos-runtime`: the cluster builds a `SequentialExecutor` over the
//! [`ClusterTopology`] and hands it the four actor kinds as one table
//! ordered by executor slot — all dispatch, generation filtering and
//! fabric routing happen behind the generic `Actor` trait. `run()`
//! executes the whole computation — pre-processing from the unsorted edge
//! list through convergence — on the virtual clock and returns a
//! [`RunReport`].
//!
//! The run is deterministic: same (config, program, graph) ⇒ same final
//! vertex states *and* same simulated completion time.

use std::sync::Arc;

use chaos_gas::GasProgram;
use chaos_graph::{InputGraph, PartitionSpec, SizeModel};
use chaos_net::{DegradedWindow, Fabric};
use chaos_runtime::{DynActor, Executor, SequentialExecutor};
use chaos_sim::{rng::mix64, Rng, Time};
use chaos_storage::{CorruptionWindow, Device, FaultWindow};

use crate::compute_engine::ComputeEngine;
use crate::config::{ChaosConfig, Placement};
use crate::coordinator::Coordinator;
use crate::directory::Directory;
use crate::metrics::RunReport;
use crate::msg::{DataKind, Msg};
use crate::runtime::{Addr, ClusterTopology, Ctx, RunParams};
use crate::storage_engine::StorageEngine;

/// A fully wired simulated Chaos cluster, ready to run one computation.
pub struct Cluster<P: GasProgram> {
    cfg: Arc<ChaosConfig>,
    params: Arc<RunParams>,
    sched: SequentialExecutor<ClusterTopology, Msg<P>>,
    fabric: Fabric,
    computes: Vec<ComputeEngine<P>>,
    storages: Vec<StorageEngine<P>>,
    coordinator: Coordinator<P>,
    directory: Directory<P>,
    started: bool,
}

impl<P: GasProgram> Cluster<P> {
    /// Builds a cluster for `(config, program, graph)`.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem if the configuration is
    /// invalid or inconsistent with the program (e.g. centralized placement
    /// with reverse-edge programs).
    pub fn new(cfg: ChaosConfig, program: P, graph: &InputGraph) -> Result<Self, String> {
        cfg.validate()?;
        if cfg.placement == Placement::Centralized && program.uses_reverse_edges() {
            return Err("centralized directory does not support reverse-edge programs".into());
        }
        let sizes = SizeModel::for_graph(graph.num_vertices, graph.weighted);
        let vstate = program.vertex_state_bytes().max(1);
        let update_bytes = sizes.update_bytes(program.update_payload_bytes());
        let spec = PartitionSpec::for_memory(
            graph.num_vertices.max(1),
            vstate,
            cfg.mem_budget,
            cfg.machines,
        );
        // The clustered layout pays only when the run can skip chunks:
        // a non-dense activity model, decentralized chunk metadata and
        // the streaming machinery on. Everything else keeps the
        // single-bin (arrival-order) layout — clustering would only add
        // partial chunks there.
        let clustered = cfg.streaming != crate::config::Streaming::Dense
            && cfg.placement != Placement::Centralized
            && program.activity() != chaos_gas::ActivityModel::Dense;
        let params = Arc::new(
            RunParams::new(&cfg, spec, sizes.edge_bytes(), update_bytes, vstate)
                .with_cluster_bins(if clustered { cfg.cluster_bins } else { 1 })
                // Block indexes ride the same gate: they refine skip
                // decisions, so runs that cannot skip keep plain chunks.
                .with_block_records(if clustered { cfg.block_records } else { 0 }),
        );
        let cfg = Arc::new(cfg);
        let mut rng = Rng::new(cfg.seed);
        let mut fabric = Fabric::new(cfg.fabric.clone());
        // Install the fault plan's static degradation windows; an empty
        // plan leaves the fabric on the exact fault-free path.
        fabric.set_degraded(
            cfg.faults
                .fabric
                .iter()
                .map(|f| DegradedWindow {
                    machine: f.machine,
                    from: f.from,
                    until: f.until,
                    extra: f.extra,
                })
                .collect(),
        );
        let computes: Vec<ComputeEngine<P>> = (0..cfg.machines)
            .map(|i| {
                ComputeEngine::new(
                    i,
                    Arc::clone(&cfg),
                    Arc::clone(&params),
                    program.clone(),
                    rng.derive(1000 + i as u64),
                )
            })
            .collect();
        let mut storages: Vec<StorageEngine<P>> = (0..cfg.machines)
            .map(|i| {
                let mut device = Device::new(cfg.device);
                device.set_faults(
                    cfg.faults
                        .device
                        .iter()
                        .filter(|f| f.machine == i)
                        .map(|f| FaultWindow {
                            from: f.from,
                            until: f.until,
                            reads: f.reads,
                            writes: f.writes,
                        })
                        .collect(),
                );
                // Silent-corruption windows: the per-machine salt folds the
                // machine index into the plan's salt, so two machines
                // sharing a window draw independent corruption verdicts.
                device.set_corruption(
                    cfg.faults
                        .corruption
                        .iter()
                        .filter(|f| f.machine == i)
                        .map(|f| CorruptionWindow {
                            from: f.from,
                            until: f.until,
                            salt: f.salt ^ mix64(i as u64),
                            one_in: f.one_in,
                        })
                        .collect(),
                );
                StorageEngine::new(
                    i,
                    Arc::clone(&params),
                    device,
                    cfg.pagecache_bytes,
                    cfg.spill_dir.as_deref(),
                )
            })
            .collect();
        let mut directory = Directory::new(cfg.machines, cfg.directory_op_ns);
        // Distribute the unsorted input edge list randomly over all storage
        // devices (§8).
        for chunk in graph.edges.chunks(params.edges_per_chunk.max(1)) {
            let engine = rng.below(cfg.machines as u64) as usize;
            storages[engine].preload_input(Arc::new(chunk.to_vec()));
            if cfg.placement == Placement::Centralized {
                directory.preregister(DataKind::Input, 0, engine);
            }
        }
        let coordinator = Coordinator::new(
            cfg.machines,
            program,
            cfg.faults.crashes.clone(),
            cfg.checkpoint,
            cfg.placement == Placement::Centralized,
        );
        let mut sched = SequentialExecutor::new(ClusterTopology {
            machines: cfg.machines,
        });
        // Safety valve for the event loop (a wedged protocol would
        // otherwise spin forever); generously above any legitimate run.
        sched.max_events = 20_000_000_000;
        sched.set_queue_kind(cfg.queue);
        Ok(Self {
            params,
            sched,
            fabric,
            computes,
            storages,
            coordinator,
            directory,
            started: false,
            cfg,
        })
    }

    /// The derived run parameters (partition layout, chunk geometry).
    pub fn params(&self) -> &RunParams {
        &self.params
    }

    /// The configuration this cluster was built with.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Runs the computation to completion and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the protocol wedges (event queue drained before all
    /// engines finished) or the event budget is exceeded — both indicate a
    /// bug, not a user error.
    pub fn run(&mut self) -> RunReport {
        assert!(!self.started, "a cluster instance runs exactly once");
        self.started = true;
        // Kick off pre-processing on every machine at t = 0.
        for c in &mut self.computes {
            let mut ctx = Ctx::new(0, 0);
            c.start(&mut ctx);
            self.sched.absorb(&mut ctx, &mut self.fabric);
        }
        // Arm the fault plan's time-triggered crashes as coordinator
        // self-events. They carry generation 0; after a recovery the
        // coordinator re-arms any still-future triggers under its new
        // generation, so stale timers are dropped by the dispatch filter.
        let timers = self.coordinator.timer_times();
        if !timers.is_empty() {
            let mut ctx = Ctx::new(0, 0);
            for t in timers {
                ctx.at(t, Addr::Coordinator, Msg::FaultTimer);
            }
            self.sched.absorb(&mut ctx, &mut self.fabric);
        }
        // The actor table, ordered by `ClusterTopology` slot: computes,
        // storages, then the two singletons.
        let mut actors: Vec<DynActor<'_, Addr, Msg<P>>> = self
            .computes
            .iter_mut()
            .map(|c| c as DynActor<'_, Addr, Msg<P>>)
            .chain(
                self.storages
                    .iter_mut()
                    .map(|s| s as DynActor<'_, Addr, Msg<P>>),
            )
            .collect();
        actors.push(&mut self.coordinator);
        actors.push(&mut self.directory);
        self.sched.run(&mut actors, &mut self.fabric, Time::MAX);
        assert!(
            self.coordinator.done && self.computes.iter().all(|c| c.is_done()),
            "event queue drained before completion: protocol deadlock"
        );
        self.report()
    }

    fn report(&self) -> RunReport {
        // Merge the per-machine selectivity accounts element-wise.
        let iters = self.coordinator.history.len();
        let mut selectivity = vec![crate::metrics::IterSelectivity::default(); iters];
        for c in &self.computes {
            for (into, s) in selectivity.iter_mut().zip(c.selectivity.iter()) {
                into.absorb(s);
            }
        }
        let mut window_widths = crate::metrics::WindowHistogram::default();
        for s in &self.storages {
            s.accumulate_window_stats(&mut window_widths);
        }
        let faults = crate::metrics::FaultAccount {
            aborts: self.coordinator.aborts,
            iterations_redone: self.coordinator.iterations_redone,
            device_retries: self.storages.iter().map(|s| s.device_retries).sum(),
            faulted_time: self.storages.iter().map(|s| s.faulted_time).sum::<Time>()
                + self.fabric.stats().degraded_time,
            checkpoint_bytes: self.storages.iter().map(|s| s.checkpoint_bytes).sum(),
            checkpoint_time: self.storages.iter().map(|s| s.checkpoint_time).sum(),
            corruption_detected: self.storages.iter().map(|s| s.corruption_detected).sum(),
            corruption_repaired: self.storages.iter().map(|s| s.corruption_repaired).sum(),
            frames_scrubbed: self.storages.iter().map(|s| s.frames_scrubbed).sum(),
            checksum_bytes: self.storages.iter().map(|s| s.checksum_bytes).sum(),
            abort_log: self.coordinator.abort_log.clone(),
        };
        RunReport {
            runtime: self.sched.now(),
            preprocess_time: self.coordinator.preprocess_end,
            iterations: self.coordinator.history.len() as u32,
            iteration_aggs: self.coordinator.history.clone(),
            breakdowns: self.computes.iter().map(|c| c.breakdown).collect(),
            devices: self.storages.iter().map(|s| s.device.stats()).collect(),
            device_busy: self
                .storages
                .iter()
                .map(|s| s.device.busy_time())
                .collect(),
            fabric: self.fabric.stats(),
            steals: self.computes.iter().map(|c| c.steals).sum(),
            partitions: self.params.spec.num_partitions,
            events: self.sched.delivered(),
            records_streamed: self.computes.iter().map(|c| c.records_processed).sum(),
            selectivity,
            window_widths,
            cluster_bins: self.params.cluster.bins(),
            faults,
        }
    }

    /// Collects the final vertex states from storage (masters wrote them
    /// back during the last gather), in vertex-id order.
    pub fn final_states(&self) -> Vec<P::VertexState> {
        self.collect(|s, part, no| s.vertex_chunk(part, no))
    }

    /// Collects the last committed checkpoint, in vertex-id order.
    pub fn checkpoint_states(&self) -> Vec<P::VertexState> {
        self.collect(|s, part, no| s.checkpoint_chunk(part, no))
    }

    /// Test hook: marks `machine`'s next pending checkpoint snapshot torn,
    /// so the coordinator's validation round refuses to promote it and the
    /// whole snapshot is dropped cluster-wide.
    pub fn inject_pending_tear(&mut self, machine: usize) {
        self.storages[machine].pending_torn = true;
    }

    /// Pending snapshots dropped by failed validation rounds, summed over
    /// all storage engines.
    pub fn snapshots_dropped(&self) -> u64 {
        self.storages.iter().map(|s| s.snapshots_dropped).sum()
    }

    fn collect(
        &self,
        get: impl Fn(&StorageEngine<P>, usize, u32) -> Option<Arc<Vec<P::VertexState>>>,
    ) -> Vec<P::VertexState> {
        let mut out = Vec::with_capacity(self.params.spec.num_vertices as usize);
        for part in 0..self.params.spec.num_partitions {
            for no in 0..self.params.vertex_chunks(part) {
                let home = self.params.vertex_home(part, no);
                let chunk = get(&self.storages[home], part, no)
                    .expect("vertex chunk present at its home engine");
                out.extend(chunk.iter().cloned());
            }
        }
        out
    }
}

/// Convenience wrapper: build, run, and return `(report, final states)`.
///
/// # Panics
///
/// Panics on an invalid configuration; use [`Cluster::new`] for fallible
/// construction.
pub fn run_chaos<P: GasProgram>(
    cfg: ChaosConfig,
    program: P,
    graph: &InputGraph,
) -> (RunReport, Vec<P::VertexState>) {
    let mut cluster = Cluster::new(cfg, program, graph).expect("valid configuration");
    let report = cluster.run();
    let states = cluster.final_states();
    (report, states)
}
