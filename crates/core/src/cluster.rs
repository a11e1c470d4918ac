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

use chaos_gas::{EdgeRecord, GasProgram};
use chaos_graph::{InputGraph, PartitionSpec, SizeModel};
use chaos_net::{DegradedWindow, Fabric};
use chaos_runtime::{DynActor, Executor, SequentialExecutor};
use chaos_sim::{rng::mix64, QueueKind, Rng, Time};
use chaos_storage::{CorruptionWindow, Device, FaultWindow};

use crate::compute_engine::ComputeEngine;
use crate::config::{ChaosConfig, Placement};
use crate::coordinator::Coordinator;
use crate::directory::Directory;
use crate::metrics::RunReport;
use crate::msg::{DataKind, Msg};
use crate::runtime::{Addr, ClusterTopology, Ctx, Layout, RunParams};
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
        Self::with_layout(cfg, program, graph, Layout::DEFAULT)
    }

    /// [`Cluster::new`] with a run that can skip laying its edges out in
    /// `layout` instead of [`Layout::DEFAULT`]. A test hook: the layout
    /// oracles compare the unclustered and chunk-granularity layouts with
    /// the default through it, without the layout being a configuration
    /// axis. It is a constructor because every engine sizes its bin
    /// buffers from the layout when it is built.
    ///
    /// # Errors
    ///
    /// As [`Cluster::new`].
    ///
    /// # Panics
    ///
    /// Panics if `layout.cluster_bins` is not in `1..=4096` (more bins per
    /// partition defeat chunking) or `layout.block_records` is in `1..16`
    /// (a block index that fine costs more than it skips).
    pub fn with_layout(
        cfg: ChaosConfig,
        program: P,
        graph: &InputGraph,
        layout: Layout,
    ) -> Result<Self, String> {
        assert!(
            (1..=4096).contains(&layout.cluster_bins),
            "cluster bins must be in 1..=4096 (1 = unclustered layout)"
        );
        assert!(
            layout.block_records == 0 || layout.block_records >= 16,
            "a block index needs at least 16 records per block (0 = none)"
        );
        cfg.validate()?;
        if cfg.placement == Placement::Centralized && program.uses_reverse_edges() {
            return Err("centralized directory does not support reverse-edge programs".into());
        }
        // The engine holds edges in the paper's compact format (§8), ids in
        // a `u32` (`GasProgram::HeldEdge`). Checked before anything is
        // sized by the vertex count. It also bounds every partition's
        // stride by 2^32, so an update's partition offset fits the `u32`
        // of `chaos_gas::LocalUpdate`.
        if graph.num_vertices > 1 << 32 {
            return Err(format!(
                "graph has {} vertices; the compact edge format holds at most 2^32",
                graph.num_vertices
            ));
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
        // The one "can this run skip" rule (see `RunParams::selective`).
        let selective = cfg.placement != Placement::Centralized
            && program.activity() != chaos_gas::ActivityModel::Dense;
        let params = Arc::new(RunParams::new(
            &cfg,
            spec,
            sizes.edge_bytes(),
            update_bytes,
            vstate,
            selective,
            layout,
        ));
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
            .collect::<Result<_, _>>()?;
        let mut directory = Directory::new(Arc::clone(&params), cfg.directory_op_ns);
        // Distribute the unsorted input edge list randomly over all storage
        // devices (§8).
        for chunk in graph.edges.chunks(params.edges_per_chunk.max(1)) {
            let engine = rng.below(cfg.machines as u64) as usize;
            let packed = chunk.iter().map(P::HeldEdge::pack).collect();
            storages[engine].preload_input(Arc::new(packed))?;
            if cfg.placement == Placement::Centralized {
                directory.preregister(DataKind::Input, 0, engine);
            }
        }
        let coordinator =
            Coordinator::new(Arc::clone(&params), program, cfg.faults.crashes.clone());
        let mut sched = SequentialExecutor::new(ClusterTopology {
            machines: cfg.machines,
        });
        // Safety valve for the event loop (a wedged protocol would
        // otherwise spin forever); generously above any legitimate run.
        sched.max_events = 20_000_000_000;
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
        let mut faults = crate::metrics::FaultAccount {
            aborts: self.coordinator.aborts,
            iterations_redone: self.coordinator.iterations_redone,
            faulted_time: self.fabric.stats().degraded_time,
            ..Default::default()
        };
        for s in &self.storages {
            faults.absorb(&s.io.account);
        }
        RunReport {
            runtime: self.sched.now(),
            preprocess_time: self.coordinator.preprocess_end,
            iterations: self.coordinator.history.len() as u32,
            iteration_aggs: self.coordinator.history.clone(),
            breakdowns: self.computes.iter().map(|c| c.breakdown).collect(),
            devices: self.storages.iter().map(|s| s.io.device.stats()).collect(),
            device_busy: self
                .storages
                .iter()
                .map(|s| s.io.device.busy_time())
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
            abort_log: self.coordinator.abort_log.clone(),
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
        self.storages[machine].ckpt.pending_torn = true;
    }

    /// Test hook: runs the event loop on `kind`'s store instead of the
    /// calendar queue. Pop order, and with it every simulated quantity, is
    /// the same for every kind, so the binary heap is the calendar's
    /// whole-run reference without being a configuration axis.
    ///
    /// # Panics
    ///
    /// Panics once the run has started.
    pub fn set_queue_kind(&mut self, kind: QueueKind) {
        assert!(!self.started, "the event queue is chosen before the run");
        self.sched.set_queue_kind(kind);
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

#[cfg(test)]
mod tests {
    use chaos_algos::{bfs::Bfs, pagerank::Pagerank};
    use chaos_graph::RmatConfig;

    use super::*;

    /// Runs `program` over a scale-10 graph and checks that pre-processing
    /// consumed the input: every payload was alive before the run and none
    /// is after it, in a storage engine or anywhere else. Returns the run's
    /// bin count.
    fn run_consumes_input<P: GasProgram>(program: P, undirected: bool) -> u32 {
        let mut g = RmatConfig::paper(10).generate();
        if undirected {
            g = g.to_undirected();
        }
        let mut cfg = ChaosConfig::new(4);
        cfg.chunk_bytes = 4 * 1024;
        let mut cluster = Cluster::new(cfg, program, &g).expect("valid configuration");
        let loaded: usize = cluster
            .storages
            .iter()
            .map(|s| s.input_payloads_alive())
            .sum();
        assert!(loaded > 4, "{loaded} input chunks before the run");
        let report = cluster.run();
        for (i, s) in cluster.storages.iter().enumerate() {
            assert_eq!(
                s.input_payloads_alive(),
                0,
                "engine {i} kept input after the run"
            );
        }
        report.cluster_bins
    }

    #[test]
    fn no_input_payload_outlives_the_run() {
        assert_eq!(
            run_consumes_input(Pagerank::new(2), false),
            1,
            "PR: dense, one bin"
        );
        assert!(run_consumes_input(Bfs::new(0), true) > 1, "BFS: clustered");
    }
}
