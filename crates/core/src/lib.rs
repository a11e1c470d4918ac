//! Chaos: scale-out graph processing from secondary storage (SOSP 2015).
//!
//! This crate is the paper's primary contribution: a distributed
//! out-of-core graph processing engine built on three synergistic
//! principles (§12):
//!
//! 1. **Streaming partitions adapted for parallel execution** — the only
//!    pre-processing is one cheap pass binning edges by the partition of
//!    their source vertex (§3);
//! 2. **Flat storage without a centralized meta-data server** — vertices,
//!    edges and updates are spread uniformly randomly over all storage
//!    engines in chunks, and read back with a batching window that keeps
//!    every device busy (§6);
//! 3. **Randomized work stealing** — several machines may work on the same
//!    partition, with the master merging replica accumulators during apply
//!    (§5).
//!
//! The cluster itself is simulated on a deterministic discrete-event
//! kernel (`chaos-sim`): every protocol message is really exchanged and
//! every scatter/gather function really computed, while devices, NICs and
//! CPUs are queueing models. The four actor kinds — [`ComputeEngine`],
//! [`StorageEngine`], [`Coordinator`] and [`Directory`] — implement the
//! generic `chaos_runtime::Actor` trait and are driven by
//! `chaos_runtime::SequentialExecutor`, the one event loop; [`Cluster`]
//! is thin wiring over it. See `DESIGN.md` at the repository root for the
//! fidelity argument and the experiment index.
//!
//! [`ComputeEngine`]: compute_engine::ComputeEngine
//! [`StorageEngine`]: storage_engine::StorageEngine
//! [`Coordinator`]: coordinator::Coordinator
//! [`Directory`]: directory::Directory
//!
//! # Examples
//!
//! ```
//! use chaos_algos::pagerank::Pagerank;
//! use chaos_core::{run_chaos, ChaosConfig};
//! use chaos_graph::RmatConfig;
//!
//! let graph = RmatConfig::paper(8).generate();
//! let (report, states) = run_chaos(ChaosConfig::new(2), Pagerank::new(3), &graph);
//! assert_eq!(states.len(), 256);
//! assert!(report.runtime > 0);
//! ```

#[cfg(test)]
mod alloc_count;
mod apply;
pub mod batching;
pub mod capacity;
pub mod cluster;
pub mod compute_engine;
pub mod config;
pub mod coordinator;
pub mod directory;
pub mod fault;
pub mod integrity;
pub mod metrics;
pub mod msg;
pub mod preprocess;
pub mod runtime;
pub mod sink;
pub mod steal;
pub mod storage_engine;
mod window;

pub use capacity::{CapacityModel, CapacityPrediction};
pub use chaos_runtime::{Actor, ExecStats, Executor, Network, SequentialExecutor, Topology};
pub use chaos_sim::QueueKind;
pub use cluster::{run_chaos, Cluster};
pub use config::{ChaosConfig, Placement};
pub use fault::{
    CorruptionFault, CrashFault, CrashTrigger, DeviceFault, FabricFault, FaultPlan, FaultPlanConfig,
};
pub use metrics::{Breakdown, FaultAccount, IterSelectivity, RunReport, WindowHistogram};
pub use runtime::{Addr, ChaosActor, ClusterTopology, Layout, RunParams};
