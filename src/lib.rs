//! # Chaos — scale-out graph processing from secondary storage
//!
//! A from-scratch Rust reproduction of *Chaos: Scale-out Graph Processing
//! from Secondary Storage* (Roy, Bindschaedler, Malicevic, Zwaenepoel —
//! SOSP 2015).
//!
//! Chaos processes graphs too large for memory from the *aggregate*
//! secondary storage of a cluster. It relies on three synergistic ideas:
//! streaming partitions (cheap, sequential-access-oriented partitioning),
//! uniformly random chunk placement with no locality and no central
//! metadata, and randomized work stealing that lets several machines share
//! one partition.
//!
//! This crate re-exports the whole workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sim`] | deterministic discrete-event kernel (clock, queue, RNG, rate servers) |
//! | [`runtime`] | generic actor runtime (Actor trait, the event loop, topology, network routing) |
//! | [`net`] | NIC/switch fabric model |
//! | [`storage`] | chunk sets (memory + real files), device models, page cache |
//! | [`graph`] | edge lists, RMAT + web-graph generators, partitioner, oracles |
//! | [`gas`] | the edge-centric Gather-Apply-Scatter programming model |
//! | [`algos`] | the ten evaluation algorithms of Table 1 |
//! | [`core`] | the Chaos engine itself |
//! | [`baselines`] | X-Stream, Giraph-like engine, PowerGraph grid partitioner |
//! | [`bench`] | figure/table harnesses and the stable metrics-JSON dump |
//!
//! # Quickstart
//!
//! ```
//! use chaos::prelude::*;
//!
//! // A scale-10 RMAT graph (1024 vertices, 16K edges).
//! let graph = RmatConfig::paper(10).generate();
//! // Five Pagerank iterations on a simulated 4-machine cluster.
//! let (report, ranks) = run_chaos(ChaosConfig::new(4), Pagerank::new(5), &graph);
//! println!("{} iterations in {:.2} simulated seconds", report.iterations, report.seconds());
//! assert_eq!(ranks.len(), 1024);
//! ```

pub use chaos_algos as algos;
pub use chaos_baselines as baselines;
pub use chaos_bench as bench;
pub use chaos_core as core;
pub use chaos_gas as gas;
pub use chaos_graph as graph;
pub use chaos_net as net;
pub use chaos_runtime as runtime;
pub use chaos_sim as sim;
pub use chaos_storage as storage;

/// The most common imports in one place.
pub mod prelude {
    pub use chaos_algos::bfs::Bfs;
    pub use chaos_algos::bp::BeliefPropagation;
    pub use chaos_algos::conductance::Conductance;
    pub use chaos_algos::mcst::Mcst;
    pub use chaos_algos::mis::Mis;
    pub use chaos_algos::pagerank::Pagerank;
    pub use chaos_algos::scc::Scc;
    pub use chaos_algos::spmv::Spmv;
    pub use chaos_algos::sssp::Sssp;
    pub use chaos_algos::wcc::Wcc;
    pub use chaos_algos::{AlgoParams, ALGO_NAMES};
    pub use chaos_core::{
        run_chaos, ChaosConfig, Cluster, CorruptionFault, CrashFault, CrashTrigger, DeviceFault,
        FabricFault, FaultAccount, FaultPlan, FaultPlanConfig, IterSelectivity, Placement,
        QueueKind, RunReport,
    };
    pub use chaos_gas::{
        run_sequential, ActiveSet, ActivityModel, Control, Direction, GasProgram,
        IterationAggregates, UpdateSink,
    };
    pub use chaos_graph::{Edge, InputGraph, RmatConfig, WebGraphConfig};
}
