//! Selective streaming ≡ dense streaming.
//!
//! Two separate equivalences are pinned here:
//!
//! 1. **Selective ≡ Reference, bit for bit.** `Streaming::Selective`
//!    (skip without reading) and `Streaming::Reference` (read anyway,
//!    stream through the kernels, panic if anything comes out) must make
//!    identical simulated decisions: the whole [`RunReport`] — runtime,
//!    iteration aggregates, device/fabric statistics, selectivity account
//!    — compares equal. This is the fidelity argument for the skip path:
//!    the reference mode *proves* every skipped chunk was a no-op while
//!    accounting exactly like the skip.
//!
//! 2. **Selective ≡ Dense in results.** With the activity machinery off
//!    (`Streaming::Dense`, the paper's full-stream behavior) the final
//!    vertex states, per-iteration aggregates and iteration count must
//!    be unchanged — selective streaming and shrinking-graph compaction
//!    never alter what is computed, only how much is moved to compute it.

mod common;

use chaos::prelude::*;
use common::{test_config, undirected_graph, weighted_graph};
use proptest::prelude::*;

/// Pins both equivalences for one (config, program, graph) cell.
fn assert_streaming_equivalent<P: GasProgram>(cfg: ChaosConfig, program: P, g: &InputGraph)
where
    P::VertexState: PartialEq + std::fmt::Debug,
{
    let run = |mode: Streaming| {
        let mut c = cfg.clone();
        c.streaming = mode;
        run_chaos(c, program.clone(), g)
    };
    let (rep_sel, states_sel) = run(Streaming::Selective);
    let (rep_ref, states_ref) = run(Streaming::Reference);
    assert_eq!(states_sel, states_ref, "final states: selective vs reference");
    assert_eq!(
        rep_sel, rep_ref,
        "whole run report must be bit-identical: skipping without reading \
         vs reading-and-verifying must account identically"
    );
    let (rep_dense, states_dense) = run(Streaming::Dense);
    assert_eq!(states_sel, states_dense, "final states: selective vs dense");
    assert_eq!(
        rep_sel.iteration_aggs, rep_dense.iteration_aggs,
        "selective streaming must not change what is computed"
    );
    assert_eq!(rep_sel.iterations, rep_dense.iterations);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_runs_are_streaming_invariant(
        machines in 1usize..5,
        pick in 0usize..10,
        scale in 6u32..8,
        chunk_kb in 4u64..17,
        window in 2usize..12,
        seed in 0u64..1_000_000,
    ) {
        let mut cfg = test_config(machines);
        cfg.chunk_bytes = chunk_kb * 1024;
        cfg.batch_window = window;
        cfg.seed = seed;
        let g_dir = RmatConfig::paper(scale).generate();
        let g_und = undirected_graph(scale);
        let g_w = weighted_graph(300, 450, seed);
        match pick {
            0 => assert_streaming_equivalent(cfg, Bfs::new(0), &g_und),
            1 => assert_streaming_equivalent(cfg, Wcc::new(), &g_und),
            2 => assert_streaming_equivalent(cfg, Mcst::new(), &g_w),
            3 => assert_streaming_equivalent(cfg, Mis::new(seed), &g_und),
            4 => assert_streaming_equivalent(cfg, Sssp::new(0), &g_w),
            5 => assert_streaming_equivalent(cfg, Scc::new(), &g_dir),
            6 => assert_streaming_equivalent(cfg, Pagerank::new(3), &g_dir),
            7 => assert_streaming_equivalent(cfg, Conductance::new(seed), &g_dir),
            8 => assert_streaming_equivalent(cfg, Spmv::new(2), &g_dir),
            _ => assert_streaming_equivalent(cfg, BeliefPropagation::new(seed, 3), &g_dir),
        }
    }
}

#[test]
fn mcst_phase_switching_is_streaming_invariant() {
    // MCST exercises everything at once: per-phase activity (including
    // the all-inactive Commit iterations), the delta-gated fixpoint
    // wavefronts, and Shrinking tombstoning across many Borůvka rounds.
    let g = weighted_graph(300, 450, 11);
    assert_streaming_equivalent(test_config(3), Mcst::new(), &g);
}

#[test]
fn stealing_is_streaming_invariant() {
    // Aggressive stealing: stolen partitions build their own (identical)
    // active sets, and compaction replacements can originate from
    // non-master machines — each chunk still has exactly one consumer
    // per epoch.
    let mut cfg = test_config(3);
    cfg.steal_alpha = f64::INFINITY;
    assert_streaming_equivalent(cfg, Mis::new(7), &undirected_graph(7));
    let mut cfg = test_config(3);
    cfg.steal_alpha = f64::INFINITY;
    assert_streaming_equivalent(cfg, Mcst::new(), &weighted_graph(400, 600, 42));
}

#[test]
fn local_only_placement_is_streaming_invariant() {
    let mut cfg = test_config(4);
    cfg.placement = Placement::LocalOnly;
    assert_streaming_equivalent(cfg, Bfs::new(0), &undirected_graph(7));
}

#[test]
fn spill_path_under_memory_pressure_is_streaming_invariant() {
    // Real files, a vertex memory budget forcing many partitions, and a
    // starved page cache: chunk skips must skip the *file* read and
    // compaction must rewrite the backing file, with identical simulated
    // accounting to the dense-reference oracle.
    let dir = chaos::storage::ScratchDir::new("chaos-selective-spill").expect("scratch dir");
    let mut cfg = test_config(2);
    cfg.mem_budget = 4 * 1024;
    cfg.pagecache_bytes = 1024;
    cfg.spill_dir = Some(dir.path().to_path_buf());
    assert_streaming_equivalent(cfg, Mcst::new(), &weighted_graph(250, 350, 5));
    let mut cfg2 = test_config(2);
    cfg2.mem_budget = 4 * 1024;
    cfg2.pagecache_bytes = 1024;
    cfg2.spill_dir = Some(dir.path().to_path_buf());
    assert_streaming_equivalent(cfg2, Bfs::new(0), &undirected_graph(7));
}

#[test]
fn selectivity_account_reports_real_skips() {
    // BFS on a path graph: the frontier is a single vertex per
    // iteration, so late iterations must skip chunks, and the active
    // fraction must collapse toward zero.
    let g = chaos::graph::builder::path(600).to_undirected();
    let mut cfg = test_config(2);
    cfg.mem_budget = 2 * 1024; // many partitions, most of them frontier-free
    let (rep, _) = run_chaos(cfg, Bfs::new(0), &g);
    assert!(rep.chunks_skipped() > 0, "a collapsing frontier must skip chunks");
    assert!(rep.records_skipped() > 0);
    let last = rep.selectivity.last().expect("iterations ran");
    assert!(
        last.active_fraction() < 0.05,
        "final frontier is a sliver: {}",
        last.active_fraction()
    );
}

#[test]
fn shrinking_compaction_reports_tombstones() {
    // MIS decides every vertex; by the last rounds the whole edge set is
    // dead and compaction must have dropped most of it. Block-granular
    // serving suppresses compaction of partially served chunks (a partial
    // payload must not seed a rewrite), leaving dead regions to the block
    // index instead — pin chunk-granularity serves to exercise the full
    // compaction path.
    let g = undirected_graph(8);
    let mut cfg = test_config(2);
    cfg.block_records = 0;
    let (rep, _) = run_chaos(cfg, Mis::new(3), &g);
    assert!(rep.selectivity_total().compactions > 0, "MIS must compact decided regions");
    assert!(
        rep.selectivity_total().edges_tombstoned > g.num_edges() / 2,
        "most of the edge set dies: {} of {}",
        rep.selectivity_total().edges_tombstoned,
        g.num_edges()
    );
    // Under block indexing the same dead regions are served around rather
    // than rewritten: compaction still runs on fully served chunks, and
    // the skip account moves intra-chunk.
    let (blocked, _) = run_chaos(test_config(2), Mis::new(3), &g);
    assert!(blocked.selectivity_total().compactions > 0, "full serves still compact");
    assert!(
        blocked.selectivity_total().blocks_skipped > 0,
        "decided regions must skip at block granularity"
    );
    assert!(blocked.records_skipped_intra() > 0);
}

#[test]
fn failure_recovery_does_not_double_count_selectivity() {
    // A transient failure aborts an iteration mid-scatter and redoes it
    // from the checkpoint; the aborted attempt's partial selectivity
    // counts must be discarded, so the account matches a failure-free
    // run of the same computation.
    let g = undirected_graph(7);
    let mut cfg = test_config(3);
    cfg.checkpoint = true;
    let (clean, states_clean) = run_chaos(cfg.clone(), Bfs::new(0), &g);
    cfg.faults = FaultPlan::crash(1, 2, 0);
    let (faulty, states_faulty) = run_chaos(cfg, Bfs::new(0), &g);
    assert_eq!(states_clean, states_faulty);
    assert_eq!(
        clean.selectivity, faulty.selectivity,
        "the redone iteration's account must replace, not add to, the aborted attempt's"
    );
}

#[test]
fn centralized_placement_stays_dense() {
    // The Figure 15 directory strawman keeps the paper's dense streaming:
    // selective mode must not skip anything there (its per-engine chunk
    // counts cannot see multi-chunk consumption), and results must agree.
    let g = undirected_graph(7);
    let mut cfg = test_config(3);
    cfg.placement = Placement::Centralized;
    let (rep, states) = run_chaos(cfg.clone(), Bfs::new(0), &g);
    assert_eq!(rep.chunks_skipped(), 0);
    assert_eq!(rep.selectivity_total().compactions, 0);
    cfg.streaming = Streaming::Dense;
    let (rep_dense, states_dense) = run_chaos(cfg, Bfs::new(0), &g);
    assert_eq!(states, states_dense);
    assert_eq!(rep.iteration_aggs, rep_dense.iteration_aggs);
}
