//! Selective streaming ≡ dense streaming.
//!
//! Two oracles guard the skip path:
//!
//! 1. **The skip check.** In debug builds (every `cargo test` here) the
//!    storage engine reads every chunk and block run the active set
//!    skips, without charging for it, and the compute engine streams it
//!    through the scatter kernel and panics if anything comes out. Every
//!    selective run below is therefore also a proof that each skip was a
//!    no-op; the last two tests show the check firing on a program that
//!    breaks the activity contract.
//!
//! 2. **Selective ≡ Dense in results.** With the activity machinery off
//!    (the program wrapped in [`DenseActivity`], the paper's full-stream
//!    behavior) the final vertex states, per-iteration aggregates and
//!    iteration count must be unchanged — selective streaming and
//!    shrinking-graph compaction never alter what is computed, only how
//!    much is moved to compute it.

mod common;

use chaos::core::Layout;
use chaos::prelude::*;
use common::{run_with_layout, test_config, undirected_graph, weighted_graph, DenseActivity};
use proptest::prelude::*;

/// Pins both oracles for one (config, program, graph) cell.
fn assert_streaming_equivalent<P: GasProgram>(cfg: ChaosConfig, program: P, g: &InputGraph)
where
    P::VertexState: PartialEq + std::fmt::Debug,
{
    let (rep_sel, states_sel) = run_chaos(cfg.clone(), program.clone(), g);
    let (rep_dense, states_dense) = run_chaos(cfg, DenseActivity(program), g);
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
    // starved page cache: chunk skips must skip the *file* read (debug
    // builds read it for the skip check only) and compaction must rewrite
    // the backing file.
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
    assert!(
        rep.chunks_skipped() > 0,
        "a collapsing frontier must skip chunks"
    );
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
    let chunks_only = Layout {
        block_records: 0,
        ..Layout::DEFAULT
    };
    let (rep, _) = run_with_layout(test_config(2), Mis::new(3), &g, chunks_only);
    assert!(
        rep.selectivity_total().compactions > 0,
        "MIS must compact decided regions"
    );
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
    assert!(
        blocked.selectivity_total().compactions > 0,
        "full serves still compact"
    );
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
    // a frontier program must not skip anything there (its per-engine
    // chunk counts cannot see multi-chunk consumption), and results must
    // agree with the program's dense form.
    let g = undirected_graph(7);
    let mut cfg = test_config(3);
    cfg.placement = Placement::Centralized;
    let (rep, states) = run_chaos(cfg.clone(), Bfs::new(0), &g);
    assert_eq!(rep.chunks_skipped(), 0);
    assert_eq!(rep.selectivity_total().compactions, 0);
    let (rep_dense, states_dense) = run_chaos(cfg, DenseActivity(Bfs::new(0)), &g);
    assert_eq!(states, states_dense);
    assert_eq!(rep.iteration_aggs, rep_dense.iteration_aggs);
}

/// Breaks the activity contract: `is_active` says the upper half of the
/// vertices cannot emit, but `scatter` emits over every edge. The first
/// iteration's skips therefore drop real updates, which the debug-build
/// skip check must catch before the run ends.
#[derive(Clone)]
struct LyingFrontier {
    vertices: u64,
}

impl GasProgram for LyingFrontier {
    type VertexState = u64;
    type Update = u64;
    type Accum = u64;
    type HeldEdge = chaos::gas::BareEdge;

    fn name(&self) -> &'static str {
        "LyingFrontier"
    }

    fn init(&self, v: u64, _out_degree: u64) -> u64 {
        v
    }

    fn scatter(&self, v: u64, _state: &u64, _edge: &Edge, _iter: u32) -> Option<u64> {
        Some(v)
    }

    fn gather(&self, acc: &mut u64, _dst: u64, _dst_state: &u64, payload: &u64) {
        *acc = acc.wrapping_add(*payload);
    }

    fn merge(&self, into: &mut u64, from: &u64) {
        *into = into.wrapping_add(*from);
    }

    fn apply(&self, _v: u64, _state: &mut u64, _acc: &u64, _iter: u32) -> bool {
        false
    }

    fn activity(&self) -> ActivityModel {
        ActivityModel::Frontier
    }

    fn is_active(&self, v: u64, _state: &u64, _iter: u32) -> bool {
        v < self.vertices / 2
    }

    fn end_iteration(&mut self, _iter: u32, _agg: &IterationAggregates) -> Control {
        Control::Done
    }
}

/// One machine, one partition: the upper half of the key range is one
/// contiguous inactive region.
fn run_liar(cfg: ChaosConfig, layout: Layout) {
    let g = chaos::graph::builder::gnm(1024, 8192, false, 17);
    run_with_layout(
        cfg,
        LyingFrontier {
            vertices: g.num_vertices,
        },
        &g,
        layout,
    );
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "activity contract violated")]
fn skip_check_catches_a_lie_in_a_skipped_chunk() {
    // 16 bins in 4 KiB chunks: the upper eight bins' chunks hold only
    // inactive sources and are skipped whole (no block indexes).
    let mut cfg = ChaosConfig::new(1);
    cfg.chunk_bytes = 4 * 1024;
    run_liar(
        cfg,
        Layout {
            block_records: 0,
            ..Layout::DEFAULT
        },
    );
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "activity contract violated")]
fn skip_check_catches_a_lie_in_a_skipped_block_run() {
    // One bin and one chunk holding every edge, key-sorted into 512-record
    // blocks: the chunk is served, and its upper blocks are skipped.
    run_liar(
        ChaosConfig::new(1),
        Layout {
            cluster_bins: 1,
            ..Layout::DEFAULT
        },
    );
}
