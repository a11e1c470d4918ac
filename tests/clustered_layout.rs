//! Clustered chunk layout ≡ unclustered layout.
//!
//! The source-binned edge placement (`Layout::cluster_bins > 1`) changes only
//! *where* edges sit on storage — never what is computed. Three properties
//! are pinned here:
//!
//! 1. **Clustered ≡ unclustered in results.** Final vertex states, the
//!    per-iteration aggregates and the iteration count are identical
//!    between `cluster_bins = 1` (arrival-order layout) and any clustered
//!    layout. Timings, chunk geometry and skip counts legitimately differ
//!    — narrower windows skip more — so only the computed quantities are
//!    compared across layouts.
//!
//! 2. **Every skip is checked under clustering.** Debug builds stream
//!    every skipped chunk and block run through the scatter kernel and
//!    panic if anything comes out (see `tests/selective_streaming.rs`),
//!    so each run below also proves its stride-bitmap and block skips
//!    were no-ops.
//!
//! 3. **Block-granularity invariance.** Key-sorted chunk interiors with
//!    block indexes (`Layout::block_records > 0`) change which byte ranges
//!    are read — never what is computed: final states, aggregates and
//!    iteration counts are identical between `block_records = 0`
//!    (chunk-granularity serves) and any block granularity.
//!
//! The layout is not a configuration axis: each run reaches it through the
//! `Cluster::with_layout` test hook (`common::run_with_layout`).

mod common;

use chaos::core::Layout;
use chaos::prelude::*;
use common::{
    directed_graph, run_with_layout, test_config, undirected_graph, weighted_graph, DenseActivity,
};
use proptest::prelude::*;

/// Pins all three properties for one (config, layout, program, graph)
/// cell. `layout.cluster_bins` is the clustered bin count under test.
fn assert_layout_equivalent<P: GasProgram>(
    cfg: ChaosConfig,
    layout: Layout,
    program: P,
    g: &InputGraph,
) where
    P::VertexState: PartialEq + std::fmt::Debug,
{
    assert!(
        layout.cluster_bins > 1,
        "cell must exercise a clustered layout"
    );
    let run = |layout| run_with_layout(cfg.clone(), program.clone(), g, layout);
    let (rep_clu, states_clu) = run(layout);
    // 1. Results are layout-invariant.
    let (rep_flat, states_flat) = run(Layout {
        cluster_bins: 1,
        ..layout
    });
    assert_eq!(
        states_clu, states_flat,
        "final states: clustered vs unclustered"
    );
    assert_eq!(
        rep_clu.iteration_aggs, rep_flat.iteration_aggs,
        "the layout must not change what is computed"
    );
    assert_eq!(rep_clu.iterations, rep_flat.iterations);
    // Narrow windows can only skip more, never less.
    assert!(
        rep_clu.records_skipped() >= rep_flat.records_skipped(),
        "clustering lost skips: {} < {}",
        rep_clu.records_skipped(),
        rep_flat.records_skipped()
    );
    // 3. Block-granularity invariance: sub-chunk serving (and the
    //    compaction suppression it implies on partial serves) must not
    //    change what is computed.
    let (rep_nob, states_nob) = run(Layout {
        block_records: 0,
        ..layout
    });
    assert_eq!(states_clu, states_nob, "final states: blocks on vs off");
    assert_eq!(
        rep_clu.iteration_aggs, rep_nob.iteration_aggs,
        "block-granular serves must not change what is computed"
    );
    assert_eq!(rep_clu.iterations, rep_nob.iterations);
    assert_eq!(
        rep_nob.selectivity_total().blocks_skipped,
        0,
        "chunk-granularity serves must not report block skips"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn random_runs_are_layout_invariant(
        machines in 1usize..5,
        pick in 0usize..10,
        scale in 6u32..8,
        chunk_kb in 4u64..17,
        bins in 2u32..40,
        br_pick in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let mut cfg = test_config(machines);
        cfg.chunk_bytes = chunk_kb * 1024;
        cfg.seed = seed;
        let layout = Layout {
            cluster_bins: bins,
            // Vary the block geometry from many tiny blocks per chunk to the
            // single-block degenerate case (which must behave like blocks off).
            block_records: [16, 64, 2048][br_pick],
        };
        let g_dir = RmatConfig::paper(scale).generate();
        let g_und = undirected_graph(scale);
        let g_w = weighted_graph(300, 450, seed);
        match pick {
            0 => assert_layout_equivalent(cfg, layout, Bfs::new(0), &g_und),
            1 => assert_layout_equivalent(cfg, layout, Wcc::new(), &g_und),
            2 => assert_layout_equivalent(cfg, layout, Mcst::new(), &g_w),
            3 => assert_layout_equivalent(cfg, layout, Mis::new(seed), &g_und),
            4 => assert_layout_equivalent(cfg, layout, Sssp::new(0), &g_w),
            5 => assert_layout_equivalent(cfg, layout, Scc::new(), &g_dir),
            6 => assert_layout_equivalent(cfg, layout, Pagerank::new(3), &g_dir),
            7 => assert_layout_equivalent(cfg, layout, Conductance::new(seed), &g_dir),
            8 => assert_layout_equivalent(cfg, layout, Spmv::new(2), &g_dir),
            _ => assert_layout_equivalent(cfg, layout, BeliefPropagation::new(seed, 3), &g_dir),
        }
    }
}

/// Every Table 1 program once, at the default layout (16 bins, 512-record
/// blocks): the property test above draws only some of them per run.
#[test]
fn every_program_is_layout_invariant() {
    let d = directed_graph(7);
    let u = undirected_graph(7);
    let w = weighted_graph(300, 450, 7);
    let cfg = || test_config(3);
    assert_layout_equivalent(cfg(), Layout::DEFAULT, Pagerank::new(3), &d);
    assert_layout_equivalent(cfg(), Layout::DEFAULT, Spmv::new(2), &d);
    assert_layout_equivalent(cfg(), Layout::DEFAULT, Scc::new(), &d);
    assert_layout_equivalent(cfg(), Layout::DEFAULT, BeliefPropagation::new(3, 3), &d);
    assert_layout_equivalent(cfg(), Layout::DEFAULT, Conductance::new(9), &d);
    assert_layout_equivalent(cfg(), Layout::DEFAULT, Wcc::new(), &u);
    assert_layout_equivalent(cfg(), Layout::DEFAULT, Bfs::new(0), &u);
    assert_layout_equivalent(cfg(), Layout::DEFAULT, Mis::new(5), &u);
    assert_layout_equivalent(cfg(), Layout::DEFAULT, Sssp::new(0), &w);
    assert_layout_equivalent(cfg(), Layout::DEFAULT, Mcst::new(), &w);
}

#[test]
fn mcst_phase_switching_is_layout_invariant() {
    // MCST is the layout's raison d'être: delta-gated fixpoint wavefronts
    // against narrow windows, per-phase activity, Shrinking tombstones
    // and compactions across many Borůvka rounds.
    let g = weighted_graph(300, 450, 11);
    assert_layout_equivalent(test_config(3), Layout::DEFAULT, Mcst::new(), &g);
}

#[test]
fn stealing_is_layout_invariant() {
    // Aggressive stealing over a clustered layout: stealers see the same
    // narrow windows and make the same skip decisions; compaction
    // replacements can originate from non-master machines.
    let mut cfg = test_config(3);
    cfg.steal_alpha = f64::INFINITY;
    assert_layout_equivalent(cfg, Layout::DEFAULT, Mis::new(7), &undirected_graph(7));
    let mut cfg = test_config(3);
    cfg.steal_alpha = f64::INFINITY;
    assert_layout_equivalent(
        cfg,
        Layout::DEFAULT,
        Mcst::new(),
        &weighted_graph(400, 600, 42),
    );
}

#[test]
fn compaction_is_layout_invariant_and_reports_tombstones() {
    // MIS under compaction: survivors of a clustered chunk stay within
    // the source chunk's window (debug-asserted inside ChunkSet::replace_with_blocks)
    // and the account matches the unclustered run's results.
    let g = undirected_graph(8);
    let cfg = test_config(2);
    assert_layout_equivalent(cfg.clone(), Layout::DEFAULT, Mis::new(3), &g);
    let (rep, _) = run_chaos(cfg, Mis::new(3), &g);
    assert!(
        rep.selectivity_total().compactions > 0,
        "MIS must still compact under clustering"
    );
    assert!(rep.selectivity_total().edges_tombstoned > 0);
}

#[test]
fn spill_path_under_memory_pressure_is_layout_invariant() {
    // Real files, many partitions, starved page cache: the clustered
    // layout's merge/seal path must write the same bin-pure chunks
    // through the file backend, and stride-bitmap skips must skip the
    // file read.
    let dir = chaos::storage::ScratchDir::new("chaos-clustered-spill").expect("scratch dir");
    let mut cfg = test_config(2);
    cfg.mem_budget = 4 * 1024;
    cfg.pagecache_bytes = 1024;
    cfg.spill_dir = Some(dir.path().to_path_buf());
    assert_layout_equivalent(
        cfg,
        Layout::DEFAULT,
        Mcst::new(),
        &weighted_graph(250, 350, 5),
    );
    let mut cfg2 = test_config(2);
    cfg2.mem_budget = 4 * 1024;
    cfg2.pagecache_bytes = 1024;
    cfg2.spill_dir = Some(dir.path().to_path_buf());
    assert_layout_equivalent(cfg2, Layout::DEFAULT, Bfs::new(0), &undirected_graph(7));
}

#[test]
fn clustered_windows_are_narrow() {
    // The layout's observable: with bins ≥ 16 on a frontier program, the
    // bulk of the stored chunks must sit in window-width buckets at or
    // below 1/8 of their partition's span, where the unclustered layout
    // puts everything in the widest bucket. Chunks are kept small enough
    // that bins hold several full chunks each (the narrow-window regime;
    // tiny graphs with big chunks degenerate to seal-tail chunks).
    let g = undirected_graph(10);
    let mut cfg = test_config(2);
    cfg.chunk_bytes = 4 * 1024;
    let (rep, _) = run_chaos(cfg.clone(), Bfs::new(0), &g);
    let h = rep.window_widths;
    let narrow: u64 = h.buckets[..5].iter().sum(); // ≤ 1/8
    assert!(
        narrow * 2 > h.chunks(),
        "clustered layout should make most windows narrow: {:?}",
        h.buckets
    );
    let unclustered = Layout {
        cluster_bins: 1,
        ..Layout::DEFAULT
    };
    let (rep_flat, _) = run_with_layout(cfg, Bfs::new(0), &g, unclustered);
    let hf = rep_flat.window_widths;
    assert_eq!(
        hf.buckets[..5].iter().sum::<u64>(),
        0,
        "arrival-order windows span whole partitions: {:?}",
        hf.buckets
    );
}

#[test]
fn mid_wavefront_skips_appear_only_with_activity() {
    // A path graph drives BFS through a long, single-vertex wavefront:
    // with clustering, chunks are skipped even while the frontier is
    // non-empty, and the mid-wavefront account says so.
    let g = chaos::graph::builder::path(600).to_undirected();
    let mut cfg = test_config(2);
    cfg.mem_budget = 2 * 1024;
    let (rep, _) = run_chaos(cfg, Bfs::new(0), &g);
    assert!(
        rep.selectivity_total().records_skipped_mid > 0,
        "narrow windows must skip mid-wavefront on a sparse frontier"
    );
    assert!(rep.records_skipped() >= rep.selectivity_total().records_skipped_mid);
    // The mid share is per-iteration consistent.
    for s in &rep.selectivity {
        assert!(s.records_skipped_mid <= s.records_skipped);
        assert!(s.chunks_skipped_mid <= s.chunks_skipped);
    }
}

#[test]
fn block_records_cross_states_digest_invariant() {
    // `block_records` in {0, 512, 64} must agree on the states digest
    // (FNV-1a over the storage encodings, as `figures` prints it), with
    // the block runs actually skipping intra-chunk on the frontier
    // program.
    fn digest<S: chaos::gas::Record>(states: &[S]) -> u64 {
        let mut buf = Vec::new();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for s in states {
            buf.clear();
            s.encode(&mut buf);
            for &b in &buf {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
    let g = chaos::graph::builder::path(600).to_undirected();
    let mut digests = Vec::new();
    let mut skipped_intra = Vec::new();
    // 0 = blocks off, 512 = the default granularity (coarser than
    // this cell's ~500-record chunks, so it degenerates to single-block
    // chunks — the degenerate case must also hold), 64 = blocks that
    // genuinely split these chunks.
    for block_records in [0, 512, 64] {
        let mut cfg = test_config(2);
        cfg.mem_budget = 2 * 1024;
        let layout = Layout {
            block_records,
            ..Layout::DEFAULT
        };
        let (rep, states) = run_with_layout(cfg, Bfs::new(0), &g, layout);
        digests.push(digest(&states));
        skipped_intra.push(rep.records_skipped_intra());
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "states digest must be invariant across block granularities: {digests:x?}"
    );
    assert_eq!(skipped_intra[0], 0, "blocks off cannot skip intra-chunk");
    assert!(
        skipped_intra[2] > 0,
        "block indexes must skip intra-chunk on a collapsing frontier"
    );
}

#[test]
fn block_serves_split_chunks_mid_wavefront() {
    // A path graph's single-vertex frontier lands inside one block of a
    // served chunk: the other blocks must skip, the skipped records must
    // never be streamed, and the per-iteration accounts must stay
    // internally consistent.
    let g = chaos::graph::builder::path(600).to_undirected();
    let mut cfg = test_config(2);
    cfg.mem_budget = 2 * 1024;
    cfg.chunk_bytes = 4 * 1024;
    let layout = Layout {
        block_records: 32,
        ..Layout::DEFAULT
    };
    let (rep, _) = run_with_layout(cfg, Bfs::new(0), &g, layout);
    assert!(
        rep.selectivity_total().blocks_skipped > 0,
        "block serves must split chunks"
    );
    assert!(rep.records_skipped_intra() > 0);
    for s in &rep.selectivity {
        assert!(s.blocks_skipped_mid <= s.blocks_skipped);
        assert!(s.records_skipped_intra_mid <= s.records_skipped_intra);
        // A partial serve implies a live frontier, so intra-chunk skips
        // are mid-wavefront by construction.
        assert_eq!(s.blocks_skipped_mid, s.blocks_skipped);
    }
}

#[test]
fn selectivity_aware_stealing_preserves_results() {
    // The selectivity-scaled steal criterion changes who helps whom, but
    // never what is computed: selective (scaled D) and dense (unscaled D)
    // agree on states and aggregates even under an always-steal bias on a
    // collapsed frontier. (The scaling itself is unit-tested next to
    // Equation 2 in chaos-core.)
    let g = chaos::graph::builder::path(600).to_undirected();
    let mut cfg = test_config(3);
    cfg.mem_budget = 2 * 1024;
    cfg.steal_alpha = f64::INFINITY;
    let (rep_sel, states_sel) = run_chaos(cfg.clone(), Bfs::new(0), &g);
    let (rep_dense, states_dense) = run_chaos(cfg, DenseActivity(Bfs::new(0)), &g);
    assert_eq!(states_sel, states_dense);
    assert_eq!(rep_sel.iteration_aggs, rep_dense.iteration_aggs);
}
