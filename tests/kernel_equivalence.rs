//! Batched-kernel ≡ per-record equivalence: running any workload with a
//! program's specialized `scatter_chunk`/`gather_chunk` kernels must be
//! bit-identical to running it through the default per-edge/per-update
//! loops (`PerRecordKernels<P>` pins the defaults while delegating every
//! scalar method).
//!
//! This is the contract that lets hot programs ship branch-light batched
//! bodies without owning any semantics: the per-record methods remain the
//! specification, the chunk kernels a pure optimization. Everything is
//! compared — final vertex states, simulated completion time, event
//! counts, device/fabric statistics and the records-streamed counter.
//!
//! Each program's one `gather_chunk` body serves both update record forms
//! — the engine's partition-local `LocalUpdate`s and global `Update`s —
//! and both must leave the accumulators exactly as the per-record
//! `gather` fold does. Likewise its one `scatter_chunk` and `dead_edges`
//! bodies serve both edge record forms — the engine's compact
//! `PackedEdge`s and `Edge`s — with identical updates and dead counts.

mod common;

use chaos::gas::record::encode_all;
use chaos::gas::{LocalUpdate, PackedEdge, Update};
use chaos::graph::PartitionSpec;
use chaos::prelude::*;
use common::{test_config, undirected_graph, weighted_graph};
use proptest::prelude::*;

/// Runs `program` specialized and per-record under the same config and
/// asserts bit-identical reports and states.
fn assert_kernels_equivalent<P: GasProgram>(cfg: ChaosConfig, program: P, g: &InputGraph)
where
    P::VertexState: PartialEq + std::fmt::Debug,
{
    let (rep_fast, states_fast) = run_chaos(cfg.clone(), program.clone(), g);
    let (rep_ref, states_ref) = run_chaos(cfg, PerRecordKernels(program), g);
    assert_eq!(states_fast, states_ref, "final vertex states must match");
    assert_eq!(
        rep_fast, rep_ref,
        "whole run report must be bit-identical across kernel paths"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_runs_are_kernel_invariant(
        machines in 1usize..5,
        pick in 0usize..8,
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
        match pick {
            0 => assert_kernels_equivalent(cfg, Pagerank::new(3), &g_dir),
            1 => assert_kernels_equivalent(cfg, Wcc::new(), &g_und),
            2 => assert_kernels_equivalent(cfg, Bfs::new(0), &g_und),
            3 => assert_kernels_equivalent(cfg, Spmv::new(2), &g_dir),
            4 => assert_kernels_equivalent(cfg, Mis::new(seed), &g_und),
            5 => assert_kernels_equivalent(cfg, BeliefPropagation::new(seed, 3), &g_dir),
            6 => assert_kernels_equivalent(cfg, Conductance::new(seed), &g_dir),
            _ => assert_kernels_equivalent(cfg, Sssp::new(0), &weighted_graph(400, 600, seed)),
        }
    }
}

#[test]
fn scc_backward_sweep_is_kernel_invariant() {
    // SCC's backward phases stream the destination-keyed edge copy with
    // `Direction::In`: the batched body reads scatter state from `e.dst`
    // and emits to `e.src`. FW-BW coloring exercises all four phases
    // (including the all-inactive BackwardInit and Reset iterations).
    let g = RmatConfig::paper(7).generate();
    assert_kernels_equivalent(test_config(3), Scc::new(), &g);
}

#[test]
fn mis_rounds_are_kernel_invariant() {
    // Luby select/notify alternation plus the Shrinking dead-edge scan
    // (PerRecordKernels pins `dead_edges` to the per-edge loop too, so
    // compaction decisions must also agree).
    let g = undirected_graph(7);
    assert_kernels_equivalent(test_config(3), Mis::new(42), &g);
}

#[test]
fn mcst_phase_switching_is_kernel_invariant() {
    // MCST exercises all four sub-phases (and with them every branch of
    // its specialized kernels) across many iterations.
    let g = weighted_graph(300, 450, 11);
    assert_kernels_equivalent(test_config(3), Mcst::new(), &g);
}

#[test]
fn stealing_is_kernel_invariant() {
    // Aggressive stealing makes stolen partitions stream through the
    // batched kernels on non-master machines.
    let mut cfg = test_config(3);
    cfg.steal_alpha = f64::INFINITY;
    assert_kernels_equivalent(cfg, Sssp::new(0), &weighted_graph(500, 800, 42));
}

#[test]
fn sequential_oracle_is_kernel_invariant() {
    // The in-memory reference executor routes through the same kernel API;
    // pin it too.
    let g = undirected_graph(7);
    let fast = run_sequential(Wcc::new(), &g, 10_000);
    let slow = run_sequential(PerRecordKernels(Wcc::new()), &g, 10_000);
    assert_eq!(fast.states, slow.states);
    assert_eq!(fast.iterations, slow.iterations);
}

/// Runs `program` sequentially for up to `iters` iterations. Every
/// scatter runs over the edges and over the same edges packed, asserting
/// the same updates (compared by their encoding, which spells out every
/// float) and the same dead-edge count. At every gather it folds each partition's updates three ways into fresh
/// accumulators — `gather_chunk` over `LocalUpdate`s, `gather_chunk` over
/// the same updates as global `Update`s, and the per-record `gather` —
/// asserting the three bit-identical (compared by their `Debug` form,
/// which spells out every float). The run advances on the result, so each
/// phase of a multi-phase program is reached. Returns the gathers checked.
fn assert_gather_forms_agree<P: GasProgram>(mut program: P, g: &InputGraph, iters: u32) -> u32
where
    P::Accum: std::fmt::Debug,
{
    let spec = PartitionSpec::with_partitions(g.num_vertices, 3);
    let degrees = g.out_degrees();
    let mut states: Vec<P::VertexState> = (0..g.num_vertices)
        .map(|v| program.init(v, degrees[v as usize]))
        .collect();
    let packed: Vec<PackedEdge> = g.edges.iter().map(PackedEdge::pack).collect();
    let mut checked = 0;
    for iter in 0..iters {
        let mut updates: Vec<Update<P::Update>> = Vec::new();
        program.scatter_chunk(0, &states, &g.edges, iter, &mut updates);
        let mut from_packed: Vec<Update<P::Update>> = Vec::new();
        program.scatter_chunk(0, &states, &packed, iter, &mut from_packed);
        let name = program.name();
        assert!(
            encode_all(&updates) == encode_all(&from_packed),
            "{name}, iteration {iter}: packed edges scatter differently"
        );
        assert_eq!(
            program.dead_edges(0, &states, &g.edges, iter),
            program.dead_edges(0, &states, &packed, iter),
            "{name}, iteration {iter}: packed edges count dead differently"
        );
        let mut accums: Vec<P::Accum> = Vec::new();
        for p in 0..spec.num_partitions {
            let range = spec.range(p);
            let base = range.start;
            let part_states = &states[range.start as usize..range.end as usize];
            let global: Vec<Update<P::Update>> = updates
                .iter()
                .filter(|u| range.contains(&u.dst))
                .cloned()
                .collect();
            let local: Vec<LocalUpdate<P::Update>> = global
                .iter()
                .map(|u| LocalUpdate {
                    off: (u.dst - base) as u32,
                    payload: u.payload.clone(),
                })
                .collect();
            let fresh = || vec![P::Accum::default(); part_states.len()];
            let (mut by_local, mut by_global, mut by_record) = (fresh(), fresh(), fresh());
            program.gather_chunk(base, part_states, &mut by_local, &local);
            program.gather_chunk(base, part_states, &mut by_global, &global);
            for u in &global {
                let off = (u.dst - base) as usize;
                program.gather(&mut by_record[off], u.dst, &part_states[off], &u.payload);
            }
            assert_eq!(
                format!("{by_local:?}"),
                format!("{by_record:?}"),
                "{name}, iteration {iter}, partition {p}: local records vs per-record gather"
            );
            assert_eq!(
                format!("{by_global:?}"),
                format!("{by_record:?}"),
                "{name}, iteration {iter}, partition {p}: global records vs per-record gather"
            );
            accums.extend(by_local);
            checked += 1;
        }
        let mut agg = IterationAggregates {
            updates_produced: updates.len() as u64,
            ..Default::default()
        };
        for (v, (s, a)) in states.iter_mut().zip(&accums).enumerate() {
            if program.apply(v as u64, s, a, iter) {
                agg.vertices_changed += 1;
            }
        }
        for s in &states {
            for (slot, x) in agg.custom.iter_mut().zip(program.aggregate(s)) {
                *slot += x;
            }
        }
        if program.end_iteration(iter, &agg) == Control::Done {
            break;
        }
    }
    checked
}

#[test]
fn gather_is_record_form_invariant_for_every_program() {
    let g_dir = RmatConfig::paper(7).generate();
    let g_und = undirected_graph(7);
    let g_w = weighted_graph(300, 450, 11);
    let checked = [
        assert_gather_forms_agree(Pagerank::new(3), &g_dir, 3),
        assert_gather_forms_agree(Wcc::new(), &g_und, 50),
        assert_gather_forms_agree(Bfs::new(0), &g_und, 50),
        assert_gather_forms_agree(Spmv::new(2), &g_dir, 2),
        assert_gather_forms_agree(Mis::new(42), &g_und, 100),
        assert_gather_forms_agree(BeliefPropagation::new(42, 3), &g_dir, 3),
        assert_gather_forms_agree(Conductance::new(42), &g_dir, 2),
        assert_gather_forms_agree(Sssp::new(0), &g_w, 400),
        // Forward, backward and reset phases, streamed both directions.
        assert_gather_forms_agree(Scc::new(), &g_dir, 60),
        // All four MCST sub-phases.
        assert_gather_forms_agree(Mcst::new(), &g_w, 200),
    ];
    assert!(checked.iter().all(|&n| n >= 3), "every program gathered: {checked:?}");
}
