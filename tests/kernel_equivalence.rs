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
//! bodies serve both edge record forms — the record the program declares
//! for the engine (`GasProgram::HeldEdge`) and `Edge`s — with identical
//! updates and dead counts.
//!
//! The declared record is checked against the sequential executor over
//! `Edge`s on a weighted graph: a program that declares the weightless
//! `BareEdge` but reads a weight fails here, named, whether it reads it in
//! a chunk kernel (a panic) or in a per-edge body (a NaN weight).

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use chaos::gas::record::encode_all;
use chaos::gas::{EdgeRecord, LocalUpdate, Update};
use chaos::graph::PartitionSpec;
use chaos::prelude::*;
use common::{close, test_config, undirected_graph, weighted_graph};
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

/// Runs `program` through a three-machine `Cluster` and through the
/// sequential executor over `g`'s `Edge`s, and asserts the same iteration
/// count and, vertex by vertex, `same` final states. A panic inside either
/// run is raised again naming the program and the record it holds.
fn assert_cluster_matches_sequential<P: GasProgram>(
    program: P,
    g: &InputGraph,
    same: impl Fn(&P::VertexState, &P::VertexState) -> bool,
) {
    let name = program.name();
    let held = std::any::type_name::<P::HeldEdge>();
    let runs = catch_unwind(AssertUnwindSafe(|| {
        let seq = run_sequential(program.clone(), g, 10_000);
        (seq, run_chaos(test_config(3), program, g))
    }));
    let (seq, (report, states)) = runs.unwrap_or_else(|panic| {
        let why = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("?");
        panic!("{name} holding {held}: the run panicked: {why}")
    });
    assert_eq!(
        report.iterations,
        seq.num_iterations(),
        "{name} holding {held}: iterations"
    );
    for (v, (got, want)) in states.iter().zip(&seq.states).enumerate() {
        assert!(
            same(got, want),
            "{name} holding {held}: vertex {v} is {got:?} in the cluster, {want:?} sequentially"
        );
    }
}

/// Every program, with its own kernels and pinned to the per-record ones,
/// computes on a weighted graph in the cluster what it computes over
/// `Edge`s — so the record it declares keeps every field it reads.
#[test]
fn every_program_holds_the_edge_fields_it_reads() {
    fn run<P: GasProgram>(
        program: P,
        g: &InputGraph,
        same: impl Fn(&P::VertexState, &P::VertexState) -> bool + Copy,
    ) {
        assert_cluster_matches_sequential(program.clone(), g, same);
        assert_cluster_matches_sequential(PerRecordKernels(program), g, same);
    }
    let near = |a: f64, b: f64| close(a, b, 1e-4);
    let g = weighted_graph(300, 450, 11);
    run(Bfs::new(0), &g, PartialEq::eq);
    run(Wcc::new(), &g, PartialEq::eq);
    run(Mcst::new(), &g, PartialEq::eq);
    run(Mis::new(42), &g, PartialEq::eq);
    run(Sssp::new(0), &g, PartialEq::eq);
    run(Scc::new(), &g, PartialEq::eq);
    run(Pagerank::new(3), &g, |a, b| {
        near(a.0.into(), b.0.into()) && a.1 == b.1
    });
    run(Conductance::new(42), &g, PartialEq::eq);
    run(Spmv::new(2), &g, |a, b| {
        near(a.0.into(), b.0.into()) && near(a.1.into(), b.1.into())
    });
    run(BeliefPropagation::new(42, 3), &g, |a, b| near(*a, *b));
}

/// Runs `program` sequentially for up to `iters` iterations. Every
/// scatter runs over the edges and over the same edges in the record the
/// program holds (`GasProgram::HeldEdge`), asserting
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
    let packed: Vec<P::HeldEdge> = g.edges.iter().map(EdgeRecord::pack).collect();
    let mut checked = 0;
    for iter in 0..iters {
        let mut updates: Vec<Update<P::Update>> = Vec::new();
        program.scatter_chunk(0, &states, &g.edges, iter, &mut updates);
        let mut from_packed: Vec<Update<P::Update>> = Vec::new();
        program.scatter_chunk(0, &states, &packed, iter, &mut from_packed);
        let name = program.name();
        assert!(
            encode_all(&updates) == encode_all(&from_packed),
            "{name}, iteration {iter}: held edges scatter differently"
        );
        assert_eq!(
            program.dead_edges(0, &states, &g.edges, iter),
            program.dead_edges(0, &states, &packed, iter),
            "{name}, iteration {iter}: held edges count dead differently"
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
