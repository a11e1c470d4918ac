//! Each program's chunk methods over every record form the engine or the
//! sequential executor hands them. The chunk methods (`scatter_chunk`,
//! `gather_chunk`, `dead_edges`) are the trait's loops over the
//! per-record specification, generic over the edge and update records.
//!
//! - The record a program declares for the engine (`GasProgram::HeldEdge`)
//!   keeps every field it reads: each program runs through the cluster on a
//!   weighted graph and must compute what the sequential executor computes
//!   over `Edge`s. A program that declares the weightless `BareEdge` but
//!   reads a weight fails here, named.
//! - Scatter and the dead-edge count read the held record and `Edge`s
//!   alike, and gather folds the engine's partition-local `LocalUpdate`s,
//!   global `Update`s and the per-record `gather` into bit-identical
//!   accumulators, in every phase of every program.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use chaos::gas::record::encode_all;
use chaos::gas::{EdgeRecord, LocalUpdate, Update};
use chaos::graph::PartitionSpec;
use chaos::prelude::*;
use common::{close, test_config, undirected_graph, weighted_graph};

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

/// Every program computes on a weighted graph in the cluster what it
/// computes over `Edge`s — so the record it declares keeps every field it
/// reads.
#[test]
fn every_program_holds_the_edge_fields_it_reads() {
    let near = |a: f64, b: f64| close(a, b, 1e-4);
    let g = weighted_graph(300, 450, 11);
    assert_cluster_matches_sequential(Bfs::new(0), &g, PartialEq::eq);
    assert_cluster_matches_sequential(Wcc::new(), &g, PartialEq::eq);
    assert_cluster_matches_sequential(Mcst::new(), &g, PartialEq::eq);
    assert_cluster_matches_sequential(Mis::new(42), &g, PartialEq::eq);
    assert_cluster_matches_sequential(Sssp::new(0), &g, PartialEq::eq);
    assert_cluster_matches_sequential(Scc::new(), &g, PartialEq::eq);
    assert_cluster_matches_sequential(Pagerank::new(3), &g, |a, b| {
        near(a.0.into(), b.0.into()) && a.1 == b.1
    });
    assert_cluster_matches_sequential(Conductance::new(42), &g, PartialEq::eq);
    assert_cluster_matches_sequential(Spmv::new(2), &g, |a, b| {
        near(a.0.into(), b.0.into()) && near(a.1.into(), b.1.into())
    });
    assert_cluster_matches_sequential(BeliefPropagation::new(42, 3), &g, |a, b| near(*a, *b));
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
    assert!(
        checked.iter().all(|&n| n >= 3),
        "every program gathered: {checked:?}"
    );
}
