//! Event-queue invariance: the calendar queue is a *host-side*
//! optimization of the executor — every simulated quantity (final vertex
//! states, completion time, event count, device/fabric statistics) must
//! be bit-identical to the binary-heap reference, for every program.

mod common;

use chaos::prelude::*;
use chaos::storage::ScratchDir;
use common::{directed_graph, run_on_heap, test_config, undirected_graph, weighted_graph};

/// Runs `(cfg, program, graph)` on the calendar queue (the default) and on
/// the binary-heap reference and asserts the final states and the whole
/// report match. Returns the calendar report for further assertions.
fn assert_queue_invariant<P: GasProgram>(cfg: ChaosConfig, program: P, g: &InputGraph) -> RunReport
where
    P::VertexState: std::fmt::Debug + PartialEq,
{
    let (rep_ref, states_ref) = run_on_heap(cfg.clone(), program.clone(), g);
    let (rep, states) = run_chaos(cfg, program, g);
    assert_eq!(states_ref, states, "final states must match");
    assert_eq!(rep_ref, rep, "whole report must match");
    rep
}

#[test]
fn all_ten_programs_are_queue_invariant() {
    // Every Table 1 algorithm. Graphs are small but multi-partition (see
    // `test_config`), so requests, steals and barriers all flow.
    let d = directed_graph(7);
    let u = undirected_graph(7);
    let w = weighted_graph(400, 600, 7);
    let cfg = || test_config(3);
    assert_queue_invariant(cfg(), Pagerank::new(3), &d);
    assert_queue_invariant(cfg(), Spmv::new(2), &d);
    assert_queue_invariant(cfg(), Scc::new(), &d);
    assert_queue_invariant(cfg(), BeliefPropagation::new(3, 4), &d);
    assert_queue_invariant(cfg(), Wcc::new(), &u);
    assert_queue_invariant(cfg(), Bfs::new(0), &u);
    assert_queue_invariant(cfg(), Mis::new(5), &u);
    assert_queue_invariant(cfg(), Conductance::new(9), &u);
    assert_queue_invariant(cfg(), Sssp::new(0), &w);
    assert_queue_invariant(cfg(), Mcst::new(), &w);
}

#[test]
fn stealing_is_queue_invariant() {
    // Locality-seeking placement plus always-steal maximizes the
    // master/stealer accumulator exchange — and with LocalOnly placement
    // every chunk request hits the local storage engine, so bursts of
    // same-time local deliveries lean on the queue's insertion-order
    // tie-break.
    let g = weighted_graph(600, 900, 42);
    let mut cfg = test_config(3);
    cfg.placement = Placement::LocalOnly;
    cfg.steal_alpha = f64::INFINITY;
    assert_queue_invariant(cfg, Sssp::new(0), &g);
}

#[test]
fn mcst_phase_switching_is_queue_invariant() {
    // MCST alternates scatter directions across phases (the paper's
    // forward/backward sweeps) — the heaviest user of the reverse edge
    // copy and of barrier-released phase switches.
    let g = weighted_graph(500, 800, 11);
    assert_queue_invariant(test_config(3), Mcst::new(), &g);
}

#[test]
fn spill_under_pressure_is_queue_invariant() {
    // A tiny memory budget over real spill files: many partitions, every
    // structure round-tripping through storage, device timers interleaved
    // with request traffic.
    let g = directed_graph(9);
    let scratch = ScratchDir::new("chaos-test-queue-spill").expect("scratch");
    let mut cfg = test_config(4);
    cfg.mem_budget = 1024;
    cfg.chunk_bytes = 4 * 1024;
    cfg.spill_dir = Some(scratch.path().to_path_buf());
    let rep = assert_queue_invariant(cfg, Pagerank::new(3), &g);
    assert!(rep.partitions > 1, "budget must force multiple partitions");
}

#[test]
fn failure_recovery_is_queue_invariant() {
    // Generation bumps, stale-message drops and the reboot self-event:
    // the paths most sensitive to event ordering.
    let g = undirected_graph(8);
    let mut cfg = test_config(3);
    cfg.checkpoint = true;
    cfg.faults = FaultPlan::crash(1, 1, chaos::sim::SECS);
    assert_queue_invariant(cfg, Wcc::new(), &g);
}
