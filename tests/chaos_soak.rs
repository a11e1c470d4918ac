//! Chaos-soak recovery harness: randomized multi-fault schedules.
//!
//! For a battery of seeds, [`FaultPlan::generate`] derives a schedule of
//! machine crashes (half of them tearing their in-flight checkpoint
//! write), device-fault windows, fabric stragglers and silent-corruption
//! windows, and the run must end with final vertex states
//! **bit-identical** to the fault-free run of the same
//! `(config, program, graph)` — in selective and reference streaming
//! modes, for an aggregate-converging, a frontier and a stateful
//! multi-phase algorithm.
//!
//! On top of each generated schedule the soak scripts one wide, early
//! corruption window (machine 0, one-in-two reads), so every schedule is
//! guaranteed to exercise the detect–repair ladder — the generated window
//! alone can land on an idle machine or a quiet stretch.
//!
//! Recovery invariants checked on every faulted run:
//! - any schedule with at least one crash records at least one abort and
//!   at least one redone iteration (the generator anchors its first crash
//!   at an early scatter barrier, which always rolls back and redoes);
//! - abort generations strictly increase (no dead-generation events are
//!   ever absorbed — a stale-gen ack or barrier reaching the coordinator
//!   would corrupt the counts and break the state equality asserted here);
//! - the faulted run converges to the same iteration count and aggregates
//!   as the fault-free run.
//!
//! `CHAOS_SOAK_SEEDS` overrides the seed count (default 20).

mod common;

use chaos::prelude::*;
use common::{directed_graph, test_config, undirected_graph, weighted_graph};

fn soak_seeds() -> u64 {
    std::env::var("CHAOS_SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20)
}

/// Runs the full seed battery for one program over one graph, comparing
/// every faulted run against the fault-free baseline of the same config.
fn soak<P>(program: P, graph: &chaos::graph::InputGraph, label: &str)
where
    P: GasProgram,
    P::VertexState: PartialEq + std::fmt::Debug,
{
    let machines = 4;
    let shape = FaultPlanConfig::soak(machines);
    for streaming in [Streaming::Selective, Streaming::Reference] {
        let mut base = test_config(machines);
        base.streaming = streaming;
        base.checkpoint = true;
        let (clean, clean_states) = run_chaos(base.clone(), program.clone(), graph);
        assert_eq!(clean.faults.aborts, 0);
        for seed in 0..soak_seeds() {
            let plan = FaultPlan::generate(seed, &shape).with_corruption_fault(
                CorruptionFault {
                    machine: 0,
                    from: 0,
                    until: chaos::sim::SECS,
                    salt: seed ^ 0x5C0B_B1E5,
                    one_in: 2,
                },
            );
            let crashes = plan.crashes.len();
            let mut cfg = base.clone();
            cfg.faults = plan;
            let (rep, states) = run_chaos(cfg, program.clone(), graph);
            let tag = format!("{label} seed {seed} {streaming:?}");
            assert_eq!(clean_states, states, "{tag}: states must be bit-identical");
            assert_eq!(
                clean.iteration_aggs, rep.iteration_aggs,
                "{tag}: per-iteration aggregates must match"
            );
            assert!(
                rep.faults.corruption_detected >= 1,
                "{tag}: the scripted window must be exercised"
            );
            assert!(
                rep.faults.corruption_repaired >= 1,
                "{tag}: every detected corruption must be repaired"
            );
            if crashes > 0 {
                assert!(rep.faults.aborts >= 1, "{tag}: crash schedule, no abort");
                assert!(
                    rep.faults.iterations_redone >= 1,
                    "{tag}: crash schedule, nothing redone"
                );
            }
            assert_eq!(rep.faults.aborts as usize, rep.faults.abort_log.len());
            for pair in rep.faults.abort_log.windows(2) {
                assert!(
                    pair[1].gen > pair[0].gen && pair[1].time >= pair[0].time,
                    "{tag}: abort generations must strictly increase"
                );
            }
        }
    }
}

#[test]
fn pagerank_soaks_clean() {
    soak(Pagerank::new(4), &directed_graph(8), "pagerank");
}

#[test]
fn bfs_soaks_clean() {
    soak(Bfs::new(0), &undirected_graph(8), "bfs");
}

#[test]
fn mcst_soaks_clean() {
    soak(Mcst::new(), &weighted_graph(220, 260, 7), "mcst");
}

/// Host-side and layout axes under a faulted schedule: the heap event
/// queue (vs the calendar default) must not perturb the simulation at
/// all — identical report — and chunk-granularity serving
/// (`block_records = 0`) must still converge to identical states with
/// identical fault accounting under the same seeded schedule.
#[test]
fn seeded_schedules_survive_queue_and_block_index_axes() {
    let machines = 4;
    let g = directed_graph(8);
    let seed = 3;
    let mut base = test_config(machines);
    base.checkpoint = true;
    base.faults = FaultPlan::generate(seed, &FaultPlanConfig::soak(machines))
        .with_corruption_fault(CorruptionFault {
            machine: 0,
            from: 0,
            until: chaos::sim::SECS,
            salt: seed ^ 0x5C0B_B1E5,
            one_in: 2,
        });
    let (calendar, calendar_states) = run_chaos(base.clone(), Pagerank::new(4), &g);
    assert!(calendar.faults.corruption_detected >= 1);

    let mut heap = base.clone();
    heap.queue = QueueKind::Heap;
    let (heap_rep, heap_states) = run_chaos(heap, Pagerank::new(4), &g);
    assert_eq!(calendar_states, heap_states, "queue kind is host-side only");
    assert_eq!(calendar.runtime, heap_rep.runtime);
    assert_eq!(calendar.faults.corruption_detected, heap_rep.faults.corruption_detected);
    assert_eq!(calendar.faults.checksum_bytes, heap_rep.faults.checksum_bytes);
    assert_eq!(calendar.faults.aborts, heap_rep.faults.aborts);

    let mut coarse = base.clone();
    coarse.block_records = 0;
    let (coarse_rep, coarse_states) = run_chaos(coarse, Pagerank::new(4), &g);
    assert_eq!(
        calendar_states, coarse_states,
        "chunk-granularity serving changes layout, never results"
    );
    assert_eq!(calendar.faults.aborts, coarse_rep.faults.aborts);
    assert!(coarse_rep.faults.corruption_detected >= 1);
    assert_eq!(coarse_rep.blocks_skipped(), 0, "no block indexes to skip with");
}
