//! Checkpointing and transient-failure recovery (§6.6).
//!
//! The scripted single-crash shapes live here, together with the directed
//! edge cases of the fault-plan protocol: crashes during the
//! checkpoint-commit round, two machines failing in the same iteration,
//! and a second crash landing while a prior abort is still in flight.
//! Randomized multi-fault schedules are soaked in `chaos_soak.rs`.

mod common;

use chaos::core::msg::PhaseKind;
use chaos::prelude::*;
use chaos::sim::SECS;
use common::{directed_graph, test_config};

#[test]
fn checkpoint_overhead_is_small() {
    let g = directed_graph(11);
    let mut cfg = test_config(4);
    cfg.mem_budget = 1 << 30;
    let (bare, _) = run_chaos(cfg.clone(), Pagerank::new(5), &g);
    cfg.checkpoint = true;
    let (ck, _) = run_chaos(cfg, Pagerank::new(5), &g);
    let overhead = ck.runtime as f64 / bare.runtime as f64 - 1.0;
    assert!(overhead >= 0.0);
    assert!(
        overhead < 0.15,
        "checkpoint overhead {overhead:.3} too high"
    );
    assert!(ck.faults.checkpoint_bytes > 0);
    assert!(ck.faults.checkpoint_time > 0);
    assert_eq!(bare.faults.checkpoint_bytes, 0);
}

#[test]
fn checkpoint_content_matches_final_state_after_completion() {
    let g = directed_graph(9);
    let mut cfg = test_config(3);
    cfg.checkpoint = true;
    let mut cluster = Cluster::new(cfg, Pagerank::new(3), &g).expect("valid");
    let _ = cluster.run();
    // The last committed checkpoint was taken at the final gather barrier,
    // so it equals the final state.
    assert_eq!(cluster.final_states(), cluster.checkpoint_states());
}

#[test]
fn recovery_reproduces_failure_free_results_exactly() {
    let g = directed_graph(10);
    for fail_iter in [1u32, 3] {
        let mut cfg = test_config(5);
        cfg.checkpoint = true;
        let (clean, clean_states) = run_chaos(cfg.clone(), Pagerank::new(4), &g);
        cfg.faults = FaultPlan::crash(2, fail_iter, 30 * SECS);
        let (failed, failed_states) = run_chaos(cfg, Pagerank::new(4), &g);
        assert_eq!(
            clean_states, failed_states,
            "iter {fail_iter}: recovery must be exact"
        );
        assert!(
            failed.runtime > clean.runtime,
            "redoing an iteration plus reboot takes longer"
        );
        assert!(failed.runtime - clean.runtime >= 30 * SECS);
        assert_eq!(failed.faults.aborts, 1);
        assert_eq!(failed.faults.iterations_redone, 1);
        assert_eq!(clean.faults.aborts, 0);
    }
}

#[test]
fn configured_downtime_shifts_the_runtime_by_its_delta() {
    // Regression: `downtime` used to be silently ignored (the coordinator
    // hardcoded a 30 s reboot). Two otherwise identical runs whose only
    // difference is the configured downtime must differ by that delta.
    let g = directed_graph(9);
    let base = {
        let mut cfg = test_config(3);
        cfg.checkpoint = true;
        cfg
    };
    let mut fast = base.clone();
    fast.faults = FaultPlan::crash(1, 2, 0);
    let (quick, quick_states) = run_chaos(fast, Pagerank::new(4), &g);
    let mut slow_cfg = base;
    slow_cfg.faults = FaultPlan::crash(1, 2, 120 * SECS);
    let (slow, slow_states) = run_chaos(slow_cfg, Pagerank::new(4), &g);
    assert_eq!(quick_states, slow_states);
    let delta = slow.runtime - quick.runtime;
    let want = 120 * SECS;
    assert!(
        delta >= want - SECS / 2 && delta <= want + SECS / 2,
        "120 s of configured downtime must surface in the runtime, got {delta} ns"
    );
}

#[test]
fn recovery_works_for_convergence_driven_algorithms() {
    // BFS converges by aggregate, exercising end_iteration replay across
    // the abort path.
    let g = directed_graph(9).to_undirected();
    let mut cfg = test_config(4);
    cfg.checkpoint = true;
    let (_, clean) = run_chaos(cfg.clone(), Bfs::new(0), &g);
    cfg.faults = FaultPlan::crash(0, 2, 0);
    let (_, failed) = run_chaos(cfg, Bfs::new(0), &g);
    assert_eq!(clean, failed);
}

#[test]
fn failure_requires_checkpointing() {
    let mut cfg = test_config(2);
    cfg.faults = FaultPlan::crash(0, 1, 0);
    assert!(cfg.validate().is_err());
}

#[test]
fn crash_during_checkpoint_commit_promotes_the_pending_snapshot() {
    // The crash lands between the coordinator's commit broadcast and the
    // last CheckpointCommitAck. Every machine had already finished its
    // copy phase, so the pending snapshot is globally consistent: recovery
    // finishes the commit and advances — no iteration is redone.
    let g = directed_graph(9);
    let mut cfg = test_config(3);
    cfg.checkpoint = true;
    let (_, clean) = run_chaos(cfg.clone(), Pagerank::new(4), &g);
    cfg.faults = FaultPlan::none().with_crash(CrashFault {
        machine: 1,
        trigger: CrashTrigger::Commit { iteration: 2 },
        downtime: SECS / 10,
        torn: false,
    });
    let (failed, states) = run_chaos(cfg, Pagerank::new(4), &g);
    assert_eq!(clean, states);
    assert_eq!(failed.faults.aborts, 1);
    assert_eq!(
        failed.faults.iterations_redone, 0,
        "a mid-commit crash promotes the snapshot instead of redoing"
    );
}

#[test]
fn two_machines_failing_the_same_iteration_recover_exactly() {
    // Both crashes target iteration 2's scatter barrier. The first fires
    // at the first arrival; after rollback, reboot and redo, the barrier
    // is reached again and the second trigger fires — the same iteration
    // fails twice with strictly increasing generations.
    let g = directed_graph(9);
    let mut cfg = test_config(3);
    cfg.checkpoint = true;
    let (_, clean) = run_chaos(cfg.clone(), Pagerank::new(4), &g);
    cfg.faults = FaultPlan::none()
        .with_crash(CrashFault {
            machine: 0,
            trigger: CrashTrigger::Iteration {
                iteration: 2,
                phase: PhaseKind::Scatter,
            },
            downtime: 0,
            torn: false,
        })
        .with_crash(CrashFault {
            machine: 1,
            trigger: CrashTrigger::Iteration {
                iteration: 2,
                phase: PhaseKind::Scatter,
            },
            downtime: SECS / 20,
            torn: false,
        });
    let (failed, states) = run_chaos(cfg, Pagerank::new(4), &g);
    assert_eq!(clean, states);
    assert_eq!(failed.faults.aborts, 2);
    assert_eq!(failed.faults.iterations_redone, 2);
    assert!(failed.abort_log[1].gen > failed.abort_log[0].gen);
}

#[test]
fn crash_during_abort_collection_composes_recoveries() {
    // A second crash lands while the cluster is still recovering from the
    // first (AbortAcks outstanding / reboot pending). The coordinator must
    // re-send the abort under a newer generation and keep the original
    // resume decision; stale acks of the dead generation are dropped by
    // the dispatch filter.
    let g = directed_graph(9);
    let downtime = SECS / 5;
    // Learn when the first abort happens from a scout run...
    let mut cfg = test_config(3);
    cfg.checkpoint = true;
    let (_, clean) = run_chaos(cfg.clone(), Pagerank::new(4), &g);
    cfg.faults = FaultPlan::crash(1, 2, downtime);
    let (scout, _) = run_chaos(cfg.clone(), Pagerank::new(4), &g);
    assert_eq!(scout.faults.aborts, 1);
    let t_abort = scout.abort_log[0].time;
    // ...then schedule a time-triggered crash just inside its recovery
    // window.
    let mut cfg2 = cfg.clone();
    cfg2.faults = cfg2.faults.with_crash(CrashFault {
        machine: 2,
        trigger: CrashTrigger::Time(t_abort + SECS / 1000),
        downtime,
        torn: false,
    });
    let (failed, states) = run_chaos(cfg2, Pagerank::new(4), &g);
    assert_eq!(clean, states);
    assert_eq!(failed.faults.aborts, 2);
    let log = &failed.abort_log;
    assert!(log[1].gen > log[0].gen, "generations strictly increase");
    assert!(
        log[1].time > log[0].time && log[1].time < log[0].time + downtime,
        "second crash must land inside the first recovery window"
    );
    // One interrupted iteration, resumed once: the redo happens once
    // even though the abort was broadcast twice.
    assert_eq!(failed.faults.iterations_redone, 1);
}

#[test]
fn device_and_fabric_faults_delay_but_do_not_corrupt() {
    // A read+write fault burst over pre-processing plus a straggler NIC
    // window: the run slows down, the retries are accounted, and the
    // final states match the fault-free run bit for bit.
    let g = directed_graph(9);
    let mut cfg = test_config(3);
    let (clean, clean_states) = run_chaos(cfg.clone(), Pagerank::new(4), &g);
    cfg.faults = FaultPlan::none()
        .with_device_fault(DeviceFault {
            machine: 0,
            from: 0,
            until: SECS / 20,
            reads: true,
            writes: true,
        })
        .with_fabric_fault(FabricFault {
            machine: 1,
            from: 0,
            until: SECS / 10,
            extra: 200 * chaos::sim::MICROS,
        });
    let (faulted, states) = run_chaos(cfg, Pagerank::new(4), &g);
    assert_eq!(clean_states, states);
    assert!(faulted.faults.device_retries > 0, "the burst must be hit");
    assert!(faulted.faults.faulted_time > 0);
    assert!(faulted.runtime > clean.runtime);
    assert_eq!(faulted.faults.aborts, 0);
}
