//! Checkpointing and multi-fault recovery (§6.6).
//!
//! Runs Pagerank with per-barrier two-phase checkpointing, then repeats
//! the run under a multi-fault schedule: two machine crashes in different
//! iterations plus a transient device-fault burst. The cluster rolls back
//! to the last committed checkpoint after each crash, the failed machines
//! reboot, interrupted iterations are redone, device errors are retried
//! with bounded backoff — and the final ranks are bit-identical to the
//! fault-free run.
//!
//! Run with: `cargo run --release --example failure_recovery`

use chaos::prelude::*;
use chaos::sim::SECS;

fn main() {
    let graph = RmatConfig::paper(13).generate();

    let mut cfg = ChaosConfig::new(8);
    cfg.checkpoint = true;
    cfg.chunk_bytes = 64 * 1024;

    let (clean, clean_states) = run_chaos(cfg.clone(), Pagerank::new(5), &graph);
    println!(
        "clean run:    {:.3} simulated s over {} iterations (checkpoint every barrier)",
        clean.seconds(),
        clean.iterations
    );

    // Checkpoint overhead vs no checkpointing (Figure 13: under 6%).
    let mut nock = cfg.clone();
    nock.checkpoint = false;
    let (bare, _) = run_chaos(nock, Pagerank::new(5), &graph);
    println!(
        "no checkpoints: {:.3} simulated s  (overhead {:+.1}%)",
        bare.seconds(),
        100.0 * (clean.runtime as f64 / bare.runtime as f64 - 1.0)
    );

    // The fault schedule: machine 3 dies during iteration 2's scatter,
    // machine 5 dies during iteration 4's scatter, and machine 0's device
    // rejects reads and writes for half a second just as the first reboot
    // completes — so the redo of iteration 2 runs straight into the
    // device-fault window and has to retry its way through.
    cfg.faults = FaultPlan::none()
        .with_crash(CrashFault {
            machine: 3,
            trigger: CrashTrigger::Iteration {
                iteration: 2,
                phase: chaos::core::msg::PhaseKind::Scatter,
            },
            downtime: 10 * SECS,
            torn: false,
        })
        .with_crash(CrashFault {
            machine: 5,
            trigger: CrashTrigger::Iteration {
                iteration: 4,
                phase: chaos::core::msg::PhaseKind::Scatter,
            },
            downtime: 30 * SECS,
            torn: false,
        })
        .with_device_fault(DeviceFault {
            machine: 0,
            from: 10 * SECS,
            until: 10 * SECS + SECS / 2,
            reads: true,
            writes: true,
        });
    let (failed, failed_states) = run_chaos(cfg, Pagerank::new(5), &graph);
    println!(
        "faulted run:  {:.3} simulated s (2 crashes + device burst)",
        failed.seconds()
    );
    let fa = &failed.faults;
    println!(
        "fault account: {} aborts, {} iterations redone, {} device retries,",
        fa.aborts, fa.iterations_redone, fa.device_retries
    );
    println!(
        "               {:.3} s lost to faults, {:.1} MiB checkpointed in {:.3} s",
        fa.faulted_time as f64 / 1e9,
        fa.checkpoint_bytes as f64 / (1024.0 * 1024.0),
        fa.checkpoint_time as f64 / 1e9
    );
    for a in &failed.abort_log {
        println!(
            "               abort @ {:.3} s -> gen {}, resume at iteration {} ({})",
            a.time as f64 / 1e9,
            a.gen,
            a.resume_iter,
            if a.redo { "redo" } else { "advance" }
        );
    }

    assert_eq!(clean_states.len(), failed_states.len());
    assert!(
        clean_states
            .iter()
            .zip(failed_states.iter())
            .all(|(a, b)| a.0 == b.0),
        "recovery must reproduce the fault-free ranks exactly"
    );
    assert!(failed.runtime > clean.runtime);
    println!("final ranks identical to the fault-free run ✓");
}
