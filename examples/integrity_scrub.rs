//! End-to-end data integrity: checksum frames, silent corruption, scrub.
//!
//! Every sealed edge chunk, vertex spill and checkpoint snapshot travels
//! with a checksum frame that is verified on every read. This example
//! runs Pagerank three ways: clean, under a silent-corruption window
//! (bit-flips on the wire, caught by the frame check and repaired with
//! bounded-backoff re-reads), and under a crash that *tears* an in-flight
//! checkpoint write — which surfaces later, during rollback, and forces
//! the cluster one snapshot down the depth-2 committed-checkpoint chain.
//! A between-iterations scrub pass is enabled throughout, and the final
//! ranks of every variant are bit-identical.
//!
//! Run with: `cargo run --release --example integrity_scrub`

use chaos::prelude::*;
use chaos::sim::SECS;

fn main() {
    let graph = RmatConfig::paper(13).generate();

    let mut cfg = ChaosConfig::new(8);
    cfg.checkpoint = true;
    cfg.scrub = true;
    cfg.chunk_bytes = 64 * 1024;

    let (clean, clean_states) = run_chaos(cfg.clone(), Pagerank::new(5), &graph);
    println!(
        "clean run:     {:.3} simulated s, {} frames scrubbed, {:.1} KiB of checksum frames",
        clean.seconds(),
        clean.faults.frames_scrubbed,
        clean.faults.checksum_bytes as f64 / 1024.0
    );

    // A corruption window: for the first two simulated seconds, one in
    // three framed reads on machine 2 fails its checksum check. The
    // stored bytes are fine — the wire flipped bits — so the bounded-
    // backoff re-read ladder repairs every episode.
    let mut corrupt = cfg.clone();
    corrupt.faults = FaultPlan::none().with_corruption_fault(CorruptionFault {
        machine: 2,
        from: 0,
        until: 2 * SECS,
        salt: 0xB17F_11B5,
        one_in: 3,
    });
    let (dirty, dirty_states) = run_chaos(corrupt, Pagerank::new(5), &graph);
    println!(
        "corrupted run: {:.3} simulated s, {} corruptions detected, {} repaired",
        dirty.seconds(),
        dirty.faults.corruption_detected,
        dirty.faults.corruption_repaired
    );

    // A torn checkpoint write: machine 4 crashes during iteration 3's
    // scatter with a checkpoint copy in flight, persisting only a prefix.
    // The tear is silent until rollback re-reads the torn chunk, every
    // frame-check probe fails, and the coordinator aborts a second time —
    // one snapshot deeper.
    let mut torn = cfg.clone();
    torn.faults = FaultPlan::none().with_crash(CrashFault {
        machine: 4,
        trigger: CrashTrigger::Iteration {
            iteration: 3,
            phase: chaos::core::msg::PhaseKind::Scatter,
        },
        downtime: 10 * SECS,
        torn: true,
    });
    let (fallback, fallback_states) = run_chaos(torn, Pagerank::new(5), &graph);
    println!(
        "torn-write run: {:.3} simulated s, {} aborts ({} iterations redone) — \
         depth-2 checkpoint fallback",
        fallback.seconds(),
        fallback.faults.aborts,
        fallback.faults.iterations_redone
    );
    for a in &fallback.abort_log {
        println!(
            "               abort @ {:.3} s -> gen {}, resume at iteration {} ({})",
            a.time as f64 / 1e9,
            a.gen,
            a.resume_iter,
            if a.redo { "redo" } else { "advance" }
        );
    }

    assert_eq!(clean_states, dirty_states, "repair must be exact");
    assert_eq!(clean_states, fallback_states, "fallback must be exact");
    assert!(dirty.faults.corruption_detected > 0);
    assert_eq!(fallback.faults.aborts, 2, "the tear forces a deeper abort");
    println!("final ranks identical across all three runs ✓");
}
