//! End-to-end data integrity: checksummed frames, silent-corruption and
//! torn-write injection, and the detect–repair–scrub recovery ladder.
//!
//! Corruption windows flip bits *on the wire*, never in the stored chunk,
//! so the first rung of repair is a bounded-backoff re-read; a read that
//! stays corrupt through every probe waits the window out (and, for
//! checkpoint copies, rewrites the verified bytes). A *torn* checkpoint
//! write is the persistent case: it surfaces during rollback when the
//! torn chunk's frame check fails, and the cluster falls back one
//! snapshot down the depth-2 committed-checkpoint chain. Either way the
//! final vertex states must be bit-identical to the fault-free run, in
//! both streaming modes.

mod common;

use chaos::prelude::*;
use chaos::sim::SECS;
use common::{directed_graph, test_config};

/// A wide scripted window over the read-heavy start of the run, corrupting
/// roughly every other framed read on one machine.
fn wide_window(machine: usize) -> CorruptionFault {
    CorruptionFault {
        machine,
        from: 0,
        until: SECS,
        salt: 0x00DD_BA11,
        one_in: 2,
    }
}

#[test]
fn corruption_windows_detect_and_repair_without_changing_results() {
    let g = directed_graph(9);
    for streaming in [Streaming::Selective, Streaming::Reference] {
        let mut cfg = test_config(3);
        cfg.streaming = streaming;
        let (clean, clean_states) = run_chaos(cfg.clone(), Pagerank::new(4), &g);
        cfg.faults = FaultPlan::none().with_corruption_fault(wide_window(0));
        let (rep, states) = run_chaos(cfg, Pagerank::new(4), &g);
        let tag = format!("{streaming:?}");
        assert_eq!(clean_states, states, "{tag}: repair must be exact");
        assert_eq!(clean.iteration_aggs, rep.iteration_aggs, "{tag}");
        assert!(rep.faults.corruption_detected > 0, "{tag}: window never hit");
        assert!(rep.faults.corruption_repaired > 0, "{tag}: nothing repaired");
        assert!(
            rep.runtime > clean.runtime,
            "{tag}: re-reads must cost simulated time"
        );
        assert!(rep.faults.faulted_time > 0, "{tag}");
        assert_eq!(rep.faults.aborts, 0, "{tag}: detection alone never aborts");
        // Frames are always on; corruption only adds re-read charges.
        assert!(clean.faults.checksum_bytes > 0, "{tag}");
        assert!(
            rep.faults.checksum_bytes > clean.faults.checksum_bytes,
            "{tag}: repair re-reads re-verify frames"
        );
        assert_eq!(clean.faults.corruption_detected, 0, "{tag}");
    }
}

#[test]
fn torn_checkpoint_write_falls_back_down_the_depth2_chain() {
    // The crash tears machine 1's in-flight checkpoint write. Rollback
    // first restores from the newest committed snapshot; the torn chunk
    // fails its frame check through every bounded-backoff probe, the
    // engine reports the fallback, and the coordinator aborts again one
    // snapshot deeper — two aborts, two redone iterations, exact states.
    let g = directed_graph(10);
    let mut cfg = test_config(4);
    cfg.checkpoint = true;
    let (_, clean_states) = run_chaos(cfg.clone(), Pagerank::new(5), &g);
    cfg.faults = FaultPlan::none().with_crash(CrashFault {
        machine: 1,
        trigger: CrashTrigger::Iteration {
            iteration: 3,
            phase: chaos::core::msg::PhaseKind::Scatter,
        },
        downtime: SECS / 10,
        torn: true,
    });
    let (rep, states) = run_chaos(cfg, Pagerank::new(5), &g);
    assert_eq!(clean_states, states, "depth-2 recovery must be exact");
    assert_eq!(
        rep.faults.aborts, 2,
        "the tear forces a second, deeper abort"
    );
    assert_eq!(rep.faults.iterations_redone, 2);
    // Six probes of the torn chunk (the bounded-backoff retry budget)
    // all fail their frame check before the engine reports the tear.
    assert!(
        rep.faults.corruption_detected >= 6,
        "every probe of the torn chunk fails its frame check"
    );
    assert!(
        rep.faults.corruption_repaired >= 1,
        "the deeper restore repairs the torn chunk"
    );
    let log = &rep.faults.abort_log;
    assert!(log[1].gen > log[0].gen, "generations strictly increase");
}

#[test]
fn torn_flag_is_inert_without_a_rolled_back_iteration() {
    // A mid-commit crash promotes the pending snapshot instead of rolling
    // back, so there is no restore for the tear to surface in: the flag
    // must change nothing relative to the untorn run.
    let g = directed_graph(9);
    let mut cfg = test_config(3);
    cfg.checkpoint = true;
    let crash = |torn| {
        FaultPlan::none().with_crash(CrashFault {
            machine: 1,
            trigger: CrashTrigger::Commit { iteration: 2 },
            downtime: SECS / 10,
            torn,
        })
    };
    cfg.faults = crash(false);
    let (plain, plain_states) = run_chaos(cfg.clone(), Pagerank::new(4), &g);
    cfg.faults = crash(true);
    let (torn, torn_states) = run_chaos(cfg, Pagerank::new(4), &g);
    assert_eq!(plain_states, torn_states);
    assert_eq!(plain.runtime, torn.runtime);
    assert_eq!(plain.faults.aborts, 1);
    assert_eq!(torn.faults.aborts, 1);
    assert_eq!(torn.faults.iterations_redone, 0);
}

#[test]
fn failed_validation_drops_the_pending_snapshot_cluster_wide() {
    // A snapshot that fails the coordinator's validation round is dropped
    // on every machine — the committed chain stands and the run completes
    // with unchanged results, one dropped snapshot per engine.
    let g = directed_graph(9);
    let machines = 3;
    let mut cfg = test_config(machines);
    cfg.checkpoint = true;
    let (_, clean_states) = run_chaos(cfg.clone(), Pagerank::new(4), &g);
    let mut cluster = Cluster::new(cfg, Pagerank::new(4), &g).expect("valid");
    cluster.inject_pending_tear(0);
    let rep = cluster.run();
    assert_eq!(
        cluster.snapshots_dropped() as usize,
        machines,
        "one machine's tear drops the round on every machine"
    );
    assert_eq!(cluster.final_states(), clean_states);
    assert_eq!(rep.faults.aborts, 0, "a refused promote is not an abort");
    // Later rounds promote normally: the final committed checkpoint is the
    // last gather barrier's snapshot, i.e. the final state.
    assert_eq!(cluster.checkpoint_states(), clean_states);
}

#[test]
fn scrub_pass_verifies_every_stored_frame_between_iterations() {
    let g = directed_graph(9);
    let mut cfg = test_config(3);
    cfg.checkpoint = true;
    let (plain, plain_states) = run_chaos(cfg.clone(), Pagerank::new(4), &g);
    assert_eq!(plain.faults.frames_scrubbed, 0, "scrub is off by default");
    cfg.scrub = true;
    let (scrubbed, states) = run_chaos(cfg.clone(), Pagerank::new(4), &g);
    assert_eq!(plain_states, states, "scrubbing never changes results");
    assert!(scrubbed.faults.frames_scrubbed > 0);
    assert!(
        scrubbed.runtime > plain.runtime,
        "scrub reads cost simulated time"
    );
    assert!(scrubbed.faults.checksum_bytes > plain.faults.checksum_bytes);
    assert_eq!(scrubbed.faults.corruption_detected, 0, "no faults injected");
    // Scrub under an active corruption window: the scrubber's bulk read
    // draws from the same oracle, detects, re-reads, and the run still
    // converges to the same states.
    cfg.faults = FaultPlan::none().with_corruption_fault(wide_window(1));
    let (dirty, dirty_states) = run_chaos(cfg, Pagerank::new(4), &g);
    assert_eq!(plain_states, dirty_states);
    assert!(dirty.faults.corruption_detected > 0);
    assert!(dirty.faults.frames_scrubbed >= scrubbed.faults.frames_scrubbed);
}
