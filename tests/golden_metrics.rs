//! Golden `--metrics-json` output: eight labelled runs whose every
//! simulated counter — runtime, events, records, the whole selectivity
//! account and the whole fault account — is pinned byte for byte in
//! `tests/golden/metrics.json`. The keys are `RunReport::counters` and,
//! per iteration, `IterSelectivity::counters`, so a counter declared in
//! `chaos-core`'s `metrics.rs` shows up here with no other edit (and
//! fails this test until the golden is regenerated).
//!
//! Six cells are `cellstats`' geometry (4 machines, scale 10, 32 KiB
//! chunks, 256 KiB memory budget) for {PR, BFS, MCST} × {clean,
//! seed-2 generated fault plan + checkpointing + scrub}; each run object
//! equals what `cellstats <ALGO> 4 10 [--fault-seed 2 --scrub]
//! --metrics-json` writes, apart from the label. The generated plans
//! never hit a device window at this scale, so two scripted runs add the
//! remaining retry ladders: `device_burst` (a device fault burst plus a
//! slow NIC, `device_retries` > 0) and `torn_fallback` (a torn checkpoint
//! write probed through the backoff budget, then the depth-2 fallback).
//!
//! On a mismatch the test writes the fresh dump to
//! `target/golden/metrics.json` and fails, naming the first differing
//! line (`common::golden_diff`). To regenerate after an intended change of a simulated quantity:
//! `cargo test --test golden_metrics`, then copy
//! `target/golden/metrics.json` over `tests/golden/metrics.json` and say
//! in the change which quantity moved and why.

mod common;

use chaos::bench::cellstats::Cell;
use chaos::prelude::*;
use chaos::sim::{MICROS, SECS};
use common::{directed_graph, test_config};

/// One `cellstats <algo> 4 10` cell, clean or under the seed-2 plan with
/// checkpointing and scrub.
fn cell(algo: &str, faulted: bool) -> (String, RunReport) {
    let machines = 4;
    let cell = Cell {
        algo,
        machines,
        scale: 10,
        fault_seed: faulted.then_some(2),
        scrub: faulted,
    };
    let (rep, _) = cell.run(&mut |_| {}).expect("a valid cell");
    let mode = if faulted { "seed2-scrub" } else { "clean" };
    (format!("{algo}/m{machines}/{mode}"), rep)
}

/// `fault_tolerance::device_and_fabric_faults_delay_but_do_not_corrupt`'s
/// run: every device operation of the burst goes through the retry ladder.
fn device_burst() -> (String, RunReport) {
    let mut cfg = test_config(3);
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
            extra: 200 * MICROS,
        });
    let rep = run_chaos(cfg, Pagerank::new(4), &directed_graph(9)).0;
    ("device_burst".to_string(), rep)
}

/// `integrity::torn_checkpoint_write_falls_back_down_the_depth2_chain`'s
/// run: the torn-checkpoint probe spends its whole backoff budget.
fn torn_fallback() -> (String, RunReport) {
    let mut cfg = test_config(4);
    cfg.checkpoint = true;
    cfg.faults = FaultPlan::none().with_crash(CrashFault {
        machine: 1,
        trigger: CrashTrigger::Iteration {
            iteration: 3,
            phase: chaos::core::msg::PhaseKind::Scatter,
        },
        downtime: SECS / 10,
        torn: true,
    });
    let rep = run_chaos(cfg, Pagerank::new(5), &directed_graph(10)).0;
    ("torn_fallback".to_string(), rep)
}

#[test]
fn metrics_json_matches_the_golden_file() {
    let mut runs = Vec::new();
    for algo in ["PR", "BFS", "MCST"] {
        for faulted in [false, true] {
            runs.push(cell(algo, faulted));
        }
    }
    runs.push(device_burst());
    runs.push(torn_fallback());
    let fresh = chaos::bench::metrics_json(&runs);
    if let Some(diff) = common::golden_diff("metrics.json", &fresh) {
        panic!("metrics JSON {diff}");
    }
}
