//! Smoke tests: every experiment harness runs end to end at a tiny scale.

use crate::harness::{Harness, Scale};
use crate::{run_experiment, EXPERIMENTS};

fn tiny() -> Harness {
    Harness::new(Scale {
        base_scale: 7,
        chunk_bytes: 8 * 1024,
        mem_budget: 16 * 1024,
        machines: &[1, 2, 4],
        all_algorithms: false,
        streaming: chaos_core::Streaming::Selective,
        cluster_bins: None,
        block_records: None,
        queue: chaos_core::QueueKind::default(),
    })
}

#[test]
fn cheap_experiments_run() {
    let h = tiny();
    for id in ["table1", "fig5", "fig13", "fig16", "fig18", "fig20"] {
        run_experiment(id, &h);
    }
}

#[test]
fn scaling_experiments_run() {
    let h = tiny();
    for id in ["fig7", "fig8", "fig9", "fig11", "fig12", "fig14", "fig15", "fig19"] {
        run_experiment(id, &h);
    }
}

#[test]
fn remaining_experiments_run() {
    let h = tiny();
    for id in ["cap", "fig10", "fig17", "ablations"] {
        run_experiment(id, &h);
    }
}

#[test]
fn experiment_registry_is_complete() {
    assert_eq!(EXPERIMENTS.len(), 18);
    // Registry ids are unique.
    let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|(i, _)| *i).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 18);
}
