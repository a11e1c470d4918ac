//! Registry checks. What every experiment prints at a tiny scale is pinned
//! by the root test `tests/figures_golden.rs`.

use crate::EXPERIMENTS;

#[test]
fn experiment_registry_is_complete() {
    assert_eq!(EXPERIMENTS.len(), 18);
    // Registry ids are unique.
    let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|(i, _)| *i).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 18);
}
