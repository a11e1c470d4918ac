//! Layer probes: timed calls into each crate's public API, from outside.
//!
//! One module per crate, named after it. A probe uses only items the crate
//! re-exports at its root, is sized from the workload it is run for, and
//! records a span carrying its operation count. Its cost times the
//! workload's own count of that operation is the layer's estimated share
//! of the workload's host time; what the estimates leave unexplained is
//! `core.residual_s`.

use std::time::Instant;

use crate::trace::Tracer;

pub mod gas;
pub mod graph;
pub mod net;
pub mod runtime;
pub mod sim;
pub mod storage;

/// Rounds per probe; the best is reported, as for the end-to-end times.
const ROUNDS: u32 = 5;

/// Times `round` (which performs `ops` operations) [`ROUNDS`] times inside
/// one span and returns the best nanoseconds per operation.
pub fn best_ns_per_op(tr: &mut Tracer, name: &str, ops: u64, mut round: impl FnMut()) -> f64 {
    tr.span(name, |_| {
        let mut best = f64::INFINITY;
        for _ in 0..ROUNDS {
            let t = Instant::now();
            round();
            best = best.min(t.elapsed().as_nanos() as f64);
        }
        (best / ops.max(1) as f64, ops * u64::from(ROUNDS))
    })
}

/// MB/s of a probe that moves `bytes` per round.
pub fn best_mb_per_s(tr: &mut Tracer, name: &str, bytes: u64, round: impl FnMut()) -> f64 {
    // bytes/ns * 1e9 / 1e6
    1e3 / best_ns_per_op(tr, name, bytes, round)
}
