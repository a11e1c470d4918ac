//! `chaos-net`: the fabric's rate servers.

use std::hint::black_box;

use chaos_net::{Fabric, FabricConfig};

use super::best_ns_per_op;
use crate::trace::Tracer;

/// Nanoseconds per `Fabric::send` at the workload's mean message size,
/// with the workload's share of messages crossing the switch.
pub fn send_ns_per_msg(tr: &mut Tracer, machines: usize, msg_bytes: u64, remote_share: f64) -> f64 {
    let sends = 1_000_000u64;
    // One in `stride` sends stays on its machine.
    let stride = if remote_share >= 1.0 {
        u64::MAX
    } else {
        (1.0 / (1.0 - remote_share)).round().max(1.0) as u64
    };
    best_ns_per_op(tr, "net.fabric_send", sends, || {
        let mut fabric = Fabric::new(FabricConfig::forty_gige(machines));
        let mut last = 0;
        for i in 0..sends {
            let from = (i as usize) % machines;
            let to = if machines == 1 || i.is_multiple_of(stride) {
                from
            } else {
                (from + 1 + (i as usize / machines) % (machines - 1)) % machines
            };
            // Senders pace themselves about one chunk time apart, so the
            // rate servers are busy but not backlogged without bound.
            last = fabric.send(i * 1_000, from, to, black_box(msg_bytes));
        }
        black_box(last);
    })
}
