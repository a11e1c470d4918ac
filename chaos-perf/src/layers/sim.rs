//! `chaos-sim`: the event queue.

use std::hint::black_box;

use chaos_sim::{EventQueue, Time, MICROS};

use super::best_ns_per_op;
use crate::trace::Tracer;

/// Nanoseconds per queue operation (a push or a pop) under the classic
/// hold model: the queue is kept at `16 * machines` pending events, and
/// every popped event schedules a successor one latency quantum ahead.
/// The quanta are the delays the engine's messages actually see: local
/// delivery, switch propagation, propagation plus a chunk's serialization,
/// and an SSD access.
pub fn queue_ns_per_op(
    tr: &mut Tracer,
    machines: usize,
    local_delivery: Time,
    propagation: Time,
) -> f64 {
    let quanta = [
        local_delivery,
        propagation,
        propagation + 7 * MICROS,
        50 * MICROS,
    ];
    let depth = 16 * machines;
    let holds = 400_000u64;
    best_ns_per_op(tr, "sim.queue_hold", 2 * holds, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        q.tune(local_delivery);
        for i in 0..depth {
            q.push(quanta[i % 4] * (1 + i as u64 % 7), i % machines, i as u64);
        }
        let mut sum = 0u64;
        for i in 0..holds {
            let e = q.pop().expect("the hold model never drains the queue");
            sum = sum.wrapping_add(e.msg);
            q.push(e.time + quanta[(i % 4) as usize], e.dst, e.msg);
        }
        black_box(sum);
    })
}
