//! `chaos-runtime`: the sequential executor's dispatch loop.

use chaos_net::{Fabric, FabricConfig};
use chaos_runtime::{Actor, Ctx, Executor, SequentialExecutor, SlotTopology, Topology};
use chaos_sim::Time;

use super::best_ns_per_op;
use crate::trace::Tracer;

/// A null actor: forwards the ball until its hop count runs out.
struct Player {
    slot: usize,
    machine: usize,
    machines: usize,
    bytes: u64,
    hits: u64,
}

impl Actor for Player {
    type Addr = usize;
    type Msg = u64;

    fn handle(&mut self, ctx: &mut Ctx<usize, u64>, hops: u64) {
        self.hits += 1;
        if hops > 0 {
            // Even hops stay on the machine (slot + machines lives on the
            // same machine under round-robin), odd hops cross the switch —
            // the engine's own mix of compute<->storage traffic.
            let slots = 2 * self.machines;
            let to = if hops.is_multiple_of(2) {
                (self.slot + self.machines) % slots
            } else {
                (self.slot + 1) % slots
            };
            ctx.send(self.machine, to, hops - 1, self.bytes);
        }
    }
}

/// Nanoseconds per delivered event for null actors playing ping-pong
/// through a `SequentialExecutor` over a real `Fabric`: two actors per
/// machine, `16 * machines` balls in flight (the queue depth of the
/// `sim` probe), messages of the workload's mean size. Includes the queue
/// push and pop and the fabric send of each event, which `sim.est_s` and
/// `net.est_s` already charge: the figure has no estimate of its own.
pub fn dispatch_ns_per_event(tr: &mut Tracer, machines: usize, msg_bytes: u64) -> f64 {
    let balls = 16 * machines;
    let hops = 400_000 / balls as u64;
    let events = balls as u64 * (hops + 1);
    best_ns_per_op(tr, "runtime.ping_pong", events, || {
        let topology = SlotTopology::round_robin(2 * machines, machines);
        let mut players: Vec<Player> = (0..2 * machines)
            .map(|slot| Player {
                slot,
                machine: topology.machine(slot),
                machines,
                bytes: msg_bytes,
                hits: 0,
            })
            .collect();
        let mut fabric = Fabric::new(FabricConfig::forty_gige(machines));
        let mut exec: SequentialExecutor<SlotTopology, u64> = SequentialExecutor::new(topology);
        for ball in 0..balls {
            exec.post(0, ball % (2 * machines), 0, hops);
        }
        let mut actors: Vec<&mut (dyn Actor<Addr = usize, Msg = u64> + Send)> =
            players.iter_mut().map(|p| p as _).collect();
        let stats = exec.run(&mut actors, &mut fabric, Time::MAX);
        assert_eq!(stats.delivered, events);
        assert_eq!(players.iter().map(|p| p.hits).sum::<u64>(), events);
    })
}
