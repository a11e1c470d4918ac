//! The [`Executor`] trait and the event loop behind it.
//!
//! Anything that can accept posted events, drive an actor table against a
//! network model and report virtual time implements [`Executor`].
//! [`SequentialExecutor`] is the implementation: the classic single-queue
//! discrete-event loop.

use chaos_sim::{EventQueue, QueueKind, Time};

use crate::{Actor, Ctx, Network, Topology};

/// A type-erased actor as the executor consumes it. The event loop never
/// crosses a thread; the `Send` bound stays because callers that build
/// actor tables (`chaos-perf`, frozen) spell this type out with it.
pub type DynActor<'a, A, M> = &'a mut (dyn Actor<Addr = A, Msg = M> + std::marker::Send);

/// What a finished [`Executor::run`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Virtual time of the last delivered event.
    pub now: Time,
    /// Events delivered so far (cumulative across runs).
    pub delivered: u64,
}

/// The event loop's interface: posts events, runs the actor table to
/// quiescence (or a time horizon), and reports progress.
///
/// `run` and `absorb` are generic over the network model so the loop stays
/// usable with any [`Network`].
///
/// Determinism contract: for the same `(posted events, actors, net)`
/// inputs, the same events are delivered in the same order at the same
/// virtual times — a run is a pure function of its inputs.
pub trait Executor<T: Topology, M> {
    /// The topology this executor routes with.
    fn topology(&self) -> &T;

    /// Current virtual time (timestamp of the last delivered event).
    fn now(&self) -> Time;

    /// Number of events delivered so far (stale-generation drops
    /// included).
    fn delivered(&self) -> u64;

    /// Number of events still queued.
    fn pending(&self) -> usize;

    /// Injects a message directly into the queue (bootstrap, external
    /// stimuli).
    fn post(&mut self, at: Time, to: T::Addr, gen: u32, msg: M);

    /// Queues the sends buffered in `ctx`: `Net` sends are timed by the
    /// network model, `At` sends are delivered verbatim. All envelopes are
    /// stamped with the context's (possibly handler-updated) generation.
    fn absorb<N: Network + ?Sized>(&mut self, ctx: &mut Ctx<T::Addr, M>, net: &mut N);

    /// Runs the event loop until the queue drains or the next event lies
    /// beyond `until` (inclusive horizon; pass `Time::MAX` to drain): pop
    /// the next event, drop it if its generation is stale, dispatch to the
    /// owning actor, absorb the actor's sends.
    ///
    /// `actors` must be ordered by [`Topology`] slot.
    ///
    /// # Panics
    ///
    /// Panics if the actor table size disagrees with the topology or the
    /// event budget is exceeded (a wedged protocol).
    fn run<N: Network + ?Sized>(
        &mut self,
        actors: &mut [DynActor<'_, T::Addr, M>],
        net: &mut N,
        until: Time,
    ) -> ExecStats;
}

/// A queued message plus the generation it was sent under.
struct Envelope<M> {
    gen: u32,
    msg: M,
}

/// The per-event delivery contract: stale-generation filtering, context
/// arming, handler dispatch.
///
/// Returns whether the handler ran. `false` means the envelope was stale
/// (its generation predates the actor's) and was dropped without side
/// effects — the context is untouched and holds no sends. When `true`, the
/// handler's buffered sends are left in `ctx` for the caller to absorb.
///
/// `ctx` is reused across deliveries (capacity retained).
fn dispatch<A: Copy, M>(
    actor: &mut (dyn Actor<Addr = A, Msg = M> + std::marker::Send),
    ctx: &mut Ctx<A, M>,
    time: Time,
    env_gen: u32,
    msg: M,
) -> bool {
    let agen = actor.generation();
    if env_gen < agen {
        return false;
    }
    ctx.reset(time, agen.max(env_gen));
    actor.handle(ctx, msg);
    true
}

/// The sequential executor: one global event queue, generation filtering
/// and dispatch — the classic deterministic DES loop.
///
/// The executor does not own the actors — [`Executor::run`] borrows an
/// actor table ordered by [`Topology`] slot, so the embedding system keeps
/// typed access to its actors for reporting and result collection.
///
/// The event queue is a calendar queue ([`QueueKind::Calendar`]); the
/// original binary heap stays selectable via
/// [`SequentialExecutor::set_queue_kind`] as a bit-identical oracle.
pub struct SequentialExecutor<T: Topology, M> {
    topology: T,
    queue: EventQueue<Envelope<M>>,
    /// Safety valve for the event loop (a wedged protocol would otherwise
    /// spin forever). Defaults to effectively unlimited.
    pub max_events: u64,
}

impl<T: Topology, M> SequentialExecutor<T, M> {
    /// Creates an idle executor over `topology`.
    pub fn new(topology: T) -> Self {
        Self {
            topology,
            queue: EventQueue::new(),
            max_events: u64::MAX,
        }
    }

    /// Selects the event-queue implementation. Pop order — and therefore
    /// the whole run — is identical for every kind; only host-side cost
    /// differs.
    ///
    /// # Panics
    ///
    /// Panics if events are pending.
    pub fn set_queue_kind(&mut self, kind: QueueKind) {
        self.queue.set_kind(kind);
    }
}

impl<T: Topology, M> Executor<T, M> for SequentialExecutor<T, M> {
    fn topology(&self) -> &T {
        &self.topology
    }

    fn now(&self) -> Time {
        self.queue.now()
    }

    fn delivered(&self) -> u64 {
        self.queue.delivered()
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn post(&mut self, at: Time, to: T::Addr, gen: u32, msg: M) {
        self.queue
            .push(at, self.topology.slot(to), Envelope { gen, msg });
    }

    fn absorb<N: Network + ?Sized>(&mut self, ctx: &mut Ctx<T::Addr, M>, net: &mut N) {
        // Network state evolves with call order, so sends are timed in the
        // order the handler buffered them.
        let gen = ctx.gen;
        let now = ctx.now;
        for s in ctx.drain_sends() {
            let (at, to, msg) = match s {
                crate::Send::Net {
                    from,
                    to,
                    bytes,
                    msg,
                } => {
                    let arrival = net.send(now, from, self.topology.machine(to), bytes);
                    (arrival, to, msg)
                }
                crate::Send::At { at, to, msg } => (at, to, msg),
            };
            self.queue
                .push(at, self.topology.slot(to), Envelope { gen, msg });
        }
    }

    fn run<N: Network + ?Sized>(
        &mut self,
        actors: &mut [DynActor<'_, T::Addr, M>],
        net: &mut N,
        until: Time,
    ) -> ExecStats {
        assert_eq!(
            actors.len(),
            self.topology.slots(),
            "actor table must cover every topology slot"
        );
        self.queue.tune(net.time_quantum());
        // One context for the whole drain: its send buffer's capacity is
        // reused across events, so the steady-state loop never allocates.
        let mut ctx = Ctx::new(self.queue.now(), 0);
        while let Some(ev) = self.queue.pop_until(until) {
            assert!(
                self.delivered() < self.max_events,
                "event budget exceeded; protocol likely wedged"
            );
            let Envelope { gen, msg } = ev.msg;
            if dispatch(&mut *actors[ev.dst], &mut ctx, ev.time, gen, msg) {
                self.absorb(&mut ctx, net);
            }
        }
        // A drained queue holds nothing and has delivered all it was handed.
        #[cfg(debug_assertions)]
        if self.queue.is_empty() {
            self.queue.assert_quiesced();
        }
        ExecStats {
            now: self.queue.now(),
            delivered: self.delivered(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SlotTopology;

    /// Counts deliveries; replies to every even payload with payload - 1.
    struct Echo {
        slot: usize,
        gen: u32,
        seen: Vec<u64>,
    }

    impl Actor for Echo {
        type Addr = usize;
        type Msg = u64;

        fn generation(&self) -> u32 {
            self.gen
        }

        fn handle(&mut self, ctx: &mut Ctx<usize, u64>, msg: u64) {
            self.seen.push(msg);
            if msg > 0 && msg.is_multiple_of(2) {
                ctx.send(self.slot, (self.slot + 1) % 2, msg - 1, 64);
            }
        }
    }

    fn echo(slot: usize) -> Echo {
        Echo {
            slot,
            gen: 0,
            seen: Vec::new(),
        }
    }

    #[test]
    fn delivers_in_time_then_insertion_order() {
        let mut a = echo(0);
        let mut sched: SequentialExecutor<SlotTopology, u64> =
            SequentialExecutor::new(SlotTopology::single_machine(1));
        sched.post(20, 0, 0, 3);
        sched.post(10, 0, 0, 1);
        sched.post(20, 0, 0, 5);
        sched.run(&mut [&mut a], &mut (), Time::MAX);
        assert_eq!(a.seen, vec![1, 3, 5]);
        assert_eq!(sched.delivered(), 3);
        assert_eq!(sched.now(), 20);
    }

    #[test]
    fn handler_sends_route_through_network() {
        /// Fixed 5-tick latency between distinct machines.
        struct FixedLatency;
        impl Network for FixedLatency {
            fn send(&mut self, now: Time, from: usize, to: usize, _bytes: u64) -> Time {
                now + if from == to { 0 } else { 5 }
            }
        }
        let mut a = echo(0);
        let mut b = echo(1);
        let mut sched: SequentialExecutor<SlotTopology, u64> =
            SequentialExecutor::new(SlotTopology::round_robin(2, 2));
        sched.post(0, 0, 0, 4);
        sched.run(&mut [&mut a, &mut b], &mut FixedLatency, Time::MAX);
        // 4 at t=0 on a; 3 at t=5 on b; (odd, stops).
        assert_eq!(a.seen, vec![4]);
        assert_eq!(b.seen, vec![3]);
        assert_eq!(sched.now(), 5);
    }

    #[test]
    fn stale_generations_are_dropped() {
        let mut a = echo(0);
        a.gen = 2;
        let mut sched: SequentialExecutor<SlotTopology, u64> =
            SequentialExecutor::new(SlotTopology::single_machine(1));
        sched.post(0, 0, 1, 7); // gen 1 < actor gen 2: dropped
        sched.post(1, 0, 2, 9); // current generation: delivered
        sched.post(2, 0, 3, 11); // future generation: delivered
        let stats = sched.run(&mut [&mut a], &mut (), Time::MAX);
        assert_eq!(a.seen, vec![9, 11]);
        assert_eq!(stats.delivered, 3, "stale events still count as delivered");
    }

    #[test]
    fn run_stops_at_the_horizon() {
        let mut a = echo(0);
        let mut sched: SequentialExecutor<SlotTopology, u64> =
            SequentialExecutor::new(SlotTopology::single_machine(1));
        sched.post(10, 0, 0, 1);
        sched.post(20, 0, 0, 3);
        sched.post(30, 0, 0, 5);
        sched.run(&mut [&mut a], &mut (), 20);
        assert_eq!(a.seen, vec![1, 3], "horizon is inclusive");
        assert_eq!(sched.pending(), 1);
        // Resuming picks up where the horizon stopped.
        sched.run(&mut [&mut a], &mut (), Time::MAX);
        assert_eq!(a.seen, vec![1, 3, 5]);
    }

    #[test]
    fn at_sends_bypass_the_network() {
        /// Panics if asked to time anything.
        struct NoNet;
        impl Network for NoNet {
            fn send(&mut self, _now: Time, _from: usize, _to: usize, _bytes: u64) -> Time {
                panic!("At sends must not touch the network");
            }
        }
        struct Sleeper {
            fired: bool,
        }
        impl Actor for Sleeper {
            type Addr = usize;
            type Msg = &'static str;
            fn handle(&mut self, ctx: &mut Ctx<usize, &'static str>, msg: &'static str) {
                match msg {
                    "start" => ctx.at(ctx.now + 100, 0, "alarm"),
                    "alarm" => self.fired = true,
                    _ => unreachable!(),
                }
            }
        }
        let mut s = Sleeper { fired: false };
        let mut sched: SequentialExecutor<SlotTopology, &'static str> =
            SequentialExecutor::new(SlotTopology::single_machine(1));
        sched.post(0, 0, 0, "start");
        let stats = sched.run(&mut [&mut s], &mut NoNet, Time::MAX);
        assert!(s.fired);
        assert_eq!(stats.now, 100);
    }

    #[test]
    fn event_budget_catches_wedged_protocols() {
        /// Sends itself a message forever.
        struct Spinner {
            slot: usize,
        }
        impl Actor for Spinner {
            type Addr = usize;
            type Msg = ();
            fn handle(&mut self, ctx: &mut Ctx<usize, ()>, _msg: ()) {
                ctx.at(ctx.now + 1, self.slot, ());
            }
        }
        let mut s = Spinner { slot: 0 };
        let mut sched: SequentialExecutor<SlotTopology, ()> =
            SequentialExecutor::new(SlotTopology::single_machine(1));
        sched.max_events = 1000;
        sched.post(0, 0, 0, ());
        let wedged = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sched.run(&mut [&mut s], &mut (), Time::MAX);
        }));
        assert!(wedged.is_err(), "budget must trip on an endless self-send");
    }

    #[test]
    fn generation_updates_mid_handler_stamp_subsequent_sends() {
        /// Bumps its generation on "recover" and notifies a peer.
        struct Recoverer {
            gen: u32,
        }
        impl Actor for Recoverer {
            type Addr = usize;
            type Msg = &'static str;
            fn generation(&self) -> u32 {
                self.gen
            }
            fn handle(&mut self, ctx: &mut Ctx<usize, &'static str>, msg: &'static str) {
                if msg == "recover" {
                    self.gen += 1;
                    ctx.gen = self.gen;
                    ctx.send(0, 1, "new-era", 64);
                }
            }
        }
        struct Peer {
            gen: u32,
            got: bool,
        }
        impl Actor for Peer {
            type Addr = usize;
            type Msg = &'static str;
            fn generation(&self) -> u32 {
                self.gen
            }
            fn handle(&mut self, _ctx: &mut Ctx<usize, &'static str>, msg: &'static str) {
                assert_eq!(msg, "new-era");
                self.got = true;
            }
        }
        let mut r = Recoverer { gen: 0 };
        // The peer is already in generation 1: only a post-recovery message
        // may reach it.
        let mut p = Peer { gen: 1, got: false };
        let mut sched: SequentialExecutor<SlotTopology, &'static str> =
            SequentialExecutor::new(SlotTopology::single_machine(2));
        sched.post(0, 0, 0, "recover");
        sched.run(&mut [&mut r, &mut p], &mut (), Time::MAX);
        assert!(p.got, "handler-bumped generation must reach the envelope");
    }
}
