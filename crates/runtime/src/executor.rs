//! The [`Executor`] trait and the sequential backend.
//!
//! The event loop is a swappable component: anything that can accept
//! posted events, drive an actor table against a network model and report
//! virtual time implements [`Executor`]. [`SequentialExecutor`] is the
//! classic single-queue discrete-event loop (the `Scheduler` of earlier
//! revisions, extracted unchanged); `parallel::ParallelExecutor` dispatches
//! per-machine event lanes across a thread pool while producing the same
//! run bit for bit.

use chaos_sim::{EventQueue, QueueKind, Time};

use crate::{Actor, Batchable, Ctx, Network, Topology};

/// A type-erased actor as executors consume it. The `Send` bound exists
/// for the parallel backend, which moves lane actors onto worker threads;
/// the sequential backend never crosses a thread.
pub type DynActor<'a, A, M> = &'a mut (dyn Actor<Addr = A, Msg = M> + std::marker::Send);

/// What a finished [`Executor::run`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Virtual time of the last delivered event.
    pub now: Time,
    /// Events delivered so far (cumulative across runs).
    pub delivered: u64,
    /// Synchronization windows executed (0 for the sequential backend and
    /// for parallel runs that degraded to a sequential drain).
    pub windows: u64,
}

/// A pluggable event-loop backend: posts events, runs the actor table to
/// quiescence (or a time horizon), and reports progress.
///
/// `run` and `absorb` are generic over the network model so backends stay
/// usable with any [`Network`]; the parallel backend additionally consults
/// [`Network::min_latency`] as its lookahead bound.
///
/// Determinism contract: for the same `(posted events, actors, net)`
/// inputs, every conforming backend must deliver the same events in the
/// same order at the same virtual times — a run is a pure function of its
/// inputs, never of the backend.
pub trait Executor<T: Topology, M> {
    /// The topology this executor routes with.
    fn topology(&self) -> &T;

    /// Current virtual time (timestamp of the last delivered event).
    fn now(&self) -> Time;

    /// Number of events delivered so far. With envelope batching this
    /// counts *logical* messages (each message inside a coalesced
    /// envelope counts), so the figure is invariant across backends and
    /// batching configurations.
    fn delivered(&self) -> u64;

    /// Number of physical envelopes delivered: equals
    /// [`Executor::delivered`] unless the backend coalesced messages.
    /// Host-side dispatch accounting, not a simulated quantity.
    fn envelopes(&self) -> u64 {
        self.delivered()
    }

    /// Total queue operations (pushes + pops) performed. Host-side
    /// dispatch accounting, not a simulated quantity.
    fn queue_ops(&self) -> u64 {
        0
    }

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
pub(crate) struct Envelope<M> {
    pub(crate) gen: u32,
    pub(crate) msg: M,
}

/// The one definition of the per-event delivery contract every backend
/// shares: stale-generation filtering, context arming, handler dispatch.
///
/// Returns whether the handler ran. `false` means the envelope was stale
/// (its generation predates the actor's) and was dropped without side
/// effects — the context is untouched and holds no sends. When `true`, the
/// handler's buffered sends are left in `ctx` for the caller to absorb:
/// queue-and-go for the serial paths ([`absorb_sends_into`]), record-for-
/// replay inside the parallel backend's windows.
///
/// `ctx` is reused across deliveries (capacity retained); both executors
/// route every event through this function, so the bit-identical contract
/// between them has exactly one implementation.
pub(crate) fn dispatch<A: Copy, M>(
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

/// The one definition of the absorb contract: `Net` sends are timed by the
/// network model (in buffered order — network state evolves with call
/// order), `At` sends are delivered verbatim, and every envelope is
/// stamped with the context's (possibly handler-updated) generation.
/// `push` receives `(time, slot, machine, gen, msg)` and enqueues into
/// whatever structure the backend uses (global queue or per-machine lane).
pub(crate) fn absorb_sends_into<T: Topology, M, N: Network + ?Sized>(
    ctx: &mut Ctx<T::Addr, M>,
    topology: &T,
    net: &mut N,
    mut push: impl FnMut(Time, usize, usize, u32, M),
) {
    let gen = ctx.gen;
    let now = ctx.now;
    for s in ctx.drain_sends() {
        match s {
            crate::Send::Net {
                from,
                to,
                bytes,
                msg,
            } => {
                let machine = topology.machine(to);
                let arrival = net.send(now, from, machine, bytes);
                push(arrival, topology.slot(to), machine, gen, msg);
            }
            crate::Send::At { at, to, msg } => {
                push(at, topology.slot(to), topology.machine(to), gen, msg);
            }
        }
    }
}

/// A run of same-machine sends being coalesced during a batched absorb:
/// all share one destination slot and (by the local-latency contract) one
/// arrival time, so they may travel as a single envelope.
enum PendingRun<M> {
    None,
    One {
        machine: usize,
        slot: usize,
        bytes: u64,
        msg: M,
    },
    Many {
        machine: usize,
        slot: usize,
        bytes: u64,
        msgs: Vec<M>,
    },
}

/// Emits a pending run: one ordinary send, or one
/// [`Network::send_local_batch`]-accounted envelope wrapping the whole
/// run. Called before any send that would break the run's consecutiveness
/// (so network calls keep their unbatched order) and at end of absorb.
fn flush_run<M: Batchable, N: Network + ?Sized>(
    pending: &mut PendingRun<M>,
    queue: &mut EventQueue<Envelope<M>>,
    net: &mut N,
    now: Time,
    gen: u32,
) {
    match std::mem::replace(pending, PendingRun::None) {
        PendingRun::None => {}
        PendingRun::One {
            machine,
            slot,
            bytes,
            msg,
        } => {
            let arrival = net.send(now, machine, machine, bytes);
            queue.push(arrival, slot, Envelope { gen, msg });
        }
        PendingRun::Many {
            machine,
            slot,
            bytes,
            msgs,
        } => {
            // One accounting call for the whole run: charges exactly what
            // the per-message calls would have (the batch is still
            // `count` logical messages totalling `bytes` on the wire).
            let count = msgs.len() as u64;
            let arrival = net.send_local_batch(now, machine, bytes, count);
            queue.push(
                arrival,
                slot,
                Envelope {
                    gen,
                    msg: M::wrap_batch(msgs),
                },
            );
        }
    }
}

/// The sequential executor: one global event queue, generation filtering
/// and dispatch — the classic deterministic DES loop.
///
/// The executor does not own the actors — [`Executor::run`] borrows an
/// actor table ordered by [`Topology`] slot, so the embedding system keeps
/// typed access to its actors for reporting and result collection.
///
/// Two transport optimizations are on by default and provably invisible
/// to the simulation (same dispatch order, same virtual times, same
/// network charges):
///
/// - the event queue is a calendar queue ([`QueueKind::Calendar`]); the
///   original binary heap stays selectable via
///   [`SequentialExecutor::set_queue_kind`] as a bit-identical oracle;
/// - consecutive same-machine sends from one handler to one destination
///   slot are coalesced into a single envelope (see [`Batchable`]) and
///   unpacked at dispatch; [`SequentialExecutor::set_batching`] turns
///   this off.
pub struct SequentialExecutor<T: Topology, M> {
    topology: T,
    queue: EventQueue<Envelope<M>>,
    /// Safety valve for the event loop (a wedged protocol would otherwise
    /// spin forever). Defaults to effectively unlimited.
    pub max_events: u64,
    /// Whether to coalesce same-destination send runs (only effective
    /// when `M::CAN_BATCH`).
    batching: bool,
    /// Logical deliveries in excess of physical envelope pops: each
    /// coalesced envelope of k messages adds k - 1 here.
    extra_delivered: u64,
}

impl<T: Topology, M> SequentialExecutor<T, M> {
    /// Creates an idle executor over `topology`.
    pub fn new(topology: T) -> Self {
        Self {
            topology,
            queue: EventQueue::new(),
            max_events: u64::MAX,
            batching: true,
            extra_delivered: 0,
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

    /// Enables or disables envelope batching (default on). Batching never
    /// changes simulated quantities — it only reduces queue traffic — so
    /// this switch exists for A/B verification and profiling.
    pub fn set_batching(&mut self, on: bool) {
        self.batching = on;
    }

    /// Absorb with run coalescing: consecutive same-machine `Net` sends
    /// to one destination slot share an arrival time (the local-latency
    /// contract), so they travel as one envelope. Any send that breaks
    /// the run (different destination, cross-machine, or an `At`) flushes
    /// first, which keeps every network call in its unbatched order.
    fn absorb_batched<N: Network + ?Sized>(&mut self, ctx: &mut Ctx<T::Addr, M>, net: &mut N)
    where
        M: Batchable,
    {
        let gen = ctx.gen;
        let now = ctx.now;
        let queue = &mut self.queue;
        let topology = &self.topology;
        let mut pending = PendingRun::None;
        for s in ctx.drain_sends() {
            match s {
                crate::Send::Net {
                    from,
                    to,
                    bytes,
                    msg,
                } => {
                    let machine = topology.machine(to);
                    let slot = topology.slot(to);
                    if from == machine {
                        pending = match std::mem::replace(&mut pending, PendingRun::None) {
                            PendingRun::One {
                                machine: m,
                                slot: sl,
                                bytes: b,
                                msg: first,
                            } if m == machine && sl == slot => PendingRun::Many {
                                machine,
                                slot,
                                bytes: b + bytes,
                                msgs: vec![first, msg],
                            },
                            PendingRun::Many {
                                machine: m,
                                slot: sl,
                                bytes: b,
                                mut msgs,
                            } if m == machine && sl == slot => {
                                msgs.push(msg);
                                PendingRun::Many {
                                    machine,
                                    slot,
                                    bytes: b + bytes,
                                    msgs,
                                }
                            }
                            mut other => {
                                flush_run(&mut other, queue, net, now, gen);
                                PendingRun::One {
                                    machine,
                                    slot,
                                    bytes,
                                    msg,
                                }
                            }
                        };
                    } else {
                        flush_run(&mut pending, queue, net, now, gen);
                        let arrival = net.send(now, from, machine, bytes);
                        queue.push(arrival, slot, Envelope { gen, msg });
                    }
                }
                crate::Send::At { at, to, msg } => {
                    // An interleaved timer send would break the
                    // consecutive-sequence argument; flush so only true
                    // runs coalesce.
                    flush_run(&mut pending, queue, net, now, gen);
                    queue.push(at, topology.slot(to), Envelope { gen, msg });
                }
            }
        }
        flush_run(&mut pending, queue, net, now, gen);
    }
}

impl<T: Topology, M: Batchable> Executor<T, M> for SequentialExecutor<T, M> {
    fn topology(&self) -> &T {
        &self.topology
    }

    fn now(&self) -> Time {
        self.queue.now()
    }

    fn delivered(&self) -> u64 {
        self.queue.delivered() + self.extra_delivered
    }

    fn envelopes(&self) -> u64 {
        self.queue.delivered()
    }

    fn queue_ops(&self) -> u64 {
        self.queue.pushed() + self.queue.delivered()
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn post(&mut self, at: Time, to: T::Addr, gen: u32, msg: M) {
        self.queue
            .push(at, self.topology.slot(to), Envelope { gen, msg });
    }

    fn absorb<N: Network + ?Sized>(&mut self, ctx: &mut Ctx<T::Addr, M>, net: &mut N) {
        if M::CAN_BATCH && self.batching {
            self.absorb_batched(ctx, net);
            return;
        }
        let queue = &mut self.queue;
        absorb_sends_into(ctx, &self.topology, net, |time, slot, _machine, gen, msg| {
            queue.push(time, slot, Envelope { gen, msg });
        });
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
            if M::CAN_BATCH {
                // A coalesced envelope dispatches each inner message in
                // its original order, absorbing sends after each one and
                // re-checking the generation per message — exactly the
                // unbatched interleaving.
                match msg.unwrap_batch() {
                    Ok(batch) => {
                        self.extra_delivered += batch.len() as u64 - 1;
                        for inner in batch {
                            if dispatch(&mut *actors[ev.dst], &mut ctx, ev.time, gen, inner) {
                                self.absorb(&mut ctx, net);
                            }
                        }
                        continue;
                    }
                    Err(single) => {
                        if dispatch(&mut *actors[ev.dst], &mut ctx, ev.time, gen, single) {
                            self.absorb(&mut ctx, net);
                        }
                        continue;
                    }
                }
            }
            if dispatch(&mut *actors[ev.dst], &mut ctx, ev.time, gen, msg) {
                self.absorb(&mut ctx, net);
            }
        }
        ExecStats {
            now: self.queue.now(),
            delivered: self.delivered(),
            windows: 0,
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
        let stats = sched.run(&mut [&mut a], &mut (), 20);
        assert_eq!(a.seen, vec![1, 3], "horizon is inclusive");
        assert_eq!(sched.pending(), 1);
        // Resuming picks up where the horizon stopped.
        sched.run(&mut [&mut a], &mut (), Time::MAX);
        assert_eq!(a.seen, vec![1, 3, 5]);
        assert_eq!(stats.windows, 0);
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
