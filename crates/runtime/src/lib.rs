//! Generic deterministic actor runtime.
//!
//! This crate is the layer between the raw discrete-event kernel
//! (`chaos-sim`) and any concrete simulated system (`chaos-core`'s engine
//! actors, future sharded coordinators, ...). It owns the pieces every
//! actor system needs and none of the protocol:
//!
//! - the [`Actor`] trait — `handle(&mut self, ctx, msg)` plus a protocol
//!   [`Actor::generation`] used to drop stale messages after a recovery
//!   bump;
//! - the [`Ctx`] send context — handlers buffer outgoing [`Send`]s, the
//!   executor applies them after the handler returns, preserving
//!   in-handler ordering;
//! - the [`Topology`] trait — maps application addresses to dense executor
//!   slots and to host machines for network timing;
//! - the [`Network`] trait — computes message arrival times (implemented by
//!   `chaos-net`'s `Fabric`; `()` gives a zero-latency network for tests);
//! - the [`Executor`] trait and [`SequentialExecutor`], the one event
//!   loop: a single global queue popped in `(time, insertion order)`,
//!   stale-generation filtering, dispatch, absorb.
//!
//! Determinism: the executor inherits the kernel's `(time, insertion
//! order)` tie-breaking, so a run is a pure function of its inputs as
//! long as actors themselves are deterministic.
//!
//! # Examples
//!
//! A two-actor ping-pong over a zero-latency network:
//!
//! ```
//! use chaos_runtime::{Actor, Ctx, Executor, SequentialExecutor, SlotTopology};
//!
//! struct Player { slot: usize, hits: u32 }
//!
//! impl Actor for Player {
//!     type Addr = usize;
//!     type Msg = u32;
//!     fn handle(&mut self, ctx: &mut Ctx<usize, u32>, ball: u32) {
//!         self.hits += 1;
//!         if ball > 0 {
//!             ctx.send(self.slot, 1 - self.slot, ball - 1, 8);
//!         }
//!     }
//! }
//!
//! let mut a = Player { slot: 0, hits: 0 };
//! let mut b = Player { slot: 1, hits: 0 };
//! let mut sched = SequentialExecutor::new(SlotTopology::single_machine(2));
//! sched.post(0, 0, 0, 10u32);
//! sched.run(&mut [&mut a, &mut b], &mut (), u64::MAX);
//! assert_eq!(a.hits + b.hits, 11);
//! ```

use chaos_sim::Time;

pub mod executor;

pub use executor::{DynActor, ExecStats, Executor, SequentialExecutor};

/// An actor: a deterministic state machine driven by messages.
pub trait Actor {
    /// The address type actors use to name each other in sends.
    type Addr: Copy;
    /// The message type exchanged by this actor system.
    type Msg;

    /// Current protocol generation. Envelopes stamped with an older
    /// generation are dropped before dispatch (stale pre-recovery traffic).
    fn generation(&self) -> u32 {
        0
    }

    /// Handles one message, buffering outgoing sends in `ctx`.
    fn handle(&mut self, ctx: &mut Ctx<Self::Addr, Self::Msg>, msg: Self::Msg);
}

/// Maps application addresses to dense executor slots and host machines.
pub trait Topology {
    /// The address type this topology understands.
    type Addr: Copy;

    /// Total number of actor slots.
    fn slots(&self) -> usize;

    /// Dense slot of an address; the executor indexes its actor table
    /// with this.
    fn slot(&self, addr: Self::Addr) -> usize;

    /// Machine hosting the address, for network timing.
    fn machine(&self, addr: Self::Addr) -> usize;
}

/// The trivial topology: addresses *are* slots.
///
/// `machines == 1` ([`SlotTopology::single_machine`]) places every actor on
/// one machine; otherwise slots map round-robin onto machines.
#[derive(Debug, Clone, Copy)]
pub struct SlotTopology {
    slots: usize,
    machines: usize,
}

impl SlotTopology {
    /// `slots` actors, all hosted on machine 0.
    pub fn single_machine(slots: usize) -> Self {
        Self { slots, machines: 1 }
    }

    /// `slots` actors spread round-robin over `machines` machines.
    ///
    /// Degenerate inputs saturate rather than divide by zero: zero
    /// machines behaves as one machine, and zero slots is an empty (but
    /// valid) topology.
    pub fn round_robin(slots: usize, machines: usize) -> Self {
        Self {
            slots,
            machines: machines.max(1),
        }
    }
}

impl Topology for SlotTopology {
    type Addr = usize;

    fn slots(&self) -> usize {
        self.slots
    }

    fn slot(&self, addr: usize) -> usize {
        addr
    }

    fn machine(&self, addr: usize) -> usize {
        addr % self.machines
    }
}

/// Computes arrival times for messages between machines.
///
/// Implementations account bandwidth/latency however they like
/// (`chaos-net`'s `Fabric` models NIC rate servers and a switch); the
/// executor only needs the delivery timestamp.
pub trait Network {
    /// Delivery time of a `bytes`-sized message sent at `now` from machine
    /// `from` to machine `to`.
    fn send(&mut self, now: Time, from: usize, to: usize, bytes: u64) -> Time;

    /// The smallest latency quantum this network produces (typically the
    /// machine-local delivery latency): a hint the executor uses to size
    /// calendar-queue buckets. `0` (the default) means "no hint"; it never
    /// affects results, only scheduling cost.
    fn time_quantum(&self) -> Time {
        0
    }
}

/// The zero-latency network: every message arrives at its send time.
impl Network for () {
    fn send(&mut self, now: Time, _from: usize, _to: usize, _bytes: u64) -> Time {
        now
    }
}

/// A buffered outgoing message (applied by the executor after the handler
/// returns, preserving in-handler ordering).
pub enum Send<A, M> {
    /// Route through the network from machine `from` to the addressee's
    /// machine.
    Net {
        /// Sending machine.
        from: usize,
        /// Destination actor.
        to: A,
        /// Payload size in bytes (for network timing).
        bytes: u64,
        /// The message.
        msg: M,
    },
    /// Deliver to `to` at exactly time `at` (self events, device-completion
    /// callbacks). No network involvement.
    At {
        /// Delivery time.
        at: Time,
        /// Destination actor.
        to: A,
        /// The message.
        msg: M,
    },
}

/// Handler context: the current time, the protocol generation, and a
/// buffer of outgoing sends.
pub struct Ctx<A, M> {
    /// Current virtual time.
    pub now: Time,
    /// Protocol generation stamped on buffered sends. Handlers that bump
    /// the generation mid-message (failure recovery) write it here so their
    /// own sends carry the new generation.
    pub gen: u32,
    out: Vec<Send<A, M>>,
}

impl<A, M> Ctx<A, M> {
    /// Creates a context at `now` in generation `gen`.
    pub fn new(now: Time, gen: u32) -> Self {
        Self {
            now,
            gen,
            out: Vec::new(),
        }
    }

    /// Rearms a reused context for the next delivery: new clock and
    /// generation, send buffer kept (its capacity is what makes reuse
    /// worthwhile — the executor dispatches millions of events through
    /// one context without allocating).
    ///
    /// The previous delivery's sends must already have been drained.
    pub fn reset(&mut self, now: Time, gen: u32) {
        debug_assert!(
            self.out.is_empty(),
            "sends from a prior delivery were never absorbed"
        );
        self.now = now;
        self.gen = gen;
    }

    /// Sends `msg` of `bytes` from machine `from`'s NIC to `to`.
    pub fn send(&mut self, from: usize, to: A, msg: M, bytes: u64) {
        self.out.push(Send::Net {
            from,
            to,
            bytes,
            msg,
        });
    }

    /// Schedules `msg` for delivery to `to` at absolute time `at`.
    pub fn at(&mut self, at: Time, to: A, msg: M) {
        self.out.push(Send::At { at, to, msg });
    }

    /// Drains the buffered sends in order, keeping the buffer's capacity.
    pub(crate) fn drain_sends(&mut self) -> std::vec::Drain<'_, Send<A, M>> {
        self.out.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_saturates_zero_machines() {
        let topo = SlotTopology::round_robin(4, 0);
        for s in 0..4 {
            assert_eq!(topo.machine(s), 0);
        }
    }

    #[test]
    fn round_robin_allows_zero_slots() {
        let topo = SlotTopology::round_robin(0, 3);
        assert_eq!(topo.slots(), 0);
        // An empty topology still drives an (empty) run to completion.
        let mut sched: SequentialExecutor<SlotTopology, ()> = SequentialExecutor::new(topo);
        let stats = sched.run(&mut [], &mut (), u64::MAX);
        assert_eq!(stats.delivered, 0);
    }
}
