//! Time-ordered event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::calendar::{CalendarQueue, QueueKind};
use crate::time::Time;

/// An event scheduled for delivery: destination actor plus payload.
#[derive(Debug)]
pub struct Scheduled<M> {
    /// Delivery time.
    pub time: Time,
    /// Destination actor index (interpretation is up to the embedder).
    pub dst: usize,
    /// Message payload.
    pub msg: M,
}

/// What both stores order: `(time, seq, dst, slot)`, 24 bytes. `seq` is
/// unique, so the last two fields never decide a comparison; `slot`
/// indexes the payload in [`EventQueue`]'s slab.
type Key = (Time, u64, u32, u32);

/// The pending-event store behind [`EventQueue`]: the default calendar
/// queue or the original binary heap (selectable as a bit-identical
/// oracle). Both pop in strict `(time, insertion order)`.
enum Store {
    Heap(BinaryHeap<Reverse<Key>>),
    Calendar(CalendarQueue<(u32, u32)>),
}

impl Store {
    fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Heap => Self::Heap(BinaryHeap::new()),
            QueueKind::Calendar => Self::Calendar(CalendarQueue::new()),
        }
    }
}

/// A deterministic event queue keyed on `(time, insertion order)`.
///
/// Ties at equal timestamps are delivered in insertion order, which makes the
/// whole simulation a pure function of its inputs. The backing store is a
/// calendar queue by default ([`QueueKind::Calendar`]; see
/// [`crate::calendar`]) with the original binary heap selectable via
/// [`EventQueue::with_kind`] — pop order is identical either way.
///
/// The stores order 24-byte keys only. A payload is written once into a
/// slab slot when pushed and read once when popped, so queue maintenance
/// (binary insert, bucket append, staging sort, heap sift) costs the same
/// however wide `M` is; freed slots are reused, so a queue whose pending
/// count has peaked allocates nothing.
///
/// # Examples
///
/// ```
/// use chaos_sim::EventQueue;
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.push(10, 0, "later");
/// q.push(5, 1, "sooner");
/// let first = q.pop().unwrap();
/// assert_eq!((first.time, first.msg), (5, "sooner"));
/// ```
pub struct EventQueue<M> {
    store: Store,
    /// Payloads of the pending events, indexed by their key's `slot`.
    slab: Vec<Option<M>>,
    /// Vacant `slab` indices.
    free: Vec<u32>,
    seq: u64,
    now: Time,
    delivered: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue with the clock at zero, backed by the
    /// default store ([`QueueKind::Calendar`]).
    pub fn new() -> Self {
        Self::with_kind(QueueKind::default())
    }

    /// Creates an empty queue backed by the given store.
    pub fn with_kind(kind: QueueKind) -> Self {
        Self {
            store: Store::new(kind),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: 0,
            delivered: 0,
        }
    }

    /// Which store backs this queue.
    pub fn kind(&self) -> QueueKind {
        match &self.store {
            Store::Heap(_) => QueueKind::Heap,
            Store::Calendar(_) => QueueKind::Calendar,
        }
    }

    /// Replaces the backing store.
    ///
    /// # Panics
    ///
    /// Panics if events are pending (switching mid-run is not supported).
    pub fn set_kind(&mut self, kind: QueueKind) {
        assert!(self.is_empty(), "cannot switch queue kind with events pending");
        if kind != self.kind() {
            self.store = Store::new(kind);
        }
    }

    /// Tunes the calendar bucket width to the network's latency quantum
    /// (the floor-log2 of `quantum`, clamped to sane bounds); pending
    /// events are restaged. A no-op for the heap store or `quantum == 0`.
    pub fn tune(&mut self, quantum: Time) {
        if let (Store::Calendar(cal), Some(shift)) =
            (&mut self.store, crate::calendar::shift_for_quantum(quantum))
        {
            cal.set_shift(shift);
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events pushed so far (cumulative, not pending).
    pub fn pushed(&self) -> u64 {
        self.seq
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Heap(h) => h.len(),
            Store::Calendar(c) => c.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `msg` for delivery to actor `dst` at absolute time `time`.
    ///
    /// Scheduling in the past is a logic error in the embedding simulation;
    /// the queue clamps to `now` rather than time-traveling, and debug builds
    /// assert.
    ///
    /// # Panics
    ///
    /// Panics if `dst`, or the number of pending events, exceeds `u32::MAX`.
    pub fn push(&mut self, time: Time, dst: usize, msg: M) {
        debug_assert!(time >= self.now, "event scheduled in the past");
        let time = time.max(self.now);
        let dst = u32::try_from(dst).expect("actor index fits in u32");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(msg);
                slot
            }
            None => {
                self.slab.push(Some(msg));
                u32::try_from(self.slab.len() - 1).expect("pending events fit in u32")
            }
        };
        match &mut self.store {
            Store::Heap(h) => h.push(Reverse((time, self.seq, dst, slot))),
            Store::Calendar(c) => c.push(time, self.seq, (dst, slot)),
        }
        self.seq += 1;
    }

    /// Timestamp of the next event without popping it, if any.
    ///
    /// Takes `&mut self` because the calendar store may restage its
    /// earliest bucket; the clock and pending set are untouched.
    pub fn peek_time(&mut self) -> Option<Time> {
        match &mut self.store {
            Store::Heap(h) => h.peek().map(|e| e.0 .0),
            Store::Calendar(c) => c.peek_key().map(|(t, _)| t),
        }
    }

    /// Pops the next event, advancing the virtual clock to its timestamp.
    pub fn pop(&mut self) -> Option<Scheduled<M>> {
        self.pop_until(Time::MAX)
    }

    /// [`EventQueue::pop`], unless the next event lies after `until`: then
    /// it stays queued and the clock does not move.
    pub fn pop_until(&mut self, until: Time) -> Option<Scheduled<M>> {
        let (time, dst, slot) = match &mut self.store {
            Store::Heap(h) => {
                if h.peek()?.0 .0 > until {
                    return None;
                }
                let Reverse((time, _, dst, slot)) = h.pop()?;
                (time, dst, slot)
            }
            Store::Calendar(c) => {
                let (time, _, (dst, slot)) = c.pop_until(until)?;
                (time, dst, slot)
            }
        };
        let msg = self.slab[slot as usize]
            .take()
            .expect("a queued key owns an occupied slot");
        self.free.push(slot);
        self.now = time;
        self.delivered += 1;
        Some(Scheduled {
            time,
            dst: dst as usize,
            msg,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::rng::Rng;

    fn both_kinds() -> [EventQueue<&'static str>; 2] {
        [
            EventQueue::with_kind(QueueKind::Calendar),
            EventQueue::with_kind(QueueKind::Heap),
        ]
    }

    #[test]
    fn orders_by_time_then_insertion() {
        for mut q in both_kinds() {
            q.push(5, 0, "a");
            q.push(3, 1, "b");
            q.push(5, 2, "c");
            q.push(4, 3, "d");
            let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.msg)).collect();
            assert_eq!(order, vec!["b", "d", "a", "c"], "kind {:?}", q.kind());
        }
    }

    #[test]
    fn peek_does_not_advance_the_clock() {
        for mut q in both_kinds() {
            assert_eq!(q.peek_time(), None);
            q.push(9, 0, "x");
            q.push(4, 0, "y");
            assert_eq!(q.peek_time(), Some(4));
            assert_eq!(q.now(), 0);
            q.pop();
            assert_eq!(q.peek_time(), Some(9));
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        for kind in [QueueKind::Calendar, QueueKind::Heap] {
            let mut q = EventQueue::with_kind(kind);
            q.push(7, 0, ());
            q.push(2, 0, ());
            assert_eq!(q.now(), 0);
            q.pop();
            assert_eq!(q.now(), 2);
            q.pop();
            assert_eq!(q.now(), 7);
            assert_eq!(q.delivered(), 2);
            assert_eq!(q.pushed(), 2);
            assert!(q.is_empty());
        }
    }

    /// Release builds clamp an event scheduled in the past to `now`.
    #[cfg(not(debug_assertions))]
    #[test]
    fn past_events_clamp_to_now() {
        for mut q in both_kinds() {
            q.push(10, 0, "x");
            q.pop();
            q.push(5, 0, "y");
            assert_eq!(q.peek_time(), Some(10), "kind {:?}", q.kind());
            assert_eq!(q.pop().unwrap().time, 10);
            assert_eq!(q.now(), 10);
        }
    }

    /// Debug builds refuse it outright; one test per kind, since the first
    /// panic ends a test.
    #[cfg(debug_assertions)]
    fn push_into_the_past(kind: QueueKind) {
        let mut q = EventQueue::with_kind(kind);
        q.push(10, 0, "x");
        q.pop();
        q.push(5, 0, "y");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_events_trip_the_debug_assert_calendar() {
        push_into_the_past(QueueKind::Calendar);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_events_trip_the_debug_assert_heap() {
        push_into_the_past(QueueKind::Heap);
    }

    #[test]
    fn kind_switch_requires_empty_queue() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.kind(), QueueKind::Calendar);
        q.set_kind(QueueKind::Heap);
        assert_eq!(q.kind(), QueueKind::Heap);
        q.push(1, 0, ());
        let trip = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.set_kind(QueueKind::Calendar)
        }));
        assert!(trip.is_err(), "switching with events pending must panic");
    }

    #[test]
    fn tune_keeps_order_with_pending_events() {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..50 {
            q.push(i * 777, 0, i);
        }
        q.tune(1 << 14);
        for i in 0..50 {
            assert_eq!(q.pop().map(|e| e.msg), Some(i));
        }
    }
    /// A payload that counts its drops: `id` says which event it belongs
    /// to, the shared tally says how often each id has been dropped.
    struct Counted {
        id: usize,
        drops: Rc<RefCell<Vec<u32>>>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.borrow_mut()[self.id] += 1;
        }
    }

    /// Seeded random interleavings of push, pop, `pop_until`, `peek_time`
    /// and `tune` against a sorted-`Vec` oracle: the same `(time, dst,
    /// payload)` stream, and every payload dropped exactly once — popped
    /// ones by the caller, pending ones with the queue.
    #[test]
    fn random_interleavings_match_a_sorted_oracle_and_drop_payloads_once() {
        for kind in [QueueKind::Calendar, QueueKind::Heap] {
            for seed in 0..12u64 {
                let mut rng = Rng::new(0x51AB + seed);
                let drops = Rc::new(RefCell::new(Vec::new()));
                let mut q = EventQueue::with_kind(kind);
                // Pending `(time, id, dst)`, kept sorted; ids are issued in
                // push order, so `(time, id)` order is the queue's contract.
                let mut oracle: Vec<(Time, usize, usize)> = Vec::new();
                let mut popped = 0;
                for _ in 0..4_000 {
                    match rng.below(16) {
                        0..=8 => {
                            let ahead = match rng.below(8) {
                                0..=4 => rng.below(50_000),
                                5..=6 => rng.below(1 << 32),
                                _ => (1 << 40) + rng.below(1 << 50),
                            };
                            let (time, dst) = (q.now() + ahead, rng.below(40) as usize);
                            let id = drops.borrow().len();
                            drops.borrow_mut().push(0);
                            let drops = Rc::clone(&drops);
                            q.push(time, dst, Counted { id, drops });
                            let at = oracle.partition_point(|&(t, ..)| t <= time);
                            oracle.insert(at, (time, id, dst));
                        }
                        9..=13 => {
                            // Half the pops are bounded, and half of those
                            // by a horizon the next event lies beyond.
                            let until = match (rng.below(2), oracle.first()) {
                                (0, Some(&(t, ..))) => t.saturating_sub(rng.below(2)),
                                _ => Time::MAX,
                            };
                            let due = oracle.first().is_some_and(|&(t, ..)| t <= until);
                            let now = q.now();
                            match q.pop_until(until) {
                                Some(e) if due => {
                                    let (time, id, dst) = oracle.remove(0);
                                    assert_eq!((e.time, e.dst, e.msg.id), (time, dst, id));
                                    assert_eq!(q.now(), time);
                                    popped += 1;
                                }
                                None if !due => assert_eq!(q.now(), now, "clock moved"),
                                _ => panic!("{kind:?} seed {seed}: pop disagrees with the oracle"),
                            }
                        }
                        14 => {
                            assert_eq!(q.peek_time(), oracle.first().map(|&(t, ..)| t));
                        }
                        _ => q.tune(1 << rng.below(20)),
                    }
                    assert_eq!(q.len(), oracle.len());
                }
                assert_eq!(q.delivered(), popped);
                assert!(!oracle.is_empty(), "nothing left to drop with the queue");
                assert!(
                    oracle.iter().all(|&(_, id, _)| drops.borrow()[id] == 0),
                    "a pending payload was dropped early"
                );
                drop(q);
                assert!(
                    drops.borrow().iter().all(|&n| n == 1),
                    "{kind:?} seed {seed}: a payload was dropped {:?} times",
                    drops.borrow().iter().find(|&&n| n != 1)
                );
            }
        }
    }

    /// The hold model (every pop schedules a successor) keeps the pending
    /// count constant, so after the initial fill the slab must not grow:
    /// each push reuses the slot the pop before it vacated, and neither the
    /// slab nor the free list reallocates.
    #[test]
    fn hold_model_reuses_slab_slots() {
        for kind in [QueueKind::Calendar, QueueKind::Heap] {
            let mut rng = Rng::new(77);
            let mut q: EventQueue<[u64; 12]> = EventQueue::with_kind(kind);
            q.tune(1_000);
            let depth = 512;
            for i in 0..depth {
                q.push(rng.below(100_000), i % 32, [i as u64; 12]);
            }
            // One hold so the free list has made its one allocation.
            let e = q.pop().unwrap();
            q.push(e.time + 1, e.dst, e.msg);
            let (slab_cap, free_cap) = (q.slab.capacity(), q.free.capacity());
            for _ in 0..50_000 {
                let e = q.pop().unwrap();
                q.push(e.time + rng.below(60_000), e.dst, e.msg);
                assert_eq!(q.slab.len(), depth, "kind {kind:?}: slab grew");
            }
            assert_eq!(q.len(), depth);
            assert_eq!((q.slab.capacity(), q.free.capacity()), (slab_cap, free_cap));
            // Draining vacates every slot; refilling takes them all back.
            while q.pop().is_some() {}
            assert_eq!(q.free.len(), depth);
            for i in 0..depth {
                q.push(q.now() + i as u64, 0, [0; 12]);
            }
            assert_eq!((q.slab.len(), q.free.len()), (depth, 0));
        }
    }
}
