//! Calendar (bucketed monotone) priority queue.
//!
//! A discrete-event simulation whose latencies come from a small quantized
//! set — here the fabric's `local_delivery` / `propagation` constants plus
//! rate-server completions — schedules almost every event within a narrow
//! horizon of the current virtual time. A binary heap pays `O(log n)`
//! compare-and-move work per operation on that workload; a calendar queue
//! pays amortized `O(1)`: push appends into the bucket covering the
//! event's time, pop drains the earliest non-empty bucket in sorted order.
//!
//! Layout:
//!
//! - `current` holds the bucket being drained (`day`) as a deque sorted
//!   *ascending* by `(time, seq)`: popping the minimum is a `pop_front`,
//!   and a push landing in the staged bucket — the common case — probes
//!   the back, then binary-inserts; the deque moves the shorter side.
//! - `ring` holds the next [`CalendarQueue::RING_BUCKETS`] buckets as
//!   unsorted append-only `Vec`s, indexed by bucket number modulo ring
//!   size. Entries are sorted once, when their bucket becomes `day`.
//! - `overflow` is a plain binary heap for entries beyond the ring's
//!   horizon (checkpoint reboots, `Time::MAX` sentinels). It is consulted
//!   whenever the queue advances to a new day, so far-out entries never
//!   need migration — they surface exactly when their bucket comes up.
//!
//! Invariant: every ring entry's bucket lies in `(day, day + RING_BUCKETS]`,
//! so at most one bucket value occupies a ring slot at a time and the
//! advance walk in [`CalendarQueue::restage`] terminates within one lap.
//!
//! Ordering contract: identical to the binary-heap queue — strictly
//! increasing `(time, seq)` pops, ties at equal times broken by insertion
//! sequence. `tests` pin this against a `BinaryHeap` oracle on randomized
//! workloads.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::Time;

/// Which implementation backs an event queue: the calendar queue or the
/// original binary heap (kept selectable as a bit-identical oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Bucketed calendar queue with a heap fallback for far-out times.
    #[default]
    Calendar,
    /// Plain binary heap: the reference implementation.
    Heap,
}

impl std::str::FromStr for QueueKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "calendar" | "cal" => Ok(Self::Calendar),
            "heap" | "binary-heap" => Ok(Self::Heap),
            other => Err(format!(
                "unknown queue kind {other:?} (expected \"calendar\" or \"heap\")"
            )),
        }
    }
}

impl std::fmt::Display for QueueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Calendar => "calendar",
            Self::Heap => "heap",
        })
    }
}

/// The bucket shift matching a network latency `quantum`: its floor-log2
/// plus 10 — i.e. buckets ~1024 quanta wide — clamped so buckets stay
/// between 64 ns and ~67 ms. `None` when the network offers no hint
/// (`quantum == 0`).
///
/// Why so much wider than the quantum: this simulator's pending set is
/// small (hundreds of events, all scheduled within a few service times of
/// the clock). Quantum-width buckets hold one or two events each, so the
/// advance-and-sort in [`CalendarQueue::restage`] runs on nearly every
/// pop and its fixed cost dominates. Buckets three orders of magnitude
/// wider batch whole service intervals into one staging sort, which a
/// shift sweep on the fig7 cells measured as the crossover where the
/// calendar stops losing to the binary heap.
pub fn shift_for_quantum(quantum: Time) -> Option<u32> {
    (quantum > 0).then(|| (63 - quantum.leading_zeros() + 10).clamp(6, 26))
}

struct Entry<P> {
    time: Time,
    seq: u64,
    payload: P,
}

/// `(time, seq)` as one integer: the pair's order in a single branch-free
/// compare, which is what the binary insert into `current` spends its
/// time on.
fn key(time: Time, seq: u64) -> u128 {
    (time as u128) << 64 | seq as u128
}

/// Reversed ordering wrapper so `BinaryHeap` acts as a min-heap on
/// `(time, seq)`.
struct OverflowEntry<P>(Entry<P>);

impl<P> PartialEq for OverflowEntry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<P> Eq for OverflowEntry<P> {}
impl<P> PartialOrd for OverflowEntry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for OverflowEntry<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
    }
}

/// A calendar queue keyed on `(time, seq)`; the caller supplies `seq`
/// (its insertion counter) and gets strictly `(time, seq)`-ordered pops.
pub struct CalendarQueue<P> {
    /// log2 of the bucket width in virtual-time units.
    shift: u32,
    /// Absolute bucket number currently staged in `current`.
    day: u64,
    /// The `day` bucket, sorted ascending by `(time, seq)` and drained
    /// from the front.
    current: VecDeque<Entry<P>>,
    /// Future buckets `(day, day + RING_BUCKETS]`, unsorted.
    ring: Box<[Vec<Entry<P>>]>,
    /// Occupancy bitmap over `ring` (bit i = slot i non-empty): the
    /// advance walk in [`CalendarQueue::restage`] skips 64 empty buckets
    /// per word instead of touching 64 scattered `Vec` headers.
    occupied: Box<[u64]>,
    /// Total entries across `ring`.
    ring_len: usize,
    /// Entries beyond the ring horizon.
    overflow: BinaryHeap<OverflowEntry<P>>,
    /// Total entries queued.
    len: usize,
}

impl<P> Default for CalendarQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> CalendarQueue<P> {
    /// Default bucket width: 2^20 ns ≈ 1 ms, about 1024× the fabric's
    /// local delivery latency (see [`shift_for_quantum`] for why buckets
    /// are deliberately far wider than the latency quantum).
    pub const DEFAULT_SHIFT: u32 = 20;

    /// Ring capacity in buckets. With the default shift the ring covers
    /// ~4 s of virtual time ahead of the clock; rate-server completions
    /// under backlog land comfortably inside, and the rare far-out event
    /// (checkpoint reboot timers, `Time::MAX` sentinels) takes the
    /// overflow heap.
    const RING_BUCKETS: usize = 4096;

    /// An empty queue with the default bucket width.
    pub fn new() -> Self {
        Self::with_shift(Self::DEFAULT_SHIFT)
    }

    /// An empty queue with buckets `2^shift` time-units wide (clamped to
    /// `1..=40`).
    pub fn with_shift(shift: u32) -> Self {
        Self {
            shift: shift.clamp(1, 40),
            day: 0,
            current: VecDeque::new(),
            ring: (0..Self::RING_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: vec![0u64; Self::RING_BUCKETS / 64].into_boxed_slice(),
            ring_len: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Current log2 bucket width.
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bucket(&self, time: Time) -> u64 {
        time >> self.shift
    }

    /// Re-widths the buckets to `2^shift`, restaging any queued entries.
    /// `O(len)`; intended for tuning at run start, not per-event.
    pub fn set_shift(&mut self, shift: u32) {
        let shift = shift.clamp(1, 40);
        if shift == self.shift {
            return;
        }
        let mut entries: Vec<Entry<P>> = self.current.drain(..).collect();
        for slot in self.ring.iter_mut() {
            entries.append(slot);
        }
        entries.extend(self.overflow.drain().map(|o| o.0));
        self.ring_len = 0;
        self.occupied.fill(0);
        self.shift = shift;
        self.day = entries.iter().map(|e| e.time >> shift).min().unwrap_or(0);
        for e in entries {
            if self.bucket(e.time) == self.day {
                self.current.push_back(e);
            } else {
                self.route(e);
            }
        }
        self.sort_current();
    }

    /// Queues `payload` at `(time, seq)`. `seq` values must be unique;
    /// times at or before entries already popped are legal (they simply
    /// pop next) but rewinding below the staged bucket is a cold path.
    pub fn push(&mut self, time: Time, seq: u64, payload: P) {
        self.len += 1;
        let e = Entry { time, seq, payload };
        let b = self.bucket(time);
        if b <= self.day {
            if b < self.day {
                self.rewind(b);
            }
            // Binary insert keeps `current` sorted. With millisecond-wide
            // buckets most latency-scale pushes land here. On few machines
            // a new event usually carries the maximal `(time, seq)` key
            // (times grow with the clock, `seq` with every push), so probe
            // the back first; on many, latencies of different kinds
            // interleave and most pushes insert mid-deque, which is why
            // entries should be narrow (see `EventQueue`'s slab).
            let at = key(time, seq);
            match self.current.back() {
                Some(last) if key(last.time, last.seq) > at => {
                    let pos = self.current.partition_point(|x| key(x.time, x.seq) < at);
                    self.current.insert(pos, e);
                }
                _ => self.current.push_back(e),
            }
        } else {
            self.route(e);
        }
    }

    /// Files an entry whose bucket lies strictly after `day`.
    fn route(&mut self, e: Entry<P>) {
        let b = self.bucket(e.time);
        debug_assert!(b > self.day);
        if b - self.day <= Self::RING_BUCKETS as u64 {
            let slot = (b as usize) % Self::RING_BUCKETS;
            self.ring[slot].push(e);
            self.occupied[slot / 64] |= 1u64 << (slot % 64);
            self.ring_len += 1;
        } else {
            self.overflow.push(OverflowEntry(e));
        }
    }

    /// The next occupied ring slot at or after circular index `start`;
    /// `None` when the whole ring is empty. At most one lap of word scans
    /// over the bitmap (64 words for the 4096-bucket ring).
    fn next_occupied(&self, start: usize) -> Option<usize> {
        let words = self.occupied.len();
        let (mut w, bit) = (start / 64, start % 64);
        let mut masked = self.occupied[w] & (!0u64 << bit);
        for _ in 0..=words {
            if masked != 0 {
                return Some(w * 64 + masked.trailing_zeros() as usize);
            }
            w = (w + 1) % words;
            masked = self.occupied[w];
        }
        None
    }

    /// Cold path: a push landed before the staged bucket (the clock was
    /// effectively rewound by the embedder). Restages everything against
    /// the earlier day so the ring invariant keeps holding.
    fn rewind(&mut self, day: u64) {
        let mut moved: Vec<Entry<P>> = self.current.drain(..).collect();
        for slot in self.ring.iter_mut() {
            moved.append(slot);
        }
        self.ring_len = 0;
        self.occupied.fill(0);
        self.day = day;
        for e in moved {
            if self.bucket(e.time) == day {
                self.current.push_back(e);
            } else {
                self.route(e);
            }
        }
        self.sort_current();
    }

    fn sort_current(&mut self) {
        self.current
            .make_contiguous()
            .sort_unstable_by_key(|e| key(e.time, e.seq));
    }

    /// Ensures `current` is non-empty when the queue is non-empty,
    /// advancing `day` to the earliest populated bucket. Returns whether
    /// any entry is available.
    fn restage(&mut self) -> bool {
        if !self.current.is_empty() {
            return true;
        }
        if self.len == 0 {
            return false;
        }
        // Next populated ring bucket via the occupancy bitmap: the ring
        // invariant (buckets in `(day, day + RING_BUCKETS]`) means one
        // circular lap from `day + 1` finds it unambiguously.
        let ring_day = if self.ring_len > 0 {
            let start = ((self.day + 1) as usize) % Self::RING_BUCKETS;
            let idx = self
                .next_occupied(start)
                .expect("ring_len > 0 but bitmap empty");
            let ahead = (idx + Self::RING_BUCKETS - start) % Self::RING_BUCKETS;
            Some(self.day + 1 + ahead as u64)
        } else {
            None
        };
        let over_day = self.overflow.peek().map(|e| self.bucket(e.0.time));
        let target = match (ring_day, over_day) {
            (Some(r), Some(o)) => r.min(o),
            (Some(r), None) => r,
            (None, Some(o)) => o,
            (None, None) => unreachable!("non-empty queue with no staged entries"),
        };
        self.day = target;
        if ring_day == Some(target) {
            // The slot holds exactly this bucket (one bucket value per
            // slot under the ring invariant); draining leaves the slot's
            // capacity in place for future routes, and `current` retains
            // its own across stagings.
            let idx = (target as usize) % Self::RING_BUCKETS;
            let slot = &mut self.ring[idx];
            self.ring_len -= slot.len();
            self.current.extend(slot.drain(..));
            self.occupied[idx / 64] &= !(1u64 << (idx % 64));
        }
        while let Some(top) = self.overflow.peek() {
            if self.bucket(top.0.time) != target {
                break;
            }
            self.current
                .push_back(self.overflow.pop().expect("peeked entry present").0);
        }
        self.sort_current();
        true
    }

    /// The earliest `(time, seq)` key without popping it, if any.
    pub fn peek_key(&mut self) -> Option<(Time, u64)> {
        if !self.restage() {
            return None;
        }
        self.current.front().map(|e| (e.time, e.seq))
    }

    /// Pops the earliest entry.
    pub fn pop(&mut self) -> Option<(Time, u64, P)> {
        self.pop_until(Time::MAX)
    }

    /// Pops the earliest entry unless its time lies after `until`.
    pub fn pop_until(&mut self, until: Time) -> Option<(Time, u64, P)> {
        if !self.restage() || self.current.front()?.time > until {
            return None;
        }
        let e = self
            .current
            .pop_front()
            .expect("restaged bucket is non-empty");
        self.len -= 1;
        Some((e.time, e.seq, e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Drains both queues and asserts identical `(time, seq, payload)`
    /// streams.
    fn assert_matches_oracle(cal: &mut CalendarQueue<u64>, oracle: &mut Vec<(Time, u64, u64)>) {
        oracle.sort_unstable_by_key(|&(t, s, _)| (t, s));
        for &(t, s, p) in oracle.iter() {
            assert_eq!(cal.peek_key(), Some((t, s)));
            assert_eq!(cal.pop(), Some((t, s, p)));
        }
        assert_eq!(cal.pop(), None);
        assert!(cal.is_empty());
        oracle.clear();
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(5_000, 0, 10u64);
        q.push(3_000, 1, 11);
        q.push(5_000, 2, 12);
        q.push(3_000, 3, 13);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, p)| p).collect();
        assert_eq!(order, vec![11, 13, 10, 12]);
    }

    #[test]
    fn random_workload_matches_binary_heap_oracle() {
        // Mixed push/pop workload over several time scales (same-bucket
        // bursts, ring-distance jumps, overflow-distance jumps), checked
        // against a sorted oracle after every drain.
        for seed in 0..8u64 {
            let mut rng = Rng::new(0xCA1E0 + seed);
            let mut cal: CalendarQueue<u64> = CalendarQueue::new();
            let mut oracle: Vec<(Time, u64, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut floor: Time = 0;
            for round in 0..200 {
                let burst = 1 + rng.below(40);
                for _ in 0..burst {
                    // Tiers scale with the default shift so each case keeps
                    // exercising its intended path: same-bucket bursts,
                    // ring-distance jumps, past-the-ring jumps, deep overflow.
                    let s = CalendarQueue::<u64>::DEFAULT_SHIFT;
                    let spread = match rng.below(10) {
                        0..=5 => rng.below(1 << (s - 1)),      // in-bucket / near
                        6..=7 => rng.below(1 << (s + 9)),      // within the ring
                        8 => rng.below(1 << (s + 16)),         // past the ring
                        _ => (1 << 40) + rng.below(1 << 50),   // deep overflow
                    };
                    let t = floor + spread;
                    cal.push(t, seq, seq ^ 0xABCD);
                    oracle.push((t, seq, seq ^ 0xABCD));
                    seq += 1;
                }
                // Pop a random prefix, tracking the monotone floor the
                // embedding executors guarantee for subsequent pushes.
                oracle.sort_unstable_by_key(|&(t, s, _)| (t, s));
                let take = (rng.below(burst + 1)) as usize;
                for &(t, s, p) in oracle.iter().take(take) {
                    assert_eq!(cal.pop(), Some((t, s, p)), "seed {seed} round {round}");
                    floor = t;
                }
                oracle.drain(..take);
                assert_eq!(cal.len(), oracle.len());
            }
            assert_matches_oracle(&mut cal, &mut oracle);
        }
    }

    #[test]
    fn time_max_lives_in_overflow_until_the_end() {
        let mut q = CalendarQueue::new();
        q.push(Time::MAX, 0, 1u64);
        q.push(10, 1, 2);
        q.push(Time::MAX, 2, 3);
        assert_eq!(q.pop(), Some((10, 1, 2)));
        // Pushes after the day jumped to the far bucket still order
        // correctly (rewind path).
        q.push(20, 3, 4);
        assert_eq!(q.pop(), Some((20, 3, 4)));
        assert_eq!(q.pop(), Some((Time::MAX, 0, 1)));
        assert_eq!(q.pop(), Some((Time::MAX, 2, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn rewind_after_peek_preserves_order() {
        let mut q = CalendarQueue::new();
        q.push(1 << 30, 0, 1u64);
        // Peek advances the day to the far bucket...
        assert_eq!(q.peek_key(), Some((1 << 30, 0)));
        // ...and an earlier push must still pop first.
        q.push(100, 1, 2);
        assert_eq!(q.pop(), Some((100, 1, 2)));
        assert_eq!(q.pop(), Some((1 << 30, 0, 1)));
    }

    #[test]
    fn set_shift_restages_pending_entries() {
        let mut q = CalendarQueue::with_shift(4);
        for i in 0..100u64 {
            q.push(i * 1000, i, i);
        }
        assert_eq!(q.pop(), Some((0, 0, 0)));
        q.set_shift(16);
        assert_eq!(q.shift(), 16);
        for i in 1..100u64 {
            assert_eq!(q.pop(), Some((i * 1000, i, i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn ring_slot_collisions_resolve_by_bucket() {
        // Two entries one full ring apart share a slot index; the earlier
        // must drain first and the later must not ride along.
        let width = 1u64 << CalendarQueue::<u64>::DEFAULT_SHIFT;
        let lap = width * CalendarQueue::<u64>::RING_BUCKETS as u64;
        let mut q = CalendarQueue::new();
        q.push(width * 3, 0, 1u64);
        q.push(width * 3 + lap, 1, 2);
        q.push(width * 3 + 2 * lap, 2, 3);
        assert_eq!(q.pop(), Some((width * 3, 0, 1)));
        assert_eq!(q.pop(), Some((width * 3 + lap, 1, 2)));
        assert_eq!(q.pop(), Some((width * 3 + 2 * lap, 2, 3)));
    }

    #[test]
    fn queue_kind_parses_and_displays() {
        assert_eq!("calendar".parse::<QueueKind>(), Ok(QueueKind::Calendar));
        assert_eq!("heap".parse::<QueueKind>(), Ok(QueueKind::Heap));
        assert!("fifo".parse::<QueueKind>().is_err());
        assert_eq!(QueueKind::Calendar.to_string(), "calendar");
        assert_eq!(QueueKind::Heap.to_string(), "heap");
        assert_eq!(QueueKind::default(), QueueKind::Calendar);
    }
}
