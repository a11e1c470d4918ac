//! Randomized work stealing (§5.3–5.4), both sides of the protocol.
//!
//! A stealer that ran out of own partitions proposes to the master of
//! every foreign partition at once, in random order, and works the
//! accepted ones one at a time; after a stolen gather it holds the
//! accumulators until the master asks for them. A master answers each
//! proposal by Equation 2 ([`accepts`]) over the remaining bytes its own
//! storage engine reports, with one remaining-bytes query per partition in
//! flight. The paper describes a sequential scan, but at scaled-down graph
//! sizes the per-proposal round trips would dominate the very imbalance
//! stealing removes; the fan-out keeps the protocol's semantics (each
//! master still applies the criterion per proposal).

use std::collections::VecDeque;
use std::sync::Arc;

use chaos_sim::{Rng, Time};

use crate::metrics::IterSelectivity;

/// Equation 2 with the α bias of §10.2: a master already helped by
/// `stealers` machines on a partition of `v` vertex bytes with `d` bytes of
/// work left takes one more helper iff `V + D/(H+1) < α·D/H`, where
/// `H = stealers + 1` counts the master too. Without work left (`d = 0`)
/// it never does.
pub fn accepts(v: f64, d: f64, stealers: usize, alpha: f64) -> bool {
    let h = 1.0 + stealers as f64;
    d > 0.0 && (v + d / (h + 1.0)) < alpha * (d / h)
}

/// Equation 2's D: "the amount of edge or update data still to be
/// processed on the local storage engine" times the machine count (§5.4).
/// `live` is this engine's selectivity account of the current iteration
/// while selective scatter streams: stored bytes count only at its live
/// fraction, so a remainder that will be skipped unread offers D = 0 and
/// is never handed out (an iteration not yet observed counts as dense).
pub(crate) fn remaining_work(
    local_bytes: u64,
    machines: usize,
    live: Option<&IterSelectivity>,
) -> f64 {
    (local_bytes * machines as u64) as f64 * live.map_or(1.0, IterSelectivity::live_fraction)
}

/// A set of partition indices, dense over the partition count: a lookup on
/// the per-event path is an index, not a hash.
struct PartSet {
    member: Vec<bool>,
    len: usize,
}

impl PartSet {
    fn new(partitions: usize) -> Self {
        Self {
            member: vec![false; partitions],
            len: 0,
        }
    }

    fn contains(&self, part: usize) -> bool {
        self.member[part]
    }

    fn insert(&mut self, part: usize) {
        if !std::mem::replace(&mut self.member[part], true) {
            self.len += 1;
        }
    }

    /// Removes `part`; whether it was present.
    fn remove(&mut self, part: usize) -> bool {
        let was = std::mem::replace(&mut self.member[part], false);
        self.len -= usize::from(was);
        was
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn clear(&mut self) {
        if self.len > 0 {
            self.member.fill(false);
            self.len = 0;
        }
    }
}

/// The stealing state of one computation engine, over accumulators `A`.
/// Its tables are sized once and reused across phases.
pub(crate) struct Steal<A> {
    /// Stealer: the foreign partitions in this phase's random order.
    candidates: Vec<usize>,
    /// Stealer: whether this phase's proposals went out.
    proposed: bool,
    /// Stealer: partitions proposed for and not yet answered.
    awaiting: PartSet,
    /// Stealer: accepted partitions not yet started, in acceptance order.
    accepted: VecDeque<usize>,
    /// Stealer: a finished stolen gather's accumulators, held since the
    /// given time until its master asks for them.
    held: Option<(usize, Arc<Vec<A>>, Time)>,
    /// Stealer: partitions whose master asked before the stolen stream
    /// finished.
    asked: PartSet,
    /// Master: stealers accepted per owned partition.
    pub stealers: Vec<Vec<usize>>,
    /// Master: owned partitions whose stream this engine completed. Every
    /// storage engine is then exhausted for the partition (stream-done
    /// requires it), so D is provably zero: later proposals are rejected
    /// without the remaining-bytes round trip.
    finished: PartSet,
    /// Master: proposers queued for a remaining-bytes query, per
    /// partition.
    queries: Vec<VecDeque<usize>>,
    /// Master: partitions with a remaining-bytes query in flight.
    query_inflight: PartSet,
}

impl<A: Default> Steal<A> {
    /// Idle state over `partitions` partitions.
    pub fn new(partitions: usize) -> Self {
        Self {
            candidates: Vec::new(),
            proposed: true,
            awaiting: PartSet::new(partitions),
            accepted: VecDeque::new(),
            held: None,
            asked: PartSet::new(partitions),
            stealers: (0..partitions).map(|_| Vec::new()).collect(),
            finished: PartSet::new(partitions),
            queries: (0..partitions).map(|_| VecDeque::new()).collect(),
            query_inflight: PartSet::new(partitions),
        }
    }

    /// Forgets the phase on both sides and goes idle (an abort stops
    /// here).
    pub fn reset(&mut self) {
        self.candidates.clear();
        self.proposed = true;
        self.awaiting.clear();
        self.accepted.clear();
        self.held = None;
        self.asked.clear();
        self.stealers.iter_mut().for_each(Vec::clear);
        self.finished.clear();
        self.queries.iter_mut().for_each(VecDeque::clear);
        self.query_inflight.clear();
    }

    /// Starts a phase whose steal scan visits the `foreign` partitions in
    /// an order `rng` shuffles.
    pub fn arm(&mut self, foreign: impl Iterator<Item = usize>, rng: &mut Rng) {
        self.reset();
        self.candidates.extend(foreign);
        rng.shuffle(&mut self.candidates);
        self.proposed = false;
    }

    /// Stealer: the partitions to propose for, the first time it is asked
    /// in a phase; none after that, or when `alpha` is zero.
    pub fn proposals(&mut self, alpha: f64) -> &[usize] {
        if std::mem::replace(&mut self.proposed, true) || alpha == 0.0 {
            return &[];
        }
        for &part in &self.candidates {
            self.awaiting.insert(part);
        }
        &self.candidates
    }

    /// Stealer: the next accepted partition to work.
    pub fn next_accepted(&mut self) -> Option<usize> {
        self.accepted.pop_front()
    }

    /// Stealer: every proposal answered and every accepted partition
    /// started.
    pub fn scan_finished(&self) -> bool {
        self.proposed && self.awaiting.is_empty() && self.accepted.is_empty()
    }

    /// Stealer: a master's answer for `part`; `false` when it was not
    /// awaited (a stale reply after an abort).
    pub fn on_reply(&mut self, part: usize, accept: bool) -> bool {
        let awaited = self.awaiting.remove(part);
        if awaited && accept {
            self.accepted.push_back(part);
        }
        awaited
    }

    /// Stealer: the accumulators of stolen `part` are final. They are
    /// returned to send if the master already asked; else held from `now`
    /// on.
    pub fn hand_back(
        &mut self,
        part: usize,
        accums: Arc<Vec<A>>,
        now: Time,
    ) -> Option<Arc<Vec<A>>> {
        if self.asked.remove(part) {
            return Some(accums);
        }
        self.held = Some((part, accums, now));
        None
    }

    /// Stealer: whether held accumulators wait for their master (the
    /// engine starts nothing else meanwhile).
    pub fn holding(&self) -> bool {
        self.held.is_some()
    }

    /// Stealer: the master of `part`, with `len` vertices, asks for its
    /// accumulators. Returns them with the time they were held since —
    /// identity accumulators, held since `now`, when the steal was
    /// accepted but never started (the master finished the stream first,
    /// so the steal is abandoned) — or `None` while the stream still runs.
    pub fn on_get_accums(
        &mut self,
        part: usize,
        len: usize,
        now: Time,
    ) -> Option<(Arc<Vec<A>>, Time)> {
        if self.held.as_ref().is_some_and(|h| h.0 == part) {
            return self.held.take().map(|(_, accums, since)| (accums, since));
        }
        if let Some(i) = self.accepted.iter().position(|&q| q == part) {
            self.accepted.remove(i);
            return Some((Arc::new((0..len).map(|_| A::default()).collect()), now));
        }
        self.asked.insert(part);
        None
    }

    /// Master: this engine completed the stream of owned `part`.
    pub fn finish(&mut self, part: usize) {
        self.finished.insert(part);
    }

    /// Master: queues `from`'s proposal for `part` for a remaining-bytes
    /// query, unless it must be rejected outright: it is `stale` (from a
    /// phase already left), or the stream of `part` finished here — D = 0
    /// either way. Whether it was queued.
    pub fn propose(&mut self, part: usize, from: usize, stale: bool) -> bool {
        if stale || self.finished.contains(part) {
            return false;
        }
        self.queries[part].push_back(from);
        true
    }

    /// Master: whether to ask local storage for `part`'s remaining bytes
    /// now — proposers wait, and no query is in flight.
    pub fn query(&mut self, part: usize) -> bool {
        if self.query_inflight.contains(part) || self.queries[part].is_empty() {
            return false;
        }
        self.query_inflight.insert(part);
        true
    }

    /// Master: the query for `part` came back. The oldest waiting proposer
    /// is answered by Equation 2 with vertex bytes `v` and remaining work
    /// `d`, and becomes a stealer if accepted: `(proposer, accept)`.
    pub fn on_remaining(
        &mut self,
        part: usize,
        v: f64,
        d: f64,
        alpha: f64,
    ) -> Option<(usize, bool)> {
        self.query_inflight.remove(part);
        let proposer = self.queries[part].pop_front()?;
        let accept = accepts(v, d, self.stealers[part].len(), alpha);
        if accept {
            self.stealers[part].push(proposer);
        }
        Some((proposer, accept))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_2_boundaries() {
        let (v, d) = (10.0, 100.0);
        assert!(!accepts(v, d, 0, 0.0), "α = 0 never accepts");
        assert!(!accepts(0.0, 1e12, 0, 0.0));
        for d in [1e-9, 1.0, 1e12] {
            assert!(accepts(1e6, d, 3, f64::INFINITY), "α = ∞ accepts D = {d}");
        }
        assert!(!accepts(0.0, 0.0, 0, f64::INFINITY), "D = 0 never accepts");
        // H counts the stealers already accepted: D/H − D/(H+1) shrinks
        // below V at the third helper (100/12 < 10 < 100/6).
        assert!(accepts(v, d, 0, 1.0) && accepts(v, d, 1, 1.0));
        assert!(!accepts(v, d, 2, 1.0));
    }

    #[test]
    fn master_answers_in_order_and_counts_its_stealers() {
        let mut steal = Steal::<u64>::new(2);
        for from in [3, 4, 5] {
            assert!(steal.propose(0, from, false));
        }
        assert!(steal.query(0) && !steal.query(0), "one query in flight");
        let answers: Vec<_> = (0..3)
            .map(|_| {
                let answer = steal.on_remaining(0, 10.0, 100.0, 1.0);
                assert!(steal.query(0) || steal.queries[0].is_empty());
                answer
            })
            .collect();
        assert_eq!(
            answers,
            [Some((3, true)), Some((4, true)), Some((5, false))]
        );
        assert_eq!(steal.stealers[0], [3, 4]);
        steal.finish(1);
        assert!(
            !steal.propose(1, 3, false),
            "a finished stream offers D = 0"
        );
        assert!(!steal.propose(0, 3, true), "a stale proposal is rejected");
        steal.reset();
        assert!(steal.stealers[0].is_empty() && steal.propose(1, 3, false));
    }

    #[test]
    fn stealer_proposes_once_and_hands_accumulators_back() {
        let mut steal = Steal::<u64>::new(4);
        steal.arm([1, 2, 3].into_iter(), &mut Rng::new(1));
        assert_eq!(steal.proposals(0.0), &[] as &[usize], "stealing off");
        steal.arm([1, 2, 3].into_iter(), &mut Rng::new(1));
        assert_eq!(steal.proposals(1.0).len(), 3);
        assert!(steal.proposals(1.0).is_empty() && !steal.scan_finished());
        assert!(steal.on_reply(1, true) && steal.on_reply(2, true) && steal.on_reply(3, false));
        assert!(!steal.on_reply(3, true), "answered already");
        assert_eq!(steal.next_accepted(), Some(1));
        // Partition 1's gather finishes before its master asks; partition
        // 2's master asks before it started.
        assert!(steal.hand_back(1, Arc::new(vec![7]), 5).is_none() && steal.holding());
        assert_eq!(
            steal.on_get_accums(2, 3, 6),
            Some((Arc::new(vec![0; 3]), 6))
        );
        assert_eq!(steal.on_get_accums(1, 1, 9), Some((Arc::new(vec![7]), 5)));
        assert!(steal.scan_finished() && !steal.holding());
        // A master that asks first gets them on completion.
        assert_eq!(steal.on_get_accums(3, 1, 10), None);
        assert_eq!(
            steal.hand_back(3, Arc::new(vec![1]), 11),
            Some(Arc::new(vec![1]))
        );
    }

    /// The selectivity-aware steal criterion: Equation 2's D is the stored
    /// remaining bytes scaled by this engine's observed live fraction for
    /// the current scatter iteration. A master with one proposer queued
    /// for partition 0 (64 vertices of 8 bytes) of a two-machine run; the
    /// local engine holds 1 MiB of it.
    mod steal_scaling {
        use super::*;

        fn stealers_after(live: Option<&IterSelectivity>) -> usize {
            let mut steal = Steal::<u64>::new(4);
            steal.propose(0, 1, false);
            let d = remaining_work(1 << 20, 2, live);
            steal.on_remaining(0, 64.0 * 8.0, d, 1.0);
            steal.stealers[0].len()
        }

        #[test]
        fn fully_skipped_remainder_is_never_handed_out() {
            // Everything observed this iteration was skipped unread:
            // D scales to zero, so plentiful stored bytes still reject.
            let sel = IterSelectivity {
                records_skipped: 10_000,
                ..Default::default()
            };
            assert_eq!(
                stealers_after(Some(&sel)),
                0,
                "a fully-skippable remainder offers no work"
            );
        }

        #[test]
        fn live_stream_still_accepts() {
            // Same stored bytes, but the stream is observed fully live:
            // V + D/2 < D holds and the proposal is accepted.
            let sel = IterSelectivity {
                edge_records_streamed: 10_000,
                ..Default::default()
            };
            assert_eq!(stealers_after(Some(&sel)), 1);
        }

        #[test]
        fn unobserved_iteration_defaults_to_dense() {
            // No selectivity account yet: live fraction defaults to 1.
            assert_eq!(stealers_after(None), 1);
        }
    }
}
