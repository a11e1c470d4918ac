//! The chunk request window (§6.3, §6.5).
//!
//! A computation engine streams every structure — the input edge list in
//! pre-processing, then each partition's edges or updates — the same way:
//! it keeps φk chunk requests outstanding to distinct, randomly chosen
//! storage engines (or, under the Figure 15 strawman, to the central
//! directory) until every engine has reported the stream exhausted and the
//! compute of every served chunk has finished. [`ReadWindow`] is that
//! bookkeeping, once for every stream.

use chaos_sim::Rng;

use crate::runtime::Addr;

/// Request-window state of one chunk stream.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct ReadWindow {
    /// Requests sent and not yet answered.
    pub outstanding: usize,
    /// In-flight requests per storage engine. A count, not a flag: with an
    /// oversubscribed window (> machine count) two requests can target the
    /// same engine, and the first response must not mark the engine free
    /// while the second is still in flight.
    pub requested: Vec<u32>,
    /// Engines that reported the stream exhausted.
    pub exhausted: Vec<bool>,
    /// Number of `true` entries in `exhausted`.
    pub exhausted_count: usize,
    /// The stream is exhausted everywhere: the directory said so
    /// (centralized placement), or the one eligible engine did
    /// (`LocalOnly`).
    pub dir_exhausted: bool,
    /// Served chunks whose compute has not finished.
    pub inflight_compute: usize,
}

impl ReadWindow {
    /// An empty window over `machines` storage engines.
    pub fn new(machines: usize) -> Self {
        Self {
            outstanding: 0,
            requested: vec![0; machines],
            exhausted: vec![false; machines],
            exhausted_count: 0,
            dir_exhausted: false,
            inflight_compute: 0,
        }
    }

    /// Rearms the window for a new stream, keeping its buffers.
    pub fn reset(&mut self) {
        self.outstanding = 0;
        self.requested.fill(0);
        self.exhausted.fill(false);
        self.exhausted_count = 0;
        self.dir_exhausted = false;
        self.inflight_compute = 0;
    }

    /// Books one more request and returns where it goes: the directory
    /// under `centralized` placement, else an engine chosen by
    /// [`pick_engine`] (only `local` under `LocalOnly`). `None` when the
    /// window of `window` requests is full or no engine is eligible.
    pub fn next_target(
        &mut self,
        rng: &mut Rng,
        window: usize,
        centralized: bool,
        local: Option<usize>,
    ) -> Option<Addr> {
        if self.outstanding >= window {
            return None;
        }
        let to = if centralized {
            if self.dir_exhausted {
                return None;
            }
            Addr::Directory
        } else {
            let oversubscribe = window > self.requested.len();
            let e = pick_engine(rng, &self.requested, &self.exhausted, local, oversubscribe)?;
            self.requested[e] += 1;
            Addr::Storage(e)
        };
        self.outstanding += 1;
        Some(to)
    }

    /// Books one reply from storage engine `source` (`None`: the
    /// directory) that carried a chunk or, when `chunk` is false, the
    /// exhausted notice. Under `local_only` the one eligible engine's
    /// notice ends the stream.
    pub fn on_response(&mut self, source: Option<usize>, chunk: bool, local_only: bool) {
        self.outstanding -= 1;
        if let Some(s) = source {
            // Saturating: under centralized placement replies come from
            // engines the directory chose, which this window never counted.
            self.requested[s] = self.requested[s].saturating_sub(1);
        }
        if chunk {
            self.inflight_compute += 1;
            return;
        }
        match source {
            Some(s) => {
                if !self.exhausted[s] {
                    self.exhausted[s] = true;
                    self.exhausted_count += 1;
                }
                if local_only {
                    self.dir_exhausted = true;
                }
            }
            None => self.dir_exhausted = true,
        }
    }

    /// Whether the stream is finished: exhausted everywhere, nothing in
    /// flight, every served chunk computed.
    pub fn drained(&self) -> bool {
        let exhausted = self.dir_exhausted || self.exhausted_count == self.exhausted.len();
        exhausted && self.outstanding == 0 && self.inflight_compute == 0
    }
}

/// Picks a uniformly random engine that is neither already requested nor
/// exhausted; under locality placement only `local` is eligible. With
/// `oversubscribe`, a second request may target an already-busy engine
/// (windows larger than the machine count, §6.5's past-the-sweet-spot
/// regime).
fn pick_engine(
    rng: &mut Rng,
    requested: &[u32],
    exhausted: &[bool],
    local: Option<usize>,
    oversubscribe: bool,
) -> Option<usize> {
    if let Some(l) = local {
        // LocalOnly: allow multiple outstanding requests to the single
        // eligible engine (its device queue serializes them).
        return (!exhausted[l]).then_some(l);
    }
    // Same distribution and rng consumption as indexing into a collected
    // Vec of candidates: one draw over the idle engines if there are any,
    // else (oversubscribed) one over the live ones.
    let idle = pick_kth(
        rng,
        requested.iter().zip(exhausted).map(|(&r, &x)| r == 0 && !x),
    );
    if idle.is_some() || !oversubscribe {
        return idle;
    }
    pick_kth(rng, exhausted.iter().map(|&x| !x))
}

/// A uniform pick among the positions where `eligible` yields `true`: one
/// `below(count)` draw, then the drawn-th such position; `None`, and no
/// draw, when there is none. This runs once per chunk request with an
/// eligibility that is close to a coin flip per engine, so neither pass
/// branches on it: the count is a sum, and the select packs 64 engines to
/// a word and clears the low set bits.
fn pick_kth(rng: &mut Rng, mut eligible: impl Iterator<Item = bool> + Clone) -> Option<usize> {
    let count: u64 = eligible.clone().map(u64::from).sum();
    if count == 0 {
        return None;
    }
    let mut k = rng.below(count) as u32;
    for base in (0..).step_by(64) {
        let mut word = eligible
            .by_ref()
            .take(64)
            .enumerate()
            .fold(0u64, |w, (i, ok)| w | u64::from(ok) << i);
        let ones = word.count_ones();
        if k < ones {
            for _ in 0..k {
                word &= word - 1;
            }
            return Some(base + word.trailing_zeros() as usize);
        }
        k -= ones;
    }
    unreachable!("the draw is below the eligible count")
}

#[cfg(test)]
mod tests {
    use super::{pick_engine, ReadWindow};
    use crate::runtime::Addr;
    use chaos_sim::Rng;

    /// Fills `w` to `window` requests and returns the engines asked, in
    /// request order.
    fn fill(w: &mut ReadWindow, rng: &mut Rng, window: usize) -> Vec<usize> {
        std::iter::from_fn(|| w.next_target(rng, window, false, None))
            .map(|to| match to {
                Addr::Storage(e) => e,
                other => panic!("distributed placement asked {other:?}"),
            })
            .collect()
    }

    /// Regression: with an oversubscribed window, two requests may be in
    /// flight to one engine. After the *first* response the engine must
    /// still count as busy — a boolean flag would have marked it free and
    /// skewed the window accounting.
    #[test]
    fn one_response_does_not_clear_a_doubly_requested_engine() {
        let mut rng = Rng::new(2);
        let mut w = ReadWindow::new(2);
        // Window of 3 over 2 engines: one request each, then the fallback
        // doubles up on one of them.
        let asked = fill(&mut w, &mut rng, 3);
        assert_eq!(asked.len(), 3);
        let twice = asked[2];
        assert_eq!(w.requested[twice], 2);
        // The first chunk from the doubled engine arrives; one request is
        // still in flight there.
        w.on_response(Some(twice), true, false);
        assert_eq!(w.requested[twice], 1, "second request still in flight");
        // With booleans the response would have freed the engine and the
        // next pick could target it as "idle"; with counts there is no
        // idle engine, so a pick that may not oversubscribe finds nothing.
        assert_eq!(
            pick_engine(&mut rng, &w.requested, &w.exhausted, None, false),
            None
        );
        // Once the second response drains it, it is the one idle engine.
        w.on_response(Some(twice), true, false);
        assert_eq!(
            w.next_target(&mut rng, 3, false, None),
            Some(Addr::Storage(twice))
        );
    }

    #[test]
    fn the_window_caps_requests_and_doubles_up_only_on_live_engines() {
        let mut rng = Rng::new(5);
        let mut w = ReadWindow::new(4);
        // Within the machine count: distinct engines, at most `window`.
        let asked = fill(&mut w, &mut rng, 3);
        assert_eq!(asked.len(), 3);
        assert_eq!(w.outstanding, 3);
        assert!(w.requested.iter().all(|&r| r <= 1), "{:?}", w.requested);
        // Engine 1 and 3 report exhausted; their requests are answered.
        w.reset();
        for e in [1, 3] {
            w.requested[e] = 1;
            w.outstanding += 1;
            w.on_response(Some(e), false, false);
        }
        // A window of 10 over 4 machines asks the two idle engines first,
        // then doubles up, but only on those two live engines.
        let asked = fill(&mut w, &mut rng, 10);
        assert_eq!(asked.len(), 10);
        assert_ne!(asked[0], asked[1]);
        assert!(asked.iter().all(|&e| e == 0 || e == 2), "asked {asked:?}");
        assert_eq!(w.requested[0] + w.requested[2], 10);
        assert_eq!((w.requested[1], w.requested[3]), (0, 0));
        assert_eq!(
            w.next_target(&mut rng, 10, false, None),
            None,
            "window full"
        );
    }

    #[test]
    fn drained_waits_for_every_notice_and_every_computed_chunk() {
        let mut rng = Rng::new(6);
        let mut w = ReadWindow::new(3);
        assert!(!w.drained(), "a fresh stream has not started");
        let asked = fill(&mut w, &mut rng, 3);
        // The first engine serves a chunk, the others report exhausted.
        w.on_response(Some(asked[0]), true, false);
        for &e in &asked[1..] {
            w.on_response(Some(e), false, false);
            assert!(!w.drained());
        }
        // The refill asks the engine that served again; it is exhausted
        // too, but the served chunk is still computing.
        assert_eq!(fill(&mut w, &mut rng, 3), [asked[0]]);
        w.on_response(Some(asked[0]), false, false);
        assert_eq!(w.exhausted_count, 3);
        assert!(!w.drained(), "one chunk's compute is still in flight");
        w.inflight_compute -= 1;
        assert!(w.drained());
        assert!(w.requested.iter().all(|&r| r == 0));
    }

    #[test]
    fn the_local_engines_notice_drains_a_local_only_window() {
        let mut rng = Rng::new(7);
        let mut w = ReadWindow::new(4);
        // LocalOnly funnels every request to the local engine, however
        // many are in flight there.
        for _ in 0..3 {
            assert_eq!(
                w.next_target(&mut rng, 3, false, Some(2)),
                Some(Addr::Storage(2))
            );
        }
        w.on_response(Some(2), true, true);
        w.on_response(Some(2), true, true);
        // Its one exhausted notice ends the stream; the three other
        // engines are never asked.
        w.on_response(Some(2), false, true);
        assert_eq!(w.exhausted_count, 1);
        assert_eq!(w.next_target(&mut rng, 3, false, Some(2)), None);
        assert!(!w.drained(), "two chunks are still computing");
        w.inflight_compute -= 2;
        assert!(w.drained());
    }

    #[test]
    fn a_directory_none_drains_a_centralized_window() {
        let mut rng = Rng::new(8);
        let mut w = ReadWindow::new(4);
        for _ in 0..2 {
            assert_eq!(
                w.next_target(&mut rng, 2, true, None),
                Some(Addr::Directory)
            );
        }
        // One lookup found a chunk on engine 3 (the window never counted a
        // request there), the other found none.
        w.on_response(None, false, false);
        assert!(w.dir_exhausted);
        assert_eq!(w.next_target(&mut rng, 2, true, None), None);
        // The storage engine the directory pointed at answers; its request
        // is the directory lookup's window slot.
        w.on_response(Some(3), true, false);
        assert_eq!(w.requested, [0; 4]);
        w.inflight_compute -= 1;
        assert!(w.drained());
    }

    #[test]
    fn reset_after_a_partial_stream_equals_a_fresh_window() {
        let mut rng = Rng::new(9);
        let mut w = ReadWindow::new(5);
        let asked = fill(&mut w, &mut rng, 7);
        w.on_response(Some(asked[0]), true, false);
        w.on_response(Some(asked[1]), false, false);
        w.on_response(None, false, false);
        assert_ne!(w, ReadWindow::new(5));
        w.reset();
        assert_eq!(w, ReadWindow::new(5));
    }

    /// `pick_engine` as it was before the eligibility mask — two filtered
    /// scans per draw — kept as the oracle for the test below.
    fn pick_engine_two_scan(
        rng: &mut Rng,
        requested: &[u32],
        exhausted: &[bool],
        local: Option<usize>,
        oversubscribe: bool,
    ) -> Option<usize> {
        if let Some(l) = local {
            return (!exhausted[l]).then_some(l);
        }
        let idle = (0..requested.len())
            .filter(|&e| requested[e] == 0 && !exhausted[e])
            .count();
        if idle > 0 {
            let k = rng.below(idle as u64) as usize;
            return (0..requested.len())
                .filter(|&e| requested[e] == 0 && !exhausted[e])
                .nth(k);
        }
        if oversubscribe {
            let live = exhausted.iter().filter(|&&x| !x).count();
            if live > 0 {
                let k = rng.below(live as u64) as usize;
                return (0..exhausted.len()).filter(|&e| !exhausted[e]).nth(k);
            }
        }
        None
    }

    /// Same engine, same rng state afterwards, over random request and
    /// exhaustion states — sparse, dense, all busy, all exhausted — at
    /// machine counts on both sides of the mask's 64-engine word.
    #[test]
    fn pick_engine_matches_the_two_scan_oracle() {
        let mut gen = Rng::new(0xE1161B1E);
        for machines in [1usize, 7, 32, 64, 65, 130] {
            for case in 0..600u64 {
                // Out of 8: how many engines are busy, how many exhausted.
                let (busy, gone) = (gen.below(10), gen.below(10));
                let requested: Vec<u32> = (0..machines)
                    .map(|_| u32::from(gen.below(8) < busy) * (1 + gen.below(3) as u32))
                    .collect();
                let exhausted: Vec<bool> = (0..machines).map(|_| gen.below(8) < gone).collect();
                let local = (gen.below(4) == 0).then(|| gen.below(machines as u64) as usize);
                let oversubscribe = gen.below(2) == 0;
                let mut rng = Rng::new(case).derive(machines as u64);
                let mut oracle_rng = rng.clone();
                // Several draws per state: the rng states must stay in step.
                for _ in 0..4 {
                    assert_eq!(
                        pick_engine(&mut rng, &requested, &exhausted, local, oversubscribe),
                        pick_engine_two_scan(
                            &mut oracle_rng,
                            &requested,
                            &exhausted,
                            local,
                            oversubscribe
                        ),
                        "m={machines} case={case} requested={requested:?} exhausted={exhausted:?}"
                    );
                    assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "rng out of step");
                }
            }
        }
    }

    #[test]
    fn pick_engine_prefers_idle_engines() {
        let mut rng = Rng::new(1);
        // Engine 0 has an in-flight request; only engine 1 is eligible.
        for _ in 0..32 {
            assert_eq!(
                pick_engine(&mut rng, &[1, 0], &[false, false], None, true),
                Some(1)
            );
        }
    }

    #[test]
    fn oversubscribe_falls_back_to_busy_engines_only_when_all_are_busy() {
        let mut rng = Rng::new(3);
        let requested = vec![1u32, 2];
        // Without oversubscription: nothing to pick.
        assert_eq!(
            pick_engine(&mut rng, &requested, &[false, false], None, false),
            None
        );
        // With oversubscription: any non-exhausted engine may be doubled up.
        let pick = pick_engine(&mut rng, &requested, &[false, true], None, true);
        assert_eq!(pick, Some(0), "exhausted engines are never picked");
    }

    #[test]
    fn local_only_ignores_inflight_counts() {
        let mut rng = Rng::new(4);
        // LocalOnly placement funnels everything to one engine; its device
        // queue serializes, so in-flight counts do not gate it.
        assert_eq!(
            pick_engine(&mut rng, &[5, 0], &[false, false], Some(0), false),
            Some(0)
        );
        assert_eq!(
            pick_engine(&mut rng, &[5, 0], &[true, false], Some(0), false),
            None,
            "but an exhausted local engine ends the stream"
        );
    }
}
