//! The activity contract: which vertices can emit updates this iteration.
//!
//! Chaos as published streams the *entire* edge set through scatter every
//! iteration. Many of the Table 1 algorithms are frontier computations
//! whose useful scatter sources shrink monotonically (BFS levels, SSSP
//! relaxations, WCC label changes, Borůvka contraction); streaming edges
//! whose source provably emits nothing is pure waste. A program opts into
//! selective streaming by declaring an [`ActivityModel`] and answering
//! [`crate::GasProgram::is_active`] per vertex; the engine summarizes the
//! answers into an [`ActiveSet`] bitset per streaming partition and ships
//! it with chunk requests so storage engines can skip whole chunks whose
//! source window contains no active vertex — without reading them.
//!
//! The contract is *conservative*: if `is_active(v, state, iter)` is
//! `false`, then `scatter(v, state, e, iter)` must return `None` for every
//! edge whose scatter-side endpoint is `v`. Debug builds of `chaos-core`
//! enforce this at run time by streaming every skipped chunk through the
//! kernel and panicking if anything comes out.

use chaos_graph::VertexId;

/// How a program's scatter activity evolves across iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActivityModel {
    /// Every vertex may scatter every iteration; the engine streams the
    /// full edge set (the paper's behavior, and the default).
    #[default]
    Dense,
    /// [`crate::GasProgram::is_active`] gates scatter sources; storage
    /// chunks whose source window holds no active vertex are skipped.
    Frontier,
    /// [`ActivityModel::Frontier`], plus [`crate::GasProgram::edge_dead`]
    /// identifies edges that can never produce an update again; the engine
    /// tombstones them and compacts edge chunks in place once dead density
    /// crosses a threshold, so later iterations stream fewer bytes.
    Shrinking,
}

/// A bitset of active scatter-side vertices over one partition's
/// contiguous vertex range.
///
/// Built by the computation engine from the freshly loaded vertex states
/// at the start of a scatter stream (after any phase switch, so the bits
/// reflect the program's *current* phase), and shipped with every edge
/// chunk request. Identical for every engine streaming the partition —
/// masters and stealers load the same vertex set — so skip decisions are
/// consistent under work stealing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActiveSet {
    base: VertexId,
    len: u64,
    words: Vec<u64>,
    active: u64,
}

impl ActiveSet {
    /// Builds the set for vertices `base..base + n`, asking `f` for each
    /// partition-local offset.
    pub fn from_fn(base: VertexId, n: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut words = vec![0u64; n.div_ceil(64)];
        let mut active = 0u64;
        for off in 0..n {
            if f(off) {
                words[off / 64] |= 1u64 << (off % 64);
                active += 1;
            }
        }
        Self {
            base,
            len: n as u64,
            words,
            active,
        }
    }

    /// First vertex id covered.
    pub fn base(&self) -> VertexId {
        self.base
    }

    /// Number of vertices covered.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the set covers no vertices at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of active vertices.
    pub fn active_count(&self) -> u64 {
        self.active
    }

    /// Whether no vertex is active (every chunk is skippable).
    pub fn none_active(&self) -> bool {
        self.active == 0
    }

    /// Whether every covered vertex is active (the set carries no
    /// information; senders may drop it and stream densely).
    pub fn all_active(&self) -> bool {
        self.active == self.len
    }

    /// Whether vertex `v` is active. Vertices outside the covered range
    /// are inactive.
    pub fn contains(&self, v: VertexId) -> bool {
        if v < self.base || v >= self.base + self.len {
            return false;
        }
        let off = (v - self.base) as usize;
        self.words[off / 64] & (1u64 << (off % 64)) != 0
    }

    /// Whether any vertex in the *inclusive* id window `[lo, hi]` is
    /// active — the chunk-skip test. An inverted window (`lo > hi`, the
    /// representation of an empty chunk) holds nothing.
    pub fn any_in_window(&self, lo: VertexId, hi: VertexId) -> bool {
        if lo > hi || self.active == 0 {
            return false;
        }
        let lo = lo.max(self.base);
        let hi = hi.min(self.base + self.len - 1);
        if lo > hi {
            return false;
        }
        let (lo, hi) = ((lo - self.base) as usize, (hi - self.base) as usize);
        let (wl, wh) = (lo / 64, hi / 64);
        let first_mask = !0u64 << (lo % 64);
        let last_mask = !0u64 >> (63 - hi % 64);
        if wl == wh {
            return self.words[wl] & first_mask & last_mask != 0;
        }
        if self.words[wl] & first_mask != 0 || self.words[wh] & last_mask != 0 {
            return true;
        }
        self.words[wl + 1..wh].iter().any(|&w| w != 0)
    }

    /// Smallest active vertex id in the *inclusive* window `[lo, hi]`, or
    /// `None` if the window holds no active vertex — the block-skip probe.
    /// With sorted chunk interiors the serving side binary-searches the
    /// block index for the block containing the returned key, jumping over
    /// every block between two frontier vertices in one step.
    pub fn first_active_in(&self, lo: VertexId, hi: VertexId) -> Option<VertexId> {
        if lo > hi || self.active == 0 || self.len == 0 {
            return None;
        }
        let lo = lo.max(self.base);
        let hi = hi.min(self.base + self.len - 1);
        if lo > hi {
            return None;
        }
        let (lo, hi) = ((lo - self.base) as usize, (hi - self.base) as usize);
        let (wl, wh) = (lo / 64, hi / 64);
        for w in wl..=wh {
            let mut word = self.words[w];
            if w == wl {
                word &= !0u64 << (lo % 64);
            }
            if w == wh {
                word &= !0u64 >> (63 - hi % 64);
            }
            if word != 0 {
                let off = w * 64 + word.trailing_zeros() as usize;
                return Some(self.base + off as u64);
            }
        }
        None
    }

    /// Wire size of the set when shipped with a chunk request: the packed
    /// bitmap plus a small fixed header.
    pub fn wire_bytes(&self) -> u64 {
        self.len.div_ceil(8) + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_counts_and_contains() {
        let s = ActiveSet::from_fn(100, 130, |off| off % 3 == 0);
        assert_eq!(s.len(), 130);
        assert_eq!(s.active_count(), 44);
        assert!(s.contains(100) && s.contains(103) && !s.contains(101));
        assert!(!s.contains(99) && !s.contains(230), "out of range");
        assert!(!s.all_active() && !s.none_active());
    }

    #[test]
    fn window_queries_cross_word_boundaries() {
        let s = ActiveSet::from_fn(0, 256, |off| off == 70 || off == 200);
        assert!(s.any_in_window(70, 70));
        assert!(s.any_in_window(0, 70));
        assert!(s.any_in_window(64, 127));
        assert!(!s.any_in_window(0, 69));
        assert!(!s.any_in_window(71, 199));
        assert!(s.any_in_window(71, 200));
        assert!(s.any_in_window(0, u64::MAX), "clamped to the covered range");
        assert!(!s.any_in_window(257, 1000), "fully outside");
    }

    #[test]
    fn inverted_window_is_empty() {
        let s = ActiveSet::from_fn(0, 64, |_| true);
        assert!(s.all_active());
        assert!(!s.any_in_window(u64::MAX, 0), "empty-chunk representation");
        assert!(s.any_in_window(5, 5));
    }

    #[test]
    fn empty_and_full_sets() {
        let none = ActiveSet::from_fn(10, 100, |_| false);
        assert!(none.none_active());
        assert!(!none.any_in_window(0, u64::MAX));
        let empty = ActiveSet::from_fn(0, 0, |_| true);
        assert!(empty.is_empty() && empty.none_active());
        assert!(!empty.any_in_window(0, 10));
    }

    #[test]
    fn first_active_in_finds_lowest_and_clamps() {
        let s = ActiveSet::from_fn(100, 256, |off| off == 70 || off == 200);
        assert_eq!(s.first_active_in(0, u64::MAX), Some(170));
        assert_eq!(s.first_active_in(170, 170), Some(170));
        assert_eq!(s.first_active_in(171, 299), None);
        assert_eq!(s.first_active_in(171, 300), Some(300));
        assert_eq!(s.first_active_in(301, u64::MAX), None);
        assert_eq!(s.first_active_in(u64::MAX, 0), None, "inverted window");
        let none = ActiveSet::from_fn(0, 128, |_| false);
        assert_eq!(none.first_active_in(0, u64::MAX), None);
        let empty = ActiveSet::from_fn(0, 0, |_| true);
        assert_eq!(empty.first_active_in(0, 10), None);
    }

    #[test]
    fn first_active_in_agrees_with_any_in_window() {
        let s = ActiveSet::from_fn(5, 200, |off| off % 7 == 3 || off == 63 || off == 64);
        for lo in (0..220).step_by(3) {
            for hi in (lo..225).step_by(5) {
                let first = s.first_active_in(lo, hi);
                assert_eq!(first.is_some(), s.any_in_window(lo, hi));
                if let Some(v) = first {
                    assert!(s.contains(v) && v >= lo && v <= hi);
                    if v > lo {
                        assert!(
                            !s.any_in_window(lo, v - 1),
                            "nothing active below the returned key"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wire_bytes_scale_with_len() {
        assert_eq!(ActiveSet::from_fn(0, 0, |_| false).wire_bytes(), 16);
        assert_eq!(ActiveSet::from_fn(0, 8, |_| false).wire_bytes(), 17);
        assert_eq!(ActiveSet::from_fn(0, 1024, |_| false).wire_bytes(), 144);
    }
}
