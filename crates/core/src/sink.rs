//! The scatter sink (§3, §5 of the paper): every update a scatter kernel
//! emits is appended to the output buffer of its destination's streaming
//! partition. That append is the engine's innermost loop.
//!
//! [`scatter_chunk`] runs a program's kernel over one edge chunk into a
//! sink that writes through one cursor per output buffer. A push routes
//! the destination, compares the buffer's cursor with its limit, writes
//! and moves the cursor on. The limit is the slot whose write brings the
//! buffer to the flush threshold, or else the end of its allocation. At
//! the limit an out-of-line helper records the buffer in the fill-order
//! list or grows it by `Vec::push`'s amortised rule, so capacities,
//! allocations, flush points and flush order are those of one `Vec::push`
//! per update, and a kernel may emit any number of updates per edge.
//!
//! Kernels push global destination ids; the sink stores a
//! [`LocalUpdate`], the destination's offset within its partition
//! (`dst - tp·stride`), since the buffer an update sits in already names
//! its partition.

use chaos_gas::{EdgeRef, GasProgram, LocalUpdate, UpdateSink};
use chaos_graph::{PartitionSpec, VertexId};

/// Runs `program`'s scatter kernel over `edges` against one partition's
/// vertex set (`base`, `states`, as [`GasProgram::scatter_chunk`] takes
/// them) into `bufs`, one output buffer per partition, and appends each
/// buffer that reaches the threshold to `scratch.full`, in fill order.
/// Returns the updates the kernel emitted.
///
/// Kept out of line so the kernel's loop is compiled on its own, with the
/// route and the sink's slices in registers.
///
/// # Panics
///
/// Panics if `bufs` does not hold one buffer per partition of `scratch`.
#[inline(never)]
pub fn scatter_chunk<P: GasProgram, E: EdgeRef>(
    program: &P,
    base: VertexId,
    states: &[P::VertexState],
    edges: &[E],
    iter: u32,
    bufs: &mut [Vec<LocalUpdate<P::Update>>],
    scratch: &mut Cursors<P::Update>,
) -> u64 {
    let before: usize = bufs.iter().map(Vec::len).sum();
    program.scatter_chunk(
        base,
        states,
        edges,
        iter,
        &mut PartitionSink::new(bufs, scratch),
    );
    (bufs.iter().map(Vec::len).sum::<usize>() - before) as u64
}

/// The sink's scratch, kept by its owner across chunks so that a chunk
/// allocates nothing for it: one cursor per output buffer, the route and
/// threshold they write under, and the fill-order list.
pub struct Cursors<U> {
    cursors: Vec<Cursor<U>>,
    route: Route,
    /// Target records per update chunk; a buffer reaching it is flushed
    /// after the kernel returns.
    cap: usize,
    /// Buffers that reached `cap` during the last chunks, in fill order;
    /// the owner drains it.
    pub full: Vec<usize>,
}

// SAFETY: `full`, `route` and `cap` are plain data. The cursors are
// dereferenced only by a `PartitionSink`, which sets them afresh from the
// `&mut` borrow of the buffers it holds; between chunks they are inert
// addresses, so sending the scratch sends no access.
unsafe impl<U: Send> Send for Cursors<U> {}

impl<U> Cursors<U> {
    /// Scratch for one output buffer per partition of `spec`, flushed at
    /// `cap` records.
    pub fn new(spec: &PartitionSpec, cap: usize) -> Self {
        Self {
            cursors: (0..spec.num_partitions)
                .map(|_| Cursor {
                    at: std::ptr::null_mut(),
                    limit: std::ptr::null(),
                })
                .collect(),
            route: Route::new(spec),
            cap,
            full: Vec::new(),
        }
    }
}

/// One output buffer's write position while a sink is alive.
struct Cursor<U> {
    /// The next free slot.
    at: *mut LocalUpdate<U>,
    /// The next slot whose write needs [`at_limit`]: the one that brings
    /// the buffer to `cap` records, or else the end of the allocation.
    limit: *const LocalUpdate<U>,
}

impl<U> Cursor<U> {
    /// A cursor at slot `at` of `buf`, with the limit at the first slot
    /// from `next` on that needs [`at_limit`].
    fn new(buf: &mut Vec<LocalUpdate<U>>, at: usize, next: usize, cap: usize) -> Self {
        let crossing = if next < cap { cap - 1 } else { usize::MAX };
        let slots = buf.as_mut_ptr();
        Self {
            at: slots.wrapping_add(at),
            limit: slots.wrapping_add(crossing.min(buf.capacity())),
        }
    }

    /// Sets `buf`'s length to the cursor; returns it.
    fn commit(&self, buf: &mut Vec<LocalUpdate<U>>) -> usize {
        // SAFETY: `at` was placed at `buf`'s length inside its current
        // allocation (`Cursor::new`), and each push wrote the slot at it
        // before moving it one forward, never past the limit, which is at
        // most the capacity. So `len <= capacity` and every slot below it
        // is initialised.
        unsafe {
            let len = self.at.offset_from(buf.as_ptr()) as usize;
            buf.set_len(len);
            len
        }
    }
}

/// Routes kernel-emitted updates into the output buffers through one
/// cursor each; dropping it commits every buffer's length.
struct PartitionSink<'a, U> {
    route: Route,
    cap: usize,
    bufs: &'a mut [Vec<LocalUpdate<U>>],
    cursors: &'a mut [Cursor<U>],
    full: &'a mut Vec<usize>,
}

impl<'a, U> PartitionSink<'a, U> {
    fn new(bufs: &'a mut [Vec<LocalUpdate<U>>], scratch: &'a mut Cursors<U>) -> Self {
        assert_eq!(
            bufs.len(),
            scratch.cursors.len(),
            "one output buffer per partition"
        );
        let cap = scratch.cap;
        for (c, b) in scratch.cursors.iter_mut().zip(bufs.iter_mut()) {
            let len = b.len();
            *c = Cursor::new(b, len, len, cap);
        }
        Self {
            route: scratch.route,
            cap,
            bufs,
            cursors: &mut scratch.cursors,
            full: &mut scratch.full,
        }
    }
}

impl<U> UpdateSink<U> for PartitionSink<'_, U> {
    #[inline]
    fn push(&mut self, dst: VertexId, payload: U) {
        let (tp, off) = self.route.of(dst);
        let c = &mut self.cursors[tp];
        if c.at.cast_const() == c.limit {
            at_limit(&mut self.bufs[tp], c, self.full, tp, self.cap);
        }
        // SAFETY: `at` lies inside `bufs[tp]`'s allocation and before the
        // limit, which is at most its end (`Cursor::new`; `at_limit` moves
        // a limit that `at` reached past it), so it is a free slot of the
        // buffer's spare capacity.
        unsafe {
            let at = c.at;
            at.write(local(off, payload));
            c.at = at.add(1);
        }
    }
}

impl<U> Drop for PartitionSink<'_, U> {
    fn drop(&mut self) {
        for (c, b) in self.cursors.iter().zip(self.bufs.iter_mut()) {
            c.commit(b);
        }
    }
}

/// A push reached `c`'s limit in `buf`, partition `tp`'s buffer: grows a
/// full buffer by `reserve(1)`, `Vec::push`'s amortised rule, records the
/// buffer when the coming write brings it to `cap` records, and moves the
/// limit past the slot the write takes.
///
/// Takes the sink's parts, not the sink, so that the sink's address does
/// not escape the kernel's loop and its fields stay in registers.
#[cold]
#[inline(never)]
fn at_limit<U>(
    buf: &mut Vec<LocalUpdate<U>>,
    c: &mut Cursor<U>,
    full: &mut Vec<usize>,
    tp: usize,
    cap: usize,
) {
    let len = c.commit(buf);
    if len == buf.capacity() {
        buf.reserve(1);
    }
    if len + 1 == cap {
        full.push(tp);
    }
    *c = Cursor::new(buf, len, len + 1, cap);
}

/// Counting-only sink for the debug-build skip check: skipped chunks
/// stream into it, and any update that lands here is an activity-contract
/// violation.
pub(crate) struct CountSink(pub(crate) u64);

impl<U> UpdateSink<U> for CountSink {
    #[inline]
    fn push(&mut self, _dst: VertexId, _payload: U) {
        self.0 += 1;
    }
}

/// [`PartitionSpec::partition_of`] with the stride test hoisted out of
/// the loop — a shift for a power-of-two stride, the division otherwise,
/// and the same clamp to the last partition — and the offset within the
/// partition it names.
#[derive(Debug, Clone, Copy)]
struct Route {
    shift: Option<u32>,
    stride: u64,
    /// `stride - 1`: the offset under a power-of-two stride.
    mask: u64,
    last: usize,
}

impl Route {
    fn new(spec: &PartitionSpec) -> Self {
        Self {
            shift: spec
                .stride
                .is_power_of_two()
                .then(|| spec.stride.trailing_zeros()),
            stride: spec.stride,
            mask: spec.stride - 1,
            last: spec.num_partitions - 1,
        }
    }

    /// `(partition, v mod stride)`: for an id in range the offset is
    /// `v - partition·stride`. It is taken from the unclamped quotient (a
    /// mask, or the remainder the division yields anyway), so it does
    /// not wait on the clamp; the clamp keeps the partition in range, and
    /// an id past the last partition breaks the kernel's contract either
    /// way.
    #[inline]
    fn of(self, v: VertexId) -> (usize, u64) {
        let (q, off) = match self.shift {
            Some(s) => (v >> s, v & self.mask),
            None => (v / self.stride, v % self.stride),
        };
        ((q as usize).min(self.last), off)
    }
}

/// The stored record. `Cluster::new` rejects graphs of more than 2^32
/// vertices, so no stride exceeds 2^32 and a valid destination's offset
/// always fits.
#[inline]
fn local<U>(off: u64, payload: U) -> LocalUpdate<U> {
    debug_assert!(
        off <= u64::from(u32::MAX),
        "partition offset {off} does not fit an update record"
    );
    LocalUpdate {
        off: off as u32,
        payload,
    }
}

#[cfg(test)]
mod tests {
    use chaos_gas::{
        BareEdge, Control, EdgeRecord, EdgeRef, GasProgram, IterationAggregates, LocalUpdate,
        Update, UpdateSink,
    };
    use chaos_graph::{Edge, PartitionSpec, VertexId};
    use chaos_sim::Rng;

    use super::{scatter_chunk, Cursors, Route};

    /// Emits `state ^ dst` over every edge whose source is not 3 mod 7.
    #[derive(Clone)]
    struct Sieve;

    impl GasProgram for Sieve {
        type VertexState = u64;
        type Update = u64;
        type Accum = u64;
        type HeldEdge = BareEdge;

        fn name(&self) -> &'static str {
            "Sieve"
        }

        fn init(&self, v: VertexId, _d: u64) -> u64 {
            v
        }

        fn scatter(&self, _v: VertexId, state: &u64, edge: &Edge, _i: u32) -> Option<u64> {
            (edge.src % 7 != 3).then_some(state ^ edge.dst)
        }

        fn gather(&self, _acc: &mut u64, _dst: VertexId, _s: &u64, _p: &u64) {}

        fn merge(&self, _into: &mut u64, _from: &u64) {}

        fn apply(&self, _v: VertexId, _s: &mut u64, _a: &u64, _i: u32) -> bool {
            false
        }

        fn end_iteration(&mut self, _i: u32, _a: &IterationAggregates) -> Control {
            Control::Done
        }
    }

    /// Emits two updates per edge, `1` then `2`, to its destination.
    #[derive(Clone)]
    struct Doubler;

    impl GasProgram for Doubler {
        type VertexState = u64;
        type Update = u64;
        type Accum = u64;
        type HeldEdge = BareEdge;

        fn name(&self) -> &'static str {
            "Doubler"
        }

        fn init(&self, v: VertexId, _d: u64) -> u64 {
            v
        }

        fn scatter(&self, _v: VertexId, _s: &u64, _e: &Edge, _i: u32) -> Option<u64> {
            Some(1)
        }

        fn gather(&self, _acc: &mut u64, _dst: VertexId, _s: &u64, _p: &u64) {}

        fn merge(&self, _into: &mut u64, _from: &u64) {}

        fn apply(&self, _v: VertexId, _s: &mut u64, _a: &u64, _i: u32) -> bool {
            false
        }

        fn end_iteration(&mut self, _i: u32, _a: &IterationAggregates) -> Control {
            Control::Done
        }

        fn scatter_chunk<E: EdgeRef, S: UpdateSink<u64>>(
            &self,
            _base: VertexId,
            _states: &[u64],
            edges: &[E],
            _iter: u32,
            out: &mut S,
        ) {
            for e in edges {
                out.push(e.dst(), 1);
                out.push(e.dst(), 2);
            }
        }
    }

    const N: u64 = 1024;

    /// Output buffers with the given `(len, capacity)` each; built afresh
    /// per side because a clone does not keep capacity.
    fn buffers(init: &[(usize, usize)]) -> Vec<Vec<LocalUpdate<u64>>> {
        init.iter()
            .map(|&(len, capacity)| {
                let mut b = Vec::with_capacity(capacity);
                b.extend((0..len as u32).map(|i| LocalUpdate {
                    off: i,
                    payload: !u64::from(i),
                }));
                b
            })
            .collect()
    }

    fn capacities<T>(bufs: &[Vec<T>]) -> Vec<usize> {
        bufs.iter().map(Vec::capacity).collect()
    }

    /// Each buffer's records as global updates: `(partition, base + off)`.
    fn globalize(spec: &PartitionSpec, bufs: &[Vec<LocalUpdate<u64>>]) -> Vec<Vec<Update<u64>>> {
        bufs.iter()
            .enumerate()
            .map(|(tp, b)| {
                let base = spec.range(tp).start;
                b.iter()
                    .map(|u| Update {
                        dst: base + u64::from(u.off),
                        payload: u.payload,
                    })
                    .collect()
            })
            .collect()
    }

    /// Scatters `edges` two ways from the same buffer state — a plain
    /// `Vec<Update>` oracle routed afterwards by `partition_of` and pushed
    /// one `Vec::push` per update, and [`scatter_chunk`] over the edges
    /// packed as the engine holds them — and asserts that each buffer
    /// holds, as `(partition, base + off)`, the oracle's updates of its
    /// partition, with identical capacities, fill-order list and count.
    fn check<P>(
        program: &P,
        case: &str,
        parts: usize,
        cap: usize,
        init: &[(usize, usize)],
        edges: &[Edge],
    ) where
        P: GasProgram<VertexState = u64, Update = u64>,
    {
        let spec = PartitionSpec::with_partitions(N, parts);
        let states: Vec<u64> = (0..N).collect();

        let mut all: Vec<Update<u64>> = Vec::new();
        program.scatter_chunk(0, &states, edges, 0, &mut all);
        // The oracle in global ids, and plain pushes for the capacities
        // (a `Vec` grows by record count, whatever the record).
        let start = buffers(init);
        let (mut want, mut want_caps) = (globalize(&spec, &start), start);
        let mut want_full = Vec::new();
        for u in &all {
            let tp = spec.partition_of(u.dst);
            want[tp].push(u.clone());
            want_caps[tp].push(LocalUpdate { off: 0, payload: 0 });
            if want[tp].len() == cap {
                want_full.push(tp);
            }
        }

        let mut bufs = buffers(init);
        let mut scratch = Cursors::new(&spec, cap);
        let packed: Vec<BareEdge> = edges.iter().map(BareEdge::pack).collect();
        let produced = scatter_chunk(program, 0, &states, &packed, 0, &mut bufs, &mut scratch);

        assert_eq!(globalize(&spec, &bufs), want, "{case}: contents");
        assert_eq!(
            capacities(&bufs),
            capacities(&want_caps),
            "{case}: capacities"
        );
        assert_eq!(scratch.full, want_full, "{case}: fill order");
        assert_eq!(produced, all.len() as u64, "{case}: produced");
    }

    /// Edges from emitting sources (0 mod 7) to the given destinations.
    fn to(dsts: impl IntoIterator<Item = u64>) -> Vec<Edge> {
        dsts.into_iter().map(|d| Edge::new(0, d)).collect()
    }

    #[test]
    fn route_is_partition_of_and_offset_in_it() {
        for parts in [1, 3, 4, 7, 8, 32, 100, 1024, 2000] {
            let spec = PartitionSpec::with_partitions(N, parts);
            let route = Route::new(&spec);
            for v in 0..N {
                let tp = spec.partition_of(v);
                assert_eq!(
                    route.of(v),
                    (tp, v - spec.range(tp).start),
                    "{parts} partitions, v = {v}"
                );
            }
            assert_eq!(
                route.of(u64::MAX).0,
                parts - 1,
                "out-of-range ids clamp like partition_of"
            );
        }
    }

    /// Seeded destination streams over every partition count, from
    /// buffers empty, roomy, nearly full and past the threshold.
    #[test]
    fn cursor_sink_matches_vec_oracle() {
        let mut rng = Rng::new(0x5CA7);
        for parts in [1usize, 3, 4, 8, 32, 100] {
            for case in 0..40 {
                let cap = 1 + rng.below(600) as usize;
                let init: Vec<(usize, usize)> = (0..parts)
                    .map(|_| {
                        let len = rng.below(cap as u64 + 50) as usize;
                        let extra = match rng.below(3) {
                            0 => 0,
                            1 => rng.below(8),
                            _ => rng.below(2000),
                        };
                        (len, len + extra as usize)
                    })
                    .collect();
                let edges: Vec<Edge> = (0..rng.below(1500))
                    .map(|_| Edge::new(rng.below(N), rng.below(N)))
                    .collect();
                let case = format!("{parts} partitions, case {case}");
                check(&Sieve, &case, parts, cap, &init, &edges);
            }
        }
    }

    #[test]
    fn a_buffer_exactly_full_at_the_start_grows_on_its_first_write() {
        let edges = to((0..300u64).map(|i| (i * 37) % N));
        let init = [(10, 4096), (0, 0), (100, 100), (3, 3)];
        check(&Sieve, "full", 4, 150, &init, &edges);
        check(&Sieve, "empty", 3, 40, &[(0, 0); 3], &edges);
        check(&Sieve, "no edges", 3, 40, &[(7, 7); 3], &[]);
    }

    #[test]
    fn the_cap_th_write_landing_on_a_grow_is_recorded_once() {
        // Partition 1 holds 99 of 99 slots: write 100 both grows it and
        // brings it to `cap`; partition 3 crosses after it, without a grow.
        let init = [(0, 4096), (99, 99), (0, 4096), (98, 4096)];
        let edges = to([300, 10, 800, 801, 5, 302]);
        check(&Sieve, "grow and cross", 4, 100, &init, &edges);
        check(&Sieve, "one partition", 1, 64, &[(63, 63)], &to(0..200));
    }

    #[test]
    fn a_cap_above_capacity_grows_before_it_crosses() {
        // The first limit is the allocation's end; after the grows, the
        // limit is the crossing slot.
        let init = [(0, 0), (5, 8), (0, 4)];
        check(&Sieve, "cap above capacity", 3, 100, &init, &to(0..1000));
    }

    #[test]
    fn a_length_at_or_above_cap_is_never_recorded() {
        let init = [(50, 64), (51, 51), (200, 256), (49, 4096)];
        check(
            &Sieve,
            "at or above",
            4,
            50,
            &init,
            &to((0..900u64).map(|i| (i * 13) % N)),
        );
        check(&Sieve, "cap zero", 2, 0, &[(0, 0), (4, 4)], &to(0..600));
    }

    #[test]
    fn a_kernel_emitting_two_updates_per_edge_lands_all_in_order() {
        // 300 edges into partition 0's 300 free slots: a room bound of one
        // update per edge would let the second half write past the end.
        let init = [(0, 300); 4];
        check(
            &Doubler,
            "doubler",
            4,
            4096,
            &init,
            &to((0..300u64).map(|i| i % 256)),
        );
        check(
            &Doubler,
            "doubler crossing",
            4,
            100,
            &[(0, 0); 4],
            &to((0..500u64).map(|i| (i * 7) % N)),
        );
    }
}
