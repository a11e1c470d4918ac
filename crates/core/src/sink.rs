//! The scatter sink (§3, §5 of the paper): every update a scatter kernel
//! emits is appended to the output buffer of its destination's streaming
//! partition. That append is the engine's innermost loop, so it has two
//! forms behind one block driver.
//!
//! [`BlockSink::scatter_chunk`] runs the kernel over an edge chunk in
//! blocks of [`BLOCK`] edges. Before each block it checks that every
//! output buffer has at least as much spare capacity as the block has
//! edges. If so, the block runs through a call-free sink that writes
//! through one cursor per buffer; consecutive such blocks share their
//! cursors and commit together, one `set_len` per buffer. Otherwise the
//! block runs through [`PartitionSink`], one bounds-checked `Vec::push`
//! per update — the only place a buffer grows.
//! A buffer therefore grows at exactly the pushes it grew at when every
//! update went through `PartitionSink`, so capacities, allocations, flush
//! points and flush order are those of the per-update sink.
//!
//! Memory safety of the call-free form rests on the sink, not on the
//! kernel: it counts a write budget of one update per edge of the block
//! and panics, naming the program, when a kernel emits more.
//!
//! Kernels push global destination ids; both forms store a
//! [`LocalUpdate`], the destination's offset within its partition
//! (`dst - tp·stride`), since the buffer an update sits in already names
//! its partition.

use chaos_gas::{EdgeRef, GasProgram, LocalUpdate, UpdateSink};
use chaos_graph::{PartitionSpec, VertexId};

/// Edges per block: the unit the spare-capacity check is made for.
pub const BLOCK: usize = 256;

/// Routes kernel-emitted updates into the engine's pooled per-partition
/// output buffers, recording which buffers filled during the chunk. Each
/// update is one route and one bounds-checked push.
pub struct PartitionSink<'a, U> {
    route: Route,
    bufs: &'a mut [Vec<LocalUpdate<U>>],
    /// Target records per update chunk; a buffer crossing this is flushed
    /// after the kernel returns.
    cap: usize,
    /// Buffers that reached `cap` during this chunk, in fill order.
    full: &'a mut Vec<usize>,
    produced: u64,
}

impl<'a, U> PartitionSink<'a, U> {
    /// A sink over one output buffer per partition of `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `bufs` does not hold exactly one buffer per partition.
    pub fn new(
        spec: &PartitionSpec,
        bufs: &'a mut [Vec<LocalUpdate<U>>],
        cap: usize,
        full: &'a mut Vec<usize>,
    ) -> Self {
        assert_eq!(
            bufs.len(),
            spec.num_partitions,
            "one output buffer per partition"
        );
        Self {
            route: Route::new(spec),
            bufs,
            cap,
            full,
            produced: 0,
        }
    }

    /// Updates emitted into this sink so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }
}

impl<U> UpdateSink<U> for PartitionSink<'_, U> {
    #[inline]
    fn push(&mut self, dst: VertexId, payload: U) {
        self.produced += 1;
        let (tp, off) = self.route.of(dst);
        let b = &mut self.bufs[tp];
        b.push(local(off, payload));
        if b.len() == self.cap {
            self.full.push(tp);
        }
    }
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
    /// not wait on the clamp; the clamp is for memory safety, and an id
    /// past the last partition breaks the kernel's contract either way.
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

/// One output buffer's write position during a call-free run.
struct Cursor<U> {
    /// The next free slot.
    at: *mut LocalUpdate<U>,
    /// `at` after the write that brings the buffer to `cap` records.
    mark: *const LocalUpdate<U>,
}

/// The block driver and its scratch: one cursor per output buffer and a
/// fill-order list, both sized once for the partition count, so a block
/// allocates nothing. The engine owns one.
pub struct BlockSink<U> {
    cursors: Vec<Cursor<U>>,
    crossed: Vec<usize>,
}

// SAFETY: the cursors are dereferenced only inside `spare_run`, which
// holds the `&mut` borrow of the buffers they point into; between runs
// they are inert addresses, so sending the scratch sends no access.
unsafe impl<U: Send> Send for BlockSink<U> {}

impl<U> BlockSink<U> {
    /// Scratch for `partitions` output buffers.
    pub fn new(partitions: usize) -> Self {
        Self {
            cursors: (0..partitions)
                .map(|_| Cursor {
                    at: std::ptr::null_mut(),
                    mark: std::ptr::null(),
                })
                .collect(),
            crossed: vec![0; partitions],
        }
    }

    /// Scatters `edges` against one partition's vertex set (`base`,
    /// `states`, as [`GasProgram::scatter_chunk`] takes them) into `out`,
    /// block by block. Buffer contents, capacities, the fill-order list
    /// and `produced` end exactly as one `scatter_chunk` call into `out`
    /// leaves them. Returns how many blocks ran call-free.
    pub fn scatter_chunk<P: GasProgram<Update = U>, E: EdgeRef>(
        &mut self,
        program: &P,
        base: VertexId,
        states: &[P::VertexState],
        edges: &[E],
        iter: u32,
        out: &mut PartitionSink<'_, U>,
    ) -> usize {
        let route = out.route;
        let mut spare_blocks = 0;
        let mut rest = edges;
        while !rest.is_empty() {
            let kernel = |block: &[E], sink: &mut SpareSink<'_, U>| {
                program.scatter_chunk(base, states, block, iter, sink)
            };
            let taken = self.spare_run(out, route, rest, program.name(), kernel);
            spare_blocks += taken.div_ceil(BLOCK);
            rest = &rest[taken..];
            if taken == 0 {
                let (block, tail) = rest.split_at(BLOCK.min(rest.len()));
                program.scatter_chunk(base, states, block, iter, out);
                rest = tail;
            }
        }
        spare_blocks
    }

    /// Runs `kernel` block by block over the leading blocks of `edges` into
    /// the spare capacity of `out`'s buffers and commits, stopping before
    /// the first block for which some buffer may lack room. Returns the
    /// edges it took: none when the first block does not fit.
    ///
    /// The check before each block is exact without a pass over the
    /// buffers: `room`, the least spare capacity of any buffer at the
    /// start, less the updates written since, bounds every buffer's spare
    /// capacity from below. When the bound says no, the caller's next call
    /// measures `room` afresh, so a block runs here if and only if every
    /// buffer has room for one update per edge of it.
    ///
    /// Kept out of line so the kernel's loop is compiled on its own, with
    /// its cursors, route and budget in registers.
    #[inline(never)]
    fn spare_run<E>(
        &mut self,
        out: &mut PartitionSink<'_, U>,
        route: Route,
        edges: &[E],
        program: &'static str,
        mut kernel: impl FnMut(&[E], &mut SpareSink<'_, U>),
    ) -> usize {
        let room = out
            .bufs
            .iter()
            .map(|b| b.capacity() - b.len())
            .min()
            .unwrap_or(0);
        if room < edges.len().min(BLOCK) {
            return 0;
        }
        if self.cursors.len() != out.bufs.len() {
            *self = Self::new(out.bufs.len());
        }
        for (c, b) in self.cursors.iter_mut().zip(out.bufs.iter_mut()) {
            c.mark = b.as_ptr().wrapping_add(out.cap);
            c.at = b.spare_capacity_mut().as_mut_ptr().cast();
        }
        let mut sink = SpareSink {
            cursors: &mut self.cursors,
            route,
            crossed: &mut self.crossed,
            filled: 0,
            budget: 0,
            edges: 0,
            program,
        };
        let (mut taken, mut written) = (0, 0);
        for block in edges.chunks(BLOCK) {
            if written + block.len() > room {
                break;
            }
            sink.budget = block.len();
            sink.edges = block.len();
            kernel(block, &mut sink);
            written += block.len() - sink.budget;
            taken += block.len();
        }
        let filled = sink.filled;
        for (c, b) in self.cursors.iter().zip(out.bufs.iter_mut()) {
            // SAFETY: `at` started at this buffer's spare capacity and only
            // moved forward inside it (see `SpareSink::push`), so
            // `[len, at)` are the slots this run initialised, in order.
            let len = unsafe { c.at.offset_from(b.as_ptr()) } as usize;
            out.produced += (len - b.len()) as u64;
            // SAFETY: as above: `len <= capacity` and every slot below it
            // is initialised.
            unsafe { b.set_len(len) };
        }
        // Push by push, as `PartitionSink` records them.
        for &tp in &self.crossed[..filled] {
            out.full.push(tp);
        }
        taken
    }
}

/// The call-free sink of one run of blocks: one cursor write per update.
struct SpareSink<'a, U> {
    cursors: &'a mut [Cursor<U>],
    route: Route,
    /// Buffers that reached `cap` in this run, in fill order (a cursor
    /// passes its mark at most once, so one slot per buffer suffices).
    crossed: &'a mut [usize],
    filled: usize,
    /// Writes left in the current block: one per edge.
    budget: usize,
    /// Edges in the current block.
    edges: usize,
    program: &'static str,
}

impl<U> UpdateSink<U> for SpareSink<'_, U> {
    #[inline]
    fn push(&mut self, dst: VertexId, payload: U) {
        if self.budget == 0 {
            overrun(self.program, self.edges);
        }
        self.budget -= 1;
        let (tp, off) = self.route.of(dst);
        let c = &mut self.cursors[tp];
        let (at, mark) = (c.at, c.mark);
        // SAFETY: `spare_run` starts a block only while every buffer has at
        // least `edges` spare slots left, and the budget admits at most
        // `edges` writes in the block, so `at` is a free slot inside the
        // buffer's spare capacity.
        let next = unsafe {
            at.write(local(off, payload));
            at.add(1)
        };
        c.at = next;
        if next.cast_const() == mark {
            self.crossed[self.filled] = tp;
            self.filled += 1;
        }
    }
}

#[cold]
#[inline(never)]
fn overrun(program: &str, edges: usize) -> ! {
    panic!(
        "{program}'s scatter kernel emitted more updates than its {edges}-edge block has \
         edges (an UpdateSink takes at most one update per edge)"
    )
}

#[cfg(test)]
mod tests {
    use chaos_gas::{
        BareEdge, Control, EdgeRecord, EdgeRef, GasProgram, IterationAggregates, LocalUpdate,
        Update, UpdateSink,
    };
    use chaos_graph::{Edge, PartitionSpec, VertexId};
    use chaos_sim::Rng;

    use super::{BlockSink, PartitionSink, Route, BLOCK};

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

    /// Breaks the one-update-per-edge contract: two per edge.
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

    /// Scatters `edges` three ways from the same buffer state — a plain
    /// `Vec<Update>` oracle routed afterwards by `partition_of`, one
    /// `PartitionSink` call, the block driver over the edges packed as the
    /// engine holds them — and asserts that each buffer holds, as
    /// `(partition, base + off)`, the oracle's updates of its partition,
    /// with identical capacities, fill-order lists and `produced`. Returns
    /// the blocks that ran call-free.
    fn check(
        case: &str,
        parts: usize,
        cap: usize,
        init: &[(usize, usize)],
        edges: &[Edge],
    ) -> usize {
        let spec = PartitionSpec::with_partitions(N, parts);
        let states: Vec<u64> = (0..N).collect();

        let mut all: Vec<Update<u64>> = Vec::new();
        Sieve.scatter_chunk(0, &states, edges, 0, &mut all);
        // The oracle in global ids, and plain pushes for the capacities
        // (a `Vec` grows by record count, whatever the record).
        let start = buffers(init);
        let (mut want, mut want_caps) = (globalize(&spec, &start), start);
        let mut want_full = Vec::new();
        for u in &all {
            let tp = spec.partition_of(u.dst);
            want[tp].push(u.clone());
            want_caps[tp].push(LocalUpdate {
                off: 0,
                payload: 0,
            });
            if want[tp].len() == cap {
                want_full.push(tp);
            }
        }

        let (mut per_update, mut per_update_full) = (buffers(init), Vec::new());
        let mut sink = PartitionSink::new(&spec, &mut per_update, cap, &mut per_update_full);
        Sieve.scatter_chunk(0, &states, edges, 0, &mut sink);
        let per_update_produced = sink.produced();

        let (mut blocked, mut blocked_full) = (buffers(init), Vec::new());
        let mut sink = PartitionSink::new(&spec, &mut blocked, cap, &mut blocked_full);
        let packed: Vec<BareEdge> = edges.iter().map(BareEdge::pack).collect();
        let spare = BlockSink::new(parts).scatter_chunk(&Sieve, 0, &states, &packed, 0, &mut sink);
        let blocked_produced = sink.produced();

        assert_eq!(
            globalize(&spec, &per_update),
            want,
            "{case}: PartitionSink contents"
        );
        assert_eq!(
            globalize(&spec, &blocked),
            want,
            "{case}: block driver contents"
        );
        assert_eq!(
            capacities(&per_update),
            capacities(&want_caps),
            "{case}: PartitionSink capacities"
        );
        assert_eq!(
            capacities(&blocked),
            capacities(&want_caps),
            "{case}: block driver capacities"
        );
        assert_eq!(
            per_update_full, want_full,
            "{case}: PartitionSink fill order"
        );
        assert_eq!(blocked_full, want_full, "{case}: block driver fill order");
        assert_eq!(
            per_update_produced,
            all.len() as u64,
            "{case}: PartitionSink produced"
        );
        assert_eq!(
            blocked_produced,
            all.len() as u64,
            "{case}: block driver produced"
        );
        spare
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

    /// Seeded destination streams over every partition count, with buffers
    /// roomy, tight and in between, so blocks go both ways within a chunk.
    #[test]
    fn block_driver_matches_partition_sink_and_vec_oracle() {
        let mut rng = Rng::new(0x5CA7);
        let (mut spare, mut blocks) = (0, 0);
        for parts in [1usize, 3, 4, 8, 32, 100] {
            for case in 0..40 {
                let cap = 1 + rng.below(600) as usize;
                let tight = rng.below(3);
                let tight_one = rng.below(parts as u64) as usize;
                let init: Vec<(usize, usize)> = (0..parts)
                    .map(|p| {
                        let len = rng.below(cap as u64 + 50) as usize;
                        let is_tight = match tight {
                            0 => false,
                            1 => p == tight_one,
                            _ => rng.below(4) == 0,
                        };
                        let extra = if is_tight {
                            rng.below(BLOCK as u64)
                        } else {
                            BLOCK as u64 + rng.below(2000)
                        };
                        (len, len + extra as usize)
                    })
                    .collect();
                let edges: Vec<Edge> = (0..rng.below(1500))
                    .map(|_| Edge::new(rng.below(N), rng.below(N)))
                    .collect();
                spare += check(
                    &format!("{parts} partitions, case {case}"),
                    parts,
                    cap,
                    &init,
                    &edges,
                );
                blocks += edges.len().div_ceil(BLOCK);
            }
        }
        assert!(
            spare > 0 && spare < blocks,
            "{spare} of {blocks} blocks call-free: both paths ran"
        );
    }

    #[test]
    fn crossing_at_either_side_of_a_block_boundary() {
        // Write 256 ends block 0; write 257 opens block 1.
        for cap in [BLOCK, BLOCK + 1] {
            let spare = check(&format!("cap {cap}"), 1, cap, &[(0, 4096)], &to(0..600));
            assert_eq!(spare, 3, "every block had room");
        }
        // One buffer among four ends block 0 one short of `cap` and crosses
        // on block 1's first write.
        let init = [(0, 4096), (45, 4096), (0, 4096), (0, 4096)];
        let edges = to((256..510).chain([0, 1]).chain([256, 0, 257]));
        assert_eq!(check("four", 4, 300, &init, &edges), 2);
    }

    #[test]
    fn two_crossings_in_one_block_keep_fill_order() {
        let init = [(0, 4096), (98, 4096), (0, 4096), (99, 4096)];
        // Partition 3 fills first (one short of 100), then partition 1.
        let edges = to([800, 10, 300, 700, 301, 5]);
        assert_eq!(check("two crossings", 4, 100, &init, &edges), 1);
    }

    #[test]
    fn a_buffer_at_capacity_forces_the_per_update_sink() {
        // Partition 2 is exactly full: the first blocks must grow it.
        let init = [(10, 4096), (0, 4096), (100, 100), (3, 4096)];
        let edges = to((0..1000u64).map(|i| (i * 37) % N));
        let spare = check("at capacity", 4, 150, &init, &edges);
        assert!(spare < 4, "block 0 fell back ({spare} call-free)");
    }

    #[test]
    fn a_chunk_shorter_than_one_block() {
        let init = [(0, 512), (7, 512), (0, 512)];
        let spare = check(
            "short",
            3,
            40,
            &init,
            &to((0..100u64).map(|i| (i * 13) % N)),
        );
        assert_eq!(spare, 1);
        assert_eq!(check("empty", 3, 40, &init, &[]), 0);
    }

    #[test]
    #[should_panic(
        expected = "Doubler's scatter kernel emitted more updates than its 256-edge block"
    )]
    fn a_kernel_emitting_two_updates_per_edge_panics_instead_of_overrunning() {
        let spec = PartitionSpec::with_partitions(N, 4);
        let states: Vec<u64> = (0..N).collect();
        // Exactly one block of spare room: without the budget, write 257
        // would land past partition 0's allocation.
        let mut bufs = buffers(&[(0, BLOCK); 4]);
        let mut full = Vec::new();
        let mut sink = PartitionSink::new(&spec, &mut bufs, 4096, &mut full);
        BlockSink::new(4).scatter_chunk(&Doubler, 0, &states, &to(0..300), 0, &mut sink);
    }
}
