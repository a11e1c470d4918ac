//! Fixed-size record encoding.
//!
//! The storage subsystem's file backend persists vertex, edge and update
//! records as fixed-width little-endian byte strings. A hand-rolled codec
//! (rather than serde) keeps the hot path allocation-free, the format
//! stable, and the workspace dependency-light.

use chaos_graph::{Edge, VertexId};

/// A fixed-size serializable record.
///
/// Implementations must write exactly [`Record::ENCODED_BYTES`] bytes and
/// round-trip: `decode(encode(x)) == x`. Records are `Send + Sync` because
/// chunk payloads are shared (`Arc`) across engine actors, and the
/// runtime's actor table (`chaos_runtime::DynActor`) is `Send`.
pub trait Record: Clone + Send + Sync + 'static {
    /// Exact encoded width in bytes.
    const ENCODED_BYTES: usize;

    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes a record from exactly [`Record::ENCODED_BYTES`] bytes.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than [`Record::ENCODED_BYTES`].
    fn decode(buf: &[u8]) -> Self;
}

macro_rules! impl_record_prim {
    ($t:ty, $n:expr) => {
        impl Record for $t {
            const ENCODED_BYTES: usize = $n;
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &[u8]) -> Self {
                let mut b = [0u8; $n];
                b.copy_from_slice(&buf[..$n]);
                <$t>::from_le_bytes(b)
            }
        }
    };
}

impl_record_prim!(u32, 4);
impl_record_prim!(u64, 8);
impl_record_prim!(i64, 8);
impl_record_prim!(f32, 4);
impl_record_prim!(f64, 8);

impl Record for () {
    const ENCODED_BYTES: usize = 0;
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_buf: &[u8]) -> Self {}
}

impl Record for bool {
    const ENCODED_BYTES: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(buf: &[u8]) -> Self {
        buf[0] != 0
    }
}

impl<A: Record, B: Record> Record for (A, B) {
    const ENCODED_BYTES: usize = A::ENCODED_BYTES + B::ENCODED_BYTES;
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(buf: &[u8]) -> Self {
        (A::decode(buf), B::decode(&buf[A::ENCODED_BYTES..]))
    }
}

impl<A: Record, B: Record, C: Record> Record for (A, B, C) {
    const ENCODED_BYTES: usize = A::ENCODED_BYTES + B::ENCODED_BYTES + C::ENCODED_BYTES;
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(buf: &[u8]) -> Self {
        (
            A::decode(buf),
            B::decode(&buf[A::ENCODED_BYTES..]),
            C::decode(&buf[A::ENCODED_BYTES + B::ENCODED_BYTES..]),
        )
    }
}

impl Record for Edge {
    const ENCODED_BYTES: usize = 20;
    fn encode(&self, out: &mut Vec<u8>) {
        self.src.encode(out);
        self.dst.encode(out);
        self.weight.encode(out);
    }
    fn decode(buf: &[u8]) -> Self {
        Self {
            src: u64::decode(buf),
            dst: u64::decode(&buf[8..]),
            weight: f32::decode(&buf[16..]),
        }
    }
}

/// An edge record the engine can hold, as a program declares it
/// ([`GasProgram::HeldEdge`](crate::GasProgram::HeldEdge)): [`PackedEdge`]
/// for the programs that read weights, [`BareEdge`] for the rest. Every
/// form encodes as [`Edge`]'s 20 bytes, so what is stored, spilled and
/// checksummed does not depend on the choice.
pub trait EdgeRecord: EdgeRef + Record + Copy + PartialEq + std::fmt::Debug {
    /// Whether the record keeps the edge's weight.
    const WEIGHTED: bool;

    /// Packs `e`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint does not fit in a `u32`.
    fn pack(e: &Edge) -> Self;
}

/// `v` as a compact-format id.
#[inline]
fn id32(v: VertexId) -> u32 {
    u32::try_from(v).expect("vertex id fits the compact edge format")
}

/// Four bytes of `buf` from `at`.
#[inline(always)]
fn le4(buf: &[u8], at: usize) -> [u8; 4] {
    [buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]
}

/// Appends an edge in [`Edge`]'s encoding, the ids as `u64`s.
#[inline(always)]
fn encode_edge(src: u32, dst: u32, weight: f32, out: &mut Vec<u8>) {
    let mut b = [0u8; 20];
    b[..4].copy_from_slice(&src.to_le_bytes());
    b[8..12].copy_from_slice(&dst.to_le_bytes());
    b[16..].copy_from_slice(&weight.to_le_bytes());
    out.extend_from_slice(&b);
}

/// The ids of an encoded edge, each read from the low half of its
/// little-endian `u64`: [`encode_edge`] writes the high halves zero, and a
/// stored chunk is checked against its CRC before it is decoded. Inlined
/// into every decode so the file read's decode loop stays one loop.
#[inline(always)]
fn decode_ids(buf: &[u8; 20]) -> (u32, u32) {
    debug_assert!(
        le4(buf, 4) == [0; 4] && le4(buf, 12) == [0; 4],
        "edge record with an id past the compact edge format"
    );
    (
        u32::from_le_bytes(le4(buf, 0)),
        u32::from_le_bytes(le4(buf, 8)),
    )
}

/// The first 20 bytes of `buf`, one edge's encoding.
#[inline(always)]
fn edge_encoding(buf: &[u8]) -> &[u8; 20] {
    buf[..20].try_into().expect("a slice of 20 bytes")
}

/// An edge in the compact format of the paper's §8: 4-byte vertex ids
/// and a 4-byte weight, 12 bytes in memory instead of [`Edge`]'s 24. The
/// engine holds edges in this form for the programs that read weights;
/// `Cluster::new` rejects graphs of more than 2^32 vertices, whose ids it
/// cannot hold.
///
/// Its encoding is [`Edge`]'s 20 bytes, the ids written as `u64`s, so a
/// stored edge chunk occupies the same bytes as before.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackedEdge {
    /// Source vertex.
    pub src: u32,
    /// Destination vertex.
    pub dst: u32,
    /// Edge weight (1.0 for unweighted graphs).
    pub weight: f32,
}

impl EdgeRecord for PackedEdge {
    const WEIGHTED: bool = true;
    #[inline]
    fn pack(e: &Edge) -> Self {
        Self {
            src: id32(e.src),
            dst: id32(e.dst),
            weight: e.weight,
        }
    }
}

impl Record for PackedEdge {
    const ENCODED_BYTES: usize = Edge::ENCODED_BYTES;
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        encode_edge(self.src, self.dst, self.weight, out);
    }
    #[inline]
    fn decode(buf: &[u8]) -> Self {
        let buf = edge_encoding(buf);
        let (src, dst) = decode_ids(buf);
        Self {
            src,
            dst,
            weight: f32::from_le_bytes(le4(buf, 16)),
        }
    }
}

/// An edge without its weight: two 4-byte ids, 8 bytes in memory. The
/// engine holds edges in this form for the programs that never read a
/// weight ([`EdgeRecord::WEIGHTED`] is false).
///
/// It encodes as [`Edge`]'s 20 bytes with the weight 1.0, an unweighted
/// graph's, so an unweighted edge chunk stores the same bytes as in
/// [`PackedEdge`] form; decoding drops the weight. Reading the weight
/// anyway panics through [`EdgeRef::weight`], and a per-edge body handed
/// [`EdgeRef::edge`] reads a NaN weight, so neither can pass for the
/// weighted answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BareEdge {
    /// Source vertex.
    pub src: u32,
    /// Destination vertex.
    pub dst: u32,
}

impl EdgeRecord for BareEdge {
    const WEIGHTED: bool = false;
    #[inline]
    fn pack(e: &Edge) -> Self {
        Self {
            src: id32(e.src),
            dst: id32(e.dst),
        }
    }
}

impl Record for BareEdge {
    const ENCODED_BYTES: usize = Edge::ENCODED_BYTES;
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        encode_edge(self.src, self.dst, 1.0, out);
    }
    #[inline]
    fn decode(buf: &[u8]) -> Self {
        let (src, dst) = decode_ids(edge_encoding(buf));
        Self { src, dst }
    }
}

/// What a scatter kernel reads off an edge record, whichever form it is
/// in. [`GasProgram::scatter_chunk`](crate::GasProgram::scatter_chunk)
/// and [`GasProgram::dead_edges`](crate::GasProgram::dead_edges) are
/// generic over it, so one loop serves the engine's held records
/// ([`PackedEdge`]s or [`BareEdge`]s) and the [`Edge`]s of the sequential
/// executor.
pub trait EdgeRef {
    /// Source vertex.
    fn src(&self) -> VertexId;
    /// Destination vertex.
    fn dst(&self) -> VertexId;
    /// Edge weight.
    fn weight(&self) -> f32;
    /// The edge as the per-edge [`GasProgram::scatter`](crate::GasProgram::scatter)
    /// takes it.
    fn edge(&self) -> Edge;
    /// The scatter key of the copy the record is stored in: the
    /// destination in the destination-keyed (`reverse`) copy, else the
    /// source.
    #[inline]
    fn key(&self, reverse: bool) -> VertexId {
        if reverse {
            self.dst()
        } else {
            self.src()
        }
    }
}

impl EdgeRef for Edge {
    #[inline]
    fn src(&self) -> VertexId {
        self.src
    }
    #[inline]
    fn dst(&self) -> VertexId {
        self.dst
    }
    #[inline]
    fn weight(&self) -> f32 {
        self.weight
    }
    #[inline]
    fn edge(&self) -> Edge {
        *self
    }
}

impl EdgeRef for PackedEdge {
    #[inline]
    fn src(&self) -> VertexId {
        VertexId::from(self.src)
    }
    #[inline]
    fn dst(&self) -> VertexId {
        VertexId::from(self.dst)
    }
    #[inline]
    fn weight(&self) -> f32 {
        self.weight
    }
    #[inline]
    fn edge(&self) -> Edge {
        Edge::weighted(self.src(), self.dst(), self.weight)
    }
}

impl EdgeRef for BareEdge {
    #[inline]
    fn src(&self) -> VertexId {
        VertexId::from(self.src)
    }
    #[inline]
    fn dst(&self) -> VertexId {
        VertexId::from(self.dst)
    }
    /// # Panics
    ///
    /// Always: the record holds no weight. A program that reads one
    /// declares `HeldEdge = PackedEdge`.
    fn weight(&self) -> f32 {
        panic!("a BareEdge holds no weight: a program that reads weights holds PackedEdges")
    }
    #[inline]
    fn edge(&self) -> Edge {
        Edge::weighted(self.src(), self.dst(), f32::NAN)
    }
}

/// An update in flight: destination vertex plus algorithm payload (§2).
#[derive(Debug, Clone, PartialEq)]
pub struct Update<U> {
    /// Destination vertex of the update.
    pub dst: VertexId,
    /// Algorithm-specific payload.
    pub payload: U,
}

impl<U: Record> Record for Update<U> {
    const ENCODED_BYTES: usize = 8 + U::ENCODED_BYTES;
    fn encode(&self, out: &mut Vec<u8>) {
        self.dst.encode(out);
        self.payload.encode(out);
    }
    fn decode(buf: &[u8]) -> Self {
        Self {
            dst: u64::decode(buf),
            payload: U::decode(&buf[8..]),
        }
    }
}

/// An update addressed within its destination's streaming partition: the
/// offset of the destination from the partition's first vertex, plus the
/// payload. The engine stores and ships its updates in this form — an
/// update's partition is known wherever it is held (it names the output
/// buffer, the chunk set, the gather work), so the global id would repeat
/// it. With a 4-byte payload the record is 8 bytes in memory instead of
/// [`Update`]'s 16.
///
/// Its encoding is [`Update`]'s width, the offset written as a `u64`, so
/// a stored update chunk occupies the same bytes as before.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalUpdate<U> {
    /// Destination vertex minus the first vertex of its partition.
    pub off: u32,
    /// Algorithm-specific payload.
    pub payload: U,
}

impl<U: Record> Record for LocalUpdate<U> {
    const ENCODED_BYTES: usize = 8 + U::ENCODED_BYTES;
    fn encode(&self, out: &mut Vec<u8>) {
        u64::from(self.off).encode(out);
        self.payload.encode(out);
    }
    fn decode(buf: &[u8]) -> Self {
        Self {
            off: u32::try_from(u64::decode(buf)).expect("update offset fits in u32"),
            payload: U::decode(&buf[8..]),
        }
    }
}

/// What a gather kernel reads off an update record, whichever form it is
/// in: the destination's partition-local offset and the payload.
/// [`GasProgram::gather_chunk`](crate::GasProgram::gather_chunk) is
/// generic over it, so one loop serves the engine's [`LocalUpdate`]s and
/// the global [`Update`]s of the sequential executor.
pub trait UpdateRef<U> {
    /// Offset of the destination from `base`, the first vertex of the
    /// partition being gathered.
    fn offset(&self, base: VertexId) -> usize;
    /// The payload.
    fn payload(&self) -> &U;
}

impl<U> UpdateRef<U> for Update<U> {
    #[inline]
    fn offset(&self, base: VertexId) -> usize {
        (self.dst - base) as usize
    }
    #[inline]
    fn payload(&self) -> &U {
        &self.payload
    }
}

impl<U> UpdateRef<U> for LocalUpdate<U> {
    #[inline]
    fn offset(&self, _base: VertexId) -> usize {
        self.off as usize
    }
    #[inline]
    fn payload(&self) -> &U {
        &self.payload
    }
}

/// Encodes a slice of records into a contiguous byte buffer.
pub fn encode_all<R: Record>(records: &[R]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * R::ENCODED_BYTES);
    for r in records {
        r.encode(&mut out);
    }
    out
}

/// Decodes a buffer produced by [`encode_all`].
///
/// # Panics
///
/// Panics if the buffer length is not a multiple of the record width.
pub fn decode_all<R: Record>(buf: &[u8]) -> Vec<R> {
    if R::ENCODED_BYTES == 0 {
        return Vec::new();
    }
    assert_eq!(
        buf.len() % R::ENCODED_BYTES,
        0,
        "buffer is not a whole number of records"
    );
    buf.chunks_exact(R::ENCODED_BYTES).map(R::decode).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<R: Record + PartialEq + std::fmt::Debug>(x: R) {
        let mut buf = Vec::new();
        x.encode(&mut buf);
        assert_eq!(buf.len(), R::ENCODED_BYTES);
        assert_eq!(R::decode(&buf), x);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(42u32);
        roundtrip(u64::MAX);
        roundtrip(-7i64);
        roundtrip(3.25f32);
        roundtrip(-0.125f64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
    }

    #[test]
    fn tuples_roundtrip() {
        roundtrip((1u32, 2.5f64));
        roundtrip((u64::MAX, 0u32, f32::MIN_POSITIVE));
    }

    #[test]
    fn update_roundtrip() {
        roundtrip(Update {
            dst: 123456789,
            payload: (7u32, 1.5f32),
        });
        assert_eq!(<Update<(u32, f32)> as Record>::ENCODED_BYTES, 16);
    }

    #[test]
    fn local_update_roundtrip() {
        roundtrip(LocalUpdate {
            off: u32::MAX,
            payload: 0.5f32,
        });
        roundtrip(LocalUpdate {
            off: 0,
            payload: (),
        });
        roundtrip(LocalUpdate {
            off: u32::MAX,
            payload: (),
        });
        assert_eq!(<LocalUpdate<()> as Record>::ENCODED_BYTES, 8);
        assert_eq!(std::mem::size_of::<LocalUpdate<()>>(), 4);
        assert_eq!(std::mem::size_of::<LocalUpdate<f32>>(), 8);
    }

    #[test]
    fn local_update_encodes_as_wide_as_update() {
        // The offset is written as a `u64`: a stored update chunk keeps
        // its size and layout.
        let local = LocalUpdate {
            off: 77,
            payload: 1.5f32,
        };
        let global = Update {
            dst: 77,
            payload: 1.5f32,
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        local.encode(&mut a);
        global.encode(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn both_record_forms_give_the_same_offset() {
        let base = 1 << 40;
        let global = Update {
            dst: base + 9,
            payload: 3u64,
        };
        let local = LocalUpdate {
            off: 9,
            payload: 3u64,
        };
        assert_eq!(global.offset(base), 9);
        assert_eq!(local.offset(base), 9);
        assert_eq!(global.payload(), local.payload());
    }

    #[test]
    fn packed_edge_is_twelve_bytes_and_encodes_as_an_edge() {
        assert_eq!(std::mem::size_of::<PackedEdge>(), 12);
        assert_eq!(<PackedEdge as Record>::ENCODED_BYTES, 20);
        for e in [
            Edge::weighted(u32::MAX as u64, 0, -2.5),
            Edge::new(7, 1 << 31),
        ] {
            let packed = PackedEdge::pack(&e);
            roundtrip(packed);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            packed.encode(&mut a);
            e.encode(&mut b);
            assert_eq!(a, b);
            assert_eq!(packed.edge(), e);
            assert_eq!(
                (packed.src(), packed.dst(), packed.weight()),
                (e.src, e.dst, e.weight)
            );
        }
    }

    #[test]
    fn bare_edge_is_eight_bytes_and_encodes_as_an_unweighted_edge() {
        assert_eq!(std::mem::size_of::<BareEdge>(), 8);
        assert_eq!(<BareEdge as Record>::ENCODED_BYTES, 20);
        for e in [Edge::new(u32::MAX as u64, 0), Edge::new(7, 1 << 31)] {
            let bare = BareEdge::pack(&e);
            roundtrip(bare);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            bare.encode(&mut a);
            e.encode(&mut b);
            assert_eq!(a, b);
            assert_eq!((bare.src(), bare.dst()), (e.src, e.dst));
            assert!(bare.edge().weight.is_nan());
        }
        // A weighted edge's weight is dropped on the way in and on decode.
        let mut buf = Vec::new();
        Edge::weighted(3, 4, 2.5).encode(&mut buf);
        assert_eq!(BareEdge::decode(&buf), BareEdge { src: 3, dst: 4 });
        assert_eq!(
            BareEdge::pack(&Edge::weighted(3, 4, 2.5)),
            BareEdge { src: 3, dst: 4 }
        );
    }

    #[test]
    #[should_panic(expected = "holds no weight")]
    fn a_bare_edge_has_no_weight() {
        let _ = BareEdge { src: 0, dst: 1 }.weight();
    }

    #[test]
    #[should_panic(expected = "compact edge format")]
    fn wide_ids_do_not_pack() {
        let _ = PackedEdge::pack(&Edge::new(1 << 32, 0));
    }

    #[test]
    fn encode_decode_all() {
        let xs: Vec<u32> = (0..100).collect();
        let buf = encode_all(&xs);
        assert_eq!(buf.len(), 400);
        assert_eq!(decode_all::<u32>(&buf), xs);
    }

    #[test]
    #[should_panic(expected = "whole number of records")]
    fn ragged_buffer_rejected() {
        let _ = decode_all::<u32>(&[1, 2, 3]);
    }
}
