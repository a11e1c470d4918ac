//! Fixed-size record encoding.
//!
//! The storage subsystem's file backend persists vertex, edge and update
//! records as fixed-width little-endian byte strings. A hand-rolled codec
//! (rather than serde) keeps the hot path allocation-free, the format
//! stable, and the workspace dependency-light.

use chaos_graph::VertexId;

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

impl Record for chaos_graph::Edge {
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
/// generic over it, so one kernel body serves the engine's
/// [`LocalUpdate`]s and the global [`Update`]s of the sequential executor.
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
        roundtrip(LocalUpdate { off: 0, payload: () });
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
        let local = LocalUpdate { off: 9, payload: 3u64 };
        assert_eq!(global.offset(base), 9);
        assert_eq!(local.offset(base), 9);
        assert_eq!(global.payload(), local.payload());
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
