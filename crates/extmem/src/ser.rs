//! Page serialization hooks.
//!
//! The model stores ([`crate::TypedStore`], [`crate::Disk`]) keep pages in
//! memory because the paper's cost model only counts transfers. A durable
//! backend, however, has to put records into real bytes. This module is the
//! bridge: a record type that implements [`FixedBytes`] declares a
//! fixed-width little-endian encoding, and [`encode_records`] /
//! [`decode_records`] turn record runs into byte frames the durability
//! layer (`ccix-durable`) writes as checkpoint pages and WAL payloads.
//!
//! The encoding is deliberately boring — fixed width, little-endian, no
//! varints — so a frame of `k` records is exactly `k * SIZE` bytes and a
//! torn tail is detectable by length arithmetic alone, before any checksum
//! is consulted.

use crate::point::Point;

/// A record with a fixed-width, position-independent byte encoding.
///
/// Implementations must round-trip exactly: `decode(encode(r)) == r` for
/// every value, and `encode` must write exactly [`FixedBytes::SIZE`] bytes.
pub trait FixedBytes: Sized {
    /// Encoded width in bytes.
    const SIZE: usize;

    /// Append the encoding of `self` to `out` (exactly [`FixedBytes::SIZE`]
    /// bytes).
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decode one record from `bytes` (exactly [`FixedBytes::SIZE`] bytes).
    ///
    /// Returns `None` if the bytes are not a valid encoding (for types
    /// with invalid bit patterns; plain integer records never fail).
    fn decode(bytes: &[u8]) -> Option<Self>;
}

impl FixedBytes for Point {
    const SIZE: usize = 24;

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.x.to_le_bytes());
        out.extend_from_slice(&self.y.to_le_bytes());
        out.extend_from_slice(&self.id.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::SIZE {
            return None;
        }
        let x = i64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let y = i64::from_le_bytes(bytes[8..16].try_into().ok()?);
        let id = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
        Some(Point::new(x, y, id))
    }
}

impl FixedBytes for u64 {
    const SIZE: usize = 8;

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }
}

impl FixedBytes for u32 {
    const SIZE: usize = 4;

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }
}

/// Append the encodings of `records` to `out` (a frame of
/// `records.len() * T::SIZE` bytes).
pub fn encode_records<T: FixedBytes>(records: &[T], out: &mut Vec<u8>) {
    out.reserve(records.len() * T::SIZE);
    for r in records {
        r.encode_into(out);
    }
}

/// Decode a frame produced by [`encode_records`]. Returns `None` if the
/// frame length is not a multiple of the record width or any record fails
/// to decode.
pub fn decode_records<T: FixedBytes>(bytes: &[u8]) -> Option<Vec<T>> {
    if !bytes.len().is_multiple_of(T::SIZE) {
        return None;
    }
    // Sized once: collecting through `Option` would start empty and regrow.
    let mut out = Vec::with_capacity(bytes.len() / T::SIZE);
    for record in bytes.chunks_exact(T::SIZE) {
        out.push(T::decode(record)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_roundtrip_exact_width() {
        let pts = vec![
            Point::new(i64::MIN, i64::MAX, 0),
            Point::new(-1, 1, u64::MAX),
            Point::new(42, 99, 7),
        ];
        let mut buf = Vec::new();
        encode_records(&pts, &mut buf);
        assert_eq!(buf.len(), pts.len() * <Point as FixedBytes>::SIZE);
        assert_eq!(decode_records::<Point>(&buf).expect("roundtrip"), pts);
    }

    #[test]
    fn torn_frame_is_rejected_by_length() {
        let mut buf = Vec::new();
        encode_records(&[Point::new(1, 2, 3)], &mut buf);
        buf.pop();
        assert!(decode_records::<Point>(&buf).is_none());
    }
}
