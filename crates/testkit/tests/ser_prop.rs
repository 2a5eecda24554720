//! Property suite for the [`FixedBytes`] encodings — every record type
//! that ever hits a page on the file backend must round-trip exactly, and
//! reject byte strings a torn write could plausibly produce (truncation,
//! garbage tails, invalid bit patterns).

use ccix_extmem::ser::{decode_records, encode_records};
use ccix_extmem::{FixedBytes, Point};
use ccix_interval::Interval;
use ccix_testkit::check;
use ccix_testkit::rng::DetRng;

const TRIALS: usize = 64;

/// Round-trip one record and the framing invariants shared by every type:
/// exact width, `decode(encode(r)) == r`, and length-checked decode.
fn roundtrip<T: FixedBytes + PartialEq + std::fmt::Debug + Clone>(r: T) {
    let mut buf = Vec::new();
    r.encode_into(&mut buf);
    assert_eq!(buf.len(), T::SIZE, "encode must emit exactly SIZE bytes");
    assert_eq!(T::decode(&buf).as_ref(), Some(&r), "decode(encode(r)) != r");
    // Truncations: every strict prefix must be rejected.
    for cut in 0..T::SIZE {
        assert!(
            T::decode(&buf[..cut]).is_none(),
            "decoded a {cut}-byte truncation of a {}-byte record",
            T::SIZE
        );
    }
    // Garbage tail: extra bytes must be rejected by the single-record
    // decode, whatever their value.
    let mut long = buf.clone();
    long.push(0xA5);
    assert!(T::decode(&long).is_none(), "decoded a record with a tail");
}

/// Frame-level invariants of `encode_records`/`decode_records`: exact
/// frame width, round-trip, and rejection of any length that is not a
/// whole number of records (the torn-tail detector).
fn frame_roundtrip<T: FixedBytes + PartialEq + std::fmt::Debug + Clone>(records: &[T]) {
    let mut frame = Vec::new();
    encode_records(records, &mut frame);
    assert_eq!(frame.len(), records.len() * T::SIZE);
    assert_eq!(
        decode_records::<T>(&frame).as_deref(),
        Some(records),
        "frame round-trip failed"
    );
    if T::SIZE > 1 {
        // Chop mid-record: length arithmetic alone must reject it.
        let torn = &frame[..frame.len().saturating_sub(1)];
        if !records.is_empty() {
            assert!(
                decode_records::<T>(torn).is_none(),
                "decoded a torn frame of {} bytes",
                torn.len()
            );
        }
        let mut tailed = frame.clone();
        tailed.extend_from_slice(&[0xEE; 3][..(T::SIZE - 1).min(3)]);
        assert!(
            decode_records::<T>(&tailed).is_none(),
            "decoded a frame with a garbage tail"
        );
    }
}

fn random_point(rng: &mut DetRng) -> Point {
    Point::new(rng.next_u64() as i64, rng.next_u64() as i64, rng.next_u64())
}

fn random_interval(rng: &mut DetRng) -> Interval {
    let lo = (rng.next_u64() % 2_000_000) as i64 - 1_000_000;
    let len = (rng.next_u64() % 100_000) as i64;
    Interval::new(lo, lo + len, rng.next_u64())
}

#[test]
fn points_roundtrip_and_reject_torn_bytes() {
    check::trials("ser_prop::point", TRIALS, 0x5e7_0001, |rng| {
        let p = random_point(rng);
        roundtrip(p);
        let run: Vec<Point> = (0..rng.gen_range(0..20usize))
            .map(|_| random_point(rng))
            .collect();
        frame_roundtrip(&run);
    });
}

#[test]
fn integers_roundtrip_and_reject_torn_bytes() {
    check::trials("ser_prop::ints", TRIALS, 0x5e7_0002, |rng| {
        roundtrip(rng.next_u64());
        roundtrip(rng.next_u64() as u32);
        let n = rng.gen_range(0..30usize);
        frame_roundtrip(&(0..n).map(|_| rng.next_u64()).collect::<Vec<_>>());
        frame_roundtrip(&(0..n).map(|_| rng.next_u64() as u32).collect::<Vec<_>>());
    });
}

#[test]
fn intervals_roundtrip_and_reject_invalid_encodings() {
    check::trials("ser_prop::interval", TRIALS, 0x5e7_0003, |rng| {
        let iv = random_interval(rng);
        roundtrip(iv);
        let run: Vec<Interval> = (0..rng.gen_range(0..20usize))
            .map(|_| random_interval(rng))
            .collect();
        frame_roundtrip(&run);

        // An interval with hi < lo is not a value `Interval::new` can
        // produce, so its encoding must be rejected, not smuggled in.
        let mut bad = Vec::new();
        iv.encode_into(&mut bad);
        bad[0..8].copy_from_slice(&(iv.hi + 1).to_le_bytes()); // lo := hi + 1
        assert!(
            Interval::decode(&bad).is_none(),
            "decoded an interval with hi < lo"
        );
    });
}

#[test]
fn interval_wire_layout_matches_its_point_mapping() {
    // The index stores an interval (lo, hi, id) as the point (lo, hi, id);
    // the two encodings are deliberately identical so the stab-store pages
    // of a persisted index are readable either way.
    check::trials("ser_prop::interval_point", TRIALS, 0x5e7_0004, |rng| {
        let iv = random_interval(rng);
        let p = Point::new(iv.lo, iv.hi, iv.id);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        iv.encode_into(&mut a);
        p.encode_into(&mut b);
        assert_eq!(a, b, "Interval and Point wire layouts diverged");
        assert_eq!(Interval::SIZE, Point::SIZE);
    });
}
