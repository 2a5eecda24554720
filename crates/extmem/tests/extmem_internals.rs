//! Integration tests for the external-memory substrate's internals:
//! snapshot/since arithmetic, and Geometry edge cases (the smallest legal
//! `B` and overflow-prone large `B`).

use ccix_extmem::{Geometry, IoCounter, IoSnapshot, TypedStore};

// ------------------------------------------------- snapshot / since maths

#[test]
fn since_and_delta_compose() {
    let c = IoCounter::new();
    let s0 = c.snapshot();
    c.add_reads(3);
    let s1 = c.snapshot();
    c.add_writes(4);
    c.add_reads(1);
    let s2 = c.snapshot();

    // since(s) == s.delta(now) for every snapshot.
    assert_eq!(c.since(s0), s0.delta(s2));
    assert_eq!(c.since(s1), s1.delta(s2));
    // Deltas over adjacent windows add up to the delta over the union.
    let d01 = s0.delta(s1);
    let d12 = s1.delta(s2);
    let d02 = s0.delta(s2);
    assert_eq!(d01.reads + d12.reads, d02.reads);
    assert_eq!(d01.writes + d12.writes, d02.writes);
    assert_eq!(d01.total() + d12.total(), d02.total());
    assert_eq!(
        d02,
        IoSnapshot {
            reads: 4,
            writes: 4
        }
    );
}

#[test]
fn empty_window_has_zero_delta() {
    let c = IoCounter::new();
    c.add_reads(7);
    let s = c.snapshot();
    assert_eq!(c.since(s), IoSnapshot::default());
    assert_eq!(s.delta(s).total(), 0);
}

#[test]
fn counters_shared_across_stores_accumulate_once() {
    let c = IoCounter::new();
    let mut a: TypedStore<u8> = TypedStore::new(2, c.clone());
    let mut b: TypedStore<u8> = TypedStore::new(2, c.clone());
    let s = c.snapshot();
    let pa = a.alloc(vec![1]);
    let pb = b.alloc(vec![2]);
    let _ = a.read(pa);
    let _ = b.read(pb);
    let d = c.since(s);
    assert_eq!(d.reads, 2);
    assert_eq!(d.writes, 2);
}

// ---------------------------------------------------------- geometry edges

#[test]
#[should_panic(expected = "at least 2")]
fn geometry_b1_rejected() {
    // B = 1 would make every "block" a record and log_B meaningless.
    let _ = Geometry::new(1);
}

#[test]
fn geometry_b2_is_the_smallest_legal_block() {
    let g = Geometry::new(2);
    assert_eq!(g.b2(), 4);
    assert_eq!(g.b3(), 8);
    assert_eq!(g.out_blocks(5), 3);
    // log_2 is just the binary logarithm here.
    assert_eq!(g.log_b(1024), 10);
    assert_eq!(g.log_b(1025), 11);
}

#[test]
fn geometry_near_max_b_does_not_overflow() {
    // The largest B whose B³ still fits in usize (on 64-bit: 2^21 when
    // cubed gives 2^63). b2/b3 must not wrap and bounds stay sane.
    let b = 1usize << 21;
    let g = Geometry::new(b);
    assert_eq!(g.b2(), 1usize << 42);
    assert_eq!(g.b3(), 1usize << 63);
    assert_eq!(g.log_b(b), 1);
    assert_eq!(g.log_b(b + 1), 2);
    assert_eq!(g.out_blocks(usize::MAX), usize::MAX / b + 1);
}

#[test]
fn geometry_log_b_saturates_instead_of_overflowing() {
    // log_b uses saturating_mul internally: astronomically large n must
    // terminate and give the ceiling, not loop or wrap.
    let g = Geometry::new(2);
    assert_eq!(g.log_b(usize::MAX), 64);
    let g = Geometry::new(usize::MAX);
    assert_eq!(g.log_b(usize::MAX), 1);
    assert_eq!(g.log_b(2), 1);
}

#[test]
fn geometry_log2_covers_boundaries() {
    assert_eq!(Geometry::log2(0), 1);
    assert_eq!(Geometry::log2(1), 1);
    assert_eq!(Geometry::log2(2), 1);
    assert_eq!(Geometry::log2(usize::MAX), 64);
}
