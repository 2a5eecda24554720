//! Both trees' queries pinned page for page. A seeded mixed flood runs
//! over a static build at three node sizes, with and without an
//! incremental reorganisation budget, with and without packed control
//! blocks and, on the diagonal tree, under each of E13's ablations.
//! Between its rounds, single queries and batches run (and x-ranges on the
//! diagonal tree); their billed reads and an order-sensitive FNV-1a digest
//! of every answer are pinned to constants, so a change of the query path
//! that moves one page read or one answer fails here.
//!
//! The flood is laid out to reach every route of both searches: it starts
//! by emptying an interior child's mains over its live subtree (the
//! `Recurse` class), its deletes leave tombstones pending, and with a
//! budget its queries meet a shrink job in flight.

use std::collections::HashSet;

use ccix_extmem::{Geometry, IoCounter, Point};
use ccix_testkit::DetRng;

use super::{Shape, Tree};
use crate::{DiagOptions, MetablockTree, Op, ThreeSidedTree, Tuning};

/// Range of the coordinates.
const RANGE: i64 = 1_000_000;
/// Longest short diagonal-tree interval.
const MAX_LEN: i64 = RANGE / 20;
/// Operations per flood round.
const ROUND: usize = 64;

/// What a tree answers between the flood's rounds.
trait Pinned: Sized {
    type Q: Copy;
    /// A fresh point the tree admits.
    fn point(rng: &mut DetRng, id: u64) -> Point;
    fn query(rng: &mut DetRng) -> Self::Q;
    fn single(&self, q: Self::Q) -> Vec<Point>;
    fn batch(&self, qs: &[Self::Q], outs: &mut Vec<Vec<Point>>);
    /// Further reads the shape pins, folded into `h`.
    fn extra(&self, _rng: &mut DetRng, _h: &mut u64) {}
}

impl Pinned for MetablockTree {
    type Q = i64;
    /// One in eight intervals long, so that stabs meet truncated
    /// snapshots full of answers (the certificate case).
    fn point(rng: &mut DetRng, id: u64) -> Point {
        let lo = rng.gen_range(0..RANGE);
        let len = if rng.gen_bool(0.125) {
            RANGE / 2
        } else {
            MAX_LEN
        };
        Point::new(lo, lo + rng.gen_range(0..len), id)
    }
    fn query(rng: &mut DetRng) -> i64 {
        rng.gen_range(0..RANGE)
    }
    fn single(&self, q: i64) -> Vec<Point> {
        self.query(q)
    }
    fn batch(&self, qs: &[i64], outs: &mut Vec<Vec<Point>>) {
        self.query_batch_into(qs, outs);
    }
    fn extra(&self, rng: &mut DetRng, h: &mut u64) {
        let mut out = Vec::new();
        for _ in 0..4 {
            let x1 = rng.gen_range(0..RANGE);
            out.clear();
            self.x_range_with(x1, x1 + rng.gen_range(0..RANGE / 10), |p| *p, &mut out);
            fold(h, &out);
        }
    }
}

impl Pinned for ThreeSidedTree {
    type Q = (i64, i64, i64);
    fn point(rng: &mut DetRng, id: u64) -> Point {
        Point::new(rng.gen_range(0..RANGE), rng.gen_range(0..RANGE), id)
    }
    /// Narrow, middling and wide x-ranges, so that single boundary paths,
    /// forks and long runs of middles all occur.
    fn query(rng: &mut DetRng) -> (i64, i64, i64) {
        let x1 = rng.gen_range(0..RANGE);
        let width = RANGE / *rng.choose(&[1_000, 50, 4, 1]).expect("nonempty");
        (x1, x1 + rng.gen_range(0..width), rng.gen_range(0..RANGE))
    }
    fn single(&self, (x1, x2, y0): (i64, i64, i64)) -> Vec<Point> {
        self.query(x1, x2, y0)
    }
    fn batch(&self, qs: &[(i64, i64, i64)], outs: &mut Vec<Vec<Point>>) {
        self.query_batch_into(qs, outs);
    }
}

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Fold one answer, its length first, into `h`.
fn fold(h: &mut u64, answer: &[Point]) {
    fnv(h, answer.len() as u64);
    for p in answer {
        fnv(h, p.x as u64);
        fnv(h, p.y as u64);
        fnv(h, p.id);
    }
}

/// Delete every main of the root's first interior child other than its
/// first and last (whose open slabs no 3-sided query covers). A static
/// build fills a block to `B²`, a whole number of tombstone buffers, so
/// level-I annihilates the last of them with the last delete and leaves
/// empty mains over a live subtree.
fn empty_an_interior_child<S: Shape>(t: &mut Tree<S>, live: &mut Vec<Point>) {
    let root = t.metas.get(t.root.expect("nonempty"));
    let inner = &root.children[1..root.children.len() - 1];
    let child = (inner.iter().map(|c| c.mb))
        .find(|&c| !t.metas.get(c).is_leaf())
        .expect("an interior child");
    let m = t.metas.get(child);
    let victims: Vec<Point> = m
        .vertical
        .iter()
        .flat_map(|&pg| t.store.read_unbilled(pg).to_vec())
        .collect();
    for &v in &victims {
        t.delete(v);
    }
    let gone: HashSet<u64> = victims.iter().map(|p| p.id).collect();
    live.retain(|p| !gone.contains(&p.id));
    let m = t.metas.get(child);
    assert!(
        m.main_bbox.is_none() && !m.is_leaf(),
        "empty mains over a live subtree"
    );
}

/// Run the flood over `live` with `tuning`, building with `build`; returns
/// the reads its queries billed and their digest.
fn scenario<S: Shape>(
    b: usize,
    tuning: Tuning,
    seed: u64,
    build: impl FnOnce(Geometry, IoCounter, Vec<Point>, Tuning) -> Tree<S>,
) -> (u64, u64)
where
    Tree<S>: Pinned,
{
    let geo = Geometry::new(b);
    let mut rng = DetRng::new(seed ^ b as u64);
    let n = 40 * geo.b2();
    let mut live: Vec<Point> = (0..n as u64)
        .map(|id| <Tree<S>>::point(&mut rng, id))
        .collect();
    let counter = IoCounter::new();
    let mut t = build(geo, counter.clone(), live.clone(), tuning);
    empty_an_interior_child(&mut t, &mut live);
    let mut next_id = n as u64;

    let (mut reads, mut h) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    let (mut pending, mut mid_job) = (0usize, 0usize);
    let mut outs = Vec::new();
    // Half deletes: the shrink trigger (5 % of the build) fires about a
    // third of the way in.
    for round in 0..=n / 6 / ROUND {
        if round > 0 {
            let ops: Vec<Op> = (0..ROUND)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        Op::Delete(live.swap_remove(rng.gen_range(0..live.len())))
                    } else {
                        next_id += 1;
                        let p = <Tree<S>>::point(&mut rng, next_id);
                        live.push(p);
                        Op::Insert(p)
                    }
                })
                .collect();
            if round % 2 == 0 {
                t.apply_batch(&ops);
            } else {
                for op in ops {
                    match op {
                        Op::Insert(p) => t.insert(p),
                        Op::Delete(p) => t.delete(p),
                    }
                }
            }
        }
        pending += usize::from(t.pending_deletes() > 0);
        mid_job += usize::from(t.reorg_in_progress());
        let before = counter.reads();
        let qs: Vec<_> = (0..12).map(|_| <Tree<S>>::query(&mut rng)).collect();
        t.batch(&qs, &mut outs);
        for out in &outs {
            fold(&mut h, out);
        }
        for &q in &qs[..3] {
            fold(&mut h, &t.single(q));
        }
        t.extra(&mut rng, &mut h);
        reads += counter.reads() - before;
    }
    t.validate_unbilled();
    assert_eq!(t.len(), live.len());
    assert!(pending > 0, "no query met a pending tombstone");
    assert_eq!(
        mid_job > 0,
        tuning.reorg_pages_per_op > 0,
        "a shrink job is in flight between rounds exactly when there is a budget"
    );
    (reads, h)
}

/// The flood's tuning: a shrink trigger low enough to fire mid-flood, the
/// reorganisation budget `k` and `pack` mirrored pages per child.
fn tuning(k: usize, pack: usize) -> Tuning {
    Tuning {
        shrink_deletes_pct: 5,
        reorg_pages_per_op: k,
        pack_h_pages: pack,
        ..Tuning::default()
    }
}

/// A pinned case: `B`, reorganisation budget, mirrored pages per child,
/// then the reads and the digest.
type Pin = (usize, usize, usize, u64, u64);

/// Run every case of `want` through `run`, printing what each gave.
fn measure(want: &[Pin], run: impl Fn(usize, Tuning) -> (u64, u64)) -> Vec<Pin> {
    want.iter()
        .map(|&(b, k, pack, ..)| {
            let (reads, digest) = run(b, tuning(k, pack));
            println!("({b}, {k}, {pack}, {reads}, {digest:#018X}),");
            (b, k, pack, reads, digest)
        })
        .collect()
}

#[test]
fn three_sided_queries_are_pinned() {
    let want: [Pin; 12] = [
        (4, 0, 4, 870, 0x66F78838613A9CA6),
        (4, 0, 0, 935, 0x66F78838613A9CA6),
        (4, 4, 4, 993, 0xE1D92A14364B7FA2),
        (4, 4, 0, 1062, 0xE1D92A14364B7FA2),
        (8, 0, 4, 3141, 0x356E2D317D5C97E4),
        (8, 0, 0, 3216, 0x356E2D317D5C97E4),
        (8, 4, 4, 4586, 0x0BDC3CCFA67E191C),
        (8, 4, 0, 4643, 0x0BDC3CCFA67E191C),
        (32, 0, 4, 171296, 0x48E63EBFCA08CA83),
        (32, 0, 0, 172274, 0x48E63EBFCA08CA83),
        (32, 4, 4, 209023, 0x6C636100FD0CB987),
        (32, 4, 0, 209834, 0x6C636100FD0CB987),
    ];
    let got = measure(&want, |b, tuning| {
        scenario(b, tuning, 0x3_51DE_0E21, ThreeSidedTree::build_tuned)
    });
    assert_eq!(got, want);
}

/// Each of E13's four option sets (both on, corners off, snapshots off,
/// both off), at two node sizes: one case packed and without a budget,
/// one unpacked and with one.
#[test]
fn diagonal_ablations_and_x_ranges_are_pinned() {
    let want: [[Pin; 4]; 4] = [
        [
            (4, 0, 4, 628, 0xFB0D0FF5445F67EF),
            (4, 4, 0, 832, 0xC688230124F827CB),
            (32, 0, 4, 192965, 0xF7CAEC77469EA677),
            (32, 4, 0, 254579, 0x2A3B6ECE02114087),
        ],
        [
            (4, 0, 4, 633, 0x567A68D75A2EF51F),
            (4, 4, 0, 836, 0x3F4A2FF888AF1977),
            (32, 0, 4, 193865, 0xB89074382D78A4DB),
            (32, 4, 0, 255567, 0x75A66150A4BA94FB),
        ],
        [
            (4, 0, 4, 619, 0xFD95BD41E0B37CAF),
            (4, 4, 0, 847, 0x5C213FC6204E31E7),
            (32, 0, 4, 182089, 0x63DC5206AD76EEA7),
            (32, 4, 0, 242725, 0xDD549A919E09B31B),
        ],
        [
            (4, 0, 4, 624, 0xB58A8101303CA0CF),
            (4, 4, 0, 851, 0x07788D9839172893),
            (32, 0, 4, 183001, 0x9BF7FF6FCFBF673B),
            (32, 4, 0, 243702, 0xF7805BD76051378F),
        ],
    ];
    let got: Vec<Vec<Pin>> = want
        .iter()
        .enumerate()
        .map(|(i, want)| {
            let options = DiagOptions {
                corner_structures: i & 1 == 0,
                ts_shortcut: i & 2 == 0,
            };
            println!("{options:?}");
            measure(want, |b, tuning| {
                scenario(b, tuning, 0xD1A6_0E21, |geo, counter, pts, tuning| {
                    MetablockTree::build_tuned(geo, counter, pts, options, tuning)
                })
            })
        })
        .collect();
    assert_eq!(got, want);
}
