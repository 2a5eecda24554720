//! The 3-sided tree's write path pinned page for page: a seeded flood of
//! inserts and deletes, single and batched, over a statically built tree
//! at three node sizes. The flood fires level-I, TD folds, TS
//! reorganisations, push-downs at the root and leaf splits at every size
//! (and branching splits and shrinks at the smaller ones), and each
//! case's bills, shape,
//! reorganisation counts and an FNV-1a digest of every page of the point
//! store and of every PST store are pinned to constants, so a change of
//! how a reorganisation derives its orders that moves one point, one node
//! or one page id fails here.

use ccix_testkit::DetRng;

use super::*;
use crate::{Op, Tuning};

/// Range of the uniform coordinates.
const RANGE: i64 = 1_000_000;

/// Fold `bytes` into an FNV-1a digest.
fn fnv(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Fold page images (id, then encoded records) into `digest`.
fn fold_pages(digest: &mut u64, images: &[(u32, Vec<u8>)]) {
    fnv(digest, &(images.len() as u64).to_le_bytes());
    for (id, bytes) in images {
        fnv(digest, &id.to_le_bytes());
        fnv(digest, bytes);
    }
}

/// Every page of `t`'s point store, then of each of its PST stores
/// ([`ThreeSidedTree::psts`] order), each store in page order.
pub(crate) fn page_digest(t: &ThreeSidedTree) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    fold_pages(&mut digest, &t.store_page_images());
    for pst in t.psts() {
        fold_pages(&mut digest, &pst.page_images());
    }
    digest
}

/// What one flood pins: the bills, `stats()`, the reorganisation counts
/// (level-I, TD folds, TS reorganisations, push-downs, leaf splits,
/// branching splits, shrinks) and the page digest.
type Pin = ([u64; 2], [usize; 9], [u64; 7], u64);

/// Build over `6·B²` uniform points, then flood: `max(8·B², 2 048)`
/// operations in rounds of 64, alternately applied one by one and as one
/// batch. An operation is a
/// delete of a random live point (one in four), an insert above every
/// point so far (one in four: it lands at the root, which fills and
/// pushes down), or an insert in the leftmost eighth of the x range (its
/// leaves fill and split).
fn flood(b: usize) -> Pin {
    let geo = Geometry::new(b);
    let b2 = geo.b2();
    let mut rng = DetRng::new(0x3_51DE_0000 ^ b as u64);
    let mut live: Vec<Point> = (0..6 * b2 as u64)
        .map(|id| Point::new(rng.gen_range(0..RANGE), rng.gen_range(0..RANGE), id))
        .collect();
    let counter = IoCounter::new();
    let mut t = ThreeSidedTree::build_tuned(geo, counter.clone(), live.clone(), Tuning::default());
    let mut next_id = live.len() as u64;
    let mut top = RANGE;
    for round in 0..(8 * b2).max(2_048) / 64 {
        let mut ops = Vec::with_capacity(64);
        for _ in 0..64 {
            let op = match rng.gen_range(0..4u32) {
                0 => Op::Delete(live.swap_remove(rng.gen_range(0..live.len()))),
                1 => {
                    top += 1;
                    Op::Insert(Point::new(rng.gen_range(0..RANGE), top, next_id))
                }
                _ => Op::Insert(Point::new(
                    rng.gen_range(0..RANGE / 8),
                    rng.gen_range(0..RANGE),
                    next_id,
                )),
            };
            if let Op::Insert(p) = op {
                live.push(p);
                next_id += 1;
            }
            ops.push(op);
        }
        if round % 2 == 0 {
            for op in ops {
                match op {
                    Op::Insert(p) => t.insert(p),
                    Op::Delete(p) => t.delete(p),
                }
            }
        } else {
            t.apply_batch(&ops);
        }
    }
    t.validate_unbilled();
    assert_eq!(t.len(), live.len());
    let s = t.stats();
    let f = t.reorgs_fired();
    let fired = [
        f.level_i,
        f.td_folds,
        f.ts_reorgs,
        f.push_downs,
        f.leaf_splits,
        f.branching_splits,
        f.shrinks,
    ];
    assert!(
        fired[..5].iter().all(|&n| n > 0),
        "B = {b}: the flood must fire level-I, TD folds, TS reorganisations, a push-down and a leaf split: {f:?}"
    );
    let stats = [
        s.metablocks,
        s.leaves,
        s.height,
        s.pages,
        s.points,
        s.pending_updates,
        s.pending_tombs,
        s.snapshot_pages,
        s.org_pages,
    ];
    (
        [counter.reads(), counter.writes()],
        stats,
        fired,
        page_digest(&t),
    )
}

#[test]
fn write_path_pages_are_pinned() {
    let want: [(usize, Pin); 3] = [
        (
            4,
            (
                [16_988, 29_010],
                [53, 32, 4, 1_825, 1_182, 210, 106, 235, 860],
                [243, 139, 148, 46, 11, 1, 3],
                7_195_240_568_552_622_185,
            ),
        ),
        (
            8,
            (
                [11_303, 18_893],
                [25, 16, 3, 1_087, 1_479, 300, 89, 174, 494],
                [58, 78, 30, 8, 3, 0, 1],
                846_781_162_203_219_737,
            ),
        ),
        (
            32,
            (
                [27_143, 40_869],
                [8, 7, 2, 1_702, 10_464, 312, 224, 96, 932],
                [64, 71, 6, 1, 2, 0, 0],
                16_747_068_759_009_217_816,
            ),
        ),
    ];
    for (b, pin) in want {
        assert_eq!(flood(b), pin, "B = {b}");
    }
}
