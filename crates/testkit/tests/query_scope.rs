//! The read path's scoping invariant: a query of a batch filters its
//! answers against the tombstone ids *it* selected, not against what the
//! whole batch met — so under any mix of pending tombstones
//!
//! ```text
//! query_batch_into(qs)[i]  ==  query(qs[i])  ==  oracle(qs[i])
//! ```
//!
//! the first equality as exact sequences (same points, same order), the
//! second as sets. Checked on both metablock trees and through
//! [`ShardedIntervalIndex`], under mixed insert/delete floods that keep
//! tombstones pending: dense duplicate coordinates, TD delete sides (small
//! `B`, multi-level trees), a shrink job in flight (`reorg_pages_per_op` ∈
//! {0, 1, 4}) and the file backend. [`IoProbe`] holds the batch's bill to
//! the singles' and, on three fixed scenarios, to the exact page counts and
//! answer sequences the whole-batch filter produced before it was replaced.

use ccix_core::{MetablockTree, ThreeSidedTree, Tuning};
use ccix_durable::TempDir;
use ccix_extmem::{Geometry, IoCounter, Point};
use ccix_interval::{IndexBuilder, Interval, ShardedIntervalIndex};
use ccix_testkit::iocheck::{assert_read_only, IoProbe};
use ccix_testkit::workloads::{self, IntervalOp as FloodOp, PointOp};
use ccix_testkit::{check, oracle, DetRng};

#[cfg(debug_assertions)]
const TRIALS: usize = 24;
#[cfg(not(debug_assertions))]
const TRIALS: usize = 80;

/// Every knob that moves page traffic, small buffers so tombstones reach
/// TD delete sides and TS snapshots early, a shrink trigger low enough
/// that delete floods start jobs, and the issue's three reorg budgets.
fn scope_tuning(rng: &mut DetRng) -> Tuning {
    Tuning {
        update_batch_pages: rng.gen_range(1..6usize),
        td_batch_pages: rng.gen_range(1..4usize),
        tomb_batch_pages: rng.gen_range(1..4usize),
        shrink_deletes_pct: rng.gen_range(5..60usize),
        ts_snapshot_pages: if rng.gen_bool(0.5) {
            None
        } else {
            Some(rng.gen_range(1..9usize))
        },
        corner_alpha: 2,
        pack_h_pages: rng.gen_range(0..5usize),
        resident_root: rng.gen_bool(0.5),
        reorg_pages_per_op: *rng.choose(&[0usize, 1, 4]).expect("nonempty"),
    }
}

/// Key range of a trial: three in ten are dense (a dozen distinct
/// coordinates, so every query meets long runs of equal keys).
fn scope_range(rng: &mut DetRng) -> i64 {
    if rng.gen_bool(0.3) {
        rng.gen_range(3i64..15)
    } else {
        rng.gen_range(30i64..1_500)
    }
}

/// A batch of up to 40 stab points scattered around `q`, unsorted, `q`
/// itself in it twice.
fn stab_batch(rng: &mut DetRng, q: i64, range: i64) -> Vec<i64> {
    let mut qs: Vec<i64> = (0..rng.gen_range(0..39usize))
        .map(|_| q + rng.gen_range(-range..range + 1))
        .collect();
    qs.push(q);
    qs.insert(rng.gen_range(0..qs.len()), q);
    qs
}

/// Order-sensitive digest of a batch's answers (FNV-1a over slot lengths
/// and point fields).
fn digest(h: &mut u64, outs: &[Vec<Point>]) {
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    for out in outs {
        eat(out.len() as u64);
        for p in out {
            eat(p.x as u64);
            eat(p.y as u64);
            eat(p.id);
        }
    }
}

/// One batch on the diagonal tree against its singles and the oracle.
fn check_diag_batch(tree: &MetablockTree, live: &[Point], qs: &[i64], ctx: &str) {
    let mut outs = Vec::new();
    let probe = IoProbe::start(tree.counter(), format!("query_batch_into {ctx}"));
    tree.query_batch_into(qs, &mut outs);
    let batch = probe.finish_query(outs.iter().map(Vec::len).sum());
    assert_read_only(batch, "query_batch_into");

    let probe = IoProbe::start(tree.counter(), "singles");
    let singles: Vec<Vec<Point>> = qs.iter().map(|&q| tree.query(q)).collect();
    let single_reads = probe.finish().reads;
    assert!(
        batch.reads <= single_reads,
        "{ctx}: batch billed {} pages, its singles {single_reads}",
        batch.reads
    );
    for ((q, got), single) in qs.iter().zip(&outs).zip(&singles) {
        assert_eq!(got, single, "{ctx} q={q}: batch slot vs single query");
        oracle::assert_same_points(
            got.clone(),
            oracle::diagonal_corner(live, *q),
            &format!("{ctx} q={q}"),
        );
    }

    // Ids through the same function bill the same pages.
    let mut ids = Vec::new();
    let probe = IoProbe::start(tree.counter(), "query_batch_with");
    tree.query_batch_with(qs, |p| p.id, &mut ids);
    assert_eq!(
        probe.finish().reads,
        batch.reads,
        "{ctx}: projection moved I/O"
    );
    for (got, pts) in ids.iter().zip(&outs) {
        assert!(got.iter().eq(pts.iter().map(|p| &p.id)), "{ctx}: id slot");
    }
}

#[test]
fn diag_batch_slots_equal_single_queries_under_pending_tombstones() {
    let (mut pending, mut mid_job) = (0usize, 0usize);
    check::trials("query_scope::diag", TRIALS, 0x5C09_E001, |rng| {
        let b = rng.gen_range(2usize..9);
        let tuning = scope_tuning(rng);
        let range = scope_range(rng);
        let ops = workloads::mixed_interval_flood(
            rng.gen_range(100..1_500usize),
            rng.next_u64(),
            range,
            range / 2 + 1,
            40,
            6,
        );
        let mut tree = MetablockTree::new_tuned(
            Geometry::new(b),
            IoCounter::new(),
            Default::default(),
            tuning,
        );
        let mut live: Vec<Point> = Vec::new();
        for op in ops {
            match op {
                FloodOp::Insert(iv) => {
                    live.push(Point::new(iv.lo, iv.hi, iv.id));
                    tree.insert(Point::new(iv.lo, iv.hi, iv.id));
                }
                FloodOp::Delete(iv) => tree.delete(oracle::remove_point(&mut live, iv.id)),
                FloodOp::Stab(q) => {
                    pending += usize::from(tree.pending_deletes() > 0);
                    mid_job += usize::from(tree.reorg_in_progress());
                    let qs = stab_batch(rng, q, range);
                    let ctx = format!("b={b} range={range} {tuning:?}");
                    check_diag_batch(&tree, &live, &qs, &ctx);
                }
            }
        }
    });
    assert!(
        pending > 100,
        "only {pending} batches met pending tombstones"
    );
    assert!(
        mid_job > 10,
        "only {mid_job} batches met a shrink job in flight"
    );
}

/// The shape a whole-batch filter hides: the tree is one metablock, so every
/// query of the batch scans the same tombstone buffer. In sorted order the
/// first query meets all three tombstones and selects none; each victim is
/// reported only by a later query, which must select its tombstone again.
#[test]
fn a_later_query_of_the_batch_finds_the_tombstone_again() {
    for b in [4usize, 8, 16] {
        let n = (b * b - b) as i64;
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new(10 * i, 10 * i + 35, i as u64))
            .collect();
        let mut tree = MetablockTree::build(Geometry::new(b), IoCounter::new(), pts.clone());
        let mut live = pts;
        let victims = [1, n / 2, n - 2];
        for v in victims {
            tree.delete(oracle::remove_point(&mut live, v as u64));
        }
        assert_eq!(tree.stats().metablocks, 1, "b={b}");
        assert_eq!(tree.pending_deletes(), 3, "b={b}: tombstones stay buffered");
        // q = 0 stabs interval 0 alone; the others stab one victim each
        // (and its live neighbours). Input order is not sorted order.
        let qs = [10 * (n / 2) + 5, 0, 10 * (n - 2), 15, 10 * (n / 2) + 5];
        check_diag_batch(&tree, &live, &qs, &format!("b={b}"));
        for v in victims {
            let stabbed: Vec<u64> = tree.query(10 * v + 5).iter().map(|p| p.id).collect();
            assert!(
                !stabbed.is_empty() && !stabbed.contains(&(v as u64)),
                "b={b} v={v}"
            );
        }
    }
}

#[test]
fn threesided_batch_slots_equal_single_queries_under_pending_tombstones() {
    let (mut pending, mut mid_job) = (0usize, 0usize);
    check::trials("query_scope::threesided", TRIALS, 0x5C09_E002, |rng| {
        let b = rng.gen_range(2usize..8);
        let tuning = scope_tuning(rng);
        let range = scope_range(rng);
        let ops = workloads::mixed_point_flood(
            rng.gen_range(100..1_200usize),
            rng.next_u64(),
            range,
            40,
            6,
        );
        let counter = IoCounter::new();
        let mut tree = ThreeSidedTree::new_tuned(Geometry::new(b), counter.clone(), tuning);
        let mut live: Vec<Point> = Vec::new();
        let mut outs = Vec::new();
        for op in ops {
            match op {
                PointOp::Insert(p) => {
                    live.push(p);
                    tree.insert(p);
                }
                PointOp::Delete(p) => tree.delete(oracle::remove_point(&mut live, p.id)),
                PointOp::Query(x1, x2, y0) => {
                    pending += usize::from(tree.pending_deletes() > 0);
                    mid_job += usize::from(tree.reorg_in_progress());
                    let mut qs: Vec<(i64, i64, i64)> = (0..rng.gen_range(0..24usize))
                        .map(|_| {
                            let a = x1 + rng.gen_range(-range..range + 1);
                            let y = y0 + rng.gen_range(-range / 2..range / 2 + 1);
                            (a, a + rng.gen_range(0..range), y)
                        })
                        .collect();
                    qs.push((x1, x2, y0));
                    let probe = IoProbe::start(&counter, "3-sided query_batch_into");
                    tree.query_batch_into(&qs, &mut outs);
                    let batch = probe.finish_query(outs.iter().map(Vec::len).sum());
                    assert_read_only(batch, "3-sided query_batch_into");
                    let probe = IoProbe::start(&counter, "3-sided singles");
                    let singles: Vec<Vec<Point>> =
                        qs.iter().map(|&(a, c, y)| tree.query(a, c, y)).collect();
                    assert!(
                        batch.reads <= probe.finish().reads,
                        "batch out-billed singles"
                    );
                    for ((&(a, c, y), got), single) in qs.iter().zip(&outs).zip(&singles) {
                        let ctx = format!("b={b} range={range} q=({a},{c},{y}) {tuning:?}");
                        assert_eq!(got, single, "{ctx}: batch slot vs single query");
                        oracle::assert_same_points(
                            got.clone(),
                            oracle::three_sided(&live, a, c, y),
                            &ctx,
                        );
                    }
                }
            }
        }
    });
    assert!(
        pending > 100,
        "only {pending} batches met pending tombstones"
    );
    assert!(
        mid_job > 10,
        "only {mid_job} batches met a shrink job in flight"
    );
}

/// One batch through the sharded index: ids and intervals, batch against
/// singles (exact order) and the oracle.
fn check_sharded_batch(idx: &ShardedIntervalIndex, live: &[Interval], qs: &[i64], ctx: &str) {
    let ids = idx.stab_batch(qs);
    let ivs = idx.stab_batch_intervals(qs);
    for ((q, got), got_ivs) in qs.iter().zip(&ids).zip(&ivs) {
        assert_eq!(
            got,
            &idx.stabbing(*q),
            "{ctx} q={q}: batch slot vs single stab"
        );
        assert_eq!(
            got_ivs,
            &idx.stabbing_intervals(*q),
            "{ctx} q={q}: interval slot vs single stab"
        );
        assert!(
            got.iter().eq(got_ivs.iter().map(|iv| &iv.id)),
            "{ctx} q={q}: ids and intervals disagree"
        );
        oracle::assert_same_ids(got.clone(), oracle::stabbing_ids(live, *q), ctx);
    }
}

#[test]
fn sharded_batch_slots_equal_single_stabs_on_both_backends() {
    #[cfg(debug_assertions)]
    const SHARDED_TRIALS: usize = 8;
    #[cfg(not(debug_assertions))]
    const SHARDED_TRIALS: usize = 30;
    let mut pending = 0usize;
    let mut trial = 0usize;
    check::trials("query_scope::sharded", SHARDED_TRIALS, 0x5C09_E003, |rng| {
        trial += 1;
        let b = *rng.choose(&[2usize, 4, 8]).expect("nonempty");
        let tuning = scope_tuning(rng);
        let range = scope_range(rng).max(40);
        let tmp = TempDir::new("query-scope");
        let mut builder = IndexBuilder::new(Geometry::new(b)).tuning(tuning);
        let file = trial.is_multiple_of(2);
        if file {
            builder = builder.file_backed(tmp.path());
        }
        let mut idx = builder
            .sharded()
            .splits(vec![range / 4, range / 2, 3 * range / 4])
            .open();
        assert_eq!(idx.is_file_backed(), file);
        let ops = workloads::mixed_interval_flood(
            rng.gen_range(100..700usize),
            rng.next_u64(),
            range,
            range / 2 + 1,
            40,
            6,
        );
        let mut live: Vec<Interval> = Vec::new();
        for op in ops {
            match op {
                FloodOp::Insert(iv) => {
                    live.push(iv);
                    idx.insert(iv.lo, iv.hi, iv.id);
                }
                FloodOp::Delete(iv) => {
                    oracle::remove_interval(&mut live, iv.id);
                    idx.delete(iv.lo, iv.hi, iv.id);
                }
                FloodOp::Stab(q) => {
                    pending += usize::from(idx.pending_deletes() > 0);
                    let qs = stab_batch(rng, q, range);
                    let ctx = format!("b={b} range={range} file={file} {tuning:?}");
                    check_sharded_batch(&idx, &live, &qs, &ctx);
                }
            }
        }
    });
    assert!(
        pending > 50,
        "only {pending} batches met pending tombstones"
    );
}

/// Three fixed scenarios whose batches' billed pages and answer sequences
/// are pinned at what the parent of this change (whole-batch filter,
/// `Vec<Vec<Point>>` handed up and re-walked) produced: the per-query scope
/// and the in-tree projection changed neither a page nor the order of an
/// answer.
#[test]
fn batch_pages_and_answer_order_match_the_whole_batch_filter() {
    // B, reorg budget, dense keys → batch reads, answer digest; from the
    // same code run at commit 278a2a1.
    const PINNED: [(usize, usize, bool, u64, u64); 3] = [
        (4, 0, false, 12_739, 0xEAB0_9E94_0C1B_5A67),
        (3, 4, false, 48_798, 0x364C_4A7F_BDEB_D9F1),
        (6, 1, true, 62_174, 0x82C3_0DA9_FFA2_A9DD),
    ];
    for (b, k, dense, want_reads, want_digest) in PINNED {
        let mut rng = DetRng::new(0x009A_2E17 + b as u64);
        let tuning = Tuning {
            reorg_pages_per_op: k,
            shrink_deletes_pct: 20,
            ..scope_tuning(&mut rng)
        };
        let range = if dense { 12 } else { 900 };
        let ops = workloads::mixed_interval_flood(2_000, 0xF100D + b as u64, range, 200, 40, 4);
        let mut tree = MetablockTree::new_tuned(
            Geometry::new(b),
            IoCounter::new(),
            Default::default(),
            tuning,
        );
        let mut outs = Vec::new();
        let (mut reads, mut h) = (0u64, 0xcbf2_9ce4_8422_2325u64);
        for op in ops {
            match op {
                FloodOp::Insert(iv) => tree.insert(Point::new(iv.lo, iv.hi, iv.id)),
                FloodOp::Delete(iv) => tree.delete(Point::new(iv.lo, iv.hi, iv.id)),
                FloodOp::Stab(q) => {
                    let qs = stab_batch(&mut rng, q, range);
                    let probe = IoProbe::start(tree.counter(), "pinned batch");
                    tree.query_batch_into(&qs, &mut outs);
                    reads += probe.finish().reads;
                    digest(&mut h, &outs);
                }
            }
        }
        assert_eq!(
            (reads, h),
            (want_reads, want_digest),
            "B={b} k={k} dense={dense}"
        );
    }
}
