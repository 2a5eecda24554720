//! Differential suite for the incremental-reorganisation engine
//! (`Tuning::reorg_pages_per_op`) and the mixed batched write path
//! (`apply_batch`).
//!
//! Four properties are pinned:
//!
//! * **oracle agreement mid-dribble** — with a finite per-op budget, a
//!   delete-heavy flood keeps a background shrink job in flight most of
//!   the time; every query issued while the job is mid-collect, mid-merge
//!   or mid-drain must agree with the linear-scan oracle, and the
//!   structural validators must pass at arbitrary job phases;
//! * **bounded per-op transfers** — with budget `k`, no single insert or
//!   delete may exceed an `O(height) + O(k)` envelope: the full-rebuild
//!   spike of the stop-the-world shrink (`O(n/B)` transfers in one op)
//!   must be gone;
//! * **debt conservation** — after `flush_reorgs()` the job is complete,
//!   the debt meter is empty, and the tree validates;
//! * **mixed batches share the descent** — `apply_batch` over a correlated
//!   insert/delete flood costs no more I/Os than applying the same ops
//!   serially, on both trees and through `IntervalIndex` / `ClassIndex`.

use ccix_class::{ClassIndex, ClassOp, RakeClassIndex, RangeTreeClassIndex};
use ccix_core::{MetablockTree, Op, ThreeSidedTree, Tuning};
use ccix_extmem::{Geometry, IoCounter, Point};
use ccix_interval::{IndexBuilder, IntervalOp};
use ccix_testkit::iocheck::IoProbe;
use ccix_testkit::workloads::{IntervalOp as FloodOp, ObjectOp, PointOp};
use ccix_testkit::{check, oracle, workloads, DetRng};

/// A tuning whose incremental budget is always finite, with the shrink
/// trigger low enough that delete floods start background jobs often.
fn dribble_tuning(rng: &mut DetRng) -> Tuning {
    Tuning {
        update_batch_pages: rng.gen_range(1..6usize),
        td_batch_pages: rng.gen_range(1..4usize),
        tomb_batch_pages: rng.gen_range(1..4usize),
        shrink_deletes_pct: rng.gen_range(5..40usize),
        ts_snapshot_pages: if rng.gen_bool(0.5) {
            None
        } else {
            Some(rng.gen_range(1..9usize))
        },
        corner_alpha: 2,
        pack_h_pages: rng.gen_range(0..5usize),
        resident_root: rng.gen_bool(0.5),
        reorg_pages_per_op: *rng.choose(&[1usize, 2, 4, 8]).expect("nonempty"),
    }
}

/// Diagonal tree under a delete-heavy mixed flood with a finite budget:
/// queries and validators must hold at every job phase, and the job must
/// eventually complete with the debt fully bled.
#[test]
fn diag_dribble_agrees_with_oracle_mid_job() {
    check::trials("incremental_reorg::diag_dribble", 32, 0x1AC0, |rng| {
        let b = rng.gen_range(2usize..8);
        let geo = Geometry::new(b);
        let tuning = dribble_tuning(rng);
        let range = rng.gen_range(30i64..400);
        let ops = workloads::mixed_interval_flood(
            rng.gen_range(50..700usize),
            rng.next_u64(),
            range,
            range / 2 + 1,
            40,
            12,
        );
        let mut tree = MetablockTree::new_tuned(geo, IoCounter::new(), Default::default(), tuning);
        let mut live: Vec<Point> = Vec::new();
        let mut saw_job = false;
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                FloodOp::Insert(iv) => {
                    tree.insert(Point::new(iv.lo, iv.hi, iv.id));
                    live.push(Point::new(iv.lo, iv.hi, iv.id));
                }
                FloodOp::Delete(iv) => {
                    tree.delete(oracle::remove_point(&mut live, iv.id));
                }
                FloodOp::Stab(q) => {
                    oracle::assert_same_points(
                        tree.query(q),
                        oracle::diagonal_corner(&live, q),
                        &format!("b={b} tuning={tuning:?} q={q}"),
                    );
                }
            }
            saw_job |= tree.reorg_in_progress();
            if i % 61 == 0 {
                // The validator must hold mid-collect/merge/drain too.
                tree.validate_unbilled();
            }
        }
        tree.flush_reorgs();
        assert!(!tree.reorg_in_progress(), "flush completes the job");
        assert_eq!(tree.reorg_debt(), 0, "flush bleeds every deferred transfer");
        tree.validate_unbilled();
        assert_eq!(tree.len(), live.len());
        let q = rng.gen_range(-1..range + 1);
        oracle::assert_same_points(
            tree.query(q),
            oracle::diagonal_corner(&live, q),
            &format!("post-flush b={b} q={q} saw_job={saw_job}"),
        );
    });
}

/// 3-sided tree under the same discipline.
#[test]
fn threesided_dribble_agrees_with_oracle_mid_job() {
    check::trials("incremental_reorg::threesided_dribble", 24, 0x1AC1, |rng| {
        let b = rng.gen_range(2usize..8);
        let geo = Geometry::new(b);
        let tuning = dribble_tuning(rng);
        let range = rng.gen_range(30i64..400);
        let ops = workloads::mixed_point_flood(
            rng.gen_range(50..600usize),
            rng.next_u64(),
            range,
            40,
            12,
        );
        let mut tree = ThreeSidedTree::new_tuned(geo, IoCounter::new(), tuning);
        let mut live: Vec<Point> = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                PointOp::Insert(p) => {
                    tree.insert(p);
                    live.push(p);
                }
                PointOp::Delete(p) => {
                    tree.delete(oracle::remove_point(&mut live, p.id));
                }
                PointOp::Query(x1, x2, y0) => {
                    oracle::assert_same_points(
                        tree.query(x1, x2, y0),
                        oracle::three_sided(&live, x1, x2, y0),
                        &format!("b={b} tuning={tuning:?} q=({x1},{x2},{y0})"),
                    );
                }
            }
            if i % 61 == 0 {
                tree.validate_unbilled();
            }
        }
        tree.flush_reorgs();
        assert_eq!(tree.reorg_debt(), 0);
        tree.validate_unbilled();
        assert_eq!(tree.len(), live.len());
    });
}

/// The tentpole's worst-case claim: with budget `k`, no single write op
/// may exceed an `O(height) + O(k)` transfer envelope — in particular the
/// old stop-the-world shrink spike (`O(n/B)` transfers inside one delete)
/// must be gone. Runs a bulk-built tree through a delete-heavy flood that
/// provably starts shrink jobs, probing **every op individually**.
#[test]
fn per_op_transfers_bounded_by_budget() {
    for &k in &[1usize, 4] {
        let b = 8usize;
        let geo = Geometry::new(b);
        let n = 12_000usize;
        let tuning = Tuning {
            reorg_pages_per_op: k,
            shrink_deletes_pct: 30,
            ..Tuning::default()
        };
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let x = ((i * 37) % 20_000) as i64;
                Point::new(x, x + ((i * 13) % 500) as i64, i as u64)
            })
            .collect();
        let counter = IoCounter::new();
        let mut tree = MetablockTree::build_tuned(
            geo,
            counter.clone(),
            pts.clone(),
            Default::default(),
            tuning,
        );
        // Routing costs O(height) control blocks plus a constant number of
        // page appends; the pump adds at most k bled transfers. The old
        // stop-the-world shrink rebuilt ~2n/B ≈ 3000 pages inside one
        // delete, far above this envelope.
        let bound = (6 * (geo.log_b(n) + 3) + 2 * k + 48) as u64;
        let mut rng = DetRng::new(0x1AC2);
        let mut live = pts;
        let mut next_id = n as u64;
        let mut saw_job = false;
        for step in 0..3 * n / 4 {
            let probe = IoProbe::start(&counter, format!("k={k} op {step}"));
            if step % 10 == 9 {
                // A sprinkle of inserts exercises the frozen-tree divert.
                let x = rng.gen_range(0..20_000i64);
                tree.insert(Point::new(x, x + rng.gen_range(0..500i64), next_id));
                next_id += 1;
            } else {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                tree.delete(victim);
            }
            probe.finish_within(bound);
            saw_job |= tree.reorg_in_progress();
        }
        assert!(saw_job, "the flood never started a background job (k={k})");
        tree.flush_reorgs();
        assert_eq!(tree.reorg_debt(), 0);
        tree.validate_unbilled();
    }
}

/// As above on the 3-sided tree (small extra headroom for its PST terms).
#[test]
fn per_op_transfers_bounded_by_budget_threesided() {
    let b = 8usize;
    let k = 2usize;
    let geo = Geometry::new(b);
    let n = 9_000usize;
    let tuning = Tuning {
        reorg_pages_per_op: k,
        shrink_deletes_pct: 30,
        ..Tuning::default()
    };
    let pts: Vec<Point> = (0..n)
        .map(|i| {
            Point::new(
                ((i * 37) % 15_000) as i64,
                ((i * 13) % 4_000) as i64,
                i as u64,
            )
        })
        .collect();
    let counter = IoCounter::new();
    let mut tree = ThreeSidedTree::build_tuned(geo, counter.clone(), pts.clone(), tuning);
    let bound = (6 * (geo.log_b(n) + 3) + 2 * k + 64) as u64;
    let mut rng = DetRng::new(0x1AC3);
    let mut live = pts;
    let mut saw_job = false;
    for step in 0..3 * n / 4 {
        let victim = live.swap_remove(rng.gen_range(0..live.len()));
        let probe = IoProbe::start(&counter, format!("3s op {step}"));
        tree.delete(victim);
        probe.finish_within(bound);
        saw_job |= tree.reorg_in_progress();
    }
    assert!(saw_job, "the flood never started a background job");
    tree.flush_reorgs();
    assert_eq!(tree.reorg_debt(), 0);
    tree.validate_unbilled();
}

/// A correlated mixed flood for the apply-batch cost comparisons: deletes
/// of existing points inside one tight x-window interleaved with fresh
/// inserts into the same window.
fn correlated_mixed_ops(n: usize) -> (Vec<Point>, Vec<Op>) {
    let pts: Vec<Point> = (0..n)
        .map(|i| {
            let x = ((i * 37) % 20_000) as i64;
            Point::new(x, x + ((i * 13) % 500) as i64, i as u64)
        })
        .collect();
    let mut ops = Vec::new();
    for (fresh, p) in (n as u64..).zip(pts.iter().filter(|p| p.x < 600)) {
        ops.push(Op::Delete(*p));
        ops.push(Op::Insert(Point::new(p.x + 1, p.x + 300, fresh)));
    }
    assert!(ops.len() > 128, "flood is non-trivial");
    (pts, ops)
}

/// Mixed batches share the descent: on a correlated insert/delete flood,
/// `apply_batch` costs no more I/Os than applying the same ops serially,
/// and both end in the same logical state.
#[test]
fn apply_batch_shares_the_descent() {
    let geo = Geometry::new(16);
    let (pts, ops) = correlated_mixed_ops(8_000);

    let serial_counter = IoCounter::new();
    let mut serial = MetablockTree::build(geo, serial_counter.clone(), pts.clone());
    let before = serial_counter.snapshot();
    for op in &ops {
        match *op {
            Op::Insert(p) => serial.insert(p),
            Op::Delete(p) => serial.delete(p),
        }
    }
    let serial_cost = serial_counter.since(before).total();

    let batch_counter = IoCounter::new();
    let mut batched = MetablockTree::build(geo, batch_counter.clone(), pts);
    let before = batch_counter.snapshot();
    batched.apply_batch(&ops);
    let batch_cost = batch_counter.since(before).total();

    assert!(
        batch_cost <= serial_cost,
        "batched mixed ops cost {batch_cost} I/Os, serial {serial_cost}"
    );
    serial.validate_unbilled();
    batched.validate_unbilled();
    assert_eq!(serial.len(), batched.len());
    for q in [100i64, 300, 5_000] {
        let mut a = serial.query(q);
        let mut c = batched.query(q);
        a.sort_unstable_by_key(|p| p.id);
        c.sort_unstable_by_key(|p| p.id);
        assert_eq!(a, c, "q={q}");
    }
}

/// As above on the 3-sided tree.
#[test]
fn apply_batch_shares_the_descent_threesided() {
    let geo = Geometry::new(16);
    let n = 8_000usize;
    let pts: Vec<Point> = (0..n)
        .map(|i| {
            Point::new(
                ((i * 37) % 20_000) as i64,
                ((i * 13) % 4_000) as i64,
                i as u64,
            )
        })
        .collect();
    let mut ops = Vec::new();
    for (fresh, p) in (n as u64..).zip(pts.iter().filter(|p| p.x < 600)) {
        ops.push(Op::Delete(*p));
        ops.push(Op::Insert(Point::new(p.x + 1, p.y + 1, fresh)));
    }
    assert!(ops.len() > 128, "flood is non-trivial");

    let serial_counter = IoCounter::new();
    let mut serial = ThreeSidedTree::build(geo, serial_counter.clone(), pts.clone());
    let before = serial_counter.snapshot();
    for op in &ops {
        match *op {
            Op::Insert(p) => serial.insert(p),
            Op::Delete(p) => serial.delete(p),
        }
    }
    let serial_cost = serial_counter.since(before).total();

    let batch_counter = IoCounter::new();
    let mut batched = ThreeSidedTree::build(geo, batch_counter.clone(), pts);
    let before = batch_counter.snapshot();
    batched.apply_batch(&ops);
    let batch_cost = batch_counter.since(before).total();

    assert!(
        batch_cost <= serial_cost,
        "batched mixed ops cost {batch_cost} I/Os, serial {serial_cost}"
    );
    serial.validate_unbilled();
    batched.validate_unbilled();
    assert_eq!(serial.len(), batched.len());
    let mut a = serial.query(0, 700, -1);
    let mut c = batched.query(0, 700, -1);
    a.sort_unstable_by_key(|p| p.id);
    c.sort_unstable_by_key(|p| p.id);
    assert_eq!(a, c);
}

/// `IntervalIndex::apply_batch` agrees with the oracle across random
/// chunked mixed floods, under random budgets (including finite ones).
#[test]
fn interval_apply_batch_agrees_with_oracle() {
    check::trials("incremental_reorg::interval_apply", 24, 0x1AC4, |rng| {
        let b = rng.gen_range(2usize..8);
        let geo = Geometry::new(b);
        let mut tuning = dribble_tuning(rng);
        if rng.gen_bool(0.3) {
            tuning.reorg_pages_per_op = 0; // the all-at-once corner
        }
        let range = rng.gen_range(30i64..300);
        let flood = workloads::mixed_interval_flood(
            rng.gen_range(40..400usize),
            rng.next_u64(),
            range,
            range / 2 + 1,
            35,
            0,
        );
        let mut idx = IndexBuilder::new(geo).tuning(tuning).open(IoCounter::new());
        let mut live: Vec<ccix_interval::Interval> = Vec::new();
        let mut pending: Vec<IntervalOp> = Vec::new();
        let chunk = rng.gen_range(1..40usize);
        for op in flood {
            match op {
                FloodOp::Insert(iv) => {
                    pending.push(IntervalOp::Insert(iv));
                    live.push(iv);
                }
                FloodOp::Delete(iv) => {
                    // Ops in one batch must be independent: flush the
                    // pending batch if it inserts this victim.
                    let gone = oracle::remove_interval(&mut live, iv.id);
                    let clashes = pending.iter().any(|p| match p {
                        IntervalOp::Insert(x) => x.id == iv.id,
                        IntervalOp::Delete(_) => false,
                    });
                    if clashes {
                        idx.apply_batch(&pending);
                        pending.clear();
                    }
                    pending.push(IntervalOp::Delete(gone));
                }
                FloodOp::Stab(_) => {}
            }
            if pending.len() >= chunk {
                idx.apply_batch(&pending);
                pending.clear();
                let q = rng.gen_range(-1..range + 1);
                let w = rng.gen_range(0..40i64);
                oracle::assert_same_ids(
                    idx.intersecting(q, q + w),
                    oracle::intersecting_ids(&live, q, q + w),
                    &format!("b={b} tuning={tuning:?} q=[{q},{}]", q + w),
                );
            }
        }
        idx.apply_batch(&pending);
        assert_eq!(idx.len(), live.len());
        let q = rng.gen_range(-1..range + 1);
        oracle::assert_same_ids(
            idx.stabbing(q),
            oracle::stabbing_ids(&live, q),
            &format!("final b={b} q={q}"),
        );
    });
}

/// `RakeClassIndex::apply_batch` (grouped per heavy-path structure)
/// agrees with the range-tree strategy running the default one-at-a-time
/// implementation, and with the oracle.
#[test]
fn class_apply_batch_agrees_with_oracle() {
    check::trials("incremental_reorg::class_apply", 16, 0x1AC5, |rng| {
        let c = rng.gen_range(2..40usize);
        let parents = workloads::random_forest(rng, c);
        let h = ccix_class::Hierarchy::from_parents(&parents);
        let geo = Geometry::new(rng.gen_range(2usize..6));
        let attr_range = rng.gen_range(20i64..200);
        let flood = workloads::mixed_object_flood(
            &h,
            rng.gen_range(30..250usize),
            rng.next_u64(),
            attr_range,
            30,
            0,
        );
        let mut rake = RakeClassIndex::new(h.clone(), geo, IoCounter::new());
        let mut rt = RangeTreeClassIndex::new(h.clone(), geo, IoCounter::new());
        let mut live: Vec<ccix_class::Object> = Vec::new();
        let mut pending: Vec<ClassOp> = Vec::new();
        let chunk = rng.gen_range(1..24usize);
        for op in flood {
            match op {
                ObjectOp::Insert(o) => {
                    pending.push(ClassOp::Insert(o));
                    live.push(o);
                }
                ObjectOp::Delete(o) => {
                    let gone = oracle::remove_object(&mut live, o.id);
                    let clashes = pending.iter().any(|p| match p {
                        ClassOp::Insert(x) => x.id == o.id,
                        ClassOp::Delete(_) => false,
                    });
                    if clashes {
                        rake.apply_batch(&pending);
                        rt.apply_batch(&pending);
                        pending.clear();
                    }
                    pending.push(ClassOp::Delete(gone));
                }
                ObjectOp::Query(_, _, _) => {}
            }
            if pending.len() >= chunk {
                rake.apply_batch(&pending);
                rt.apply_batch(&pending);
                pending.clear();
                let class = rng.gen_range(0..h.len());
                let a1 = rng.gen_range(-1..attr_range);
                let a2 = a1 + rng.gen_range(0..attr_range / 2 + 1);
                let want = oracle::class_range_ids(&h, &live, class, a1, a2);
                oracle::assert_same_ids(
                    rake.query(class, a1, a2),
                    want.clone(),
                    &format!("rake class={class} q=[{a1},{a2}]"),
                );
                oracle::assert_same_ids(
                    rt.query(class, a1, a2),
                    want,
                    &format!("rangetree class={class} q=[{a1},{a2}]"),
                );
            }
        }
        rake.apply_batch(&pending);
        rt.apply_batch(&pending);
        assert_eq!(rake.len(), live.len());
    });
}
