//! Differential suite for the delete path (the paper's §5 open problem,
//! closed with tombstones).
//!
//! Five properties are pinned, the first four across random geometries and
//! tunings:
//!
//! * **oracle agreement under interleaving** — random insert/delete/query
//!   interleavings (`workloads::mixed_*_flood`) must agree with the
//!   delete-aware linear-scan oracle at every query, including queries
//!   issued while tombstone buffers and TD delete sides are partially
//!   full, and the structural validators must pass mid-flood;
//! * **the whole stack deletes** — `IntervalIndex`,
//!   `ThreeSidedTree` and every `ClassIndex` strategy agree with their
//!   oracles under the same interleavings;
//! * **amortised delete budget** — across windows of `10·B` deletes, an
//!   `IoProbe` keeps the delete flood within the same envelope the insert
//!   suite enforces (deletes ride the insert machinery, so their budget is
//!   the insert budget);
//! * **space stays bounded** — draining a tree to a fraction of its size
//!   triggers the occupancy shrink and space returns to `O(live/B)`;
//! * **the write path's exact bill** — one seeded flood through every write
//!   entry point, on both trees, with and without a reorg budget, ends at
//!   pinned page counts and answers.

use ccix_class::{
    ClassIndex, FullExtentBaseline, RakeClassIndex, RangeTreeClassIndex, SingleIndexBaseline,
};
use ccix_core::{MetablockTree, Op, ReorgCounts, Shape, ThreeSidedTree, Tree, Tuning};
use ccix_extmem::{Geometry, IoCounter, Point};
use ccix_interval::IndexBuilder;
use ccix_testkit::iocheck::IoProbe;
use ccix_testkit::workloads::{IntervalOp, ObjectOp, PointOp};
use ccix_testkit::{check, oracle, workloads, DetRng};

/// A tuning drawn from the corners of the knob space, including the
/// delete-side knobs (tombstone batching, shrink trigger).
fn random_tuning(rng: &mut DetRng) -> Tuning {
    match rng.gen_range(0..4u32) {
        0 => Tuning::paper(),
        1 => Tuning::default(),
        2 => Tuning {
            update_batch_pages: rng.gen_range(1..9usize),
            td_batch_pages: rng.gen_range(1..5usize),
            tomb_batch_pages: rng.gen_range(1..5usize),
            shrink_deletes_pct: *rng.choose(&[0usize, 25, 50, 100]).expect("nonempty"),
            ts_snapshot_pages: None,
            corner_alpha: rng.gen_range(2..5usize),
            pack_h_pages: rng.gen_range(0..9usize),
            resident_root: rng.gen_bool(0.5),
            reorg_pages_per_op: *rng.choose(&[0usize, 0, 1, 4]).expect("nonempty"),
        },
        _ => Tuning {
            update_batch_pages: 8,
            td_batch_pages: 4,
            tomb_batch_pages: rng.gen_range(1..9usize),
            shrink_deletes_pct: *rng.choose(&[0usize, 50]).expect("nonempty"),
            ts_snapshot_pages: Some(rng.gen_range(1..9usize)),
            corner_alpha: 2,
            pack_h_pages: rng.gen_range(0..5usize),
            resident_root: rng.gen_bool(0.5),
            reorg_pages_per_op: *rng.choose(&[0usize, 0, 2]).expect("nonempty"),
        },
    }
}

/// Interval index vs the delete-aware oracle under random interleavings,
/// random tunings, queries mid-buffer.
#[test]
fn interval_index_mixed_flood_agrees_with_oracle() {
    check::trials("deletions::interval_mixed", 40, 0xDE1E, |rng| {
        let b = rng.gen_range(2usize..9);
        let geo = Geometry::new(b);
        let tuning = random_tuning(rng);
        let range = rng.gen_range(30i64..500);
        let n_ops = rng.gen_range(10..700usize);
        let del_pct = rng.gen_range(10..45u32);
        let ops = workloads::mixed_interval_flood(
            n_ops,
            rng.next_u64(),
            range,
            range / 3 + 1,
            del_pct,
            15,
        );
        let mut idx = IndexBuilder::new(geo).tuning(tuning).open(IoCounter::new());
        let mut live = Vec::new();
        for op in ops {
            match op {
                IntervalOp::Insert(iv) => {
                    idx.insert(iv.lo, iv.hi, iv.id);
                    live.push(iv);
                }
                IntervalOp::Delete(iv) => {
                    let gone = oracle::remove_interval(&mut live, iv.id);
                    idx.delete(gone.lo, gone.hi, gone.id);
                }
                IntervalOp::Stab(q) => {
                    oracle::assert_same_ids(
                        idx.stabbing(q),
                        oracle::stabbing_ids(&live, q),
                        &format!("b={b} tuning={tuning:?} stab({q})"),
                    );
                    let w = rng.gen_range(0i64..40);
                    oracle::assert_same_ids(
                        idx.intersecting(q, q + w),
                        oracle::intersecting_ids(&live, q, q + w),
                        &format!("b={b} tuning={tuning:?} intersect({q},{})", q + w),
                    );
                }
            }
            assert_eq!(idx.len(), live.len());
        }
        // Batched deletes of whatever remains, chunked, vs batched reads.
        while !live.is_empty() {
            let take = rng.gen_range(1..live.len() + 1).min(live.len());
            let chunk: Vec<(i64, i64, u64)> =
                live.drain(..take).map(|iv| (iv.lo, iv.hi, iv.id)).collect();
            idx.delete_batch(&chunk);
            let qs = workloads::uniform_flood(8, rng.next_u64(), range);
            for (q, got) in qs.iter().zip(idx.stab_batch(&qs)) {
                oracle::assert_same_ids(
                    got,
                    oracle::stabbing_ids(&live, *q),
                    &format!("b={b} drained stab_batch({q})"),
                );
            }
        }
        assert!(idx.is_empty());
    });
}

/// Diagonal metablock tree under mixed floods: oracle agreement plus the
/// full structural validator at every delete-heavy checkpoint.
#[test]
fn metablock_tree_mixed_flood_validates() {
    check::trials("deletions::diag_mixed", 32, 0xDE1F, |rng| {
        let b = rng.gen_range(2usize..9);
        let geo = Geometry::new(b);
        let tuning = random_tuning(rng);
        let range = rng.gen_range(30i64..400);
        let ops = workloads::mixed_interval_flood(
            rng.gen_range(10..600usize),
            rng.next_u64(),
            range,
            range / 2 + 1,
            rng.gen_range(15..50u32),
            10,
        );
        let mut tree = MetablockTree::new_tuned(geo, IoCounter::new(), Default::default(), tuning);
        let mut live: Vec<Point> = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                IntervalOp::Insert(iv) => {
                    tree.insert(Point::new(iv.lo, iv.hi, iv.id));
                    live.push(Point::new(iv.lo, iv.hi, iv.id));
                }
                IntervalOp::Delete(iv) => {
                    let gone = oracle::remove_point(&mut live, iv.id);
                    tree.delete(gone);
                }
                IntervalOp::Stab(q) => {
                    oracle::assert_same_points(
                        tree.query(q),
                        oracle::diagonal_corner(&live, q),
                        &format!("b={b} tuning={tuning:?} q={q}"),
                    );
                }
            }
            if i % 97 == 0 {
                tree.validate_unbilled();
            }
        }
        tree.validate_unbilled();
        assert_eq!(tree.len(), live.len());
    });
}

/// 3-sided tree under mixed point floods: oracle agreement, validator,
/// batch-vs-serial delete equivalence.
#[test]
fn threesided_tree_mixed_flood_validates() {
    check::trials("deletions::threesided_mixed", 32, 0xDE20, |rng| {
        let b = rng.gen_range(2usize..9);
        let geo = Geometry::new(b);
        let tuning = random_tuning(rng);
        let range = rng.gen_range(30i64..400);
        let ops = workloads::mixed_point_flood(
            rng.gen_range(10..600usize),
            rng.next_u64(),
            range,
            rng.gen_range(15..50u32),
            10,
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
            if i % 97 == 0 {
                tree.validate_unbilled();
            }
        }
        // Drain by batch, then the tree must be logically empty.
        tree.delete_batch(&live);
        tree.validate_unbilled();
        assert_eq!(tree.len(), 0);
        assert!(tree.query(i64::MIN, i64::MAX, i64::MIN).is_empty());
    });
}

/// Every class-index strategy honours deletes and keeps agreeing with the
/// delete-aware full-extent oracle (and with each other).
#[test]
fn class_strategies_mixed_flood_agree() {
    check::trials("deletions::class_mixed", 24, 0xDE21, |rng| {
        let b = rng.gen_range(2usize..9);
        let geo = Geometry::new(b);
        let parents = workloads::random_forest(rng, 20);
        let h = ccix_class::Hierarchy::from_parents(&parents);
        let ops = workloads::mixed_object_flood(
            &h,
            rng.gen_range(10..400usize),
            rng.next_u64(),
            rng.gen_range(20i64..300),
            rng.gen_range(15..45u32),
            15,
        );
        let mut strategies: Vec<Box<dyn ClassIndex>> = vec![
            Box::new(SingleIndexBaseline::new(h.clone(), geo, IoCounter::new())),
            Box::new(FullExtentBaseline::new(h.clone(), geo, IoCounter::new())),
            Box::new(RangeTreeClassIndex::new(h.clone(), geo, IoCounter::new())),
            Box::new(RakeClassIndex::new(h.clone(), geo, IoCounter::new())),
        ];
        let mut live = Vec::new();
        for op in ops {
            match op {
                ObjectOp::Insert(o) => {
                    for s in &mut strategies {
                        s.insert(o);
                    }
                    live.push(o);
                }
                ObjectOp::Delete(o) => {
                    let gone = oracle::remove_object(&mut live, o.id);
                    for s in &mut strategies {
                        s.delete(gone);
                    }
                }
                ObjectOp::Query(class, a1, a2) => {
                    let want = oracle::class_range_ids(&h, &live, class, a1, a2);
                    for s in &strategies {
                        oracle::assert_same_ids(
                            s.query(class, a1, a2),
                            want.clone(),
                            &format!("b={b} {} query({class},{a1},{a2})", s.name()),
                        );
                    }
                }
            }
        }
        // Batched drain through the trait, then everything must be empty.
        for s in &mut strategies {
            s.delete_batch(&live);
            for class in 0..h.len() {
                assert!(
                    s.query(class, i64::MIN, i64::MAX).is_empty(),
                    "{} still answers after drain",
                    s.name()
                );
            }
        }
    });
}

/// Amortised delete budget: across every window of `10·B` deletes, a
/// delete flood stays within the same envelope the insert suite enforces
/// (`batched_insert::amortised_insert_cost_within_bound`) — deletes ride
/// the insert machinery, so their budget is the insert budget. The shrink
/// rebuild (`O(n/B)` once per `Θ(n)` deletes) gets the same one-spike
/// allowance the insert windows give reorganisation cascades.
#[test]
fn amortised_delete_cost_within_insert_budget() {
    for &b in &[8usize, 16, 32] {
        let geo = Geometry::new(b);
        let n = 6_000 * b / 8;
        let counter = IoCounter::new();
        let mut tree = MetablockTree::new(geo, counter.clone());
        let mut rng = DetRng::new(0xDE_0000 + b as u64);
        let mut live: Vec<Point> = Vec::new();
        for i in 0..n {
            let lo = rng.gen_range(0..(4 * n) as i64);
            let p = Point::new(lo, lo + rng.gen_range(0..1_000i64), i as u64);
            tree.insert(p);
            live.push(p);
        }
        let window = 10 * b;
        let logb = geo.log_b(n) as f64;
        let per_delete_budget = 6.0 * (logb + logb * logb / b as f64) + 12.0;
        // One spike allowance per window: a TS reorganisation re-snapshots
        // a whole level (Θ(B²) I/Os, amortised over Θ(B²) updates) and the
        // occupancy shrink statically rebuilds O(n/B) pages once per
        // Θ(n) deletes.
        let spike = 4 * b * b * geo.log_b(n) + 14 * n / b + 64;
        let mut deleted = 0usize;
        while deleted + window <= live.len() {
            let window_budget = (per_delete_budget * window as f64).ceil() as u64 + spike as u64;
            let probe = IoProbe::start(&counter, format!("b={b} delete window at {deleted}"));
            for _ in 0..window {
                let idx = rng.gen_range(0..live.len());
                let victim = live.swap_remove(idx);
                tree.delete(victim);
                deleted += 1;
            }
            probe.finish_within(window_budget);
        }
        tree.validate_unbilled();
        assert_eq!(tree.len(), live.len());
    }
}

/// Batched deletes agree with serial deletes and share the descent: on a
/// correlated flood, the batch costs no more I/Os than deleting one at a
/// time (it shares every pinned prefix the serial path re-reads).
#[test]
fn delete_batch_shares_the_descent() {
    let b = 16usize;
    let geo = Geometry::new(b);
    let n = 8_000usize;
    let mk = |counter: &IoCounter| {
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let x = ((i * 37) % 20_000) as i64;
                Point::new(x, x + ((i * 13) % 500) as i64, i as u64)
            })
            .collect();
        MetablockTree::build(geo, counter.clone(), pts)
    };
    // A correlated victim flood: one tight x-window.
    let victims: Vec<Point> = (0..n)
        .filter(|i| ((i * 37) % 20_000) < 600)
        .map(|i| {
            let x = ((i * 37) % 20_000) as i64;
            Point::new(x, x + ((i * 13) % 500) as i64, i as u64)
        })
        .collect();
    assert!(victims.len() > 64, "flood is non-trivial");

    let serial_counter = IoCounter::new();
    let mut serial = mk(&serial_counter);
    let before = serial_counter.snapshot();
    for p in &victims {
        serial.delete(*p);
    }
    let serial_cost = serial_counter.since(before).total();

    let batch_counter = IoCounter::new();
    let mut batched = mk(&batch_counter);
    let before = batch_counter.snapshot();
    batched.delete_batch(&victims);
    let batch_cost = batch_counter.since(before).total();

    assert!(
        batch_cost <= serial_cost,
        "batched deletes cost {batch_cost} I/Os, serial {serial_cost}"
    );
    // Both end in the same logical state.
    serial.validate_unbilled();
    batched.validate_unbilled();
    assert_eq!(serial.len(), batched.len());
    let mut a = serial.query(300);
    let mut c = batched.query(300);
    a.sort_unstable_by_key(|p| p.id);
    c.sort_unstable_by_key(|p| p.id);
    assert_eq!(a, c);
}

/// Space under delete floods: draining a bulk-built tree to 10% occupancy
/// must shrink it back to `O(live/B)` pages (the occupancy-triggered
/// merge-based rebuild), on both trees.
#[test]
fn shrink_bounds_space_under_delete_floods() {
    let geo = Geometry::new(16);
    let n = 30_000usize;

    let pts: Vec<Point> = (0..n)
        .map(|i| {
            let x = ((i * 37) % 9_000) as i64;
            Point::new(x, x + ((i * 13) % 700) as i64, i as u64)
        })
        .collect();
    let mut diag = MetablockTree::build(geo, IoCounter::new(), pts.clone());
    let full = diag.space_pages();
    diag.delete_batch(&pts[..9 * n / 10]);
    diag.validate_unbilled();
    let drained = diag.space_pages();
    assert!(
        drained * 4 < full,
        "diag shrink failed: {full} -> {drained} pages at 10% occupancy"
    );

    let pts3: Vec<Point> = (0..n)
        .map(|i| Point::new(((i * 37) % 9_000) as i64, ((i * 13) % 700) as i64, i as u64))
        .collect();
    let mut ts = ThreeSidedTree::build(geo, IoCounter::new(), pts3.clone());
    let full = ts.space_pages();
    ts.delete_batch(&pts3[..9 * n / 10]);
    ts.validate_unbilled();
    let drained = ts.space_pages();
    assert!(
        drained * 4 < full,
        "3-sided shrink failed: {full} -> {drained} pages at 10% occupancy"
    );
}

/// Seeded flood through every write entry point — single inserts and
/// deletes, `delete_batch`, `apply_batch` — then a drain that trips the
/// occupancy shrink, with writes still arriving while it runs, and a
/// flush of the deferred work. Deletes only ever name points of earlier
/// rounds, so every batch is independent. Returns whether a shrink job was
/// seen in flight.
fn pinned_flood<S: Shape>(tree: &mut Tree<S>, seed: u64) -> bool {
    let mut rng = DetRng::new(seed);
    let mut next = 0u64;
    let mut fresh = |rng: &mut DetRng| {
        let x = rng.gen_range(0..2_000i64);
        next += 1;
        Point::new(x, x + rng.gen_range(0..400i64), next)
    };
    let (mut live, mut saw_job) = (Vec::new(), false);
    for round in 0..80 {
        let ins: Vec<Point> = (0..40).map(|_| fresh(&mut rng)).collect();
        let dels: Vec<Point> = (0..4.min(live.len()))
            .map(|_| live.swap_remove(rng.gen_range(0..live.len())))
            .collect();
        match round % 3 {
            0 => {
                ins.iter().for_each(|&p| tree.insert(p));
                dels.iter().for_each(|&p| tree.delete(p));
            }
            1 => {
                ins.iter().for_each(|&p| tree.insert(p));
                tree.delete_batch(&dels);
            }
            _ => {
                let mut ops: Vec<Op> = ins.iter().map(|&p| Op::Insert(p)).collect();
                ops.extend(dels.iter().map(|&p| Op::Delete(p)));
                tree.apply_batch(&ops);
            }
        }
        live.extend(ins);
        saw_job |= tree.reorg_in_progress();
    }
    // Drain ≈ 70 %, in batches and singles, with inserts in between.
    for round in 0..44 {
        let dels: Vec<Point> = (0..50)
            .map(|_| live.swap_remove(rng.gen_range(0..live.len())))
            .collect();
        if round % 2 == 0 {
            tree.delete_batch(&dels);
        } else {
            dels.iter().for_each(|&p| tree.delete(p));
        }
        let ins: Vec<Point> = (0..5).map(|_| fresh(&mut rng)).collect();
        ins.iter().for_each(|&p| tree.insert(p));
        live.extend(ins);
        saw_job |= tree.reorg_in_progress();
    }
    tree.flush_reorgs();
    saw_job
}

/// The write path's exact bill on both trees, pinned before their write
/// paths became one generic skeleton: reads, writes, space, pending
/// tombstones and the answers of a fixed query batch after
/// [`pinned_flood`], at `B = 4` with one-page buffers so that every kind
/// of reorganisation fires — which the test asserts, along with a shrink
/// running as a background job when the reorg budget is 4.
#[test]
fn write_path_bills_are_pinned_on_both_trees() {
    // (3-sided?, reorg budget) → reads, writes, space pages, pending
    // deletes, answer digest; measured at commit 2c8dfe3.
    const PINNED: [(bool, usize, u64, u64, usize, usize, u64); 4] = [
        (false, 0, 59_006, 65_197, 974, 117, 0xC3AC_EEF7_AF5E_EE38),
        (false, 4, 59_834, 63_767, 1_708, 317, 0xB28E_EDEE_7A83_A339),
        (true, 0, 61_068, 95_676, 1_948, 117, 0xBF6F_5679_9DC3_48B0),
        (true, 4, 61_708, 90_358, 2_967, 317, 0xEEB6_B1D2_FFDF_7A57),
    ];
    for (three_sided, k, reads, writes, pages, pending, want_digest) in PINNED {
        let tuning = Tuning {
            update_batch_pages: 1,
            td_batch_pages: 1,
            tomb_batch_pages: 1,
            shrink_deletes_pct: 40,
            ts_snapshot_pages: Some(2),
            corner_alpha: 2,
            pack_h_pages: 2,
            resident_root: true,
            reorg_pages_per_op: k,
        };
        let (geo, counter, seed) = (Geometry::new(4), IoCounter::new(), 0x9177_0000 + k as u64);
        let ctx = format!("3-sided={three_sided} k={k}");
        let (saw_job, fired, bill, answers) = if three_sided {
            let mut tree = ThreeSidedTree::new_tuned(geo, counter.clone(), tuning);
            let saw_job = pinned_flood(&mut tree, seed);
            tree.validate_unbilled();
            let bill = (
                counter.reads(),
                counter.writes(),
                tree.space_pages(),
                tree.pending_deletes(),
            );
            let qs: Vec<_> = (0..40).map(|i| (60 * i, 60 * i + 300, 7 * i)).collect();
            (saw_job, tree.reorgs_fired(), bill, tree.query_batch(&qs))
        } else {
            let mut tree =
                MetablockTree::new_tuned(geo, counter.clone(), Default::default(), tuning);
            let saw_job = pinned_flood(&mut tree, seed);
            tree.validate_unbilled();
            let bill = (
                counter.reads(),
                counter.writes(),
                tree.space_pages(),
                tree.pending_deletes(),
            );
            let qs: Vec<_> = (0..40).map(|i| 60 * i).collect();
            (saw_job, tree.reorgs_fired(), bill, tree.query_batch(&qs))
        };
        assert_eq!(saw_job, k > 0, "{ctx}: shrink ran as a background job");
        let ReorgCounts {
            level_i,
            td_folds,
            ts_reorgs,
            push_downs,
            leaf_splits,
            branching_splits,
            shrinks,
        } = fired;
        for (kind, n) in [
            ("level-I", level_i),
            ("TD fold", td_folds),
            ("TS reorganisation", ts_reorgs),
            ("push-down", push_downs),
            ("leaf split", leaf_splits),
            ("branching split", branching_splits),
            ("shrink", shrinks),
        ] {
            assert!(n > 0, "{ctx}: no {kind} fired ({fired:?})");
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        };
        for out in &answers {
            eat(out.len() as u64);
            for p in out {
                eat(p.x as u64);
                eat(p.y as u64);
                eat(p.id);
            }
        }
        assert_eq!(
            (bill, h),
            ((reads, writes, pages, pending), want_digest),
            "{ctx}"
        );
    }
}
