//! Differential suite for the x-range sharded interval index.
//!
//! The routing directory must be **transparent**: for every shard count,
//! split choice (quantile, random, hot-shard adversarial) and thread
//! budget, a sharded index must answer exactly like the unsharded index
//! and the linear-scan oracle over the same live set. On top of
//! agreement, the suite pins the properties the fan-out design claims:
//! thread-count invariance of both results *and* aggregate I/O (the
//! budget only moves shard work between threads), bounded aggregate I/O
//! relative to the unsharded baseline (the documented routing overhead),
//! and silence of cold shards under hot-shard traffic (the directory
//! never consults a shard whose x-range cannot contribute).

use ccix_core::Tuning;
use ccix_extmem::Geometry;
use ccix_interval::{
    split_points_from_sample, IndexBuilder, Interval, IntervalOp, ShardedIntervalIndex,
    FAN_OUT_MIN_OPS,
};
use ccix_testkit::iocheck::IoProbe;
use ccix_testkit::{check, oracle, workloads, DetRng};

/// A split vector from one of the three regimes the routing directory has
/// to survive: data-quantile splits, arbitrary random splits (possibly
/// badly unbalanced), and the hot-shard adversarial partition.
fn random_splits(rng: &mut DetRng, sample: &[i64], range: i64, shards: usize) -> Vec<i64> {
    match rng.gen_range(0..3u32) {
        0 => split_points_from_sample(sample, shards),
        1 => {
            let mut s: Vec<i64> = (0..shards - 1)
                .map(|_| rng.gen_range(1..range.max(2)))
                .collect();
            s.sort_unstable();
            s.dedup();
            s
        }
        _ => workloads::hot_shard_splits(shards, range.max(shards as i64 + 2), 0),
    }
}

/// Convert a testkit mixed flood into engine ops plus interleaved query
/// points, maintaining the oracle's live set alongside.
fn op_of(op: &workloads::IntervalOp) -> Option<IntervalOp> {
    match *op {
        workloads::IntervalOp::Insert(iv) => Some(IntervalOp::Insert(iv)),
        workloads::IntervalOp::Delete(iv) => Some(IntervalOp::Delete(iv)),
        workloads::IntervalOp::Stab(_) => None,
    }
}

/// Sharded vs unsharded vs oracle over mixed insert/delete floods with
/// interleaved stabbing/intersection/x-range queries, across random shard
/// counts, split regimes and thread budgets.
#[test]
fn sharded_agrees_with_unsharded_and_oracle() {
    check::trials("sharded::agreement", 40, 0x5AAD, |rng| {
        let b = rng.gen_range(2usize..9);
        let geo = Geometry::new(b);
        let range = rng.gen_range(40i64..800);
        let shards = rng.gen_range(1usize..6);
        let n0 = rng.gen_range(0..300usize);
        // Base ids live above the flood's 0-based fresh ids.
        let base: Vec<Interval> =
            workloads::uniform_intervals(n0, rng.next_u64(), range, range / 2 + 1)
                .into_iter()
                .map(|iv| Interval::new(iv.lo, iv.hi, 1_000_000 + iv.id))
                .collect();
        let sample: Vec<i64> = base.iter().map(|iv| iv.lo).collect();
        let splits = random_splits(rng, &sample, range, shards);
        let tuning = Tuning {
            shard_threads: rng.gen_range(1usize..5),
            ..Tuning::default()
        };

        let builder = IndexBuilder::new(geo).tuning(tuning);
        let mut sharded = builder.clone().sharded().splits(splits).bulk(&base);
        let mut plain = builder.bulk(ccix_extmem::IoCounter::new(), &base);
        let mut live: Vec<Interval> = base.clone();

        let flood = workloads::mixed_interval_flood(
            rng.gen_range(1..400usize),
            rng.next_u64(),
            range,
            range / 2 + 1,
            25,
            25,
        );
        let mut batch: Vec<IntervalOp> = Vec::new();
        for op in &flood {
            if let Some(eop) = op_of(op) {
                match eop {
                    IntervalOp::Insert(iv) => live.push(iv),
                    IntervalOp::Delete(iv) => {
                        oracle::remove_interval(&mut live, iv.id);
                    }
                }
                batch.push(eop);
                continue;
            }
            // A stab marks a sync point: apply the pending batch to both
            // engines, then cross-check all three query families.
            sharded.apply_batch(&batch);
            plain.apply_batch(&batch);
            batch.clear();
            let workloads::IntervalOp::Stab(q) = *op else {
                unreachable!("non-stab handled above");
            };
            oracle::assert_same_ids(
                sharded.stabbing(q),
                oracle::stabbing_ids(&live, q),
                "sharded stabbing vs oracle",
            );
            oracle::assert_same_ids(sharded.stabbing(q), plain.stabbing(q), "stabbing vs plain");
            let q2 = q + rng.gen_range(0..range / 2 + 1);
            oracle::assert_same_ids(
                sharded.intersecting(q, q2),
                oracle::intersecting_ids(&live, q, q2),
                "sharded intersecting vs oracle",
            );
            let mut got: Vec<u64> = sharded.left_range(q, q2).iter().map(|iv| iv.id).collect();
            let mut want: Vec<u64> = plain.left_range(q, q2).iter().map(|iv| iv.id).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "left_range vs plain");
        }
        sharded.apply_batch(&batch);
        plain.apply_batch(&batch);
        assert_eq!(sharded.len(), plain.len(), "live count");

        // Batched queries against per-query answers, across every shard.
        let qs = workloads::uniform_flood(64, rng.next_u64(), range);
        let batched = sharded.stab_batch(&qs);
        for (q, ids) in qs.iter().zip(batched) {
            oracle::assert_same_ids(ids, oracle::stabbing_ids(&live, *q), "stab_batch vs oracle");
        }
    });
}

/// The thread budget must be invisible: identical results *and* identical
/// aggregate I/O for every shard-thread count, including the sequential
/// fallback.
#[test]
fn thread_budget_never_changes_results_or_io() {
    check::trials("sharded::thread_invariance", 24, 0x5AAD2, |rng| {
        let geo = Geometry::new(rng.gen_range(2usize..9));
        let range = rng.gen_range(60i64..600);
        let shards = rng.gen_range(2usize..6);
        let n = rng.gen_range(50..400usize);
        let base = workloads::uniform_intervals(n, rng.next_u64(), range, range / 3 + 1);
        let sample: Vec<i64> = base.iter().map(|iv| iv.lo).collect();
        let splits = split_points_from_sample(&sample, shards);
        let flood = workloads::zipf_shard_intervals(
            rng.gen_range(1..200usize),
            rng.next_u64(),
            &splits,
            range,
            range / 3 + 1,
            1.2,
        );
        let ops: Vec<IntervalOp> = flood
            .iter()
            .map(|iv| IntervalOp::Insert(Interval::new(iv.lo, iv.hi, n as u64 + iv.id)))
            .collect();
        let qs = workloads::zipf_shard_flood(96, rng.next_u64(), &splits, range, 1.2);

        let run = |threads: usize| {
            let tuning = Tuning {
                shard_threads: threads,
                ..Tuning::default()
            };
            let mut idx = IndexBuilder::new(geo)
                .tuning(tuning)
                .sharded()
                .splits(splits.clone())
                .bulk(&base);
            idx.apply_batch(&ops);
            let answers = idx.stab_batch(&qs);
            (answers, idx.io_totals())
        };
        let (a1, io1) = run(1);
        for threads in [2usize, 4, 7] {
            let (at, iot) = run(threads);
            assert_eq!(a1, at, "results differ at {threads} shard threads");
            assert_eq!(
                (io1.reads, io1.writes),
                (iot.reads, iot.writes),
                "aggregate I/O differs at {threads} shard threads"
            );
        }
    });
}

/// The write path fans out only from [`FAN_OUT_MIN_OPS`] routed operations
/// up and runs inline below. Which side of the constant a write falls on
/// must be invisible: just below, at and above it, on 1, 2 and 4 shards,
/// through every write entry point, a fanning index ends up with the ids,
/// the per-shard I/O bills and the page images, byte for byte, of the
/// always-sequential `shard_threads = 1`.
#[test]
fn writes_below_at_and_above_the_fan_out_constant_match_sequential() {
    check::trials("sharded::fan_out_constant", 3, 0x5AAD5, |rng| {
        let geo = Geometry::new(rng.gen_range(4usize..9));
        let reorg_pages_per_op = [0usize, 4][rng.gen_range(0usize..2)];
        let range = 4_000i64;
        let n = 3 * FAN_OUT_MIN_OPS + 200;
        let base = workloads::uniform_intervals(n, rng.next_u64(), range, 300);
        let sample: Vec<i64> = base.iter().map(|iv| iv.lo).collect();
        let fresh =
            workloads::uniform_intervals(2 * FAN_OUT_MIN_OPS + 2, rng.next_u64(), range, 300);
        for shards in [1usize, 2, 4] {
            for size in [FAN_OUT_MIN_OPS - 1, FAN_OUT_MIN_OPS, FAN_OUT_MIN_OPS + 1] {
                // Three independent write floods of `size` ops each: a mixed
                // one, a group commit of three submissions, and a delete
                // batch. Deletes take distinct base intervals, inserts
                // distinct fresh ones.
                let mut victims = base.iter().copied();
                let mut arrivals = fresh
                    .iter()
                    .map(|iv| Interval::new(iv.lo, iv.hi, n as u64 + iv.id));
                let mut mixed = |len: usize| -> Vec<IntervalOp> {
                    (0..len)
                        .map(|i| match i % 3 {
                            0 => IntervalOp::Delete(victims.next().expect("base interval")),
                            _ => IntervalOp::Insert(arrivals.next().expect("fresh interval")),
                        })
                        .collect()
                };
                let flood = mixed(size);
                let group: Vec<Vec<IntervalOp>> = [size / 3, size / 3, size - 2 * (size / 3)]
                    .into_iter()
                    .map(&mut mixed)
                    .collect();
                let doomed: Vec<(i64, i64, u64)> =
                    victims.take(size).map(|iv| (iv.lo, iv.hi, iv.id)).collect();
                let qs = workloads::uniform_flood(64, rng.next_u64(), range);

                let run = |threads: usize| -> ShardedIntervalIndex {
                    let tuning = Tuning {
                        shard_threads: threads,
                        reorg_pages_per_op,
                        ..Tuning::default()
                    };
                    let mut idx = IndexBuilder::new(geo)
                        .tuning(tuning)
                        .sharded()
                        .splits_from_sample(&sample, shards)
                        .bulk(&base);
                    idx.apply_batch(&flood);
                    idx.apply_submissions(&group, 4);
                    idx.delete_batch(&doomed);
                    idx.pump_reorg(8);
                    idx.pump_reorg(FAN_OUT_MIN_OPS);
                    idx
                };
                let (sequential, fanned) = (run(1), run(4));
                let context = format!("{shards} shards, {size} ops");
                assert_eq!(
                    sequential.stab_batch(&qs),
                    fanned.stab_batch(&qs),
                    "ids ({context})"
                );
                assert_eq!(sequential.len(), fanned.len(), "len ({context})");
                for (s, (a, b)) in sequential.shards().iter().zip(fanned.shards()).enumerate() {
                    assert_eq!(
                        a.counter().snapshot(),
                        b.counter().snapshot(),
                        "I/O bill of shard {s} ({context})"
                    );
                    assert!(
                        a.model_page_images() == b.model_page_images(),
                        "page images of shard {s} ({context})"
                    );
                    b.validate_unbilled();
                }
            }
        }
    });
}

/// Aggregate sharded I/O stays within a constant envelope of the
/// unsharded index on the same flood — the routing overhead (shorter
/// descents per shard, but one partial descent per overlapping shard)
/// must not grow with n.
#[test]
fn aggregate_io_bounded_vs_unsharded() {
    check::trials("sharded::io_envelope", 12, 0x5AAD3, |rng| {
        let b = rng.gen_range(4usize..9);
        let geo = Geometry::new(b);
        let range = 4_000i64;
        let n = rng.gen_range(500..2_000usize);
        let shards = rng.gen_range(2usize..6);
        let base = workloads::uniform_intervals(n, rng.next_u64(), range, 300);
        let sample: Vec<i64> = base.iter().map(|iv| iv.lo).collect();
        let splits = split_points_from_sample(&sample, shards);
        let tuning = Tuning {
            shard_threads: 1,
            ..Tuning::default()
        };
        let builder = IndexBuilder::new(geo).tuning(tuning);
        let sharded = builder.clone().sharded().splits(splits).bulk(&base);
        let plain_counter = ccix_extmem::IoCounter::new();
        let plain = builder.bulk(plain_counter.clone(), &base);

        let qs = workloads::uniform_flood(256, rng.next_u64(), range);
        let before = sharded.io_totals();
        let probe = IoProbe::start(plain.counter(), "unsharded stab flood");
        let mut want = plain.stab_batch(&qs);
        let plain_io = probe.finish().total();
        let mut got = sharded.stab_batch(&qs);
        let shard_io = before.delta(sharded.io_totals()).total();
        // Answer sets agree; within-query order is shard-gather order vs
        // single-tree traversal order, so compare sorted.
        for v in got.iter_mut().chain(want.iter_mut()) {
            v.sort_unstable();
        }
        assert_eq!(got, want, "flood answers agree");
        // Each query may touch every overlapping shard's top levels, but
        // per-shard trees are shallower; 2× the unsharded flood plus a
        // per-shard descent's worth of slack is a loose constant envelope.
        let slack = (shards as u64) * 8 * qs.len() as u64 / 4;
        assert!(
            shard_io <= 2 * plain_io + slack,
            "sharded flood I/O {shard_io} exceeds envelope (unsharded {plain_io}, slack {slack})"
        );
    });
}

/// Hot-shard adversarial traffic: when every op and query lands in one
/// shard's x-range, the cold shards' counters must stay silent — the
/// directory never fans out to a shard that cannot contribute.
#[test]
fn cold_shards_stay_untouched_under_hot_traffic() {
    check::trials("sharded::cold_silence", 16, 0x5AAD4, |rng| {
        let geo = Geometry::new(rng.gen_range(2usize..9));
        let shards = rng.gen_range(2usize..7);
        let range = 1_000i64;
        let hot = rng.gen_range(0..shards);
        let splits = workloads::hot_shard_splits(shards, range, hot);
        // The hot shard's x-range, shrunk by one so lengths never cross
        // into the right slivers and every op stays hot-shard-local.
        let hot_lo = if hot == 0 { 0 } else { hot as i64 + 1 };
        let hot_hi = if hot == shards - 1 {
            range
        } else {
            range - (shards - 1 - hot) as i64
        };
        let mut idx = IndexBuilder::new(geo)
            .tuning(Tuning {
                shard_threads: rng.gen_range(1usize..4),
                ..Tuning::default()
            })
            .sharded()
            .splits(splits)
            .open();
        let n = rng.gen_range(1..300usize);
        let ops: Vec<IntervalOp> = (0..n)
            .map(|i| {
                let lo = rng.gen_range(hot_lo..hot_hi);
                let hi = rng.gen_range(lo..hot_hi);
                IntervalOp::Insert(Interval::new(lo, hi, i as u64))
            })
            .collect();
        idx.apply_batch(&ops);
        let cold_before: Vec<u64> = idx
            .shards()
            .iter()
            .map(|s| s.counter().snapshot().total())
            .collect();
        // Hot-only stabbing flood, batched and single.
        for _ in 0..32 {
            let q = rng.gen_range(hot_lo..hot_hi);
            std::hint::black_box(idx.stabbing(q));
        }
        let qs: Vec<i64> = (0..64).map(|_| rng.gen_range(hot_lo..hot_hi)).collect();
        std::hint::black_box(idx.stab_batch(&qs));
        for (s, (shard, before)) in idx.shards().iter().zip(&cold_before).enumerate() {
            if s != hot {
                assert_eq!(
                    shard.counter().snapshot().total(),
                    *before,
                    "cold shard {s} of {shards} (hot {hot}) was touched by hot-only queries"
                );
            }
        }
        // And the whole flood really lives in the hot shard.
        assert_eq!(idx.shards()[hot].len(), n, "all ops routed to hot shard");
    });
}
