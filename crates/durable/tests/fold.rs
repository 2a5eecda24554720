//! Recovery builds, it does not replay: at every commit prefix of a
//! `workloads::commit_plan`, *fold-then-build content == replay content ==
//! oracle state* — with the checkpoint taken at every earlier prefix, so
//! the WAL suffix deletes checkpoint ids, deletes its own inserts, or is
//! empty — on every rebuild surface (unsharded, sharded at recorded
//! splits, file-backed, no checkpoint + fallback), and twice over for
//! determinism. Every shard recovery builds is page for page the static
//! build of the oracle's content on that shard.

use ccix_durable::{
    Checkpoint, CommitRecord, DurabilityConfig, DurableStore, Meta, Recovered, RecoveryReport,
    TempDir,
};
use ccix_extmem::{BackendSpec, FileConfig, Geometry, IoCounter};
use ccix_interval::{IndexBuilder, Interval, IntervalIndex, IntervalOp, IntervalOptions};
use ccix_testkit::workloads::{self, CommitPlan, CommitPlanSpec};
use ccix_testkit::{check, oracle, DetRng};

const LO_RANGE: i64 = 400;

fn random_plan(rng: &mut DetRng, initial: usize) -> CommitPlan {
    let spec = CommitPlanSpec {
        initial,
        batches: rng.gen_range(1..7usize),
        batch_ops: rng.gen_range(1..20usize),
        delete_prob: 0.45,
        lo_range: LO_RANGE,
        max_len: 60,
    };
    workloads::commit_plan(rng, spec)
}

fn meta(rng: &mut DetRng) -> Meta {
    Meta::new(
        Geometry::new(rng.gen_range(2usize..9)),
        IntervalOptions::default(),
    )
}

/// The recovery state of a crash after `upto` batches whose last checkpoint
/// covered the first `ckpt_at` (`None`: the directory never had one).
fn recovered(
    plan: &CommitPlan,
    meta: Meta,
    splits: &[i64],
    ckpt_at: Option<usize>,
    upto: usize,
) -> Recovered {
    let batch_ops = plan.batches[0].len() as u64;
    let from = ckpt_at.unwrap_or(0);
    Recovered {
        checkpoint: ckpt_at.map(|k| Checkpoint {
            meta,
            shard_splits: splits.to_vec(),
            ops_applied: k as u64 * batch_ops,
            intervals: plan.states[k].clone(),
        }),
        replay: (from..upto)
            .map(|k| CommitRecord {
                ops_after: (k as u64 + 1) * batch_ops,
                ops: plan.batches[k].clone(),
            })
            .collect(),
        report: RecoveryReport {
            checkpoint_ops: from as u64 * batch_ops,
            ..RecoveryReport::default()
        },
    }
}

fn sorted(mut intervals: Vec<Interval>) -> Vec<Interval> {
    intervals.sort_unstable_by_key(|iv| iv.id);
    intervals
}

/// Stab answers of `stab` against the oracle over `want`, plus the full
/// content.
fn assert_content(
    rng: &mut DetRng,
    want: &[Interval],
    everything: Vec<u64>,
    stab: impl Fn(i64) -> Vec<u64>,
    ctx: &str,
) {
    oracle::assert_same_ids(everything, want.iter().map(|iv| iv.id).collect(), ctx);
    for _ in 0..6 {
        let q = rng.gen_range(-1..LO_RANGE + 61);
        oracle::assert_same_ids(stab(q), oracle::stabbing_ids(want, q), ctx);
    }
}

#[test]
fn fold_then_build_equals_replay_equals_oracle_at_every_prefix() {
    check::trials("durable::fold_vs_replay", 24, 0xF01D, |rng| {
        let initial = rng.gen_range(0..120usize);
        let plan = random_plan(rng, initial);
        let meta = meta(rng);
        let n = plan.batches.len();
        for ckpt_at in 0..=n {
            for upto in ckpt_at..=n {
                let rec = recovered(&plan, meta, &[], Some(ckpt_at), upto);
                let want = &plan.states[upto];
                let ctx = format!("checkpoint at {ckpt_at}, crash after {upto}");
                assert_eq!(rec.ops_applied(), (upto * plan.batches[0].len()) as u64);

                // The old recovery: bulk-load the checkpoint, replay commit
                // by commit through the dynamic side.
                let mut replayed = IndexBuilder::new(meta.geometry)
                    .options(meta.options)
                    .bulk(IoCounter::new(), &plan.states[ckpt_at]);
                for batch in &plan.batches[ckpt_at..upto] {
                    replayed.apply_batch(batch);
                }
                let built = rec.rebuild(IoCounter::new(), meta);
                built.validate_unbilled();
                // The fold itself is the oracle's state, interval for
                // interval.
                assert_eq!(
                    sorted(built.intersecting_intervals(i64::MIN, i64::MAX)),
                    sorted(want.clone()),
                    "{ctx}"
                );
                assert_eq!(built.len(), want.len(), "{ctx}");
                assert_eq!(built.reorg_debt(), 0, "{ctx}: a static tree owes nothing");
                assert_eq!(built.pending_deletes(), 0, "{ctx}: no tombstones");
                for (how, index) in [("fold-then-build", &built), ("replay", &replayed)] {
                    assert_content(
                        rng,
                        want,
                        index.intersecting(i64::MIN, i64::MAX),
                        |q| index.stabbing(q),
                        &format!("{how}, {ctx}"),
                    );
                }
            }
        }
    });
}

/// The page images, space and shape of `index`: equal only for the same
/// static build.
fn layout(index: &IntervalIndex) -> impl PartialEq + std::fmt::Debug {
    (
        index.stats(),
        index.space_pages(),
        index.model_page_images(),
    )
}

#[test]
fn an_empty_suffix_rebuilds_the_checkpoint_as_bulk_does() {
    let mut rng = DetRng::new(0xF01E);
    let plan = random_plan(&mut rng, 50);
    let meta = meta(&mut rng);
    let rec = recovered(&plan, meta, &[], Some(0), 0);
    let bulk = IndexBuilder::new(meta.geometry)
        .options(meta.options)
        .bulk(IoCounter::new(), &plan.initial);
    assert_eq!(layout(&rec.rebuild(IoCounter::new(), meta)), layout(&bulk));
    let none = recovered(&plan, meta, &[], None, 0);
    assert!(none.rebuild(IoCounter::new(), meta).is_empty());
}

#[test]
fn every_recovered_shard_is_the_static_build_of_its_oracle_content() {
    check::trials("durable::fold_shard_layout", 12, 0xF023, |rng| {
        let initial = rng.gen_range(0..150usize);
        let plan = random_plan(rng, initial);
        let meta = meta(rng);
        let splits = [LO_RANGE / 3, 2 * LO_RANGE / 3];
        let n = plan.batches.len();
        let ckpt_at = rng.gen_range(0..n + 1);
        for upto in ckpt_at..=n {
            let rec = recovered(&plan, meta, &splits, Some(ckpt_at), upto);
            let index = rec.rebuild_sharded(meta, &[]);
            assert_eq!(index.len(), plan.states[upto].len());
            for (s, shard) in index.shards().enumerate() {
                let own: Vec<Interval> = (plan.states[upto].iter())
                    .filter(|iv| splits.partition_point(|&p| p <= iv.lo) == s)
                    .copied()
                    .collect();
                let bulk = IndexBuilder::new(meta.geometry)
                    .options(meta.options)
                    .bulk(IoCounter::new(), &own);
                assert_eq!(
                    layout(shard),
                    layout(&bulk),
                    "shard {s}, checkpoint at {ckpt_at}, crash after {upto}"
                );
                assert_eq!(shard.counter().snapshot(), bulk.counter().snapshot());
            }
        }
    });
}

#[test]
fn no_checkpoint_folds_onto_the_fallback() {
    check::trials("durable::fold_fallback", 16, 0xF01F, |rng| {
        // A directory that never checkpointed holds its whole history in
        // the WAL, from an empty index.
        let plan = random_plan(rng, 0);
        let fallback = meta(rng);
        let splits = [LO_RANGE / 3, 2 * LO_RANGE / 3];
        for upto in 0..=plan.batches.len() {
            let rec = recovered(&plan, fallback, &[], None, upto);
            let want = &plan.states[upto];
            let single = rec.rebuild(IoCounter::new(), fallback);
            assert_eq!(single.geometry(), fallback.geometry);
            assert_content(
                rng,
                want,
                single.intersecting(i64::MIN, i64::MAX),
                |q| single.stabbing(q),
                "fallback",
            );
            let sharded = rec.rebuild_sharded(fallback, &splits);
            assert_eq!(sharded.splits(), splits);
            assert_content(
                rng,
                want,
                sharded.intersecting(i64::MIN, i64::MAX),
                |q| sharded.stabbing(q),
                "fallback, sharded",
            );
        }
    });
}

#[test]
fn sharded_rebuild_restores_recorded_splits_and_ignores_the_fallback() {
    check::trials("durable::fold_sharded", 16, 0xF020, |rng| {
        let plan = random_plan(rng, 100);
        let meta = meta(rng);
        let recorded = [LO_RANGE / 4, LO_RANGE / 2, 3 * LO_RANGE / 4];
        let other = Meta::new(Geometry::new(16), IntervalOptions::default());
        let n = plan.batches.len();
        let ckpt_at = rng.gen_range(0..n + 1);
        for upto in ckpt_at..=n {
            let rec = recovered(&plan, meta, &recorded, Some(ckpt_at), upto);
            let index = rec.rebuild_sharded(other, &[7]);
            assert_eq!(index.splits(), recorded);
            assert_eq!(index.geometry(), meta.geometry);
            assert_eq!(index.reorg_debt(), 0);
            assert_content(
                rng,
                &plan.states[upto],
                index.intersecting(i64::MIN, i64::MAX),
                |q| index.stabbing(q),
                "sharded",
            );
        }
    });
}

#[test]
fn file_backed_rebuild_holds_the_folded_content() {
    let mut rng = DetRng::new(0xF021);
    let plan = random_plan(&mut rng, 150);
    let meta = meta(&mut rng);
    let n = plan.batches.len();
    let tmp = TempDir::new("fold-file");
    let spec = BackendSpec::File(FileConfig::new(tmp.path()));
    let rec = recovered(&plan, meta, &[LO_RANGE / 2], Some(n / 2), n);
    let single = rec.rebuild_on(&spec, IoCounter::new(), meta);
    assert!(single.is_file_backed());
    assert_content(
        &mut rng,
        &plan.states[n],
        single.intersecting(i64::MIN, i64::MAX),
        |q| single.stabbing(q),
        "file-backed",
    );
    let sharded = rec.rebuild_sharded_on(&spec, meta, &[]);
    assert!(sharded.is_file_backed());
    assert_content(
        &mut rng,
        &plan.states[n],
        sharded.intersecting(i64::MIN, i64::MAX),
        |q| sharded.stabbing(q),
        "file-backed, sharded",
    );
}

#[test]
fn a_delete_of_an_unknown_id_is_a_no_op() {
    let iv = |lo, hi, id| Interval::new(lo, hi, id);
    let rec = Recovered {
        checkpoint: Some(Checkpoint {
            meta: Meta::new(Geometry::new(4), IntervalOptions::default()),
            shard_splits: Vec::new(),
            ops_applied: 2,
            intervals: vec![iv(0, 5, 1), iv(3, 9, 2)],
        }),
        replay: vec![CommitRecord {
            ops_after: 6,
            ops: vec![
                // Neither in the checkpoint nor inserted by the suffix.
                IntervalOp::Delete(iv(0, 1, 77)),
                IntervalOp::Insert(iv(4, 4, 3)),
                // An id freed by the suffix and taken again.
                IntervalOp::Delete(iv(0, 5, 1)),
                IntervalOp::Insert(iv(10, 20, 1)),
            ],
        }],
        report: RecoveryReport::default(),
    };
    let index = rec.rebuild(
        IoCounter::new(),
        Meta::new(Geometry::new(4), Default::default()),
    );
    assert_eq!(
        sorted(index.intersecting_intervals(i64::MIN, i64::MAX)),
        vec![iv(10, 20, 1), iv(3, 9, 2), iv(4, 4, 3)]
    );
    oracle::assert_same_ids(index.stabbing(4), vec![2, 3], "stab 4");
    oracle::assert_same_ids(index.stabbing(15), vec![1], "stab 15");
}

/// A delete cancels the exact copy it names, as the index's own `delete`
/// contract has it: one whose `(lo, hi)` differs from the stored copy of
/// its id — by `hi` alone (the same `(lo, id)` key), by `lo`, or on
/// another shard — cancels nothing, and the stored copy stays.
#[test]
fn a_delete_that_misnames_the_stored_copy_cancels_nothing() {
    let iv = |lo, hi, id| Interval::new(lo, hi, id);
    let meta = Meta::new(Geometry::new(4), IntervalOptions::default());
    let live = vec![iv(0, 5, 1), iv(3, 9, 2), iv(60, 70, 3)];
    let rec = Recovered {
        checkpoint: Some(Checkpoint {
            meta,
            shard_splits: vec![50],
            ops_applied: 3,
            intervals: live.clone(),
        }),
        replay: vec![CommitRecord {
            ops_after: 6,
            ops: vec![
                IntervalOp::Delete(iv(0, 6, 1)),
                IntervalOp::Delete(iv(2, 9, 2)),
                IntervalOp::Delete(iv(10, 70, 3)),
            ],
        }],
        report: RecoveryReport::default(),
    };
    let sharded = rec.rebuild_sharded(meta, &[]);
    assert_eq!(
        sorted(sharded.intersecting_intervals(i64::MIN, i64::MAX)),
        live
    );
    let single = rec.rebuild(IoCounter::new(), meta);
    assert_eq!(
        sorted(single.intersecting_intervals(i64::MIN, i64::MAX)),
        live
    );
}

#[test]
fn two_recoveries_of_one_directory_yield_the_same_interval_order() {
    check::trials("durable::fold_determinism", 8, 0xF022, |rng| {
        let plan = random_plan(rng, 80);
        let meta = meta(rng);
        let tmp = TempDir::new("fold-determinism");
        let cfg = DurabilityConfig {
            checkpoint_every_ops: 0,
            ..DurabilityConfig::new(tmp.path())
        };
        let n = plan.batches.len();
        let ckpt_at = rng.gen_range(0..n + 1);
        let mut store = DurableStore::create(&cfg, meta, &[], &plan.initial).expect("create");
        for (k, batch) in plan.batches.iter().enumerate() {
            if k == ckpt_at && k > 0 {
                store
                    .checkpoint(meta, &[], &plan.states[k])
                    .expect("checkpoint");
            }
            store.append_commit(batch).expect("append");
        }
        store.sync().expect("sync");
        drop(store);

        let (first_store, first) = DurableStore::open(&cfg).expect("open 1");
        drop(first_store);
        let (_store, second) = DurableStore::open(&cfg).expect("open 2");
        assert_eq!(first.report, second.report);
        assert_eq!(first.replay, second.replay, "the suffix reads back alike");
        // Same input into the same static build: same tree.
        let (a, b) = (
            first.rebuild(IoCounter::new(), meta),
            second.rebuild(IoCounter::new(), meta),
        );
        assert_eq!(
            sorted(a.intersecting_intervals(i64::MIN, i64::MAX)),
            sorted(plan.states[n].clone())
        );
        assert_eq!(layout(&a), layout(&b));
    });
}
