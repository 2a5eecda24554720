//! The backend differential suite: everything the file backend claims —
//! byte-identical pages, unchanged billed I/O, durable persist/reopen,
//! bounded caches — is checked here against the in-memory model store,
//! which stays the source of truth for every exact-I/O gate.
//!
//! Four legs:
//!
//! * **Mixed floods** — identical deterministic insert/delete/stab floods
//!   (random geometry, random tuning, reorg budgets `k ∈ {0, 1, 4}`) run on
//!   a model-backed and a file-backed [`IntervalIndex`] built from one
//!   cloned [`IndexBuilder`]. Every stab must agree with the linear-scan
//!   oracle on both, the billed I/O counters must match *exactly* (the
//!   file backend must not perturb the cost model), and at the end the
//!   encoded page images must be byte-identical across backends — and the
//!   file's on-disk bytes byte-identical to its own model pages.
//! * **Sharded flood** — the same contract through
//!   [`ShardedIntervalIndex`], whose parallel shard builds must not
//!   collide on page-file names.
//! * **Persist/reopen** — [`TypedStore::persist`] + `open_from_file`
//!   round-trips content, capacity and the free list, so freed slots keep
//!   recycling exactly where the persisted store would recycle them.
//! * **Kill points** — the store-level crash contract under [`FailFs`]
//!   (seeded short writes and EINTR throughout): a flood of
//!   alloc/append/write/free/persist ops is killed at hundreds of
//!   deterministic filesystem-op budgets; reopening on the real filesystem
//!   must then reproduce the last acknowledged persist — exact live set
//!   and lengths from the atomic meta, exact bytes for every page not
//!   touched after that persist — compared against a model replay of the
//!   same script.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use ccix_core::Tuning;
use ccix_durable::{FailFs, FaultPlan, RealFs, TempDir};
use ccix_extmem::{BackendSpec, FileConfig, Geometry, IoCounter, PageId, PathPin, TypedStore};
use ccix_interval::{IndexBuilder, IntervalIndex};
use ccix_testkit::check;
use ccix_testkit::oracle;
use ccix_testkit::rng::DetRng;
use ccix_testkit::workloads::{self, IntervalOp};

#[cfg(debug_assertions)]
const FLOOD_TRIALS: usize = 4;
#[cfg(not(debug_assertions))]
const FLOOD_TRIALS: usize = 10;

#[cfg(debug_assertions)]
const FLOOD_OPS: usize = 150;
#[cfg(not(debug_assertions))]
const FLOOD_OPS: usize = 400;

/// Random tuning in the same spirit as the incremental-reorg suite: every
/// knob that changes page traffic gets exercised, with the reorg budget
/// drawn from the issue's `k ∈ {0, 1, 4}`.
fn random_tuning(rng: &mut DetRng) -> Tuning {
    Tuning {
        reorg_pages_per_op: *rng.choose(&[0, 1, 4]).unwrap(),
        update_batch_pages: *rng.choose(&[1, 2, 4]).unwrap(),
        shrink_deletes_pct: *rng.choose(&[10, 35, 60]).unwrap(),
        ..Tuning::default()
    }
}

/// Shift every flood id by `base` so they stay disjoint from a separately
/// generated initial set.
fn shift_ids(flood: Vec<IntervalOp>, base: u64) -> Vec<IntervalOp> {
    flood
        .into_iter()
        .map(|op| match op {
            IntervalOp::Insert(iv) => {
                IntervalOp::Insert(ccix_interval::Interval::new(iv.lo, iv.hi, iv.id + base))
            }
            IntervalOp::Delete(iv) => {
                IntervalOp::Delete(ccix_interval::Interval::new(iv.lo, iv.hi, iv.id + base))
            }
            IntervalOp::Stab(q) => IntervalOp::Stab(q),
        })
        .collect()
}

/// Drive one op into both indexes (identical call sequences keep the
/// billed I/O comparable), checking stabs against the oracle.
fn apply_both(
    op: IntervalOp,
    model: &mut IntervalIndex,
    file: &mut IntervalIndex,
    live: &mut Vec<ccix_interval::Interval>,
) {
    match op {
        IntervalOp::Insert(iv) => {
            model.insert(iv.lo, iv.hi, iv.id);
            file.insert(iv.lo, iv.hi, iv.id);
            live.push(iv);
        }
        IntervalOp::Delete(iv) => {
            model.delete(iv.lo, iv.hi, iv.id);
            file.delete(iv.lo, iv.hi, iv.id);
            oracle::remove_interval(live, iv.id);
        }
        IntervalOp::Stab(q) => {
            let want = oracle::stabbing_ids(live, q);
            oracle::assert_same_ids(model.stabbing(q), want.clone(), "model backend stab");
            oracle::assert_same_ids(file.stabbing(q), want, "file backend stab");
        }
    }
}

#[test]
fn file_backend_agrees_with_model_under_mixed_floods() {
    check::trials("backends::mixed_flood", FLOOD_TRIALS, 0xbac_e0d1, |rng| {
        let b = *rng.choose(&[4usize, 8, 16]).unwrap();
        let tmp = TempDir::new("backends-flood");
        let builder = IndexBuilder::new(Geometry::new(b)).tuning(random_tuning(rng));
        let initial = workloads::uniform_intervals(80, rng.next_u64(), 900, 60);

        let mut model = builder.bulk(IoCounter::new(), &initial);
        let mut file = builder
            .clone()
            .file_backed(tmp.path())
            .bulk(IoCounter::new(), &initial);
        assert!(!model.is_file_backed() && file.is_file_backed());
        assert!(model.file_stats().is_none() && file.file_stats().is_some());

        let mut live = initial;
        // The flood numbers its ids from 0; shift them clear of the
        // initial set's.
        let flood = shift_ids(
            workloads::mixed_interval_flood(FLOOD_OPS, rng.next_u64(), 900, 60, 25, 20),
            10_000,
        );
        for (i, op) in flood.into_iter().enumerate() {
            apply_both(op, &mut model, &mut file, &mut live);
            if i % 23 == 0 {
                // Pump both together so the op sequences stay identical.
                model.pump_reorg_step();
                file.pump_reorg_step();
            }
        }
        model.flush_reorgs();
        file.flush_reorgs();

        // Full-content agreement with the oracle on a stab grid.
        for q in (-1..=901).step_by(41) {
            let want = oracle::stabbing_ids(&live, q);
            oracle::assert_same_ids(model.stabbing(q), want.clone(), "final model stab");
            oracle::assert_same_ids(file.stabbing(q), want, "final file stab");
        }

        // The file backend must not perturb the cost model: identical op
        // sequences bill identical I/O.
        assert_eq!(
            (model.counter().reads(), model.counter().writes()),
            (file.counter().reads(), file.counter().writes()),
            "file backend changed billed I/O"
        );

        // Byte-identical page images: model vs file-backed model pages,
        // and the file's on-disk bytes vs its own model pages.
        let model_imgs = model.model_page_images();
        let file_model_imgs = file.model_page_images();
        assert_eq!(
            model_imgs, file_model_imgs,
            "page images diverge across backends"
        );
        let file_disk_imgs = file.file_page_images().expect("file-backed");
        assert_eq!(
            file_model_imgs, file_disk_imgs,
            "on-disk bytes diverge from the model pages"
        );
        assert!(model.file_page_images().is_none());

        // Cold/warm distinction: a fresh cache makes the next stab read
        // from the file; repeating it hits the in-process page cache.
        file.clear_file_caches();
        let (cold0, warm0) = file.file_stats().unwrap();
        let q = 450;
        let _ = file.stabbing(q);
        let (cold1, warm1) = file.file_stats().unwrap();
        assert!(cold1 > cold0, "cache cleared, stab must read cold");
        let _ = file.stabbing(q);
        let (cold2, warm2) = file.file_stats().unwrap();
        assert_eq!(cold2, cold1, "repeat stab must not read cold");
        assert!(warm2 > warm1.max(warm0), "repeat stab must hit the cache");
    });
}

#[test]
fn sharded_file_backend_agrees_with_model() {
    check::trials("backends::sharded_flood", 4, 0xbac_e0d2, |rng| {
        let tmp = TempDir::new("backends-sharded");
        let builder = IndexBuilder::new(Geometry::new(8)).tuning(random_tuning(rng));
        let initial = workloads::uniform_intervals(160, rng.next_u64(), 1_200, 50);
        let splits = vec![300, 600, 900];

        let mut model = builder
            .clone()
            .sharded()
            .splits(splits.clone())
            .bulk(&initial);
        let mut file = builder
            .clone()
            .file_backed(tmp.path())
            .sharded()
            .splits(splits)
            .bulk(&initial);
        assert!(file.is_file_backed() && !model.is_file_backed());

        let mut live = initial;
        let flood: Vec<ccix_interval::IntervalOp> = shift_ids(
            workloads::mixed_interval_flood(120, rng.next_u64(), 1_200, 50, 25, 0),
            10_000,
        )
        .into_iter()
        .filter_map(|op| match op {
            IntervalOp::Insert(iv) => {
                live.push(iv);
                Some(ccix_interval::IntervalOp::Insert(iv))
            }
            IntervalOp::Delete(iv) => {
                oracle::remove_interval(&mut live, iv.id);
                Some(ccix_interval::IntervalOp::Delete(iv))
            }
            IntervalOp::Stab(_) => None,
        })
        .collect();
        model.apply_batch(&flood);
        file.apply_batch(&flood);
        model.flush_reorgs();
        file.flush_reorgs();

        for q in (-1..=1_201).step_by(67) {
            let want = oracle::stabbing_ids(&live, q);
            oracle::assert_same_ids(model.stabbing(q), want.clone(), "sharded model stab");
            oracle::assert_same_ids(file.stabbing(q), want, "sharded file stab");
        }
        let mt = model.io_totals();
        let ft = file.io_totals();
        assert_eq!(
            (mt.reads, mt.writes),
            (ft.reads, ft.writes),
            "sharded file backend changed billed I/O"
        );
        // Parallel shard builds must have landed on distinct page files,
        // and every shard must mirror its model pages byte-exactly.
        for shard in file.shards() {
            let model_imgs = shard.model_page_images();
            let disk_imgs = shard.file_page_images().expect("file-backed shard");
            assert_eq!(model_imgs, disk_imgs, "shard on-disk bytes diverge");
        }
        let (cold, warm) = file.file_stats().unwrap();
        assert!(cold + warm > 0, "queries never touched the files");
    });
}

#[test]
fn typed_store_persist_reopen_roundtrips_content_and_free_list() {
    check::trials("backends::persist_reopen", 8, 0xbac_e0d3, |rng| {
        let tmp = TempDir::new("backends-persist");
        let cap = *rng.choose(&[4usize, 8, 16]).unwrap();
        let cfg = FileConfig::new(tmp.path());
        let spec = BackendSpec::File(cfg.clone());
        let mut store = TypedStore::<u64>::new_on(&spec, cap, IoCounter::new());

        let mut ids: Vec<PageId> = Vec::new();
        for _ in 0..60 {
            match rng.gen_range(0..4u32) {
                0 | 1 => {
                    let n = rng.gen_range(1..cap + 1);
                    let recs: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
                    ids.push(store.alloc(recs));
                }
                2 if !ids.is_empty() => {
                    let id = ids[rng.gen_range(0..ids.len())];
                    if store.len_unbilled(id) < cap {
                        store.append(id, rng.next_u64());
                    }
                }
                3 if ids.len() > 1 => {
                    let id = ids.swap_remove(rng.gen_range(0..ids.len()));
                    store.free(id);
                }
                _ => {}
            }
        }
        store.persist();
        let path = store.file_path().unwrap().to_path_buf();

        let reopened = TypedStore::<u64>::open_from_file(&cfg, &path, IoCounter::new());
        assert_eq!(reopened.capacity(), store.capacity());
        assert_eq!(reopened.pages_in_use(), store.pages_in_use());
        assert_eq!(reopened.page_images(), store.page_images());
        assert_eq!(
            reopened.file_page_images().unwrap(),
            store.page_images(),
            "reopened on-disk bytes diverge"
        );

        // The free list survived: both stores must hand out the same ids
        // for the same allocation sequence (freed slots recycle on disk).
        let mut original = store;
        let mut reopened = reopened;
        for _ in 0..8 {
            let recs = vec![rng.next_u64()];
            assert_eq!(
                original.alloc(recs.clone()),
                reopened.alloc(recs),
                "free list did not survive reopen"
            );
        }
    });
}

#[test]
fn path_pin_bounds_file_reads_to_charged_touches() {
    let tmp = TempDir::new("backends-pin");
    let spec = BackendSpec::File(FileConfig::new(tmp.path()).cache_pages(0));
    let mut store = TypedStore::<u64>::new_on(&spec, 4, IoCounter::new());
    let ids: Vec<PageId> = (0..4).map(|i| store.alloc(vec![i as u64])).collect();

    let counter = store.counter().clone();
    let mut pin = PathPin::new(counter, 2);
    // Touch A, B (two charged misses → two cold reads), then re-touch both
    // while resident (free → no file access), then C evicts and charges.
    for &id in &[ids[0], ids[1], ids[0], ids[1], ids[2]] {
        let _ = store.read_pinned(&mut pin, 0, id);
    }
    let (cold, warm) = store.file_stats().unwrap();
    assert_eq!(warm, 0);
    assert_eq!(
        cold,
        pin.charged(),
        "file reads must happen exactly when the pin charges"
    );
    assert_eq!(pin.charged(), 3);
}

// ---------------------------------------------------------------------------
// Kill points
// ---------------------------------------------------------------------------

/// One op of the store-level crash script. Page ids are pre-resolved by
/// the generating (model) run; the file-backed replay allocates the same
/// ids because the allocator and free list are deterministic.
#[derive(Clone, Debug)]
enum StoreOp {
    Alloc(Vec<u64>),
    Append(PageId, u64),
    Write(PageId, Vec<u64>),
    Free(PageId),
    Read(PageId),
    Persist,
}

type LiveImage = BTreeMap<u32, Vec<u64>>;

/// Generate a script by driving a model store (which doubles as the model
/// replay), recording the live image at every persist point.
fn gen_script(rng: &mut DetRng, cap: usize, n_ops: usize) -> (Vec<StoreOp>, Vec<LiveImage>) {
    let mut store = TypedStore::<u64>::new(cap, IoCounter::new());
    let mut ids: Vec<PageId> = Vec::new();
    let mut script = Vec::new();
    let mut persists = Vec::new();
    for _ in 0..n_ops {
        let roll = rng.gen_range(0..100u32);
        if roll < 30 || ids.is_empty() {
            let n = rng.gen_range(1..cap + 1);
            let recs: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            ids.push(store.alloc(recs.clone()));
            script.push(StoreOp::Alloc(recs));
        } else if roll < 55 {
            let id = ids[rng.gen_range(0..ids.len())];
            if store.len_unbilled(id) < cap {
                let v = rng.next_u64();
                store.append(id, v);
                script.push(StoreOp::Append(id, v));
            }
        } else if roll < 70 {
            let id = ids[rng.gen_range(0..ids.len())];
            let n = rng.gen_range(1..cap + 1);
            let recs: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            store.write(id, recs.clone());
            script.push(StoreOp::Write(id, recs));
        } else if roll < 82 && ids.len() > 1 {
            let id = ids.swap_remove(rng.gen_range(0..ids.len()));
            store.free(id);
            script.push(StoreOp::Free(id));
        } else if roll < 90 {
            let id = ids[rng.gen_range(0..ids.len())];
            script.push(StoreOp::Read(id));
        } else {
            script.push(StoreOp::Persist);
            persists.push(live_image(&store));
        }
    }
    // Always end acknowledged, so late kill points have durable state.
    script.push(StoreOp::Persist);
    persists.push(live_image(&store));
    (script, persists)
}

fn live_image(store: &TypedStore<u64>) -> LiveImage {
    store
        .live_page_ids()
        .into_iter()
        .map(|id| (id.0, store.read_unbilled(id).to_vec()))
        .collect()
}

/// Replay `script` on a file-backed store over `fs` until it crashes (or
/// completes). Returns the number of acknowledged persists, the set of
/// pages dirtied since the last acknowledged persist, whether the crash
/// hit inside a persist call, and the page-file path (if creation got
/// that far).
fn run_killed(
    script: &[StoreOp],
    cap: usize,
    cfg: &FileConfig,
) -> (usize, BTreeSet<u32>, bool, Option<PathBuf>) {
    let spec = BackendSpec::File(cfg.clone());
    let mut store = match catch_unwind(AssertUnwindSafe(|| {
        TypedStore::<u64>::new_on(&spec, cap, IoCounter::new())
    })) {
        Ok(s) => s,
        Err(_) => return (0, BTreeSet::new(), false, None),
    };
    let path = store.file_path().map(|p| p.to_path_buf());
    let mut acked = 0usize;
    let mut dirty: BTreeSet<u32> = BTreeSet::new();
    for op in script {
        // Pages touched by an op are dirty the moment the attempt starts:
        // a crash mid-write may leave the slot torn. Allocations need no
        // pre-marking — a page allocated after the last persist is not in
        // its meta, and a recycled slot was either free at persist time or
        // already dirtied by its own Free.
        match op {
            StoreOp::Append(id, _) | StoreOp::Write(id, _) | StoreOp::Free(id) => {
                dirty.insert(id.0);
            }
            _ => {}
        }
        let crashed = catch_unwind(AssertUnwindSafe(|| match op {
            StoreOp::Alloc(recs) => {
                let id = store.alloc(recs.clone());
                dirty.insert(id.0);
            }
            StoreOp::Append(id, v) => store.append(*id, *v),
            StoreOp::Write(id, recs) => store.write(*id, recs.clone()),
            StoreOp::Free(id) => store.free(*id),
            StoreOp::Read(id) => {
                let _ = store.read(*id);
            }
            StoreOp::Persist => store.persist(),
        }))
        .is_err();
        if crashed {
            return (acked, dirty, matches!(op, StoreOp::Persist), path);
        }
        if matches!(op, StoreOp::Persist) {
            acked += 1;
            dirty.clear();
        }
    }
    (acked, dirty, false, path)
}

/// Reopen on the real filesystem and compare against the model replay.
fn check_killed_recovery(
    persists: &[LiveImage],
    acked: usize,
    dirty: &BTreeSet<u32>,
    crashed_in_persist: bool,
    path: Option<&PathBuf>,
    dir: &std::path::Path,
    context: &str,
) {
    let real = FileConfig::new(dir);
    let Some(path) = path else {
        assert_eq!(acked, 0, "acked a persist without a page file ({context})");
        return;
    };
    let reopened = catch_unwind(AssertUnwindSafe(|| {
        TypedStore::<u64>::open_from_file(&real, path, IoCounter::new())
    }));
    let store = match reopened {
        Err(_) => {
            // Legal only if no persist was ever acknowledged (no meta yet)
            // or the crash hit inside a persist (the meta swap itself may
            // have been caught mid-publish).
            assert!(
                acked == 0 || crashed_in_persist,
                "recovery failed though persist {acked} was acknowledged ({context})"
            );
            return;
        }
        Ok(s) => s,
    };
    let got = live_image(&store);
    let got_lens: BTreeMap<u32, usize> = got.iter().map(|(id, r)| (*id, r.len())).collect();
    // The atomic meta pins the live set to an acknowledged persist — or,
    // when the crash landed inside persist k+1, possibly to the one it was
    // publishing.
    let matches_persist = |img: &LiveImage| {
        got_lens
            == img
                .iter()
                .map(|(id, r)| (*id, r.len()))
                .collect::<BTreeMap<_, _>>()
    };
    if crashed_in_persist && persists.len() > acked && matches_persist(&persists[acked]) {
        // The interrupted persist won the race: the page file was synced
        // before the meta published, so *all* content must match it.
        assert_eq!(
            got, persists[acked],
            "published persist content diverges ({context})"
        );
        return;
    }
    assert!(acked > 0, "recovered state from nowhere ({context})");
    let durable = &persists[acked - 1];
    assert!(
        matches_persist(durable),
        "live set diverges from persist {acked} ({context}): got {:?}, want {:?}",
        got_lens,
        durable
            .iter()
            .map(|(id, r)| (*id, r.len()))
            .collect::<Vec<_>>()
    );
    for (id, recs) in durable {
        if !dirty.contains(id) {
            assert_eq!(
                got.get(id),
                Some(recs),
                "clean page {id} diverges from persist {acked} ({context})"
            );
        }
    }
}

#[cfg(debug_assertions)]
const KILL_TRIALS: usize = 3;
#[cfg(debug_assertions)]
const KILL_POINTS_PER_TRIAL: usize = 8;
#[cfg(not(debug_assertions))]
const KILL_TRIALS: usize = 5;
/// 5 × 50 = 250 kill points in the release (CI) run.
#[cfg(not(debug_assertions))]
const KILL_POINTS_PER_TRIAL: usize = 50;

/// The kill mechanism is a panic out of the mirror, caught by
/// [`run_killed`] — without this the default hook prints hundreds of
/// expected backtraces. Panics from anywhere else still print.
fn silence_expected_kill_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("file backend:") {
            prev(info);
        }
    }));
}

#[test]
fn kill_points_recover_to_the_last_acknowledged_persist() {
    silence_expected_kill_panics();
    check::trials("backends::kill_points", KILL_TRIALS, 0xbac_e0d4, |rng| {
        let cap = *rng.choose(&[4usize, 8]).unwrap();
        let (script, persists) = gen_script(rng, cap, 90);

        // Probe: one uncrashed run through FailFs (same short-write/EINTR
        // noise, no budget) sizes the op space and checks the noisy
        // crashless path — it must ack every persist and reopen exactly.
        let probe_dir = TempDir::new("backends-kill-probe");
        let probe_fs = FailFs::new(
            RealFs::shared(),
            rng.next_u64(),
            FaultPlan {
                crash_after_ops: None,
                short_write: 0.10,
                eintr: 0.05,
            },
        );
        let cfg = FileConfig::with_fs(probe_dir.path(), Arc::new(probe_fs.clone()));
        let (acked, dirty, in_persist, path) = run_killed(&script, cap, &cfg);
        assert_eq!(acked, persists.len(), "probe must ack every persist");
        assert!(!in_persist);
        check_killed_recovery(
            &persists,
            acked,
            &dirty,
            false,
            path.as_ref(),
            probe_dir.path(),
            "probe",
        );
        let total_ops = probe_fs.ops().max(KILL_POINTS_PER_TRIAL as u64);

        // Kill points strided across the probe's op count with per-point
        // jitter, exactly like the engine-level crash suite.
        for point in 0..KILL_POINTS_PER_TRIAL {
            let stride = total_ops / KILL_POINTS_PER_TRIAL as u64;
            let crash_at = 1 + point as u64 * stride + rng.gen_range(0..stride.max(1));
            let dir = TempDir::new("backends-kill");
            let fail_fs = FailFs::new(
                RealFs::shared(),
                rng.next_u64(),
                FaultPlan {
                    crash_after_ops: Some(crash_at),
                    short_write: 0.10,
                    eintr: 0.05,
                },
            );
            let cfg = FileConfig::with_fs(dir.path(), Arc::new(fail_fs.clone()));
            let (acked, dirty, in_persist, path) = run_killed(&script, cap, &cfg);
            let context = format!(
                "crash_at {crash_at}/{total_ops}, acked {acked}, crashed {}",
                fail_fs.crashed()
            );
            check_killed_recovery(
                &persists,
                acked,
                &dirty,
                in_persist,
                path.as_ref(),
                dir.path(),
                &context,
            );
        }
    });
}
