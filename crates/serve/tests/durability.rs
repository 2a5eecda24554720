//! Durable-engine edge cases around flush, shutdown, and the sparse
//! directory states recovery must handle — the quiet corners the
//! kill-point suite (`crash.rs`) only hits probabilistically.

use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::Duration;

use ccix_durable::{DurabilityConfig, FailFs, FaultPlan, FsOpKind, GateFs, RealFs, TempDir};
use ccix_extmem::{Geometry, IoCounter};
use ccix_interval::{IndexBuilder, Interval, IntervalOp, IntervalOptions};
use ccix_serve::{Engine, EngineConfig, FsyncPolicy, Meta};

fn geometry() -> Geometry {
    Geometry::new(8)
}

fn meta() -> Meta {
    Meta::new(geometry(), IntervalOptions::default())
}

fn config(dir: &std::path::Path, fsync: FsyncPolicy) -> EngineConfig {
    EngineConfig {
        queue_depth: 4,
        group_max_ops: 32,
        reorg_pump_slices: 4,
        durability: Some(DurabilityConfig {
            fsync,
            ..DurabilityConfig::new(dir)
        }),
        ..EngineConfig::default()
    }
}

fn ivs(n: usize) -> Vec<Interval> {
    (0..n)
        .map(|i| {
            let lo = (i as i64 * 41) % 350;
            Interval::new(lo, lo + (i as i64 * 17) % 70, i as u64)
        })
        .collect()
}

fn content(snap: &ccix_serve::Snapshot) -> Vec<Interval> {
    let mut all = snap.x_range(i64::MIN, i64::MAX);
    all.sort_unstable_by_key(|iv| (iv.lo, iv.hi, iv.id));
    all
}

#[test]
fn flush_on_an_empty_queue_is_a_durable_noop_barrier() {
    let tmp = TempDir::new("durable-empty-flush");
    let idx = IndexBuilder::new(geometry()).bulk(IoCounter::new(), &ivs(50));
    let engine = Engine::start(idx, config(tmp.path(), FsyncPolicy::default()));
    // Nothing submitted: the barrier must still resolve, at watermark 0,
    // and must be repeatable.
    let a = engine.flush();
    let b = engine.flush();
    assert_eq!(a.ops_applied, 0);
    assert_eq!(b.ops_applied, 0);
    assert!(b.seq >= a.seq);
    engine.shutdown();
}

#[test]
fn shutdown_resolves_in_flight_tickets_durably() {
    let tmp = TempDir::new("durable-inflight");
    let idx = IndexBuilder::new(geometry()).open(IoCounter::new());
    let engine = Engine::start(
        idx,
        config(tmp.path(), FsyncPolicy::Group { max_delay_ms: 50 }),
    );
    // Pile up submissions without waiting on any of them, then shut down
    // immediately: everything queued ahead of the shutdown must still be
    // applied, made durable, and acknowledged.
    let tickets: Vec<_> = (0..10u64)
        .map(|i| {
            engine.submit(vec![IntervalOp::Insert(Interval::new(
                i as i64 * 10,
                i as i64 * 10 + 5,
                i,
            ))])
        })
        .collect();
    let index = engine.shutdown();
    assert_eq!(index.len(), 10);
    for (i, t) in tickets.into_iter().enumerate() {
        let info = t
            .wait_result()
            .unwrap_or_else(|| panic!("in-flight ticket {i} dropped at shutdown"));
        assert!(info.ops_applied as usize > i);
    }
    // And the acknowledgements were real: recovery sees all ten.
    let (engine, report) =
        Engine::recover(meta(), config(tmp.path(), FsyncPolicy::default())).expect("recover");
    assert_eq!(engine.snapshot().ops_applied(), 10);
    assert_eq!(engine.snapshot().len(), 10);
    // Shutdown checkpointed, so nothing needed replay.
    assert_eq!(report.replayed_commits, 0);
    engine.shutdown();
}

#[test]
fn recovery_from_a_never_written_directory_yields_genesis() {
    let tmp = TempDir::new("durable-genesis");
    let initial = ivs(80);
    let idx = IndexBuilder::new(geometry()).bulk(IoCounter::new(), &initial);
    // Start durable, write nothing, shut down: the directory holds only
    // the genesis checkpoint and an empty WAL.
    let engine = Engine::start(idx, config(tmp.path(), FsyncPolicy::EveryCommits(1)));
    engine.shutdown();

    let (engine, report) =
        Engine::recover(meta(), config(tmp.path(), FsyncPolicy::default())).expect("recover");
    let snap = engine.snapshot();
    assert_eq!(snap.ops_applied(), 0);
    assert_eq!(report.replayed_commits, 0);
    assert_eq!(report.checkpoint_intervals, 80);
    assert_eq!(report.torn_tail_bytes, 0);
    let mut want = initial;
    want.sort_unstable_by_key(|iv| (iv.lo, iv.hi, iv.id));
    assert_eq!(content(&snap), want);
    engine.shutdown();
}

#[test]
fn recovery_from_checkpoint_only_state_resumes_at_the_watermark() {
    let tmp = TempDir::new("durable-ckpt-only");
    let idx = IndexBuilder::new(geometry()).bulk(IoCounter::new(), &ivs(30));
    let engine = Engine::start(idx, config(tmp.path(), FsyncPolicy::EveryCommits(1)));
    for i in 0..6u64 {
        engine
            .submit(vec![IntervalOp::Insert(Interval::new(
                500 + i as i64,
                520 + i as i64,
                1_000 + i,
            ))])
            .wait();
    }
    let full = content(&engine.snapshot());
    engine.shutdown(); // final checkpoint at watermark 6, WAL reset

    // Model the crash window between checkpoint publication and WAL
    // (re)creation: the checkpoint alone fully describes the state.
    std::fs::remove_file(tmp.path().join("wal")).expect("drop wal");

    let (engine, report) =
        Engine::recover(meta(), config(tmp.path(), FsyncPolicy::default())).expect("recover");
    let snap = engine.snapshot();
    assert_eq!(snap.ops_applied(), 6, "resume at the checkpoint watermark");
    assert_eq!(report.replayed_commits, 0);
    assert_eq!(content(&snap), full);
    // The recovered engine logs against a fresh WAL from the watermark.
    let info = engine
        .submit(vec![IntervalOp::Insert(Interval::new(0, 1, 9_999))])
        .wait();
    assert_eq!(info.ops_applied, 7);
    engine.shutdown();

    let (engine, _) =
        Engine::recover(meta(), config(tmp.path(), FsyncPolicy::default())).expect("recover again");
    assert_eq!(engine.snapshot().ops_applied(), 7);
    assert!(engine.snapshot().query(0).contains(&9_999));
    engine.shutdown();
}

/// A checkpoint whose body decodes to `B < 2` — checksum intact — stops
/// recovery with `InvalidData`, as every other undecodable body does,
/// instead of reaching the geometry's assert.
#[test]
fn recovery_refuses_a_checkpoint_with_a_block_size_below_two() {
    let tmp = TempDir::new("durable-ckpt-small-b");
    let idx = IndexBuilder::new(geometry()).bulk(IoCounter::new(), &ivs(30));
    Engine::start(idx, config(tmp.path(), FsyncPolicy::EveryCommits(1))).shutdown();
    let path = tmp.path().join("checkpoint");
    let good = std::fs::read(&path).expect("read checkpoint");
    for b in [0u64, 1] {
        // [magic 8B][len u64][crc u32][body], and the body opens with `B`.
        let mut bytes = good.clone();
        bytes[20..28].copy_from_slice(&b.to_le_bytes());
        let crc = ccix_durable::crc32(&bytes[20..]);
        bytes[16..20].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).expect("patch checkpoint");
        let recovered = std::panic::catch_unwind(|| {
            Engine::recover(meta(), config(tmp.path(), FsyncPolicy::default())).map(|_| ())
        });
        let err = recovered
            .expect("recovery must not panic")
            .expect_err("B < 2 must not recover");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "B = {b}");
    }
}

/// Recover the sharded engine directory at `dir`, which must fail without
/// a panic; the error.
fn refused_recovery(dir: &std::path::Path) -> std::io::Error {
    let recovered = std::panic::catch_unwind(|| {
        Engine::recover_sharded(meta(), &[], config(dir, FsyncPolicy::default())).map(|_| ())
    });
    recovered
        .expect("recovery must not panic")
        .expect_err("a repeated live id must not recover")
}

/// 200 intervals `[10 i, 10 i + 5]` with id `i`, in two shards split at
/// 1000, behind a shut-down durable engine in `dir`.
fn two_shard_directory(dir: &std::path::Path) {
    let content: Vec<Interval> = (0..200u64)
        .map(|i| Interval::new(i as i64 * 10, i as i64 * 10 + 5, i))
        .collect();
    let idx = IndexBuilder::new(geometry())
        .sharded()
        .splits(vec![1000])
        .bulk(&content);
    Engine::start_sharded(idx, config(dir, FsyncPolicy::EveryCommits(1))).shutdown_sharded();
}

/// Checksummed content that holds a live id twice is `InvalidData` naming
/// the id, wherever the second copy lands: beside the first in shard 0
/// (which reached the static build's duplicate-id assert) or in shard 1
/// (which recovered an index answering for id 7 at two places).
#[test]
fn a_checkpoint_that_repeats_a_live_id_is_refused_in_one_shard_or_two() {
    let tmp = TempDir::new("durable-ckpt-repeat");
    two_shard_directory(tmp.path());
    let path = tmp.path().join("checkpoint");
    let good = std::fs::read(&path).expect("read checkpoint");
    for lo in [72i64, 1900] {
        // [magic 8B][len u64][crc u32][body]; the body ends with
        // `n u64 || n × (lo, hi, id)`. Append a record, count it, reframe.
        let mut bytes = good.clone();
        let n_at = bytes.len() - 200 * 24 - 8;
        assert_eq!(bytes[n_at..n_at + 8], 200u64.to_le_bytes());
        bytes[n_at..n_at + 8].copy_from_slice(&201u64.to_le_bytes());
        for word in [lo, lo + 50, 7] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        let body_len = (bytes.len() - 20) as u64;
        bytes[8..16].copy_from_slice(&body_len.to_le_bytes());
        let crc = ccix_durable::crc32(&bytes[20..]);
        bytes[16..20].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).expect("patch checkpoint");
        let err = refused_recovery(tmp.path());
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "lo = {lo}");
        assert!(err.to_string().contains("id 7 "), "lo = {lo}: {err}");
    }
}

/// The same for a WAL suffix that inserts a live id again, in either shard.
#[test]
fn a_wal_suffix_that_repeats_a_live_id_is_refused_in_one_shard_or_two() {
    for lo in [72i64, 1900] {
        let tmp = TempDir::new("durable-wal-repeat");
        two_shard_directory(tmp.path());
        let fs = RealFs::shared();
        let mut wal = ccix_durable::Wal::open(&fs, &tmp.path().join("wal"))
            .expect("open WAL")
            .wal;
        let again = IntervalOp::Insert(Interval::new(lo, lo + 50, 7));
        wal.append_commit(1, &[again]).expect("append");
        wal.sync().expect("sync");
        drop(wal);
        let err = refused_recovery(tmp.path());
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "lo = {lo}");
        assert!(err.to_string().contains("id 7 "), "lo = {lo}: {err}");
    }
}

#[test]
fn durable_acks_survive_a_drop_without_shutdown() {
    let tmp = TempDir::new("durable-drop");
    let idx = IndexBuilder::new(geometry()).open(IoCounter::new());
    let engine = Engine::start(idx, config(tmp.path(), FsyncPolicy::EveryCommits(1)));
    let info = engine
        .submit(vec![IntervalOp::Insert(Interval::new(3, 9, 42))])
        .wait();
    assert_eq!(info.ops_applied, 1);
    // Drop the engine without an orderly shutdown (the handle-loss path):
    // the acknowledged commit must still be on disk.
    drop(engine);
    let (engine, _) =
        Engine::recover(meta(), config(tmp.path(), FsyncPolicy::default())).expect("recover");
    assert_eq!(engine.snapshot().ops_applied(), 1);
    assert!(engine.snapshot().query(5).contains(&42));
    engine.shutdown();
}

// ---- the ack rule under the commit pipeline ---------------------------------
//
// The group's fsync runs on the log thread while the writer applies and
// publishes, so there is a window in which a commit is visible but not yet
// durable. A `GateFs` holds the fsync open to stand inside that window.

/// A durable engine on an empty index whose commit fsyncs park at the
/// returned gate, over a `FailFs` (no injected faults) that traces every
/// filesystem operation the engine issues.
fn gated_engine(dir: &std::path::Path) -> (Engine, GateFs, FailFs) {
    let quiet = FaultPlan {
        crash_after_ops: None,
        short_write: 0.0,
        eintr: 0.0,
    };
    let fs = FailFs::new(RealFs::shared(), 1, quiet);
    let gate = GateFs::new(Arc::new(fs.clone()), "wal");
    let mut cfg = config(dir, FsyncPolicy::default());
    let durability = cfg.durability.as_mut().expect("durable config");
    durability.fs = Arc::new(gate.clone());
    let idx = IndexBuilder::new(geometry()).open(IoCounter::new());
    (Engine::start(idx, cfg), gate, fs)
}

/// Resolve `ticket` on a thread of its own, so the test can ask "has it
/// resolved yet?" without blocking.
fn resolution(ticket: ccix_serve::CommitTicket) -> Receiver<Option<ccix_serve::CommitInfo>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(ticket.wait_result());
    });
    rx
}

fn wal_appends(fs: &FailFs) -> usize {
    let is_append = |op: &ccix_durable::FsOp| op.kind == FsOpKind::Write && op.file == "wal";
    fs.trace().into_iter().filter(is_append).count()
}

fn spin_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::yield_now();
    }
}

#[test]
fn a_commit_is_visible_before_it_is_durable_and_acked_only_after() {
    let tmp = TempDir::new("durable-ack-gate");
    let (engine, gate, fs) = gated_engine(tmp.path());
    gate.hold();
    let first = resolution(engine.submit(vec![IntervalOp::Insert(Interval::new(1, 9, 1))]));
    spin_until("fsync in flight", || gate.is_parked());
    // Published ≠ durable: the epoch is out while the fsync is still held…
    spin_until("epoch published", || engine.snapshot().ops_applied() == 1);
    assert!(engine.snapshot().query(5).contains(&1));
    let appends = wal_appends(&fs);
    // …and a second submission may queue, but the writer is joined on the
    // fsync: no ack, and no filesystem operation of its own meanwhile. (The
    // pause can only make a writer that wrongly ran ahead easier to catch.)
    let second = resolution(engine.submit(vec![IntervalOp::Insert(Interval::new(2, 8, 2))]));
    std::thread::sleep(Duration::from_millis(50));
    assert!(first.try_recv().is_err(), "acked before its fsync returned");
    assert!(second.try_recv().is_err());
    assert_eq!(wal_appends(&fs), appends, "appended during a sync");
    assert_eq!(fs.overlapped_syncs(), 0);
    assert_eq!(engine.snapshot().ops_applied(), 1);

    gate.open();
    let first = first.recv().expect("resolver").expect("first commit acked");
    let second = second
        .recv()
        .expect("resolver")
        .expect("second commit acked");
    assert_eq!((first.ops_applied, second.ops_applied), (1, 2));
    assert_eq!(fs.overlapped_syncs(), 0);
    engine.shutdown();
}

#[test]
fn a_failed_fsync_after_publish_kills_the_engine_without_acking() {
    let tmp = TempDir::new("durable-ack-fail");
    let (engine, gate, _fs) = gated_engine(tmp.path());
    let acked = engine
        .submit(vec![IntervalOp::Insert(Interval::new(1, 9, 1))])
        .wait();
    assert_eq!(acked.ops_applied, 1);

    gate.hold();
    let doomed = resolution(engine.submit(vec![IntervalOp::Insert(Interval::new(2, 8, 2))]));
    spin_until("fsync in flight", || gate.is_parked());
    spin_until("epoch published", || engine.snapshot().ops_applied() == 2);
    gate.fail();
    assert_eq!(
        doomed.recv().expect("resolver"),
        None,
        "acked a failed fsync"
    );
    spin_until("writer dead", || !engine.is_alive());
    assert!(engine.submit_checked(Vec::new()).is_err());
    // Readers keep the last published epoch; nobody was told it is durable.
    assert_eq!(engine.snapshot().ops_applied(), 2);
    engine.shutdown();

    // Recovery lands on a whole-commit prefix that holds everything acked.
    // (The failed fsync's record may or may not have reached the disk.)
    let (engine, _) =
        Engine::recover(meta(), config(tmp.path(), FsyncPolicy::default())).expect("recover");
    let snap = engine.snapshot();
    let want: Vec<Interval> = [Interval::new(1, 9, 1), Interval::new(2, 8, 2)]
        .into_iter()
        .take(snap.ops_applied() as usize)
        .collect();
    assert!(snap.ops_applied() >= acked.ops_applied);
    assert_eq!(content(&snap), want);
    engine.shutdown();
}
