//! Epoch publication and group-committed writes.
//!
//! The [`Engine`] owns the live index — a [`ShardedIntervalIndex`], which
//! an unsharded [`IntervalIndex`] enters as a single-shard pass-through —
//! on a dedicated writer thread. Writes enter through a bounded submission
//! queue; the writer drains whatever has accumulated into one group,
//! splits every submission into per-shard sub-floods, and applies the
//! whole group ([`ShardedIntervalIndex::apply_submissions`]): each shard
//! applies its floods in submission order, then pumps a bounded amount of
//! its own incremental-reorganisation debt — shard by shard on the writer
//! thread for a small group, one worker per shard once the group is large
//! enough to pay for the threads. The writer
//! then **publishes** one new epoch for the whole group: a consistent
//! all-shards [`ShardedIntervalIndex::fork_snapshot`] behind an `Arc`,
//! swapped into the engine's published slot. While the queue is empty the
//! writer keeps bleeding reorganisation debt in bounded slices (the *idle
//! pump*), so quiet periods converge to zero debt — observable via
//! [`Engine::reorg_debt`].
//!
//! # Epoch lifecycle and reclamation
//!
//! An epoch is immutable from the moment it is published. Readers obtain a
//! [`Snapshot`] (an `Arc` clone) and query it without any lock; the writer
//! never blocks on readers and readers never block on the writer. The
//! copy-on-write stores mean consecutive epochs share almost every page
//! and control block; one replaced by a later commit stays alive exactly
//! until the last snapshot that can see it is dropped — `Arc` reference
//! counts *are* the epoch-based reclamation, there is no separate garbage
//! list to pump. The publish lock is held for the swap of one handle: the
//! writer takes the retired epoch out of the slot, resolves the commit's
//! tickets, and only then drops it, so the teardown (if no reader still
//! holds the epoch) is on nobody's path.
//!
//! # Commit visibility
//!
//! [`Engine::submit`] returns a [`CommitTicket`]. The ticket resolves when
//! the epoch containing that submission has been published — from that
//! moment every [`Engine::snapshot`] observes the write. The delay between
//! submission and resolution is the commit-visibility latency the
//! `exp_throughput` experiment reports at p99.
//!
//! # The durable commit pipeline
//!
//! With [`EngineConfig::durability`] set, a commit has two stages on two
//! threads. *Stage one* is the drain loop: it appends each submission to
//! the WAL (log before apply) and nothing else. When the group closes, its
//! one covering fsync starts on the **log thread** — the writer lends it
//! the store — and runs while the writer does *stage two*: apply, fork,
//! publish. The writer then joins the fsync and only after that releases
//! the group's tickets, so a ticket never resolves before its fsync has
//! returned **and** its epoch is published; a failed fsync kills the
//! writer with the epoch out and nothing acknowledged. While a sync is in
//! flight the writer holds no handle on the store, so it cannot issue a
//! filesystem operation beside it: the operation order on disk is the
//! serial one. See `docs/architecture.md` § Durability.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use ccix_durable::{DurabilityConfig, DurableStore, FsyncPolicy, Meta, RecoveryReport};
use ccix_extmem::{BackendSpec, IoCounter};
use ccix_interval::{Interval, IntervalIndex, IntervalOp, ShardedIntervalIndex};

/// One immutable published version of the index.
///
/// Holds a frozen all-shards [`ShardedIntervalIndex::fork_snapshot`] plus
/// the commit coordinates that identify it: `seq` (number of commits, i.e.
/// publishes) and `ops_applied` (total write operations visible in it —
/// always a whole prefix of the submission stream, since submissions are
/// applied atomically and in order, and published together no matter how
/// many shards they fanned out over).
#[derive(Debug)]
pub struct Epoch {
    index: ShardedIntervalIndex,
    seq: u64,
    ops_applied: u64,
}

/// A shared read handle on one [`Epoch`].
///
/// Cloning is an `Arc` bump; every read method takes `&self` and charges
/// the epoch's own [`IoCounter`], so any number of threads can query the
/// same snapshot concurrently while the writer commits new epochs.
#[derive(Clone, Debug)]
pub struct Snapshot(Arc<Epoch>);

impl Snapshot {
    /// Commit number of the underlying epoch (0 = the initial index,
    /// before any group commit).
    pub fn seq(&self) -> u64 {
        self.0.seq
    }

    /// Total write operations visible in this snapshot. Submissions are
    /// applied whole and in order, so this is always a prefix length of
    /// the submission stream — which is what lets the stress suite replay
    /// an oracle to exactly this snapshot's state.
    pub fn ops_applied(&self) -> u64 {
        self.0.ops_applied
    }

    /// Number of intervals stored.
    pub fn len(&self) -> usize {
        self.0.index.len()
    }

    /// True when no intervals are stored.
    pub fn is_empty(&self) -> bool {
        self.0.index.is_empty()
    }

    /// The epoch's own I/O counter, shared by every shard of the snapshot
    /// (reader traffic never pollutes the writer's accounting).
    pub fn counter(&self) -> &IoCounter {
        self.0
            .index
            .shards()
            .next()
            .expect("a directory has a shard")
            .counter()
    }

    /// Number of shards behind this snapshot (1 for an unsharded engine).
    pub fn num_shards(&self) -> usize {
        self.0.index.num_shards()
    }

    /// Ids of all intervals containing `q` (see
    /// [`IntervalIndex::stabbing`]).
    pub fn query(&self, q: i64) -> Vec<u64> {
        self.0.index.stabbing(q)
    }

    /// As [`Snapshot::query`], returning full intervals.
    pub fn query_intervals(&self, q: i64) -> Vec<Interval> {
        self.0.index.stabbing_intervals(q)
    }

    /// Batched stabbing queries (see [`IntervalIndex::stab_batch`]).
    pub fn stab_batch(&self, qs: &[i64]) -> Vec<Vec<u64>> {
        self.0.index.stab_batch(qs)
    }

    /// As [`Snapshot::stab_batch`], reusing `outs` (see
    /// [`IntervalIndex::stab_batch_into`]).
    pub fn stab_batch_into(&self, qs: &[i64], outs: &mut Vec<Vec<u64>>) {
        self.0.index.stab_batch_into(qs, outs)
    }

    /// Intervals whose left endpoint lies in `[x1, x2]` (see
    /// [`IntervalIndex::left_range`]).
    pub fn x_range(&self, x1: i64, x2: i64) -> Vec<Interval> {
        self.0.index.left_range(x1, x2)
    }

    /// Ids of all intervals intersecting `[q1, q2]` (see
    /// [`IntervalIndex::intersecting`]).
    pub fn intersecting(&self, q1: i64, q2: i64) -> Vec<u64> {
        self.0.index.intersecting(q1, q2)
    }
}

/// Where a committed submission became visible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitInfo {
    /// The publishing epoch's commit number.
    pub seq: u64,
    /// Total operations applied up to and including this submission.
    pub ops_applied: u64,
}

/// Resolves when the submission it was issued for is visible to every new
/// [`Engine::snapshot`].
#[derive(Debug)]
pub struct CommitTicket {
    rx: Receiver<CommitInfo>,
}

impl CommitTicket {
    /// Block until the submission's epoch is published.
    ///
    /// # Panics
    /// Panics if the engine shut down before committing the submission.
    pub fn wait(self) -> CommitInfo {
        self.rx
            .recv()
            .expect("engine dropped uncommitted submission")
    }

    /// Block until the commit resolves, or return `None` if the engine
    /// died (or shut down) without committing the submission — with
    /// durability enabled, that means the write may or may not survive
    /// recovery, but was never acknowledged. The non-panicking wait the
    /// crash suite (and any robust client) uses.
    pub fn wait_result(self) -> Option<CommitInfo> {
        self.rx.recv().ok()
    }
}

/// Writer-side configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Capacity of the bounded submission queue, in submissions.
    /// [`Engine::submit`] blocks when full — backpressure instead of
    /// unbounded memory.
    pub queue_depth: usize,
    /// Upper bound on operations drained into one group commit; a commit
    /// closes early when the queue runs dry.
    pub group_max_ops: usize,
    /// Reorganisation pump budget, in [`IntervalIndex::pump_reorg_step`]
    /// slices, applied **per shard** after each group commit (each shard
    /// worker bleeds its own debt in parallel) and per idle wakeup while
    /// the queue is empty. Bounds the extra publish latency a background
    /// shrink job may add to any single commit.
    pub reorg_pump_slices: usize,
    /// Write-ahead logging and checkpointing. `None` (the default) keeps
    /// the engine fully volatile with byte-identical behaviour to earlier
    /// versions; `Some` makes commit tickets resolve at **durable**
    /// visibility — a resolved ticket survives any crash-and-recover.
    pub durability: Option<DurabilityConfig>,
    /// Page backend for indexes the engine itself constructs — i.e. the
    /// [`Engine::recover`]/[`Engine::recover_sharded`] rebuild (recovery
    /// is logical: checkpoint + folded WAL suffix rebuild the index's contents as
    /// fresh page files under a [`BackendSpec::File`] directory). Ignored
    /// by [`Engine::start`]-family constructors, which take an index the
    /// caller already built on whatever backend it chose (e.g.
    /// `IndexBuilder::file_backed`). Composes with `durability`: the WAL
    /// and checkpoint protocol is identical on both backends.
    pub backend: BackendSpec,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            queue_depth: 64,
            group_max_ops: 4096,
            reorg_pump_slices: 64,
            durability: None,
            backend: BackendSpec::Model,
        }
    }
}

enum Submission {
    Apply(Vec<IntervalOp>, Sender<CommitInfo>),
    /// Publish an epoch even if no ops are pending (a commit barrier).
    Flush(Sender<CommitInfo>),
    Shutdown,
}

/// The serving engine: one writer thread, any number of snapshot readers.
///
/// ```
/// use ccix_extmem::{Geometry, IoCounter};
/// use ccix_interval::{IndexBuilder, Interval, IntervalOp};
/// use ccix_serve::{Engine, EngineConfig};
///
/// let idx = IndexBuilder::new(Geometry::new(16))
///     .bulk(IoCounter::new(), &[Interval::new(1, 5, 7)]);
/// let engine = Engine::start(idx, EngineConfig::default());
/// let ticket = engine.submit(vec![IntervalOp::Insert(Interval::new(2, 9, 8))]);
/// ticket.wait();
/// let snap = engine.snapshot();
/// let mut hits = snap.query(3);
/// hits.sort_unstable();
/// assert_eq!(hits, vec![7, 8]);
/// engine.shutdown();
/// ```
#[derive(Debug)]
pub struct Engine {
    published: Arc<RwLock<Arc<Epoch>>>,
    tx: SyncSender<Submission>,
    /// Mirrors the published epoch's seq for lock-free progress checks.
    seq: Arc<AtomicU64>,
    /// Mirrors the live index's total reorganisation debt (updated by the
    /// writer after every group commit and idle-pump round).
    debt: Arc<AtomicU64>,
    writer: Option<JoinHandle<ShardedIntervalIndex>>,
}

impl Engine {
    /// Take ownership of `index` and start the writer thread, serving it
    /// as a single shard. The initial epoch (seq 0) is published
    /// immediately.
    ///
    /// # Panics
    /// Panics if [`EngineConfig::durability`] is set and initialising the
    /// durable directory fails (use [`Engine::try_start`] to handle the
    /// error, and [`Engine::recover`] for a directory that already holds
    /// state).
    pub fn start(index: IntervalIndex, config: EngineConfig) -> Self {
        Self::try_start(index, config).expect("initialise durable directory")
    }

    /// As [`Engine::start`], but serve an x-range sharded index: each
    /// group commit is split into per-shard sub-floods applied in
    /// parallel, and every epoch snapshots all shards consistently.
    ///
    /// # Panics
    /// As [`Engine::start`].
    pub fn start_sharded(index: ShardedIntervalIndex, config: EngineConfig) -> Self {
        Self::try_start_sharded(index, config).expect("initialise durable directory")
    }

    /// As [`Engine::start`], surfacing durable-directory initialisation
    /// errors instead of panicking. With durability enabled the directory
    /// must be fresh (no WAL): the genesis checkpoint records the index's
    /// construction options and starting content, so a later
    /// [`Engine::recover`] rebuilds it identically.
    pub fn try_start(index: IntervalIndex, config: EngineConfig) -> io::Result<Self> {
        Self::try_start_sharded(ShardedIntervalIndex::from_single(index), config)
    }

    /// As [`Engine::start_sharded`], surfacing durable-directory
    /// initialisation errors instead of panicking. The genesis checkpoint
    /// records the split points alongside the construction options, so a
    /// later [`Engine::recover_sharded`] restores the same sharding.
    pub fn try_start_sharded(
        index: ShardedIntervalIndex,
        config: EngineConfig,
    ) -> io::Result<Self> {
        let durable = match &config.durability {
            None => None,
            Some(dcfg) => {
                let meta = Meta::new(index.geometry(), index.options());
                let content = if index.is_empty() {
                    Vec::new()
                } else {
                    live_content(&index)
                };
                let store = DurableStore::create(dcfg, meta, index.splits(), &content)?;
                Some(store)
            }
        };
        Ok(Self::start_inner(index, config, durable, 0))
    }

    /// Bring an engine up from a durable directory: load the newest valid
    /// checkpoint, fold the WAL suffix into its content shard by shard
    /// ([`ccix_durable::Recovered::try_rebuild_sharded_on`]), bulk-load
    /// each shard once (at its recorded sharding), and start
    /// serving — from a static tree, with nothing replayed. A torn or
    /// garbage WAL tail is truncated, never an error; checksummed content
    /// that holds a live id twice is [`io::ErrorKind::InvalidData`].
    /// `fallback` supplies
    /// the construction parameters when the directory has no checkpoint
    /// yet (it was never fully initialised — nothing was ever acknowledged
    /// from it); the fallback is unsharded — see
    /// [`Engine::recover_sharded`] to shard a fresh directory.
    ///
    /// # Panics
    /// Panics if [`EngineConfig::durability`] is `None`.
    pub fn recover(fallback: Meta, config: EngineConfig) -> io::Result<(Self, RecoveryReport)> {
        Self::recover_sharded(fallback, &[], config)
    }

    /// As [`Engine::recover`], with explicit fallback split points for the
    /// no-checkpoint case. A directory that does hold a checkpoint always
    /// recovers the sharding it recorded — `fallback_splits` is ignored
    /// then, exactly as `fallback`'s other parameters are.
    pub fn recover_sharded(
        fallback: Meta,
        fallback_splits: &[i64],
        config: EngineConfig,
    ) -> io::Result<(Self, RecoveryReport)> {
        let dcfg = config
            .durability
            .as_ref()
            .expect("Engine::recover requires EngineConfig::durability")
            .clone();
        let (store, recovered) = DurableStore::open_or_create(&dcfg, fallback)?;
        let index = recovered.try_rebuild_sharded_on(&config.backend, fallback, fallback_splits)?;
        let ops_applied = recovered.ops_applied();
        let report = recovered.report;
        Ok((
            Self::start_inner(index, config, Some(store), ops_applied),
            report,
        ))
    }

    fn start_inner(
        index: ShardedIntervalIndex,
        config: EngineConfig,
        durable: Option<DurableStore>,
        ops_applied: u64,
    ) -> Self {
        assert!(config.queue_depth > 0, "queue depth must be positive");
        assert!(config.group_max_ops > 0, "group size must be positive");
        let epoch0 = Arc::new(Epoch {
            index: index.fork_snapshot(IoCounter::new()),
            seq: 0,
            ops_applied,
        });
        let published = Arc::new(RwLock::new(epoch0));
        let (tx, rx) = sync_channel(config.queue_depth);
        let seq = Arc::new(AtomicU64::new(0));
        let debt = Arc::new(AtomicU64::new(index.reorg_debt()));
        let writer = {
            let published = Arc::clone(&published);
            let seq = Arc::clone(&seq);
            let debt = Arc::clone(&debt);
            std::thread::Builder::new()
                .name("ccix-serve-writer".into())
                .spawn(move || {
                    writer_loop(
                        index,
                        rx,
                        published,
                        seq,
                        debt,
                        config,
                        durable,
                        ops_applied,
                    )
                })
                .expect("spawn writer thread")
        };
        Self {
            published,
            tx,
            seq,
            debt,
            writer: Some(writer),
        }
    }

    /// Whether the writer thread is still running. `false` after a fatal
    /// durability error (the writer stops acknowledging and exits rather
    /// than acknowledge a commit it cannot make durable).
    pub fn is_alive(&self) -> bool {
        self.writer.as_ref().is_some_and(|h| !h.is_finished())
    }

    /// The newest published epoch as a read handle. Lock held only for the
    /// `Arc` clone.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(Arc::clone(&self.published.read().expect("publish lock")))
    }

    /// Commit number of the newest published epoch, without touching the
    /// publish lock.
    pub fn seq(&self) -> u64 {
        self.seq.load(Relaxed)
    }

    /// Total deferred reorganisation debt across every shard of the live
    /// index, as last reported by the writer (after each group commit and
    /// each idle-pump round). Converges to zero while the queue stays
    /// empty: the writer's idle pump keeps bleeding debt in
    /// [`EngineConfig::reorg_pump_slices`]-bounded rounds between polls
    /// for new work.
    pub fn reorg_debt(&self) -> u64 {
        self.debt.load(Relaxed)
    }

    /// Enqueue a batch of write operations as one atomic submission.
    /// Blocks while the submission queue is full (backpressure). Ops
    /// within the submission must be independent (the
    /// [`IntervalIndex::apply_batch`] contract); independence across
    /// submissions is not required — each is applied as its own flood, in
    /// submission order.
    pub fn submit(&self, ops: Vec<IntervalOp>) -> CommitTicket {
        let (ack, rx) = mpsc::channel();
        self.tx
            .send(Submission::Apply(ops, ack))
            .expect("writer thread gone");
        CommitTicket { rx }
    }

    /// As [`Engine::submit`], but fail fast instead of blocking when the
    /// queue is full. Returns the ops back on `Err`.
    pub fn try_submit(&self, ops: Vec<IntervalOp>) -> Result<CommitTicket, Vec<IntervalOp>> {
        let (ack, rx) = mpsc::channel();
        match self.tx.try_send(Submission::Apply(ops, ack)) {
            Ok(()) => Ok(CommitTicket { rx }),
            Err(TrySendError::Full(Submission::Apply(ops, _))) => Err(ops),
            Err(_) => panic!("writer thread gone"),
        }
    }

    /// As [`Engine::submit`], but return the ops back instead of panicking
    /// when the writer is gone (shut down, or dead after a fatal
    /// durability error).
    pub fn submit_checked(&self, ops: Vec<IntervalOp>) -> Result<CommitTicket, Vec<IntervalOp>> {
        let (ack, rx) = mpsc::channel();
        match self.tx.send(Submission::Apply(ops, ack)) {
            Ok(()) => Ok(CommitTicket { rx }),
            Err(mpsc::SendError(Submission::Apply(ops, _))) => Err(ops),
            Err(_) => unreachable!("send returns the submission it failed to send"),
        }
    }

    /// Commit barrier: resolves once everything submitted before it is
    /// published (and, with durability enabled, durable).
    pub fn flush(&self) -> CommitInfo {
        self.flush_checked().expect("writer thread gone")
    }

    /// As [`Engine::flush`], returning `None` instead of panicking when
    /// the writer is gone.
    pub fn flush_checked(&self) -> Option<CommitInfo> {
        let (ack, rx) = mpsc::channel();
        self.tx.send(Submission::Flush(ack)).ok()?;
        rx.recv().ok()
    }

    /// Stop the writer after it drains everything already queued, and take
    /// the live index back. Safe to call on an engine whose writer already
    /// died of a durability error — the partially-applied index comes
    /// back either way.
    ///
    /// # Panics
    /// Panics on an engine serving more than one shard — take the whole
    /// directory back with [`Engine::shutdown_sharded`] instead.
    pub fn shutdown(self) -> IntervalIndex {
        let mut shards = self.shutdown_sharded().into_shards();
        assert_eq!(
            shards.len(),
            1,
            "shutdown() on a multi-shard engine; use shutdown_sharded()"
        );
        shards.pop().expect("exactly one shard")
    }

    /// As [`Engine::shutdown`], returning the sharded index whole (any
    /// shard count).
    pub fn shutdown_sharded(mut self) -> ShardedIntervalIndex {
        let _ = self.tx.send(Submission::Shutdown);
        self.writer
            .take()
            .expect("writer already joined")
            .join()
            .expect("writer thread panicked")
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if let Some(h) = self.writer.take() {
            let _ = self.tx.send(Submission::Shutdown);
            let _ = h.join();
        }
    }
}

/// Extract the live interval set of `index` (for checkpoints) from a
/// private snapshot, so the scan never charges a published epoch's
/// counter.
fn live_content(index: &ShardedIntervalIndex) -> Vec<Interval> {
    index
        .fork_snapshot(IoCounter::new())
        .left_range(i64::MIN, i64::MAX)
}

/// Swap `epoch` into the published slot and hand the retired epoch back
/// **alive**, with the publish lock already released: the write guard lives
/// for the swap of one handle and nothing else, so an [`Engine::snapshot`]
/// never waits on an epoch's teardown. The caller drops the retired handle
/// once the commit's tickets are resolved.
#[must_use = "drop the retired epoch after resolving the commit's tickets"]
fn publish(published: &RwLock<Arc<Epoch>>, epoch: Arc<Epoch>) -> Arc<Epoch> {
    std::mem::replace(&mut *published.write().expect("publish lock"), epoch)
}

/// The log thread: stage two's other half. It is lent the store for one
/// fsync at a time and hands it back with the result, so the group's sync
/// runs while the writer applies, forks and publishes. A thread of its own
/// rather than a spawn per group: the spawn sat on the commit's critical
/// path (measured in `docs/tuning.md` § Commit pipeline).
struct LogThread {
    /// Dropped to stop the thread.
    lend: Option<Sender<DurableStore>>,
    back: Receiver<(DurableStore, io::Result<()>)>,
    thread: Option<JoinHandle<()>>,
}

impl LogThread {
    fn spawn() -> Self {
        let (lend, lent) = mpsc::channel::<DurableStore>();
        let (give_back, back) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("ccix-serve-log".into())
            .spawn(move || {
                for mut store in lent {
                    let synced = store.sync();
                    if give_back.send((store, synced)).is_err() {
                        return; // the writer is gone
                    }
                }
            })
            .expect("spawn log thread");
        Self {
            lend: Some(lend),
            back,
            thread: Some(thread),
        }
    }
}

impl Drop for LogThread {
    fn drop(&mut self) {
        drop(self.lend.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The writer thread's durable half: WAL + checkpoint store, the acks
/// parked until their covering fsync, and the fsync batching state.
struct DurableState {
    /// `None` exactly while the log thread holds the store for a sync:
    /// the writer *cannot* issue a filesystem operation while one is in
    /// flight, so the order of filesystem operations is the serial one.
    store: Option<DurableStore>,
    log: LogThread,
    fsync: FsyncPolicy,
    /// Acks withheld until the WAL records covering them are synced.
    pending: Vec<(Sender<CommitInfo>, CommitInfo)>,
    /// Commits appended since the last fsync (drives `EveryCommits`).
    appended_since_sync: u32,
    /// When the oldest unsynced append happened (drives `Group`'s delay
    /// bound under sustained backlog).
    oldest_unsynced: Option<Instant>,
}

impl DurableState {
    fn store(&mut self) -> &mut DurableStore {
        self.store.as_mut().expect("a sync is in flight")
    }

    fn has_unsynced(&self) -> bool {
        let store = self.store.as_ref().expect("a sync is in flight");
        store.has_unsynced()
    }

    /// Log one submission ahead of its apply. **Not durable** until the
    /// group's fsync.
    fn append(&mut self, ops: &[IntervalOp]) -> io::Result<()> {
        self.store().append_commit(ops)?;
        self.appended_since_sync += 1;
        self.oldest_unsynced.get_or_insert_with(Instant::now);
        Ok(())
    }

    /// Whether the group that just closed owes an fsync. Decided when the
    /// drain loop ends — before the group is applied — so the fsync can
    /// run while the writer applies, forks and publishes. `barrier` is the
    /// group-commit trigger: the queue ran dry (nothing left to amortise
    /// against), an explicit flush, or shutdown. Otherwise the policy
    /// decides: `EveryCommits(n)` once `n` commits are waiting (one fsync
    /// for the group, however many multiples of `n` it holds), `Group` once
    /// the oldest of them has waited out the delay bound.
    fn sync_due(&self, barrier: bool) -> bool {
        self.has_unsynced()
            && (barrier
                || match self.fsync {
                    FsyncPolicy::EveryCommits(n) => self.appended_since_sync >= n.max(1),
                    FsyncPolicy::Group { max_delay_ms } => self
                        .oldest_unsynced
                        .is_some_and(|t| t.elapsed().as_millis() as u64 >= max_delay_ms),
                })
    }

    /// Hand the store to the log thread for the group's fsync.
    fn start_sync(&mut self) {
        let store = self.store.take().expect("one sync at a time");
        let lend = self.log.lend.as_ref().expect("log thread runs until drop");
        lend.send(store).expect("log thread gone");
    }

    /// Join the fsync started by [`DurableState::start_sync`], if one is in
    /// flight, and take the store back. Any error is fatal to the writer.
    fn finish_sync(&mut self) -> io::Result<()> {
        if self.store.is_some() {
            return Ok(());
        }
        let (store, synced) = self.log.back.recv().expect("log thread panicked");
        self.store = Some(store);
        synced
    }

    /// The covering fsync has returned and the epoch is published: nothing
    /// appended is waiting any more, so every parked ack may leave.
    fn release(&mut self) {
        debug_assert!(!self.has_unsynced(), "ack before its fsync");
        self.appended_since_sync = 0;
        self.oldest_unsynced = None;
        for (ack, info) in self.pending.drain(..) {
            let _ = ack.send(info);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn writer_loop(
    mut index: ShardedIntervalIndex,
    rx: Receiver<Submission>,
    published: Arc<RwLock<Arc<Epoch>>>,
    seq: Arc<AtomicU64>,
    debt: Arc<AtomicU64>,
    config: EngineConfig,
    durable: Option<DurableStore>,
    initial_ops: u64,
) -> ShardedIntervalIndex {
    let mut cur_seq = 0u64;
    let mut ops_applied = initial_ops;
    let mut durable = durable.map(|store| DurableState {
        store: Some(store),
        log: LogThread::spawn(),
        fsync: config
            .durability
            .as_ref()
            .map(|d| d.fsync)
            .unwrap_or_default(),
        pending: Vec::new(),
        appended_since_sync: 0,
        oldest_unsynced: None,
    });
    // A submission taken off the queue after its predecessor filled the
    // group budget: it opens the next group.
    let mut carry: Option<Submission> = None;
    'serve: loop {
        // Block for the first submission of the group…
        let first = match carry.take().map_or_else(|| rx.try_recv(), Ok) {
            Ok(s) => s,
            Err(TryRecvError::Disconnected) => break 'serve,
            Err(TryRecvError::Empty) => {
                // Idle pump: while the queue stays empty, keep bleeding
                // reorganisation debt in bounded rounds, polling for new
                // work between rounds. Quiet periods therefore converge to
                // zero debt instead of carrying it into the next write
                // burst. No ack is parked here: a group that closes on an
                // empty queue always syncs.
                let mut woke = None;
                while index.reorg_debt() > 0 {
                    let remaining = index.pump_reorg(config.reorg_pump_slices);
                    debt.store(remaining, Relaxed);
                    match rx.try_recv() {
                        Ok(s) => {
                            woke = Some(s);
                            break;
                        }
                        Err(TryRecvError::Disconnected) => break 'serve,
                        Err(TryRecvError::Empty) => {}
                    }
                }
                match woke {
                    Some(s) => s,
                    None => match rx.recv() {
                        Ok(s) => s,
                        Err(_) => break 'serve, // every Engine handle dropped
                    },
                }
            }
        };
        let mut group_ops = 0usize;
        let mut shutdown = false;
        let mut flush_requested = false;
        // This group's acks, resolved after its epoch publishes (volatile)
        // or after that and the covering fsync (durable).
        let mut acks: Vec<(Sender<CommitInfo>, u64)> = Vec::new();
        // The group's submissions, each one sorted flood of its own (the
        // batch-independence contract holds within a submission, not
        // across them). Logged at drain time, applied once the group
        // closes.
        let mut group: Vec<Vec<IntervalOp>> = Vec::new();
        let mut sub = first;
        // …then opportunistically drain what else has queued up, bounded
        // by the group budget: that's the group commit. Stage one of the
        // commit pipeline — it only appends.
        let drained_empty = loop {
            match sub {
                Submission::Apply(ops, ack) => {
                    if let Some(d) = durable.as_mut() {
                        // Log before apply: the WAL holds every operation
                        // the in-memory index will ever see, so no
                        // acknowledged (or even applied) write can outrun
                        // the log. On a fatal log error, apply the floods
                        // that *did* reach the WAL — the partially-applied
                        // index a later shutdown() hands back must match a
                        // log prefix — then die without acking.
                        if d.append(&ops).is_err() {
                            index.apply_submissions(&group, 0);
                            return index;
                        }
                    }
                    ops_applied += ops.len() as u64;
                    group_ops += ops.len();
                    group.push(ops);
                    acks.push((ack, ops_applied));
                }
                Submission::Flush(ack) => {
                    flush_requested = true;
                    acks.push((ack, ops_applied));
                }
                Submission::Shutdown => {
                    shutdown = true;
                    break false;
                }
            }
            match rx.try_recv() {
                Ok(next) if group_ops >= config.group_max_ops => {
                    carry = Some(next);
                    break false;
                }
                Ok(next) => sub = next,
                Err(_) => break true,
            }
        };
        // Stage two: everything the sync decision needs is known, so the
        // group's one fsync starts now, on the log thread, and runs while
        // this thread applies, forks and publishes.
        let barrier = drained_empty || flush_requested || shutdown;
        if let Some(d) = durable.as_mut().filter(|d| d.sync_due(barrier)) {
            d.start_sync();
        }
        // Apply the whole group: every submission splits into per-shard
        // sub-floods, each shard applies its floods in submission order
        // and then pumps a bounded slice of its own reorganisation debt —
        // so background shrink jobs advance on all shards even while write
        // traffic is saturating, and publish latency stays bounded.
        index.apply_submissions(&group, config.reorg_pump_slices);
        debt.store(index.reorg_debt(), Relaxed);
        // Publish one epoch for the whole group.
        cur_seq += 1;
        let retired = publish(
            &published,
            Arc::new(Epoch {
                index: index.fork_snapshot(IoCounter::new()),
                seq: cur_seq,
                ops_applied,
            }),
        );
        seq.store(cur_seq, Relaxed);
        // Resolve the group's tickets.
        let acks = acks.into_iter().map(|(ack, visible_at)| {
            let info = CommitInfo {
                seq: cur_seq,
                ops_applied: visible_at,
            };
            (ack, info)
        });
        match durable.as_mut() {
            // Volatile: published == committed; ack immediately.
            None => acks.for_each(|(ack, info)| {
                let _ = ack.send(info);
            }),
            // Durable: published ≠ committed. Join the fsync — before any
            // further filesystem operation — and only then let the acks it
            // covers leave; a failed fsync kills the writer with the epoch
            // published and nothing acknowledged.
            Some(d) => {
                d.pending.extend(acks);
                if d.finish_sync().is_err() {
                    return index;
                }
                if !d.has_unsynced() {
                    d.release();
                }
            }
        }
        // Only now let go of the retired epoch: if no reader still holds it,
        // its teardown (every chunk, page and control block this commit
        // replaced) runs here — off the publish lock and after the acks, so
        // neither `Engine::snapshot` nor a waiting client pays for it.
        drop(retired);
        if let Some(d) = durable.as_mut() {
            // Checkpoint at flush/shutdown barriers and every
            // `checkpoint_every_ops` logged operations; each one snapshots
            // the live content and truncates the WAL.
            if flush_requested || shutdown || d.store().wants_checkpoint() {
                let meta = Meta::new(index.geometry(), index.options());
                if d.store()
                    .checkpoint(meta, index.splits(), &live_content(&index))
                    .is_err()
                {
                    return index;
                }
            }
        }
        if shutdown {
            break 'serve;
        }
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccix_extmem::Geometry;
    use ccix_interval::IndexBuilder;

    fn ivs(n: usize) -> Vec<Interval> {
        (0..n)
            .map(|i| {
                let lo = (i as i64 * 37) % 400;
                Interval::new(lo, lo + (i as i64 * 13) % 60, i as u64)
            })
            .collect()
    }

    #[test]
    fn snapshots_are_stable_across_commits() {
        let idx = IndexBuilder::new(Geometry::new(8)).bulk(IoCounter::new(), &ivs(200));
        let engine = Engine::start(idx, EngineConfig::default());
        let before = engine.snapshot();
        let expect = before.query(50);
        engine
            .submit(vec![IntervalOp::Insert(Interval::new(0, 399, 10_000))])
            .wait();
        let after = engine.snapshot();
        assert_eq!(before.query(50), expect, "old epoch is frozen");
        assert!(after.query(50).contains(&10_000), "new epoch sees commit");
        assert!(after.seq() > before.seq());
        engine.shutdown();
    }

    #[test]
    fn tickets_resolve_at_visibility() {
        let idx = IndexBuilder::new(Geometry::new(8)).open(IoCounter::new());
        let engine = Engine::start(idx, EngineConfig::default());
        let info = engine
            .submit(vec![
                IntervalOp::Insert(Interval::new(1, 5, 1)),
                IntervalOp::Insert(Interval::new(2, 6, 2)),
            ])
            .wait();
        assert_eq!(info.ops_applied, 2);
        let snap = engine.snapshot();
        assert!(snap.ops_applied() >= info.ops_applied);
        assert_eq!(snap.len(), 2);
        let final_index = engine.shutdown();
        assert_eq!(final_index.len(), 2);
    }

    #[test]
    fn publish_returns_the_retired_epoch_alive_and_the_lock_free() {
        let idx = ShardedIntervalIndex::from_single(
            IndexBuilder::new(Geometry::new(8)).bulk(IoCounter::new(), &ivs(200)),
        );
        let epoch = |seq| {
            Arc::new(Epoch {
                index: idx.fork_snapshot(IoCounter::new()),
                seq,
                ops_applied: 0,
            })
        };
        let published = RwLock::new(epoch(0));
        let retired = publish(&published, epoch(1));
        assert_eq!(retired.seq, 0);
        assert_eq!(
            Arc::strong_count(&retired),
            1,
            "the swap dropped nothing: the teardown is the caller's, after its acks"
        );
        assert!(
            published.try_write().is_ok(),
            "the guard did not outlive the swap"
        );
        assert_eq!(published.read().expect("publish lock").seq, 1);
    }

    #[test]
    fn a_reader_tears_a_retired_epoch_down_without_the_publish_lock() {
        let idx = IndexBuilder::new(Geometry::new(8)).bulk(IoCounter::new(), &ivs(200));
        let engine = Engine::start(idx, EngineConfig::default());
        // The reader holds the only handle on epoch 0 besides the slot.
        let old = engine.snapshot();
        assert_eq!(Arc::strong_count(&old.0), 2);
        let commit = |id| {
            engine
                .submit(vec![IntervalOp::Insert(Interval::new(0, 399, id))])
                .wait()
        };
        assert_eq!(commit(10_000).seq, 1);
        // The ticket resolves before the writer lets go of the retired
        // epoch; wait for that handle, not for a clock.
        while Arc::strong_count(&old.0) > 1 {
            std::thread::yield_now();
        }
        // Epoch 0 is now the reader's alone: its whole teardown runs in this
        // drop, on this thread, and the publish lock is nobody's meanwhile.
        assert!(engine.published.try_write().is_ok());
        drop(old);
        assert!(engine.published.try_write().is_ok());
        assert_eq!(commit(10_001).seq, 2, "the writer never noticed");
        assert!(engine.snapshot().query(50).contains(&10_001));
        engine.shutdown();
    }

    #[test]
    fn flush_is_a_commit_barrier() {
        let idx = IndexBuilder::new(Geometry::new(8)).open(IoCounter::new());
        let engine = Engine::start(idx, EngineConfig::default());
        for i in 0..10 {
            let _ = engine.submit(vec![IntervalOp::Insert(Interval::new(i, i + 3, i as u64))]);
        }
        let info = engine.flush();
        assert_eq!(info.ops_applied, 10, "flush sees everything before it");
        assert_eq!(engine.snapshot().len(), 10);
        engine.shutdown();
    }
}
