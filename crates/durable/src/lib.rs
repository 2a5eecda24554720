//! # `ccix-durable` — durability for the serving engine
//!
//! The index stack (`ccix-core`, `ccix-interval`) is an in-memory
//! simulator of the paper's external-memory structures; the serving layer
//! (`ccix-serve`) runs real concurrent traffic over it. This crate closes
//! the remaining gap to a storage engine: **acknowledged writes survive a
//! crash**.
//!
//! The design is logical, not physical:
//!
//! * a [`wal::Wal`] records every committed batch (length-prefixed,
//!   CRC-framed, group-fsynced) *before* it is acknowledged;
//! * a [`checkpoint::Checkpoint`] periodically snapshots the index's live
//!   content plus its construction [`checkpoint::Meta`], then truncates
//!   the log;
//! * recovery ([`DurableStore::open`]) loads the newest valid checkpoint
//!   and the WAL suffix, tolerating a torn or garbage tail (a crash
//!   artifact, never an error); [`Recovered::try_rebuild_sharded_on`]
//!   folds the suffix into the checkpoint's content shard by shard and
//!   rebuilds the index with one static bulk load per shard.
//!
//! The recovery invariant — **acknowledged ⇒ recovered; torn tail ⇒
//! truncated** — is enforced, not assumed: the [`fault::FailFs`]
//! power-loss simulator drives a differential suite (in `ccix-serve`)
//! that kills the engine at hundreds of deterministic points mid-flood
//! and asserts exact agreement with an oracle replay of the acknowledged
//! prefix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod fault;
pub mod wal;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ccix_extmem::{BackendSpec, IoCounter};
use ccix_interval::{
    IndexBuilder, Interval, IntervalIndex, IntervalOp, RepeatedId, ShardedIntervalIndex,
};

pub use ccix_extmem::fs::{Fs, RawFile, RealFs};
pub use checkpoint::{Checkpoint, Meta};
pub use fault::{FailFs, FaultPlan, FsOp, FsOpKind, GateFs, TempDir};
pub use wal::{CommitRecord, Wal};

/// CRC-32 (IEEE 802.3, reflected) — the checksum framing every WAL record
/// and checkpoint body. Slicing-by-16: sixteen tables built at compile
/// time fold sixteen bytes per step, so the loop-carried dependency is one
/// step per 16 bytes instead of one per byte; the tail runs bytewise on
/// the first table, the classic algorithm.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 16] = {
        let mut tables = [[0u32; 256]; 16];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            tables[0][i] = c;
            i += 1;
        }
        // `tables[t][i]`: the CRC of byte `i` followed by `t` zero bytes.
        let mut t = 1;
        while t < 16 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[t - 1][i];
                tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
                i += 1;
            }
            t += 1;
        }
        tables
    };
    let mut crc = !0u32;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let mut bytes: [u8; 16] = block.try_into().expect("a 16-byte block");
        let head = crc ^ u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        bytes[..4].copy_from_slice(&head.to_le_bytes());
        // Byte `j` has `15 − j` bytes after it in the block.
        crc = (bytes.iter().enumerate()).fold(0, |acc, (j, &b)| acc ^ TABLES[15 - j][b as usize]);
    }
    for &b in blocks.remainder() {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// When the WAL is fsynced relative to commit acknowledgement.
///
/// Every policy preserves the invariant (no ack before the covering
/// fsync); they trade latency against fsync amortisation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every `n` appended commits (n ≥ 1). `EveryCommits(1)`
    /// is classic synchronous commit.
    EveryCommits(u32),
    /// Group commit: fsync when the submission queue drains or
    /// `max_delay_ms` has elapsed since the oldest unacknowledged append,
    /// whichever comes first. Amortises one fsync over a whole burst.
    Group {
        /// Upper bound on how long an append may wait for its fsync.
        max_delay_ms: u64,
    },
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::Group { max_delay_ms: 10 }
    }
}

/// Configuration for a durable directory.
#[derive(Clone)]
pub struct DurabilityConfig {
    /// Directory holding the `wal` and `checkpoint` files (created if
    /// missing).
    pub dir: PathBuf,
    /// Fsync batching policy.
    pub fsync: FsyncPolicy,
    /// Write a checkpoint (and truncate the WAL) once this many
    /// operations have been logged since the last one. `0` disables
    /// count-triggered checkpoints (they still happen at flush/shutdown).
    pub checkpoint_every_ops: u64,
    /// The filesystem to write through — [`RealFs`] in production, a
    /// [`FailFs`] in crash tests.
    pub fs: Arc<dyn Fs>,
}

impl std::fmt::Debug for DurabilityConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityConfig")
            .field("dir", &self.dir)
            .field("fsync", &self.fsync)
            .field("checkpoint_every_ops", &self.checkpoint_every_ops)
            .finish_non_exhaustive()
    }
}

impl DurabilityConfig {
    /// Durability in `dir` with default policies on the real filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
            checkpoint_every_ops: 50_000,
            fs: RealFs::shared(),
        }
    }
}

/// What [`DurableStore::open`] recovered, before any rebuild.
#[derive(Debug)]
pub struct Recovered {
    /// The newest checkpoint, if one was ever written.
    pub checkpoint: Option<Checkpoint>,
    /// WAL records strictly newer than the checkpoint watermark, in
    /// commit order.
    pub replay: Vec<CommitRecord>,
    /// Diagnostics for logs and tests.
    pub report: RecoveryReport,
}

/// Diagnostics from a recovery pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Operation watermark of the loaded checkpoint (0 if none).
    pub checkpoint_ops: u64,
    /// Intervals restored from the checkpoint.
    pub checkpoint_intervals: usize,
    /// WAL commit records replayed.
    pub replayed_commits: usize,
    /// Operations contained in the replayed records.
    pub replayed_ops: u64,
    /// Bytes discarded from a torn or corrupt WAL tail.
    pub torn_tail_bytes: u64,
    /// Stale WAL records skipped (already covered by the checkpoint).
    pub stale_commits: usize,
}

impl Recovered {
    /// Cumulative operation count once the WAL suffix is folded in.
    pub fn ops_applied(&self) -> u64 {
        self.replay
            .last()
            .map(|r| r.ops_after)
            .unwrap_or(self.report.checkpoint_ops)
    }

    /// Deterministically rebuild the index this state describes: one
    /// static bulk load of the checkpoint's intervals with the WAL suffix
    /// folded in, with the checkpointed [`Meta`] (or `fallback` for a
    /// pre-checkpoint directory). The suffix is folded in, never replayed
    /// through the dynamic side, so the recovered tree carries no buffered
    /// updates or tombstones: see [`Recovered::try_rebuild_sharded_on`] for
    /// the fold.
    ///
    /// # Panics
    /// Panics if the folded content holds an id twice.
    pub fn rebuild(&self, counter: IoCounter, fallback: Meta) -> IntervalIndex {
        self.rebuild_on(&BackendSpec::Model, counter, fallback)
    }

    /// As [`Recovered::rebuild`], on an explicit page backend. Recovery is
    /// *logical* — the checkpoint + folded WAL suffix reproduce the
    /// index's contents, not its page file — so a file-backed rebuild
    /// writes a fresh page file under the spec's directory rather than
    /// reopening an old one; the old file (if any) is garbage a caller may
    /// unlink.
    ///
    /// # Panics
    /// Panics if the folded content holds an id twice.
    pub fn rebuild_on(
        &self,
        spec: &BackendSpec,
        counter: IoCounter,
        fallback: Meta,
    ) -> IntervalIndex {
        let meta = self.checkpoint.as_ref().map_or(fallback, |c| c.meta);
        builder(meta, spec)
            .bulk_folded(counter, self.base(), self.suffix())
            .unwrap_or_else(|id| panic!("{}", repeated(id)))
    }

    /// As [`Recovered::rebuild`], but restore the x-range sharding the
    /// checkpoint recorded (or `fallback_splits` for a pre-checkpoint
    /// directory), each shard built on a thread of its own. With no splits
    /// this is the unsharded rebuild behind a single-shard directory.
    ///
    /// # Panics
    /// Panics if the folded content holds an id twice.
    pub fn rebuild_sharded(&self, fallback: Meta, fallback_splits: &[i64]) -> ShardedIntervalIndex {
        self.rebuild_sharded_on(&BackendSpec::Model, fallback, fallback_splits)
    }

    /// As [`Recovered::rebuild_sharded`], on an explicit page backend (see
    /// [`Recovered::rebuild_on`] — every shard's stores land as fresh page
    /// files under the spec's directory).
    ///
    /// # Panics
    /// Panics if the folded content holds an id twice.
    pub fn rebuild_sharded_on(
        &self,
        spec: &BackendSpec,
        fallback: Meta,
        fallback_splits: &[i64],
    ) -> ShardedIntervalIndex {
        self.try_rebuild_sharded_on(spec, fallback, fallback_splits)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The fold behind every rebuild. The checkpoint's intervals and the
    /// suffix's operations are routed by the split points to per-shard
    /// runs, each sized once; then on every shard's own build thread its
    /// run is x-sorted and the suffix's deletes cancel the exact copies
    /// they name ([`ccix_extmem::SortedRun::cancel`], the tree's own
    /// tombstone cancellation), and the shard bulk-loads the run it owns.
    ///
    /// A delete that names no stored copy — an id that is neither in the
    /// checkpoint nor inserted by the suffix, or one whose `(lo, hi)`
    /// differs from the stored copy's — cancels nothing, as the index's own
    /// delete contract has it: the log only holds batches the engine
    /// applied, so such a record cannot be an acknowledged write, and
    /// recovery keeps what it can account for rather than refuse the
    /// directory.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidData`] naming the id when the folded content
    /// holds an id twice — in one shard or in two — which no engine history
    /// produces: the checksummed bytes describe an index that cannot exist.
    pub fn try_rebuild_sharded_on(
        &self,
        spec: &BackendSpec,
        fallback: Meta,
        fallback_splits: &[i64],
    ) -> io::Result<ShardedIntervalIndex> {
        let (meta, splits): (Meta, &[i64]) = match &self.checkpoint {
            Some(c) => (c.meta, &c.shard_splits),
            None => (fallback, fallback_splits),
        };
        builder(meta, spec)
            .sharded()
            .splits(splits.to_vec())
            .bulk_folded(self.base(), self.suffix())
            .map_err(repeated)
    }

    /// The checkpoint's intervals (none before the first checkpoint).
    fn base(&self) -> &[Interval] {
        self.checkpoint.as_ref().map_or(&[], |c| &c.intervals)
    }

    /// The WAL suffix's operations, in commit order.
    fn suffix(&self) -> impl Iterator<Item = &IntervalOp> + Clone {
        self.replay.iter().flat_map(|rec| &rec.ops)
    }
}

/// The builder a checkpoint's `meta` describes, on `spec`.
fn builder(meta: Meta, spec: &BackendSpec) -> IndexBuilder {
    IndexBuilder::new(meta.geometry)
        .options(meta.options)
        .backend(spec.clone())
}

/// The recovery error for content that holds an id twice.
fn repeated(id: RepeatedId) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("recovered content is corrupt: {id}"),
    )
}

/// The durable side of an engine: one WAL plus one checkpoint file in a
/// directory, with the commit/checkpoint protocol between them.
pub struct DurableStore {
    fs: Arc<dyn Fs>,
    dir: PathBuf,
    wal: Wal,
    /// Cumulative operations logged (checkpoint watermark + WAL suffix).
    ops_logged: u64,
    /// Watermark of the newest checkpoint.
    checkpoint_ops: u64,
    checkpoint_every_ops: u64,
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("dir", &self.dir)
            .field("ops_logged", &self.ops_logged)
            .field("checkpoint_ops", &self.checkpoint_ops)
            .finish()
    }
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal")
}

fn ckpt_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint")
}

impl DurableStore {
    /// Initialise a fresh durable directory: an empty WAL and a genesis
    /// checkpoint carrying `meta`, the routing directory's `shard_splits`
    /// (empty when unsharded) plus the starting content (`intervals` —
    /// empty for a fresh index, the bulk-loaded set when an engine starts
    /// from one), so the directory is self-describing from the first byte.
    /// Fails if a WAL already exists — recovery ([`DurableStore::open`])
    /// is the only correct way in.
    pub fn create(
        config: &DurabilityConfig,
        meta: Meta,
        shard_splits: &[i64],
        intervals: &[Interval],
    ) -> io::Result<DurableStore> {
        let fs = Arc::clone(&config.fs);
        fs.create_dir_all(&config.dir)?;
        if fs.exists(&wal_path(&config.dir)) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "{} already holds a WAL; open it with recovery instead",
                    config.dir.display()
                ),
            ));
        }
        checkpoint::write_checkpoint_of(
            &fs,
            &ckpt_path(&config.dir),
            meta,
            shard_splits,
            0,
            intervals,
        )?;
        let wal = Wal::create(&fs, &wal_path(&config.dir))?;
        Ok(DurableStore {
            fs,
            dir: config.dir.clone(),
            wal,
            ops_logged: 0,
            checkpoint_ops: 0,
            checkpoint_every_ops: config.checkpoint_every_ops,
        })
    }

    /// Recover if the directory holds a WAL, resume from a checkpoint-only
    /// directory (a crash landed between checkpoint publication and WAL
    /// creation — nothing was ever acknowledged from the missing log), or
    /// initialise a fresh one with `fallback` meta and empty content. The
    /// one call an engine needs to come up in any directory state.
    pub fn open_or_create(
        config: &DurabilityConfig,
        fallback: Meta,
    ) -> io::Result<(DurableStore, Recovered)> {
        if config.fs.exists(&wal_path(&config.dir)) {
            return Self::open(config);
        }
        let fs = Arc::clone(&config.fs);
        fs.create_dir_all(&config.dir)?;
        let checkpoint = checkpoint::read_checkpoint(&fs, &ckpt_path(&config.dir))?;
        match checkpoint {
            None => {
                let store = Self::create(config, fallback, &[], &[])?;
                Ok((
                    store,
                    Recovered {
                        checkpoint: None,
                        replay: Vec::new(),
                        report: RecoveryReport::default(),
                    },
                ))
            }
            Some(ckpt) => {
                let wal = Wal::create(&fs, &wal_path(&config.dir))?;
                let report = RecoveryReport {
                    checkpoint_ops: ckpt.ops_applied,
                    checkpoint_intervals: ckpt.intervals.len(),
                    ..RecoveryReport::default()
                };
                let ops = ckpt.ops_applied;
                Ok((
                    DurableStore {
                        fs,
                        dir: config.dir.clone(),
                        wal,
                        ops_logged: ops,
                        checkpoint_ops: ops,
                        checkpoint_every_ops: config.checkpoint_every_ops,
                    },
                    Recovered {
                        checkpoint: Some(ckpt),
                        replay: Vec::new(),
                        report,
                    },
                ))
            }
        }
    }

    /// Open an existing durable directory: load the newest checkpoint,
    /// scan the WAL (truncating any torn tail), and return the store plus
    /// everything needed to rebuild the index. Records already covered by
    /// the checkpoint watermark are skipped as stale — a crash between
    /// checkpoint publication and WAL truncation leaves exactly that
    /// state, and it is harmless.
    pub fn open(config: &DurabilityConfig) -> io::Result<(DurableStore, Recovered)> {
        let fs = Arc::clone(&config.fs);
        let checkpoint = checkpoint::read_checkpoint(&fs, &ckpt_path(&config.dir))?;
        let checkpoint_ops = checkpoint.as_ref().map_or(0, |c| c.ops_applied);
        let opened = Wal::open(&fs, &wal_path(&config.dir))?;
        let total = opened.records.len();
        let replay: Vec<CommitRecord> = opened
            .records
            .into_iter()
            .filter(|r| r.ops_after > checkpoint_ops)
            .collect();
        let report = RecoveryReport {
            checkpoint_ops,
            checkpoint_intervals: checkpoint.as_ref().map_or(0, |c| c.intervals.len()),
            replayed_commits: replay.len(),
            replayed_ops: replay.iter().map(|r| r.ops.len() as u64).sum(),
            torn_tail_bytes: opened.truncated_bytes,
            stale_commits: total - replay.len(),
        };
        let ops_logged = replay.last().map_or(checkpoint_ops, |r| r.ops_after);
        Ok((
            DurableStore {
                fs,
                dir: config.dir.clone(),
                wal: opened.wal,
                ops_logged,
                checkpoint_ops,
                checkpoint_every_ops: config.checkpoint_every_ops,
            },
            Recovered {
                checkpoint,
                replay,
                report,
            },
        ))
    }

    /// Append one committed batch to the WAL. Returns the cumulative
    /// operation count after the batch. **Not durable** until
    /// [`DurableStore::sync`]; the caller must withhold acknowledgement
    /// until then.
    pub fn append_commit(&mut self, ops: &[IntervalOp]) -> io::Result<u64> {
        let ops_after = self.ops_logged + ops.len() as u64;
        self.wal.append_commit(ops_after, ops)?;
        self.ops_logged = ops_after;
        Ok(ops_after)
    }

    /// Fsync the WAL; afterwards every appended commit may be
    /// acknowledged.
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// Whether appended commits are waiting on a sync.
    pub fn has_unsynced(&self) -> bool {
        self.wal.has_unsynced()
    }

    /// Whether the count-triggered checkpoint threshold has been reached.
    pub fn wants_checkpoint(&self) -> bool {
        self.checkpoint_every_ops > 0
            && self.ops_logged - self.checkpoint_ops >= self.checkpoint_every_ops
    }

    /// Publish a checkpoint of the current logical state and truncate the
    /// WAL. `intervals` must be the live content after every logged
    /// operation (callers checkpoint from a quiesced or snapshotted
    /// index) and `shard_splits` the routing directory's split points
    /// (empty when unsharded). Crash-ordering: the checkpoint is durable
    /// (tmp + rename + dir sync) *before* the WAL is reset, so every
    /// moment in between recovers correctly — the stale WAL records are
    /// filtered by the watermark.
    pub fn checkpoint(
        &mut self,
        meta: Meta,
        shard_splits: &[i64],
        intervals: &[Interval],
    ) -> io::Result<()> {
        self.wal.sync()?;
        checkpoint::write_checkpoint_of(
            &self.fs,
            &ckpt_path(&self.dir),
            meta,
            shard_splits,
            self.ops_logged,
            intervals,
        )?;
        self.checkpoint_ops = self.ops_logged;
        self.wal.reset()
    }

    /// Cumulative operations logged since the directory was created.
    pub fn ops_logged(&self) -> u64 {
        self.ops_logged
    }

    /// Current WAL length in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccix_extmem::Geometry;
    use ccix_interval::IntervalOptions;

    fn meta() -> Meta {
        Meta::new(Geometry::new(8), IntervalOptions::default())
    }

    fn config(dir: &Path) -> DurabilityConfig {
        DurabilityConfig {
            checkpoint_every_ops: 0,
            ..DurabilityConfig::new(dir)
        }
    }

    fn iv(lo: i64, hi: i64, id: u64) -> Interval {
        Interval::new(lo, hi, id)
    }

    /// The classic CRC-32, one byte and eight shifts at a time: the
    /// reference the sliced [`crc32`] must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    fn random_bytes(rng: &mut ccix_testkit::DetRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_short_length_and_offset() {
        // Every length up to four blocks, starting at every alignment of a
        // block: each split between the sliced body and the bytewise tail.
        let buf = random_bytes(&mut ccix_testkit::DetRng::new(0xC3C), 16 + 64);
        for start in 0..16 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_on_random_buffers() {
        ccix_testkit::check::trials("durable::crc32_sliced", 48, 0xC3D, |rng| {
            let len = rng.gen_range(0..(64 << 10) + 1usize);
            let data = random_bytes(rng, len);
            assert_eq!(crc32(&data), crc32_bytewise(&data), "len {len}");
        });
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Past one 16-byte block: the sliced body and a bytewise tail.
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn create_log_reopen_rebuild() {
        let tmp = TempDir::new("store-rebuild");
        let cfg = config(tmp.path());
        let mut store = DurableStore::create(&cfg, meta(), &[], &[]).expect("create");
        store
            .append_commit(&[
                IntervalOp::Insert(iv(1, 10, 1)),
                IntervalOp::Insert(iv(5, 20, 2)),
            ])
            .expect("append");
        store
            .append_commit(&[IntervalOp::Delete(iv(1, 10, 1))])
            .expect("append");
        store.sync().expect("sync");
        drop(store);

        let (store, rec) = DurableStore::open(&cfg).expect("open");
        assert_eq!(rec.report.replayed_commits, 2);
        assert_eq!(rec.report.replayed_ops, 3);
        assert_eq!(rec.report.torn_tail_bytes, 0);
        assert_eq!(rec.ops_applied(), 3);
        assert_eq!(store.ops_logged(), 3);
        let index = rec.rebuild(IoCounter::new(), meta());
        assert_eq!(index.len(), 1);
        assert_eq!(index.stabbing(10), vec![2]);
    }

    #[test]
    fn checkpoint_truncates_wal_and_filters_stale_records() {
        let tmp = TempDir::new("store-ckpt");
        let cfg = config(tmp.path());
        let mut store = DurableStore::create(&cfg, meta(), &[], &[]).expect("create");
        store
            .append_commit(&[IntervalOp::Insert(iv(0, 4, 1))])
            .expect("append");
        store
            .append_commit(&[IntervalOp::Insert(iv(2, 8, 2))])
            .expect("append");
        store
            .checkpoint(meta(), &[], &[iv(0, 4, 1), iv(2, 8, 2)])
            .expect("checkpoint");
        assert_eq!(store.wal_bytes(), wal::WAL_MAGIC.len() as u64);
        store
            .append_commit(&[IntervalOp::Delete(iv(0, 4, 1))])
            .expect("append");
        store.sync().expect("sync");
        drop(store);

        let (_store, rec) = DurableStore::open(&cfg).expect("open");
        assert_eq!(rec.report.checkpoint_ops, 2);
        assert_eq!(rec.report.checkpoint_intervals, 2);
        assert_eq!(rec.report.replayed_commits, 1);
        assert_eq!(rec.report.stale_commits, 0);
        assert_eq!(rec.ops_applied(), 3);
        let index = rec.rebuild(IoCounter::new(), meta());
        assert_eq!(index.len(), 1);
        assert_eq!(index.stabbing(3), vec![2]);
    }

    #[test]
    fn stale_wal_after_unreset_checkpoint_is_skipped() {
        // Simulate a crash between checkpoint publication and WAL reset:
        // write the checkpoint through the public API but restore the WAL
        // bytes afterwards.
        let tmp = TempDir::new("store-stale");
        let cfg = config(tmp.path());
        let mut store = DurableStore::create(&cfg, meta(), &[], &[]).expect("create");
        store
            .append_commit(&[IntervalOp::Insert(iv(0, 4, 1))])
            .expect("append");
        store.sync().expect("sync");
        let wal_bytes = std::fs::read(tmp.path().join("wal")).expect("read wal");
        store
            .checkpoint(meta(), &[], &[iv(0, 4, 1)])
            .expect("checkpoint");
        drop(store);
        // The crash: WAL still holds the pre-checkpoint records.
        std::fs::write(tmp.path().join("wal"), &wal_bytes).expect("restore wal");

        let (_store, rec) = DurableStore::open(&cfg).expect("open");
        assert_eq!(rec.report.stale_commits, 1);
        assert_eq!(rec.report.replayed_commits, 0);
        assert_eq!(rec.ops_applied(), 1);
        let index = rec.rebuild(IoCounter::new(), meta());
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn checkpoint_publishes_before_the_wal_reset() {
        // The crash order recovery relies on: the new checkpoint is durable
        // (its file synced, renamed in, the directory synced) before the
        // WAL it makes redundant is truncated.
        let tmp = TempDir::new("store-ckpt-order");
        let fail = FailFs::new(
            RealFs::shared(),
            7,
            FaultPlan {
                crash_after_ops: None,
                short_write: 0.0,
                eintr: 0.0,
            },
        );
        let cfg = DurabilityConfig {
            fs: Arc::new(fail.clone()),
            ..config(tmp.path())
        };
        let mut store = DurableStore::create(&cfg, meta(), &[], &[]).expect("create");
        store
            .append_commit(&[IntervalOp::Insert(iv(0, 4, 1))])
            .expect("append");
        let before = fail.trace().len();
        store
            .checkpoint(meta(), &[], &[iv(0, 4, 1)])
            .expect("checkpoint");
        let trace = fail.trace().split_off(before);
        let at = |kind, file: &str| {
            trace
                .iter()
                .position(|op| op.kind == kind && op.file == file)
                .unwrap_or_else(|| panic!("no {kind:?} of {file} in {trace:?}"))
        };
        let order = [
            at(FsOpKind::Sync, "checkpoint.tmp"),
            at(FsOpKind::Rename, "checkpoint"),
            at(FsOpKind::SyncDir, "."),
            at(FsOpKind::SetLen, "wal"),
        ];
        assert!(order.is_sorted(), "publish order {order:?} in {trace:?}");
    }

    #[test]
    fn create_refuses_existing_directory() {
        let tmp = TempDir::new("store-exists");
        let cfg = config(tmp.path());
        let store = DurableStore::create(&cfg, meta(), &[], &[]).expect("create");
        drop(store);
        let err = DurableStore::create(&cfg, meta(), &[], &[]).expect_err("refuse");
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn wants_checkpoint_follows_threshold() {
        let tmp = TempDir::new("store-thresh");
        let cfg = DurabilityConfig {
            checkpoint_every_ops: 3,
            ..DurabilityConfig::new(tmp.path())
        };
        let mut store = DurableStore::create(&cfg, meta(), &[], &[]).expect("create");
        store
            .append_commit(&[IntervalOp::Insert(iv(0, 1, 1))])
            .expect("append");
        assert!(!store.wants_checkpoint());
        store
            .append_commit(&[
                IntervalOp::Insert(iv(0, 1, 2)),
                IntervalOp::Insert(iv(0, 1, 3)),
            ])
            .expect("append");
        assert!(store.wants_checkpoint());
        store
            .checkpoint(meta(), &[], &[iv(0, 1, 1), iv(0, 1, 2), iv(0, 1, 3)])
            .expect("checkpoint");
        assert!(!store.wants_checkpoint());
    }

    #[test]
    fn recovery_through_failfs_crash_matches_synced_prefix() {
        // End-to-end with the fault layer: run a commit stream through a
        // FailFs that crashes, then recover with the real filesystem and
        // check the recovered ops are exactly a prefix ≥ the synced count.
        let tmp = TempDir::new("store-failfs");
        let real = RealFs::shared();
        let fail = FailFs::new(
            Arc::clone(&real),
            0xC0FFEE,
            FaultPlan {
                crash_after_ops: Some(40),
                short_write: 0.2,
                eintr: 0.1,
            },
        );
        let cfg = DurabilityConfig {
            dir: tmp.path().to_path_buf(),
            fsync: FsyncPolicy::EveryCommits(1),
            checkpoint_every_ops: 0,
            fs: Arc::new(fail),
        };
        let mut store = DurableStore::create(&cfg, meta(), &[], &[]).expect("create");
        let mut synced = 0u64;
        for i in 0..1000u64 {
            let ops = [IntervalOp::Insert(iv(i as i64, i as i64 + 5, i))];
            let Ok(_) = store.append_commit(&ops) else {
                break;
            };
            if store.sync().is_err() {
                break;
            }
            synced = i + 1;
        }
        drop(store);

        let real_cfg = DurabilityConfig {
            fs: real,
            ..DurabilityConfig::new(tmp.path())
        };
        let (_store, rec) = DurableStore::open(&real_cfg).expect("recover");
        let recovered = rec.ops_applied();
        assert!(
            recovered >= synced,
            "synced commit lost: synced {synced}, recovered {recovered}"
        );
        let index = rec.rebuild(IoCounter::new(), meta());
        assert_eq!(index.len() as u64, recovered);
        // Content check: ids are exactly 0..recovered.
        let mut got = index.intersecting(i64::MIN, i64::MAX);
        got.sort_unstable();
        let want: Vec<u64> = (0..recovered).collect();
        assert_eq!(got, want);
    }
}
