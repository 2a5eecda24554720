//! X-range sharding: a routing directory over independent interval indexes.
//!
//! The metablock tree is I/O-optimal but single-threaded on the write path;
//! one structure can only move as fast as one core. [`ShardedIntervalIndex`]
//! takes the classic partition-for-parallelism step: the key space is split
//! by **left endpoint** into `K` contiguous x-ranges at `K−1` split points
//! (chosen from a workload sample, see
//! [`ShardedBuilder::splits_from_sample`]), and each range is served by its
//! own fully independent [`IntervalIndex`] — private pages, private striped
//! [`IoCounter`], private incremental-reorganisation debt.
//!
//! **Routing.** An interval lives in exactly one shard: the one whose
//! x-range contains `lo`. A stabbing query `q` must consult shard
//! `shard_of(q)` and any earlier shard that might store an interval
//! reaching past its right boundary; the directory keeps a per-shard
//! monotone upper bound `max_hi` (raised on insert, never lowered on
//! delete) so those earlier shards are consulted only while
//! `max_hi ≥ q`. The bound is a sound over-approximation — after deletes
//! it may route a query to a shard with no matching interval, costing that
//! shard's `O(log_B n)` descent; this is the *routing overhead* documented
//! in `docs/tuning.md` and is the only I/O a sharded index performs that an
//! unsharded one would not.
//!
//! **Fan-out.** Batched operations (`stab_batch*`, `apply_batch`,
//! [`ShardedIntervalIndex::apply_submissions`], bulk build) partition their
//! work into per-shard sub-batches — each preserving input order — and fan
//! out over the machine's cores ([`ccix_core::par::cores`]); no option sets
//! the count. Results are gathered in shard order, so output is identical
//! for every thread count; every shard charges its own counter no matter
//! which thread runs it, so I/O totals are thread-invariant too (the unit
//! tests pin both at budgets 1 to 4). With one shard every code path
//! degenerates to the unsharded index: same structure, same bytes, same
//! I/O counts.
//!
//! **Per-request fan-out reuses threads; one-off work borrows new ones.**
//! A spawn and a join cost tens of microseconds each, as much as a shard's
//! share of a 64-point stab batch. Stab batches therefore go to the
//! long-lived helpers of [`ccix_core::par::run_pooled`]: the directory
//! holds its shards as `Arc`s, each consulted shard's sub-batch travels as
//! a `'static` task with a handle to its shard, and the calling thread
//! answers the first group itself. A helper drops its handles before it
//! replies, so a write — which needs `&mut self` and so cannot overlap a
//! stab batch on the same directory — always finds every shard unshared.
//! Bulk builds, `flush_reorgs` and writes of at least [`FAN_OUT_MIN_OPS`]
//! routed operations borrow their shards on scoped threads
//! ([`ccix_core::par::run_parallel`]); they are rare and long. Smaller
//! writes (a routed write costs one to three microseconds) run shard by
//! shard on the calling thread, whatever the core count — same shards,
//! same order, same bills, only no threads.

use std::sync::Arc;

use ccix_core::par::{cores, run_parallel, run_pooled};
use ccix_extmem::{first_repeat, Geometry, IoCounter, IoSnapshot, Point, SortedRun};

use crate::builder::IndexBuilder;
use crate::index::{Interval, IntervalIndex, IntervalOp, IntervalOptions};

/// Routed operations below which a write runs inline on the calling thread
/// instead of fanning out (one pumped reorganisation slice counts as one
/// operation). A constant, not a knob: it is the measured crossover of
/// `apply_batch` inline against fanned out on 2 and 4 shards, 64 … 16 384
/// ops — table in `docs/tuning.md` § Commit pipeline.
pub const FAN_OUT_MIN_OPS: usize = 1024;

/// Choose up to `shards − 1` split points as quantiles of a sample of left
/// endpoints (duplicates collapse, so heavily skewed samples may yield
/// fewer shards).
///
/// # Panics
/// Panics if `shards == 0`.
pub fn split_points_from_sample(sample_los: &[i64], shards: usize) -> Vec<i64> {
    assert!(shards > 0, "a sharded index needs at least one shard");
    if shards == 1 || sample_los.is_empty() {
        return Vec::new();
    }
    let mut los = sample_los.to_vec();
    los.sort_unstable();
    let mut splits = Vec::with_capacity(shards - 1);
    for i in 1..shards {
        splits.push(los[i * los.len() / shards]);
    }
    splits.dedup();
    // A split equal to the smallest endpoint would leave shard 0 empty for
    // the sampled workload; drop it.
    if splits.first() == los.first() {
        splits.remove(0);
    }
    splits
}

/// Configures and constructs [`ShardedIntervalIndex`] instances.
///
/// Wraps an [`IndexBuilder`] (every shard uses its geometry, options and
/// page backend) plus the split points of the routing directory. Like
/// [`IndexBuilder`] it is cheap to clone and can stamp out any number of
/// indexes.
///
/// ```
/// use ccix_extmem::Geometry;
/// use ccix_interval::{IndexBuilder, Interval};
///
/// let ivs: Vec<Interval> = (0..100).map(|i| Interval::new(i, i + 5, i as u64)).collect();
/// let idx = IndexBuilder::new(Geometry::new(8))
///     .sharded()
///     .splits(vec![25, 50, 75])
///     .bulk(&ivs);
/// assert_eq!(idx.num_shards(), 4);
/// let mut hit = idx.stabbing(30);
/// hit.sort_unstable();
/// assert_eq!(hit.len(), 6); // intervals [25..=30, …]
/// ```
#[derive(Clone, Debug)]
pub struct ShardedBuilder {
    inner: IndexBuilder,
    splits: Vec<i64>,
}

impl ShardedBuilder {
    /// Shard the layout configured by `inner`. Until
    /// [`ShardedBuilder::splits`] (or
    /// [`ShardedBuilder::splits_from_sample`]) is called the directory has
    /// a single shard.
    pub fn new(inner: IndexBuilder) -> Self {
        Self {
            inner,
            splits: Vec::new(),
        }
    }

    /// Set the split points explicitly: `splits.len() + 1` shards, shard
    /// `i` owning left endpoints in `[splits[i−1], splits[i])` (shard 0
    /// from `−∞`, the last shard to `+∞`).
    ///
    /// # Panics
    /// Panics unless the points are strictly increasing.
    pub fn splits(mut self, splits: Vec<i64>) -> Self {
        assert!(
            splits.windows(2).all(|w| w[0] < w[1]),
            "split points must be strictly increasing"
        );
        self.splits = splits;
        self
    }

    /// Choose split points from a sample of left endpoints (e.g. the `lo`
    /// values of an existing index's content, or of the expected flood) via
    /// [`split_points_from_sample`].
    pub fn splits_from_sample(self, sample_los: &[i64], shards: usize) -> Self {
        let splits = split_points_from_sample(sample_los, shards);
        self.splits(splits)
    }

    /// Open an empty sharded index. Each shard gets its own fresh
    /// [`IoCounter`].
    pub fn open(&self) -> ShardedIntervalIndex {
        let shards: Vec<Arc<IntervalIndex>> = (0..=self.splits.len())
            .map(|_| Arc::new(self.inner.open(IoCounter::new())))
            .collect();
        let max_hi = initial_max_hi(shards.len());
        ShardedIntervalIndex {
            splits: self.splits.clone(),
            shards,
            max_hi,
            len: 0,
            budget: cores(),
        }
    }

    /// Bulk-build over `intervals` (ids must be unique): the set is
    /// partitioned by the routing directory and the per-shard builds fan
    /// out over the machine's cores, each charging its own fresh counter.
    ///
    /// # Panics
    /// Panics if an id repeats.
    pub fn bulk(&self, intervals: &[Interval]) -> ShardedIntervalIndex {
        self.bulk_within(intervals, cores())
    }

    /// [`ShardedBuilder::bulk`] over at most `budget` threads; the index
    /// keeps `budget` for its own fan-outs.
    pub(crate) fn bulk_within(
        &self,
        intervals: &[Interval],
        budget: usize,
    ) -> ShardedIntervalIndex {
        self.fold(intervals, [].iter(), self.fresh_counters(), budget)
            .unwrap_or_else(|e| panic!("duplicate point ids: {e}"))
    }

    /// Bulk-build the content `base` holds once `ops` are folded into it:
    /// an insert adds its interval, and a delete cancels one exact copy of
    /// its own interval (`lo`, `hi` and `id`) from `base` or from the
    /// inserts; a delete that finds no copy cancels nothing. For a history
    /// whose every delete removes a live interval — all an engine logs —
    /// that is the content after applying `ops` in order. The content is
    /// partitioned by the routing directory and every shard's run is
    /// sorted, cancelled and built on a thread of its own, as
    /// [`ShardedBuilder::bulk`]'s are.
    ///
    /// # Errors
    /// [`RepeatedId`] when the folded content holds an id twice, in one
    /// shard or in two; nothing is built then.
    pub fn bulk_folded<'a>(
        &self,
        base: &[Interval],
        ops: impl Iterator<Item = &'a IntervalOp> + Clone,
    ) -> Result<ShardedIntervalIndex, RepeatedId> {
        self.fold(base, ops, self.fresh_counters(), cores())
    }

    /// One fresh counter per shard.
    fn fresh_counters(&self) -> Vec<IoCounter> {
        (0..=self.splits.len()).map(|_| IoCounter::new()).collect()
    }

    /// The one bulk path: route `base` and `ops` to their shards' runs,
    /// each sized once, then per shard and over at most `budget` threads
    /// x-sort the run, cancel the deletes, sort the ids — one merge of the
    /// shards' id lists finds an id live twice — and build the shard,
    /// charging `counters[shard]`.
    pub(crate) fn fold<'a>(
        &self,
        base: &[Interval],
        ops: impl Iterator<Item = &'a IntervalOp> + Clone,
        counters: Vec<IoCounter>,
        budget: usize,
    ) -> Result<ShardedIntervalIndex, RepeatedId> {
        let k = self.splits.len() + 1;
        let shard = |iv: &Interval| shard_of(&self.splits, iv.lo);
        let mut sizes = vec![(0usize, 0usize); k];
        for iv in base {
            sizes[shard(iv)].0 += 1;
        }
        for op in ops.clone() {
            match op {
                IntervalOp::Insert(iv) => sizes[shard(iv)].0 += 1,
                IntervalOp::Delete(iv) => sizes[shard(iv)].1 += 1,
            }
        }
        let mut parts: Vec<(Vec<Point>, Vec<Point>)> = (sizes.iter())
            .map(|&(live, tombs)| (Vec::with_capacity(live), Vec::with_capacity(tombs)))
            .collect();
        for iv in base {
            parts[shard(iv)].0.push(iv.point());
        }
        for op in ops {
            match op {
                IntervalOp::Insert(iv) => parts[shard(iv)].0.push(iv.point()),
                IntervalOp::Delete(iv) => parts[shard(iv)].1.push(iv.point()),
            }
        }

        let settle: Vec<_> = (parts.into_iter())
            .map(|(live, tombs)| {
                move |_: usize| {
                    let tombs = SortedRun::from_unsorted(tombs);
                    let (run, _) = SortedRun::from_unsorted(live).cancel(&tombs);
                    let max_hi = run.iter().map(|p| p.y).max().unwrap_or(i64::MIN);
                    let ids = run.sorted_ids();
                    (run, ids, max_hi)
                }
            })
            .collect();
        let mut runs = Vec::with_capacity(k);
        let mut ids = Vec::with_capacity(k);
        let mut max_hi = initial_max_hi(k);
        for (s, (run, run_ids, hi)) in run_parallel(settle, budget).into_iter().enumerate() {
            runs.push(run);
            ids.push(run_ids);
            max_hi[s] = max_hi[s].max(hi);
        }
        if let Some(id) = first_repeat(&ids) {
            return Err(RepeatedId(id));
        }
        drop(ids);

        let len = runs.iter().map(|run| run.len()).sum();
        let tasks: Vec<_> = (runs.into_iter().zip(counters))
            .map(|(run, counter)| {
                // Each shard's build task owns a clone of the builder; a
                // file-backed spec shares its name sequence across clones,
                // so parallel shard builds never collide on file names.
                let builder = self.inner.clone();
                move |inner: usize| builder.build_run(counter, run, inner)
            })
            .collect();
        let shards = run_parallel(tasks, budget)
            .into_iter()
            .map(Arc::new)
            .collect();
        Ok(ShardedIntervalIndex {
            splits: self.splits.clone(),
            shards,
            max_hi,
            len,
            budget,
        })
    }
}

/// An id that a folded content holds twice (see
/// [`ShardedBuilder::bulk_folded`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepeatedId(pub u64);

impl std::fmt::Display for RepeatedId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "id {} is live twice", self.0)
    }
}

impl std::error::Error for RepeatedId {}

/// The shard of a directory split at `splits` that owns left endpoint
/// `lo`.
fn shard_of(splits: &[i64], lo: i64) -> usize {
    splits.partition_point(|&p| p <= lo)
}

impl IndexBuilder {
    /// Shard this layout behind an x-range routing directory (see
    /// [`ShardedBuilder`]).
    pub fn sharded(self) -> ShardedBuilder {
        ShardedBuilder::new(self)
    }
}

/// Gather per-shard stab answers into `n` per-query slots, contributions in
/// shard order. A slot's first contribution moves in whole; only a query
/// answered by more than one shard pays a copy.
fn gather<T>(n: usize, parts: Vec<(Vec<usize>, Vec<Vec<T>>)>, outs: &mut Vec<Vec<T>>) {
    outs.truncate(n);
    for o in outs.iter_mut() {
        o.clear();
    }
    outs.resize_with(n, Vec::new);
    for (slots, answers) in parts {
        for (slot, answer) in slots.into_iter().zip(answers) {
            if outs[slot].is_empty() {
                outs[slot] = answer;
            } else {
                outs[slot].extend(answer);
            }
        }
    }
}

/// The shard behind `handle`, for writing. A stab fan-out lends each
/// consulted shard to the helpers as an `Arc` clone, and every helper drops
/// its clones before it replies, so once the fan-out returns the directory
/// is again the only owner of every shard.
fn unshared(handle: &mut Arc<IntervalIndex>) -> &mut IntervalIndex {
    Arc::get_mut(handle).expect(RETURNED)
}

/// The invariant a writer's `expect` on an unshared shard relies on.
const RETURNED: &str = "a stab fan-out's helpers drop their shard handles before replying";

/// Per-shard routing bounds at construction. A single-shard directory is a
/// pure pass-through — its bound is pinned at `i64::MAX` so it never
/// prunes, keeping every operation (and every I/O count) identical to the
/// unsharded index it wraps.
fn initial_max_hi(k: usize) -> Vec<i64> {
    if k == 1 {
        vec![i64::MAX]
    } else {
        vec![i64::MIN; k]
    }
}

/// An x-range routing directory over `K` independent [`IntervalIndex`]
/// shards (see the module source docs for routing and fan-out rules).
///
/// The public surface mirrors [`IntervalIndex`] — stabbing and
/// intersection queries, batched `_into` variants, mixed-batch applies,
/// incremental-reorganisation pumping, consistent snapshot forks — plus
/// the group-commit entry point [`ShardedIntervalIndex::apply_submissions`]
/// used by the `ccix-serve` writer thread.
#[derive(Debug)]
pub struct ShardedIntervalIndex {
    /// `K − 1` ascending split keys; shard `i` owns `lo ∈ [splits[i−1],
    /// splits[i])`.
    splits: Vec<i64>,
    /// Shared only with a stab fan-out's helpers, and only until it returns
    /// (see [`unshared`]).
    shards: Vec<Arc<IntervalIndex>>,
    /// Per-shard monotone upper bound on stored `hi` (never lowered on
    /// delete; `i64::MIN` while a shard has never held an interval).
    max_hi: Vec<i64>,
    len: usize,
    /// Fan-out thread budget: the machine's cores, or a test's budget.
    budget: usize,
}

impl ShardedIntervalIndex {
    /// Wrap an existing unsharded index as a single-shard directory — the
    /// pass-through the serving engine uses so one writer-thread code path
    /// covers both shapes. Routing never prunes (the bound is `i64::MAX`),
    /// so behaviour and I/O counts are exactly the wrapped index's.
    pub fn from_single(index: IntervalIndex) -> Self {
        Self {
            splits: Vec::new(),
            max_hi: vec![i64::MAX],
            len: index.len(),
            shards: vec![Arc::new(index)],
            budget: cores(),
        }
    }

    /// The shard owning left endpoint `lo`.
    fn shard_of(&self, lo: i64) -> usize {
        shard_of(&self.splits, lo)
    }

    /// Thread budget for a write that routed `work` operations: the fan-out
    /// budget from [`FAN_OUT_MIN_OPS`] up, one thread (inline) below it.
    fn write_budget(&self, work: usize) -> usize {
        if work < FAN_OUT_MIN_OPS {
            1
        } else {
            self.budget
        }
    }

    /// Shards a stabbing query at `q` must consult: every shard whose
    /// x-range starts at or before `q` and whose `max_hi` bound reaches
    /// `q`.
    fn stab_shards(&self, q: i64) -> impl Iterator<Item = usize> + '_ {
        let last = self.shard_of(q);
        (0..=last).filter(move |&s| self.max_hi[s] >= q)
    }

    /// Number of shards (`K`).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The routing directory's split points (`K − 1` ascending keys).
    pub fn splits(&self) -> &[i64] {
        &self.splits
    }

    /// The shards, in x-range order.
    pub fn shards(&self) -> impl ExactSizeIterator<Item = &IntervalIndex> + '_ {
        self.shards.iter().map(|s| &**s)
    }

    /// Give up the directory and return the shards, in x-range order. The
    /// single-shard case is how `ccix-serve` hands back an unsharded
    /// [`IntervalIndex`] on shutdown.
    pub fn into_shards(self) -> Vec<IntervalIndex> {
        self.shards
            .into_iter()
            .map(|s| Arc::into_inner(s).expect(RETURNED))
            .collect()
    }

    /// Total number of intervals stored across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no shard stores an interval.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Block geometry (shared by every shard).
    pub fn geometry(&self) -> Geometry {
        self.shards[0].geometry()
    }

    /// The construction options every shard was built with.
    pub fn options(&self) -> IntervalOptions {
        self.shards[0].options()
    }

    /// Aggregate I/O across the per-shard counters. Shard counters are
    /// independent, so this is exact whenever no fan-out is in flight.
    pub fn io_totals(&self) -> IoSnapshot {
        let mut agg = IoSnapshot::default();
        for s in &self.shards {
            let snap = s.counter().snapshot();
            agg.reads += snap.reads;
            agg.writes += snap.writes;
        }
        agg
    }

    /// Disk blocks occupied, summed over shards.
    pub fn space_pages(&self) -> usize {
        self.shards.iter().map(|s| s.space_pages()).sum()
    }

    /// Whether the shards mirror their pages onto real files.
    pub fn is_file_backed(&self) -> bool {
        self.shards().any(IntervalIndex::is_file_backed)
    }

    /// `(cold, warm)` charged-read counts summed over every shard's file
    /// backend (see [`IntervalIndex::file_stats`]); `None` on the model
    /// backend.
    pub fn file_stats(&self) -> Option<(u64, u64)> {
        if !self.is_file_backed() {
            return None;
        }
        let mut agg = (0, 0);
        for s in &self.shards {
            if let Some((c, w)) = s.file_stats() {
                agg.0 += c;
                agg.1 += w;
            }
        }
        Some(agg)
    }

    /// Drop every shard's file-backend page caches (cold-cache
    /// measurement); no-op on the model backend.
    pub fn clear_file_caches(&self) {
        for s in &self.shards {
            s.clear_file_caches();
        }
    }

    /// Deferred reorganisation debt in page transfers, summed over shards.
    pub fn reorg_debt(&self) -> u64 {
        self.shards.iter().map(|s| s.reorg_debt()).sum()
    }

    /// Pending (uncancelled) tombstones, summed over shards.
    pub fn pending_deletes(&self) -> usize {
        self.shards.iter().map(|s| s.pending_deletes()).sum()
    }

    /// Run every shard's in-progress reorganisation to completion (shards
    /// fan out over the thread budget).
    pub fn flush_reorgs(&mut self) {
        let budget = self.budget;
        let tasks: Vec<_> = self
            .shards
            .iter_mut()
            .map(|shard| {
                let shard = unshared(shard);
                move |_inner: usize| shard.flush_reorgs()
            })
            .collect();
        run_parallel(tasks, budget);
    }

    /// Pump up to `slices` incremental-reorganisation steps **per shard**
    /// (shards with debt fan out over the thread budget) and return the
    /// total debt remaining — the writer thread's idle-time bleed.
    pub fn pump_reorg(&mut self, slices: usize) -> u64 {
        let with_debt: Vec<bool> = self.shards.iter().map(|s| s.reorg_debt() > 0).collect();
        let pumped = slices * with_debt.iter().filter(|debt| **debt).count();
        let budget = self.write_budget(pumped);
        let tasks: Vec<_> = self
            .shards
            .iter_mut()
            .zip(with_debt)
            .filter(|(_, debt)| *debt)
            .map(|(shard, _)| {
                let shard = unshared(shard);
                move |_inner: usize| {
                    for _ in 0..slices {
                        if !shard.pump_reorg_step() {
                            break;
                        }
                    }
                }
            })
            .collect();
        run_parallel(tasks, budget);
        self.reorg_debt()
    }

    /// Fork a frozen read snapshot of **all shards at once** — one
    /// consistent epoch, every shard's snapshot charging the same shared
    /// striped `counter` (see [`IntervalIndex::fork_snapshot`]).
    pub fn fork_snapshot(&self, counter: IoCounter) -> Self {
        Self {
            splits: self.splits.clone(),
            shards: self
                .shards
                .iter()
                .map(|s| Arc::new(s.fork_snapshot(counter.clone())))
                .collect(),
            max_hi: self.max_hi.clone(),
            len: self.len,
            budget: self.budget,
        }
    }

    /// Insert `[lo, hi]` with `id` into the owning shard.
    pub fn insert(&mut self, lo: i64, hi: i64, id: u64) {
        let s = self.shard_of(lo);
        self.max_hi[s] = self.max_hi[s].max(hi);
        unshared(&mut self.shards[s]).insert(lo, hi, id);
        self.len += 1;
    }

    /// Delete a previously inserted interval from the owning shard (see
    /// [`IntervalIndex::delete`] for the contract). The routing bound is
    /// deliberately not lowered — see the module source docs.
    pub fn delete(&mut self, lo: i64, hi: i64, id: u64) {
        let s = self.shard_of(lo);
        unshared(&mut self.shards[s]).delete(lo, hi, id);
        self.len -= 1;
    }

    /// Delete a batch of intervals: partitioned by owning shard (input
    /// order preserved within each sub-batch) and fanned out, each shard
    /// running its own batched tombstone routing
    /// ([`IntervalIndex::delete_batch`]).
    pub fn delete_batch(&mut self, intervals: &[(i64, i64, u64)]) {
        let mut per: Vec<Vec<(i64, i64, u64)>> = vec![Vec::new(); self.shards.len()];
        for &t in intervals {
            per[self.shard_of(t.0)].push(t);
        }
        self.len -= intervals.len();
        let budget = self.write_budget(intervals.len());
        let tasks: Vec<_> = self
            .shards
            .iter_mut()
            .zip(per)
            .filter(|(_, part)| !part.is_empty())
            .map(|(shard, part)| {
                let shard = unshared(shard);
                move |_inner: usize| shard.delete_batch(&part)
            })
            .collect();
        run_parallel(tasks, budget);
    }

    /// Apply a mixed batch of inserts and deletes as one batched operation:
    /// ops are partitioned by owning shard (input order preserved within
    /// each sub-batch, so [`IntervalIndex::apply_batch`]'s independence
    /// contract carries over) and the per-shard applies fan out over the
    /// thread budget.
    pub fn apply_batch(&mut self, ops: &[IntervalOp]) {
        let per = self.route_ops(ops);
        let budget = self.write_budget(ops.len());
        let tasks: Vec<_> = self
            .shards
            .iter_mut()
            .zip(per)
            .filter(|(_, part)| !part.is_empty())
            .map(|(shard, part)| {
                let shard = unshared(shard);
                move |_inner: usize| shard.apply_batch(&part)
            })
            .collect();
        run_parallel(tasks, budget);
    }

    /// Partition `ops` by owning shard, maintaining `len` and the routing
    /// bounds.
    fn route_ops(&mut self, ops: &[IntervalOp]) -> Vec<Vec<IntervalOp>> {
        let mut per: Vec<Vec<IntervalOp>> = vec![Vec::new(); self.shards.len()];
        for &op in ops {
            let s = match op {
                IntervalOp::Insert(iv) => {
                    let s = self.shard_of(iv.lo);
                    self.max_hi[s] = self.max_hi[s].max(iv.hi);
                    self.len += 1;
                    s
                }
                IntervalOp::Delete(iv) => {
                    self.len -= 1;
                    self.shard_of(iv.lo)
                }
            };
            per[s].push(op);
        }
        per
    }

    /// Apply a **group commit**: a sequence of independent submissions,
    /// each a mixed batch whose ops are independent *within* the submission
    /// but not necessarily across submissions (a later submission may
    /// delete what an earlier one inserted). Each submission is split into
    /// per-shard sub-floods; one worker per shard then applies that shard's
    /// sub-floods in submission order and finishes by pumping up to
    /// `pump_slices` steps of the shard's own incremental-reorganisation
    /// debt — the whole group costs one fan-out barrier, and reorganisation
    /// work that used to serialise inside the writer thread now runs
    /// shard-parallel.
    ///
    /// With one shard this is step-for-step identical to applying each
    /// submission with [`IntervalIndex::apply_batch`] and then pumping
    /// `pump_slices` reorganisation steps.
    pub fn apply_submissions(&mut self, subs: &[Vec<IntervalOp>], pump_slices: usize) {
        let k = self.shards.len();
        let mut per: Vec<Vec<Vec<IntervalOp>>> = vec![Vec::new(); k];
        for sub in subs {
            for (s, part) in self.route_ops(sub).into_iter().enumerate() {
                if !part.is_empty() {
                    per[s].push(part);
                }
            }
        }
        let with_debt: Vec<bool> = self.shards.iter().map(|s| s.reorg_debt() > 0).collect();
        let pumped = pump_slices * with_debt.iter().filter(|debt| **debt).count();
        let routed: usize = subs.iter().map(Vec::len).sum();
        let budget = self.write_budget(routed + pumped);
        let tasks: Vec<_> = self
            .shards
            .iter_mut()
            .zip(per)
            .zip(with_debt)
            .filter(|((_, floods), debt)| !floods.is_empty() || *debt)
            .map(|((shard, floods), _)| {
                let shard = unshared(shard);
                move |_inner: usize| {
                    for flood in &floods {
                        shard.apply_batch(flood);
                    }
                    for _ in 0..pump_slices {
                        if !shard.pump_reorg_step() {
                            break;
                        }
                    }
                }
            })
            .collect();
        run_parallel(tasks, budget);
    }

    /// Ids of all intervals containing `q`; consults only the shards the
    /// routing directory cannot rule out. `O(Σ_consulted (log_B nᵢ) + t/B)`
    /// I/Os across the consulted shards' counters.
    pub fn stabbing(&self, q: i64) -> Vec<u64> {
        let mut out = Vec::new();
        for s in self.stab_shards(q) {
            self.shards[s].stab_with(q, |p| p.id, &mut out);
        }
        out
    }

    /// As [`ShardedIntervalIndex::stabbing`], returning full intervals.
    pub fn stabbing_intervals(&self, q: i64) -> Vec<Interval> {
        let mut out = Vec::new();
        for s in self.stab_shards(q) {
            self.shards[s].stab_with(q, Interval::of_point, &mut out);
        }
        out
    }

    /// Answer a flood of stabbing queries as one batched operation: the
    /// flood is split into per-shard sub-batches (input order preserved, so
    /// each shard's batched descent amortisation still applies) which fan
    /// out over the thread budget; per-query results gather contributions
    /// in shard order, so output is identical for every thread count.
    pub fn stab_batch(&self, qs: &[i64]) -> Vec<Vec<u64>> {
        let mut outs = Vec::new();
        self.stab_batch_into(qs, &mut outs);
        outs
    }

    /// As [`ShardedIntervalIndex::stab_batch`], reusing `outs` for the
    /// per-query result slots.
    pub fn stab_batch_into(&self, qs: &[i64], outs: &mut Vec<Vec<u64>>) {
        let parts = self.fan_out_stabs(qs, |shard, sub| {
            let mut ids = Vec::new();
            shard.stab_batch_into(sub, &mut ids);
            ids
        });
        gather(qs.len(), parts, outs);
    }

    /// As [`ShardedIntervalIndex::stab_batch`], returning full intervals.
    pub fn stab_batch_intervals(&self, qs: &[i64]) -> Vec<Vec<Interval>> {
        let mut outs = Vec::new();
        self.stab_batch_intervals_into(qs, &mut outs);
        outs
    }

    /// As [`ShardedIntervalIndex::stab_batch_intervals`], reusing `outs`.
    pub fn stab_batch_intervals_into(&self, qs: &[i64], outs: &mut Vec<Vec<Interval>>) {
        let parts = self.fan_out_stabs(qs, IntervalIndex::stab_batch_intervals);
        gather(qs.len(), parts, outs);
    }

    /// Split a stab flood into per-shard sub-batches, answer each with
    /// `stab` on the fan-out helpers, and return `(input slots, per-slot
    /// answers)` per consulted shard, in shard order.
    fn fan_out_stabs<T: Send + 'static>(
        &self,
        qs: &[i64],
        stab: impl Fn(&IntervalIndex, &[i64]) -> Vec<Vec<T>> + Copy + Send + 'static,
    ) -> Vec<(Vec<usize>, Vec<Vec<T>>)> {
        let k = self.shards.len();
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut subs: Vec<Vec<i64>> = vec![Vec::new(); k];
        for (slot, &q) in qs.iter().enumerate() {
            for s in self.stab_shards(q) {
                slots[s].push(slot);
                subs[s].push(q);
            }
        }
        let budget = self.budget;
        let tasks: Vec<_> = subs
            .into_iter()
            .enumerate()
            .filter(|(_, sub)| !sub.is_empty())
            .map(|(s, sub)| {
                let shard = Arc::clone(&self.shards[s]);
                (s, move || stab(&shard, &sub))
            })
            .collect();
        let (order, tasks): (Vec<usize>, Vec<_>) = tasks.into_iter().unzip();
        let results = run_pooled(tasks, budget);
        order
            .into_iter()
            .zip(results)
            .map(|(s, res)| (std::mem::take(&mut slots[s]), res))
            .collect()
    }

    /// Report every stored interval whose left endpoint lies in `[x1, x2]`
    /// (see [`IntervalIndex::left_range`]); consults exactly the shards
    /// whose x-ranges overlap `[x1, x2]`, in shard order.
    pub fn left_range(&self, x1: i64, x2: i64) -> Vec<Interval> {
        let mut out = Vec::new();
        if x1 > x2 {
            return out;
        }
        for s in self.shard_of(x1)..=self.shard_of(x2) {
            out.extend(self.shards[s].left_range(x1, x2));
        }
        out
    }

    /// Ids of all intervals intersecting `[q1, q2]`; no interval is
    /// reported twice (shards hold disjoint interval sets and each shard's
    /// own intersection query never double-reports).
    pub fn intersecting(&self, q1: i64, q2: i64) -> Vec<u64> {
        self.intersecting_intervals(q1, q2)
            .iter()
            .map(|iv| iv.id)
            .collect()
    }

    /// As [`ShardedIntervalIndex::intersecting`], returning full intervals.
    pub fn intersecting_intervals(&self, q1: i64, q2: i64) -> Vec<Interval> {
        assert!(q1 <= q2, "query interval endpoints out of order");
        let mut out = Vec::new();
        let (first, last) = (self.shard_of(q1), self.shard_of(q2));
        for s in 0..=last {
            // Shards from `first` on overlap `[q1, q2]` in lo-space and
            // always need their left-endpoint range part; shards left of
            // `first` hold only intervals with `lo < q1` and contribute
            // only by stabbing `q1`, which the `max_hi` bound gates.
            if s >= first || self.max_hi[s] >= q1 {
                out.extend(self.shards[s].intersecting_intervals(q1, q2));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NaiveIntervalStore;
    use ccix_testkit::{check, workloads};

    fn workload(n: usize) -> Vec<Interval> {
        (0..n)
            .map(|i| {
                let lo = ((i * 2654435761) % 1000) as i64;
                Interval::new(lo, lo + ((i * 40503) % 120) as i64, i as u64)
            })
            .collect()
    }

    /// A bulk-built index over `budget` threads, which its batches keep.
    fn sharded(ivs: &[Interval], splits: Vec<i64>, budget: usize) -> ShardedIntervalIndex {
        IndexBuilder::new(Geometry::new(8))
            .sharded()
            .splits(splits)
            .bulk_within(ivs, budget)
    }

    #[test]
    fn quantile_splits_are_strictly_increasing() {
        let los: Vec<i64> = (0..1000).map(|i| (i * 7) % 400).collect();
        for k in 1..=8 {
            let splits = split_points_from_sample(&los, k);
            assert!(splits.len() < k.max(1));
            assert!(splits.windows(2).all(|w| w[0] < w[1]), "k={k}");
        }
    }

    #[test]
    fn agrees_with_oracle_across_shard_counts() {
        let ivs = workload(600);
        let mut oracle = NaiveIntervalStore::new(Geometry::new(8), IoCounter::new());
        for iv in &ivs {
            oracle.insert(iv.lo, iv.hi, iv.id);
        }
        for splits in [vec![], vec![500], vec![250, 500, 750]] {
            let idx = sharded(&ivs, splits.clone(), 2);
            assert_eq!(idx.len(), ivs.len());
            for q in (-20..1140).step_by(31) {
                let mut got = idx.stabbing(q);
                let mut want = oracle.stabbing(q);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "stab q={q} splits={splits:?}");
                let mut got = idx.intersecting(q, q + 57);
                let mut want = oracle.intersecting(q, q + 57);
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "intersect q={q} splits={splits:?}");
            }
        }
    }

    #[test]
    fn batched_results_are_thread_invariant() {
        let ivs = workload(400);
        let qs: Vec<i64> = (0..64).map(|i| (i * 37) % 1100).collect();
        let run = |budget: usize| {
            let idx = sharded(&ivs, vec![300, 600], budget);
            (idx.stab_batch(&qs), idx.io_totals())
        };
        let seq = run(1);
        for budget in 2..=4 {
            assert_eq!(
                seq,
                run(budget),
                "answers and per-shard I/O must not depend on the thread budget ({budget})"
            );
        }
    }

    /// The thread budget must be invisible: identical results *and*
    /// identical aggregate I/O at every budget from 1 to 4, over a
    /// shard-skewed build, flood and stab batch.
    #[test]
    fn thread_budget_never_changes_results_or_io() {
        check::trials("sharded::thread_invariance", 24, 0x5AAD2, |rng| {
            let geo = Geometry::new(rng.gen_range(2usize..9));
            let range = rng.gen_range(60i64..600);
            let shards = rng.gen_range(2usize..6);
            let n = rng.gen_range(50..400usize);
            // The testkit builds on this crate's library, whose `Interval`
            // is another type than this test build's.
            let base: Vec<Interval> =
                workloads::uniform_intervals(n, rng.next_u64(), range, range / 3 + 1)
                    .iter()
                    .map(|iv| Interval::new(iv.lo, iv.hi, iv.id))
                    .collect();
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

            let run = |budget: usize| {
                let mut idx = IndexBuilder::new(geo)
                    .sharded()
                    .splits(splits.clone())
                    .bulk_within(&base, budget);
                idx.apply_batch(&ops);
                let answers = idx.stab_batch(&qs);
                (answers, idx.io_totals())
            };
            let (a1, io1) = run(1);
            for budget in 2..=4 {
                let (at, iot) = run(budget);
                assert_eq!(a1, at, "results differ at budget {budget}");
                assert_eq!(io1, iot, "aggregate I/O differs at budget {budget}");
            }
        });
    }

    /// The write path fans out only from [`FAN_OUT_MIN_OPS`] routed
    /// operations up and runs inline below. Which side of the constant a
    /// write falls on must be invisible: just below, at and above it, on 1,
    /// 2 and 4 shards, through every write entry point, an index fanning
    /// over 4 threads ends up with the ids, the per-shard I/O bills and the
    /// page images, byte for byte, of the sequential budget 1.
    #[test]
    fn writes_below_at_and_above_the_fan_out_constant_match_sequential() {
        check::trials("sharded::fan_out_constant", 3, 0x5AAD5, |rng| {
            let geo = Geometry::new(rng.gen_range(4usize..9));
            let reorg_pages_per_op = [0usize, 4][rng.gen_range(0usize..2)];
            let range = 4_000i64;
            let n = 3 * FAN_OUT_MIN_OPS + 200;
            let base: Vec<Interval> = workloads::uniform_intervals(n, rng.next_u64(), range, 300)
                .iter()
                .map(|iv| Interval::new(iv.lo, iv.hi, iv.id))
                .collect();
            let sample: Vec<i64> = base.iter().map(|iv| iv.lo).collect();
            let fresh: Vec<Interval> =
                workloads::uniform_intervals(2 * FAN_OUT_MIN_OPS + 2, rng.next_u64(), range, 300)
                    .iter()
                    .map(|iv| Interval::new(iv.lo, iv.hi, n as u64 + iv.id))
                    .collect();
            for shards in [1usize, 2, 4] {
                for size in [FAN_OUT_MIN_OPS - 1, FAN_OUT_MIN_OPS, FAN_OUT_MIN_OPS + 1] {
                    // Three independent write floods of `size` ops each: a
                    // mixed one, a group commit of three submissions, and a
                    // delete batch. Deletes take distinct base intervals,
                    // inserts distinct fresh ones.
                    let mut victims = base.iter().copied();
                    let mut arrivals = fresh.iter().copied();
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

                    let run = |budget: usize| -> ShardedIntervalIndex {
                        let tuning = ccix_core::Tuning {
                            reorg_pages_per_op,
                            ..ccix_core::Tuning::default()
                        };
                        let mut idx = IndexBuilder::new(geo)
                            .tuning(tuning)
                            .sharded()
                            .splits_from_sample(&sample, shards)
                            .bulk_within(&base, budget);
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
                    for (s, (a, b)) in sequential.shards().zip(fanned.shards()).enumerate() {
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

    #[test]
    fn apply_submissions_routes_and_pumps() {
        let ivs = workload(200);
        let mut idx = sharded(&ivs, vec![333, 666], 2);
        let subs = vec![
            vec![
                IntervalOp::Insert(Interval::new(10, 2000, 9001)),
                IntervalOp::Insert(Interval::new(700, 710, 9002)),
            ],
            vec![IntervalOp::Delete(Interval::new(10, 2000, 9001))],
        ];
        idx.apply_submissions(&subs, 4);
        assert_eq!(idx.len(), ivs.len() + 1);
        let mut hit = idx.stabbing(705);
        hit.sort_unstable();
        assert!(hit.contains(&9002));
        assert!(!idx.stabbing(1500).contains(&9001), "delete visible");
    }

    #[test]
    fn single_shard_matches_unsharded_io_exactly() {
        let ivs = workload(300);
        let counter = IoCounter::new();
        let flat = IndexBuilder::new(Geometry::new(8)).bulk(counter.clone(), &ivs);
        let one = IndexBuilder::new(Geometry::new(8)).sharded().bulk(&ivs);
        assert_eq!(one.num_shards(), 1);
        assert_eq!(counter.snapshot(), one.io_totals(), "bulk I/O identical");
        let before_flat = counter.snapshot();
        let before_shard = one.io_totals();
        let qs: Vec<i64> = (0..40).map(|i| i * 29).collect();
        let a = flat.stab_batch(&qs);
        let b = one.stab_batch(&qs);
        assert_eq!(a, b);
        assert_eq!(
            counter.since(before_flat),
            before_shard.delta(one.io_totals()),
            "query I/O identical"
        );
    }
}
