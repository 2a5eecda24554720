//! The generalized one-dimensional index of §2.1.
//!
//! Stabbing queries are answered by a metablock tree over the points
//! `(lo, hi)` (Proposition 2.2's reduction). The left-endpoint range of an
//! intersection query, which the paper answers from a second structure (a
//! B+-tree on left endpoints), comes from the same metablock tree: its
//! slab decomposition is x-ordered, so
//! [`ccix_core::MetablockTree::x_range_with`] reports left endpoints in
//! `O(log_B n + t/B)` I/Os with **no second copy of the data** (on E9's
//! workload the copy cost 16.0k pages and ~4 I/Os per insert; the measured
//! comparison is in `docs/tuning.md` § Slab endpoints).

use ccix_core::{MetablockTree, Op, TreeStats, Tuning};
use ccix_extmem::{BackendSpec, FixedBytes, Geometry, IoCounter, Point, SortedRun};

/// A closed interval with an application id (a *generalized key*: the
/// projection of a generalized tuple on the indexed attribute).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Left endpoint.
    pub lo: i64,
    /// Right endpoint (`hi ≥ lo`).
    pub hi: i64,
    /// Application id (e.g. the generalized tuple it projects from).
    pub id: u64,
}

impl Interval {
    /// Construct an interval.
    ///
    /// # Panics
    /// Panics if `hi < lo`.
    pub fn new(lo: i64, hi: i64, id: u64) -> Self {
        assert!(hi >= lo, "interval endpoints out of order");
        Self { lo, hi, id }
    }

    /// The point `(lo, hi)` above the diagonal (Fig. 3's mapping).
    pub(crate) fn point(&self) -> Point {
        Point::new(self.lo, self.hi, self.id)
    }

    /// The interval a stored point stands for (the mapping's inverse).
    pub(crate) fn of_point(p: &Point) -> Self {
        Self::new(p.x, p.y, p.id)
    }
}

/// Same wire layout as the [`Point`] an interval maps to — `lo`, `hi`, `id`
/// little-endian — so an interval checkpoint page and the stabbing
/// structure's point page for the same records are byte-identical. Unlike
/// the integer records, decoding can fail: `hi < lo` is not a valid
/// interval, so a corrupt page is rejected rather than resurrected as a
/// reversed interval.
impl FixedBytes for Interval {
    const SIZE: usize = 24;

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.lo.to_le_bytes());
        out.extend_from_slice(&self.hi.to_le_bytes());
        out.extend_from_slice(&self.id.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::SIZE {
            return None;
        }
        let lo = i64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let hi = i64::from_le_bytes(bytes[8..16].try_into().ok()?);
        let id = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
        if hi < lo {
            return None;
        }
        Some(Self { lo, hi, id })
    }
}

/// One operation of a mixed batch (see [`IntervalIndex::apply_batch`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntervalOp {
    /// Insert the interval.
    Insert(Interval),
    /// Delete a previously inserted interval.
    Delete(Interval),
}

/// Construction options for [`IntervalIndex`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntervalOptions {
    /// Write-path/space tuning for the metablock tree.
    pub tuning: Tuning,
}

/// External dynamic interval management (Proposition 2.2 + Theorem 3.7).
///
/// Fully dynamic: insertion at the paper's amortised budget, and deletion —
/// the paper's §5 open problem — via the metablock tree's tombstone
/// machinery at the same amortised budget ([`IntervalIndex::delete`]).
/// Deleted intervals disappear from queries immediately; their storage is
/// reclaimed by the reorganisations that annihilate the tombstones and by
/// the occupancy-triggered shrink.
#[derive(Debug)]
pub struct IntervalIndex {
    geo: Geometry,
    counter: IoCounter,
    stab: MetablockTree,
    len: usize,
    /// The options this index was constructed with, retained so a durable
    /// checkpoint can record them and rebuild an identical layout.
    options: IntervalOptions,
    /// The page backend this index was opened on (snapshot forks are always
    /// model-backed — an epoch is an in-memory publication).
    backend: BackendSpec,
}

impl IntervalIndex {
    pub(crate) fn open_impl(
        spec: &BackendSpec,
        geo: Geometry,
        counter: IoCounter,
        options: IntervalOptions,
    ) -> Self {
        let stab = MetablockTree::new_tuned_on(
            spec,
            geo,
            counter.clone(),
            ccix_core::DiagOptions::default(),
            options.tuning,
        );
        Self {
            geo,
            counter,
            stab,
            len: 0,
            options,
            backend: spec.clone(),
        }
    }

    pub(crate) fn bulk_impl(
        spec: &BackendSpec,
        geo: Geometry,
        counter: IoCounter,
        intervals: &[Interval],
        options: IntervalOptions,
    ) -> Self {
        let points: Vec<Point> = intervals.iter().map(Interval::point).collect();
        let stab = MetablockTree::build_tuned_on(
            spec,
            geo,
            counter.clone(),
            points,
            ccix_core::DiagOptions::default(),
            options.tuning,
        );
        Self {
            geo,
            counter,
            stab,
            len: intervals.len(),
            options,
            backend: spec.clone(),
        }
    }

    /// Build over the x-sorted `run` of interval points, whose ids the
    /// caller has found unique, planning over at most `budget` threads.
    pub(crate) fn from_run(
        spec: &BackendSpec,
        geo: Geometry,
        counter: IoCounter,
        run: SortedRun,
        options: IntervalOptions,
        budget: usize,
    ) -> Self {
        let len = run.len();
        let stab =
            MetablockTree::build_run_on(spec, geo, counter.clone(), run, options.tuning, budget);
        Self {
            geo,
            counter,
            stab,
            len,
            options,
            backend: spec.clone(),
        }
    }

    /// Number of intervals stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Block geometry.
    pub fn geometry(&self) -> Geometry {
        self.geo
    }

    /// The shared I/O counter.
    pub fn counter(&self) -> &IoCounter {
        &self.counter
    }

    /// The construction options this index was built with. A durable
    /// checkpoint records these so recovery rebuilds the same layout with
    /// the same write-path behaviour.
    pub fn options(&self) -> IntervalOptions {
        self.options
    }

    /// Fork a frozen read **snapshot** of the whole index, charging its
    /// I/O to `counter`.
    ///
    /// The stabbing structure forks copy-on-write (see
    /// [`ccix_core::MetablockTree::fork_snapshot`]); the snapshot answers
    /// every read — stabbing, batches, intersections — exactly as the live
    /// index would at the moment of the fork, including buffered updates
    /// and pending tombstones. Reads on the snapshot bill `counter`, never
    /// the live index's counter. This is the epoch the `ccix-serve` layer
    /// publishes behind an `Arc` after each group commit.
    pub fn fork_snapshot(&self, counter: IoCounter) -> Self {
        Self {
            geo: self.geo,
            counter: counter.clone(),
            stab: self.stab.fork_snapshot(counter),
            len: self.len,
            options: self.options,
            backend: BackendSpec::Model,
        }
    }

    /// The page backend this index was opened on. Snapshot forks always
    /// report [`BackendSpec::Model`].
    pub fn backend(&self) -> &BackendSpec {
        &self.backend
    }

    /// Whether this index's stores mirror their pages onto real files.
    pub fn is_file_backed(&self) -> bool {
        self.backend.is_file()
    }

    /// `(cold, warm)` charged-read counts of the file backend's point
    /// store — `pread`s that missed the page cache vs. cache hits. `None`
    /// on the model backend.
    pub fn file_stats(&self) -> Option<(u64, u64)> {
        self.stab.store_file_stats()
    }

    /// Drop the file backend's page cache, so the next charged read of
    /// each page is a cold `pread` (cold-cache measurement). A no-op on
    /// the model backend.
    pub fn clear_file_caches(&self) {
        self.stab.clear_store_file_cache();
    }

    /// `(page id, bytes)` images of every live **model** page of the
    /// stabbing structure's point store (pages encoded via
    /// [`FixedBytes`]), in a deterministic order. Uncharged; the
    /// differential backend suite compares these across backends.
    pub fn model_page_images(&self) -> Vec<(u32, Vec<u8>)> {
        self.stab.store_page_images()
    }

    /// As [`IntervalIndex::model_page_images`], but reading each page's
    /// bytes back from the **file** backend (cache bypassed). `None` on
    /// the model backend.
    pub fn file_page_images(&self) -> Option<Vec<(u32, Vec<u8>)>> {
        self.stab.store_file_page_images()
    }

    /// Advance the stabbing structure's deferred reorganisation by one
    /// per-op budget slice (see
    /// [`ccix_core::MetablockTree::pump_reorg_step`]); returns `true`
    /// while work remains. A no-op unless
    /// [`ccix_core::Tuning::reorg_pages_per_op`] is finite.
    pub fn pump_reorg_step(&mut self) -> bool {
        self.stab.pump_reorg_step()
    }

    /// Deferred reorganisation debt in page transfers (see
    /// [`ccix_core::MetablockTree::reorg_debt`]).
    pub fn reorg_debt(&self) -> u64 {
        self.stab.reorg_debt()
    }

    /// Run any in-progress reorganisation to completion and bill all
    /// deferred debt (see [`ccix_core::MetablockTree::flush_reorgs`]).
    pub fn flush_reorgs(&mut self) {
        self.stab.flush_reorgs()
    }

    /// True while a background shrink job is in flight in the stabbing
    /// structure (see [`ccix_core::MetablockTree::reorg_in_progress`]).
    pub fn reorg_in_progress(&self) -> bool {
        self.stab.reorg_in_progress()
    }

    /// Walk the stabbing structure unbilled and assert its structural
    /// invariants (see [`ccix_core::MetablockTree::validate_unbilled`]).
    /// Test/debug only.
    pub fn validate_unbilled(&self) {
        self.stab.validate_unbilled();
    }

    /// Disk blocks occupied by the index.
    pub fn space_pages(&self) -> usize {
        self.stab.space_pages()
    }

    /// Shape statistics of the stabbing structure, without charging I/Os
    /// (see [`MetablockTree::stats`]).
    pub fn stats(&self) -> TreeStats {
        self.stab.stats()
    }

    /// Insert `[lo, hi]` with `id`. Amortised
    /// `O(log_B n + (log_B n)²/B)` I/Os.
    pub fn insert(&mut self, lo: i64, hi: i64, id: u64) {
        self.stab.insert(Interval::new(lo, hi, id).point());
        self.len += 1;
    }

    /// Delete a previously inserted interval — exactly the `(lo, hi, id)`
    /// triple it was inserted with. Amortised within the insert budget,
    /// `O(log_B n + (log_B n)²/B)` I/Os: the metablock tree buffers a
    /// tombstone next to the live copy and annihilates the pair at the
    /// next reorganisation.
    ///
    /// # Panics
    /// Panics if the index is empty; deleting an interval that is not
    /// stored (or reusing a deleted id) is a contract violation caught by
    /// debug assertions.
    pub fn delete(&mut self, lo: i64, hi: i64, id: u64) {
        self.stab.delete(Interval::new(lo, hi, id).point());
        self.len -= 1;
    }

    /// Delete a batch of intervals as **one batched operation**: the
    /// tombstones are routed in sorted order over a shared pinned read
    /// context ([`ccix_core::MetablockTree::delete_batch`]), so a
    /// correlated delete flood pays the shared descent prefix once per
    /// residency instead of once per delete.
    pub fn delete_batch(&mut self, intervals: &[(i64, i64, u64)]) {
        let pts: Vec<Point> = intervals
            .iter()
            .map(|&(lo, hi, id)| Interval::new(lo, hi, id).point())
            .collect();
        self.stab.delete_batch(&pts);
        self.len -= intervals.len();
    }

    /// Apply a mixed batch of inserts and deletes as **one batched
    /// operation**: the stabbing structure routes the whole batch in
    /// sorted order over a shared pinned read context
    /// ([`ccix_core::MetablockTree::apply_batch`]), so a correlated mixed
    /// flood pays the shared descent prefix once per residency instead of
    /// once per op.
    ///
    /// Ops must be independent: deleting an interval the same batch
    /// inserts is a contract violation.
    pub fn apply_batch(&mut self, ops: &[IntervalOp]) {
        let core_ops: Vec<Op> = ops
            .iter()
            .map(|op| match *op {
                IntervalOp::Insert(iv) => Op::Insert(iv.point()),
                IntervalOp::Delete(iv) => Op::Delete(iv.point()),
            })
            .collect();
        self.stab.apply_batch(&core_ops);
        for op in ops {
            match op {
                IntervalOp::Insert(_) => self.len += 1,
                IntervalOp::Delete(_) => self.len -= 1,
            }
        }
    }

    /// Logically deleted intervals whose tombstones are still pending
    /// cancellation inside the stabbing structure (diagnostic).
    pub fn pending_deletes(&self) -> usize {
        self.stab.pending_deletes()
    }

    /// Ids of all intervals containing `q` (stabbing query).
    /// `O(log_B n + t/B)` I/Os.
    pub fn stabbing(&self, q: i64) -> Vec<u64> {
        let mut out = Vec::new();
        self.stab_with(q, |p| p.id, &mut out);
        out
    }

    /// Append `project` of every stored point that `q` stabs: each answer
    /// is written once, as the id or interval the caller asked for (see
    /// [`ccix_core::MetablockTree::query_with`]).
    pub(crate) fn stab_with<T>(&self, q: i64, project: impl Fn(&Point) -> T, out: &mut Vec<T>) {
        self.stab.query_with(q, project, out);
    }

    /// Answer a whole flood of stabbing queries as **one batched
    /// operation**: the metablock tree
    /// ([`ccix_core::MetablockTree::query_batch_with`]) processes the
    /// points in sorted order over a single pinned read context, so every
    /// block of the shared
    /// descent prefix is billed once per residency instead of once per
    /// query. Results are in input order.
    ///
    /// `O(log_B n + Σtᵢ/B)` I/Os for a correlated flood; scattered batches
    /// degrade gracefully to per-query cost.
    pub fn stab_batch(&self, qs: &[i64]) -> Vec<Vec<u64>> {
        let mut outs = Vec::new();
        self.stab_batch_into(qs, &mut outs);
        outs
    }

    /// As [`IntervalIndex::stab_batch`], reusing `outs` for the per-query
    /// result buffers (resized to `qs.len()`, each slot cleared) — the
    /// canonical `_into` shape of the batch surface, see
    /// `docs/architecture.md` § Batched operations.
    pub fn stab_batch_into(&self, qs: &[i64], outs: &mut Vec<Vec<u64>>) {
        self.stab.query_batch_with(qs, |p| p.id, outs);
    }

    /// As [`IntervalIndex::stab_batch`], returning full intervals.
    pub fn stab_batch_intervals(&self, qs: &[i64]) -> Vec<Vec<Interval>> {
        let mut outs = Vec::new();
        self.stab_batch_intervals_into(qs, &mut outs);
        outs
    }

    /// As [`IntervalIndex::stab_batch_intervals`], reusing `outs` (see
    /// [`IntervalIndex::stab_batch_into`]).
    pub fn stab_batch_intervals_into(&self, qs: &[i64], outs: &mut Vec<Vec<Interval>>) {
        self.stab.query_batch_with(qs, Interval::of_point, outs);
    }

    /// As [`IntervalIndex::stabbing`], returning full intervals.
    pub fn stabbing_intervals(&self, q: i64) -> Vec<Interval> {
        let mut out = Vec::new();
        self.stab_with(q, Interval::of_point, &mut out);
        out
    }

    /// Report every stored interval whose **left endpoint** lies in
    /// `[x1, x2]`, in `O(log_B n + t/B)` I/Os — the one-dimensional
    /// x-range that an intersection query composes with a stabbing query
    /// (Proposition 2.2), answered from the metablock tree's slab order.
    pub fn left_range(&self, x1: i64, x2: i64) -> Vec<Interval> {
        let mut out = Vec::new();
        if x1 <= x2 {
            self.stab.x_range_with(x1, x2, Interval::of_point, &mut out);
        }
        out
    }

    /// Ids of all intervals intersecting `[q1, q2]`.
    /// `O(log_B n + t/B)` I/Os; no interval is reported twice.
    pub fn intersecting(&self, q1: i64, q2: i64) -> Vec<u64> {
        self.intersecting_intervals(q1, q2)
            .iter()
            .map(|iv| iv.id)
            .collect()
    }

    /// As [`IntervalIndex::intersecting`], returning full intervals.
    pub fn intersecting_intervals(&self, q1: i64, q2: i64) -> Vec<Interval> {
        assert!(q1 <= q2, "query interval endpoints out of order");
        // Types 3/4: intervals containing q1.
        let mut out = self.stabbing_intervals(q1);
        // Types 1/2: left endpoint strictly inside (q1, q2]. Strictness
        // avoids double-reporting intervals with lo == q1, which the
        // stabbing query already returned.
        if q1 < q2 {
            self.stab
                .x_range_with(q1 + 1, q2, Interval::of_point, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_validation() {
        let iv = Interval::new(2, 5, 1);
        assert_eq!(iv.point(), Point::new(2, 5, 1));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn reversed_interval_rejected() {
        let _ = Interval::new(5, 2, 1);
    }
}
