//! Incremental reorganisation (LSM-style dribbling) for both metablock
//! trees.
//!
//! With [`crate::Tuning::reorg_pages_per_op`] `= 0` (the default and the
//! paper's behaviour) nothing in this module runs and every reorganisation
//! executes to completion inside the operation that triggered it — the
//! amortised bounds are exactly the paper's, but a TD fold or occupancy
//! shrink is a stop-the-world pause. A budget `k > 0` converts those pauses
//! into a bounded per-operation tax, in two mechanisms:
//!
//! 1. **Charge dribbling** for the in-place reorganisations (level-I merge,
//!    TD fold, TS reorganisation, level-II push-down/split, branching
//!    split). These run at their usual trigger points — the *structure*
//!    evolves bit-identically to `k = 0` — but their page transfers are
//!    **shunted** ([`ccix_extmem::IoCounter::begin_shunt`]) into a debt
//!    meter instead of the live counters, and every subsequent write
//!    operation bleeds at most `k` transfers of debt. Totals are conserved
//!    exactly: the debt is real work, billed later.
//!
//! 2. A **two-sided background job** for the occupancy shrink, whose
//!    one-shot form rewrites the whole tree. The job freezes the tree and
//!    rebuilds it over many operations: *collect* the frozen runs a few
//!    pages per pump, *merge* them with a resumable [`MergeCursor`] a few
//!    pages of points per pump, then *cut over* (swap in the rebuilt tree)
//!    and *drain*. While the tree is frozen, inserts and deletes divert to
//!    a side **delta** (page-backed update/tombstone runs) that queries
//!    consult alongside the frozen tree; after cutover the delta drains
//!    back into the live tree a few points per pump. A delete whose victim
//!    still sits in the delta *annihilates* in place (no tombstone is ever
//!    stored for a delta-buffered point), so every delta tombstone targets
//!    a frozen-tree point and the drain order is irrelevant.
//!
//! Job pumps also run under the shunt, so a write operation's billed cost
//! is its own routing plus at most `k` bled transfers — the worst-case
//! bound the EL latency table gates.

use std::collections::VecDeque;

use ccix_extmem::{MergeCursor, PageId, Point, Run, SortedIds, SortedRun};

use super::{MbId, ReadCtx, Shape, Tree};
use crate::par::cores;

/// Debt meter plus the in-progress shrink job, if any.
#[derive(Clone, Debug, Default)]
pub(crate) struct ReorgState {
    /// Shunted reads not yet bled into the live counter.
    pub debt_reads: u64,
    /// Shunted writes not yet bled into the live counter.
    pub debt_writes: u64,
    /// The background shrink job (`None` almost always).
    pub job: Option<ShrinkJob>,
    /// Reorganisations run so far, by kind.
    pub fired: ReorgCounts,
}

/// Reorganisations a tree has run since it was created (or, for a fork,
/// since its origin was created), by kind — charged or shunted alike.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReorgCounts {
    /// Level-I merges of an update or tombstone buffer into the mains.
    pub level_i: u64,
    /// TD folds of the staging areas into the TD structures.
    pub td_folds: u64,
    /// TS reorganisations: a parent's sibling snapshots rebuilt, TD reset.
    pub ts_reorgs: u64,
    /// Level-II push-downs of an interior metablock's bottom points.
    pub push_downs: u64,
    /// Level-II splits of a full leaf.
    pub leaf_splits: u64,
    /// Branching-factor splits (at the root: whole-tree rebuilds).
    pub branching_splits: u64,
    /// Occupancy shrinks: one-shot rebuilds and background jobs started.
    pub shrinks: u64,
}

impl ReorgState {
    /// Total page transfers of deferred work.
    pub fn debt(&self) -> u64 {
        self.debt_reads + self.debt_writes
    }
}

/// A two-sided occupancy shrink in progress.
#[derive(Clone, Debug)]
pub(crate) struct ShrinkJob {
    pub phase: JobPhase,
    /// Logical size when the tree was frozen; the cutover's rebuilt tree
    /// holds exactly this many points (every frozen tombstone cancels).
    pub len_at_freeze: usize,
    pub delta: DeltaBuf,
}

impl ShrinkJob {
    /// True until the cutover: operations divert to the delta, queries see
    /// the frozen tree plus the delta.
    pub fn frozen(&self) -> bool {
        !matches!(self.phase, JobPhase::Drain)
    }
}

#[derive(Clone, Debug)]
pub(crate) enum JobPhase {
    /// Reading the frozen subtree's page runs, `k` pages per pump.
    Collect {
        /// Remaining runs to read (consumed from the back).
        specs: Vec<RunSpec>,
        /// Points of the run currently being read.
        buf: Vec<Point>,
        runs: Vec<SortedRun>,
        tomb_runs: Vec<SortedRun>,
    },
    /// Tournament-merging the collected runs, `k·B` points per pump.
    Merge {
        queue: VecDeque<SortedRun>,
        cursor: Option<MergeCursor>,
        tombs: SortedRun,
    },
    /// Cutover done (the rebuilt tree is live); re-routing the delta back,
    /// `k` points per pump.
    Drain,
}

/// One frozen page run awaiting collection (shared with the frozen block).
#[derive(Clone, Debug)]
pub(crate) struct RunSpec {
    pub pages: Run<PageId>,
    pub pos: usize,
    /// The run is already x-sorted (a vertical blocking).
    pub sorted: bool,
    /// The run holds tombstones.
    pub tomb: bool,
}

/// The side delta absorbing operations while the tree is frozen.
///
/// Both runs are page-backed (appends are charged like buffer appends);
/// the id sets are in-memory job state, bounded by the operations that
/// arrive during the job — the same scale as the pinned working memory the
/// model grants an operation.
#[derive(Clone, Debug, Default)]
pub(crate) struct DeltaBuf {
    pub upd_pages: Vec<PageId>,
    pub n_upd: usize,
    /// Update points drained back so far (prefix of the run).
    pub upd_pos: usize,
    pub tomb_pages: Vec<PageId>,
    pub n_tomb: usize,
    pub tomb_pos: usize,
    /// Ids of undrained, unannihilated delta update points.
    pub upd_ids: SortedIds,
    /// Ids of delta update points whose delete arrived before their drain:
    /// the pair annihilated in place, the drain skips the stored copy.
    pub annihilated: SortedIds,
}

impl DeltaBuf {
    /// Tombstones still awaiting drain.
    pub fn undrained_tombs(&self) -> usize {
        self.n_tomb - self.tomb_pos
    }
}

impl<S: Shape> Tree<S> {
    /// Run `f` with its I/O charges shunted into the debt meter — identity
    /// when the budget is 0 (exact-I/O gates stay byte-identical) or when a
    /// shunt is already active (a dribbled reorganisation triggering
    /// further reorganisations).
    pub(crate) fn with_shunt<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        if self.tuning.reorg_pages_per_op == 0 || self.counter.shunt_active() {
            return f(self);
        }
        self.counter.begin_shunt();
        let out = f(self);
        let (r, w) = self.counter.end_shunt();
        self.reorg.debt_reads += r;
        self.reorg.debt_writes += w;
        out
    }

    /// Deferred reorganisation work in page transfers (debt not yet bled).
    /// Always 0 when [`crate::Tuning::reorg_pages_per_op`] is 0.
    pub fn reorg_debt(&self) -> u64 {
        self.reorg.debt()
    }

    /// True while a background shrink job is in progress.
    pub fn reorg_in_progress(&self) -> bool {
        self.reorg.job.is_some()
    }

    /// Reorganisations this tree has run, by kind.
    pub fn reorgs_fired(&self) -> ReorgCounts {
        self.reorg.fired
    }

    /// Run any in-progress shrink job to completion and bill all deferred
    /// debt. Call before comparing totals against an amortised budget:
    /// totals are conserved only once the debt has been bled.
    pub fn flush_reorgs(&mut self) {
        if self.tuning.reorg_pages_per_op == 0 {
            debug_assert!(self.reorg.job.is_none() && self.reorg.debt() == 0);
            return;
        }
        while self.reorg.job.is_some() {
            self.with_shunt(|t| t.advance_job(usize::MAX / 2));
        }
        self.counter.add_reads(self.reorg.debt_reads);
        self.counter.add_writes(self.reorg.debt_writes);
        self.reorg.debt_reads = 0;
        self.reorg.debt_writes = 0;
    }

    /// One pump, called at the end of every insert/delete when the budget
    /// is finite: advance the job (charges shunted), then bleed at most `k`
    /// transfers of debt into the live counters. Returns true when a job
    /// was active (the tree may have been restructured, so a batched
    /// caller must refresh its pinned context).
    pub(crate) fn pump_reorg(&mut self) -> bool {
        let k = self.tuning.reorg_pages_per_op;
        if k == 0 {
            return false;
        }
        let had_job = self.reorg.job.is_some();
        if had_job {
            self.with_shunt(|t| t.advance_job(k));
        }
        let mut room = k as u64;
        let r = room.min(self.reorg.debt_reads);
        if r > 0 {
            self.counter.add_reads(r);
            self.reorg.debt_reads -= r;
            room -= r;
        }
        let w = room.min(self.reorg.debt_writes);
        if w > 0 {
            self.counter.add_writes(w);
            self.reorg.debt_writes -= w;
        }
        had_job
    }

    /// Advance the deferred reorganisation by one per-op budget slice:
    /// push any in-progress shrink job forward and bleed up to
    /// [`crate::Tuning::reorg_pages_per_op`] transfers of debt into the
    /// live counters. A no-op when the budget is 0. Returns `true` while
    /// work remains (a job in progress or unbled debt) — the serving
    /// layer's writer pumps this between group commits so publish latency
    /// stays bounded without ever stopping the world.
    pub fn pump_reorg_step(&mut self) -> bool {
        self.pump_reorg();
        self.reorg.job.is_some() || self.reorg.debt() > 0
    }

    // ---- the shrink job --------------------------------------------------

    /// Freeze the tree and start a background shrink job (budget > 0 only).
    /// The control-block walk that snapshots the page runs is shunted like
    /// every other job charge.
    pub(crate) fn start_shrink_job(&mut self) {
        debug_assert!(self.reorg.job.is_none(), "one job at a time");
        self.reorg.fired.shrinks += 1;
        let root = self.root.expect("shrink job needs a non-empty tree");
        let mut specs = Vec::new();
        self.with_shunt(|t| t.collect_job_specs(root, &mut specs));
        self.reorg.job = Some(ShrinkJob {
            phase: JobPhase::Collect {
                specs,
                buf: Vec::new(),
                runs: Vec::new(),
                tomb_runs: Vec::new(),
            },
            len_at_freeze: self.len,
            delta: DeltaBuf::default(),
        });
    }

    fn collect_job_specs(&mut self, mb: MbId, specs: &mut Vec<RunSpec>) {
        let (vertical, update, tomb, children) = {
            let meta = self.meta(mb);
            (
                meta.vertical.clone(),
                meta.update.clone(),
                meta.tomb.clone(),
                meta.children.iter().map(|c| c.mb).collect::<Vec<_>>(),
            )
        };
        if !vertical.is_empty() {
            specs.push(RunSpec {
                pages: vertical,
                pos: 0,
                sorted: true,
                tomb: false,
            });
        }
        if !update.is_empty() {
            specs.push(RunSpec {
                pages: update,
                pos: 0,
                sorted: false,
                tomb: false,
            });
        }
        if !tomb.is_empty() {
            specs.push(RunSpec {
                pages: tomb,
                pos: 0,
                sorted: false,
                tomb: true,
            });
        }
        for c in children {
            self.collect_job_specs(c, specs);
        }
    }

    /// Advance the job by roughly `k` pages of work. Always called under
    /// the shunt.
    fn advance_job(&mut self, k: usize) {
        let Some(mut job) = self.reorg.job.take() else {
            return;
        };
        let done = self.advance_job_inner(&mut job, k);
        if done {
            self.store.free_run(&job.delta.upd_pages);
            self.store.free_run(&job.delta.tomb_pages);
        } else {
            self.reorg.job = Some(job);
        }
    }

    fn advance_job_inner(&mut self, job: &mut ShrinkJob, k: usize) -> bool {
        match &mut job.phase {
            JobPhase::Collect {
                specs,
                buf,
                runs,
                tomb_runs,
            } => {
                let mut budget = k.max(1);
                while budget > 0 {
                    let Some(spec) = specs.last_mut() else {
                        break;
                    };
                    buf.extend_from_slice(self.store.read(spec.pages[spec.pos]));
                    spec.pos += 1;
                    budget -= 1;
                    if spec.pos == spec.pages.len() {
                        let pts = std::mem::take(buf);
                        let run = if spec.sorted {
                            SortedRun::from_sorted(pts)
                        } else {
                            SortedRun::from_unsorted(pts)
                        };
                        if spec.tomb {
                            tomb_runs.push(run);
                        } else {
                            runs.push(run);
                        }
                        specs.pop();
                    }
                }
                if specs.is_empty() {
                    debug_assert!(buf.is_empty());
                    job.phase = JobPhase::Merge {
                        queue: runs.drain(..).collect(),
                        cursor: None,
                        tombs: SortedRun::merge_many(std::mem::take(tomb_runs)),
                    };
                }
                false
            }
            JobPhase::Merge {
                queue,
                cursor,
                tombs,
            } => {
                if cursor.is_none() && queue.len() < 2 {
                    // Tournament complete: cancel tombstones and cut over.
                    let merged = queue.pop_front().unwrap_or_default();
                    let tombs = std::mem::take(tombs);
                    self.job_cutover(merged, tombs, job.len_at_freeze);
                    job.phase = JobPhase::Drain;
                    return false;
                }
                if cursor.is_none() {
                    let a = queue.pop_front().expect("two runs queued");
                    let b = queue.pop_front().expect("two runs queued");
                    *cursor = Some(MergeCursor::new(a, b));
                }
                let cur = cursor.as_mut().expect("cursor just installed");
                if cur.step(k.saturating_mul(self.geo.b).max(1)) {
                    let merged = cursor.take().expect("cursor present").finish();
                    queue.push_back(merged);
                }
                false
            }
            JobPhase::Drain => {
                let mut delta = std::mem::take(&mut job.delta);
                let done = self.job_drain(&mut delta, k);
                job.delta = delta;
                done
            }
        }
    }

    /// Swap the rebuilt tree in for the frozen one. After this, every
    /// frozen tombstone has been cancelled and every delta tombstone's
    /// victim is a point of the rebuilt tree.
    fn job_cutover(&mut self, merged: SortedRun, tombs: SortedRun, len_at_freeze: usize) {
        let (pts, unmatched) = merged.cancel(&tombs);
        debug_assert!(
            unmatched.is_empty(),
            "every frozen tombstone has its victim in the frozen tree"
        );
        let root = self.root.expect("frozen tree has a root");
        self.free_subtree(root);
        debug_assert_eq!(self.tombs_pending, 0, "cutover cancelled every tombstone");
        debug_assert_eq!(
            pts.len(),
            len_at_freeze,
            "rebuilt tree holds exactly the frozen live points"
        );
        self.rebuild_root(pts, cores());
    }

    /// Re-route up to `k` delta points into the live tree. Update points
    /// insert (skipping annihilated pairs); tombstones route with the
    /// normal delete machinery — their victims are all in the tree, so the
    /// landing invariant holds and triggers fire as usual (nested inside
    /// this already-shunted pump, so their charges join the debt).
    fn job_drain(&mut self, d: &mut DeltaBuf, k: usize) -> bool {
        let b = self.geo.b;
        let mut budget = k.max(1);
        while budget > 0 && d.upd_pos < d.n_upd {
            let page: Vec<Point> = self.store.read(d.upd_pages[d.upd_pos / b]).to_vec();
            let off = d.upd_pos % b;
            let take = (page.len() - off).min(budget);
            for p in &page[off..off + take] {
                d.upd_pos += 1;
                if d.annihilated.remove(p.id) {
                    continue;
                }
                d.upd_ids.remove(p.id);
                match self.root {
                    None => self.plant_root(*p),
                    Some(root) => self.insert_routed(Vec::new(), root, *p),
                }
            }
            budget -= take;
        }
        while budget > 0 && d.tomb_pos < d.n_tomb {
            let page: Vec<Point> = self.store.read(d.tomb_pages[d.tomb_pos / b]).to_vec();
            let off = d.tomb_pos % b;
            let take = (page.len() - off).min(budget);
            for t in &page[off..off + take] {
                d.tomb_pos += 1;
                let root = self.root.expect("tombstone victims live in the tree");
                let mut ctx = self.read_ctx();
                let mut dirty: Vec<MbId> = Vec::new();
                let mut path = Vec::new();
                let triggers = self.route_tombstone(&mut ctx, &mut dirty, &mut path, root, *t);
                self.run_triggers(&mut dirty, triggers, &path);
                self.flush_dirty(&dirty);
            }
            budget -= take;
        }
        d.upd_pos == d.n_upd && d.tomb_pos == d.n_tomb
    }

    // ---- operation diversion ---------------------------------------------

    /// Divert an insert to the delta while the tree is frozen. Returns
    /// false (caller routes normally) when no frozen job is active.
    pub(crate) fn delta_insert(&mut self, p: Point) -> bool {
        let Self {
            store, reorg, geo, ..
        } = self;
        let Some(job) = reorg.job.as_mut() else {
            return false;
        };
        if !job.frozen() {
            return false;
        }
        let d = &mut job.delta;
        if d.n_upd % geo.b != 0 {
            let pg = *d.upd_pages.last().expect("open delta page exists");
            store.append(pg, p);
        } else {
            d.upd_pages.push(store.alloc(vec![p]));
        }
        d.n_upd += 1;
        d.upd_ids.insert(p.id);
        true
    }

    /// Handle the delta side of a delete. Returns true when the delete was
    /// fully absorbed here: either the victim was an undrained delta point
    /// (the pair annihilates in place — no tombstone is stored anywhere) or
    /// the tree is frozen (the tombstone is buffered in the delta; its
    /// victim is a frozen-tree point, re-routed after cutover). Returns
    /// false when the caller must route the tombstone normally.
    pub(crate) fn delta_delete(&mut self, p: Point) -> bool {
        let Self {
            store, reorg, geo, ..
        } = self;
        let Some(job) = reorg.job.as_mut() else {
            return false;
        };
        let frozen = job.frozen();
        let d = &mut job.delta;
        if d.upd_ids.remove(p.id) {
            d.annihilated.insert(p.id);
            return true;
        }
        if !frozen {
            return false;
        }
        if d.n_tomb % geo.b != 0 {
            let pg = *d.tomb_pages.last().expect("open delta page exists");
            store.append(pg, p);
        } else {
            d.tomb_pages.push(store.alloc(vec![p]));
        }
        d.n_tomb += 1;
        true
    }

    // ---- query-side delta consultation -----------------------------------

    /// Report the delta's undrained update points that satisfy the query
    /// predicate `keep` and record its undrained tombstone ids the same
    /// predicate selects — the "both sides" half of a query against a tree
    /// with a job in progress. Billed through the operation's pin like any
    /// other buffer scan.
    pub(crate) fn scan_delta_with(
        &self,
        ctx: &mut ReadCtx,
        keep: impl Fn(&Point) -> bool,
        out: &mut Vec<Point>,
    ) {
        let Some(job) = &self.reorg.job else {
            return;
        };
        let d = &job.delta;
        let b = self.geo.b;
        for (i, &pg) in d.upd_pages.iter().enumerate() {
            if (i + 1) * b <= d.upd_pos {
                continue; // fully drained page
            }
            let skip = d.upd_pos.saturating_sub(i * b);
            for p in &self.ctx_read(ctx, pg)[skip..] {
                if keep(p) && !d.annihilated.contains(p.id) {
                    out.push(*p);
                }
            }
        }
        for (i, &pg) in d.tomb_pages.iter().enumerate() {
            if (i + 1) * b <= d.tomb_pos {
                continue;
            }
            let skip = d.tomb_pos.saturating_sub(i * b);
            let page = self.ctx_read(ctx, pg);
            ctx.del
                .extend(page[skip..].iter().filter(|t| keep(t)).map(|t| t.id));
        }
    }

    /// The delta's undrained live update points (unbilled; validator use).
    /// Also returns the undrained tombstone count.
    pub(crate) fn delta_contents_unbilled(&self) -> (Vec<Point>, usize) {
        let Some(job) = &self.reorg.job else {
            return (Vec::new(), 0);
        };
        let d = &job.delta;
        let b = self.geo.b;
        let mut live = Vec::new();
        for (i, &pg) in d.upd_pages.iter().enumerate() {
            if (i + 1) * b <= d.upd_pos {
                continue;
            }
            let skip = d.upd_pos.saturating_sub(i * b);
            for p in &self.store.read_unbilled(pg)[skip..] {
                if !d.annihilated.contains(p.id) {
                    live.push(*p);
                }
            }
        }
        (live, d.undrained_tombs())
    }

    /// The delta's undrained tombstones (unbilled; validator use).
    pub(crate) fn delta_tombs_unbilled(&self) -> Vec<Point> {
        let Some(job) = &self.reorg.job else {
            return Vec::new();
        };
        let d = &job.delta;
        let b = self.geo.b;
        let mut tombs = Vec::new();
        for (i, &pg) in d.tomb_pages.iter().enumerate() {
            if (i + 1) * b <= d.tomb_pos {
                continue;
            }
            let skip = d.tomb_pos.saturating_sub(i * b);
            tombs.extend_from_slice(&self.store.read_unbilled(pg)[skip..]);
        }
        tombs
    }
}
