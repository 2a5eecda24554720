//! Incremental reorganisation for the 3-sided tree — the same two
//! mechanisms as the diagonal tree's [`crate::diag::reorg`] (charge
//! dribbling via the I/O shunt, plus the two-sided background shrink job
//! with its operation delta), sharing that module's state types. Only the
//! tree-specific hooks differ: the collect walk reads `TsMeta` runs (the
//! PSTs and TSL/TSR snapshots are copies and are skipped), the cutover
//! rebuilds via this tree's `build_slab`, and the delta's query-side scan
//! uses the 3-sided predicate.

use ccix_extmem::{MergeCursor, Point, SortedRun};

use super::ThreeSidedTree;
use crate::diag::reorg::{DeltaBuf, JobPhase, RunSpec, ShrinkJob};
use crate::diag::{MbId, ReadCtx, FULL_RANGE};

impl ThreeSidedTree {
    /// Run `f` with its I/O charges shunted into the debt meter — identity
    /// when the budget is 0 or a shunt is already active (see the diagonal
    /// tree's `with_shunt`).
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
    pub fn reorg_debt(&self) -> u64 {
        self.reorg.debt()
    }

    /// True while a background shrink job is in progress.
    pub fn reorg_in_progress(&self) -> bool {
        self.reorg.job.is_some()
    }

    /// Run any in-progress shrink job to completion and bill all deferred
    /// debt (totals are conserved only once the debt has been bled).
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

    /// One pump per write operation: advance the job (charges shunted),
    /// then bleed at most `k` transfers of debt. Returns true when a job
    /// was active (batched callers must refresh their pinned context).
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

    /// Advance the deferred reorganisation by one per-op budget slice and
    /// bleed up to [`crate::Tuning::reorg_pages_per_op`] transfers of debt;
    /// see [`crate::MetablockTree::pump_reorg_step`]. Returns `true` while
    /// work remains.
    pub fn pump_reorg_step(&mut self) -> bool {
        self.pump_reorg();
        self.reorg.job.is_some() || self.reorg.debt() > 0
    }

    // ---- the shrink job --------------------------------------------------

    /// Freeze the tree and start a background shrink job (budget > 0 only).
    pub(crate) fn start_shrink_job(&mut self) {
        debug_assert!(self.reorg.job.is_none(), "one job at a time");
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

    /// Snapshot the frozen subtree's page runs. PSTs, TSL/TSR snapshots and
    /// TD staging areas hold copies of points collected here — skipped, and
    /// freed wholesale by the cutover's `free_subtree`.
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

    /// Swap the rebuilt tree in for the frozen one (see the diagonal
    /// tree's `job_cutover`).
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
        self.root = if pts.is_empty() {
            None
        } else {
            let (r, _, _) = self.build_slab(pts, FULL_RANGE.0, FULL_RANGE.1);
            Some(r)
        };
        self.note_full_rebuild();
    }

    /// Re-route up to `k` delta points into the live tree (see the
    /// diagonal tree's `job_drain` for the ordering argument).
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
                    None => {
                        let id = self.make_metablock(
                            &SortedRun::from_sorted(vec![*p]),
                            Vec::new(),
                            false,
                        );
                        self.root = Some(id);
                    }
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
                let triggers =
                    self.route_tombstone(&mut ctx, &mut dirty, &mut Vec::new(), root, *t);
                self.run_del_triggers(&mut dirty, triggers);
                self.flush_dirty(&dirty);
            }
            budget -= take;
        }
        d.upd_pos == d.n_upd && d.tomb_pos == d.n_tomb
    }

    // ---- operation diversion ---------------------------------------------

    /// Divert an insert to the delta while the tree is frozen; false means
    /// the caller routes normally.
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

    /// Handle the delta side of a delete; true means the delete was fully
    /// absorbed here (annihilated in the delta, or buffered as a delta
    /// tombstone while frozen — see the diagonal tree's `delta_delete`).
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

    /// Report the delta's undrained update points inside the 3-sided range
    /// and record its undrained tombstone ids (the "both sides" half of a
    /// query during a job). Billed through the operation's pin.
    pub(crate) fn scan_delta_query(
        &self,
        ctx: &mut ReadCtx,
        x1: i64,
        x2: i64,
        y0: i64,
        out: &mut Vec<Point>,
    ) {
        let Some(job) = &self.reorg.job else {
            return;
        };
        let keep = |p: &Point| p.x >= x1 && p.x <= x2 && p.y >= y0;
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

    /// The delta's undrained live update points plus the undrained
    /// tombstone count (unbilled; validator use).
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
