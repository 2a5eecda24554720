//! Static construction of the metablock tree (§3.1, Fig. 8).
//!
//! The root metablock takes the `B²` points with the largest `y`; the rest
//! are divided by `x` into `B` slabs of near-equal size, one recursive tree
//! each, until a slab fits in a single metablock. Alongside the recursive
//! shape we build, per metablock: the vertical and horizontal blockings, the
//! corner structure where the region can contain a query corner, and the
//! `TS` snapshots of every non-first child.
//!
//! The build is **sort-once, arena-backed and two-phase**. The input is
//! x-sorted a single time into a [`SortedRun`] — from there sortedness is a
//! *typed* invariant, and the recursion works on disjoint subslices of that
//! one buffer. **Phase 1 (planning)** is a pure function over the arena:
//! selecting a metablock's mains is an `O(n)` in-place stable partition
//! around a `select_nth` threshold, and each node's y-order and corner
//! selection ([`CornerPlan`]) are computed with no store access — so
//! sibling slabs plan in parallel over [`crate::par::run_parallel`]
//! ([`crate::Tuning::build_threads`]). **Phase 2 (materialisation)** walks
//! the plan on the calling thread, allocating pages and charging I/O
//! exactly as a sequential build would; the `TS` snapshots of a level reuse
//! the children's planned y-orders and a capped incremental merge instead
//! of re-sorting a growing prefix per child.

use std::sync::Arc;

use ccix_extmem::{merge_y_desc_capped, Geometry, IoCounter, PageId, Point, Run, SortedRun};

use super::{Diag, MetablockTree};
use crate::bbox::{BBox, Key};
use crate::corner::CornerPlan;
use crate::par::{run_parallel, PAR_THRESHOLD};
use crate::tree::{ChildEntry, MbId, MetaBlock, TsInfo};

/// Pure planning context: everything the slab recursion needs besides the
/// arena itself. Shared immutably across planning threads.
struct PlanCtx {
    b: usize,
    cap: usize,
    corner_structures: bool,
    alpha: usize,
}

/// One planned metablock: contents and per-node organisations decided, no
/// page allocated, no I/O charged yet.
pub(crate) struct SlabPlan {
    /// Mains, x-sorted (the typed invariant the organisations build on).
    mains_x: SortedRun,
    /// Mains, y-descending.
    mains_y: Vec<Point>,
    /// Planned corner structure, when the region can contain a corner.
    corner: Option<CornerPlan>,
    children: Vec<SlabPlan>,
    slab_lo: Key,
    slab_hi: Key,
    /// Largest `(y, id)` strictly below this metablock (for the parent's
    /// `sub_yhi` cache).
    sub_yhi: Option<Key>,
}

/// Plan the subtree for the x-sorted arena slice `pts` responsible for
/// `[lo, hi)`. Pure CPU; `budget` is the remaining thread budget.
fn plan_slab(pts: &mut [Point], lo: Key, hi: Key, ctx: &PlanCtx, budget: usize) -> SlabPlan {
    debug_assert!(pts.windows(2).all(|w| w[0].xkey() < w[1].xkey()));
    if pts.len() <= ctx.cap {
        return finish_plan(pts.to_vec(), Vec::new(), lo, hi, None, ctx);
    }

    // Select the B² largest-(y, id) points as this metablock's mains,
    // compacting the remainder in place (x order preserved on both sides).
    let mut ybuf = Vec::new();
    let (mains, rest_len, rest_yhi) = extract_top_y(pts, ctx.cap, &mut ybuf);
    let rest = &mut pts[..rest_len];

    // Divide the remainder into at most B near-equal contiguous slabs.
    // The paper divides the remainder into B groups; when n ≪ B³ that
    // over-fragments the leaves (tiny leaves under B-ary fanout), so we
    // split into just enough near-B²-sized groups, still at most B of
    // them — every invariant and bound is preserved, leaves stay packed.
    let target = rest_len.div_ceil(ctx.cap).clamp(2, ctx.b);
    let ranges = near_equal_ranges(rest_len, target);
    let mut first_keys: Vec<Key> = ranges.iter().map(|&(s, _)| rest[s].xkey()).collect();
    first_keys[0] = lo;

    // Child slabs are disjoint arena slices: plan them in parallel.
    let mut tasks = Vec::with_capacity(ranges.len());
    let mut remainder: &mut [Point] = rest;
    for (i, &(s, e)) in ranges.iter().enumerate() {
        let (head, tail) = remainder.split_at_mut(e - s);
        remainder = tail;
        let slab_lo = first_keys[i];
        let slab_hi = first_keys.get(i + 1).copied().unwrap_or(hi);
        tasks.push(move |inner: usize| plan_slab(head, slab_lo, slab_hi, ctx, inner));
    }
    let child_budget = if rest_len >= PAR_THRESHOLD { budget } else { 1 };
    let children = run_parallel(tasks, child_budget);
    finish_plan(mains, children, lo, hi, rest_yhi, ctx)
}

/// The per-node CPU work: y-order the mains and plan the corner structure.
fn finish_plan(
    mains_x: Vec<Point>,
    children: Vec<SlabPlan>,
    slab_lo: Key,
    slab_hi: Key,
    sub_yhi: Option<Key>,
    ctx: &PlanCtx,
) -> SlabPlan {
    let mut mains_y = mains_x.clone();
    ccix_extmem::sort_by_y_desc(&mut mains_y);
    let mains_x = SortedRun::from_sorted(mains_x);
    let corner = plan_corner(&mains_x, &mains_y, ctx.b, ctx.corner_structures, ctx.alpha);
    SlabPlan {
        mains_x,
        mains_y,
        corner,
        children,
        slab_lo,
        slab_hi,
        sub_yhi,
    }
}

/// Plan a corner structure when the metablock's region can contain a query
/// corner: some diagonal value lies between the lowest y and the highest x
/// of the mains (and the mains span more than one block).
fn plan_corner(
    by_x: &SortedRun,
    by_y: &[Point],
    b: usize,
    enabled: bool,
    alpha: usize,
) -> Option<CornerPlan> {
    if !enabled || by_x.len() <= b {
        return None;
    }
    match (BBox::of_points(by_x), by_y.last().map(Point::ykey)) {
        (Some(bb), Some(ylo)) if ylo.0 <= bb.xhi.0 => Some(CornerPlan::plan(by_x, b, alpha)),
        _ => None,
    }
}

impl MetablockTree {
    /// Build a tree over `points` with the paper's design (default options).
    ///
    /// # Panics
    /// Panics if any point has `y < x` or ids repeat.
    pub fn build(geo: Geometry, counter: IoCounter, points: Vec<Point>) -> Self {
        Self::build_with(geo, counter, points, super::DiagOptions::default())
    }

    /// Build a tree over `points` with explicit ablation options.
    ///
    /// # Panics
    /// Panics if any point has `y < x` or ids repeat.
    pub fn build_with(
        geo: Geometry,
        counter: IoCounter,
        points: Vec<Point>,
        options: super::DiagOptions,
    ) -> Self {
        Self::build_tuned(geo, counter, points, options, crate::Tuning::default())
    }

    /// Build a tree over `points` with explicit ablation options and tuning.
    ///
    /// # Panics
    /// Panics if any point has `y < x` or ids repeat.
    pub fn build_tuned(
        geo: Geometry,
        counter: IoCounter,
        points: Vec<Point>,
        options: super::DiagOptions,
        tuning: crate::Tuning,
    ) -> Self {
        Self::build_tuned_on(
            &ccix_extmem::BackendSpec::Model,
            geo,
            counter,
            points,
            options,
            tuning,
        )
    }

    /// [`MetablockTree::build_tuned`] on an explicit page backend (see
    /// [`MetablockTree::new_tuned_on`]).
    ///
    /// # Panics
    /// Panics if any point has `y < x` or ids repeat.
    pub fn build_tuned_on(
        spec: &ccix_extmem::BackendSpec,
        geo: Geometry,
        counter: IoCounter,
        points: Vec<Point>,
        options: super::DiagOptions,
        tuning: crate::Tuning,
    ) -> Self {
        assert!(
            points.iter().all(|p| p.y >= p.x),
            "metablock tree requires points on or above the diagonal (y ≥ x)"
        );
        {
            let mut ids: Vec<u64> = points.iter().map(|p| p.id).collect();
            ids.sort_unstable();
            assert!(ids.windows(2).all(|w| w[0] != w[1]), "duplicate point ids");
        }
        let mut tree = Self::new_tuned_on(spec, geo, counter, options, tuning);
        tree.len = points.len();
        tree.rebuild_root(SortedRun::from_unsorted(points));
        tree
    }

    /// Rebuild the subtree for an x-sorted run responsible for the slab
    /// `[lo, hi)`. Returns the new subtree root, the root's main points
    /// (y-descending), and the largest `(y, id)` among points *below* the
    /// root metablock (for the parent's `sub_yhi` cache).
    ///
    /// Also used by the dynamic side for branching-factor splits; the
    /// planning phase fans out over [`crate::Tuning::build_threads`].
    pub(crate) fn build_slab(
        &mut self,
        pts: SortedRun,
        lo: Key,
        hi: Key,
    ) -> (MbId, Vec<Point>, Option<Key>) {
        let ctx = PlanCtx {
            b: self.geo.b,
            cap: self.cap(),
            corner_structures: self.shape.options.corner_structures,
            alpha: self.tuning.corner_alpha,
        };
        let budget = self.tuning.effective_build_threads();
        let mut arena = pts.into_inner();
        let plan = plan_slab(&mut arena, lo, hi, &ctx, budget);
        drop(arena);
        self.materialise_slab(plan)
    }

    /// Phase 2: allocate pages and control blocks for a planned subtree,
    /// sequentially on the calling thread (all I/O charges live here).
    /// Returns `(id, mains y-descending, sub_yhi)`.
    fn materialise_slab(&mut self, plan: SlabPlan) -> (MbId, Vec<Point>, Option<Key>) {
        let SlabPlan {
            mains_x,
            mains_y,
            corner,
            children,
            sub_yhi,
            ..
        } = plan;
        let internal = !children.is_empty();
        let mut entries: Vec<ChildEntry> = Vec::with_capacity(children.len());
        let mut snapshots: Vec<Vec<Point>> = Vec::with_capacity(children.len());
        for child in children {
            let (slab_lo, slab_hi) = (child.slab_lo, child.slab_hi);
            let (mb, child_y, child_sub) = self.materialise_slab(child);
            let bbox = BBox::of_points(&child_y);
            entries.push(ChildEntry::new(mb, (slab_lo, slab_hi), bbox, child_sub));
            snapshots.push(child_y);
        }
        let meta = self.build_organizations_planned(&mains_x, &mains_y, corner, entries, internal);
        let id = self.alloc_meta(meta);
        if internal {
            self.sync_packed_children(id);
            self.install_ts_snapshots(id, snapshots);
        }
        (id, mains_y, sub_yhi)
    }

    /// Construct the per-metablock organisations for a main point set, with
    /// the y-order and the corner plan the planning phase computed.
    pub(crate) fn build_organizations_planned(
        &mut self,
        by_x: &SortedRun,
        by_y: &[Point],
        corner: Option<CornerPlan>,
        children: Vec<ChildEntry>,
        internal: bool,
    ) -> MetaBlock<Diag> {
        let mut meta = MetaBlock::new(&mut self.store, by_x, by_y, children, internal);
        // The corner structure shares `vertical`.
        meta.org = corner
            .map(|cp| Arc::new(cp.materialise(&mut self.store, meta.vertical.clone(), false)));
        meta
    }

    /// Build and attach `TS` snapshots for every non-first child, from the
    /// supplied per-child point snapshots — **y-descending already**: the
    /// static build hands over the planned y-orders, the TS reorganisation
    /// hands over merged horizontal-run + sorted-delta snapshots; nobody
    /// re-sorts a snapshot here.
    pub(crate) fn install_ts_snapshots(&mut self, parent: MbId, snapshots: Vec<Vec<Point>>) {
        let cap = self.tuning.ts_cap_points(self.geo);
        let child_ids: Vec<MbId> = self
            .metas
            .get(parent)
            .children
            .iter()
            .map(|c| c.mb)
            .collect();
        debug_assert_eq!(child_ids.len(), snapshots.len());
        debug_assert!(snapshots
            .iter()
            .all(|s| s.windows(2).all(|w| w[0].ykey() > w[1].ykey())));
        // Maintain the top-`cap` prefix incrementally, merging each
        // (already sorted) snapshot into the running capped top list.
        let mut mirrors: Vec<(usize, Run<PageId>, bool)> = Vec::new();
        let mut top: Vec<Point> = Vec::new();
        let mut total = 0usize;
        for (i, snap) in snapshots.into_iter().enumerate() {
            if i > 0 {
                let pages: Run<PageId> = self.store.alloc_run(&top);
                let truncated = total > top.len();
                mirrors.push((i, pages.clone(), truncated));
                let mut meta = self.take_meta(child_ids[i]);
                if let Some(old) = meta.sib.take() {
                    self.store.free_run(&old.pages);
                }
                meta.sib = Some(Arc::new(TsInfo {
                    pages,
                    n: top.len(),
                    truncated,
                }));
                self.put_meta(child_ids[i], meta);
            }
            total += snap.len();
            top = merge_y_desc_capped(std::mem::take(&mut top), snap, cap);
        }
        // Mirror the snapshot runs into the parent's packed entries so the
        // TS route reads the snapshot without loading its owner's control
        // block first (in-memory: the parent is held by this operation).
        if self.tuning.pack_h_pages > 0 {
            let pm = self.metas.make_mut(parent);
            for (i, pages, truncated) in mirrors {
                pm.children[i].packed.ts_pages = pages;
                pm.children[i].packed.ts_truncated = truncated;
            }
        }
    }
}

pub(crate) use ccix_extmem::near_equal_ranges;

/// Move the `cap` largest-`(y, id)` points out of `pts` into a fresh vector,
/// compacting the rest to the front of `pts` (both sides keep their relative
/// order, so an x-sorted slice stays x-sorted). Returns the extracted mains,
/// the remainder's length, and the largest `(y, id)` in the remainder.
pub(crate) fn extract_top_y(
    pts: &mut [Point],
    cap: usize,
    ybuf: &mut Vec<Key>,
) -> (Vec<Point>, usize, Option<Key>) {
    debug_assert!(cap < pts.len());
    ybuf.clear();
    ybuf.extend(pts.iter().map(Point::ykey));
    // (y, id) keys are unique, so exactly `cap` points are ≥ the threshold.
    ybuf.select_nth_unstable_by(cap - 1, |a, b| b.cmp(a));
    let threshold = ybuf[cap - 1];
    let mut mains = Vec::with_capacity(cap);
    let mut w = 0usize;
    let mut rest_yhi: Option<Key> = None;
    for r in 0..pts.len() {
        let p = pts[r];
        if p.ykey() >= threshold {
            mains.push(p);
        } else {
            rest_yhi = Some(rest_yhi.map_or(p.ykey(), |m| m.max(p.ykey())));
            pts[w] = p;
            w += 1;
        }
    }
    debug_assert_eq!(mains.len(), cap);
    (mains, w, rest_yhi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_top_y_is_stable_and_exact() {
        let mut pts: Vec<Point> = (0..40)
            .map(|i| Point::new(i, 100 + (i * 7) % 40, i as u64))
            .collect();
        let orig = pts.clone();
        let mut ybuf = Vec::new();
        let (mains, rest_len, rest_yhi) = extract_top_y(&mut pts, 10, &mut ybuf);
        assert_eq!(mains.len(), 10);
        assert_eq!(rest_len, 30);
        let rest = &pts[..rest_len];
        // Both sides keep x order.
        assert!(mains.windows(2).all(|w| w[0].xkey() < w[1].xkey()));
        assert!(rest.windows(2).all(|w| w[0].xkey() < w[1].xkey()));
        // The split is exactly by the y threshold.
        let min_main = mains.iter().map(Point::ykey).min().unwrap();
        assert!(rest.iter().all(|p| p.ykey() < min_main));
        assert_eq!(rest.iter().map(Point::ykey).max(), rest_yhi);
        // Nothing lost.
        let mut all: Vec<u64> = mains.iter().chain(rest).map(|p| p.id).collect();
        all.sort_unstable();
        let mut want: Vec<u64> = orig.iter().map(|p| p.id).collect();
        want.sort_unstable();
        assert_eq!(all, want);
    }

    /// The planned build is bit-identical for every thread budget: same
    /// metablocks, same page counts, same stats.
    #[test]
    fn build_is_identical_across_thread_counts() {
        let geo = Geometry::new(4);
        let pts: Vec<Point> = (0..3_000)
            .map(|i| {
                let x = (i * 37) % 1_000;
                Point::new(x, x + (i * 13) % 500, i as u64)
            })
            .collect();
        let mut reference: Option<(crate::DiagStats, u64, u64)> = None;
        for threads in [1usize, 2, 7] {
            let tuning = crate::Tuning {
                build_threads: threads,
                ..crate::Tuning::default()
            };
            let counter = IoCounter::new();
            let tree = MetablockTree::build_tuned(
                geo,
                counter.clone(),
                pts.clone(),
                super::super::DiagOptions::default(),
                tuning,
            );
            tree.validate_unbilled();
            let sig = (tree.stats(), counter.reads(), counter.writes());
            match &reference {
                None => reference = Some(sig),
                Some(want) => assert_eq!(&sig, want, "threads={threads}"),
            }
        }
    }
}
