//! Static construction of the 3-sided tree (the §3.1 shape with §4
//! per-metablock structures).
//!
//! Two-phase like the diagonal tree's build (see `crate::diag::build`): a
//! **pure planning phase** — one x-sort up front, in-place slab
//! partitioning, per-node y-orders and [`PstPlan`]s (the per-metablock PST
//! *and* the parent's children PST, whose input is the x-sorted
//! concatenation of the children's x-disjoint mains) — fanned out over
//! scoped threads ([`crate::Tuning::build_threads`]); then a sequential
//! **materialisation** that allocates every page on the calling thread.
//! Sibling snapshots (here in both directions — TSL and TSR) are capped
//! incremental merges over the planned y-orders.

use std::sync::Arc;

use ccix_extmem::{merge_y_desc_capped, Geometry, IoCounter, Point, Run, SortedRun};
use ccix_pst::{ExternalPst, PstPlan};

use super::{ThreeSided, ThreeSidedTree};
use crate::bbox::{BBox, Key};
use crate::diag::{extract_top_y, near_equal_ranges};
use crate::par::{run_parallel, PAR_THRESHOLD};
use crate::tree::{ChildEntry, MbId, MetaBlock, TsInfo};

/// Pure planning context for the 3-sided slab recursion.
struct PlanCtx {
    geo: Geometry,
    cap: usize,
}

/// One planned 3-sided metablock: contents, orders and PST plans decided,
/// nothing allocated yet.
struct SlabPlan {
    mains_x: SortedRun,
    mains_y: Vec<Point>,
    /// Plan of the Lemma 4.1 PST over the mains (absent for ≤ B mains).
    pst: Option<PstPlan>,
    /// Interior only: plan of the children PST over every child's mains.
    children_pst: Option<PstPlan>,
    children: Vec<SlabPlan>,
    slab_lo: Key,
    slab_hi: Key,
    sub_yhi: Option<Key>,
}

fn plan_slab(pts: &mut [Point], lo: Key, hi: Key, ctx: &PlanCtx, budget: usize) -> SlabPlan {
    debug_assert!(pts.windows(2).all(|w| w[0].xkey() < w[1].xkey()));
    if pts.len() <= ctx.cap {
        return finish_plan(pts.to_vec(), Vec::new(), lo, hi, None, ctx);
    }

    let (mains, rest_len, rest_yhi) = {
        let mut ybuf = Vec::new();
        extract_top_y(pts, ctx.cap, &mut ybuf)
    };
    let rest = &mut pts[..rest_len];

    // The paper divides the remainder into B groups; when n ≪ B³ that
    // over-fragments the leaves (tiny leaves under B-ary fanout), so we
    // split into just enough near-B²-sized groups, still at most B of
    // them — every invariant and bound is preserved, leaves stay packed.
    let target = rest_len.div_ceil(ctx.cap).clamp(2, ctx.geo.b);
    let ranges = near_equal_ranges(rest_len, target);
    let mut first_keys: Vec<Key> = ranges.iter().map(|&(s, _)| rest[s].xkey()).collect();
    first_keys[0] = lo;

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
    // A PST pays off once the mains span multiple blocks; a single block
    // is answered by scanning it.
    let pst = (mains_x.len() > ctx.geo.b)
        .then(|| PstPlan::plan(ctx.geo, SortedRun::from_sorted(mains_x.to_vec())));
    // The children PST over every child's mains (≤ B³). Children slabs are
    // x-disjoint and in slab order, so concatenating their sorted mains is
    // already sorted — no re-sort before planning.
    let children_pst = (!children.is_empty()).then(|| {
        let all: Vec<Point> = children
            .iter()
            .flat_map(|c| c.mains_x.iter().copied())
            .collect();
        PstPlan::plan(ctx.geo, SortedRun::from_sorted(all))
    });
    SlabPlan {
        mains_x,
        mains_y,
        pst,
        children_pst,
        children,
        slab_lo,
        slab_hi,
        sub_yhi,
    }
}

impl ThreeSidedTree {
    /// Build a tree over `points` (anywhere in the plane; unique ids) with
    /// the measured default [`crate::Tuning`].
    pub fn build(geo: Geometry, counter: IoCounter, points: Vec<Point>) -> Self {
        Self::build_tuned(geo, counter, points, crate::Tuning::default())
    }

    /// As [`ThreeSidedTree::build`], with explicit tuning.
    ///
    /// # Panics
    /// Panics if ids repeat.
    pub fn build_tuned(
        geo: Geometry,
        counter: IoCounter,
        points: Vec<Point>,
        tuning: crate::Tuning,
    ) -> Self {
        {
            let mut ids: Vec<u64> = points.iter().map(|p| p.id).collect();
            ids.sort_unstable();
            assert!(ids.windows(2).all(|w| w[0] != w[1]), "duplicate point ids");
        }
        let mut tree = Self::new_tuned(geo, counter, tuning);
        tree.len = points.len();
        tree.rebuild_root(SortedRun::from_unsorted(points));
        tree
    }

    /// Build the subtree over an x-sorted run responsible for `[lo, hi)`.
    /// Returns (root, root's mains y-descending, max ykey strictly below
    /// the root).
    pub(crate) fn build_slab(
        &mut self,
        pts: SortedRun,
        lo: Key,
        hi: Key,
    ) -> (MbId, Vec<Point>, Option<Key>) {
        let ctx = PlanCtx {
            geo: self.geo,
            cap: self.cap(),
        };
        let budget = self.tuning.effective_build_threads();
        let mut arena = pts.into_inner();
        let plan = plan_slab(&mut arena, lo, hi, &ctx, budget);
        drop(arena);
        self.materialise_slab(plan)
    }

    /// Allocate pages and control blocks for a planned subtree, on the
    /// calling thread.
    fn materialise_slab(&mut self, plan: SlabPlan) -> (MbId, Vec<Point>, Option<Key>) {
        let SlabPlan {
            mains_x,
            mains_y,
            pst,
            children_pst,
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
        let meta = self.build_organizations_planned(&mains_x, &mains_y, pst, entries, internal);
        let id = self.alloc_meta(meta);
        if internal {
            self.sync_packed_children(id);
            self.install_sibling_snapshots(id, snapshots, children_pst);
        }
        (id, mains_y, sub_yhi)
    }

    /// Construct the per-metablock organisations for a main point set, with
    /// the y-order and the PST plan the planning phase computed.
    pub(crate) fn build_organizations_planned(
        &mut self,
        by_x: &SortedRun,
        by_y: &[Point],
        pst: Option<PstPlan>,
        children: Vec<ChildEntry>,
        internal: bool,
    ) -> MetaBlock<ThreeSided> {
        let mut meta = MetaBlock::new(&mut self.store, by_x, by_y, children, internal);
        meta.org =
            pst.map(|plan| Arc::new(ExternalPst::from_plan(self.geo, self.counter.clone(), plan)));
        meta
    }

    /// Install, for every child, the TSL and TSR snapshots and, on the
    /// parent, the children PST — from per-child snapshots that arrive
    /// **y-descending already** (planned y-orders on the static path,
    /// horizontal-run + sorted-delta merges from the TS reorganisation).
    /// The capped prefix/suffix top lists are maintained by merging; the
    /// children PST comes from `children_pst` when the planning phase
    /// already built it, and otherwise reuses the previous PST's node
    /// layout via [`ExternalPst::rebuild_from_sorted`].
    pub(crate) fn install_sibling_snapshots(
        &mut self,
        parent: MbId,
        snapshots: Vec<Vec<Point>>,
        children_pst_plan: Option<PstPlan>,
    ) {
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
        let len = child_ids.len();
        let sorted = snapshots;

        // Prefix (left-sibling) snapshots.
        let mut tsl: Vec<Option<(Vec<Point>, bool)>> = vec![None; len];
        let mut top: Vec<Point> = Vec::new();
        let mut total = 0usize;
        for i in 0..len {
            if i > 0 {
                tsl[i] = Some((top.clone(), total > top.len()));
            }
            total += sorted[i].len();
            top = merge_y_desc_capped(std::mem::take(&mut top), sorted[i].clone(), cap);
        }

        // Suffix (right-sibling) snapshots.
        let mut tsr: Vec<Option<(Vec<Point>, bool)>> = vec![None; len];
        let mut top: Vec<Point> = Vec::new();
        let mut total = 0usize;
        for i in (0..len).rev() {
            if i + 1 < len {
                tsr[i] = Some((top.clone(), total > top.len()));
            }
            total += sorted[i].len();
            top = merge_y_desc_capped(std::mem::take(&mut top), sorted[i].clone(), cap);
        }

        let mut mirrors = Vec::with_capacity(len);
        for (i, &child) in child_ids.iter().enumerate() {
            let mut meta = self.take_meta(child);
            let sib = &mut meta.sib;
            if let Some(old) = sib.tsl.take() {
                self.store.free_run(&old.pages);
            }
            if let Some(old) = sib.tsr.take() {
                self.store.free_run(&old.pages);
            }
            if let Some((pts, truncated)) = tsl[i].take() {
                let pages = self.store.alloc_run(&pts);
                sib.tsl = Some(TsInfo {
                    pages,
                    n: pts.len(),
                    truncated,
                });
            }
            if let Some((pts, truncated)) = tsr[i].take() {
                let pages = self.store.alloc_run(&pts);
                sib.tsr = Some(TsInfo {
                    pages,
                    n: pts.len(),
                    truncated,
                });
            }
            let mirror = |ts: &Option<TsInfo>| {
                ts.as_ref()
                    .map_or((Run::default(), false), |t| (t.pages.clone(), t.truncated))
            };
            mirrors.push((mirror(&sib.tsl), mirror(&sib.tsr)));
            self.put_meta(child, meta);
        }
        // Mirror both snapshot runs into the parent's packed entries (the
        // parent is held in memory by this operation).
        if self.tuning.pack_h_pages > 0 {
            let pm = self.metas.make_mut(parent);
            for (e, (tsl, tsr)) in pm.children.iter_mut().zip(mirrors) {
                (e.packed.ts_pages, e.packed.ts_truncated) = tsl;
                (e.packed.tsr_pages, e.packed.tsr_truncated) = tsr;
            }
        }

        // The children PST over every child's snapshot points (≤ B³). This
        // one is deliberately uncapped: the fork-node route answers from it
        // alone, so it must cover every sibling point.
        let mut pm = self.take_meta(parent);
        match children_pst_plan {
            Some(plan) => {
                debug_assert!(pm.sib.children_pst.is_none(), "planned PST over a live one");
                let pst = ExternalPst::from_plan(self.geo, self.counter.clone(), plan);
                pm.sib.children_pst = Some(Arc::new(pst));
            }
            None => {
                // Children snapshots live in x-disjoint slabs: sorting each
                // child separately and k-way merging (gallop fast path over
                // the disjoint ranges) beats one big re-sort of up to B³
                // points.
                let all = SortedRun::merge_many(
                    sorted.into_iter().map(SortedRun::from_unsorted).collect(),
                );
                self.rebuild_pst(&mut pm.sib.children_pst, all);
            }
        }
        self.put_meta(parent, pm);
    }
}
