//! Static construction (§3.1, Fig. 8), written once for both shapes.
//!
//! The root metablock takes the `B²` points with the largest `y`; the rest
//! are divided by `x` into at most `B` slabs of near-equal size, one
//! recursive tree each, until a slab fits in a single metablock. Alongside
//! the recursive shape we build, per metablock, the vertical and horizontal
//! blockings and the shape's organisation over the mains, and per interior
//! metablock its children's sibling snapshots (plus, on the 3-sided tree,
//! the children PST).
//!
//! The build is **sort-once, arena-backed and two-phase**. The input is
//! x-sorted a single time into a [`SortedRun`] — from there sortedness is a
//! *typed* invariant, and the recursion works on disjoint subslices of that
//! one buffer. **Phase 1 (planning)** is a pure function over the arena:
//! selecting a metablock's mains is an `O(n)` in-place stable partition
//! around a `select_nth` threshold, and each node's y-order and the shape's
//! plan for it (a corner plan, or the PST plans) are computed with no store
//! access — so sibling slabs plan in parallel over
//! [`crate::par::run_parallel`] ([`crate::Tuning::build_threads`]).
//! **Phase 2 (materialisation)** walks the plan on the calling thread,
//! allocating pages and charging I/O exactly as a sequential build would;
//! the sibling snapshots of a level reuse the children's planned y-orders
//! and a capped incremental merge instead of re-sorting a growing prefix
//! per child.

use ccix_extmem::{merge_y_desc_capped, near_equal_ranges, Geometry, Point, SortedRun, YRanks};

use super::{sealed::Hooks, ChildEntry, Children, MbId, MetaBlock, Shape, Tree, TsInfo};
use crate::bbox::{BBox, Key};
use crate::par::{run_parallel, PAR_THRESHOLD};
use crate::tuning::Tuning;

/// The whole key space: the root's slab.
const FULL_RANGE: (Key, Key) = ((i64::MIN, 0), (i64::MAX, u64::MAX));

/// Pure planning context: everything the slab recursion needs besides the
/// arena itself. Shared immutably across planning threads.
pub struct PlanCtx<S> {
    pub(crate) geo: Geometry,
    pub(crate) shape: S,
    pub(crate) tuning: Tuning,
}

/// One planned metablock: contents and the shape's plan decided, no page
/// allocated, no I/O charged yet.
pub struct SlabPlan<S: Hooks> {
    /// Mains, x-sorted (the typed invariant the organisations build on).
    pub(crate) mains_x: SortedRun,
    /// The y-order of `mains_x`: the parent's plan reads it, and the
    /// metablock keeps a copy.
    pub(crate) mains_order: YRanks,
    /// Mains, y-descending.
    mains_y: Vec<Point>,
    /// The shape's plan for this node's organisations.
    node: S::Plan,
    children: Vec<SlabPlan<S>>,
    slab_lo: Key,
    slab_hi: Key,
    /// Largest `(y, id)` strictly below this metablock (for the parent's
    /// `sub_yhi` cache).
    sub_yhi: Option<Key>,
}

/// Plan the subtree for the x-sorted arena slice `pts` responsible for
/// `[lo, hi)`. Pure CPU; `budget` is the remaining thread budget.
fn plan_slab<S: Shape>(
    pts: &mut [Point],
    lo: Key,
    hi: Key,
    ctx: &PlanCtx<S>,
    budget: usize,
) -> SlabPlan<S> {
    debug_assert!(pts.windows(2).all(|w| w[0].xkey() < w[1].xkey()));
    let cap = ctx.geo.b2();
    if pts.len() <= cap {
        return finish_plan(pts.to_vec(), Vec::new(), lo, hi, None, ctx);
    }

    // Select the B² largest-(y, id) points as this metablock's mains,
    // compacting the remainder in place (x order preserved on both sides).
    let (mains, rest_len, rest_yhi) = extract_top_y(pts, cap);
    let rest = &mut pts[..rest_len];

    // Divide the remainder into at most B near-equal contiguous slabs.
    // The paper divides the remainder into B groups; when n ≪ B³ that
    // over-fragments the leaves (tiny leaves under B-ary fanout), so we
    // split into just enough near-B²-sized groups, still at most B of
    // them — every invariant and bound is preserved, leaves stay packed.
    let target = rest_len.div_ceil(cap).clamp(2, ctx.geo.b);
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

/// The per-node CPU work: y-order the mains by one argsort, which the
/// shape's plans share and the metablock keeps, and let the shape plan the
/// node's organisations.
fn finish_plan<S: Shape>(
    mains_x: Vec<Point>,
    children: Vec<SlabPlan<S>>,
    slab_lo: Key,
    slab_hi: Key,
    sub_yhi: Option<Key>,
    ctx: &PlanCtx<S>,
) -> SlabPlan<S> {
    let mains_x = SortedRun::from_sorted(mains_x);
    let mains_order = YRanks::argsort(&mains_x);
    let mains_y = mains_order.gather(&mains_x);
    let node = S::plan_node(ctx, &mains_x, &mains_order, &children);
    SlabPlan {
        mains_x,
        mains_order,
        mains_y,
        node,
        children,
        slab_lo,
        slab_hi,
        sub_yhi,
    }
}

/// Move the `cap` largest-`(y, id)` points out of `pts` into a fresh vector,
/// compacting the rest to the front of `pts` (both sides keep their relative
/// order, so an x-sorted slice stays x-sorted). Returns the extracted mains,
/// the remainder's length, and the largest `(y, id)` in the remainder.
fn extract_top_y(pts: &mut [Point], cap: usize) -> (Vec<Point>, usize, Option<Key>) {
    debug_assert!(cap < pts.len());
    let mut ybuf: Vec<Key> = pts.iter().map(Point::ykey).collect();
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

impl<S: Shape> Tree<S> {
    /// Load `points` into this empty tree by one static build.
    ///
    /// # Panics
    /// Panics if the shape refuses a point or ids repeat.
    pub(crate) fn bulk_load(mut self, points: Vec<Point>) -> Self {
        for p in &points {
            self.shape.admit(p);
        }
        {
            // Scoped: the id copy is gone before the build allocates.
            let mut ids: Vec<u64> = points.iter().map(|p| p.id).collect();
            ids.sort_unstable();
            assert!(ids.windows(2).all(|w| w[0] != w[1]), "duplicate point ids");
        }
        self.len = points.len();
        self.rebuild_root(SortedRun::from_unsorted(points));
        self
    }

    /// Replace the whole tree by a static build over `pts` (a bulk load, a
    /// root split, an occupancy shrink) and restart the shrink accounting.
    pub(crate) fn rebuild_root(&mut self, pts: SortedRun) {
        self.root = if pts.is_empty() {
            None
        } else {
            Some(self.build_slab(pts, FULL_RANGE.0, FULL_RANGE.1).0)
        };
        self.note_full_rebuild();
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
            geo: self.geo,
            shape: self.shape,
            tuning: self.tuning,
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
    fn materialise_slab(&mut self, plan: SlabPlan<S>) -> (MbId, Vec<Point>, Option<Key>) {
        let SlabPlan {
            mains_x,
            mains_order,
            mains_y,
            mut node,
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
        // The block keeps its order for the tree's life, so it is copied
        // into an allocation of this thread: left where a planning thread
        // allocated it, it pins that thread's allocator arena, whose freed
        // plan memory the allocator then holds on to (without the copy the
        // `wire_read` benchmark's peak RSS rose by a sixth).
        let order = mains_order.unshared();
        let mut meta = MetaBlock::new(&mut self.store, &mains_x, order, entries, internal);
        S::materialise_org(self, &mut meta, &mut node);
        let id = self.alloc_meta(meta);
        if internal {
            self.sync_packed_children(id);
            self.install_snapshots(id, snapshots, Children::Planned(node));
        }
        (id, mains_y, sub_yhi)
    }

    /// Rebuild the sibling snapshots of `parent`'s children from their
    /// `snapshots`, one per child in slab order and **y-descending
    /// already**: the static build hands over its children's mains through
    /// their planned orders, the TS reorganisation its merged children
    /// through the orders the merges carried; nobody re-sorts a snapshot
    /// here. First the shape rebuilds what it keeps over all the children
    /// from `children` — the parent's plan on a static build, the merged
    /// runs and their orders on a TS reorganisation. Then child `i`'s left
    /// snapshot is the capped top of the snapshots before it and its right
    /// one (3-sided) that of the snapshots after it, both mirrored into the
    /// parent's packed entries.
    pub(crate) fn install_snapshots(
        &mut self,
        parent: MbId,
        snapshots: Vec<Vec<Point>>,
        children: Children<'_, S::Plan>,
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
        S::install_children_org(self, parent, children);
        let len = child_ids.len();

        // Suffix (right-sibling) tops with their truncation bits, for a
        // two-sided shape: `right[i]` covers the children after `i`.
        let mut right: Vec<Option<(Vec<Point>, bool)>> = Vec::new();
        if S::TWO_SIDED {
            right.resize(len, None);
            let (mut top, mut total) = (Vec::new(), 0);
            for i in (1..len).rev() {
                total += snapshots[i].len();
                top = merge_y_desc_capped(top, snapshots[i].clone(), cap);
                right[i - 1] = Some((top.clone(), total > top.len()));
            }
        }

        // Maintain the prefix (left-sibling) top incrementally, merging each
        // snapshot into the running capped top list as it is used up. A
        // one-sided shape's first child carries no snapshot, and is not
        // touched.
        let mut mirrors = Vec::with_capacity(len);
        let (mut top, mut total) = (Vec::new(), 0);
        for (i, (&child, snap)) in child_ids.iter().zip(snapshots).enumerate() {
            let r = right.get_mut(i).and_then(Option::take);
            if i > 0 || S::TWO_SIDED {
                let left = (i > 0).then(|| (&top[..], total > top.len()));
                let new = [left, r.as_ref().map(|(pts, t)| (&pts[..], *t))];
                let mut meta = self.take_meta(child);
                S::replace_snapshots(&mut self.store, &mut meta.sib, new);
                let mirror = |ts: Option<&TsInfo>| {
                    ts.map_or_else(Default::default, |t| (t.pages.clone(), t.truncated))
                };
                let [l, r] = S::snapshots(&meta.sib);
                mirrors.push((i, mirror(l), S::TWO_SIDED.then(|| mirror(r))));
                self.put_meta(child, meta);
            }
            total += snap.len();
            top = merge_y_desc_capped(std::mem::take(&mut top), snap, cap);
        }
        // Mirror the snapshot runs into the parent's packed entries so the
        // snapshot routes read a snapshot without loading its owner's
        // control block first (in-memory: the parent is held by this
        // operation).
        if self.tuning.pack_h_pages > 0 {
            let pm = self.metas.make_mut(parent);
            for (i, l, r) in mirrors {
                let packed = &mut pm.children[i].packed;
                (packed.ts_pages, packed.ts_truncated) = l;
                if let Some(r) = r {
                    (packed.tsr_pages, packed.tsr_truncated) = r;
                }
            }
        }
    }
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
        let (mains, rest_len, rest_yhi) = extract_top_y(&mut pts, 10);
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
}
