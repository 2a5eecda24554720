//! The reorganisations of §3.2 (Fig. 19) and Lemma 4.4, plus the
//! occupancy shrink that keeps space `O(live/B)` under delete floods.
//!
//! Every reorganisation is **sortedness-preserving** (see
//! [`ccix_extmem::merge`]): level-I reads the x-sorted vertical run and
//! merges the sorted (≤ `k·B`-point) update delta into it instead of
//! re-sorting the whole block; a TS reorganisation scatters each child's
//! horizontal run through the child's order and merges its sorted delta in
//! the same way; a leaf split reads the vertical run and partitions it in
//! place; a branching split k-way merges the subtree's vertical runs.
//! Every metablock keeps its mains' y-order ([`YRanks`]) for its whole
//! life, and each of these reorganisations carries it on in linear passes
//! — through the merge, the push-down's kept top, the leaf split's halves
//! — so the organisation built over the mains (a PST, a corner structure)
//! plans from the order the block holds instead of sorting again. Every read touches exactly the pages a
//! sort-based pipeline would read (the two blockings hold the same point
//! count), so I/O counts are those of the paper's rebuilds — only the
//! `O(n log n)` CPU re-sorts disappear.
//!
//! Where the two trees differ — a corner structure or a PST over the mains
//! and the TD, one sibling snapshot or two plus a children PST — the
//! [`Shape`] hooks build, collect and free the structures; the control
//! flow and every page the flow itself moves are the same for both.

use ccix_extmem::{Point, Run, SortedRun, YRanks};

use super::{ChildEntry, Children, MbId, MetaBlock, Shape, Td, Tree};
use crate::bbox::{BBox, Key};
use crate::par::cores;

impl<S: Shape> Tree<S> {
    /// Fold the staged points into the TD organisation (`O(B)` I/Os, since
    /// the TD holds at most `B²` points). The old organisation's points
    /// come back x-sorted, so only the staged delta is sorted and galloped
    /// in — this fold fires every `k·B` inserts per parent, which made a
    /// full re-sort the single hottest CPU cost of an insert flood (see
    /// docs/tuning.md).
    ///
    /// With deletes present, the fold is also the **first reorganisation
    /// that sees both sides**: a tombstone whose insert landed in the TD
    /// annihilates it here; only tombstones whose insert predates the TD
    /// (they target the sibling snapshots) survive into the delete-side
    /// organisation. Insert-only trees take the identical code path — both
    /// delete sides are empty and cost nothing.
    pub(crate) fn td_rebuild(&mut self, parent: MbId) {
        self.reorg.fired.td_folds += 1;
        let mut m = self.take_meta(parent);
        let td = m.td.as_mut().expect("TD present");
        let built = self.drain_org(&td.org);
        let delta = self.store.read_run(&td.staged);
        self.store.free_run(&td.staged);
        td.staged = Run::default();
        td.n_staged = 0;

        let del_built = self.drain_org(&td.del_org);
        let del_delta = self.store.read_run(&td.del_staged);
        self.store.free_run(&td.del_staged);
        td.del_staged = Run::default();
        td.n_del_staged = 0;
        td.del_staged_buf.clear();
        let tombs = del_built.merge(SortedRun::from_unsorted(del_delta));

        let merged = built.merge(SortedRun::from_unsorted(delta));
        let (pts, unmatched) = merged.cancel(&tombs);
        td.n_built = pts.len();
        S::build_td_org(self, &mut td.org, pts);
        let survivors = SortedRun::from_sorted(unmatched);
        td.n_del_built = survivors.len();
        S::build_td_org(self, &mut td.del_org, survivors);
        self.put_meta(parent, m);
    }

    /// Every point of a TD organisation, x-sorted and billed, releasing the
    /// store pages it owns (a PST is kept, to be rebuilt in place).
    fn drain_org(&mut self, org: &Option<std::sync::Arc<S::Org>>) -> SortedRun {
        org.as_ref().map_or_else(SortedRun::new, |org| {
            let pts = S::collect_org(self, org);
            S::free_org(&mut self.store, org);
            pts
        })
    }

    /// TS reorganisation at `parent`: rebuild every child's sibling
    /// snapshots from its current mains + updates and discard the TD (both
    /// sides). `O(B²)` I/Os, once per `B²` inserts below `parent`. Each
    /// child's horizontal run is read and scattered through the child's
    /// order into its x-sorted mains, and [`YRanks::merge`] carries that
    /// order through the child's sorted delta minus its pending
    /// tombstones — the same page reads, only the delta sorted — so a
    /// fresh snapshot never resurrects a deleted point (which is what lets
    /// the TD's delete side be discarded here). The merged runs, laid end
    /// to end in slab order, and their orders are what the shape rebuilds
    /// its children organisation from.
    pub(crate) fn ts_reorg(&mut self, parent: MbId) {
        self.reorg.fired.ts_reorgs += 1;
        let child_ids: Vec<MbId> = self.meta(parent).children.iter().map(|c| c.mb).collect();
        let total = (child_ids.iter())
            .map(|&c| self.metas.get(c).n_main + self.metas.get(c).n_upd)
            .sum();
        let mut run = Vec::with_capacity(total);
        let mut orders = Vec::with_capacity(child_ids.len());
        let mut snapshots = Vec::with_capacity(child_ids.len());
        let mut mains = Vec::new();
        for &c in &child_ids {
            let cm = self.meta(c);
            let order = cm.order.clone();
            self.read_mains_through_order(cm, &mut mains);
            let delta = self.store.read_run(&cm.update);
            let tombs = self.store.read_run(&cm.tomb);
            let base = run.len();
            let (merged, _) = order.merge(&mains, delta, tombs, &mut run, &mut self.ranks);
            snapshots.push(merged.gather(&run[base..]));
            orders.push(merged);
        }
        let run = SortedRun::from_sorted(run);
        let mut m = self.take_meta(parent);
        if let Some(td) = m.td.as_mut() {
            for (org, staged) in [(&td.org, &td.staged), (&td.del_org, &td.del_staged)] {
                if let Some(org) = org {
                    S::free_org(&mut self.store, org);
                }
                self.store.free_run(staged);
            }
            *td = Td::default();
        }
        self.put_meta(parent, m);
        let children = Children::Merged {
            run: &run,
            orders: &orders,
        };
        self.install_snapshots(parent, snapshots, children);
    }

    /// Fill `mains` with a metablock's mains, x-sorted: its horizontal run
    /// read (and billed) page by page and scattered through its order.
    fn read_mains_through_order(&self, m: &MetaBlock<S>, mains: &mut Vec<Point>) {
        let ranks = m.order.as_slice();
        mains.clear();
        mains.resize(ranks.len(), Point::new(0, 0, 0));
        for (&page, ranks) in m.horizontal.iter().zip(ranks.chunks(self.geo.b)) {
            let page = self.store.read(page);
            debug_assert_eq!(
                page.len(),
                ranks.len(),
                "a horizontal page out of its order"
            );
            for (p, &r) in page.iter().zip(ranks) {
                mains[r as usize] = *p;
            }
        }
    }

    /// Level-I reorganisation: merge the update buffer into the mains,
    /// annihilate pending tombstones against the merged set, and rebuild
    /// all organisations. Returns the new main count.
    ///
    /// Sortedness-preserving: the x-sorted vertical run is read (the same
    /// page count as the horizontal run the sort-based pipeline read), and
    /// [`YRanks::merge`] sorts only the delta and the tombstones, merges
    /// them in and carries the block's y-order through — linear passes,
    /// no argsort. A tombstone that finds no match (its victim sat in a
    /// descendant of a metablock whose mains a delete flood emptied) is
    /// re-routed one level down, where the landing invariant holds again.
    /// Re-routes never restructure the tree (a delete can only shrink a
    /// metablock), so the caller's pinned path stays live.
    pub(crate) fn level_i(&mut self, mb: MbId, parent: Option<MbId>) -> usize {
        self.reorg.fired.level_i += 1;
        let mut m = self.take_meta(mb);
        let mains = SortedRun::from_sorted(self.store.read_run(&m.vertical));
        let delta = self.store.read_run(&m.update);
        let tombs = self.store.read_run(&m.tomb);
        self.store.free_run(&m.tomb);
        m.tomb = Run::default();
        m.tomb_buf.clear();
        self.tombs_pending -= m.n_tomb;
        m.n_tomb = 0;
        let mut by_x = Vec::new();
        let (order, unmatched) = m
            .order
            .merge(&mains, delta, tombs, &mut by_x, &mut self.ranks);
        self.rebuild_orgs(&mut m, &SortedRun::from_sorted(by_x), order);
        let n_main = m.n_main;
        let new_bbox = m.main_bbox;
        self.put_meta(mb, m);
        if let Some(parent) = parent {
            let mut pm = self.take_meta(parent);
            if let Some(e) = pm.children.iter_mut().find(|c| c.mb == mb) {
                e.main_bbox = new_bbox;
                e.upd_ymax = None;
            }
            self.put_meta(parent, pm);
            self.sync_packed_entry(parent, mb);
        }
        for t in unmatched {
            self.reroute_tombstone(mb, t);
        }
        n_main
    }

    /// Replace a metablock's blockings (and organisation) with ones built
    /// over the given run and its y-order, which the block keeps, clearing
    /// the update buffer. Children, snapshots and TD survive. No sorting
    /// happens here: callers merge, filter or split whichever side
    /// actually needs it, carrying the order with them.
    fn rebuild_orgs(&mut self, m: &mut MetaBlock<S>, by_x: &SortedRun, order: YRanks) {
        self.store.free_run(&m.vertical);
        self.store.free_run(&m.horizontal);
        if let Some(org) = &m.org {
            S::free_org(&mut self.store, org);
        }
        self.store.free_run(&m.update);
        m.update = Run::default();
        m.n_upd = 0;
        m.set_mains(&mut self.store, by_x, order);
        S::build_main_org(self, m, by_x);
    }

    /// Level-II reorganisation of a metablock holding `≥ 2B²` points.
    pub(super) fn level_ii(&mut self, mb: MbId, path: &[MbId]) {
        let is_leaf = self.meta(mb).is_leaf();
        if is_leaf {
            self.split_leaf(mb, path);
        } else {
            self.push_down(mb, path);
        }
    }

    /// Internal level-II: keep the top `B²` points, trickle the bottom
    /// points into the children, and TS-reorganise this level. The y-split
    /// is a prefix of the already-y-sorted horizontal run, and the kept
    /// top's run and order come from the prefix of the block's order
    /// ([`YRanks::top`]): no sort.
    fn push_down(&mut self, mb: MbId, path: &[MbId]) {
        self.reorg.fired.push_downs += 1;
        let mut m = self.take_meta(mb);
        debug_assert_eq!(m.n_upd, 0, "level-II runs after level-I");
        debug_assert_eq!(m.n_tomb, 0, "level-I cancelled all tombstones");
        let mut pts = self.store.read_run(&m.horizontal);
        debug_assert!(pts.windows(2).all(|w| w[0].ykey() > w[1].ykey()));
        let (top_x, order) = m.order.top(&pts, self.cap(), &mut self.ranks);
        let bottom = pts.split_off(self.cap());
        self.rebuild_orgs(&mut m, &top_x, order);
        let new_bbox = m.main_bbox;
        self.put_meta(mb, m);

        // Fix the parent's caches before trickling (cascades may restructure
        // this subtree), then refresh this level's snapshots.
        let bottom_yhi = bottom.iter().map(Point::ykey).max();
        if let Some(&parent) = path.last() {
            let mut pm = self.take_meta(parent);
            if let Some(e) = pm.children.iter_mut().find(|c| c.mb == mb) {
                e.main_bbox = new_bbox;
                e.sub_yhi = e.sub_yhi.max(bottom_yhi);
            }
            self.put_meta(parent, pm);
            self.sync_packed_entry(parent, mb);
            self.ts_reorg(parent);
        }

        // Trickle the bottom points down. If a cascading branching split
        // rebuilt any metablock on the path away, fall back to routing from
        // the root — the destination is identical, the path just re-descends.
        for p in bottom {
            let path_alive = self.metas.is_live(mb) && path.iter().all(|&a| self.metas.is_live(a));
            if path_alive {
                self.insert_routed(path.to_vec(), mb, p);
            } else {
                let root = self.root.expect("tree is nonempty");
                self.insert_routed(Vec::new(), root, p);
            }
        }
    }

    /// Leaf level-II: split into two leaves around the median x, grow the
    /// parent's branching factor, and TS-reorganise the level. The split
    /// reads the **vertical** run (same page count as the horizontal one)
    /// and partitions the existing x-sorted order in place, and each half
    /// keeps its part of the leaf's y-order ([`YRanks::split_at`]) — no
    /// re-sort.
    fn split_leaf(&mut self, mb: MbId, path: &[MbId]) {
        self.reorg.fired.leaf_splits += 1;
        let meta = self.meta(mb);
        debug_assert_eq!(meta.n_upd, 0, "level-II runs after level-I");
        debug_assert_eq!(meta.n_tomb, 0, "level-I cancelled all tombstones");
        let pts = SortedRun::from_sorted(self.store.read_run(&meta.vertical));
        let order = meta.order.clone();
        self.free_metablock(mb);

        let Some((&parent, ancestors)) = path.split_last() else {
            // The root itself is a full leaf: grow the tree by a static
            // rebuild (it creates the new root + B children).
            self.rebuild_root(pts, cores());
            return;
        };
        let half = pts.len() / 2;
        let (left_order, right_order) = order.split_at(&pts, half);
        let (left, right) = pts.split_at(half);
        let median = right[0].xkey();
        let halves = [
            (
                self.make_leaf(&left, left_order),
                BBox::of_points(&left),
                None,
            ),
            (
                self.make_leaf(&right, right_order),
                BBox::of_points(&right),
                None,
            ),
        ];
        self.replace_child(parent, mb, halves, median, ancestors);
    }

    /// Branching-factor split: statically rebuild the subtree at `x` as two
    /// trees of half the points each, replacing `x` in its parent. At the
    /// root, rebuild the whole tree (this is how its height grows). The
    /// subtree's points are gathered as a k-way merge of its x-sorted
    /// vertical runs (plus sorted deltas) — `O(n log k)` with gallop fast
    /// paths over the x-disjoint slabs, instead of an `O(n log n)` re-sort.
    fn branching_split(&mut self, x: MbId, ancestors: &[MbId]) {
        self.reorg.fired.branching_splits += 1;
        let pts = self.collect_subtree_sorted(x);
        self.free_subtree(x);

        let Some((&parent, above)) = ancestors.split_last() else {
            self.rebuild_root(pts, cores());
            return;
        };
        let half = pts.len() / 2;
        let (left, right) = pts.split_at(half);
        let median = right[0].xkey();
        let (slab_lo, slab_hi) = {
            let old = self.meta(parent).children.iter().find(|c| c.mb == x);
            let old = old.expect("split node present in parent");
            (old.slab_lo, old.slab_hi)
        };
        let (lid, lmains, lsub) = self.build_slab(left, slab_lo, median, cores());
        let (rid, rmains, rsub) = self.build_slab(right, median, slab_hi, cores());
        let halves = [
            (lid, BBox::of_points(&lmains), lsub),
            (rid, BBox::of_points(&rmains), rsub),
        ];
        self.replace_child(parent, x, halves, median, above);
    }

    /// Replace child `old` of `parent` by the two `halves` (id, main
    /// bounding box, top below) split at `median`, refresh the level's
    /// mirrors and snapshots, and split `parent` in turn (its ancestors
    /// are `above`) once it reaches `2B` children.
    fn replace_child(
        &mut self,
        parent: MbId,
        old: MbId,
        halves: [(MbId, Option<BBox>, Option<Key>); 2],
        median: Key,
        above: &[MbId],
    ) {
        let mut pm = self.take_meta(parent);
        let pos = pm.children.iter().position(|c| c.mb == old);
        let pos = pos.expect("split child present in parent");
        let gone = pm.children.remove(pos);
        let slabs = [(gone.slab_lo, median), (median, gone.slab_hi)];
        for (i, ((mb, bbox, sub_yhi), slab)) in halves.into_iter().zip(slabs).enumerate() {
            pm.children
                .insert(pos + i, ChildEntry::new(mb, slab, bbox, sub_yhi));
        }
        let overflow = pm.children.len() >= 2 * self.geo.b;
        self.put_meta(parent, pm);
        self.sync_packed_children(parent);
        self.ts_reorg(parent);
        if overflow {
            self.branching_split(parent, above);
        }
    }

    /// Every live point in the subtree (mains + update buffers, minus
    /// pending tombstones) as one x-sorted run, with charged reads (each
    /// metablock's vertical run — the same page count its horizontal run
    /// would cost — plus its update and tombstone pages). Snapshot, TD and
    /// organisation pages are copies and are deliberately skipped. A static
    /// rebuild is therefore "the first reorganisation that sees both" for
    /// every pending tombstone in the subtree: the landing invariant keeps
    /// each tombstone's victim in the same subtree, so cancellation is
    /// exact.
    pub(super) fn collect_subtree_sorted(&self, mb: MbId) -> SortedRun {
        let mut runs = Vec::new();
        let mut tomb_runs = Vec::new();
        self.collect_subtree_runs(mb, &mut runs, &mut tomb_runs);
        let tombs = SortedRun::merge_many(tomb_runs);
        let (pts, unmatched) = SortedRun::merge_many(runs).cancel(&tombs);
        debug_assert!(
            unmatched.is_empty(),
            "tombstone without a victim in its subtree"
        );
        pts
    }

    fn collect_subtree_runs(
        &self,
        mb: MbId,
        runs: &mut Vec<SortedRun>,
        tomb_runs: &mut Vec<SortedRun>,
    ) {
        let meta = self.meta(mb);
        runs.push(SortedRun::from_sorted(self.store.read_run(&meta.vertical)));
        let delta = self.store.read_run(&meta.update);
        if !delta.is_empty() {
            runs.push(SortedRun::from_unsorted(delta));
        }
        let tombs = self.store.read_run(&meta.tomb);
        if !tombs.is_empty() {
            tomb_runs.push(SortedRun::from_unsorted(tombs));
        }
        for c in &meta.children {
            self.collect_subtree_runs(c.mb, runs, tomb_runs);
        }
    }

    /// Free a subtree's metablocks and every page they own.
    pub(super) fn free_subtree(&mut self, mb: MbId) {
        let meta = self.free_metablock(mb);
        for c in &meta.children {
            self.free_subtree(c.mb);
        }
    }

    /// Occupancy-triggered shrink: once the deletes absorbed since the last
    /// full (re)build exceed [`crate::Tuning::shrink_deletes_pct`] of its
    /// size (and at least `B²`), rebuild the whole tree from its live
    /// points — the merge-based collection cancels every pending tombstone
    /// and the static plan/materialise pipeline packs the result, so space
    /// returns to `O(live/B)` pages. Amortised `O(1/B)` I/Os per delete.
    pub(super) fn maybe_shrink(&mut self) {
        let pct = self.tuning.shrink_deletes_pct;
        if pct == 0 || self.deletes_since_shrink == 0 {
            return;
        }
        // One background job at a time; while one runs, the trigger keeps
        // accumulating and re-fires after the drain completes if needed.
        if self.reorg.job.is_some() {
            return;
        }
        let floor = self.cap().max(self.shrink_base * pct / 100);
        if self.deletes_since_shrink < floor {
            return;
        }
        let Some(root) = self.root else {
            self.note_full_rebuild();
            return;
        };
        if self.tuning.reorg_pages_per_op > 0 {
            // Incremental mode: freeze the tree and rebuild it over the
            // coming operations instead of stopping the world here.
            self.start_shrink_job();
            return;
        }
        self.reorg.fired.shrinks += 1;
        let pts = self.collect_subtree_sorted(root);
        self.free_subtree(root);
        debug_assert_eq!(self.tombs_pending, 0, "shrink cancelled every tombstone");
        debug_assert_eq!(pts.len(), self.len, "live points disagree with len");
        self.rebuild_root(pts, cores());
    }

    /// Reset the shrink accounting after any full-tree rebuild (shrink,
    /// root leaf split, root branching split).
    pub(super) fn note_full_rebuild(&mut self) {
        self.shrink_base = self.len;
        self.deletes_since_shrink = 0;
    }
}
