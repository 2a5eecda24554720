//! Semi-dynamic insertion (§3.2, Fig. 19), with batched reorganisation.
//!
//! A new point is routed down the slab containing its x, stopping at the
//! first metablock whose mains it is not strictly below, and buffered in
//! that metablock's **update buffer**; a copy goes into the parent's **TD**
//! corner structure. Amortisation then proceeds as in the paper, with the
//! buffer sizes generalised from one block to the tuned budgets:
//!
//! * update buffer full (`k·B` points, [`crate::Tuning::update_batch_pages`])
//!   → **level-I reorganisation**: merge into the mains and rebuild the
//!   vertical/horizontal/corner organisations (`O(B)` I/Os, once per `k·B`
//!   inserts — the batching amortises the rebuild `k`× further than the
//!   paper's `B`);
//! * TD staging full → rebuild the TD corner structure;
//! * TD reaches `B²` points → **TS reorganisation** of the children: rebuild
//!   every child's TS snapshot from current contents and discard the TD;
//! * metablock reaches `2B²` points → **level-II reorganisation**: an
//!   internal metablock keeps its top `B²` points and trickles the bottom
//!   `B²` into its children; a leaf splits in two;
//! * a parent reaching `2B` children → **branching split**: the subtree is
//!   rebuilt statically as two trees of half the leaves (at the root: the
//!   whole tree is rebuilt), costs amortised over the inserts that grew it.
//!
//! The hot path pins the search path's control blocks: one read on first
//! touch, one write per dirty block at the end (see
//! [`MetablockTree::pin_meta`]) — the paper's accounting, without the
//! one-I/O-per-access overcharge of re-reading a block it already holds.
//!
//! Reorganisations are **sortedness-preserving** (see
//! [`ccix_extmem::merge`]): level-I reads the x-sorted vertical run and
//! merges the sorted (≤ `k·B`-point) update delta into it instead of
//! re-sorting the whole block; a TS reorganisation merges each child's
//! y-sorted horizontal run with its sorted delta; a leaf split reads the
//! vertical run and partitions it in place; a branching split k-way merges
//! the subtree's vertical runs. Every read touches exactly the pages the
//! sort-based pipeline read (the two blockings hold the same point count),
//! so I/O counts are bit-identical — only the `O(n log n)` CPU re-sorts
//! disappear.

use std::sync::Arc;

use ccix_extmem::{Point, Run, SortedRun};

use super::{
    append_buffered, entry_mut, mark_dirty, td_mut, ChildEntry, MbId, MetablockTree, TdInfo,
};
use crate::bbox::BBox;
use crate::corner::CornerStructure;

/// Reorganisation triggers observed while buffering one insert: phase 6,
/// lifted out so a batch can refresh its read context when one fires.
pub(super) struct InsTriggers {
    target: MbId,
    parent: Option<MbId>,
    update_full: bool,
    staged_full: bool,
    td_total: usize,
}

impl MetablockTree {
    /// Insert a point. Amortised `O(log_B n + (log_B n)²/B)` I/Os
    /// (Theorem 3.7); individual inserts spike when reorganisations fire.
    ///
    /// # Panics
    /// Panics if `p.y < p.x`. Ids must be unique across the tree's lifetime
    /// (checked only by the unbilled validator, not on this hot path).
    pub fn insert(&mut self, p: Point) {
        assert!(p.y >= p.x, "points must lie on or above the diagonal");
        self.len += 1;
        // While a background shrink job holds the tree frozen, the insert
        // diverts to the job's delta instead of routing.
        if !self.delta_insert(p) {
            match self.root {
                None => {
                    let id =
                        self.make_metablock(&SortedRun::from_sorted(vec![p]), Vec::new(), false);
                    self.root = Some(id);
                }
                Some(root) => self.insert_routed(Vec::new(), root, p),
            }
        }
        self.pump_reorg();
    }

    /// Route `p` downward from `start` (whose ancestors are `above`, root
    /// first), buffer it, and run any triggered reorganisations.
    pub(super) fn insert_routed(&mut self, above: Vec<MbId>, start: MbId, p: Point) {
        let mut path = above;
        let fix_from = path.len();
        let mut pinned: Vec<MbId> = Vec::new();
        let mut dirty: Vec<MbId> = Vec::new();
        if self.tuning.resident_root {
            // The root control block lives in dedicated main memory (see
            // [`crate::Tuning::resident_root`]): pinned for free.
            if let Some(root) = self.root {
                pinned.push(root);
            }
        }

        // Phase 1 — descend, pinning each control block on the way down.
        // An interior metablock whose mains a delete flood emptied is a
        // pure router (its buffer is empty and stays empty): landing there
        // would later rebuild a `y_lo_main` that no longer bounds its
        // descendants, so the descent passes it by. Unreachable on
        // insert-only workloads, where interior mains are never empty.
        let mut cur = start;
        loop {
            let meta = self.pin_meta(&mut pinned, cur);
            let lands = meta.is_leaf() || meta.y_lo_main.is_some_and(|ylo| p.ykey() >= ylo);
            if lands {
                break;
            }
            debug_assert!(
                meta.y_lo_main.is_some() || meta.n_upd == 0,
                "emptied interior metablock holds buffered points"
            );
            let idx = meta.children.partition_point(|c| c.slab_hi <= p.xkey());
            debug_assert!(
                idx < meta.children.len() && meta.children[idx].slab_contains(p.xkey()),
                "slab ranges must cover the key space"
            );
            let child = meta.children[idx].mb;
            path.push(cur);
            cur = child;
        }
        let target = cur;

        // Phase 2 — refresh the caches the query relies on, along the newly
        // descended part of the path (ancestors above `start` already cover
        // `p`).
        self.raise_path_tops(&path[fix_from..], target, p, &mut dirty);

        // Phases 3–4 — buffer at the target, track in the parent's TD. A
        // parent above `start` was not pinned by this descent: pin it now.
        if let Some(&par) = path.last() {
            self.pin_meta(&mut pinned, par);
        }
        let triggers = self.buffer_insert(&path, target, p, &mut dirty);

        // Phase 5 — write back every dirty control block, then unpin.
        self.flush_dirty(&dirty);

        // Phase 6 — amortised triggers (reorganisations bill through the
        // ordinary take/put helpers; their cost is the amortised term).
        // With a finite reorg budget the charges are shunted into the debt
        // meter and bled a bounded amount per operation; the structure
        // still evolves bit-identically to the all-at-once behaviour.
        self.run_ins_triggers(&mut Vec::new(), triggers, &path);
    }

    /// Phases 3–4 of a routed insert, shared with the batched write path:
    /// append `p` to `target`'s update buffer (a fresh page re-shares the
    /// grown run with the parent's packed mirror) and track it in the
    /// parent's TD staging area. `path` is the root-first descent, ending
    /// at `target`'s parent; the caller has billed both control blocks,
    /// which are marked dirty here.
    pub(super) fn buffer_insert(
        &mut self,
        path: &[MbId],
        target: MbId,
        p: Point,
        dirty: &mut Vec<MbId>,
    ) -> InsTriggers {
        let b = self.geo.b;
        let parent = path.last().copied();
        let (fresh, n_upd) = append_buffered(&mut self.store, &mut self.metas, target, p, |m| {
            (&mut m.update, &mut m.n_upd)
        });
        if fresh.is_some() && self.tuning.pack_h_pages > 0 {
            if let Some(par) = parent {
                let run = self.metas.get(target).update.clone();
                let children = &mut self.metas.make_mut(par).children;
                entry_mut(children, target).packed.upd_pages = run;
                mark_dirty(dirty, par);
            }
        }
        let update_full = n_upd >= self.tuning.upd_cap_pages(self.geo) * b;
        mark_dirty(dirty, target);

        let mut td_total = 0usize;
        let mut staged_full = false;
        if let Some(par) = parent {
            let (_, n_staged) = append_buffered(&mut self.store, &mut self.metas, par, p, |m| {
                let td = td_mut(m);
                (&mut td.staged, &mut td.n_staged)
            });
            let td = self.metas.get(par).td.as_ref().expect("TD present");
            td_total = td.total() + td.del_total();
            staged_full = n_staged >= self.tuning.td_cap_pages(self.geo) * b;
            mark_dirty(dirty, par);
        }
        InsTriggers {
            target,
            parent,
            update_full,
            staged_full,
            td_total,
        }
    }

    /// Run the amortised triggers of one routed insert, flushing `dirty`
    /// before the first reorganisation; returns whether any fired (so a
    /// batch context must be re-created). `path` is the insert's root-first
    /// descent (level-II cascades re-route through it).
    pub(super) fn run_ins_triggers(
        &mut self,
        dirty: &mut Vec<MbId>,
        t: InsTriggers,
        path: &[MbId],
    ) -> bool {
        let mut fired = false;
        if let Some(par) = t.parent {
            if t.td_total >= self.cap() {
                self.flush_dirty(dirty);
                dirty.clear();
                self.with_shunt(|tr| tr.ts_reorg(par));
                fired = true;
            } else if t.staged_full {
                self.flush_dirty(dirty);
                dirty.clear();
                self.with_shunt(|tr| tr.td_rebuild(par));
                fired = true;
            }
        }
        if t.update_full && self.metas.is_live(t.target) {
            self.flush_dirty(dirty);
            dirty.clear();
            let n_main = self.with_shunt(|tr| tr.level_i(t.target, t.parent));
            if n_main >= 2 * self.cap() {
                self.with_shunt(|tr| tr.level_ii(t.target, path));
            }
            fired = true;
        }
        fired
    }

    /// Raise the cached tops (`upd_ymax` of the landing child, `sub_yhi` of
    /// every child above it) along `path` — the descent's ancestors, the
    /// last of which is `target`'s parent — so queries keep classifying the
    /// children correctly once `p` is buffered at `target`. Purely
    /// in-memory on pinned blocks; a block is touched (copied away from an
    /// epoch that shares it, marked dirty) only when a top actually rises.
    pub(super) fn raise_path_tops(
        &mut self,
        path: &[MbId],
        target: MbId,
        p: Point,
        dirty: &mut Vec<MbId>,
    ) {
        for (i, &a) in path.iter().enumerate() {
            let on_path_child = path.get(i + 1).copied().unwrap_or(target);
            let lands = on_path_child == target;
            let (idx, e) = self
                .metas
                .get(a)
                .children
                .iter()
                .enumerate()
                .find(|(_, c)| c.mb == on_path_child)
                .expect("descent child present in parent");
            let top = if lands { e.upd_ymax } else { e.sub_yhi };
            if top.is_none_or(|y| p.ykey() > y) {
                let e = &mut self.metas.make_mut(a).children[idx];
                if lands {
                    e.upd_ymax = Some(p.ykey());
                } else {
                    e.sub_yhi = Some(p.ykey());
                }
                mark_dirty(dirty, a);
            }
        }
    }

    /// Fold the staged points into the TD corner structure (`O(B)` I/Os,
    /// since the TD holds at most `B²` points). The old TD corner's
    /// vertical blocking is already x-sorted, so only the staged delta is
    /// sorted and galloped in — this fold fires every `k·B` inserts per
    /// parent, which made its full re-sort the single hottest CPU cost of
    /// an insert flood (see docs/tuning.md).
    ///
    /// With deletes present, the fold is also the **first reorganisation
    /// that sees both sides**: a tombstone whose insert landed in the TD
    /// annihilates it here; only tombstones whose insert predates the TD
    /// (they target the sibling snapshots) survive into the delete-side
    /// corner structure. Insert-only trees take the identical code path —
    /// both delete sides are empty and cost nothing.
    pub(crate) fn td_rebuild(&mut self, parent: MbId) {
        let mut m = self.take_meta(parent);
        let td = m.td.as_mut().expect("TD present");
        let built = match td.corner.take() {
            Some(c) => {
                let v = SortedRun::from_sorted(c.collect_points(&self.store));
                c.free_pages(&mut self.store);
                v
            }
            None => SortedRun::new(),
        };
        let mut delta = Vec::new();
        for &pg in td.staged.iter() {
            delta.extend_from_slice(self.store.read(pg));
        }
        self.store.free_run(&td.staged);
        td.staged = Run::default();
        td.n_staged = 0;

        let del_built = match td.del_corner.take() {
            Some(c) => {
                let v = SortedRun::from_sorted(c.collect_points(&self.store));
                c.free_pages(&mut self.store);
                v
            }
            None => SortedRun::new(),
        };
        let mut del_delta = Vec::new();
        for &pg in td.del_staged.iter() {
            del_delta.extend_from_slice(self.store.read(pg));
        }
        self.store.free_run(&td.del_staged);
        td.del_staged = Run::default();
        td.n_del_staged = 0;
        td.del_staged_buf.clear();
        let tombs = del_built.merge(SortedRun::from_unsorted(del_delta));

        let merged = built.merge(SortedRun::from_unsorted(delta));
        let (pts, unmatched) = merged.cancel(&tombs);
        td.n_built = pts.len();
        td.corner = (!pts.is_empty()).then(|| {
            Arc::new(CornerStructure::build_from_sorted(
                &mut self.store,
                &pts,
                self.tuning.corner_alpha,
            ))
        });
        let survivors = SortedRun::from_sorted(unmatched);
        td.n_del_built = survivors.len();
        td.del_corner = (!survivors.is_empty()).then(|| {
            Arc::new(CornerStructure::build_from_sorted(
                &mut self.store,
                &survivors,
                self.tuning.corner_alpha,
            ))
        });
        self.put_meta(parent, m);
    }

    /// TS reorganisation at `parent`: rebuild every child's TS snapshot from
    /// its current mains + updates and discard the TD (both sides). `O(B²)`
    /// I/Os, once per `B²` inserts below `parent`. Each child's snapshot is
    /// its already-y-sorted horizontal run merged with its sorted delta —
    /// the same page reads as before, no full re-sort — minus the child's
    /// pending tombstones, so a fresh snapshot never resurrects a deleted
    /// point (which is what lets the TDdel side be discarded here).
    pub(crate) fn ts_reorg(&mut self, parent: MbId) {
        let child_ids: Vec<MbId> = self.meta(parent).children.iter().map(|c| c.mb).collect();
        let snapshots: Vec<Vec<Point>> = child_ids
            .iter()
            .map(|&c| {
                let cm = self.meta(c);
                let mains_y = self.store.read_run(&cm.horizontal);
                let delta = self.store.read_run(&cm.update);
                let tombs = self.store.read_run(&cm.tomb);
                ccix_extmem::merge_delta_y_desc_cancel(mains_y, delta, &tombs)
            })
            .collect();
        let mut m = self.take_meta(parent);
        if let Some(td) = m.td.as_mut() {
            if let Some(c) = td.corner.take() {
                c.free_pages(&mut self.store);
            }
            self.store.free_run(&td.staged);
            if let Some(c) = td.del_corner.take() {
                c.free_pages(&mut self.store);
            }
            self.store.free_run(&td.del_staged);
            *td = TdInfo::default();
        }
        self.put_meta(parent, m);
        self.install_ts_snapshots(parent, snapshots);
    }

    /// Level-I reorganisation: merge the update buffer into the mains,
    /// annihilate pending tombstones against the merged set, and rebuild
    /// all organisations. Returns the new main count.
    ///
    /// Sortedness-preserving: the x-sorted vertical run is read (the same
    /// page count as the horizontal run the sort-based pipeline read) and
    /// only the delta is sorted, then galloped in — one `O(n log n)` sort
    /// (the y-order) remains instead of two. Tombstone cancellation is one
    /// more galloping pass over the merged run ([`SortedRun::cancel`]); a
    /// tombstone that finds no match (its victim sat in a descendant of a
    /// metablock whose mains a delete flood emptied) is re-routed one level
    /// down, where the landing invariant holds again. Re-routes never
    /// restructure the tree (a delete can only shrink a metablock), so the
    /// caller's pinned path stays live.
    pub(crate) fn level_i(&mut self, mb: MbId, parent: Option<MbId>) -> usize {
        let mut m = self.take_meta(mb);
        let mains_x = SortedRun::from_sorted(self.store.read_run(&m.vertical));
        let delta = SortedRun::from_unsorted(self.store.read_run(&m.update));
        let tombs = SortedRun::from_unsorted(self.store.read_run(&m.tomb));
        self.store.free_run(&m.tomb);
        m.tomb = Run::default();
        m.tomb_buf.clear();
        self.tombs_pending -= m.n_tomb;
        m.n_tomb = 0;
        let (by_x, unmatched) = mains_x.merge(delta).cancel(&tombs);
        let mut by_y = by_x.to_vec();
        ccix_extmem::sort_by_y_desc(&mut by_y);
        self.rebuild_orgs(&mut m, &by_x, &by_y);
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

    /// Replace a metablock's blockings (and corner structure) with ones
    /// built over the given pre-sorted orders, clearing the update buffer.
    /// Children/TS/TD survive. No sorting happens here: `by_x` is a typed
    /// invariant and `by_y` is debug-checked — callers merge, filter or
    /// sort whichever side actually needs it.
    fn rebuild_orgs(&mut self, m: &mut super::MetaBlock, by_x: &SortedRun, by_y: &[Point]) {
        debug_assert!(by_y.windows(2).all(|w| w[0].ykey() > w[1].ykey()));
        debug_assert_eq!(by_x.len(), by_y.len());
        self.store.free_run(&m.vertical);
        self.store.free_run(&m.horizontal);
        if let Some(c) = m.corner.take() {
            c.free_pages(&mut self.store);
        }
        self.store.free_run(&m.update);
        m.update = Run::default();
        m.n_upd = 0;

        m.vertical = self.store.alloc_run(by_x);
        m.vkeys = by_x.chunks(self.geo.b).map(|c| c[0].xkey()).collect();
        m.hkeys = by_y.chunks(self.geo.b).map(|c| c[0].ykey()).collect();
        m.h_live = by_y.chunks(self.geo.b).map(|c| c.len() as u32).collect();
        m.horizontal = self.store.alloc_run(by_y);
        m.n_main = by_x.len();
        m.main_bbox = BBox::of_points(by_x);
        m.y_lo_main = by_y.last().map(Point::ykey);
        if let (Some(bb), Some(ylo)) = (m.main_bbox, m.y_lo_main) {
            if self.options.corner_structures && ylo.0 <= bb.xhi.0 && by_x.len() > self.geo.b {
                m.corner = Some(Arc::new(CornerStructure::build_shared(
                    &mut self.store,
                    by_x,
                    &m.vertical,
                    self.tuning.corner_alpha,
                )));
            }
        }
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
    /// is a prefix of the already-y-sorted horizontal run, so only the
    /// kept top needs an x-sort.
    fn push_down(&mut self, mb: MbId, path: &[MbId]) {
        let mut m = self.take_meta(mb);
        debug_assert_eq!(m.n_upd, 0, "level-II runs after level-I");
        debug_assert_eq!(m.n_tomb, 0, "level-I cancelled all tombstones");
        let mut pts = self.store.read_run(&m.horizontal);
        debug_assert!(pts.windows(2).all(|w| w[0].ykey() > w[1].ykey()));
        let bottom = pts.split_off(self.cap());
        let top_y = pts;
        let top_x = SortedRun::from_unsorted(top_y.clone());
        self.rebuild_orgs(&mut m, &top_x, &top_y);
        let new_bbox = m.main_bbox;
        self.put_meta(mb, m);

        // Fix the parent's caches before trickling (cascades may restructure
        // this subtree), then refresh this level's TS snapshots.
        let bottom_yhi = bottom.iter().map(Point::ykey).max();
        if let Some(&parent) = path.last() {
            let mut pm = self.take_meta(parent);
            if let Some(e) = pm.children.iter_mut().find(|c| c.mb == mb) {
                e.main_bbox = new_bbox;
                e.sub_yhi = match (e.sub_yhi, bottom_yhi) {
                    (a, None) => a,
                    (None, b) => b,
                    (Some(a), Some(b)) => Some(a.max(b)),
                };
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
    /// and partitions the existing x-sorted order in place — no re-sort.
    fn split_leaf(&mut self, mb: MbId, path: &[MbId]) {
        let meta = self.meta(mb);
        debug_assert_eq!(meta.n_upd, 0, "level-II runs after level-I");
        debug_assert_eq!(meta.n_tomb, 0, "level-I cancelled all tombstones");
        let pts = SortedRun::from_sorted(self.store.read_run(&meta.vertical));

        let Some(&parent) = path.last() else {
            // The root itself is a full leaf: grow the tree by a static
            // rebuild (it creates the new root + B children).
            self.free_metablock(mb);
            let (root, _, _) =
                self.build_slab(pts, super::build::FULL_RANGE.0, super::build::FULL_RANGE.1);
            self.root = Some(root);
            self.note_full_rebuild();
            return;
        };

        let half = pts.len() / 2;
        let (left, right) = pts.split_at(half);
        let median = right[0].xkey();
        self.free_metablock(mb);
        let left_bbox = BBox::of_points(&left);
        let right_bbox = BBox::of_points(&right);
        let left_id = self.make_metablock(&left, Vec::new(), false);
        let right_id = self.make_metablock(&right, Vec::new(), false);

        let mut pm = self.take_meta(parent);
        let pos = pm
            .children
            .iter()
            .position(|c| c.mb == mb)
            .expect("split leaf present in parent");
        let old = pm.children.remove(pos);
        pm.children.insert(
            pos,
            ChildEntry {
                mb: left_id,
                slab_lo: old.slab_lo,
                slab_hi: median,
                main_bbox: left_bbox,
                upd_ymax: None,
                sub_yhi: None,
                packed: super::PackedInfo::default(),
            },
        );
        pm.children.insert(
            pos + 1,
            ChildEntry {
                mb: right_id,
                slab_lo: median,
                slab_hi: old.slab_hi,
                main_bbox: right_bbox,
                upd_ymax: None,
                sub_yhi: None,
                packed: super::PackedInfo::default(),
            },
        );
        let overflow = pm.children.len() >= 2 * self.geo.b;
        self.put_meta(parent, pm);
        self.sync_packed_children(parent);
        self.ts_reorg(parent);
        if overflow {
            self.branching_split(parent, &path[..path.len() - 1]);
        }
    }

    /// Branching-factor split: statically rebuild the subtree at `x` as two
    /// trees of half the points each, replacing `x` in its parent. At the
    /// root, rebuild the whole tree (this is how its height grows). The
    /// subtree's points are gathered as a k-way merge of its x-sorted
    /// vertical runs (plus sorted deltas) — `O(n log k)` with gallop fast
    /// paths over the x-disjoint slabs, instead of an `O(n log n)` re-sort.
    fn branching_split(&mut self, x: MbId, ancestors: &[MbId]) {
        let pts = self.collect_subtree_sorted(x);
        self.free_subtree(x);

        let Some(&parent) = ancestors.last() else {
            let (root, _, _) =
                self.build_slab(pts, super::build::FULL_RANGE.0, super::build::FULL_RANGE.1);
            self.root = Some(root);
            self.note_full_rebuild();
            return;
        };

        let half = pts.len() / 2;
        let (left, right) = pts.split_at(half);
        let median = right[0].xkey();
        let old = {
            let pm = self.meta(parent);
            pm.children
                .iter()
                .find(|c| c.mb == x)
                .expect("split node present in parent")
                .clone()
        };
        let (lid, lmains, lsub) = self.build_slab(left, old.slab_lo, median);
        let (rid, rmains, rsub) = self.build_slab(right, median, old.slab_hi);

        let mut pm = self.take_meta(parent);
        let pos = pm
            .children
            .iter()
            .position(|c| c.mb == x)
            .expect("split node present in parent");
        pm.children.remove(pos);
        pm.children.insert(
            pos,
            ChildEntry {
                mb: lid,
                slab_lo: old.slab_lo,
                slab_hi: median,
                main_bbox: BBox::of_points(&lmains),
                upd_ymax: None,
                sub_yhi: lsub,
                packed: super::PackedInfo::default(),
            },
        );
        pm.children.insert(
            pos + 1,
            ChildEntry {
                mb: rid,
                slab_lo: median,
                slab_hi: old.slab_hi,
                main_bbox: BBox::of_points(&rmains),
                upd_ymax: None,
                sub_yhi: rsub,
                packed: super::PackedInfo::default(),
            },
        );
        let overflow = pm.children.len() >= 2 * self.geo.b;
        self.put_meta(parent, pm);
        self.sync_packed_children(parent);
        self.ts_reorg(parent);
        if overflow {
            self.branching_split(parent, &ancestors[..ancestors.len() - 1]);
        }
    }

    /// Every live point in the subtree (mains + update buffers, minus
    /// pending tombstones) as one x-sorted run, with charged reads (each
    /// metablock's vertical run — the same page count its horizontal run
    /// would cost — plus its update and tombstone pages). TS/TD/corner
    /// pages are copies and are deliberately skipped. A static rebuild is
    /// therefore "the first reorganisation that sees both" for every
    /// pending tombstone in the subtree: the landing invariant keeps each
    /// tombstone's victim in the same subtree, so cancellation is exact.
    pub(crate) fn collect_subtree_sorted(&self, mb: MbId) -> SortedRun {
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
        let children: Vec<MbId> = meta.children.iter().map(|c| c.mb).collect();
        for c in children {
            self.collect_subtree_runs(c, runs, tomb_runs);
        }
    }

    /// Free a subtree's metablocks and every page they own.
    pub(crate) fn free_subtree(&mut self, mb: MbId) {
        let meta = self.free_metablock(mb);
        for c in &meta.children {
            self.free_subtree(c.mb);
        }
    }
}
