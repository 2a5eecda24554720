//! Semi-dynamic insertion for the 3-sided tree (Lemma 4.4).
//!
//! The proof of Lemma 4.4 "parallels that of Lemma 3.6": the same routing,
//! update buffers, level-I/II reorganisations, TS reorganisations and
//! branching splits as §3.2, with the corner structures replaced by
//! Lemma 4.1 PSTs. A level-I reorganisation additionally rebuilds the
//! metablock's own PST; a TS reorganisation also rebuilds the parent's
//! children PST; the TD tracking structure is a PST with a staging area.
//! Batching and the pinned-path accounting mirror the diagonal tree (see
//! `crate::diag::insert`).

use std::sync::Arc;

use ccix_extmem::{Point, Run, SortedRun};
use ccix_pst::ExternalPst;

use super::{ThreeSidedTree, TsMeta, TsTd};
use crate::bbox::BBox;
use crate::diag::{
    append_buffered, entry_mut, mark_dirty, ChildEntry, MbId, PackedInfo, FULL_RANGE,
};

/// Reorganisation triggers observed while buffering one insert (see the
/// diagonal tree's).
pub(super) struct InsTriggers {
    target: MbId,
    parent: Option<MbId>,
    update_full: bool,
    staged_full: bool,
    td_total: usize,
}

impl ThreeSidedTree {
    /// Insert a point. Amortised
    /// `O(log_B n + (log_B n)²/B + (log2 B)/B)` I/Os (Lemma 4.4).
    pub fn insert(&mut self, p: Point) {
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
        // pure router — see the diagonal tree's routing for the argument.
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

        // Phase 2 — refresh ancestor caches in memory, marking real changes.
        self.raise_path_tops(&path[fix_from..], target, p, &mut dirty);

        // Phases 3–4 — buffer at the target, track in the parent's TD (a
        // parent above `start` was not pinned by this descent).
        if let Some(&par) = path.last() {
            self.pin_meta(&mut pinned, par);
        }
        let triggers = self.buffer_insert(&path, target, p, &mut dirty);

        // Phase 5 — write back every dirty control block.
        self.flush_dirty(&dirty);

        // Phase 6 — amortised triggers. With a finite reorganisation budget
        // their charges are shunted into the debt meter and bled a few
        // transfers per operation — the structure still evolves
        // bit-identically to the all-at-once behaviour.
        self.run_ins_triggers(&mut Vec::new(), triggers, &path);
    }

    /// Phases 3–4 of a routed insert, shared with the batched write path
    /// (see the diagonal tree's `buffer_insert`): append `p` to `target`'s
    /// update buffer, re-sharing a grown run with the parent's packed
    /// mirror, and track it in the parent's TD staging area.
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
                let td = m.td.as_mut().expect("TD present");
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
    /// before the first reorganisation; returns whether any fired. `path`
    /// is the insert's root-first descent.
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

    /// Raise the cached tops along `path` once `p` is buffered at `target`,
    /// touching a block only when a top actually rises (see the diagonal
    /// tree's `raise_path_tops`).
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

    /// Fold both TD staging areas into their PSTs, annihilating
    /// insert/delete pairs first (see the diagonal tree's `td_rebuild`):
    /// only tombstones whose insert predates the TD survive into the
    /// delete-side PST. Insert-only trees take the identical path — both
    /// delete sides are empty and cost nothing.
    pub(crate) fn td_rebuild(&mut self, parent: MbId) {
        let mut m = self.take_meta(parent);
        let td = m.td.as_mut().expect("TD present");
        let mut pts = self.pst_points(&td.pst);
        pts.extend(self.store.read_run(&td.staged));
        self.store.free_run(&td.staged);
        td.staged = Run::default();
        td.n_staged = 0;

        let mut del_pts = self.pst_points(&td.del_pst);
        del_pts.extend(self.store.read_run(&td.del_staged));
        self.store.free_run(&td.del_staged);
        td.del_staged = Run::default();
        td.n_del_staged = 0;
        td.del_staged_buf.clear();
        let tombs = SortedRun::from_unsorted(del_pts);

        // Each PST is rebuilt in place, reusing page slots and the layout
        // of any node whose population the staged delta did not move;
        // an emptied one is dropped (its pages go with its last handle).
        let (run, unmatched) = SortedRun::from_unsorted(pts).cancel(&tombs);
        td.n_built = run.len();
        if run.is_empty() {
            td.pst = None;
        } else {
            self.rebuild_pst(&mut td.pst, run);
        }
        let survivors = SortedRun::from_sorted(unmatched);
        td.n_del_built = survivors.len();
        if survivors.is_empty() {
            td.del_pst = None;
        } else {
            self.rebuild_pst(&mut td.del_pst, survivors);
        }
        self.put_meta(parent, m);
    }

    /// Every point of a TD PST, billed as a read of each of its pages.
    fn pst_points(&self, pst: &Option<Arc<ExternalPst>>) -> Vec<Point> {
        pst.as_ref().map_or_else(Vec::new, |pst| {
            self.counter.add_reads(pst.space_pages() as u64);
            pst.collect_points_unbilled()
        })
    }

    /// Rebuild every child's TSL/TSR snapshot and the parent's children PST
    /// from current contents; discard the TD. `O(B²)` I/Os. Each child's
    /// snapshot is its already-y-sorted horizontal run merged with its
    /// sorted delta — the same page reads, no full re-sort.
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
            self.store.free_run(&td.staged);
            self.store.free_run(&td.del_staged);
            *td = TsTd::default(); // old TD PST pages go with their last handle
        }
        self.put_meta(parent, m);
        self.install_sibling_snapshots(parent, snapshots, None);
    }

    /// Level-I: sortedness-preserving like the diagonal tree's — the
    /// x-sorted vertical run absorbs the sorted delta by a galloping merge,
    /// pending tombstones annihilate their victims in one more galloping
    /// pass, and only the y-order is re-sorted. The per-metablock PST is
    /// rebuilt over the cancelled set via
    /// [`ExternalPst::rebuild_from_sorted`], which reuses the
    /// layout of nodes the deletes did not touch.
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

    /// Replace blockings and the per-metablock PST with ones over the given
    /// pre-sorted orders. No sorting happens here; the PST rebuild reuses
    /// the previous node layout where populations are unchanged.
    fn rebuild_orgs(&mut self, m: &mut TsMeta, by_x: &SortedRun, by_y: &[Point]) {
        debug_assert!(by_y.windows(2).all(|w| w[0].ykey() > w[1].ykey()));
        debug_assert_eq!(by_x.len(), by_y.len());
        self.store.free_run(&m.vertical);
        self.store.free_run(&m.horizontal);
        self.store.free_run(&m.update);
        m.update = Run::default();
        m.n_upd = 0;

        m.vkeys = by_x.chunks(self.geo.b).map(|c| c[0].xkey()).collect();
        m.vertical = self.store.alloc_run(by_x);
        m.hkeys = by_y.chunks(self.geo.b).map(|c| c[0].ykey()).collect();
        m.h_live = by_y.chunks(self.geo.b).map(|c| c.len() as u32).collect();
        m.horizontal = self.store.alloc_run(by_y);
        m.n_main = by_x.len();
        m.main_bbox = BBox::of_points(by_x);
        m.y_lo_main = by_y.last().map(Point::ykey);
        if by_x.len() > self.geo.b {
            self.rebuild_pst(&mut m.pst, SortedRun::from_sorted(by_x.to_vec()));
        } else {
            m.pst = None;
        }
    }

    pub(super) fn level_ii(&mut self, mb: MbId, path: &[MbId]) {
        let is_leaf = self.meta(mb).is_leaf();
        if is_leaf {
            self.split_leaf(mb, path);
        } else {
            self.push_down(mb, path);
        }
    }

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

    /// Leaf split over the already-x-sorted vertical run (same page count
    /// as the horizontal run) — partitioned in place, no re-sort.
    fn split_leaf(&mut self, mb: MbId, path: &[MbId]) {
        let meta = self.meta(mb);
        debug_assert_eq!(meta.n_upd, 0, "level-II runs after level-I");
        debug_assert_eq!(meta.n_tomb, 0, "level-I cancelled all tombstones");
        let pts = SortedRun::from_sorted(self.store.read_run(&meta.vertical));

        let Some(&parent) = path.last() else {
            self.free_metablock(mb);
            let (root, _, _) = self.build_slab(pts, FULL_RANGE.0, FULL_RANGE.1);
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
                packed: PackedInfo::default(),
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
                packed: PackedInfo::default(),
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

    /// Branching split over the k-way merge of the subtree's x-sorted
    /// vertical runs (see the diagonal tree's `branching_split`).
    fn branching_split(&mut self, x: MbId, ancestors: &[MbId]) {
        let pts = self.collect_subtree_sorted(x);
        self.free_subtree(x);

        let Some(&parent) = ancestors.last() else {
            let (root, _, _) = self.build_slab(pts, FULL_RANGE.0, FULL_RANGE.1);
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
                packed: PackedInfo::default(),
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
                packed: PackedInfo::default(),
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

    /// Every live point of the subtree as one x-sorted run; pending
    /// tombstones are collected alongside and annihilated in the final
    /// merge (the landing invariant keeps victim and tombstone in the same
    /// subtree, so cancellation is exact).
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

    pub(crate) fn free_subtree(&mut self, mb: MbId) {
        let meta = self.free_metablock(mb);
        for c in &meta.children {
            self.free_subtree(c.mb);
        }
    }
}
