//! The mixed batched write path: inserts and deletes over one shared
//! pinned read context.
//!
//! [`MetablockTree::delete_batch`] already routes a sorted flood of
//! tombstones over a shared [`ReadCtx`], billing each control block of the
//! shared descent prefix once per residency. `apply_batch` generalises
//! that to a **mixed** batch: the ops are sorted by x-key and routed over
//! one context, with inserts taking the exact phases of
//! [`MetablockTree::insert`] (descend, refresh ancestor caches, buffer,
//! TD-track, amortised triggers) but billing the descent through the
//! batch's pin instead of a private one. A reorganisation trigger (or a
//! pumped incremental-reorg step) may free or rebuild pinned pages, so the
//! context is re-created whenever one fires — exactly as in
//! `delete_batch`.

use ccix_extmem::{Point, SortedRun};

use super::{mark_dirty, MbId, MetablockTree, ReadCtx};
use crate::Op;

/// Reorganisation triggers observed while routing one buffered insert.
/// They run after the batch's dirty blocks are flushed — phase 6 of a
/// serial insert, lifted out so the batch can refresh its context when
/// one fires.
struct InsTriggers {
    target: MbId,
    parent: Option<MbId>,
    /// Root-first descent path (level-II cascades re-route through it).
    path: Vec<MbId>,
    update_full: bool,
    staged_full: bool,
    td_total: usize,
}

impl MetablockTree {
    /// Apply a mixed batch of inserts and deletes as **one pinned
    /// operation**: the ops are routed in sorted x-order over a shared
    /// read context, so the control blocks of the shared descent prefix
    /// are billed once per residency instead of once per op — a correlated
    /// mixed flood pays the `O(log_B n)` descent once, exactly like
    /// [`MetablockTree::delete_batch`]. Reorganisation triggers flush the
    /// context and run between routings, so the structure evolves exactly
    /// as if the ops had been applied serially in sorted order.
    ///
    /// Ops must be independent: the batch is re-ordered by x-key, so
    /// deleting a point the same batch inserts is a contract violation.
    pub fn apply_batch(&mut self, ops: &[Op]) {
        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.sort_by_key(|&i| ops[i].point().xkey());
        let mut ctx = self.read_ctx();
        let mut dirty: Vec<MbId> = Vec::new();
        for &i in &order {
            match ops[i] {
                Op::Insert(p) => {
                    assert!(p.y >= p.x, "points must lie on or above the diagonal");
                    self.len += 1;
                    if self.delta_insert(p) {
                        if self.pump_reorg() {
                            ctx = self.read_ctx();
                        }
                        continue;
                    }
                    match self.root {
                        None => {
                            let id = self.make_metablock(
                                &SortedRun::from_sorted(vec![p]),
                                Vec::new(),
                                false,
                            );
                            self.root = Some(id);
                            // The (possibly resident) root changed.
                            ctx = self.read_ctx();
                        }
                        Some(root) => {
                            let t = self.route_insert(&mut ctx, &mut dirty, root, p);
                            let fired = self.run_ins_triggers(&mut dirty, t);
                            let pumped = self.pump_reorg();
                            if fired || pumped {
                                ctx = self.read_ctx();
                            }
                        }
                    }
                }
                Op::Delete(p) => {
                    assert!(p.y >= p.x, "points must lie on or above the diagonal");
                    assert!(
                        self.root.is_some() || self.reorg.job.is_some(),
                        "delete from an empty tree"
                    );
                    self.len -= 1;
                    self.deletes_since_shrink += 1;
                    if self.delta_delete(p) {
                        if self.pump_reorg() {
                            ctx = self.read_ctx();
                        }
                        continue;
                    }
                    let root = self.root.expect("tree is nonempty");
                    let t = self.route_tombstone(&mut ctx, &mut dirty, Vec::new(), root, p);
                    let fired = self.run_del_triggers(&mut dirty, t);
                    let pumped = self.pump_reorg();
                    if fired || pumped {
                        ctx = self.read_ctx();
                    }
                }
            }
        }
        self.flush_dirty(&dirty);
        self.maybe_shrink();
    }

    /// Route `p` downward from the root and buffer it — phases 1–4 of
    /// [`MetablockTree::insert_routed`] with the descent billed through the
    /// shared context — recording (without running) the reorganisation
    /// triggers it pulled.
    fn route_insert(
        &mut self,
        ctx: &mut ReadCtx,
        dirty: &mut Vec<MbId>,
        start: MbId,
        p: Point,
    ) -> InsTriggers {
        let mut path: Vec<MbId> = Vec::new();

        // Phase 1 — descend (the pure-router rule is `insert_routed`'s).
        let mut cur = start;
        loop {
            let meta = self.ctx_meta(ctx, cur);
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
        self.raise_path_tops(&path, target, p, dirty);

        // Phase 3 — append to the target's update buffer.
        let b = self.geo.b;
        let open_page = {
            let m = self.meta_unbilled(target);
            (!m.n_upd.is_multiple_of(b)).then(|| *m.update.last().expect("partial page exists"))
        };
        match open_page {
            Some(pg) => self.store.append(pg, p),
            None => {
                let pg = self.store.alloc(vec![p]);
                self.meta_mut(target).update.push(pg);
                if self.pack_h() > 0 {
                    if let Some(&par) = path.last() {
                        let pm = self.meta_mut(par);
                        if let Some(e) = pm.children.iter_mut().find(|c| c.mb == target) {
                            e.packed.upd_pages.push(pg);
                            mark_dirty(dirty, par);
                        }
                    }
                }
            }
        }
        let update_full = {
            let m = self.meta_mut(target);
            m.n_upd += 1;
            m.n_upd >= self.upd_cap_pages() * b
        };
        mark_dirty(dirty, target);

        // Phase 4 — track the insert in the parent's TD structure.
        let parent = path.last().copied();
        let mut td_total = 0usize;
        let mut staged_full = false;
        if let Some(par) = parent {
            ctx.touch_meta(par);
            let open_page = {
                let td = self.meta_unbilled(par).td.as_ref();
                let td = td.expect("internal metablock carries a TD");
                (!td.n_staged.is_multiple_of(b))
                    .then(|| *td.staged.last().expect("partial page exists"))
            };
            match open_page {
                Some(pg) => self.store.append(pg, p),
                None => {
                    let pg = self.store.alloc(vec![p]);
                    self.meta_mut(par)
                        .td
                        .as_mut()
                        .expect("TD present")
                        .staged
                        .push(pg);
                }
            }
            let td = self.meta_mut(par).td.as_mut().expect("TD present");
            td.n_staged += 1;
            td_total = td.total() + td.del_total();
            staged_full = td.n_staged >= self.td_cap_pages() * b;
            mark_dirty(dirty, par);
        }

        InsTriggers {
            target,
            parent,
            path,
            update_full,
            staged_full,
            td_total,
        }
    }

    /// Run the amortised triggers of one routed insert; returns whether any
    /// reorganisation fired (so the batch context must be re-created).
    fn run_ins_triggers(&mut self, dirty: &mut Vec<MbId>, t: InsTriggers) -> bool {
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
        if t.update_full && self.is_live(t.target) {
            self.flush_dirty(dirty);
            dirty.clear();
            let n_main = self.with_shunt(|tr| tr.level_i(t.target, t.parent));
            if n_main >= 2 * self.cap() {
                self.with_shunt(|tr| tr.level_ii(t.target, &t.path));
            }
            fired = true;
        }
        fired
    }
}
