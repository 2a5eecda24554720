//! The mixed batched write path for the 3-sided tree — inserts and
//! deletes over one shared pinned read context, the exact mirror of
//! [`crate::diag::apply`] (see there for the accounting argument).

use ccix_extmem::{Point, SortedRun};

use super::ThreeSidedTree;
use crate::diag::{mark_dirty, push_run, MbId, ReadCtx};
use crate::Op;

/// Reorganisation triggers observed while routing one buffered insert;
/// run after the batch's dirty blocks are flushed.
struct InsTriggers {
    target: MbId,
    parent: Option<MbId>,
    /// Root-first descent path (level-II cascades re-route through it).
    path: Vec<MbId>,
    update_full: bool,
    staged_full: bool,
    td_total: usize,
}

impl ThreeSidedTree {
    /// Apply a mixed batch of inserts and deletes as **one pinned
    /// operation** (see [`crate::MetablockTree::apply_batch`]): the ops
    /// route in sorted x-order over a shared read context, billing the
    /// shared descent prefix once per residency instead of once per op.
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
    /// [`ThreeSidedTree::insert_routed`] billed through the shared context,
    /// recording (without running) the triggers it pulled.
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
        for i in 0..path.len() {
            let a = path[i];
            let on_path_child = path.get(i + 1).copied().unwrap_or(target);
            let m = self.metas[a].as_mut().expect("pinned ancestor is live");
            let e = m
                .children
                .iter_mut()
                .find(|c| c.mb == on_path_child)
                .expect("descent child present in parent");
            let changed = if on_path_child == target {
                if e.upd_ymax.is_none_or(|y| p.ykey() > y) {
                    e.upd_ymax = Some(p.ykey());
                    true
                } else {
                    false
                }
            } else if e.sub_yhi.is_none_or(|y| p.ykey() > y) {
                e.sub_yhi = Some(p.ykey());
                true
            } else {
                false
            };
            if changed {
                mark_dirty(dirty, a);
            }
        }

        // Phase 3 — append to the target's update buffer.
        let b = self.geo.b;
        let open_page = {
            let m = self.metas[target].as_ref().expect("target is live");
            (!m.n_upd.is_multiple_of(b)).then(|| *m.update.last().expect("partial page exists"))
        };
        match open_page {
            Some(pg) => self.store.append(pg, p),
            None => {
                let pg = self.store.alloc(vec![p]);
                self.metas[target]
                    .as_mut()
                    .expect("target is live")
                    .update
                    .push(pg);
                if self.pack_h() > 0 {
                    if let Some(&par) = path.last() {
                        let pm = self.metas[par].as_mut().expect("parent is live");
                        if let Some(e) = pm.children.iter_mut().find(|c| c.mb == target) {
                            push_run(&mut e.packed.upd_pages, pg);
                            mark_dirty(dirty, par);
                        }
                    }
                }
            }
        }
        let update_full = {
            let m = self.metas[target].as_mut().expect("target is live");
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
                let td = self.metas[par]
                    .as_ref()
                    .expect("parent is live")
                    .td
                    .as_ref();
                let td = td.expect("interior metablock carries a TD");
                (!td.n_staged.is_multiple_of(b))
                    .then(|| *td.staged.last().expect("partial page exists"))
            };
            match open_page {
                Some(pg) => self.store.append(pg, p),
                None => {
                    let pg = self.store.alloc(vec![p]);
                    self.metas[par]
                        .as_mut()
                        .expect("parent is live")
                        .td
                        .as_mut()
                        .expect("TD present")
                        .staged
                        .push(pg);
                }
            }
            let td = self.metas[par]
                .as_mut()
                .expect("parent is live")
                .td
                .as_mut()
                .expect("TD present");
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
        if t.update_full && self.metas[t.target].is_some() {
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
