//! The write path of both trees (§3.2, Fig. 19; Lemma 4.4): inserts,
//! deletes and mixed batches, routed and buffered, with the
//! reorganisations they trigger.
//!
//! ## Inserts
//!
//! A new point is routed down the slab containing its x, stopping at the
//! first metablock whose mains it is not strictly below, and buffered in
//! that metablock's **update buffer**; a copy goes into the parent's
//! **TD**. Amortisation then proceeds as in the paper, with the buffer
//! sizes generalised from one block to the tuned budgets (see [`super::reorg`]
//! for each reorganisation):
//!
//! * update buffer full (`k·B` points, [`crate::Tuning::update_batch_pages`])
//!   → **level-I reorganisation** (`O(B)` I/Os, once per `k·B` inserts —
//!   the batching amortises the rebuild `k`× further than the paper's `B`);
//! * TD staging full → **TD fold**;
//! * TD reaches `B²` points → **TS reorganisation** of the children;
//! * metablock reaches `2B²` points → **level-II reorganisation**, which
//!   may cascade into a **branching split**.
//!
//! The hot path pins the search path's control blocks: one read on first
//! touch, one write per dirty block at the end (see [`Bill`]) — the
//! paper's accounting, without the one-I/O-per-access overcharge of
//! re-reading a block it already holds.
//!
//! ## Deletes: why routing finds the victim
//!
//! A tombstone for `p` descends exactly like an insert of `p`. The routing
//! invariant (every point in a descendant metablock lies strictly below
//! `y_lo_main`) makes the landing metablock the **only** place the live
//! copy can be:
//!
//! * above the landing point, `p.ykey() < y_lo_main` held at every
//!   metablock the descent passed, so `p` can be in neither its mains
//!   (all `≥ y_lo_main`) nor its update buffer (buffered points satisfy
//!   `ykey ≥ y_lo_main`: the bound only *rises* at reorganisations that
//!   empty the buffer);
//! * below it, the routing invariant puts every point strictly under the
//!   landing metablock's `y_lo_main ≤ p.ykey()`.
//!
//! So the tombstone is buffered next to its victim and the next **level-I
//! reorganisation annihilates the pair** in the same galloping merge that
//! absorbs the update buffer ([`ccix_extmem::SortedRun::cancel`]). A copy
//! of the tombstone goes to the parent's TD delete side, mirroring the TD
//! insert tracking, so the snapshot-answered routes can subtract deletes
//! younger than the snapshots they answer from. One degenerate case needs
//! care: a delete flood can empty an interior metablock's mains entirely,
//! voiding `y_lo_main`. Such a metablock becomes a **pure router** — the
//! insert and delete routings both pass it by (its buffer is empty and
//! stays empty), so nothing can hide there; as defence in depth, a
//! tombstone a level-I nevertheless fails to match is re-routed one level
//! down, where the landing argument applies again.
//!
//! A routed delete costs what a routed insert costs: the pinned descent,
//! one buffer append, one TD-side append, and the amortised reorganisation
//! terms — cancellations ride reorganisations that were already paid for.
//!
//! ## Batches
//!
//! `delete_batch` and `apply_batch` route their ops in sorted x-order over
//! one shared [`ReadCtx`], so the control blocks of the shared descent
//! prefix are billed once per residency instead of once per op — a
//! correlated flood pays the `O(log_B n)` descent once. A reorganisation
//! trigger (or a pumped incremental-reorg step) may free or rebuild pinned
//! pages, so the context is re-created whenever one fires; the structure
//! evolves exactly as if the ops had been applied serially in sorted
//! order.
//!
//! ## Contract
//!
//! Ids are unique across the tree's lifetime: deleting a point that is not
//! currently stored, or re-inserting a previously deleted id, is a
//! contract violation (debug builds catch both — unmatched tombstones at
//! the leaf level and duplicate ids in the validator).

use ccix_extmem::{Point, SortedRun, YRanks};

use super::{
    append_buffered, entry_mut, mark_dirty, td_mut, Bill, MbId, MetaBlock, ReadCtx, Shape, Tree,
};
use crate::Op;

/// Reorganisation triggers observed while buffering one insert or one
/// tombstone: the last phase of a routed write, lifted out so a batch can
/// refresh its read context when one fires.
pub(super) struct Triggers {
    target: MbId,
    parent: Option<MbId>,
    /// The target's buffer on the write's side (updates or tombstones) is
    /// full.
    buffer_full: bool,
    /// The parent's TD staging area on the write's side is full.
    staged_full: bool,
    td_total: usize,
    /// An insert: the level-I it triggers may leave the target overfull,
    /// cascading into level-II. A delete only ever shrinks a metablock.
    grows: bool,
}

impl<S: Shape> Tree<S> {
    /// Insert a point. Amortised `O(log_B n + (log_B n)²/B)` I/Os
    /// (Theorem 3.7; Lemma 4.4 adds `(log2 B)/B` for the PSTs); individual
    /// inserts spike when reorganisations fire.
    ///
    /// # Panics
    /// On the diagonal tree, panics if `p.y < p.x`. Ids must be unique
    /// across the tree's lifetime (checked only by the unbilled validator,
    /// not on this hot path).
    pub fn insert(&mut self, p: Point) {
        self.shape.admit(&p);
        self.len += 1;
        // While a background shrink job holds the tree frozen, the insert
        // diverts to the job's delta instead of routing.
        if !self.delta_insert(p) {
            match self.root {
                None => self.plant_root(p),
                Some(root) => self.insert_routed(Vec::new(), root, p),
            }
        }
        self.pump_reorg();
    }

    /// Delete a previously inserted point. Amortised — like
    /// [`Tree::insert`] — the insert budget: a tombstone is routed like an
    /// insert, buffered next to its victim, and annihilated by the next
    /// reorganisation that sees both.
    ///
    /// # Panics
    /// Panics if the tree is empty. Deleting a point that is not stored
    /// (or was already deleted) is a contract violation, caught by debug
    /// assertions when the stray tombstone reaches a leaf reorganisation.
    pub fn delete(&mut self, p: Point) {
        self.delete_batch(std::slice::from_ref(&p));
    }

    /// Delete a batch of points as **one pinned operation**: tombstones are
    /// routed in sorted order over a shared read context, so the control
    /// blocks of the shared descent prefix are billed once per residency
    /// instead of once per delete. Reorganisation triggers flush the
    /// context and run between routings, exactly as for serial deletes.
    pub fn delete_batch(&mut self, pts: &[Point]) {
        let mut order: Vec<usize> = (0..pts.len()).collect();
        order.sort_by_key(|&i| pts[i].xkey());
        let mut ctx = self.read_ctx();
        let mut dirty: Vec<MbId> = Vec::new();
        // One descent-path buffer for the whole batch.
        let mut path: Vec<MbId> = Vec::new();
        for &i in &order {
            if self.delete_one(&mut ctx, &mut dirty, &mut path, pts[i]) {
                ctx = self.read_ctx();
            }
        }
        self.flush_dirty(&dirty);
        self.maybe_shrink();
    }

    /// Apply a mixed batch of inserts and deletes as **one pinned
    /// operation**: the ops are routed in sorted x-order over a shared
    /// read context, inserts taking the exact phases of [`Tree::insert`]
    /// but billing the descent through the batch's pin, so the structure
    /// evolves exactly as if the ops had been applied serially in sorted
    /// order.
    ///
    /// Ops must be independent: the batch is re-ordered by x-key, so
    /// deleting a point the same batch inserts is a contract violation.
    pub fn apply_batch(&mut self, ops: &[Op]) {
        let mut order: Vec<usize> = (0..ops.len()).collect();
        order.sort_by_key(|&i| ops[i].point().xkey());
        let mut ctx = self.read_ctx();
        let mut dirty: Vec<MbId> = Vec::new();
        // One descent-path buffer for the whole batch.
        let mut path: Vec<MbId> = Vec::new();
        for &i in &order {
            let refresh = match ops[i] {
                Op::Insert(p) => self.insert_one(&mut ctx, &mut dirty, &mut path, p),
                Op::Delete(p) => self.delete_one(&mut ctx, &mut dirty, &mut path, p),
            };
            if refresh {
                ctx = self.read_ctx();
            }
        }
        self.flush_dirty(&dirty);
        self.maybe_shrink();
    }

    /// One insert of a batch. Returns whether the batch's context must be
    /// re-created: a reorganisation fired, a job step ran, or the (possibly
    /// resident) root changed.
    fn insert_one(
        &mut self,
        ctx: &mut ReadCtx,
        dirty: &mut Vec<MbId>,
        path: &mut Vec<MbId>,
        p: Point,
    ) -> bool {
        self.shape.admit(&p);
        self.len += 1;
        if self.delta_insert(p) {
            return self.pump_reorg();
        }
        let Some(root) = self.root else {
            self.plant_root(p);
            return true;
        };
        path.clear();
        let t = self.route_insert(ctx, dirty, path, root, p);
        let fired = self.run_triggers(dirty, t, path);
        let pumped = self.pump_reorg();
        fired || pumped
    }

    /// One delete of a batch; returns whether the batch's context must be
    /// re-created.
    fn delete_one(
        &mut self,
        ctx: &mut ReadCtx,
        dirty: &mut Vec<MbId>,
        path: &mut Vec<MbId>,
        p: Point,
    ) -> bool {
        self.shape.admit(&p);
        assert!(
            self.root.is_some() || self.reorg.job.is_some(),
            "delete from an empty tree"
        );
        self.len -= 1;
        self.deletes_since_shrink += 1;
        // While a background shrink job is active the delta may absorb
        // the delete entirely: the victim is an undrained delta point
        // (the pair annihilates in place) or the tree is frozen (the
        // tombstone is buffered in the delta until after cutover).
        if self.delta_delete(p) {
            return self.pump_reorg();
        }
        let root = self.root.expect("tree is nonempty");
        path.clear();
        let t = self.route_tombstone(ctx, dirty, path, root, p);
        let fired = self.run_triggers(dirty, t, path);
        let pumped = self.pump_reorg();
        fired || pumped
    }

    /// Make a one-point leaf over `p` the root of an empty tree.
    pub(super) fn plant_root(&mut self, p: Point) {
        let id = self.make_leaf(&SortedRun::from_sorted(vec![p]));
        self.root = Some(id);
    }

    /// Allocate a leaf metablock over `mains`.
    pub(super) fn make_leaf(&mut self, mains: &SortedRun) -> MbId {
        let order = YRanks::argsort(mains);
        let by_y = order.gather(mains);
        let mut meta = MetaBlock::new(&mut self.store, mains, &by_y, Vec::new(), false);
        S::build_main_org(self, &mut meta, mains, &order);
        self.alloc_meta(meta)
    }

    /// Route `p` downward from `start` (whose ancestors are `path`, root
    /// first) with a pinned path of its own, buffer it, and run any
    /// triggered reorganisations.
    pub(super) fn insert_routed(&mut self, mut path: Vec<MbId>, start: MbId, p: Point) {
        // The root control block lives in dedicated main memory (see
        // [`crate::Tuning::resident_root`]): pinned for free.
        let mut pinned: Vec<MbId> = Vec::new();
        pinned.extend(self.root.filter(|_| self.tuning.resident_root));
        let mut dirty: Vec<MbId> = Vec::new();
        let t = self.route_insert(&mut pinned, &mut dirty, &mut path, start, p);
        // Write back every dirty control block, then run the amortised
        // triggers (reorganisations bill through the ordinary take/put
        // helpers; their cost is the amortised term). With a finite reorg
        // budget the charges are shunted into the debt meter and bled a
        // bounded amount per operation; the structure still evolves
        // bit-identically to the all-at-once behaviour.
        self.flush_dirty(&dirty);
        self.run_triggers(&mut Vec::new(), t, &path);
    }

    /// Phase 1 of a routed write: descend from `start` by the landing rule,
    /// billing each control block through `bill` and pushing every
    /// metablock passed onto `path`; returns the landing metablock.
    ///
    /// An interior metablock whose mains a delete flood emptied is a pure
    /// router (its buffer is empty and stays empty): landing there would
    /// later rebuild a `y_lo_main` that no longer bounds its descendants,
    /// so the descent passes it by. Unreachable on insert-only workloads,
    /// where interior mains are never empty.
    fn descend(&self, bill: &mut impl Bill, path: &mut Vec<MbId>, start: MbId, p: Point) -> MbId {
        let mut cur = start;
        loop {
            bill.touch(&self.counter, cur);
            let meta = self.metas.get(cur);
            if meta.is_leaf() || meta.y_lo_main.is_some_and(|ylo| p.ykey() >= ylo) {
                return cur;
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
            path.push(cur);
            cur = meta.children[idx].mb;
        }
    }

    /// Phases 1–4 of a routed insert: descend from `start` (whose
    /// ancestors `path` holds, root first; the descent extends it), refresh
    /// the caches the query relies on along the newly descended part of the
    /// path (ancestors above `start` already cover `p`), buffer `p` at the
    /// landing metablock and track it in the parent's TD — recording,
    /// without running, the reorganisation triggers it pulled.
    fn route_insert(
        &mut self,
        bill: &mut impl Bill,
        dirty: &mut Vec<MbId>,
        path: &mut Vec<MbId>,
        start: MbId,
        p: Point,
    ) -> Triggers {
        let fix_from = path.len();
        let target = self.descend(bill, path, start, p);
        self.raise_path_tops(&path[fix_from..], target, p, dirty);
        // A parent above `start` was not billed by this descent.
        if let Some(&par) = path.last() {
            bill.touch(&self.counter, par);
        }
        self.buffer_insert(path, target, p, dirty)
    }

    /// Phases 3–4 of a routed insert: append `p` to `target`'s update
    /// buffer (a fresh page re-shares the grown run with the parent's
    /// packed mirror) and track it in the parent's TD staging area. `path`
    /// is the root-first descent, ending at `target`'s parent; the caller
    /// has billed both control blocks, which are marked dirty here.
    fn buffer_insert(
        &mut self,
        path: &[MbId],
        target: MbId,
        p: Point,
        dirty: &mut Vec<MbId>,
    ) -> Triggers {
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
        let buffer_full = n_upd >= self.tuning.upd_cap_pages(self.geo) * b;
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
        Triggers {
            target,
            parent,
            buffer_full,
            staged_full,
            td_total,
            grows: true,
        }
    }

    /// Raise the cached tops (`upd_ymax` of the landing child, `sub_yhi` of
    /// every child above it) along `path` — the descent's ancestors, the
    /// last of which is `target`'s parent — so queries keep classifying the
    /// children correctly once `p` is buffered at `target`. Purely
    /// in-memory on pinned blocks; a block is touched (copied away from an
    /// epoch that shares it, marked dirty) only when a top actually rises.
    fn raise_path_tops(&mut self, path: &[MbId], target: MbId, p: Point, dirty: &mut Vec<MbId>) {
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

    /// Route the tombstone `p` downward from `start` (whose ancestors `path`
    /// holds, root first; the descent extends it), buffer it next to its
    /// victim, and mirror it into the landing parent's TD delete side.
    /// Reads bill through `ctx`; control blocks mutated in memory are
    /// recorded in `dirty` and paid by the caller's flush.
    pub(super) fn route_tombstone(
        &mut self,
        ctx: &mut ReadCtx,
        dirty: &mut Vec<MbId>,
        path: &mut Vec<MbId>,
        start: MbId,
        p: Point,
    ) -> Triggers {
        // Nothing lands at a pure router, so nothing can hide there: the
        // victim, if stored at all, is exactly at the landing metablock.
        let target = self.descend(ctx, path, start, p);

        // Append the tombstone to the target's tombstone buffer (a fresh
        // page re-shares the grown run with the parent's packed mirror;
        // in-memory: the parent is pinned on the descent).
        let b = self.geo.b;
        let (fresh, n_tomb) = append_buffered(&mut self.store, &mut self.metas, target, p, |m| {
            m.tomb_buf.push(p);
            (&mut m.tomb, &mut m.n_tomb)
        });
        if fresh.is_some() && self.tuning.pack_h_pages > 0 {
            if let Some(&par) = path.last() {
                let run = self.metas.get(target).tomb.clone();
                let children = &mut self.metas.make_mut(par).children;
                entry_mut(children, target).packed.tomb_pages = run;
                mark_dirty(dirty, par);
            }
        }
        let buffer_full = n_tomb >= self.tuning.tomb_cap_pages(self.geo) * b;
        self.tombs_pending += 1;
        mark_dirty(dirty, target);

        // Keep the per-page live counts exact: if the victim sits in the
        // mains (rather than the update buffer), it is on the unique
        // horizontal page whose top key covers its y — probe that page
        // (billed through the operation's pin) and decrement its count, so
        // queries can skip the page once every point on it is shadowed. On
        // a leaf with an empty update buffer the probe read is skipped
        // entirely: the victim has nowhere else to be (the landing rule
        // sends a tombstone exactly where its victim's insert landed, and a
        // leaf has no descendants to hide it in), so the decrement is
        // certain without touching the page.
        let probe = {
            let m = self.metas.get(target);
            if !m.hkeys.is_empty() && p.ykey() <= m.hkeys[0] {
                let i = m.hkeys.partition_point(|&hk| hk >= p.ykey()) - 1;
                let certain = m.is_leaf() && m.n_upd == 0;
                Some((i, (!certain).then(|| m.horizontal[i])))
            } else {
                None
            }
        };
        if let Some((i, pg)) = probe {
            if pg.is_none_or(|pg| self.ctx_read(ctx, pg).iter().any(|q| q.id == p.id)) {
                let m = self.metas.make_mut(target);
                debug_assert!(m.h_live[i] > 0, "live count underflow");
                m.h_live[i] -= 1;
                if i < self.tuning.pack_h_pages {
                    if let Some(&par) = path.last() {
                        let children = &mut self.metas.make_mut(par).children;
                        let live = &mut entry_mut(children, target).packed.h_live;
                        if i < live.len() {
                            // Copied first while an epoch still shares it.
                            let slot = &mut live.make_mut()[i];
                            *slot = slot.saturating_sub(1);
                        }
                        mark_dirty(dirty, par);
                    }
                }
            }
        }

        // Mirror the tombstone into the parent's TD delete side, so
        // snapshot-answered routes can subtract it.
        let parent = path.last().copied();
        let mut td_total = 0usize;
        let mut staged_full = false;
        if let Some(par) = parent {
            ctx.touch_meta(par);
            let (_, n_del_staged) =
                append_buffered(&mut self.store, &mut self.metas, par, p, |m| {
                    let td = td_mut(m);
                    td.del_staged_buf.push(p);
                    (&mut td.del_staged, &mut td.n_del_staged)
                });
            let td = self.metas.get(par).td.as_ref().expect("TD present");
            td_total = td.total() + td.del_total();
            staged_full = n_del_staged >= self.tuning.td_cap_pages(self.geo) * b;
            mark_dirty(dirty, par);
        }

        Triggers {
            target,
            parent,
            buffer_full,
            staged_full,
            td_total,
            grows: false,
        }
    }

    /// Run the amortised triggers of one routed write, flushing `dirty`
    /// before the first reorganisation; returns whether any fired (so a
    /// batch context must be re-created). `path` is the write's root-first
    /// descent (an insert's level-II cascade re-routes through it).
    pub(super) fn run_triggers(
        &mut self,
        dirty: &mut Vec<MbId>,
        t: Triggers,
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
        if t.buffer_full && self.metas.is_live(t.target) {
            self.flush_dirty(dirty);
            dirty.clear();
            let n_main = self.with_shunt(|tr| tr.level_i(t.target, t.parent));
            if t.grows && n_main >= 2 * self.cap() {
                self.with_shunt(|tr| tr.level_ii(t.target, path));
            }
            fired = true;
        }
        fired
    }

    /// Re-route a tombstone that a level-I reorganisation could not match:
    /// its victim sits strictly below `from` (only possible when a delete
    /// flood emptied `from`'s mains and voided the landing bound). The
    /// tombstone descends into the slab child and lands where the
    /// invariant holds again; at a leaf with no match the delete was a
    /// contract violation and the stray tombstone is dropped.
    pub(super) fn reroute_tombstone(&mut self, from: MbId, p: Point) {
        let is_leaf = !self.metas.is_live(from) || self.metas.get(from).is_leaf();
        if is_leaf {
            debug_assert!(false, "deleted point {p:?} is not stored in the tree");
            return;
        }
        let mut ctx = self.read_ctx();
        let mut dirty: Vec<MbId> = Vec::new();
        let idx = {
            let meta = self.ctx_meta(&mut ctx, from);
            meta.children.partition_point(|c| c.slab_hi <= p.xkey())
        };
        let child = self.metas.get(from).children[idx].mb;
        let mut path = vec![from];
        let t = self.route_tombstone(&mut ctx, &mut dirty, &mut path, child, p);
        self.run_triggers(&mut dirty, t, &path);
        self.flush_dirty(&dirty);
    }
}
