//! Deletion for the metablock tree — the paper's §5 open problem, closed
//! with tombstones that ride the insert machinery as **negative updates**.
//!
//! ## Why routing finds the victim
//!
//! A tombstone for `p` descends exactly like an insert of `p`: down the
//! slab containing `p.x`, stopping at the first metablock whose mains `p`
//! is not strictly below. The routing invariant (every point in a
//! descendant metablock lies strictly below `y_lo_main`) makes that
//! landing metablock the **only** place the live copy can be:
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
//! insert tracking, so the TS crossing case can subtract deletes younger
//! than the sibling snapshots it answers from. One degenerate case needs
//! care: a delete flood can empty an interior metablock's mains entirely,
//! voiding `y_lo_main`. Such a metablock becomes a **pure router** — the
//! insert and delete routings both pass it by (its buffer is empty and
//! stays empty), so nothing can hide there; as defence in depth, a
//! tombstone a level-I nevertheless fails to match is re-routed one level
//! down, where the landing argument applies again.
//!
//! ## Costs
//!
//! A routed delete costs what a routed insert costs: the pinned descent
//! (`O(log_B n)` control blocks, billed through the operation's
//! [`PathPin`](ccix_extmem::PathPin)), one buffer append (1 read + 1
//! write), one TD-side append, and the amortised reorganisation terms —
//! cancellations ride reorganisations that were already paid for.
//! [`MetablockTree::delete_batch`] shares one read context across a sorted
//! batch, so correlated delete floods bill the shared descent prefix once
//! per residency, exactly like the batched read engine. Space stays
//! `O(live/B)`: once the deletes absorbed since the last full (re)build
//! exceed [`Tuning::shrink_deletes_pct`](crate::Tuning::shrink_deletes_pct)
//! of its size, the tree is rebuilt from its live points by the same
//! merge-based plan/materialise pipeline static builds use — the classic
//! global-rebuilding amortisation, `O(1/B)` extra I/Os per delete.
//!
//! ## Contract
//!
//! Ids are unique across the tree's lifetime: deleting a point that is not
//! currently stored, or re-inserting a previously deleted id, is a
//! contract violation (debug builds catch both — unmatched tombstones at
//! the leaf level and duplicate ids in the validator).

use ccix_extmem::Point;

use super::{append_buffered, entry_mut, mark_dirty, td_mut, MbId, MetablockTree, ReadCtx};

/// Reorganisation triggers observed while routing one tombstone; they are
/// run after the routing context's dirty blocks are flushed, exactly like
/// phase 6 of an insert.
pub(super) struct DelTriggers {
    target: MbId,
    parent: Option<MbId>,
    tomb_full: bool,
    del_staged_full: bool,
    td_total: usize,
}

impl MetablockTree {
    /// Delete a previously inserted point. Amortised
    /// `O(log_B n + (log_B n)²/B)` I/Os — the insert budget: a tombstone
    /// is routed like an insert, buffered next to its victim, and
    /// annihilated by the next reorganisation that sees both.
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
    /// instead of once per delete (a correlated delete flood pays the
    /// `O(log_B n)` descent once). Reorganisation triggers flush the
    /// context and run between routings, exactly as for serial deletes.
    pub fn delete_batch(&mut self, pts: &[Point]) {
        let mut order: Vec<usize> = (0..pts.len()).collect();
        order.sort_by_key(|&i| pts[i].xkey());
        let mut ctx = self.read_ctx();
        let mut dirty: Vec<MbId> = Vec::new();
        // One descent-path buffer for the whole batch.
        let mut path: Vec<MbId> = Vec::new();
        for &i in &order {
            let p = pts[i];
            assert!(p.y >= p.x, "points must lie on or above the diagonal");
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
                if self.pump_reorg() {
                    ctx = self.read_ctx();
                }
                continue;
            }
            let root = self.root.expect("tree is nonempty");
            path.clear();
            let triggers = self.route_tombstone(&mut ctx, &mut dirty, &mut path, root, p);
            let fired = self.run_del_triggers(&mut dirty, triggers);
            let pumped = self.pump_reorg();
            if fired || pumped {
                // A reorganisation may have freed or rebuilt pinned pages:
                // start a fresh context for the rest of the batch.
                ctx = self.read_ctx();
            }
        }
        self.flush_dirty(&dirty);
        self.maybe_shrink();
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
    ) -> DelTriggers {
        // Phase 1 — descend, with the exact landing rule of the insert
        // routing. An interior metablock whose mains a delete flood
        // emptied is a pure router — nothing lands there (its buffer is
        // empty and stays empty), so nothing can hide there and the
        // victim, if stored at all, is exactly at the landing metablock.
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

        // Phase 2 — append the tombstone to the target's tombstone buffer
        // (a fresh page re-shares the grown run with the parent's packed
        // mirror; in-memory: the parent is pinned on the descent).
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
        let tomb_full = n_tomb >= self.tuning.tomb_cap_pages(self.geo) * b;
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

        // Phase 3 — mirror the tombstone into the parent's TD delete side,
        // so snapshot-answered routes can subtract it.
        let parent = path.last().copied();
        let mut td_total = 0usize;
        let mut del_staged_full = false;
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
            del_staged_full = n_del_staged >= self.tuning.td_cap_pages(self.geo) * b;
            mark_dirty(dirty, par);
        }

        DelTriggers {
            target,
            parent,
            tomb_full,
            del_staged_full,
            td_total,
        }
    }

    /// Run the amortised triggers of one routed tombstone. Returns whether
    /// any reorganisation fired (so a batch context must be re-created).
    /// A delete can only shrink a metablock, so no level-II / split
    /// cascades arise here.
    pub(super) fn run_del_triggers(&mut self, dirty: &mut Vec<MbId>, t: DelTriggers) -> bool {
        let mut fired = false;
        if let Some(par) = t.parent {
            if t.td_total >= self.cap() {
                self.flush_dirty(dirty);
                dirty.clear();
                self.with_shunt(|tr| tr.ts_reorg(par));
                fired = true;
            } else if t.del_staged_full {
                self.flush_dirty(dirty);
                dirty.clear();
                self.with_shunt(|tr| tr.td_rebuild(par));
                fired = true;
            }
        }
        if t.tomb_full && self.metas.is_live(t.target) {
            self.flush_dirty(dirty);
            dirty.clear();
            self.with_shunt(|tr| tr.level_i(t.target, t.parent));
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
    pub(crate) fn reroute_tombstone(&mut self, from: MbId, p: Point) {
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
        let triggers = self.route_tombstone(&mut ctx, &mut dirty, &mut vec![from], child, p);
        self.run_del_triggers(&mut dirty, triggers);
        self.flush_dirty(&dirty);
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
        let pts = self.collect_subtree_sorted(root);
        self.free_subtree(root);
        debug_assert_eq!(self.tombs_pending, 0, "shrink cancelled every tombstone");
        debug_assert_eq!(pts.len(), self.len, "live points disagree with len");
        self.root = if pts.is_empty() {
            None
        } else {
            let (root, _, _) =
                self.build_slab(pts, super::build::FULL_RANGE.0, super::build::FULL_RANGE.1);
            Some(root)
        };
        self.note_full_rebuild();
    }

    /// Reset the shrink accounting after any full-tree rebuild (shrink,
    /// root leaf split, root branching split).
    pub(crate) fn note_full_rebuild(&mut self) {
        self.shrink_base = self.len;
        self.deletes_since_shrink = 0;
    }
}
