//! Deletion for the 3-sided tree — the same tombstone machinery as the
//! diagonal tree (see [`crate::diag::delete`] for the landing-invariant
//! argument, which carries over verbatim: Lemma 4.4's routing is the §3.2
//! routing), with the PSTs taking the corner structures' role:
//!
//! * level-I rebuilds the per-metablock PST over the cancelled set via
//!   [`ccix_pst::ExternalPst::rebuild_from_sorted`] — nodes the deletes
//!   did not touch keep their pages;
//! * the TD delete side is a PST, queried by the snapshot-answered routes
//!   (TSL/TSR crossing case and the children-PST fork) to subtract deletes
//!   younger than the copies those routes report from;
//! * the TS reorganisation rebuilds every child's TSL/TSR snapshot and the
//!   parent's children PST from delete-cleaned merges.

use ccix_extmem::Point;

use super::ThreeSidedTree;
use crate::diag::{append_buffered, entry_mut, mark_dirty, MbId, ReadCtx};

/// Reorganisation triggers observed while routing one tombstone.
pub(super) struct DelTriggers {
    target: MbId,
    parent: Option<MbId>,
    tomb_full: bool,
    del_staged_full: bool,
    td_total: usize,
}

impl ThreeSidedTree {
    /// Delete a previously inserted point. Amortised — like
    /// [`ThreeSidedTree::insert`] — `O(log_B n + (log_B n)²/B +
    /// (log2 B)/B)` I/Os (Lemma 4.4's budget).
    ///
    /// # Panics
    /// Panics if the tree is empty. Deleting a point that is not stored is
    /// a contract violation caught by debug assertions.
    pub fn delete(&mut self, p: Point) {
        self.delete_batch(std::slice::from_ref(&p));
    }

    /// Delete a batch of points as one pinned operation (see
    /// [`crate::MetablockTree::delete_batch`]): tombstones route in sorted
    /// order over a shared read context, billing the shared descent prefix
    /// once per residency.
    pub fn delete_batch(&mut self, pts: &[Point]) {
        let mut order: Vec<usize> = (0..pts.len()).collect();
        order.sort_by_key(|&i| pts[i].xkey());
        let mut ctx = self.read_ctx();
        let mut dirty: Vec<MbId> = Vec::new();
        // One descent-path buffer for the whole batch.
        let mut path: Vec<MbId> = Vec::new();
        for &i in &order {
            let p = pts[i];
            assert!(
                self.root.is_some() || self.reorg.job.is_some(),
                "delete from an empty tree"
            );
            self.len -= 1;
            self.deletes_since_shrink += 1;
            // While a background shrink job is active the delta may absorb
            // the delete entirely (see the diagonal tree's delete_batch).
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

    /// Route the tombstone `p` downward from `start` (whose ancestors
    /// `path` holds, root first; the descent extends it), buffer it next to
    /// its victim, and mirror it into the landing parent's TD delete side.
    pub(super) fn route_tombstone(
        &mut self,
        ctx: &mut ReadCtx,
        dirty: &mut Vec<MbId>,
        path: &mut Vec<MbId>,
        start: MbId,
        p: Point,
    ) -> DelTriggers {
        // Phase 1 — descend with the insert routing's landing rule; an
        // emptied interior metablock is a pure router (see crate::diag).
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
        // (a fresh page re-shares the grown run with the parent's mirror).
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
        // a leaf with an empty update buffer the probe read is skipped:
        // the victim has nowhere else to be (see the diagonal tree).
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
                            let slot = &mut live.make_mut()[i];
                            *slot = slot.saturating_sub(1);
                        }
                        mark_dirty(dirty, par);
                    }
                }
            }
        }

        // Phase 3 — mirror the tombstone into the parent's TD delete side.
        let parent = path.last().copied();
        let mut td_total = 0usize;
        let mut del_staged_full = false;
        if let Some(par) = parent {
            ctx.touch_meta(par);
            let (_, n_del_staged) =
                append_buffered(&mut self.store, &mut self.metas, par, p, |m| {
                    let td = m.td.as_mut().expect("TD present");
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

    /// Run the amortised triggers of one routed tombstone; returns whether
    /// a reorganisation fired (deletes never cascade into level-II).
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

    /// Re-route a tombstone a level-I could not match (see the diagonal
    /// tree's `reroute_tombstone`).
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

    /// Occupancy-triggered shrink, exactly as on the diagonal tree: a full
    /// merge-based rebuild over the live points once deletes exceed
    /// [`crate::Tuning::shrink_deletes_pct`] of the last build's size.
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
                self.build_slab(pts, crate::diag::FULL_RANGE.0, crate::diag::FULL_RANGE.1);
            Some(root)
        };
        self.note_full_rebuild();
    }

    /// Reset the shrink accounting after any full-tree rebuild.
    pub(crate) fn note_full_rebuild(&mut self) {
        self.shrink_base = self.len;
        self.deletes_since_shrink = 0;
    }
}
