//! The mixed batched write path for the 3-sided tree — inserts and
//! deletes over one shared pinned read context, the exact mirror of
//! [`crate::diag::apply`] (see there for the accounting argument).

use ccix_extmem::{Point, SortedRun};

use super::insert::InsTriggers;
use super::ThreeSidedTree;
use crate::diag::{MbId, ReadCtx};
use crate::Op;

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
        // One descent-path buffer for the whole batch.
        let mut path: Vec<MbId> = Vec::new();
        for &i in &order {
            path.clear();
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
                            let t = self.route_insert(&mut ctx, &mut dirty, &mut path, root, p);
                            let fired = self.run_ins_triggers(&mut dirty, t, &path);
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
                    let t = self.route_tombstone(&mut ctx, &mut dirty, &mut path, root, p);
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

    /// Route `p` downward from `start` (whose ancestors `path` holds, root
    /// first; the descent extends it) and buffer it — phases 1–4 of
    /// [`ThreeSidedTree::insert_routed`] billed through the shared context,
    /// recording (without running) the triggers it pulled.
    fn route_insert(
        &mut self,
        ctx: &mut ReadCtx,
        dirty: &mut Vec<MbId>,
        path: &mut Vec<MbId>,
        start: MbId,
        p: Point,
    ) -> InsTriggers {
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

        // Phases 2–4 — refresh ancestor caches in memory (marking real
        // changes), buffer at the target, track in the parent's TD.
        self.raise_path_tops(path, target, p, dirty);
        if let Some(&par) = path.last() {
            ctx.touch_meta(par);
        }
        self.buffer_insert(path, target, p, dirty)
    }
}
