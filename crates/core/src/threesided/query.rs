//! The 3-sided search (Lemma 4.3, Fig. 21): the shared search of
//! [`crate::tree`], and what only the 3-sided tree does.
//!
//! Report every point with `x1 ≤ x ≤ x2 ∧ y ≥ y0`. The search descends the
//! (at most two) slabs containing the query's vertical sides. A visited
//! metablock that straddles `y0` is answered by its own PST. A metablock
//! entirely above `y0` recurses into its boundary children and deals with
//! the *middle* children (slabs fully inside the x-range) by class; its
//! straddling middles are resolved by a sibling snapshot — `TSR` of the
//! child left of the middles when the query opens to the right of the
//! slab, `TSL` mirrored — and at the unique *fork* node (both vertical
//! sides in different children, the paper's case (4)) the parent's
//! **children PST** answers for all of them at once, which is where the
//! one `O(log2 B)` term of Theorem 4.7 is spent.

use ccix_extmem::Point;
use ccix_pst::ExternalPst;

use super::{ThreeSided, ThreeSidedTree};
use crate::tree::{child_live, in_slabs, retain_from, MbId, ReadCtx, Rect, Search};

type MetaBlock = crate::tree::MetaBlock<ThreeSided>;

impl Search for ThreeSided {
    type Query = (i64, i64, i64);

    fn rect((x1, x2, y0): (i64, i64, i64)) -> Rect {
        Rect { x1, x2, y0 }
    }

    /// A PST's pages are pinned in a key space of their own per metablock
    /// and organisation.
    fn query_org(
        _t: &ThreeSidedTree,
        ctx: &mut ReadCtx,
        pst: &ExternalPst,
        mb: MbId,
        j: u32,
        r: Rect,
        out: &mut Vec<Point>,
    ) {
        let space = ThreeSidedTree::pst_space(mb, j);
        pst.query_pinned(&mut ctx.pin, space, r.x1, r.x2, r.y0, out);
    }

    /// The metablock's own PST answers; mains in one block, which keep
    /// none, are scanned whole.
    fn straddling(
        t: &ThreeSidedTree,
        ctx: &mut ReadCtx,
        mb: MbId,
        meta: &MetaBlock,
        r: Rect,
        out: &mut Vec<Point>,
    ) {
        let Some(pst) = &meta.org else {
            debug_assert!(meta.n_main <= t.geo.b, "missing metablock PST");
            for &pg in meta.vertical.iter() {
                for p in t.ctx_read(ctx, pg) {
                    if r.contains(p) {
                        out.push(*p);
                    }
                }
            }
            return;
        };
        Self::query_org(t, ctx, pst, mb, 0, r, out);
    }

    /// The boundary children (the first, if `x1` cuts into it, and the
    /// one `x2` cuts into) are searched; every child between them is a
    /// middle and is dealt with by class.
    fn process_children(
        t: &ThreeSidedTree,
        ctx: &mut ReadCtx,
        mb: MbId,
        meta: &MetaBlock,
        r: Rect,
        out: &mut Vec<Point>,
    ) {
        let children = &meta.children;
        let (a1k, a2k) = (r.left(), r.right());
        let len = children.len();
        // First child that can hold x ≥ x1, and first whose slab extends
        // beyond (x2, MAX).
        let i1 = children.partition_point(|c| c.slab_hi <= a1k);
        let i2 = children.partition_point(|c| c.slab_hi <= a2k);
        if i1 >= len {
            return; // every child is strictly left of x1
        }
        if i1 == i2 {
            // Both vertical sides within one child: no middles, recurse.
            let c = &children[i1];
            if c.slab_lo <= a2k && child_live(c, r) {
                t.process_path(ctx, c.mb, r, out);
            }
            return;
        }
        let left_boundary = children[i1].slab_lo < a1k;
        let right_boundary = i2 < len && children[i2].slab_lo <= a2k;
        let (m_start, m_end) = (i1 + usize::from(left_boundary), i2);
        if left_boundary && child_live(&children[i1], r) {
            t.process_path(ctx, children[i1].mb, r, out);
        }
        if right_boundary && child_live(&children[i2], r) {
            t.process_path(ctx, children[i2].mb, r, out);
        }
        if m_start >= m_end {
            return;
        }

        let kids = t.classify_children(ctx, children, m_start..m_end, r, out);
        for &i in &kids.full {
            t.report_all(ctx, children[i].mb, r, out);
        }
        let partial = &kids.partial[..];
        if partial.len() == 1 {
            t.examine_child(ctx, meta, partial[0], r, out);
        } else if partial.len() > 1 {
            // The sibling snapshot that covers the whole middle range, if
            // one exists; otherwise (fork / fully covered node) the
            // children PST, the only `O(log2 B)` access of the search.
            if m_end == len && m_start > 0 {
                t.snapshot_route(ctx, (mb, meta), m_start - 1, partial, r, out);
            } else if m_start == 0 && m_end < len {
                t.snapshot_route(ctx, (mb, meta), m_end, partial, r, out);
            } else if let Some(cpst) = &meta.sib.children_pst {
                let in_partial = in_slabs(children, partial);
                let from = out.len();
                Self::query_org(t, ctx, cpst, mb, 1, r, out);
                retain_from(out, from, &in_partial);
                t.query_td(ctx, mb, meta, r, &in_partial, out);
            } else {
                // No snapshot yet (fresh interior node): examine each.
                for &i in partial {
                    t.examine_child(ctx, meta, i, r, out);
                }
            }
        }
        ctx.kids = kids;
    }
}

impl ThreeSidedTree {
    /// Report every point with `x1 ≤ x ≤ x2 ∧ y ≥ y0`.
    pub fn query(&self, x1: i64, x2: i64, y0: i64) -> Vec<Point> {
        let mut out = Vec::new();
        self.query_into(x1, x2, y0, &mut out);
        out
    }

    /// As [`ThreeSidedTree::query`], appending into `out`.
    /// `O(log_B n + t/B + log2 B)` I/Os.
    pub fn query_into(&self, x1: i64, x2: i64, y0: i64, out: &mut Vec<Point>) {
        self.query_with(x1, x2, y0, |p| *p, out);
    }

    /// As [`ThreeSidedTree::query_into`], appending `project` of each
    /// answer (see [`crate::MetablockTree::query_with`]).
    pub fn query_with<T>(
        &self,
        x1: i64,
        x2: i64,
        y0: i64,
        project: impl Fn(&Point) -> T,
        out: &mut Vec<T>,
    ) {
        self.search_with((x1, x2, y0), project, out);
    }
}
