//! Diagonal-corner search (Theorem 3.2, Figs. 15–17): the shared search of
//! [`crate::tree`] over the rectangle `(−∞, q, q)`, and what only the
//! diagonal tree does.
//!
//! A diagonal-corner query anchored at `(q, q)` reports every point with
//! `x ≤ q ≤ y`. The search walks the one slab containing `q`. A Type I
//! node's left siblings of the path child hold only `x ≤ q`: they are dealt
//! with by class, the straddling ones through the `TS` snapshot of the
//! rightmost of them, and the path child is searched next. A node that
//! contains the corner (Type II) picks the cheaper of its corner structure
//! (Lemma 3.1) and a filtered horizontal scan from exact directory-computed
//! page counts.
//!
//! The slab decomposition also makes the tree a one-dimensional index on
//! left endpoints ([`MetablockTree::x_range`]), through the same scans.

use ccix_extmem::Point;

use super::{Diag, MetablockTree};
use crate::tree::{child_live, mirror_tombs, MbId, ReadCtx, Rect, Search, SPACE_META};

type MetaBlock = crate::tree::MetaBlock<Diag>;

impl Search for Diag {
    type Query = i64;

    fn rect(q: i64) -> Rect {
        Rect {
            x1: i64::MIN,
            x2: q,
            y0: q,
        }
    }

    /// A corner structure rides in its metablock's control block: it is
    /// queried at the corner `(q, q)` on that host.
    fn query_org(
        t: &MetablockTree,
        ctx: &mut ReadCtx,
        corner: &crate::CornerStructure,
        mb: MbId,
        _j: u32,
        r: Rect,
        out: &mut Vec<Point>,
    ) {
        let host = (SPACE_META, mb as u64);
        corner.query_pinned(&t.store, ctx, host, r.y0, &corner.route(r.y0), out);
    }

    /// The corner falls inside the mains' y-range, or to the right of all
    /// of them. The mains' horizontal blocking answers when they all lie
    /// left of `q`; otherwise the cost-planned corner structure does, or,
    /// without one (mains in one block, or corner structures ablated, E13),
    /// a filtered scan of the vertical blocking up to `q`.
    fn straddling(
        t: &MetablockTree,
        ctx: &mut ReadCtx,
        mb: MbId,
        meta: &MetaBlock,
        r: Rect,
        out: &mut Vec<Point>,
    ) {
        let q = r.y0;
        if meta.main_bbox.is_some_and(|b| b.all_x_at_most(q)) {
            return t.horizontal_scan_down(ctx, meta, 0, r, |_| true, out);
        }
        let Some(corner) = &meta.org else {
            debug_assert!(
                !t.shape.options.corner_structures || meta.n_main <= t.geo.b,
                "missing corner structure"
            );
            return t.vertical_scan(ctx, meta, r, |p| p.y >= q, out);
        };
        // Both routes' page counts are exact functions of directory
        // information — the corner query from its per-page tops, the
        // filtered horizontal scan from `hkeys` — so take whichever is
        // cheaper for this `q`. (The corner directory rides in this
        // metablock's control block, which the operation already holds.)
        let h_cost = meta.hkeys.iter().take_while(|&&k| k >= r.bottom()).count();
        let route = corner.route(q);
        if h_cost <= corner.planned_cost(q, &route) {
            t.horizontal_scan_down(ctx, meta, 0, r, |p| p.x <= q, out);
        } else {
            let host = (SPACE_META, mb as u64);
            corner.query_pinned(&t.store, ctx, host, q, &route, out);
        }
    }

    /// The children left of the path child hold only `x ≤ q`: the
    /// straddling ones go through the `TS` protocol (one is examined from
    /// the packed summary; with snapshots ablated, E13, each is), the fully
    /// inside ones are reported whole, and the path child is searched.
    fn process_children(
        t: &MetablockTree,
        ctx: &mut ReadCtx,
        mb: MbId,
        meta: &MetaBlock,
        r: Rect,
        out: &mut Vec<Point>,
    ) {
        let children = &meta.children;
        // Path child: the first whose slab extends beyond (q, MAX).
        let path_idx = children.partition_point(|c| c.slab_hi <= r.right());
        let kids = t.classify_children(ctx, children, 0..path_idx, r, out);
        match kids.partial.split_last() {
            Some((&cr, covered)) if !covered.is_empty() && t.shape.options.ts_shortcut => {
                // TS(children[cr]) covers every straddling sibling left of
                // it; cr itself is examined after.
                t.snapshot_route(ctx, (mb, meta), cr, covered, r, out);
                t.examine_child(ctx, meta, cr, r, out);
            }
            _ => {
                for &i in &kids.partial {
                    t.examine_child(ctx, meta, i, r, out);
                }
            }
        }
        for &i in &kids.full {
            t.report_all(ctx, children[i].mb, r, out);
        }
        ctx.kids = kids;
        if let Some(path) = children.get(path_idx).filter(|c| child_live(c, r)) {
            t.process_path(ctx, path.mb, r, out);
        }
    }
}

impl MetablockTree {
    /// Report every point with `x ≤ q ≤ y` (diagonal-corner query at `q`).
    pub fn query(&self, q: i64) -> Vec<Point> {
        let mut out = Vec::new();
        self.query_into(q, &mut out);
        out
    }

    /// As [`MetablockTree::query`], appending into `out`.
    /// `O(log_B n + t/B)` I/Os.
    pub fn query_into(&self, q: i64, out: &mut Vec<Point>) {
        self.query_with(q, |p| *p, out);
    }

    /// As [`MetablockTree::query_into`], appending `project` of each answer:
    /// an answer is written to `out` once, in the shape the caller wants
    /// (the interval index asks for ids or intervals), never as a point
    /// first.
    pub fn query_with<T>(&self, q: i64, project: impl Fn(&Point) -> T, out: &mut Vec<T>) {
        self.search_with(q, project, out);
    }

    // ---- one-dimensional x-range reporting -------------------------------

    /// Report every stored point with `x1 ≤ x ≤ x2`, in `O(log_B n + t/B)`
    /// I/Os.
    ///
    /// The slab decomposition already orders the tree by x, so the
    /// metablock tree doubles as a one-dimensional index on left endpoints:
    /// at most two boundary slabs per level are descended (≤ 2 partly-useful
    /// vertical blocks each, located via the cached page-boundary keys),
    /// and every slab strictly inside the range is reported wholesale.
    /// This is what lets the interval index answer the left-endpoint range
    /// of an intersection query without a second copy of the data in a
    /// B+-tree.
    pub fn x_range(&self, x1: i64, x2: i64) -> Vec<Point> {
        let mut out = Vec::new();
        self.x_range_into(x1, x2, &mut out);
        out
    }

    /// As [`MetablockTree::x_range`], appending into `out`.
    pub fn x_range_into(&self, x1: i64, x2: i64, out: &mut Vec<Point>) {
        self.x_range_with(x1, x2, |p| *p, out);
    }

    /// As [`MetablockTree::x_range_into`], appending `project` of each
    /// answer (see [`MetablockTree::query_with`]).
    pub fn x_range_with<T>(
        &self,
        x1: i64,
        x2: i64,
        project: impl Fn(&Point) -> T,
        out: &mut Vec<T>,
    ) {
        let mut ctx = self.read_ctx();
        let mut answers = Vec::new();
        if x1 <= x2 {
            let r = Rect {
                x1,
                x2,
                y0: i64::MIN,
            };
            if let Some(root) = self.root {
                self.x_range_rec(&mut ctx, root, r, &mut answers);
            }
            self.scan_delta_with(&mut ctx, |p| r.contains(p), &mut answers);
        }
        ctx.emit_live(&answers, project, out);
    }

    /// Process a metablock on an x-range boundary path: its buffers and
    /// the mains inside the range, then the ≤ 2 boundary children
    /// recursively and the middles (slab ⊆ range) wholesale.
    fn x_range_rec(&self, ctx: &mut ReadCtx, mb: MbId, r: Rect, out: &mut Vec<Point>) {
        let meta = self.ctx_meta(ctx, mb);
        self.scan_update_pages(ctx, &meta.update, r, out);
        mirror_tombs(ctx, &meta.tomb_buf, r);
        self.vertical_scan(ctx, meta, r, |_| true, out);
        let children = &meta.children;
        let (a1k, a2k) = (r.left(), r.right());
        let i1 = children.partition_point(|c| c.slab_hi <= a1k);
        let i2 = children.partition_point(|c| c.slab_hi <= a2k);
        for c in children.iter().take(i2 + 1).skip(i1) {
            if c.slab_lo > a2k {
                break;
            }
            if c.slab_lo >= a1k && c.slab_hi <= a2k {
                self.x_report_all(ctx, c.mb, out);
            } else {
                self.x_range_rec(ctx, c.mb, r, out);
            }
        }
    }

    /// Report a subtree whose slab lies entirely inside the x-range: every
    /// main and buffered point, output-paying I/Os only.
    fn x_report_all(&self, ctx: &mut ReadCtx, mb: MbId, out: &mut Vec<Point>) {
        let meta = self.ctx_meta(ctx, mb);
        for (i, &pg) in meta.horizontal.iter().enumerate() {
            if meta.h_live[i] == 0 {
                continue; // fully-dead page, shadowed by scanned tombstones
            }
            out.extend_from_slice(self.ctx_read(ctx, pg));
        }
        for &pg in meta.update.iter() {
            out.extend_from_slice(self.ctx_read(ctx, pg));
        }
        ctx.del.extend(meta.tomb_buf.iter().map(|t| t.id));
        for c in &meta.children {
            self.x_report_all(ctx, c.mb, out);
        }
    }
}
