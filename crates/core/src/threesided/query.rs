//! The 3-sided search (Lemma 4.3, Fig. 21), pinned and packed.
//!
//! Report every point with `x1 ≤ x ≤ x2 ∧ y ≥ y0`. The search descends the
//! (at most two) slabs containing the query's vertical sides. A visited
//! metablock that straddles `y0` is answered by its own PST and is terminal
//! (its subtree is strictly below, by the routing invariant). A metablock
//! entirely above `y0` reports its mains inside `[x1, x2]` from the vertical
//! blocking, recurses into its boundary children, and deals with the
//! *middle* children (slabs fully inside the x-range) by class:
//!
//! * fully-above middles are reported wholesale (Type III);
//! * straddling middles are resolved by a sibling snapshot — `TSR` of the
//!   child left of the middles when the query opens to the right of the
//!   slab, `TSL` mirrored — with the same certificate/crossing dichotomy as
//!   the diagonal tree; at the unique *fork* node (both vertical sides in
//!   different children, the paper's case (4)) the parent's **children PST**
//!   answers for all of them at once, which is where the one `O(log2 B)`
//!   term of Theorem 4.7 is spent.
//!
//! PR 3's read-path rework applies exactly as in `crate::diag::query`:
//! every read is billed once per residency through the operation's
//! [`ReadCtx`] (shared by a whole [`ThreeSidedTree::query_batch`], which
//! also pins PST node pages); the sibling-snapshot runs are mirrored in the
//! parent's packed entries so the route never loads the anchor child's
//! control block; straddling middles are examined from the packed
//! horizontal-prefix mirrors; and the `vkeys`/`hkeys` boundary keys stop
//! scans before a page with no answers.

use ccix_extmem::Point;

use super::{ThreeSided, ThreeSidedTree};
use crate::bbox::Key;
use crate::tree::{reset_slots, retain_from, ChildEntry, MbId, ReadCtx};

type MetaBlock = crate::tree::MetaBlock<ThreeSided>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChildClass {
    Full,
    Partial,
    /// Empty mains (a delete flood cancelled them all) over a possibly
    /// live subtree: takes a full recursive search (see the diagonal
    /// tree's `ChildClass::Recurse`).
    Recurse,
    Dead,
}

fn classify(c: &ChildEntry, y0: i64) -> ChildClass {
    let qk: Key = (y0, 0);
    let mains_full = c.main_bbox.is_some_and(|b| b.ylo >= qk);
    let mains_some = c.main_bbox.is_some_and(|b| b.yhi >= qk);
    let upd_some = c.upd_ymax.is_some_and(|y| y >= qk);
    let sub_some = c.sub_yhi.is_some_and(|y| y >= qk);
    debug_assert!(
        !sub_some || mains_full || c.main_bbox.is_none(),
        "routing invariant violated"
    );
    if mains_full && c.main_bbox.is_some() {
        ChildClass::Full
    } else if c.main_bbox.is_none() && sub_some {
        ChildClass::Recurse
    } else if mains_some || upd_some {
        ChildClass::Partial
    } else {
        ChildClass::Dead
    }
}

fn child_live(c: &ChildEntry, y0: i64) -> bool {
    let qk: Key = (y0, 0);
    c.main_bbox.is_some_and(|b| b.yhi >= qk)
        || c.upd_ymax.is_some_and(|y| y >= qk)
        || c.sub_yhi.is_some_and(|y| y >= qk)
}

/// Which sibling snapshot resolves the straddling middles.
#[derive(Clone, Copy)]
enum SnapshotSide {
    /// `TSR` of the child left of the middles.
    Right,
    /// `TSL` of the child right of the middles.
    Left,
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
        let mut ctx = self.read_ctx();
        let mut answers = Vec::new();
        self.query_ctx(&mut ctx, x1, x2, y0, &mut answers);
        ctx.emit_live(&answers, project, out);
    }

    /// Answer a batch of 3-sided queries as one pinned operation: queries
    /// are processed in sorted order over a shared read context, so control
    /// blocks, PST nodes and data pages of the shared descent prefix are
    /// billed once per residency instead of once per query. Results are in
    /// input order.
    pub fn query_batch(&self, queries: &[(i64, i64, i64)]) -> Vec<Vec<Point>> {
        let mut outs = Vec::new();
        self.query_batch_into(queries, &mut outs);
        outs
    }

    /// As [`ThreeSidedTree::query_batch`], reusing `outs` for the
    /// per-query result buffers (resized to `queries.len()`, each slot
    /// cleared) — the canonical `_into` shape of the batch surface, see
    /// `docs/architecture.md` § Batched operations.
    pub fn query_batch_into(&self, queries: &[(i64, i64, i64)], outs: &mut Vec<Vec<Point>>) {
        self.query_batch_with(queries, |p| *p, outs);
    }

    /// As [`ThreeSidedTree::query_batch_into`], filling each slot with
    /// `project` of the query's answers (see
    /// [`crate::MetablockTree::query_batch_with`]: one scratch buffer per
    /// batch, each answer written out once).
    pub fn query_batch_with<T>(
        &self,
        queries: &[(i64, i64, i64)],
        project: impl Fn(&Point) -> T,
        outs: &mut Vec<Vec<T>>,
    ) {
        reset_slots(outs, queries.len());
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_by_key(|&i| queries[i]);
        let mut ctx = self.read_ctx();
        let mut answers = Vec::new();
        for &i in &order {
            let (x1, x2, y0) = queries[i];
            answers.clear();
            self.query_ctx(&mut ctx, x1, x2, y0, &mut answers);
            ctx.emit_live(&answers, &project, &mut outs[i]);
        }
    }

    /// One query within an existing read context.
    pub(crate) fn query_ctx(
        &self,
        ctx: &mut ReadCtx,
        x1: i64,
        x2: i64,
        y0: i64,
        out: &mut Vec<Point>,
    ) {
        if x1 > x2 {
            return;
        }
        if let Some(root) = self.root {
            self.process(ctx, root, x1, x2, y0, out);
        }
        // While a background shrink job is in progress, the query consults
        // both sides: the (frozen or rebuilt) tree above, and the job's
        // delta of diverted updates and tombstones here.
        self.scan_delta_with(ctx, |p| p.x >= x1 && p.x <= x2 && p.y >= y0, out);
    }

    /// Process a metablock on a boundary path.
    fn process(
        &self,
        ctx: &mut ReadCtx,
        mb: MbId,
        x1: i64,
        x2: i64,
        y0: i64,
        out: &mut Vec<Point>,
    ) {
        let meta = self.ctx_meta(ctx, mb);
        self.scan_update_pages(ctx, &meta.update, x1, x2, y0, out);
        mirror_tombs(ctx, &meta.tomb_buf, x1, x2, y0);
        let (Some(bbox), Some(ylo)) = (meta.main_bbox, meta.y_lo_main) else {
            // Empty mains (fresh root or delete-flood degenerate): nothing
            // of its own to report, but live descendants stay reachable.
            if !meta.is_leaf() {
                self.process_children(ctx, mb, meta, x1, x2, y0, out);
            }
            return;
        };
        let qk: Key = (y0, 0);
        if qk > bbox.yhi {
            return; // mains and (by routing invariant) subtree below y0
        }
        if qk > ylo {
            // Straddling node: its own PST answers; subtree is below y0.
            if let Some(pst) = &meta.org {
                pst.query_pinned(&mut ctx.pin, Self::pst_space(mb, 0), x1, x2, y0, out);
            } else {
                debug_assert!(meta.n_main <= self.geo.b, "missing metablock PST");
                for &pg in meta.vertical.iter() {
                    for p in self.ctx_read(ctx, pg) {
                        if p.x >= x1 && p.x <= x2 && p.y >= y0 {
                            out.push(*p);
                        }
                    }
                }
            }
            return;
        }

        // Entirely above y0: mains inside [x1, x2] via the vertical blocking
        // (page boundaries located from the control info, ≤ 2 slack blocks).
        self.vertical_scan_range(ctx, meta, x1, x2, out);
        if meta.is_leaf() {
            return;
        }
        self.process_children(ctx, mb, meta, x1, x2, y0, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn process_children(
        &self,
        ctx: &mut ReadCtx,
        mb: MbId,
        meta: &MetaBlock,
        x1: i64,
        x2: i64,
        y0: i64,
        out: &mut Vec<Point>,
    ) {
        let children = &meta.children;
        let a1k: Key = (x1, u64::MIN);
        let a2k: Key = (x2, u64::MAX);
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
            if c.slab_lo <= a2k && child_live(c, y0) {
                self.process(ctx, c.mb, x1, x2, y0, out);
            }
            return;
        }

        // Boundary children: i1 if x1 cuts into it, i2 if it exists and x2
        // cuts into it. Everything between is a middle (slab ⊆ [x1, x2]).
        let left_boundary = children[i1].slab_lo < a1k;
        let right_boundary = i2 < len && children[i2].slab_lo <= a2k;
        let m_start = if left_boundary { i1 + 1 } else { i1 };
        let m_end = i2; // exclusive
        if left_boundary && child_live(&children[i1], y0) {
            self.process(ctx, children[i1].mb, x1, x2, y0, out);
        }
        if right_boundary && child_live(&children[i2], y0) {
            self.process(ctx, children[i2].mb, x1, x2, y0, out);
        }
        if m_start >= m_end {
            return;
        }

        // Class lists borrowed from the context for this level (see the
        // diagonal tree's `process_children`).
        let mut kids = std::mem::take(&mut ctx.kids);
        kids.full.clear();
        kids.partial.clear();
        for (i, c) in children[m_start..m_end].iter().enumerate() {
            match classify(c, y0) {
                ChildClass::Full => kids.full.push(m_start + i),
                ChildClass::Partial => kids.partial.push(m_start + i),
                // Delete-flood degenerate: full recursive search, outside
                // the snapshot protocol (no snapshot covers its depths).
                ChildClass::Recurse => self.process(ctx, c.mb, x1, x2, y0, out),
                ChildClass::Dead => {}
            }
        }
        let (full, partial) = (&kids.full, &kids.partial);
        for &i in full {
            self.report_all(ctx, children[i].mb, x1, x2, y0, out);
        }
        match partial.len() {
            0 => {}
            1 => {
                // One straddling middle: examine it directly.
                self.examine_child(ctx, meta, partial[0], x1, x2, y0, out);
            }
            _ => {
                // Choose the sibling-snapshot that covers the whole middle
                // range, if one exists; otherwise (fork / fully covered
                // node) fall back to the children PST.
                if m_end == len && m_start > 0 {
                    let side = (m_start - 1, SnapshotSide::Right);
                    self.snapshot_route(ctx, mb, meta, side, partial, x1, x2, y0, out);
                } else if m_start == 0 && m_end < len {
                    let side = (m_end, SnapshotSide::Left);
                    self.snapshot_route(ctx, mb, meta, side, partial, x1, x2, y0, out);
                } else {
                    self.children_pst_route(ctx, mb, meta, partial, x1, x2, y0, out);
                }
            }
        }
        ctx.kids = kids;
    }

    /// Resolve straddling middles from a sibling snapshot (`TSR` of the
    /// child left of them, or `TSL` of the child right of them). With
    /// packing on, the snapshot's run rides in the parent's entry; the
    /// anchor's control block is never touched.
    #[allow(clippy::too_many_arguments)]
    fn snapshot_route(
        &self,
        ctx: &mut ReadCtx,
        mb: MbId,
        parent: &MetaBlock,
        (anchor_idx, side): (usize, SnapshotSide),
        partial: &[usize],
        x1: i64,
        x2: i64,
        y0: i64,
        out: &mut Vec<Point>,
    ) {
        let children = &parent.children;
        let anchor = &children[anchor_idx];
        let (ts_pages, ts_truncated) = if self.tuning.pack_h_pages > 0 {
            let packed = &anchor.packed;
            match side {
                SnapshotSide::Right => (&packed.tsr_pages, packed.tsr_truncated),
                SnapshotSide::Left => (&packed.ts_pages, packed.ts_truncated),
            }
        } else {
            let anchor_meta = self.ctx_meta(ctx, anchor.mb);
            let info = match side {
                SnapshotSide::Right => anchor_meta.sib.tsr.as_ref(),
                SnapshotSide::Left => anchor_meta.sib.tsl.as_ref(),
            };
            let info = info.expect("anchor child carries the sibling snapshot");
            (&info.pages, info.truncated)
        };
        // Scanned straight onto `out`; the case decided below keeps the
        // straddling middles' points or takes them all back.
        let scanned_from = out.len();
        let mut crossed = false;
        'ts: for &pg in ts_pages.iter() {
            for p in self.ctx_read(ctx, pg) {
                if p.ykey() < (y0, 0) {
                    crossed = true;
                    break 'ts;
                }
                out.push(*p);
            }
        }
        if crossed || !ts_truncated {
            // Crossing case: the snapshot holds every middle-sibling point
            // with y ≥ y0 as of the last TS reorganisation; TD holds the
            // rest. Restrict both to the straddling middles' slabs.
            let in_partial = |p: &Point| {
                let k = p.xkey();
                partial.iter().any(|&i| children[i].slab_contains(k))
            };
            retain_from(out, scanned_from, in_partial);
            self.query_td(ctx, mb, parent, x1, x2, y0, &in_partial, out);
        } else {
            // Certificate: at least B² answers exist among the middles;
            // examining each individually is paid for by the output.
            out.truncate(scanned_from);
            for &i in partial {
                self.examine_child(ctx, parent, i, x1, x2, y0, out);
            }
        }
    }

    /// Resolve straddling middles at the fork node from the children PST
    /// (the paper's case (4)); the only `O(log2 B)` access of the search.
    #[allow(clippy::too_many_arguments)]
    fn children_pst_route(
        &self,
        ctx: &mut ReadCtx,
        mb: MbId,
        parent: &MetaBlock,
        partial: &[usize],
        x1: i64,
        x2: i64,
        y0: i64,
        out: &mut Vec<Point>,
    ) {
        let children = &parent.children;
        let in_partial = |p: &Point| {
            let k = p.xkey();
            partial.iter().any(|&i| children[i].slab_contains(k))
        };
        if let Some(cpst) = &parent.sib.children_pst {
            let from = out.len();
            cpst.query_pinned(&mut ctx.pin, Self::pst_space(mb, 1), x1, x2, y0, out);
            retain_from(out, from, in_partial);
        } else {
            // No snapshot yet (fresh interior node): examine individually.
            for &i in partial {
                self.examine_child(ctx, parent, i, x1, x2, y0, out);
            }
            return;
        }
        self.query_td(ctx, mb, parent, x1, x2, y0, &in_partial, out);
    }

    /// Query the TD structure, keeping points that satisfy `filter`.
    #[allow(clippy::too_many_arguments)]
    fn query_td(
        &self,
        ctx: &mut ReadCtx,
        mb: MbId,
        meta: &MetaBlock,
        x1: i64,
        x2: i64,
        y0: i64,
        filter: &dyn Fn(&Point) -> bool,
        out: &mut Vec<Point>,
    ) {
        let Some(td) = &meta.td else { return };
        if let Some(pst) = &td.org {
            let from = out.len();
            pst.query_pinned(&mut ctx.pin, Self::pst_space(mb, 2), x1, x2, y0, out);
            retain_from(out, from, filter);
        }
        for &pg in td.staged.iter() {
            for p in self.ctx_read(ctx, pg) {
                if p.x >= x1 && p.x <= x2 && p.y >= y0 && filter(p) {
                    out.push(*p);
                }
            }
        }
        // The TD's delete side: ids deleted since the last TS
        // reorganisation, subtracted from this query's answer (a
        // snapshot-answered route may have reported their stale copies).
        // The tombstones pass through the tail of `out` only to leave
        // their ids behind.
        if let Some(del) = &td.del_org {
            let from = out.len();
            del.query_pinned(&mut ctx.pin, Self::pst_space(mb, 3), x1, x2, y0, out);
            ctx.del.extend(out.drain(from..).map(|t| t.id));
        }
        mirror_tombs(ctx, &td.del_staged_buf, x1, x2, y0);
    }

    /// Report a fully-covered, fully-above subtree (Type III).
    fn report_all(
        &self,
        ctx: &mut ReadCtx,
        mb: MbId,
        x1: i64,
        x2: i64,
        y0: i64,
        out: &mut Vec<Point>,
    ) {
        let meta = self.ctx_meta(ctx, mb);
        self.scan_update_pages(ctx, &meta.update, x1, x2, y0, out);
        mirror_tombs(ctx, &meta.tomb_buf, x1, x2, y0);
        for (i, &pg) in meta.horizontal.iter().enumerate() {
            if meta.h_live[i] == 0 {
                continue; // every point shadowed by a pending tombstone
            }
            for p in self.ctx_read(ctx, pg) {
                debug_assert!(p.y >= y0 && p.x >= x1 && p.x <= x2);
                out.push(*p);
            }
        }
        for i in 0..meta.children.len() {
            match classify(&meta.children[i], y0) {
                ChildClass::Full => self.report_all(ctx, meta.children[i].mb, x1, x2, y0, out),
                ChildClass::Partial => self.examine_child(ctx, meta, i, x1, x2, y0, out),
                ChildClass::Recurse => self.process(ctx, meta.children[i].mb, x1, x2, y0, out),
                ChildClass::Dead => {}
            }
        }
    }

    /// Examine child `idx` of `parent` — a straddling metablock whose slab
    /// is fully inside `[x1, x2]`; its subtree is below `y0` by the routing
    /// invariant. With packing on, the examination runs off the parent's
    /// control information (update mirror + horizontal-prefix mirror),
    /// touching the child's control block only when the scan outgrows the
    /// mirrored prefix (amply output-backed).
    #[allow(clippy::too_many_arguments)]
    fn examine_child(
        &self,
        ctx: &mut ReadCtx,
        parent: &MetaBlock,
        idx: usize,
        x1: i64,
        x2: i64,
        y0: i64,
        out: &mut Vec<Point>,
    ) {
        let entry = &parent.children[idx];
        if self.tuning.pack_h_pages == 0 {
            let meta = self.ctx_meta(ctx, entry.mb);
            self.scan_update_pages(ctx, &meta.update, x1, x2, y0, out);
            mirror_tombs(ctx, &meta.tomb_buf, x1, x2, y0);
            if meta.main_bbox.is_some_and(|b| b.yhi >= (y0, 0)) {
                self.horizontal_scan_down(ctx, meta, x1, x2, y0, out);
            }
            debug_assert_no_live_children(meta, y0);
            return;
        }
        let qk: Key = (y0, 0);
        if !entry.packed.tomb_pages.is_empty() {
            // The child has pending deletes: one read of its control block
            // fetches the tombstone mirror — never more I/Os than the
            // page-by-page scan it replaces.
            let child = self.ctx_meta(ctx, entry.mb);
            mirror_tombs(ctx, &child.tomb_buf, x1, x2, y0);
        }
        if entry.upd_ymax.is_some_and(|y| y >= qk) {
            self.scan_update_pages(ctx, &entry.packed.upd_pages, x1, x2, y0, out);
        }
        if entry.main_bbox.is_some_and(|b| b.yhi >= qk) {
            let mut crossed = false;
            for (i, &pg) in entry.packed.h_pages.iter().enumerate() {
                if entry.packed.h_tops[i] < qk {
                    crossed = true;
                    break;
                }
                if entry.packed.h_live.get(i) == Some(&0) {
                    continue; // fully-dead page: skip without reading
                }
                for p in self.ctx_read(ctx, pg) {
                    if p.ykey() < qk {
                        crossed = true;
                        break;
                    }
                    debug_assert!(p.x >= x1 && p.x <= x2);
                    out.push(*p);
                }
                if crossed {
                    break;
                }
            }
            if !crossed && entry.packed.h_more {
                let meta = self.ctx_meta(ctx, entry.mb);
                let skip = entry.packed.h_pages.len();
                for (i, &pg) in meta.horizontal.iter().enumerate().skip(skip) {
                    if meta.hkeys[i] < qk {
                        break;
                    }
                    if meta.h_live[i] == 0 {
                        continue; // fully-dead page: skip without reading
                    }
                    let mut done = false;
                    for p in self.ctx_read(ctx, pg) {
                        if p.ykey() < qk {
                            done = true;
                            break;
                        }
                        debug_assert!(p.x >= x1 && p.x <= x2);
                        out.push(*p);
                    }
                    if done {
                        break;
                    }
                }
                debug_assert_no_live_children(meta, y0);
            }
        }
    }

    /// Top-down horizontal scan reporting points with `y ≥ y0`; the cached
    /// page-top keys skip a crossing page with no answers.
    fn horizontal_scan_down(
        &self,
        ctx: &mut ReadCtx,
        meta: &MetaBlock,
        x1: i64,
        x2: i64,
        y0: i64,
        out: &mut Vec<Point>,
    ) {
        for (i, &pg) in meta.horizontal.iter().enumerate() {
            if meta.hkeys[i] < (y0, 0) {
                break;
            }
            if meta.h_live[i] == 0 {
                continue; // fully-dead page: skip without reading
            }
            let mut crossed = false;
            for p in self.ctx_read(ctx, pg) {
                if p.ykey() < (y0, 0) {
                    crossed = true;
                    break;
                }
                debug_assert!(p.x >= x1 && p.x <= x2);
                out.push(*p);
            }
            if crossed {
                break;
            }
        }
        let _ = (x1, x2);
    }

    fn scan_update_pages(
        &self,
        ctx: &mut ReadCtx,
        pages: &[ccix_extmem::PageId],
        x1: i64,
        x2: i64,
        y0: i64,
        out: &mut Vec<Point>,
    ) {
        for &pg in pages {
            for p in self.ctx_read(ctx, pg) {
                if p.x >= x1 && p.x <= x2 && p.y >= y0 {
                    out.push(*p);
                }
            }
        }
    }

    /// Report mains with `x ∈ [x1, x2]` from the vertical blocking, starting
    /// at the page located via the cached page-boundary keys. Callers
    /// guarantee all mains have `y ≥ y0`. At most 2 slack blocks.
    fn vertical_scan_range(
        &self,
        ctx: &mut ReadCtx,
        meta: &MetaBlock,
        x1: i64,
        x2: i64,
        out: &mut Vec<Point>,
    ) {
        let a1k: Key = (x1, u64::MIN);
        let a2k: Key = (x2, u64::MAX);
        // Last page whose first key is ≤ a1k could still contain x ≥ x1.
        let start = meta.vkeys.partition_point(|&k| k <= a1k).saturating_sub(1);
        for (i, &pg) in meta.vertical.iter().enumerate().skip(start) {
            if meta.vkeys[i] > a2k {
                break;
            }
            let mut beyond = false;
            for p in self.ctx_read(ctx, pg) {
                let k = p.xkey();
                if k > a2k {
                    beyond = true;
                    break;
                }
                if k >= a1k {
                    out.push(*p);
                }
            }
            if beyond {
                break;
            }
        }
    }
}

/// Record the ids of pending tombstones the 3-sided predicate selects,
/// straight from a control-block mirror — zero I/Os (see the diagonal
/// tree's `mirror_tombs` and `MetaBlock::tomb_buf`).
fn mirror_tombs(ctx: &mut ReadCtx, tombs: &[Point], x1: i64, x2: i64, y0: i64) {
    ctx.del.extend(
        tombs
            .iter()
            .filter(|t| t.x >= x1 && t.x <= x2 && t.y >= y0)
            .map(|t| t.id),
    );
}

/// Debug check: a partial metablock's children are all dead (routing
/// invariant).
fn debug_assert_no_live_children(meta: &MetaBlock, y0: i64) {
    debug_assert!(
        meta.children
            .iter()
            .all(|c| classify(c, y0) == ChildClass::Dead),
        "partial metablock with a live child"
    );
    let _ = (meta, y0);
}
