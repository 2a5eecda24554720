//! Diagonal-corner search (Theorem 3.2, Figs. 15–17), pinned and packed.
//!
//! A diagonal-corner query anchored at `(q, q)` reports every point with
//! `x ≤ q ≤ y`. Walking from the root along the slab containing `q`, each
//! metablock the search touches falls into one of the four types of Fig. 16:
//!
//! * **Type I** — the vertical side `x = q` crosses it and all its mains
//!   have `y ≥ q`: scan its vertical blocking left-to-right up to `q` (at
//!   most one partly-useful block), then deal with its children.
//! * **Type II** — it contains the corner: answer with its corner structure
//!   (Lemma 3.1). Its descendants are strictly below the corner (routing
//!   invariant), so recursion stops.
//! * **Type III** — entirely inside the query: report everything via the
//!   horizontal blocking and recurse into every child.
//! * **Type IV** — crosses the bottom `y = q` with all x in range: scan its
//!   horizontal blocking top-down until `y < q` (at most one wasted block);
//!   its subtree is entirely below the query.
//!
//! Up to `B` children of a Type I node can be Type IV; examining each would
//! break the `O(t/B)` bound. The `TS` snapshot of the rightmost such child
//! decides in output-paying I/Os whether the left siblings are worth
//! individual visits (the "certificate" case, Fig. 17a — at least `B²`
//! answers exist) or can be answered straight from the snapshot plus the
//! parent's `TD` structure (the "crossing" case, Fig. 17b). Update blocks
//! are scanned wherever a metablock is examined (Lemma 3.5).
//!
//! **PR 3's read-path rework**, all billed through a [`ReadCtx`] so a
//! distinct block is paid once per operation:
//!
//! * every read goes through the per-operation pin, so a control or data
//!   page the operation already holds is never billed twice — and a whole
//!   *batch* of queries ([`MetablockTree::query_batch`]) shares one pin, so
//!   sorted query floods pay for the shared descent prefix once; with
//!   [`crate::Tuning::resident_root`], the root control block is
//!   memory-resident across operations like any storage engine's;
//! * straddling children are examined from the parent's **packed control
//!   blocks**: the entry mirrors the child's update-buffer run, TS-snapshot
//!   run and the top of its horizontal blocking, so a Type IV child is
//!   answered without touching its own control block (which is read only
//!   when the scan outgrows the mirrored prefix — amply output-backed);
//! * the `vkeys`/`hkeys` boundary keys and the corner structure's per-page
//!   tops skip crossing pages that cannot contain an answer, and the
//!   terminal Type II node picks the cheaper of the corner query and a
//!   filtered horizontal scan from exact directory-computed page counts.

use ccix_extmem::Point;

use super::{Diag, MetablockTree};
use crate::bbox::Key;
use crate::tree::{reset_slots, retain_from, ChildEntry, MbId, ReadCtx, SPACE_META};

type MetaBlock = crate::tree::MetaBlock<Diag>;

/// How a child relates to the query bottom `y = q` (Fig. 16), judged purely
/// from the parent's cached control information.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChildClass {
    /// Mains entirely inside the query (Type III).
    Full,
    /// Mains straddle `y = q` (Type IV) or only update points may qualify.
    Partial,
    /// Empty mains (a delete flood cancelled them all) over a possibly
    /// live subtree: the routing invariant's curtain is gone, so the child
    /// takes a full recursive search instead of a Fig. 16 class. Only
    /// reachable after deletes; the occupancy shrink rebuilds it away.
    Recurse,
    /// Nothing in the child's metablock or subtree can qualify.
    Dead,
}

fn classify(c: &ChildEntry, q: i64) -> ChildClass {
    let qk: Key = (q, 0);
    let mains_full = c.main_bbox.is_some_and(|b| b.ylo >= qk);
    let mains_some = c.main_bbox.is_some_and(|b| b.yhi >= qk);
    let upd_some = c.upd_ymax.is_some_and(|y| y >= qk);
    let sub_some = c.sub_yhi.is_some_and(|y| y >= qk);
    // Routing invariant: sub_yhi < child's y_lo_main, so a live subtree
    // implies fully-live mains; the empty-mains degenerate state (deletes
    // cancelled every main) is the one exception and recurses instead.
    debug_assert!(
        !sub_some || mains_full || c.main_bbox.is_none(),
        "routing invariant violated: subtree above a partially-live metablock"
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
        let mut ctx = self.read_ctx();
        let mut answers = Vec::new();
        self.query_ctx(&mut ctx, q, &mut answers);
        ctx.emit_live(&answers, project, out);
    }

    /// Answer a whole batch of diagonal-corner queries as **one pinned
    /// operation**: the queries are processed in sorted order over a single
    /// read context, so every page of the shared descent prefix — control
    /// blocks, vertical-scan prefixes, TS snapshots, corner pages — is
    /// billed once per residency instead of once per query. Results are
    /// returned in input order.
    ///
    /// Cost: `O(log_B n + Σtᵢ/B)` I/Os for a flood of nearby query points
    /// (they share the whole path); fully scattered batches degrade
    /// gracefully to per-query cost.
    pub fn query_batch(&self, qs: &[i64]) -> Vec<Vec<Point>> {
        let mut outs = Vec::new();
        self.query_batch_into(qs, &mut outs);
        outs
    }

    /// As [`MetablockTree::query_batch`], reusing `outs` for the per-query
    /// result buffers: `outs` is resized to `qs.len()` and each slot is
    /// cleared before its answer is appended, so a steady-state caller
    /// (e.g. the serving layer answering floods of stabbing batches)
    /// allocates nothing. This is the canonical `_into` shape of the batch
    /// surface — see `docs/architecture.md` § Batched operations.
    pub fn query_batch_into(&self, qs: &[i64], outs: &mut Vec<Vec<Point>>) {
        self.query_batch_with(qs, |p| *p, outs);
    }

    /// As [`MetablockTree::query_batch_into`], filling each slot with
    /// `project` of the query's answers. Each query runs into one scratch
    /// buffer the whole batch reuses, and its answers leave that buffer
    /// once — live ones only, already projected — for a slot reserved to
    /// fit them.
    pub fn query_batch_with<T>(
        &self,
        qs: &[i64],
        project: impl Fn(&Point) -> T,
        outs: &mut Vec<Vec<T>>,
    ) {
        reset_slots(outs, qs.len());
        let mut order: Vec<usize> = (0..qs.len()).collect();
        order.sort_by_key(|&i| qs[i]);
        let mut ctx = self.read_ctx();
        let mut answers = Vec::new();
        for &i in &order {
            answers.clear();
            self.query_ctx(&mut ctx, qs[i], &mut answers);
            ctx.emit_live(&answers, &project, &mut outs[i]);
        }
    }

    /// One query within an existing read context.
    pub(crate) fn query_ctx(&self, ctx: &mut ReadCtx, q: i64, out: &mut Vec<Point>) {
        if let Some(root) = self.root {
            self.process_path(ctx, root, q, out);
        }
        // While a background shrink job is in progress, the query consults
        // both sides: the (frozen or rebuilt) tree above, and the job's
        // delta of diverted updates and tombstones here.
        self.scan_delta_with(ctx, |p| p.x <= q && p.y >= q, out);
    }

    /// Process a metablock on the search path (the slab containing `q`).
    fn process_path(&self, ctx: &mut ReadCtx, mb: MbId, q: i64, out: &mut Vec<Point>) {
        let meta = self.ctx_meta(ctx, mb);
        self.scan_update_pages(ctx, &meta.update, q, out);
        mirror_tombs(ctx, &meta.tomb_buf, q);
        let (Some(bbox), Some(ylo)) = (meta.main_bbox, meta.y_lo_main) else {
            // Empty mains: a fresh root, or a metablock a delete flood
            // emptied. Nothing of its own to report beyond the buffers,
            // but live descendants stay reachable.
            if !meta.is_leaf() {
                self.process_children(ctx, mb, meta, q, out);
            }
            return;
        };
        let qk: Key = (q, 0);
        if qk > bbox.yhi {
            // Everything (mains, and by the routing invariant the whole
            // subtree) lies below the query.
            return;
        }
        if qk <= ylo {
            // Type I: all mains are inside in y; take those with x ≤ q.
            self.vertical_scan_leq(ctx, meta, q, out);
            if !meta.is_leaf() {
                self.process_children(ctx, mb, meta, q, out);
            }
        } else {
            // The corner falls inside the metablock's y-range (Type II), or
            // to the right of all its mains. Descendants are strictly below
            // `ylo < (q,0)` by the routing invariant: recursion ends here.
            if bbox.all_x_at_most(q) {
                self.horizontal_scan_down(ctx, meta, q, out);
            } else if let Some(corner) = &meta.org {
                // Cost-planned Type II: both routes' page counts are exact
                // functions of directory information — the corner query
                // from its per-page tops, the filtered horizontal scan from
                // `hkeys` — so take whichever is cheaper for this `q`. (The
                // corner directory rides in this metablock's control block,
                // which the operation already holds.)
                let h_cost = meta.hkeys.iter().take_while(|&&k| k >= qk).count();
                let route = corner.route(q);
                if h_cost <= corner.planned_cost(q, &route) {
                    let qx: Key = (q, u64::MAX);
                    'h: for (i, &pg) in meta.horizontal.iter().enumerate() {
                        if meta.hkeys[i] < qk {
                            break;
                        }
                        if meta.h_live[i] == 0 {
                            // Every point on the page is shadowed by a
                            // pending tombstone: skip the read.
                            continue;
                        }
                        for p in self.ctx_read(ctx, pg) {
                            if p.ykey() < qk {
                                break 'h;
                            }
                            if p.xkey() <= qx {
                                out.push(*p);
                            }
                        }
                    }
                } else {
                    let host = (SPACE_META, mb as u64);
                    corner.query_pinned(&self.store, ctx, host, q, &route, out);
                }
            } else {
                // Mains fit in one vertical block, or corner structures are
                // ablated (E13): filtered scan of the vertical blocking up
                // to the query's vertical side.
                debug_assert!(
                    !self.shape.options.corner_structures || meta.n_main <= self.geo.b,
                    "missing corner structure"
                );
                let qx: Key = (q, u64::MAX);
                for (i, &pg) in meta.vertical.iter().enumerate() {
                    if meta.vkeys[i] > qx {
                        break;
                    }
                    let mut crossed = false;
                    for p in self.ctx_read(ctx, pg) {
                        if p.xkey() > qx {
                            crossed = true;
                            break;
                        }
                        if p.y >= q {
                            out.push(*p);
                        }
                    }
                    if crossed {
                        break;
                    }
                }
            }
        }
    }

    /// Handle the children of a Type I metablock (already loaded as `meta`):
    /// left siblings of the path child via the TS/TD protocol, then recurse
    /// into the path child.
    fn process_children(
        &self,
        ctx: &mut ReadCtx,
        mb: MbId,
        meta: &MetaBlock,
        q: i64,
        out: &mut Vec<Point>,
    ) {
        let children = &meta.children;
        let qx: Key = (q, u64::MAX);
        // Path child: the first whose slab extends beyond (q, MAX). All
        // earlier children hold only x ≤ q; all later ones only x > q.
        let path_idx = children.partition_point(|c| c.slab_hi <= qx);

        // The class lists are the context's, borrowed for this level and
        // handed back before the descent: no allocation per level. (The
        // rare nested search of the `Recurse` arm finds the context's slot
        // empty and grows lists of its own.)
        let mut kids = std::mem::take(&mut ctx.kids);
        kids.full.clear();
        kids.partial.clear();
        for (i, c) in children[..path_idx].iter().enumerate() {
            match classify(c, q) {
                ChildClass::Full => kids.full.push(i),
                ChildClass::Partial => kids.partial.push(i),
                // Empty-mains child over a live subtree (delete-flood
                // degenerate): no snapshot or TD covers its depths, so it
                // takes a full recursive search, outside the TS protocol.
                ChildClass::Recurse => self.process_path(ctx, c.mb, q, out),
                ChildClass::Dead => {}
            }
        }
        let (full, partial) = (&kids.full, &kids.partial);

        match partial.len() {
            0 => {}
            1 => {
                // A single straddling child: examine it (from the packed
                // summary when it suffices; ≤ 2 I/Os of slack otherwise,
                // charged to the path — one such node per level).
                self.examine_child(ctx, meta, partial[0], q, out);
            }
            _ if !self.shape.options.ts_shortcut => {
                // Ablated (E13): examine every straddling sibling directly.
                for &i in partial {
                    self.examine_child(ctx, meta, i, q, out);
                }
            }
            _ => {
                let cr = *partial.last().expect("nonempty");
                let covered = &partial[..partial.len() - 1];
                // TS(children[cr]) top-down. With packing on, the snapshot's
                // page run is mirrored in the parent's entry, so no control
                // block of cr is touched; otherwise read cr's meta for it.
                let (ts_pages, ts_truncated) = if self.tuning.pack_h_pages > 0 {
                    let packed = &children[cr].packed;
                    (&packed.ts_pages, packed.ts_truncated)
                } else {
                    let ts = self.ctx_meta(ctx, children[cr].mb).sib.as_ref();
                    let ts = ts.expect("non-first child carries a TS snapshot");
                    (&ts.pages, ts.truncated)
                };
                // The snapshot's points above the query bottom go straight
                // onto `out`; the case decided below keeps the covered ones
                // or takes them all back.
                let scanned_from = out.len();
                let mut crossed = false;
                'ts: for &pg in ts_pages.iter() {
                    for p in self.ctx_read(ctx, pg) {
                        if p.ykey() < (q, 0) {
                            crossed = true;
                            break 'ts;
                        }
                        out.push(*p);
                    }
                }
                if crossed || !ts_truncated {
                    // Crossing case (Fig. 17b): the snapshot contains every
                    // left-sibling point with y ≥ q as of the last TS reorg;
                    // the TD structure holds everything since. Report both,
                    // restricted to the covered children's slabs.
                    let in_covered = |p: &Point| {
                        let k = p.xkey();
                        covered.iter().any(|&i| children[i].slab_contains(k))
                    };
                    retain_from(out, scanned_from, in_covered);
                    self.query_td(ctx, mb, meta, q, &in_covered, out);
                    self.examine_child(ctx, meta, cr, q, out);
                } else {
                    // Certificate case (Fig. 17a): the snapshot proves at
                    // least B² answers exist among the left siblings, so
                    // examining each individually is paid for by the output.
                    out.truncate(scanned_from);
                    for &i in partial {
                        self.examine_child(ctx, meta, i, q, out);
                    }
                }
            }
        }
        for &i in full {
            self.report_all(ctx, children[i].mb, q, out);
        }
        ctx.kids = kids;

        if let Some(path) = children.get(path_idx) {
            // Recurse only if the parent's cache says something can qualify.
            let qk: Key = (q, 0);
            let live = path.main_bbox.is_some_and(|b| b.yhi >= qk)
                || path.upd_ymax.is_some_and(|y| y >= qk)
                || path.sub_yhi.is_some_and(|y| y >= qk);
            if live {
                self.process_path(ctx, path.mb, q, out);
            }
        }
    }

    /// Query the TD structure of `meta` at `q`, keeping points that satisfy
    /// `filter`, and append to `out`. The TD corner's directory rides in
    /// the parent's control block, which the operation already holds.
    ///
    /// The TD's delete side is queried alongside: a snapshot-answered route
    /// reports points as of the last TS reorganisation, so tombstones
    /// younger than the snapshot — exactly what the delete side holds —
    /// must subtract from this query's answer. Matching is by id alone (any
    /// id the delete side reports is a logically deleted point), so no
    /// slab filter applies.
    fn query_td(
        &self,
        ctx: &mut ReadCtx,
        mb: MbId,
        meta: &MetaBlock,
        q: i64,
        filter: &dyn Fn(&Point) -> bool,
        out: &mut Vec<Point>,
    ) {
        let Some(td) = &meta.td else { return };
        let host = (SPACE_META, mb as u64);
        if let Some(corner) = &td.org {
            let from = out.len();
            corner.query_pinned(&self.store, ctx, host, q, &corner.route(q), out);
            retain_from(out, from, filter);
        }
        for &pg in td.staged.iter() {
            for p in self.ctx_read(ctx, pg) {
                if p.x <= q && p.y >= q && filter(p) {
                    out.push(*p);
                }
            }
        }
        if let Some(del) = &td.del_org {
            // Tombstones pass through the tail of `out` only to leave
            // their ids behind.
            let from = out.len();
            del.query_pinned(&self.store, ctx, host, q, &del.route(q), out);
            ctx.del.extend(out.drain(from..).map(|t| t.id));
        }
        mirror_tombs(ctx, &td.del_staged_buf, q);
    }

    /// Report a Type III subtree: everything in the metablock, then its
    /// children by class. Children's slack I/Os are absorbed by this
    /// metablock's `B²` reported points.
    fn report_all(&self, ctx: &mut ReadCtx, mb: MbId, q: i64, out: &mut Vec<Point>) {
        let meta = self.ctx_meta(ctx, mb);
        self.scan_update_pages(ctx, &meta.update, q, out);
        mirror_tombs(ctx, &meta.tomb_buf, q);
        for (i, &pg) in meta.horizontal.iter().enumerate() {
            if meta.h_live[i] == 0 {
                // Fully-dead page: its tombstones (scanned above) shadow
                // every point on it, so the read would report nothing.
                continue;
            }
            for p in self.ctx_read(ctx, pg) {
                debug_assert!(p.y >= q, "type III metablock holds a point below q");
                out.push(*p);
            }
        }
        for i in 0..meta.children.len() {
            match classify(&meta.children[i], q) {
                ChildClass::Full => self.report_all(ctx, meta.children[i].mb, q, out),
                ChildClass::Partial => self.examine_child(ctx, meta, i, q, out),
                ChildClass::Recurse => self.process_path(ctx, meta.children[i].mb, q, out),
                ChildClass::Dead => {}
            }
        }
    }

    /// Examine child `idx` of `parent` — a Type IV (or update-only)
    /// metablock. By the routing invariant its subtree is entirely below
    /// `q`, so only its update buffer and the top of its mains matter.
    ///
    /// With packing on, the whole examination runs off the parent's control
    /// information: the entry's update-page mirror and its mirror of the
    /// top of the child's horizontal blocking. The child's own control
    /// block is read only when the scan outgrows the mirrored prefix — by
    /// which point `pack_h_pages · B` reported answers have paid for it.
    fn examine_child(
        &self,
        ctx: &mut ReadCtx,
        parent: &MetaBlock,
        idx: usize,
        q: i64,
        out: &mut Vec<Point>,
    ) {
        let entry = &parent.children[idx];
        if self.tuning.pack_h_pages == 0 {
            let meta = self.ctx_meta(ctx, entry.mb);
            self.scan_update_pages(ctx, &meta.update, q, out);
            mirror_tombs(ctx, &meta.tomb_buf, q);
            if meta.main_bbox.is_some_and(|b| b.yhi >= (q, 0)) {
                self.horizontal_scan_down(ctx, meta, q, out);
            }
            debug_assert_no_live_children(meta, q);
            return;
        }
        let qk: Key = (q, 0);
        if !entry.packed.tomb_pages.is_empty() {
            // The child has pending deletes: one read of its control block
            // fetches the tombstone mirror — never more I/Os than the
            // page-by-page scan it replaces.
            let child = self.ctx_meta(ctx, entry.mb);
            mirror_tombs(ctx, &child.tomb_buf, q);
        }
        if entry.upd_ymax.is_some_and(|y| y >= qk) {
            self.scan_update_pages(ctx, &entry.packed.upd_pages, q, out);
        }
        if entry.main_bbox.is_some_and(|b| b.yhi >= qk) {
            let mut crossed = false;
            for (i, &pg) in entry.packed.h_pages.iter().enumerate() {
                if entry.packed.h_tops[i] < qk {
                    crossed = true;
                    break;
                }
                if entry.packed.h_live.get(i) == Some(&0) {
                    // The mirror says every point on the page is shadowed:
                    // skip the read, later pages can still qualify.
                    continue;
                }
                for p in self.ctx_read(ctx, pg) {
                    if p.ykey() < qk {
                        crossed = true;
                        break;
                    }
                    out.push(*p);
                }
                if crossed {
                    break;
                }
            }
            if !crossed && entry.packed.h_more {
                // The whole mirrored prefix qualified: continue from the
                // child's control block (amply output-backed).
                let meta = self.ctx_meta(ctx, entry.mb);
                let skip = entry.packed.h_pages.len();
                for (i, &pg) in meta.horizontal.iter().enumerate().skip(skip) {
                    if meta.hkeys[i] < qk {
                        break;
                    }
                    if meta.h_live[i] == 0 {
                        continue;
                    }
                    let mut done = false;
                    for p in self.ctx_read(ctx, pg) {
                        if p.ykey() < qk {
                            done = true;
                            break;
                        }
                        out.push(*p);
                    }
                    if done {
                        break;
                    }
                }
                debug_assert_no_live_children(meta, q);
            }
        }
    }

    /// Scan a run of update-buffer pages, reporting points inside the
    /// query. One I/O per pending page (Lemma 3.5, generalised to the
    /// batched buffer).
    fn scan_update_pages(
        &self,
        ctx: &mut ReadCtx,
        pages: &[ccix_extmem::PageId],
        q: i64,
        out: &mut Vec<Point>,
    ) {
        for &pg in pages {
            for p in self.ctx_read(ctx, pg) {
                if p.x <= q && p.y >= q {
                    out.push(*p);
                }
            }
        }
    }

    /// Left-to-right vertical scan reporting points with `x ≤ q` (callers
    /// guarantee `y ≥ q` for all mains). The cached page-boundary keys stop
    /// the scan before a page that cannot contain an answer, so every page
    /// read reports at least one point.
    fn vertical_scan_leq(&self, ctx: &mut ReadCtx, meta: &MetaBlock, q: i64, out: &mut Vec<Point>) {
        let qx: Key = (q, u64::MAX);
        for (i, &pg) in meta.vertical.iter().enumerate() {
            if meta.vkeys[i] > qx {
                break;
            }
            let mut crossed = false;
            for p in self.ctx_read(ctx, pg) {
                if p.xkey() > qx {
                    crossed = true;
                    break;
                }
                debug_assert!(p.y >= q);
                out.push(*p);
            }
            if crossed {
                break;
            }
        }
    }

    /// Top-down horizontal scan reporting points with `y ≥ q` (callers
    /// guarantee `x ≤ q`). The cached page-top keys skip a crossing page
    /// with no answers.
    fn horizontal_scan_down(
        &self,
        ctx: &mut ReadCtx,
        meta: &MetaBlock,
        q: i64,
        out: &mut Vec<Point>,
    ) {
        for (i, &pg) in meta.horizontal.iter().enumerate() {
            if meta.hkeys[i] < (q, 0) {
                break;
            }
            if meta.h_live[i] == 0 {
                // Fully-dead page (a delete flood shadowed every point on
                // it): nothing to report, skip the read and keep scanning —
                // later pages can still hold live answers.
                continue;
            }
            let mut crossed = false;
            for p in self.ctx_read(ctx, pg) {
                if p.ykey() < (q, 0) {
                    crossed = true;
                    break;
                }
                debug_assert!(p.x <= q, "horizontal scan point right of query");
                out.push(*p);
            }
            if crossed {
                break;
            }
        }
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
        self.x_range_ctx(&mut ctx, x1, x2, &mut answers);
        ctx.emit_live(&answers, project, out);
    }

    /// As [`MetablockTree::x_range_into`] within an existing read context.
    pub(crate) fn x_range_ctx(&self, ctx: &mut ReadCtx, x1: i64, x2: i64, out: &mut Vec<Point>) {
        if x1 > x2 {
            return;
        }
        if let Some(root) = self.root {
            self.x_range_rec(ctx, root, (x1, u64::MIN), (x2, u64::MAX), out);
        }
        self.scan_delta_with(ctx, |p| x1 <= p.x && p.x <= x2, out);
    }

    /// Process a metablock on an x-range boundary path.
    fn x_range_rec(&self, ctx: &mut ReadCtx, mb: MbId, a1k: Key, a2k: Key, out: &mut Vec<Point>) {
        let meta = self.ctx_meta(ctx, mb);
        for &pg in meta.update.iter() {
            for p in self.ctx_read(ctx, pg) {
                let k = p.xkey();
                if k >= a1k && k <= a2k {
                    out.push(*p);
                }
            }
        }
        mirror_tombs_x(ctx, &meta.tomb_buf, a1k, a2k);
        // Mains inside the range, starting from the page located via the
        // boundary keys (≤ 2 slack blocks).
        let start = meta.vkeys.partition_point(|&k| k <= a1k).saturating_sub(1);
        'vertical: for (i, &pg) in meta.vertical.iter().enumerate().skip(start) {
            if meta.vkeys[i] > a2k {
                break;
            }
            for p in self.ctx_read(ctx, pg) {
                let k = p.xkey();
                if k > a2k {
                    break 'vertical;
                }
                if k >= a1k {
                    out.push(*p);
                }
            }
        }
        // Children: recurse into the ≤ 2 boundary slabs, report the middles
        // (slab ⊆ range) wholesale.
        let children = &meta.children;
        let i1 = children.partition_point(|c| c.slab_hi <= a1k);
        let i2 = children.partition_point(|c| c.slab_hi <= a2k);
        for c in children.iter().take(i2 + 1).skip(i1) {
            if c.slab_lo > a2k {
                break;
            }
            if c.slab_lo >= a1k && c.slab_hi <= a2k {
                self.x_report_all(ctx, c.mb, out);
            } else {
                self.x_range_rec(ctx, c.mb, a1k, a2k, out);
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
        for i in 0..meta.children.len() {
            self.x_report_all(ctx, meta.children[i].mb, out);
        }
    }
}

/// Record the ids of pending tombstones the stabbing predicate selects,
/// straight from a control-block mirror — zero I/Os (a tombstone is an
/// exact copy of its victim, so a victim the query would report has a
/// tombstone the same predicate selects; see `MetaBlock::tomb_buf`).
pub(crate) fn mirror_tombs(ctx: &mut ReadCtx, tombs: &[Point], q: i64) {
    ctx.del
        .extend(tombs.iter().filter(|t| t.x <= q && t.y >= q).map(|t| t.id));
}

/// As [`mirror_tombs`], selecting tombstones by the x-range predicate.
fn mirror_tombs_x(ctx: &mut ReadCtx, tombs: &[Point], a1k: Key, a2k: Key) {
    ctx.del.extend(
        tombs
            .iter()
            .filter(|t| t.xkey() >= a1k && t.xkey() <= a2k)
            .map(|t| t.id),
    );
}

/// Debug check: a partial metablock's children are all dead (routing
/// invariant).
fn debug_assert_no_live_children(meta: &MetaBlock, q: i64) {
    debug_assert!(
        meta.children
            .iter()
            .all(|c| classify(c, q) == ChildClass::Dead),
        "partial metablock with a live child"
    );
    let _ = (meta, q);
}
