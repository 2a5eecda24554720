//! The search both metablock trees share (Theorem 3.2, Figs. 15–17; Lemma
//! 4.3, Fig. 21), pinned and packed.
//!
//! Every query is a rectangle open at the top, `x1 ≤ x ≤ x2 ∧ y ≥ y0`
//! ([`Rect`]): Lemma 4.3's 3-sided query, of which a diagonal-corner query
//! at `q` (`x ≤ q ≤ y`) is the case `(−∞, q, q)`. The search walks down the
//! slabs holding the query's vertical sides, and each metablock it meets
//! falls into one of the four types of Fig. 16:
//!
//! * **Type I** — its mains lie entirely above `y0`: those inside
//!   `[x1, x2]` come off its vertical blocking (at most two partly-useful
//!   blocks, located by `vkeys`), then its children are dealt with;
//! * **Type II** — its mains straddle `y0`: the shape's organisation
//!   answers, and the search ends there, since its descendants lie
//!   strictly below (routing invariant);
//! * **Type III** — a child entirely inside the query: reported wholesale
//!   from its horizontal blocking, its own children by class;
//! * **Type IV** — a child whose slab lies inside `[x1, x2]` and whose
//!   mains straddle `y0`: its horizontal blocking is scanned top-down to
//!   `y0` (at most one wasted block); its subtree is below the query.
//!
//! Up to `B` children of a node can be Type IV, and examining each would
//! break the `O(t/B)` bound. A sibling snapshot decides in output-paying
//! I/Os whether they are worth individual visits (the certificate case,
//! Fig. 17a: at least `B²` answers exist) or can be answered from the
//! snapshot plus the parent's `TD` (the crossing case, Fig. 17b). Update
//! and tombstone buffers are scanned wherever a metablock is examined
//! (Lemma 3.5).
//!
//! Three things stay per shape, as the hooks of [`Search`]: how an
//! organisation is queried, the answer of a Type II node, and which
//! children a Type I node visits in which way.
//!
//! Every read is billed through the operation's [`ReadCtx`], shared by a
//! whole sorted batch, so a distinct block is paid once per residency. A
//! straddling child is examined from the parent's packed mirrors, the
//! snapshot runs ride in the parent's entries, and the `vkeys`/`hkeys`
//! boundary keys stop scans before a page with no answers.

use std::ops::Range;

use ccix_extmem::{PageId, Point};

use super::{reset_slots, retain_from, sealed::Hooks, ChildEntry, MbId, MetaBlock, ReadCtx};
use super::{ChildLists, Shape, Tree};
use crate::bbox::Key;

/// A query rectangle open at the top: every point with `x1 ≤ x ≤ x2` and
/// `y ≥ y0`.
#[derive(Clone, Copy, Debug)]
pub struct Rect {
    pub(crate) x1: i64,
    pub(crate) x2: i64,
    pub(crate) y0: i64,
}

impl Rect {
    /// Is `p` inside? Every search checks `x1 ≤ x2` first, so one unsigned
    /// compare of offsets from `x1` tests both vertical sides: a corner
    /// query (`x1 = −∞`) pays what `x ≤ q ∧ y ≥ q` costs, not a third
    /// compare per point scanned.
    pub(crate) fn contains(&self, p: &Point) -> bool {
        debug_assert!(self.x1 <= self.x2, "an empty rectangle is never searched");
        (p.x.wrapping_sub(self.x1) as u64) <= (self.x2.wrapping_sub(self.x1) as u64)
            && p.y >= self.y0
    }

    /// The bottom side as a y-key: `p` is above it iff `p.ykey() >= bottom`.
    pub(crate) fn bottom(&self) -> Key {
        (self.y0, 0)
    }

    /// The left side as an x-key.
    pub(crate) fn left(&self) -> Key {
        (self.x1, u64::MIN)
    }

    /// The right side as an x-key.
    pub(crate) fn right(&self) -> Key {
        (self.x2, u64::MAX)
    }
}

/// Organisation `j` of metablock `mb` that [`Search::query_org`] reads:
/// its TD's insert side.
pub(crate) const TD_ORG: u32 = 2;
/// Its TD's delete side.
pub(crate) const TD_DEL_ORG: u32 = 3;

/// What one shape's search does differently. Sealed with [`Hooks`]: only
/// this crate implements it, and only [`Tree`]'s search calls it.
pub trait Search: Hooks {
    /// One query, as the shape's public surface takes it.
    type Query: Copy + Ord;

    /// The rectangle `q` asks for.
    fn rect(q: Self::Query) -> Rect;

    /// Append what organisation `j` of metablock `mb` holds inside `r`
    /// (`j` numbers a metablock's organisations: the mains', the
    /// children's, then [`TD_ORG`] and [`TD_DEL_ORG`]).
    fn query_org(
        t: &Tree<Self>,
        ctx: &mut ReadCtx,
        org: &Self::Org,
        mb: MbId,
        j: u32,
        r: Rect,
        out: &mut Vec<Point>,
    );

    /// Answer `r` over the mains of metablock `mb` (`meta`), which
    /// straddle its bottom (Type II).
    fn straddling(
        t: &Tree<Self>,
        ctx: &mut ReadCtx,
        mb: MbId,
        meta: &MetaBlock<Self>,
        r: Rect,
        out: &mut Vec<Point>,
    );

    /// Deal with the children of metablock `mb` (`meta`), whose mains lie
    /// above `r` or are empty.
    fn process_children(
        t: &Tree<Self>,
        ctx: &mut ReadCtx,
        mb: MbId,
        meta: &MetaBlock<Self>,
        r: Rect,
        out: &mut Vec<Point>,
    );
}

/// How a child relates to the query bottom (Fig. 16), judged purely from
/// the parent's cached control information.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChildClass {
    /// Mains entirely inside the query (Type III).
    Full,
    /// Mains straddle the bottom (Type IV), or only update points may
    /// qualify.
    Partial,
    /// Empty mains (a delete flood cancelled them all) over a possibly
    /// live subtree: the routing invariant's curtain is gone, so the child
    /// takes a full recursive search instead of a Fig. 16 class. Only
    /// reachable after deletes; the occupancy shrink rebuilds it away.
    Recurse,
    /// Nothing in the child's metablock or subtree can qualify.
    Dead,
}

fn classify(c: &ChildEntry, r: Rect) -> ChildClass {
    let qk = r.bottom();
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

/// Can anything in child `c`'s metablock or subtree lie above `r`'s
/// bottom? Asked before a boundary or path child is descended into.
pub(crate) fn child_live(c: &ChildEntry, r: Rect) -> bool {
    let qk = r.bottom();
    c.main_bbox.is_some_and(|b| b.yhi >= qk)
        || c.upd_ymax.is_some_and(|y| y >= qk)
        || c.sub_yhi.is_some_and(|y| y >= qk)
}

/// Does the x-key of `p` fall in the slab of one of `children[idx]`?
pub(crate) fn in_slabs<'a>(
    children: &'a [ChildEntry],
    idx: &'a [usize],
) -> impl Fn(&Point) -> bool + 'a {
    move |p| {
        let k = p.xkey();
        idx.iter().any(|&i| children[i].slab_contains(k))
    }
}

/// Record the ids of pending tombstones inside `r`, straight from a
/// control-block mirror — zero I/Os (a tombstone is an exact copy of its
/// victim, so a victim the query would report has a tombstone the same
/// predicate selects; see `MetaBlock::tomb_buf`).
pub(crate) fn mirror_tombs(ctx: &mut ReadCtx, tombs: &[Point], r: Rect) {
    ctx.del
        .extend(tombs.iter().filter(|t| r.contains(t)).map(|t| t.id));
}

impl<S: Shape> Tree<S> {
    /// Answer `q` into `out` through `project` (see
    /// [`crate::MetablockTree::query_with`]).
    pub(crate) fn search_with<T>(
        &self,
        q: S::Query,
        project: impl Fn(&Point) -> T,
        out: &mut Vec<T>,
    ) {
        let mut ctx = self.read_ctx();
        let mut answers = Vec::new();
        self.query_ctx(&mut ctx, S::rect(q), &mut answers);
        ctx.emit_live(&answers, project, out);
    }

    /// Answer a whole batch of queries as **one pinned operation**: the
    /// queries are processed in sorted order over a single read context,
    /// so every page of the shared descent prefix — control blocks,
    /// vertical-scan prefixes, sibling snapshots, organisation pages — is
    /// billed once per residency instead of once per query. Results are
    /// returned in input order.
    ///
    /// Cost: `O(log_B n + Σtᵢ/B)` I/Os for a flood of nearby queries (they
    /// share the whole path; `+ log2 B` once on the 3-sided tree); fully
    /// scattered batches degrade gracefully to per-query cost.
    pub fn query_batch(&self, qs: &[S::Query]) -> Vec<Vec<Point>> {
        let mut outs = Vec::new();
        self.query_batch_into(qs, &mut outs);
        outs
    }

    /// As [`Tree::query_batch`], reusing `outs` for the per-query result
    /// buffers: `outs` is resized to `qs.len()` and each slot is cleared
    /// before its answer is appended, so a steady-state caller (e.g. the
    /// serving layer answering floods of stabbing batches) allocates
    /// nothing for them. This is the canonical `_into` shape of the batch
    /// surface — see `docs/architecture.md` § Batched operations.
    pub fn query_batch_into(&self, qs: &[S::Query], outs: &mut Vec<Vec<Point>>) {
        self.query_batch_with(qs, |p| *p, outs);
    }

    /// As [`Tree::query_batch_into`], filling each slot with `project` of
    /// the query's answers. Each query runs into one scratch buffer the
    /// whole batch reuses, and its answers leave that buffer once — live
    /// ones only, already projected — for a slot reserved to fit them.
    pub fn query_batch_with<T>(
        &self,
        qs: &[S::Query],
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
            self.query_ctx(&mut ctx, S::rect(qs[i]), &mut answers);
            ctx.emit_live(&answers, &project, &mut outs[i]);
        }
    }

    /// One query within an existing read context.
    fn query_ctx(&self, ctx: &mut ReadCtx, r: Rect, out: &mut Vec<Point>) {
        if r.x1 > r.x2 {
            return;
        }
        if let Some(root) = self.root {
            self.process_path(ctx, root, r, out);
        }
        // While a background shrink job is in progress, the query consults
        // both sides: the (frozen or rebuilt) tree above, and the job's
        // delta of diverted updates and tombstones here.
        self.scan_delta_with(ctx, |p| r.contains(p), out);
    }

    /// Process a metablock on a search path: a slab holding one of the
    /// query's vertical sides.
    pub(crate) fn process_path(&self, ctx: &mut ReadCtx, mb: MbId, r: Rect, out: &mut Vec<Point>) {
        let meta = self.ctx_meta(ctx, mb);
        self.scan_update_pages(ctx, &meta.update, r, out);
        mirror_tombs(ctx, &meta.tomb_buf, r);
        let (Some(bbox), Some(ylo)) = (meta.main_bbox, meta.y_lo_main) else {
            // Empty mains: a fresh root, or a metablock a delete flood
            // emptied. Nothing of its own to report beyond the buffers,
            // but live descendants stay reachable.
            if !meta.is_leaf() {
                S::process_children(self, ctx, mb, meta, r, out);
            }
            return;
        };
        let qk = r.bottom();
        if qk > bbox.yhi {
            // Everything (mains, and by the routing invariant the whole
            // subtree) lies below the query.
            return;
        }
        if qk > ylo {
            // Type II: the mains straddle the bottom; descendants are
            // strictly below `ylo` by the routing invariant.
            S::straddling(self, ctx, mb, meta, r, out);
            return;
        }
        // Type I: all mains are inside in y; take those inside in x.
        self.vertical_scan(ctx, meta, r, |_| true, out);
        if !meta.is_leaf() {
            S::process_children(self, ctx, mb, meta, r, out);
        }
    }

    /// Sort `children[range]` by class into the context's lists, which the
    /// caller hands back (`ctx.kids = kids`) once it has used them: no
    /// allocation per level. A `Recurse` child takes its full search here,
    /// outside every snapshot protocol (no snapshot or TD covers its
    /// depths); the rare nested search finds the context's lists taken and
    /// grows lists of its own.
    pub(crate) fn classify_children(
        &self,
        ctx: &mut ReadCtx,
        children: &[ChildEntry],
        range: Range<usize>,
        r: Rect,
        out: &mut Vec<Point>,
    ) -> ChildLists {
        let mut kids = std::mem::take(&mut ctx.kids);
        kids.full.clear();
        kids.partial.clear();
        for i in range {
            let c = &children[i];
            match classify(c, r) {
                ChildClass::Full => kids.full.push(i),
                ChildClass::Partial => kids.partial.push(i),
                ChildClass::Recurse => self.process_path(ctx, c.mb, r, out),
                ChildClass::Dead => {}
            }
        }
        kids
    }

    /// Resolve the straddling children `covered` of metablock `mb`
    /// (`parent`) from a sibling snapshot of child `anchor`: its right one
    /// (`TSR`) when they lie to its right, else its left one (`TS`,
    /// `TSL`). With packing on, the snapshot's run rides in the parent's
    /// entry, so the anchor's control block is never touched.
    ///
    /// The snapshot's points above the bottom go straight onto `out`. If
    /// the scan crossed the bottom, or the snapshot kept every sibling
    /// point, it holds every covered point above the bottom as of the last
    /// TS reorganisation and the TD holds the rest (the crossing case):
    /// both are kept, restricted to the covered slabs. Otherwise it
    /// certifies at least as many answers as it holds, which pay for
    /// examining each covered child (the certificate case), and its points
    /// are taken back.
    pub(crate) fn snapshot_route(
        &self,
        ctx: &mut ReadCtx,
        (mb, parent): (MbId, &MetaBlock<S>),
        anchor: usize,
        covered: &[usize],
        r: Rect,
        out: &mut Vec<Point>,
    ) {
        let children = &parent.children;
        let right = anchor < covered[0];
        let (pages, truncated) = if self.tuning.pack_h_pages > 0 {
            let packed = &children[anchor].packed;
            if right {
                (&packed.tsr_pages, packed.tsr_truncated)
            } else {
                (&packed.ts_pages, packed.ts_truncated)
            }
        } else {
            let sib = &self.ctx_meta(ctx, children[anchor].mb).sib;
            let ts = S::snapshots(sib)[usize::from(right)];
            let ts = ts.expect("anchor child carries the sibling snapshot");
            (&ts.pages, ts.truncated)
        };
        let scanned_from = out.len();
        let mut crossed = false;
        'ts: for &pg in pages.iter() {
            for p in self.ctx_read(ctx, pg) {
                if p.ykey() < r.bottom() {
                    crossed = true;
                    break 'ts;
                }
                out.push(*p);
            }
        }
        if crossed || !truncated {
            let in_covered = in_slabs(children, covered);
            retain_from(out, scanned_from, &in_covered);
            self.query_td(ctx, mb, parent, r, &in_covered, out);
        } else {
            out.truncate(scanned_from);
            for &i in covered {
                self.examine_child(ctx, parent, i, r, out);
            }
        }
    }

    /// Query the TD of metablock `mb` (`meta`) for `r`, keeping points that
    /// satisfy `filter`. The TD's organisations ride in the metablock's
    /// control block, which the operation already holds.
    ///
    /// The TD's delete side is queried alongside: a snapshot-answered route
    /// reports points as of the last TS reorganisation, so tombstones
    /// younger than the snapshot — exactly what the delete side holds —
    /// must subtract from this query's answer. Matching is by id alone (any
    /// id the delete side reports is a logically deleted point), so no
    /// slab filter applies.
    pub(crate) fn query_td(
        &self,
        ctx: &mut ReadCtx,
        mb: MbId,
        meta: &MetaBlock<S>,
        r: Rect,
        filter: &dyn Fn(&Point) -> bool,
        out: &mut Vec<Point>,
    ) {
        let Some(td) = &meta.td else { return };
        if let Some(org) = &td.org {
            let from = out.len();
            S::query_org(self, ctx, org, mb, TD_ORG, r, out);
            retain_from(out, from, filter);
        }
        for &pg in td.staged.iter() {
            for p in self.ctx_read(ctx, pg) {
                if r.contains(p) && filter(p) {
                    out.push(*p);
                }
            }
        }
        if let Some(del) = &td.del_org {
            // Tombstones pass through the tail of `out` only to leave
            // their ids behind.
            let from = out.len();
            S::query_org(self, ctx, del, mb, TD_DEL_ORG, r, out);
            ctx.del.extend(out.drain(from..).map(|t| t.id));
        }
        mirror_tombs(ctx, &td.del_staged_buf, r);
    }

    /// Report a Type III subtree: everything in the metablock, then its
    /// children by class. Children's slack I/Os are absorbed by this
    /// metablock's `B²` reported points.
    pub(crate) fn report_all(&self, ctx: &mut ReadCtx, mb: MbId, r: Rect, out: &mut Vec<Point>) {
        let meta = self.ctx_meta(ctx, mb);
        self.scan_update_pages(ctx, &meta.update, r, out);
        mirror_tombs(ctx, &meta.tomb_buf, r);
        for (i, &pg) in meta.horizontal.iter().enumerate() {
            if meta.h_live[i] == 0 {
                // Fully-dead page: its tombstones (scanned above) shadow
                // every point on it, so the read would report nothing.
                continue;
            }
            for p in self.ctx_read(ctx, pg) {
                debug_assert!(r.contains(p), "type III metablock holds a point outside");
                out.push(*p);
            }
        }
        for (i, c) in meta.children.iter().enumerate() {
            match classify(c, r) {
                ChildClass::Full => self.report_all(ctx, c.mb, r, out),
                ChildClass::Partial => self.examine_child(ctx, meta, i, r, out),
                ChildClass::Recurse => self.process_path(ctx, c.mb, r, out),
                ChildClass::Dead => {}
            }
        }
    }

    /// Examine child `idx` of `parent` — a Type IV (or update-only)
    /// metablock whose slab lies inside `[x1, x2]`. By the routing
    /// invariant its subtree is entirely below the query, so only its
    /// update buffer and the top of its mains matter.
    ///
    /// With packing on, the whole examination runs off the parent's control
    /// information: the entry's update-page mirror and its mirror of the
    /// top of the child's horizontal blocking. The child's own control
    /// block is read only when the scan outgrows the mirrored prefix — by
    /// which point `pack_h_pages · B` reported answers have paid for it.
    pub(crate) fn examine_child(
        &self,
        ctx: &mut ReadCtx,
        parent: &MetaBlock<S>,
        idx: usize,
        r: Rect,
        out: &mut Vec<Point>,
    ) {
        let entry = &parent.children[idx];
        let qk = r.bottom();
        if self.tuning.pack_h_pages == 0 {
            let meta = self.ctx_meta(ctx, entry.mb);
            self.scan_update_pages(ctx, &meta.update, r, out);
            mirror_tombs(ctx, &meta.tomb_buf, r);
            if meta.main_bbox.is_some_and(|b| b.yhi >= qk) {
                self.horizontal_scan_down(ctx, meta, 0, r, |_| true, out);
            }
            debug_assert_no_live_children(meta, r);
            return;
        }
        let packed = &entry.packed;
        if !packed.tomb_pages.is_empty() {
            // The child has pending deletes: one read of its control block
            // fetches the tombstone mirror — never more I/Os than the
            // page-by-page scan it replaces.
            let child = self.ctx_meta(ctx, entry.mb);
            mirror_tombs(ctx, &child.tomb_buf, r);
        }
        if entry.upd_ymax.is_some_and(|y| y >= qk) {
            self.scan_update_pages(ctx, &packed.upd_pages, r, out);
        }
        if entry.main_bbox.is_some_and(|b| b.yhi >= qk) {
            let run = (&packed.h_pages[..], &packed.h_tops[..], &packed.h_live[..]);
            if !self.scan_down(ctx, run, r, |_| true, out) && packed.h_more {
                // The whole mirrored prefix qualified: continue from the
                // child's control block (amply output-backed).
                let meta = self.ctx_meta(ctx, entry.mb);
                let from = packed.h_pages.len();
                self.horizontal_scan_down(ctx, meta, from, r, |_| true, out);
                debug_assert_no_live_children(meta, r);
            }
        }
    }

    /// Top-down scan of `meta`'s horizontal blocking from page `from` (see
    /// [`Tree::scan_down`]).
    pub(crate) fn horizontal_scan_down(
        &self,
        ctx: &mut ReadCtx,
        meta: &MetaBlock<S>,
        from: usize,
        r: Rect,
        keep: impl Fn(&Point) -> bool,
        out: &mut Vec<Point>,
    ) {
        let run = (
            &meta.horizontal[from..],
            &meta.hkeys[from..],
            &meta.h_live[from..],
        );
        self.scan_down(ctx, run, r, keep, out);
    }

    /// Scan a y-descending page run top-down, reporting the points `keep`
    /// accepts, until one falls below `r`'s bottom; returns whether one
    /// did. The run comes with its page-top keys, which skip a crossing
    /// page with no answers, and its pages' live counts: a fully-dead page
    /// (a delete flood shadowed every point on it) is skipped unread, and
    /// later pages can still hold live answers. `keep` is the caller's x
    /// filter, if its run can hold points outside `[x1, x2]`: a per-point
    /// test the other callers do not pay.
    fn scan_down(
        &self,
        ctx: &mut ReadCtx,
        (pages, tops, live): (&[PageId], &[Key], &[u32]),
        r: Rect,
        keep: impl Fn(&Point) -> bool,
        out: &mut Vec<Point>,
    ) -> bool {
        let qk = r.bottom();
        for (i, &pg) in pages.iter().enumerate() {
            if tops[i] < qk {
                return true;
            }
            if live.get(i) == Some(&0) {
                continue;
            }
            for p in self.ctx_read(ctx, pg) {
                if p.ykey() < qk {
                    return true;
                }
                if keep(p) {
                    out.push(*p);
                }
            }
        }
        false
    }

    /// Scan a run of update-buffer pages, reporting points inside `r`. One
    /// I/O per pending page (Lemma 3.5, generalised to the batched buffer).
    pub(crate) fn scan_update_pages(
        &self,
        ctx: &mut ReadCtx,
        pages: &[PageId],
        r: Rect,
        out: &mut Vec<Point>,
    ) {
        for &pg in pages {
            for p in self.ctx_read(ctx, pg) {
                if r.contains(p) {
                    out.push(*p);
                }
            }
        }
    }

    /// Report the mains with `x1 ≤ x ≤ x2` that `keep` accepts (the
    /// caller's y filter, if some mains can lie below `r`) from the
    /// vertical blocking, starting at the page located via the cached
    /// page-boundary keys (the first page for a query open to the left)
    /// and stopping before a page that starts right of `r`: at most two
    /// slack blocks.
    pub(crate) fn vertical_scan(
        &self,
        ctx: &mut ReadCtx,
        meta: &MetaBlock<S>,
        r: Rect,
        keep: impl Fn(&Point) -> bool,
        out: &mut Vec<Point>,
    ) {
        let (a1k, a2k) = (r.left(), r.right());
        // The last page whose first key is ≤ a1k can still hold x ≥ x1,
        // and it is the only page that can begin left of x1.
        let start = meta.vkeys.partition_point(|&k| k <= a1k).saturating_sub(1);
        for (i, &pg) in meta.vertical.iter().enumerate().skip(start) {
            if meta.vkeys[i] > a2k {
                break;
            }
            let page = self.ctx_read(ctx, pg);
            let from = if i == start {
                page.partition_point(|p| p.xkey() < a1k)
            } else {
                0
            };
            for p in &page[from..] {
                if p.xkey() > a2k {
                    return;
                }
                if keep(p) {
                    out.push(*p);
                }
            }
        }
    }
}

/// Debug check: a partial metablock's children are all dead (routing
/// invariant).
fn debug_assert_no_live_children<S: Hooks>(meta: &MetaBlock<S>, r: Rect) {
    debug_assert!(
        meta.children
            .iter()
            .all(|c| classify(c, r) == ChildClass::Dead),
        "partial metablock with a live child"
    );
    let _ = (meta, r);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rectangle_contains_exactly_its_x_range_at_the_extremes() {
        let xs = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        for x1 in xs {
            for x2 in xs.into_iter().filter(|&x2| x2 >= x1) {
                let r = Rect { x1, x2, y0: 0 };
                for x in xs {
                    let inside = x1 <= x && x <= x2;
                    assert_eq!(
                        r.contains(&Point::new(x, 0, 0)),
                        inside,
                        "{x} in [{x1}, {x2}]"
                    );
                    assert!(!r.contains(&Point::new(x, -1, 0)), "below y0");
                }
            }
        }
    }
}
