//! Unbilled invariant checking and shape statistics, written once for both
//! shapes.
//!
//! [`Tree::validate_unbilled`] walks the whole structure without touching
//! the I/O counters and asserts every invariant the query correctness
//! argument relies on; the shape adds only the checks of what it alone
//! keeps (the 3-sided tree's PST over its mains). Tests call it after
//! randomized workloads; it is the executable form of the structural
//! claims of §3 and §4.

use std::collections::BTreeSet;

use ccix_extmem::{PageId, Point};

use super::{MbId, MetaBlock, Shape, Tree, TsInfo};
use crate::bbox::{BBox, Key};

/// Shape statistics of a metablock tree (experiment E11 / Figs. 8–10).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Total metablocks.
    pub metablocks: usize,
    /// Leaf metablocks.
    pub leaves: usize,
    /// Height in metablock levels.
    pub height: usize,
    /// Disk blocks occupied ([`Tree::space_pages`]).
    pub pages: usize,
    /// Points stored (mains + update blocks).
    pub points: usize,
    /// Points held in update blocks awaiting a level-I reorganisation.
    pub pending_updates: usize,
    /// Tombstones held in tombstone buffers awaiting cancellation (each
    /// shadows one stored, logically deleted point counted in `points`).
    pub pending_tombs: usize,
    /// Pages used by sibling snapshots (`TS`, or `TSL` and `TSR`).
    pub snapshot_pages: usize,
    /// Pages used by organisations: corner structures or PSTs over the
    /// mains, over the TDs (both sides) and, on the 3-sided tree, over the
    /// children.
    pub org_pages: usize,
}

/// Labels of a snapshot side in the validator's messages.
const SIDES: [&str; 2] = ["left snapshot", "right snapshot"];

impl<S: Shape> Tree<S> {
    /// The points of a page run, in order.
    fn pages_unbilled(&self, pages: &[PageId]) -> Vec<Point> {
        let mut out = Vec::new();
        for &pg in pages {
            out.extend_from_slice(self.store.read_unbilled(pg));
        }
        out
    }

    /// Every page of a blocked run must be full except the last: a merge
    /// (or sort) rebuild that leaked partial pages mid-run would break the
    /// `t/B` output accounting of every scan over it.
    fn assert_dense_run(&self, pages: &[PageId], what: &str) {
        for (i, &pg) in pages.iter().enumerate() {
            if i + 1 < pages.len() {
                assert_eq!(
                    self.store.len_unbilled(pg),
                    self.geo.b,
                    "{what} run has a sparse page mid-run"
                );
            }
        }
    }

    /// Every main and buffered point of the subtree at `mb`, unbilled.
    fn collect_unbilled(&self, mb: MbId, out: &mut Vec<Point>) {
        let meta = self.metas.get(mb);
        out.extend(self.pages_unbilled(&meta.horizontal));
        out.extend(self.pages_unbilled(&meta.update));
        for c in &meta.children {
            self.collect_unbilled(c.mb, out);
        }
    }

    /// Compute shape statistics without charging I/Os.
    pub fn stats(&self) -> TreeStats {
        let mut s = TreeStats {
            pages: self.space_pages(),
            ..TreeStats::default()
        };
        if let Some(root) = self.root {
            self.stats_rec(root, 1, &mut s);
        }
        s
    }

    fn stats_rec(&self, mb: MbId, depth: usize, s: &mut TreeStats) {
        let meta = self.metas.get(mb);
        s.metablocks += 1;
        s.height = s.height.max(depth);
        s.points += meta.n_main + meta.n_upd;
        s.pending_updates += meta.n_upd;
        s.pending_tombs += meta.n_tomb;
        for ts in S::snapshots(&meta.sib).into_iter().flatten() {
            s.snapshot_pages += ts.pages.len();
        }
        let td = meta.td.as_ref();
        let orgs = [meta.org.as_deref(), S::children_org(&meta.sib)]
            .into_iter()
            .chain(td.map(|td| td.org.as_deref()))
            .chain(td.map(|td| td.del_org.as_deref()));
        s.org_pages += orgs.flatten().map(S::org_pages).sum::<usize>();
        if meta.is_leaf() {
            s.leaves += 1;
        }
        for c in &meta.children {
            self.stats_rec(c.mb, depth + 1, s);
        }
    }

    /// Walk the tree unbilled, assert every structural invariant, and return
    /// all stored points. Test/debug only.
    pub fn validate_unbilled(&self) -> Vec<Point> {
        let mut all = Vec::new();
        if let Some(root) = self.root {
            self.validate_rec(root, (i64::MIN, 0), (i64::MAX, u64::MAX), None, &mut all);
        }
        assert_eq!(
            self.stats().pending_tombs,
            self.tombs_pending,
            "stale pending-tombstone counter"
        );
        // With a background shrink job in progress, the job's delta is part
        // of the physical contents: its undrained live update points are
        // stored points, and each undrained delta tombstone names a stored
        // tree point it shadows (annihilated pairs cancel inside the delta
        // and count on neither side).
        let tree_ids: BTreeSet<u64> = all.iter().map(|p| p.id).collect();
        for t in self.delta_tombs_unbilled() {
            assert!(
                tree_ids.contains(&t.id),
                "delta tombstone {t:?} has no victim in the tree"
            );
        }
        let (delta_live, tomb_rem) = self.delta_contents_unbilled();
        all.extend(delta_live);
        // Physical contents = logical contents plus one shadowed copy per
        // pending tombstone, buffered in the tree or in the delta.
        assert_eq!(
            all.len(),
            self.len + self.tombs_pending + tomb_rem,
            "stored point count mismatch"
        );
        let mut ids: BTreeSet<u64> = BTreeSet::new();
        for p in &all {
            self.shape.admit(p);
            assert!(ids.insert(p.id), "duplicate id {}", p.id);
        }
        all
    }

    /// Validate the subtree at `mb`, whose slab is `[slab_lo, slab_hi)` and
    /// whose points must all be strictly `(y, id)`-below `y_bound` (the
    /// parent's `y_lo_main`). Appends the subtree's points to `all`.
    fn validate_rec(
        &self,
        mb: MbId,
        slab_lo: Key,
        slab_hi: Key,
        y_bound: Option<Key>,
        all: &mut Vec<Point>,
    ) {
        let meta = self.metas.get(mb);
        let b = self.geo.b;
        let upd_cap = self.tuning.upd_cap_pages(self.geo) * b;
        let mains = self.pages_unbilled(&meta.horizontal);
        assert_eq!(mains.len(), meta.n_main, "main count mismatch");
        assert!(
            mains.len() <= 2 * self.cap() + upd_cap,
            "metablock overfull: {}",
            mains.len()
        );

        // Blockings hold the same multiset, in the right orders, densely
        // packed (every page full except the last — the merge pipeline must
        // emit the same runs a sort-based rebuild would).
        self.assert_dense_run(&meta.vertical, "vertical");
        self.assert_dense_run(&meta.horizontal, "horizontal");
        for (ts, what) in S::snapshots(&meta.sib).into_iter().zip(SIDES) {
            if let Some(ts) = ts {
                self.assert_dense_run(&ts.pages, what);
            }
        }
        let vertical = self.pages_unbilled(&meta.vertical);
        assert!(
            vertical.windows(2).all(|w| w[0].xkey() < w[1].xkey()),
            "vertical blocking out of order"
        );
        assert_eq!(
            &meta.vkeys[..],
            vertical.chunks(b).map(|c| c[0].xkey()).collect::<Vec<_>>(),
            "stale vertical page-boundary keys"
        );
        // The kept y-order is the horizontal blocking's: every rank in
        // range, and the vertical run gathered through it is the
        // horizontal run.
        assert_eq!(meta.order.len(), vertical.len(), "stale y-order length");
        assert!(
            meta.order
                .as_slice()
                .iter()
                .all(|&r| (r as usize) < vertical.len()),
            "y-order rank out of range"
        );
        assert_eq!(
            meta.order.gather(&vertical),
            mains,
            "stale y-order: the vertical run through it is not the horizontal run"
        );
        let horizontal = &mains;
        assert!(
            horizontal.windows(2).all(|w| w[0].ykey() > w[1].ykey()),
            "horizontal blocking out of order"
        );
        assert_eq!(
            &meta.hkeys[..],
            horizontal
                .chunks(b)
                .map(|c| c[0].ykey())
                .collect::<Vec<_>>(),
            "stale horizontal page-top keys"
        );
        let mut a: Vec<u64> = vertical.iter().map(|p| p.id).collect();
        let mut h: Vec<u64> = horizontal.iter().map(|p| p.id).collect();
        a.sort_unstable();
        h.sort_unstable();
        assert_eq!(a, h, "vertical and horizontal blockings disagree");

        // Cached summaries are exact, and so is the shape's organisation.
        assert_eq!(meta.main_bbox, BBox::of_points(&mains), "stale main bbox");
        assert_eq!(
            meta.y_lo_main,
            mains.iter().map(Point::ykey).min(),
            "stale y_lo_main"
        );
        S::check_main_org(self, meta, &mains);

        // Slab containment for every stored point (mains + updates).
        let update = self.pages_unbilled(&meta.update);
        assert_eq!(update.len(), meta.n_upd, "update count mismatch");
        assert!(
            update.len() <= upd_cap,
            "update buffer overfull: {} points",
            update.len()
        );
        for p in mains.iter().chain(&update) {
            assert!(
                p.xkey() >= slab_lo && p.xkey() < slab_hi,
                "point {p:?} outside slab [{slab_lo:?}, {slab_hi:?})"
            );
            if let Some(bound) = y_bound {
                assert!(
                    p.ykey() < bound,
                    "routing invariant violated: {p:?} not below parent bound {bound:?}"
                );
            }
        }

        // Tombstone buffer: within budget, and the landing invariant — a
        // tombstone is buffered in the metablock that physically holds its
        // victim (an exact copy, found in the mains or update buffer).
        let tombs = self.pages_unbilled(&meta.tomb);
        assert_eq!(tombs.len(), meta.n_tomb, "tombstone count mismatch");
        assert_eq!(tombs, meta.tomb_buf, "stale tombstone control-block mirror");
        assert!(
            tombs.len() <= self.tuning.tomb_cap_pages(self.geo) * b,
            "tombstone buffer overfull: {} tombstones",
            tombs.len()
        );
        let mut tomb_ids: BTreeSet<u64> = BTreeSet::new();
        for t in &tombs {
            assert!(tomb_ids.insert(t.id), "duplicate tombstone id {}", t.id);
            assert!(
                mains.iter().chain(&update).any(|p| p == t),
                "tombstone {t:?} has no victim in its metablock"
            );
        }

        // Per-page live counts are exact: page points minus the pending
        // tombstones of *this* metablock that match them (the landing
        // invariant colocates every tombstone with its victim).
        assert_eq!(
            meta.h_live,
            horizontal
                .chunks(b)
                .map(|c| c.iter().filter(|p| !tomb_ids.contains(&p.id)).count() as u32)
                .collect::<Vec<_>>(),
            "stale per-page live counts"
        );

        all.extend_from_slice(&mains);
        all.extend_from_slice(&update);

        if meta.is_leaf() {
            assert!(meta.td.is_none(), "leaf metablock with TD");
            let kids = S::children_org(&meta.sib);
            assert!(kids.is_none(), "leaf with a children organisation");
            return;
        }
        // Children: contiguous slabs covering this slab, cached entries
        // exact, snapshot coverage sound.
        assert!(meta.td.is_some(), "internal metablock without TD");
        // An emptied interior metablock is a pure router: the insert and
        // delete routings pass it by, so its buffers stay empty.
        if meta.main_bbox.is_none() {
            assert_eq!(meta.n_upd, 0, "emptied interior metablock buffers inserts");
            assert_eq!(
                meta.n_tomb, 0,
                "emptied interior metablock buffers tombstones"
            );
        }
        assert_eq!(meta.children[0].slab_lo, slab_lo, "first slab misaligned");
        assert_eq!(
            meta.children.last().unwrap().slab_hi,
            slab_hi,
            "last slab misaligned"
        );
        for w in meta.children.windows(2) {
            assert_eq!(w[0].slab_hi, w[1].slab_lo, "slab gap between children");
        }
        assert!(
            meta.children.len() < 2 * b + 1,
            "branching factor overflow: {}",
            meta.children.len()
        );
        self.validate_coverage(meta);
        self.validate_packed(meta);

        let y_lo = meta.y_lo_main;
        for c in &meta.children {
            let child_meta = self.metas.get(c.mb);
            let child_mains = self.pages_unbilled(&child_meta.horizontal);
            assert_eq!(
                c.main_bbox,
                BBox::of_points(&child_mains),
                "stale child main bbox"
            );
            let child_upd = self.pages_unbilled(&child_meta.update);
            assert_eq!(
                c.upd_ymax,
                child_upd.iter().map(Point::ykey).max(),
                "stale child upd_ymax"
            );
            let mut sub = Vec::new();
            for g in &child_meta.children {
                self.collect_unbilled(g.mb, &mut sub);
            }
            let true_sub_yhi = sub.iter().map(Point::ykey).max();
            assert!(
                c.sub_yhi >= true_sub_yhi,
                "child sub_yhi underestimates: cached {:?} < true {:?}",
                c.sub_yhi,
                true_sub_yhi
            );
            self.validate_rec(c.mb, c.slab_lo, c.slab_hi, y_lo, all);
        }
    }

    /// The coverage argument behind the snapshot routes and the children
    /// organisation, as an invariant: every **live** point currently stored
    /// in a child's siblings on a side is in the child's snapshot of that
    /// side, outranked by the snapshot's points, or present in the parent's
    /// TD; and every live child point is in the children organisation, if
    /// the shape keeps one, or the TD. Points shadowed by a pending
    /// tombstone are exempt (queries subtract them by id), and ids on the
    /// TD's delete side must never shadow a live point.
    fn validate_coverage(&self, parent: &MetaBlock<S>) {
        let mut td_ids: BTreeSet<u64> = BTreeSet::new();
        let mut td_del_ids: BTreeSet<u64> = BTreeSet::new();
        if let Some(td) = &parent.td {
            if let Some(org) = &td.org {
                td_ids.extend(S::org_points_unbilled(self, org).iter().map(|p| p.id));
            }
            td_ids.extend(self.pages_unbilled(&td.staged).iter().map(|p| p.id));
            let mut n_del = 0usize;
            if let Some(org) = &td.del_org {
                let pts = S::org_points_unbilled(self, org);
                n_del += pts.len();
                td_del_ids.extend(pts.iter().map(|t| t.id));
            }
            assert_eq!(n_del, td.n_del_built, "TD delete-side built-count stale");
            let staged = self.pages_unbilled(&td.del_staged);
            td_del_ids.extend(staged.iter().map(|t| t.id));
            assert_eq!(
                staged.len(),
                td.n_del_staged,
                "TD delete-side staged-count stale"
            );
            assert_eq!(
                staged, td.del_staged_buf,
                "stale TD delete-side control-block mirror"
            );
        }
        // Live child points only.
        let stored: Vec<Vec<Point>> = parent
            .children
            .iter()
            .map(|c| {
                let cm = self.metas.get(c.mb);
                let child_tombs: BTreeSet<u64> =
                    self.pages_unbilled(&cm.tomb).iter().map(|t| t.id).collect();
                let mut pts = self.pages_unbilled(&cm.horizontal);
                pts.extend(self.pages_unbilled(&cm.update));
                pts.retain(|p| !child_tombs.contains(&p.id));
                for p in &pts {
                    assert!(
                        !td_del_ids.contains(&p.id),
                        "TD delete side shadows live point {p:?}"
                    );
                }
                pts
            })
            .collect();

        let check = |ts: &TsInfo, covered: &[Vec<Point>], what: &str, i: usize| {
            let ts_points = self.pages_unbilled(&ts.pages);
            assert_eq!(ts_points.len(), ts.n, "{what} count mismatch");
            assert!(
                ts_points.windows(2).all(|w| w[0].ykey() > w[1].ykey()),
                "{what} out of order"
            );
            assert!(
                ts.n <= self.tuning.ts_cap_points(self.geo),
                "{what} too large"
            );
            let ts_ids: BTreeSet<u64> = ts_points.iter().map(|p| p.id).collect();
            let ts_min = ts_points.last().map(Point::ykey);
            for p in covered.iter().flatten() {
                let ok = ts_ids.contains(&p.id)
                    || td_ids.contains(&p.id)
                    || (ts.truncated && ts_min.is_some_and(|m| p.ykey() < m));
                assert!(
                    ok,
                    "{what} coverage hole: point {p:?} invisible to child {i}"
                );
            }
        };
        let len = parent.children.len();
        for (i, c) in parent.children.iter().enumerate() {
            let [left, right] = S::snapshots(&self.metas.get(c.mb).sib);
            if i > 0 {
                let ts = left.expect("non-first child has a left snapshot");
                check(ts, &stored[..i], SIDES[0], i);
            } else {
                assert!(left.is_none(), "first child must not have a left snapshot");
            }
            if S::TWO_SIDED && i + 1 < len {
                let ts = right.expect("non-last child has a right snapshot");
                check(ts, &stored[i + 1..], SIDES[1], i);
            } else {
                assert!(right.is_none(), "last child must not have a right snapshot");
            }
        }

        if let Some(org) = S::children_org(&parent.sib) {
            let snap_ids: BTreeSet<u64> = S::org_points_unbilled(self, org)
                .iter()
                .map(|p| p.id)
                .collect();
            for p in stored.iter().flatten() {
                assert!(
                    snap_ids.contains(&p.id) || td_ids.contains(&p.id),
                    "children organisation coverage hole: {p:?}"
                );
            }
        }
    }

    /// Packed control information is an exact mirror of the children's
    /// state: horizontal-prefix, buffer-page and snapshot-page mirrors all
    /// match.
    fn validate_packed(&self, meta: &MetaBlock<S>) {
        let h = self.tuning.pack_h_pages;
        if h == 0 {
            for c in &meta.children {
                let p = &c.packed;
                let runs = [&p.h_pages, &p.upd_pages, &p.tomb_pages, &p.ts_pages];
                for run in runs.into_iter().chain([&p.tsr_pages]) {
                    assert!(run.is_empty(), "mirror while packing off");
                }
            }
            return;
        }
        for c in &meta.children {
            let child_meta = self.metas.get(c.mb);
            let top = h.min(child_meta.horizontal.len());
            assert_eq!(
                c.packed.h_pages[..],
                child_meta.horizontal[..top],
                "stale packed horizontal-prefix mirror"
            );
            assert_eq!(
                c.packed.h_tops[..],
                child_meta.hkeys[..top],
                "stale packed horizontal-top mirror"
            );
            assert_eq!(
                c.packed.h_live[..],
                child_meta.h_live[..top],
                "stale packed live-count mirror"
            );
            assert_eq!(
                c.packed.h_more,
                child_meta.horizontal.len() > h,
                "stale packed h_more bit"
            );
            assert_eq!(
                c.packed.upd_pages, child_meta.update,
                "stale packed update-page mirror"
            );
            assert_eq!(
                c.packed.tomb_pages, child_meta.tomb,
                "stale packed tombstone-page mirror"
            );
            let mirrors = [
                (&c.packed.ts_pages, c.packed.ts_truncated),
                (&c.packed.tsr_pages, c.packed.tsr_truncated),
            ];
            let sides = S::snapshots(&child_meta.sib).into_iter().zip(SIDES);
            for ((pages, truncated), (ts, what)) in mirrors.into_iter().zip(sides) {
                match ts {
                    Some(ts) => {
                        assert_eq!(*pages, ts.pages, "stale packed {what} mirror");
                        assert_eq!(
                            truncated, ts.truncated,
                            "stale packed {what} truncation bit"
                        );
                    }
                    None => assert!(pages.is_empty(), "packed {what} with no snapshot"),
                }
            }
        }
    }
}
