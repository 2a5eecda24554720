//! Unbilled invariant checking and statistics for the 3-sided tree.

use std::collections::BTreeSet;

use ccix_extmem::Point;

use super::{ThreeSided, ThreeSidedTree};
use crate::bbox::{BBox, Key};
use crate::tree::{MbId, TsInfo};

type MetaBlock = crate::tree::MetaBlock<ThreeSided>;

/// Shape statistics of a 3-sided metablock tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreeSidedStats {
    /// Total metablocks.
    pub metablocks: usize,
    /// Leaf metablocks.
    pub leaves: usize,
    /// Height in metablock levels.
    pub height: usize,
    /// Total disk blocks (data + PSTs + control).
    pub pages: usize,
    /// Points stored.
    pub points: usize,
    /// Tombstones held in tombstone buffers awaiting cancellation (each
    /// shadows one stored, logically deleted point counted in `points`).
    pub pending_tombs: usize,
    /// Pages in per-metablock and children PSTs.
    pub pst_pages: usize,
}

impl ThreeSidedTree {
    /// Compute shape statistics without charging I/Os.
    pub fn stats(&self) -> ThreeSidedStats {
        let mut s = ThreeSidedStats {
            pages: self.space_pages(),
            ..ThreeSidedStats::default()
        };
        if let Some(root) = self.root {
            self.stats_rec(root, 1, &mut s);
        }
        s
    }

    fn stats_rec(&self, mb: MbId, depth: usize, s: &mut ThreeSidedStats) {
        let meta = self.metas.get(mb);
        s.metablocks += 1;
        s.height = s.height.max(depth);
        s.points += meta.n_main + meta.n_upd;
        s.pending_tombs += meta.n_tomb;
        s.pst_pages += meta.org.as_ref().map_or(0, |p| p.space_pages());
        s.pst_pages += meta
            .sib
            .children_pst
            .as_ref()
            .map_or(0, |p| p.space_pages());
        if meta.is_leaf() {
            s.leaves += 1;
        }
        for c in &meta.children {
            self.stats_rec(c.mb, depth + 1, s);
        }
    }

    /// Walk the tree unbilled, assert all invariants, and return the stored
    /// points. Test/debug only.
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
        // of the physical contents (see the diagonal tree's validator).
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
            assert!(ids.insert(p.id), "duplicate id {}", p.id);
        }
        all
    }

    fn validate_rec(
        &self,
        mb: MbId,
        slab_lo: Key,
        slab_hi: Key,
        y_bound: Option<Key>,
        all: &mut Vec<Point>,
    ) {
        let meta = self.metas.get(mb);
        // Dense blocking: every run page full except the last (the merge
        // pipeline must emit exactly the runs a sort-based rebuild would).
        self.assert_dense_run(&meta.vertical, "vertical");
        self.assert_dense_run(&meta.horizontal, "horizontal");
        if let Some(ts) = &meta.sib.tsl {
            self.assert_dense_run(&ts.pages, "TSL snapshot");
        }
        if let Some(ts) = &meta.sib.tsr {
            self.assert_dense_run(&ts.pages, "TSR snapshot");
        }
        let mains = self.pages_unbilled(&meta.horizontal);
        assert_eq!(mains.len(), meta.n_main, "main count mismatch");

        let vertical = self.pages_unbilled(&meta.vertical);
        assert!(
            vertical.windows(2).all(|w| w[0].xkey() < w[1].xkey()),
            "vertical blocking out of order"
        );
        assert_eq!(
            meta.vkeys[..],
            vertical
                .chunks(self.geo.b)
                .map(|c| c[0].xkey())
                .collect::<Vec<_>>()[..],
            "stale vertical page-boundary keys"
        );
        let horizontal = &mains;
        assert!(
            horizontal.windows(2).all(|w| w[0].ykey() > w[1].ykey()),
            "horizontal blocking out of order"
        );
        assert_eq!(
            meta.hkeys[..],
            horizontal
                .chunks(self.geo.b)
                .map(|c| c[0].ykey())
                .collect::<Vec<_>>()[..],
            "stale horizontal page-top keys"
        );
        assert_eq!(meta.main_bbox, BBox::of_points(&mains), "stale main bbox");
        assert_eq!(
            meta.y_lo_main,
            mains.iter().map(Point::ykey).min(),
            "stale y_lo_main"
        );
        if let Some(pst) = &meta.org {
            let mut a: Vec<u64> = pst.collect_points_unbilled().iter().map(|p| p.id).collect();
            let mut b: Vec<u64> = mains.iter().map(|p| p.id).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "metablock PST out of sync with mains");
        } else {
            assert!(meta.n_main <= self.geo.b, "multi-block mains without a PST");
        }

        let update = self.pages_unbilled(&meta.update);
        assert_eq!(update.len(), meta.n_upd, "update count mismatch");
        assert!(
            update.len() <= self.tuning.upd_cap_pages(self.geo) * self.geo.b,
            "update buffer overfull: {} points",
            update.len()
        );
        for p in mains.iter().chain(&update) {
            assert!(
                p.xkey() >= slab_lo && p.xkey() < slab_hi,
                "point {p:?} outside slab [{slab_lo:?}, {slab_hi:?})"
            );
            if let Some(bound) = y_bound {
                assert!(p.ykey() < bound, "routing invariant violated: {p:?}");
            }
        }

        // Tombstone buffer: within budget, unique ids, and the landing
        // invariant — each tombstone's victim is an exact copy stored in
        // this same metablock's mains or update buffer.
        let tombs = self.pages_unbilled(&meta.tomb);
        assert_eq!(tombs.len(), meta.n_tomb, "tombstone count mismatch");
        assert_eq!(tombs, meta.tomb_buf, "stale tombstone control-block mirror");
        assert!(
            tombs.len() <= self.tuning.tomb_cap_pages(self.geo) * self.geo.b,
            "tombstone buffer overfull: {} tombstones",
            tombs.len()
        );
        {
            let mut seen: BTreeSet<u64> = BTreeSet::new();
            for t in &tombs {
                assert!(seen.insert(t.id), "duplicate tombstone id {}", t.id);
                assert!(
                    mains.iter().chain(&update).any(|p| p == t),
                    "tombstone {t:?} has no victim in its metablock"
                );
            }
        }

        // Per-page live counts are exact: page points minus the pending
        // tombstones of *this* metablock that match them (the landing
        // invariant colocates every tombstone with its victim).
        let tomb_ids: BTreeSet<u64> = tombs.iter().map(|t| t.id).collect();
        assert_eq!(
            meta.h_live,
            horizontal
                .chunks(self.geo.b)
                .map(|c| c.iter().filter(|p| !tomb_ids.contains(&p.id)).count() as u32)
                .collect::<Vec<_>>(),
            "stale per-page live counts"
        );

        all.extend_from_slice(&mains);
        all.extend_from_slice(&update);

        if !meta.children.is_empty() {
            assert!(meta.td.is_some(), "interior metablock without TD");
            // An emptied interior metablock is a pure router: the insert
            // and delete routings pass it by, so its buffers stay empty.
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
            self.validate_sibling_coverage(meta);
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
        } else {
            assert!(meta.td.is_none(), "leaf metablock with TD");
            assert!(meta.sib.children_pst.is_none(), "leaf with children PST");
        }
    }

    /// Packed control information is an exact mirror of the children's
    /// state: horizontal-prefix, update-page and TSL/TSR-page mirrors all
    /// match (see the diagonal tree's validator).
    fn validate_packed(&self, meta: &MetaBlock) {
        let h = self.tuning.pack_h_pages;
        if h == 0 {
            for c in &meta.children {
                assert!(c.packed.h_pages.is_empty(), "mirror while packing off");
                assert!(c.packed.upd_pages.is_empty(), "mirror while packing off");
                assert!(c.packed.tomb_pages.is_empty(), "mirror while packing off");
                assert!(c.packed.ts_pages.is_empty(), "mirror while packing off");
                assert!(c.packed.tsr_pages.is_empty(), "mirror while packing off");
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
                c.packed.upd_pages[..],
                child_meta.update[..],
                "stale packed update-page mirror"
            );
            assert_eq!(
                c.packed.tomb_pages[..],
                child_meta.tomb[..],
                "stale packed tombstone-page mirror"
            );
            match &child_meta.sib.tsl {
                Some(ts) => {
                    assert_eq!(c.packed.ts_pages, ts.pages, "stale packed TSL mirror");
                    assert_eq!(
                        c.packed.ts_truncated, ts.truncated,
                        "stale packed TSL truncation bit"
                    );
                }
                None => assert!(c.packed.ts_pages.is_empty(), "packed TSL for first child"),
            }
            match &child_meta.sib.tsr {
                Some(ts) => {
                    assert_eq!(c.packed.tsr_pages, ts.pages, "stale packed TSR mirror");
                    assert_eq!(
                        c.packed.tsr_truncated, ts.truncated,
                        "stale packed TSR truncation bit"
                    );
                }
                None => assert!(c.packed.tsr_pages.is_empty(), "packed TSR for last child"),
            }
        }
    }

    /// The coverage invariant behind the snapshot routes and the children
    /// PST: every point currently stored in a metablock's siblings (on the
    /// relevant side) is in the snapshot, outranked by its B² points, or in
    /// the parent's TD structure.
    fn validate_sibling_coverage(&self, parent: &MetaBlock) {
        let mut td_ids: BTreeSet<u64> = BTreeSet::new();
        let mut td_del_ids: BTreeSet<u64> = BTreeSet::new();
        if let Some(td) = &parent.td {
            if let Some(pst) = &td.org {
                for p in pst.collect_points_unbilled() {
                    td_ids.insert(p.id);
                }
            }
            for &pg in td.staged.iter() {
                for p in self.store.read_unbilled(pg) {
                    td_ids.insert(p.id);
                }
            }
            let mut n_del = 0usize;
            if let Some(pst) = &td.del_org {
                for t in pst.collect_points_unbilled() {
                    n_del += 1;
                    td_del_ids.insert(t.id);
                }
            }
            assert_eq!(n_del, td.n_del_built, "TD delete-side built-count stale");
            let mut staged: Vec<Point> = Vec::new();
            for &pg in td.del_staged.iter() {
                staged.extend_from_slice(self.store.read_unbilled(pg));
            }
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
        // Live child points only: a pending tombstone exempts its victim
        // from every coverage argument (queries subtract it by id), and a
        // TD delete-side id must never shadow a live point.
        let stored: Vec<Vec<Point>> = parent
            .children
            .iter()
            .map(|c| {
                let cm = self.metas.get(c.mb);
                let child_tombs: BTreeSet<u64> =
                    self.pages_unbilled(&cm.tomb).iter().map(|t| t.id).collect();
                let mut pts = self.pages_unbilled(&cm.horizontal);
                pts.extend(self.pages_unbilled(&cm.update));
                pts.retain(|p| {
                    if child_tombs.contains(&p.id) {
                        return false;
                    }
                    assert!(
                        !td_del_ids.contains(&p.id),
                        "TD delete side shadows live point {p:?}"
                    );
                    true
                });
                pts
            })
            .collect();

        let check = |ts: &TsInfo, covered: &[Vec<Point>], what: &str| {
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
                assert!(ok, "{what} coverage hole: {p:?}");
            }
        };

        for (i, c) in parent.children.iter().enumerate() {
            let cm = self.metas.get(c.mb);
            if i > 0 {
                let ts = cm.sib.tsl.as_ref().expect("non-first child has TSL");
                check(ts, &stored[..i], "TSL");
            } else {
                assert!(cm.sib.tsl.is_none(), "first child must not have TSL");
            }
            if i + 1 < parent.children.len() {
                let ts = cm.sib.tsr.as_ref().expect("non-last child has TSR");
                check(ts, &stored[i + 1..], "TSR");
            } else {
                assert!(cm.sib.tsr.is_none(), "last child must not have TSR");
            }
        }

        // Children PST coverage: every currently stored child point is in
        // the snapshot or the TD.
        if let Some(cpst) = &parent.sib.children_pst {
            let snap_ids: BTreeSet<u64> = cpst
                .collect_points_unbilled()
                .iter()
                .map(|p| p.id)
                .collect();
            for p in stored.iter().flatten() {
                assert!(
                    snap_ids.contains(&p.id) || td_ids.contains(&p.id),
                    "children PST coverage hole: {p:?}"
                );
            }
        }
    }
}
