//! Unbilled invariant checking and shape statistics.
//!
//! [`MetablockTree::validate_unbilled`] walks the whole structure without
//! touching the I/O counters and asserts every invariant the query
//! correctness argument relies on. Tests call it after randomized workloads;
//! it is the executable form of the structural claims of §3.

use std::collections::BTreeSet;

use ccix_extmem::Point;

use super::{Diag, MetablockTree};
use crate::bbox::{BBox, Key};
use crate::tree::MbId;

type MetaBlock = crate::tree::MetaBlock<Diag>;

/// Shape statistics of a metablock tree (experiment E11 / Figs. 8–10).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiagStats {
    /// Total metablocks.
    pub metablocks: usize,
    /// Leaf metablocks.
    pub leaves: usize,
    /// Height in metablock levels.
    pub height: usize,
    /// Data pages plus one control block per metablock.
    pub pages: usize,
    /// Points stored (mains + update blocks).
    pub points: usize,
    /// Points held in update blocks awaiting a level-I reorganisation.
    pub pending_updates: usize,
    /// Tombstones held in tombstone buffers awaiting cancellation (each
    /// shadows one stored, logically deleted point counted in `points`).
    pub pending_tombs: usize,
    /// Pages used by TS snapshots.
    pub ts_pages: usize,
    /// Pages used by corner structures.
    pub corner_pages: usize,
}

impl MetablockTree {
    /// Compute shape statistics without charging I/Os.
    pub fn stats(&self) -> DiagStats {
        let mut s = DiagStats {
            pages: self.space_pages(),
            ..DiagStats::default()
        };
        if let Some(root) = self.root {
            self.stats_rec(root, 1, &mut s);
        }
        s
    }

    fn stats_rec(&self, mb: MbId, depth: usize, s: &mut DiagStats) {
        let meta = self.metas.get(mb);
        s.metablocks += 1;
        s.height = s.height.max(depth);
        s.points += meta.n_main + meta.n_upd;
        s.pending_updates += meta.n_upd;
        s.pending_tombs += meta.n_tomb;
        if let Some(ts) = &meta.sib {
            s.ts_pages += ts.pages.len();
        }
        if let Some(c) = &meta.org {
            s.corner_pages += c.pages();
        }
        if let Some(td) = &meta.td {
            if let Some(c) = &td.org {
                s.corner_pages += c.pages();
            }
            if let Some(c) = &td.del_org {
                s.corner_pages += c.pages();
            }
        }
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
            assert!(p.y >= p.x, "point below the diagonal: {p:?}");
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
        let mains = self.mains_unbilled(meta);
        assert_eq!(mains.len(), meta.n_main, "main count mismatch");
        assert!(
            mains.len() <= 2 * self.cap() + self.tuning.upd_cap_pages(self.geo) * self.geo.b,
            "metablock overfull: {}",
            mains.len()
        );

        // Blockings hold the same multiset, in the right orders, densely
        // packed (every page full except the last — the merge pipeline must
        // emit the same runs a sort-based rebuild would).
        self.assert_dense_run(&meta.vertical, "vertical");
        self.assert_dense_run(&meta.horizontal, "horizontal");
        if let Some(ts) = &meta.sib {
            self.assert_dense_run(&ts.pages, "TS snapshot");
        }
        let vertical = self.pages_unbilled(&meta.vertical);
        assert!(
            vertical.windows(2).all(|w| w[0].xkey() < w[1].xkey()),
            "vertical blocking out of order"
        );
        assert_eq!(
            &meta.vkeys[..],
            vertical
                .chunks(self.geo.b)
                .map(|c| c[0].xkey())
                .collect::<Vec<_>>(),
            "stale vertical page-boundary keys"
        );
        let horizontal = self.pages_unbilled(&meta.horizontal);
        assert!(
            horizontal.windows(2).all(|w| w[0].ykey() > w[1].ykey()),
            "horizontal blocking out of order"
        );
        assert_eq!(
            &meta.hkeys[..],
            horizontal
                .chunks(self.geo.b)
                .map(|c| c[0].ykey())
                .collect::<Vec<_>>(),
            "stale horizontal page-top keys"
        );
        let mut a: Vec<u64> = vertical.iter().map(|p| p.id).collect();
        let mut b: Vec<u64> = horizontal.iter().map(|p| p.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "vertical and horizontal blockings disagree");

        // Cached summaries are exact.
        assert_eq!(meta.main_bbox, BBox::of_points(&mains), "stale main bbox");
        assert_eq!(
            meta.y_lo_main,
            mains.iter().map(Point::ykey).min(),
            "stale y_lo_main"
        );

        // Slab containment for every stored point (mains + updates).
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

        // Children: contiguous slabs covering this slab, cached entries
        // exact, TS coverage sound.
        if !meta.children.is_empty() {
            assert!(meta.td.is_some(), "internal metablock without TD");
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
            assert!(
                meta.children.len() < 2 * self.geo.b + 1,
                "branching factor overflow: {}",
                meta.children.len()
            );
            self.validate_ts_coverage(meta);

            self.validate_packed(meta);

            let y_lo = meta.y_lo_main;
            for c in &meta.children {
                let child_meta = self.metas.get(c.mb);
                let child_mains = self.mains_unbilled(child_meta);
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
        }
    }

    /// The query's TS coverage argument, as an invariant: for every child
    /// with a TS snapshot, every **live** point currently stored in its left
    /// siblings is either in the snapshot, outranked by the snapshot's B²
    /// points, or present in the parent's TD structure. Points shadowed by
    /// a pending tombstone are exempt (queries subtract them by id), and
    /// ids on the TD's delete side must never shadow a live point.
    fn validate_ts_coverage(&self, parent: &MetaBlock) {
        let mut td_ids: BTreeSet<u64> = BTreeSet::new();
        let mut td_del_ids: BTreeSet<u64> = BTreeSet::new();
        if let Some(td) = &parent.td {
            if let Some(c) = &td.org {
                for p in c.collect_points_unbilled(&self.store) {
                    td_ids.insert(p.id);
                }
            }
            for &pg in td.staged.iter() {
                for p in self.store.read_unbilled(pg) {
                    td_ids.insert(p.id);
                }
            }
            let mut n_del = 0usize;
            if let Some(c) = &td.del_org {
                let pts = c.collect_points_unbilled(&self.store);
                n_del += pts.len();
                for t in pts {
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
        let mut left_points: Vec<Point> = Vec::new();
        for (i, c) in parent.children.iter().enumerate() {
            let child_meta = self.metas.get(c.mb);
            let child_tombs: BTreeSet<u64> = self
                .pages_unbilled(&child_meta.tomb)
                .iter()
                .map(|t| t.id)
                .collect();
            if i > 0 {
                let ts = child_meta.sib.as_ref().expect("non-first child has TS");
                let ts_points = self.pages_unbilled(&ts.pages);
                assert_eq!(ts_points.len(), ts.n, "TS count mismatch");
                assert!(
                    ts_points.windows(2).all(|w| w[0].ykey() > w[1].ykey()),
                    "TS snapshot out of order"
                );
                assert!(
                    ts.n <= self.tuning.ts_cap_points(self.geo),
                    "TS snapshot too large"
                );
                let ts_ids: BTreeSet<u64> = ts_points.iter().map(|p| p.id).collect();
                let ts_min = ts_points.last().map(Point::ykey);
                for p in &left_points {
                    let covered = ts_ids.contains(&p.id)
                        || td_ids.contains(&p.id)
                        || (ts.truncated && ts_min.is_some_and(|m| p.ykey() < m));
                    assert!(
                        covered,
                        "TS coverage hole: point {p:?} invisible to child {i}"
                    );
                }
            } else {
                assert!(child_meta.sib.is_none(), "first child must not have TS");
            }
            for p in self
                .mains_unbilled(child_meta)
                .into_iter()
                .chain(self.pages_unbilled(&child_meta.update))
            {
                // A pending tombstone exempts its victim from coverage and
                // a TD delete-side id must belong to a deleted point.
                if child_tombs.contains(&p.id) {
                    continue;
                }
                assert!(
                    !td_del_ids.contains(&p.id),
                    "TD delete side shadows live point {p:?}"
                );
                left_points.push(p);
            }
        }
    }

    /// Packed control information is an exact mirror of the children's
    /// state: horizontal-prefix, update-page and TS-page mirrors all match.
    fn validate_packed(&self, meta: &MetaBlock) {
        let h = self.tuning.pack_h_pages;
        if h == 0 {
            for c in &meta.children {
                assert!(c.packed.h_pages.is_empty(), "mirror while packing off");
                assert!(c.packed.upd_pages.is_empty(), "mirror while packing off");
                assert!(c.packed.tomb_pages.is_empty(), "mirror while packing off");
                assert!(c.packed.ts_pages.is_empty(), "mirror while packing off");
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
            match &child_meta.sib {
                Some(ts) => {
                    assert_eq!(c.packed.ts_pages, ts.pages, "stale packed TS mirror");
                    assert_eq!(
                        c.packed.ts_truncated, ts.truncated,
                        "stale packed TS truncation bit"
                    );
                }
                None => assert!(c.packed.ts_pages.is_empty(), "packed TS for first child"),
            }
        }
    }

    fn mains_unbilled(&self, meta: &MetaBlock) -> Vec<Point> {
        self.pages_unbilled(&meta.horizontal)
    }
}
