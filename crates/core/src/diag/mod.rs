//! The diagonal-corner metablock tree (§3): its [`Shape`] and the parts
//! that stay its own.
//!
//! The tree's state, its write path and every reorganisation are the
//! skeleton's ([`crate::tree`]); [`Diag`] plugs in what §3 does
//! differently from §4 — Lemma 3.1 corner structures over the mains and
//! the TD, one left-sibling `TS` snapshot per non-first child, and points
//! on or above the diagonal. The static build and the validator are the
//! skeleton's too; the one submodule, [`query`], is the diagonal-corner
//! search of Theorem 3.2 / Fig. 15.

mod query;

use std::sync::Arc;

use ccix_extmem::{BackendSpec, Geometry, IoCounter, Point, SortedRun, TypedStore, YRanks};

use crate::bbox::BBox;
use crate::corner::{CornerPlan, CornerStructure};
use crate::tree::{sealed::Hooks, MetaBlock, PlanCtx, Shape, SlabPlan, Tree, TsInfo};
use crate::tuning::Tuning;

/// Ablation switches for the metablock tree's two signature design choices
/// (experiment E13 measures their effect; defaults reproduce the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiagOptions {
    /// Build and use Lemma 3.1 corner structures. When off, a metablock
    /// containing the query corner falls back to scanning its vertical
    /// blocking with a filter — correct, but the Type II cost degrades from
    /// `O(t/B)` to `O(B)` blocks.
    pub corner_structures: bool,
    /// Use the `TS` sibling snapshots (Fig. 17) to decide whether straddling
    /// left siblings are worth individual visits. When off, every straddling
    /// sibling is examined individually — correct, but a query can pay `O(B)`
    /// unbacked block reads per level instead of `O(t/B)`.
    pub ts_shortcut: bool,
}

impl Default for DiagOptions {
    fn default() -> Self {
        Self {
            corner_structures: true,
            ts_shortcut: true,
        }
    }
}

/// The diagonal tree's [`Shape`]: corner structures, one `TS` snapshot per
/// non-first child, `y ≥ x` admission, and the ablation options E13
/// measures.
#[derive(Clone, Copy, Debug, Default)]
pub struct Diag {
    pub(crate) options: DiagOptions,
}

/// What the static build plans for one diagonal node: its corner
/// structure, where the region can contain a query corner.
pub struct NodePlan(Option<CornerPlan>);

impl Shape for Diag {}

impl Hooks for Diag {
    type Org = CornerStructure;
    type Sib = Option<Arc<TsInfo>>;
    type Plan = NodePlan;
    const TWO_SIDED: bool = false;

    fn admit(&self, p: &Point) {
        assert!(p.y >= p.x, "points must lie on or above the diagonal");
    }

    fn collect_org(t: &MetablockTree, corner: &CornerStructure) -> SortedRun {
        SortedRun::from_sorted(corner.collect_points(&t.store))
    }

    fn org_points_unbilled(t: &MetablockTree, corner: &CornerStructure) -> Vec<Point> {
        corner.collect_points_unbilled(&t.store)
    }

    fn org_pages(corner: &CornerStructure) -> usize {
        corner.pages()
    }

    /// The corner's stage-2 blocking of a metablock is the metablock's own
    /// `vertical` run, freed with it; this releases the explicit sets (and
    /// a TD corner's own blocking).
    fn free_org(store: &mut TypedStore<Point>, corner: &CornerStructure) {
        corner.free_pages(store);
    }

    fn build_td_org(
        t: &mut MetablockTree,
        slot: &mut Option<Arc<CornerStructure>>,
        pts: SortedRun,
    ) {
        let alpha = t.tuning.corner_alpha;
        *slot = (!pts.is_empty()).then(|| {
            Arc::new(CornerStructure::build_from_sorted(
                &mut t.store,
                &pts,
                alpha,
            ))
        });
    }

    /// A corner structure where the metablock's region can contain a query
    /// corner: some diagonal value lies between the lowest y and the highest
    /// x of the mains, and the mains span more than one block.
    fn build_main_org(t: &mut MetablockTree, m: &mut MetaBlock<Diag>, by_x: &SortedRun) {
        m.org = match (m.main_bbox, m.y_lo_main) {
            (Some(bb), Some(ylo))
                if t.shape.options.corner_structures
                    && ylo.0 <= bb.xhi.0
                    && by_x.len() > t.geo.b =>
            {
                let alpha = t.tuning.corner_alpha;
                let corner =
                    CornerStructure::build_shared(&mut t.store, by_x, &m.order, &m.vertical, alpha);
                Some(Arc::new(corner))
            }
            _ => None,
        };
    }

    /// The same rule as [`Hooks::build_main_org`], planned off the store.
    fn plan_node(
        ctx: &PlanCtx<Diag>,
        by_x: &SortedRun,
        by_y: &YRanks,
        _children: &[SlabPlan<Diag>],
    ) -> NodePlan {
        let ylo = by_y.as_slice().last().map(|&r| by_x[r as usize].ykey());
        let corner = ctx.shape.options.corner_structures
            && by_x.len() > ctx.geo.b
            && matches!(
                (BBox::of_points(by_x), ylo),
                (Some(bb), Some(ylo)) if ylo.0 <= bb.xhi.0
            );
        let (b, alpha) = (ctx.geo.b, ctx.tuning.corner_alpha);
        NodePlan(corner.then(|| CornerPlan::plan(by_x, by_y, b, alpha)))
    }

    /// The corner structure shares `vertical`.
    fn materialise_org(t: &mut MetablockTree, m: &mut MetaBlock<Diag>, plan: &mut NodePlan) {
        m.org = plan
            .0
            .take()
            .map(|cp| Arc::new(cp.materialise(&mut t.store, m.vertical.clone(), false)));
    }

    fn snapshots(ts: &Option<Arc<TsInfo>>) -> [Option<&TsInfo>; 2] {
        [ts.as_deref(), None]
    }

    /// The new `TS` run is laid out before the old one is released.
    fn replace_snapshots(
        store: &mut TypedStore<Point>,
        ts: &mut Option<Arc<TsInfo>>,
        [left, _]: [Option<(&[Point], bool)>; 2],
    ) {
        let new = left.map(|(pts, truncated)| Arc::new(TsInfo::alloc(store, pts, truncated)));
        if let Some(old) = std::mem::replace(ts, new) {
            store.free_run(&old.pages);
        }
    }
}

/// The dynamic metablock tree for diagonal-corner queries (§3).
///
/// All points must satisfy `y ≥ x` (they encode intervals `[x, y]`, or more
/// generally lie on/above the diagonal, as the reduction of Proposition 2.2
/// produces). Ids must be unique across the tree's lifetime (a deleted id
/// may not be reused). Costs, measured on the shared counter:
///
/// * [`MetablockTree::query_into`] — `O(log_B n + t/B)` I/Os (Theorem 3.2);
/// * [`MetablockTree::insert`] — `O(log_B n + (log_B n)²/B)` amortised I/Os
///   (Theorem 3.7);
/// * [`MetablockTree::delete`] — the same amortised budget (tombstones
///   ride the insert machinery; §5's open problem, closed here);
/// * space `O(live/B)` pages (Lemma 3.4 + the occupancy shrink).
pub type MetablockTree = Tree<Diag>;

impl MetablockTree {
    /// Create an empty tree with the paper's design (default options) and
    /// the measured default [`Tuning`].
    pub fn new(geo: Geometry, counter: IoCounter) -> Self {
        Self::new_with(geo, counter, DiagOptions::default())
    }

    /// Create an empty tree with explicit ablation options.
    pub fn new_with(geo: Geometry, counter: IoCounter, options: DiagOptions) -> Self {
        Self::new_tuned(geo, counter, options, Tuning::default())
    }

    /// Create an empty tree with explicit ablation options and tuning.
    pub fn new_tuned(
        geo: Geometry,
        counter: IoCounter,
        options: DiagOptions,
        tuning: Tuning,
    ) -> Self {
        Self::new_tuned_on(&BackendSpec::Model, geo, counter, options, tuning)
    }

    /// [`MetablockTree::new_tuned`] on an explicit page backend: the point
    /// store is created via [`TypedStore::new_on`], so a
    /// [`BackendSpec::File`] tree keeps every data page mirrored in a real
    /// page file while the control blocks (metablock directory) stay in
    /// memory, exactly as the model keeps them in working storage.
    pub fn new_tuned_on(
        spec: &BackendSpec,
        geo: Geometry,
        counter: IoCounter,
        options: DiagOptions,
        tuning: Tuning,
    ) -> Self {
        Tree::empty(spec, geo, counter, Diag { options }, tuning)
    }

    /// Whether the point store mirrors its pages onto a real file.
    pub fn is_file_backed(&self) -> bool {
        self.store.is_file_backed()
    }

    /// `(cold, warm)` charged-read counts of the point store's file
    /// backend (see [`ccix_extmem::TypedStore::file_stats`]); `None` on
    /// the model backend.
    pub fn store_file_stats(&self) -> Option<(u64, u64)> {
        self.store.file_stats()
    }

    /// Empty the point store's file-backend page cache (cold-cache
    /// measurement); no-op on the model backend.
    pub fn clear_store_file_cache(&self) {
        self.store.clear_file_cache();
    }

    /// The tree's ablation options.
    pub fn options(&self) -> DiagOptions {
        self.shape.options
    }

    /// Build a tree over `points` with the paper's design (default options).
    ///
    /// # Panics
    /// Panics if any point has `y < x` or ids repeat.
    pub fn build(geo: Geometry, counter: IoCounter, points: Vec<Point>) -> Self {
        Self::build_with(geo, counter, points, DiagOptions::default())
    }

    /// Build a tree over `points` with explicit ablation options.
    ///
    /// # Panics
    /// Panics if any point has `y < x` or ids repeat.
    pub fn build_with(
        geo: Geometry,
        counter: IoCounter,
        points: Vec<Point>,
        options: DiagOptions,
    ) -> Self {
        Self::build_tuned(geo, counter, points, options, Tuning::default())
    }

    /// Build a tree over `points` with explicit ablation options and tuning.
    ///
    /// # Panics
    /// Panics if any point has `y < x` or ids repeat.
    pub fn build_tuned(
        geo: Geometry,
        counter: IoCounter,
        points: Vec<Point>,
        options: DiagOptions,
        tuning: Tuning,
    ) -> Self {
        Self::build_tuned_on(&BackendSpec::Model, geo, counter, points, options, tuning)
    }

    /// [`MetablockTree::build_tuned`] on an explicit page backend (see
    /// [`MetablockTree::new_tuned_on`]).
    ///
    /// # Panics
    /// Panics if any point has `y < x` or ids repeat.
    pub fn build_tuned_on(
        spec: &BackendSpec,
        geo: Geometry,
        counter: IoCounter,
        points: Vec<Point>,
        options: DiagOptions,
        tuning: Tuning,
    ) -> Self {
        Self::new_tuned_on(spec, geo, counter, options, tuning).bulk_load(points)
    }
}

#[cfg(test)]
mod tests {
    //! Structural sharing after a fork, checked on both shapes.

    use ccix_extmem::{PageId, Run};

    use super::*;
    use crate::tree::{ChildEntry, MbId};
    use crate::ThreeSidedTree;

    /// What the structural-sharing checks need of a tree beyond the
    /// skeleton: its validator, a query that would report `p`, and whether
    /// two copies of a block share their sibling snapshots.
    trait Shared: Sized {
        /// 4 000 points at `B = 4`: height ≥ 3, every mirror populated.
        fn shared() -> Self;
        fn check(&self);
        fn reports(&self, p: Point) -> bool;
        fn same_sib(a: &Self, b: &Self, mb: MbId) -> bool;
    }

    fn shared_points() -> Vec<Point> {
        (0..4000i64)
            .map(|i| Point::new(i, i + (i * 7) % 50, i as u64))
            .collect()
    }

    fn same<T>(a: &Option<Arc<T>>, b: &Option<Arc<T>>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    impl Shared for MetablockTree {
        fn shared() -> Self {
            Self::build(Geometry::new(4), IoCounter::new(), shared_points())
        }
        fn check(&self) {
            self.validate_unbilled();
        }
        fn reports(&self, p: Point) -> bool {
            self.query(p.y).iter().any(|q| q.id == p.id)
        }
        fn same_sib(a: &Self, b: &Self, mb: MbId) -> bool {
            same(&a.metas.get(mb).sib, &b.metas.get(mb).sib)
        }
    }

    impl Shared for ThreeSidedTree {
        fn shared() -> Self {
            Self::build(Geometry::new(4), IoCounter::new(), shared_points())
        }
        fn check(&self) {
            self.validate_unbilled();
        }
        fn reports(&self, p: Point) -> bool {
            self.query(p.x, p.x, p.y).iter().any(|q| q.id == p.id)
        }
        fn same_sib(a: &Self, b: &Self, mb: MbId) -> bool {
            let (a, b) = (&a.metas.get(mb).sib, &b.metas.get(mb).sib);
            let runs = |s: &crate::threesided::Sibs| [s.tsl.clone(), s.tsr.clone()];
            let snapshots = runs(a).into_iter().zip(runs(b)).all(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => Run::ptr_eq(&a.pages, &b.pages),
                (a, b) => a.is_none() && b.is_none(),
            });
            snapshots && same(&a.children_pst, &b.children_pst)
        }
    }

    /// The landing metablock of `p` and its root-first ancestors, by the
    /// insert routing's rule.
    fn landing<S: Shape>(tree: &Tree<S>, p: Point) -> (Vec<MbId>, MbId) {
        let (mut path, mut cur) = (Vec::new(), tree.root.expect("nonempty"));
        loop {
            let m = tree.metas.get(cur);
            if m.is_leaf() || m.y_lo_main.is_some_and(|ylo| p.ykey() >= ylo) {
                return (path, cur);
            }
            let idx = m.children.partition_point(|c| c.slab_hi <= p.xkey());
            path.push(cur);
            cur = m.children[idx].mb;
        }
    }

    fn height<S: Shape>(tree: &Tree<S>, mb: MbId) -> usize {
        let kids = &tree.metas.get(mb).children;
        1 + kids.iter().map(|c| height(tree, c.mb)).max().unwrap_or(0)
    }

    /// The five page-run mirrors of a child entry, in field order (the key
    /// and live-count mirrors have types of their own).
    fn mirrors(e: &ChildEntry) -> [&Run<PageId>; 5] {
        let p = &e.packed;
        [
            &p.h_pages,
            &p.upd_pages,
            &p.tomb_pages,
            &p.ts_pages,
            &p.tsr_pages,
        ]
    }

    fn copied_block_shares_every_run_the_write_left_alone<S: Shape>(mut tree: Tree<S>)
    where
        Tree<S>: Shared,
    {
        let fork = tree.fork_snapshot(IoCounter::new());
        // Lowest y at its x: descends to a leaf, whose empty update buffer
        // opens a fresh page — the one run that insert grows.
        let p = Point::new(2_000, 2_000, 10_000);
        let (path, target) = landing(&tree, p);
        assert!(path.len() >= 2 && tree.metas.get(target).is_leaf());
        let parent = *path.last().expect("a leaf has a parent");
        tree.insert(p);

        assert!(tree.metas.diverged(&fork.metas).contains(&parent));
        let (live, frozen) = (tree.metas.get(parent), fork.metas.get(parent));
        assert!(
            frozen.children.len() >= 3,
            "siblings beside the routed child"
        );
        // Its own runs: mains and buffers shared, only the TD staging run
        // (which the insert tracked into) grown.
        assert!(Run::ptr_eq(&live.vertical, &frozen.vertical));
        assert!(Run::ptr_eq(&live.vkeys, &frozen.vkeys));
        assert!(Run::ptr_eq(&live.horizontal, &frozen.horizontal));
        assert!(Run::ptr_eq(&live.hkeys, &frozen.hkeys));
        assert!(Run::ptr_eq(&live.update, &frozen.update));
        assert!(Run::ptr_eq(&live.tomb, &frozen.tomb));
        assert!(same(&live.org, &frozen.org) && Tree::same_sib(&tree, &fork, parent));
        let (td, frozen_td) = (live.td.as_ref().unwrap(), frozen.td.as_ref().unwrap());
        assert_eq!(td.staged.len(), frozen_td.staged.len() + 1);
        assert_eq!(td.staged[..frozen_td.staged.len()], frozen_td.staged[..]);
        assert!(Run::ptr_eq(&td.del_staged, &frozen_td.del_staged));

        // Every child's mirrors are shared, except the routed child's
        // update-page mirror — which is the child's own new run.
        let mut populated = 0;
        for (e, f) in live.children.iter().zip(&frozen.children) {
            assert_eq!(e.mb, f.mb);
            populated += mirrors(f).iter().filter(|r| !r.is_empty()).count();
            assert!(Run::ptr_eq(&e.packed.h_tops, &f.packed.h_tops));
            assert!(Run::ptr_eq(&e.packed.h_live, &f.packed.h_live));
            for (i, (a, b)) in mirrors(e).into_iter().zip(mirrors(f)).enumerate() {
                let grown = e.mb == target && i == 1;
                assert_eq!(Run::ptr_eq(a, b), !grown, "mirror {i} of child {}", e.mb);
            }
        }
        // A horizontal-prefix mirror per child, a snapshot mirror per
        // non-first.
        assert!(
            populated >= 2 * live.children.len() - 1,
            "mirrors populated"
        );
        let routed = live.children.iter().find(|e| e.mb == target).unwrap();
        let child = tree.metas.get(target);
        assert!(Run::ptr_eq(&routed.packed.upd_pages, &child.update));
        assert_eq!(child.update.len(), 1);
        assert!(fork.metas.get(target).update.is_empty());
        tree.check();
        fork.check();
    }

    fn delete_decrements_its_own_copy_of_a_mirrored_live_count<S: Shape>(mut tree: Tree<S>)
    where
        Tree<S>: Shared,
    {
        let fork = tree.fork_snapshot(IoCounter::new());
        // The top main of a leaf: the delete lands at the leaf and
        // decrements the live count of its first horizontal page, a slot
        // its parent mirrors.
        let probe = Point::new(2_000, 2_000, 10_000);
        let (path, leaf) = landing(&tree, probe);
        let parent = *path.last().expect("a leaf has a parent");
        let victim = {
            let m = tree.metas.get(leaf);
            tree.store.read_unbilled(m.horizontal[0])[0]
        };
        assert_eq!(landing(&tree, victim).1, leaf);
        let entry = |t: &Tree<S>| {
            let m = t.metas.get(parent);
            m.children.iter().find(|e| e.mb == leaf).unwrap().clone()
        };
        let before = entry(&fork).packed.h_live[0];
        tree.delete(victim);

        let (live, frozen) = (entry(&tree), entry(&fork));
        assert_eq!(live.packed.h_live[0], before - 1);
        assert_eq!(
            frozen.packed.h_live[0], before,
            "the fork's slot is untouched"
        );
        assert_eq!(fork.metas.get(leaf).h_live[0], before);
        assert!(!Run::ptr_eq(&live.packed.h_live, &frozen.packed.h_live));
        assert!(Run::ptr_eq(&live.packed.h_pages, &frozen.packed.h_pages));
        assert!(Run::ptr_eq(&live.packed.h_tops, &frozen.packed.h_tops));
        tree.check();
        fork.check();
        assert!(fork.reports(victim) && !tree.reports(victim));
    }

    fn writes_copy_only_the_control_blocks_they_touch<S: Shape>(mut tree: Tree<S>)
    where
        Tree<S>: Shared,
    {
        let height = height(&tree, tree.root.expect("nonempty"));
        assert!(tree.metas.live() > 100 && height >= 3, "{height}");
        let fork = tree.fork_snapshot(IoCounter::new());
        assert!(
            tree.metas.diverged(&fork.metas).is_empty(),
            "a fork shares all"
        );

        // k buffered writes (no reorganisation fires this early): each one
        // touches at most its descent path.
        let k = 3;
        let (p, q) = (Point::new(10, 40, 10_000), Point::new(500, 600, 10_002));
        tree.insert(p);
        tree.insert(Point::new(2_000, 2_020, 10_001));
        tree.delete(Point::new(3_999, 3_999 + (3_999 * 7) % 50, 3_999));
        let touched = tree.metas.diverged(&fork.metas);
        assert!(!touched.is_empty());
        assert!(touched.len() <= k * height, "{touched:?}");

        // A copied block still shares its mains' runs and every member
        // that is only ever replaced wholesale.
        for &mb in &touched {
            let (live, frozen) = (tree.metas.get(mb), fork.metas.get(mb));
            assert!(Run::ptr_eq(&live.vertical, &frozen.vertical));
            assert!(Run::ptr_eq(&live.horizontal, &frozen.horizontal));
            assert!(Run::ptr_eq(&live.vkeys, &frozen.vkeys));
            assert!(Run::ptr_eq(&live.hkeys, &frozen.hkeys));
            assert!(same(&live.org, &frozen.org), "organisation of {mb} copied");
            assert!(Tree::same_sib(&tree, &fork, mb), "snapshots of {mb} copied");
            if let (Some(a), Some(b)) = (&live.td, &frozen.td) {
                assert!(same(&a.org, &b.org) && same(&a.del_org, &b.del_org), "{mb}");
            }
        }

        // A fork of the mutated tree, mutated again, leaves all three with
        // their own contents.
        let mut second = tree.fork_snapshot(IoCounter::new());
        second.insert(q);
        assert_eq!((fork.len(), tree.len(), second.len()), (4000, 4001, 4002));
        assert!(!fork.reports(p) && tree.reports(p));
        assert!(!tree.reports(q) && second.reports(q));
        fork.check();
        tree.check();
        second.check();
    }

    #[test]
    fn a_copied_control_block_shares_every_run_the_write_left_alone() {
        copied_block_shares_every_run_the_write_left_alone(MetablockTree::shared());
        copied_block_shares_every_run_the_write_left_alone(ThreeSidedTree::shared());
    }

    #[test]
    fn a_delete_decrements_its_own_copy_of_a_mirrored_live_count() {
        delete_decrements_its_own_copy_of_a_mirrored_live_count(MetablockTree::shared());
        delete_decrements_its_own_copy_of_a_mirrored_live_count(ThreeSidedTree::shared());
    }

    #[test]
    fn writes_after_a_fork_copy_only_the_control_blocks_they_touch() {
        writes_copy_only_the_control_blocks_they_touch(MetablockTree::shared());
    }

    #[test]
    fn a_three_sided_fork_copies_only_the_control_blocks_its_writes_touch() {
        writes_copy_only_the_control_blocks_they_touch(ThreeSidedTree::shared());
    }
}
