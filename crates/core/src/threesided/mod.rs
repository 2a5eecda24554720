//! The 3-sided metablock tree (§4, Lemmas 4.3 and 4.4).
//!
//! Answers **3-sided queries** — report every point with `x1 ≤ x ≤ x2` and
//! `y ≥ y0` — in `O(log_B n + t/B + log2 B)` I/Os, `O(n/B)` pages, with
//! amortised `O(log_B n + (log2B n)/B)`-style insertion, mirroring §3.2.
//!
//! The skeleton is the metablock tree of §3; the paper adapts it by
//! replacing the corner structures (which assume a corner on the diagonal)
//! with Lemma 4.1 priority search trees, and by handling the five
//! differences it lists for 3-sided queries (Fig. 20):
//!
//! 1./2. corners anywhere → each metablock carries an [`ExternalPst`] over
//!   its mains, so a metablock straddling the query bottom answers in
//!   `O(log2 B² + t/B)`;
//! 3. two vertical sides in one metablock → the vertical blocking plus its
//!   page-boundary keys locate the x-range directly;
//! 4. the sides fall on two children of the same parent → every interior
//!   metablock keeps a **children PST** over the `O(B³)` points of its
//!   children (queried at most once per search: at the fork);
//! 5. queries can open to the left *or* right → each child keeps **two** TS
//!   snapshots, `TSL` over its left siblings and `TSR` over its right
//!   siblings.
//!
//! Insertions, deletions and every reorganisation are the skeleton's
//! ([`crate::tree`]) — Lemma 4.4's proof "parallels that of Lemma 3.6" —
//! with [`ThreeSided`] supplying the PSTs and the two-sided snapshots; so
//! are the static build and the validator. The one submodule, [`query`],
//! is the search of Lemma 4.3 / Fig. 21.

#[cfg(test)]
mod pins;
mod query;

use std::sync::Arc;

use ccix_extmem::{BackendSpec, Geometry, IoCounter, Point, SortedRun, TypedStore, YRanks};
use ccix_pst::{ExternalPst, PstPlan};

use crate::tree::{
    sealed::Hooks, Children, MbId, MetaBlock, PlanCtx, Shape, SlabPlan, Tree, TsInfo, SPACE_AUX,
};

/// The 3-sided tree's [`Shape`]: Lemma 4.1 PSTs over the mains and the TD,
/// two sibling snapshots per child and a children PST per interior
/// metablock (Fig. 20's differences 1–5).
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreeSided;

/// A 3-sided metablock's sibling members.
#[derive(Clone, Debug, Default)]
pub struct Sibs {
    /// Snapshot of the top `B²` points of the left siblings.
    pub(crate) tsl: Option<TsInfo>,
    /// Snapshot of the top `B²` points of the right siblings.
    pub(crate) tsr: Option<TsInfo>,
    /// Interior only: PST over all children's snapshot points (≤ `B³`).
    pub(crate) children_pst: Option<Arc<ExternalPst>>,
}

/// What the static build plans for one 3-sided node.
pub struct NodePlan {
    /// The Lemma 4.1 PST over the mains (absent for ≤ B mains).
    pst: Option<PstPlan>,
    /// Interior only: the children PST over every child's mains.
    children_pst: Option<PstPlan>,
}

impl Shape for ThreeSided {}

impl Hooks for ThreeSided {
    type Org = ExternalPst;
    type Sib = Sibs;
    type Plan = NodePlan;
    const TWO_SIDED: bool = true;

    /// A PST's pages live in its own store: a collect bills a read of each.
    fn collect_org(t: &ThreeSidedTree, pst: &ExternalPst) -> SortedRun {
        t.counter.add_reads(pst.space_pages() as u64);
        SortedRun::from_unsorted(pst.collect_points_unbilled())
    }

    fn org_points_unbilled(_t: &ThreeSidedTree, pst: &ExternalPst) -> Vec<Point> {
        pst.collect_points_unbilled()
    }

    fn org_pages(pst: &ExternalPst) -> usize {
        pst.space_pages()
    }

    /// Rebuilt in place, reusing page slots and the layout of any node
    /// whose population the fold did not move; an emptied one is dropped
    /// (its pages go with its last handle). A TD is no metablock's mains
    /// and keeps no order, so this is the one rebuild of the tree that
    /// argsorts its y-order from scratch.
    fn build_td_org(t: &mut ThreeSidedTree, slot: &mut Option<Arc<ExternalPst>>, pts: SortedRun) {
        if pts.is_empty() {
            *slot = None;
        } else {
            t.rebuild_pst(slot, &pts, [&YRanks::argsort(&pts)]);
        }
    }

    /// A PST once the mains span more than one block (a single block is
    /// answered by scanning it), reusing the previous node layout where
    /// populations are unchanged.
    fn build_main_org(t: &mut ThreeSidedTree, m: &mut MetaBlock<ThreeSided>, by_x: &SortedRun) {
        if by_x.len() > t.geo.b {
            t.rebuild_pst(&mut m.org, by_x, [&m.order]);
        } else {
            m.org = None;
        }
    }

    /// The mains' PST by the rule of [`Hooks::build_main_org`], and the
    /// children PST over every child's mains (≤ B³). Children slabs are
    /// x-disjoint and in slab order, so concatenating their sorted mains is
    /// already sorted, and the planner takes their y-orders as its parts —
    /// no sort and no merge before planning.
    fn plan_node(
        ctx: &PlanCtx<ThreeSided>,
        by_x: &SortedRun,
        by_y: &YRanks,
        children: &[SlabPlan<ThreeSided>],
    ) -> NodePlan {
        let geo = ctx.geo;
        let pst = (by_x.len() > geo.b).then(|| PstPlan::plan(geo, by_x, [by_y]));
        let children_pst = (!children.is_empty()).then(|| {
            let all = children.iter().flat_map(|c| c.mains_x.iter().copied());
            let run = SortedRun::from_sorted(all.collect());
            PstPlan::plan(geo, &run, children.iter().map(|c| &c.mains_order))
        });
        NodePlan { pst, children_pst }
    }

    fn materialise_org(t: &mut ThreeSidedTree, m: &mut MetaBlock<ThreeSided>, plan: &mut NodePlan) {
        m.org = plan
            .pst
            .take()
            .map(|plan| Arc::new(ExternalPst::from_plan(t.geo, t.counter.clone(), plan)));
    }

    fn snapshots(sibs: &Sibs) -> [Option<&TsInfo>; 2] {
        [sibs.tsl.as_ref(), sibs.tsr.as_ref()]
    }

    /// Both old runs are released before the new ones are laid out.
    fn replace_snapshots(
        store: &mut TypedStore<Point>,
        sibs: &mut Sibs,
        new: [Option<(&[Point], bool)>; 2],
    ) {
        for ts in [sibs.tsl.take(), sibs.tsr.take()].into_iter().flatten() {
            store.free_run(&ts.pages);
        }
        let [tsl, tsr] =
            new.map(|side| side.map(|(pts, truncated)| TsInfo::alloc(store, pts, truncated)));
        (sibs.tsl, sibs.tsr) = (tsl, tsr);
    }

    fn children_org(sibs: &Sibs) -> Option<&ExternalPst> {
        sibs.children_pst.as_deref()
    }

    /// The children PST over every child's snapshot points (≤ B³). This
    /// one is deliberately uncapped: the fork-node route answers from it
    /// alone, so it must cover every sibling point. A static build
    /// materialises its plan; a TS reorganisation rebuilds it in place over
    /// the merged children, planning over their y-orders as x-disjoint
    /// parts: no sort and no merge of up to B³ points.
    fn install_children_org(
        t: &mut ThreeSidedTree,
        parent: MbId,
        children: Children<'_, NodePlan>,
    ) {
        let mut pm = t.take_meta(parent);
        match children {
            Children::Planned(plan) => {
                debug_assert!(pm.sib.children_pst.is_none(), "planned PST over a live one");
                let plan = plan
                    .children_pst
                    .expect("an interior node plans its children PST");
                let pst = ExternalPst::from_plan(t.geo, t.counter.clone(), plan);
                pm.sib.children_pst = Some(Arc::new(pst));
            }
            Children::Merged { run, orders } => {
                t.rebuild_pst(&mut pm.sib.children_pst, run, orders);
            }
        }
        t.put_meta(parent, pm);
    }

    /// The mains' PST holds exactly the mains; only single-block mains go
    /// without one.
    fn check_main_org(t: &ThreeSidedTree, m: &MetaBlock<ThreeSided>, mains: &[Point]) {
        if let Some(pst) = &m.org {
            let mut a: Vec<u64> = pst.collect_points_unbilled().iter().map(|p| p.id).collect();
            let mut b: Vec<u64> = mains.iter().map(|p| p.id).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "metablock PST out of sync with mains");
        } else {
            assert!(m.n_main <= t.geo.b, "multi-block mains without a PST");
        }
    }

    /// Every PST's pages: the mains', the children's and both TD sides'.
    fn aux_pages(t: &ThreeSidedTree) -> usize {
        t.psts().map(ExternalPst::space_pages).sum()
    }
}

/// The dynamic 3-sided metablock tree (§4).
///
/// Points may lie anywhere in the plane; ids must be unique across the
/// tree's lifetime (a deleted id may not be reused). Costs on the shared
/// counter:
///
/// * [`ThreeSidedTree::query_into`] — `O(log_B n + t/B + log2 B)` I/Os
///   (Lemma 4.3);
/// * [`ThreeSidedTree::insert`] — `O(log_B n + (log2B n)/B)` amortised I/Os
///   (Lemma 4.4);
/// * [`ThreeSidedTree::delete`] — the same amortised budget (tombstones
///   ride the insert machinery; §5's open problem, closed here);
/// * space `O(live/B)` pages.
pub type ThreeSidedTree = Tree<ThreeSided>;

impl ThreeSidedTree {
    /// Create an empty tree with the measured default [`crate::Tuning`].
    pub fn new(geo: Geometry, counter: IoCounter) -> Self {
        Self::new_tuned(geo, counter, crate::Tuning::default())
    }

    /// Create an empty tree with explicit tuning (the corner-structure knob
    /// is unused here; §4 replaces corner structures with PSTs).
    pub fn new_tuned(geo: Geometry, counter: IoCounter, tuning: crate::Tuning) -> Self {
        Tree::empty(&BackendSpec::Model, geo, counter, ThreeSided, tuning)
    }

    /// Build a tree over `points` (anywhere in the plane; unique ids) with
    /// the measured default [`crate::Tuning`].
    pub fn build(geo: Geometry, counter: IoCounter, points: Vec<Point>) -> Self {
        Self::build_tuned(geo, counter, points, crate::Tuning::default())
    }

    /// As [`ThreeSidedTree::build`], with explicit tuning.
    ///
    /// # Panics
    /// Panics if ids repeat.
    pub fn build_tuned(
        geo: Geometry,
        counter: IoCounter,
        points: Vec<Point>,
        tuning: crate::Tuning,
    ) -> Self {
        Self::new_tuned(geo, counter, tuning).bulk_load(points)
    }

    /// Every PST of the tree, metablock by metablock in slot order: the
    /// mains', the children's and the TD's insert and delete sides.
    /// Uncharged; for space walks and the page pins.
    pub fn psts(&self) -> impl Iterator<Item = &ExternalPst> {
        let slots = self.metas.iter().flat_map(|m| {
            let td = m.td.as_ref();
            [&m.org, &m.sib.children_pst]
                .into_iter()
                .chain(td.map(|td| &td.org))
                .chain(td.map(|td| &td.del_org))
        });
        slots.flatten().map(|pst| &**pst)
    }

    /// Pin key-space of metablock `mb`'s own PST (`j = 0`), children PST
    /// (`j = 1`), TD PST (`j = 2`) or TD delete-side PST (`j = 3`).
    pub(crate) fn pst_space(mb: MbId, j: u32) -> u32 {
        SPACE_AUX + 4 * (mb as u32) + j
    }

    /// Rebuild the PST in `slot` over `run` and its y-order, given as the
    /// orders of x-disjoint `parts` laid end to end (see [`PstPlan::plan`]),
    /// or build one where there is none, charging this tree — bill for
    /// bill as in place, even while another tree shares it (see
    /// [`ExternalPst::rebuild_shared`]).
    pub(crate) fn rebuild_pst<'a>(
        &self,
        slot: &mut Option<Arc<ExternalPst>>,
        run: &SortedRun,
        parts: impl IntoIterator<Item = &'a YRanks>,
    ) {
        let plan = PstPlan::plan(self.geo, run, parts);
        match slot {
            Some(pst) => ExternalPst::rebuild_planned(pst, &self.counter, plan),
            None => {
                let pst = ExternalPst::from_plan(self.geo, self.counter.clone(), plan);
                *slot = Some(Arc::new(pst));
            }
        }
    }
}
