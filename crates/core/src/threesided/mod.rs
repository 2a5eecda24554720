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
//! with [`ThreeSided`] supplying the PSTs and the two-sided snapshots.
//! Submodules: [`build`] (static construction), [`query`] (the search of
//! Lemma 4.3 / Fig. 21) and [`validate`].

mod build;
mod query;
mod validate;

pub use validate::ThreeSidedStats;

use std::sync::Arc;

use ccix_extmem::{BackendSpec, Geometry, IoCounter, Point, SortedRun, TypedStore};
use ccix_pst::ExternalPst;

use crate::bbox::Key;
use crate::tree::{sealed::Hooks, MbId, MetaBlock, Shape, Tree, TsInfo, SPACE_AUX};

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

impl Shape for ThreeSided {}

impl Hooks for ThreeSided {
    type Org = ExternalPst;
    type Sib = Sibs;

    /// A PST's pages live in its own store: a collect bills a read of each.
    fn collect_org(t: &ThreeSidedTree, pst: &ExternalPst) -> SortedRun {
        t.counter.add_reads(pst.space_pages() as u64);
        SortedRun::from_unsorted(pst.collect_points_unbilled())
    }

    /// Rebuilt in place, reusing page slots and the layout of any node
    /// whose population the fold did not move; an emptied one is dropped
    /// (its pages go with its last handle).
    fn build_td_org(t: &mut ThreeSidedTree, slot: &mut Option<Arc<ExternalPst>>, pts: SortedRun) {
        if pts.is_empty() {
            *slot = None;
        } else {
            t.rebuild_pst(slot, pts);
        }
    }

    /// A PST once the mains span more than one block (a single block is
    /// answered by scanning it), reusing the previous node layout where
    /// populations are unchanged.
    fn build_main_org(t: &mut ThreeSidedTree, m: &mut MetaBlock<ThreeSided>, by_x: &SortedRun) {
        if by_x.len() > t.geo.b {
            t.rebuild_pst(&mut m.org, SortedRun::from_sorted(by_x.to_vec()));
        } else {
            m.org = None;
        }
    }

    fn free_sib(store: &mut TypedStore<Point>, sibs: &Sibs) {
        for ts in [&sibs.tsl, &sibs.tsr].into_iter().flatten() {
            store.free_run(&ts.pages);
        }
    }

    fn install_snapshots(t: &mut ThreeSidedTree, parent: MbId, snapshots: Vec<Vec<Point>>) {
        t.install_sibling_snapshots(parent, snapshots, None);
    }

    fn build_slab(
        t: &mut ThreeSidedTree,
        pts: SortedRun,
        lo: Key,
        hi: Key,
    ) -> (MbId, Vec<Point>, Option<Key>) {
        t.build_slab(pts, lo, hi)
    }

    /// Every PST's pages: the mains', the children's and both TD sides'.
    fn aux_pages(t: &ThreeSidedTree) -> usize {
        let psts = t.metas.iter().flat_map(|m| {
            let td = m.td.as_ref();
            [&m.org, &m.sib.children_pst]
                .into_iter()
                .chain(td.map(|td| &td.org))
                .chain(td.map(|td| &td.del_org))
        });
        psts.flatten().map(|p| p.space_pages()).sum()
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

    /// Pin key-space of metablock `mb`'s own PST (`j = 0`), children PST
    /// (`j = 1`), TD PST (`j = 2`) or TD delete-side PST (`j = 3`).
    pub(crate) fn pst_space(mb: MbId, j: u32) -> u32 {
        SPACE_AUX + 4 * (mb as u32) + j
    }

    /// Rebuild the PST in `slot` over `run`, or build one where there is
    /// none, charging this tree — bill for bill as in place, even while
    /// another tree shares it (see [`ExternalPst::rebuild_shared`]).
    pub(crate) fn rebuild_pst(&self, slot: &mut Option<Arc<ExternalPst>>, run: SortedRun) {
        match slot {
            Some(pst) => ExternalPst::rebuild_shared(pst, &self.counter, self.geo, run),
            None => {
                let pst = ExternalPst::build_from_sorted(self.geo, self.counter.clone(), run);
                *slot = Some(Arc::new(pst));
            }
        }
    }
}
