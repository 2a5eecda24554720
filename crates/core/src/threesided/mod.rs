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
//! Insertions replace the TD corner structure with a TD priority search
//! tree; level-I/II reorganisations and branching splits carry over
//! unchanged (Lemma 4.4).

mod apply;
mod build;
mod delete;
mod insert;
mod query;
mod reorg;
mod validate;

pub use validate::ThreeSidedStats;

use std::sync::Arc;

use ccix_extmem::{Geometry, IoCounter, PageId, Point, Run, Slots, SortedRun, TypedStore};
use ccix_pst::ExternalPst;

use crate::bbox::{BBox, Key};
use crate::diag::{entry_mut, ChildEntry, MbId, ReadCtx, TsInfo, SPACE_AUX, SPACE_STORE};

/// TD insert-tracking structure of an interior metablock: the points
/// inserted into its children since the last TS reorganisation, queryable as
/// a PST plus a staging area of at most
/// [`crate::Tuning::td_cap_pages`] pages.
///
/// Deletions add the mirror-image **delete side** (see the diagonal tree's
/// [`crate::diag`] TD): tombstones routed into the children since the last
/// TS reorganisation, queryable as a PST so snapshot-answered routes (TSL/
/// TSR crossing case, children-PST fork) can subtract deletes younger than
/// the copies they report from.
#[derive(Clone, Debug, Default)]
pub(crate) struct TsTd {
    pub pst: Option<Arc<ExternalPst>>,
    pub n_built: usize,
    pub staged: Run<PageId>,
    pub n_staged: usize,
    /// PST over the settled tombstones.
    pub del_pst: Option<Arc<ExternalPst>>,
    pub n_del_built: usize,
    /// Tombstone staging pages.
    pub del_staged: Run<PageId>,
    pub n_del_staged: usize,
    /// Control-block mirror of the `del_staged` pages' contents (see the
    /// diagonal tree's `TdInfo::del_staged_buf`): snapshot-answered routes
    /// subtract these pending deletes for free; the pages stay
    /// authoritative for the TD fold.
    pub del_staged_buf: Vec<Point>,
}

impl TsTd {
    pub fn total(&self) -> usize {
        self.n_built + self.n_staged
    }

    /// Pending tombstones tracked on the delete side.
    pub fn del_total(&self) -> usize {
        self.n_del_built + self.n_del_staged
    }
}

/// One metablock of the 3-sided tree, copy-on-write at member granularity
/// exactly like the diagonal tree's [`crate::diag::MetaBlock`]: runs are
/// shared [`Run`]s and the PSTs shared handles, every one replaced
/// wholesale, so copying a block an epoch still holds copies a handful of
/// words and the buffers one operation edits in place.
#[derive(Clone, Debug)]
pub(crate) struct TsMeta {
    /// Mains, x-sorted, `B` per page.
    pub vertical: Run<PageId>,
    /// First x-key of each vertical page (control info: "boundary values").
    pub vkeys: Run<Key>,
    /// Mains, y-descending, `B` per page.
    pub horizontal: Run<PageId>,
    /// First (largest) y-key of each horizontal page.
    pub hkeys: Run<Key>,
    /// Live (un-tombstoned) count of each horizontal page, decremented as
    /// routed tombstones shadow main points; queries skip a fully-dead
    /// page (the post-delete-flood stabbing fix — see the diagonal tree).
    pub h_live: Vec<u32>,
    pub n_main: usize,
    pub y_lo_main: Option<Key>,
    pub main_bbox: Option<BBox>,
    /// Lemma 4.1 structure over the mains (absent for ≤ B mains, where the
    /// single vertical block is scanned instead).
    pub pst: Option<Arc<ExternalPst>>,
    /// Update buffer: buffered inserts, at most
    /// [`crate::Tuning::upd_cap_pages`] pages of `B`.
    pub update: Run<PageId>,
    pub n_upd: usize,
    /// Tombstone buffer: buffered deletes, at most
    /// [`crate::Tuning::tomb_cap_pages`] pages of `B`; the landing
    /// invariant keeps each tombstone next to its victim (see the diagonal
    /// tree's tombstone buffer).
    pub tomb: Run<PageId>,
    pub n_tomb: usize,
    /// Control-block mirror of the `tomb` pages' contents (see the diagonal
    /// tree's `MetaBlock::tomb_buf`): bounded by `tomb_cap_pages · B`
    /// points, it lets queries subtract pending deletes for free instead of
    /// paying one read per pending tombstone page. The pages stay
    /// authoritative for every reorganisation merge.
    pub tomb_buf: Vec<Point>,
    /// Snapshot of the top `B²` points of the left siblings.
    pub tsl: Option<TsInfo>,
    /// Snapshot of the top `B²` points of the right siblings.
    pub tsr: Option<TsInfo>,
    /// Interior only: PST over all children's snapshot points (≤ `B³`).
    pub children_pst: Option<Arc<ExternalPst>>,
    /// Interior only: TD insert tracking.
    pub td: Option<TsTd>,
    pub children: Vec<ChildEntry>,
}

impl TsMeta {
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
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
#[derive(Debug)]
pub struct ThreeSidedTree {
    pub(crate) geo: Geometry,
    pub(crate) counter: IoCounter,
    pub(crate) store: TypedStore<Point>,
    /// Control blocks, shared with every [`ThreeSidedTree::fork_snapshot`]
    /// taken since a block last changed (see the diagonal tree's).
    pub(crate) metas: Slots<TsMeta>,
    pub(crate) root: Option<MbId>,
    pub(crate) len: usize,
    /// Tombstones currently buffered somewhere in the tree.
    pub(crate) tombs_pending: usize,
    /// Deletes absorbed since the last full (re)build (shrink trigger).
    pub(crate) deletes_since_shrink: usize,
    /// Tree size at the last full (re)build.
    pub(crate) shrink_base: usize,
    pub(crate) tuning: crate::Tuning,
    /// Incremental-reorganisation state: deferred-work debt plus the
    /// in-progress background shrink job, if any (see [`crate::diag::reorg`]).
    pub(crate) reorg: crate::diag::reorg::ReorgState,
}

impl ThreeSidedTree {
    /// Create an empty tree with the measured default [`crate::Tuning`].
    pub fn new(geo: Geometry, counter: IoCounter) -> Self {
        Self::new_tuned(geo, counter, crate::Tuning::default())
    }

    /// Create an empty tree with explicit tuning (the corner-structure knob
    /// is unused here; §4 replaces corner structures with PSTs).
    pub fn new_tuned(geo: Geometry, counter: IoCounter, tuning: crate::Tuning) -> Self {
        Self {
            geo,
            counter: counter.clone(),
            store: TypedStore::new(geo.b, counter),
            metas: Slots::default(),
            root: None,
            len: 0,
            tombs_pending: 0,
            deletes_since_shrink: 0,
            shrink_base: 0,
            tuning,
            reorg: crate::diag::reorg::ReorgState::default(),
        }
    }

    /// Fork a frozen read **snapshot** of this tree, charging its I/O to
    /// `counter` — [`crate::MetablockTree::fork_snapshot`]'s `O(dirty)` fork:
    /// every data page, control block and PST is shared by handle, and a
    /// write on either side copies only what it touches. Queries bill a
    /// shared PST's pages through the reading tree's pin, and a rebuild
    /// forks it onto the rebuilding tree's counter.
    pub fn fork_snapshot(&self, counter: IoCounter) -> Self {
        Self {
            counter: counter.clone(),
            store: self.store.fork(counter),
            metas: self.metas.clone(),
            reorg: self.reorg.clone(),
            ..*self
        }
    }

    /// The tree's write-path tuning.
    pub fn tuning(&self) -> crate::Tuning {
        self.tuning
    }

    /// Number of points stored (inserts minus deletes).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logically deleted points whose tombstones are still pending
    /// cancellation (see [`crate::MetablockTree::pending_deletes`]).
    pub fn pending_deletes(&self) -> usize {
        self.tombs_pending
    }

    /// Block geometry.
    pub fn geometry(&self) -> Geometry {
        self.geo
    }

    /// The shared I/O counter.
    pub fn counter(&self) -> &IoCounter {
        &self.counter
    }

    /// Disk blocks occupied: data pages, PST pages, plus one control block
    /// per metablock.
    pub fn space_pages(&self) -> usize {
        let psts = self.metas.iter().flat_map(|m| {
            let td = m.td.as_ref();
            [&m.pst, &m.children_pst]
                .into_iter()
                .chain(td.map(|td| &td.pst))
                .chain(td.map(|td| &td.del_pst))
        });
        let pst_pages: usize = psts.flatten().map(|p| p.space_pages()).sum();
        self.store.pages_in_use() + self.metas.live() + pst_pages
    }

    // ---- control information (charged) -----------------------------------

    pub(crate) fn meta(&self, mb: MbId) -> &TsMeta {
        self.counter.add_reads(1);
        self.metas.get(mb)
    }

    pub(crate) fn take_meta(&mut self, mb: MbId) -> TsMeta {
        self.counter.add_reads(1);
        self.metas.take(mb)
    }

    pub(crate) fn put_meta(&mut self, mb: MbId, meta: TsMeta) {
        self.counter.add_writes(1);
        self.metas.put(mb, meta);
    }

    // ---- pinned query-side access ----------------------------------------

    /// Fresh read context for one query-side operation (or one batch);
    /// with [`crate::Tuning::resident_root`], the root control block starts
    /// resident (see the diagonal tree).
    pub(crate) fn read_ctx(&self) -> ReadCtx {
        let resident = self.root.filter(|_| self.tuning.resident_root);
        ReadCtx::new(self.geo, self.counter.clone(), resident)
    }

    /// Pinned control-block read: one I/O per residency in `ctx`.
    pub(crate) fn ctx_meta(&self, ctx: &mut ReadCtx, mb: MbId) -> &TsMeta {
        ctx.touch_meta(mb);
        self.metas.get(mb)
    }

    /// Pinned data-page read: one I/O per residency in `ctx`.
    pub(crate) fn ctx_read(&self, ctx: &mut ReadCtx, pg: PageId) -> &[Point] {
        self.store.read_pinned(&mut ctx.pin, SPACE_STORE, pg)
    }

    /// Pin key-space of metablock `mb`'s own PST (`j = 0`), children PST
    /// (`j = 1`), TD PST (`j = 2`) or TD delete-side PST (`j = 3`).
    pub(crate) fn pst_space(mb: MbId, j: u32) -> u32 {
        SPACE_AUX + 4 * (mb as u32) + j
    }

    /// Pinned read for one multi-step operation; see the diagonal tree's
    /// [`crate::MetablockTree::pin_meta`] for the accounting argument.
    pub(crate) fn pin_meta(&self, pinned: &mut Vec<MbId>, mb: MbId) -> &TsMeta {
        if !pinned.contains(&mb) {
            self.counter.add_reads(1);
            pinned.push(mb);
        }
        self.metas.get(mb)
    }

    /// Charge one write per distinct dirty control block of a pinned
    /// operation.
    pub(crate) fn flush_dirty(&self, dirty: &[MbId]) {
        self.counter.add_writes(dirty.len() as u64);
    }

    pub(crate) fn alloc_meta(&mut self, meta: TsMeta) -> MbId {
        self.counter.add_writes(1);
        self.metas.push(meta)
    }

    /// Free a metablock's control block and every data page it owns; its
    /// PSTs own their pages, released with their last handle.
    pub(crate) fn free_metablock(&mut self, mb: MbId) -> Arc<TsMeta> {
        let meta = self.metas.free(mb);
        self.store.free_run(&meta.vertical);
        self.store.free_run(&meta.horizontal);
        self.store.free_run(&meta.update);
        self.store.free_run(&meta.tomb);
        self.tombs_pending -= meta.n_tomb;
        if let Some(ts) = &meta.tsl {
            self.store.free_run(&ts.pages);
        }
        if let Some(ts) = &meta.tsr {
            self.store.free_run(&ts.pages);
        }
        if let Some(td) = &meta.td {
            self.store.free_run(&td.staged);
            self.store.free_run(&td.del_staged);
        }
        meta
    }

    pub(crate) fn cap(&self) -> usize {
        self.geo.b2()
    }

    // ---- packed-entry maintenance (mirrors the diagonal tree) ------------

    /// Mirror `child`'s query-side control info into its entry in `parent`
    /// (in-memory; see [`crate::MetablockTree::sync_packed_entry`]).
    pub(crate) fn sync_packed_entry(&mut self, parent: MbId, child: MbId) {
        let h = self.tuning.pack_h_pages;
        if h == 0 {
            return;
        }
        let children = &mut self.metas.make_mut(parent).children;
        let mut packed = std::mem::take(&mut entry_mut(children, child).packed);
        let c = self.metas.get(child);
        packed.mirror(h, &c.horizontal, &c.hkeys, &c.h_live, &c.update, &c.tomb);
        entry_mut(&mut self.metas.make_mut(parent).children, child).packed = packed;
    }

    /// Refresh every child mirror of `parent` (child list changed).
    pub(crate) fn sync_packed_children(&mut self, parent: MbId) {
        if self.tuning.pack_h_pages == 0 {
            return;
        }
        let children: Vec<MbId> = self
            .metas
            .get(parent)
            .children
            .iter()
            .map(|c| c.mb)
            .collect();
        for c in children {
            self.sync_packed_entry(parent, c);
        }
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
