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

use ccix_extmem::{BackendSpec, Geometry, IoCounter, PageId, Point, TypedStore};
use ccix_pst::ExternalPst;

use crate::bbox::{BBox, Key};
use crate::diag::{run_of, ChildEntry, MbId, ReadCtx, TsInfo, SPACE_AUX, SPACE_META, SPACE_STORE};

/// TD insert-tracking structure of an interior metablock: the points
/// inserted into its children since the last TS reorganisation, queryable as
/// a PST plus a staging area of at most
/// [`ThreeSidedTree::td_cap_pages`] pages.
///
/// Deletions add the mirror-image **delete side** (see the diagonal tree's
/// [`crate::diag`] TD): tombstones routed into the children since the last
/// TS reorganisation, queryable as a PST so snapshot-answered routes (TSL/
/// TSR crossing case, children-PST fork) can subtract deletes younger than
/// the copies they report from.
#[derive(Debug, Default)]
pub(crate) struct TsTd {
    pub pst: Option<ExternalPst>,
    pub n_built: usize,
    pub staged: Vec<PageId>,
    pub n_staged: usize,
    /// PST over the settled tombstones.
    pub del_pst: Option<ExternalPst>,
    pub n_del_built: usize,
    /// Tombstone staging pages.
    pub del_staged: Vec<PageId>,
    pub n_del_staged: usize,
    /// Control-block mirror of the `del_staged` pages' contents (see the
    /// diagonal tree's `TdInfo::del_staged_buf`): snapshot-answered routes
    /// subtract these pending deletes for free; the pages stay
    /// authoritative for the TD fold.
    pub del_staged_buf: Vec<Point>,
}

impl TsTd {
    /// Deep-copy the control state, forking the PSTs onto `counter` (see
    /// [`ThreeSidedTree::fork_snapshot`]).
    pub fn fork(&self, counter: &IoCounter) -> Self {
        Self {
            pst: self.pst.as_ref().map(|p| p.fork(counter.clone())),
            n_built: self.n_built,
            staged: self.staged.clone(),
            n_staged: self.n_staged,
            del_pst: self.del_pst.as_ref().map(|p| p.fork(counter.clone())),
            n_del_built: self.n_del_built,
            del_staged: self.del_staged.clone(),
            n_del_staged: self.n_del_staged,
            del_staged_buf: self.del_staged_buf.clone(),
        }
    }

    pub fn total(&self) -> usize {
        self.n_built + self.n_staged
    }

    /// Pending tombstones tracked on the delete side.
    pub fn del_total(&self) -> usize {
        self.n_del_built + self.n_del_staged
    }
}

/// One metablock of the 3-sided tree.
#[derive(Debug)]
pub(crate) struct TsMeta {
    /// Mains, x-sorted, `B` per page.
    pub vertical: Vec<PageId>,
    /// First x-key of each vertical page (control info: "boundary values").
    pub vkeys: Vec<Key>,
    /// Mains, y-descending, `B` per page.
    pub horizontal: Vec<PageId>,
    /// First (largest) y-key of each horizontal page.
    pub hkeys: Vec<Key>,
    /// Live (un-tombstoned) count of each horizontal page, decremented as
    /// routed tombstones shadow main points; queries skip a fully-dead
    /// page (the post-delete-flood stabbing fix — see the diagonal tree).
    pub h_live: Vec<u32>,
    pub n_main: usize,
    pub y_lo_main: Option<Key>,
    pub main_bbox: Option<BBox>,
    /// Lemma 4.1 structure over the mains (absent for ≤ B mains, where the
    /// single vertical block is scanned instead).
    pub pst: Option<ExternalPst>,
    /// Update buffer: buffered inserts, at most
    /// [`ThreeSidedTree::upd_cap_pages`] pages of `B`.
    pub update: Vec<PageId>,
    pub n_upd: usize,
    /// Tombstone buffer: buffered deletes, at most
    /// [`ThreeSidedTree::tomb_cap_pages`] pages of `B`; the landing
    /// invariant keeps each tombstone next to its victim (see the diagonal
    /// tree's tombstone buffer).
    pub tomb: Vec<PageId>,
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
    pub children_pst: Option<ExternalPst>,
    /// Interior only: TD insert tracking.
    pub td: Option<TsTd>,
    pub children: Vec<ChildEntry>,
}

impl TsMeta {
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Deep-copy the control state, forking the per-metablock PSTs onto
    /// `counter` (see [`ThreeSidedTree::fork_snapshot`]).
    pub fn fork(&self, counter: &IoCounter) -> Self {
        Self {
            vertical: self.vertical.clone(),
            vkeys: self.vkeys.clone(),
            horizontal: self.horizontal.clone(),
            hkeys: self.hkeys.clone(),
            h_live: self.h_live.clone(),
            n_main: self.n_main,
            y_lo_main: self.y_lo_main,
            main_bbox: self.main_bbox,
            pst: self.pst.as_ref().map(|p| p.fork(counter.clone())),
            update: self.update.clone(),
            n_upd: self.n_upd,
            tomb: self.tomb.clone(),
            n_tomb: self.n_tomb,
            tomb_buf: self.tomb_buf.clone(),
            tsl: self.tsl.clone(),
            tsr: self.tsr.clone(),
            children_pst: self.children_pst.as_ref().map(|p| p.fork(counter.clone())),
            td: self.td.as_ref().map(|t| t.fork(counter)),
            children: self.children.clone(),
        }
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
    pub(crate) metas: Vec<Option<TsMeta>>,
    pub(crate) dead_metas: usize,
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
    /// Page backend every store in this tree lives on. Retained (unlike the
    /// diagonal tree, which owns a single store) because the per-metablock
    /// PSTs are created dynamically as the tree grows, and each one must
    /// land on the same backend as the main point store.
    pub(crate) backend: BackendSpec,
}

impl ThreeSidedTree {
    /// Create an empty tree with the measured default [`crate::Tuning`].
    pub fn new(geo: Geometry, counter: IoCounter) -> Self {
        Self::new_tuned(geo, counter, crate::Tuning::default())
    }

    /// Create an empty tree with explicit tuning (the corner-structure knob
    /// is unused here; §4 replaces corner structures with PSTs).
    pub fn new_tuned(geo: Geometry, counter: IoCounter, tuning: crate::Tuning) -> Self {
        Self::new_tuned_on(&BackendSpec::Model, geo, counter, tuning)
    }

    /// [`ThreeSidedTree::new_tuned`] on an explicit page backend. The spec
    /// is kept for the tree's lifetime: every per-metablock PST store the
    /// dynamic side creates is opened on the same backend as the main
    /// point store.
    pub fn new_tuned_on(
        spec: &BackendSpec,
        geo: Geometry,
        counter: IoCounter,
        tuning: crate::Tuning,
    ) -> Self {
        Self {
            geo,
            counter: counter.clone(),
            store: TypedStore::new_on(spec, geo.b, counter),
            metas: Vec::new(),
            dead_metas: 0,
            root: None,
            len: 0,
            tombs_pending: 0,
            deletes_since_shrink: 0,
            shrink_base: 0,
            tuning,
            reorg: crate::diag::reorg::ReorgState::default(),
            backend: spec.clone(),
        }
    }

    /// Fork a frozen read **snapshot** of this tree, charging its I/O to
    /// `counter` — the §4 counterpart of
    /// [`crate::MetablockTree::fork_snapshot`], with the per-metablock
    /// PSTs forked copy-on-write alongside the point store.
    pub fn fork_snapshot(&self, counter: IoCounter) -> Self {
        Self {
            geo: self.geo,
            counter: counter.clone(),
            store: self.store.fork(counter.clone()),
            metas: self
                .metas
                .iter()
                .map(|m| m.as_ref().map(|m| m.fork(&counter)))
                .collect(),
            dead_metas: self.dead_metas,
            root: self.root,
            len: self.len,
            tombs_pending: self.tombs_pending,
            deletes_since_shrink: self.deletes_since_shrink,
            shrink_base: self.shrink_base,
            tuning: self.tuning,
            reorg: self.reorg.clone(),
            // Snapshots are in-memory publications: forked stores are
            // model-backed, and so are any PSTs the snapshot would create
            // (it never creates any — snapshots are read-only).
            backend: BackendSpec::Model,
        }
    }

    /// The tree's write-path tuning.
    pub fn tuning(&self) -> crate::Tuning {
        self.tuning
    }

    /// Update-buffer budget in pages (≥ 1); see the diagonal tree's clamp
    /// rationale.
    pub(crate) fn upd_cap_pages(&self) -> usize {
        self.tuning
            .update_batch_pages
            .clamp(1, (self.geo.b / 2).max(1))
    }

    /// TD staging budget in pages (≥ 1), shared by both TD sides.
    pub(crate) fn td_cap_pages(&self) -> usize {
        self.tuning.td_batch_pages.clamp(1, (self.geo.b / 2).max(1))
    }

    /// Tombstone-buffer budget in pages (≥ 1).
    pub(crate) fn tomb_cap_pages(&self) -> usize {
        self.tuning
            .tomb_batch_pages
            .clamp(1, (self.geo.b / 2).max(1))
    }

    /// TSL/TSR snapshot budget in points (≥ B).
    pub(crate) fn ts_cap_points(&self) -> usize {
        match self.tuning.ts_snapshot_pages {
            None => self.geo.b2(),
            Some(pages) => (pages.max(1) * self.geo.b).min(self.geo.b2()),
        }
    }

    /// Mirrored horizontal pages per child entry (0 = packing disabled);
    /// see the diagonal tree's [`crate::MetablockTree::pack_h`].
    pub(crate) fn pack_h(&self) -> usize {
        self.tuning.pack_h_pages
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
        let mut pages = self.store.pages_in_use() + (self.metas.len() - self.dead_metas);
        for meta in self.metas.iter().flatten() {
            pages += meta.pst.as_ref().map_or(0, ExternalPst::space_pages);
            pages += meta
                .children_pst
                .as_ref()
                .map_or(0, ExternalPst::space_pages);
            if let Some(td) = &meta.td {
                pages += td.pst.as_ref().map_or(0, ExternalPst::space_pages);
                pages += td.del_pst.as_ref().map_or(0, ExternalPst::space_pages);
            }
        }
        pages
    }

    // ---- control information (charged) -----------------------------------

    pub(crate) fn meta(&self, mb: MbId) -> &TsMeta {
        self.counter.add_reads(1);
        self.metas[mb].as_ref().expect("read of freed metablock")
    }

    pub(crate) fn take_meta(&mut self, mb: MbId) -> TsMeta {
        self.counter.add_reads(1);
        self.metas[mb].take().expect("take of freed metablock")
    }

    pub(crate) fn put_meta(&mut self, mb: MbId, meta: TsMeta) {
        self.counter.add_writes(1);
        self.metas[mb] = Some(meta);
    }

    pub(crate) fn meta_unbilled(&self, mb: MbId) -> &TsMeta {
        self.metas[mb].as_ref().expect("read of freed metablock")
    }

    // ---- pinned query-side access ----------------------------------------

    /// Fresh read context for one query-side operation (or one batch);
    /// with [`crate::Tuning::resident_root`], the root control block starts
    /// resident (see the diagonal tree).
    pub(crate) fn read_ctx(&self) -> ReadCtx {
        let mut ctx = ReadCtx::new(self.geo, self.counter.clone());
        if self.tuning.resident_root {
            if let Some(root) = self.root {
                ctx.resident = Some((SPACE_META, root as u64));
            }
        }
        ctx
    }

    /// Pinned control-block read: one I/O per residency in `ctx`.
    pub(crate) fn ctx_meta(&self, ctx: &mut ReadCtx, mb: MbId) -> &TsMeta {
        ctx.touch_meta(mb);
        self.metas[mb].as_ref().expect("read of freed metablock")
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
        self.metas[mb].as_ref().expect("pinned metablock is live")
    }

    /// Charge one write per distinct dirty control block of a pinned
    /// operation.
    pub(crate) fn flush_dirty(&self, dirty: &[MbId]) {
        self.counter.add_writes(dirty.len() as u64);
    }

    pub(crate) fn alloc_meta(&mut self, meta: TsMeta) -> MbId {
        self.counter.add_writes(1);
        // Never reuse slots (reliable liveness; see the diagonal tree).
        self.metas.push(Some(meta));
        self.metas.len() - 1
    }

    pub(crate) fn free_metablock(&mut self, mb: MbId) -> TsMeta {
        let meta = self.metas[mb].take().expect("double free of metablock");
        self.dead_metas += 1;
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
        // PSTs own their pages; dropping the meta releases them.
        meta
    }

    // ---- helpers ----------------------------------------------------------

    pub(crate) fn read_run(&self, pages: &[PageId]) -> Vec<Point> {
        let mut out = Vec::with_capacity(pages.len() * self.geo.b);
        for &pg in pages {
            out.extend_from_slice(self.store.read(pg));
        }
        out
    }

    pub(crate) fn cap(&self) -> usize {
        self.geo.b2()
    }

    // ---- packed-entry maintenance (mirrors the diagonal tree) ------------

    /// Mirror `child`'s query-side control info into its entry in `parent`
    /// (in-memory; see [`crate::MetablockTree::sync_packed_entry`]).
    pub(crate) fn sync_packed_entry(&mut self, parent: MbId, child: MbId) {
        let h = self.pack_h();
        if h == 0 {
            return;
        }
        let (h_pages, h_tops, h_live, h_more, upd, tomb) = {
            let cm = self.metas[child].as_ref().expect("live child");
            let top = h.min(cm.horizontal.len());
            (
                run_of(&cm.horizontal[..top]),
                run_of(&cm.hkeys[..top]),
                run_of(&cm.h_live[..top]),
                cm.horizontal.len() > h,
                run_of(&cm.update),
                run_of(&cm.tomb),
            )
        };
        let pm = self.metas[parent].as_mut().expect("live parent");
        let e = pm
            .children
            .iter_mut()
            .find(|c| c.mb == child)
            .expect("child present in parent");
        e.packed.h_pages = h_pages;
        e.packed.h_tops = h_tops;
        e.packed.h_live = h_live;
        e.packed.h_more = h_more;
        e.packed.upd_pages = upd;
        e.packed.tomb_pages = tomb;
    }

    /// Refresh every child mirror of `parent` (child list changed).
    pub(crate) fn sync_packed_children(&mut self, parent: MbId) {
        if self.pack_h() == 0 {
            return;
        }
        let children: Vec<MbId> = self.metas[parent]
            .as_ref()
            .expect("live parent")
            .children
            .iter()
            .map(|c| c.mb)
            .collect();
        for c in children {
            self.sync_packed_entry(parent, c);
        }
    }
}
