//! The metablock tree (§3): shared state and control information.
//!
//! Submodules: [`build`] (static construction, §3.1), [`query`] (the
//! diagonal-corner search of Theorem 3.2 / Fig. 15), [`insert`] (the
//! semi-dynamic machinery of §3.2 / Fig. 19) and [`validate`] (unbilled
//! invariant checking and shape statistics for tests and experiments).

mod apply;
mod build;
mod delete;
mod insert;
mod query;
pub(crate) mod reorg;
mod validate;

pub use validate::DiagStats;
// DiagOptions is defined below and re-exported from the crate root.

pub(crate) use build::{extract_top_y, near_equal_ranges, FULL_RANGE};

/// Record `mb` as dirty (dedup'd) for an operation's end-of-operation
/// control-block writeback — shared by both trees' insert and delete
/// routings.
pub(crate) fn mark_dirty(dirty: &mut Vec<MbId>, mb: MbId) {
    if !dirty.contains(&mb) {
        dirty.push(mb);
    }
}

/// Append `p` to one of block `mb`'s buffered page runs — in place on the
/// run's open last page, or on a fresh page grown onto the run — under a
/// single copy-on-write access to the block; shared by both trees. `run`
/// picks the run and its point count, and may update the block's other
/// members for the same append (a tombstone mirror). Returns the fresh
/// page, if one was opened, and the new count.
pub(crate) fn append_buffered<M: Clone>(
    store: &mut TypedStore<Point>,
    metas: &mut Slots<M>,
    mb: MbId,
    p: Point,
    run: impl FnOnce(&mut M) -> (&mut Run<PageId>, &mut usize),
) -> (Option<PageId>, usize) {
    let (pages, n) = run(metas.make_mut(mb));
    let fresh = if n.is_multiple_of(store.capacity()) {
        let pg = store.alloc(vec![p]);
        pages.push(pg);
        Some(pg)
    } else {
        store.append(*pages.last().expect("partial page exists"), p);
        None
    };
    *n += 1;
    (fresh, *n)
}

/// Size `outs` to `n` empty per-query slots, keeping the buffers it
/// already holds — the `_into` contract of every batch surface.
pub(crate) fn reset_slots<T>(outs: &mut Vec<Vec<T>>, n: usize) {
    outs.truncate(n);
    for o in outs.iter_mut() {
        o.clear();
    }
    outs.resize_with(n, Vec::new);
}

/// Keep, in order, the points of `out[from..]` that satisfy `keep`: how a
/// route that over-reports into the answer buffer (a snapshot scan, a TD
/// query) narrows what it appended without a buffer of its own.
pub(crate) fn retain_from(out: &mut Vec<Point>, from: usize, keep: impl Fn(&Point) -> bool) {
    let mut live = from;
    for i in from..out.len() {
        if keep(&out[i]) {
            out[live] = out[i];
            live += 1;
        }
    }
    out.truncate(live);
}

use std::sync::Arc;

use ccix_extmem::{
    BackendSpec, Geometry, IoCounter, PageId, PathPin, Point, Run, Slots, SortedIds, TypedStore,
};

use crate::bbox::{BBox, Key};
use crate::corner::CornerStructure;
use crate::tuning::Tuning;

/// Identifier of a metablock within one tree.
pub(crate) type MbId = usize;

// ---- pinned reads ---------------------------------------------------------

/// Pin key-space of a tree's control blocks (keys are [`MbId`]s).
pub(crate) const SPACE_META: u32 = 0;
/// Pin key-space of a tree's point store (keys are [`PageId`]s).
pub(crate) const SPACE_STORE: u32 = 1;
/// First key-space available for per-metablock side structures (the 3-sided
/// tree's four PSTs); space `SPACE_AUX + 4·mb + j` addresses structure `j`
/// of metablock `mb`.
pub(crate) const SPACE_AUX: u32 = 2;

/// Read context of one query-side operation: a single query, an x-range, or
/// a whole sorted batch. Every page the operation touches is billed through
/// the bounded [`PathPin`], so a block is paid once per residency instead of
/// once per access — the paper's accounting (each *distinct* block transfers
/// once, §2's model), kept honest by the pin's `B`-frame LRU budget.
///
/// With [`Tuning::resident_root`], the tree's root control block lives in
/// its own dedicated slot of long-lived main memory (outside the pin's LRU
/// frames, so it can never be evicted mid-batch) and is read for free.
pub(crate) struct ReadCtx {
    pub pin: PathPin,
    /// Control block held in dedicated memory (`(space, key)`).
    pub(crate) resident: Option<(u32, u64)>,
    /// Ids of the pending tombstones the query in progress has selected.
    /// A tombstone is an exact copy of its victim, so a query that reports
    /// a victim selects its tombstone wherever the two sit, and finding a
    /// tombstone never depends on what the pin holds: the ids one query
    /// gathers are all it needs, whatever else its batch met. Emptied by
    /// [`ReadCtx::emit_live`]; stays empty on insert-only workloads, where
    /// no tombstone exists to select.
    pub(crate) del: Vec<u64>,
    /// `del` in probe form, rebuilt by each [`ReadCtx::emit_live`].
    dead: SortedIds,
    /// Child-index scratch of `process_children`, reused level after level.
    pub(crate) kids: ChildLists,
}

/// Children of one metablock by Fig. 16 class, as indices into its child
/// table: those entirely inside the query and those straddling its bottom.
#[derive(Default)]
pub(crate) struct ChildLists {
    pub full: Vec<usize>,
    pub partial: Vec<usize>,
}

impl ReadCtx {
    /// A context over `counter` with the model's working memory: `B` frames
    /// of `B` records is the `Θ(B²)`-unit main memory the paper grants an
    /// operation, beside the control block `resident` holds, if any.
    pub(crate) fn new(geo: Geometry, counter: IoCounter, resident: Option<MbId>) -> Self {
        Self {
            pin: PathPin::new(counter, geo.b),
            resident: resident.map(|mb| (SPACE_META, mb as u64)),
            del: Vec::new(),
            dead: SortedIds::default(),
            kids: ChildLists::default(),
        }
    }

    /// Hand one query's `answers` to `out` through `project`, in order,
    /// dropping those whose id the query recorded in `del` — the single
    /// pass an answer makes from the page it was read off to the caller's
    /// buffer. Leaves `del` empty for the next query of the batch. With no
    /// tombstone selected (every insert-only query) this is one projecting
    /// copy into an exactly reserved `out`.
    pub(crate) fn emit_live<T>(
        &mut self,
        answers: &[Point],
        project: impl Fn(&Point) -> T,
        out: &mut Vec<T>,
    ) {
        if self.del.is_empty() {
            out.extend(answers.iter().map(project));
            return;
        }
        self.dead.refill(self.del.drain(..));
        out.reserve(answers.len());
        out.extend(
            answers
                .iter()
                .filter(|p| !self.dead.contains(p.id))
                .map(project),
        );
    }

    /// Note a page touch: free when it is the resident block, otherwise
    /// billed through the pin.
    pub(crate) fn touch(&mut self, space: u32, key: u64) {
        if self.resident == Some((space, key)) {
            return;
        }
        self.pin.touch(space, key);
    }

    /// Note a control-block touch.
    pub(crate) fn touch_meta(&mut self, mb: MbId) {
        self.touch(SPACE_META, mb as u64);
    }
}

/// A child slot in a metablock's control information (one entry of the
/// "pointers to each of its B children, as well as the location of each
/// child's bounding box", §3.1).
///
/// Everything a query needs to classify the child against the query region
/// (Fig. 16) without touching the child is cached here: the slab of x-keys
/// the child's subtree is responsible for, the bounding box of the child's
/// main points, the top of its update block, and the top of everything
/// strictly below the child.
#[derive(Clone, Debug)]
pub(crate) struct ChildEntry {
    pub mb: MbId,
    /// Inclusive lower slab boundary.
    pub slab_lo: Key,
    /// Exclusive upper slab boundary.
    pub slab_hi: Key,
    /// Bounding box of the child's main points (`None` iff it has none).
    pub main_bbox: Option<BBox>,
    /// Largest `(y, id)` among the child's update-block points.
    pub upd_ymax: Option<Key>,
    /// Largest `(y, id)` among points strictly below the child metablock.
    /// The routing invariant keeps this below the child's `y_lo_main`.
    pub sub_yhi: Option<Key>,
    /// Packed control information about the child (PR 3); empty defaults
    /// when packing is disabled ([`Tuning::pack_top_points`] = 0).
    pub packed: PackedInfo,
}

/// `child`'s entry among `children`, for in-place mutation.
pub(crate) fn entry_mut(children: &mut [ChildEntry], child: MbId) -> &mut ChildEntry {
    let entry = children.iter_mut().find(|c| c.mb == child);
    entry.expect("child present in parent")
}

impl ChildEntry {
    /// Does the child's slab contain the x-key `k`?
    pub fn slab_contains(&self, k: Key) -> bool {
        self.slab_lo <= k && k < self.slab_hi
    }
}

/// Per-child mirrors packed into the parent's control blocks, so that
/// examining a straddling child walks the top of the child's horizontal
/// blocking and its update buffer straight from the parent — no read of the
/// child's own control block — and the TS route reads snapshot pages
/// without first loading their owner. The child's control block is touched
/// only when a scan outgrows the mirrored horizontal prefix, by which point
/// `pack_h_pages · B` reported answers have paid for it.
///
/// Size accounting: every mirror is a few words per child — the same scale
/// as the entry's slab keys and the metablock's own `vkeys`, within §3.1's
/// "constant number of disk blocks" of control information per metablock.
///
/// Every run is a shared [`Run`]: copying the parent's control
/// block bumps seven handles per child instead of cloning seven vectors,
/// and a mirror usually shares the child's own run outright.
#[derive(Clone, Debug, Default)]
pub(crate) struct PackedInfo {
    /// Mirror of the first [`Tuning::pack_h_pages`] pages of the child's
    /// horizontal blocking (its top mains, y-descending).
    pub h_pages: Run<PageId>,
    /// First (largest) y-key of each mirrored page, so the scan skips a
    /// crossing page with no answers.
    pub h_tops: Run<Key>,
    /// Live (not yet tombstoned) point count of each mirrored page, so a
    /// post-delete-flood scan skips a fully-dead page without reading it.
    /// A routed delete decrements a slot in place once the parent owns the
    /// run ([`Run::make_mut`]), copying it first if an epoch still shares it.
    pub h_live: Run<u32>,
    /// The child's horizontal blocking extends beyond the mirror.
    pub h_more: bool,
    /// Mirror of the child's update-buffer page run.
    pub upd_pages: Run<PageId>,
    /// Mirror of the child's tombstone-buffer page run, so an examination
    /// of a straddling child filters its pending deletes without touching
    /// the child's control block. Empty (and free to skip) whenever the
    /// child has no pending deletes.
    pub tomb_pages: Run<PageId>,
    /// Mirror of the child's TS (diagonal) / TSL (3-sided) snapshot run.
    pub ts_pages: Run<PageId>,
    /// Mirror of the snapshot's truncation bit.
    pub ts_truncated: bool,
    /// 3-sided only: mirror of the child's TSR snapshot run.
    pub tsr_pages: Run<PageId>,
    /// Mirror of the TSR truncation bit.
    pub tsr_truncated: bool,
}

impl PackedInfo {
    /// Mirror a child's own runs: the first `h` pages of its horizontal
    /// blocking with their top keys and live counts, and its whole update
    /// and tombstone runs — sharing, not copying, every run the mirror
    /// covers whole. The snapshot mirrors are left as they are.
    pub(crate) fn mirror(
        &mut self,
        h: usize,
        horizontal: &Run<PageId>,
        hkeys: &Run<Key>,
        h_live: &[u32],
        update: &Run<PageId>,
        tomb: &Run<PageId>,
    ) {
        self.h_pages = horizontal.prefix(h);
        self.h_tops = hkeys.prefix(h);
        self.h_live = Run::from_slice(&h_live[..h.min(h_live.len())]);
        self.h_more = horizontal.len() > h;
        self.upd_pages = update.clone();
        self.tomb_pages = tomb.clone();
    }
}

/// The left-sibling snapshot `TS(M)` (Fig. 10): the top points among
/// everything stored in `M`'s left siblings at the last TS reorganisation,
/// blocked horizontally (y-descending). The paper stores the top `B²`;
/// [`Tuning::ts_snapshot_pages`] can cap the budget lower.
#[derive(Clone, Debug)]
pub(crate) struct TsInfo {
    /// The snapshot's page run, shared with the parent's packed mirror.
    pub pages: Run<PageId>,
    pub n: usize,
    /// True when sibling points were dropped to fit the budget. A scan of a
    /// non-truncated snapshot that never crosses the query bottom has seen
    /// *every* sibling point above it (the crossing case of Fig. 17b); a
    /// truncated one only certifies `n` answers (Fig. 17a).
    pub truncated: bool,
}

/// The `TD` corner structure of an internal metablock (§3.2): the points
/// inserted into this metablock's children since the last TS reorganisation,
/// kept query-able as a corner structure plus a one-block staging area.
///
/// Deletions give it a **negative side**: the tombstones routed into this
/// metablock's children since the last TS reorganisation, mirrored here so
/// the TS crossing case (Fig. 17b) — which answers covered siblings from
/// their *stale* snapshot plus this TD — can subtract what was deleted
/// since the snapshot was taken, without visiting the covered children.
/// The fold that settles staged inserts into the corner structure also
/// annihilates insert/delete pairs, so only tombstones whose insert
/// predates the TD survive into `del_corner`.
#[derive(Clone, Debug, Default)]
pub(crate) struct TdInfo {
    /// Corner structure over the settled TD points. Behind `Arc`, like
    /// every control-block member that is only ever replaced wholesale, so
    /// copying a control block shared with an epoch bumps a handle instead
    /// of cloning the structure's nested directories.
    pub corner: Option<Arc<CornerStructure>>,
    pub n_built: usize,
    /// Staging pages: points awaiting the next TD rebuild, at most
    /// [`Tuning::td_cap_pages`] pages of `B` (a shared run, grown by
    /// [`Run::push`]).
    pub staged: Run<PageId>,
    pub n_staged: usize,
    /// Corner structure over the settled tombstones (queried alongside
    /// `corner` by the crossing case, reporting ids to subtract).
    pub del_corner: Option<Arc<CornerStructure>>,
    pub n_del_built: usize,
    /// Tombstone staging pages, at most [`Tuning::td_cap_pages`]
    /// pages of `B` (a shared run, grown by [`Run::push`]).
    pub del_staged: Run<PageId>,
    pub n_del_staged: usize,
    /// Control-block mirror of the `del_staged` pages' contents (same
    /// bounded scale as the staging run itself — at most `td_cap_pages · B`
    /// points). Queries subtract these pending deletes for free instead of
    /// reading the staging pages; the pages stay authoritative for the TD
    /// fold.
    pub del_staged_buf: Vec<Point>,
}

/// The TD of an internal metablock, for mutation.
pub(crate) fn td_mut(m: &mut MetaBlock) -> &mut TdInfo {
    m.td.as_mut().expect("internal metablock carries a TD")
}

impl TdInfo {
    pub fn total(&self) -> usize {
        self.n_built + self.n_staged
    }

    /// Pending tombstones tracked on the delete side.
    pub fn del_total(&self) -> usize {
        self.n_del_built + self.n_del_staged
    }
}

/// One metablock: `O(1)` control blocks plus the blockings of §3.1.
///
/// Copy-on-write at member granularity: a member that is only ever
/// replaced wholesale (the blockings and their key runs, the corner and TS
/// structures) or grown one page at a time (the buffer and staging page
/// runs, via [`Run::push`]) is shared by handle, so the first write to a
/// block an epoch still holds copies a handful of words and the buffers a
/// single operation edits in place (`h_live`, `tomb_buf`, the TD's
/// `del_staged_buf`, `children`).
#[derive(Clone, Debug)]
pub(crate) struct MetaBlock {
    /// Main points, x-sorted, `B` per page ("vertically oriented blocks").
    pub vertical: Run<PageId>,
    /// First x-key of each vertical page (control info: the slab's
    /// "boundary values"), used to locate a page without a linear scan.
    pub vkeys: Run<Key>,
    /// Main points, y-descending, `B` per page ("horizontally oriented").
    pub horizontal: Run<PageId>,
    /// First (largest) y-key of each horizontal page, so scans skip a
    /// crossing page that cannot contain an answer.
    pub hkeys: Run<Key>,
    /// Live (not yet tombstoned) point count per horizontal page, parallel
    /// to `horizontal`. A routed tombstone whose victim sits in the mains
    /// decrements the victim page's count, so a query can skip a fully-dead
    /// page without reading it — the fix for the post-delete-flood stabbing
    /// regression (a flood used to leave pages of 100% shadowed points that
    /// every later query still paid to scan).
    pub h_live: Vec<u32>,
    pub n_main: usize,
    /// Smallest `(y, id)` among mains. Routing invariant: every point in a
    /// descendant metablock (mains *and* updates) is strictly below this.
    pub y_lo_main: Option<Key>,
    pub main_bbox: Option<BBox>,
    /// Corner structure (Lemma 3.1), present when the metablock's region can
    /// contain a query corner (its mains straddle some diagonal value). Its
    /// stage-2 blocking is shared with `vertical`.
    pub corner: Option<Arc<CornerStructure>>,
    /// Update buffer: buffered inserts (§3.2), at most
    /// [`Tuning::upd_cap_pages`] pages of `B`. The paper's update
    /// *block* is the 1-page special case.
    pub update: Run<PageId>,
    pub n_upd: usize,
    /// Tombstone buffer: buffered deletes, at most
    /// [`Tuning::tomb_cap_pages`] pages of `B`. The routing
    /// invariant lands every tombstone in the metablock that holds the
    /// live copy (mains or update buffer); the next level-I reorganisation
    /// annihilates the pair. Queries scan pending tombstone pages wherever
    /// they scan the update block and subtract the ids.
    pub tomb: Run<PageId>,
    pub n_tomb: usize,
    /// Control-block mirror of the `tomb` pages' contents, in arrival
    /// order. Bounded by `tomb_cap_pages · B` points — the same control-
    /// information order as `vkeys`/`hkeys` — it lets every query that
    /// already holds this control block subtract the pending deletes for
    /// free, instead of paying one read per pending tombstone page (the
    /// post-delete-flood stabbing regression). The pages stay authoritative:
    /// reorganisations still read and bill them.
    pub tomb_buf: Vec<Point>,
    /// Left-sibling snapshot; `None` for a first child or the root.
    pub ts: Option<Arc<TsInfo>>,
    /// TD corner structure; `Some` for internal metablocks.
    pub td: Option<TdInfo>,
    /// Child slots, in slab order. Empty for leaves.
    pub children: Vec<ChildEntry>,
}

impl MetaBlock {
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

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
#[derive(Debug)]
pub struct MetablockTree {
    pub(crate) geo: Geometry,
    pub(crate) counter: IoCounter,
    pub(crate) store: TypedStore<Point>,
    /// Control blocks, shared with every [`MetablockTree::fork_snapshot`]
    /// taken since a block last changed; all mutation goes through
    /// [`Slots::make_mut`] / `take_meta`, which copy a shared block first.
    pub(crate) metas: Slots<MetaBlock>,
    pub(crate) root: Option<MbId>,
    pub(crate) len: usize,
    /// Tombstones currently buffered somewhere in the tree (each matches
    /// exactly one physically stored, logically deleted point).
    pub(crate) tombs_pending: usize,
    /// Deletes absorbed since the last full (re)build, driving the
    /// occupancy-triggered shrink ([`Tuning::shrink_deletes_pct`]).
    pub(crate) deletes_since_shrink: usize,
    /// Tree size at the last full (re)build (the shrink trigger's base).
    pub(crate) shrink_base: usize,
    pub(crate) options: DiagOptions,
    pub(crate) tuning: Tuning,
    /// Incremental-reorganisation state ([`Tuning::reorg_pages_per_op`]):
    /// the deferred-work debt meter plus the in-progress background shrink
    /// job, if any. Always default/empty when the budget is 0.
    pub(crate) reorg: reorg::ReorgState,
}

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
        Self {
            geo,
            counter: counter.clone(),
            store: TypedStore::new_on(spec, geo.b, counter),
            metas: Slots::default(),
            root: None,
            len: 0,
            tombs_pending: 0,
            deletes_since_shrink: 0,
            shrink_base: 0,
            options,
            tuning,
            reorg: reorg::ReorgState::default(),
        }
    }

    /// Fork a frozen read **snapshot** of this tree, charging its I/O to
    /// `counter`.
    ///
    /// The snapshot shares every data page (see
    /// [`ccix_extmem::TypedStore::fork`]) and every control block with the
    /// live tree: forking costs one handle bump per 16 page slots and one
    /// per metablock, copies nothing, and charges no I/O. Afterwards a
    /// mutation on either side copies only the chunks, pages and control
    /// blocks it touches. It answers every read exactly as the live tree would
    /// at the moment of the fork — buffered updates, pending tombstones
    /// and even a mid-flight incremental shrink job (whose frozen runs and
    /// side delta are part of the copied control state) included. Reads on
    /// the snapshot bill `counter`, never the live tree's counter or its
    /// active shunt.
    ///
    /// This is the storage half of epoch-based publication: the serving
    /// layer forks an epoch after each group commit, readers hold it via
    /// `Arc`, and the pages and control blocks a later mutation replaces
    /// stay alive until the last holder drops — see `ccix-serve`.
    pub fn fork_snapshot(&self, counter: IoCounter) -> Self {
        Self {
            counter: counter.clone(),
            store: self.store.fork(counter),
            metas: self.metas.clone(),
            reorg: self.reorg.clone(),
            ..*self
        }
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

    /// `(page id, encoded bytes)` images of the point store's live model
    /// pages (see [`ccix_extmem::TypedStore::page_images`]). Uncharged;
    /// for the differential backend suite.
    pub fn store_page_images(&self) -> Vec<(u32, Vec<u8>)> {
        self.store.page_images()
    }

    /// As [`MetablockTree::store_page_images`], read back from the file
    /// backend; `None` on the model backend.
    pub fn store_file_page_images(&self) -> Option<Vec<(u32, Vec<u8>)>> {
        self.store.file_page_images()
    }

    /// The tree's ablation options.
    pub fn options(&self) -> DiagOptions {
        self.options
    }

    /// The tree's write-path tuning.
    pub fn tuning(&self) -> Tuning {
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
    /// cancellation. Each pending tombstone shadows exactly one physically
    /// stored copy; queries already filter them, and the next
    /// reorganisation that sees both annihilates the pair.
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

    /// Disk blocks occupied: data pages plus one control block per
    /// metablock (§3.1 stores "a constant number of disk blocks per
    /// metablock" of control information).
    pub fn space_pages(&self) -> usize {
        self.store.pages_in_use() + self.metas.live()
    }

    // ---- control-information access (charged) ---------------------------

    /// Read a metablock's control information: one I/O.
    pub(crate) fn meta(&self, mb: MbId) -> &MetaBlock {
        self.counter.add_reads(1);
        self.metas.get(mb)
    }

    /// Take a metablock's control information for mutation: one read I/O.
    /// Pair with [`MetablockTree::put_meta`].
    pub(crate) fn take_meta(&mut self, mb: MbId) -> MetaBlock {
        self.counter.add_reads(1);
        self.metas.take(mb)
    }

    /// Write back control information: one write I/O.
    pub(crate) fn put_meta(&mut self, mb: MbId, meta: MetaBlock) {
        self.counter.add_writes(1);
        self.metas.put(mb, meta);
    }

    // ---- pinned query-side access ----------------------------------------

    /// Fresh read context for one query-side operation (or one batch).
    /// With [`Tuning::resident_root`], the root control block starts
    /// resident: the tree dedicates one block of long-lived main memory to
    /// it, so descents do not re-read it every operation.
    pub(crate) fn read_ctx(&self) -> ReadCtx {
        let resident = self.root.filter(|_| self.tuning.resident_root);
        ReadCtx::new(self.geo, self.counter.clone(), resident)
    }

    /// Pinned control-block read: one I/O per residency in `ctx`.
    pub(crate) fn ctx_meta(&self, ctx: &mut ReadCtx, mb: MbId) -> &MetaBlock {
        ctx.touch_meta(mb);
        self.metas.get(mb)
    }

    /// Pinned data-page read: one I/O per residency in `ctx`.
    pub(crate) fn ctx_read(&self, ctx: &mut ReadCtx, pg: PageId) -> &[Point] {
        self.store.read_pinned(&mut ctx.pin, SPACE_STORE, pg)
    }

    /// Pinned read for one multi-step operation: the first touch of a
    /// control block charges one read; further touches are free while it
    /// stays pinned. The search path is `O(log_B n)` control blocks, well
    /// within the model's `Θ(B²)`-point working memory, so pinning it is the
    /// faithful charge — the paper's update analysis (§3.2) likewise counts
    /// each control block once per insert, not once per access. Mutations go
    /// through [`Slots::make_mut`] and are paid by one write per *dirty*
    /// block at the end of the operation (see `flush_dirty`).
    pub(crate) fn pin_meta(&self, pinned: &mut Vec<MbId>, mb: MbId) -> &MetaBlock {
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

    pub(crate) fn alloc_meta(&mut self, meta: MetaBlock) -> MbId {
        self.counter.add_writes(1);
        // Slots are never reused, so `is_live` stays a reliable liveness
        // test for the restructuring cascades of §3.2 (reorganisations
        // fall back to re-routing when a metablock they hold disappears).
        self.metas.push(meta)
    }

    /// Free a metablock's control block and every data page it owns,
    /// returning the (possibly still snapshot-shared) block.
    pub(crate) fn free_metablock(&mut self, mb: MbId) -> Arc<MetaBlock> {
        let meta = self.metas.free(mb);
        self.store.free_run(&meta.vertical);
        self.store.free_run(&meta.horizontal);
        if let Some(c) = &meta.corner {
            // The corner's stage-2 blocking is `meta.vertical` (shared),
            // already freed above; this releases only the explicit sets.
            c.free_pages(&mut self.store);
        }
        self.store.free_run(&meta.update);
        self.store.free_run(&meta.tomb);
        self.tombs_pending -= meta.n_tomb;
        if let Some(ts) = &meta.ts {
            self.store.free_run(&ts.pages);
        }
        if let Some(td) = &meta.td {
            if let Some(c) = &td.corner {
                c.free_pages(&mut self.store);
            }
            self.store.free_run(&td.staged);
            if let Some(c) = &td.del_corner {
                c.free_pages(&mut self.store);
            }
            self.store.free_run(&td.del_staged);
        }
        meta
    }

    // ---- shared small helpers -------------------------------------------

    /// Metablock point capacity `B²`.
    pub(crate) fn cap(&self) -> usize {
        self.geo.b2()
    }

    // ---- packed-entry maintenance ----------------------------------------

    /// Mirror `child`'s query-side control info (top horizontal pages,
    /// update-buffer run) into its entry in `parent`. Purely in-memory: the
    /// caller's operation already holds both control blocks, and every
    /// mirrored value is a page id or key already known to it. TS mirrors
    /// are maintained by `install_ts_snapshots`.
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

    /// Refresh every child mirror of `parent` (used where the child list
    /// itself changed, i.e. splits and static builds).
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answers(n: u64) -> Vec<Point> {
        (0..n)
            .map(|id| Point::new(id as i64, id as i64, id))
            .collect()
    }

    #[test]
    fn emit_live_drops_exactly_the_ids_the_query_selected() {
        let mut ctx = ReadCtx::new(Geometry::new(4), IoCounter::new(), None);
        // 50 000 answers hold ~100 ids on each of the mask's 512 bits:
        // every stranger sharing a dead id's bit must survive.
        let answers = answers(50_000);
        ctx.del.extend([9, 40_000, 9, 9, 123, 40_000]);
        let mut out = vec![u64::MAX];
        ctx.emit_live(&answers, |p| p.id, &mut out);
        let want: Vec<u64> = std::iter::once(u64::MAX)
            .chain((0..50_000).filter(|id| ![9, 123, 40_000].contains(id)))
            .collect();
        assert_eq!(out, want, "appended in order, minus the three dead ids");
        assert!(ctx.del.is_empty(), "the next query starts with no dead id");

        // The next query of the batch selected no tombstone: an id the
        // previous query dropped is nothing to it.
        let mut out = Vec::new();
        ctx.emit_live(&answers[..200], |p| *p, &mut out);
        assert_eq!(out, answers[..200], "no tombstone: every answer, untouched");
    }

    #[test]
    fn retain_from_narrows_only_the_tail() {
        let mut out = answers(10);
        retain_from(&mut out, 4, |p| p.id % 2 == 1);
        let ids: Vec<u64> = out.iter().map(|p| p.id).collect();
        assert_eq!(ids, [0, 1, 2, 3, 5, 7, 9]);
        retain_from(&mut out, 7, |_| false);
        assert_eq!(out.len(), 7, "an empty tail is left alone");
    }

    /// The tree of the structural-sharing tests: 4 000 points at `B = 4`,
    /// height ≥ 3, every control-block mirror populated.
    fn shared_tree() -> MetablockTree {
        let pts: Vec<Point> = (0..4000i64)
            .map(|i| Point::new(i, i + (i * 7) % 50, i as u64))
            .collect();
        MetablockTree::build(Geometry::new(4), IoCounter::new(), pts)
    }

    /// The landing metablock of `p` and its root-first ancestors, by the
    /// insert routing's rule.
    fn landing(tree: &MetablockTree, p: Point) -> (Vec<MbId>, MbId) {
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

    #[test]
    fn a_copied_control_block_shares_every_run_the_write_left_alone() {
        let mut tree = shared_tree();
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
        // A horizontal-prefix mirror per child, a TS mirror per non-first.
        assert!(
            populated >= 2 * live.children.len() - 1,
            "mirrors populated"
        );
        let routed = live.children.iter().find(|e| e.mb == target).unwrap();
        let child = tree.metas.get(target);
        assert!(Run::ptr_eq(&routed.packed.upd_pages, &child.update));
        assert_eq!(child.update.len(), 1);
        assert!(fork.metas.get(target).update.is_empty());
        tree.validate_unbilled();
        fork.validate_unbilled();
    }

    #[test]
    fn a_delete_decrements_its_own_copy_of_a_mirrored_live_count() {
        let mut tree = shared_tree();
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
        let entry = |t: &MetablockTree| {
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
        tree.validate_unbilled();
        fork.validate_unbilled();
        assert!(fork.query(victim.y).iter().any(|q| q.id == victim.id));
        assert!(!tree.query(victim.y).iter().any(|q| q.id == victim.id));
    }

    #[test]
    fn writes_after_a_fork_copy_only_the_control_blocks_they_touch() {
        let mut tree = shared_tree();
        let stats = tree.stats();
        assert!(stats.metablocks > 100 && stats.height >= 3, "{stats:?}");
        let fork = tree.fork_snapshot(IoCounter::new());
        assert!(
            tree.metas.diverged(&fork.metas).is_empty(),
            "a fork shares all"
        );

        // k buffered writes (no reorganisation fires this early): each one
        // touches at most its descent path.
        let k = 3;
        tree.insert(Point::new(10, 40, 10_000));
        tree.insert(Point::new(2_000, 2_020, 10_001));
        tree.delete(Point::new(3_999, 3_999 + (3_999 * 7) % 50, 3_999));
        let touched = tree.metas.diverged(&fork.metas);
        assert!(!touched.is_empty());
        assert!(touched.len() <= k * stats.height, "{touched:?}");

        // A copied block still shares the members that are only ever
        // replaced wholesale.
        for &mb in &touched {
            let (live, frozen) = (tree.metas.get(mb), fork.metas.get(mb));
            for (a, b) in [
                (&live.corner, &frozen.corner),
                (
                    &live.td.as_ref().and_then(|td| td.corner.clone()),
                    &frozen.td.as_ref().and_then(|td| td.corner.clone()),
                ),
            ] {
                assert_eq!(a.is_some(), b.is_some());
                if let (Some(a), Some(b)) = (a, b) {
                    assert!(
                        Arc::ptr_eq(a, b),
                        "corner structure of {mb} was deep-copied"
                    );
                }
            }
            if let (Some(a), Some(b)) = (&live.ts, &frozen.ts) {
                assert!(Arc::ptr_eq(a, b), "TS directory of {mb} was deep-copied");
            }
        }

        // A fork of the mutated tree, mutated again, leaves all three with
        // their own contents.
        let mut second = tree.fork_snapshot(IoCounter::new());
        second.insert(Point::new(500, 600, 10_002));
        assert_eq!((fork.len(), tree.len(), second.len()), (4000, 4001, 4002));
        let ids = |t: &MetablockTree, q| {
            let mut ids: Vec<u64> = t.query(q).iter().map(|p| p.id).collect();
            ids.sort_unstable();
            ids
        };
        assert!(!ids(&fork, 30).contains(&10_000));
        assert!(ids(&tree, 30).contains(&10_000));
        assert!(!ids(&tree, 550).contains(&10_002));
        assert!(ids(&second, 550).contains(&10_002));
        fork.validate_unbilled();
        tree.validate_unbilled();
        second.validate_unbilled();
    }

    /// The three-sided tree forks by the same rule: k buffered writes copy
    /// at most k·height blocks, and a copied block still shares its mains'
    /// runs and every PST with the fork.
    #[test]
    fn a_three_sided_fork_copies_only_the_control_blocks_its_writes_touch() {
        let pts: Vec<Point> = (0..4000i64)
            .map(|i| Point::new(i, (i * 7_919) % 4_000, i as u64))
            .collect();
        let mut tree =
            crate::ThreeSidedTree::build(Geometry::new(4), IoCounter::new(), pts.clone());
        let stats = tree.stats();
        assert!(stats.metablocks > 100 && stats.height >= 3, "{stats:?}");
        let fork = tree.fork_snapshot(IoCounter::new());
        assert!(
            tree.metas.diverged(&fork.metas).is_empty(),
            "a fork shares all"
        );

        tree.insert(Point::new(10, 40, 10_000));
        tree.insert(Point::new(2_000, 5, 10_001));
        tree.delete(pts[3_999]);
        let touched = tree.metas.diverged(&fork.metas);
        assert!(!touched.is_empty() && touched.len() <= 3 * stats.height);
        let same = |a: &Option<Arc<_>>, b: &Option<Arc<_>>| match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        };
        for &mb in &touched {
            let (live, frozen) = (tree.metas.get(mb), fork.metas.get(mb));
            assert!(Run::ptr_eq(&live.vertical, &frozen.vertical));
            assert!(Run::ptr_eq(&live.horizontal, &frozen.horizontal));
            assert!(
                Run::ptr_eq(&live.vkeys, &frozen.vkeys) && Run::ptr_eq(&live.hkeys, &frozen.hkeys)
            );
            assert!(same(&live.pst, &frozen.pst) && same(&live.children_pst, &frozen.children_pst));
            if let (Some(a), Some(b)) = (&live.td, &frozen.td) {
                assert!(same(&a.pst, &b.pst) && same(&a.del_pst, &b.del_pst), "{mb}");
            }
        }
        assert_eq!((fork.len(), tree.len()), (4_000, 4_001));
        fork.validate_unbilled();
        tree.validate_unbilled();
    }
}
