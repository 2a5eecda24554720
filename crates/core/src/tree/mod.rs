//! The metablock skeleton both trees share: §3's control information and
//! §3.2's semi-dynamic machinery, written once. The paper's §4 tree is the
//! §3 tree with priority search trees in place of corner structures — the
//! proof of Lemma 4.4 "parallels that of Lemma 3.6" — so [`Tree`] holds the
//! state of either, and a [`Shape`] supplies only what differs:
//!
//! * the query organisation over a metablock's mains and over a TD — a
//!   [`crate::CornerStructure`] (Lemma 3.1) or an `ExternalPst` (Lemma
//!   4.1) — with the hooks that plan, build, collect and free it;
//! * the sibling snapshots a child carries (`TS`, or `TSL`/`TSR`) and, on
//!   the 3-sided tree, the parent's children PST;
//! * the checks of what only one shape keeps, and the diagonal tree's
//!   `y ≥ x` admission and ablation options.
//!
//! Submodules: [`write`] (insert, delete and `apply_batch`: the descent,
//! buffering, tombstones and their triggers), [`reorg`] (level-I, the TD
//! fold, the TS reorganisation, level-II, the splits and the occupancy
//! shrink), [`job`] (charge dribbling and the background shrink job),
//! [`build`] (the two-phase static build and the snapshot install) and
//! [`validate`] (the unbilled validator and [`TreeStats`]). Only the
//! queries stay per shape, in `diag` and `threesided`.

mod build;
mod job;
mod reorg;
mod validate;
mod write;

pub(crate) use build::{PlanCtx, SlabPlan};
pub use job::ReorgCounts;
pub use validate::TreeStats;

use std::fmt::Debug;
use std::sync::Arc;

use ccix_extmem::{
    BackendSpec, Geometry, IoCounter, PageId, PathPin, Point, RankScratch, Run, Slots, SortedIds,
    SortedRun, TypedStore, YRanks,
};

use crate::bbox::{BBox, Key};
use crate::tuning::Tuning;

/// Record `mb` as dirty (dedup'd) for an operation's end-of-operation
/// control-block writeback.
pub(crate) fn mark_dirty(dirty: &mut Vec<MbId>, mb: MbId) {
    if !dirty.contains(&mb) {
        dirty.push(mb);
    }
}

/// Append `p` to one of block `mb`'s buffered page runs — in place on the
/// run's open last page, or on a fresh page grown onto the run — under a
/// single copy-on-write access to the block. `run` picks the run and its
/// point count, and may update the block's other members for the same
/// append (a tombstone mirror). Returns the fresh page, if one was opened,
/// and the new count.
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

/// How a write operation's descent bills a control-block touch: a single
/// write pins its path in a list of its own (one read on first touch), a
/// batch bills through its shared [`ReadCtx`] (one read per residency).
pub(crate) trait Bill {
    fn touch(&mut self, counter: &IoCounter, mb: MbId);
}

impl Bill for Vec<MbId> {
    /// The search path is `O(log_B n)` control blocks, well within the
    /// model's `Θ(B²)`-point working memory, so pinning it is the faithful
    /// charge — the paper's update analysis (§3.2) likewise counts each
    /// control block once per insert, not once per access. Mutations are
    /// paid by one write per *dirty* block at the end of the operation
    /// (see [`Tree::flush_dirty`]).
    fn touch(&mut self, counter: &IoCounter, mb: MbId) {
        if !self.contains(&mb) {
            counter.add_reads(1);
            self.push(mb);
        }
    }
}

impl Bill for ReadCtx {
    fn touch(&mut self, _: &IoCounter, mb: MbId) {
        self.touch_meta(mb);
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
    /// Packed control information about the child; empty defaults when
    /// packing is disabled ([`Tuning::pack_h_pages`] = 0).
    pub packed: PackedInfo,
}

/// `child`'s entry among `children`, for in-place mutation.
pub(crate) fn entry_mut(children: &mut [ChildEntry], child: MbId) -> &mut ChildEntry {
    let entry = children.iter_mut().find(|c| c.mb == child);
    entry.expect("child present in parent")
}

impl ChildEntry {
    /// A fresh entry for `mb` over the slab `[slab_lo, slab_hi)`, with no
    /// buffered points and empty mirrors.
    pub fn new(
        mb: MbId,
        (slab_lo, slab_hi): (Key, Key),
        main_bbox: Option<BBox>,
        sub_yhi: Option<Key>,
    ) -> Self {
        Self {
            mb,
            slab_lo,
            slab_hi,
            main_bbox,
            upd_ymax: None,
            sub_yhi,
            packed: PackedInfo::default(),
        }
    }

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
    pub(crate) fn mirror<S: Shape>(&mut self, h: usize, c: &MetaBlock<S>) {
        self.h_pages = c.horizontal.prefix(h);
        self.h_tops = c.hkeys.prefix(h);
        self.h_live = Run::from_slice(&c.h_live[..h.min(c.h_live.len())]);
        self.h_more = c.horizontal.len() > h;
        self.upd_pages = c.update.clone();
        self.tomb_pages = c.tomb.clone();
    }
}

/// A sibling snapshot (`TS(M)` of Fig. 10; the 3-sided tree's `TSL`/`TSR`):
/// the top points among everything stored in `M`'s siblings on one side at
/// the last TS reorganisation, blocked horizontally (y-descending). The
/// paper stores the top `B²`; [`Tuning::ts_snapshot_pages`] can cap the
/// budget lower.
#[derive(Clone, Debug)]
pub struct TsInfo {
    /// The snapshot's page run, shared with the parent's packed mirror.
    pub(crate) pages: Run<PageId>,
    pub(crate) n: usize,
    /// True when sibling points were dropped to fit the budget. A scan of a
    /// non-truncated snapshot that never crosses the query bottom has seen
    /// *every* sibling point above it (the crossing case of Fig. 17b); a
    /// truncated one only certifies `n` answers (Fig. 17a).
    pub(crate) truncated: bool,
}

impl TsInfo {
    /// A snapshot over the y-descending `pts`, laid out on fresh pages.
    pub(crate) fn alloc(store: &mut TypedStore<Point>, pts: &[Point], truncated: bool) -> Self {
        Self {
            pages: store.alloc_run(pts),
            n: pts.len(),
            truncated,
        }
    }
}

/// A shared handle to a shape's organisation, if one is built. (An alias,
/// so that the derives below bound `S` alone, not `S::Org`.)
pub(crate) type OrgSlot<S> = Option<Arc<<S as sealed::Hooks>::Org>>;

/// The `TD` of an internal metablock (§3.2; Lemma 4.4): the points inserted
/// into this metablock's children since the last TS reorganisation, kept
/// query-able as the shape's organisation plus a staging area.
///
/// Deletions give it a **negative side**: the tombstones routed into this
/// metablock's children since the last TS reorganisation, mirrored here so
/// the snapshot-answered routes — which answer covered siblings from their
/// *stale* snapshot plus this TD — can subtract what was deleted since the
/// snapshot was taken, without visiting the covered children. The fold
/// that settles staged inserts into the organisation also annihilates
/// insert/delete pairs, so only tombstones whose insert predates the TD
/// survive into `del_org`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Td<S: sealed::Hooks> {
    /// Organisation over the settled TD points. Behind `Arc`, like every
    /// control-block member that is only ever replaced wholesale, so
    /// copying a control block shared with an epoch bumps a handle.
    pub org: OrgSlot<S>,
    pub n_built: usize,
    /// Staging pages: points awaiting the next TD fold, at most
    /// [`Tuning::td_cap_pages`] pages of `B` (a shared run, grown by
    /// [`Run::push`]).
    pub staged: Run<PageId>,
    pub n_staged: usize,
    /// Organisation over the settled tombstones (queried alongside `org` by
    /// the snapshot-answered routes, reporting ids to subtract).
    pub del_org: OrgSlot<S>,
    pub n_del_built: usize,
    /// Tombstone staging pages, at most [`Tuning::td_cap_pages`] pages of
    /// `B` (a shared run, grown by [`Run::push`]).
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
pub(crate) fn td_mut<S: Shape>(m: &mut MetaBlock<S>) -> &mut Td<S> {
    m.td.as_mut().expect("internal metablock carries a TD")
}

impl<S: Shape> Td<S> {
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
/// replaced wholesale (the blockings and their key runs, the organisations
/// and snapshots) or grown one page at a time (the buffer and staging page
/// runs, via [`Run::push`]) is shared by handle, so the first write to a
/// block an epoch still holds copies a handful of words and the buffers a
/// single operation edits in place (`h_live`, `tomb_buf`, the TD's
/// `del_staged_buf`, `children`).
#[derive(Clone, Debug)]
pub struct MetaBlock<S: sealed::Hooks> {
    /// Main points, x-sorted, `B` per page ("vertically oriented blocks").
    pub(crate) vertical: Run<PageId>,
    /// First x-key of each vertical page (control info: the slab's
    /// "boundary values"), used to locate a page without a linear scan.
    pub(crate) vkeys: Run<Key>,
    /// Main points, y-descending, `B` per page ("horizontally oriented").
    pub(crate) horizontal: Run<PageId>,
    /// The mains' y-order: the x-rank in `vertical` of each point of
    /// `horizontal`, in its order. Kept for the block's whole life, so a
    /// reorganisation carries the order on instead of deriving it again.
    pub(crate) order: YRanks,
    /// First (largest) y-key of each horizontal page, so scans skip a
    /// crossing page that cannot contain an answer.
    pub(crate) hkeys: Run<Key>,
    /// Live (not yet tombstoned) point count per horizontal page, parallel
    /// to `horizontal`. A routed tombstone whose victim sits in the mains
    /// decrements the victim page's count, so a query can skip a fully-dead
    /// page without reading it — the fix for the post-delete-flood stabbing
    /// regression (a flood used to leave pages of 100% shadowed points that
    /// every later query still paid to scan).
    pub(crate) h_live: Vec<u32>,
    pub(crate) n_main: usize,
    /// Smallest `(y, id)` among mains. Routing invariant: every point in a
    /// descendant metablock (mains *and* updates) is strictly below this.
    pub(crate) y_lo_main: Option<Key>,
    pub(crate) main_bbox: Option<BBox>,
    /// The shape's organisation over the mains: a corner structure when the
    /// region can contain a query corner (its stage-2 blocking shared with
    /// `vertical`), or a PST once the mains span more than one page.
    pub(crate) org: OrgSlot<S>,
    /// Update buffer: buffered inserts (§3.2), at most
    /// [`Tuning::upd_cap_pages`] pages of `B`. The paper's update
    /// *block* is the 1-page special case.
    pub(crate) update: Run<PageId>,
    pub(crate) n_upd: usize,
    /// Tombstone buffer: buffered deletes, at most
    /// [`Tuning::tomb_cap_pages`] pages of `B`. The routing
    /// invariant lands every tombstone in the metablock that holds the
    /// live copy (mains or update buffer); the next level-I reorganisation
    /// annihilates the pair. Queries scan pending tombstone pages wherever
    /// they scan the update block and subtract the ids.
    pub(crate) tomb: Run<PageId>,
    pub(crate) n_tomb: usize,
    /// Control-block mirror of the `tomb` pages' contents, in arrival
    /// order. Bounded by `tomb_cap_pages · B` points — the same control-
    /// information order as `vkeys`/`hkeys` — it lets every query that
    /// already holds this control block subtract the pending deletes for
    /// free, instead of paying one read per pending tombstone page (the
    /// post-delete-flood stabbing regression). The pages stay authoritative:
    /// reorganisations still read and bill them.
    pub(crate) tomb_buf: Vec<Point>,
    /// The shape's sibling snapshots, and (3-sided) the children PST.
    pub(crate) sib: S::Sib,
    /// `Some` for internal metablocks.
    pub(crate) td: Option<Td<S>>,
    /// Child slots, in slab order. Empty for leaves.
    pub(crate) children: Vec<ChildEntry>,
}

impl<S: Shape> MetaBlock<S> {
    /// A metablock over its blockings, with empty buffers and no snapshot
    /// (`internal` decides whether a TD slot is created).
    pub(crate) fn new(
        store: &mut TypedStore<Point>,
        by_x: &SortedRun,
        order: YRanks,
        children: Vec<ChildEntry>,
        internal: bool,
    ) -> Self {
        let mut m = Self {
            vertical: Run::default(),
            vkeys: Run::default(),
            horizontal: Run::default(),
            order: YRanks::default(),
            hkeys: Run::default(),
            h_live: Vec::new(),
            n_main: 0,
            y_lo_main: None,
            main_bbox: None,
            org: None,
            update: Run::default(),
            n_upd: 0,
            tomb: Run::default(),
            n_tomb: 0,
            tomb_buf: Vec::new(),
            sib: S::Sib::default(),
            td: internal.then(Td::default),
            children,
        };
        m.set_mains(store, by_x, order);
        m
    }

    /// Lay the mains out afresh: the vertical blocking over `by_x` and the
    /// horizontal one through `order`, its y-order, which the block keeps,
    /// with their keys, live counts and summaries. No sorting happens
    /// here: both orders are typed invariants.
    pub(crate) fn set_mains(
        &mut self,
        store: &mut TypedStore<Point>,
        by_x: &SortedRun,
        order: YRanks,
    ) {
        assert_eq!(by_x.len(), order.len(), "y-order of another run");
        let b = store.capacity();
        let ranks = order.as_slice();
        // Every run is collected straight into its final form, one
        // allocation each.
        self.vertical = store.alloc_run(by_x);
        self.vkeys = by_x.chunks(b).map(|c| c[0].xkey()).collect();
        self.hkeys = ranks
            .chunks(b)
            .map(|c| by_x[c[0] as usize].ykey())
            .collect();
        self.h_live = ranks.chunks(b).map(|c| c.len() as u32).collect();
        self.horizontal = store.alloc_run_gathered(by_x, ranks);
        self.n_main = by_x.len();
        self.main_bbox = BBox::of_points(by_x);
        self.y_lo_main = ranks.last().map(|&r| by_x[r as usize].ykey());
        self.order = order;
    }

    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// What [`Tree::install_snapshots`] hands a shape to rebuild a parent's
/// children organisation from.
pub enum Children<'a, P> {
    /// The static build's plan for the parent.
    Planned(P),
    /// A TS reorganisation's merged children: their x-sorted runs laid
    /// end to end in slab order (x-disjoint, so the whole is x-sorted)
    /// and each one's y-order.
    Merged {
        run: &'a SortedRun,
        orders: &'a [YRanks],
    },
}

/// What one metablock tree does differently from the other. Sealed: its
/// hooks live on a supertrait this crate does not export, so only the
/// diagonal tree's `Diag` (behind [`crate::MetablockTree`]) and the 3-sided
/// tree's `ThreeSided` (behind [`crate::ThreeSidedTree`]) implement it and
/// only [`Tree`] calls them; everything else about a tree is [`Tree`]'s,
/// written once.
pub trait Shape: sealed::Hooks {}

pub(crate) mod sealed {
    use super::*;

    /// The hooks behind [`Shape`], each keeping its tree's billing.
    pub trait Hooks: Copy + Debug + Default + Send + Sync {
        /// The query organisation over a metablock's mains and over a TD.
        type Org: Debug;
        /// A metablock's sibling-snapshot members.
        type Sib: Clone + Debug + Default;
        /// What the static build plans for one node's organisations, off
        /// the store and on any thread.
        type Plan: Send;
        /// Whether a child carries a right snapshot beside its left one.
        const TWO_SIDED: bool;

        /// Check that `p` may be stored (the diagonal tree's `y ≥ x`).
        fn admit(&self, _p: &Point) {}

        /// Every point of `org`, x-sorted, billed as the shape bills a read
        /// of the whole structure.
        fn collect_org(t: &Tree<Self>, org: &Self::Org) -> SortedRun;

        /// Every point of `org`, unbilled (validator use).
        fn org_points_unbilled(t: &Tree<Self>, org: &Self::Org) -> Vec<Point>;

        /// Pages `org` occupies.
        fn org_pages(org: &Self::Org) -> usize;

        /// Release the point-store pages `org` owns (a PST owns its own,
        /// which go with its last handle).
        fn free_org(_store: &mut TypedStore<Point>, _org: &Self::Org) {}

        /// Point `slot` at a TD organisation over `pts` (`None` when empty).
        fn build_td_org(t: &mut Tree<Self>, slot: &mut Option<Arc<Self::Org>>, pts: SortedRun);

        /// Point `m.org` at an organisation over `by_x` and its y-order
        /// `m.order`, the mains `m`'s blockings were just rebuilt over.
        fn build_main_org(t: &mut Tree<Self>, m: &mut MetaBlock<Self>, by_x: &SortedRun);

        /// Plan a node's organisations over its mains (the run and its
        /// y-order) and, where the shape keeps one, over its planned
        /// `children`' mains.
        fn plan_node(
            ctx: &PlanCtx<Self>,
            mains_x: &SortedRun,
            mains_y: &YRanks,
            children: &[SlabPlan<Self>],
        ) -> Self::Plan;

        /// Point `m.org` at the organisation `plan` laid out for the mains
        /// `m`'s blockings were just built over, taking it from `plan`.
        fn materialise_org(t: &mut Tree<Self>, m: &mut MetaBlock<Self>, plan: &mut Self::Plan);

        /// A metablock's `[left, right]` sibling snapshots.
        fn snapshots(sib: &Self::Sib) -> [Option<&TsInfo>; 2];

        /// Replace the snapshots in `sib` by runs over the `[left, right]`
        /// top lists (with their truncation bits), releasing the old runs,
        /// in the shape's own page order.
        fn replace_snapshots(
            store: &mut TypedStore<Point>,
            sib: &mut Self::Sib,
            new: [Option<(&[Point], bool)>; 2],
        );

        /// The organisation an interior metablock keeps over all its
        /// children's points, if the shape keeps one.
        fn children_org(_sib: &Self::Sib) -> Option<&Self::Org> {
            None
        }

        /// Rebuild the children organisation of `parent` from `children`.
        fn install_children_org(
            _t: &mut Tree<Self>,
            _parent: MbId,
            _children: Children<'_, Self::Plan>,
        ) {
        }

        /// Check the organisation over a metablock's `mains` (validator
        /// use).
        fn check_main_org(_t: &Tree<Self>, _m: &MetaBlock<Self>, _mains: &[Point]) {}

        /// Pages held outside the point store, beside one control block per
        /// metablock.
        fn aux_pages(_t: &Tree<Self>) -> usize {
            0
        }
    }
}

/// A dynamic metablock tree of shape `S`: the diagonal-corner tree of §3
/// ([`crate::MetablockTree`]) or the 3-sided tree of §4
/// ([`crate::ThreeSidedTree`]).
#[derive(Debug)]
pub struct Tree<S: sealed::Hooks> {
    pub(crate) geo: Geometry,
    pub(crate) counter: IoCounter,
    pub(crate) store: TypedStore<Point>,
    /// Control blocks, shared with every [`Tree::fork_snapshot`] taken
    /// since a block last changed; all mutation goes through
    /// [`Slots::make_mut`] / `take_meta`, which copy a shared block first.
    pub(crate) metas: Slots<MetaBlock<S>>,
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
    pub(crate) shape: S,
    pub(crate) tuning: Tuning,
    /// Incremental-reorganisation state ([`Tuning::reorg_pages_per_op`]):
    /// the deferred-work debt meter plus the in-progress background shrink
    /// job, if any. Always default/empty when the budget is 0.
    pub(crate) reorg: job::ReorgState,
    /// The rank maps the reorganisations carry y-orders through, kept so
    /// they stop allocating once grown (never shared with a fork).
    pub(crate) ranks: RankScratch,
}

impl<S: Shape> Tree<S> {
    /// An empty tree whose point store lives on `spec`.
    pub(crate) fn empty(
        spec: &BackendSpec,
        geo: Geometry,
        counter: IoCounter,
        shape: S,
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
            shape,
            tuning,
            reorg: job::ReorgState::default(),
            ranks: RankScratch::default(),
        }
    }

    /// Fork a frozen read **snapshot** of this tree, charging its I/O to
    /// `counter`.
    ///
    /// The snapshot shares every data page (see
    /// [`ccix_extmem::TypedStore::fork`]), every control block and every
    /// side structure with the live tree: forking costs one handle bump per
    /// 16 page slots and one per metablock, copies nothing, and charges no
    /// I/O. Afterwards a mutation on either side copies only the chunks,
    /// pages and control blocks it touches. It answers every read exactly
    /// as the live tree would at the moment of the fork — buffered updates,
    /// pending tombstones and even a mid-flight incremental shrink job
    /// (whose frozen runs and side delta are part of the copied control
    /// state) included. Reads on the snapshot bill `counter`, never the
    /// live tree's counter or its active shunt; a shared PST's pages are
    /// billed through the reading tree's pin, and a rebuild forks it onto
    /// the rebuilding tree's counter.
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
            ranks: RankScratch::default(),
            ..*self
        }
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

    /// Disk blocks occupied: data pages, the pages of any side structure
    /// kept outside the point store (the 3-sided tree's PSTs), plus one
    /// control block per metablock (§3.1 stores "a constant number of disk
    /// blocks per metablock" of control information).
    pub fn space_pages(&self) -> usize {
        self.store.pages_in_use() + self.metas.live() + S::aux_pages(self)
    }

    /// `(page id, encoded bytes)` images of the point store's live model
    /// pages (see [`ccix_extmem::TypedStore::page_images`]). Uncharged;
    /// for the differential backend suite and the page pins.
    pub fn store_page_images(&self) -> Vec<(u32, Vec<u8>)> {
        self.store.page_images()
    }

    /// As [`Tree::store_page_images`], read back from the file backend;
    /// `None` on the model backend.
    pub fn store_file_page_images(&self) -> Option<Vec<(u32, Vec<u8>)>> {
        self.store.file_page_images()
    }

    // ---- control-information access (charged) ---------------------------

    /// Read a metablock's control information: one I/O.
    pub(crate) fn meta(&self, mb: MbId) -> &MetaBlock<S> {
        self.counter.add_reads(1);
        self.metas.get(mb)
    }

    /// Take a metablock's control information for mutation: one read I/O.
    /// Pair with [`Tree::put_meta`].
    pub(crate) fn take_meta(&mut self, mb: MbId) -> MetaBlock<S> {
        self.counter.add_reads(1);
        self.metas.take(mb)
    }

    /// Write back control information: one write I/O.
    pub(crate) fn put_meta(&mut self, mb: MbId, meta: MetaBlock<S>) {
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
    pub(crate) fn ctx_meta(&self, ctx: &mut ReadCtx, mb: MbId) -> &MetaBlock<S> {
        ctx.touch_meta(mb);
        self.metas.get(mb)
    }

    /// Pinned data-page read: one I/O per residency in `ctx`.
    pub(crate) fn ctx_read(&self, ctx: &mut ReadCtx, pg: PageId) -> &[Point] {
        self.store.read_pinned(&mut ctx.pin, SPACE_STORE, pg)
    }

    /// Charge one write per distinct dirty control block of a pinned
    /// operation.
    pub(crate) fn flush_dirty(&self, dirty: &[MbId]) {
        self.counter.add_writes(dirty.len() as u64);
    }

    pub(crate) fn alloc_meta(&mut self, meta: MetaBlock<S>) -> MbId {
        self.counter.add_writes(1);
        // Slots are never reused, so `is_live` stays a reliable liveness
        // test for the restructuring cascades of §3.2 (reorganisations
        // fall back to re-routing when a metablock they hold disappears).
        self.metas.push(meta)
    }

    /// Free a metablock's control block and every data page it owns,
    /// returning the (possibly still snapshot-shared) block.
    pub(crate) fn free_metablock(&mut self, mb: MbId) -> Arc<MetaBlock<S>> {
        let meta = self.metas.free(mb);
        self.store.free_run(&meta.vertical);
        self.store.free_run(&meta.horizontal);
        if let Some(org) = &meta.org {
            S::free_org(&mut self.store, org);
        }
        self.store.free_run(&meta.update);
        self.store.free_run(&meta.tomb);
        self.tombs_pending -= meta.n_tomb;
        for ts in S::snapshots(&meta.sib).into_iter().flatten() {
            self.store.free_run(&ts.pages);
        }
        if let Some(td) = &meta.td {
            for (org, staged) in [(&td.org, &td.staged), (&td.del_org, &td.del_staged)] {
                if let Some(org) = org {
                    S::free_org(&mut self.store, org);
                }
                self.store.free_run(staged);
            }
        }
        meta
    }

    /// Metablock point capacity `B²`.
    pub(crate) fn cap(&self) -> usize {
        self.geo.b2()
    }

    // ---- packed-entry maintenance ----------------------------------------

    /// Mirror `child`'s query-side control info (top horizontal pages,
    /// update-buffer run) into its entry in `parent`. Purely in-memory: the
    /// caller's operation already holds both control blocks, and every
    /// mirrored value is a page id or key already known to it. Snapshot
    /// mirrors are maintained by [`Tree::install_snapshots`].
    pub(crate) fn sync_packed_entry(&mut self, parent: MbId, child: MbId) {
        let h = self.tuning.pack_h_pages;
        if h == 0 {
            return;
        }
        let children = &mut self.metas.make_mut(parent).children;
        let mut packed = std::mem::take(&mut entry_mut(children, child).packed);
        packed.mirror(h, self.metas.get(child));
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

    /// What the static-build pin needs of a tree beyond the skeleton.
    trait Pinned: Sized {
        fn build_with(counter: IoCounter, pts: Vec<Point>, tuning: Tuning) -> Self;
        /// The answers to query `i` of a fixed set over the pinned points.
        fn answers(&self, i: i64) -> Vec<Point>;
    }

    impl Pinned for crate::MetablockTree {
        fn build_with(counter: IoCounter, pts: Vec<Point>, tuning: Tuning) -> Self {
            let options = crate::DiagOptions::default();
            Self::build_tuned(Geometry::new(4), counter, pts, options, tuning)
        }
        fn answers(&self, i: i64) -> Vec<Point> {
            self.query(i * 2_500)
        }
    }

    impl Pinned for crate::ThreeSidedTree {
        fn build_with(counter: IoCounter, pts: Vec<Point>, tuning: Tuning) -> Self {
            Self::build_tuned(Geometry::new(4), counter, pts, tuning)
        }
        fn answers(&self, i: i64) -> Vec<Point> {
            let x1 = i * 2_500;
            self.query(x1, x1 + 1_000 + i * 500, i * 3_000)
        }
    }

    fn stat_row(s: TreeStats) -> [usize; 9] {
        [
            s.metablocks,
            s.leaves,
            s.height,
            s.pages,
            s.points,
            s.pending_updates,
            s.pending_tombs,
            s.snapshot_pages,
            s.org_pages,
        ]
    }

    /// FNV-1a over the points' coordinates and ids, in order.
    fn digest<'a>(pts: impl IntoIterator<Item = &'a Point>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for p in pts {
            let words = [p.x as u64, p.y as u64, p.id];
            for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Build over the pinned points with each thread budget, and check the
    /// build's bills, its space, its shape, what the validator walks and
    /// what a fixed query set reports against `want`.
    fn pin_static_build<S: Shape>(want: ([u64; 3], [usize; 9], [u64; 2]))
    where
        Tree<S>: Pinned,
    {
        // 40 000 points at B = 4: the root's remainder crosses
        // `PAR_THRESHOLD`, so the planner fans out under every budget > 1.
        let pts: Vec<Point> = (0..40_000i64)
            .map(|i| {
                let x = (i * 7_919) % 100_000;
                Point::new(x, x + (i * 104_729) % 50_000, i as u64)
            })
            .collect();
        assert!(pts.len() - Geometry::new(4).b2() >= crate::par::PAR_THRESHOLD);
        for threads in [1usize, 2, 7] {
            let tuning = Tuning {
                build_threads: threads,
                ..Tuning::default()
            };
            let counter = IoCounter::new();
            let tree = Tree::<S>::build_with(counter.clone(), pts.clone(), tuning);
            let bills = [counter.reads(), counter.writes(), tree.space_pages() as u64];
            let contents = digest(&tree.validate_unbilled());
            let answers: Vec<Point> = (0..40).flat_map(|i| tree.answers(i)).collect();
            let got = (bills, stat_row(tree.stats()), [contents, digest(&answers)]);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn static_build_is_pinned_on_both_trees_across_thread_counts() {
        pin_static_build::<crate::diag::Diag>((
            [2_047, 35_322, 33_275],
            [3_413, 2_048, 7, 33_275, 40_000, 0, 0, 7_164, 34],
            [3_698_331_365_848_775_458, 329_772_800_976_574_055],
        ));
        pin_static_build::<crate::threesided::ThreeSided>((
            [4_777, 78_348, 73_571],
            [3_413, 2_048, 7, 73_571, 40_000, 0, 0, 14_056, 33_438],
            [3_698_331_365_848_775_458, 15_431_235_761_966_854_011],
        ));
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
}
