//! Write-path and space tuning for the metablock trees.
//!
//! The paper's semi-dynamic machinery (§3.2, §4) fixes several constants at
//! their simplest values: the update buffer is one block, the TD staging
//! area is one block, a TS sibling snapshot holds the top `B²` points, and
//! the corner-structure greedy adopts with factor 2. None of those choices
//! is load-bearing for correctness — only the *asymptotic* argument needs
//! "Θ(B) buffered inserts per level-I" and "Θ(B²) snapshot points" — so
//! they are exposed here as knobs. [`Tuning::default`] is the measured
//! sweet spot for the E9 workload (see `docs/tuning.md`);
//! [`Tuning::paper`] reproduces the paper's constants exactly.

use ccix_extmem::Geometry;

/// Tunable constants of the semi-dynamic metablock machinery, shared by the
/// diagonal-corner tree (§3) and the 3-sided tree (§4).
///
/// All budgets are expressed in *pages* so they scale with the geometry.
/// Effective values are clamped per tree geometry (see the `*_cap`
/// helpers below): buffers never exceed `B/2` pages, so a buffer is always small
/// against the `B²` metablock capacity and the paper's invariants and
/// amortisation arguments survive unchanged — a batch of `k` pages simply
/// amortises each level-I reorganisation over `k·B` inserts instead of `B`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tuning {
    /// Pages of buffered inserts per metablock before a level-I
    /// reorganisation merges them into the mains. The paper uses 1.
    /// Queries scan the pending pages wherever they scan the update block
    /// (Lemma 3.5), so visibility is unaffected; each examined metablock
    /// costs up to this many extra I/Os while its buffer is non-empty.
    pub update_batch_pages: usize,
    /// Staged pages per TD tracking structure before it is folded into the
    /// TD corner structure / PST. The paper uses 1. The delete-side staging
    /// area of the TD (pending tombstones below a parent, see
    /// `tomb_batch_pages`) folds on the same trigger.
    pub td_batch_pages: usize,
    /// Pages of buffered **tombstones** per metablock before a level-I
    /// reorganisation cancels them against the mains (§5 leaves deletion
    /// open; this reproduction closes it with tombstones that ride the
    /// insert machinery as negative updates). Queries scan the pending
    /// tombstone pages wherever they scan the update block, so deletions
    /// are visible immediately; each examined metablock costs up to this
    /// many extra I/Os while tombstones are pending. The paper has no
    /// deletes; `Tuning::paper()` uses the 1-block analogue of its update
    /// block.
    pub tomb_batch_pages: usize,
    /// Occupancy-triggered shrink: when the deletes absorbed since the last
    /// full (re)build exceed this percentage of the tree's size at that
    /// build (and at least `B²`), the whole tree is rebuilt from its live
    /// points — the classic global-rebuilding argument, amortising the
    /// `O(n/B)` merge-based rebuild over `Θ(n)` deletes so space stays
    /// `O(live/B)` under delete-heavy floods. `0` disables the shrink.
    pub shrink_deletes_pct: usize,
    /// Page budget of a TS sibling snapshot: `None` keeps the paper's `B`
    /// pages (`B²` points); `Some(k)` stores only the top `k·B` points and
    /// marks the snapshot truncated. Snapshots stay sound — a truncated,
    /// fully-scanned snapshot still certifies `k·B` answers — but the
    /// certificate threshold of Fig. 17a drops from `B²` to `k·B`.
    pub ts_snapshot_pages: Option<usize>,
    /// Corner-structure adoption factor `α` (adopt `cᵢ` when
    /// `|S*_j| > α·Ωᵢ`). The paper's rule is 2, bounding explicit storage
    /// by `2|S|`; larger values store fewer explicit answers at the price
    /// of more stage-2 scanning.
    pub corner_alpha: usize,
    /// **Packed control blocks**: how many of each child's top horizontal
    /// pages (ids + page-top keys) an interior metablock mirrors inline in
    /// its child entries, alongside mirrors of the child's update-buffer
    /// and TS-snapshot page runs. A query that must examine a straddling
    /// child then walks the child's top pages straight from the parent's
    /// control block — no read of the child's own control block — and the
    /// TS route reads snapshot pages without loading their owner first.
    /// The child's control block is touched only when the query outgrows
    /// the mirrored prefix, which at least `k·B` answers have then paid
    /// for. A few words per child, within §3.1's "constant number of disk
    /// blocks" of control information. `0` reproduces the paper's layout
    /// (no packing).
    pub pack_h_pages: usize,
    /// Keep the root control block **memory-resident across operations** —
    /// one block of the model's `Θ(B²)`-unit persistent main memory
    /// dedicated to the open tree, exactly as every production storage
    /// engine pins the top of its tree. Descents then read it for free;
    /// writes to it are still charged (durability), and it still counts in
    /// the structure's space. `false` reproduces the paper's strict
    /// cold-per-operation accounting, where even the root transfers once
    /// per operation.
    pub resident_root: bool,
    /// **Incremental reorganisation budget**: the maximum number of page
    /// transfers of *deferred reorganisation work* an insert or delete pays
    /// on top of its own routing. `0` (the default, and the paper's
    /// behaviour) runs every reorganisation to completion inside the
    /// triggering operation — amortised cost is optimal but a TD fold or
    /// occupancy shrink is a stop-the-world pause.
    ///
    /// With a budget `k > 0` the trees run LSM-style: level-I merges, TD
    /// folds, TS reorganisations, splits and push-downs execute with their
    /// charges **shunted** ([`ccix_extmem::IoCounter::begin_shunt`]) into a
    /// debt meter that each subsequent write bleeds at most `k` transfers
    /// of, and the occupancy shrink becomes a **two-sided background job**:
    /// the old tree is frozen while a resumable merge
    /// ([`ccix_extmem::MergeCursor`]) rebuilds it a few pages per
    /// operation, interim updates divert to a side delta the queries
    /// consult alongside the tree, and after cutover the delta drains back
    /// a few points per operation. Totals are conserved exactly (the debt
    /// is real work, paid later), so amortised tables are unchanged in the
    /// limit; what the knob buys is a *worst-case per-operation* bound of
    /// `O(height) + k` transfers, gated by the EL latency table.
    pub reorg_pages_per_op: usize,
    /// Threads for the **CPU-bound planning phases** of static (re)builds:
    /// the per-child sort/partition/corner/PST planning of
    /// `MetablockTree::build`, `ThreeSidedTree::build` and the subtree
    /// rebuilds of branching splits fan out over `std::thread::scope` on
    /// disjoint arena slices. `0` means "use the machine's available
    /// parallelism"; `1` is strictly sequential. Page allocation and every
    /// I/O charge stay on the calling thread, so the knob never changes an
    /// I/O count — the built structure is bit-identical for every setting.
    pub build_threads: usize,
    /// Threads for **shard-level fan-out** in the sharded interval index
    /// (`ccix-interval`'s `ShardedIntervalIndex`): batched queries, flood
    /// applies and bulk builds split into per-shard tasks, at most this many
    /// groups of them at once. Stab batches, one per request, go to the
    /// long-lived helpers of [`crate::par::run_pooled`]; bulk builds and
    /// writes from `FAN_OUT_MIN_OPS` operations up, rare and long, borrow
    /// their shards on scoped threads ([`crate::par::run_parallel`]). `0`
    /// means "use the machine's available parallelism"; `1` runs the shards
    /// strictly sequentially, in shard order, on the calling thread — the
    /// bit-identical-to-unsharded fallback. Each shard charges its own
    /// striped counter from whichever thread runs it, so the knob never
    /// changes an I/O count, only wall clock.
    pub shard_threads: usize,
}

impl Default for Tuning {
    /// The measured defaults behind `BENCH_baseline.json`: 4-page insert
    /// batches, 2-page TD staging, 8-page TS snapshots, the paper's `α = 2`
    /// (larger α saves more space but costs measurable stage-2 query I/O
    /// on the E9 workload — see experiment E14).
    fn default() -> Self {
        Self {
            update_batch_pages: 4,
            td_batch_pages: 2,
            tomb_batch_pages: 2,
            shrink_deletes_pct: 50,
            ts_snapshot_pages: Some(8),
            corner_alpha: 2,
            pack_h_pages: 4,
            resident_root: true,
            reorg_pages_per_op: 0,
            build_threads: 0,
            shard_threads: 0,
        }
    }
}

impl Tuning {
    /// The paper's constants: one-block buffers, full `B²` TS snapshots,
    /// adoption factor 2 (and, outside the paper's vocabulary, a strictly
    /// sequential build).
    pub fn paper() -> Self {
        Self {
            update_batch_pages: 1,
            td_batch_pages: 1,
            tomb_batch_pages: 1,
            shrink_deletes_pct: 50,
            ts_snapshot_pages: None,
            corner_alpha: 2,
            pack_h_pages: 0,
            resident_root: false,
            reorg_pages_per_op: 0,
            build_threads: 1,
            shard_threads: 1,
        }
    }

    // ---- budgets of a tree with geometry `geo` ------------------------------
    //
    // Buffers are clamped to B/2 pages so a buffer (≤ B²/2 points) never
    // rivals the B² metablock capacity: the paper's invariants and the
    // level-II threshold arithmetic survive for every geometry, including
    // the tiny-B property tests.

    /// Update-buffer budget in pages (≥ 1).
    pub(crate) fn upd_cap_pages(&self, geo: Geometry) -> usize {
        self.update_batch_pages.clamp(1, (geo.b / 2).max(1))
    }

    /// TD staging budget in pages (≥ 1), shared by the insert and delete
    /// staging areas.
    pub(crate) fn td_cap_pages(&self, geo: Geometry) -> usize {
        self.td_batch_pages.clamp(1, (geo.b / 2).max(1))
    }

    /// Tombstone-buffer budget in pages (≥ 1).
    pub(crate) fn tomb_cap_pages(&self, geo: Geometry) -> usize {
        self.tomb_batch_pages.clamp(1, (geo.b / 2).max(1))
    }

    /// TS (TSL/TSR) snapshot budget in points (≥ B).
    pub(crate) fn ts_cap_points(&self, geo: Geometry) -> usize {
        match self.ts_snapshot_pages {
            None => geo.b2(),
            Some(pages) => (pages.max(1) * geo.b).min(geo.b2()),
        }
    }

    /// Effective thread count for build planning: `build_threads`, with `0`
    /// resolved to the machine's available parallelism ([`crate::par::cores`]).
    pub fn effective_build_threads(&self) -> usize {
        match self.build_threads {
            0 => crate::par::cores(),
            t => t,
        }
    }

    /// Effective thread count for shard fan-out: `shard_threads`, with `0`
    /// resolved to the machine's available parallelism ([`crate::par::cores`]).
    pub fn effective_shard_threads(&self) -> usize {
        match self.shard_threads {
            0 => crate::par::cores(),
            t => t,
        }
    }
}
