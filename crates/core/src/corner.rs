//! The corner structure of Lemma 3.1.
//!
//! A set `S` of at most `k·B²` points (all above the diagonal `y ≥ x`) is
//! blocked so that any **diagonal-corner query** — report `{p ∈ S : p.x ≤ q ≤
//! p.y}` — costs at most `2t/B + O(1)` I/Os, using `O(k·B)` blocks:
//!
//! 1. `S` is split into a vertically oriented blocking (x-sorted, `B` per
//!    block); the right boundaries of the blocks form the candidate corner
//!    set `C`.
//! 2. A subset `C* ⊆ C` is chosen greedily from right to left; for each
//!    `c ∈ C*` the full answer to the query cornered at `c` is stored
//!    explicitly as a horizontally oriented blocking. The greedy rule
//!    (`|Δ⁻| + |Δ⁺| > |S_i|`, Fig. 12) simplifies — see
//!    [`CornerStructure::build`] — to *"adopt `cᵢ` when `|S*_j| > 2·|Ωᵢ|`"*,
//!    which keeps the total explicit storage under `2|S|` by the paper's
//!    charging argument.
//! 3. A query at `q` finds the rightmost `c* ≤ q` in a one-block index, reads
//!    the explicit answer for `c*` top-down until it falls below `q`
//!    (stage 1, Fig. 13a), then reads vertical blocks to the right of `c*`
//!    up to the block containing `q` (stage 2, Fig. 13b).

use ccix_extmem::{PageId, Point, Run, SortedRun, TypedStore, YRanks};

use crate::bbox::Key;

/// An adopted corner `c* ∈ C*` with its explicitly blocked answer.
#[derive(Clone, Debug)]
struct CStar {
    /// The boundary key of the corner (last x-key of vertical block `block`).
    key: Key,
    /// Index of the vertical block whose right boundary this corner is.
    block: usize,
    /// Explicit answer `{p : p.xkey ≤ key ∧ p.y ≥ key.0}`, y-descending,
    /// `B` points per page.
    pages: Vec<PageId>,
    /// First (largest) y-key of each explicit page — directory info that
    /// stops the stage-1 scan *before* a page with no answers.
    page_tops: Vec<Key>,
}

/// A Lemma 3.1 corner structure over one metablock's point set.
///
/// Pages live in the tree's shared point store; [`CornerStructure::free`]
/// releases them during reorganisations. The stage-2 vertical blocking can
/// either be owned (standalone structures, TD tracking) or *borrowed* from
/// the metablock's own vertical blocking — the two are byte-identical
/// (x-sorted, `B` per block), so a per-metablock corner structure built via
/// [`CornerStructure::build_shared`] stores only the explicit `C*` answer
/// sets and cuts the structure's space by a full `|S|/B` blocks.
#[derive(Clone, Debug, Default)]
pub struct CornerStructure {
    /// Stage-2 blocking: owned, or the host metablock's own run, shared.
    vertical: Run<PageId>,
    /// Whether `vertical` is owned (freed with the structure) or borrowed
    /// from the host metablock's vertical blocking.
    owns_vertical: bool,
    /// Right-boundary key of each vertical block (the candidate set `C`).
    boundaries: Vec<Key>,
    /// Largest `y` in each vertical block, so a stage-2 scan skips blocks
    /// that cannot contain an answer (directory info, like `boundaries`).
    block_ymax: Vec<i64>,
    cstars: Vec<CStar>,
    n: usize,
}

/// A query's entry into a [`CornerStructure`] (see
/// [`CornerStructure::route`]): valid for the structure and `q` it was
/// computed from.
#[derive(Clone, Copy, Debug)]
pub struct CornerRoute {
    /// The floor corner — rightmost adopted `c* ≤ q` — as an index into the
    /// `C*` directory, with the number of its explicit pages stage 1 reads.
    floor: Option<(usize, usize)>,
    /// First vertical block of stage 2.
    start_block: usize,
}

impl CornerStructure {
    /// Build over `points` (unsorted is fine; a copy is sorted internally),
    /// with the paper's adoption factor `α = 2` and an owned vertical
    /// blocking.
    ///
    /// I/O cost: one write per emitted page (vertical blocking + explicit
    /// sets). The greedy selection itself runs in memory — the set is at
    /// most `2B²` points, within the paper's `O(B²)` main-memory assumption.
    pub fn build(store: &mut TypedStore<Point>, points: &[Point]) -> Self {
        Self::build_tuned(store, points, 2)
    }

    /// As [`CornerStructure::build`], with an explicit adoption factor
    /// (see [`CornerStructure::build_shared`] for its meaning).
    pub fn build_tuned(store: &mut TypedStore<Point>, points: &[Point], alpha: usize) -> Self {
        Self::build_from_sorted(store, &SortedRun::from_unsorted(points.to_vec()), alpha)
    }

    /// As [`CornerStructure::build_tuned`] over an already x-sorted run —
    /// the TD rebuild path: the previous TD corner's vertical blocking is
    /// x-sorted, so folding a staged delta in is a merge, not a re-sort.
    pub fn build_from_sorted(
        store: &mut TypedStore<Point>,
        sorted: &SortedRun,
        alpha: usize,
    ) -> Self {
        let by_y = YRanks::argsort(sorted);
        let plan = CornerPlan::plan(sorted, &by_y, store.capacity(), alpha);
        let vertical = store.alloc_run(sorted);
        plan.materialise(store, vertical, true)
    }

    /// Build over a point set whose x-sorted vertical blocking already
    /// exists (a metablock's own vertical blocking): only the explicit
    /// answer sets are allocated; stage 2 reads the shared pages.
    ///
    /// `vertical` must be `by_x`'s `B`-per-page run, which the structure
    /// shares rather than copies, and `by_y` its y-order.
    /// `alpha` is the greedy adoption factor: candidate `cᵢ` is adopted when
    /// `|S*_j| > α·Ωᵢ` (the paper's rule is `α = 2`, which bounds the
    /// explicit storage by `2|S|`; larger `α` adopts fewer corners — less
    /// space, a little more stage-2 scanning per query).
    pub fn build_shared(
        store: &mut TypedStore<Point>,
        by_x: &SortedRun,
        by_y: &YRanks,
        vertical: &Run<PageId>,
        alpha: usize,
    ) -> Self {
        let plan = CornerPlan::plan(by_x, by_y, store.capacity(), alpha);
        plan.materialise(store, vertical.clone(), false)
    }

    /// Number of points indexed.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the structure indexes no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Pages *owned* by the structure (explicit sets, plus the vertical
    /// blocking unless it is shared with the host metablock).
    pub fn pages(&self) -> usize {
        let vertical = if self.owns_vertical {
            self.vertical.len()
        } else {
            0
        };
        vertical + self.cstars.iter().map(|c| c.pages.len()).sum::<usize>()
    }

    /// Where the query at `q` enters the structure — a binary search of the
    /// `C*` directory and a walk of the floor corner's page tops, done once
    /// and handed to both [`CornerStructure::planned_cost`] and the query.
    pub fn route(&self, q: i64) -> CornerRoute {
        let qkey: Key = (q, u64::MAX);
        // Rightmost adopted corner at or left of q.
        match self.cstars.partition_point(|c| c.key <= qkey) {
            0 => CornerRoute {
                floor: None,
                start_block: 0,
            },
            i => {
                let c = &self.cstars[i - 1];
                // The stage-1 scan reads pages while their top is ≥ (q, 0)
                // and stops inside the crossing page — exactly this count.
                let pages = c.page_tops.iter().take_while(|&&t| t >= (q, 0)).count();
                CornerRoute {
                    floor: Some((i - 1, pages)),
                    start_block: c.block + 1,
                }
            }
        }
    }

    /// Exact page count the query at `q` would read along `route`, computed
    /// purely from directory information (per-page top keys, per-block
    /// y-maxima). Lets a host metablock pick the cheaper of the corner
    /// query and a filtered scan of its own horizontal blocking.
    pub fn planned_cost(&self, q: i64, route: &CornerRoute) -> usize {
        let qkey: Key = (q, u64::MAX);
        let mut cost = route.floor.map_or(0, |(_, pages)| pages);
        for i in route.start_block..self.vertical.len() {
            if self.block_ymax[i] >= q {
                cost += 1;
            }
            if self.boundaries[i] >= qkey {
                break;
            }
        }
        cost
    }

    /// Answer the diagonal-corner query at `q`, appending matches to `out`.
    ///
    /// Costs at most `2⌈t/B⌉ + 6` reads (Lemma 3.1 gives `2t/B + 4` in
    /// ceiling-free arithmetic; two extra blocks come from rounding the two
    /// stages separately): one index read, the stage-1 explicit scan, and
    /// the stage-2 vertical scan. The per-page directory keys usually do
    /// better: a page is read only if it contains at least one answer.
    pub fn query_into(&self, store: &TypedStore<Point>, q: i64, out: &mut Vec<Point>) {
        if self.n == 0 {
            return;
        }
        // The index block: boundaries of C and the C* directory fit in a
        // constant number of pages for k ≤ B (|C| = kB/B ≤ B entries);
        // charge one read.
        store.counter().add_reads(1);
        self.query_stages(store, &mut PlainReads, q, &self.route(q), out);
    }

    /// As [`CornerStructure::query_into`] inside a pinned operation, along
    /// a `route` the caller already holds: pages are billed through the
    /// operation's [`ReadCtx`], and the directory — which rides in the host
    /// metablock's control block `host` — costs nothing when that block is
    /// already resident.
    ///
    /// [`ReadCtx`]: crate::tree::ReadCtx
    pub(crate) fn query_pinned(
        &self,
        store: &TypedStore<Point>,
        ctx: &mut crate::tree::ReadCtx,
        host: (u32, u64),
        q: i64,
        route: &CornerRoute,
        out: &mut Vec<Point>,
    ) {
        if self.n == 0 {
            return;
        }
        ctx.touch(host.0, host.1);
        self.query_stages(store, &mut PinnedReads { ctx }, q, route, out);
    }

    /// The two query stages, parameterised over how page reads are billed.
    fn query_stages<R: PageReads>(
        &self,
        store: &TypedStore<Point>,
        reads: &mut R,
        q: i64,
        route: &CornerRoute,
        out: &mut Vec<Point>,
    ) {
        let qkey: Key = (q, u64::MAX);

        // Stage 1: explicit answer of the floor corner, top-down until the
        // query's bottom boundary. Every point there has x ≤ c* ≤ q; the
        // route counted the pages that hold an answer.
        if let Some((floor, pages)) = route.floor {
            'stage1: for &page in &self.cstars[floor].pages[..pages] {
                for p in reads.read(store, page) {
                    if p.y < q {
                        break 'stage1;
                    }
                    out.push(*p);
                }
            }
        }

        // Stage 2: vertical blocks strictly right of the floor corner, left
        // to right, up to the block containing q; blocks whose largest y is
        // below the corner are skipped from the directory.
        for i in route.start_block..self.vertical.len() {
            if self.block_ymax[i] >= q {
                let mut crossed = false;
                for p in reads.read(store, self.vertical[i]) {
                    if p.xkey() > qkey {
                        crossed = true;
                        break;
                    }
                    if p.y >= q {
                        out.push(*p);
                    }
                }
                if crossed {
                    break;
                }
            }
            // If this block's boundary already covers q we are done.
            if self.boundaries[i] >= qkey {
                break;
            }
        }
    }

    /// Read back every indexed point (one I/O per vertical block); used when
    /// a TD structure is rebuilt with newly staged points.
    pub fn collect_points(&self, store: &TypedStore<Point>) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.n);
        for &pg in self.vertical.iter() {
            out.extend_from_slice(store.read(pg));
        }
        out
    }

    /// As [`CornerStructure::collect_points`], without charging I/Os
    /// (validation only).
    pub fn collect_points_unbilled(&self, store: &TypedStore<Point>) -> Vec<Point> {
        let mut out = Vec::with_capacity(self.n);
        for &pg in self.vertical.iter() {
            out.extend_from_slice(store.read_unbilled(pg));
        }
        out
    }

    /// Release every page owned by the structure (a shared vertical blocking
    /// belongs to the host metablock and is left alone).
    pub fn free(self, store: &mut TypedStore<Point>) {
        self.free_pages(store);
    }

    /// [`CornerStructure::free`] through a shared handle: the metablock
    /// tree keeps its corner structures behind `Arc` (an epoch snapshot may
    /// still hold the directory), so it releases the pages by reference and
    /// drops its handle.
    pub(crate) fn free_pages(&self, store: &mut TypedStore<Point>) {
        if self.owns_vertical {
            store.free_run(&self.vertical);
        }
        for c in &self.cstars {
            store.free_run(&c.pages);
        }
    }
}

/// The CPU-only half of a corner-structure build: the Fenwick-backed greedy
/// corner selection (Fig. 12) and the one-sweep explicit-answer bucketing,
/// computed from the x-sorted point set with **no store access and no
/// I/O** — a pure function, so the metablock trees run it on scoped worker
/// threads during their parallel build-planning phases.
/// [`CornerPlan::materialise`] then allocates the explicit answer sets on
/// the calling thread (one write per page, as before).
#[derive(Clone, Debug)]
pub(crate) struct CornerPlan {
    boundaries: Vec<Key>,
    block_ymax: Vec<i64>,
    /// Adopted corners in ascending block order: (vertical block index,
    /// corner key, explicit answer y-descending).
    answers: Vec<(usize, Key, Vec<Point>)>,
    n: usize,
}

impl CornerPlan {
    /// Plan over x-sorted `sorted` and its y-order `by_y`, with vertical
    /// block size `b` and greedy adoption factor `alpha`.
    pub(crate) fn plan(sorted: &SortedRun, by_y: &YRanks, b: usize, alpha: usize) -> Self {
        assert!(alpha >= 1, "adoption factor must be at least 1");
        let boundaries: Vec<Key> = sorted
            .chunks(b)
            .map(|c| c.last().expect("chunks are nonempty").xkey())
            .collect();
        let block_ymax: Vec<i64> = sorted
            .chunks(b)
            .map(|c| c.iter().map(|p| p.y).max().expect("chunks are nonempty"))
            .collect();
        let m = boundaries.len();
        let mut plan = Self {
            boundaries,
            block_ymax,
            answers: Vec::new(),
            n: sorted.len(),
        };
        if m < 2 {
            return plan; // single block: stage 2 alone answers queries
        }

        // The caller's y-order (the one its metablock keeps, which its
        // horizontal blocking was laid out through) serves the block counts
        // and the answer bucketing below: the plan sorts nothing itself.
        let by_y_idx = by_y.as_slice();

        // Candidate i is the right boundary of block i, for i = 0..m-1
        // (the last block's boundary is not a candidate). Process right to
        // left; the rightmost candidate is always adopted.
        //
        // Given the last adopted corner c*_j and a candidate c_i < c*_j
        // (Fig. 12):
        //   Ω_i  = |{p : p.xkey ≤ c_i ∧ p.y ≥ c*_j.x}|
        //   S_i  = |{p : p.xkey ≤ c_i ∧ p.y ≥ c_i.x}|   (answer at c_i)
        //   Δ⁻_i = S_i − Ω_i
        //   Δ⁺_i = |S*_j| − Ω_i
        // The adoption test |Δ⁻| + |Δ⁺| > |S_i| is therefore equivalent to
        // |S*_j| > 2·Ω_i.
        //
        // The counts come from per-block y-descending key lists (filled in
        // one pass off the shared argsort): "points with y ≥ bound among
        // blocks 0..=i" is a partition-point sum, `O(i log B)` per
        // candidate. With m ≤ 2B + 1 blocks for every corner structure a
        // metablock or TD can hold, the whole sweep is `O(m² log B)` —
        // cheaper (and far lighter on the allocator) than the Fenwick
        // sweep it replaces, with bit-identical adoption decisions. This
        // matters because the TD fold rebuilds its corner every `k·B`
        // inserts (see docs/tuning.md).
        let counts = BlockCounts::new(sorted, b, by_y_idx);

        let mut adopted: Vec<(usize, Key)> = Vec::new();
        let last_cand = m - 2;
        adopted.push((last_cand, plan.boundaries[last_cand]));
        let mut sj_x = plan.boundaries[last_cand].0;
        let mut sj_size = counts.count_y_ge(last_cand, sj_x);

        for i in (0..last_cand).rev() {
            let ci = plan.boundaries[i];
            let omega = counts.count_y_ge(i, sj_x);
            if sj_size > alpha * omega {
                let si = counts.count_y_ge(i, ci.0);
                adopted.push((i, ci));
                sj_x = ci.0;
                sj_size = si;
            }
        }
        adopted.reverse(); // ascending block order

        // Explicitly block the answer for every adopted corner, in one
        // sweep over the points instead of one prefix re-scan per corner
        // (the old per-corner filter was quadratic in the block count and
        // dominated build wall-clock at large B — see docs/tuning.md).
        // Point p belongs to the answer of adopted corner c iff
        // `block(p) ≤ c.block` (so `p.xkey ≤ c.key`) and `p.y ≥ c.key.0` —
        // with corners in ascending block/key order that is a contiguous
        // corner range, and the total bucket volume is ≤ 2|S| by the
        // paper's charging argument.
        let corner_xs: Vec<i64> = adopted.iter().map(|&(_, k)| k.0).collect();
        let corner_blocks: Vec<usize> = adopted.iter().map(|&(bl, _)| bl).collect();
        let mut answers: Vec<Vec<Point>> = vec![Vec::new(); adopted.len()];
        // Sweep in descending-y order (the shared y-order) so every bucket
        // comes out y-sorted for free — no per-answer re-sort. The strict
        // `(y, id)` order makes the result identical to sorting each
        // bucket, and the TD fold (which rebuilds its corner every `k·B`
        // inserts) stops paying `O(|answers| log)` per fold.
        for &i in by_y_idx {
            let idx = i as usize;
            let p = sorted[idx];
            let start = corner_blocks.partition_point(|&bl| bl < idx / b);
            let end = corner_xs.partition_point(|&x| x <= p.y);
            for bucket in answers[..end].iter_mut().skip(start) {
                bucket.push(p);
            }
        }
        plan.answers = adopted
            .into_iter()
            .zip(answers)
            .map(|((block, key), answer)| (block, key, answer))
            .collect();
        plan
    }

    /// Allocate the explicit answer sets and assemble the structure over
    /// the given vertical blocking (owned or borrowed from the host
    /// metablock). One write I/O per emitted page, on the calling thread.
    pub(crate) fn materialise(
        self,
        store: &mut TypedStore<Point>,
        vertical: Run<PageId>,
        owns_vertical: bool,
    ) -> CornerStructure {
        let b = store.capacity();
        let cstars = self
            .answers
            .into_iter()
            .map(|(block, key, answer)| {
                let page_tops: Vec<Key> = answer.chunks(b).map(|c| c[0].ykey()).collect();
                let pages = store.alloc_run(&answer);
                CStar {
                    key,
                    block,
                    pages,
                    page_tops,
                }
            })
            .collect();
        CornerStructure {
            vertical,
            owns_vertical,
            boundaries: self.boundaries,
            block_ymax: self.block_ymax,
            cstars,
            n: self.n,
        }
    }
}

/// How [`CornerStructure::query_stages`] bills page reads: directly against
/// the store's counter, or through a per-operation pin.
trait PageReads {
    fn read<'s>(&mut self, store: &'s TypedStore<Point>, pg: PageId) -> &'s [Point];
}

struct PlainReads;

impl PageReads for PlainReads {
    fn read<'s>(&mut self, store: &'s TypedStore<Point>, pg: PageId) -> &'s [Point] {
        store.read(pg)
    }
}

struct PinnedReads<'c> {
    ctx: &'c mut crate::tree::ReadCtx,
}

impl PageReads for PinnedReads<'_> {
    fn read<'s>(&mut self, store: &'s TypedStore<Point>, pg: PageId) -> &'s [Point] {
        store.read_pinned(&mut self.ctx.pin, crate::tree::SPACE_STORE, pg)
    }
}

/// Per-block y-descending key lists for the greedy selection's prefix
/// counts: one flat buffer, block `j`'s keys at `j·B..` in descending
/// order, filled in a single pass off the shared y-order. A corner
/// structure never spans more than `2B + 1` vertical blocks (its host
/// holds at most `2B²` points), so the `O(prefix · log B)` per-candidate
/// count keeps the whole sweep cheaper than maintaining a Fenwick tree —
/// with exactly the same counts, hence bit-identical adoption.
struct BlockCounts {
    /// y values, block-major, descending within each block.
    ys: Vec<i64>,
    /// Block size `B` (last block may be shorter).
    b: usize,
    n: usize,
}

impl BlockCounts {
    fn new(points: &[Point], b: usize, by_y_idx: &[u32]) -> Self {
        let n = points.len();
        let mut ys = vec![0i64; n];
        let blocks = n.div_ceil(b);
        // Per-block write cursors: walking the global y-desc order fills
        // each block's slice in descending order.
        let mut cursor: Vec<usize> = (0..blocks).map(|j| j * b).collect();
        for &i in by_y_idx {
            let j = i as usize / b;
            ys[cursor[j]] = points[i as usize].y;
            cursor[j] += 1;
        }
        Self { ys, b, n }
    }

    /// Points with `y ≥ bound` among blocks `0..=upto_block`.
    fn count_y_ge(&self, upto_block: usize, bound: i64) -> usize {
        let end = self.n.min((upto_block + 1) * self.b);
        self.ys[..end]
            .chunks(self.b)
            .map(|block| block.partition_point(|&v| v >= bound))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccix_extmem::{Geometry, IoCounter};
    use ccix_pst::oracle;

    fn above_diagonal_points(n: usize, seed: u64, range: i64) -> Vec<Point> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n)
            .map(|i| {
                let a = (next() % range as u64) as i64;
                let b = (next() % range as u64) as i64;
                Point::new(a.min(b), a.max(b), i as u64)
            })
            .collect()
    }

    fn build(b: usize, pts: &[Point]) -> (TypedStore<Point>, CornerStructure, IoCounter) {
        let counter = IoCounter::new();
        let mut store = TypedStore::new(b, counter.clone());
        let cs = CornerStructure::build(&mut store, pts);
        (store, cs, counter)
    }

    #[test]
    fn empty_set() {
        let (store, cs, _) = build(4, &[]);
        let mut out = Vec::new();
        cs.query_into(&store, 0, &mut out);
        assert!(out.is_empty());
        assert_eq!(cs.pages(), 0);
    }

    #[test]
    fn single_block_set() {
        let pts = vec![
            Point::new(0, 5, 1),
            Point::new(2, 3, 2),
            Point::new(4, 9, 3),
        ];
        let (store, cs, _) = build(4, &pts);
        for q in -1..=10 {
            let mut out = Vec::new();
            cs.query_into(&store, q, &mut out);
            oracle::assert_same_points(out, oracle::diagonal_corner(&pts, q), &format!("q={q}"));
        }
    }

    #[test]
    fn random_sets_match_oracle() {
        for &(n, b) in &[
            (50usize, 4usize),
            (300, 4),
            (256, 16),
            (1000, 8),
            (2048, 16),
        ] {
            let pts = above_diagonal_points(n, 0xABC + n as u64, 200);
            let (store, cs, _) = build(b, &pts);
            for q in (-5..205).step_by(7) {
                let mut out = Vec::new();
                cs.query_into(&store, q, &mut out);
                oracle::assert_same_points(
                    out,
                    oracle::diagonal_corner(&pts, q),
                    &format!("n={n} b={b} q={q}"),
                );
            }
        }
    }

    /// Lemma 3.1: queries cost at most `2⌈t/B⌉ + 6` I/Os (see query docs).
    #[test]
    fn io_bound_holds() {
        for &(n, b) in &[(256usize, 16usize), (512, 16), (2048, 32), (900, 8)] {
            let pts = above_diagonal_points(n, 0xFEED + n as u64, 1000);
            let (store, cs, counter) = build(b, &pts);
            let geo = Geometry::new(b);
            for q in (-10..1010).step_by(13) {
                let before = counter.snapshot();
                let mut out = Vec::new();
                cs.query_into(&store, q, &mut out);
                let cost = counter.since(before);
                let bound = 2 * geo.out_blocks(out.len()) + 6;
                assert!(
                    cost.reads <= bound as u64,
                    "n={n} b={b} q={q}: {} reads > {bound} (t={})",
                    cost.reads,
                    out.len()
                );
            }
        }
    }

    /// The staircase from Proposition 3.3 — each integer corner stabs the
    /// two stairs `(q-1, q)` and `(q, q+1)`; queries must stay O(1) reads.
    #[test]
    fn staircase_queries_are_constant() {
        let b = 8;
        let n = 512;
        let pts: Vec<Point> = (0..n).map(|i| Point::new(i, i + 1, i as u64)).collect();
        let (store, cs, counter) = build(b, &pts);
        for q in 1..n {
            let before = counter.snapshot();
            let mut out = Vec::new();
            cs.query_into(&store, q, &mut out);
            let cost = counter.since(before);
            assert_eq!(out.len(), 2, "q={q}");
            assert!(cost.reads <= 8, "q={q} reads={}", cost.reads);
        }
    }

    /// Space stays within the paper's `O(kB)` bound: explicit sets total at
    /// most 2|S| points, so pages ≤ 3·|S|/B + |C*|.
    #[test]
    fn space_bound_holds() {
        for &(n, b) in &[(1024usize, 16usize), (4096, 32), (333, 4)] {
            let pts = above_diagonal_points(n, 0x5EED + n as u64, (n / 2) as i64);
            let (_, cs, _) = build(b, &pts);
            let geo = Geometry::new(b);
            let max_pages = 3 * geo.out_blocks(n) + cs.cstars.len() + 1;
            assert!(
                cs.pages() <= max_pages,
                "n={n} b={b}: {} pages > {max_pages}",
                cs.pages()
            );
        }
    }

    #[test]
    fn duplicate_coordinates() {
        let pts: Vec<Point> = (0..100).map(|i| Point::new(3, 7, i)).collect();
        let (store, cs, _) = build(4, &pts);
        for q in [2, 3, 5, 7, 8] {
            let mut out = Vec::new();
            cs.query_into(&store, q, &mut out);
            oracle::assert_same_points(out, oracle::diagonal_corner(&pts, q), &format!("q={q}"));
        }
    }

    #[test]
    fn shared_vertical_matches_owning_build() {
        let pts = above_diagonal_points(700, 0x5AA, 300);
        let counter = IoCounter::new();
        let mut store = TypedStore::new(8, counter);
        let by_x = SortedRun::from_unsorted(pts.clone());
        let vertical: Run<PageId> = store.alloc_run(&by_x);
        let by_y = YRanks::argsort(&by_x);
        let cs = CornerStructure::build_shared(&mut store, &by_x, &by_y, &vertical, 2);
        for q in (-5..305).step_by(11) {
            let mut out = Vec::new();
            cs.query_into(&store, q, &mut out);
            oracle::assert_same_points(out, oracle::diagonal_corner(&pts, q), &format!("q={q}"));
        }
        // Freeing the structure must leave the host blocking alive.
        let explicit = cs.pages();
        let before = store.pages_in_use();
        cs.free(&mut store);
        assert_eq!(store.pages_in_use(), before - explicit);
        assert_eq!(store.read_unbilled(vertical[0]).len(), 8);
    }

    #[test]
    fn larger_alpha_trades_pages_for_scanning() {
        let pts = above_diagonal_points(4096, 0xA1FA, 2000);
        let (_, cs2, _) = build(16, &pts);
        let counter = IoCounter::new();
        let mut store = TypedStore::new(16, counter);
        let cs4 = CornerStructure::build_tuned(&mut store, &pts, 4);
        assert!(
            cs4.pages() <= cs2.pages(),
            "alpha=4 uses {} pages, alpha=2 uses {}",
            cs4.pages(),
            cs2.pages()
        );
        for q in (-5..2005).step_by(37) {
            let mut out = Vec::new();
            cs4.query_into(&store, q, &mut out);
            oracle::assert_same_points(
                out,
                oracle::diagonal_corner(&pts, q),
                &format!("alpha=4 q={q}"),
            );
        }
    }

    #[test]
    fn free_releases_all_pages() {
        let pts = above_diagonal_points(500, 1, 100);
        let counter = IoCounter::new();
        let mut store = TypedStore::new(8, counter);
        let cs = CornerStructure::build(&mut store, &pts);
        assert!(store.pages_in_use() > 0);
        cs.free(&mut store);
        assert_eq!(store.pages_in_use(), 0);
    }
}
