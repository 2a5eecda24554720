//! Sortedness-preserving merge primitives over point runs.
//!
//! The metablock trees' reorganisations (§3.2, Fig. 19) work over data that
//! is *already sorted*: the vertical blockings are x-sorted, the horizontal
//! blockings and `TS` snapshots are y-sorted, and only the small
//! update-buffer deltas arrive unordered. Re-sorting a whole metablock on
//! every level-I/TS/level-II reorganisation therefore pays `O(n log n)`
//! where an `O(n)` merge (or an `O(delta · log n)` galloping merge)
//! suffices. This module provides those primitives, plus the [`SortedRun`]
//! newtype that makes x-sortedness a *typed* invariant: APIs that require
//! sorted input take a `SortedRun`, so the compiler — not a comment —
//! enforces who sorts.
//!
//! All orders are strict total orders (`(coordinate, id)` with unique ids),
//! so a merge produces exactly the sequence a full sort would: the two
//! pipelines are interchangeable bit-for-bit, which is what lets the
//! differential suites compare them directly.
//!
//! Deletions ride the same machinery as **negative merges**: a tombstone is
//! an exact copy of the point it deletes, so [`SortedRun::cancel`] (and
//! [`YRanks::merge`], which carries a y-order through) annihilate
//! insert/delete pairs at the first reorganisation that sees both, in the
//! same galloping pass that would have merged them.

use std::sync::Arc;

use crate::point::{sort_by_x, Point};

/// A run of points in strictly ascending `(x, id)` order — the order of the
/// vertical blockings and of every build arena.
///
/// The only constructors either sort ([`SortedRun::from_unsorted`]) or
/// debug-assert an already-sorted vector ([`SortedRun::from_sorted`]), so a
/// `SortedRun` in hand is proof of sortedness: consumers (metablock
/// organisation builders, slab planners, PST builders) need no runtime
/// re-check and no defensive re-sort.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SortedRun(Vec<Point>);

impl SortedRun {
    /// An empty run.
    pub fn new() -> Self {
        Self(Vec::new())
    }

    /// Sort `points` by `(x, id)` and wrap them.
    pub fn from_unsorted(mut points: Vec<Point>) -> Self {
        sort_by_x(&mut points);
        Self(points)
    }

    /// Wrap a vector the caller promises is strictly `(x, id)`-ascending
    /// (checked in debug builds).
    pub fn from_sorted(points: Vec<Point>) -> Self {
        debug_assert!(
            points.windows(2).all(|w| w[0].xkey() < w[1].xkey()),
            "SortedRun::from_sorted received an unsorted vector"
        );
        Self(points)
    }

    /// The points, in order.
    pub fn as_slice(&self) -> &[Point] {
        &self.0
    }

    /// Unwrap into the underlying vector (still sorted, obviously).
    pub fn into_inner(self) -> Vec<Point> {
        self.0
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the run holds no points.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Merge two runs into one, galloping through stretches of either input
    /// that fall entirely below the other's head. Disjoint or barely
    /// interleaved runs (adjacent slabs, a small delta against a large main
    /// run) cost `O(runs · log n)` comparisons plus the unavoidable copies;
    /// the worst case is the ordinary `O(n)` two-way merge.
    pub fn merge(self, other: SortedRun) -> SortedRun {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        let (a, b) = (self.0, other.0);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            if a[i].xkey() < b[j].xkey() {
                let k = i + gallop_x(&a[i..], b[j].xkey());
                out.extend_from_slice(&a[i..k]);
                i = k;
            } else {
                let k = j + gallop_x(&b[j..], a[i].xkey());
                out.extend_from_slice(&b[j..k]);
                j = k;
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        SortedRun(out)
    }

    /// K-way merge by pairwise rounds: `O(n log k)` with plain two-way
    /// merges (and the gallop fast path makes concatenable runs — e.g. the
    /// x-disjoint vertical runs of a subtree collected in slab order —
    /// nearly free). Used by branching splits to rebuild a subtree without
    /// re-sorting its `O(n)` points from scratch.
    pub fn merge_many(mut runs: Vec<SortedRun>) -> SortedRun {
        runs.retain(|r| !r.is_empty());
        while runs.len() > 1 {
            let mut next = Vec::with_capacity(runs.len().div_ceil(2));
            let mut it = runs.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(a.merge(b)),
                    None => next.push(a),
                }
            }
            runs = next;
        }
        runs.pop().unwrap_or_default()
    }

    /// Split the run at `index` (both halves stay sorted by construction).
    ///
    /// # Panics
    /// Panics if `index > len`.
    pub fn split_at(self, index: usize) -> (SortedRun, SortedRun) {
        let mut left = self.0;
        let right = left.split_off(index);
        (SortedRun(left), SortedRun(right))
    }

    /// Index of the first point with `xkey ≥ key` — the slab partition
    /// point — found by galloping (exponential probe + binary search), so
    /// redistributing an existing x-sorted run across slab boundaries costs
    /// `O(log n)` per boundary instead of a re-sort of the concatenation.
    pub fn partition_point(&self, key: (i64, u64)) -> usize {
        gallop_x(&self.0, key)
    }

    /// Cancel tombstones against the run: every point that a tombstone in
    /// `tombs` copies exactly is annihilated, and the tombstones that found
    /// no copy are returned (still in `(x, id)` order) so the caller can
    /// keep them pending or assert there are none. Galloping over the
    /// stretches between tombstones makes a sparse cancellation (the common
    /// case: a handful of deletes against a `B²`-point metablock) cost
    /// `O(tombs · log n)` comparisons plus the moves, which compact the
    /// run in place.
    ///
    /// With unique ids a tombstone is an exact copy of the point it
    /// deletes. A tombstone whose `(x, id)` key finds a point with another
    /// `y` copies nothing: it cancels nothing and comes back unmatched.
    pub fn cancel(self, tombs: &SortedRun) -> (SortedRun, Vec<Point>) {
        if tombs.is_empty() {
            return (self, Vec::new());
        }
        let mut a = self.0;
        let mut unmatched = Vec::new();
        // Read from `r`, write kept points back at `w ≤ r`.
        let (mut r, mut w) = (0usize, 0usize);
        for t in tombs.as_slice() {
            let k = r + gallop_x(&a[r..], t.xkey());
            if w != r {
                a.copy_within(r..k, w);
            }
            w += k - r;
            r = k;
            if a.get(r) == Some(t) {
                r += 1; // annihilate the pair
            } else {
                unmatched.push(*t);
            }
        }
        if w != r {
            a.copy_within(r.., w);
        }
        a.truncate(w + a.len() - r);
        (SortedRun(a), unmatched)
    }

    /// The run's ids, ascending: a repeated id sits next to its copy (see
    /// [`first_repeat`]). A least-significant-digit radix sort, 11 bits a
    /// pass, that skips every digit all ids share: ids below `2²²` sort in
    /// two scatter passes (120 000 ids: 1.2 ms, where `sort_unstable`
    /// took 3.1 ms).
    pub fn sorted_ids(&self) -> Vec<u64> {
        const DIGIT: u32 = 11;
        const DIGITS: usize = u64::BITS.div_ceil(DIGIT) as usize;
        let digit = |id: u64, d: usize| ((id >> (d as u32 * DIGIT)) & ((1 << DIGIT) - 1)) as usize;
        // Every digit's histogram in the one pass that gathers the ids.
        let mut counts = vec![[0usize; 1 << DIGIT]; DIGITS];
        let mut ids: Vec<u64> = (self.0.iter())
            .map(|p| {
                for (d, count) in counts.iter_mut().enumerate() {
                    count[digit(p.id, d)] += 1;
                }
                p.id
            })
            .collect();
        let mut spare = vec![0u64; ids.len()];
        for (d, mut at) in counts.into_iter().enumerate() {
            if at.contains(&ids.len()) {
                continue; // every id has this digit
            }
            let mut start = 0;
            for slot in at.iter_mut() {
                (*slot, start) = (start, start + *slot);
            }
            for &id in &ids {
                let slot = &mut at[digit(id, d)];
                spare[*slot] = id;
                *slot += 1;
            }
            std::mem::swap(&mut ids, &mut spare);
        }
        ids
    }
}

/// The smallest id that occurs twice across `lists`, each ascending (a
/// run's [`SortedRun::sorted_ids`]): a repeat inside one list sits next to
/// its copy, and a repeat across two lists is the first id their merge
/// meets in both — linear passes, one per list and one per pair of lists.
pub fn first_repeat(lists: &[Vec<u64>]) -> Option<u64> {
    let within =
        (lists.iter()).filter_map(|ids| ids.windows(2).find(|w| w[0] == w[1]).map(|w| w[0]));
    let across = (0..lists.len())
        .flat_map(|a| (a + 1..lists.len()).map(move |b| (a, b)))
        .filter_map(|(a, b)| first_common(&lists[a], &lists[b]));
    within.chain(across).min()
}

/// The smallest id in both ascending lists.
fn first_common(a: &[u64], b: &[u64]) -> Option<u64> {
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        if x == y {
            return Some(x);
        }
        // Branch-free steps: which list advances is a coin flip for ids
        // spread over both.
        i += usize::from(x < y);
        j += usize::from(y < x);
    }
    None
}

impl std::ops::Deref for SortedRun {
    type Target = [Point];

    fn deref(&self) -> &[Point] {
        &self.0
    }
}

/// The y-order of a [`SortedRun`]: the x-ranks of its points (their
/// indices in the run) in strictly descending `(y, id)` order — the order
/// of the horizontal blockings, of every `TS` snapshot and of every PST
/// node's top.
///
/// A metablock keeps the order of its mains for its whole life, as one
/// shared allocation cloned by handle: a reorganisation carries it through
/// the merge that rebuilds the mains ([`YRanks::merge`]), through a
/// push-down's kept top ([`YRanks::top`]) and through a leaf split
/// ([`YRanks::split_at`]), and the PST planner and the corner plan read
/// their selections off it, so no reorganisation derives a y-order again.
/// Every constructor debug-checks the order against its run and that the
/// run's ids are unique — the precondition every consumer relies on,
/// which a strict `(x, id)` order alone does not imply.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct YRanks(Arc<[u32]>);

/// A point's `(y, id)` key beside its rank, so that sorting and merging a
/// y-order compares keys held in place instead of looking each one up
/// through its rank.
#[derive(Clone, Copy, Debug)]
struct Keyed {
    key: (i64, u64),
    rank: u32,
}

/// The rank map's mark for a point a merge cancelled (or a push-down did
/// not keep).
const GONE: u32 = u32::MAX;

/// The buffers behind [`YRanks::merge`] and [`YRanks::top`]. A host that
/// reorganises often keeps one and lends it to every call, so the rank
/// maps stop allocating once they have grown to its largest block.
#[derive(Debug, Default)]
pub struct RankScratch {
    /// Old x-rank → new x-rank, or [`GONE`].
    map: Vec<u32>,
    /// The delta's surviving points: keys and new ranks, y-descending.
    delta: Vec<Keyed>,
    /// The order being built.
    ranks: Vec<u32>,
    /// The ids the debug build checks for repeats.
    ids: Vec<u64>,
}

impl YRanks {
    /// The y-order of `run`, by one argsort.
    pub fn argsort(run: &SortedRun) -> Self {
        assert!(run.len() <= u32::MAX as usize, "run too long for u32 ranks");
        let mut keyed: Vec<Keyed> = (run.iter().enumerate())
            .map(|(rank, p)| Keyed {
                key: p.ykey(),
                rank: rank as u32,
            })
            .collect();
        keyed.sort_unstable_by_key(|k| std::cmp::Reverse(k.key));
        Self::checked(run, keyed.iter().map(|k| k.rank).collect(), &mut Vec::new())
    }

    /// Merge the unsorted `delta` into `mains` (strictly `(x, id)`-sorted,
    /// `self` its y-order) and cancel the unsorted `tombs` against both,
    /// carrying the order through: the new run is appended to `out`, and
    /// its y-order (ranks counted from where the run starts in `out`) is
    /// returned beside the tombstones that found no victim, in `(x, id)`
    /// order.
    ///
    /// Only the delta and the tombstones are sorted. The x-merge copies
    /// the stretches of `mains` between them whole and records where each
    /// main point went; one pass over `self` through that map, with each
    /// surviving delta point galloped into its place, is the new order.
    /// The result equals merging, cancelling and argsorting from scratch
    /// (a tombstone is an exact copy of its victim, so it matches on the
    /// `(x, id)` key, as in [`SortedRun::cancel`]).
    pub fn merge(
        &self,
        mains: &[Point],
        mut delta: Vec<Point>,
        mut tombs: Vec<Point>,
        out: &mut Vec<Point>,
        scratch: &mut RankScratch,
    ) -> (YRanks, Vec<Point>) {
        assert_eq!(self.len(), mains.len(), "y-order of another run");
        debug_assert!(mains.windows(2).all(|w| w[0].xkey() < w[1].xkey()));
        let (n, base) = (mains.len(), out.len());
        assert!(
            n + delta.len() <= GONE as usize,
            "run too long for u32 ranks"
        );
        sort_by_x(&mut delta);
        sort_by_x(&mut tombs);
        out.reserve(n + delta.len());
        let RankScratch {
            map,
            delta: fresh,
            ranks,
            ids,
        } = scratch;
        map.clear();
        map.resize(n, GONE);
        fresh.clear();
        let mut unmatched = Vec::new();
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        loop {
            // The mains below the next delta point and the next tombstone
            // move whole.
            let (dkey, tkey) = (delta.get(j).map(Point::xkey), tombs.get(k).map(Point::xkey));
            let bound = match (dkey, tkey) {
                (Some(d), Some(t)) => Some(d.min(t)),
                (d, t) => d.or(t),
            };
            let end = bound.map_or(n, |key| i + gallop_x(&mains[i..], key));
            let at = (out.len() - base) as u32;
            out.extend_from_slice(&mains[i..end]);
            for (slot, rank) in map[i..end].iter_mut().zip(at..) {
                *slot = rank;
            }
            i = end;
            // The next point in x order, from the mains or the delta.
            let from_delta = match (mains.get(i), dkey) {
                (None, None) => {
                    unmatched.extend_from_slice(&tombs[k..]);
                    break;
                }
                (Some(m), Some(d)) => d < m.xkey(),
                (m, _) => m.is_none(),
            };
            let p = if from_delta { delta[j] } else { mains[i] };
            while tombs.get(k).is_some_and(|t| t.xkey() < p.xkey()) {
                unmatched.push(tombs[k]);
                k += 1;
            }
            let rank = if tombs.get(k).is_some_and(|t| t.xkey() == p.xkey()) {
                debug_assert_eq!(
                    tombs[k], p,
                    "tombstone coordinates disagree with the live copy"
                );
                k += 1; // annihilate the pair
                GONE
            } else {
                out.push(p);
                (out.len() - base - 1) as u32
            };
            if from_delta {
                if rank != GONE {
                    fresh.push(Keyed {
                        key: p.ykey(),
                        rank,
                    });
                }
                j += 1;
            } else {
                map[i] = rank;
                i += 1;
            }
        }

        // The old order through the map, with the delta's y-order merged
        // in: each delta point gallops to its place in the old order, and
        // the stretches between move through the map without a key read.
        fresh.sort_unstable_by_key(|k| std::cmp::Reverse(k.key));
        ranks.clear();
        ranks.resize(n + fresh.len(), 0);
        let (mut w, mut from) = (0, 0);
        let old = &self.0[..];
        for d in fresh.iter() {
            let to = from + gallop(&old[from..], |&r| mains[r as usize].ykey() > d.key);
            w = map_stretch(&old[from..to], map, ranks, w);
            ranks[w] = d.rank;
            (w, from) = (w + 1, to);
        }
        w = map_stretch(&old[from..], map, ranks, w);
        let order = Self::checked(&out[base..], ranks[..w].into(), ids);
        (order, unmatched)
    }

    /// The x-sorted run and y-order of the first `k` points of this order,
    /// given `by_y`, the run's points in this order (a horizontal
    /// blocking): a push-down's kept top. Two linear passes over the
    /// ranks, no sort.
    pub fn top(&self, by_y: &[Point], k: usize, scratch: &mut RankScratch) -> (SortedRun, YRanks) {
        assert_eq!(self.len(), by_y.len(), "y-order of another run");
        let RankScratch {
            map, ranks, ids, ..
        } = scratch;
        // x-rank → place in the top, for the kept ranks.
        map.clear();
        map.resize(by_y.len(), GONE);
        for (place, &r) in self.0[..k].iter().enumerate() {
            map[r as usize] = place as u32;
        }
        ranks.clear();
        ranks.resize(k, 0);
        let mut run = Vec::with_capacity(k);
        for &place in map.iter().filter(|&&place| place != GONE) {
            ranks[place as usize] = run.len() as u32;
            run.push(by_y[place as usize]);
        }
        let run = SortedRun::from_sorted(run);
        let order = Self::checked(&run, ranks.as_slice().into(), ids);
        (run, order)
    }

    /// The y-orders of `run[..at]` and `run[at..]`, for the run this order
    /// is over: a leaf split's halves. One pass each, no sort.
    pub fn split_at(&self, run: &SortedRun, at: usize) -> (YRanks, YRanks) {
        assert_eq!(self.len(), run.len(), "y-order of another run");
        let cut = at as u32;
        let left: Vec<u32> = self.0.iter().copied().filter(|&r| r < cut).collect();
        let right: Vec<u32> = (self.0.iter())
            .filter(|&&r| r >= cut)
            .map(|&r| r - cut)
            .collect();
        let ids = &mut Vec::new();
        (
            Self::checked(&run[..at], left.into(), ids),
            Self::checked(&run[at..], right.into(), ids),
        )
    }

    /// Wrap `ranks`, debug-checking them against `run` (see the type);
    /// the id check sorts in `ids`.
    fn checked(run: &[Point], ranks: Arc<[u32]>, ids: &mut Vec<u64>) -> Self {
        debug_assert_eq!(ranks.len(), run.len());
        // Strictly descending keys repeat no rank, so `n` in-range ranks
        // are a permutation.
        debug_assert!(
            ranks
                .windows(2)
                .all(|w| run[w[0] as usize].ykey() > run[w[1] as usize].ykey()),
            "y-order is not strictly (y, id)-descending over its run"
        );
        if cfg!(debug_assertions) {
            ids.clear();
            ids.extend(run.iter().map(|p| p.id));
            ids.sort_unstable();
            assert!(ids.windows(2).all(|w| w[0] != w[1]), "duplicate point ids");
        }
        Self(ranks)
    }

    /// The same ranks in a fresh allocation of the calling thread, shared
    /// with no other handle.
    pub fn unshared(&self) -> Self {
        Self(Arc::from(&self.0[..]))
    }

    /// The run's points in this order (y-descending).
    pub fn gather(&self, run: &[Point]) -> Vec<Point> {
        self.0.iter().map(|&r| run[r as usize]).collect()
    }

    /// The ranks, in order.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }

    /// Number of ranks (the run's length).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the order is over an empty run.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A **resumable** two-way merge of `(x, id)`-sorted runs: the incremental
/// counterpart of [`SortedRun::merge`], producing bit-identical output in
/// bounded instalments.
///
/// An incremental reorganisation (`Tuning::reorg_pages_per_op`) cannot
/// afford one `O(n)` merge inside a single insert or delete, so it parks
/// the merge state here and advances it a few pages' worth of points per
/// operation with [`MergeCursor::step`]. Because the inputs are strict
/// total orders, every prefix the cursor emits is exactly the prefix the
/// one-shot merge would have produced — dribbling changes *when* the work
/// happens, never *what* it produces.
#[derive(Clone, Debug)]
pub struct MergeCursor {
    a: Vec<Point>,
    b: Vec<Point>,
    i: usize,
    j: usize,
    out: Vec<Point>,
}

impl MergeCursor {
    /// Park a merge of `a` and `b`, emitting nothing yet.
    pub fn new(a: SortedRun, b: SortedRun) -> Self {
        let (a, b) = (a.into_inner(), b.into_inner());
        let cap = a.len() + b.len();
        Self {
            a,
            b,
            i: 0,
            j: 0,
            out: Vec::with_capacity(cap),
        }
    }

    /// Advance the merge by at most `max_points` output points (galloping
    /// through uncontested stretches like the one-shot merge, clipped to
    /// the budget). Returns `true` when the merge is complete.
    pub fn step(&mut self, max_points: usize) -> bool {
        let target = self
            .out
            .len()
            .saturating_add(max_points)
            .min(self.a.len() + self.b.len());
        while self.out.len() < target {
            let room = target - self.out.len();
            match (self.a.get(self.i), self.b.get(self.j)) {
                (Some(x), Some(y)) => {
                    if x.xkey() < y.xkey() {
                        let k = self.i + gallop_x(&self.a[self.i..], y.xkey()).min(room);
                        self.out.extend_from_slice(&self.a[self.i..k]);
                        self.i = k;
                    } else {
                        let k = self.j + gallop_x(&self.b[self.j..], x.xkey()).min(room);
                        self.out.extend_from_slice(&self.b[self.j..k]);
                        self.j = k;
                    }
                }
                (Some(_), None) => {
                    let k = (self.i + room).min(self.a.len());
                    self.out.extend_from_slice(&self.a[self.i..k]);
                    self.i = k;
                }
                (None, Some(_)) => {
                    let k = (self.j + room).min(self.b.len());
                    self.out.extend_from_slice(&self.b[self.j..k]);
                    self.j = k;
                }
                (None, None) => break,
            }
        }
        self.is_done()
    }

    /// True when every input point has been emitted.
    pub fn is_done(&self) -> bool {
        self.i == self.a.len() && self.j == self.b.len()
    }

    /// Input points not yet emitted.
    pub fn remaining(&self) -> usize {
        (self.a.len() - self.i) + (self.b.len() - self.j)
    }

    /// Run the merge to completion and unwrap the result (identical to
    /// what [`SortedRun::merge`] over the original inputs returns).
    pub fn finish(mut self) -> SortedRun {
        self.step(usize::MAX);
        SortedRun(self.out)
    }
}

/// Write `old`'s ranks through `map` to `ranks[w..]`, skipping the
/// [`GONE`] ones; returns the next free index. Stores unconditionally and
/// advances by the test, which a cancellation flood makes a coin flip.
fn map_stretch(old: &[u32], map: &[u32], ranks: &mut [u32], mut w: usize) -> usize {
    for &r in old {
        let rank = map[r as usize];
        ranks[w] = rank;
        w += usize::from(rank != GONE);
    }
    w
}

/// Length of the prefix of `slice` whose items satisfy `before` (which
/// holds on a prefix and fails after), by exponential probing then binary
/// search over the final octave. `O(log length)` probes.
fn gallop<T>(slice: &[T], before: impl Fn(&T) -> bool) -> usize {
    if slice.first().is_none_or(|t| !before(t)) {
        return 0;
    }
    // Invariant: before(&slice[lo - 1]).
    let (mut lo, mut step) = (1usize, 1usize);
    while lo < slice.len() && before(&slice[lo]) {
        lo += step;
        step *= 2;
    }
    let hi = lo.min(slice.len());
    let base = lo - step / 2;
    base + slice[base..hi].partition_point(before)
}

/// First index of `slice` whose `xkey` is `≥ key`. `O(log distance)`.
fn gallop_x(slice: &[Point], key: (i64, u64)) -> usize {
    gallop(slice, |p| p.xkey() < key)
}

/// Merge two y-descending vectors, keeping at most `cap` points — the
/// bounded merge behind the capped `TS`/`TSL`/`TSR` sibling snapshots
/// (whose `truncated` bit the caller derives from `total > kept`).
pub fn merge_y_desc_capped(a: Vec<Point>, b: Vec<Point>, cap: usize) -> Vec<Point> {
    if b.is_empty() && a.len() <= cap {
        return a;
    }
    if a.is_empty() && b.len() <= cap {
        return b;
    }
    debug_assert!(a.windows(2).all(|w| w[0].ykey() > w[1].ykey()));
    debug_assert!(b.windows(2).all(|w| w[0].ykey() > w[1].ykey()));
    let mut out = Vec::with_capacity((a.len() + b.len()).min(cap));
    let (mut i, mut j) = (0usize, 0usize);
    while out.len() < cap {
        match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => {
                if x.ykey() > y.ykey() {
                    out.push(*x);
                    i += 1;
                } else {
                    out.push(*y);
                    j += 1;
                }
            }
            (Some(x), None) => {
                out.push(*x);
                i += 1;
            }
            (None, Some(y)) => {
                out.push(*y);
                j += 1;
            }
            (None, None) => break,
        }
    }
    out
}

/// A set of ids held sorted and deduplicated behind a hashed bit mask of
/// one cache line: a probe is one multiply, a shift and a word test, and
/// only an id whose mask bit is set pays the binary search.
///
/// The one id-set type of the metablock trees. Its shapes are a query's
/// discovered tombstone ids (a handful, rebuilt per query with
/// [`SortedIds::refill`] and probed once per answer) and a shrink job's
/// delta sets (thousands of ids maintained one at a time, where the mask
/// saturates and the search does the work). The mask is 512 bits because
/// a search that misses costs a mispredicted branch or two: with the
/// `k ≈ 7` ids a stab selects, one word sent every tenth live answer to
/// the search and the batch ran 14 % slower (docs/tuning.md § Read path).
#[derive(Clone, Debug, Default)]
pub struct SortedIds {
    ids: Vec<u64>,
    /// Union of [`mask_bit`] over every id inserted since the set was last
    /// empty — a superset of the present ids' bits, so a clear bit proves
    /// absence.
    mask: [u64; 8],
}

/// The mask bit of `id` as `(word, bit)`: the top nine bits of a Fibonacci
/// hash.
fn mask_bit(id: u64) -> (usize, u64) {
    let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 55;
    ((h >> 6) as usize, 1 << (h & 63))
}

impl SortedIds {
    /// Collect `ids` (any order, duplicates allowed).
    pub fn new(ids: impl IntoIterator<Item = u64>) -> Self {
        let mut set = Self::default();
        set.refill(ids);
        set
    }

    /// Replace the contents with `ids` (any order, duplicates allowed),
    /// keeping the allocation.
    pub fn refill(&mut self, ids: impl IntoIterator<Item = u64>) {
        self.ids.clear();
        self.ids.extend(ids);
        self.ids.sort_unstable();
        self.ids.dedup();
        self.mask = [0; 8];
        for &id in &self.ids {
            let (w, b) = mask_bit(id);
            self.mask[w] |= b;
        }
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: u64) -> bool {
        let (w, b) = mask_bit(id);
        self.mask[w] & b != 0 && self.ids.binary_search(&id).is_ok()
    }

    /// Add `id`; false when it was already present.
    pub fn insert(&mut self, id: u64) -> bool {
        match self.ids.binary_search(&id) {
            Ok(_) => false,
            Err(at) => {
                self.ids.insert(at, id);
                let (w, b) = mask_bit(id);
                self.mask[w] |= b;
                true
            }
        }
    }

    /// Remove `id`; false when it was not present. The id's mask bit stays
    /// set (another id may share it) until the set empties.
    pub fn remove(&mut self, id: u64) -> bool {
        let (w, b) = mask_bit(id);
        if self.mask[w] & b == 0 {
            return false;
        }
        let Ok(at) = self.ids.binary_search(&id) else {
            return false;
        };
        self.ids.remove(at);
        if self.ids.is_empty() {
            self.mask = [0; 8];
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::{sort_by_x, sort_by_y_desc};

    fn pts(pairs: &[(i64, i64)]) -> Vec<Point> {
        pairs
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Point::new(x, y, i as u64))
            .collect()
    }

    fn pseudo_points(n: usize, seed: u64) -> Vec<Point> {
        let mut s = seed | 1;
        (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                Point::new((s % 1000) as i64, ((s >> 32) % 1000) as i64, i as u64)
            })
            .collect()
    }

    #[test]
    fn merge_equals_sort() {
        for &(na, nb) in &[(0usize, 5usize), (5, 0), (7, 9), (100, 3), (64, 64)] {
            let a = pseudo_points(na, 0xA);
            let b: Vec<Point> = pseudo_points(nb, 0xB)
                .into_iter()
                .map(|p| Point::new(p.x, p.y, p.id + 10_000))
                .collect();
            let merged = SortedRun::from_unsorted(a.clone())
                .merge(SortedRun::from_unsorted(b.clone()))
                .into_inner();
            let mut want: Vec<Point> = a.into_iter().chain(b).collect();
            sort_by_x(&mut want);
            assert_eq!(merged, want, "na={na} nb={nb}");
        }
    }

    #[test]
    fn y_ranks_agree_with_a_y_sort() {
        for n in [0usize, 1, 2, 17, 300] {
            let pts = pseudo_points(n, 0x7A + n as u64);
            let run = SortedRun::from_unsorted(pts.clone());
            let mut want = pts;
            sort_by_y_desc(&mut want);
            let order = YRanks::argsort(&run);
            assert_eq!(order.gather(&run), want, "argsort n={n}");
            // A kept top and a split carry the order to their parts.
            let mut scratch = RankScratch::default();
            for k in [0, n / 3, n] {
                let (top, top_order) = order.top(&want, k, &mut scratch);
                assert_eq!(
                    top,
                    SortedRun::from_unsorted(want[..k].to_vec()),
                    "top n={n}"
                );
                assert_eq!(top_order, YRanks::argsort(&top), "top order n={n} k={k}");
                let (left, right) = order.split_at(&run, k);
                let (l, r) = run.clone().split_at(k);
                assert_eq!(left, YRanks::argsort(&l), "left n={n} at={k}");
                assert_eq!(right, YRanks::argsort(&r), "right n={n} at={k}");
            }
        }
    }

    /// The pipeline [`YRanks::merge`] replaces: merge, cancel, argsort.
    fn merge_cancel_argsort(
        mains: &SortedRun,
        delta: &[Point],
        tombs: &[Point],
    ) -> (SortedRun, YRanks, Vec<Point>) {
        let merged = mains
            .clone()
            .merge(SortedRun::from_unsorted(delta.to_vec()));
        let (run, unmatched) = merged.cancel(&SortedRun::from_unsorted(tombs.to_vec()));
        let order = YRanks::argsort(&run);
        (run, order, unmatched)
    }

    /// [`YRanks::merge`] appending after `prefix` points already in `out`.
    fn merge_after(
        mains: &SortedRun,
        delta: &[Point],
        tombs: &[Point],
        prefix: usize,
    ) -> (SortedRun, YRanks, Vec<Point>) {
        let mut scratch = RankScratch::default();
        let mut out = vec![Point::new(i64::MIN, 0, u64::MAX); prefix];
        let order = YRanks::argsort(mains);
        let (merged, unmatched) = order.merge(
            mains,
            delta.to_vec(),
            tombs.to_vec(),
            &mut out,
            &mut scratch,
        );
        let run = SortedRun::from_sorted(out.split_off(prefix));
        (run, merged, unmatched)
    }

    #[test]
    fn delta_merge_sorts_only_the_delta() {
        let mains = SortedRun::from_unsorted(pseudo_points(200, 3));
        let delta: Vec<Point> = pseudo_points(17, 5)
            .into_iter()
            .map(|p| Point::new(p.x, p.y, p.id + 1_000))
            .collect();
        for prefix in [0, 3] {
            assert_eq!(
                merge_after(&mains, &delta, &[], prefix),
                merge_cancel_argsort(&mains, &delta, &[]),
                "prefix {prefix}"
            );
        }
    }

    #[test]
    fn delta_merge_cancel_filters_by_id() {
        let mains = SortedRun::from_unsorted(pseudo_points(60, 0xD));
        let delta: Vec<Point> = pseudo_points(11, 0xE)
            .into_iter()
            .map(|p| Point::new(p.x, p.y, p.id + 2_000))
            .collect();
        // Every fifth main point, every third delta point and two strays.
        let mut tombs: Vec<Point> = mains.iter().step_by(5).copied().collect();
        tombs.extend(delta.iter().step_by(3));
        tombs.extend([Point::new(-5, -5, 900_001), Point::new(5_000, 0, 900_002)]);
        let got = merge_after(&mains, &delta, &tombs, 2);
        assert_eq!(got, merge_cancel_argsort(&mains, &delta, &tombs));
        let strays: Vec<u64> = got.2.iter().map(|p| p.id).collect();
        assert_eq!(strays, [900_001, 900_002], "strays, in (x, id) order");
        assert_eq!(got.0.len(), 60 + 11 - 12 - 4);
    }

    #[test]
    fn y_ranks_merge_equals_merge_cancel_argsort() {
        ccix_testkit::check::trials("y-order merge", 300, 0x7A4B_3E26, |rng| {
            // Few distinct coordinates, so keys tie and ids decide.
            let range = [3, 50, 1_000][rng.gen_range(0..3usize)];
            let mut id = 0u64;
            let mut point = |rng: &mut ccix_testkit::DetRng| {
                id += 1;
                Point::new(rng.gen_range(0..range), rng.gen_range(0..range), id)
            };
            let n = [0, 1, 2, 40, 500][rng.gen_range(0..5usize)];
            let d = [0, 1, 7, 60][rng.gen_range(0..4usize)];
            let mains = SortedRun::from_unsorted((0..n).map(|_| point(rng)).collect());
            let delta: Vec<Point> = (0..d).map(|_| point(rng)).collect();
            // Victims drawn from both sides (at times every point), plus
            // tombstones with no victim.
            let everything = rng.gen_bool(0.1);
            let mut tombs: Vec<Point> = (mains.iter().chain(&delta))
                .filter(|_| everything || rng.gen_bool(0.2))
                .copied()
                .collect();
            for _ in 0..rng.gen_range(0..4usize) {
                tombs.push(point(rng));
            }
            rng.shuffle(&mut tombs);
            let prefix = rng.gen_range(0..3usize);
            let got = merge_after(&mains, &delta, &tombs, prefix);
            let want = merge_cancel_argsort(&mains, &delta, &tombs);
            assert_eq!(got, want, "n={n} d={d} tombs={}", tombs.len());
            if everything {
                assert!(got.0.is_empty() && got.1.is_empty());
            }
        });
    }

    #[test]
    fn merge_many_equals_sort() {
        let mut all = Vec::new();
        let mut runs = Vec::new();
        for r in 0..7u64 {
            let run: Vec<Point> = pseudo_points(30 + r as usize * 11, r + 1)
                .into_iter()
                .map(|p| Point::new(p.x, p.y, p.id + r * 100_000))
                .collect();
            all.extend(run.iter().copied());
            runs.push(SortedRun::from_unsorted(run));
        }
        let merged = SortedRun::merge_many(runs).into_inner();
        sort_by_x(&mut all);
        assert_eq!(merged, all);
        assert!(SortedRun::merge_many(Vec::new()).is_empty());
    }

    #[test]
    fn gallop_partition_matches_linear_scan() {
        let run = SortedRun::from_unsorted(pseudo_points(257, 0x9E));
        for probe in [-1i64, 0, 1, 250, 500, 999, 1000, 2000] {
            for id in [0u64, 77, u64::MAX] {
                let got = run.partition_point((probe, id));
                let want = run.iter().take_while(|p| p.xkey() < (probe, id)).count();
                assert_eq!(got, want, "probe=({probe},{id})");
            }
        }
    }

    #[test]
    fn y_desc_merge_equals_sort() {
        let a = {
            let mut v = pts(&[(0, 9), (1, 7), (2, 3)]);
            sort_by_y_desc(&mut v);
            v
        };
        let b: Vec<Point> = {
            let mut v: Vec<Point> = pts(&[(5, 8), (6, 2), (7, 7)])
                .into_iter()
                .map(|p| Point::new(p.x, p.y, p.id + 50))
                .collect();
            sort_by_y_desc(&mut v);
            v
        };
        // A cap that does not bind: the capped merge is a plain merge.
        let merged = merge_y_desc_capped(a.clone(), b.clone(), usize::MAX);
        let mut want: Vec<Point> = a.into_iter().chain(b).collect();
        sort_by_y_desc(&mut want);
        assert_eq!(merged, want);
    }

    #[test]
    fn capped_merge_caps_and_orders() {
        let a: Vec<Point> = [9i64, 7, 3]
            .iter()
            .enumerate()
            .map(|(i, &y)| Point::new(0, y, i as u64))
            .collect();
        let b: Vec<Point> = [8i64, 2]
            .iter()
            .enumerate()
            .map(|(i, &y)| Point::new(0, y, 10 + i as u64))
            .collect();
        let m = merge_y_desc_capped(a, b, 4);
        let ys: Vec<i64> = m.iter().map(|p| p.y).collect();
        assert_eq!(ys, vec![9, 8, 7, 3]);
    }

    #[test]
    fn cancel_annihilates_matches_and_returns_strays() {
        let run = SortedRun::from_unsorted(pseudo_points(120, 0xC));
        let all = run.to_vec();
        // Tombstones: every third stored point, plus two strays that match
        // nothing (fresh ids).
        let mut tomb_pts: Vec<Point> = all.iter().step_by(3).copied().collect();
        tomb_pts.push(Point::new(-5, -5, 900_001));
        tomb_pts.push(Point::new(5000, 5000, 900_002));
        let tombs = SortedRun::from_unsorted(tomb_pts.clone());
        let (kept, unmatched) = run.cancel(&tombs);
        let dead: Vec<u64> = all.iter().step_by(3).map(|p| p.id).collect();
        let want: Vec<Point> = all
            .iter()
            .filter(|p| !dead.contains(&p.id))
            .copied()
            .collect();
        assert_eq!(kept.to_vec(), want);
        let mut stray_ids: Vec<u64> = unmatched.iter().map(|p| p.id).collect();
        stray_ids.sort_unstable();
        assert_eq!(stray_ids, vec![900_001, 900_002]);
        // A tombstone with a stored point's `(x, id)` key but another `y`
        // copies nothing: the point stays and the tombstone comes back.
        let kept = kept.to_vec();
        let stored = kept[kept.len() / 2];
        let misnamed = Point::new(stored.x, stored.y + 1, stored.id);
        let (same, strays) =
            SortedRun::from_sorted(kept.clone()).cancel(&SortedRun::from_sorted(vec![misnamed]));
        assert_eq!(same.to_vec(), kept);
        assert_eq!(strays, vec![misnamed]);
        // Empty tombstone set is the identity.
        let run2 = SortedRun::from_unsorted(pseudo_points(9, 1));
        let before = run2.to_vec();
        let (same, none) = run2.cancel(&SortedRun::new());
        assert_eq!(same.to_vec(), before);
        assert!(none.is_empty());
    }

    #[test]
    fn sorted_ids_equal_a_comparison_sort() {
        let mut s = 0x1D5u64;
        for (n, mask) in [
            (0, 0),
            (1, u64::MAX),
            (300, 0xFF),
            (5_000, 1 << 21),
            (5_000, u64::MAX),
        ] {
            let pts: Vec<Point> = (0..n)
                .map(|i| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    Point::new(i as i64, i as i64, s & mask)
                })
                .collect();
            let mut want: Vec<u64> = pts.iter().map(|p| p.id).collect();
            want.sort_unstable();
            assert_eq!(SortedRun::from_unsorted(pts).sorted_ids(), want, "n = {n}");
        }
    }

    #[test]
    fn first_repeat_finds_the_smallest_id_twice_within_or_across_lists() {
        let lists = |ls: &[&[u64]]| ls.iter().map(|l| l.to_vec()).collect::<Vec<_>>();
        assert_eq!(first_repeat(&[]), None);
        assert_eq!(first_repeat(&lists(&[&[], &[]])), None);
        assert_eq!(first_repeat(&lists(&[&[1, 4, 9], &[2, 3, 10], &[0]])), None);
        assert_eq!(first_repeat(&lists(&[&[1, 4, 4, 9]])), Some(4));
        assert_eq!(first_repeat(&lists(&[&[1, 4, 9], &[2, 9], &[4]])), Some(4));
        assert_eq!(first_repeat(&lists(&[&[7], &[3, 5, 7, 7]])), Some(7));
        // Against a sort of everything, over the ids of random runs.
        let mut seed = 0x5EEDu64;
        let mut found = [0; 2];
        for trial in 0..60u64 {
            // Ids drawn from 150 values repeat; from 100 000 they mostly
            // do not.
            let span = if trial % 2 == 0 { 150 } else { 100_000 };
            let ids: Vec<Vec<u64>> = (0..3)
                .map(|_| {
                    seed += 2; // `pseudo_points` sets the seed's low bit
                    (pseudo_points(40, seed).iter())
                        .map(|p| (p.x * 1_000 + p.y) as u64 % span)
                        .collect::<Vec<_>>()
                })
                .map(|mut l| {
                    l.sort_unstable();
                    l
                })
                .collect();
            let mut all: Vec<u64> = ids.concat();
            all.sort_unstable();
            let want = all.windows(2).find(|w| w[0] == w[1]).map(|w| w[0]);
            assert_eq!(first_repeat(&ids), want);
            found[usize::from(want.is_some())] += 1;
        }
        assert!(
            found.iter().all(|&n| n > 0),
            "both outcomes drawn: {found:?}"
        );
    }

    #[test]
    fn cursor_dribble_equals_one_shot_merge() {
        for &(na, nb) in &[
            (0usize, 5usize),
            (5, 0),
            (7, 9),
            (100, 3),
            (64, 64),
            (257, 129),
        ] {
            let a = pseudo_points(na, 0x1A);
            let b: Vec<Point> = pseudo_points(nb, 0x1B)
                .into_iter()
                .map(|p| Point::new(p.x, p.y, p.id + 10_000))
                .collect();
            let ra = SortedRun::from_unsorted(a);
            let rb = SortedRun::from_unsorted(b);
            let want = ra.clone().merge(rb.clone()).into_inner();
            for &chunk in &[1usize, 3, 16, 1000] {
                let mut cur = MergeCursor::new(ra.clone(), rb.clone());
                let mut steps = 0usize;
                while !cur.step(chunk) {
                    steps += 1;
                    assert!(steps <= want.len() + 2, "cursor failed to make progress");
                }
                assert!(cur.is_done());
                assert_eq!(cur.remaining(), 0);
                let got = cur.finish().into_inner();
                assert_eq!(got, want, "na={na} nb={nb} chunk={chunk}");
            }
        }
    }

    #[test]
    fn cursor_step_budget_is_respected() {
        let ra = SortedRun::from_unsorted(pseudo_points(200, 0x2A));
        let rb = SortedRun::from_unsorted(
            pseudo_points(200, 0x2B)
                .into_iter()
                .map(|p| Point::new(p.x, p.y, p.id + 10_000))
                .collect(),
        );
        let total = ra.len() + rb.len();
        let mut cur = MergeCursor::new(ra, rb);
        cur.step(7);
        assert_eq!(
            cur.remaining(),
            total - 7,
            "a step emits exactly its budget"
        );
        cur.step(50);
        assert_eq!(cur.remaining(), total - 57);
    }

    #[test]
    fn split_preserves_sortedness_and_content() {
        let run = SortedRun::from_unsorted(pseudo_points(101, 0xF));
        let all: Vec<Point> = run.to_vec();
        let (l, r) = run.split_at(40);
        assert_eq!(l.len(), 40);
        assert_eq!(r.len(), 61);
        let rejoined: Vec<Point> = l.iter().chain(r.iter()).copied().collect();
        assert_eq!(rejoined, all);
    }

    #[test]
    fn sorted_ids_agree_with_a_hash_set() {
        let ids: Vec<u64> = pseudo_points(300, 0x51)
            .iter()
            .map(|p| p.id * 7 % 1000)
            .collect();
        let mut want: std::collections::HashSet<u64> = ids.iter().copied().collect();
        let mut got = SortedIds::new(ids);
        for id in 0..1100 {
            assert_eq!(got.contains(id), want.contains(&id), "id {id}");
        }
        assert!(
            !SortedIds::new([]).contains(0),
            "the empty set holds nothing"
        );
        // One id at a time, as a shrink job's delta maintains its sets.
        for (i, p) in pseudo_points(4000, 0x52).iter().enumerate() {
            let id = (p.x * 1000 + p.y) as u64 % 1500;
            if i % 3 == 0 {
                assert_eq!(got.remove(id), want.remove(&id), "remove {id}");
            } else {
                assert_eq!(got.insert(id), want.insert(id), "insert {id}");
            }
        }
        for id in 0..1600 {
            assert_eq!(
                got.contains(id),
                want.contains(&id),
                "id {id} after updates"
            );
        }
        // Refilling forgets everything, duplicates collapse.
        got.refill([7, 3, 7, 7]);
        let held: Vec<u64> = (0..1600).filter(|&id| got.contains(id)).collect();
        assert_eq!(held, [3, 7]);
    }

    #[test]
    fn sorted_ids_mask_collisions_are_not_members() {
        let a = 12_345u64;
        let b = (a + 1..)
            .find(|&b| mask_bit(b) == mask_bit(a))
            .expect("512 mask bits collide within a few thousand ids");
        let mut set = SortedIds::new([a]);
        assert!(set.contains(a) && !set.contains(b), "b only shares a's bit");
        assert!(!set.remove(b), "removing a colliding stranger is a no-op");
        assert!(set.insert(b) && set.remove(b));
        assert!(
            set.contains(a) && !set.contains(b),
            "the shared bit outlives b"
        );
        assert!(set.remove(a) && !set.contains(a) && !set.contains(b));
    }
}
