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
//! an exact copy of the point it deletes, so [`SortedRun::cancel`] (and the
//! y-descending [`merge_delta_y_desc_cancel`]) annihilate insert/delete
//! pairs at the first reorganisation that sees both, in the same galloping
//! pass that would have merged them.

use crate::point::{sort_by_x, sort_by_y_desc, Point};

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

    /// Cancel tombstones against the run: every point whose `(x, id)` key
    /// matches a tombstone in `tombs` is annihilated, and the tombstones
    /// that found no match are returned (still in `(x, id)` order) so the
    /// caller can keep them pending or assert there are none. Galloping
    /// over the stretches between tombstones makes a sparse cancellation
    /// (the common case: a handful of deletes against a `B²`-point
    /// metablock) cost `O(tombs · log n)` comparisons plus the copies.
    ///
    /// With unique ids a tombstone is an exact copy of the point it
    /// deletes, so matching on the `(x, id)` key is matching on identity
    /// (the `(y, id)` agreement is debug-checked).
    pub fn cancel(self, tombs: &SortedRun) -> (SortedRun, Vec<Point>) {
        if tombs.is_empty() {
            return (self, Vec::new());
        }
        let a = self.0;
        let mut out = Vec::with_capacity(a.len());
        let mut unmatched = Vec::new();
        let mut i = 0usize;
        for t in tombs.as_slice() {
            let k = i + gallop_x(&a[i..], t.xkey());
            out.extend_from_slice(&a[i..k]);
            i = k;
            if i < a.len() && a[i].xkey() == t.xkey() {
                debug_assert_eq!(
                    a[i], *t,
                    "tombstone coordinates disagree with the live copy"
                );
                i += 1; // annihilate the pair
            } else {
                unmatched.push(*t);
            }
        }
        out.extend_from_slice(&a[i..]);
        (SortedRun(out), unmatched)
    }
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
/// A reorganisation that rebuilds a point set's organisations holds this
/// order already, or gets it from one argsort, and hands it on beside the
/// run: the PST planner and the corner plan read their selections off it
/// instead of re-deriving the y-order themselves. Every constructor
/// debug-checks the order against its run and that the run's ids are
/// unique — the precondition every consumer relies on, which a strict
/// `(x, id)` order alone does not imply.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct YRanks(Vec<u32>);

/// A point's `(y, id)` key beside its rank, so that sorting and merging a
/// y-order compares keys held in place instead of looking each one up
/// through its rank.
#[derive(Clone, Copy, Default)]
struct Keyed {
    key: (i64, u64),
    rank: u32,
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
        Self::checked(run, keyed.iter().map(|k| k.rank).collect())
    }

    /// The x-sorted run and y-order of `by_y`, a strictly y-descending
    /// vector (a horizontal blocking): one x-argsort gathers the run, and
    /// its inverse is the order.
    pub fn of_y_desc(by_y: &[Point]) -> (SortedRun, Self) {
        Self::of_y_desc_parts(&[by_y])
    }

    /// The x-sorted run and y-order of `parts` laid end to end: strictly
    /// y-descending vectors (a level's `TS` snapshots) whose points are
    /// x-disjoint and in x order, part after part. Each part is x-argsorted
    /// and gathered onto the run, the inverse of its argsort is its
    /// y-order, and the parts' orders merge as in [`YRanks::concat`].
    pub fn of_y_desc_parts<P: AsRef<[Point]>>(parts: &[P]) -> (SortedRun, Self) {
        let n: usize = parts.iter().map(|p| p.as_ref().len()).sum();
        assert!(n <= u32::MAX as usize, "run too long for u32 ranks");
        let mut run = Vec::with_capacity(n);
        let mut by_y = vec![Keyed::default(); n];
        let mut bounds = Vec::with_capacity(parts.len() + 1);
        bounds.push(0);
        let mut by_x: Vec<Keyed> = Vec::new();
        for part in parts {
            let (part, base) = (part.as_ref(), run.len());
            by_x.clear();
            by_x.extend(part.iter().enumerate().map(|(i, p)| Keyed {
                key: p.xkey(),
                rank: i as u32,
            }));
            by_x.sort_unstable_by_key(|k| k.key);
            for (rank, k) in by_x.iter().enumerate() {
                let p = part[k.rank as usize];
                run.push(p);
                by_y[base + k.rank as usize] = Keyed {
                    key: p.ykey(),
                    rank: (base + rank) as u32,
                };
            }
            bounds.push(run.len());
        }
        let run = SortedRun::from_sorted(run);
        let order = Self::merged(&run, by_y, bounds);
        (run, order)
    }

    /// The y-order of `run`, the concatenation of x-disjoint runs laid end
    /// to end in x order, from `parts`, the y-orders of those runs in the
    /// same order: each part's ranks are offset by the lengths before it
    /// and the parts are merged in pairwise rounds, `O(n log k)` for `k`
    /// parts.
    pub fn concat<'a>(run: &SortedRun, parts: impl IntoIterator<Item = &'a YRanks>) -> Self {
        let mut by_y: Vec<Keyed> = Vec::with_capacity(run.len());
        let mut bounds = vec![0usize];
        for part in parts {
            let base = by_y.len() as u32;
            by_y.extend(part.0.iter().map(|&r| Keyed {
                key: run[(base + r) as usize].ykey(),
                rank: base + r,
            }));
            bounds.push(by_y.len());
        }
        assert_eq!(by_y.len(), run.len(), "parts do not cover the run");
        Self::merged(run, by_y, bounds)
    }

    /// Merge the y-ordered segments `by_y[bounds[i]..bounds[i + 1]]` of
    /// `run`'s keyed ranks into one y-order, in pairwise rounds.
    fn merged(run: &SortedRun, mut by_y: Vec<Keyed>, mut bounds: Vec<usize>) -> Self {
        let mut next = Vec::new();
        while bounds.len() > 2 {
            next.resize(by_y.len(), Keyed::default());
            let mut merged = vec![0usize];
            for pair in bounds.windows(3).step_by(2) {
                let out = &mut next[pair[0]..pair[2]];
                merge_keyed_desc(&by_y[pair[0]..pair[1]], &by_y[pair[1]..pair[2]], out);
                merged.push(pair[2]);
            }
            if bounds.len().is_multiple_of(2) {
                // An odd part count: the last part passes through whole.
                let last = bounds[bounds.len() - 2];
                next[last..].copy_from_slice(&by_y[last..]);
                merged.push(by_y.len());
            }
            std::mem::swap(&mut by_y, &mut next);
            bounds = merged;
        }
        Self::checked(run, by_y.iter().map(|k| k.rank).collect())
    }

    /// Wrap `ranks`, debug-checking them against `run` (see the type).
    fn checked(run: &SortedRun, ranks: Vec<u32>) -> Self {
        debug_assert_eq!(ranks.len(), run.len());
        // Strictly descending keys repeat no rank, so `n` in-range ranks
        // are a permutation.
        debug_assert!(
            ranks
                .windows(2)
                .all(|w| run[w[0] as usize].ykey() > run[w[1] as usize].ykey()),
            "y-order is not strictly (y, id)-descending over its run"
        );
        #[cfg(debug_assertions)]
        {
            let mut ids: Vec<u64> = run.iter().map(|p| p.id).collect();
            ids.sort_unstable();
            assert!(ids.windows(2).all(|w| w[0] != w[1]), "duplicate point ids");
        }
        Self(ranks)
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

/// Merge two key-descending runs into `out` (exactly their total length).
/// Which input the next key comes from is a coin flip on a level's
/// snapshots, so the loop selects a head and advances both cursors by the
/// comparison instead of branching on it.
fn merge_keyed_desc(a: &[Keyed], b: &[Keyed], out: &mut [Keyed]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (mut i, mut j, mut o) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        let take_a = x.key > y.key;
        out[o] = if take_a { x } else { y };
        o += 1;
        i += usize::from(take_a);
        j += usize::from(!take_a);
    }
    out[o..o + a.len() - i].copy_from_slice(&a[i..]);
    out[o + a.len() - i..].copy_from_slice(&b[j..]);
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

/// First index of `slice` whose `xkey` is `≥ key`, by exponential probing
/// then binary search over the final octave. `O(log distance)`.
fn gallop_x(slice: &[Point], key: (i64, u64)) -> usize {
    if slice.first().is_none_or(|p| p.xkey() >= key) {
        return 0;
    }
    // Invariant: slice[lo - 1].xkey() < key.
    let mut lo = 1usize;
    let mut step = 1usize;
    while lo < slice.len() && slice[lo].xkey() < key {
        lo += step;
        step *= 2;
    }
    let hi = lo.min(slice.len());
    let base = lo - step / 2;
    base + slice[base..hi].partition_point(|p| p.xkey() < key)
}

/// Merge two y-descending vectors (the order of horizontal blockings and
/// `TS` snapshots) into one, galloping like [`SortedRun::merge`]. Strict
/// total order on `(y, id)` makes the result identical to re-sorting the
/// concatenation.
pub fn merge_y_desc(a: Vec<Point>, b: Vec<Point>) -> Vec<Point> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    debug_assert!(a.windows(2).all(|w| w[0].ykey() > w[1].ykey()));
    debug_assert!(b.windows(2).all(|w| w[0].ykey() > w[1].ykey()));
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if a[i].ykey() > b[j].ykey() {
            let k = i + gallop_y_desc(&a[i..], b[j].ykey());
            out.extend_from_slice(&a[i..k]);
            i = k;
        } else {
            let k = j + gallop_y_desc(&b[j..], a[i].ykey());
            out.extend_from_slice(&b[j..k]);
            j = k;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// First index of y-descending `slice` whose `ykey` is `≤ key`.
fn gallop_y_desc(slice: &[Point], key: (i64, u64)) -> usize {
    if slice.first().is_none_or(|p| p.ykey() <= key) {
        return 0;
    }
    let mut lo = 1usize;
    let mut step = 1usize;
    while lo < slice.len() && slice[lo].ykey() > key {
        lo += step;
        step *= 2;
    }
    let hi = lo.min(slice.len());
    let base = lo - step / 2;
    base + slice[base..hi].partition_point(|p| p.ykey() > key)
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

/// Sort a small delta by y descending and merge it into an already
/// y-descending run — the `TS`-reorganisation step (y-sorted snapshot +
/// sorted delta, no full re-sort).
pub fn merge_delta_y_desc(run: Vec<Point>, mut delta: Vec<Point>) -> Vec<Point> {
    sort_by_y_desc(&mut delta);
    merge_y_desc(run, delta)
}

/// [`merge_delta_y_desc`] with tombstone cancellation: points whose id
/// appears among `tombs` are dropped from the merged result — the
/// TS-reorganisation step when the merged child carries pending deletes,
/// so a freshly rebuilt sibling snapshot never resurrects a deleted point.
/// With no tombstones this is exactly `merge_delta_y_desc` (same code
/// path, same result), so insert-only reorganisations are unaffected.
pub fn merge_delta_y_desc_cancel(
    run: Vec<Point>,
    delta: Vec<Point>,
    tombs: &[Point],
) -> Vec<Point> {
    if tombs.is_empty() {
        return merge_delta_y_desc(run, delta);
    }
    let dead = SortedIds::new(tombs.iter().map(|t| t.id));
    let mut out = merge_delta_y_desc(run, delta);
    out.retain(|p| !dead.contains(p.id));
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
    use crate::point::sort_by_x;

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
            let (by_x, inverted) = YRanks::of_y_desc(&want);
            assert_eq!(by_x, run, "of_y_desc run n={n}");
            assert_eq!(inverted, order, "of_y_desc order n={n}");
        }
    }

    #[test]
    fn y_ranks_concat_merges_the_parts() {
        for parts in [0usize, 1, 2, 3, 5, 8] {
            // x-disjoint slabs of uneven sizes, y drawn from few values.
            let slabs: Vec<SortedRun> = (0..parts)
                .map(|s| {
                    let pts = pseudo_points(s * 7 % 23 + 1, s as u64 + 3);
                    let pts = pts.into_iter().map(|p| {
                        Point::new(p.x + 1_000 * s as i64, p.y % 9, p.id + 1_000 * s as u64)
                    });
                    SortedRun::from_unsorted(pts.collect())
                })
                .collect();
            let orders: Vec<YRanks> = slabs.iter().map(YRanks::argsort).collect();
            let run =
                SortedRun::from_sorted(slabs.iter().flat_map(|s| s.iter().copied()).collect());
            let want = YRanks::argsort(&run);
            assert_eq!(YRanks::concat(&run, &orders), want, "{parts} parts");
            let snapshots: Vec<Vec<Point>> = slabs
                .iter()
                .zip(&orders)
                .map(|(s, o)| o.gather(s))
                .collect();
            assert_eq!(
                YRanks::of_y_desc_parts(&snapshots),
                (run, want),
                "{parts} parts"
            );
        }
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
        let merged = merge_y_desc(a.clone(), b.clone());
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
    fn delta_merge_sorts_only_the_delta() {
        let mut run = pseudo_points(200, 3);
        sort_by_y_desc(&mut run);
        let delta: Vec<Point> = pseudo_points(17, 5)
            .into_iter()
            .map(|p| Point::new(p.x, p.y, p.id + 1_000))
            .collect();
        let merged = merge_delta_y_desc(run.clone(), delta.clone());
        let mut want: Vec<Point> = run.into_iter().chain(delta).collect();
        sort_by_y_desc(&mut want);
        assert_eq!(merged, want);
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
        // Empty tombstone set is the identity.
        let run2 = SortedRun::from_unsorted(pseudo_points(9, 1));
        let before = run2.to_vec();
        let (same, none) = run2.cancel(&SortedRun::new());
        assert_eq!(same.to_vec(), before);
        assert!(none.is_empty());
    }

    #[test]
    fn delta_merge_cancel_filters_by_id() {
        let mut run = pseudo_points(60, 0xD);
        sort_by_y_desc(&mut run);
        let delta: Vec<Point> = pseudo_points(11, 0xE)
            .into_iter()
            .map(|p| Point::new(p.x, p.y, p.id + 2_000))
            .collect();
        let tombs: Vec<Point> = run.iter().step_by(5).copied().collect();
        let merged = merge_delta_y_desc_cancel(run.clone(), delta.clone(), &tombs);
        let dead: Vec<u64> = tombs.iter().map(|p| p.id).collect();
        let mut want: Vec<Point> = run
            .into_iter()
            .chain(delta)
            .filter(|p| !dead.contains(&p.id))
            .collect();
        sort_by_y_desc(&mut want);
        assert_eq!(merged, want);
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
