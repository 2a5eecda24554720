//! Deterministic workload generators shared by tests, differential suites
//! and the bench harness.
//!
//! Three regimes per input family, mirroring the evaluation style of the
//! paper's experiments: **uniform** (the average case the theorems price),
//! **skewed** (hot spots — most mass near a few centres), and
//! **adversarial** (the structures' worst shapes: deep nesting for stabbing
//! queries, the Proposition 3.3 staircase for diagonal-corner queries).

use ccix_class::{Hierarchy, Object};
use ccix_extmem::Point;
use ccix_interval::Interval;

use crate::rng::DetRng;

// ---------------------------------------------------------------- intervals

/// Uniform random intervals: left endpoints over `[0, range)`, lengths over
/// `[0, max_len)`.
pub fn uniform_intervals(n: usize, seed: u64, range: i64, max_len: i64) -> Vec<Interval> {
    let mut r = DetRng::new(seed);
    (0..n)
        .map(|i| {
            let lo = r.gen_range(0..range);
            let len = r.gen_range(0..max_len);
            Interval::new(lo, lo + len, i as u64)
        })
        .collect()
}

/// Skewed intervals: endpoints cluster geometrically around a few hot
/// centres, so some stabbing points see a large fraction of the input.
pub fn skewed_intervals(n: usize, seed: u64, range: i64, centres: usize) -> Vec<Interval> {
    assert!(centres > 0, "need at least one hot centre");
    let mut r = DetRng::new(seed);
    let hot: Vec<i64> = (0..centres).map(|_| r.gen_range(0..range)).collect();
    (0..n)
        .map(|i| {
            let c = *r.choose(&hot).expect("nonempty");
            // Geometric spread: most intervals are tight around the centre.
            let mut spread = 1i64;
            while spread < range && r.gen_bool(0.5) {
                spread *= 2;
            }
            let lo = (c - r.gen_range(0..spread + 1)).max(0);
            let hi = (c + r.gen_range(0..spread + 1)).min(range.max(1));
            Interval::new(lo, hi.max(lo), i as u64)
        })
        .collect()
}

/// Nested intervals around a common centre — every stabbing query near the
/// centre returns a long prefix (the high-overlap adversarial regime).
pub fn nested_intervals(n: usize, centre: i64) -> Vec<Interval> {
    (0..n)
        .map(|i| Interval::new(centre - i as i64, centre + i as i64, i as u64))
        .collect()
}

/// Adversarial mix: half deeply nested around `range/2`, half staircase
/// `[x, x+1]` — simultaneously the worst stabbing output and the shape that
/// witnesses the Proposition 3.3 lower bound.
pub fn adversarial_intervals(n: usize, range: i64) -> Vec<Interval> {
    let half = n / 2;
    let mut out = nested_intervals(half, range / 2);
    out.extend((half..n).map(|i| {
        let x = (i - half) as i64 % range.max(1);
        Interval::new(x, x + 1, i as u64)
    }));
    out
}

/// Intervals as diagonal points `(lo, hi)` (Fig. 3's mapping).
pub fn interval_points(intervals: &[Interval]) -> Vec<Point> {
    intervals
        .iter()
        .map(|iv| Point::new(iv.lo, iv.hi, iv.id))
        .collect()
}

// ------------------------------------------------------------ query floods
//
// Stabbing-query batches for the batched read engines (`query_batch` /
// `stab_batch`): the north-star workload is millions of users issuing
// query floods, so suites and benches share these three regimes. The
// engines sort internally — the generators deliberately deliver points in
// cache-hostile order so nothing depends on accidental input order.

/// Uniform flood: `batch` independent stabbing points over `[0, range)` —
/// the scattered regime, where batching can only share the descent's top.
pub fn uniform_flood(batch: usize, seed: u64, range: i64) -> Vec<i64> {
    let mut r = DetRng::new(seed);
    (0..batch).map(|_| r.gen_range(0..range)).collect()
}

/// Skewed flood: stabbing points cluster geometrically around a few hot
/// spots (most users query the same hot keys).
pub fn skewed_flood(batch: usize, seed: u64, range: i64, centres: usize) -> Vec<i64> {
    assert!(centres > 0, "need at least one hot centre");
    let mut r = DetRng::new(seed);
    let hot: Vec<i64> = (0..centres).map(|_| r.gen_range(0..range)).collect();
    (0..batch)
        .map(|_| {
            let c = *r.choose(&hot).expect("nonempty");
            let mut spread = 1i64;
            while spread < range && r.gen_bool(0.5) {
                spread *= 2;
            }
            (c + r.gen_range(-spread..spread + 1)).clamp(0, range.max(1) - 1)
        })
        .collect()
}

/// Adversarial-correlated flood: every stabbing point falls inside one
/// tight window, but the batch is delivered in a maximally un-sorted
/// (ends-inward interleaved) order — the shape a batched engine must sort
/// to exploit, and the worst case for any engine that processes the batch
/// in arrival order with a small cache.
pub fn correlated_flood(batch: usize, seed: u64, range: i64, window: i64) -> Vec<i64> {
    let mut r = DetRng::new(seed);
    let lo = r.gen_range(0..(range - window).max(1));
    let mut sorted: Vec<i64> = (0..batch)
        .map(|_| lo + r.gen_range(0..window.max(1)))
        .collect();
    sorted.sort_unstable();
    // Ends-inward interleave: max, min, 2nd max, 2nd min, …
    let mut out = Vec::with_capacity(batch);
    let (mut i, mut j) = (0usize, batch);
    while i < j {
        j -= 1;
        out.push(sorted[j]);
        if i < j {
            out.push(sorted[i]);
            i += 1;
        }
    }
    out
}

// ------------------------------------------------------ shard-skew families
//
// Workloads for the x-range sharded index: traffic whose *shard* targeting
// is skewed, independently of how keys are distributed within a shard.
// Shared by the `sharded` differential suite and the ES bench — a sharded
// engine that only ever sees uniform-over-shards floods never exercises
// its worst case (all parallelism collapsing onto one hot shard).

/// Sample one shard id under a Zipf law over `shards` ranks: rank `r` has
/// weight `1/(r+1)^skew`, and `ranking` maps rank → shard id (so the hot
/// shard need not be the leftmost). `skew = 0.0` is uniform.
fn zipf_shard(r: &mut DetRng, ranking: &[usize], skew: f64) -> usize {
    let weights: Vec<f64> = (0..ranking.len())
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(skew))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut u = r.next_f64() * total;
    for (rank, w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return ranking[rank];
        }
    }
    ranking[ranking.len() - 1]
}

/// The x-range boundaries `splits` induce over `[0, range)`: shard `s`
/// owns `[bounds[s], bounds[s + 1])`.
fn shard_bounds(splits: &[i64], range: i64) -> Vec<(i64, i64)> {
    let mut lo = 0i64;
    let mut out = Vec::with_capacity(splits.len() + 1);
    for &s in splits {
        out.push((lo, s.max(lo + 1)));
        lo = s.max(lo + 1);
    }
    out.push((lo, range.max(lo + 1)));
    out
}

/// Zipf-over-shards insert flood: each interval's **shard** is drawn from a
/// Zipf law over the `splits.len() + 1` x-range shards (hot-shard identity
/// shuffled by `seed`), while its left endpoint is uniform *within* the
/// chosen shard's x-range and its length uniform in `[0, max_len)` —
/// lengths may cross split points to the right, which is exactly the
/// routing-overhead case the directory's `max_hi` bound has to absorb.
/// `skew = 0.0` degenerates to uniform-over-shards; ~1.0 is classic web
/// skew; larger concentrates the flood on one shard.
pub fn zipf_shard_intervals(
    n: usize,
    seed: u64,
    splits: &[i64],
    range: i64,
    max_len: i64,
    skew: f64,
) -> Vec<Interval> {
    let mut r = DetRng::new(seed);
    let bounds = shard_bounds(splits, range);
    let mut ranking: Vec<usize> = (0..bounds.len()).collect();
    r.shuffle(&mut ranking);
    (0..n)
        .map(|i| {
            let (lo_b, hi_b) = bounds[zipf_shard(&mut r, &ranking, skew)];
            let lo = r.gen_range(lo_b..hi_b);
            let len = r.gen_range(0..max_len.max(1));
            Interval::new(lo, lo + len, i as u64)
        })
        .collect()
}

/// Zipf-over-shards stabbing flood: query points whose shard targeting
/// follows the same Zipf law as [`zipf_shard_intervals`] (and the same
/// `seed` ⇒ the same hot shard), uniform within the chosen shard.
pub fn zipf_shard_flood(
    batch: usize,
    seed: u64,
    splits: &[i64],
    range: i64,
    skew: f64,
) -> Vec<i64> {
    let mut r = DetRng::new(seed);
    let bounds = shard_bounds(splits, range);
    let mut ranking: Vec<usize> = (0..bounds.len()).collect();
    r.shuffle(&mut ranking);
    (0..batch)
        .map(|_| {
            let (lo_b, hi_b) = bounds[zipf_shard(&mut r, &ranking, skew)];
            r.gen_range(lo_b..hi_b)
        })
        .collect()
}

/// Hot-shard adversarial split points: `shards - 1` splits over
/// `[0, range)` such that shard `hot` owns essentially the whole x-range
/// and every other shard a width-1 sliver. Routed traffic over `[0,
/// range)` then lands almost entirely on one shard — the degenerate
/// partition where fan-out parallelism collapses and untouched shards'
/// counters must stay silent.
///
/// # Panics
/// Panics unless `hot < shards` and `range` leaves every sliver one unit.
pub fn hot_shard_splits(shards: usize, range: i64, hot: usize) -> Vec<i64> {
    assert!(shards > 0 && hot < shards, "hot shard out of range");
    assert!(range > shards as i64, "range too small for width-1 slivers");
    let mut splits = Vec::with_capacity(shards - 1);
    // Width-1 slivers left of the hot shard…
    for i in 0..hot {
        splits.push(i as i64 + 1);
    }
    // …then the hot shard spans to the right slivers at the top end.
    for i in 0..(shards - 1 - hot) {
        splits.push(range - (shards - 1 - hot) as i64 + i as i64);
    }
    splits
}

// ------------------------------------------------------------- mixed floods
//
// Mixed insert/delete/query workloads (the ED flood family): the paper's §5
// leaves deletion open, so these generators are what exercises the
// tombstone machinery that closes it. Each generator tracks its own live
// set so every emitted delete targets a currently stored id — the
// structures' delete contract — and ids are never reused.

/// One operation of a mixed interval workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntervalOp {
    /// Insert this interval (fresh id).
    Insert(Interval),
    /// Delete this previously inserted, still-live interval.
    Delete(Interval),
    /// Stabbing query at this point.
    Stab(i64),
}

/// Mixed interval flood: `insert : delete : stab` in roughly
/// `(100 − del_pct − stab_pct) : del_pct : stab_pct` proportions, deletes
/// drawn uniformly from the live set (forced to inserts while nothing is
/// live). Deterministic in `seed`.
pub fn mixed_interval_flood(
    n_ops: usize,
    seed: u64,
    range: i64,
    max_len: i64,
    del_pct: u32,
    stab_pct: u32,
) -> Vec<IntervalOp> {
    let mut flood = IntervalFlood::new(seed, range, max_len, del_pct, stab_pct);
    flood.next_ops(n_ops)
}

/// A resumable [`mixed_interval_flood`]: the same stream, drawn a few
/// operations at a time, over a live set the caller can seed and read —
/// for suites that interleave a flood with other steps (forks, probes) or
/// continue one from an existing index's contents.
#[derive(Clone, Debug)]
pub struct IntervalFlood {
    rng: DetRng,
    /// Intervals inserted and not yet deleted, in the generator's order.
    pub live: Vec<Interval>,
    next_id: u64,
    range: i64,
    max_len: i64,
    del_pct: u32,
    stab_pct: u32,
}

impl IntervalFlood {
    /// A flood starting from nothing live, ids from 0.
    pub fn new(seed: u64, range: i64, max_len: i64, del_pct: u32, stab_pct: u32) -> Self {
        assert!(del_pct + stab_pct <= 100, "op percentages exceed 100");
        Self {
            rng: DetRng::new(seed),
            live: Vec::new(),
            next_id: 0,
            range,
            max_len,
            del_pct,
            stab_pct,
        }
    }

    /// Continue from `live` (deletes may target it), with fresh ids from
    /// `next_id` — which must exceed every id ever used by the structure
    /// under test.
    pub fn resume_from(mut self, live: Vec<Interval>, next_id: u64) -> Self {
        self.live = live;
        self.next_id = next_id;
        self
    }

    /// The next `n_ops` operations of the stream.
    pub fn next_ops(&mut self, n_ops: usize) -> Vec<IntervalOp> {
        (0..n_ops)
            .map(|_| {
                let roll = self.rng.gen_range(0..100u32);
                if roll < self.del_pct && !self.live.is_empty() {
                    let iv = self
                        .live
                        .swap_remove(self.rng.gen_range(0..self.live.len()));
                    IntervalOp::Delete(iv)
                } else if roll < self.del_pct + self.stab_pct {
                    IntervalOp::Stab(self.rng.gen_range(-1..self.range + 1))
                } else {
                    let lo = self.rng.gen_range(0..self.range);
                    let len = self.rng.gen_range(0..self.max_len.max(1));
                    let iv = Interval::new(lo, lo + len, self.next_id);
                    self.next_id += 1;
                    self.live.push(iv);
                    IntervalOp::Insert(iv)
                }
            })
            .collect()
    }
}

/// One operation of a mixed planar-point workload (for the 3-sided tree).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointOp {
    /// Insert this point (fresh id).
    Insert(Point),
    /// Delete this previously inserted, still-live point.
    Delete(Point),
    /// 3-sided query `(x1, x2, y0)`.
    Query(i64, i64, i64),
}

/// Mixed point flood over `[0, range)²`, same proportions and liveness
/// discipline as [`mixed_interval_flood`].
pub fn mixed_point_flood(
    n_ops: usize,
    seed: u64,
    range: i64,
    del_pct: u32,
    query_pct: u32,
) -> Vec<PointOp> {
    assert!(del_pct + query_pct <= 100, "op percentages exceed 100");
    let mut r = DetRng::new(seed);
    let mut live: Vec<Point> = Vec::new();
    let mut next_id = 0u64;
    (0..n_ops)
        .map(|_| {
            let roll = r.gen_range(0..100u32);
            if roll < del_pct && !live.is_empty() {
                PointOp::Delete(live.swap_remove(r.gen_range(0..live.len())))
            } else if roll < del_pct + query_pct {
                let x1 = r.gen_range(-1..range);
                let x2 = x1 + r.gen_range(0..range / 2 + 1);
                PointOp::Query(x1, x2, r.gen_range(-1..range + 1))
            } else {
                let p = Point::new(r.gen_range(0..range), r.gen_range(0..range), next_id);
                next_id += 1;
                live.push(p);
                PointOp::Insert(p)
            }
        })
        .collect()
}

/// One operation of a mixed class-hierarchy workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjectOp {
    /// Insert this object (fresh id).
    Insert(Object),
    /// Delete this previously inserted, still-live object.
    Delete(Object),
    /// Full-extent attribute-range query `(class, a1, a2)`.
    Query(usize, i64, i64),
}

/// Mixed object flood over `h`, same proportions and liveness discipline
/// as [`mixed_interval_flood`].
pub fn mixed_object_flood(
    h: &Hierarchy,
    n_ops: usize,
    seed: u64,
    attr_range: i64,
    del_pct: u32,
    query_pct: u32,
) -> Vec<ObjectOp> {
    ObjectFlood::new(h, seed, attr_range, del_pct, query_pct).next_ops(n_ops)
}

/// A resumable [`mixed_object_flood`] — the class-hierarchy counterpart of
/// [`IntervalFlood`]: the same stream, drawn a few operations at a time,
/// over a live set the caller can seed (a bulk-loaded index's contents)
/// and read.
#[derive(Clone, Debug)]
pub struct ObjectFlood {
    rng: DetRng,
    classes: usize,
    /// Objects inserted and not yet deleted, in the generator's order.
    pub live: Vec<Object>,
    next_id: u64,
    attr_range: i64,
    del_pct: u32,
    query_pct: u32,
}

impl ObjectFlood {
    /// A flood over `h` starting from nothing live, ids from 0.
    pub fn new(h: &Hierarchy, seed: u64, attr_range: i64, del_pct: u32, query_pct: u32) -> Self {
        assert!(del_pct + query_pct <= 100, "op percentages exceed 100");
        Self {
            rng: DetRng::new(seed),
            classes: h.len(),
            live: Vec::new(),
            next_id: 0,
            attr_range,
            del_pct,
            query_pct,
        }
    }

    /// Continue from `live` (deletes may target it), with fresh ids from
    /// `next_id` — which must exceed every id ever used by the structure
    /// under test.
    pub fn resume_from(mut self, live: Vec<Object>, next_id: u64) -> Self {
        self.live = live;
        self.next_id = next_id;
        self
    }

    /// The next `n_ops` operations of the stream.
    pub fn next_ops(&mut self, n_ops: usize) -> Vec<ObjectOp> {
        (0..n_ops)
            .map(|_| {
                let r = &mut self.rng;
                let roll = r.gen_range(0..100u32);
                if roll < self.del_pct && !self.live.is_empty() {
                    ObjectOp::Delete(self.live.swap_remove(r.gen_range(0..self.live.len())))
                } else if roll < self.del_pct + self.query_pct {
                    let a1 = r.gen_range(-1..self.attr_range);
                    ObjectOp::Query(
                        r.gen_range(0..self.classes),
                        a1,
                        a1 + r.gen_range(0..self.attr_range / 2 + 1),
                    )
                } else {
                    let o = Object::new(
                        r.gen_range(0..self.classes),
                        r.gen_range(0..self.attr_range),
                        self.next_id,
                    );
                    self.next_id += 1;
                    self.live.push(o);
                    ObjectOp::Insert(o)
                }
            })
            .collect()
    }
}

// ------------------------------------------------------------ commit plans
//
// The serving-engine differential suites (concurrency stress, crash
// recovery) all rely on the same trick: the engine applies submissions
// whole and in order, so any snapshot — or recovered index — reporting
// `ops_applied` identifies exactly which prefix of the batch stream it
// contains, and the oracle state for every prefix can be precomputed
// before the engine starts.

/// Shape parameters for [`commit_plan`].
#[derive(Clone, Copy, Debug)]
pub struct CommitPlanSpec {
    /// Intervals bulk-loaded before the flood starts.
    pub initial: usize,
    /// Number of submitted batches.
    pub batches: usize,
    /// Operations per batch (fixed, so `ops_applied / batch_ops` names a
    /// prefix).
    pub batch_ops: usize,
    /// Probability an op is a delete (when anything is live to delete).
    pub delete_prob: f64,
    /// Left endpoints drawn from `[0, lo_range)`.
    pub lo_range: i64,
    /// Lengths drawn from `[0, max_len)`.
    pub max_len: i64,
}

/// Fixed-size batches of independent interval ops plus the oracle live set
/// after each prefix.
#[derive(Clone, Debug)]
pub struct CommitPlan {
    /// Bulk-loaded starting content.
    pub initial: Vec<Interval>,
    /// Batches in submission order. Ops within one batch are independent
    /// (the `apply_batch` contract): deletes pick distinct already-live
    /// intervals and never target the same batch's inserts.
    pub batches: Vec<Vec<ccix_interval::IntervalOp>>,
    /// `states[k]` = live set once `k` batches have been applied (so
    /// `states[0] == initial` and `states[batches]` is the final state).
    pub states: Vec<Vec<Interval>>,
}

/// Generate a [`CommitPlan`]. Deterministic in the `rng` stream; ids are
/// never reused.
pub fn commit_plan(rng: &mut DetRng, spec: CommitPlanSpec) -> CommitPlan {
    let mut next_id = 0u64;
    let mut fresh = |rng: &mut DetRng| {
        let lo = rng.gen_range(0..spec.lo_range.max(1));
        let iv = Interval::new(lo, lo + rng.gen_range(0..spec.max_len.max(1)), next_id);
        next_id += 1;
        iv
    };
    let initial: Vec<Interval> = (0..spec.initial).map(|_| fresh(rng)).collect();
    let mut live = initial.clone();
    let mut states = vec![live.clone()];
    let mut batches = Vec::with_capacity(spec.batches);
    for _ in 0..spec.batches {
        let mut batch = Vec::with_capacity(spec.batch_ops);
        let mut deletable = live.clone();
        for _ in 0..spec.batch_ops {
            if !deletable.is_empty() && rng.gen_bool(spec.delete_prob) {
                let at = rng.gen_range(0..deletable.len());
                let victim = deletable.swap_remove(at);
                live.retain(|iv| iv.id != victim.id);
                batch.push(ccix_interval::IntervalOp::Delete(victim));
            } else {
                let iv = fresh(rng);
                live.push(iv);
                batch.push(ccix_interval::IntervalOp::Insert(iv));
            }
        }
        states.push(live.clone());
        batches.push(batch);
    }
    CommitPlan {
        initial,
        batches,
        states,
    }
}

// ------------------------------------------------------------------ points

/// The Proposition 3.3 staircase: `(x, x+1)` for `x ∈ [0, n)`.
pub fn staircase_points(n: usize) -> Vec<Point> {
    (0..n as i64)
        .map(|x| Point::new(x, x + 1, x as u64))
        .collect()
}

/// Uniform random points in `[0, range)²`.
pub fn uniform_points(n: usize, seed: u64, range: i64) -> Vec<Point> {
    let mut r = DetRng::new(seed);
    (0..n)
        .map(|i| Point::new(r.gen_range(0..range), r.gen_range(0..range), i as u64))
        .collect()
}

/// Clustered points for 3-sided queries: `clusters` columns of equal `x`
/// with uniform `y` — stresses tie-breaking in the x-partitioning orders.
pub fn clustered_points(n: usize, seed: u64, range: i64, clusters: usize) -> Vec<Point> {
    assert!(clusters > 0, "need at least one cluster");
    let mut r = DetRng::new(seed);
    let xs: Vec<i64> = (0..clusters).map(|_| r.gen_range(0..range)).collect();
    (0..n)
        .map(|i| {
            let x = *r.choose(&xs).expect("nonempty");
            Point::new(x, r.gen_range(0..range), i as u64)
        })
        .collect()
}

// ------------------------------------------------------------- hierarchies

/// Hierarchy shapes used by the class tests and experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HierarchyShape {
    /// Complete binary tree.
    Balanced,
    /// A single chain (the degenerate case of Lemma 4.3).
    Path,
    /// One root, `c − 1` leaf children (the Theorem 2.8 shape).
    Star,
    /// Random attachment (each class picks a uniform earlier parent).
    Random,
}

impl HierarchyShape {
    /// All shapes, for exhaustive sweeps.
    pub const ALL: [HierarchyShape; 4] = [
        HierarchyShape::Balanced,
        HierarchyShape::Path,
        HierarchyShape::Star,
        HierarchyShape::Random,
    ];
}

/// Build a hierarchy of `c` classes with the given shape.
pub fn hierarchy(shape: HierarchyShape, c: usize, seed: u64) -> Hierarchy {
    let mut r = DetRng::new(seed);
    let parents: Vec<Option<usize>> = (0..c)
        .map(|i| {
            if i == 0 {
                None
            } else {
                Some(match shape {
                    HierarchyShape::Balanced => (i - 1) / 2,
                    HierarchyShape::Path => i - 1,
                    HierarchyShape::Star => 0,
                    HierarchyShape::Random => r.gen_range(0..i),
                })
            }
        })
        .collect();
    Hierarchy::from_parents(&parents)
}

/// A random forest's parent array: class 0 is a root, later classes attach
/// to a uniform earlier class or (with probability 1/10) start a new tree.
pub fn random_forest(rng: &mut DetRng, max_c: usize) -> Vec<Option<usize>> {
    let c = rng.gen_range(1..max_c + 1);
    (0..c)
        .map(|i| {
            if i == 0 || rng.gen_bool(0.1) {
                None
            } else {
                Some(rng.gen_range(0..i))
            }
        })
        .collect()
}

/// Uniform objects over a hierarchy: random class, attribute in
/// `[0, attr_range)`.
pub fn uniform_objects(h: &Hierarchy, n: usize, seed: u64, attr_range: i64) -> Vec<Object> {
    let mut r = DetRng::new(seed);
    (0..n)
        .map(|i| {
            Object::new(
                r.gen_range(0..h.len()),
                r.gen_range(0..attr_range),
                i as u64,
            )
        })
        .collect()
}

/// Skewed objects: most objects land in one hot class (deep in the
/// hierarchy when possible), stressing full-extent compaction.
pub fn skewed_objects(h: &Hierarchy, n: usize, seed: u64, attr_range: i64) -> Vec<Object> {
    let mut r = DetRng::new(seed);
    let hot = (0..h.len())
        .max_by_key(|&c| h.depth(c))
        .expect("nonempty hierarchy");
    (0..n)
        .map(|i| {
            let class = if r.gen_bool(0.8) {
                hot
            } else {
                r.gen_range(0..h.len())
            };
            Object::new(class, r.gen_range(0..attr_range), i as u64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            uniform_intervals(10, 7, 100, 10),
            uniform_intervals(10, 7, 100, 10)
        );
        assert_eq!(uniform_points(5, 1, 50), uniform_points(5, 1, 50));
        assert_eq!(
            skewed_intervals(20, 3, 100, 4),
            skewed_intervals(20, 3, 100, 4)
        );
        assert_eq!(
            clustered_points(20, 5, 100, 3),
            clustered_points(20, 5, 100, 3)
        );
    }

    #[test]
    fn intervals_are_well_formed() {
        for iv in skewed_intervals(500, 9, 1000, 5)
            .into_iter()
            .chain(adversarial_intervals(500, 100))
        {
            assert!(iv.lo <= iv.hi);
        }
    }

    #[test]
    fn floods_are_deterministic_and_in_range() {
        assert_eq!(uniform_flood(16, 3, 100), uniform_flood(16, 3, 100));
        assert_eq!(skewed_flood(16, 5, 1000, 3), skewed_flood(16, 5, 1000, 3));
        assert_eq!(
            correlated_flood(17, 7, 10_000, 50),
            correlated_flood(17, 7, 10_000, 50)
        );
        for q in uniform_flood(50, 1, 100)
            .into_iter()
            .chain(skewed_flood(50, 2, 100, 4))
        {
            assert!((0..100).contains(&q));
        }
    }

    #[test]
    fn correlated_flood_is_tight_but_unsorted() {
        let batch = 64;
        let window = 100;
        let qs = correlated_flood(batch, 9, 100_000, window);
        assert_eq!(qs.len(), batch);
        let (lo, hi) = (*qs.iter().min().unwrap(), *qs.iter().max().unwrap());
        assert!(hi - lo < window, "flood wider than its window");
        // Ends-inward interleave: adjacent deliveries jump across the
        // window instead of creeping through it.
        assert!(qs.windows(2).any(|w| w[0] > w[1]) && qs.windows(2).any(|w| w[0] < w[1]));
    }

    #[test]
    fn mixed_floods_are_deterministic_and_live() {
        assert_eq!(
            mixed_interval_flood(300, 7, 500, 40, 30, 20),
            mixed_interval_flood(300, 7, 500, 40, 30, 20)
        );
        // Every delete targets a currently live id; ids never repeat.
        let mut live = std::collections::BTreeSet::new();
        let mut seen = std::collections::BTreeSet::new();
        for op in mixed_interval_flood(1_000, 11, 400, 30, 40, 10) {
            match op {
                IntervalOp::Insert(iv) => {
                    assert!(seen.insert(iv.id), "id {} reused", iv.id);
                    live.insert(iv.id);
                }
                IntervalOp::Delete(iv) => assert!(live.remove(&iv.id), "dead delete"),
                IntervalOp::Stab(_) => {}
            }
        }
        // Drawn in pieces, a flood is the same stream; resumed from a live
        // set, it deletes from that set and never reuses an id at or above
        // the one it was told to start from.
        let mut pieces = IntervalFlood::new(7, 500, 40, 30, 20);
        let mut drawn = pieces.next_ops(120);
        drawn.extend(pieces.next_ops(180));
        assert_eq!(drawn, mixed_interval_flood(300, 7, 500, 40, 30, 20));
        let seeded = vec![Interval::new(1, 2, 5), Interval::new(3, 9, 6)];
        let mut resumed = IntervalFlood::new(9, 500, 40, 60, 0).resume_from(seeded.clone(), 100);
        let ops = resumed.next_ops(50);
        assert!(ops.contains(&IntervalOp::Delete(seeded[0])));
        assert!(ops.iter().all(|op| match op {
            IntervalOp::Insert(iv) => iv.id >= 100,
            _ => true,
        }));
        let mut live_p = std::collections::BTreeSet::new();
        for op in mixed_point_flood(800, 3, 300, 35, 15) {
            match op {
                PointOp::Insert(p) => assert!(live_p.insert(p.id)),
                PointOp::Delete(p) => assert!(live_p.remove(&p.id)),
                PointOp::Query(x1, x2, _) => assert!(x1 <= x2),
            }
        }
        let h = hierarchy(HierarchyShape::Balanced, 15, 0);
        let mut live_o = std::collections::BTreeSet::new();
        for op in mixed_object_flood(&h, 500, 5, 200, 30, 20) {
            match op {
                ObjectOp::Insert(o) => assert!(live_o.insert(o.id)),
                ObjectOp::Delete(o) => assert!(live_o.remove(&o.id)),
                ObjectOp::Query(c, a1, a2) => {
                    assert!(c < h.len() && a1 <= a2);
                }
            }
        }
    }

    #[test]
    fn commit_plans_replay_to_their_states() {
        let spec = CommitPlanSpec {
            initial: 40,
            batches: 12,
            batch_ops: 8,
            delete_prob: 0.4,
            lo_range: 500,
            max_len: 60,
        };
        let plan = commit_plan(&mut DetRng::new(77), spec);
        assert_eq!(plan.batches.len(), 12);
        assert_eq!(plan.states.len(), 13);
        assert_eq!(plan.states[0], plan.initial);
        // Replaying each batch over the previous state yields the next:
        // the states really are the oracle for every prefix.
        let mut live = plan.initial.clone();
        for (k, batch) in plan.batches.iter().enumerate() {
            assert_eq!(batch.len(), 8, "fixed batch size");
            let mut in_batch = std::collections::BTreeSet::new();
            for op in batch {
                match op {
                    ccix_interval::IntervalOp::Insert(iv) => {
                        assert!(in_batch.insert(iv.id), "dependent ops in batch");
                        live.push(*iv);
                    }
                    ccix_interval::IntervalOp::Delete(iv) => {
                        assert!(in_batch.insert(iv.id), "dependent ops in batch");
                        let before = live.len();
                        live.retain(|l| l.id != iv.id);
                        assert_eq!(live.len(), before - 1, "dead delete");
                    }
                }
            }
            assert_eq!(live, plan.states[k + 1]);
        }
        // Determinism: same stream, same plan.
        let again = commit_plan(&mut DetRng::new(77), spec);
        assert_eq!(again.states, plan.states);
    }

    #[test]
    fn staircase_shape() {
        let pts = staircase_points(4);
        assert_eq!(pts[3], Point::new(3, 4, 3));
    }

    #[test]
    fn clustered_points_use_few_columns() {
        let pts = clustered_points(200, 2, 1000, 3);
        let mut xs: Vec<i64> = pts.iter().map(|p| p.x).collect();
        xs.sort_unstable();
        xs.dedup();
        assert!(xs.len() <= 3);
    }

    #[test]
    fn hierarchy_shapes() {
        let p = hierarchy(HierarchyShape::Path, 5, 0);
        assert_eq!(p.max_depth(), 5);
        let s = hierarchy(HierarchyShape::Star, 5, 0);
        assert_eq!(s.max_depth(), 2);
        let b = hierarchy(HierarchyShape::Balanced, 7, 0);
        assert_eq!(b.max_depth(), 3);
        let r = hierarchy(HierarchyShape::Random, 30, 1);
        assert_eq!(r.len(), 30);
    }

    #[test]
    fn random_forest_is_valid() {
        let mut rng = DetRng::new(4);
        for _ in 0..50 {
            let parents = random_forest(&mut rng, 40);
            let h = Hierarchy::from_parents(&parents);
            assert!(!h.is_empty());
        }
    }

    #[test]
    fn skewed_objects_concentrate() {
        let h = hierarchy(HierarchyShape::Balanced, 15, 0);
        let objs = skewed_objects(&h, 200, 6, 50);
        assert_eq!(objs.len(), 200);
        // The generator routes 80% of objects to the deepest class (same
        // selection rule as the generator), so well over half must land
        // there — a uniform regression would spread them ~1/15 each.
        let hot_class = (0..h.len())
            .max_by_key(|&c| h.depth(c))
            .expect("nonempty hierarchy");
        let hot = objs.iter().filter(|o| o.class == hot_class).count();
        assert!(
            hot > objs.len() / 2,
            "only {hot}/200 objects in the hot class — skew lost"
        );
    }
}
