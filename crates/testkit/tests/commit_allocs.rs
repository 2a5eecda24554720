//! Allocation gate for the writer's commit cycle, on both trees.
//!
//! A group commit on the serving engine is `apply_submissions` on the live
//! index, a `fork_snapshot` published as the new epoch, and the drop of the
//! epoch it retires. The first write to a control block shared with an
//! epoch copies the block; the members a commit does not change (page
//! runs, key runs, child mirrors, the three-sided tree's PSTs) are shared
//! by handle, so the copy — and the retired epoch's teardown of the old
//! copy — costs a few allocations per block, not one per member, and the
//! fork itself copies no block.
//!
//! The counts come from a counting global allocator that lives in this
//! file only and counts per thread. Each cycle runs inline on its test's
//! thread (a 64-op group is below the sharded index's fan-out threshold),
//! so the counts are deterministic for a given build profile. Debug and
//! release differ (debug assertions allocate), so each profile is held to
//! half of what the same cycle cost before the tree's control blocks were
//! shared member by member (the diagonal tree) or at all (the three-sided
//! tree), measured with this file at the same shape.
//!
//! A third leg counts one children-sized PST rebuild on its own: the
//! rebuild a three-sided TS reorganisation runs over its children's
//! snapshots, held to half of what it cost while the planner re-selected
//! every node's top and kept a box and a vector per node.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::thread::LocalKey;

use ccix_core::{DiagOptions, MetablockTree, Op, ThreeSidedTree, Tuning};
use ccix_extmem::{Geometry, IoCounter, Point, SortedRun, YRanks};
use ccix_interval::{IndexBuilder, Interval, IntervalOp};
use ccix_pst::ExternalPst;
use ccix_testkit::workloads::{interval_points, uniform_intervals, uniform_points};
use ccix_testkit::DetRng;

/// Counts the calling thread's heap allocations (`alloc`, `alloc_zeroed`,
/// `realloc`) and frees.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(count: &'static LocalKey<Cell<u64>>) {
    // A const-initialised `Cell` has no destructor, so this never fails;
    // `try_with` keeps the allocator panic-free regardless.
    let _ = count.try_with(|n| n.set(n.get() + 1));
}

fn read(count: &'static LocalKey<Cell<u64>>) -> u64 {
    count.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const B: usize = 8;
const N: usize = 9_000;
const RANGE: i64 = 1_000_000;
const MAX_LEN: i64 = 20_000;
const SHARDS: usize = 2;
/// Commits of 32 deletes + 32 inserts, as the `wire_write` client sends.
const HALF: usize = 32;
const PUMP: usize = 64;
const WARMUP: usize = 20;
/// Measured commits. With the warm-up, each diagonal shard absorbs
/// ≈ 1 900 deletes and the three-sided tree ≈ 3 800 — below the
/// occupancy-shrink trigger (half the size), so no full rebuild lands
/// inside the measurement.
const COMMITS: usize = 100;

/// Per-commit averages of one leg's cycle.
#[derive(Debug)]
struct Counts {
    /// Allocations while the commit is applied.
    apply: f64,
    /// Allocations while the new epoch is forked.
    fork: f64,
    /// Frees while the retired epoch drops.
    drop: f64,
}

/// Run `WARMUP + COMMITS` commits of `next_commit()` through `apply`, fork
/// an epoch after each and drop the one it retires; average the measured
/// commits. Returns the counts and the last epoch.
fn cycle<I, C>(
    index: &mut I,
    mut next_commit: impl FnMut() -> C,
    mut apply: impl FnMut(&mut I, &C),
    fork: impl Fn(&I) -> I,
) -> (Counts, I) {
    let mut epoch = fork(index);
    let (mut applied, mut forked, mut dropped) = (0u64, 0u64, 0u64);
    for commit in 0..WARMUP + COMMITS {
        let ops = next_commit();
        let a = read(&ALLOCS);
        apply(index, &ops);
        let f = read(&ALLOCS);
        let next = fork(index);
        let done = read(&ALLOCS);
        let retired = std::mem::replace(&mut epoch, next);
        let before = read(&FREES);
        drop(retired);
        if commit >= WARMUP {
            applied += f - a;
            forked += done - f;
            dropped += read(&FREES) - before;
        }
    }
    let per = |n: u64| n as f64 / COMMITS as f64;
    let counts = Counts {
        apply: per(applied),
        fork: per(forked),
        drop: per(dropped),
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!("[commit_allocs] {profile}: {counts:?} per commit");
    (counts, epoch)
}

/// Assert `got ≤ ½ · parent`, naming the count.
fn at_most_half(what: &str, got: f64, parent: f64) {
    assert!(
        got <= parent / 2.0,
        "{got:.1} {what}, more than half of {parent:.1}"
    );
}

/// Delete `HALF` random live items and insert `HALF` fresh ones made by
/// `fresh(rng, id)`; returns `(deleted, inserted)`.
fn churn<T: Copy>(
    rng: &mut DetRng,
    live: &mut Vec<T>,
    next_id: &mut u64,
    fresh: impl Fn(&mut DetRng, u64) -> T,
) -> (Vec<T>, Vec<T>) {
    let deleted = (0..HALF)
        .map(|_| live.swap_remove(rng.gen_range(0..live.len())))
        .collect();
    let inserted: Vec<T> = (0..HALF)
        .map(|_| {
            *next_id += 1;
            fresh(rng, *next_id - 1)
        })
        .collect();
    live.extend_from_slice(&inserted);
    (deleted, inserted)
}

/// The diagonal leg before member-granular sharing, per commit, at this
/// shape: `(allocations in apply, frees in the retired epoch's drop)`.
const DIAG_PARENT: (f64, f64) = if cfg!(debug_assertions) {
    (2483.4, 2026.6)
} else {
    (2449.1, 2026.6)
};

#[test]
fn a_commit_allocates_and_retires_in_proportion_to_what_it_touches() {
    let mut live = uniform_intervals(N, 0xA110C, RANGE, MAX_LEN);
    let los: Vec<i64> = live.iter().map(|iv| iv.lo).collect();
    let mut idx = IndexBuilder::new(Geometry::new(B))
        .sharded()
        .splits_from_sample(&los, SHARDS)
        .bulk(&live);

    // The shards hold the tree a bare build over their points holds: check
    // the shape on shard 0's twin — deep, and branching like a real tree.
    let split = idx.splits()[0];
    let shard0: Vec<Interval> = live.iter().copied().filter(|iv| iv.lo < split).collect();
    let twin = MetablockTree::build_tuned(
        Geometry::new(B),
        IoCounter::new(),
        interval_points(&shard0),
        DiagOptions::default(),
        Tuning::default(),
    );
    let s = twin.stats();
    let internal = s.metablocks - s.leaves;
    assert!(s.height >= 3, "{s:?}");
    assert!(
        (s.metablocks - 1) as f64 / internal as f64 >= 4.0,
        "internal fan-out below 4: {s:?}"
    );
    drop(twin);

    let mut rng = DetRng::new(0xC0_4417);
    let mut next_id = N as u64;
    let (counts, epoch) = cycle(
        &mut idx,
        || {
            let (deleted, inserted) = churn(&mut rng, &mut live, &mut next_id, |rng, id| {
                let lo = rng.gen_range(0..RANGE);
                Interval::new(lo, lo + rng.gen_range(0..MAX_LEN), id)
            });
            let ops = deleted.into_iter().map(IntervalOp::Delete);
            vec![ops
                .chain(inserted.into_iter().map(IntervalOp::Insert))
                .collect()]
        },
        |idx, subs: &Vec<Vec<IntervalOp>>| idx.apply_submissions(subs, PUMP),
        |idx| idx.fork_snapshot(IoCounter::new()),
    );
    assert_eq!(idx.len(), N);
    at_most_half(
        "allocations in apply per commit",
        counts.apply,
        DIAG_PARENT.0,
    );
    at_most_half(
        "frees in the retired epoch's drop per commit",
        counts.drop,
        DIAG_PARENT.1,
    );

    // The epoch still answers for its own moment.
    let q = RANGE / 2;
    let mut want: Vec<u64> = live
        .iter()
        .filter(|iv| iv.lo <= q && q <= iv.hi)
        .map(|iv| iv.id)
        .collect();
    want.sort_unstable();
    let mut got = epoch.stabbing(q);
    got.sort_unstable();
    assert_eq!(got, want);
}

/// The three-sided leg when a fork deep-copied every control block and
/// forked every PST, per commit, at this shape: `(allocations in apply,
/// allocations in the fork, frees in the retired epoch's drop)`.
const TS_PARENT: (f64, f64, f64) = if cfg!(debug_assertions) {
    (1313.9, 2232.06, 2819.78)
} else {
    (1296.42, 2232.06, 2819.78)
};

#[test]
fn a_three_sided_commit_allocates_and_retires_in_proportion_to_what_it_touches() {
    let mut live = uniform_points(N, 0x3_51DE, RANGE);
    let mut tree = ThreeSidedTree::build(Geometry::new(B), IoCounter::new(), live.clone());
    let s = tree.stats();
    assert!(s.height >= 3, "{s:?}");

    let mut rng = DetRng::new(0xC0_4418);
    let mut next_id = N as u64;
    let (counts, epoch) = cycle(
        &mut tree,
        || {
            let (deleted, inserted) = churn(&mut rng, &mut live, &mut next_id, |rng, id| {
                Point::new(rng.gen_range(0..RANGE), rng.gen_range(0..RANGE), id)
            });
            let ops = deleted.into_iter().map(Op::Delete);
            ops.chain(inserted.into_iter().map(Op::Insert)).collect()
        },
        |tree, ops: &Vec<Op>| tree.apply_batch(ops),
        |tree| tree.fork_snapshot(IoCounter::new()),
    );
    assert_eq!(tree.len(), N);
    // `TS_PARENT`'s fork copied every block, where this one copies a
    // shared block at its first write, in apply: the writer's side of a
    // commit is apply and fork together.
    at_most_half(
        "allocations in apply and fork per commit",
        counts.apply + counts.fork,
        TS_PARENT.0 + TS_PARENT.1,
    );
    at_most_half(
        "frees in the retired epoch's drop per commit",
        counts.drop,
        TS_PARENT.2,
    );

    // The epoch still answers for its own moment.
    let (x1, x2, y0) = (RANGE / 4, RANGE / 2, RANGE / 2);
    let mut want: Vec<u64> = live
        .iter()
        .filter(|p| x1 <= p.x && p.x <= x2 && p.y >= y0)
        .map(|p| p.id)
        .collect();
    want.sort_unstable();
    let mut got: Vec<u64> = epoch.query(x1, x2, y0).iter().map(|p| p.id).collect();
    got.sort_unstable();
    assert_eq!(got, want);
}

/// The children-sized rebuild while the planner re-derived every node's
/// top (a selection, a filter and a sort per node) and the plan and its
/// layout mirror kept a box and a vector per node: allocations in the
/// rebuild, the same in both profiles.
const PST_PARENT: f64 = 13_303.0;

#[test]
fn a_children_sized_pst_rebuild_allocates_in_proportion_to_its_nodes() {
    let geo = Geometry::new(32);
    let base = uniform_points(32_768, 0x9_5700, RANGE);
    let delta = uniform_points(1_024, 0x9_5701, RANGE);
    let mut grown = base.clone();
    grown.extend(delta.iter().map(|p| Point::new(p.x, p.y, p.id + 1_000_000)));
    let counter = IoCounter::new();
    let mut pst = Arc::new(ExternalPst::build(geo, counter.clone(), base));
    // The caller holds the run and its y-order, as a reorganisation does.
    let run = SortedRun::from_unsorted(grown);
    let by_y = YRanks::argsort(&run);
    let before = read(&ALLOCS);
    ExternalPst::rebuild_shared(&mut pst, &counter, geo, &run, &by_y);
    let rebuild = (read(&ALLOCS) - before) as f64;
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!("[commit_allocs] {profile}: PST rebuild {rebuild} allocations, parent {PST_PARENT}");
    at_most_half(
        "allocations in a children-sized PST rebuild",
        rebuild,
        PST_PARENT,
    );
    assert_eq!(pst.len(), run.len());
}
