//! Allocation gate for the writer's commit cycle.
//!
//! A group commit on the serving engine is `apply_submissions` on the live
//! index, a `fork_snapshot` published as the new epoch, and the drop of the
//! epoch it retires. The first write to a control block shared with an
//! epoch copies the block; the members a commit does not change (page
//! runs, key runs, child mirrors) are shared by handle, so the copy — and
//! the retired epoch's teardown of the old copy — costs a few allocations
//! per block, not one per member.
//!
//! The counts come from a counting global allocator that lives in this
//! file only. The cycle runs inline (a 64-op group is below the sharded
//! index's fan-out threshold), so every allocation it makes is on this
//! thread and the counts are deterministic for a given build profile.
//! Debug and release differ (debug assertions allocate), so each profile
//! is held to half of what the same cycle cost before member-granular
//! sharing, measured with this file at the same shape.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use ccix_core::{DiagOptions, MetablockTree, Tuning};
use ccix_extmem::{Geometry, IoCounter};
use ccix_interval::{IndexBuilder, Interval, IntervalOp};
use ccix_testkit::workloads::{interval_points, uniform_intervals};
use ccix_testkit::DetRng;

/// Counts heap allocations (`alloc`, `alloc_zeroed`, `realloc`) and frees.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Relaxed);
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
/// Measured commits. With the warm-up, each shard absorbs ≈ 1 900 deletes —
/// below the occupancy-shrink trigger (half the shard's size), so no full
/// rebuild lands inside the measurement.
const COMMITS: usize = 100;

/// The same cycle before member-granular sharing, per commit, at this
/// shape: `(allocations in apply, frees in the retired epoch's drop)`.
const PARENT: (f64, f64) = if cfg!(debug_assertions) {
    (2483.4, 2026.6)
} else {
    (2449.1, 2026.6)
};

fn next_commit(rng: &mut DetRng, live: &mut Vec<Interval>, next_id: &mut u64) -> Vec<IntervalOp> {
    let mut ops = Vec::with_capacity(2 * HALF);
    for _ in 0..HALF {
        let iv = live.swap_remove(rng.gen_range(0..live.len()));
        ops.push(IntervalOp::Delete(iv));
    }
    for _ in 0..HALF {
        let lo = rng.gen_range(0..RANGE);
        let iv = Interval::new(lo, lo + rng.gen_range(0..MAX_LEN), *next_id);
        *next_id += 1;
        ops.push(IntervalOp::Insert(iv));
    }
    live.extend(ops[HALF..].iter().map(|op| match op {
        IntervalOp::Insert(iv) => *iv,
        IntervalOp::Delete(_) => unreachable!("inserts follow the deletes"),
    }));
    ops
}

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
    let mut epoch = idx.fork_snapshot(IoCounter::new());
    let (mut allocs, mut frees) = (0u64, 0u64);
    for commit in 0..WARMUP + COMMITS {
        let subs = vec![next_commit(&mut rng, &mut live, &mut next_id)];
        let before = ALLOCS.load(Relaxed);
        idx.apply_submissions(&subs, PUMP);
        let applied = ALLOCS.load(Relaxed) - before;
        let next = idx.fork_snapshot(IoCounter::new());
        let retired = std::mem::replace(&mut epoch, next);
        let before = FREES.load(Relaxed);
        drop(retired);
        let dropped = FREES.load(Relaxed) - before;
        if commit >= WARMUP {
            allocs += applied;
            frees += dropped;
        }
    }
    assert_eq!(idx.len(), N);

    let per_commit = allocs as f64 / COMMITS as f64;
    let per_drop = frees as f64 / COMMITS as f64;
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "[commit_allocs] {profile}: {per_commit:.1} allocations per commit in apply \
         (before: {:.1}), {per_drop:.1} frees per retired-epoch drop (before: {:.1})",
        PARENT.0, PARENT.1
    );
    assert!(
        per_commit <= PARENT.0 / 2.0,
        "{per_commit:.1} allocations per commit, more than half of {:.1}",
        PARENT.0
    );
    assert!(
        per_drop <= PARENT.1 / 2.0,
        "{per_drop:.1} frees per retired-epoch drop, more than half of {:.1}",
        PARENT.1
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
