//! Allocation gate for the read path, on both trees.
//!
//! A served stab batch is one `query_batch_into` over a published epoch,
//! into result slots the caller keeps from batch to batch. What the batch
//! allocates is its own scratch: the read context (its page pin and the
//! lists it lends each level), the sort order and one answer buffer the
//! whole batch reuses. None of that is per query: a larger batch only
//! meets larger answers, which double the answer buffer a few more times,
//! so a batch of `k` queries allocates fewer than `k − 1` more than a batch
//! of one.
//!
//! The counts come from a counting global allocator that lives in this
//! file only and counts per thread. Each batch runs on its test's thread,
//! so the counts are exact and repeat for a given build; both profiles
//! measure the same counts here. Each tree is held to the counts measured
//! while the two trees still had a query recursion each, taken as
//! ceilings, at two sizes and three batch sizes, after a churn of commits
//! that leaves tombstones pending (so every query also filters).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ccix_core::{MetablockTree, Op, ThreeSidedTree};
use ccix_extmem::{Geometry, IoCounter, Point};
use ccix_testkit::workloads::{interval_points, uniform_intervals, uniform_points};
use ccix_testkit::DetRng;

/// Counts the calling thread's heap allocations (`alloc`, `alloc_zeroed`,
/// `realloc`).
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn bump() {
    // A const-initialised `Cell` has no destructor, so this never fails;
    // `try_with` keeps the allocator panic-free regardless.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const B: usize = 8;
/// The two tree sizes: height 3 and height 4 at `B = 8`.
const SIZES: [usize; 2] = [9_000, 72_000];
const RANGE: i64 = 1_000_000;
const MAX_LEN: i64 = 20_000;
/// Commits of 32 deletes and 32 inserts before the batches run.
const CHURN: usize = 40;
const BATCHES: [usize; 3] = [1, 8, 64];
/// Measured repeats of each batch, after one that sizes the slots.
const REPEATS: u64 = 20;

/// Allocations per `run` of the same batch into the same slots.
fn per_batch(mut run: impl FnMut(&mut Vec<Vec<Point>>)) -> f64 {
    let mut outs = Vec::new();
    run(&mut outs);
    let before = allocs();
    for _ in 0..REPEATS {
        run(&mut outs);
    }
    (allocs() - before) as f64 / REPEATS as f64
}

/// Apply `CHURN` commits of `HALF` deletes of live points and `HALF`
/// fresh points from `fresh`.
fn churn(
    rng: &mut DetRng,
    live: &mut Vec<Point>,
    fresh: impl Fn(&mut DetRng, u64) -> Point,
    mut apply: impl FnMut(&[Op]),
) {
    const HALF: usize = 32;
    let mut next_id = live.len() as u64;
    for _ in 0..CHURN {
        let mut ops = Vec::with_capacity(2 * HALF);
        for _ in 0..HALF {
            ops.push(Op::Delete(live.swap_remove(rng.gen_range(0..live.len()))));
        }
        for _ in 0..HALF {
            let p = fresh(rng, next_id);
            next_id += 1;
            live.push(p);
            ops.push(Op::Insert(p));
        }
        apply(&ops);
    }
}

/// Check one tree's counts, batch by batch, against `ceiling` and against
/// the single-query batch: fewer than one more allocation per added query.
fn gate(tree: &str, n: usize, counts: [f64; 3], ceiling: [f64; 3]) {
    println!("[query_allocs] {tree} n = {n}: {counts:?} per batch of {BATCHES:?}");
    for ((&k, got), most) in BATCHES.iter().zip(counts).zip(ceiling) {
        assert!(got <= most, "{tree} n = {n}, {k} queries: {got} > {most}");
        assert!(
            got - counts[0] < (k - 1).max(1) as f64,
            "{tree} n = {n}: {got} allocations for {k} queries, {} for one",
            counts[0]
        );
    }
}

/// Per size of [`SIZES`], per batch of [`BATCHES`].
const DIAG_CEILING: [[f64; 3]; 2] = [[14.0, 16.0, 17.0], [18.0, 19.0, 20.0]];

#[test]
fn a_diagonal_batch_allocates_scratch_not_per_query() {
    for (n, ceiling) in SIZES.into_iter().zip(DIAG_CEILING) {
        let mut live = interval_points(&uniform_intervals(n, 0x9A_110C, RANGE, MAX_LEN));
        let mut tree = MetablockTree::build(Geometry::new(B), IoCounter::new(), live.clone());
        let mut rng = DetRng::new(0x9A_110D);
        let fresh = |rng: &mut DetRng, id| {
            let lo = rng.gen_range(0..RANGE);
            Point::new(lo, lo + rng.gen_range(0..MAX_LEN), id)
        };
        churn(&mut rng, &mut live, fresh, |ops| tree.apply_batch(ops));
        assert!(tree.pending_deletes() > 0);
        let counts = BATCHES.map(|k| {
            let qs: Vec<i64> = (0..k).map(|_| rng.gen_range(0..RANGE)).collect();
            per_batch(|outs| tree.query_batch_into(&qs, outs))
        });
        gate("diagonal", n, counts, ceiling);
    }
}

/// Per size of [`SIZES`], per batch of [`BATCHES`].
const THREE_SIDED_CEILING: [[f64; 3]; 2] = [[15.0, 17.0, 17.0], [20.0, 24.0, 24.0]];

#[test]
fn a_three_sided_batch_allocates_scratch_not_per_query() {
    for (n, ceiling) in SIZES.into_iter().zip(THREE_SIDED_CEILING) {
        let mut live = uniform_points(n, 0x9A_3510, RANGE);
        let mut tree = ThreeSidedTree::build(Geometry::new(B), IoCounter::new(), live.clone());
        let mut rng = DetRng::new(0x9A_3511);
        let fresh =
            |rng: &mut DetRng, id| Point::new(rng.gen_range(0..RANGE), rng.gen_range(0..RANGE), id);
        churn(&mut rng, &mut live, fresh, |ops| tree.apply_batch(ops));
        assert!(tree.pending_deletes() > 0);
        let counts = BATCHES.map(|k| {
            let qs: Vec<(i64, i64, i64)> = (0..k)
                .map(|_| {
                    let x1 = rng.gen_range(0..RANGE);
                    (x1, x1 + RANGE / 50, rng.gen_range(0..RANGE))
                })
                .collect();
            per_batch(|outs| tree.query_batch_into(&qs, outs))
        });
        gate("three-sided", n, counts, ceiling);
    }
}
