//! Differential suite for **mutable forks**: structurally shared state must
//! never leak a write from one side of a fork to the other.
//!
//! `fork_snapshot` shares the page table's chunks, the pages and every
//! control block (and, on the three-sided tree, every PST) with the index
//! it was taken from; whichever side mutates first copies what it touches.
//! The serving layer only ever *reads* its forks, but a fork is a full
//! index (the benchmark's write ladder starts engines on forks), so both
//! sides may keep writing. Each trial forks a [`Subject`] — an
//! [`IntervalIndex`], or a [`ThreeSidedTree`] over the intervals as points
//! — and drives the two sides with **different** mixed floods, re-forking
//! every round:
//!
//! * each side agrees with its own linear-scan oracle and passes the
//!   structural validators — with the incremental-reorganisation budget
//!   finite and the shrink trigger low, so forks are regularly taken (and
//!   continued from) while a background shrink job is mid-flight;
//! * each round's frozen fork still answers for the moment it was taken
//!   after its origin moved on, bills its own counter only (a batch of its
//!   queries leaves the origin's counter where it was), and some rounds
//!   continue *from* the fork (forks of forks of mutated stores);
//! * each side bills exactly what an **unforked twin** fed the same
//!   operations bills — sharing is invisible to the cost model.

use ccix_core::{Op, ThreeSidedTree, Tuning};
use ccix_extmem::{Geometry, IoCounter, IoSnapshot, Point};
use ccix_interval::{IndexBuilder, Interval, IntervalIndex, IntervalOp};
use ccix_testkit::iocheck::IoProbe;
use ccix_testkit::workloads::{interval_points, IntervalFlood, IntervalOp as FloodOp};
use ccix_testkit::{check, oracle, DetRng};

const ROUNDS: usize = 200;

/// A forkable index the suite drives with interval operations.
trait Subject: Sized {
    fn open(geo: Geometry, tuning: Tuning) -> Self;
    fn fork(&self) -> Self;
    fn counter(&self) -> &IoCounter;
    fn len(&self) -> usize;
    /// Apply `ops` as one batch, or one at a time.
    fn apply(&mut self, ops: &[IntervalOp], batched: bool);
    /// Ids answering the probe `q`: a stab, or a three-sided query.
    fn probe(&self, q: i64) -> Vec<u64>;
    /// [`Subject::probe`] for each of `qs`, as one query batch.
    fn probe_batch(&self, qs: &[i64]) -> Vec<Vec<u64>>;
    /// What the probe `q` must answer over `live`.
    fn want(live: &[Interval], q: i64) -> Vec<u64>;
    /// Validators, plus any checks beyond the probes.
    fn check_all(&self, live: &[Interval], range: i64);
    fn space_pages(&self) -> usize;
    fn flush_reorgs(&mut self);
    fn reorg_in_progress(&self) -> bool;
}

impl Subject for IntervalIndex {
    fn open(geo: Geometry, tuning: Tuning) -> Self {
        IndexBuilder::new(geo).tuning(tuning).open(IoCounter::new())
    }
    fn fork(&self) -> Self {
        self.fork_snapshot(IoCounter::new())
    }
    fn counter(&self) -> &IoCounter {
        IntervalIndex::counter(self)
    }
    fn len(&self) -> usize {
        IntervalIndex::len(self)
    }
    fn apply(&mut self, ops: &[IntervalOp], batched: bool) {
        if batched {
            self.apply_batch(ops);
        } else {
            for op in ops {
                match *op {
                    IntervalOp::Insert(iv) => self.insert(iv.lo, iv.hi, iv.id),
                    IntervalOp::Delete(iv) => self.delete(iv.lo, iv.hi, iv.id),
                }
            }
        }
    }
    fn probe(&self, q: i64) -> Vec<u64> {
        self.stabbing(q)
    }
    fn probe_batch(&self, qs: &[i64]) -> Vec<Vec<u64>> {
        self.stab_batch(qs)
    }
    fn want(live: &[Interval], q: i64) -> Vec<u64> {
        oracle::stabbing_ids(live, q)
    }
    fn check_all(&self, live: &[Interval], range: i64) {
        self.validate_unbilled();
        oracle::assert_same_ids(
            self.intersecting(range / 3, range / 2),
            oracle::intersecting_ids(live, range / 3, range / 2),
            "intersecting",
        );
    }
    fn space_pages(&self) -> usize {
        IntervalIndex::space_pages(self)
    }
    fn flush_reorgs(&mut self) {
        IntervalIndex::flush_reorgs(self);
    }
    fn reorg_in_progress(&self) -> bool {
        IntervalIndex::reorg_in_progress(self)
    }
}

/// An interval as the point the three-sided tree stores for it.
fn point(iv: Interval) -> Point {
    Point::new(iv.lo, iv.hi, iv.id)
}

/// Probe `q` on the three-sided tree: `x ∈ [q − 40, q]`, `y ≥ q` — the
/// intervals starting at most 40 before `q` that still contain it.
fn three_sided(q: i64) -> (i64, i64, i64) {
    (q - 40, q, q)
}

impl Subject for ThreeSidedTree {
    fn open(geo: Geometry, tuning: Tuning) -> Self {
        ThreeSidedTree::new_tuned(geo, IoCounter::new(), tuning)
    }
    fn fork(&self) -> Self {
        self.fork_snapshot(IoCounter::new())
    }
    fn counter(&self) -> &IoCounter {
        ThreeSidedTree::counter(self)
    }
    fn len(&self) -> usize {
        ThreeSidedTree::len(self)
    }
    fn apply(&mut self, ops: &[IntervalOp], batched: bool) {
        let ops: Vec<Op> = ops
            .iter()
            .map(|op| match *op {
                IntervalOp::Insert(iv) => Op::Insert(point(iv)),
                IntervalOp::Delete(iv) => Op::Delete(point(iv)),
            })
            .collect();
        if batched {
            self.apply_batch(&ops);
        } else {
            for op in ops {
                match op {
                    Op::Insert(p) => self.insert(p),
                    Op::Delete(p) => self.delete(p),
                }
            }
        }
    }
    fn probe(&self, q: i64) -> Vec<u64> {
        let (x1, x2, y0) = three_sided(q);
        self.query(x1, x2, y0).iter().map(|p| p.id).collect()
    }
    fn probe_batch(&self, qs: &[i64]) -> Vec<Vec<u64>> {
        let queries: Vec<_> = qs.iter().map(|&q| three_sided(q)).collect();
        let answers = self.query_batch(&queries);
        answers
            .into_iter()
            .map(|pts| pts.iter().map(|p| p.id).collect())
            .collect()
    }
    fn want(live: &[Interval], q: i64) -> Vec<u64> {
        let (x1, x2, y0) = three_sided(q);
        let hits = oracle::three_sided(&interval_points(live), x1, x2, y0);
        hits.iter().map(|p| p.id).collect()
    }
    fn check_all(&self, _: &[Interval], _: i64) {
        self.validate_unbilled();
    }
    fn space_pages(&self) -> usize {
        ThreeSidedTree::space_pages(self)
    }
    fn flush_reorgs(&mut self) {
        ThreeSidedTree::flush_reorgs(self);
    }
    fn reorg_in_progress(&self) -> bool {
        ThreeSidedTree::reorg_in_progress(self)
    }
}

/// One side of the fork: the index under test, its unforked twin, the
/// flood that drives both and (inside the flood) the oracle's live set.
struct Side<S> {
    name: &'static str,
    index: S,
    twin: S,
    flood: IntervalFlood,
}

impl<S: Subject> Side<S> {
    /// Apply the next `k` operations of this side's flood to the index and
    /// to its twin, one probe around each; the two must bill identically.
    fn step(&mut self, k: usize, batched: bool) {
        let ops: Vec<IntervalOp> = self
            .flood
            .next_ops(k)
            .into_iter()
            .filter_map(|op| match op {
                FloodOp::Insert(iv) => Some(IntervalOp::Insert(iv)),
                FloodOp::Delete(iv) => Some(IntervalOp::Delete(iv)),
                // A delete roll with nothing live comes out as a stab.
                FloodOp::Stab(_) => None,
            })
            .collect();
        // `apply_batch` wants independent ops: no delete of an interval the
        // same batch inserts.
        let independent = ops.iter().all(|op| match op {
            IntervalOp::Delete(iv) => !ops.contains(&IntervalOp::Insert(*iv)),
            IntervalOp::Insert(_) => true,
        });
        let name = self.name;
        let run = |idx: &mut S| {
            let counter = idx.counter().clone();
            let probe = IoProbe::start(&counter, name);
            idx.apply(&ops, batched && independent);
            probe.finish()
        };
        assert_eq!(
            run(&mut self.index),
            run(&mut self.twin),
            "{name}: a forked index bills what its unforked twin bills"
        );
        assert_eq!(self.index.len(), self.flood.live.len(), "{name}: len");
    }

    /// One probe on the index and on its twin: same answer as the oracle,
    /// same bill.
    fn check_probe(&self, q: i64) {
        let want = S::want(&self.flood.live, q);
        let probe = IoProbe::start(self.index.counter(), self.name);
        oracle::assert_same_ids(self.index.probe(q), want.clone(), self.name);
        let billed = probe.finish();
        let probe = IoProbe::start(self.twin.counter(), "twin");
        oracle::assert_same_ids(self.twin.probe(q), want, "twin");
        assert_eq!(billed, probe.finish(), "{}: probe({q}) I/O", self.name);
    }

    /// Full agreement: validators, a sweep of probes and the subject's own
    /// extra checks.
    fn check_all(&self, range: i64) {
        self.index.check_all(&self.flood.live, range);
        self.twin.check_all(&self.flood.live, range);
        assert_eq!(
            self.index.space_pages(),
            self.twin.space_pages(),
            "{}: space",
            self.name
        );
        for q in (-1..range + 2).step_by((range as usize / 12).max(1)) {
            self.check_probe(q);
        }
    }
}

/// A frozen fork with what it must keep answering.
struct Frozen<S> {
    fork: S,
    live: Vec<Interval>,
    probes: Vec<i64>,
}

impl<S: Subject> Frozen<S> {
    fn take(side: &Side<S>, rng: &mut DetRng, range: i64) -> Self {
        Self {
            fork: side.index.fork(),
            live: side.flood.live.clone(),
            probes: (0..3).map(|_| rng.gen_range(-1..range + 1)).collect(),
        }
    }

    /// Answer the probes as one batch, as of the fork, and bill none of it
    /// to `origin` — the index the fork was taken from, since written to.
    /// The fork is dropped here, so the origin holds alone what it shared.
    fn check(self, origin: &S, context: &str) {
        assert_eq!(self.fork.len(), self.live.len(), "{context}: frozen len");
        let before = origin.counter().snapshot();
        let answers = self.fork.probe_batch(&self.probes);
        let origin_billed = origin.counter().since(before);
        assert_eq!(
            origin_billed,
            IoSnapshot::default(),
            "{context}: origin billed"
        );
        for (got, &q) in answers.into_iter().zip(&self.probes) {
            oracle::assert_same_ids(got, S::want(&self.live, q), context);
        }
    }
}

#[test]
fn both_sides_of_a_fork_keep_their_own_contents_and_bills() {
    fork_trials::<IntervalIndex>("fork_divergence::both_sides", 6, 0xF02C, varied);
}

/// The three-sided tree under the same trials: its control blocks and PSTs
/// are shared by handle, so both sides rebuild PSTs the other still holds.
#[test]
fn both_sides_of_a_three_sided_fork_keep_their_own_contents_and_bills() {
    fork_trials::<ThreeSidedTree>("fork_divergence::three_sided", 6, 0xF02E, varied);
}

/// Buffers, mirrors, snapshots and residency drawn per trial.
fn varied(rng: &mut DetRng) -> Tuning {
    Tuning {
        update_batch_pages: rng.gen_range(1..5usize),
        td_batch_pages: rng.gen_range(1..4usize),
        tomb_batch_pages: rng.gen_range(1..4usize),
        shrink_deletes_pct: rng.gen_range(5..30usize),
        pack_h_pages: rng.gen_range(0..4usize),
        resident_root: rng.gen_bool(0.5),
        reorg_pages_per_op: *rng.choose(&[1usize, 2, 4]).expect("nonempty"),
        ..Tuning::default()
    }
}

/// The paper's layout: no packed mirrors in the child entries
/// (`pack_h_pages = 0`, so every examined child's own control block is
/// read and copied) and full `B²` TS snapshots (`ts_snapshot_pages:
/// None`, the long snapshot runs).
#[test]
fn forks_of_the_mirror_off_layout_with_full_snapshots_diverge_cleanly() {
    fork_trials::<IntervalIndex>("fork_divergence::paper", 3, 0xF02D, |rng| Tuning {
        shrink_deletes_pct: rng.gen_range(5..30usize),
        ts_snapshot_pages: None,
        reorg_pages_per_op: *rng.choose(&[1usize, 2, 4]).expect("nonempty"),
        ..Tuning::paper()
    });
}

/// Fork a subject built with `tuning(rng)` — its shrink trigger low and its
/// reorganisation budget finite, so forks land mid-job — and drive both
/// sides apart for [`ROUNDS`] rounds, `trials` times.
fn fork_trials<S: Subject>(
    label: &'static str,
    trials: usize,
    seed: u64,
    tuning: impl Fn(&mut DetRng) -> Tuning,
) {
    let mut mid_job_forks = 0usize;
    let mut continued_from_fork = 0usize;
    check::trials(label, trials, seed, |rng| {
        let b = rng.gen_range(2usize..7);
        let geo = Geometry::new(b);
        let tuning = tuning(rng);
        let range = rng.gen_range(60i64..300);
        let max_len = range / 3 + 1;

        // A common history: both sides and both twins replay it, so all
        // four start structurally identical — but only `a` gets forked.
        let mut history = IntervalFlood::new(rng.next_u64(), range, max_len, 30, 0);
        let prefix = history.next_ops(rng.gen_range(150..500usize));
        let replay = || {
            let mut idx = S::open(geo, tuning);
            for op in &prefix {
                match *op {
                    FloodOp::Insert(iv) => idx.apply(&[IntervalOp::Insert(iv)], false),
                    FloodOp::Delete(iv) => idx.apply(&[IntervalOp::Delete(iv)], false),
                    FloodOp::Stab(_) => {}
                }
            }
            idx
        };
        let a_index = replay();
        if a_index.reorg_in_progress() {
            mid_job_forks += 1;
        }
        let b_index = a_index.fork();
        let next_id = prefix.len() as u64;
        let mut side = |name, index, del_pct| Side {
            name,
            index,
            twin: replay(),
            flood: IntervalFlood::new(rng.next_u64(), range, max_len, del_pct, 0)
                .resume_from(history.live.clone(), next_id),
        };
        // Different floods: `a` shrinks (delete-heavy, so shrink jobs keep
        // starting), `b` grows.
        let mut a = side("origin", a_index, 55);
        let mut b = side("fork", b_index, 25);

        for round in 0..ROUNDS {
            let frozen_a = Frozen::take(&a, rng, range);
            let frozen_b = Frozen::take(&b, rng, range);
            mid_job_forks +=
                usize::from(a.index.reorg_in_progress()) + usize::from(b.index.reorg_in_progress());
            a.step(rng.gen_range(1..10usize), rng.gen_bool(0.4));
            b.step(rng.gen_range(1..10usize), rng.gen_bool(0.4));
            frozen_a.check(&a.index, "frozen fork of the origin");
            frozen_b.check(&b.index, "frozen fork of the fork");
            a.check_probe(rng.gen_range(-1..range + 1));
            b.check_probe(rng.gen_range(-1..range + 1));
            // Some rounds carry on *from* the round's fork instead: bring
            // it up to date with the same chunk, then swap it in. The twin
            // is never forked, so the bills keep being compared against a
            // structure that has only ever been mutated in place.
            if rng.gen_bool(0.15) {
                for s in [&mut a, &mut b] {
                    let mut next = s.index.fork();
                    std::mem::swap(&mut s.index, &mut next);
                    // `next` (the old live index) stays alive for one more
                    // chunk, so the new one starts fully shared. Once it
                    // drops, the new one holds alone what it has not yet
                    // rewritten, PSTs built on the old one's counter too.
                    s.step(rng.gen_range(1..6usize), false);
                    drop(next);
                    s.step(rng.gen_range(1..6usize), false);
                    continued_from_fork += 1;
                }
            }
            if round % 25 == 24 {
                a.check_all(range);
                b.check_all(range);
            }
        }
        a.index.flush_reorgs();
        a.twin.flush_reorgs();
        b.index.flush_reorgs();
        b.twin.flush_reorgs();
        a.check_all(range);
        b.check_all(range);
    });
    assert!(
        mid_job_forks > 0,
        "no fork was taken while a shrink job was in flight"
    );
    assert!(continued_from_fork > 0);
}
