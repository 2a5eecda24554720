//! Differential suite for **mutable forks**: structurally shared state must
//! never leak a write from one side of a fork to the other.
//!
//! `fork_snapshot` shares the page table's chunks, the pages and every
//! control block with the index it was taken from; whichever side mutates
//! first copies what it touches. The serving layer only ever *reads* its
//! forks, but a fork is a full index (the benchmark's write ladder starts
//! engines on forks), so both sides may keep writing. Each trial forks an
//! [`IntervalIndex`] and drives the two sides with **different** mixed
//! floods, re-forking every round:
//!
//! * each side agrees with its own linear-scan oracle and passes the
//!   structural validators — with the incremental-reorganisation budget
//!   finite and the shrink trigger low, so forks are regularly taken (and
//!   continued from) while a background shrink job is mid-flight;
//! * each round's frozen fork still answers for the moment it was taken
//!   after its origin moved on, and some rounds continue *from* the fork
//!   (forks of forks of mutated stores);
//! * each side bills exactly what an **unforked twin** fed the same
//!   operations bills — sharing is invisible to the cost model.

use ccix_core::Tuning;
use ccix_extmem::{Geometry, IoCounter};
use ccix_interval::{
    EndpointMode, IndexBuilder, Interval, IntervalIndex, IntervalOp, IntervalOptions,
};
use ccix_testkit::iocheck::IoProbe;
use ccix_testkit::workloads::{IntervalFlood, IntervalOp as FloodOp};
use ccix_testkit::{check, oracle, DetRng};

const ROUNDS: usize = 200;

/// One side of the fork: the index under test, its unforked twin, the
/// flood that drives both and (inside the flood) the oracle's live set.
struct Side {
    name: &'static str,
    index: IntervalIndex,
    twin: IntervalIndex,
    flood: IntervalFlood,
}

impl Side {
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
        let run = |idx: &mut IntervalIndex| {
            let counter = idx.counter().clone();
            let probe = IoProbe::start(&counter, name);
            if batched && independent {
                idx.apply_batch(&ops);
            } else {
                for op in &ops {
                    match *op {
                        IntervalOp::Insert(iv) => idx.insert(iv.lo, iv.hi, iv.id),
                        IntervalOp::Delete(iv) => idx.delete(iv.lo, iv.hi, iv.id),
                    }
                }
            }
            probe.finish()
        };
        assert_eq!(
            run(&mut self.index),
            run(&mut self.twin),
            "{name}: a forked index bills what its unforked twin bills"
        );
        assert_eq!(self.index.len(), self.flood.live.len(), "{name}: len");
    }

    /// One stab on the index and on its twin: same answer as the oracle,
    /// same bill.
    fn check_stab(&self, q: i64) {
        let want = oracle::stabbing_ids(&self.flood.live, q);
        let probe = IoProbe::start(self.index.counter(), self.name);
        oracle::assert_same_ids(self.index.stabbing(q), want.clone(), self.name);
        let billed = probe.finish();
        let probe = IoProbe::start(self.twin.counter(), "twin");
        oracle::assert_same_ids(self.twin.stabbing(q), want, "twin");
        assert_eq!(billed, probe.finish(), "{}: stab({q}) I/O", self.name);
    }

    /// Full agreement: validators, a sweep of stabs and an intersection.
    fn check_all(&self, range: i64) {
        self.index.validate_unbilled();
        self.twin.validate_unbilled();
        assert_eq!(
            self.index.space_pages(),
            self.twin.space_pages(),
            "{}: space",
            self.name
        );
        for q in (-1..range + 2).step_by((range as usize / 12).max(1)) {
            self.check_stab(q);
        }
        oracle::assert_same_ids(
            self.index.intersecting(range / 3, range / 2),
            oracle::intersecting_ids(&self.flood.live, range / 3, range / 2),
            self.name,
        );
    }
}

/// A frozen fork with what it must keep answering.
struct Frozen {
    fork: IntervalIndex,
    live: Vec<Interval>,
    probes: Vec<i64>,
}

impl Frozen {
    fn take(side: &Side, rng: &mut DetRng, range: i64) -> Self {
        Self {
            fork: side.index.fork_snapshot(IoCounter::new()),
            live: side.flood.live.clone(),
            probes: (0..3).map(|_| rng.gen_range(-1..range + 1)).collect(),
        }
    }

    fn check(&self, context: &str) {
        assert_eq!(self.fork.len(), self.live.len(), "{context}: frozen len");
        for &q in &self.probes {
            oracle::assert_same_ids(
                self.fork.stabbing(q),
                oracle::stabbing_ids(&self.live, q),
                context,
            );
        }
    }
}

#[test]
fn both_sides_of_a_fork_keep_their_own_contents_and_bills() {
    fork_trials("fork_divergence::both_sides", 6, 0xF02C, |rng| Tuning {
        update_batch_pages: rng.gen_range(1..5usize),
        td_batch_pages: rng.gen_range(1..4usize),
        tomb_batch_pages: rng.gen_range(1..4usize),
        shrink_deletes_pct: rng.gen_range(5..30usize),
        pack_h_pages: rng.gen_range(0..4usize),
        resident_root: rng.gen_bool(0.5),
        reorg_pages_per_op: *rng.choose(&[1usize, 2, 4]).expect("nonempty"),
        ..Tuning::default()
    });
}

/// The paper's layout: no packed mirrors in the child entries
/// (`pack_h_pages = 0`, so every examined child's own control block is
/// read and copied) and full `B²` TS snapshots (`ts_snapshot_pages:
/// None`, the long snapshot runs).
#[test]
fn forks_of_the_mirror_off_layout_with_full_snapshots_diverge_cleanly() {
    fork_trials("fork_divergence::paper", 3, 0xF02D, |rng| Tuning {
        shrink_deletes_pct: rng.gen_range(5..30usize),
        ts_snapshot_pages: None,
        reorg_pages_per_op: *rng.choose(&[1usize, 2, 4]).expect("nonempty"),
        ..Tuning::paper()
    });
}

/// Fork an index built with `tuning(rng)` — its shrink trigger low and its
/// reorganisation budget finite, so forks land mid-job — and drive both
/// sides apart for [`ROUNDS`] rounds, `trials` times.
fn fork_trials(
    label: &'static str,
    trials: usize,
    seed: u64,
    tuning: impl Fn(&mut DetRng) -> Tuning,
) {
    let mut mid_job_forks = 0usize;
    let mut continued_from_fork = 0usize;
    let mut modes = [EndpointMode::Slab, EndpointMode::BTree]
        .into_iter()
        .cycle();
    check::trials(label, trials, seed, |rng| {
        let b = rng.gen_range(2usize..7);
        let geo = Geometry::new(b);
        let options = IntervalOptions {
            endpoints: modes.next().expect("cycle never ends"),
            tuning: Tuning {
                build_threads: 1,
                shard_threads: 1,
                ..tuning(rng)
            },
            btree_leaf_fill: None,
        };
        let builder = IndexBuilder::new(geo).options(options);
        let range = rng.gen_range(60i64..300);
        let max_len = range / 3 + 1;

        // A common history: both sides and both twins replay it, so all
        // four start structurally identical — but only `a` gets forked.
        let mut history = IntervalFlood::new(rng.next_u64(), range, max_len, 30, 0);
        let prefix = history.next_ops(rng.gen_range(150..500usize));
        let replay = || {
            let mut idx = builder.open(IoCounter::new());
            for op in &prefix {
                match *op {
                    FloodOp::Insert(iv) => idx.insert(iv.lo, iv.hi, iv.id),
                    FloodOp::Delete(iv) => idx.delete(iv.lo, iv.hi, iv.id),
                    FloodOp::Stab(_) => {}
                }
            }
            idx
        };
        let a_index = replay();
        if a_index.reorg_in_progress() {
            mid_job_forks += 1;
        }
        let b_index = a_index.fork_snapshot(IoCounter::new());
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
            frozen_a.check("frozen fork of the origin");
            frozen_b.check("frozen fork of the fork");
            a.check_stab(rng.gen_range(-1..range + 1));
            b.check_stab(rng.gen_range(-1..range + 1));
            // Some rounds carry on *from* the round's fork instead: bring
            // it up to date with the same chunk, then swap it in. The twin
            // is never forked, so the bills keep being compared against a
            // structure that has only ever been mutated in place.
            if rng.gen_bool(0.15) {
                for s in [&mut a, &mut b] {
                    let mut next = s.index.fork_snapshot(IoCounter::new());
                    std::mem::swap(&mut s.index, &mut next);
                    // `next` (the old live index) stays alive for one more
                    // chunk, so the new one starts fully shared.
                    s.step(rng.gen_range(1..6usize), false);
                    drop(next);
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
