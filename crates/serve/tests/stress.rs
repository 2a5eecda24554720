//! Concurrency stress: reader threads race a writer flood, and every
//! snapshot must agree exactly with a sequential oracle replay.
//!
//! The key trick is that the engine applies submissions whole and in
//! order, so [`ccix_serve::Snapshot::ops_applied`] is always a multiple of
//! the (fixed) batch size: dividing identifies exactly which prefix of the
//! batch stream a snapshot contains, and the oracle state for that prefix
//! is precomputed before the engine starts. Any torn or stale read —
//! a page shared with the writer mid-update, a reorg delta missing from a
//! fork, a commit published before its flood finished — shows up as a
//! mismatch against the oracle.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

use ccix_extmem::{Geometry, IoCounter};
use ccix_interval::{IndexBuilder, Interval, IntervalOp};
use ccix_serve::{Engine, EngineConfig};
use ccix_testkit::check;
use ccix_testkit::rng::DetRng;
use ccix_testkit::workloads::{commit_plan, CommitPlan, CommitPlanSpec};

const BATCH_OPS: usize = 20;
const BATCHES: usize = 30;
const INITIAL: usize = 400;
const READERS: usize = 3;

const PLAN: CommitPlanSpec = CommitPlanSpec {
    initial: INITIAL,
    batches: BATCHES,
    batch_ops: BATCH_OPS,
    delete_prob: 0.35,
    lo_range: 2_000,
    max_len: 120,
};

fn rand_interval(rng: &mut DetRng, id: u64) -> Interval {
    let lo = rng.gen_range(0i64..2_000);
    Interval::new(lo, lo + rng.gen_range(0i64..120), id)
}

/// Ids of intervals in `state` containing `q`, sorted.
fn stab_oracle(state: &[Interval], q: i64) -> Vec<u64> {
    let mut ids: Vec<u64> = state
        .iter()
        .filter(|iv| iv.lo <= q && q <= iv.hi)
        .map(|iv| iv.id)
        .collect();
    ids.sort_unstable();
    ids
}

/// Intervals in `state` with left endpoint in `[x1, x2]`, in a canonical
/// order for comparison.
fn x_range_oracle(state: &[Interval], x1: i64, x2: i64) -> Vec<Interval> {
    let mut ivs: Vec<Interval> = state
        .iter()
        .filter(|iv| x1 <= iv.lo && iv.lo <= x2)
        .copied()
        .collect();
    ivs.sort_unstable_by_key(|iv| (iv.lo, iv.hi, iv.id));
    ivs
}

/// Random write-path tunings, always including incremental-reorg modes.
fn rand_tuning(rng: &mut DetRng, trial: usize) -> ccix_core::Tuning {
    // Force the interesting regimes deterministically across trials: no
    // deferred debt, trickle, and coarse slices.
    ccix_core::Tuning {
        reorg_pages_per_op: [0, 1, 4][trial % 3],
        update_batch_pages: [1, 2, 4][rng.gen_range(0usize..3)],
        shrink_deletes_pct: [10, 35][rng.gen_range(0usize..2)],
        ..ccix_core::Tuning::default()
    }
}

#[test]
fn snapshots_agree_with_oracle_under_flood() {
    let trial = AtomicU64::new(0);
    check::trials("serve_stress", 4, 0x5eed_c0de, |rng| {
        let trial = trial.fetch_add(1, Relaxed) as usize;
        let builder = IndexBuilder::new(Geometry::new(8));
        // The last trial serves the paper's buffer constants under the
        // concurrent readers.
        let builder = if trial == 3 {
            builder.tuning(ccix_core::Tuning::paper())
        } else {
            builder.tuning(rand_tuning(rng, trial))
        };
        let plan: CommitPlan = commit_plan(rng, PLAN);
        let idx = builder.bulk(IoCounter::new(), &plan.initial);
        let engine = Engine::start(
            idx,
            EngineConfig {
                queue_depth: 4,
                group_max_ops: 3 * BATCH_OPS, // exercise real grouping
                reorg_pump_slices: 8,
                ..EngineConfig::default()
            },
        );

        // Per-reader probe scripts, drawn before the threads start so the
        // whole trial stays deterministic.
        let probes: Vec<Vec<(i64, i64)>> = (0..READERS)
            .map(|_| {
                (0..64)
                    .map(|_| {
                        let q = rng.gen_range(-10i64..2_200);
                        (q, q + rng.gen_range(0i64..200))
                    })
                    .collect()
            })
            .collect();

        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for script in &probes {
                let engine = &engine;
                let done = &done;
                let states = &plan.states;
                scope.spawn(move || {
                    let mut i = 0usize;
                    let mut checks = 0u32;
                    loop {
                        let finished = done.load(Relaxed);
                        let snap = engine.snapshot();
                        let ops = snap.ops_applied();
                        assert_eq!(
                            ops % BATCH_OPS as u64,
                            0,
                            "submissions must be visible whole"
                        );
                        let state = &states[(ops / BATCH_OPS as u64) as usize];
                        let (q, hi) = script[i % script.len()];
                        i += 1;
                        let mut got = snap.query(q);
                        got.sort_unstable();
                        assert_eq!(got, stab_oracle(state, q), "stab at {q}, epoch {ops}");
                        let mut got = snap.x_range(q, hi);
                        got.sort_unstable_by_key(|iv| (iv.lo, iv.hi, iv.id));
                        assert_eq!(
                            got,
                            x_range_oracle(state, q, hi),
                            "x_range [{q},{hi}], epoch {ops}"
                        );
                        checks += 1;
                        // One full pass after the writer finishes, so the
                        // final state is always exercised too.
                        if finished && checks >= script.len() as u32 {
                            break;
                        }
                    }
                });
            }

            // Writer: flood the batches through the bounded queue; hold
            // the last ticket to observe visibility ordering.
            let mut last = None;
            for batch in &plan.batches {
                last = Some(engine.submit(batch.clone()));
            }
            let info = last.expect("batches nonempty").wait();
            assert_eq!(info.ops_applied, (BATCHES * BATCH_OPS) as u64);
            let snap = engine.snapshot();
            assert!(
                snap.ops_applied() >= info.ops_applied,
                "commit visible before ticket resolves"
            );
            done.store(true, Relaxed);
        });

        let final_index = engine.shutdown();
        let last_state = plan.states.last().expect("states nonempty");
        assert_eq!(final_index.len(), last_state.len());
    });
}

/// The sharded engine under the same oracle discipline: snapshot readers
/// race shard-parallel group commits, and every published epoch must be a
/// consistent all-shards cut at a whole-submission boundary. Afterwards
/// the writer's idle pump must bleed the remaining reorganisation debt to
/// zero while the queue stays empty (observable via
/// [`Engine::reorg_debt`]).
#[test]
fn sharded_snapshots_agree_with_oracle_under_flood() {
    let trial = AtomicU64::new(0);
    check::trials("serve_stress_sharded", 3, 0x5aa2_d0de, |rng| {
        let trial = trial.fetch_add(1, Relaxed) as usize;
        let tuning = rand_tuning(rng, trial);
        let plan: CommitPlan = commit_plan(rng, PLAN);
        let shards = rng.gen_range(2usize..5);
        let sample: Vec<i64> = plan.initial.iter().map(|iv| iv.lo).collect();
        let idx = IndexBuilder::new(Geometry::new(8))
            .tuning(tuning)
            .sharded()
            .splits_from_sample(&sample, shards)
            .bulk(&plan.initial);
        let engine = Engine::start_sharded(
            idx,
            EngineConfig {
                queue_depth: 4,
                group_max_ops: 3 * BATCH_OPS,
                reorg_pump_slices: 8,
                ..EngineConfig::default()
            },
        );
        assert_eq!(engine.snapshot().num_shards(), shards);

        let probes: Vec<Vec<(i64, i64)>> = (0..READERS)
            .map(|_| {
                (0..64)
                    .map(|_| {
                        let q = rng.gen_range(-10i64..2_200);
                        (q, q + rng.gen_range(0i64..200))
                    })
                    .collect()
            })
            .collect();

        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for script in &probes {
                let engine = &engine;
                let done = &done;
                let states = &plan.states;
                scope.spawn(move || {
                    let mut i = 0usize;
                    let mut checks = 0u32;
                    loop {
                        let finished = done.load(Relaxed);
                        let snap = engine.snapshot();
                        let ops = snap.ops_applied();
                        assert_eq!(
                            ops % BATCH_OPS as u64,
                            0,
                            "submissions must be visible whole across shards"
                        );
                        let state = &states[(ops / BATCH_OPS as u64) as usize];
                        let (q, hi) = script[i % script.len()];
                        i += 1;
                        let mut got = snap.query(q);
                        got.sort_unstable();
                        assert_eq!(got, stab_oracle(state, q), "stab at {q}, epoch {ops}");
                        let mut got = snap.x_range(q, hi);
                        got.sort_unstable_by_key(|iv| (iv.lo, iv.hi, iv.id));
                        assert_eq!(
                            got,
                            x_range_oracle(state, q, hi),
                            "x_range [{q},{hi}], epoch {ops}"
                        );
                        checks += 1;
                        if finished && checks >= script.len() as u32 {
                            break;
                        }
                    }
                });
            }

            let mut last = None;
            for batch in &plan.batches {
                last = Some(engine.submit(batch.clone()));
            }
            let info = last.expect("batches nonempty").wait();
            assert_eq!(info.ops_applied, (BATCHES * BATCH_OPS) as u64);
            done.store(true, Relaxed);
        });

        // Idle pump: with the queue empty the writer keeps bleeding debt
        // in bounded rounds, so the mirror must reach zero on its own.
        let mut waited = 0u32;
        while engine.reorg_debt() > 0 {
            std::thread::sleep(std::time::Duration::from_millis(10));
            waited += 1;
            assert!(waited < 500, "idle pump failed to drain reorg debt");
        }

        let final_index = engine.shutdown_sharded();
        assert_eq!(final_index.num_shards(), shards);
        let last_state = plan.states.last().expect("states nonempty");
        assert_eq!(final_index.len(), last_state.len());
        assert_eq!(final_index.reorg_debt(), 0, "debt drained at shutdown");
    });
}

#[test]
fn every_ticket_resolves_at_a_visible_epoch() {
    check::trials("serve_visibility", 3, 0xcafe_f00d, |rng| {
        let idx = IndexBuilder::new(Geometry::new(8)).open(IoCounter::new());
        let engine = Engine::start(
            idx,
            EngineConfig {
                queue_depth: 2,
                group_max_ops: 8,
                reorg_pump_slices: 4,
                ..EngineConfig::default()
            },
        );
        let mut live: Vec<Interval> = Vec::new();
        for id in 0..50u64 {
            let iv = rand_interval(rng, id);
            let info = engine.submit(vec![IntervalOp::Insert(iv)]).wait();
            live.push(iv);
            assert_eq!(info.ops_applied, id + 1);
            // The visibility rule: once the ticket resolves, every new
            // snapshot contains the write.
            let snap = engine.snapshot();
            assert!(snap.ops_applied() >= info.ops_applied);
            let mut got = snap.query(iv.lo);
            got.sort_unstable();
            assert_eq!(got, stab_oracle(&live, iv.lo), "insert {id} visible");
        }
        engine.shutdown();
    });
}
