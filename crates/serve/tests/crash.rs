//! The kill-point differential suite: crash the durable engine at hundreds
//! of deterministic points mid-flood, recover, and demand exact agreement
//! with an oracle replay of the acknowledged prefix.
//!
//! Each trial floods a [`commit_plan`] through an engine whose durable
//! directory sits behind a [`FailFs`] with a `crash_after_ops` budget: when
//! the budget runs out, the filesystem performs its lossy power-loss flush
//! (an arbitrary suffix of unsynced writes lost, the newest survivor
//! possibly torn) and then fails everything forever. The engine's writer
//! dies without acknowledging anything it could not make durable. Recovery
//! then reopens the directory on the *real* filesystem and must find:
//!
//! * a whole-batch prefix of the submission stream (`ops_applied` a
//!   multiple of the batch size — submissions are logged atomically),
//! * at least every acknowledged commit (acknowledged ⇒ replayed), and
//! * content exactly equal to the oracle state for that prefix.
//!
//! Crash points are spread across the whole run — directory creation, the
//! flood, checkpoints, shutdown — by first probing an uncrashed run for
//! its total mutating-op count. Fsync policies and checkpoint cadences
//! rotate per point so group commit, per-commit sync, and
//! checkpoint-truncation windows all get hit.
//!
//! The group's fsync runs on the engine's log thread, concurrently with the
//! writer's apply → fork → publish. Two further tests pin that down on a
//! *lockstep* schedule (group boundaries forced by a [`GateFs`], not left
//! to thread timing): the filesystem-operation trace and the (kill point →
//! recovered prefix) map repeat exactly per seed, and a power cut landing
//! between "fsync started" and "fsync returned" — the epoch may already be
//! published — recovers to the acknowledged prefix like any other.

use std::sync::Arc;

use ccix_core::Tuning;
use ccix_durable::{DurabilityConfig, FailFs, FaultPlan, FsOp, FsOpKind, GateFs, RealFs, TempDir};
use ccix_extmem::{BackendSpec, Geometry, IoCounter};
use ccix_interval::{IndexBuilder, Interval, IntervalOp, IntervalOptions};
use ccix_serve::{Engine, EngineConfig, FsyncPolicy, Meta};
use ccix_testkit::rng::DetRng;
use ccix_testkit::workloads::{commit_plan, CommitPlan, CommitPlanSpec};

const BATCH_OPS: usize = 16;
const BATCHES: usize = 24;

const PLAN: CommitPlanSpec = CommitPlanSpec {
    initial: 120,
    batches: BATCHES,
    batch_ops: BATCH_OPS,
    delete_prob: 0.35,
    lo_range: 1_500,
    max_len: 90,
};

/// One trial per incremental-reorg regime; the release-mode point count is
/// what the CI crash-recovery leg runs (3 × 80 = 240 kill points). Debug
/// builds keep the same coverage shape at tier-1-friendly cost.
const TRIALS: usize = 3;
#[cfg(debug_assertions)]
const POINTS_PER_TRIAL: usize = 10;
#[cfg(not(debug_assertions))]
const POINTS_PER_TRIAL: usize = 80;

/// Fsync policies rotated across kill points.
const POLICIES: [FsyncPolicy; 4] = [
    FsyncPolicy::EveryCommits(1),
    FsyncPolicy::EveryCommits(4),
    FsyncPolicy::Group { max_delay_ms: 0 },
    FsyncPolicy::Group { max_delay_ms: 5 },
];

/// Checkpoint cadences rotated across kill points (0 = only at barriers),
/// small enough that mid-flood checkpoints — and crashes inside them —
/// actually happen.
const CKPT_EVERY: [u64; 3] = [0, 96, 256];

fn geometry() -> Geometry {
    Geometry::new(8)
}

fn options(trial: usize, rng: &mut DetRng) -> IntervalOptions {
    IntervalOptions {
        tuning: Tuning {
            reorg_pages_per_op: [0, 1, 4][trial % 3],
            update_batch_pages: [1, 2, 4][rng.gen_range(0usize..3)],
            shrink_deletes_pct: [10, 35][rng.gen_range(0usize..2)],
            ..Tuning::default()
        },
    }
}

fn engine_config(durability: Option<DurabilityConfig>) -> EngineConfig {
    EngineConfig {
        queue_depth: 4,
        group_max_ops: 3 * BATCH_OPS,
        reorg_pump_slices: 8,
        durability,
        ..EngineConfig::default()
    }
}

fn sorted(mut ivs: Vec<Interval>) -> Vec<Interval> {
    ivs.sort_unstable_by_key(|iv| (iv.lo, iv.hi, iv.id));
    ivs
}

/// Resolve `tickets` in order into `max_acked`, the highest acknowledged
/// `ops_applied`. Acks must form a prefix: once one ticket comes back dead,
/// no later one may resolve. Returns whether the writer is still acking.
fn resolve(tickets: Vec<ccix_serve::CommitTicket>, max_acked: &mut u64) -> bool {
    let mut dead = false;
    for ticket in tickets {
        match ticket.wait_result() {
            Some(info) => {
                assert!(!dead, "acknowledgement after a dropped commit");
                assert!(info.ops_applied > *max_acked, "acks must be in order");
                *max_acked = info.ops_applied;
            }
            None => dead = true,
        }
    }
    !dead
}

/// Flood the plan through `engine` without waiting per batch (so real
/// group commits form), then resolve every ticket in order. Returns the
/// highest acknowledged `ops_applied`.
fn flood(engine: &Engine, plan: &CommitPlan) -> u64 {
    let mut tickets = Vec::with_capacity(plan.batches.len());
    for batch in &plan.batches {
        match engine.submit_checked(batch.clone()) {
            Ok(t) => tickets.push(t),
            Err(_) => break, // writer already dead: nothing further acks
        }
    }
    let mut max_acked = 0;
    resolve(tickets, &mut max_acked);
    max_acked
}

/// Run the whole plan against a durable directory on `fs`. Returns the
/// highest acknowledged op watermark and whether the engine even started
/// (a crash inside directory creation means nothing — not even the
/// initial content — was promised to anyone).
fn run_flood(
    plan: &CommitPlan,
    opts: IntervalOptions,
    dir: &std::path::Path,
    fs: Arc<dyn ccix_durable::Fs>,
    fsync: FsyncPolicy,
    checkpoint_every_ops: u64,
) -> (u64, bool) {
    let dcfg = DurabilityConfig {
        dir: dir.to_path_buf(),
        fsync,
        checkpoint_every_ops,
        fs,
    };
    let index = IndexBuilder::new(geometry())
        .options(opts)
        .bulk(IoCounter::new(), &plan.initial);
    match Engine::try_start(index, engine_config(Some(dcfg))) {
        Ok(engine) => {
            let max_acked = flood(&engine, plan);
            let _ = engine.flush_checked(); // barrier (no-op on a dead writer)
            engine.shutdown();
            (max_acked, true)
        }
        Err(_) => (0, false),
    }
}

/// Recover the directory on the real filesystem and check the invariant.
/// With `file_backed`, the rebuild runs on the file backend (pages written
/// under a fresh tempdir) — recovery is logical, so both backends must
/// reach the identical state; this is the file-backed leg of the suite.
fn check_recovery(
    plan: &CommitPlan,
    opts: IntervalOptions,
    dir: &std::path::Path,
    max_acked: u64,
    created: bool,
    file_backed: bool,
    context: &str,
) -> u64 {
    let dcfg = DurabilityConfig {
        fsync: FsyncPolicy::EveryCommits(1),
        checkpoint_every_ops: 0,
        ..DurabilityConfig::new(dir)
    };
    let fallback = Meta::new(geometry(), opts);
    let pages_dir = file_backed.then(|| TempDir::new("crash-pages"));
    let mut config = engine_config(Some(dcfg));
    if let Some(pages) = &pages_dir {
        config.backend = BackendSpec::file(pages.path());
    }
    let (engine, report) = Engine::recover(fallback, config)
        .unwrap_or_else(|e| panic!("recovery must never fail ({context}): {e}"));
    if let Some(pages) = &pages_dir {
        let n_files = std::fs::read_dir(pages.path())
            .map(|d| {
                d.filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().is_some_and(|x| x == "pages"))
                    .count()
            })
            .unwrap_or(0);
        assert!(
            n_files > 0,
            "file-backed recovery wrote no page files ({context})"
        );
    }
    let snap = engine.snapshot();
    let ops = snap.ops_applied();
    assert_eq!(
        ops % BATCH_OPS as u64,
        0,
        "recovered state must be a whole-batch prefix ({context}, {report:?})"
    );
    let k = (ops / BATCH_OPS as u64) as usize;
    assert!(
        k <= BATCHES,
        "recovered beyond the submitted stream ({context})"
    );
    assert!(
        ops >= max_acked,
        "acknowledged commit lost: recovered {ops} < acked {max_acked} ({context}, {report:?})"
    );
    let got = sorted(snap.x_range(i64::MIN, i64::MAX));
    let want = sorted(plan.states[k].clone());
    if !created && ops == 0 && got.is_empty() {
        // The crash hit inside directory creation, before the genesis
        // checkpoint published: the directory never promised anything, so
        // empty-at-fallback is the one other legal answer.
    } else {
        assert_eq!(
            got, want,
            "recovered content diverges from oracle prefix {k} ({context})"
        );
    }
    // The recovered engine must serve writes durably again.
    let probe = Interval::new(9_999, 10_000, u64::MAX);
    let info = engine
        .submit_checked(vec![IntervalOp::Insert(probe)])
        .ok()
        .and_then(|t| t.wait_result())
        .unwrap_or_else(|| panic!("recovered engine cannot commit ({context})"));
    assert_eq!(info.ops_applied, ops + 1);
    assert!(engine.snapshot().query(9_999).contains(&u64::MAX));
    engine.shutdown();
    ops
}

#[test]
fn recovery_agrees_with_oracle_at_every_kill_point() {
    for trial in 0..TRIALS {
        let mut rng = DetRng::new(trial_seed(trial));
        let opts = options(trial, &mut rng);
        let plan = commit_plan(&mut rng, PLAN);

        // Probe: one uncrashed run through FailFs (same noise, no budget)
        // sizes the op space the kill points are spread over, and checks
        // the noisy-but-crashless path end to end.
        let probe_dir = TempDir::new("crash-probe");
        let probe_fs = FailFs::new(
            RealFs::shared(),
            rng.next_u64(),
            FaultPlan {
                crash_after_ops: None,
                short_write: 0.05,
                eintr: 0.02,
            },
        );
        let (acked, created) = run_flood(
            &plan,
            opts,
            probe_dir.path(),
            Arc::new(probe_fs.clone()),
            POLICIES[trial % POLICIES.len()],
            CKPT_EVERY[trial % CKPT_EVERY.len()],
        );
        assert!(created, "probe run must initialise");
        assert_eq!(
            acked,
            (BATCHES * BATCH_OPS) as u64,
            "probe run must ack everything"
        );
        // The probe recovers file-backed: every trial exercises the
        // file-backend rebuild on the fully acknowledged state.
        check_recovery(&plan, opts, probe_dir.path(), acked, created, true, "probe");
        let total_ops = probe_fs.ops().max(POINTS_PER_TRIAL as u64);

        // Kill points: evenly strided across the probe's op count, with
        // per-point jitter so reruns of the suite don't always land on
        // stride boundaries. Scheduling may shift where a given budget
        // falls in the logical stream — every landing spot is a valid
        // crash to survive.
        for point in 0..POINTS_PER_TRIAL {
            let stride = total_ops / POINTS_PER_TRIAL as u64;
            let crash_at = 1 + point as u64 * stride + rng.gen_range(0..stride.max(1));
            let fsync = POLICIES[point % POLICIES.len()];
            let ckpt = CKPT_EVERY[point % CKPT_EVERY.len()];
            let dir = TempDir::new("crash-point");
            let fail_fs = FailFs::new(
                RealFs::shared(),
                rng.next_u64(),
                FaultPlan {
                    crash_after_ops: Some(crash_at),
                    short_write: 0.05,
                    eintr: 0.02,
                },
            );
            let (max_acked, created) = run_flood(
                &plan,
                opts,
                dir.path(),
                Arc::new(fail_fs.clone()),
                fsync,
                ckpt,
            );
            // Every third point recovers onto the file backend; the rest
            // stay on the model, so both rebuild paths see crashes of
            // every flavour.
            let file_backed = point % 3 == 2;
            let context = format!(
                "trial {trial}, point {point}, crash_at {crash_at}, \
                 fsync {fsync:?}, ckpt {ckpt}, file_backed {file_backed}, crashed {}",
                fail_fs.crashed()
            );
            check_recovery(
                &plan,
                opts,
                dir.path(),
                max_acked,
                created,
                file_backed,
                &context,
            );
        }
    }
}

/// Per-trial base seeds (distinct from the stress suite's).
fn trial_seed(trial: usize) -> u64 {
    0xdead_0001_u64.wrapping_mul(trial as u64 + 1) ^ 0x5afe_c0de
}

// ---- the lockstep schedule: group boundaries that do not depend on timing ----

/// Batches per wave: a primer whose fsync is held at the gate, and the rest
/// queued behind it while it is.
const WAVE: usize = 8;

/// Fsync policies whose sync points depend on group boundaries only, never
/// on a clock: a delay bound of 0 is always due, one of a minute never is.
const LOCKSTEP_POLICIES: [FsyncPolicy; 4] = [
    FsyncPolicy::EveryCommits(1),
    FsyncPolicy::EveryCommits(4),
    FsyncPolicy::Group { max_delay_ms: 0 },
    FsyncPolicy::Group {
        max_delay_ms: 60_000,
    },
];

/// What one lockstep run did to the filesystem and promised to its client.
struct Lockstep {
    max_acked: u64,
    created: bool,
    trace: Vec<FsOp>,
    /// `FailFs::ops()` once the engine was up: later operations are the
    /// flood's.
    started_at: u64,
}

/// Run the plan in waves of [`WAVE`]: hold the gate, submit the primer,
/// wait until its fsync is parked (the writer meanwhile applies, publishes
/// and joins), queue the rest of the wave behind it, open the gate. Every
/// group the writer forms is then fixed by the group budget alone, so the
/// filesystem sees the same operations in the same order on every run.
fn run_lockstep(
    plan: &CommitPlan,
    opts: IntervalOptions,
    dir: &std::path::Path,
    fs_seed: u64,
    crash_after_ops: Option<u64>,
    fsync: FsyncPolicy,
    checkpoint_every_ops: u64,
) -> Lockstep {
    let fs = FailFs::new(
        RealFs::shared(),
        fs_seed,
        FaultPlan {
            crash_after_ops,
            short_write: 0.05,
            eintr: 0.02,
        },
    );
    let gate = GateFs::new(Arc::new(fs.clone()), "wal");
    let config = EngineConfig {
        queue_depth: WAVE,
        ..engine_config(Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            fsync,
            checkpoint_every_ops,
            fs: Arc::new(gate.clone()),
        }))
    };
    let index = IndexBuilder::new(geometry())
        .options(opts)
        .bulk(IoCounter::new(), &plan.initial);
    let mut run = Lockstep {
        max_acked: 0,
        created: false,
        trace: Vec::new(),
        started_at: 0,
    };
    if let Ok(engine) = Engine::try_start(index, config) {
        run.created = true;
        run.started_at = fs.ops();
        for wave in plan.batches.chunks(WAVE) {
            gate.hold();
            let mut tickets = Vec::with_capacity(wave.len());
            for (i, batch) in wave.iter().enumerate() {
                match engine.submit_checked(batch.clone()) {
                    Ok(t) => tickets.push(t),
                    Err(_) => break,
                }
                // The primer is in; the rest follow once its fsync is parked
                // at the gate (or the writer has died before reaching it).
                while i == 0 && !gate.is_parked() && engine.is_alive() {
                    std::thread::yield_now();
                }
            }
            gate.open();
            if !resolve(tickets, &mut run.max_acked) {
                break;
            }
        }
        let _ = engine.flush_checked();
        engine.shutdown();
    }
    assert_eq!(
        fs.overlapped_syncs(),
        0,
        "a filesystem operation began while an fsync was in flight"
    );
    run.trace = fs.trace();
    run
}

/// Ordinals of the flood's commit fsyncs: syncs of the WAL that cover an
/// append — the ones that run on the log thread beside apply → publish.
fn commit_syncs(run: &Lockstep) -> Vec<u64> {
    let counted: Vec<&FsOp> = run.trace.iter().filter(|op| op.ordinal.is_some()).collect();
    let wal = |op: &FsOp, kind| op.kind == kind && op.file == "wal";
    counted
        .windows(2)
        .filter(|w| wal(w[0], FsOpKind::Write) && wal(w[1], FsOpKind::Sync))
        .filter_map(|w| w[1].ordinal)
        .filter(|&ordinal| ordinal > run.started_at)
        .collect()
}

/// The configurations both lockstep tests sweep: every reorganisation
/// regime under every clock-free fsync policy.
fn lockstep_configs() -> impl Iterator<Item = (usize, FsyncPolicy, u64)> {
    (0..TRIALS * LOCKSTEP_POLICIES.len()).map(|i| {
        (
            i % TRIALS,
            LOCKSTEP_POLICIES[i % LOCKSTEP_POLICIES.len()],
            CKPT_EVERY[i % CKPT_EVERY.len()],
        )
    })
}

#[test]
fn fs_operation_order_and_recovered_prefixes_repeat_per_seed() {
    // Kill points per configuration, strided over the whole run.
    let points = if cfg!(debug_assertions) { 3 } else { 8 };
    for (trial, fsync, ckpt) in lockstep_configs() {
        let mut rng = DetRng::new(trial_seed(trial));
        let opts = options(trial, &mut rng);
        let plan = commit_plan(&mut rng, PLAN);
        let fs_seed = rng.next_u64();
        let pass = |crash_after_ops| {
            let dir = TempDir::new("crash-lockstep");
            let run = run_lockstep(
                &plan,
                opts,
                dir.path(),
                fs_seed,
                crash_after_ops,
                fsync,
                ckpt,
            );
            let context = format!(
                "trial {trial}, crash_at {crash_after_ops:?}, fsync {fsync:?}, ckpt {ckpt}"
            );
            let recovered = check_recovery(
                &plan,
                opts,
                dir.path(),
                run.max_acked,
                run.created,
                false,
                &context,
            );
            (run, recovered)
        };
        let (probe, recovered) = pass(None);
        let (again, recovered_again) = pass(None);
        assert_eq!(probe.max_acked, (BATCHES * BATCH_OPS) as u64);
        let diverge = probe
            .trace
            .iter()
            .zip(&again.trace)
            .position(|(a, b)| a != b);
        assert!(
            diverge.is_none() && probe.trace.len() == again.trace.len(),
            "fs-op traces of two runs diverge at operation {diverge:?} of {} / {} \
             (trial {trial}, {fsync:?}, ckpt {ckpt}): {:?} vs {:?}",
            probe.trace.len(),
            again.trace.len(),
            diverge.map(|i| &probe.trace[i]),
            diverge.map(|i| &again.trace[i]),
        );
        assert_eq!(recovered, recovered_again);
        let total = probe.trace.iter().filter_map(|op| op.ordinal).max();
        let total = total.expect("the probe touched the filesystem");
        let digest = || -> Vec<(u64, u64, u64, usize)> {
            (0..points)
                .map(|p| {
                    let crash_at = 1 + p * total / points;
                    let (run, recovered) = pass(Some(crash_at));
                    (crash_at, run.max_acked, recovered, run.trace.len())
                })
                .collect()
        };
        assert_eq!(
            digest(),
            digest(),
            "kill point → (acked, recovered prefix, trace length) differs between two runs \
             (trial {trial}, {fsync:?}, ckpt {ckpt})"
        );
    }
}

#[test]
fn power_cuts_during_an_in_flight_fsync_recover_the_acked_prefix() {
    let mut cuts = 0;
    for (trial, fsync, ckpt) in lockstep_configs() {
        let mut rng = DetRng::new(trial_seed(trial));
        let opts = options(trial, &mut rng);
        let plan = commit_plan(&mut rng, PLAN);
        let fs_seed = rng.next_u64();
        let probe_dir = TempDir::new("crash-inflight-probe");
        let probe = run_lockstep(&plan, opts, probe_dir.path(), fs_seed, None, fsync, ckpt);
        let syncs = commit_syncs(&probe);
        assert!(
            syncs.len() >= BATCHES / WAVE,
            "every wave's primer syncs on its own ({fsync:?}: {syncs:?})"
        );
        // Debug builds keep the first, the last and one in between.
        let step = if cfg!(debug_assertions) {
            (syncs.len() - 1) / 2
        } else {
            1
        };
        for &crash_at in syncs.iter().step_by(step.max(1)) {
            let dir = TempDir::new("crash-inflight");
            let run = run_lockstep(
                &plan,
                opts,
                dir.path(),
                fs_seed,
                Some(crash_at),
                fsync,
                ckpt,
            );
            // The schedule is deterministic, so the budget ran out exactly
            // on that fsync: started, never returned.
            let last = run.trace.last().expect("a crashed run has a trace");
            assert_eq!(
                (last.kind, last.file.as_str(), last.ordinal),
                (FsOpKind::Sync, "wal", Some(crash_at)),
                "the kill point moved (trial {trial}, {fsync:?}, ckpt {ckpt})"
            );
            let context = format!(
                "in-flight fsync, trial {trial}, crash_at {crash_at}, fsync {fsync:?}, ckpt {ckpt}"
            );
            let file_backed = cuts % 3 == 2;
            check_recovery(
                &plan,
                opts,
                dir.path(),
                run.max_acked,
                run.created,
                file_backed,
                &context,
            );
            cuts += 1;
        }
    }
    println!("{cuts} power cuts during an in-flight fsync");
}
