//! Thread fan-out: scoped threads for one-off work that borrows, long-lived
//! helpers for per-request work that does not.
//!
//! The static builds and branching-split rebuilds of both metablock trees
//! split their work into **pure planning** (sorts, partitions, corner/PST
//! selection over disjoint arena slices — no store access, no I/O) and
//! sequential **materialisation** (page allocation on the calling thread).
//! Planning tasks for sibling slabs are independent, so they fan out over
//! [`std::thread::scope`] in [`run_parallel`]; because every task is a pure
//! function of its slice, the result is identical for every thread count —
//! the [`crate::Tuning::build_threads`] knob changes wall-clock only, never
//! an I/O count or a byte of the built structure. The same order-preserving
//! fan-out drives `ccix-interval`'s sharded bulk builds and large sharded
//! writes (one task per shard, each charging its own striped counter).
//!
//! A scoped thread costs a spawn and a join — tens of microseconds — so
//! every [`run_parallel`] caller gates it on the work it hands over and
//! passes `budget = 1` (inline) below its own measured crossover:
//! `PAR_THRESHOLD` points for a build-planning slab, `FAN_OUT_MIN_OPS`
//! routed operations for a sharded write.
//!
//! Per-request fan-out (a sharded stab batch, a few hundred microseconds a
//! shard) cannot pay that on every call. [`run_pooled`] hands `'static`
//! tasks to a process-wide set of helper threads instead, started on first
//! use, one fewer than [`cores`] (at least one): a hand-off is a channel
//! send and a wake-up, and no thread is created after the first call.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread;

/// Minimum number of points in a slab before planning it is worth a
/// worker-thread handoff; smaller slabs run inline.
pub(crate) const PAR_THRESHOLD: usize = 1 << 14;

/// The machine's available parallelism, asked of the OS once per process
/// (the query reads cgroup files and costs tens of microseconds).
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

/// Split `tasks` into `groups` contiguous near-equal groups, in order.
fn grouped<F>(mut tasks: Vec<F>, groups: usize) -> Vec<Vec<F>> {
    let ranges = ccix_extmem::near_equal_ranges(tasks.len(), groups);
    let mut grouped: Vec<Vec<F>> = Vec::with_capacity(groups);
    for &(start, _) in ranges.iter().rev() {
        grouped.push(tasks.split_off(start));
    }
    grouped.reverse();
    grouped
}

/// Run `tasks` (each given its share of the thread budget) and collect
/// their results in task order.
///
/// With `budget ≤ 1` or a single task everything runs inline on the
/// calling thread. Otherwise the tasks are split into at most `budget`
/// contiguous near-equal groups, one scoped thread per group, and each
/// group passes the remaining budget share down so deep recursions can
/// keep fanning out while the total stays near the requested width.
///
/// # Panics
/// Re-raises the first panicking group's own payload.
pub fn run_parallel<T, F>(tasks: Vec<F>, budget: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce(usize) -> T + Send,
{
    let len = tasks.len();
    if len == 1 {
        return tasks.into_iter().map(|t| t(budget)).collect();
    }
    if budget <= 1 || len == 0 {
        return tasks.into_iter().map(|t| t(1)).collect();
    }
    let groups = budget.min(len);
    let inner = budget / groups;
    thread::scope(|scope| {
        let handles: Vec<_> = grouped(tasks, groups)
            .into_iter()
            .map(|group| {
                scope.spawn(move || group.into_iter().map(|t| t(inner)).collect::<Vec<T>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload))
            })
            .collect()
    })
}

/// A group of pooled tasks, boxed for the shared queue.
type Job = Box<dyn FnOnce() + Send>;

thread_local! {
    /// Set on the helper threads, whose own fan-outs run inline: a helper
    /// waiting on the queue it serves could wait for itself.
    static ON_HELPER: Cell<bool> = const { Cell::new(false) };
}

/// The queue of the process-wide helpers, starting them on first use. The
/// helpers are never joined: they live as long as the process.
fn helpers() -> &'static Sender<Job> {
    static QUEUE: OnceLock<Sender<Job>> = OnceLock::new();
    QUEUE.get_or_init(|| {
        let (queue, jobs) = mpsc::channel::<Job>();
        let jobs = Arc::new(Mutex::new(jobs));
        for i in 0..cores().saturating_sub(1).max(1) {
            let jobs = Arc::clone(&jobs);
            thread::Builder::new()
                .name(format!("ccix-par-{i}"))
                .spawn(move || serve(&jobs))
                .expect("start a fan-out helper thread");
        }
        queue
    })
}

/// A helper's life: take the next job off the shared queue and run it.
/// Jobs catch their own panics, so a helper outlives every task it runs.
fn serve(jobs: &Mutex<Receiver<Job>>) {
    ON_HELPER.set(true);
    loop {
        // The guard only ever covers a `recv`, which leaves the receiver
        // valid, so a poisoned lock is still a usable one.
        let job = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
        match job {
            Ok(job) => job(),
            Err(_) => return,
        }
    }
}

/// Run `'static` tasks over the long-lived helper threads and collect
/// their results in task order.
///
/// The grouping is [`run_parallel`]'s: `min(budget, tasks)` contiguous
/// groups. The calling thread runs the first group itself while the
/// helpers take the others, so two groups cost one hand-off and no spawn.
/// With `budget ≤ 1`, a single task, or on a helper thread, everything
/// runs inline on the calling thread. Each group is dropped — with every
/// handle its tasks captured — before its result is sent back, so when
/// this returns no helper still holds anything a task owned.
///
/// # Panics
/// Re-raises the first panicking group's own payload, after every group
/// has finished; the helper that ran it serves the next call.
pub fn run_pooled<T, F>(tasks: Vec<F>, budget: usize) -> Vec<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let len = tasks.len();
    if budget <= 1 || len <= 1 || ON_HELPER.get() {
        return tasks.into_iter().map(|t| t()).collect();
    }
    let groups = budget.min(len);
    let run = |group: Vec<F>| {
        panic::catch_unwind(AssertUnwindSafe(move || {
            group.into_iter().map(|t| t()).collect::<Vec<T>>()
        }))
    };
    let mut grouped = grouped(tasks, groups).into_iter();
    let own = grouped.next().expect("at least two groups");
    let (reply, replies) = mpsc::channel();
    for (g, group) in grouped.enumerate() {
        let reply = reply.clone();
        let job: Job = Box::new(move || {
            let result = run(group);
            let _ = reply.send((g + 1, result));
        });
        helpers()
            .send(job)
            .expect("fan-out helpers outlive every caller");
    }
    drop(reply);
    let mut results: Vec<Option<thread::Result<Vec<T>>>> = Vec::with_capacity(groups);
    results.push(Some(run(own)));
    results.resize_with(groups, || None);
    for _ in 1..groups {
        let (g, result) = replies.recv().expect("a helper replies to every job");
        results[g] = Some(result);
    }
    let mut out = Vec::with_capacity(len);
    for result in results {
        match result.expect("one reply per group") {
            Ok(part) => out.extend(part),
            Err(payload) => panic::resume_unwind(payload),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_task_order_for_every_budget() {
        for budget in [0usize, 1, 2, 3, 8, 64] {
            let tasks: Vec<_> = (0..17).map(|i| move |_inner: usize| i * 10).collect();
            let got = run_parallel(tasks, budget);
            let want: Vec<usize> = (0..17).map(|i| i * 10).collect();
            assert_eq!(got, want, "budget={budget}");
        }
    }

    #[test]
    fn single_task_keeps_the_whole_budget() {
        let got = run_parallel(vec![|inner: usize| inner], 6);
        assert_eq!(got, vec![6]);
    }

    #[test]
    fn pooled_preserves_task_order_for_every_budget() {
        for budget in [0usize, 1, 2, 3, 8, 64] {
            let tasks: Vec<_> = (0..17).map(|i| move || i * 10).collect();
            let got = run_pooled(tasks, budget);
            let want: Vec<usize> = (0..17).map(|i| i * 10).collect();
            assert_eq!(got, want, "budget={budget}");
        }
    }

    #[test]
    fn pooled_groups_run_on_the_caller_and_the_helpers() {
        let caller = thread::current().id();
        let tasks: Vec<_> = (0..2).map(|_| || thread::current().id()).collect();
        let ran_on = run_pooled(tasks, 2);
        assert_eq!(ran_on[0], caller, "the caller runs the first group");
        assert_ne!(ran_on[1], caller, "a helper runs the second");
    }

    #[test]
    fn a_pooled_task_that_fans_out_again_runs_it_inline() {
        let tasks: Vec<_> = (0..2)
            .map(|i| {
                move || {
                    let inner: Vec<_> = (0..2).map(|j| move || i + 10 * j).collect();
                    run_pooled(inner, 2)
                }
            })
            .collect();
        assert_eq!(run_pooled(tasks, 2), vec![vec![0, 10], vec![1, 11]]);
    }

    #[test]
    fn pooled_tasks_drop_their_captures_before_the_call_returns() {
        let shared = Arc::new(0u8);
        for _ in 0..100 {
            let tasks: Vec<_> = (0..4)
                .map(|_| {
                    let handle = Arc::clone(&shared);
                    move || *handle
                })
                .collect();
            run_pooled(tasks, 4);
            assert_eq!(Arc::strong_count(&shared), 1, "a helper kept a capture");
        }
    }

    /// The message a task panicked with, as the caller catches it.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = panic::catch_unwind(AssertUnwindSafe(f)).expect_err("the call panics");
        match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .expect("a string payload"),
        }
    }

    #[test]
    fn a_scoped_worker_panic_keeps_its_message() {
        let msg = panic_message(|| {
            let tasks: Vec<_> = (0..4)
                .map(|i| {
                    move |_inner: usize| {
                        assert!(i != 3, "task {i} failed");
                        i
                    }
                })
                .collect();
            run_parallel(tasks, 4);
        });
        assert_eq!(msg, "task 3 failed");
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_and_the_helpers_answer_the_next_batch() {
        // Panic in a helper's group and in the caller's own, in turn.
        for bad in [1usize, 0] {
            let msg = panic_message(|| {
                let tasks: Vec<_> = (0..2)
                    .map(|i| {
                        move || {
                            assert!(i != bad, "shard {i} failed");
                            i
                        }
                    })
                    .collect();
                run_pooled(tasks, 2);
            });
            assert_eq!(msg, format!("shard {bad} failed"));
            for _ in 0..10 {
                let tasks: Vec<_> = (0..2).map(|i| move || i + 1).collect();
                assert_eq!(run_pooled(tasks, 2), vec![1, 2]);
            }
        }
    }
}
