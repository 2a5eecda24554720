//! Scoped-thread fan-out for the CPU-bound build-planning phases.
//!
//! The static builds and branching-split rebuilds of both metablock trees
//! split their work into **pure planning** (sorts, partitions, corner/PST
//! selection over disjoint arena slices — no store access, no I/O) and
//! sequential **materialisation** (page allocation on the calling thread).
//! Planning tasks for sibling slabs are independent, so they fan out over
//! [`std::thread::scope`] here; because every task is a pure function of
//! its slice, the result is identical for every thread count — the
//! [`crate::Tuning::build_threads`] knob changes wall-clock only, never an
//! I/O count or a byte of the built structure.
//!
//! The same order-preserving fan-out also drives shard-level parallelism
//! in `ccix-interval`'s sharded index (one task per shard, each charging
//! its own striped counter), which is why [`run_parallel`] is public.
//!
//! A hand-off to a scoped thread costs a spawn and a join — tens of
//! microseconds — so every caller gates it on the work it hands over and
//! passes `budget = 1` (inline) below its own measured crossover:
//! `PAR_THRESHOLD` points for a build-planning slab, `FAN_OUT_MIN_OPS`
//! routed operations for a sharded write.

/// Minimum number of points in a slab before planning it is worth a
/// worker-thread handoff; smaller slabs run inline.
pub(crate) const PAR_THRESHOLD: usize = 1 << 14;

/// Run `tasks` (each given its share of the thread budget) and collect
/// their results in task order.
///
/// With `budget ≤ 1` or a single task everything runs inline on the
/// calling thread. Otherwise the tasks are split into at most `budget`
/// contiguous near-equal groups, one scoped thread per group, and each
/// group passes the remaining budget share down so deep recursions can
/// keep fanning out while the total stays near the requested width.
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
    let ranges = ccix_extmem::near_equal_ranges(len, groups);
    let mut tasks = tasks;
    let mut grouped: Vec<Vec<F>> = Vec::with_capacity(groups);
    for &(start, _) in ranges.iter().rev() {
        grouped.push(tasks.split_off(start));
    }
    grouped.reverse();
    std::thread::scope(|scope| {
        let handles: Vec<_> = grouped
            .into_iter()
            .map(|group| {
                scope.spawn(move || group.into_iter().map(|t| t(inner)).collect::<Vec<T>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("build-planning worker panicked"))
            .collect()
    })
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
}
