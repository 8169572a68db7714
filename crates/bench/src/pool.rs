//! The harness-side work pool: a fixed set of scoped host threads
//! draining a cost-ordered task queue.
//!
//! This is the engine behind the observatory's `--jobs N` fan-out: it
//! schedules whole *sweep units* (each of which may launch many
//! simulations, every one single-threaded — `scc-sim` runs a chip's
//! cores as coroutines on the calling thread) across the host's cores.
//! Results come back in submission order, so callers can merge
//! deterministically no matter how execution interleaved.
//!
//! Scheduling is longest-task-first: tasks are drained in descending
//! `cost` order (ties keep submission order) from a shared atomic
//! cursor. With units of wildly different weight — a 32768-line fig8b
//! point next to a one-line fig5 print — LPT ordering keeps the tail of
//! the schedule short without any work stealing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Boxed body of a [`Task`]; it may borrow from the caller, since every
/// task finishes before [`run_tasks`] returns.
pub type TaskFn<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// One schedulable unit of harness work.
pub struct Task<'a, T> {
    /// Relative weight used for longest-task-first ordering; any
    /// monotone proxy for runtime works (e.g. message size in lines).
    pub cost: u64,
    pub run: TaskFn<'a, T>,
}

/// The default worker count: the host's available parallelism.
pub fn jobs_default() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run every task and return their results in submission order.
///
/// `jobs <= 1` (or a single task) executes inline on the calling
/// thread, in submission order, no threads involved. Otherwise `min(jobs, tasks)` scoped threads drain
/// the queue longest-first. A panicking task propagates when the scope
/// joins (after in-flight tasks finish).
pub fn run_tasks<T: Send>(jobs: usize, tasks: Vec<Task<'_, T>>) -> Vec<T> {
    let n = tasks.len();
    if jobs <= 1 || n <= 1 {
        return tasks.into_iter().map(|t| (t.run)()).collect();
    }

    // LPT order: indices by descending cost; sort_by is stable, so
    // equal-cost tasks keep submission order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| tasks[b].cost.cmp(&tasks[a].cost));

    let queue: Vec<Mutex<Option<TaskFn<'_, T>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t.run))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let at = cursor.fetch_add(1, Ordering::Relaxed);
                if at >= n {
                    break;
                }
                let idx = order[at];
                let task = queue[idx]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("each queue slot is taken exactly once");
                let out = task();
                *results[idx].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every task ran (a panic would have propagated from the scope)")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tasks_squaring(n: usize) -> Vec<Task<'static, usize>> {
        (0..n).map(|i| Task { cost: (i % 5) as u64, run: Box::new(move || i * i) }).collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for jobs in [1, 2, 4, 9] {
            let out = run_tasks(jobs, tasks_squaring(23));
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_task_lists_work() {
        assert_eq!(run_tasks::<usize>(4, Vec::new()), Vec::<usize>::new());
        let one = vec![Task { cost: 1, run: Box::new(|| 41 + 1) }];
        assert_eq!(run_tasks(4, one), vec![42]);
    }

    #[test]
    fn parallel_run_actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::thread::ThreadId;
        let tasks: Vec<Task<ThreadId>> = (0..64)
            .map(|_| {
                Task {
                    cost: 1,
                    run: Box::new(|| {
                        // Give other workers a chance to grab tasks too.
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        std::thread::current().id()
                    }),
                }
            })
            .collect();
        let seen: HashSet<ThreadId> = run_tasks(4, tasks).into_iter().collect();
        assert!(seen.len() > 1, "expected >1 worker thread, saw {}", seen.len());
        assert!(!seen.contains(&std::thread::current().id()), "jobs>1 must not run inline");
    }
}
