//! Dependency-aware work-stealing DAG executor for merge plans.
//!
//! [`run_dag`] executes an arbitrary DAG of tasks (children before
//! parents, as produced by [`crate::planner::plan_union`]) on a small pool
//! of scoped threads with per-worker deques. It replaces the old
//! one-thread-per-tree-node recursion in `merge_tree_parallel`, whose
//! spawn cost at 64 partitions exceeded the merge work itself.
//!
//! Design points:
//! - **Determinism is the caller's problem, by construction.** The
//!   executor never hands scheduling state to `exec`; each node's result
//!   may only depend on its own inputs and node index (the merge layer
//!   derives a per-node RNG stream from the index), so any steal order
//!   yields byte-identical results.
//! - **`workers <= 1` runs inline** on the calling thread in index order
//!   with no locks, queues, or spawns — the serial cutover path costs
//!   nothing over a plain fold.
//! - **The calling thread is worker 0** of a pool: `t` workers spawn
//!   `t - 1` scoped threads, which is what
//!   [`crate::planner::MergePlan::best_threads`] charges for. The calling
//!   thread also runs the root alone once the pool has finished every
//!   other node, so the result is allocated on the thread that keeps it:
//!   a caller that caches the result and frees it later never returns
//!   memory to a pool thread's allocator arena.
//! - **LPT-flavored scheduling:** initially-ready nodes are dealt to the
//!   workers longest-first; a finished node pushes newly-ready parents to
//!   the front of its worker's own deque (depth-first, cache-warm) while
//!   idle workers steal from the back of other deques (breadth-first).
//! - **No new dependencies:** plain `Mutex<VecDeque>` deques and a
//!   `Condvar` for idling. Merge nodes run for micro- to milliseconds, so
//!   lock-free deques would buy nothing measurable.
//!
//! Errors abort the run: the first `Err` from `exec` is stored, every
//! worker drains out, and [`run_dag`] returns it. A panicking worker
//! likewise releases the others (via a drop guard) before the panic
//! propagates out of the thread scope.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
// swh-analyze: allow(determinism) -- Duration only bounds the idle-worker
// condvar wait as a missed-wakeup backstop; no time value feeds results.
use std::time::Duration;
use swh_obs::Stopwatch;

struct IdleState {
    /// Bumped whenever new work is enqueued; sleepers re-check on change.
    generation: u64,
    /// Set when the run is over (every node below the root finished,
    /// error, or panic).
    done: bool,
}

struct DagState<'a, T, E> {
    deps: &'a [Vec<usize>],
    completed: &'a [bool],
    costs: &'a [u64],
    /// Reverse edges: `parents[c]` lists every node depending on `c`,
    /// except the root, which the calling thread runs after the pool.
    parents: Vec<Vec<usize>>,
    /// Unfinished-dependency counts (completed deps excluded).
    pending: Vec<AtomicUsize>,
    /// Result slots; a parent `take`s its children's slots when it runs.
    slots: Vec<Mutex<Option<T>>>,
    /// Per-worker deques: owner pops the front, thieves pop the back.
    queues: Vec<Mutex<VecDeque<usize>>>,
    idle: Mutex<IdleState>,
    wake: Condvar,
    fail: Mutex<Option<E>>,
    abort: AtomicBool,
    /// Pool nodes (all but the root) still to execute; 0 means the pool
    /// is done.
    remaining: AtomicUsize,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Releases the other workers if this worker's `exec` panics, so the
/// thread scope can unwind instead of deadlocking in a condvar wait.
struct PanicRelease<'s, 'a, T, E> {
    state: &'s DagState<'a, T, E>,
}

impl<T, E> Drop for PanicRelease<'_, '_, T, E> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.state.abort.store(true, Ordering::Release);
            {
                let mut idle = lock(&self.state.idle);
                idle.done = true;
            }
            self.state.wake.notify_all();
        }
    }
}

/// Execute a DAG of tasks and return the root's result.
///
/// - `deps[i]` lists the nodes whose results node `i` consumes, in input
///   order; indices must be strictly less than `i` (topological order).
/// - `completed[i]` marks nodes whose values the *caller* holds (plan
///   leaves): they are never executed, and `exec` receives `None` in their
///   input position — it resolves them from its own context.
/// - `costs[i]` is a scheduling priority (higher runs earlier — LPT);
///   it never affects results.
/// - `exec(i, inputs)` runs node `i` given one `Option<T>` per entry of
///   `deps[i]` (`Some` for executed deps, `None` for completed ones).
/// - `on_wait_ns` observes each worker's idle/steal wait time, for the
///   `swh_merge_node_wait_ns` gauge.
///
/// With `workers <= 1` the DAG runs inline on the calling thread; with
/// more, the calling thread works as worker 0 beside `workers - 1` scoped
/// threads, then runs the root itself.
///
/// # Panics
/// Panics if the slice lengths differ, if `root` is out of range or
/// marked completed, or if `deps` is not topologically ordered.
pub fn run_dag<T, E, F, W>(
    deps: &[Vec<usize>],
    completed: &[bool],
    costs: &[u64],
    root: usize,
    workers: usize,
    exec: &F,
    on_wait_ns: &W,
) -> Result<T, E>
where
    T: Send,
    E: Send,
    F: Fn(usize, Vec<Option<T>>) -> Result<T, E> + Sync,
    W: Fn(u64) + Sync,
{
    let n = deps.len();
    assert_eq!(completed.len(), n, "completed length mismatch");
    assert_eq!(costs.len(), n, "costs length mismatch");
    assert!(root < n, "root out of range");
    assert!(!completed[root], "root must be an executable node");
    for (i, d) in deps.iter().enumerate() {
        for &c in d {
            assert!(c < i, "deps not topologically ordered: {c} >= {i}");
        }
    }

    if workers <= 1 {
        return run_serial(deps, completed, root, exec);
    }

    let mut parents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pending: Vec<AtomicUsize> = Vec::with_capacity(n);
    let mut to_run = 0usize;
    for (i, d) in deps.iter().enumerate() {
        let mut open = 0usize;
        for &c in d {
            if !completed[c] && i != root {
                parents[c].push(i);
                open += 1;
            }
        }
        pending.push(AtomicUsize::new(open));
        if !completed[i] && i != root {
            to_run += 1;
        }
    }

    let state = DagState {
        deps,
        completed,
        costs,
        parents,
        pending,
        slots: (0..n).map(|_| Mutex::new(None)).collect(),
        queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        idle: Mutex::new(IdleState {
            generation: 0,
            done: false,
        }),
        wake: Condvar::new(),
        fail: Mutex::new(None),
        abort: AtomicBool::new(false),
        remaining: AtomicUsize::new(to_run),
    };

    // Deal the initially-ready nodes longest-first, round-robin — the LPT
    // seed of the schedule.
    let mut ready: Vec<usize> = (0..n)
        .filter(|&i| !completed[i] && i != root && state.pending[i].load(Ordering::Acquire) == 0)
        .collect();
    ready.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    for (slot, i) in ready.into_iter().enumerate() {
        lock(&state.queues[slot % workers]).push_back(i);
    }

    std::thread::scope(|scope| {
        for w in 1..workers {
            let state = &state;
            scope.spawn(move || worker_loop(state, w, exec, on_wait_ns));
        }
        worker_loop(&state, 0, exec, on_wait_ns);
    });

    if let Some(e) = lock(&state.fail).take() {
        return Err(e);
    }
    let mut inputs = Vec::with_capacity(deps[root].len());
    for &c in &deps[root] {
        inputs.push(if completed[c] {
            None
        } else {
            let taken = lock(&state.slots[c]).take();
            assert!(taken.is_some(), "executor finished without node {c}");
            taken
        });
    }
    exec(root, inputs)
}

fn run_serial<T, E, F>(
    deps: &[Vec<usize>],
    completed: &[bool],
    root: usize,
    exec: &F,
) -> Result<T, E>
where
    F: Fn(usize, Vec<Option<T>>) -> Result<T, E> + Sync,
{
    let mut slots: Vec<Option<T>> = deps.iter().map(|_| None).collect();
    for i in 0..deps.len() {
        if completed[i] {
            continue;
        }
        let mut inputs = Vec::with_capacity(deps[i].len());
        for &c in &deps[i] {
            inputs.push(if completed[c] { None } else { slots[c].take() });
        }
        slots[i] = Some(exec(i, inputs)?);
    }
    match slots[root].take() {
        Some(v) => Ok(v),
        None => panic!("executor finished without a root result"),
    }
}

fn worker_loop<T, E, F, W>(state: &DagState<'_, T, E>, w: usize, exec: &F, on_wait_ns: &W)
where
    T: Send,
    E: Send,
    F: Fn(usize, Vec<Option<T>>) -> Result<T, E> + Sync,
    W: Fn(u64) + Sync,
{
    let _release = PanicRelease { state };
    loop {
        if state.abort.load(Ordering::Acquire) {
            return;
        }
        // Snapshot the wake generation *before* scanning the queues, so a
        // node enqueued after an empty scan changes the generation and the
        // sleep below returns immediately.
        let seen = lock(&state.idle).generation;
        if let Some(i) = take_task(state, w) {
            run_node(state, w, i, exec);
            continue;
        }
        if state.remaining.load(Ordering::Acquire) == 0 {
            return;
        }
        let sw = Stopwatch::start();
        {
            let idle = lock(&state.idle);
            if !idle.done && idle.generation == seen {
                // The timeout is only a backstop against a missed wakeup;
                // ordinary hand-off goes through notify_all.
                let _unused = state.wake.wait_timeout(idle, Duration::from_millis(1));
            }
        }
        on_wait_ns(sw.elapsed_ns());
    }
}

fn take_task<T, E>(state: &DagState<'_, T, E>, w: usize) -> Option<usize> {
    {
        let mut own = lock(&state.queues[w]);
        if let Some(i) = own.pop_front() {
            return Some(i);
        }
    }
    let n = state.queues.len();
    for offset in 1..n {
        let victim = (w + offset) % n;
        let mut q = lock(&state.queues[victim]);
        if let Some(i) = q.pop_back() {
            return Some(i);
        }
    }
    None
}

fn run_node<T, E, F>(state: &DagState<'_, T, E>, w: usize, i: usize, exec: &F)
where
    F: Fn(usize, Vec<Option<T>>) -> Result<T, E>,
{
    let mut inputs = Vec::with_capacity(state.deps[i].len());
    for &c in &state.deps[i] {
        if state.completed[c] {
            inputs.push(None);
        } else {
            let taken = lock(&state.slots[c]).take();
            inputs.push(taken);
        }
    }
    match exec(i, inputs) {
        Ok(v) => {
            {
                let mut slot = lock(&state.slots[i]);
                *slot = Some(v);
            }
            let mut newly_ready: Vec<usize> = Vec::new();
            for &p in &state.parents[i] {
                if state.pending[p].fetch_sub(1, Ordering::AcqRel) == 1 {
                    newly_ready.push(p);
                }
            }
            if !newly_ready.is_empty() {
                newly_ready.sort_by_key(|&p| (std::cmp::Reverse(state.costs[p]), p));
                {
                    let mut own = lock(&state.queues[w]);
                    // push_front in ascending-cost order leaves the most
                    // expensive node at the front for the owner; thieves
                    // take the cheap back end.
                    for p in newly_ready.into_iter().rev() {
                        own.push_front(p);
                    }
                }
                {
                    let mut idle = lock(&state.idle);
                    idle.generation = idle.generation.wrapping_add(1);
                }
                state.wake.notify_all();
            }
            if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                {
                    let mut idle = lock(&state.idle);
                    idle.done = true;
                }
                state.wake.notify_all();
            }
        }
        Err(e) => {
            {
                let mut fail = lock(&state.fail);
                if fail.is_none() {
                    *fail = Some(e);
                }
            }
            state.abort.store(true, Ordering::Release);
            {
                let mut idle = lock(&state.idle);
                idle.done = true;
            }
            state.wake.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Sum tree: leaves are caller-held values, inner nodes add inputs.
    fn sum_tree(workers: usize) -> Result<u64, ()> {
        // 4 leaves (0..4), two pairs (4, 5), root (6).
        let deps = vec![
            vec![],
            vec![],
            vec![],
            vec![],
            vec![0, 1],
            vec![2, 3],
            vec![4, 5],
        ];
        let completed = vec![true, true, true, true, false, false, false];
        let costs = vec![0, 0, 0, 0, 10, 20, 5];
        let leaves = [3u64, 5, 7, 11];
        let exec = |i: usize, inputs: Vec<Option<u64>>| -> Result<u64, ()> {
            let sum: u64 = deps_of(i)
                .iter()
                .zip(inputs)
                .map(|(&d, v)| v.unwrap_or_else(|| leaves[d]))
                .sum();
            Ok(sum)
        };
        fn deps_of(i: usize) -> Vec<usize> {
            match i {
                4 => vec![0, 1],
                5 => vec![2, 3],
                6 => vec![4, 5],
                _ => vec![],
            }
        }
        run_dag(&deps, &completed, &costs, 6, workers, &exec, &|_| {})
    }

    #[test]
    fn computes_root_serial_and_parallel() {
        assert_eq!(sum_tree(1), Ok(26));
        assert_eq!(sum_tree(2), Ok(26));
        assert_eq!(sum_tree(8), Ok(26));
    }

    #[test]
    fn workers_beyond_node_count_are_harmless() {
        assert_eq!(sum_tree(32), Ok(26));
    }

    #[test]
    fn error_aborts_and_propagates() {
        let deps = vec![vec![], vec![0], vec![1]];
        let completed = vec![true, false, false];
        let costs = vec![0, 1, 1];
        let ran_root = AtomicU64::new(0);
        let exec = |i: usize, _inputs: Vec<Option<u64>>| -> Result<u64, &'static str> {
            if i == 1 {
                Err("boom")
            } else {
                ran_root.fetch_add(1, Ordering::AcqRel);
                Ok(0)
            }
        };
        for workers in [1usize, 4] {
            let r = run_dag(&deps, &completed, &costs, 2, workers, &exec, &|_| {});
            assert_eq!(r, Err("boom"));
        }
        assert_eq!(ran_root.load(Ordering::Acquire), 0, "root ran after error");
    }

    #[test]
    fn wide_fan_out_exercises_stealing() {
        // 64 independent nodes feeding one root; more workers than any
        // single queue's share forces steals.
        let width = 64usize;
        let mut deps: Vec<Vec<usize>> = (0..width).map(|_| vec![]).collect();
        deps.push((0..width).collect());
        let completed = vec![false; width + 1];
        let costs: Vec<u64> = (0..width as u64).chain([1000]).collect();
        let waited = AtomicU64::new(0);
        let exec = |i: usize, inputs: Vec<Option<u64>>| -> Result<u64, ()> {
            if i < width {
                Ok(i as u64)
            } else {
                Ok(inputs.into_iter().flatten().sum())
            }
        };
        let r = run_dag(&deps, &completed, &costs, width, 8, &exec, &|ns| {
            waited.fetch_add(ns, Ordering::AcqRel);
        });
        assert_eq!(r, Ok((0..width as u64).sum()));
    }

    #[test]
    fn diamond_passes_each_result_exactly_once() {
        // 0 -> {1, 2} -> 3: node 0 executes, both parents read distinct
        // clones is NOT supported — slots are take()n — so the DAG must be
        // a tree above executed nodes. Model that: 0 completed (leaf),
        // 1 and 2 both read it as a leaf, 3 joins.
        let deps = vec![vec![], vec![0], vec![0], vec![1, 2]];
        let completed = vec![true, false, false, false];
        let costs = vec![0, 1, 1, 1];
        let exec = |i: usize, inputs: Vec<Option<u64>>| -> Result<u64, ()> {
            match i {
                1 | 2 => Ok(7),
                3 => Ok(inputs.into_iter().flatten().sum()),
                _ => unreachable!(),
            }
        };
        for workers in [1usize, 4] {
            assert_eq!(
                run_dag(&deps, &completed, &costs, 3, workers, &exec, &|_| {}),
                Ok(14)
            );
        }
    }
}
