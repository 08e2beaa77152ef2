//! The worker pool behind every candidate fan-out.
//!
//! The divide phase produces a small ranked set of partition candidates;
//! both the cluster-mapping ILPs and the lower-level mapping runs (one per
//! candidate and mapper; a baseline compile is one unrestricted candidate)
//! are independent, so the pipeline fans them out as batches on one
//! [`BatchExecutor`]. Determinism is preserved by construction: workers
//! only *compute*, the reduction over their results is sequential and
//! keyed by a total order, and the shared [`PortfolioBound`] prunes a
//! candidate only when nothing it could still produce would win that
//! reduction — so the outcome is bit-identical for any thread count.
//!
//! There is one pool type. A compile that is handed none opens a
//! [`BatchExecutor::scope`] for itself — one spawn per compile, shared by
//! its cluster-mapping and conquer fan-outs. A driver compiling many
//! kernels may open one scope, submit the kernel jobs as a batch, and hand
//! the executor down (`CompileContext::executor`), so each compile submits
//! its candidate fan-out to the *same* pool and kernel×candidate work
//! items interleave freely across one fixed set of workers; the suite
//! determinism check in `tests/perf.rs` does this. A `/compile-batch` job
//! fans its entries out on a scope of its own but does not hand it down:
//! each entry runs `CompileRequest::run`, which passes no executor, so
//! every entry's compile opens its own pool. Submitters self-schedule from
//! the shared queue while waiting for their batch (work stealing by
//! helping), so a nested submission can never deadlock and idle workers
//! drain whatever work exists, regardless of which kernel produced it.
//! With `threads <= 1` a scope spawns nothing and every batch runs inline
//! on the submitting thread, lock-free.
//!
//! [`PortfolioBound`]: panorama_mapper::PortfolioBound

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Resolves a requested worker count: `0` means one per available core,
/// and there is never a reason to spawn more workers than work items.
pub fn effective_threads(requested: usize, work_items: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let t = if requested == 0 { hw } else { requested };
    t.clamp(1, work_items.max(1))
}

/// A queued work item. Tasks receive the executor so work running on a
/// worker can submit nested batches to the same pool.
type Task<'env> = Box<dyn FnOnce(&BatchExecutor<'env>) + Send + 'env>;

/// Shared queue state guarded by one mutex: the pending tasks plus the
/// shutdown flag, so workers never observe one without the other.
struct QueueState<'env> {
    tasks: VecDeque<Task<'env>>,
    shutdown: bool,
}

/// Completion state of one [`BatchExecutor::run_batch`] call.
struct BatchState<T> {
    /// Result slots, written once each by whichever thread ran the item.
    slots: Mutex<Vec<Option<T>>>,
    /// Items not yet finished; the batch is complete at zero.
    remaining: AtomicUsize,
    /// Set when any item panicked; the submitter re-panics after the
    /// batch drains, so a crash is never silently swallowed.
    panicked: AtomicBool,
    /// Pairs with `done` for lost-wakeup-free completion signalling.
    done_lock: Mutex<()>,
    done: Condvar,
}

/// A suite-level work-stealing executor: one fixed worker pool shared by
/// every batch submitted inside a [`scope`](BatchExecutor::scope).
///
/// Work items self-schedule from a single shared queue. A thread that
/// submits a batch — including a worker submitting a *nested* batch, the
/// way a kernel compile fans out its candidate portfolio — helps execute
/// queued work (its own batch's items or anyone else's) while it waits,
/// so the pool can never deadlock on nested submission and no worker
/// idles while any work item exists.
///
/// Total concurrency is exactly the scope's `threads`: the scope spawns
/// `threads - 1` workers and the calling thread is the last worker.
/// With `threads <= 1` no worker is spawned and every batch runs inline
/// on the submitting thread — the fully sequential path that anchors the
/// determinism contract stays synchronisation-free.
///
/// Results are returned in submission index order and every reduction
/// over them is performed by the submitter, so batch outcomes are
/// bit-identical at any thread count.
pub struct BatchExecutor<'env> {
    queue: Mutex<QueueState<'env>>,
    ready: Condvar,
    threads: usize,
}

impl std::fmt::Debug for BatchExecutor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchExecutor")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl<'env> BatchExecutor<'env> {
    /// Opens a shared pool of `threads` total workers (`0` = one per
    /// core), runs `f` with it, and tears the pool down when `f` returns.
    /// All batches submitted by `f` (and by tasks `f` spawned) complete
    /// before `scope` returns.
    pub fn scope<R>(threads: usize, f: impl FnOnce(&BatchExecutor<'env>) -> R) -> R {
        let threads = effective_threads(threads, usize::MAX);
        let exec = BatchExecutor {
            queue: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            threads,
        };
        if threads <= 1 {
            // Sequential scope: no workers, batches run inline.
            return f(&exec);
        }
        std::thread::scope(|s| {
            // The caller is one worker; spawn the rest.
            for _ in 0..threads - 1 {
                s.spawn(|| exec.worker_loop());
            }
            // `finish` must run even when `f` unwinds (e.g. a re-panicked
            // batch item): the scope joins its workers on the way out, and
            // a worker parked on `ready` that never hears the shutdown
            // signal would block that join forever.
            let out = catch_unwind(AssertUnwindSafe(|| f(&exec)));
            exec.finish();
            match out {
                Ok(out) => out,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    }

    /// The pool's total worker count (including the scope's own thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(self, 0..count)` as one batch on the shared pool and
    /// returns the results in index order. Blocks until the batch is
    /// complete; while blocked, the calling thread executes queued work
    /// items (its own or other batches'). With a sequential pool or a
    /// single item the batch runs inline on the caller's stack.
    ///
    /// # Panics
    ///
    /// Re-panics on the submitting thread when any work item panicked.
    pub fn run_batch<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send + 'env,
        F: Fn(&BatchExecutor<'env>, usize) -> T + Send + Sync + 'env,
    {
        if self.threads <= 1 || count <= 1 {
            return (0..count).map(|i| f(self, i)).collect();
        }
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(count, || None);
        let state = Arc::new(BatchState {
            slots: Mutex::new(slots),
            remaining: AtomicUsize::new(count),
            panicked: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
        });
        let f = Arc::new(f);
        {
            let mut queue = self.lock_queue();
            for i in 0..count {
                let state = Arc::clone(&state);
                let f = Arc::clone(&f);
                queue.tasks.push_back(Box::new(move |exec| {
                    let result = catch_unwind(AssertUnwindSafe(|| f(exec, i)));
                    match result {
                        Ok(value) => {
                            state
                                .slots
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)[i] =
                                Some(value);
                        }
                        Err(_) => state.panicked.store(true, Ordering::Release),
                    }
                    if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        // Last item: wake the submitter. Taking the lock
                        // orders this notify after the submitter's
                        // check-then-wait, so the wakeup is never lost.
                        let _guard = state
                            .done_lock
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        state.done.notify_all();
                    }
                }));
            }
            self.ready.notify_all();
        }
        // Help until the batch completes. The queue can only be empty of
        // this batch's items once they are all taken, so sleeping here
        // never strands our own work.
        while state.remaining.load(Ordering::Acquire) != 0 {
            match self.try_pop() {
                Some(task) => task(self),
                None => {
                    let guard = state
                        .done_lock
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if state.remaining.load(Ordering::Acquire) != 0 {
                        drop(
                            state
                                .done
                                .wait(guard)
                                .unwrap_or_else(std::sync::PoisonError::into_inner),
                        );
                    }
                }
            }
        }
        if state.panicked.load(Ordering::Acquire) {
            panic!("a batch work item panicked");
        }
        let mut slots = state
            .slots
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        std::mem::take(&mut *slots)
            .into_iter()
            .map(|slot| slot.expect("every batch index was executed exactly once"))
            .collect()
    }

    /// Worker main loop: execute queued tasks until shutdown.
    fn worker_loop(&self) {
        let mut queue = self.lock_queue();
        loop {
            if let Some(task) = queue.tasks.pop_front() {
                drop(queue);
                task(self);
                queue = self.lock_queue();
            } else if queue.shutdown {
                return;
            } else {
                queue = self
                    .ready
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
    }

    /// Pops one task without blocking.
    fn try_pop(&self) -> Option<Task<'env>> {
        self.lock_queue().tasks.pop_front()
    }

    /// Signals workers to exit once the queue drains. Every `run_batch`
    /// has returned by the time the scope calls this, so the queue is
    /// already empty and workers exit promptly.
    fn finish(&self) {
        self.lock_queue().shutdown = true;
        self.ready.notify_all();
    }

    /// Locks the queue, recovering from poisoning: tasks are popped
    /// before execution, so a panicking work item can never leave a
    /// half-consumed entry behind, and batch panics are surfaced to the
    /// submitter separately.
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, QueueState<'env>> {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_clamps_to_work() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 3), 2);
        assert_eq!(effective_threads(1, 0), 1);
        assert!(effective_threads(0, 64) >= 1);
    }

    #[test]
    fn batch_results_preserve_index_order() {
        for threads in [1, 2, 4, 8] {
            let out = BatchExecutor::scope(threads, |exec| exec.run_batch(17, |_, i| i * 3));
            assert_eq!(out, (0..17).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_batches_share_the_pool_without_deadlock() {
        // Every outer item submits an inner batch; the pool has fewer
        // workers than outstanding batches, so completion relies on
        // submitters helping with queued work.
        for threads in [1, 2, 3] {
            let out = BatchExecutor::scope(threads, |exec| {
                exec.run_batch(6, |exec, i| {
                    let inner = exec.run_batch(4, move |_, j| i * 10 + j);
                    inner.into_iter().sum::<usize>()
                })
            });
            let expect: Vec<usize> = (0..6).map(|i| 4 * 10 * i + 6).collect();
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn batches_can_borrow_scope_level_data() {
        let data: Vec<usize> = (0..100).collect();
        let total = BatchExecutor::scope(4, |exec| {
            let chunks =
                exec.run_batch(10, |_, i| data[i * 10..(i + 1) * 10].iter().sum::<usize>());
            chunks.into_iter().sum::<usize>()
        });
        assert_eq!(total, data.iter().sum::<usize>());
    }

    #[test]
    fn empty_batch_returns_empty() {
        let out = BatchExecutor::scope(4, |exec| exec.run_batch(0, |_, i| i));
        assert_eq!(out, Vec::<usize>::new());
    }

    #[test]
    fn panicking_item_repanics_on_the_submitter() {
        let result = std::panic::catch_unwind(|| {
            BatchExecutor::scope(2, |exec| {
                exec.run_batch(4, |_, i| {
                    assert!(i != 2, "boom");
                    i
                })
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn sequential_scope_runs_inline() {
        let exec_threads = BatchExecutor::scope(1, BatchExecutor::threads);
        assert_eq!(exec_threads, 1);
        // A batch in a sequential scope must run on the calling thread.
        let caller = std::thread::current().id();
        let ids = BatchExecutor::scope(1, |exec| {
            exec.run_batch(3, |_, _| std::thread::current().id())
        });
        assert!(ids.iter().all(|&id| id == caller));
    }
}
