//! The process's one data-parallel runtime: a reusable scoped worker
//! pool.
//!
//! Spawning fresh OS threads with `std::thread::scope` on every call is
//! fine for one offline batch and hostile to a server executing
//! thousands of micro-batches per second, where per-call spawns cost
//! more than the kernel. This pool keeps `N − 1` helper threads parked
//! on a condvar and hands them **broadcast jobs**: a borrowed
//! `Fn(usize)` closure plus a task count. Workers (the caller
//! included — it always participates, so a pool of parallelism 1 runs
//! everything inline with zero synchronization) claim task indices from
//! a shared atomic counter until the range is exhausted.
//!
//! Design properties the callers rely on:
//!
//! * **Zero allocation per `run`** — the job is passed by reference
//!   (lifetime-erased for the duration of the call), nothing is boxed,
//!   so steady-state batched classification stays allocation-free
//!   (asserted by `tests/alloc_free.rs`).
//! * **Scoped borrows** — `run` does not return until every helper has
//!   finished the job, so the closure may borrow the caller's stack.
//! * **Safe from anywhere** — one job owns the helpers at a time. A
//!   `run` that finds the pool busy (a task calling `run` again, or a
//!   second thread calling it concurrently) executes its tasks inline
//!   on the calling thread, so nesting never oversubscribes the
//!   machine, loses work or deadlocks.
//! * **Panic safety** — a panicking task is caught in the worker, the
//!   job still completes (remaining indices are drained), and `run`
//!   re-panics on the caller's thread; helpers survive for the next
//!   job.
//!
//! One process-wide pool ([`global`]) sized to `available_parallelism`
//! lanes runs BST construction, CV replicates and batch classification
//! (including the serve compute threads' kernel passes), so the process
//! never oversubscribes cores no matter how many subsystems want
//! parallelism.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A borrowed broadcast job, lifetime-erased while helpers hold it.
///
/// Soundness: the pointer is only dereferenced between the generation
/// bump that publishes it and the completion handshake that `run` blocks
/// on, and `run` keeps the referent alive for that whole window. The
/// pool's `busy` flag keeps a second job from being published (and the
/// shared counters reset) inside that window.
#[derive(Clone, Copy)]
struct RawJob {
    task: *const (dyn Fn(usize) + Sync),
    n_tasks: usize,
}

// SAFETY: the closure itself is `Sync` (required by `run`'s signature),
// so sharing the pointer across worker threads is safe for the window
// described on [`RawJob`].
unsafe impl Send for RawJob {}

/// State guarded by the job mutex: the published job and its generation.
struct JobSlot {
    generation: u64,
    job: Option<RawJob>,
    shutdown: bool,
}

/// Everything the helpers share with the pool handle.
struct Shared {
    slot: Mutex<JobSlot>,
    /// Wakes helpers when a new generation (or shutdown) is published.
    start: Condvar,
    /// Next unclaimed task index of the current job.
    next: AtomicUsize,
    /// Helpers still working on the current job.
    active: Mutex<usize>,
    /// Wakes the caller when `active` reaches zero.
    done: Condvar,
    /// Set when any task of the current job panicked.
    panicked: AtomicBool,
}

/// A fixed-size pool of parked helper threads executing broadcast jobs.
/// See the module docs for the execution model.
pub struct WorkerPool {
    shared: &'static Shared,
    /// Set while a job owns the helpers; a `run` that finds it set runs
    /// inline instead. The `Acquire` claim pairs with the `Release`
    /// clear, so a new owner sees the previous job fully drained.
    busy: AtomicBool,
    /// Helper threads (parallelism − 1; may be empty).
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with `parallelism` total execution lanes: the
    /// caller of [`WorkerPool::run`] plus `parallelism − 1` parked
    /// helper threads.
    ///
    /// The shared state is intentionally leaked (`Box::leak`): pools are
    /// created once per process (or per test) and the helpers' lifetime
    /// then needs no `Arc` traffic on the hot path.
    pub fn new(parallelism: usize) -> WorkerPool {
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            slot: Mutex::new(JobSlot { generation: 0, job: None, shutdown: false }),
            start: Condvar::new(),
            next: AtomicUsize::new(0),
            active: Mutex::new(0),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }));
        let helpers = parallelism.max(1) - 1;
        let handles = (0..helpers)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("bstc-pool-{i}"))
                    .spawn(move || helper_loop(shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, busy: AtomicBool::new(false), handles }
    }

    /// Total execution lanes (caller + helpers).
    pub fn lanes(&self) -> usize {
        self.handles.len() + 1
    }

    /// Executes `task(0..n_tasks)` across the pool's lanes and returns
    /// when every index has completed. The caller participates, so this
    /// is a plain inline loop when the pool has no helpers, the job has
    /// a single task, or the pool is already running a job (nested or
    /// concurrent calls). Allocation-free. Re-panics (after the job
    /// fully drains) if any task panicked.
    pub fn run(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        if n_tasks == 0 {
            return;
        }
        if self.handles.is_empty()
            || n_tasks == 1
            || self
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            for i in 0..n_tasks {
                task(i);
            }
            return;
        }

        let shared = self.shared;
        shared.panicked.store(false, Ordering::Relaxed);
        shared.next.store(0, Ordering::Relaxed);
        {
            let mut active = shared.active.lock().expect("pool active");
            *active = self.handles.len();
        }
        // SAFETY (lifetime erasure): `run` blocks below until every
        // helper has finished this generation, so `task` outlives every
        // dereference of this pointer.
        let raw: *const (dyn Fn(usize) + Sync) = task;
        let raw: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(raw) };
        let job = RawJob { task: raw, n_tasks };
        {
            let mut slot = shared.slot.lock().expect("pool slot");
            slot.job = Some(job);
            slot.generation += 1;
            shared.start.notify_all();
        }

        // The caller is a lane too: claim indices until the range drains.
        run_tasks(shared, job);

        // Wait for the helpers' completion handshake before touching the
        // borrow again (or unwinding).
        let mut active = shared.active.lock().expect("pool active");
        while *active != 0 {
            active = shared.done.wait(active).expect("pool done wait");
        }
        drop(active);

        let panicked = shared.panicked.load(Ordering::SeqCst);
        self.busy.store(false, Ordering::Release);
        if panicked {
            panic!("worker pool task panicked");
        }
    }

    /// Computes `f(0..n)` across the pool's lanes and returns the
    /// results in index order. Runs inline under the same conditions as
    /// [`WorkerPool::run`].
    pub fn map<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.run(n, &|i| {
            let value = f(i);
            *slots[i].lock().expect("pool map slot") = Some(value);
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("pool map slot").expect("every index ran"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().expect("pool slot");
            slot.shutdown = true;
            self.shared.start.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Claims and runs task indices until the job's range is exhausted.
/// Panics are recorded and swallowed so the index counter always drains.
fn run_tasks(shared: &Shared, job: RawJob) {
    loop {
        let i = shared.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.n_tasks {
            return;
        }
        // SAFETY: see `RawJob` — the referent is alive while any lane
        // can still claim an index.
        let task = unsafe { &*job.task };
        if catch_unwind(AssertUnwindSafe(|| task(i))).is_err() {
            shared.panicked.store(true, Ordering::SeqCst);
        }
    }
}

/// Helper thread body: wait for a generation, work it, hand shake, park.
fn helper_loop(shared: &'static Shared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().expect("pool slot");
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.generation != seen {
                    seen = slot.generation;
                    break slot.job.expect("published generation carries a job");
                }
                slot = shared.start.wait(slot).expect("pool start wait");
            }
        };
        run_tasks(shared, job);
        let mut active = shared.active.lock().expect("pool active");
        *active -= 1;
        if *active == 0 {
            shared.done.notify_all();
        }
    }
}

/// The process-wide shared pool, sized to the machine
/// (`available_parallelism`), created on first use. BST construction,
/// CV and batch classification (the serve compute threads' kernel
/// passes included) all draw from it, so parallelism is coordinated
/// instead of multiplicative: whichever caller holds the pool fans out,
/// everyone nested inside it or concurrent with it runs inline.
pub fn global() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        WorkerPool::new(parallelism)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_index_exactly_once() {
        for parallelism in [1, 2, 4] {
            let pool = WorkerPool::new(parallelism);
            for n in [0usize, 1, 2, 3, 17, 256] {
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                pool.run(n, &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "parallelism={parallelism} n={n}"
                );
            }
        }
    }

    #[test]
    fn tasks_actually_run_on_helper_threads() {
        use std::sync::{Barrier, Mutex};
        let pool = WorkerPool::new(4);
        // Both tasks rendezvous at a two-party barrier, so one thread can
        // never run both (it would deadlock against itself): the two
        // recorded ids are necessarily distinct — a helper really ran.
        // Works even on a single hardware core, where the caller would
        // otherwise drain every index before a helper gets scheduled.
        let barrier = Barrier::new(2);
        let ids = Mutex::new(Vec::new());
        pool.run(2, &|_| {
            barrier.wait();
            ids.lock().unwrap().push(std::thread::current().id());
        });
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1], "both tasks ran on the same thread");
    }

    #[test]
    fn sequential_results_match_parallel() {
        let pool = WorkerPool::new(3);
        let n = 100usize;
        let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.run(n, &|i| {
            out[i].store((i * i) as u64, Ordering::Relaxed);
        });
        for (i, slot) in out.iter().enumerate() {
            assert_eq!(slot.load(Ordering::Relaxed), (i * i) as u64);
        }
    }

    #[test]
    fn panicking_task_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // The pool still works afterwards.
        let count = AtomicU64::new(0);
        pool.run(8, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn back_to_back_jobs_reuse_the_pool() {
        let pool = WorkerPool::new(4);
        let total = AtomicU64::new(0);
        for round in 0..200u64 {
            pool.run(16, &|i| {
                total.fetch_add(round + i as u64, Ordering::Relaxed);
            });
        }
        let expected: u64 = (0..200u64).map(|r| (0..16u64).map(|i| r + i).sum::<u64>()).sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn global_pool_is_usable() {
        let pool = global();
        assert!(pool.lanes() >= 1);
        let count = AtomicU64::new(0);
        pool.run(5, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn nested_run_executes_every_inner_index_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
        pool.run(4, &|outer| {
            pool.run(4, &|inner| {
                hits[outer * 4 + inner].fetch_add(1, Ordering::Relaxed);
            });
        });
        let counts: Vec<u64> = hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
        assert_eq!(counts, vec![1; 16]);
    }

    #[test]
    fn concurrent_callers_each_run_every_index_once() {
        let pool = WorkerPool::new(3);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for round in 0..500 {
                        let hits: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
                        pool.run(16, &|i| {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        });
                        let counts: Vec<u64> =
                            hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
                        assert_eq!(counts, vec![1; 16], "round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn a_caller_that_finds_the_pool_held_runs_inline() {
        use std::sync::Barrier;
        let pool = WorkerPool::new(3);
        // Thread A's job holds the pool until thread B's whole `run` has
        // finished, so B's call is forced to overlap it.
        let (held, released) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                pool.run(2, &|i| {
                    if i == 0 {
                        held.wait();
                        released.wait();
                    }
                });
            });
            held.wait();
            let caller = std::thread::current().id();
            let ids = pool.map(16, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == caller), "ran off the caller while held");
            released.wait();
        });
    }

    #[test]
    fn busy_flag_is_released_after_a_panicking_job() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| pool.run(4, &|_| panic!("boom"))));
        assert!(result.is_err());
        // A released pool fans out again: two tasks rendezvous at a
        // two-party barrier, which only completes on two threads.
        let barrier = std::sync::Barrier::new(2);
        pool.run(2, &|_| {
            barrier.wait();
        });
    }

    #[test]
    fn map_preserves_index_order() {
        let pool = WorkerPool::new(4);
        let out = pool.map(1000, |i| (i, i * 2));
        for (i, &(idx, doubled)) in out.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(doubled, i * 2);
        }
    }

    #[test]
    fn map_of_empty_input_is_empty() {
        let pool = WorkerPool::new(4);
        let out: Vec<u8> = pool.map(0, |_| unreachable!("no index to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn tiny_and_nested_maps_stay_on_the_calling_thread() {
        let pool = WorkerPool::new(4);
        let caller = std::thread::current().id();
        for n in 0..=1 {
            let ids = pool.map(n, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == caller), "n={n} left the caller");
        }
        // Inside a job every inner map runs on the thread of the task
        // that issued it.
        let nested_ok = pool.map(8, |_| {
            let outer = std::thread::current().id();
            pool.map(8, |_| std::thread::current().id()).iter().all(|&id| id == outer)
        });
        assert!(nested_ok.iter().all(|&ok| ok));
        // A single-lane pool never leaves the caller.
        let single = WorkerPool::new(1);
        let ids = single.map(64, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn map_matches_sequential_across_sizes() {
        let pool = WorkerPool::new(3);
        for n in [0usize, 1, 4, 5, 64, 1000] {
            let out = pool.map(n, |v| v * 3 + 1);
            let expected: Vec<usize> = (0..n).map(|v| v * 3 + 1).collect();
            assert_eq!(out, expected, "n={n}");
        }
    }
}
