//! Persistent scoped worker pool with chunked dynamic scheduling.
//!
//! Phase 2 of the pipeline — candidate generation over in-memory
//! summaries — is embarrassingly parallel but *skewed*: bucket sizes and
//! per-column sketch lengths vary by orders of magnitude, so a static
//! even partition of the index space serializes on the unlucky worker.
//! Prior to this crate every parallel call site spawned fresh
//! `std::thread::scope` workers with exactly that static split.
//!
//! [`ThreadPool`] fixes both costs:
//!
//! * **Persistent**: worker threads are spawned once (default count from
//!   [`std::thread::available_parallelism`]) and reused across rounds, so
//!   a pipeline run pays thread start-up once, not once per phase.
//! * **Scoped**: [`ThreadPool::run`] accepts a *borrowing* closure — it
//!   blocks until every worker has finished the round, which is what
//!   makes handing a non-`'static` closure to long-lived threads sound
//!   (the one `unsafe` in this crate, see `run`).
//! * **Dynamic**: [`ThreadPool::par_for`] and [`ThreadPool::par_fold`]
//!   deal out fixed-size chunks of an index range from a shared atomic
//!   cursor, so fast workers steal the tail of the range instead of
//!   idling behind a skewed static partition.
//!
//! No external dependencies; the registry is unreachable in this build
//! environment (see `vendor/`).

use std::ops::Range;

/// Minimum estimated elementary operations per round before the pool
/// beats the caller thread.
///
/// One epoch hand-off (lock, condvar broadcast, workers wake, drain,
/// final notify) costs on the order of tens of microseconds; at roughly
/// a few ops per nanosecond the round needs ~10⁵–10⁶ elementary
/// operations before the workers repay that. `2¹⁸ ≈ 262k` sits at the
/// conservative end: small pipeline workloads (the bench baseline's
/// 2000×1000 synthetic) stay serial, while anything that takes
/// milliseconds parallelizes. Tuned against the `phase2_speedup` sweep
/// in `BENCH_pipeline.json`, which recorded 0.60–0.74× "speedups" on
/// exactly these small inputs before the cutoff existed.
pub const SERIAL_CUTOFF: u64 = 1 << 18;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;

/// Type-erased borrowed task; only dereferenced while the submitting
/// `run` call is blocked, which keeps the borrow alive.
#[derive(Clone, Copy)]
struct Task(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from any thread are fine)
// and `run` guarantees it outlives every dereference by blocking until
// all workers finish the round.
unsafe impl Send for Task {}

struct State {
    /// Round counter; workers run one task per epoch bump.
    epoch: u64,
    task: Option<Task>,
    /// Workers still executing the current round.
    active: usize,
    /// A worker's task panicked this round.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new epoch.
    work: Condvar,
    /// The submitter waits here for `active == 0`.
    done: Condvar,
}

/// A persistent pool of `threads() - 1` worker threads; the calling
/// thread participates in every round as worker 0.
pub struct ThreadPool {
    shared: std::sync::Arc<Shared>,
    /// Serializes concurrent `run` calls (the pool runs one round at a time).
    submit: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool with `n_threads` total workers (including the
    /// caller). `0` means auto: [`std::thread::available_parallelism`].
    pub fn new(n_threads: usize) -> Self {
        let threads = if n_threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            n_threads
        };
        let shared = std::sync::Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                task: None,
                active: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|idx| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sfa-par-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            submit: Mutex::new(()),
            handles,
            threads,
        }
    }

    /// Total parallelism: background workers plus the calling thread.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(w)` once for every worker index `w in 0..threads()`,
    /// blocking until all calls return. The closure may borrow from the
    /// caller's stack. Panics (after the round drains) if any call
    /// panicked.
    pub fn run<F: Fn(usize) + Sync>(&self, f: F) {
        if self.threads == 1 {
            f(0);
            return;
        }
        let _round = lock(&self.submit);
        let erased: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: only the lifetime is widened. The pointer is
        // dereferenced exclusively between the epoch bump below and the
        // `active == 0` wait, and this function does not return (or drop
        // `f`) until that wait completes — so the borrow is live for
        // every dereference.
        let task = Task(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(erased)
        });
        {
            let mut st = lock(&self.shared.state);
            st.task = Some(task);
            st.active = self.threads - 1;
            st.panicked = false;
            st.epoch += 1;
            self.shared.work.notify_all();
        }
        // The caller is worker 0; run its share before blocking.
        let caller = catch_unwind(AssertUnwindSafe(|| f(0)));
        let worker_panicked = {
            let mut st = lock(&self.shared.state);
            while st.active > 0 {
                st = wait(&self.shared.done, st);
            }
            st.task = None;
            st.panicked
        };
        match caller {
            Err(payload) => resume_unwind(payload),
            Ok(()) if worker_panicked => panic!("sfa-par worker panicked"),
            Ok(()) => {}
        }
    }

    /// A load-balancing chunk size for `n_items` of roughly uniform
    /// cost: ~8 chunks per worker, never zero.
    #[inline]
    pub fn chunk_for(&self, n_items: usize) -> usize {
        (n_items / (self.threads * 8)).max(1)
    }

    /// Whether a round of `estimated_ops` elementary operations is worth
    /// dispatching to the pool at all (see [`SERIAL_CUTOFF`]). Callers
    /// that can estimate their work use this (or
    /// [`par_fold_bounded`](Self::par_fold_bounded)) to fall back to the
    /// caller thread on small inputs, where epoch/condvar hand-off costs
    /// more than the work itself.
    #[inline]
    pub fn worth_parallel(&self, estimated_ops: u64) -> bool {
        self.threads > 1 && estimated_ops >= SERIAL_CUTOFF
    }

    /// [`par_fold`](Self::par_fold) with a serial fallback: folds on the
    /// caller thread when `estimated_ops` is below [`SERIAL_CUTOFF`].
    /// Callers already merge the returned accumulators commutatively, so
    /// collapsing to one accumulator never changes the merged result.
    pub fn par_fold_bounded<T, I, F>(
        &self,
        n_items: usize,
        chunk: usize,
        estimated_ops: u64,
        init: I,
        fold: F,
    ) -> Vec<T>
    where
        T: Send,
        I: Fn(usize) -> T + Sync,
        F: Fn(&mut T, Range<usize>) + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        if !self.worth_parallel(estimated_ops) {
            let mut acc = init(0);
            if n_items > 0 {
                fold(&mut acc, 0..n_items);
            }
            return vec![acc];
        }
        self.par_fold(n_items, chunk, init, fold)
    }

    /// Dynamically-scheduled parallel loop over `0..n_items`: workers
    /// repeatedly claim the next `chunk`-sized index range from a shared
    /// atomic cursor and call `f(range)` until the range is exhausted.
    pub fn par_for<F: Fn(Range<usize>) + Sync>(&self, n_items: usize, chunk: usize, f: F) {
        assert!(chunk > 0, "chunk size must be positive");
        if n_items == 0 {
            return;
        }
        if self.threads == 1 || n_items <= chunk {
            f(0..n_items);
            return;
        }
        let cursor = AtomicUsize::new(0);
        self.run(|_| loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= n_items {
                break;
            }
            f(start..n_items.min(start + chunk));
        });
    }

    /// Like [`par_for`](Self::par_for), but each worker folds its chunks
    /// into a private accumulator created by `init(worker)`. Returns the
    /// accumulators of every worker that claimed at least one chunk, in
    /// unspecified order — callers must merge commutatively.
    pub fn par_fold<T, I, F>(&self, n_items: usize, chunk: usize, init: I, fold: F) -> Vec<T>
    where
        T: Send,
        I: Fn(usize) -> T + Sync,
        F: Fn(&mut T, Range<usize>) + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        if self.threads == 1 || n_items <= chunk {
            let mut acc = init(0);
            if n_items > 0 {
                fold(&mut acc, 0..n_items);
            }
            return vec![acc];
        }
        let cursor = AtomicUsize::new(0);
        let out = Mutex::new(Vec::with_capacity(self.threads));
        self.run(|worker| {
            let mut acc = None;
            loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n_items {
                    break;
                }
                let acc = acc.get_or_insert_with(|| init(worker));
                fold(acc, start..n_items.min(start + chunk));
            }
            if let Some(acc) = acc {
                out.lock().unwrap().push(acc);
            }
        });
        out.into_inner().unwrap()
    }

    /// Chunked map-reduce: `par_fold` followed by a left fold of the
    /// per-worker accumulators with `reduce`. Because accumulator order
    /// is unspecified, `reduce` must be commutative and associative
    /// (all the pipeline's merges — min, union, addition — are).
    pub fn par_map_reduce<T, I, F, R>(
        &self,
        n_items: usize,
        chunk: usize,
        init: I,
        fold: F,
        reduce: R,
    ) -> T
    where
        T: Send,
        I: Fn(usize) -> T + Sync,
        F: Fn(&mut T, Range<usize>) + Sync,
        R: Fn(T, T) -> T,
    {
        let mut locals = self.par_fold(n_items, chunk, &init, fold).into_iter();
        let first = locals.next().unwrap_or_else(|| init(0));
        locals.fold(first, reduce)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Locks ignoring poisoning: every critical section in this module
/// leaves `State` consistent (panics are caught and recorded as a flag),
/// so a poisoned mutex carries no torn state.
fn lock<'a, T>(mutex: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, guard: std::sync::MutexGuard<'a, T>) -> std::sync::MutexGuard<'a, T> {
    cv.wait(guard)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn worker_loop(shared: &Shared, worker: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let task = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > seen_epoch {
                    seen_epoch = st.epoch;
                    break st.task.expect("task set for new epoch");
                }
                st = wait(&shared.work, st);
            }
        };
        // SAFETY: the submitter blocks in `run` until this worker
        // decrements `active` below, so the borrow behind the pointer is
        // still live here.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*task.0)(worker) }));
        let mut st = lock(&shared.state);
        if result.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn auto_pool_has_at_least_one_thread() {
        let pool = ThreadPool::new(0);
        assert!(pool.threads() >= 1);
        assert_eq!(
            pool.threads(),
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
    }

    #[test]
    fn run_visits_every_worker_once() {
        for threads in [1, 2, 4, 7] {
            let pool = ThreadPool::new(threads);
            let visits = AtomicU64::new(0);
            pool.run(|w| {
                assert!(w < threads);
                visits.fetch_add(1 << (8 * w as u64), Ordering::Relaxed);
            });
            let v = visits.load(Ordering::Relaxed);
            for w in 0..threads {
                assert_eq!((v >> (8 * w)) & 0xff, 1, "worker {w} ran once");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_rounds() {
        let pool = ThreadPool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * 3);
    }

    #[test]
    fn par_for_covers_each_index_exactly_once() {
        for threads in [1, 2, 4, 7] {
            for n in [0usize, 1, 5, 64, 1000] {
                let pool = ThreadPool::new(threads);
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                pool.par_for(n, 7, |range| {
                    for i in range {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            }
        }
    }

    #[test]
    fn par_fold_sums_match_sequential() {
        for threads in [1, 2, 4, 7] {
            let pool = ThreadPool::new(threads);
            let locals = pool.par_fold(
                1000,
                13,
                |_| 0u64,
                |acc, range| {
                    for i in range {
                        *acc += i as u64;
                    }
                },
            );
            assert!(locals.len() <= threads);
            let total: u64 = locals.into_iter().sum();
            assert_eq!(total, (0..1000u64).sum());
        }
    }

    #[test]
    fn par_map_reduce_handles_skewed_costs() {
        let pool = ThreadPool::new(4);
        // Quadratic cost in the index: a static split would serialize on
        // the last worker; dynamic chunks just need the sum to be right.
        let total = pool.par_map_reduce(
            200,
            1,
            |_| 0u64,
            |acc, range| {
                for i in range {
                    let mut s = 0u64;
                    for j in 0..=(i as u64) {
                        s = s.wrapping_add(j);
                    }
                    *acc += s;
                }
            },
            |a, b| a + b,
        );
        let expected: u64 = (0..200u64).map(|i| i * (i + 1) / 2).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn empty_range_returns_single_init() {
        let pool = ThreadPool::new(4);
        let locals = pool.par_fold(0, 8, |_| 41u32, |_, _| unreachable!());
        assert_eq!(locals, vec![41]);
        assert_eq!(pool.par_map_reduce(0, 8, |_| 7u32, |_, _| (), |a, _| a), 7);
    }

    #[test]
    fn worth_parallel_respects_cutoff_and_pool_size() {
        let solo = ThreadPool::new(1);
        assert!(!solo.worth_parallel(u64::MAX));
        let pool = ThreadPool::new(4);
        assert!(!pool.worth_parallel(SERIAL_CUTOFF - 1));
        assert!(pool.worth_parallel(SERIAL_CUTOFF));
    }

    #[test]
    fn bounded_fold_matches_unbounded_results() {
        let pool = ThreadPool::new(4);
        for ops in [0u64, SERIAL_CUTOFF, u64::MAX] {
            let locals = pool.par_fold_bounded(
                1000,
                13,
                ops,
                |_| 0u64,
                |acc, range| {
                    for i in range {
                        *acc += i as u64;
                    }
                },
            );
            assert_eq!(locals.iter().sum::<u64>(), (0..1000u64).sum(), "ops {ops}");
        }
        // Serial path still returns one init on an empty range.
        let locals = pool.par_fold_bounded(0, 8, 0, |_| 41u32, |_, _| unreachable!());
        assert_eq!(locals, vec![41]);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(3);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.run(|w| {
                if w == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(res.is_err());
        // The pool must remain usable after a panicked round.
        let total = AtomicU64::new(0);
        pool.run(|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 3);
    }
}
