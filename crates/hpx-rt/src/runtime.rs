//! The work-stealing task scheduler.
//!
//! This is the substrate that stands in for the HPX thread manager: a fixed
//! pool of OS worker threads, each owning a lock-free LIFO deque
//! (crossbeam), a shared FIFO injector for external submissions, and a
//! sleep/wake protocol on a condvar. Two properties matter for the paper's
//! experiments:
//!
//! * **Asynchronous tasking** — [`Runtime::spawn`] never blocks; futures and
//!   dataflow nodes (see [`crate::future`], [`crate::dataflow`]) schedule
//!   continuations as plain tasks.
//! * **Help-first blocking** — a worker that blocks on a future or latch
//!   does not sleep; it executes other ready tasks ([`try_help`]). This is
//!   the Rust substitute for HPX's suspendable user-level threads and it is
//!   what keeps nested waits deadlock-free.

use crossbeam::deque::{Injector, Steal, Stealer, Worker as Deque};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::stats::{PaddedWorkerStats, RuntimeStats, WorkerStats};
use crate::task::Task;

thread_local! {
    /// Pointer to the worker context of the current thread, if it is a pool
    /// worker. Set for the duration of `worker_main`.
    static CURRENT_WORKER: Cell<*const WorkerCtx> = const { Cell::new(std::ptr::null()) };
}

/// How long an idle worker sleeps before re-checking the queues. A backstop
/// only: [`WorkerCtx::park`] registers as a sleeper *before* its last look
/// at the queues, so a push either is seen by that look or sees the sleeper
/// and notifies it.
const PARK_TIMEOUT: Duration = Duration::from_millis(2);

/// How long a *waiting* thread (blocked in a future/latch with nothing to
/// help with) sleeps before re-polling its wait condition and the queues.
pub(crate) const WAIT_POLL: Duration = Duration::from_micros(200);

pub(crate) struct RuntimeInner {
    injector: Injector<Task>,
    stealers: Box<[Stealer<Task>]>,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    /// Tasks spawned but not yet finished running; used by `wait_idle`.
    pending: AtomicUsize,
    pub(crate) stats: Box<[PaddedWorkerStats]>,
    nthreads: usize,
}

struct WorkerCtx {
    inner: Arc<RuntimeInner>,
    index: usize,
    local: Deque<Task>,
    /// xorshift state for steal-victim rotation.
    rng: Cell<u64>,
}

/// Outcome of a single help attempt while blocked (see [`try_help`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Help {
    /// A task was found and executed; re-check the wait condition.
    Helped,
    /// This is a pool worker but no task was runnable.
    Idle,
    /// The current thread is not a worker of any runtime.
    NotWorker,
}

/// A fixed-size work-stealing thread pool.
///
/// Dropping the runtime drains all outstanding tasks, then joins the worker
/// threads. Benchmarks create one `Runtime` per thread-count configuration.
///
/// ```
/// let rt = hpx_rt::Runtime::new(4);
/// let fut = rt.spawn_future(|| 21 * 2);
/// assert_eq!(fut.get(), 42);
/// ```
pub struct Runtime {
    inner: Arc<RuntimeInner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Runtime {
    /// Creates a pool with `nthreads` workers (clamped to at least 1).
    pub fn new(nthreads: usize) -> Self {
        Self::with_name(nthreads, "hpx-worker")
    }

    /// Creates a pool whose worker threads are named `{prefix}-{index}`.
    pub fn with_name(nthreads: usize, prefix: &str) -> Self {
        let nthreads = nthreads.max(1);
        let deques: Vec<Deque<Task>> = (0..nthreads).map(|_| Deque::new_lifo()).collect();
        let stealers: Box<[Stealer<Task>]> = deques.iter().map(|d| d.stealer()).collect();
        let stats: Box<[PaddedWorkerStats]> = (0..nthreads)
            .map(|_| PaddedWorkerStats::new(WorkerStats::default()))
            .collect();
        let inner = Arc::new(RuntimeInner {
            injector: Injector::new(),
            stealers,
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            stats,
            nthreads,
        });
        let mut threads = Vec::with_capacity(nthreads);
        for (index, local) in deques.into_iter().enumerate() {
            let inner = Arc::clone(&inner);
            let name = format!("{prefix}-{index}");
            threads.push(
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || worker_main(inner, index, local))
                    .expect("failed to spawn worker thread"),
            );
        }
        Runtime { inner, threads }
    }

    /// Number of worker threads in the pool.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.inner.nthreads
    }

    /// Schedules `f` to run on the pool. Never blocks.
    ///
    /// Panics inside `f` are caught and counted in [`RuntimeStats`]; use
    /// [`Runtime::spawn_future`] when the caller needs the result or the
    /// panic propagated.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.inner.spawn_task(Task::new(f));
    }

    /// Schedules `f` and returns a [`Future`](crate::Future) for its result.
    /// A panic in `f` is captured and re-thrown by `Future::get`.
    pub fn spawn_future<R, F>(&self, f: F) -> crate::Future<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let (promise, future) = crate::future::channel();
        self.spawn(
            move || match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
                Ok(v) => promise.set_value(v),
                Err(p) => promise.set_panic(p),
            },
        );
        future
    }

    /// Blocks until every spawned task has finished. Intended for tests and
    /// stats collection, not as a synchronization primitive (use futures or
    /// latches for that).
    pub fn wait_idle(&self) {
        while self.inner.pending.load(Ordering::Acquire) != 0 {
            if try_help() != Help::Helped {
                std::thread::sleep(WAIT_POLL);
            }
        }
    }

    /// Snapshot of scheduler counters.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats::aggregate(&self.inner.stats)
    }

    #[inline]
    pub(crate) fn inner(&self) -> &Arc<RuntimeInner> {
        &self.inner
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Wake everyone until all workers observed the flag and exited.
        for handle in self.threads.drain(..) {
            loop {
                {
                    let _g = self.inner.sleep_lock.lock();
                    self.inner.sleep_cv.notify_all();
                }
                if handle.is_finished() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("threads", &self.inner.nthreads)
            .finish()
    }
}

impl RuntimeInner {
    #[inline]
    pub(crate) fn num_threads(&self) -> usize {
        self.nthreads
    }

    /// Pushes a task: onto the local deque when called from a worker of this
    /// pool (cheap, no contention), otherwise onto the shared injector.
    pub(crate) fn spawn_task(&self, task: Task) {
        self.pending.fetch_add(1, Ordering::AcqRel);
        let leftover = CURRENT_WORKER.with(|c| {
            let p = c.get();
            if !p.is_null() {
                // SAFETY: the pointer is valid for the duration of
                // worker_main on this thread.
                let ctx = unsafe { &*p };
                if std::ptr::eq(&*ctx.inner, self) {
                    ctx.local.push(task);
                    return None;
                }
            }
            Some(task)
        });
        if let Some(task) = leftover {
            self.injector.push(task);
        }
        self.notify_one();
    }

    /// True when the injector or any worker's deque holds a task.
    fn work_queued(&self) -> bool {
        !self.injector.is_empty() || self.stealers.iter().any(|s| !s.is_empty())
    }

    fn notify_one(&self) {
        // Called right after a push. The fence pairs with the one after the
        // sleeper's registration in `park`: either this load sees the
        // sleeper, or the sleeper's queue re-check sees the task.
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.sleep_lock.lock();
            self.sleep_cv.notify_one();
        }
    }

    fn task_finished(&self) {
        self.pending.fetch_sub(1, Ordering::AcqRel);
    }
}

impl WorkerCtx {
    #[inline]
    fn next_victim(&self, n: usize) -> usize {
        // xorshift64*
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        (x % n as u64) as usize
    }

    fn find_task(&self) -> Option<Task> {
        if let Some(t) = self.local.pop() {
            return Some(t);
        }
        // Shared injector next: FIFO order keeps external submissions fair.
        loop {
            match self.inner.injector.steal_batch_and_pop(&self.local) {
                Steal::Success(t) => return Some(t),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        // Steal from a sibling, starting at a random victim.
        let n = self.inner.stealers.len();
        if n <= 1 {
            return None;
        }
        let start = self.next_victim(n);
        let mut retry = true;
        while retry {
            retry = false;
            for k in 0..n {
                let i = (start + k) % n;
                if i == self.index {
                    continue;
                }
                match self.inner.stealers[i].steal_batch_and_pop(&self.local) {
                    Steal::Success(t) => {
                        self.inner.stats[self.index]
                            .steals
                            .fetch_add(1, Ordering::Relaxed);
                        return Some(t);
                    }
                    Steal::Empty => {}
                    Steal::Retry => retry = true,
                }
            }
        }
        None
    }

    fn run(&self, task: Task, helped: bool) {
        let stats = &self.inner.stats[self.index];
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.run())).is_err() {
            stats.panics.fetch_add(1, Ordering::Relaxed);
        }
        if helped {
            stats.helped.fetch_add(1, Ordering::Relaxed);
        } else {
            stats.executed.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.task_finished();
    }

    fn park(&self) {
        let mut guard = self.inner.sleep_lock.lock();
        // Register first, then look at every queue once more, all under
        // the sleep lock. A task pushed before the look is found by it; a
        // push after it sees `sleepers > 0` and notifies, and the notify
        // cannot slip in before the wait because it needs this lock. That
        // includes a sibling's *local* deque: a successor node a running
        // worker spawns there is exactly what an idle worker should steal.
        self.inner.sleepers.fetch_add(1, Ordering::SeqCst);
        // Orders the registration before the queue reads below; pairs with
        // the fence between push and sleeper check in `spawn_task`.
        fence(Ordering::SeqCst);
        let stats = &self.inner.stats[self.index];
        if !self.inner.work_queued() && !self.inner.shutdown.load(Ordering::Acquire) {
            stats.parks.fetch_add(1, Ordering::Relaxed);
            let slept = self.inner.sleep_cv.wait_for(&mut guard, PARK_TIMEOUT);
            if slept.timed_out() && self.inner.work_queued() {
                stats.late_wakes.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inner.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_main(inner: Arc<RuntimeInner>, index: usize, local: Deque<Task>) {
    let ctx = WorkerCtx {
        inner,
        index,
        local,
        rng: Cell::new(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1) | 1),
    };
    CURRENT_WORKER.with(|c| c.set(&ctx as *const _));
    loop {
        if let Some(task) = ctx.find_task() {
            ctx.run(task, false);
            continue;
        }
        if ctx.inner.shutdown.load(Ordering::Acquire) {
            // Queues were empty when we looked; siblings drain their own
            // local deques, so it is safe to leave.
            break;
        }
        ctx.park();
    }
    CURRENT_WORKER.with(|c| c.set(std::ptr::null()));
}

/// Attempts to run one ready task on the current thread. Used by every
/// blocking primitive (futures, latches, barriers) so that a blocked worker
/// keeps the pool saturated instead of sleeping — the stand-in for HPX's
/// suspended user-threads.
pub(crate) fn try_help() -> Help {
    CURRENT_WORKER.with(|c| {
        let p = c.get();
        if p.is_null() {
            return Help::NotWorker;
        }
        // SAFETY: set/cleared by worker_main on this thread.
        let ctx = unsafe { &*p };
        match ctx.find_task() {
            Some(t) => {
                ctx.run(t, true);
                Help::Helped
            }
            None => Help::Idle,
        }
    })
}

/// True when the current thread is a pool worker (of any runtime).
pub fn on_worker_thread() -> bool {
    CURRENT_WORKER.with(|c| !c.get().is_null())
}

/// Spawns `f` onto the runtime owning the current worker thread. Returns
/// `false` (without running `f`) when the caller is not a pool worker.
/// The analogue of calling `hpx::async` from inside an HPX thread.
pub fn spawn_on_current<F>(f: F) -> bool
where
    F: FnOnce() + Send + 'static,
{
    CURRENT_WORKER.with(|c| {
        let p = c.get();
        if p.is_null() {
            return false;
        }
        // SAFETY: set/cleared by worker_main on this thread.
        let ctx = unsafe { &*p };
        ctx.inner.spawn_task(Task::new(f));
        true
    })
}

/// Spawn a task that borrows stack data.
///
/// # Safety
///
/// Caller must join (e.g. via a latch) before the borrowed data dies; see
/// [`Task::new_unchecked`].
pub(crate) unsafe fn spawn_unchecked<'a, F>(inner: &RuntimeInner, f: F)
where
    F: FnOnce() + Send + 'a,
{
    // SAFETY: forwarded contract.
    let task = unsafe { Task::new_unchecked(f) };
    inner.spawn_task(task);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn spawn_runs_tasks() {
        let rt = Runtime::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..1000 {
            let c = Arc::clone(&counter);
            rt.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn nested_spawn_from_worker() {
        let rt = Runtime::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        let fut = {
            let c = Arc::clone(&counter);
            rt.spawn_future(move || {
                // Spawning from a worker goes through the local deque path.
                for _ in 0..100 {
                    let c2 = Arc::clone(&c);
                    crate::runtime::CURRENT_WORKER.with(|cur| {
                        assert!(!cur.get().is_null(), "must run on a worker");
                    });
                    // Use try_help to exercise the help path too.
                    let _ = try_help();
                    c2.fetch_add(1, Ordering::Relaxed);
                }
                7u32
            })
        };
        assert_eq!(fut.get(), 7);
        rt.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn panicking_task_is_counted_and_pool_survives() {
        let rt = Runtime::new(2);
        rt.spawn(|| panic!("boom"));
        rt.wait_idle();
        assert_eq!(rt.stats().task_panics, 1);
        // Pool still works.
        let fut = rt.spawn_future(|| 5);
        assert_eq!(fut.get(), 5);
    }

    #[test]
    fn single_thread_pool() {
        let rt = Runtime::new(1);
        let fut = rt.spawn_future(|| (0..100u64).sum::<u64>());
        assert_eq!(fut.get(), 4950);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        let rt = Runtime::new(0);
        assert_eq!(rt.num_threads(), 1);
    }

    #[test]
    fn drop_drains_outstanding_tasks() {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let rt = Runtime::new(2);
            for _ in 0..500 {
                let c = Arc::clone(&counter);
                rt.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop immediately: workers must drain before joining.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn stats_display() {
        let rt = Runtime::new(2);
        rt.spawn(|| {});
        rt.wait_idle();
        let s = rt.stats();
        let text = s.to_string();
        assert!(text.contains("workers=2"), "{text}");
    }
}
