//! The work-stealing task scheduler.
//!
//! This is the substrate that stands in for the HPX thread manager: a fixed
//! pool of threads, each owning a LIFO deque, a shared FIFO injector for
//! external submissions, and a sleep/wake protocol on a condvar. (The
//! deques have crossbeam's interface but are **not lock-free** in this
//! tree: `crates/compat/crossbeam` is a `Mutex<VecDeque>` stand-in whose
//! `is_empty`, `pop` and `steal_batch_and_pop` each take a lock.) Two
//! properties matter for the paper's experiments:
//!
//! * **Asynchronous tasking** — [`Runtime::spawn`] never blocks; dataflow
//!   nodes (see [`crate::dep`]) schedule continuations as plain tasks.
//! * **Help-first blocking** — a worker that blocks on a future or latch
//!   does not sleep; it executes other ready tasks ([`try_help`]). This is
//!   the Rust substitute for HPX's suspendable user-level threads and it is
//!   what keeps nested waits deadlock-free.
//!
//! # Who computes: `n` threads means `n`
//!
//! `Runtime::new(n)` is `n` computing threads **counting the one that
//! waits on it** — `#pragma omp parallel`'s master is a member of its
//! team, and `hpx_main` is an HPX thread on one of the `n` workers whose
//! blocked `future::get` hands the core to other tasks. So the runtime
//! starts `n - 1` background workers and keeps the n-th deque and counter
//! block as the **caller slot** ([`SlotHold`]). A thread that is not a
//! worker and blocks on one of the crate's primitives — `SharedFuture`
//! `wait`/`get`, `Latch`, `Event`,
//! [`Runtime::wait_idle`], the chunk engine's join, all through
//! [`block_until`] — claims the free slot for the duration of the wait, and
//! inside it is a worker in every respect: its own deque (what the tasks
//! it runs spawn lands there), steals, [`on_worker_thread`] true, panics
//! caught and counted, its tasks counted as `tasks_helped`. Which runtime
//! it helps is the one it last handed work to (`spawn`, a frame with a
//! runtime, a chunked loop's helpers) or named
//! ([`Runtime::help_while_blocked`], `wait_idle`). A second outside thread
//! blocking on the same runtime finds the slot taken and sleeps until its
//! primitive completes. `Runtime::new(1)` is one background worker and no
//! slot, so that a runtime nobody waits on still makes progress.
//!
//! What a blocked thread runs sits on its stack on top of the wait: such a
//! task must not itself wait for something that thread only does once the
//! wait has returned (a worker helping inside a nested wait has the same
//! limit; HPX's suspendable threads do not).
//!
//! # Sleeping, waking, and who may spin
//!
//! Putting a thread to sleep and waking it again costs two futex calls and
//! a trip through the OS scheduler — more than a small task's whole body —
//! so the two places where a thread runs out of work each poll for a
//! *bounded* time first, and nowhere else does anything spin:
//!
//! * **A worker that has run a task since it last parked lingers**
//!   ([`WorkerCtx::linger`]): it keeps looking at the queues for at most
//!   [`LINGER`] before it parks. Work comes in bursts — a fork-join caller issues its next loop microseconds
//!   after the last one joined, a finished dataflow node's successor is
//!   pushed by a sibling — so the worker that just ran a task is the one
//!   most likely to be needed next.
//! * **A joining thread spins for its own share**
//!   ([`block_until`]'s `spin`): the caller of a chunked loop runs
//!   chunks itself and then waits for the stragglers for no longer than
//!   its own chunks took, capped at [`LINGER`], before it blocks.
//!
//! * **A blocked thread that ran a task lingers likewise**
//!   ([`block_until`]): a worker or slot holder that helped polls its
//!   wait condition and the queues for at most [`LINGER`] after its last
//!   task before it sleeps on the primitive.
//!
//! The invariant: **an idle runtime never spins.** A worker that woke
//! because [`PARK_TIMEOUT`] ran out, or was notified and lost the task to a
//! sibling, has not run a task and parks again at once; so after its last
//! task a runtime pays one linger per worker and from then on one look at
//! the queues per worker per `PARK_TIMEOUT`, whatever its neighbours do.
//! The slot keeps to the same terms: a holder with nothing to run sleeps
//! on the primitive it waits for — whose completion wakes it at once,
//! while a task pushed meanwhile waits for a worker or for the end of the
//! nap — for [`WAIT_POLL`] the first time and twice as long each time it
//! wakes to empty queues, up to `PARK_TIMEOUT`; a free slot costs nothing.
//! [`RuntimeStats`] counts `lingers` against `linger_hits` (the lingers
//! that found a task) and `parks` (a worker's sleeps on the idle condvar
//! and a helping thread's naps alike).
//!
//! # Who may sleep, who must wake
//!
//! Every blocking primitive of the crate (futures, latches, events,
//! [`Runtime::wait_idle`]) waits through [`block_until`], the one
//! place the blocked-thread protocol is written, and sleeps on a
//! [`Blocked`]: a condvar that counts its sleepers. A thread sleeps only
//! after it registered there under the primitive's lock and looked at the
//! condition once more; whoever completes the primitive wakes **only if
//! the count is non-zero**. In a dataflow graph almost every completion
//! has frames for consumers and no blocked thread at all, and a
//! `notify_all` on a `std`-backed condvar is a futex system call whether
//! or not anybody listens — per task, that was more than the scheduling
//! itself.

use crossbeam::deque::{Injector, Steal, Stealer, Worker as Deque};
use parking_lot::{Condvar, Mutex};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crate::stats::{PaddedWorkerStats, RuntimeStats, WorkerStats};
use crate::task::Task;

thread_local! {
    /// Pointer to the worker context of the current thread, if it is a pool
    /// worker. Set for the duration of `worker_main`.
    static CURRENT_WORKER: Cell<*const WorkerCtx> = const { Cell::new(std::ptr::null()) };
    /// The runtime this thread, not being a worker, computes for while it
    /// is blocked (see [`SlotHold`]): the one it last handed work to or
    /// named in a wait.
    static HELPS: RefCell<Weak<RuntimeInner>> = const { RefCell::new(Weak::new()) };
}

/// How long an idle worker sleeps before re-checking the queues. A backstop
/// only: [`WorkerCtx::park`] registers as a sleeper *before* its last look
/// at the queues, so a push either is seen by that look or sees the sleeper
/// and notifies it.
const PARK_TIMEOUT: Duration = Duration::from_millis(2);

/// How long a thread with nothing to do may poll before it goes to sleep:
/// a worker that has just run a task looks at the queues for this long
/// before it parks, and a joining thread spins for its stragglers for at
/// most this long before it blocks (see the module docs). Of the order of
/// one park/unpark round trip — polling for longer than sleeping would
/// have cost buys nothing.
pub(crate) const LINGER: Duration = Duration::from_micros(50);

/// How long a *waiting* worker or slot holder (blocked in a future/latch
/// with nothing to help with) first sleeps before re-polling its wait
/// condition and the queues; doubled per fruitless nap up to
/// [`PARK_TIMEOUT`]. A task pushed while it naps wakes nobody, so the
/// first nap is about what a wake-up would have taken (at 200 us
/// `jac_converge`, whose ~200 us nodes leave the helper idle between
/// loops, ran 7 % slower under Dataflow than at 50 us).
const WAIT_POLL: Duration = Duration::from_micros(50);

pub(crate) struct RuntimeInner {
    /// For [`RuntimeInner::helped_by_caller`], which only has `&self`.
    me: Weak<RuntimeInner>,
    injector: Injector<Task>,
    stealers: Box<[Stealer<Task>]>,
    /// The caller slot's deque (the last of `stealers` is its other end):
    /// there while the slot is free, `None` while a blocked thread holds
    /// it, and always on a runtime of one thread, which has no slot.
    slot: Mutex<Option<Deque<Task>>>,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    sleepers: AtomicUsize,
    /// Evidence for `late_wakes`, nothing else: notifies announced, ever
    /// (bumped by a pusher that saw a sleeper, before it takes
    /// `sleep_lock`), and threads between pushing a task and having dealt
    /// with the sleepers. A sleeper whose timeout runs out with a task
    /// queued has lost no wake-up if one was announced while it slept or a
    /// pusher is still on its way to announcing one.
    wake_intents: AtomicUsize,
    spawning: AtomicUsize,
    shutdown: AtomicBool,
    /// Tasks spawned but not yet finished running; used by `wait_idle`.
    pending: AtomicUsize,
    /// Where `wait_idle` sleeps, and what the task that takes `pending`
    /// to zero wakes.
    idle_lock: Mutex<()>,
    idle: Blocked,
    pub(crate) stats: Box<[PaddedWorkerStats]>,
    /// Chunks of chunked loops that the joining thread ran itself
    /// (it need not be a worker, so no worker's counter block fits).
    pub(crate) caller_chunks: AtomicU64,
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

/// A fixed-size work-stealing thread pool of `n` threads **counting the
/// one that waits on it**: `n - 1` background workers and a caller slot
/// (see the module docs).
///
/// Dropping the runtime drains all outstanding tasks, then joins the worker
/// threads. Benchmarks create one `Runtime` per thread-count configuration.
///
/// ```
/// let rt = hpx_rt::Runtime::new(4);
/// let fut = hpx_rt::dataflow(&rt, |()| 21 * 2, ());
/// assert_eq!(fut.get(), 42);
/// ```
pub struct Runtime {
    inner: Arc<RuntimeInner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Runtime {
    /// Creates a pool of `nthreads` computing threads (clamped to at least
    /// 1): `nthreads - 1` background workers plus the caller slot, or one
    /// worker and no slot for `nthreads == 1`, so that a runtime nobody
    /// waits on still makes progress.
    pub fn new(nthreads: usize) -> Self {
        Self::with_name(nthreads, "hpx-worker")
    }

    /// [`Runtime::new`] with worker threads named `{prefix}-{index}`.
    pub fn with_name(nthreads: usize, prefix: &str) -> Self {
        let (inner, deques) = RuntimeInner::new(nthreads.max(1));
        let mut threads = Vec::with_capacity(deques.len());
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

    /// Number of threads that compute on the pool: the background workers
    /// and the caller slot.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.inner.nthreads
    }

    /// Names this runtime as the one the calling thread computes for the
    /// next time it blocks — for a wait on work some other thread
    /// submitted; `spawn`, `schedule_after` and the chunked loops name
    /// theirs themselves.
    pub fn help_while_blocked(&self) {
        self.inner.helped_by_caller();
    }

    /// Schedules `f` to run on the pool. Never blocks.
    ///
    /// Panics inside `f` are caught and counted in [`RuntimeStats`]; use a
    /// zero-input [`dataflow`](crate::dataflow) when the caller needs the
    /// result or the panic propagated.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.inner.spawn_task(Task::new(f));
    }

    /// Blocks until every spawned task has finished. Intended for tests and
    /// stats collection, not as a synchronization primitive (use futures or
    /// latches for that).
    pub fn wait_idle(&self) {
        let inner = &*self.inner;
        inner.helped_by_caller();
        block_until(&inner.idle_lock, &inner.idle, Duration::ZERO, |_| {
            inner.pending.load(Ordering::SeqCst) == 0
        });
    }

    /// Snapshot of scheduler counters.
    pub fn stats(&self) -> RuntimeStats {
        let caller_chunks = self.inner.caller_chunks.load(Ordering::Relaxed);
        RuntimeStats::aggregate(&self.inner.stats, caller_chunks)
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
    /// The shared state of a pool of `nthreads` threads and the deque each
    /// background worker is to own; the last of the `nthreads` deques
    /// stays behind as the caller slot's.
    fn new(nthreads: usize) -> (Arc<Self>, Vec<Deque<Task>>) {
        let mut deques: Vec<Deque<Task>> = (0..nthreads).map(|_| Deque::new_lifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let slot = if nthreads > 1 { deques.pop() } else { None };
        let inner = Arc::new_cyclic(|me| RuntimeInner {
            me: me.clone(),
            injector: Injector::new(),
            stealers,
            slot: Mutex::new(slot),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            wake_intents: AtomicUsize::new(0),
            spawning: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
            idle_lock: Mutex::new(()),
            idle: Blocked::default(),
            stats: (0..nthreads)
                .map(|_| PaddedWorkerStats::new(WorkerStats::default()))
                .collect(),
            caller_chunks: AtomicU64::new(0),
            nthreads,
        });
        (inner, deques)
    }

    #[inline]
    pub(crate) fn num_threads(&self) -> usize {
        self.nthreads
    }

    /// Makes this the runtime the current thread helps when it next blocks
    /// outside any pool. One thread-local read when it already is.
    pub(crate) fn helped_by_caller(&self) {
        HELPS.with(|h| {
            if !std::ptr::eq(h.borrow().as_ptr(), self) {
                *h.borrow_mut() = self.me.clone();
            }
        });
    }

    /// Pushes a task: onto the local deque when called from a worker of this
    /// pool (cheap, no contention), otherwise onto the shared injector.
    pub(crate) fn spawn_task(&self, task: Task) {
        self.pending.fetch_add(1, Ordering::AcqRel);
        self.spawning.fetch_add(1, Ordering::SeqCst);
        let mut task = Some(task);
        with_worker(|ctx| {
            if std::ptr::eq(&*ctx.inner, self) {
                ctx.local.push(task.take().expect("pushed once"));
            }
        });
        if let Some(task) = task {
            self.helped_by_caller();
            self.injector.push(task);
        }
        self.notify_one();
        self.spawning.fetch_sub(1, Ordering::SeqCst);
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
            self.wake_intents.fetch_add(1, Ordering::SeqCst);
            let _g = self.sleep_lock.lock();
            self.sleep_cv.notify_one();
        }
    }

    fn task_finished(&self) {
        // `pending` does not change under `idle_lock`, so the sleeper this
        // sees registered may not be asleep yet: passing through the lock
        // it registered under waits until it is.
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1
            && self.idle.count.load(Ordering::SeqCst) > 0
        {
            drop(self.idle_lock.lock());
            self.idle.wake_all();
        }
    }
}

impl WorkerCtx {
    fn new(inner: Arc<RuntimeInner>, index: usize, local: Deque<Task>) -> Self {
        let rng = Cell::new(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1) | 1);
        WorkerCtx {
            inner,
            index,
            local,
            rng,
        }
    }

    #[inline]
    fn stats(&self) -> &WorkerStats {
        &self.inner.stats[self.index]
    }

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
                        self.stats().steals.fetch_add(1, Ordering::Relaxed);
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
        let stats = self.stats();
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

    /// Polls the queues for up to [`LINGER`]. Only for a worker that has
    /// run a task since it last parked. It keeps its core while it polls:
    /// on a host with more runnable threads than cores, `yield_now` hands
    /// the core to whoever is spinning next door for a whole scheduler
    /// slice, and a handoff that should take a microsecond takes
    /// milliseconds; holding on costs the neighbours at most `LINGER` per
    /// task this worker ran.
    fn linger(&self) -> Option<Task> {
        let stats = self.stats();
        stats.lingers.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        while start.elapsed() < LINGER && !self.inner.shutdown.load(Ordering::Acquire) {
            std::hint::spin_loop();
            if let Some(task) = self.find_task() {
                stats.linger_hits.fetch_add(1, Ordering::Relaxed);
                return Some(task);
            }
        }
        None
    }

    fn park(&self) {
        let mut guard = self.inner.sleep_lock.lock();
        // Register first, then look at every queue once more, all under
        // the sleep lock. A task pushed before the look is found by it; a
        // push after it sees `sleepers > 0` and notifies, and the notify
        // cannot slip in before the wait because it needs this lock. That
        // includes a sibling's *local* deque: a successor node a running
        // worker spawns there is exactly what an idle worker should steal.
        let announced = self.inner.wake_intents.load(Ordering::SeqCst);
        self.inner.sleepers.fetch_add(1, Ordering::SeqCst);
        // Orders the registration before the queue reads below; pairs with
        // the fence between push and sleeper check in `spawn_task`.
        fence(Ordering::SeqCst);
        let stats = self.stats();
        if !self.inner.work_queued() && !self.inner.shutdown.load(Ordering::Acquire) {
            stats.parks.fetch_add(1, Ordering::Relaxed);
            let slept = self.inner.sleep_cv.wait_for(&mut guard, PARK_TIMEOUT);
            // A lost wake-up is a task queued for a registered sleeper
            // that nobody is going to notify. A timeout that merely races
            // a notify is not one — sent while this thread waited for a
            // core or for the lock (announced since the baseline, which
            // was read before registering), or owed by a pusher that the
            // host stopped between its push and its look at the sleepers
            // (still `spawning`). What is left is a pusher that finished
            // without seeing this sleeper, whose re-check missed its task.
            // (`spawning` is read before `wake_intents`: a pusher announces
            // before it leaves, so one seen gone has been seen announcing.)
            if slept.timed_out()
                && self.inner.work_queued()
                && self.inner.spawning.load(Ordering::SeqCst) == 0
                && self.inner.wake_intents.load(Ordering::SeqCst) == announced
            {
                stats.late_wakes.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.inner.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_main(inner: Arc<RuntimeInner>, index: usize, local: Deque<Task>) {
    let ctx = WorkerCtx::new(inner, index, local);
    CURRENT_WORKER.with(|c| c.set(&ctx as *const _));
    // True from running a task until the next park: the licence to linger.
    let mut ran_task = false;
    loop {
        let mut found = ctx.find_task();
        if found.is_none() && std::mem::take(&mut ran_task) {
            found = ctx.linger();
        }
        if let Some(task) = found {
            ctx.run(task, false);
            ran_task = true;
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

/// Calls `f` with the current thread's worker context, if it is a pool
/// worker or holds a caller slot.
fn with_worker<R>(f: impl FnOnce(&WorkerCtx) -> R) -> Option<R> {
    let p = CURRENT_WORKER.with(Cell::get);
    // SAFETY: non-null only between `worker_main` (or `SlotHold::enter`)
    // setting it to a context that outlives this call and clearing it, on
    // this thread.
    (!p.is_null()).then(|| f(unsafe { &*p }))
}

/// Attempts to run one ready task on the current thread. Used by every
/// blocking primitive (futures, latches, barriers) so that a blocked worker
/// keeps the pool saturated instead of sleeping — the stand-in for HPX's
/// suspended user-threads.
pub(crate) fn try_help() -> Help {
    with_worker(|ctx| match ctx.find_task() {
        Some(t) => {
            ctx.run(t, true);
            Help::Helped
        }
        None => Help::Idle,
    })
    .unwrap_or(Help::NotWorker)
}

/// The caller slot, held: from here until it is dropped the current
/// thread — not a worker, and about to block on the runtime it last handed
/// work to — is the runtime's n-th worker, with the slot's deque and counter
/// block for its own. Must stay where [`SlotHold::enter`] found it.
struct SlotHold(Option<WorkerCtx>);

impl SlotHold {
    /// Claims the free slot of the runtime this thread helps, if the
    /// thread is not a worker already, there is such a runtime and nobody
    /// else holds its slot.
    fn claim() -> Option<Self> {
        if on_worker_thread() {
            return None;
        }
        let inner = HELPS.with(|h| h.borrow().upgrade())?;
        let local = inner.slot.try_lock()?.take()?;
        let index = inner.nthreads - 1;
        Some(SlotHold(Some(WorkerCtx::new(inner, index, local))))
    }

    fn enter(&self) {
        CURRENT_WORKER.with(|c| c.set(self.0.as_ref().expect("held until dropped")));
    }
}

impl Drop for SlotHold {
    fn drop(&mut self) {
        let ctx = self.0.as_ref().expect("held until dropped");
        // What its tasks left on the deque the workers steal — unless the
        // runtime is shutting down and they may have left already.
        while ctx.inner.shutdown.load(Ordering::Acquire) {
            match ctx.local.pop() {
                Some(task) => ctx.run(task, true),
                None => break,
            }
        }
        CURRENT_WORKER.with(|c| c.set(std::ptr::null()));
        let ctx = self.0.take().expect("held until dropped");
        *ctx.inner.slot.lock() = Some(ctx.local);
    }
}

/// Where [`block_until`] sleeps: a condvar and the number of threads asleep
/// on it (or about to be), so that completing something nobody waits for
/// costs no futex call — the common case in a dataflow graph, where
/// consumers are frames, not blocked threads.
///
/// The rule: a thread registers here **with the lock held, before its last
/// look at the condition**, and whoever makes the condition true looks at
/// the registrations only after having held that lock since (both
/// `SeqCst`). So either the waker's critical section came first and the
/// waiter's look sees the condition, or the waiter's came first and the
/// waker sees it registered — and it is inside `wait` by then, because it
/// gives the lock up only there.
#[derive(Default)]
pub(crate) struct Blocked {
    cv: Condvar,
    count: AtomicUsize,
}

impl Blocked {
    /// Wakes every sleeper, if there is one; returns whether it had to.
    /// For a caller that made the condition true under the sleepers' lock
    /// or has held that lock since.
    pub(crate) fn wake_all(&self) -> bool {
        let sleeping = self.count.load(Ordering::SeqCst) > 0;
        if sleeping {
            self.cv.notify_all();
        }
        sleeping
    }
}

/// Blocks the current thread until `done` holds of the value behind `lock`
/// — the one wait loop behind every blocking primitive of the crate.
///
/// `done` is only ever evaluated with `lock` held, and whoever makes it
/// true must take `lock` before it calls [`Blocked::wake_all`] (or change
/// the value under it), so no wake-up falls between the check and the sleep
/// — and when this returns, that critical section is over. A thread that
/// has to wait and is not a worker first claims the caller slot of the
/// runtime it helps, if that is free (see the module docs). Then, in order
/// of preference, it: runs a ready task if it is a pool worker or holds a
/// slot (help-first; this is what keeps nested waits on a small pool
/// deadlock-free), polls for up to `spin` (a joining thread's bounded wait
/// for its stragglers) or for [`LINGER`] after a task it ran, and only
/// then registers with `blocked` and sleeps — a worker or slot holder for
/// [`WAIT_POLL`] and up at a time, because a task it could help with wakes
/// nobody who is not parked, anyone else until woken.
pub(crate) fn block_until<T>(
    lock: &Mutex<T>,
    blocked: &Blocked,
    spin: Duration,
    done: impl Fn(&T) -> bool,
) {
    if done(&lock.lock()) {
        return;
    }
    let slot = SlotHold::claim();
    if let Some(slot) = &slot {
        slot.enter();
    }
    // A joiner polls for `spin` at first; whoever ran a task lingers.
    let mut poll_until = (!spin.is_zero()).then(|| Instant::now() + spin);
    let mut nap = WAIT_POLL;
    loop {
        if done(&lock.lock()) {
            return;
        }
        let help = try_help();
        if help == Help::Helped {
            poll_until = Some(Instant::now() + LINGER);
            nap = WAIT_POLL;
            continue;
        }
        if poll_until.is_some_and(|t| Instant::now() < t) {
            std::hint::spin_loop();
            continue;
        }
        poll_until = None;
        let mut guard = lock.lock();
        blocked.count.fetch_add(1, Ordering::SeqCst);
        let finished = done(&guard);
        match help {
            _ if finished => {}
            Help::Idle => {
                with_worker(|ctx| ctx.stats().parks.fetch_add(1, Ordering::Relaxed));
                blocked.cv.wait_for(&mut guard, nap);
                nap = (nap * 2).min(PARK_TIMEOUT);
            }
            _ => blocked.cv.wait(&mut guard),
        }
        // Still under `lock`: the primitive may live on this thread's
        // stack, and nobody else may touch it once this returns.
        blocked.count.fetch_sub(1, Ordering::SeqCst);
        if finished {
            return;
        }
    }
}

/// True when the current thread computes for a runtime: a pool worker, or
/// a thread that holds a caller slot while it is blocked.
pub(crate) fn on_worker_thread() -> bool {
    with_worker(|_| ()).is_some()
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
            crate::dataflow(
                &rt,
                move |()| {
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
                },
                (),
            )
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
        let fut = crate::dataflow(&rt, |()| 5, ());
        assert_eq!(fut.get(), 5);
    }

    #[test]
    fn single_thread_pool() {
        let rt = Runtime::new(1);
        let fut = crate::dataflow(&rt, |()| (0..100u64).sum::<u64>(), ());
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

    /// Occupies every background worker of `rt` until the returned flag is
    /// set: what is spawned meanwhile can only run on the caller slot.
    fn pin_workers(rt: &Runtime) -> Arc<AtomicBool> {
        let release = Arc::new(AtomicBool::new(false));
        let pinned = Arc::new(AtomicUsize::new(0));
        for _ in 0..rt.threads.len() {
            let (release, pinned) = (Arc::clone(&release), Arc::clone(&pinned));
            rt.spawn(move || {
                pinned.fetch_add(1, Ordering::AcqRel);
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        }
        while pinned.load(Ordering::Acquire) < rt.threads.len() {
            std::thread::yield_now();
        }
        release
    }

    #[test]
    fn n_threads_are_n_minus_one_workers_and_the_caller_slot() {
        for (n, workers, slot) in [(0, 1, false), (1, 1, false), (2, 1, true), (5, 4, true)] {
            let rt = Runtime::new(n);
            assert_eq!(rt.threads.len(), workers, "Runtime::new({n})");
            assert_eq!(rt.inner.slot.lock().is_some(), slot, "Runtime::new({n})");
            assert_eq!(rt.num_threads(), n.max(1));
            assert_eq!(rt.stats().workers, n.max(1));
            assert_eq!(rt.inner.stealers.len(), n.max(1));
        }
    }

    /// With the one background worker of a 2-thread runtime pinned, a
    /// dependent chain can only run on the thread that waits for it.
    #[test]
    fn the_waiting_caller_runs_a_dependent_chain() {
        const CHAIN: u64 = 10_000;
        let rt = Runtime::new(2);
        let release = pin_workers(&rt);
        let mut f = crate::ready(0u64);
        for _ in 0..CHAIN {
            f = crate::dataflow(&rt, |(a,)| a + 1, (f,));
        }
        assert!(!on_worker_thread());
        assert_eq!(f.get(), CHAIN);
        assert!(!on_worker_thread(), "the slot is given back with the wait");
        let stats = rt.stats();
        assert_eq!(stats.tasks_helped, CHAIN, "{stats}");
        release.store(true, Ordering::Release);
        rt.wait_idle();
        assert_eq!(rt.stats().tasks_executed, CHAIN + 1);
    }

    /// A hand-made primitive, so that the test sees who is inside
    /// `block_until` on it.
    #[derive(Default)]
    struct Gate {
        open: Mutex<bool>,
        blocked: Blocked,
    }

    impl Gate {
        fn wait(&self) {
            block_until(&self.open, &self.blocked, Duration::ZERO, |open| *open);
        }
        fn open(&self) {
            *self.open.lock() = true;
            self.blocked.wake_all();
        }
    }

    /// Two threads outside the pool block on one runtime at once: one of
    /// them holds the slot and runs what is spawned, the other sleeps;
    /// both return when their waits end, and the next wait takes the slot.
    #[test]
    fn a_second_external_waiter_sleeps_and_the_slot_is_claimed_again() {
        let rt = Arc::new(Runtime::new(2));
        let release = pin_workers(&rt);
        let gates = [Arc::new(Gate::default()), Arc::new(Gate::default())];
        let waiters: Vec<_> = gates
            .iter()
            .map(|gate| {
                let (rt, gate) = (Arc::clone(&rt), Arc::clone(gate));
                std::thread::spawn(move || {
                    rt.help_while_blocked();
                    gate.wait();
                    std::thread::current().id()
                })
            })
            .collect();
        // Both inside their waits: the sleeper stays registered, the
        // holder is whenever it naps.
        let deadline = Instant::now() + Duration::from_secs(60);
        while !(rt.inner.slot.lock().is_none()
            && gates
                .iter()
                .all(|g| g.blocked.count.load(Ordering::SeqCst) == 1))
        {
            assert!(Instant::now() < deadline, "the waiters never blocked");
            std::thread::yield_now();
        }
        // The worker is pinned, so whatever runs now runs on the holder —
        // always the same one of the two.
        let ran_on: Vec<_> = (0..100)
            .map(|_| {
                let (done, ran) = std::sync::mpsc::sync_channel(1);
                rt.spawn(move || done.send(std::thread::current().id()).unwrap());
                ran.recv_timeout(Duration::from_secs(60))
                    .expect("nobody holds the slot")
            })
            .collect();
        assert!(ran_on.iter().all(|id| *id == ran_on[0]));
        assert!(rt.inner.slot.lock().is_none());
        for gate in &gates {
            gate.open();
        }
        let ids: Vec<_> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
        assert!(ids.contains(&ran_on[0]), "a waiter held the slot");
        assert!(rt.inner.slot.lock().is_some(), "given back");
        // Only this thread can run it: it claims the slot for the wait.
        assert!(crate::dataflow(&rt, |()| on_worker_thread(), ()).get());
        let stats = rt.stats();
        assert_eq!(stats.tasks_helped, 101, "{stats}");
        release.store(true, Ordering::Release);
    }

    /// The caller is a worker in this respect too: a task that panics while
    /// it runs it is caught and counted, a panicking `dataflow` node poisons
    /// its own future, and the wait on a third one returns its value.
    #[test]
    fn a_panic_in_a_task_the_caller_runs_stays_in_that_task() {
        let rt = Runtime::new(2);
        let release = pin_workers(&rt);
        rt.spawn(|| panic!("boom"));
        let bad = crate::dataflow(&rt, |()| -> u32 { panic!("poisoned") }, ());
        let good = crate::dataflow(&rt, |()| 7u32, ());
        assert_eq!(good.get(), 7);
        let stats = rt.stats();
        assert_eq!((stats.task_panics, stats.tasks_helped), (1, 3), "{stats}");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.get()));
        let err = err.unwrap_err();
        assert_eq!(err.downcast_ref::<String>().unwrap(), "poisoned");
        assert!(!on_worker_thread());
        release.store(true, Ordering::Release);
    }

    /// A task the caller runs may wait itself: inside the slot the thread
    /// is a worker, so the nested wait helps instead of claiming again.
    #[test]
    fn a_task_run_by_the_caller_may_wait_in_turn() {
        let rt = Arc::new(Runtime::new(2));
        let release = pin_workers(&rt);
        let rt2 = Arc::clone(&rt);
        let outer = crate::dataflow(
            &rt,
            move |()| {
                assert!(on_worker_thread());
                let inner = crate::dataflow(&rt2, |()| 5u32, ());
                assert!(
                    rt2.inner.injector.is_empty(),
                    "spawned onto the slot's deque"
                );
                inner.get() + 1
            },
            (),
        );
        assert_eq!(outer.get(), 6);
        assert_eq!(rt.stats().tasks_helped, 2);
        release.store(true, Ordering::Release);
    }

    /// `park`'s last look before sleeping must cover every queue, a
    /// sibling's *own* deque included: a task a running worker pushed there
    /// just before the idle worker registered as a sleeper wakes nobody, and
    /// would otherwise wait out the whole `PARK_TIMEOUT` — the shape of
    /// every dataflow successor node. Driven by hand, without worker
    /// threads, so the order is exact: the push comes first, and `park`
    /// must come back from its look at the queues without having slept.
    #[test]
    fn park_does_not_sleep_on_a_task_in_a_siblings_deque() {
        let (inner, deques) = RuntimeInner::new(3);
        let mut workers = deques
            .into_iter()
            .enumerate()
            .map(|(index, local)| WorkerCtx::new(Arc::clone(&inner), index, local));
        let (busy, idle) = (workers.next().unwrap(), workers.next().unwrap());
        inner.pending.fetch_add(1, Ordering::SeqCst);
        busy.local.push(Task::new(|| ()));
        idle.park();
        let stats = RuntimeStats::aggregate(&inner.stats, 0);
        assert_eq!((stats.parks, stats.late_wakes), (0, 0), "{stats}");
        let task = idle.find_task().expect("the sibling's task is stealable");
        idle.run(task, false);
        assert_eq!(inner.pending.load(Ordering::SeqCst), 0);
    }

    /// The linger rule's invariant: **an idle runtime never polls.** Only
    /// a worker that has run a task since it last parked may linger, so
    /// after the last task there is at most one more linger per worker
    /// however long the runtime then sits idle — it is back to one look at
    /// the queues per park timeout, which the parks show it still takes.
    #[test]
    fn an_idle_runtime_parks_without_lingering() {
        let long_idle = PARK_TIMEOUT * 15;
        let fresh = Runtime::new(2);
        std::thread::sleep(long_idle);
        let stats = fresh.stats();
        assert_eq!(stats.lingers, 0, "it never ran a task: {stats}");
        assert!(stats.parks >= 2, "{stats}");

        let rt = Runtime::new(3);
        for _ in 0..64 {
            rt.spawn(std::thread::yield_now);
        }
        rt.wait_idle();
        let settled = rt.stats();
        assert!(settled.lingers <= settled.tasks_executed, "{settled}");
        std::thread::sleep(long_idle);
        let idle = rt.stats();
        let grew = idle.lingers - settled.lingers;
        assert!(
            grew <= rt.num_threads() as u64,
            "{grew} lingers on an idle runtime: {settled} -> {idle}"
        );
        assert!(idle.parks - settled.parks >= rt.num_threads() as u64);
        assert_eq!(idle.linger_hits, settled.linger_hits);
    }

    /// What the linger is for: dependent short tasks bouncing between two
    /// workers. A hop holds its worker until its successor has started, so
    /// the successor can only run on the *other* worker — which ended the
    /// previous hop that very moment and finds nothing, because a hop does
    /// not push its successor before it has seen its sibling start to
    /// linger. The sibling then picks the task up from its poll instead of
    /// parking and being woken for it (unless the host pre-empts the
    /// pusher for the whole linger, which it does not do 2000 times).
    #[test]
    fn lingering_worker_picks_up_a_ping_pong_without_parking() {
        const HOPS: usize = 2_000;
        struct Chain {
            rt: Runtime,
            started: Vec<AtomicBool>,
            finished: std::sync::mpsc::SyncSender<()>,
        }
        fn hop(chain: Arc<Chain>, k: usize) {
            let lingers = chain.rt.stats().lingers;
            chain.started[k].store(true, Ordering::Release);
            if k + 1 == HOPS {
                chain.finished.send(()).unwrap();
                return;
            }
            let waiting = Instant::now();
            while k > 0 && chain.rt.stats().lingers == lingers {
                assert!(waiting.elapsed() < Duration::from_secs(60));
                std::thread::yield_now();
            }
            let next = Arc::clone(&chain);
            chain.rt.spawn(move || hop(next, k + 1));
            while !chain.started[k + 1].load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
        let (finished, wait) = std::sync::mpsc::sync_channel(1);
        // Two background workers: this thread waits on a std channel.
        let chain = Arc::new(Chain {
            rt: Runtime::new(3),
            started: (0..HOPS).map(|_| AtomicBool::new(false)).collect(),
            finished,
        });
        let first = Arc::clone(&chain);
        chain.rt.spawn(move || hop(first, 0));
        wait.recv_timeout(Duration::from_secs(120))
            .expect("the chain stalled");
        chain.rt.wait_idle();
        let stats = chain.rt.stats();
        assert_eq!(stats.tasks_executed, HOPS as u64);
        assert!(stats.lingers >= HOPS as u64 - 2, "{stats}");
        assert!(stats.linger_hits > 0, "{stats}");
        assert!(stats.linger_hits <= stats.lingers, "{stats}");
        assert!(stats.parks < stats.tasks_executed, "{stats}");
    }
}
