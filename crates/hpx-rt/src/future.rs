//! Futures and promises (paper §III-A, Fig 5).
//!
//! A [`SharedFuture`] is "a computational result that is initially unknown
//! but becomes available at a later time", and the crate's one future
//! type. The design mirrors HPX:
//!
//! * [`SharedFuture::get`] blocks, but a *worker* blocked in `get` executes
//!   other ready tasks (help-first), so the pool never starves — the
//!   substitute for HPX suspending its user-level threads.
//! * Continuations are dataflow frames ([`crate::dataflow`],
//!   [`crate::schedule_after`]), scheduled as tasks when their inputs
//!   arrive, building execution graphs without barriers.
//! * A future is clonable and has many consumers; it is what `op2-core`
//!   threads through dats to chain dependent loops.
//! * [`channel`] hands out the write end, a [`Promise`]. A promise dropped
//!   unfulfilled completes its future with a "broken promise" panic, so
//!   nobody waits on it forever.
//! * Panics travel through the graph: a panicking producer re-panics every
//!   consumer (`get`), like `std::future` exceptions in HPX.
//!
//! # Consumers are frames, sleepers are counted
//!
//! A pending future's consumers are **frames** ([`crate::dep::Frame`]: a
//! `dataflow` call, a `schedule_after` node, a `when_all_shared` join) —
//! an `Arc` of the consumer itself. Wiring such an edge is one lock-free
//! look at the outcome and, if there is none yet, one `Vec` push of an
//! `Arc` clone; no box, no closure. Completing the future costs that
//! consumer one `fetch_sub`.
//!
//! Blocked *threads* are not in that list: they sleep on the future's
//! [`Blocked`], which counts them (registered under the future's lock
//! before their last look at the state), and a completion that finds the
//! count at zero after it released that lock issues no `notify_all` — on a
//! `std`-backed condvar that is a system call per completion, and in a
//! dataflow graph almost nobody sleeps on an interior node.

use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::dep::{dep_ready, Frame};
use crate::runtime::{block_until, Blocked};

/// The payload of a caught panic.
pub(crate) type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// What the consumers of a promise dropped unfulfilled panic with.
const BROKEN_PROMISE: &str =
    "broken promise: the producing task was dropped before fulfilling its future";

/// Write end of a [`channel`]. Dropping a `Promise` without fulfilling it
/// breaks the future: every consumer observes a panic instead of hanging
/// forever.
pub struct Promise<T> {
    inner: Option<Arc<SharedInner<T>>>,
}

/// Creates a connected promise/future pair.
pub fn channel<T>() -> (Promise<T>, SharedFuture<T>) {
    let future = SharedFuture::pending();
    let promise = Promise {
        inner: Some(Arc::clone(&future.inner)),
    };
    (promise, future)
}

/// A future that is already fulfilled (HPX `make_ready_future`).
pub fn ready<T>(value: T) -> SharedFuture<T> {
    let ready = SharedFuture::pending();
    let _ = ready.inner.outcome.set(SharedOutcome::Value(value));
    ready
}

impl<T> Promise<T> {
    /// Fulfills the future with a value, waking and/or scheduling consumers.
    pub fn set_value(mut self, value: T) {
        let inner = self.inner.take().expect("a promise is fulfilled once");
        inner.fulfill(SharedOutcome::Value(value));
    }
}

impl<T> Drop for Promise<T> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let broken = SharedPanic(Arc::new(BROKEN_PROMISE.to_owned()));
            inner.fulfill(SharedOutcome::Panic(broken));
        }
    }
}

/// A clonable description of a panic, usable by many consumers.
#[derive(Clone, Debug)]
pub struct SharedPanic(Arc<String>);

impl SharedPanic {
    pub(crate) fn from_payload(p: &PanicPayload) -> Self {
        let msg = if let Some(s) = p.downcast_ref::<&'static str>() {
            (*s).to_owned()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            "task panicked".to_owned()
        };
        SharedPanic(Arc::new(msg))
    }

    pub(crate) fn message(&self) -> &str {
        &self.0
    }
}

pub(crate) enum SharedOutcome<T> {
    Value(T),
    Panic(SharedPanic),
}

impl<T> SharedOutcome<T> {
    /// Runs `f`, capturing a panic.
    pub(crate) fn catch(f: impl FnOnce() -> T) -> Self {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(v) => SharedOutcome::Value(v),
            Err(p) => SharedOutcome::Panic(SharedPanic::from_payload(&p)),
        }
    }

    fn panic(&self) -> Option<&SharedPanic> {
        match self {
            SharedOutcome::Value(_) => None,
            SharedOutcome::Panic(p) => Some(p),
        }
    }
}

/// Any producer's part of a [`SharedInner`], as a [`SharedFuture`] sees it:
/// nothing but the auto traits the handle passes on.
type Tail = dyn Send + Sync + std::panic::UnwindSafe + std::panic::RefUnwindSafe;

/// The state behind a [`SharedFuture`], followed by whatever its producer
/// keeps in the same allocation: nothing for a [`channel`]'s future, the
/// dependency count and the call for a node of [`crate::dataflow`] or
/// [`crate::schedule_after`] — whose result future *is* its frame.
pub(crate) struct SharedInner<T, N: ?Sized = Tail> {
    /// Written once, before `waiters` is drained; read lock-free (a reader
    /// that sees it also sees everything the producer wrote before).
    outcome: OnceLock<SharedOutcome<T>>,
    /// Consumers registered while pending. The lock orders registration
    /// against completion: a consumer queues only if, under it, there is
    /// still no outcome, and the producer takes the list under it after
    /// the outcome is set — so nobody is queued behind the drain.
    waiters: Mutex<Vec<Arc<dyn Frame>>>,
    blocked: Blocked,
    pub(crate) node: N,
}

impl<T, N> SharedInner<T, N> {
    pub(crate) fn pending(node: N) -> Self {
        SharedInner {
            outcome: OnceLock::new(),
            waiters: Mutex::new(Vec::new()),
            blocked: Blocked::default(),
            node,
        }
    }
}

impl<T, N: ?Sized> SharedInner<T, N> {
    /// Completes the future; returns whether a sleeping thread had to be
    /// woken. Consumers run after the lock is released: they may attach
    /// further consumers to this very future.
    pub(crate) fn fulfill(&self, outcome: SharedOutcome<T>) -> bool {
        if self.outcome.set(outcome).is_err() {
            panic!("shared future fulfilled twice");
        }
        let outcome = self.outcome.get().expect("set above");
        let mut waiters = std::mem::take(&mut *self.waiters.lock());
        let woke = self.blocked.wake_all();
        for frame in waiters.drain(..) {
            dep_ready(frame, outcome.panic());
        }
        // The list goes back empty, to be freed with the future by whoever
        // drops it last — as a rule the thread that grew it (the one that
        // submits the graph), not this one, whose allocator would have to
        // hand the block back across arenas once per completed node.
        *self.waiters.lock() = waiters;
        woke
    }

    /// Queues `frame` unless the future completed meanwhile; returns
    /// whether it did.
    fn queue(&self, frame: &Arc<dyn Frame>) -> bool {
        let mut waiters = self.waiters.lock();
        if self.outcome.get().is_some() {
            return false;
        }
        if waiters.capacity() == 0 {
            // A node of a mesh loop has a handful of successors: one block
            // up front instead of the growth steps through 4.
            waiters.reserve(8);
        }
        waiters.push(Arc::clone(frame));
        true
    }
}

/// A multi-consumer future. Cloning is cheap (one `Arc`); every clone can
/// `wait`, be an input of a dataflow frame, or (for `T: Clone`) `get` a
/// copy of the value. This is the type `op2-core` stores per dat to chain
/// loops.
#[must_use = "futures do nothing unless waited on"]
pub struct SharedFuture<T> {
    /// A channel's state, or a frame's (see [`SharedInner`]).
    pub(crate) inner: Arc<SharedInner<T>>,
}

impl<T> Clone for SharedFuture<T> {
    fn clone(&self) -> Self {
        SharedFuture {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> SharedFuture<T> {
    pub(crate) fn pending() -> Self {
        let inner = Arc::new(SharedInner::pending(()));
        SharedFuture { inner }
    }

    /// True when both handles denote the same underlying future (clones
    /// of one `SharedFuture` compare equal; distinct futures never do).
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.inner, &b.inner)
    }

    /// Address of the shared state: equal exactly when [`SharedFuture::ptr_eq`]
    /// holds, and totally ordered — what sort-based deduplication keys on.
    pub(crate) fn addr(&self) -> usize {
        Arc::as_ptr(&self.inner) as *const () as usize
    }

    /// The outcome, once there is one. Lock-free.
    pub(crate) fn outcome(&self) -> Option<&SharedOutcome<T>> {
        self.inner.outcome.get()
    }

    /// True once the value (or a panic) is available. Lock-free: one
    /// `Acquire` load, so dependency collection and convergence polling can
    /// ask it of thousands of futures without touching their mutexes.
    pub fn is_ready(&self) -> bool {
        self.outcome().is_some()
    }

    /// True once the future completed **with a value** (ready and not
    /// panicked). A consumer may skip waiting on such a producer entirely;
    /// a panicked one must stay a dependency so the panic still poisons
    /// the consumer.
    pub fn has_value(&self) -> bool {
        matches!(self.outcome(), Some(SharedOutcome::Value(_)))
    }

    /// Blocks until ready. Workers help-execute while waiting.
    pub fn wait(&self) {
        if !self.is_ready() {
            let inner = &*self.inner;
            block_until(&inner.waiters, &inner.blocked, Duration::ZERO, |_| {
                inner.outcome.get().is_some()
            });
        }
    }

    /// Makes `frame` a successor: queued if this future is pending,
    /// counted at once if it is complete. Only while `frame`'s
    /// registration holds its own count, so this cannot fire it.
    pub(crate) fn attach_frame(&self, frame: &Arc<dyn Frame>) {
        let late = match self.outcome() {
            Some(_) => true,
            None => !self.inner.queue(frame),
        };
        if late {
            let panic = self.outcome().and_then(SharedOutcome::panic);
            frame.deps().arrived_early(1, panic);
        }
    }
}

impl<T: Clone> SharedFuture<T> {
    /// Blocks until ready and returns a clone of the value, re-panicking if
    /// the producer panicked.
    pub fn get(&self) -> T {
        self.wait();
        match self.outcome().expect("wait() returned while pending") {
            SharedOutcome::Value(v) => v.clone(),
            SharedOutcome::Panic(p) => panic!("{}", p.message()),
        }
    }
}

impl<T> std::fmt::Debug for SharedFuture<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedFuture")
            .field("ready", &self.is_ready())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dataflow, schedule_after, Runtime};
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn ready_future_get() {
        assert_eq!(ready(5).get(), 5);
    }

    #[test]
    fn cross_thread_set_value() {
        let (p, f) = channel();
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            p.set_value(String::from("hello"));
        });
        assert_eq!(f.get(), "hello");
        t.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "kernel exploded")]
    fn panic_propagates_through_get() {
        let rt = Runtime::new(1);
        let f = dataflow(&rt, |()| -> u32 { panic!("kernel exploded") }, ());
        let _ = f.get();
    }

    /// A promise dropped unfulfilled completes its future with the broken
    /// promise panic: every clone re-panics, and a node waiting on it is
    /// poisoned (its body skipped) instead of waiting forever.
    #[test]
    fn a_dropped_promise_breaks_every_clone_and_poisons_its_successor() {
        let rt = Runtime::new(2);
        let (promise, future) = channel::<()>();
        let clones = [future.clone(), future.clone()];
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let successor = schedule_after(&rt, &clones[..1], move || {
            flag.store(true, Ordering::SeqCst)
        });
        drop(promise);
        for f in clones.iter().chain([&future]) {
            let err = std::panic::catch_unwind(|| f.get()).expect_err("a broken promise panics");
            let msg = err.downcast_ref::<String>().expect("a message");
            assert!(msg.starts_with("broken promise"), "{msg}");
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !successor.is_ready() {
            assert!(std::time::Instant::now() < deadline, "the successor hangs");
            std::thread::yield_now();
        }
        assert!(!successor.has_value(), "the successor is poisoned");
        assert!(!ran.load(Ordering::SeqCst), "its body is skipped");
    }

    #[test]
    fn shared_future_multiple_consumers() {
        let rt = Runtime::new(2);
        let shared = dataflow(&rt, |()| vec![1, 2, 3], ());
        let a = shared.clone();
        let b = shared.clone();
        let t = std::thread::spawn(move || a.get());
        assert_eq!(b.get(), vec![1, 2, 3]);
        assert_eq!(t.join().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn shared_status_distinguishes_value_from_panic() {
        let rt = Runtime::new(1);
        let pending = SharedFuture::<u8>::pending();
        assert!(!pending.is_ready() && !pending.has_value());
        pending.inner.fulfill(SharedOutcome::Value(3));
        assert!(pending.is_ready() && pending.has_value());
        assert!(ready(()).has_value());
        let bad = dataflow(&rt, |()| panic!("producer died"), ());
        bad.wait();
        assert!(bad.is_ready());
        assert!(!bad.has_value(), "a panicked future holds no value");
    }

    #[test]
    fn get_from_worker_helps() {
        // A worker task blocking on a future must keep executing other tasks
        // rather than deadlocking a small pool.
        let rt = Runtime::new(1);
        let f = dataflow(&rt, |()| 1u32, ());
        let outer = {
            let inner_fut = dataflow(&rt, |(x,)| x + 1, (f,));
            dataflow(&rt, move |()| inner_fut.get() + 10, ())
        };
        assert_eq!(outer.get(), 12);
    }

    #[test]
    fn wait_does_not_consume() {
        let f = ready(41);
        f.wait();
        assert!(f.is_ready());
        assert_eq!(f.get(), 41);
    }

    /// The wake-only-if-someone-sleeps protocol, raced: one thread
    /// completes a future while another enters `wait`/`get` on it at a
    /// random offset. A lost wake-up hangs a round (a non-worker sleeps
    /// until woken), which the watchdog reports. And a completion may wake
    /// only a thread that registered as blocked: if the waiter found the
    /// future complete when it arrived — so never blocked — the completion
    /// must have issued no `notify_all`. Every fourth round the waiter
    /// holds back until the future is complete, so such rounds exist
    /// whatever the host's timing.
    fn race_completion_against_wait(rounds: usize, on_worker: bool) {
        use std::sync::atomic::AtomicUsize;
        fn spin(n: u64) {
            for _ in 0..n {
                std::hint::spin_loop();
            }
        }
        fn xorshift(x: &mut u64) -> u64 {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *x
        }
        const BATCH: usize = 1000;
        // Round the waiter has entered, plus one; the completer follows it.
        let turn = Arc::new(AtomicUsize::new(0));
        let (batches, next_batch) = std::sync::mpsc::channel::<Vec<Promise<usize>>>();
        let (finished, watchdog) = std::sync::mpsc::channel::<(usize, usize)>();

        let completer = {
            let turn = Arc::clone(&turn);
            std::thread::spawn(move || {
                let mut rng = 0x9E37_79B9_7F4A_7C15u64;
                let (mut round, mut woke) = (0usize, Vec::new());
                for batch in next_batch {
                    for mut promise in batch {
                        while turn.load(Ordering::Acquire) <= round {
                            std::thread::yield_now();
                        }
                        spin(xorshift(&mut rng) % 256);
                        let inner = promise.inner.take().expect("unused promise");
                        woke.push(inner.fulfill(SharedOutcome::Value(round)));
                        round += 1;
                    }
                }
                woke
            })
        };
        let entered = Arc::clone(&turn);
        let waiter = move || {
            let mut rng = 0xD6E8_FEB8_6659_FD93u64;
            let mut found_complete = Vec::new();
            for first in (0..rounds).step_by(BATCH) {
                let (writes, reads): (Vec<_>, Vec<_>) = (first..(first + BATCH).min(rounds))
                    .map(|_| channel())
                    .unzip();
                batches.send(writes).unwrap();
                for (round, f) in (first..).zip(reads) {
                    entered.store(round + 1, Ordering::Release);
                    spin(xorshift(&mut rng) % 256);
                    while round % 4 == 3 && !f.is_ready() {
                        std::thread::yield_now();
                    }
                    let complete = f.is_ready();
                    // Half the rounds block in `wait`, half in `get`.
                    if round % 2 == 0 {
                        f.wait();
                    }
                    assert_eq!(f.get(), round);
                    found_complete.push(complete);
                }
            }
            found_complete
        };
        let waiter = if on_worker {
            let rt = Runtime::new(1);
            std::thread::spawn(move || dataflow(&rt, move |()| waiter(), ()).get())
        } else {
            std::thread::spawn(waiter)
        };
        std::thread::spawn(move || {
            let found_complete = waiter.join().expect("the waiter panicked");
            let woke = completer.join().expect("the completer panicked");
            assert_eq!(woke.len(), found_complete.len());
            for (round, (woke, complete)) in woke.iter().zip(&found_complete).enumerate() {
                assert!(
                    !(*woke && *complete),
                    "round {round}: a wake-up for a waiter that never blocked"
                );
            }
            let woken = woke.iter().filter(|w| **w).count();
            finished.send((woken, woke.len() - woken)).unwrap();
        });
        let (woken, silent) = watchdog
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("stuck in round {}", turn.load(Ordering::Acquire)));
        assert_eq!(woken + silent, rounds);
        assert!(silent >= rounds / 4, "a held-back round paid for a wake-up");
    }

    #[test]
    fn completion_wakes_only_sleepers_waiting_from_a_thread() {
        race_completion_against_wait(4_000, false);
    }

    #[test]
    fn completion_wakes_only_sleepers_waiting_from_a_worker() {
        race_completion_against_wait(4_000, true);
    }

    /// The same race at length, 300k rounds: a round that really sleeps is
    /// two futex calls and a context switch and its threads keep both
    /// cores busy for seconds, which the timing-sensitive tests running
    /// beside it do not survive — so it runs when asked for
    /// (`-- --ignored`), which CI does twenty times in release.
    #[test]
    #[ignore = "seconds of two busy cores; CI runs it with --ignored"]
    fn completion_wakes_only_sleepers_300k_rounds() {
        race_completion_against_wait(150_000, false);
        race_completion_against_wait(150_000, true);
    }
}
