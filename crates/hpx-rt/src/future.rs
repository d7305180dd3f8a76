//! Futures and promises (paper §III-A, Fig 5).
//!
//! A [`Future`] is "a computational result that is initially unknown but
//! becomes available at a later time". The design mirrors HPX:
//!
//! * [`Future::get`] blocks, but a *worker* blocked in `get` executes other
//!   ready tasks (help-first), so the pool never starves — the substitute
//!   for HPX suspending its user-level threads.
//! * [`Future::then`] attaches a continuation that is scheduled as a task
//!   when the value arrives, building execution graphs without barriers.
//! * [`SharedFuture`] is clonable and supports many consumers; it is what
//!   `op2-core` threads through dats to chain dependent loops.
//! * Panics travel through the graph: a panicking producer re-panics every
//!   consumer (`get`), like `std::future` exceptions in HPX.
//!
//! # Consumers are typed, sleepers are counted
//!
//! A pending future owes something to whoever consumes it, and there are
//! two kinds of debt. A **callback** (`then`, `share`, `when_any_shared`)
//! is a boxed closure. A **frame** ([`crate::dep::Frame`]: a node of
//! `schedule_after`, a `dataflow` call, a `when_all*` join) is an `Arc` of
//! the consumer itself — wiring such an edge is one lock-free look at the
//! outcome and, if there is none yet, one `Vec` push of an `Arc` clone; no
//! box, no closure — and completing the future costs that consumer one
//! `fetch_sub`.
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

use crate::dataflow::{dataflow, dataflow_inline};
use crate::dep::{dep_ready, Frame};
use crate::runtime::{block_until, Blocked, Runtime};

/// The payload of a caught panic.
pub(crate) type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Result of a producer: a value or a captured panic.
pub(crate) type Outcome<T> = Result<T, PanicPayload>;

type Callback<T> = Box<dyn FnOnce(Outcome<T>) + Send>;

/// The one consumer of a [`Future`] (see the module docs).
enum Consumer<T> {
    /// Takes the outcome.
    Callback(Callback<T>),
    /// Is told the outcome is there and takes it when it runs.
    Frame(Arc<dyn Frame>),
}

enum State<T> {
    /// Not yet fulfilled; at most one consumer may be registered
    /// (uniqueness is enforced by move semantics on `Future`).
    Pending(Option<Consumer<T>>),
    /// Fulfilled; `None` once the value has been consumed.
    Done(Option<Outcome<T>>),
}

struct Inner<T> {
    state: Mutex<State<T>>,
    blocked: Blocked,
}

/// Write end of a future. Dropping a `Promise` without fulfilling it breaks
/// the future: consumers observe a panic instead of hanging forever.
pub struct Promise<T> {
    inner: Option<Arc<Inner<T>>>,
}

/// A single-consumer future (see module docs).
#[must_use = "futures do nothing unless waited on"]
pub struct Future<T> {
    inner: Arc<Inner<T>>,
}

fn future_in<T>(state: State<T>) -> Arc<Inner<T>> {
    Arc::new(Inner {
        state: Mutex::new(state),
        blocked: Blocked::default(),
    })
}

/// Creates a connected promise/future pair.
pub fn channel<T>() -> (Promise<T>, Future<T>) {
    let inner = future_in(State::Pending(None));
    (
        Promise {
            inner: Some(Arc::clone(&inner)),
        },
        Future { inner },
    )
}

/// A future that is already fulfilled (HPX `make_ready_future`).
pub fn ready<T>(value: T) -> Future<T> {
    Future {
        inner: future_in(State::Done(Some(Ok(value)))),
    }
}

/// Completes `inner`; returns whether a sleeping thread had to be woken.
fn fulfill<T>(inner: &Inner<T>, outcome: Outcome<T>) -> bool {
    let mut outcome = Some(outcome);
    let consumer = {
        let mut guard = inner.state.lock();
        let State::Pending(consumer) = std::mem::replace(&mut *guard, State::Done(None)) else {
            panic!("promise fulfilled twice");
        };
        // A callback takes the outcome with it; anyone else finds it here.
        if !matches!(consumer, Some(Consumer::Callback(_))) {
            *guard = State::Done(outcome.take());
        }
        consumer
    };
    let woke = inner.blocked.wake_all();
    match consumer {
        Some(Consumer::Callback(cb)) => cb(outcome.expect("kept for the callback")),
        Some(Consumer::Frame(frame)) => dep_ready(frame, None),
        None => {}
    }
    woke
}

impl<T> Promise<T> {
    /// Fulfills the future with a value, waking and/or scheduling consumers.
    pub fn set_value(self, value: T) {
        self.set_outcome(Ok(value));
    }

    /// Propagates a captured panic to all consumers.
    pub(crate) fn set_panic(self, payload: PanicPayload) {
        self.set_outcome(Err(payload));
    }

    /// Fulfills from a `catch_unwind` result.
    pub(crate) fn set_outcome(mut self, outcome: Outcome<T>) {
        let inner = self.inner.take().expect("promise already consumed");
        fulfill(&inner, outcome);
    }
}

impl<T> Drop for Promise<T> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            // A String payload so `get()` re-panics with a readable message.
            fulfill(&inner, Err(Box::new(BrokenPromise.to_string())));
        }
    }
}

/// Panic payload used when a promise is dropped unfulfilled.
#[derive(Debug, Clone, Copy)]
pub struct BrokenPromise;

impl std::fmt::Display for BrokenPromise {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("broken promise: the producing task was dropped before fulfilling its future")
    }
}

impl<T> Future<T> {
    /// True once the value (or a panic) is available.
    pub fn is_ready(&self) -> bool {
        matches!(*self.inner.state.lock(), State::Done(_))
    }

    /// Blocks until ready without consuming the value. Workers help-execute
    /// while waiting.
    pub fn wait(&self) {
        block_until(
            &self.inner.state,
            &self.inner.blocked,
            Duration::ZERO,
            |s| matches!(s, State::Done(_)),
        );
    }

    /// Blocks until the value is available and returns it, re-panicking if
    /// the producer panicked.
    pub fn get(self) -> T {
        self.wait();
        match self.take_outcome() {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    /// The outcome of a future that is ready.
    pub(crate) fn take_outcome(self) -> Outcome<T> {
        match &mut *self.inner.state.lock() {
            State::Done(slot) => slot.take().expect("future value consumed twice"),
            State::Pending(_) => unreachable!("outcome taken from a pending future"),
        }
    }

    /// Registers the (single) continuation. Runs inline if already ready.
    pub(crate) fn attach_callback(self, cb: Callback<T>) {
        let run_now = {
            let mut guard = self.inner.state.lock();
            match &mut *guard {
                State::Pending(slot) => {
                    assert!(slot.is_none(), "future continuation attached twice");
                    *slot = Some(Consumer::Callback(cb));
                    None
                }
                State::Done(slot) => {
                    let out = slot.take().expect("future value consumed twice");
                    Some((cb, out))
                }
            }
        };
        if let Some((cb, out)) = run_now {
            cb(out);
        }
    }

    /// Makes `frame` the consumer: it is told when the outcome is there
    /// (at once if it already is) and takes it with
    /// [`Future::take_outcome`] when it runs. Only while `frame`'s
    /// registration holds its own count, so this cannot fire it.
    pub(crate) fn attach_frame(&self, frame: &Arc<dyn Frame>) {
        match &mut *self.inner.state.lock() {
            State::Pending(slot) => {
                assert!(slot.is_none(), "future continuation attached twice");
                *slot = Some(Consumer::Frame(Arc::clone(frame)));
            }
            State::Done(_) => frame.deps().arrived_early(1, None),
        }
    }

    /// Attaches a continuation scheduled on `rt` when the value arrives
    /// (HPX `future::then(launch::async, f)`): a one-input
    /// [`crate::dataflow`]. Panics propagate: if `self` panicked, `f` is
    /// skipped and the returned future re-panics.
    pub fn then<U, F>(self, rt: &Runtime, f: F) -> Future<U>
    where
        T: Send + 'static,
        U: Send + 'static,
        F: FnOnce(T) -> U + Send + 'static,
    {
        dataflow(rt, |(v,)| f(v), (self,))
    }

    /// Like [`Future::then`] but runs `f` synchronously on whichever thread
    /// fulfills the future (HPX `launch::sync`). Use for cheap transforms
    /// only — `f` executes inside the producer's completion path.
    pub fn then_inline<U, F>(self, f: F) -> Future<U>
    where
        T: Send + 'static,
        U: Send + 'static,
        F: FnOnce(T) -> U + Send + 'static,
    {
        dataflow_inline(|(v,)| f(v), (self,))
    }

    /// Converts into a multi-consumer [`SharedFuture`].
    pub fn share(self) -> SharedFuture<T>
    where
        T: Send + Sync + 'static,
    {
        let shared = SharedFuture::pending();
        let inner = Arc::clone(&shared.inner);
        self.attach_callback(Box::new(move |outcome| {
            inner.fulfill(SharedOutcome::from_outcome(outcome));
        }));
        shared
    }
}

impl<T> std::fmt::Debug for Future<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Future")
            .field("ready", &self.is_ready())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// SharedFuture
// ---------------------------------------------------------------------------

/// A clonable description of a panic, usable by many consumers.
#[derive(Clone, Debug)]
pub struct SharedPanic(Arc<String>);

impl SharedPanic {
    pub(crate) fn from_payload(p: &PanicPayload) -> Self {
        let msg = if let Some(s) = p.downcast_ref::<&'static str>() {
            (*s).to_owned()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else if p.downcast_ref::<BrokenPromise>().is_some() {
            BrokenPromise.to_string()
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
    fn from_outcome(outcome: Outcome<T>) -> Self {
        match outcome {
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

type SharedCallback<T> = Box<dyn FnOnce(&SharedOutcome<T>) + Send>;

/// What a pending [`SharedFuture`] owes one of its consumers (see the
/// module docs).
enum Waiter<T> {
    Callback(SharedCallback<T>),
    Frame(Arc<dyn Frame>),
}

impl<T> Waiter<T> {
    fn complete(self, outcome: &SharedOutcome<T>) {
        match self {
            Waiter::Callback(cb) => cb(outcome),
            Waiter::Frame(frame) => dep_ready(frame, outcome.panic()),
        }
    }
}

/// Any producer's part of a [`SharedInner`], as a [`SharedFuture`] sees it:
/// nothing but the auto traits the handle passes on.
type Tail = dyn Send + Sync + std::panic::UnwindSafe + std::panic::RefUnwindSafe;

/// The state behind a [`SharedFuture`], followed by whatever its producer
/// keeps in the same allocation: nothing for a plain future, the
/// dependency count and the body for a [`crate::schedule_after`] node —
/// whose completion future *is* its frame.
pub(crate) struct SharedInner<T, N: ?Sized = Tail> {
    /// Written once, before `waiters` is drained; read lock-free (a reader
    /// that sees it also sees everything the producer wrote before).
    outcome: OnceLock<SharedOutcome<T>>,
    /// Consumers registered while pending. The lock orders registration
    /// against completion: a consumer queues only if, under it, there is
    /// still no outcome, and the producer takes the list under it after
    /// the outcome is set — so nobody is queued behind the drain.
    waiters: Mutex<Vec<Waiter<T>>>,
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
        for waiter in waiters.drain(..) {
            waiter.complete(outcome);
        }
        // The list goes back empty, to be freed with the future by whoever
        // drops it last — as a rule the thread that grew it (the one that
        // submits the graph), not this one, whose allocator would have to
        // hand the block back across arenas once per completed node.
        *self.waiters.lock() = waiters;
        woke
    }

    /// Queues `waiter` unless the future completed meanwhile, in which
    /// case the caller gets it back to complete it itself.
    fn queue(&self, waiter: Waiter<T>) -> Option<Waiter<T>> {
        let mut waiters = self.waiters.lock();
        if self.outcome.get().is_some() {
            return Some(waiter);
        }
        if waiters.capacity() == 0 {
            // A node of a mesh loop has a handful of successors: one block
            // up front instead of the growth steps through 4.
            waiters.reserve(8);
        }
        waiters.push(waiter);
        None
    }
}

/// A multi-consumer future. Cloning is cheap (one `Arc`); every clone can
/// `wait`, attach continuations, or (for `T: Clone`) `get` a copy of the
/// value. This is the type `op2-core` stores per dat to chain loops.
#[must_use = "futures do nothing unless waited on"]
pub struct SharedFuture<T> {
    /// A plain future's state, or a frame's (see [`SharedInner`]).
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

    /// An already-fulfilled shared future.
    pub fn ready(value: T) -> Self {
        let ready = Self::pending();
        let _ = ready.inner.outcome.set(SharedOutcome::Value(value));
        ready
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

    /// Registers a continuation receiving a reference to the outcome;
    /// runs it at once if there is one already.
    pub(crate) fn attach_callback(&self, cb: SharedCallback<T>) {
        let waiter = Waiter::Callback(cb);
        let late = match self.outcome() {
            Some(_) => Some(waiter),
            None => self.inner.queue(waiter),
        };
        if let Some(waiter) = late {
            waiter.complete(self.outcome().expect("complete: not queued"));
        }
    }

    /// Makes `frame` a successor: queued if this future is pending,
    /// counted at once if it is complete. Only while `frame`'s
    /// registration holds its own count, so this cannot fire it.
    pub(crate) fn attach_frame(&self, frame: &Arc<dyn Frame>) {
        let late = match self.outcome() {
            Some(_) => true,
            None => self.inner.queue(Waiter::Frame(Arc::clone(frame))).is_some(),
        };
        if late {
            let panic = self.outcome().and_then(SharedOutcome::panic);
            frame.deps().arrived_early(1, panic);
        }
    }

    /// Attaches a continuation scheduled on `rt`; receives a clone of the
    /// value.
    pub fn then<U, F>(&self, rt: &Runtime, f: F) -> Future<U>
    where
        T: Clone + Send + Sync + 'static,
        U: Send + 'static,
        F: FnOnce(T) -> U + Send + 'static,
    {
        dataflow(rt, |(v,)| f(v), (self.clone(),))
    }
}

impl<T: Clone> SharedFuture<T> {
    /// The outcome of a future that is ready, the value cloned.
    pub(crate) fn clone_outcome(&self) -> Outcome<T> {
        match self.outcome().expect("outcome taken from a pending future") {
            SharedOutcome::Value(v) => Ok(v.clone()),
            SharedOutcome::Panic(p) => Err(Box::new(p.message().to_owned())),
        }
    }

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

/// Combines homogeneous futures into one producing all values (in input
/// order). An empty input yields an immediately-ready empty vector. If any
/// input panics, the combined future re-panics (the first in input order).
/// One [`crate::dataflow_inline`] frame over the vector.
pub fn when_all<T: Send + 'static>(futures: Vec<Future<T>>) -> Future<Vec<T>> {
    dataflow_inline(|values| values, futures)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn then_chain_on_runtime() {
        let rt = Runtime::new(2);
        let f = rt
            .spawn_future(|| 10)
            .then(&rt, |x| x + 1)
            .then(&rt, |x| x * 2);
        assert_eq!(f.get(), 22);
    }

    #[test]
    fn then_inline_runs_on_completion() {
        let rt = Runtime::new(1);
        let f = rt.spawn_future(|| 3).then_inline(|x| x * 3);
        assert_eq!(f.get(), 9);
    }

    #[test]
    #[should_panic(expected = "kernel exploded")]
    fn panic_propagates_through_get() {
        let rt = Runtime::new(1);
        let f: Future<u32> = rt.spawn_future(|| panic!("kernel exploded"));
        let _ = f.get();
    }

    #[test]
    #[should_panic(expected = "kernel exploded")]
    fn panic_skips_continuation() {
        let rt = Runtime::new(1);
        let f: Future<u32> = rt.spawn_future(|| panic!("kernel exploded"));
        // The continuation must not run.
        let g = f.then(&rt, |_| unreachable!("must be skipped"));
        g.get();
    }

    #[test]
    #[should_panic(expected = "broken promise")]
    fn broken_promise_panics_not_hangs() {
        let (p, f): (Promise<u8>, Future<u8>) = channel();
        drop(p);
        let _ = f.get();
    }

    #[test]
    fn shared_future_multiple_consumers() {
        let rt = Runtime::new(2);
        let shared = rt.spawn_future(|| vec![1, 2, 3]).share();
        let a = shared.clone();
        let b = shared.clone();
        let t = std::thread::spawn(move || a.get());
        assert_eq!(b.get(), vec![1, 2, 3]);
        assert_eq!(t.join().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn shared_then_gets_clone() {
        let rt = Runtime::new(2);
        let shared = rt.spawn_future(|| 7u64).share();
        let f1 = shared.then(&rt, |x| x + 1);
        let f2 = shared.then(&rt, |x| x + 2);
        assert_eq!(f1.get(), 8);
        assert_eq!(f2.get(), 9);
    }

    #[test]
    fn shared_status_distinguishes_value_from_panic() {
        let rt = Runtime::new(1);
        let pending = SharedFuture::<u8>::pending();
        assert!(!pending.is_ready() && !pending.has_value());
        pending.inner.fulfill(SharedOutcome::Value(3));
        assert!(pending.is_ready() && pending.has_value());
        assert!(SharedFuture::ready(()).has_value());
        let bad: SharedFuture<()> = rt.spawn_future(|| panic!("producer died")).share();
        bad.wait();
        assert!(bad.is_ready());
        assert!(!bad.has_value(), "a panicked future holds no value");
    }

    #[test]
    fn when_all_preserves_order() {
        let rt = Runtime::new(4);
        let futs: Vec<_> = (0..64u64).map(|i| rt.spawn_future(move || i * i)).collect();
        let all = when_all(futs).get();
        assert_eq!(all, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn when_all_empty_is_ready() {
        let f = when_all::<u8>(Vec::new());
        assert!(f.is_ready());
        assert!(f.get().is_empty());
    }

    #[test]
    #[should_panic(expected = "subtask failed")]
    fn when_all_propagates_panic() {
        let rt = Runtime::new(2);
        let futs = vec![
            rt.spawn_future(|| 1u32),
            rt.spawn_future(|| panic!("subtask failed")),
            rt.spawn_future(|| 3u32),
        ];
        let _ = when_all(futs).get();
    }

    #[test]
    fn get_from_worker_helps() {
        // A worker task blocking on a future must keep executing other tasks
        // rather than deadlocking a small pool.
        let rt = Runtime::new(1);
        let f = rt.spawn_future(|| 1u32);
        let outer = {
            let inner_fut = f.then(&rt, |x| x + 1);
            rt.spawn_future(move || inner_fut.get() + 10)
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
        use std::sync::atomic::{AtomicUsize, Ordering};
        enum Write {
            Shared(SharedFuture<usize>),
            Single(Promise<usize>),
        }
        enum Read {
            Shared(SharedFuture<usize>),
            Single(Future<usize>),
        }
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
        let (batches, next_batch) = std::sync::mpsc::channel::<Vec<Write>>();
        let (finished, watchdog) = std::sync::mpsc::channel::<(usize, usize)>();

        let completer = {
            let turn = Arc::clone(&turn);
            std::thread::spawn(move || {
                let mut rng = 0x9E37_79B9_7F4A_7C15u64;
                let (mut round, mut woke) = (0usize, Vec::new());
                for batch in next_batch {
                    for write in batch {
                        while turn.load(Ordering::Acquire) <= round {
                            std::thread::yield_now();
                        }
                        spin(xorshift(&mut rng) % 256);
                        woke.push(match write {
                            Write::Shared(f) => f.inner.fulfill(SharedOutcome::Value(round)),
                            Write::Single(mut p) => {
                                fulfill(&p.inner.take().expect("unused promise"), Ok(round))
                            }
                        });
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
                let (writes, reads): (Vec<Write>, Vec<Read>) = (first..(first + BATCH).min(rounds))
                    .map(|round| {
                        if round % 2 == 0 {
                            let f = SharedFuture::pending();
                            (Write::Shared(f.clone()), Read::Shared(f))
                        } else {
                            let (p, f) = channel();
                            (Write::Single(p), Read::Single(f))
                        }
                    })
                    .unzip();
                batches.send(writes).unwrap();
                for (round, read) in (first..).zip(reads) {
                    entered.store(round + 1, Ordering::Release);
                    spin(xorshift(&mut rng) % 256);
                    let hold_back = |ready: &dyn Fn() -> bool| {
                        while round % 4 == 3 && !ready() {
                            std::thread::yield_now();
                        }
                        ready()
                    };
                    let (complete, value) = match read {
                        Read::Shared(f) => {
                            let complete = hold_back(&|| f.is_ready());
                            f.wait();
                            (complete, f.get())
                        }
                        Read::Single(f) => (hold_back(&|| f.is_ready()), f.get()),
                    };
                    assert_eq!(value, round);
                    found_complete.push(complete);
                }
            }
            found_complete
        };
        let waiter = if on_worker {
            let rt = Runtime::new(1);
            std::thread::spawn(move || rt.spawn_future(waiter).get())
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
