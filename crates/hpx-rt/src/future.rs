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

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::runtime::{block_until, Runtime};
use crate::task::Task;

/// The payload of a caught panic.
pub(crate) type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Result of a producer: a value or a captured panic.
pub(crate) type Outcome<T> = Result<T, PanicPayload>;

type Callback<T> = Box<dyn FnOnce(Outcome<T>) + Send>;

enum State<T> {
    /// Not yet fulfilled; at most one continuation may be registered
    /// (uniqueness is enforced by move semantics on `Future`).
    Pending(Option<Callback<T>>),
    /// Fulfilled; `None` once the value has been consumed.
    Done(Option<Outcome<T>>),
}

struct Inner<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
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

/// Creates a connected promise/future pair.
pub fn channel<T>() -> (Promise<T>, Future<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State::Pending(None)),
        cv: Condvar::new(),
    });
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
        inner: Arc::new(Inner {
            state: Mutex::new(State::Done(Some(Ok(value)))),
            cv: Condvar::new(),
        }),
    }
}

fn fulfill<T>(inner: &Inner<T>, outcome: Outcome<T>) {
    let callback = {
        let mut guard = inner.state.lock();
        match std::mem::replace(&mut *guard, State::Done(None)) {
            State::Pending(Some(cb)) => Some(cb),
            State::Pending(None) => {
                *guard = State::Done(Some(outcome));
                inner.cv.notify_all();
                return;
            }
            State::Done(_) => panic!("promise fulfilled twice"),
        }
    };
    inner.cv.notify_all();
    if let Some(cb) = callback {
        cb(outcome);
    }
}

impl<T> Promise<T> {
    /// Fulfills the future with a value, waking and/or scheduling consumers.
    pub fn set_value(mut self, value: T) {
        let inner = self.inner.take().expect("promise already consumed");
        fulfill(&inner, Ok(value));
    }

    /// Propagates a captured panic to all consumers.
    pub(crate) fn set_panic(mut self, payload: PanicPayload) {
        let inner = self.inner.take().expect("promise already consumed");
        fulfill(&inner, Err(payload));
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
        block_until(&self.inner.state, &self.inner.cv, Duration::ZERO, |s| {
            matches!(s, State::Done(_))
        });
    }

    /// Blocks until the value is available and returns it, re-panicking if
    /// the producer panicked.
    pub fn get(self) -> T {
        self.wait();
        let outcome = {
            let mut guard = self.inner.state.lock();
            match &mut *guard {
                State::Done(slot) => slot.take().expect("future value consumed twice"),
                State::Pending(_) => unreachable!("wait() returned while pending"),
            }
        };
        match outcome {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    /// Registers the (single) continuation. Runs inline if already ready.
    pub(crate) fn attach_callback(self, cb: Callback<T>) {
        let run_now = {
            let mut guard = self.inner.state.lock();
            match &mut *guard {
                State::Pending(slot) => {
                    assert!(slot.is_none(), "future continuation attached twice");
                    *slot = Some(cb);
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

    /// Attaches a continuation scheduled on `rt` when the value arrives
    /// (HPX `future::then(launch::async, f)`). Panics propagate: if `self`
    /// panicked, `f` is skipped and the returned future re-panics.
    pub fn then<U, F>(self, rt: &Runtime, f: F) -> Future<U>
    where
        T: Send + 'static,
        U: Send + 'static,
        F: FnOnce(T) -> U + Send + 'static,
    {
        let (promise, future) = channel();
        let inner_rt = Arc::clone(rt.inner());
        self.attach_callback(Box::new(move |outcome| match outcome {
            Ok(v) => inner_rt.spawn_task(Task::new(move || {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(v)));
                promise.set_outcome(r);
            })),
            Err(p) => promise.set_panic(p),
        }));
        future
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
        let (promise, future) = channel();
        self.attach_callback(Box::new(move |outcome| match outcome {
            Ok(v) => {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(v)));
                promise.set_outcome(r);
            }
            Err(p) => promise.set_panic(p),
        }));
        future
    }

    /// Converts into a multi-consumer [`SharedFuture`].
    pub fn share(self) -> SharedFuture<T>
    where
        T: Send + Sync + 'static,
    {
        let shared = SharedFuture::pending();
        let inner = Arc::clone(&shared.inner);
        self.attach_callback(Box::new(move |outcome| {
            SharedFuture::fulfill_inner(&inner, SharedOutcome::from_outcome(outcome));
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
}

type SharedCallback<T> = Box<dyn FnOnce(&SharedOutcome<T>) + Send>;

enum SharedState<T> {
    Pending(Vec<SharedCallback<T>>),
    // Arc so the outcome can be referenced outside the state lock: callbacks
    // may attach further continuations to this same future and must never
    // run while the lock is held.
    Done(Arc<SharedOutcome<T>>),
}

/// [`SharedInner::status`] values.
const PENDING: u8 = 0;
const HAS_VALUE: u8 = 1;
const PANICKED: u8 = 2;

struct SharedInner<T> {
    state: Mutex<SharedState<T>>,
    cv: Condvar,
    /// Lock-free mirror of `state`'s variant for pollers
    /// ([`SharedFuture::is_ready`] / [`SharedFuture::has_value`]): stored
    /// with `Release` *after* `state` became `Done`, read with `Acquire`,
    /// so a reader that sees a non-pending status also sees the outcome
    /// (and everything the producer wrote before fulfilling).
    status: AtomicU8,
}

/// A multi-consumer future. Cloning is cheap (one `Arc`); every clone can
/// `wait`, attach continuations, or (for `T: Clone`) `get` a copy of the
/// value. This is the type `op2-core` stores per dat to chain loops.
#[must_use = "futures do nothing unless waited on"]
pub struct SharedFuture<T> {
    inner: Arc<SharedInner<T>>,
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
        SharedFuture {
            inner: Arc::new(SharedInner {
                state: Mutex::new(SharedState::Pending(Vec::new())),
                cv: Condvar::new(),
                status: AtomicU8::new(PENDING),
            }),
        }
    }

    /// An already-fulfilled shared future.
    pub fn ready(value: T) -> Self {
        SharedFuture {
            inner: Arc::new(SharedInner {
                state: Mutex::new(SharedState::Done(Arc::new(SharedOutcome::Value(value)))),
                cv: Condvar::new(),
                status: AtomicU8::new(HAS_VALUE),
            }),
        }
    }

    fn fulfill_inner(inner: &SharedInner<T>, outcome: SharedOutcome<T>) {
        let status = match outcome {
            SharedOutcome::Value(_) => HAS_VALUE,
            SharedOutcome::Panic(_) => PANICKED,
        };
        let outcome = Arc::new(outcome);
        let callbacks = {
            let mut guard = inner.state.lock();
            match std::mem::replace(&mut *guard, SharedState::Done(Arc::clone(&outcome))) {
                SharedState::Pending(cbs) => {
                    inner.status.store(status, Ordering::Release);
                    cbs
                }
                SharedState::Done(_) => panic!("shared future fulfilled twice"),
            }
        };
        inner.cv.notify_all();
        // Run continuations outside the lock: they may attach further
        // callbacks to this very future.
        for cb in callbacks {
            cb(&outcome);
        }
    }

    /// Fulfills a pending shared future created with
    /// [`SharedFuture::pending`] (crate-internal producer side).
    pub(crate) fn fulfill(&self, outcome: SharedOutcome<T>) {
        Self::fulfill_inner(&self.inner, outcome);
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

    /// True once the value (or a panic) is available. Lock-free: one
    /// `Acquire` load, so dependency collection and convergence polling can
    /// ask it of thousands of futures without touching their mutexes.
    pub fn is_ready(&self) -> bool {
        self.inner.status.load(Ordering::Acquire) != PENDING
    }

    /// True once the future completed **with a value** (ready and not
    /// panicked). A consumer may skip waiting on such a producer entirely;
    /// a panicked one must stay a dependency so the panic still poisons
    /// the consumer.
    pub fn has_value(&self) -> bool {
        self.inner.status.load(Ordering::Acquire) == HAS_VALUE
    }

    /// Blocks until ready. Workers help-execute while waiting.
    pub fn wait(&self) {
        if !self.is_ready() {
            block_until(&self.inner.state, &self.inner.cv, Duration::ZERO, |s| {
                matches!(s, SharedState::Done(_))
            });
        }
    }

    /// Registers a continuation receiving a reference to the outcome.
    pub(crate) fn attach_callback(&self, cb: SharedCallback<T>) {
        let run_now = {
            let mut guard = self.inner.state.lock();
            match &mut *guard {
                SharedState::Pending(cbs) => {
                    cbs.push(cb);
                    None
                }
                SharedState::Done(out) => Some((cb, Arc::clone(out))),
            }
        };
        if let Some((cb, out)) = run_now {
            cb(&out);
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
        let (promise, future) = channel();
        let inner_rt = Arc::clone(rt.inner());
        self.attach_callback(Box::new(move |outcome| match outcome {
            SharedOutcome::Value(v) => {
                let v = v.clone();
                inner_rt.spawn_task(Task::new(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(v)));
                    promise.set_outcome(r);
                }));
            }
            SharedOutcome::Panic(p) => {
                promise.set_panic(Box::new(p.message().to_owned()));
            }
        }));
        future
    }
}

impl<T: Clone> SharedFuture<T> {
    /// Blocks until ready and returns a clone of the value, re-panicking if
    /// the producer panicked.
    pub fn get(&self) -> T {
        self.wait();
        let out = {
            let guard = self.inner.state.lock();
            match &*guard {
                SharedState::Done(out) => Arc::clone(out),
                SharedState::Pending(_) => unreachable!("wait() returned while pending"),
            }
        };
        match &*out {
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

// ---------------------------------------------------------------------------
// when_all
// ---------------------------------------------------------------------------

/// Combines homogeneous futures into one producing all values (in input
/// order). An empty input yields an immediately-ready empty vector. If any
/// input panics, the combined future re-panics (first panic wins).
pub fn when_all<T: Send + 'static>(futures: Vec<Future<T>>) -> Future<Vec<T>> {
    if futures.is_empty() {
        return ready(Vec::new());
    }
    struct JoinState<T> {
        slots: Mutex<Vec<Option<T>>>,
        promise: Mutex<Option<Promise<Vec<T>>>>,
        remaining: AtomicUsize,
    }
    let n = futures.len();
    let (promise, future) = channel();
    let state = Arc::new(JoinState {
        slots: Mutex::new((0..n).map(|_| None).collect()),
        promise: Mutex::new(Some(promise)),
        remaining: AtomicUsize::new(n),
    });
    for (i, fut) in futures.into_iter().enumerate() {
        let state = Arc::clone(&state);
        fut.attach_callback(Box::new(move |outcome| {
            match outcome {
                Ok(v) => state.slots.lock()[i] = Some(v),
                Err(p) => {
                    if let Some(promise) = state.promise.lock().take() {
                        promise.set_panic(p);
                    }
                }
            }
            if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                if let Some(promise) = state.promise.lock().take() {
                    let values: Vec<T> = state
                        .slots
                        .lock()
                        .iter_mut()
                        .map(|s| s.take().expect("when_all slot missing"))
                        .collect();
                    promise.set_value(values);
                }
            }
        }));
    }
    future
}

/// Waits for a set of shared `()` futures — the dependency-join used by the
/// dataflow backend of `op2-core`. Panics in any dependency propagate.
pub fn when_all_shared(deps: &[SharedFuture<()>]) -> Future<()> {
    if deps.is_empty() {
        return ready(());
    }
    struct JoinState {
        promise: Mutex<Option<Promise<()>>>,
        remaining: AtomicUsize,
    }
    let (promise, future) = channel();
    let state = Arc::new(JoinState {
        promise: Mutex::new(Some(promise)),
        remaining: AtomicUsize::new(deps.len()),
    });
    for dep in deps {
        let state = Arc::clone(&state);
        dep.attach_callback(Box::new(move |outcome| {
            if let SharedOutcome::Panic(p) = outcome {
                if let Some(promise) = state.promise.lock().take() {
                    promise.set_panic(Box::new(p.message().to_owned()));
                }
            }
            if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                if let Some(promise) = state.promise.lock().take() {
                    promise.set_value(());
                }
            }
        }));
    }
    future
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
        pending.fulfill(SharedOutcome::Value(3));
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
    fn when_all_shared_joins() {
        let rt = Runtime::new(2);
        let deps: Vec<SharedFuture<()>> = (0..10).map(|_| rt.spawn_future(|| ()).share()).collect();
        when_all_shared(&deps).get();
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
}
