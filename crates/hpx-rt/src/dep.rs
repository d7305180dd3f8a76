//! Dataflow frames: the one "run when these are ready" mechanism.
//!
//! The block-granular dataflow engine in `op2-core` schedules one node per
//! mini-partition block, so a single loop produces many small nodes and
//! what one node costs to build and to complete is what the engine costs.
//! Here a node is **one frame**, as in HPX's `dataflow`: a single `Arc`
//! that is at once
//!
//! * the **dependency counter** ([`Deps`]): started at `inputs + 1`, the
//!   extra one held by the registration itself so that inputs completing
//!   while the others are still being wired cannot fire it early;
//! * the **continuation**: a pending input keeps an `Arc` of the frame in
//!   its waiter list (no box, no closure), completing it is one
//!   `fetch_sub` per successor, and the frame that reaches zero is itself
//!   the task ([`crate::task::Task::Frame`]) — or runs on the spot when it
//!   was built without a runtime;
//! * the **shared state** of the result: the frame is the tail of its own
//!   result future's allocation ([`SharedInner`]), so the `SharedFuture`
//!   handed back, the entries in its inputs' waiter lists and the queued
//!   task are clones of one `Arc`.
//!
//! One [`Node`] serves two front ends. [`dataflow`] is the paper's §III-B
//! LCO: a tuple of typed futures in, their values passed *unwrapped* to
//! the function (HPX's `hpx::util::unwrapped` is built in), a typed future
//! out. [`schedule_after`] and [`when_all_shared`] are `op2-core`'s node
//! and join: a slice of `SharedFuture<()>`s, each distinct one wired once,
//! and a body that returns nothing. A node drops its inputs when it runs,
//! so a long chain keeps no predecessor alive and drops without recursing
//! through it. A panicked input never runs anything inline on the
//! completing thread's stack when the frame has a runtime: the poisoned
//! frame goes through the task queue like a healthy one, so a panic at the
//! head of a solver-length chain does not recurse through it.
//!
//! ```
//! use hpx_rt::{dataflow, ready, Runtime};
//! let rt = Runtime::new(2);
//! let a = dataflow(&rt, |()| 2, ());
//! let sum = dataflow(&rt, |(a, b)| a + b + 10, (a, ready(3)));
//! assert_eq!(sum.get(), 15);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::future::{SharedFuture, SharedInner, SharedOutcome, SharedPanic};
use crate::runtime::{Runtime, RuntimeInner};
use crate::task::Task;

/// The dependency side of a frame: how many inputs are still out, the
/// first of them that panicked, and where the frame runs.
///
/// `pub` only because [`Inputs::wire`] names [`Frame`], which returns it;
/// the module is private, so nothing outside the crate can reach either.
pub struct Deps {
    remaining: AtomicUsize,
    panic: OnceLock<SharedPanic>,
    /// Taken by the arrival that fires the frame; `None` from the start for
    /// a frame that runs on whichever thread brings its last input in.
    rt: Mutex<Option<Arc<RuntimeInner>>>,
}

impl Deps {
    /// For `inputs` inputs plus the registration's own hold (released with
    /// [`dep_ready`] once every input is wired).
    pub(crate) fn new(inputs: usize, rt: Option<&Runtime>) -> Self {
        if let Some(rt) = rt {
            rt.inner().helped_by_caller();
        }
        Deps {
            remaining: AtomicUsize::new(inputs + 1),
            panic: OnceLock::new(),
            rt: Mutex::new(rt.map(|rt| Arc::clone(rt.inner()))),
        }
    }

    /// `n` inputs are in, one of them with `panic` if it failed; true when
    /// they were the last. `AcqRel`: the arrival that fires the frame has
    /// every earlier one's writes.
    fn arrive(&self, n: usize, panic: Option<&SharedPanic>) -> bool {
        if let Some(p) = panic {
            self.panic.get_or_init(|| p.clone());
        }
        let prev = self.remaining.fetch_sub(n, Ordering::AcqRel);
        assert!(prev >= n, "frame counted down below zero");
        prev == n
    }

    /// `n` inputs need no waiting for — complete when they were wired, or
    /// duplicates. Only during registration, whose own hold keeps these
    /// from being the last.
    pub(crate) fn arrived_early(&self, n: usize, panic: Option<&SharedPanic>) {
        let last = self.arrive(n, panic);
        debug_assert!(!last, "counted early after the registration was over");
    }
}

/// A dataflow frame (see the module docs).
pub trait Frame: Send + Sync + 'static {
    /// The frame's dependency count.
    fn deps(&self) -> &Deps;
    /// Does the node's work and completes it. Called once, after the last
    /// input arrived.
    fn run(self: Arc<Self>);
}

/// One of `frame`'s inputs completed (`panic`: how it failed), or its
/// registration is over. The last of these fires the frame: as a task on
/// its runtime, else right here.
pub(crate) fn dep_ready(frame: Arc<dyn Frame>, panic: Option<&SharedPanic>) {
    if frame.deps().arrive(1, panic) {
        let rt = frame.deps().rt.lock().take();
        match rt {
            Some(rt) => rt.spawn_task(Task::Frame(frame)),
            None => frame.run(),
        }
    }
}

/// The typed inputs of a [`dataflow`] node: a tuple of up to eight
/// [`SharedFuture`]s, or `()` for none.
pub trait Inputs: Send + 'static {
    /// The inputs' values, in order.
    type Values;
    /// How many inputs there are.
    const COUNT: usize;
    /// Makes `frame` a successor of every input.
    fn wire(&self, frame: &Arc<dyn Frame>);
    /// The values, once every input completed with one.
    fn values(self) -> Self::Values;
}

macro_rules! impl_inputs {
    ($n:literal $(, $T:ident . $i:tt)*) => {
        impl<$($T: Clone + Send + Sync + 'static),*> Inputs for ($(SharedFuture<$T>,)*) {
            type Values = ($($T,)*);
            const COUNT: usize = $n;
            fn wire(&self, _frame: &Arc<dyn Frame>) {
                $(self.$i.attach_frame(_frame);)*
            }
            #[allow(clippy::unused_unit)] // `()`, for no inputs
            fn values(self) -> Self::Values {
                ($(self.$i.get(),)*)
            }
        }
    };
}

impl_inputs!(0);
impl_inputs!(1, A.0);
impl_inputs!(2, A.0, B.1);
impl_inputs!(3, A.0, B.1, C.2);
impl_inputs!(4, A.0, B.1, C.2, D.3);
impl_inputs!(5, A.0, B.1, C.2, D.3, E.4);
impl_inputs!(6, A.0, B.1, C.2, D.3, E.4, G.5);
impl_inputs!(7, A.0, B.1, C.2, D.3, E.4, G.5, H.6);
impl_inputs!(8, A.0, B.1, C.2, D.3, E.4, G.5, H.6, I.7);

/// What a node keeps behind its result: the dependency count, and its
/// typed inputs with the function until it runs.
struct Node<Args, F> {
    deps: Deps,
    call: Mutex<Option<(Args, F)>>,
}

impl<Args, R, F> Frame for SharedInner<R, Node<Args, F>>
where
    Args: Inputs,
    R: Send + Sync + 'static,
    F: FnOnce(Args::Values) -> R + Send + 'static,
{
    fn deps(&self) -> &Deps {
        &self.node.deps
    }

    fn run(self: Arc<Self>) {
        // Taken out: the inputs go with this run, not with the result.
        let (args, f) = self.node.call.lock().take().expect("a frame runs once");
        let outcome = match self.node.deps.panic.get() {
            Some(p) => SharedOutcome::Panic(p.clone()),
            None => SharedOutcome::catch(move || f(args.values())),
        };
        self.fulfill(outcome);
    }
}

/// Schedules `f` on `rt` once every future in `args` — a tuple of up to
/// eight `SharedFuture`s of `Clone` values — is ready, passing `f` their
/// values as a tuple, and returns `f`'s result as a future (see the module
/// docs). If any input panicked, `f` is skipped (and dropped) and the
/// result re-panics; a panic inside `f` is captured likewise. With no
/// inputs, `dataflow(rt, |()| work(), ())`, it is an asynchronous call.
pub fn dataflow<Args, R, F>(rt: &Runtime, f: F, args: Args) -> SharedFuture<R>
where
    Args: Inputs,
    R: Send + Sync + 'static,
    F: FnOnce(Args::Values) -> R + Send + 'static,
{
    let node = Arc::new(SharedInner::pending(Node::<Args, F> {
        deps: Deps::new(Args::COUNT, Some(rt)),
        call: Mutex::new(None),
    }));
    let frame: Arc<dyn Frame> = node.clone();
    // Wired before the node owns them; the registration's hold keeps an
    // input that completes meanwhile from firing a node with nothing in it.
    args.wire(&frame);
    *node.node.call.lock() = Some((args, f));
    dep_ready(frame, None);
    SharedFuture { inner: node }
}

/// Above this many inputs the duplicate scan sorts by address instead of
/// comparing every pair.
const QUADRATIC_DEDUP_MAX: usize = 16;

/// Builds the node frame, wires each distinct input once (by identity, see
/// [`SharedFuture::ptr_eq`]) and returns the completion with the number of
/// inputs wired.
fn schedule<F>(
    rt: Option<&Runtime>,
    deps: &[SharedFuture<()>],
    body: F,
) -> (SharedFuture<()>, usize)
where
    F: FnOnce() + Send + 'static,
{
    let node = Arc::new(SharedInner::pending(Node {
        deps: Deps::new(deps.len(), rt),
        call: Mutex::new(Some(((), move |()| body()))),
    }));
    let frame: Arc<dyn Frame> = node.clone();
    let mut wired = 0;
    if deps.len() <= QUADRATIC_DEDUP_MAX {
        for (i, dep) in deps.iter().enumerate() {
            if !deps[..i].iter().any(|d| SharedFuture::ptr_eq(d, dep)) {
                dep.attach_frame(&frame);
                wired += 1;
            }
        }
    } else {
        let mut unique: Vec<&SharedFuture<()>> = deps.iter().collect();
        unique.sort_unstable_by_key(|d| d.addr());
        unique.dedup_by_key(|d| d.addr());
        for dep in &unique {
            dep.attach_frame(&frame);
        }
        wired = unique.len();
    }
    // Each duplicate would cost a waiter entry and a countdown for no
    // semantic effect: count it as in right away.
    frame.deps().arrived_early(deps.len() - wired, None);
    dep_ready(frame, None);
    (SharedFuture { inner: node }, wired)
}

/// Schedules `body` on `rt` as soon as every future in `deps` is ready,
/// returning the node's completion. If any dependency panicked, `body` is
/// skipped (and dropped) and the completion re-panics with the first
/// observed panic; a panic inside `body` is captured likewise.
///
/// The node is one allocation (see the module docs). Inputs that are
/// already complete are counted at registration, so a node whose inputs
/// all resolved costs one task spawn and no waiting. Duplicate inputs
/// (clones of one future — common when several arguments of a loop reach
/// the same predecessor node) are wired once.
pub fn schedule_after<F>(rt: &Runtime, deps: &[SharedFuture<()>], body: F) -> SharedFuture<()>
where
    F: FnOnce() + Send + 'static,
{
    schedule(Some(rt), deps, body).0
}

/// [`schedule_after`], additionally returning how many dependency edges
/// were actually wired — `deps.len()` minus the duplicates dropped. A
/// caller that deduplicates its inputs itself can assert the two agree.
pub fn schedule_after_counted<F>(
    rt: &Runtime,
    deps: &[SharedFuture<()>],
    body: F,
) -> (SharedFuture<()>, usize)
where
    F: FnOnce() + Send + 'static,
{
    schedule(Some(rt), deps, body)
}

/// Completes once every future in `deps` has — the join behind the colour
/// rounds of `op2-core`'s dataflow backend: a [`schedule_after`] node with
/// nothing to run, completed on the thread that brings its last input in
/// (no task). Panics in any dependency propagate.
pub fn when_all_shared(deps: &[SharedFuture<()>]) -> SharedFuture<()> {
    schedule(None, deps, || ()).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::future::{channel, ready};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn schedule_after_empty_deps_runs() {
        let rt = Runtime::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let done = schedule_after(&rt, &[], move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        done.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn schedule_after_waits_for_all() {
        let rt = Runtime::new(2);
        let deps: Vec<SharedFuture<()>> = (0..32).map(|_| dataflow(&rt, |()| (), ())).collect();
        let order = Arc::new(AtomicU64::new(0));
        let o = Arc::clone(&order);
        let done = schedule_after(&rt, &deps, move || {
            o.store(1, Ordering::Release);
        });
        done.wait();
        assert_eq!(order.load(Ordering::Acquire), 1);
        assert!(deps.iter().all(|d| d.is_ready()));
    }

    #[test]
    fn schedule_after_dedups_cloned_inputs() {
        let rt = Runtime::new(2);
        let dep = dataflow(&rt, |()| (), ());
        // The same future passed five times must count as one dependency
        // (a duplicate-counting bug would fire the body early or never).
        let deps = vec![dep.clone(), dep.clone(), dep.clone(), dep.clone(), dep];
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let done = schedule_after(&rt, &deps, move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        done.wait();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn long_input_lists_dedup_by_sorting() {
        let rt = Runtime::new(2);
        let distinct: Vec<SharedFuture<()>> = (0..40).map(|_| dataflow(&rt, |()| (), ())).collect();
        // 40 distinct futures, each passed three times, interleaved.
        let deps: Vec<SharedFuture<()>> = (0..120).map(|i| distinct[i % 40].clone()).collect();
        let (done, wired) = schedule_after_counted(&rt, &deps, || ());
        assert_eq!(wired, 40);
        done.get();
        let (_, wired) = schedule_after_counted(&rt, &deps[..12], || ());
        assert_eq!(wired, 12, "short lists keep every distinct input too");
    }

    /// Inputs that are complete when they are wired count down during the
    /// registration, which holds a count of its own: the frame fires once,
    /// when the registration is over, as a spawn of the registering thread
    /// — from a worker that is a push onto its own deque, which nothing
    /// can pop while the worker is still inside the registering task.
    #[test]
    fn ready_inputs_fire_once_when_registration_ends() {
        let rt = Arc::new(Runtime::new(1));
        let hits = Arc::new(AtomicU64::new(0));
        let (rt2, hits2) = (Arc::clone(&rt), Arc::clone(&hits));
        let node = dataflow(
            &rt,
            move |()| {
                let deps: Vec<SharedFuture<()>> = (0..8).map(|_| ready(())).collect();
                let h = Arc::clone(&hits2);
                let node = schedule_after(&rt2, &deps, move || {
                    h.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(
                    hits2.load(Ordering::Relaxed),
                    0,
                    "ran inside the registration"
                );
                assert!(!node.is_ready());
                node
            },
            (),
        )
        .get();
        node.get();
        assert_eq!(hits.load(Ordering::Relaxed), 1);

        // Without a runtime the frame runs where its last input arrives:
        // in the registration if they are all in, else in the completion.
        let h = Arc::clone(&hits);
        let (_, wired) = schedule(None, &[ready(()), ready(())], move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!((hits.load(Ordering::Relaxed), wired), (2, 2));
        let late = SharedFuture::<()>::pending();
        let h = Arc::clone(&hits);
        let (joined, _) = schedule(None, &[ready(()), late.clone()], move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(
            hits.load(Ordering::Relaxed),
            2,
            "fired before its last input"
        );
        late.inner.fulfill(SharedOutcome::Value(()));
        assert!(joined.has_value());
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn a_frame_dropped_with_unmet_dependencies_frees_its_body() {
        let rt = Runtime::new(1);
        let never = SharedFuture::<()>::pending();
        let held = Arc::new(());
        let in_body = Arc::clone(&held);
        let node = schedule_after(&rt, std::slice::from_ref(&never), move || drop(in_body));
        assert_eq!(Arc::strong_count(&held), 2);
        // The input's waiter list and the handle are all that own the frame.
        drop(node);
        assert_eq!(
            Arc::strong_count(&held),
            2,
            "the input still owes it a wake"
        );
        drop(never);
        assert_eq!(Arc::strong_count(&held), 1);
    }

    #[test]
    fn when_all_shared_joins_inline_and_propagates_panics() {
        let rt = Runtime::new(2);
        assert!(when_all_shared(&[]).has_value());
        let deps: Vec<SharedFuture<()>> = (0..10).map(|_| dataflow(&rt, |()| (), ())).collect();
        when_all_shared(&deps).get();
        rt.wait_idle();
        let before = rt.stats().tasks_executed;
        let bad: SharedFuture<()> = dataflow(&rt, |()| panic!("round died"), ());
        let gate = when_all_shared(&[deps[0].clone(), bad]);
        gate.wait();
        assert!(gate.is_ready() && !gate.has_value());
        rt.wait_idle();
        assert_eq!(
            rt.stats().tasks_executed,
            before + 1,
            "the join is not a task"
        );
    }

    #[test]
    fn schedule_after_chains() {
        // A linear chain of 100 nodes through shared futures.
        let rt = Runtime::new(2);
        let counter = Arc::new(AtomicU64::new(0));
        let mut prev = schedule_after(&rt, &[], || ());
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            prev = schedule_after(&rt, std::slice::from_ref(&prev), move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        prev.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn panic_traverses_long_chain_without_recursion() {
        // A panic at the head of a deep submitted chain must poison every
        // downstream node through the task queue, not by recursing down
        // one call stack (which would overflow for solver-scale chains).
        let rt = Runtime::new(2);
        let mut prev = schedule_after(&rt, &[], || panic!("head died"));
        for _ in 0..100_000 {
            prev = schedule_after(&rt, std::slice::from_ref(&prev), || {
                unreachable!("poisoned node must not run")
            });
        }
        prev.wait();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prev.get()));
        let msg = *r
            .expect_err("tail must re-panic")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("head died"), "panic message lost: {msg}");
    }

    #[test]
    #[should_panic(expected = "node dependency died")]
    fn schedule_after_propagates_dep_panic() {
        let rt = Runtime::new(2);
        let bad: SharedFuture<()> = dataflow(&rt, |()| panic!("node dependency died"), ());
        let done = schedule_after(&rt, &[bad], || unreachable!("must be skipped"));
        done.get();
    }

    #[test]
    #[should_panic(expected = "body exploded")]
    fn schedule_after_propagates_body_panic() {
        let rt = Runtime::new(2);
        let done = schedule_after(&rt, &[], || panic!("body exploded"));
        done.get();
    }

    #[test]
    fn dataflow_mixes_pending_and_ready_inputs() {
        let rt = Runtime::new(2);
        let a = dataflow(&rt, |()| 1u64, ());
        let (promise, c) = channel();
        let out = dataflow(&rt, |(a, b, c)| a + b + c, (a, ready(2u64), c));
        promise.set_value(3u64);
        assert_eq!(out.get(), 6);
    }

    #[test]
    fn diamond_graph() {
        // a -> (b, c) -> d : the classic dependency diamond.
        let rt = Runtime::new(2);
        let a = dataflow(&rt, |()| 5i64, ());
        let b = dataflow(&rt, |(x,)| x * 2, (a.clone(),));
        let c = dataflow(&rt, |(x,)| x + 100, (a,));
        let d = dataflow(&rt, |(b, c)| b + c, (b, c));
        assert_eq!(d.get(), 115);
    }

    /// The rig's `hpxrt.dataflow_node_ns` chain. Every node lets go of
    /// its input when it runs: once the tail resolves nothing holds the
    /// head but this test, and dropping the tail frees one node — on a
    /// stack far too small to recurse through ten thousand.
    #[test]
    fn a_long_dataflow_chain_resolves_and_keeps_no_predecessor_alive() {
        const CHAIN: u64 = 10_000;
        let rt = Runtime::new(2);
        let (start, head) = channel();
        let mut f = head.clone();
        for _ in 0..CHAIN {
            f = dataflow(&rt, |(a,)| a + 1, (f,));
        }
        start.set_value(0u64);
        assert_eq!(f.get(), CHAIN);
        assert_eq!(Arc::strong_count(&head.inner), 1, "a node kept its input");
        std::thread::Builder::new()
            .stack_size(32 * 1024)
            .spawn(move || drop(f))
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "input died")]
    fn panic_in_input_skips_function() {
        let rt = Runtime::new(2);
        let bad = dataflow(&rt, |()| -> u32 { panic!("input died") }, ());
        let out = dataflow(
            &rt,
            |(_x, _y)| unreachable!("must not run"),
            (bad, ready(1u32)),
        );
        let _: u32 = out.get();
    }

    #[test]
    fn eight_arity() {
        let rt = Runtime::new(2);
        let out = dataflow(
            &rt,
            |(a, b, c, d, e, f, g, h)| a + b + c + d + e + f + g + h,
            (
                ready(1u32),
                ready(2u32),
                ready(3u32),
                ready(4u32),
                ready(5u32),
                ready(6u32),
                ready(7u32),
                ready(8u32),
            ),
        );
        assert_eq!(out.get(), 36);
    }
}
