//! Lightweight dependency-counting LCOs for fine-grained task graphs.
//!
//! The block-granular dataflow engine in `op2-core` schedules one node per
//! mini-partition block, so a single loop can produce thousands of small
//! nodes. Building each node out of `when_all` + `Promise` + `Future` +
//! `share()` costs four allocations and two continuation hops per node;
//! this module provides the flat, batched alternative:
//!
//! * [`DepCounter`] — an atomic countdown LCO that fires a stored action
//!   exactly once when the count reaches zero (HPX's
//!   `hpx::lcos::local::counting_semaphore` flavor of dependency join);
//! * [`schedule_after`] — "run this closure on the runtime once all these
//!   shared futures are ready", returning the node's completion as a
//!   [`SharedFuture`] so it can be stored directly in per-block dependency
//!   tables. One allocation for the result, one registration per input, no
//!   intermediate futures. Panics in any input (or the body) propagate to
//!   the returned future.
//! * [`when_any_shared`] — a when-any-of-range join: resolves to the index
//!   of the first ready input.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::future::{channel, Future, SharedFuture, SharedOutcome, SharedPanic};
use crate::runtime::Runtime;
use crate::task::Task;

/// An atomic countdown LCO: created with a count and an action, it runs the
/// action exactly once — on the thread that performs the final
/// [`DepCounter::count_down`] — when the count reaches zero. A counter
/// created with count 0 fires immediately on construction.
///
/// This is the join primitive behind [`schedule_after`]; it is exposed on
/// its own for callers that batch completions by hand.
///
/// ```
/// use std::sync::Arc;
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use hpx_rt::DepCounter;
///
/// let fired = Arc::new(AtomicBool::new(false));
/// let f2 = Arc::clone(&fired);
/// let c = DepCounter::new(2, move || f2.store(true, Ordering::Release));
/// c.count_down();
/// assert!(!fired.load(Ordering::Acquire));
/// c.count_down();
/// assert!(fired.load(Ordering::Acquire));
/// ```
pub struct DepCounter {
    remaining: AtomicUsize,
    action: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl DepCounter {
    /// A counter that runs `action` after `count` countdowns.
    pub fn new<F>(count: usize, action: F) -> Arc<Self>
    where
        F: FnOnce() + Send + 'static,
    {
        let counter = Arc::new(DepCounter {
            remaining: AtomicUsize::new(count),
            action: Mutex::new(Some(Box::new(action))),
        });
        if count == 0 {
            counter.fire();
        }
        counter
    }

    /// Records one completion; the final call runs the action inline.
    pub fn count_down(&self) {
        let prev = self.remaining.fetch_sub(1, Ordering::AcqRel);
        assert!(prev > 0, "DepCounter counted down below zero");
        if prev == 1 {
            self.fire();
        }
    }

    /// Remaining countdowns (diagnostic; racy by nature).
    pub fn pending(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }

    fn fire(&self) {
        if let Some(action) = self.action.lock().take() {
            action();
        }
    }
}

impl std::fmt::Debug for DepCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DepCounter")
            .field("pending", &self.pending())
            .finish()
    }
}

/// Shared state of one [`schedule_after`] node.
struct NodeState {
    /// First panic observed among the dependencies, if any.
    dep_panic: Mutex<Option<SharedPanic>>,
    /// Completion future handed to consumers.
    done: SharedFuture<()>,
}

/// Above this many inputs the duplicate scan sorts by pointer instead of
/// comparing every pair.
const QUADRATIC_DEDUP_MAX: usize = 16;

/// The distinct futures of `deps` (by identity, see
/// [`SharedFuture::ptr_eq`]): first-occurrence order for short lists,
/// address order above [`QUADRATIC_DEDUP_MAX`].
fn unique_deps(deps: &[SharedFuture<()>]) -> Vec<&SharedFuture<()>> {
    let mut unique: Vec<&SharedFuture<()>> = Vec::with_capacity(deps.len());
    if deps.len() <= QUADRATIC_DEDUP_MAX {
        for dep in deps {
            if !unique.iter().any(|u| SharedFuture::ptr_eq(u, dep)) {
                unique.push(dep);
            }
        }
    } else {
        unique.extend(deps);
        unique.sort_unstable_by_key(|d| d.addr());
        unique.dedup_by_key(|d| d.addr());
    }
    unique
}

/// Schedules `body` on `rt` as soon as every future in `deps` is ready,
/// returning the node's completion. If any dependency panicked, `body` is
/// skipped and the completion re-panics with the first observed panic; a
/// panic inside `body` is captured likewise.
///
/// Ready dependencies are counted immediately (their callback runs inline
/// at registration), so a node whose inputs already resolved costs one
/// task spawn and no waiting. Duplicate inputs (clones of one future —
/// common when several arguments of a loop reach the same predecessor
/// node) are registered once.
pub fn schedule_after<F>(rt: &Runtime, deps: &[SharedFuture<()>], body: F) -> SharedFuture<()>
where
    F: FnOnce() + Send + 'static,
{
    schedule_after_counted(rt, deps, body).0
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
    // Each duplicate would cost a boxed callback and a countdown for no
    // semantic effect.
    let deps = unique_deps(deps);
    let wired = deps.len();

    let state = Arc::new(NodeState {
        dep_panic: Mutex::new(None),
        done: SharedFuture::pending(),
    });
    let result = state.done.clone();

    let inner_rt = Arc::clone(rt.inner());
    let fire_state = Arc::clone(&state);
    let counter = DepCounter::new(deps.len(), move || {
        let panic = fire_state.dep_panic.lock().take();
        match panic {
            // Propagate through a task, never inline: fulfilling here would
            // run the downstream node's countdown on this same stack, and a
            // panic at the head of a long submitted chain would then recurse
            // through every poisoned node and overflow the stack.
            Some(p) => inner_rt.spawn_task(Task::new(move || {
                fire_state.done.fulfill(SharedOutcome::Panic(p));
            })),
            None => inner_rt.spawn_task(Task::new(move || {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
                let outcome = match r {
                    Ok(()) => SharedOutcome::Value(()),
                    Err(p) => SharedOutcome::Panic(SharedPanic::from_payload(&p)),
                };
                fire_state.done.fulfill(outcome);
            })),
        }
    });

    for dep in deps {
        let counter = Arc::clone(&counter);
        let state = Arc::clone(&state);
        dep.attach_callback(Box::new(move |outcome| {
            if let SharedOutcome::Panic(p) = outcome {
                state.dep_panic.lock().get_or_insert_with(|| p.clone());
            }
            counter.count_down();
        }));
    }
    (result, wired)
}

/// Resolves to the index of the first input to become ready (HPX
/// `when_any` over a range of shared futures). Inputs that panic still
/// count as "ready" — the winner's panic is *not* propagated, only its
/// index reported, so callers can inspect the winner themselves.
///
/// # Panics
///
/// If `deps` is empty (there is nothing to wait for).
pub fn when_any_shared(deps: &[SharedFuture<()>]) -> Future<usize> {
    assert!(!deps.is_empty(), "when_any_shared on an empty set");
    struct AnyState {
        promise: Mutex<Option<crate::future::Promise<usize>>>,
    }
    let (promise, future) = channel();
    let state = Arc::new(AnyState {
        promise: Mutex::new(Some(promise)),
    });
    for (i, dep) in deps.iter().enumerate() {
        let state = Arc::clone(&state);
        dep.attach_callback(Box::new(move |_outcome| {
            if let Some(p) = state.promise.lock().take() {
                p.set_value(i);
            }
        }));
    }
    future
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::future::ready;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn zero_count_fires_immediately() {
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let _c = DepCounter::new(0, move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn fires_exactly_once() {
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let c = DepCounter::new(64, move || {
            h.fetch_add(1, Ordering::Relaxed);
        });
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        c.count_down();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(c.pending(), 0);
    }

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
        let deps: Vec<SharedFuture<()>> = (0..32).map(|_| rt.spawn_future(|| ()).share()).collect();
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
        let dep = rt.spawn_future(|| ()).share();
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
        let distinct: Vec<SharedFuture<()>> =
            (0..40).map(|_| rt.spawn_future(|| ()).share()).collect();
        // 40 distinct futures, each passed three times, interleaved.
        let deps: Vec<SharedFuture<()>> = (0..120).map(|i| distinct[i % 40].clone()).collect();
        let (done, wired) = schedule_after_counted(&rt, &deps, || ());
        assert_eq!(wired, 40);
        done.get();
        let (_, wired) = schedule_after_counted(&rt, &deps[..12], || ());
        assert_eq!(wired, 12, "short lists keep every distinct input too");
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
        for _ in 0..50_000 {
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
        let bad: SharedFuture<()> = rt.spawn_future(|| panic!("node dependency died")).share();
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
    fn when_any_reports_first_ready() {
        let rt = Runtime::new(2);
        let slow: SharedFuture<()> = rt
            .spawn_future(|| std::thread::sleep(std::time::Duration::from_millis(50)))
            .share();
        let fast = ready(()).share();
        let idx = when_any_shared(&[slow, fast]).get();
        assert_eq!(idx, 1);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn when_any_rejects_empty() {
        let _ = when_any_shared(&[]);
    }
}
