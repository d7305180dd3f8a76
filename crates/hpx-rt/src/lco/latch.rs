//! Countdown latch: what the chunked loop counts its chunks home on.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use crate::runtime::{block_until, Blocked};

/// A single-use countdown latch.
///
/// `wait` returns once `count_down` has been called `n` times. A pool worker
/// blocked in `wait` executes other ready tasks (help-first), which is what
/// allows nested parallel loops without deadlocking a small pool.
///
/// ```
/// use std::sync::Arc;
/// let rt = hpx_rt::Runtime::new(2);
/// let latch = Arc::new(hpx_rt::lco::Latch::new(10));
/// for _ in 0..10 {
///     let l = Arc::clone(&latch);
///     rt.spawn(move || l.count_down());
/// }
/// latch.wait();
/// ```
///
/// A latch may live on its waiter's stack and be popped the moment `wait`
/// returns (`sort` borrows one into its run and merge tasks). So the last
/// `count_down` must be done with the latch's memory before any `wait` can
/// return: the decrement, the look at the sleepers and the wake happen
/// inside one critical section of `lock`, and `wait` never returns on the
/// lock-free view of `remaining` alone — it sees zero with `lock` held.
pub struct Latch {
    remaining: AtomicUsize,
    lock: Mutex<()>,
    blocked: Blocked,
}

impl Latch {
    /// A latch that opens after `n` countdowns (`n == 0` is already open).
    pub fn new(n: usize) -> Self {
        Latch {
            remaining: AtomicUsize::new(n),
            lock: Mutex::new(()),
            blocked: Blocked::default(),
        }
    }

    /// Records one completion. Panics on underflow.
    pub fn count_down(&self) {
        // Decrement under the lock: a waiter that sees zero then has to get
        // past this critical section (see `wait`), so it cannot free the
        // latch while the wake or the unlock below still touch it — and
        // it cannot miss the wake between its check and its condvar wait.
        // Sleepers register under this lock, so nobody asleep means nobody
        // to wake.
        let _g = self.lock.lock();
        let prev = self.remaining.fetch_sub(1, Ordering::AcqRel);
        assert!(prev > 0, "latch counted down below zero");
        if prev == 1 {
            self.blocked.wake_all();
        }
    }

    /// True once the latch is open. This alone does not license freeing
    /// the latch — the opening `count_down` may still be inside it; only a
    /// returned [`Latch::wait`] does.
    #[inline]
    pub fn try_wait(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Blocks until open; workers help-execute while waiting.
    pub fn wait(&self) {
        self.wait_spinning(Duration::ZERO);
    }

    /// [`Latch::wait`] that polls for up to `spin` before it sleeps: the
    /// join of the chunked loop, whose stragglers are about as far
    /// from done as the caller's own share took.
    pub(crate) fn wait_spinning(&self, spin: Duration) {
        // `block_until` sees zero with `lock` held, so the opening
        // `count_down` has left its critical section before the caller
        // may drop the latch.
        block_until(&self.lock, &self.blocked, spin, |_| self.try_wait());
    }

    /// Remaining countdowns (diagnostic).
    pub fn pending(&self) -> usize {
        self.remaining.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn zero_latch_is_open() {
        let l = Latch::new(0);
        assert!(l.try_wait());
        l.wait();
    }

    #[test]
    fn opens_after_n_countdowns() {
        let l = Arc::new(Latch::new(3));
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || l.count_down())
            })
            .collect();
        l.wait();
        assert_eq!(l.pending(), 0);
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "below zero")]
    fn underflow_panics() {
        let l = Latch::new(1);
        l.count_down();
        l.count_down();
    }

    #[test]
    fn wait_on_worker_helps() {
        let rt = Arc::new(crate::Runtime::new(1));
        let l = Arc::new(Latch::new(1));
        let l2 = Arc::clone(&l);
        let worker_rt = Arc::clone(&rt);
        // The outer task waits; the inner task (behind it in the queue)
        // opens the latch. With help-first waiting this cannot deadlock
        // even on a single worker.
        let fut = crate::dataflow(
            &rt,
            move |()| {
                let l3 = Arc::clone(&l2);
                assert!(crate::runtime::on_worker_thread());
                worker_rt.spawn(move || l3.count_down());
                l2.wait();
                true
            },
            (),
        );
        assert!(fut.get());
    }
}
