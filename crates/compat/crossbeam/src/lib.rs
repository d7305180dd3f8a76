//! Offline stand-in for the `crossbeam` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace-local crate provides the API subset the scheduler uses:
//! `deque::{Worker, Stealer, Injector, Steal}` and
//! `utils::{Backoff, CachePadded}`. The deques are mutex-backed rather than
//! lock-free — semantically identical (LIFO owner pop, FIFO steal, batched
//! steals), slower under extreme contention. Swap the path dependency back
//! to the real crate when a registry is available; no call sites change.

#![warn(missing_docs)]

/// Work-stealing double-ended queues (mutex-backed stand-in).
pub mod deque {
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex, PoisonError};

    /// How many extra items a batched steal moves to the thief's deque.
    const STEAL_BATCH: usize = 16;

    /// The result of a steal attempt.
    #[derive(Debug)]
    pub enum Steal<T> {
        /// The source was empty.
        Empty,
        /// One task was stolen (possibly with a batch moved alongside).
        Success(T),
        /// The attempt lost a race; retrying may succeed.
        Retry,
    }

    fn lock<T>(q: &Mutex<VecDeque<T>>) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        q.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The owner's end of a work-stealing deque: LIFO push/pop.
    pub struct Worker<T> {
        queue: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Worker<T> {
        /// Creates a deque whose owner pops in LIFO order.
        pub fn new_lifo() -> Self {
            Worker {
                queue: Arc::new(Mutex::new(VecDeque::new())),
            }
        }

        /// Pushes a task onto the owner's end.
        pub fn push(&self, task: T) {
            lock(&self.queue).push_back(task);
        }

        /// Pops the most recently pushed task (LIFO).
        pub fn pop(&self) -> Option<T> {
            lock(&self.queue).pop_back()
        }

        /// True when the deque holds no tasks.
        pub fn is_empty(&self) -> bool {
            lock(&self.queue).is_empty()
        }

        /// A handle other threads use to steal from this deque.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    /// A thief's handle onto some [`Worker`]'s deque: FIFO steals.
    pub struct Stealer<T> {
        queue: Arc<Mutex<VecDeque<T>>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer {
                queue: Arc::clone(&self.queue),
            }
        }
    }

    fn steal_into<T>(src: &Mutex<VecDeque<T>>, dest: &Worker<T>) -> Steal<T> {
        // Take the batch out under the source lock only, then release it
        // before touching the destination: two threads stealing from each
        // other must never hold both locks at once (lock-order deadlock).
        let (first, batch) = {
            let mut src = lock(src);
            let Some(first) = src.pop_front() else {
                return Steal::Empty;
            };
            let extra = (src.len() / 2).min(STEAL_BATCH);
            let batch: Vec<T> = src.drain(..extra).collect();
            (first, batch)
        };
        if !batch.is_empty() {
            let mut dest_q = lock(&dest.queue);
            // Keep FIFO order: oldest of the batch lands deepest.
            for t in batch.into_iter().rev() {
                dest_q.push_front(t);
            }
        }
        Steal::Success(first)
    }

    impl<T> Stealer<T> {
        /// True when the deque holds no tasks.
        pub fn is_empty(&self) -> bool {
            lock(&self.queue).is_empty()
        }

        /// Steals one task, moving a batch of follow-up tasks into `dest`.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            steal_into(&self.queue, dest)
        }
    }

    /// A shared FIFO queue for task submission from outside the pool.
    pub struct Injector<T> {
        queue: Mutex<VecDeque<T>>,
    }

    impl<T> Default for Injector<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> Injector<T> {
        /// An empty injector.
        pub fn new() -> Self {
            Injector {
                queue: Mutex::new(VecDeque::new()),
            }
        }

        /// Enqueues a task (FIFO).
        pub fn push(&self, task: T) {
            lock(&self.queue).push_back(task);
        }

        /// True when no tasks are queued.
        pub fn is_empty(&self) -> bool {
            lock(&self.queue).is_empty()
        }

        /// Steals one task, moving a batch of follow-up tasks into `dest`.
        pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
            steal_into(&self.queue, dest)
        }
    }
}

/// Miscellaneous concurrency utilities.
pub mod utils {
    /// Exponential backoff for spin loops.
    #[derive(Debug, Default)]
    pub struct Backoff {
        step: std::cell::Cell<u32>,
    }

    /// Spin this many doubling rounds before starting to yield the thread.
    const SPIN_LIMIT: u32 = 6;

    impl Backoff {
        /// A fresh backoff state.
        pub fn new() -> Self {
            Backoff::default()
        }

        /// Backs off: short spins first, thread yields once contended.
        pub fn snooze(&self) {
            let step = self.step.get();
            if step <= SPIN_LIMIT {
                for _ in 0..(1u32 << step) {
                    std::hint::spin_loop();
                }
                self.step.set(step + 1);
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Pads and aligns a value to 128 bytes to avoid false sharing.
    #[derive(Debug, Default)]
    #[repr(align(128))]
    pub struct CachePadded<T> {
        value: T,
    }

    impl<T> CachePadded<T> {
        /// Wraps `value` in cache-line padding.
        pub const fn new(value: T) -> Self {
            CachePadded { value }
        }
    }

    impl<T> std::ops::Deref for CachePadded<T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.value
        }
    }

    impl<T> std::ops::DerefMut for CachePadded<T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::deque::{Injector, Steal, Worker};
    use super::utils::{Backoff, CachePadded};

    #[test]
    fn owner_pops_lifo() {
        let w = Worker::new_lifo();
        w.push(1);
        w.push(2);
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn stealer_takes_fifo_with_batch() {
        let victim = Worker::new_lifo();
        for i in 0..10 {
            victim.push(i);
        }
        let thief = Worker::new_lifo();
        match victim.stealer().steal_batch_and_pop(&thief) {
            Steal::Success(v) => assert_eq!(v, 0, "steals from the cold end"),
            other => panic!("expected success, got {other:?}"),
        }
        assert!(!thief.is_empty(), "a batch must ride along");
    }

    #[test]
    fn injector_is_fifo() {
        let inj = Injector::new();
        inj.push("a");
        inj.push("b");
        let w = Worker::new_lifo();
        assert!(matches!(inj.steal_batch_and_pop(&w), Steal::Success("a")));
    }

    #[test]
    fn utils_smoke() {
        let b = Backoff::new();
        for _ in 0..10 {
            b.snooze();
        }
        let padded = CachePadded::new(7u64);
        assert_eq!(*padded, 7);
        assert!(std::mem::align_of::<CachePadded<u8>>() >= 128);
    }
}
