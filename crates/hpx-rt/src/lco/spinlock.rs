//! Test-and-test-and-set spinlock LCO.
//!
//! Built in the style of *Rust Atomics and Locks* ch. 4: an `AtomicBool`
//! with acquire/release ordering, exponential backoff while spinning, and a
//! RAII guard providing access to the protected value.

use crossbeam::utils::Backoff;
use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

/// A spinlock protecting a value of type `T`. Prefer a blocking mutex for
/// long critical sections; this is for short, hot ones (e.g. per-block
/// reduction commits).
pub struct SpinLock<T> {
    locked: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: the lock provides the needed exclusion; `T: Send` suffices
// because only one thread touches the value at a time.
unsafe impl<T: Send> Sync for SpinLock<T> {}
// SAFETY: moving the lock moves the owned `T` with it, which `T: Send`
// permits; the flag is an atomic.
unsafe impl<T: Send> Send for SpinLock<T> {}

/// RAII guard for [`SpinLock`]; releases on drop.
pub struct SpinLockGuard<'a, T> {
    lock: &'a SpinLock<T>,
}

impl<T> SpinLock<T> {
    /// Wraps `value` in a new, unlocked spinlock.
    pub const fn new(value: T) -> Self {
        SpinLock {
            locked: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Spins (with backoff) until the lock is acquired.
    pub fn lock(&self) -> SpinLockGuard<'_, T> {
        let backoff = Backoff::new();
        loop {
            // Test-and-test-and-set: spin on a plain load first so the
            // cacheline is only invalidated when the swap can succeed.
            while self.locked.load(Ordering::Relaxed) {
                backoff.snooze();
            }
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return SpinLockGuard { lock: self };
            }
        }
    }

    /// Acquires the lock only if free right now.
    pub fn try_lock(&self) -> Option<SpinLockGuard<'_, T>> {
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            Some(SpinLockGuard { lock: self })
        } else {
            None
        }
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T> Deref for SpinLockGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard witnesses exclusive ownership of the lock.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> DerefMut for SpinLockGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for SpinLockGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_under_contention() {
        let lock = Arc::new(SpinLock::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        *lock.lock() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*lock.lock(), 40_000);
        let lock = Arc::into_inner(lock).expect("sole owner");
        assert_eq!(lock.into_inner(), 40_000);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let lock = SpinLock::new(());
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        drop(g);
        assert!(lock.try_lock().is_some());
    }
}
