//! Manual-reset event LCO.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use crate::runtime::{block_until, Blocked};

/// A manual-reset event: threads wait until some other thread calls
/// [`Event::set`]; the event stays signalled until [`Event::reset`].
#[derive(Default)]
pub struct Event {
    set: AtomicBool,
    lock: Mutex<()>,
    blocked: Blocked,
}

impl Event {
    /// A new, unsignalled event.
    pub fn new() -> Self {
        Self::default()
    }

    /// True while signalled.
    #[inline]
    pub fn is_set(&self) -> bool {
        self.set.load(Ordering::Acquire)
    }

    /// Signals the event, releasing all current and future waiters.
    pub fn set(&self) {
        self.set.store(true, Ordering::Release);
        // Sleepers register under this lock before their last look at
        // the flag, so whoever is not counted here will see it.
        let _g = self.lock.lock();
        self.blocked.wake_all();
    }

    /// Clears the signal; subsequent waiters block again.
    pub fn reset(&self) {
        self.set.store(false, Ordering::Release);
    }

    /// Blocks until signalled; workers help-execute while waiting.
    pub fn wait(&self) {
        if !self.is_set() {
            block_until(&self.lock, &self.blocked, Duration::ZERO, |_| self.is_set());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn set_releases_waiter() {
        let e = Arc::new(Event::new());
        let e2 = Arc::clone(&e);
        let t = std::thread::spawn(move || {
            e2.wait();
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        e.set();
        assert!(t.join().unwrap());
    }

    #[test]
    fn reset_blocks_again() {
        let e = Event::new();
        e.set();
        assert!(e.is_set());
        e.wait(); // immediate
        e.reset();
        assert!(!e.is_set());
    }

    #[test]
    fn already_set_wait_is_immediate() {
        let e = Event::new();
        e.set();
        e.wait();
    }
}
