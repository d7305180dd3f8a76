//! Time for the runtime and its callers: the injectable [`Clock`] the
//! feedback-driven granularity machinery measures through (so tests can
//! replace wall time with a deterministic fake) and [`time`] for timing
//! one call. The runtime has no timer thread: a test that needs a message
//! in flight holds it in the link (`tests/transport.rs`'s `HeldLink`)
//! instead of delaying it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A monotonic nanosecond clock: either the process wall clock or an
/// injected test clock that only moves when the test advances it.
///
/// The OP2 dataflow driver's granularity feedback reads time exclusively
/// through a `Clock`, so convergence behaviour can be proven
/// deterministically: a test installs [`Clock::fake`], has the "kernel" advance it by a
/// synthetic per-element cost, and the feedback loop observes exactly
/// those costs.
///
/// Cloning is cheap; clones of a fake clock share the same time source.
///
/// ```
/// use hpx_rt::timing::Clock;
/// use std::time::Duration;
///
/// let fake = Clock::fake();
/// let t0 = fake.now_ns();
/// fake.advance(Duration::from_micros(3));
/// assert_eq!(fake.now_ns() - t0, 3_000);
/// ```
#[derive(Clone, Debug)]
pub struct Clock {
    /// `None` = real monotonic time; `Some` = shared fake nanoseconds.
    fake: Option<Arc<AtomicU64>>,
}

/// Anchor for the real clock's nanosecond readings (monotonic since first
/// use; only differences are meaningful).
fn real_anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

impl Clock {
    /// The process monotonic clock.
    pub fn real() -> Self {
        Clock { fake: None }
    }

    /// A fake clock starting at 0 ns; it advances only via
    /// [`Clock::advance`]. Clones share the same time source.
    pub fn fake() -> Self {
        Clock {
            fake: Some(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Monotonic nanoseconds; only differences are meaningful.
    pub fn now_ns(&self) -> u64 {
        match &self.fake {
            Some(ns) => ns.load(Ordering::Acquire),
            None => real_anchor().elapsed().as_nanos() as u64,
        }
    }

    /// Advances a fake clock by `d`.
    ///
    /// # Panics
    ///
    /// On a real clock — wall time cannot be steered.
    pub fn advance(&self, d: Duration) {
        let ns = self
            .fake
            .as_ref()
            .expect("Clock::advance on the real clock");
        ns.fetch_add(d.as_nanos() as u64, Ordering::AcqRel);
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::real()
    }
}

/// Runs `f`, returning its result and the wall time taken.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_returns_value() {
        let (v, d) = time(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn fake_clock_is_deterministic_and_shared() {
        let c = Clock::fake();
        assert_eq!(c.now_ns(), 0);
        let clone = c.clone();
        c.advance(Duration::from_nanos(250));
        assert_eq!(clone.now_ns(), 250, "clones share the time source");
        clone.advance(Duration::from_micros(1));
        assert_eq!(c.now_ns(), 1_250);
    }

    #[test]
    fn real_clock_advances_monotonically() {
        let c = Clock::real();
        let a = c.now_ns();
        std::thread::sleep(Duration::from_millis(1));
        assert!(c.now_ns() > a);
    }

    #[test]
    #[should_panic(expected = "Clock::advance on the real clock")]
    fn real_clock_cannot_be_steered() {
        Clock::default().advance(Duration::from_nanos(1));
    }
}
