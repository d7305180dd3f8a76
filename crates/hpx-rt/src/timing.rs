//! Time for the runtime and its callers: the injectable [`Clock`] the
//! feedback-driven granularity machinery measures through (so tests can
//! replace wall time with a deterministic fake), [`time`] for timing one
//! call, and [`defer`], the shared timer thread the in-process transport
//! models link latency on.

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

// ---------------------------------------------------------------------------
// Deferred actions: a shared deadline-timer thread
// ---------------------------------------------------------------------------

/// An action queued on the timer thread.
struct Deferred {
    at: Instant,
    /// Tie-breaker so equal deadlines fire in submission order.
    seq: u64,
    action: Box<dyn FnOnce() + Send>,
}

impl PartialEq for Deferred {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Deferred {}
impl PartialOrd for Deferred {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deferred {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap, the earliest deadline must
        // surface first.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

struct TimerQueue {
    heap: parking_lot::Mutex<std::collections::BinaryHeap<Deferred>>,
    cv: parking_lot::Condvar,
    next_seq: AtomicU64,
}

fn timer() -> &'static TimerQueue {
    static TIMER: OnceLock<&'static TimerQueue> = OnceLock::new();
    TIMER.get_or_init(|| {
        let q: &'static TimerQueue = Box::leak(Box::new(TimerQueue {
            heap: parking_lot::Mutex::new(std::collections::BinaryHeap::new()),
            cv: parking_lot::Condvar::new(),
            next_seq: AtomicU64::new(0),
        }));
        std::thread::Builder::new()
            .name("hpx-timer".into())
            .spawn(move || loop {
                let mut heap = q.heap.lock();
                match heap.peek().map(|d| d.at) {
                    None => q.cv.wait(&mut heap),
                    Some(at) => {
                        let now = Instant::now();
                        if at <= now {
                            let d = heap.pop().unwrap();
                            drop(heap);
                            (d.action)();
                        } else {
                            q.cv.wait_for(&mut heap, at - now);
                        }
                    }
                }
            })
            .expect("spawn hpx-timer thread");
        q
    })
}

/// Runs `action` on a shared timer thread after `delay`, without occupying
/// any runtime worker in the meantime — the deferred-delivery primitive the
/// in-process transport uses to model link latency (a node that must fire
/// late *reschedules* instead of sleeping on a worker). Actions with equal
/// deadlines fire in submission order; the timer thread is lazily created
/// on first use and shared process-wide.
///
/// The action runs on the timer thread itself, so it must be short — push a
/// value, fulfill a promise, spawn a task — or it delays later deadlines.
///
/// ```
/// use std::sync::mpsc::channel;
/// use std::time::Duration;
///
/// let (tx, rx) = channel();
/// hpx_rt::timing::defer(Duration::from_millis(5), move || {
///     let _ = tx.send(42);
/// });
/// assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(42));
/// ```
pub fn defer(delay: Duration, action: impl FnOnce() + Send + 'static) {
    let q = timer();
    let d = Deferred {
        at: Instant::now() + delay,
        seq: q.next_seq.fetch_add(1, Ordering::Relaxed),
        action: Box::new(action),
    };
    q.heap.lock().push(d);
    q.cv.notify_one();
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

    #[test]
    fn defer_fires_after_the_delay() {
        let (tx, rx) = std::sync::mpsc::channel();
        let t0 = Instant::now();
        defer(Duration::from_millis(10), move || {
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn defer_orders_equal_deadlines_by_submission() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let (tx, rx) = std::sync::mpsc::channel();
        // A long-deadline entry first, then several equal short deadlines:
        // the heap must surface the earliest deadline, not insertion order.
        let delay = Duration::from_millis(20);
        for i in 0..4u32 {
            let log = Arc::clone(&log);
            let tx = tx.clone();
            defer(delay, move || {
                log.lock().push(i);
                let _ = tx.send(());
            });
        }
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(&*log.lock(), &[0, 1, 2, 3]);
    }
}
