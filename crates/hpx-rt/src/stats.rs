//! Scheduler instrumentation.
//!
//! Every worker, and the caller slot, owns a cache-padded counter block;
//! [`Runtime::stats`] aggregates them into a [`RuntimeStats`] snapshot. The
//! counters are maintained with relaxed atomics — they are diagnostics,
//! not synchronization.
//!
//! The module additionally hosts a process-wide registry of **named
//! counters** ([`counter`], [`counter_value`], [`counters`]): cheap
//! relaxed `AtomicU64`s that higher layers (the OP2 loop-spec cache, the
//! implicit halo-exchange engine) bump and benches report. Names are
//! dot-namespaced by convention (`op2.spec_cache.hits`).
//!
//! [`Runtime::stats`]: crate::Runtime::stats

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Per-worker counters (cache padded to avoid false sharing).
#[derive(Default)]
pub(crate) struct WorkerStats {
    /// Tasks executed by the worker loop.
    pub executed: AtomicU64,
    /// Tasks executed while helping inside a blocking wait.
    pub helped: AtomicU64,
    /// Successful steals from sibling workers.
    pub steals: AtomicU64,
    /// Times the worker, having just run a task, polled the queues for a
    /// bounded interval instead of parking at once.
    pub lingers: AtomicU64,
    /// Lingers that found a task.
    pub linger_hits: AtomicU64,
    /// Times the worker went to sleep: parked, or napping inside a wait.
    pub parks: AtomicU64,
    /// Parks that slept out their whole timeout although a task was
    /// queued by then and no pusher had announced a wake-up meanwhile:
    /// wake-ups the sleep protocol lost.
    pub late_wakes: AtomicU64,
    /// Tasks that panicked (panics are caught and counted).
    pub panics: AtomicU64,
}

pub(crate) type PaddedWorkerStats = CachePadded<WorkerStats>;

/// A point-in-time aggregate of scheduler activity.
///
/// ```
/// let rt = hpx_rt::Runtime::new(2);
/// rt.spawn(|| {});
/// rt.wait_idle();
/// let s = rt.stats();
/// assert!(s.tasks_executed >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeStats {
    /// Number of computing threads: the background workers and the caller
    /// slot (`Runtime::new`'s argument).
    pub workers: usize,
    /// Total tasks executed (worker loop + help execution).
    pub tasks_executed: u64,
    /// Tasks executed while a thread was blocked waiting (help-first
    /// policy): by a worker inside a nested wait, or by an outside thread
    /// in the caller slot.
    pub tasks_helped: u64,
    /// Successful steals from sibling deques.
    pub steals: u64,
    /// Chunks of chunked loops (`for_each_chunk`) that the
    /// joining thread ran itself. They are not tasks: `tasks_executed`
    /// counts only the helper tasks that claimed the other chunks.
    pub caller_chunks: u64,
    /// Times a worker that had just run a task polled the queues for a
    /// bounded interval before parking.
    pub lingers: u64,
    /// Lingers that found a task — over `lingers`, the share of the
    /// polling that saved a park/unpark round trip.
    pub linger_hits: u64,
    /// Times a computing thread went to sleep: a worker on the idle
    /// condvar, a helping thread (blocked worker or slot holder) on the
    /// primitive it waits for with nothing to run.
    pub parks: u64,
    /// Parks that ran out their timeout with a task already queued and no
    /// wake-up announced while they slept — each is a wake-up the sleep
    /// protocol lost (expected 0). A timeout that merely races a notify
    /// already on its way is not counted.
    pub late_wakes: u64,
    /// Tasks whose closure panicked.
    pub task_panics: u64,
}

impl RuntimeStats {
    pub(crate) fn aggregate(workers: &[PaddedWorkerStats], caller_chunks: u64) -> Self {
        let mut out = RuntimeStats {
            workers: workers.len(),
            caller_chunks,
            ..Default::default()
        };
        for w in workers {
            out.tasks_executed += w.executed.load(Ordering::Relaxed);
            out.tasks_helped += w.helped.load(Ordering::Relaxed);
            out.steals += w.steals.load(Ordering::Relaxed);
            out.lingers += w.lingers.load(Ordering::Relaxed);
            out.linger_hits += w.linger_hits.load(Ordering::Relaxed);
            out.parks += w.parks.load(Ordering::Relaxed);
            out.late_wakes += w.late_wakes.load(Ordering::Relaxed);
            out.task_panics += w.panics.load(Ordering::Relaxed);
        }
        out.tasks_executed += out.tasks_helped;
        out
    }
}

// ---------------------------------------------------------------------------
// Named counters
// ---------------------------------------------------------------------------

fn registry() -> &'static Mutex<BTreeMap<&'static str, Arc<AtomicU64>>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Handle to the process-wide named counter `name`, created on first use.
/// Keep the `Arc` around for hot paths; one registry lookup per call
/// otherwise.
///
/// ```
/// let c = hpx_rt::stats::counter("doc.example");
/// c.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
/// assert!(hpx_rt::stats::counter_value("doc.example") >= 2);
/// ```
pub fn counter(name: &'static str) -> Arc<AtomicU64> {
    Arc::clone(registry().lock().entry(name).or_default())
}

/// Expands to a `&'static Arc<AtomicU64>` handle to the named counter,
/// resolved through the registry once and cached in a call-site static —
/// for hot paths that must not re-lock the registry per bump:
///
/// ```
/// use std::sync::atomic::Ordering;
/// hpx_rt::static_counter!("doc.macro_example").fetch_add(1, Ordering::Relaxed);
/// assert!(hpx_rt::stats::counter_value("doc.macro_example") >= 1);
/// ```
#[macro_export]
macro_rules! static_counter {
    ($name:expr) => {{
        static __COUNTER: ::std::sync::OnceLock<::std::sync::Arc<::std::sync::atomic::AtomicU64>> =
            ::std::sync::OnceLock::new();
        __COUNTER.get_or_init(|| $crate::stats::counter($name))
    }};
}

/// Current value of the named counter (0 if it was never touched).
pub fn counter_value(name: &str) -> u64 {
    registry()
        .lock()
        .get(name)
        .map_or(0, |c| c.load(Ordering::Relaxed))
}

/// Snapshot of every named counter, sorted by name.
pub fn counters() -> Vec<(&'static str, u64)> {
    registry()
        .lock()
        .iter()
        .map(|(k, v)| (*k, v.load(Ordering::Relaxed)))
        .collect()
}

/// A point-in-time capture of the named-counter registry, for **delta**
/// assertions.
///
/// The named counters are process-wide, so under parallel `cargo test`
/// their absolute values depend on which other tests ran first — an
/// assertion like `counter_value("op2.halo.pairs_fired") == 3` is
/// order-dependent and flaky. Take a snapshot before the work under test
/// and assert on [`CounterSnapshot::delta`] instead: the *increase* caused
/// by this test is isolated from everything that ran before it. (Counters
/// bumped concurrently by tests running *at the same time* still bleed in;
/// keep delta assertions on counters only the test's own workload touches,
/// or use `>=` bounds.)
///
/// ```
/// use std::sync::atomic::Ordering;
///
/// let before = hpx_rt::stats::snapshot();
/// hpx_rt::static_counter!("doc.snapshot_example").fetch_add(3, Ordering::Relaxed);
/// assert_eq!(before.delta("doc.snapshot_example"), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CounterSnapshot {
    at: BTreeMap<&'static str, u64>,
}

/// Captures the current value of every named counter (counters created
/// later count from 0).
pub fn snapshot() -> CounterSnapshot {
    CounterSnapshot {
        at: registry()
            .lock()
            .iter()
            .map(|(k, v)| (*k, v.load(Ordering::Relaxed)))
            .collect(),
    }
}

impl CounterSnapshot {
    /// How much the named counter grew since this snapshot was taken
    /// (saturating at 0; a counter unknown at snapshot time counts from 0).
    pub fn delta(&self, name: &str) -> u64 {
        counter_value(name).saturating_sub(self.at.get(name).copied().unwrap_or(0))
    }
}

impl std::fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workers={} executed={} (helped={}) caller_chunks={} steals={} lingers={} (hits={}) parks={} panics={}",
            self.workers,
            self.tasks_executed,
            self.tasks_helped,
            self.caller_chunks,
            self.steals,
            self.lingers,
            self.linger_hits,
            self.parks,
            self.task_panics
        )
    }
}
