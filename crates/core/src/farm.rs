//! The solver farm: many concurrent solves on one runtime.
//!
//! The ROADMAP's "millions of users" scenario for this engine is
//! solver-as-a-service — hundreds of independent meshes/solves in flight
//! on one shared [`Runtime`], not one giant mesh.
//! [`Op2::with_runtime`] already lets N worlds share a scheduler; a
//! [`SolverFarm`] is the layer that makes that production-shaped:
//!
//! * **Submission.** Tenants register once ([`SolverFarm::register`])
//!   with a [`Priority`] class, then submit jobs — closures receiving a
//!   freshly built tenant [`Op2`] world — through a **bounded queue**
//!   ([`FarmConfig::queue_capacity`]). A full queue blocks the submitter
//!   until a lane drains it.
//! * **Weighted-fair scheduling.** Dispatch is stride scheduling over
//!   per-tenant virtual time: each dispatch advances the tenant's vtime
//!   by `STRIDE / weight`, and lanes always pick the ready tenant with
//!   the smallest vtime. A saturating high-priority tenant therefore
//!   cannot indefinitely starve a low-priority one — between any
//!   `weight(high)/weight(low)` high dispatches, the low tenant's vtime
//!   becomes the minimum and it runs (bounded wait).
//! * **Backpressure windows.** The PR 5 drained-window pattern,
//!   generalized per tenant: a tenant may have at most
//!   [window](FarmConfig::window) jobs (loop-epochs) in flight —
//!   submitted but not complete. The W+1-th `submit` **parks on the
//!   oldest in-flight job's future** until it completes, exactly like a
//!   solver iteration window parking on its oldest [`LoopHandle`](crate::LoopHandle).
//! * **Quotas.** At most [quota](FarmConfig::quota) jobs of one tenant
//!   execute concurrently, so a hot tenant cannot occupy every lane.
//! * **Warm-state sharing.** All tenant worlds are built with one shared
//!   [`SpecShare`] (loop schedules) and one shared
//!   [`GranularityFeedback`] (measured per-element kernel cost). Both key
//!   on *content signatures* ([`Set::signature`](crate::Set::signature),
//!   [`Map::signature`](crate::Map::signature)), so the second tenant to
//!   run a given solver shape hits the first tenant's warm schedules and
//!   resolved granularities on its very first submission.
//! * **Observability.** Every tenant owns an
//!   `op2.tenant.<name>.{submitted,completed,panics,window_waits,queue_waits}`
//!   counter namespace in [`hpx_rt::stats`], next to the farm-wide
//!   `op2.farm.*` counters.
//!
//! Jobs run on dedicated **lane** OS threads (never on runtime workers —
//! a job blocks in [`Op2::fence`], and parking a worker on the work it is
//! itself supposed to help execute is the classic help-first inversion),
//! while every loop the job submits executes on the shared worker pool.
//!
//! ```
//! use op2_core::farm::{FarmConfig, Priority, SolverFarm};
//!
//! let farm = SolverFarm::new(FarmConfig::with_threads(2));
//! let t = farm.register("acme", Priority::Normal);
//! let h = farm.submit(&t, |op2| {
//!     let cells = op2.decl_set(64, "cells");
//!     let q = op2.decl_dat(&cells, 1, "q", vec![1.0f64; 64]);
//!     op2.loop_("scale", &cells)
//!         .arg(op2_core::args::rw(&q))
//!         .run(|q: &mut [f64]| q[0] *= 2.0);
//! });
//! h.wait();
//! assert_eq!(farm.tenant_completed(&t), 1);
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use hpx_rt::{channel, Promise, Runtime, SharedFuture};

use crate::config::Op2Config;
use crate::driver::SpecShare;
use crate::granularity::GranularityFeedback;
use crate::world::Op2;

/// Scheduling weight classes. Dispatch frequency is proportional to
/// weight: under saturation a `High` tenant runs 4 jobs for every 1 a
/// `Low` tenant runs — and never more, which is what bounds the low
/// tenant's wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// 4x the scheduling share of [`Priority::Low`].
    High,
    /// 2x the scheduling share of [`Priority::Low`].
    #[default]
    Normal,
    /// Baseline share.
    Low,
}

impl Priority {
    /// The stride-scheduling weight of this class.
    pub fn weight(self) -> u64 {
        match self {
            Priority::High => 4,
            Priority::Normal => 2,
            Priority::Low => 1,
        }
    }
}

/// Per-tenant registration parameters; `None` fields fall back to the
/// farm-wide defaults in [`FarmConfig`].
#[derive(Debug, Clone, Default)]
pub struct TenantSpec {
    /// Scheduling weight class.
    pub priority: Priority,
    /// In-flight window override (see [`FarmConfig::window`]).
    pub window: Option<usize>,
    /// Concurrency quota override (see [`FarmConfig::quota`]).
    pub quota: Option<usize>,
}

/// Configuration of a [`SolverFarm`].
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Worker threads of the shared runtime all tenant loops execute on.
    pub threads: usize,
    /// Dispatcher lanes — dedicated OS threads that pop jobs and drive
    /// tenant worlds. The farm runs at most `lanes` jobs concurrently.
    pub lanes: usize,
    /// Bound of the submission queue (jobs accepted but not yet
    /// dispatched, across all tenants). A full queue blocks submitters.
    pub queue_capacity: usize,
    /// Default per-tenant backpressure window: the maximum number of a
    /// tenant's jobs in flight (submitted, not complete) before its
    /// submitter parks on the oldest job's future. `0` disables the
    /// window.
    pub window: usize,
    /// Default per-tenant concurrency quota: the maximum number of a
    /// tenant's jobs executing at once. Clamped to at least 1.
    pub quota: usize,
    /// Base configuration of every tenant world. The farm overrides its
    /// `shared_specs` / `shared_feedback` with the farm-wide handles (and
    /// honors an explicit `shared_feedback` as the farm-wide table).
    pub world: Op2Config,
}

impl FarmConfig {
    /// A farm whose shared runtime has `threads` workers: half as many
    /// lanes (at least 2), a 64-job queue, window 4, and a quota that
    /// keeps any single tenant off at least one lane.
    pub fn with_threads(threads: usize) -> Self {
        let threads = threads.max(1);
        let lanes = (threads / 2).clamp(2, 8);
        FarmConfig {
            threads,
            lanes,
            queue_capacity: 64,
            window: 4,
            quota: (lanes - 1).max(1),
            world: Op2Config::dataflow(threads),
        }
    }

    /// Overrides the lane count.
    #[must_use]
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.max(1);
        self
    }

    /// Overrides the submission-queue bound.
    #[must_use]
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap.max(1);
        self
    }

    /// Overrides the default per-tenant window.
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig::with_threads(std::thread::available_parallelism().map_or(2, |n| n.get()))
    }
}

/// Handle to a registered tenant. Only [`SolverFarm::register`] creates
/// these; the farm it came from is the only farm that accepts it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TenantId {
    name: Arc<str>,
    idx: usize,
}

impl TenantId {
    /// The tenant's registered name — also its counter namespace:
    /// `op2.tenant.<name>.*`.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

/// A submitted job's completion outcome: `Err` carries the panic message
/// of a job that panicked (the farm survives tenant panics; the panic
/// surfaces on [`JobHandle::wait`]).
pub type JobOutcome = Result<(), String>;

/// Handle to one submitted job (one tenant loop-epoch). Cloneable; the
/// completion future is shared.
#[derive(Debug, Clone)]
pub struct JobHandle {
    tenant: TenantId,
    done: SharedFuture<JobOutcome>,
}

impl JobHandle {
    /// The submitting tenant.
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// True once the job has completed (successfully or not).
    pub fn is_done(&self) -> bool {
        self.done.is_ready()
    }

    /// Blocks until the job completes, panicking if the job panicked.
    pub fn wait(&self) {
        if let Err(msg) = self.done.get() {
            panic!("farm job of tenant '{}' panicked: {msg}", self.tenant);
        }
    }

    /// Blocks until the job completes and returns its outcome without
    /// re-panicking.
    pub fn outcome(&self) -> JobOutcome {
        self.done.get()
    }

    /// The completion future — what a window-limited submitter parks on.
    pub fn future(&self) -> SharedFuture<JobOutcome> {
        self.done.clone()
    }
}

/// Per-tenant counter handles in the `op2.tenant.<name>.*` namespace of
/// [`hpx_rt::stats`] (held as `Arc`s so the hot paths never re-lock the
/// registry).
struct TenantCounters {
    submitted: Arc<AtomicU64>,
    completed: Arc<AtomicU64>,
    panics: Arc<AtomicU64>,
    window_waits: Arc<AtomicU64>,
    queue_waits: Arc<AtomicU64>,
}

impl TenantCounters {
    fn new(name: &str) -> Self {
        let c = |suffix: &str| hpx_rt::stats::counter_named(&format!("op2.tenant.{name}.{suffix}"));
        TenantCounters {
            submitted: c("submitted"),
            completed: c("completed"),
            panics: c("panics"),
            window_waits: c("window_waits"),
            queue_waits: c("queue_waits"),
        }
    }
}

struct Job {
    run: Box<dyn FnOnce(&Op2) + Send>,
    promise: Promise<JobOutcome>,
}

struct TenantState {
    id: TenantId,
    weight: u64,
    /// Stride-scheduling virtual time: advanced by `STRIDE / weight` per
    /// dispatch; lanes pick the ready tenant with the smallest value.
    vtime: u64,
    window: usize,
    quota: usize,
    queued: VecDeque<Job>,
    running: usize,
    /// Completion futures of in-flight jobs (submitted, not yet observed
    /// complete), oldest first — the queue a window-limited submitter
    /// drains, exactly the PR 5 solver-window pattern one level up.
    inflight: VecDeque<SharedFuture<JobOutcome>>,
    submitted: u64,
    completed: u64,
    counters: TenantCounters,
}

impl TenantState {
    fn dispatchable(&self) -> bool {
        !self.queued.is_empty() && self.running < self.quota
    }
}

struct State {
    tenants: Vec<TenantState>,
    queued_total: usize,
    running_total: usize,
    shutdown: bool,
}

impl State {
    /// Global virtual time: the minimum vtime among *active* tenants
    /// (queued or running work), falling back to the maximum ever reached
    /// — what a newly active tenant's vtime is aligned to so idle periods
    /// don't bank an unbounded burst credit.
    fn gvt(&self) -> u64 {
        self.tenants
            .iter()
            .filter(|t| !t.queued.is_empty() || t.running > 0)
            .map(|t| t.vtime)
            .min()
            .or_else(|| self.tenants.iter().map(|t| t.vtime).max())
            .unwrap_or(0)
    }

    /// The tenant the next free lane should serve: dispatchable (queued
    /// work, under quota), smallest `(vtime, registration order)`.
    fn pick(&self) -> Option<usize> {
        (0..self.tenants.len())
            .filter(|&i| self.tenants[i].dispatchable())
            .min_by_key(|&i| self.tenants[i].vtime)
    }
}

struct Shared {
    state: Mutex<State>,
    /// Lanes wait here for a dispatchable job.
    work: Condvar,
    /// Submitters wait here for submission-queue space.
    space: Condvar,
    /// [`SolverFarm::drain`] waits here for the farm to go idle.
    idle: Condvar,
}

/// Common multiple of every [`Priority::weight`], so vtime strides are
/// exact integers.
const STRIDE: u64 = 64;

/// A multi-tenant solver service on one shared [`Runtime`] — see the
/// [module docs](self) for the scheduling, backpressure and warm-sharing
/// semantics.
///
/// Dropping the farm **drains it**: every accepted job still runs before
/// the lane threads exit.
pub struct SolverFarm {
    rt: Arc<Runtime>,
    cfg: FarmConfig,
    specs: SpecShare,
    feedback: GranularityFeedback,
    shared: Arc<Shared>,
    lanes: Vec<JoinHandle<()>>,
}

impl SolverFarm {
    /// Builds a farm with its own worker pool.
    pub fn new(cfg: FarmConfig) -> Self {
        let rt = Arc::new(Runtime::with_name(cfg.threads.max(1), "op2-farm-worker"));
        Self::with_runtime(cfg, rt)
    }

    /// Builds a farm on an existing runtime (e.g. one already hosting
    /// [`Op2::with_runtime`] worlds of the embedding application).
    pub fn with_runtime(cfg: FarmConfig, rt: Arc<Runtime>) -> Self {
        // Farm-wide warm state: the base world config's shared tables if
        // it installs them, else fresh ones.
        let specs = cfg.world.shared_specs.clone().unwrap_or_default();
        let feedback = cfg.world.shared_feedback.clone().unwrap_or_default();
        // The tenant-world config: the base world with the farm-wide spec
        // cache and feedback table installed.
        let world_cfg = cfg
            .world
            .clone()
            .with_shared_specs(specs.clone())
            .with_shared_feedback(feedback.clone());
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                tenants: Vec::new(),
                queued_total: 0,
                running_total: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            idle: Condvar::new(),
        });
        let lanes = (0..cfg.lanes.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rt = Arc::clone(&rt);
                let world_cfg = world_cfg.clone();
                std::thread::Builder::new()
                    .name(format!("op2-farm-lane-{i}"))
                    .spawn(move || lane_loop(&shared, &rt, &world_cfg))
                    .expect("spawn farm lane")
            })
            .collect();
        SolverFarm {
            rt,
            cfg,
            specs,
            feedback,
            shared,
            lanes,
        }
    }

    /// Registers a tenant under the farm-wide window/quota defaults.
    pub fn register(&self, name: &str, priority: Priority) -> TenantId {
        self.register_with(
            name,
            TenantSpec {
                priority,
                ..TenantSpec::default()
            },
        )
    }

    /// Registers a tenant with explicit overrides. Panics on an empty or
    /// duplicate name (the name is the tenant's counter namespace).
    pub fn register_with(&self, name: &str, spec: TenantSpec) -> TenantId {
        assert!(!name.is_empty(), "tenant name must be non-empty");
        let mut st = self.shared.state.lock();
        assert!(
            st.tenants.iter().all(|t| &*t.id.name != name),
            "tenant '{name}' already registered"
        );
        let id = TenantId {
            name: Arc::from(name),
            idx: st.tenants.len(),
        };
        // Start at the current global virtual time: no credit for the
        // epochs the farm ran before this tenant existed.
        let vtime = st.gvt();
        st.tenants.push(TenantState {
            id: id.clone(),
            weight: spec.priority.weight(),
            vtime,
            window: spec.window.unwrap_or(self.cfg.window),
            quota: spec.quota.unwrap_or(self.cfg.quota).max(1),
            queued: VecDeque::new(),
            running: 0,
            inflight: VecDeque::new(),
            submitted: 0,
            completed: 0,
            counters: TenantCounters::new(name),
        });
        id
    }

    /// Submits one job — one tenant loop-epoch. `job` receives a freshly
    /// built tenant world (sharing the farm runtime and warm state) on a
    /// lane thread; the epoch completes when the closure returns **and**
    /// the world's outstanding loops have drained ([`Op2::fence`]).
    ///
    /// Blocks while the tenant is at its in-flight window (parking on the
    /// oldest in-flight job's future) or the submission queue is full.
    pub fn submit(&self, tenant: &TenantId, job: impl FnOnce(&Op2) + Send + 'static) -> JobHandle {
        let (promise, fut) = channel::<JobOutcome>();
        let done = fut.share();
        let mut st = self.shared.state.lock();
        assert!(
            st.tenants
                .get(tenant.idx)
                .is_some_and(|t| t.id.name == tenant.name),
            "tenant '{tenant}' is not registered with this farm"
        );
        loop {
            let t = &mut st.tenants[tenant.idx];
            while t.inflight.front().is_some_and(|f| f.is_ready()) {
                t.inflight.pop_front();
            }
            // Backpressure window: park on the *oldest* in-flight epoch's
            // future — the drained-window pattern of the airfoil solver
            // (PR 5), generalized per tenant.
            if t.window > 0 && t.inflight.len() >= t.window {
                let oldest = t.inflight.front().expect("non-empty window").clone();
                t.counters.window_waits.fetch_add(1, Ordering::Relaxed);
                drop(st);
                oldest.wait();
                st = self.shared.state.lock();
                continue;
            }
            if st.queued_total >= self.cfg.queue_capacity {
                st.tenants[tenant.idx]
                    .counters
                    .queue_waits
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.space.wait(&mut st);
                continue;
            }
            break;
        }
        // A tenant going active re-aligns to the global virtual time so an
        // idle period doesn't bank burst credit against active tenants.
        let gvt = st.gvt();
        let t = &mut st.tenants[tenant.idx];
        if t.queued.is_empty() && t.running == 0 {
            t.vtime = t.vtime.max(gvt);
        }
        t.queued.push_back(Job {
            run: Box::new(job),
            promise,
        });
        t.inflight.push_back(done.clone());
        t.submitted += 1;
        t.counters.submitted.fetch_add(1, Ordering::Relaxed);
        st.queued_total += 1;
        drop(st);
        hpx_rt::static_counter!("op2.farm.submitted").fetch_add(1, Ordering::Relaxed);
        self.shared.work.notify_one();
        JobHandle {
            tenant: tenant.clone(),
            done,
        }
    }

    /// Blocks until every accepted job has completed.
    pub fn drain(&self) {
        let mut st = self.shared.state.lock();
        while st.queued_total > 0 || st.running_total > 0 {
            self.shared.idle.wait(&mut st);
        }
    }

    /// The shared runtime every tenant loop executes on.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    /// The farm-wide loop-spec cache all tenant worlds resolve through.
    pub fn spec_share(&self) -> &SpecShare {
        &self.specs
    }

    /// The farm-wide measured-cost table all tenant worlds resolve
    /// adaptive granularity from.
    pub fn feedback(&self) -> &GranularityFeedback {
        &self.feedback
    }

    /// The farm configuration.
    pub fn config(&self) -> &FarmConfig {
        &self.cfg
    }

    /// Jobs of `tenant` currently in flight: submitted (queued or
    /// running) and not yet complete. Bounded by the tenant's window.
    pub fn tenant_inflight(&self, tenant: &TenantId) -> usize {
        let st = self.shared.state.lock();
        st.tenants[tenant.idx].queued.len() + st.tenants[tenant.idx].running
    }

    /// Jobs of `tenant` executing right now. Bounded by the tenant's
    /// quota.
    pub fn tenant_running(&self, tenant: &TenantId) -> usize {
        self.shared.state.lock().tenants[tenant.idx].running
    }

    /// Completed job count of `tenant`.
    pub fn tenant_completed(&self, tenant: &TenantId) -> u64 {
        self.shared.state.lock().tenants[tenant.idx].completed
    }

    /// Jobs accepted but not yet dispatched, across all tenants. Bounded
    /// by [`FarmConfig::queue_capacity`].
    pub fn queued(&self) -> usize {
        self.shared.state.lock().queued_total
    }
}

impl Drop for SolverFarm {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for lane in self.lanes.drain(..) {
            let _ = lane.join();
        }
    }
}

impl std::fmt::Debug for SolverFarm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.shared.state.lock();
        f.debug_struct("SolverFarm")
            .field("tenants", &st.tenants.len())
            .field("queued", &st.queued_total)
            .field("running", &st.running_total)
            .field("lanes", &self.lanes.len())
            .finish()
    }
}

fn lane_loop(shared: &Shared, rt: &Arc<Runtime>, world_cfg: &Op2Config) {
    loop {
        let (job, tidx) = {
            let mut st = shared.state.lock();
            loop {
                if let Some(i) = st.pick() {
                    let t = &mut st.tenants[i];
                    let job = t.queued.pop_front().expect("picked tenant has a job");
                    // Stride scheduling: a dispatch costs STRIDE/weight of
                    // virtual time, so heavier tenants are picked
                    // proportionally more often — and light tenants are
                    // picked *eventually*, which is the fairness bound.
                    t.vtime = t.vtime.wrapping_add(STRIDE / t.weight.max(1));
                    t.running += 1;
                    st.queued_total -= 1;
                    st.running_total += 1;
                    break (job, i);
                }
                // Exit only when no accepted work remains: shutdown
                // drains, it does not abandon promises.
                if st.shutdown && st.queued_total == 0 {
                    return;
                }
                shared.work.wait(&mut st);
            }
        };
        shared.space.notify_all();
        hpx_rt::static_counter!("op2.farm.dispatched").fetch_add(1, Ordering::Relaxed);

        // One tenant world per epoch: own declarations and plan cache,
        // shared runtime and shared (signature-keyed) warm state.
        let world = Op2::with_runtime(world_cfg.clone(), Arc::clone(rt));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            (job.run)(&world);
            // The epoch is in flight until its loops drain — a window of
            // W epochs is a window of W *completed-or-running* solves,
            // not W accepted closures.
            world.fence();
        }))
        .map_err(|p| panic_message(&*p));

        let errored = outcome.is_err();
        // Bookkeeping BEFORE fulfilling the future, so a waiter that wakes
        // from `JobHandle::wait` observes `tenant_completed` (and the
        // counters) already including this job.
        {
            let mut st = shared.state.lock();
            let t = &mut st.tenants[tidx];
            t.running -= 1;
            t.completed += 1;
            t.counters.completed.fetch_add(1, Ordering::Relaxed);
            if errored {
                t.counters.panics.fetch_add(1, Ordering::Relaxed);
                hpx_rt::static_counter!("op2.farm.panics").fetch_add(1, Ordering::Relaxed);
            }
            // Under the lock, like the tenant counters: `drain` returns on
            // the idle notification below and must see this job counted.
            hpx_rt::static_counter!("op2.farm.completed").fetch_add(1, Ordering::Relaxed);
            st.running_total -= 1;
            if st.queued_total == 0 && st.running_total == 0 {
                shared.idle.notify_all();
            }
        }
        // Wakes window-parked submitters and handle waiters.
        job.promise.set_value(outcome);
        // A completion can unblock a quota-limited tenant; make sure some
        // waiting lane re-picks.
        shared.work.notify_all();
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_weights_are_ordered() {
        assert!(Priority::High.weight() > Priority::Normal.weight());
        assert!(Priority::Normal.weight() > Priority::Low.weight());
        assert_eq!(STRIDE % Priority::High.weight(), 0);
        assert_eq!(STRIDE % Priority::Normal.weight(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_tenant_names_rejected() {
        let farm = SolverFarm::new(FarmConfig::with_threads(1).with_lanes(1));
        let _a = farm.register("acme", Priority::Normal);
        let _b = farm.register("acme", Priority::Low);
    }

    #[test]
    fn drop_drains_accepted_jobs() {
        use std::sync::atomic::AtomicUsize;
        let ran = Arc::new(AtomicUsize::new(0));
        let handles: Vec<JobHandle>;
        {
            let farm = SolverFarm::new(FarmConfig::with_threads(2).with_lanes(1));
            let t = farm.register("acme", Priority::Normal);
            handles = (0..5)
                .map(|_| {
                    let ran = Arc::clone(&ran);
                    farm.submit(&t, move |_| {
                        ran.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            // Farm dropped here with jobs possibly still queued.
        }
        for h in &handles {
            h.wait();
        }
        assert_eq!(ran.load(Ordering::Relaxed), 5);
    }
}
