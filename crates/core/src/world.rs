//! The OP2 context: declaration API, runtime handle, plan cache and
//! bookkeeping.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use hpx_rt::{Runtime, SharedFuture};

use crate::config::{Backend, ChunkPolicy, Op2Config};
use crate::dat::Dat;
use crate::driver::{SpecCache, SubmitStats};
use crate::granularity::GranularityFeedback;
use crate::map::Map;
use crate::plan::PlanCache;
use crate::set::Set;
use crate::types::OpType;

/// Cumulative statistics of one named loop.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoopStat {
    /// Number of invocations.
    pub invocations: u64,
    /// Total execution time (submission-to-finalize span, measured inside
    /// the executing tasks for the dataflow backend).
    pub total: Duration,
}

pub(crate) type StatsHandle = Arc<Mutex<HashMap<Arc<str>, LoopStat>>>;

/// An OP2 execution context (the equivalent of `op_init` + the library
/// state). Owns the thread pool; declaration methods mirror the OP2 API.
///
/// ```
/// use op2_core::{Op2, Op2Config};
/// let op2 = Op2::new(Op2Config::dataflow(2));
/// let nodes = op2.decl_set(9, "nodes");
/// let edges = op2.decl_set(12, "edges");
/// let x = op2.decl_dat(&nodes, 1, "x", vec![0.0f64; 9]);
/// assert_eq!(x.set().size(), 9);
/// # let _ = edges;
/// ```
pub struct Op2 {
    rt: Arc<Runtime>,
    config: Op2Config,
    plans: PlanCache,
    specs: SpecCache,
    /// Measured per-(kernel, set) cost both parallel backends resolve
    /// [`ChunkPolicy::Auto`] chunk lengths from, measured on the config's
    /// clock.
    feedback: GranularityFeedback,
    /// Whether every loop times itself into `feedback` (its costs and its
    /// busy time): under [`ChunkPolicy::Auto`] on a parallel backend,
    /// whose chunk lengths come from those costs, and on every backend on
    /// the rank worlds of a
    /// [`LocalityGroup`](crate::locality::LocalityGroup), whose busy times
    /// the rebalancer compares whatever the policy. Other worlds measure
    /// nothing.
    measures: bool,
    outstanding: Arc<Mutex<Vec<SharedFuture<()>>>>,
    stats: StatsHandle,
    submit: Mutex<SubmitStats>,
}

/// The per-rank handles communication nodes need after the owning [`Op2`]
/// is out of reach: where to schedule (the shared runtime) and where to
/// register completions for [`Op2::fence`]. The implicit halo-exchange
/// ring stores one per rank (see [`crate::locality`]).
#[derive(Clone)]
pub(crate) struct CommHooks {
    rt: Arc<Runtime>,
    outstanding: Arc<Mutex<Vec<SharedFuture<()>>>>,
}

impl CommHooks {
    /// The rank's task runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Registers a completion future for the rank's fence.
    pub fn track(&self, done: SharedFuture<()>) {
        track_in(&self.outstanding, done);
    }
}

fn track_in(outstanding: &Mutex<Vec<SharedFuture<()>>>, done: SharedFuture<()>) {
    let mut o = outstanding.lock();
    o.push(done);
    // Bound growth across long runs: completed futures need no fence.
    if o.len() > 1024 {
        o.retain(|f| !f.is_ready());
    }
}

impl Op2 {
    /// Creates a context with its own worker pool.
    pub fn new(config: Op2Config) -> Self {
        let rt = Arc::new(Runtime::with_name(config.threads, "op2-worker"));
        Self::build(config, rt, false)
    }

    /// A rank world of a [`LocalityGroup`](crate::locality::LocalityGroup),
    /// on the group's runtime, that measures the busy time of every loop.
    /// This is how the multi-locality layer simulates ranks: every rank is
    /// its own `Op2` context (own plan cache, stats, declared entities) but
    /// all ranks share one worker pool, so halo-exchange tasks and loop
    /// blocks of different ranks interleave freely.
    pub(crate) fn rank_world(config: Op2Config, rt: Arc<Runtime>) -> Self {
        Self::build(config, rt, true)
    }

    fn build(config: Op2Config, rt: Arc<Runtime>, rank: bool) -> Self {
        Op2 {
            measures: rank
                || (config.backend != Backend::Seq
                    && matches!(config.chunk, ChunkPolicy::Auto { .. })),
            rt,
            config,
            plans: PlanCache::default(),
            specs: SpecCache::default(),
            feedback: GranularityFeedback::default(),
            outstanding: Arc::new(Mutex::new(Vec::new())),
            stats: Arc::new(Mutex::new(HashMap::new())),
            submit: Mutex::new(SubmitStats::default()),
        }
    }

    pub(crate) fn comm_hooks(&self) -> CommHooks {
        CommHooks {
            rt: Arc::clone(&self.rt),
            outstanding: Arc::clone(&self.outstanding),
        }
    }

    /// The underlying task runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    pub(crate) fn runtime_arc(&self) -> Arc<Runtime> {
        Arc::clone(&self.rt)
    }

    /// The active configuration.
    pub fn config(&self) -> &Op2Config {
        &self.config
    }

    /// Declares a set of `size` elements (`op_decl_set`).
    pub fn decl_set(&self, size: usize, name: &str) -> Set {
        Set::new(size, name)
    }

    /// Declares a map (`op_decl_map`); validates arity and ranges. Like
    /// OP2's `op_decl_map` the map keeps the caller's table rather than a
    /// copy: an owned `Vec` moves in, and a shared `Arc<Vec<u32>>` (a
    /// mesh's table, say, declared on several worlds) costs a
    /// reference-count bump — every map declared from it reads the one
    /// buffer.
    pub fn decl_map(
        &self,
        from: &Set,
        to: &Set,
        dim: usize,
        indices: impl Into<Arc<Vec<u32>>>,
        name: &str,
    ) -> Map {
        self.decl_map_halo(from, to, dim, indices, name, 0)
    }

    /// Declares a map whose table may index `halo_targets` rows beyond the
    /// target set — local ids of remote-owned elements mirrored in the
    /// halo region of dats declared with [`Op2::decl_dat_halo`]. This is
    /// the sharded form of `op_decl_map` (see [`crate::locality`]); the
    /// table is kept as [`Op2::decl_map`] keeps it.
    pub fn decl_map_halo(
        &self,
        from: &Set,
        to: &Set,
        dim: usize,
        indices: impl Into<Arc<Vec<u32>>>,
        name: &str,
        halo_targets: usize,
    ) -> Map {
        Map::with_halo(from, to, dim, indices, name, halo_targets)
    }

    /// Declares data on a set (`op_decl_dat`); `data` holds
    /// `set.size() * dim` scalars, row-major. The dat's dependency table
    /// is partitioned to this context's mini-partition block size, so loop
    /// blocks and dependency blocks coincide under the dataflow backend.
    ///
    /// Like [`Op2::decl_map`], the dat keeps the caller's data rather than
    /// a copy. An owned `Vec` (or an `Arc` nobody else holds) moves in and
    /// is writable. An `Arc<Vec<T>>` the caller still shares — a mesh's
    /// coordinates, say, declared on several worlds — becomes the dat's
    /// storage at the cost of a reference-count bump and is read-only:
    /// submitting it as a mutable loop argument, [`Dat::write`], a halo
    /// link or a row-move landing on it panics, naming the dat.
    pub fn decl_dat<T: OpType>(
        &self,
        set: &Set,
        dim: usize,
        name: &str,
        data: impl Into<Arc<Vec<T>>>,
    ) -> Dat<T> {
        self.decl_dat_halo(set, dim, name, data, 0)
    }

    /// Declares data on a set with `halo_rows` mirror rows appended for
    /// remote-owned elements; `data` holds `(set.size() + halo_rows) * dim`
    /// scalars, owned rows first. Loops iterate the owned prefix only;
    /// halo rows are fed by [`crate::locality::exchange`] and reached
    /// through maps declared with [`Op2::decl_map_halo`]. `data` is kept
    /// as [`Op2::decl_dat`] keeps it.
    pub fn decl_dat_halo<T: OpType>(
        &self,
        set: &Set,
        dim: usize,
        name: &str,
        data: impl Into<Arc<Vec<T>>>,
        halo_rows: usize,
    ) -> Dat<T> {
        Dat::with_halo(set, dim, name, data, self.config.block_size, halo_rows)
    }

    /// Waits for every outstanding loop (every block node is covered: the
    /// tracked completion future of a loop joins its final color round,
    /// which transitively joins all earlier rounds),
    /// re-panicking if any kernel panicked — the explicit global
    /// synchronization point (only needed around I/O or timing boundaries
    /// in the dataflow backend). The calling thread computes for this
    /// world's runtime while it waits, whoever submitted the loops.
    pub fn fence(&self) {
        self.rt.help_while_blocked();
        let pending = std::mem::take(&mut *self.outstanding.lock());
        for f in pending {
            f.get();
        }
    }

    pub(crate) fn track(&self, done: SharedFuture<()>) {
        track_in(&self.outstanding, done);
    }

    pub(crate) fn plans(&self) -> &PlanCache {
        &self.plans
    }

    pub(crate) fn specs(&self) -> &SpecCache {
        &self.specs
    }

    pub(crate) fn measures(&self) -> bool {
        self.measures
    }

    pub(crate) fn stats_handle(&self) -> StatsHandle {
        Arc::clone(&self.stats)
    }

    pub(crate) fn submit_stats_mut(&self) -> parking_lot::MutexGuard<'_, SubmitStats> {
        self.submit.lock()
    }

    /// What this world's Dataflow loop submissions cost so far: nodes
    /// scheduled, dependency edges collected and wired, access records
    /// pushed, and time spent building loop graphs. World-scoped — sibling
    /// worlds and ranks each count their own.
    pub fn submit_stats(&self) -> SubmitStats {
        *self.submit.lock()
    }

    /// Per-loop cumulative statistics, sorted by name.
    pub fn loop_stats(&self) -> Vec<(String, LoopStat)> {
        let stats = self.stats.lock();
        let mut v: Vec<_> = stats.iter().map(|(k, s)| (k.to_string(), *s)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// `(plans built, cache hits)` — mirrors OP2's plan reuse counters.
    pub fn plan_cache_stats(&self) -> (usize, u64) {
        (self.plans.built(), self.plans.hits())
    }

    /// `(schedules built, cache hits)` of the loop-spec cache: under the
    /// Dataflow backend the whole block partition + color-round schedule of
    /// a loop is cached per (kernel name, iteration set, argument
    /// signature, chunk policy) — keyed additionally by the *resolved* node
    /// granularity, so repeated solver iterations skip re-planning entirely
    /// while a feedback-driven granularity change re-plans exactly once
    /// (see [`Op2::spec_cache_replans`]). The process-wide totals are
    /// mirrored in the `op2.spec_cache.*` named counters of
    /// [`hpx_rt::stats`].
    pub fn spec_cache_stats(&self) -> (usize, u64) {
        (self.specs.built(), self.specs.hits())
    }

    /// Number of loop-spec cache *re-plans*: a cached schedule was
    /// invalidated and rebuilt because the chunker's resolved granularity
    /// for that loop shape changed. Each granularity change costs exactly
    /// one re-plan; a stable chunker keeps this at 0 after warmup.
    pub fn spec_cache_replans(&self) -> u64 {
        self.specs.replans()
    }

    /// Retires a set signature after live repartitioning: drops every
    /// cached loop schedule and colouring plan keyed on it (they describe
    /// the pre-migration shard shape and must never be hit again) and
    /// forgets its measured costs so post-migration feedback restarts
    /// clean. Returns the number of schedules and plans dropped.
    pub fn retire_set_signature(&self, sig: u64) -> usize {
        self.feedback.forget_set(sig);
        self.specs.invalidate_set(sig) + self.plans.invalidate_set(sig)
    }

    /// The measured per-(kernel, set) cost table adaptive Dataflow
    /// granularity is resolved from, and this world's busy time.
    pub fn granularity_feedback(&self) -> &GranularityFeedback {
        &self.feedback
    }
}

impl std::fmt::Debug for Op2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Op2")
            .field("backend", &self.config.backend)
            .field("threads", &self.config.threads)
            .finish()
    }
}

/// Adds one completion of loop `name`, keyed by the loop's own shared name:
/// a completion bumps a reference count, it never allocates a key.
pub(crate) fn record_loop_time(stats: &StatsHandle, name: &Arc<str>, elapsed: Duration) {
    let mut map = stats.lock();
    let entry = map.entry(Arc::clone(name)).or_default();
    entry.invocations += 1;
    entry.total += elapsed;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarations() {
        let op2 = Op2::new(Op2Config::seq());
        let nodes = op2.decl_set(3, "nodes");
        let edges = op2.decl_set(2, "edges");
        let m = op2.decl_map(&edges, &nodes, 2, vec![0, 1, 1, 2], "pedge");
        let d = op2.decl_dat(&nodes, 2, "x", vec![0.0f64; 6]);
        assert_eq!(m.dim(), 2);
        assert_eq!(d.len(), 6);
    }

    #[test]
    fn fence_on_empty_context_is_noop() {
        let op2 = Op2::new(Op2Config::fork_join(2));
        op2.fence();
        assert!(op2.loop_stats().is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let stats: StatsHandle = Arc::new(Mutex::new(HashMap::new()));
        record_loop_time(&stats, &"k".into(), Duration::from_millis(2));
        record_loop_time(&stats, &"k".into(), Duration::from_millis(3));
        let s = stats.lock()["k"];
        assert_eq!(s.invocations, 2);
        assert_eq!(s.total, Duration::from_millis(5));
    }
}
