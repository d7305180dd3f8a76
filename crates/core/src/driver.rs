//! The loop driver: one entry point, three backends.
//!
//! * **Seq** — reference execution on the calling thread.
//! * **ForkJoin** — the OpenMP-equivalent baseline: synchronous parallel
//!   chunks with a global barrier after every loop and every color round.
//! * **Dataflow** — block-granular dataflow (the paper's design, pushed
//!   from whole-loop to mini-partition granularity): the loop becomes one
//!   dataflow node *per block*, each gated only on the predecessor nodes
//!   covering the dependency blocks its arguments actually touch (see
//!   [`crate::dat`] for the access records and [`crate::plan`] for the
//!   block-reach tables). A RAW-dependent successor starts its first
//!   blocks while the predecessor's last blocks are still running —
//!   dependent loops *pipeline* instead of chaining whole-loop futures.
//!   Indirect loops keep their color rounds: nodes of round *r* also wait
//!   on a round gate joining round *r−1*, which serializes exactly the
//!   intra-loop conflicts the plan colored apart while leaving loop-to-loop
//!   edges block-granular.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use hpx_rt::{
    schedule_after, schedule_after_counted, when_all_shared, ChunkPolicy, Clock, ExecutionPolicy,
    FeedbackSlot, PrefetchSet, SharedFuture,
};

use crate::arg::{ArgInfo, ArgKind};
use crate::config::Backend;
use crate::dat::{AccessRecord, DepTable, Footprint, LiveRecord};
use crate::map::Map;
use crate::plan::{conflicts_of, Plan};
use crate::set::Set;
use crate::types::Access;
use crate::world::{record_loop_time, Op2};

/// Everything the driver needs, pre-assembled by the `par_loop*` fronts.
pub(crate) struct LoopSpec {
    /// Kernel name (`Arc` so per-submission bookkeeping — spec-cache keys,
    /// stats, the handle — shares one allocation).
    pub name: Arc<str>,
    pub set: Set,
    pub infos: Vec<ArgInfo>,
    /// What every node waits for beyond its dat dependencies (pending
    /// reductions of a broadcast global).
    pub node_deps: Vec<SharedFuture<()>>,
    /// What the finalize waits for beyond the loop's own nodes (a previous
    /// reduction's finalize on a shared global).
    pub loop_deps: Vec<SharedFuture<()>>,
    /// Loop-generation stamp shared by every node of this loop.
    pub gen: u64,
    /// Executes the kernel over a contiguous element range and commits
    /// per-chunk state (reduction partials).
    pub block_body: Arc<dyn Fn(Range<usize>) + Send + Sync>,
    /// The loop's gathered (indirect) containers, registered through the
    /// maps' index tables — `None` for direct loops. The dataflow driver
    /// uses it for **cross-node prefetching**: while node *b* executes,
    /// it warms the cache with the first elements node *b+1* will gather,
    /// at a look-ahead resolved from the granularity feedback's measured
    /// per-element cost (see [`gather_lookahead`]).
    pub gather: Option<Arc<PrefetchSet>>,
    /// Runs once after all chunks: merges reductions.
    pub finalize: Arc<dyn Fn() + Send + Sync>,
}

impl LoopSpec {
    /// The dat arguments: dependency table and whether the access mutates.
    fn dat_args(&self) -> impl Iterator<Item = (&Arc<DepTable>, bool)> {
        self.infos
            .iter()
            .filter_map(|i| i.deps.as_ref().map(|t| (t, i.access.is_mut())))
    }
}

/// Runs (or schedules) the loop; returns its completion future.
pub(crate) fn drive(world: &Op2, spec: LoopSpec) -> SharedFuture<()> {
    match world.config().backend {
        Backend::Seq => drive_sync(world, spec, /*parallel=*/ false),
        Backend::ForkJoin => drive_sync(world, spec, /*parallel=*/ true),
        Backend::Dataflow => drive_dataflow(world, spec),
    }
}

fn policy_of(world: &Op2) -> ExecutionPolicy {
    hpx_rt::par().with_chunk(world.config().chunk.clone())
}

fn drive_sync(world: &Op2, spec: LoopSpec, parallel: bool) -> SharedFuture<()> {
    // Any pending dataflow loops from a mixed-backend context must drain
    // first; under pure Seq/ForkJoin nothing is pending. The synchronous
    // backends access every dat whole.
    for d in spec.node_deps.iter().chain(&spec.loop_deps) {
        d.wait();
    }
    for (table, mutates) in spec.dat_args() {
        table.wait_conflicting(mutates);
    }
    let n = spec.set.size();
    let t0 = Instant::now();
    // A rank-tagged world attributes whole-loop time to its rank through
    // the feedback clock (so Seq sharded runs feed the rebalancer's
    // imbalance signal — deterministically, under a fake clock).
    let fb = world.granularity_feedback();
    let start_ns = fb.rank().is_some().then(|| fb.clock().now_ns());
    if n > 0 {
        if !parallel {
            (spec.block_body)(0..n);
        } else {
            run_parallel_phases(world, &spec, n);
        }
    }
    (spec.finalize)();
    if let Some(start) = start_ns {
        let elapsed = fb.clock().now_ns().saturating_sub(start);
        fb.record(&spec.name, spec.set.signature(), n, elapsed);
    }
    record_loop_time(&world.stats_handle(), &spec.name, t0.elapsed());
    let done = SharedFuture::ready(());
    for (table, mutates) in spec.dat_args() {
        table.record_node(table.whole(), mutates, spec.gen, &done);
    }
    done
}

/// The synchronous parallel schedule: direct loops are one chunked
/// parallel-for; indirect loops run color rounds, each ending in an
/// implicit global barrier (the `for_each_chunk` join).
fn run_parallel_phases(world: &Op2, spec: &LoopSpec, n: usize) {
    let rt = world.runtime();
    let policy = policy_of(world);
    let conflicts = conflicts_of(&spec.infos);
    if conflicts.is_empty() {
        hpx_rt::for_each_chunk(rt, &policy, 0..n, |r| (spec.block_body)(r));
        return;
    }
    let plan = world
        .plans()
        .get(&spec.set, world.config().block_size, &conflicts);
    for color_list in &plan.color_blocks {
        hpx_rt::for_each_chunk(rt, &policy, 0..color_list.len(), |br| {
            for bi in br {
                (spec.block_body)(plan.blocks[color_list[bi]].clone());
            }
        });
        // <- implicit global barrier per color round (and per loop): this
        // is precisely the synchronization the dataflow backend removes.
    }
}

/// The block partition and color rounds a dataflow loop schedules over:
/// either trivial block-size-aligned blocks in a single round (direct
/// loops, no plan-cache entry — the cache stays a census of *colored*
/// shapes, mirroring OP2's `op_plan_get`) or a borrowed view of the
/// cached plan (no per-submission copies of its block/color tables).
enum Schedule {
    Direct {
        blocks: Vec<Range<usize>>,
        round: Vec<usize>,
    },
    Planned(Arc<Plan>),
}

impl Schedule {
    fn blocks(&self) -> &[Range<usize>] {
        match self {
            Schedule::Direct { blocks, .. } => blocks,
            Schedule::Planned(plan) => &plan.blocks,
        }
    }

    fn rounds(&self) -> &[Vec<usize>] {
        match self {
            Schedule::Direct { round, .. } => std::slice::from_ref(round),
            Schedule::Planned(plan) => &plan.color_blocks,
        }
    }
}

/// One dat's share of a [`LoopPlan`]: the loop's arguments on that dat
/// coalesced into the strongest access over the union footprint.
struct DatAccess {
    /// An argument on the dat (the plan is cached by *shape*, so the
    /// dependency table itself comes from the submitted loop's
    /// `infos[arg]`).
    arg: usize,
    mutates: bool,
    /// How the schedule's nodes (by block index) map onto the dat's
    /// dependency blocks — both what each node collects against and what
    /// the loop's access record carries.
    footprint: Footprint,
}

/// What the spec cache holds per loop shape: the schedule plus every
/// node's footprint on every argument dat, so a steady-state submission
/// looks up no reach table.
struct LoopPlan {
    schedule: Schedule,
    dats: Vec<DatAccess>,
}

// ---------------------------------------------------------------------------
// Feedback-resolved node granularity
// ---------------------------------------------------------------------------

/// Rounds to the nearest power of two in log space (`x >= 1`). The
/// quantization is the chunker's hysteresis: measured costs jitter, but
/// the resolved granularity only moves when the ideal size crosses a
/// power-of-two midpoint — so a converged workload stops re-planning.
fn pow2_round(x: f64) -> usize {
    let exp = x.max(1.0).log2().round() as u32;
    1usize << exp.min(usize::BITS - 2)
}

/// Largest power of two `<= x` (`x >= 1`).
fn pow2_floor(x: usize) -> usize {
    let mut p = 1usize;
    while p * 2 <= x {
        p *= 2;
    }
    p
}

/// What the load-balance cap may not cut a node below: what a node costs
/// to build, queue, steal and complete several times over, so that a loop
/// whose whole body is a few microseconds is one node. Swept on `airfoil
/// --cells 4000` (ROADMAP item 1, PR 20): 11-15 us alike, 8 and 20 us
/// slightly behind, 40 us no better than none.
const MIN_NODE_NS: f64 = 12_000.0;

/// The floor keeps to the granularity in use while a node of that size
/// lasts between `MIN_NODE_NS / 3` and `3 * MIN_NODE_NS`. Without memory a
/// cost measured near a power-of-two midpoint re-plans on every jitter,
/// and the measured cost itself moves with the granularity (one node of
/// airfoil's `save_soln` costs 2.2x per element what two on two cores do),
/// which a narrower band turns into a limit cycle.
const FLOOR_STICKS_WITHIN: f64 = 3.0;

/// Sizes a node to take ~`target_ns` at `per_elem_ns`, quantized to a
/// power of two, capped for load balance (at least ~2 nodes per thread
/// where the set allows it) but not below [`MIN_NODE_NS`] worth of
/// elements, and clamped to `[min, n]`. `in_use` is the granularity the
/// loop last ran at, if any.
fn feedback_block_size(
    target_ns: u64,
    per_elem_ns: f64,
    n: usize,
    threads: usize,
    min: usize,
    in_use: Option<usize>,
) -> usize {
    let per_elem_ns = per_elem_ns.max(1e-3);
    let ideal = pow2_round(target_ns as f64 / per_elem_ns);
    let balance_cap = pow2_floor((n / (2 * threads.max(1))).max(1));
    let floor_elems = MIN_NODE_NS / per_elem_ns;
    let band = 1.0 / FLOOR_STICKS_WITHIN..FLOOR_STICKS_WITHIN;
    let sticks = |g: &usize| band.contains(&(floor_elems / *g as f64));
    let floor = in_use.filter(sticks).unwrap_or(pow2_round(floor_elems));
    ideal
        .min(balance_cap)
        .max(ideal.min(floor))
        .max(min.max(1))
        .min(n.max(1))
}

/// Resolves the configured chunk policy to the concrete, uniform node
/// granularity a Dataflow loop of `n` elements over `(kernel, set_id)`
/// schedules with *right now*:
///
/// * [`ChunkPolicy::Static`] / [`ChunkPolicy::NumChunks`] — probe-free,
///   set directly;
/// * [`ChunkPolicy::Auto`] / [`ChunkPolicy::PersistentAuto`] /
///   [`ChunkPolicy::Guided`] — **feedback-resolved**: a synchronous timing
///   probe has no place in graph construction, so executed nodes record
///   their measured per-element cost into the context's
///   [`GranularityFeedback`] and the *next* submission of the same
///   (kernel, set) resolves the policy's target duration against it. The
///   first submission — no feedback yet — probes at the conservative
///   mini-partition `block_size` default. `Guided` has no target of its
///   own and aims for the default chunk target with its `min` as the
///   granularity floor.
///
/// The same resolution applies to colored (indirect) loops: the resolved
/// granularity is the coloring block size, and the plan cache keys on it.
///
/// Feedback is keyed by `(kernel, set signature)` — *shape*, not entity
/// identity — so a second world running the same solver (a farm tenant)
/// resolves measured granularities from the first world's samples when the
/// two share a feedback table.
fn resolve_granularity(
    world: &Op2,
    kernel: &str,
    set_sig: u64,
    n: usize,
    in_use: Option<usize>,
) -> usize {
    let cfg = world.config();
    let default_bs = cfg.block_size.max(1);
    let measured = |target_ns: u64, min: usize| -> usize {
        let cost = world.granularity_feedback().cost(kernel, set_sig);
        cost.map_or(default_bs, |c| {
            feedback_block_size(target_ns, c.ewma_ns_per_elem, n, cfg.threads, min, in_use)
        })
    };
    match &cfg.chunk {
        ChunkPolicy::Static { size } => (*size).max(1),
        ChunkPolicy::NumChunks { chunks } => n.div_ceil((*chunks).clamp(1, n.max(1))).max(1),
        ChunkPolicy::Guided { min } => measured(
            hpx_rt::DEFAULT_CHUNK_TARGET.as_nanos() as u64,
            (*min).max(1),
        ),
        ChunkPolicy::Auto { target } => measured(target.as_nanos() as u64, 1),
        ChunkPolicy::PersistentAuto(handle) => {
            let target_ns = handle.target_ns();
            if let Some(c) = world.granularity_feedback().cost(kernel, set_sig) {
                // First kernel with feedback calibrates the shared
                // duration (first-loop-wins): later kernels match this
                // duration with their own sizes (paper Fig 12b). The
                // duration the chunker *aimed for* is locked in — the
                // uncapped ideal, not the first kernel's achievable node
                // duration, so a tiny first set (whose nodes can never
                // reach the target) does not poison every later kernel
                // with a miniature target.
                let ideal = (target_ns as f64 / c.ewma_ns_per_elem.max(1e-3)).max(1.0);
                let aimed_ns = (ideal * c.ewma_ns_per_elem) as u64;
                handle.calibrate_once(aimed_ns.max(1));
            }
            measured(handle.target_ns(), 1)
        }
    }
}

fn dataflow_plan(world: &Op2, spec: &LoopSpec, n: usize, granularity: usize) -> LoopPlan {
    let conflicts = conflicts_of(&spec.infos);
    let bs = granularity.max(1);
    let schedule = if conflicts.is_empty() {
        let nblocks = n.div_ceil(bs);
        Schedule::Direct {
            blocks: (0..nblocks)
                .map(|b| b * bs..((b + 1) * bs).min(n))
                .collect(),
            round: (0..nblocks).collect(),
        }
    } else {
        Schedule::Planned(world.plans().get(&spec.set, bs, &conflicts))
    };

    // Coalesce arguments per dat: direct ones together, indirect ones per
    // map (their slots' reach united).
    struct Group<'a> {
        arg: usize,
        mutates: bool,
        via: Option<(&'a Map, Vec<usize>)>,
    }
    let mut groups: Vec<Group<'_>> = Vec::new();
    for (arg, info) in spec.infos.iter().enumerate() {
        let Some(table) = &info.deps else { continue };
        let via = match &info.kind {
            ArgKind::Indirect { map, idx } => Some((map, *idx)),
            _ => None,
        };
        let same = groups.iter_mut().find(|g| {
            let same_dat = spec.infos[g.arg]
                .deps
                .as_ref()
                .is_some_and(|t| Arc::ptr_eq(t, table));
            let same_path = match (&g.via, via) {
                (None, None) => true,
                (Some((m, _)), Some((map, _))) => m.signature() == map.signature(),
                _ => false,
            };
            same_dat && same_path
        });
        match same {
            Some(g) => {
                g.mutates |= info.access.is_mut();
                if let (Some((_, slots)), Some((_, idx))) = (&mut g.via, via) {
                    if !slots.contains(&idx) {
                        slots.push(idx);
                    }
                }
            }
            None => groups.push(Group {
                arg,
                mutates: info.access.is_mut(),
                via: via.map(|(m, idx)| (m, vec![idx])),
            }),
        }
    }
    let dats = groups
        .into_iter()
        .map(|g| {
            let block_rows = spec.infos[g.arg]
                .deps
                .as_ref()
                .expect("grouped arguments are dat arguments")
                .block_size();
            let footprint = match g.via {
                None => Footprint::Rows {
                    first: 0,
                    end: n,
                    per_node: bs,
                    block_rows,
                },
                Some((map, mut slots)) => {
                    slots.sort_unstable();
                    Footprint::Via(map.block_reach(&slots, bs, block_rows))
                }
            };
            DatAccess {
                arg: g.arg,
                mutates: g.mutates,
                footprint,
            }
        })
        .collect();
    LoopPlan { schedule, dats }
}

// ---------------------------------------------------------------------------
// Loop-spec cache
// ---------------------------------------------------------------------------

/// One argument's contribution to a [`SpecKey`]: enough shape to make the
/// cached plan valid for any loop sharing it. A dat argument names the
/// first argument on the same dat (which arguments coalesce into one
/// footprint) and that dat's dependency-block size (what the footprint's
/// block numbers mean).
#[derive(Clone, PartialEq, Eq, Hash)]
enum SigKind {
    Direct {
        dat: usize,
        block_rows: usize,
    },
    Via {
        map: u64,
        idx: usize,
        dat: usize,
        block_rows: usize,
    },
    Global,
}

/// Cache key of a built [`LoopPlan`]: kernel name, iteration set, argument
/// signature (access mode + direct/indirect/global shape), and the chunk
/// policy *kind*. The **resolved granularity** is deliberately not part of
/// the key — it is stored next to the cached schedule, so a feedback-driven
/// granularity change *re-keys* (invalidates and rebuilds) the entry
/// exactly once instead of accumulating one entry per granularity ever
/// seen.
#[derive(Clone, PartialEq, Eq, Hash)]
struct SpecKey {
    name: Arc<str>,
    set: u64,
    sig: Vec<(Access, SigKind)>,
    chunk: (u8, usize),
}

impl SpecKey {
    fn of(world: &Op2, spec: &LoopSpec) -> SpecKey {
        let sig = spec
            .infos
            .iter()
            .map(|i| {
                let Some(table) = &i.deps else {
                    return (i.access, SigKind::Global);
                };
                let dat = spec
                    .infos
                    .iter()
                    .position(|o| o.deps.as_ref().is_some_and(|t| Arc::ptr_eq(t, table)))
                    .expect("an argument shares its own dat");
                let block_rows = table.block_size();
                let kind = match &i.kind {
                    ArgKind::Indirect { map, idx } => SigKind::Via {
                        map: map.signature(),
                        idx: *idx,
                        dat,
                        block_rows,
                    },
                    _ => SigKind::Direct { dat, block_rows },
                };
                (i.access, kind)
            })
            .collect();
        let chunk = match &world.config().chunk {
            ChunkPolicy::Static { size } => (0u8, *size),
            ChunkPolicy::NumChunks { chunks } => (1, *chunks),
            ChunkPolicy::Guided { min } => (2, *min),
            ChunkPolicy::Auto { .. } => (3, 0),
            ChunkPolicy::PersistentAuto(_) => (4, 0),
        };
        SpecKey {
            name: spec.name.clone(),
            set: spec.set.signature(),
            sig,
            chunk: (chunk.0, chunk.1),
        }
    }
}

/// Cache of dataflow [`LoopPlan`]s, the OP2-style "plan once, execute
/// many" applied to the *whole* loop shape: repeated solver iterations of
/// a named loop reuse the block partition, the color rounds and every
/// node's dependency footprint without rebuilding or even re-deriving
/// conflicts. Private to one context by
/// default, but key identity is **shape** (kernel name, set/map content
/// signatures, chunk-policy kind), so a cache shared between worlds via
/// [`SpecShare`] hits warm across tenants running the same solver.
///
/// Every cached schedule carries the **resolved node granularity** it was
/// built at. A lookup whose freshly resolved granularity matches is a
/// *hit*; a lookup for an unseen shape is a *miss*; a lookup whose
/// granularity differs — the feedback moved the chunker's decision — is a
/// *re-plan*: the stale schedule is dropped and rebuilt once, so each
/// granularity change costs exactly one rebuild. Hits/misses/re-plans are
/// mirrored in the `op2.spec_cache.{hits,misses,replans}` named counters
/// of [`hpx_rt::stats`].
///
/// Residency is **bounded**: the cache holds at most `capacity` schedules
/// (default [`DEFAULT_SPEC_CAPACITY`]); inserting past it evicts the
/// least-recently-used entry (`op2.spec_cache.evictions`), so a shared
/// pool serving many distinct tenant shapes cannot grow without bound.
/// Entries for a retired set signature are dropped eagerly via
/// [`SpecCache::invalidate_set`] (`op2.spec_cache.invalidations`) — the
/// live-repartition path, where schedules for a migrated-away set must not
/// be reachable once its signature is reused.
pub(crate) struct SpecCache {
    map: Mutex<HashMap<SpecKey, CachedSpec>>,
    hits: AtomicU64,
    replans: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    /// Monotonic recency clock; every hit or insert stamps the entry.
    tick: AtomicU64,
    capacity: std::sync::atomic::AtomicUsize,
}

/// Default bound on resident schedules (see [`SpecCache`]).
pub const DEFAULT_SPEC_CAPACITY: usize = 512;

struct CachedSpec {
    granularity: usize,
    /// Recency stamp (larger = more recently used).
    stamp: u64,
    plan: Arc<LoopPlan>,
}

impl Default for SpecCache {
    fn default() -> Self {
        SpecCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            replans: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            capacity: std::sync::atomic::AtomicUsize::new(DEFAULT_SPEC_CAPACITY),
        }
    }
}

impl SpecCache {
    fn touch(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn get(&self, world: &Op2, spec: &LoopSpec, n: usize) -> Arc<LoopPlan> {
        let key = SpecKey::of(world, spec);
        let in_use = self.map.lock().get(&key).map(|c| c.granularity);
        let granularity = resolve_granularity(world, &spec.name, spec.set.signature(), n, in_use);
        match self.map.lock().get_mut(&key) {
            Some(c) if c.granularity == granularity => {
                c.stamp = self.touch();
                self.hits.fetch_add(1, Ordering::Relaxed);
                hpx_rt::static_counter!("op2.spec_cache.hits").fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&c.plan);
            }
            Some(_) => {
                // Granularity changed: invalidate and rebuild (re-key).
                self.replans.fetch_add(1, Ordering::Relaxed);
                hpx_rt::static_counter!("op2.spec_cache.replans").fetch_add(1, Ordering::Relaxed);
            }
            None => {
                hpx_rt::static_counter!("op2.spec_cache.misses").fetch_add(1, Ordering::Relaxed);
            }
        }
        let built = Arc::new(dataflow_plan(world, spec, n, granularity));
        // Built outside the lock (plan construction can be expensive);
        // re-check on insert so a concurrent same-shape submission that
        // won the race at this granularity is reused, not overwritten.
        let stamp = self.touch();
        let mut map = self.map.lock();
        let out = match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e)
                if e.get().granularity != granularity =>
            {
                e.insert(CachedSpec {
                    granularity,
                    stamp,
                    plan: Arc::clone(&built),
                });
                built
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().stamp = stamp;
                Arc::clone(&e.get().plan)
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(CachedSpec {
                    granularity,
                    stamp,
                    plan: Arc::clone(&built),
                });
                built
            }
        };
        // Bounded residency: evict the least-recently-used entries. The
        // just-inserted entry carries the freshest stamp, so it is never
        // the victim.
        let cap = self.capacity.load(Ordering::Relaxed).max(1);
        while map.len() > cap {
            let victim = map
                .iter()
                .min_by_key(|(_, c)| c.stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity map");
            map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            hpx_rt::static_counter!("op2.spec_cache.evictions").fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Drops every cached schedule keyed on set signature `set_sig` and
    /// returns how many were removed. Called by the live-repartition path
    /// after migration retires a set, so a stale schedule for the old
    /// signature can never be hit again (a later mesh declaring the same
    /// shape would otherwise reuse a schedule whose plan tables index the
    /// retired entities' block layout).
    pub fn invalidate_set(&self, set_sig: u64) -> usize {
        let mut map = self.map.lock();
        let before = map.len();
        map.retain(|k, _| k.set != set_sig);
        let removed = before - map.len();
        drop(map);
        if removed > 0 {
            self.invalidations
                .fetch_add(removed as u64, Ordering::Relaxed);
            hpx_rt::static_counter!("op2.spec_cache.invalidations")
                .fetch_add(removed as u64, Ordering::Relaxed);
        }
        removed
    }

    /// Bounds resident schedules to `capacity` (≥ 1), evicting LRU entries
    /// immediately if the cache is already over the new bound.
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut map = self.map.lock();
        while map.len() > capacity {
            let victim = map
                .iter()
                .min_by_key(|(_, c)| c.stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity map");
            map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            hpx_rt::static_counter!("op2.spec_cache.evictions").fetch_add(1, Ordering::Relaxed);
        }
    }

    pub fn built(&self) -> usize {
        self.map.lock().len()
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn replans(&self) -> u64 {
        self.replans.load(Ordering::Relaxed)
    }

    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }
}

/// A shareable handle to one loop-spec cache (see [`SpecCache`]'s
/// internal docs): clone it into several [`Op2Config`]s via
/// [`Op2Config::with_shared_specs`](crate::Op2Config::with_shared_specs)
/// and every world built from them resolves loop schedules through **one**
/// cache. Because keys are content signatures, not entity ids, a world
/// declaring the same mesh shape as an earlier one hits the earlier
/// world's warm schedules on its very first loop — the cross-tenant warm
/// path of [`crate::farm`].
///
/// The default value (`SpecShare::default()`) is a fresh, empty cache —
/// exactly what a solitary `Op2::new` gets.
#[derive(Clone, Default)]
pub struct SpecShare {
    cache: Arc<SpecCache>,
}

impl SpecShare {
    /// A fresh, empty shared cache with the default residency bound
    /// ([`DEFAULT_SPEC_CAPACITY`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh, empty shared cache holding at most `capacity` schedules
    /// (LRU eviction past the bound; see [`SpecShare::set_capacity`]).
    pub fn with_capacity(capacity: usize) -> Self {
        let share = Self::default();
        share.cache.set_capacity(capacity);
        share
    }

    pub(crate) fn cache(&self) -> &SpecCache {
        &self.cache
    }

    /// Number of distinct loop shapes with a built schedule.
    pub fn built(&self) -> usize {
        self.cache.built()
    }

    /// Lookups served from a cached schedule (across every sharing world).
    pub fn hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Granularity-change invalidations (see
    /// [`Op2::spec_cache_replans`](crate::Op2::spec_cache_replans)).
    pub fn replans(&self) -> u64 {
        self.cache.replans()
    }

    /// Entries dropped by the LRU residency bound.
    pub fn evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Entries dropped because their set signature was invalidated (live
    /// repartition retiring a migrated set).
    pub fn invalidations(&self) -> u64 {
        self.cache.invalidations()
    }

    /// Re-bounds resident schedules to `capacity` (≥ 1), evicting
    /// least-recently-used entries immediately if needed.
    pub fn set_capacity(&self, capacity: usize) {
        self.cache.set_capacity(capacity);
    }
}

impl std::fmt::Debug for SpecShare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecShare")
            .field("built", &self.built())
            .field("hits", &self.hits())
            .field("replans", &self.replans())
            .finish()
    }
}

/// The uniform node granularity a Dataflow loop named `kernel` over `set`
/// resolves to under `world`'s configuration and current feedback —
/// exposed so tests can assert the feedback wiring (probe default before
/// the first measurement, measured convergence after) without reaching
/// into the driver.
#[doc(hidden)]
pub fn __dataflow_resolved_block_size(world: &Op2, kernel: &str, set: &Set) -> usize {
    resolve_granularity(world, kernel, set.signature(), set.size(), None)
}

/// The block partition a *direct* dataflow loop named `kernel` over `set`
/// would be scheduled with under `world`'s configuration and current
/// feedback.
#[doc(hidden)]
pub fn __dataflow_direct_blocks(world: &Op2, kernel: &str, set: &Set) -> Vec<Range<usize>> {
    let n = set.size();
    let bs = resolve_granularity(world, kernel, set.signature(), n, None);
    (0..n.div_ceil(bs))
        .map(|b| b * bs..((b + 1) * bs).min(n))
        .collect()
}

/// Everything the nodes of one submitted loop share, behind the one `Arc`
/// a node's closure captures next to its block indices.
struct LoopRun {
    body: Arc<dyn Fn(Range<usize>) + Send + Sync>,
    /// Block table of the schedule the nodes were cut from.
    plan: Arc<LoopPlan>,
    /// First node to execute stamps the start; the finalize node reads it.
    started: OnceLock<Instant>,
    /// Where a measuring loop's nodes report (elements, elapsed) on the
    /// feedback clock — resolved once, at submission.
    measure: Option<(Clock, FeedbackSlot)>,
    /// The loop's gathered containers and how many elements of the block
    /// scheduled next a node warms the cache with before it runs its own.
    gather: Option<(Arc<PrefetchSet>, usize)>,
}

impl LoopRun {
    /// The body of the node over block `b`; `next` is the block scheduled
    /// after it, if any.
    fn node(&self, b: usize, next: Option<usize>) {
        let blocks = self.plan.schedule.blocks();
        self.started.get_or_init(Instant::now);
        if let (Some((set, lookahead)), Some(next)) = (&self.gather, next) {
            let ahead = &blocks[next];
            for e in ahead.start..(ahead.start + lookahead).min(ahead.end) {
                set.prefetch(e);
            }
        }
        let range = blocks[b].clone();
        match &self.measure {
            None => (self.body)(range),
            Some((clock, slot)) => {
                let elems = range.len();
                let start = clock.now_ns();
                (self.body)(range);
                slot.record(elems, clock.now_ns().saturating_sub(start));
            }
        }
    }
}

/// Approximate main-memory latency the cross-node look-ahead is sized
/// against: prefetching `latency / per_elem_cost` elements ahead means the
/// line arrives roughly when the kernel reaches it.
const MEM_LATENCY_NS: f64 = 100.0;

/// Cross-node look-ahead bounds, and the static fallback used before any
/// feedback exists for the (kernel, set) — the paper's empirically optimal
/// distance factor for Airfoil (§V, Fig 20).
const GATHER_LOOKAHEAD_DEFAULT: usize = 15;
const GATHER_LOOKAHEAD_MAX: usize = 128;

/// Elements of the *next* node to prefetch while the current node runs:
/// resolved from the granularity feedback's measured per-element cost when
/// available (cheap kernels look further ahead, expensive ones barely need
/// to), the static paper default otherwise.
fn gather_lookahead(world: &Op2, kernel: &str, set_sig: u64) -> usize {
    match world.granularity_feedback().cost(kernel, set_sig) {
        Some(c) => ((MEM_LATENCY_NS / c.ewma_ns_per_elem.max(1e-3)) as usize)
            .clamp(1, GATHER_LOOKAHEAD_MAX),
        None => GATHER_LOOKAHEAD_DEFAULT,
    }
}

/// What one world's Dataflow loop submissions cost so far (see
/// [`Op2::submit_stats`]); all zero under the synchronous backends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitStats {
    /// Block nodes scheduled (finalize nodes not counted).
    pub nodes: u64,
    /// Dependency edges the driver handed to the runtime: per node, the
    /// distinct producers still running when it was built.
    pub edges_collected: u64,
    /// Edges the runtime wired after its own duplicate check — equal to
    /// `edges_collected` unless a duplicate slipped through collection.
    pub edges_wired: u64,
    /// Access records pushed onto dats: one per loop and distinct dat.
    pub records_pushed: u64,
    /// Nanoseconds the submitting threads spent building and wiring loop
    /// graphs.
    pub submit_ns: u64,
}

fn drive_dataflow(world: &Op2, mut spec: LoopSpec) -> SharedFuture<()> {
    let submit_start = Instant::now();
    let rt = world.runtime_arc();
    let n = spec.set.size();
    let set_sig = spec.set.signature();
    let feedback = world.granularity_feedback();

    let plan = world.specs().get(world, &spec, n);
    let (blocks, rounds) = (plan.schedule.blocks(), plan.schedule.rounds());

    let run = Arc::new(LoopRun {
        body: Arc::clone(&spec.block_body),
        plan: Arc::clone(&plan),
        started: OnceLock::new(),
        // A measuring policy closes the feedback loop: every node times its
        // body on the feedback clock and records (elements, elapsed), which
        // the *next* submission of this (kernel, set) resolves its
        // granularity from. A rank-tagged world measures regardless of
        // policy — its samples also accumulate the per-rank busy time the
        // rebalancer reads, which must not depend on the chunking strategy.
        measure: (matches!(
            world.config().chunk,
            ChunkPolicy::Auto { .. } | ChunkPolicy::PersistentAuto(_) | ChunkPolicy::Guided { .. }
        ) || feedback.rank().is_some())
        .then(|| (feedback.clock().clone(), feedback.slot(&spec.name, set_sig))),
        // Cross-node gather prefetch: each node, before running its body,
        // warms the cache with the first gathered rows of the block
        // scheduled after it (next in its round, else the next round's
        // first block). The look-ahead comes from the measured per-element
        // cost when the feedback table has one.
        gather: spec
            .gather
            .clone()
            .map(|set| (set, gather_lookahead(world, &spec.name, set_sig))),
    });

    // One look at every argument dat: the records this loop's access
    // conflicts with. Nodes resolve their footprints against these
    // snapshots, so building the graph takes no further lock, and the
    // loop's own records (pushed below, after all nodes exist) are not in
    // them — intra-loop ordering is carried solely by the round gates,
    // exactly the conflicts the coloring separated.
    let accesses: Vec<(&Arc<DepTable>, Vec<LiveRecord>)> = plan
        .dats
        .iter()
        .map(|d| {
            let table = spec.infos[d.arg]
                .deps
                .as_ref()
                .expect("a planned dat access is a dat argument");
            (table, table.conflicting(d.mutates))
        })
        .collect();
    // Two broadcast reads of one global would list its pending reductions
    // twice.
    let mut node_deps: Vec<SharedFuture<()>> = Vec::new();
    for d in spec.node_deps.drain(..) {
        if !node_deps.iter().any(|o| SharedFuture::ptr_eq(o, &d)) {
            node_deps.push(d);
        }
    }

    // Build one dataflow node per block, round by round.
    let mut nodes: Vec<Option<SharedFuture<()>>> = vec![None; blocks.len()];
    let mut gate: Option<SharedFuture<()>> = None;
    let mut last_round: Vec<SharedFuture<()>> = Vec::new();
    let mut deps_buf: Vec<SharedFuture<()>> = Vec::new();
    let (mut edges_collected, mut edges_wired) = (0usize, 0usize);
    for (r, round) in rounds.iter().enumerate() {
        let mut round_futs: Vec<SharedFuture<()>> = Vec::with_capacity(round.len());
        for (i, &b) in round.iter().enumerate() {
            let next = round
                .get(i + 1)
                .or_else(|| rounds.get(r + 1).and_then(|nr| nr.first()))
                .copied();
            deps_buf.clear();
            deps_buf.extend(gate.iter().cloned());
            deps_buf.extend_from_slice(&node_deps);
            for (d, (_, records)) in plan.dats.iter().zip(&accesses) {
                if records.is_empty() {
                    continue;
                }
                let mut one = 0..0;
                let touched = d.footprint.node_blocks(b, &mut one);
                for live in records {
                    live.collect(touched, &mut deps_buf);
                }
            }
            let run = Arc::clone(&run);
            let (fut, wired) = schedule_after_counted(&rt, &deps_buf, move || run.node(b, next));
            edges_collected += deps_buf.len();
            edges_wired += wired;
            round_futs.push(fut.clone());
            nodes[b] = Some(fut);
        }
        if r + 1 < rounds.len() {
            gate = Some(when_all_shared(&round_futs));
        }
        last_round = round_futs;
    }

    // Finalize node: joins the final round (earlier rounds are covered
    // transitively through the gates) plus the loop-level dependencies —
    // e.g. a previous loop's finalize on a shared global, which block
    // nodes deliberately do not wait for (their reduction partials are
    // generation-tagged, so pipelining survives shared globals). An empty
    // set schedules only this node.
    last_round.append(&mut spec.loop_deps);
    let (finalize, stats, name) = (
        Arc::clone(&spec.finalize),
        world.stats_handle(),
        spec.name.clone(),
    );
    let done = schedule_after(&rt, &last_round, move || {
        let t0 = *run.started.get_or_init(Instant::now);
        finalize();
        record_loop_time(&stats, &name, t0.elapsed());
    });

    // One access record per dat, all sharing the node array. This runs
    // synchronously before the submitting thread returns, so the next
    // submitted loop sees it.
    let nodes: Arc<[SharedFuture<()>]> = nodes
        .into_iter()
        .map(|f| f.expect("every block is in exactly one round"))
        .collect();
    for (d, (table, _)) in plan.dats.iter().zip(&accesses) {
        table.push(AccessRecord {
            gen: spec.gen,
            mutates: d.mutates,
            nodes: Arc::clone(&nodes),
            done: done.clone(),
            footprint: d.footprint.clone(),
        });
    }

    let mut stats = world.submit_stats_mut();
    stats.nodes += nodes.len() as u64;
    stats.edges_collected += edges_collected as u64;
    stats.edges_wired += edges_wired as u64;
    stats.records_pushed += plan.dats.len() as u64;
    stats.submit_ns += submit_start.elapsed().as_nanos() as u64;
    drop(stats);
    done
}

/// A handle to a submitted loop (paper Fig 9: the kernel "returns an
/// output argument as a future").
///
/// Under the dataflow backend the loop may still be running — or not yet
/// started — when the handle is returned; under Seq/ForkJoin it is already
/// complete. Dropping the handle is fine: the context tracks the loop for
/// [`Op2::fence`].
#[derive(Clone, Debug)]
pub struct LoopHandle {
    name: Arc<str>,
    done: SharedFuture<()>,
}

impl LoopHandle {
    pub(crate) fn new(name: Arc<str>, done: SharedFuture<()>) -> Self {
        LoopHandle { name, done }
    }

    /// The loop's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// True once the loop has completed.
    pub fn is_done(&self) -> bool {
        self.done.is_ready()
    }

    /// Blocks until the loop completes, re-panicking if the kernel
    /// panicked.
    pub fn wait(&self) {
        self.done.get()
    }

    /// The completion future, usable as an explicit dataflow dependency.
    pub fn future(&self) -> SharedFuture<()> {
        self.done.clone()
    }
}

/// Fetches the cached plan for a loop shape — used by tests and the
/// benchmark harness to inspect coloring.
pub fn plan_for(world: &Op2, set: &Set, infos: &[ArgInfo]) -> Option<Arc<Plan>> {
    let conflicts = conflicts_of(infos);
    if conflicts.is_empty() {
        return None;
    }
    Some(
        world
            .plans()
            .get(set, world.config().block_size, &conflicts),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const TARGET_NS: u64 = hpx_rt::DEFAULT_CHUNK_TARGET.as_nanos() as u64;

    /// The resolution before the node-duration floor: target, cap, clamp.
    fn capped_only(target_ns: u64, per_elem_ns: f64, n: usize, threads: usize) -> usize {
        let ideal = target_ns as f64 / per_elem_ns.max(1e-3);
        let balance_cap = pow2_floor((n / (2 * threads.max(1))).max(1));
        pow2_round(ideal).min(balance_cap).max(1).min(n.max(1))
    }

    #[test]
    fn a_loop_of_a_few_microseconds_is_one_node() {
        // airfoil_small's bres_calc: 270 boundary edges at ~20 ns, 5.4 us
        // in all, which the cap alone cuts into five nodes of 64.
        assert_eq!(capped_only(TARGET_NS, 20.0, 270, 2), 64);
        assert_eq!(feedback_block_size(TARGET_NS, 20.0, 270, 2, 1, None), 270);
    }

    #[test]
    fn the_floor_leaves_a_mid_sized_loop_a_few_nodes() {
        // 4050 cells at 11 ns are 45 us: not one node, not the cap's eight.
        let size = feedback_block_size(TARGET_NS, 11.0, 4050, 2, 1, None);
        let nodes = 4050usize.div_ceil(size);
        assert!((2..=4).contains(&nodes), "{nodes} nodes of {size}");
        assert_eq!(4050usize.div_ceil(capped_only(TARGET_NS, 11.0, 4050, 2)), 8);
    }

    /// Never below the capped size, never above `n` or the target's size,
    /// whatever was in use; and a loop whose capped nodes already last the
    /// floor, and which is not on a size the floor gave it earlier,
    /// resolves as it did without one.
    #[test]
    fn the_floor_binds_only_where_capped_nodes_are_shorter_than_it() {
        let mut unmoved = 0;
        for threads in [1, 2, 3, 4, 8, 16] {
            for n in [
                1, 7, 270, 1000, 4050, 8100, 100_000, 400_000, 720_000, 3_000_000,
            ] {
                for cost in [0.5, 3.0, 11.0, 20.0, 47.0, 150.0, 1000.0, 25_000.0] {
                    for target_ns in [5_000, 128_000, TARGET_NS, 2_000_000] {
                        let was = capped_only(target_ns, cost, n, threads);
                        for in_use in [None, Some(was), Some(n), Some(256), Some(2 * was)] {
                            let now = feedback_block_size(target_ns, cost, n, threads, 1, in_use);
                            let case = format!(
                                "{n} elems at {cost} ns, {threads} threads, {in_use:?} in use"
                            );
                            assert!(now >= was, "{case}: {was} -> {now}");
                            assert!(now <= n, "{case}: {now}");
                            let ideal = pow2_round(target_ns as f64 / cost);
                            assert!(now <= ideal, "{case}: {now}");
                            let on_it = in_use.is_none_or(|g| g == was);
                            if on_it && was as f64 * cost >= MIN_NODE_NS {
                                assert_eq!(now, was, "{case}");
                                unmoved += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(unmoved > 1000, "the grid has both sides: {unmoved}");
    }

    /// A cost that jitters around a power-of-two midpoint of the floor
    /// (12 us / 8.29 ns = 1448 elements) must not flip the granularity,
    /// nor one that moves with the granularity itself.
    #[test]
    fn the_floor_sticks_to_the_granularity_in_use() {
        let resolve = |cost, in_use| feedback_block_size(TARGET_NS, cost, 4050, 2, 1, in_use);
        let (below, above) = (resolve(8.2, None), resolve(8.4, None));
        assert_eq!((below, above), (2048, 1024), "the midpoint");
        for start in [below, above] {
            let mut g = start;
            for cost in [8.2, 8.4, 7.0, 10.0, 8.29, 12.0, 6.0, 16.0, 5.0] {
                g = resolve(cost, Some(g));
                assert_eq!(g, start, "flipped at {cost} ns");
            }
        }
        // A node in use that lasts a third of the floor, or three times
        // it, is re-planned.
        assert_eq!(resolve(20.0, Some(2048)), 512);
        assert_eq!(resolve(3.5, Some(1024)), 4050);
    }
}
