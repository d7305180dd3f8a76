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
    schedule_after, schedule_after_counted, when_all_shared, ChunkPolicy, Clock, SharedFuture,
};

use crate::arg::{ArgInfo, ArgKind};
use crate::config::Backend;
use crate::dat::{AccessRecord, DepTable, Footprint, LiveRecord};
use crate::granularity::{resolve_granularity, FeedbackSlot};
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
    // A rank world times the whole loop on the world clock (so Seq
    // sharded runs feed the rebalancer's imbalance signal —
    // deterministically, under a fake clock).
    let (fb, clock) = (world.granularity_feedback(), &world.config().clock);
    let start_ns = world.measures_busy().then(|| clock.now_ns());
    if n > 0 {
        if !parallel {
            (spec.block_body)(0..n);
        } else {
            run_parallel_phases(world, &spec, n);
        }
    }
    (spec.finalize)();
    if let Some(start) = start_ns {
        let elapsed = clock.now_ns().saturating_sub(start);
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
    let chunk = &world.config().chunk;
    let conflicts = conflicts_of(&spec.infos);
    if conflicts.is_empty() {
        hpx_rt::for_each_chunk(rt, chunk, 0..n, |r| (spec.block_body)(r));
        return;
    }
    let plan = world
        .plans()
        .get(&spec.set, world.config().block_size, &conflicts);
    for color_list in &plan.color_blocks {
        hpx_rt::for_each_chunk(rt, chunk, 0..color_list.len(), |br| {
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
            ChunkPolicy::Auto { .. } => (2, 0),
        };
        SpecKey {
            name: spec.name.clone(),
            set: spec.set.signature(),
            sig,
            chunk,
        }
    }
}

/// Cache of dataflow [`LoopPlan`]s, the OP2-style "plan once, execute
/// many" applied to the *whole* loop shape: repeated solver iterations of
/// a named loop reuse the block partition, the color rounds and every
/// node's dependency footprint without rebuilding or even re-deriving
/// conflicts. Each world owns one. Key identity is **shape** (kernel name,
/// set/map content signatures, chunk-policy kind), not entity identity, so
/// a mesh declared again on the same world hits the schedules of the first
/// declaration, and a different mesh builds its own.
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
/// The cache grows only with the loop shapes of its world. Entries for a
/// retired set signature are dropped eagerly via
/// [`SpecCache::invalidate_set`] (`op2.spec_cache.invalidations`) — the
/// live-repartition path, where schedules for a migrated-away set must not
/// be reachable once its signature is reused.
#[derive(Default)]
pub(crate) struct SpecCache {
    map: Mutex<HashMap<SpecKey, CachedSpec>>,
    hits: AtomicU64,
    replans: AtomicU64,
}

struct CachedSpec {
    granularity: usize,
    plan: Arc<LoopPlan>,
}

impl SpecCache {
    fn get(&self, world: &Op2, spec: &LoopSpec, n: usize) -> Arc<LoopPlan> {
        let key = SpecKey::of(world, spec);
        let in_use = self.map.lock().get(&key).map(|c| c.granularity);
        let granularity = resolve_granularity(world, &spec.name, spec.set.signature(), n, in_use);
        match self.map.lock().get(&key) {
            Some(c) if c.granularity == granularity => {
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
        let mut map = self.map.lock();
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e)
                if e.get().granularity != granularity =>
            {
                e.insert(CachedSpec {
                    granularity,
                    plan: Arc::clone(&built),
                });
                built
            }
            std::collections::hash_map::Entry::Occupied(e) => Arc::clone(&e.get().plan),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(CachedSpec {
                    granularity,
                    plan: Arc::clone(&built),
                });
                built
            }
        }
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
            hpx_rt::static_counter!("op2.spec_cache.invalidations")
                .fetch_add(removed as u64, Ordering::Relaxed);
        }
        removed
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
}

/// The uniform node granularity, in elements per node, that a Dataflow
/// loop named `kernel` over `set` resolves to under `world`'s chunk policy
/// and current granularity feedback: the probe default before the
/// kernel's first measurement, the measured size after. Reports show it
/// next to the feedback table, and tests assert the feedback wiring with
/// it.
pub fn dataflow_resolved_block_size(world: &Op2, kernel: &str, set: &Set) -> usize {
    resolve_granularity(world, kernel, set.signature(), set.size(), None)
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
    /// world clock — resolved once, at submission.
    measure: Option<(Clock, FeedbackSlot)>,
}

impl LoopRun {
    /// The body of the node over block `b`.
    fn node(&self, b: usize) {
        self.started.get_or_init(Instant::now);
        let range = self.plan.schedule.blocks()[b].clone();
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
        // `Auto` closes the feedback loop: every node times its body on the
        // world clock and records (elements, elapsed), which
        // the *next* submission of this (kernel, set) resolves its
        // granularity from. A rank world measures regardless of policy —
        // its samples also accumulate the busy time the rebalancer reads,
        // which must not depend on the chunking strategy.
        measure: (matches!(world.config().chunk, ChunkPolicy::Auto { .. })
            || world.measures_busy())
        .then(|| {
            (
                world.config().clock.clone(),
                feedback.slot(&spec.name, set_sig),
            )
        }),
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
        for &b in round {
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
            let (fut, wired) = schedule_after_counted(&rt, &deps_buf, move || run.node(b));
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
