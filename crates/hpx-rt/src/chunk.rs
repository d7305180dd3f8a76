//! Chunk-size control (paper §IV-B, Fig 12).
//!
//! "In order to control the overheads introduced by the creation of each
//! task, it is important to control the amount of work performed by each
//! task. This amount of work is known as the chunk size."
//!
//! Besides the classic strategies (static, even split, guided), this module
//! implements the two measurement-driven policies from the paper:
//!
//! * [`ChunkPolicy::Auto`] — HPX's `auto_chunk_size`: time a small probe of
//!   real iterations, then size chunks so each takes approximately a target
//!   duration.
//! * [`PersistentChunker`] — the paper's **new** `persistent_auto_chunk_size`
//!   policy: the *first* loop that runs under a given handle calibrates the
//!   per-chunk duration; every *subsequent* loop (typically a different loop
//!   body with a different per-iteration cost) measures its own probe and
//!   picks a chunk size hitting the *same duration*. Dependent loops thus
//!   get chunks of equal execution time but different sizes (Fig 12b),
//!   minimizing the waiting time between interleaved loops.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::timing::Clock;

/// Default per-chunk execution-time target for the measuring chunkers.
pub const DEFAULT_CHUNK_TARGET: Duration = Duration::from_micros(200);

/// Fraction of the iteration space used as the timing probe (1%, like HPX's
/// `auto_chunk_size`), bounded to keep probes cheap.
const PROBE_DIVISOR: usize = 100;
const PROBE_MAX: usize = 4096;

/// Work-division strategy for the parallel algorithms.
#[derive(Debug, Clone)]
pub enum ChunkPolicy {
    /// Fixed chunk size (OpenMP `schedule(dynamic, size)` — scheduling is
    /// always dynamic here because chunks are stealable tasks).
    Static {
        /// Iterations per chunk.
        size: usize,
    },
    /// Split the range into exactly `chunks` nearly-equal pieces (OpenMP
    /// `schedule(static)` when `chunks == nthreads` — the fork-join
    /// baseline's behaviour).
    NumChunks {
        /// Total number of chunks.
        chunks: usize,
    },
    /// Exponentially decreasing chunk sizes, never below `min` (OpenMP
    /// `schedule(guided)`).
    Guided {
        /// Smallest chunk size.
        min: usize,
    },
    /// Measure a probe, then size chunks to take ~`target` each (HPX
    /// `auto_chunk_size`).
    Auto {
        /// Per-chunk execution-time target.
        target: Duration,
    },
    /// The paper's `persistent_auto_chunk_size` (see module docs).
    PersistentAuto(PersistentChunker),
}

impl Default for ChunkPolicy {
    fn default() -> Self {
        ChunkPolicy::Auto {
            target: DEFAULT_CHUNK_TARGET,
        }
    }
}

// ---------------------------------------------------------------------------
// Granularity feedback (measured per-element cost)
// ---------------------------------------------------------------------------

/// EWMA smoothing factor for steady-state cost updates.
const FEEDBACK_ALPHA: f64 = 0.25;
/// A sample deviating from the EWMA by more than this factor is
/// *out of band*: either a workload phase change or a pre-empted node.
const FEEDBACK_SNAP_FACTOR: f64 = 2.0;
/// Consecutive out-of-band samples on the same side of the EWMA that make
/// a *phase change*: the estimate then snaps to the sample, so the consumer
/// re-plans once instead of drifting through every intermediate
/// granularity. Fewer are outliers — a node descheduled mid-kernel reads
/// 10-1000x on an oversubscribed host — and are folded clamped to the band
/// edge, so one of them moves the estimate by at most `FEEDBACK_ALPHA` of
/// the band (too little to cross a power-of-two granularity midpoint from
/// a converged estimate).
const FEEDBACK_SNAP_STREAK: i8 = 3;

/// Measured per-element cost of one (kernel, set) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Smoothed per-element cost in nanoseconds (EWMA with phase-change
    /// snapping; see [`GranularityFeedback`]).
    pub ewma_ns_per_elem: f64,
    /// Number of measurements folded in.
    pub samples: u64,
    /// Run of consecutive out-of-band samples: positive above the band,
    /// negative below, zero after any in-band sample.
    streak: i8,
}

/// Measured-cost accumulator behind the feedback-driven chunk policies:
/// per (kernel name, set id), an EWMA of the per-element execution cost
/// reported by executed chunks or dataflow nodes.
///
/// This is the persistent half of the paper's `auto_chunk_size` /
/// `persistent_auto_chunk_size` pair generalized to graph execution: a
/// synchronous parallel-for can run a timing probe before it chunks, but a
/// dataflow node graph is built before anything executes — so the graph
/// builder consults the cost measured on *previous* executions of the same
/// kernel (recorded here by the executed nodes) and sizes the next
/// submission's nodes to hit the target duration.
///
/// A loop resolves its [`FeedbackSlot`] once, at submission
/// ([`GranularityFeedback::slot`]), and its nodes fold their samples into
/// that slot alone: the table-wide lock is taken per loop, not per node,
/// and never by a worker.
///
/// All timing flows through the accumulator's [`Clock`], so tests inject
/// [`Clock::fake`] and drive convergence deterministically. Cloning is
/// cheap and shares the underlying state — a [`PersistentChunker`] clone
/// carried into several OP2 ranks shares one cost table.
#[derive(Debug, Clone, Default)]
pub struct GranularityFeedback {
    inner: Arc<FeedbackInner>,
    /// Rank this *handle* attributes samples to. The table stays shared
    /// (clones see each other's costs), but a tagged handle additionally
    /// folds every sample into its rank's private cost table and busy-time
    /// accumulator — the imbalance signal the rebalancer reads. Untagged
    /// handles behave exactly as before.
    rank: Option<u32>,
}

/// One (kernel, set)'s smoothed cost; `None` until its first sample.
type CostSlot = Mutex<Option<KernelCost>>;

/// set id -> kernel name -> cost slot.
type CostTable = Mutex<HashMap<u64, HashMap<Arc<str>, Arc<CostSlot>>>>;

#[derive(Debug, Default)]
struct FeedbackInner {
    clock: Clock,
    costs: CostTable,
    /// rank -> per-rank attribution (busy time + rank-local cost table).
    ranks: Mutex<HashMap<u32, Arc<RankAttribution>>>,
}

/// What a rank-tagged handle accumulates on top of the shared table.
#[derive(Debug, Default)]
struct RankAttribution {
    /// Total measured kernel nanoseconds attributed to this rank since the
    /// last [`GranularityFeedback::reset_rank_busy`].
    busy_ns: AtomicU64,
    /// Rank-local cost table: without it a slow rank's samples are
    /// EWMA-mixed with a fast rank's and per-rank imbalance is invisible.
    costs: CostTable,
}

/// The slot of `(kernel, set)` in `table`, made on first use.
fn slot_in(table: &CostTable, kernel: &Arc<str>, set: u64) -> Arc<CostSlot> {
    let mut table = table.lock();
    let by_kernel = table.entry(set).or_default();
    match by_kernel.get(kernel.as_ref()) {
        Some(slot) => Arc::clone(slot),
        None => Arc::clone(by_kernel.entry(Arc::clone(kernel)).or_default()),
    }
}

/// The cost `(kernel, set)` has in `table`, if it was ever sampled.
fn cost_in(table: &CostTable, kernel: &str, set: u64) -> Option<KernelCost> {
    let table = table.lock();
    let cost = *table.get(&set)?.get(kernel)?.lock();
    cost
}

/// Folds one per-element cost sample into a slot (EWMA; snaps on a
/// sustained phase change, clamps lone outliers — see
/// [`FEEDBACK_SNAP_STREAK`]).
fn fold_sample(slot: &CostSlot, sample: f64) {
    let mut slot = slot.lock();
    let Some(c) = slot.as_mut() else {
        *slot = Some(KernelCost {
            ewma_ns_per_elem: sample,
            samples: 1,
            streak: 0,
        });
        return;
    };
    let (lo, hi) = (
        c.ewma_ns_per_elem / FEEDBACK_SNAP_FACTOR,
        c.ewma_ns_per_elem * FEEDBACK_SNAP_FACTOR,
    );
    c.streak = match (sample > hi, sample < lo) {
        (true, _) => c.streak.max(0) + 1,
        (_, true) => c.streak.min(0) - 1,
        _ => 0,
    };
    if c.streak.abs() >= FEEDBACK_SNAP_STREAK {
        c.ewma_ns_per_elem = sample;
        c.streak = 0;
    } else {
        c.ewma_ns_per_elem += FEEDBACK_ALPHA * (sample.clamp(lo, hi) - c.ewma_ns_per_elem);
    }
    c.samples += 1;
}

/// Where the samples of one (kernel, set) go: its slot in the shared table
/// and, from a rank-tagged handle, the rank's busy time and private slot.
/// Samples recorded after the set was forgotten (or the table reset) are
/// dropped with the slot.
#[derive(Debug, Clone)]
pub struct FeedbackSlot {
    shared: Arc<CostSlot>,
    rank: Option<(Arc<RankAttribution>, Arc<CostSlot>)>,
}

impl FeedbackSlot {
    /// Folds in one measurement: `elems` elements took `elapsed_ns`.
    /// Zero-element samples are ignored (they carry no cost information);
    /// a zero-duration sample means the chunk ran below clock resolution
    /// and is floored to 1 ns — dropping it would freeze a stale expensive
    /// estimate forever and granularity could never converge downward.
    pub fn record(&self, elems: usize, elapsed_ns: u64) {
        if elems == 0 {
            return;
        }
        let elapsed_ns = elapsed_ns.max(1);
        let sample = elapsed_ns as f64 / elems as f64;
        fold_sample(&self.shared, sample);
        if let Some((attribution, slot)) = &self.rank {
            attribution.busy_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
            fold_sample(slot, sample);
        }
    }
}

impl GranularityFeedback {
    /// A fresh accumulator on the real clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh accumulator measuring through `clock` (tests inject
    /// [`Clock::fake`]).
    pub fn with_clock(clock: Clock) -> Self {
        GranularityFeedback {
            inner: Arc::new(FeedbackInner {
                clock,
                ..FeedbackInner::default()
            }),
            rank: None,
        }
    }

    /// The clock all measurements for this accumulator are taken on.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// A handle sharing this accumulator's state that attributes every
    /// sample it records to `rank` (busy time + a rank-local cost table)
    /// in addition to the shared table.
    pub fn for_rank(&self, rank: u32) -> GranularityFeedback {
        GranularityFeedback {
            inner: Arc::clone(&self.inner),
            rank: Some(rank),
        }
    }

    /// The rank this handle attributes samples to, if tagged.
    pub fn rank(&self) -> Option<u32> {
        self.rank
    }

    /// Where this handle's samples of `kernel` over set `set` go —
    /// resolved once per loop, so that recording takes no table-wide lock.
    pub fn slot(&self, kernel: &Arc<str>, set: u64) -> FeedbackSlot {
        FeedbackSlot {
            shared: slot_in(&self.inner.costs, kernel, set),
            rank: self.rank.map(|rank| {
                let attribution = Arc::clone(self.inner.ranks.lock().entry(rank).or_default());
                let slot = slot_in(&attribution.costs, kernel, set);
                (attribution, slot)
            }),
        }
    }

    /// Folds in one measurement (see [`FeedbackSlot::record`]) through a
    /// slot resolved on the spot.
    pub fn record(&self, kernel: &Arc<str>, set: u64, elems: usize, elapsed_ns: u64) {
        self.slot(kernel, set).record(elems, elapsed_ns);
    }

    /// The smoothed cost of `(kernel, set)`. A rank-tagged handle prefers
    /// its rank's private estimate (falling back to the shared table), so
    /// a slow rank resolves granularity from what *it* measured rather
    /// than the cross-rank mixture.
    pub fn cost(&self, kernel: &str, set: u64) -> Option<KernelCost> {
        let own = self.rank.and_then(|rank| {
            let ranks = self.inner.ranks.lock();
            cost_in(&ranks.get(&rank)?.costs, kernel, set)
        });
        own.or_else(|| cost_in(&self.inner.costs, kernel, set))
    }

    /// Total measured kernel nanoseconds attributed to `rank` since the
    /// last [`GranularityFeedback::reset_rank_busy`] — the per-rank
    /// imbalance signal the rebalancer compares across ranks.
    pub fn rank_busy_ns(&self, rank: u32) -> u64 {
        let ranks = self.inner.ranks.lock();
        ranks
            .get(&rank)
            .map_or(0, |a| a.busy_ns.load(Ordering::Relaxed))
    }

    /// Zeroes every rank's busy accumulator (cost tables are kept), so
    /// the next measurement window starts fresh after a rebalance.
    pub fn reset_rank_busy(&self) {
        for attribution in self.inner.ranks.lock().values() {
            attribution.busy_ns.store(0, Ordering::Relaxed);
        }
    }

    /// Forgets every measurement for set signature `set` — shared and
    /// per-rank — so estimates for a set retired by migration cannot leak
    /// into a new set that happens to collide.
    pub fn forget_set(&self, set: u64) {
        self.inner.costs.lock().remove(&set);
        for attribution in self.inner.ranks.lock().values() {
            attribution.costs.lock().remove(&set);
        }
    }

    /// Every measured (kernel, set) cost, sorted by (set, kernel) — the
    /// diagnostics view the benches report next to the
    /// [`crate::stats::counters`] snapshot.
    pub fn snapshot(&self) -> Vec<(String, u64, KernelCost)> {
        let costs = self.inner.costs.lock();
        let mut out: Vec<(String, u64, KernelCost)> = costs
            .iter()
            .flat_map(|(&set, m)| m.iter().map(move |(k, slot)| (k, set, *slot.lock())))
            .filter_map(|(k, set, cost)| Some((k.as_ref().to_owned(), set, cost?)))
            .collect();
        out.sort_by(|a, b| (a.1, a.0.as_str()).cmp(&(b.1, b.0.as_str())));
        out
    }

    /// Forgets every measurement — shared table, per-rank tables and busy
    /// accumulators (the next resolutions fall back to their probe
    /// defaults).
    pub fn reset(&self) {
        self.inner.costs.lock().clear();
        self.inner.ranks.lock().clear();
    }
}

/// Shared calibration state for [`ChunkPolicy::PersistentAuto`]. Clone the
/// handle into every loop that should share the same per-chunk duration.
#[derive(Debug, Clone)]
pub struct PersistentChunker {
    inner: Arc<PersistentState>,
}

#[derive(Debug)]
struct PersistentState {
    /// Calibrated per-chunk duration in nanoseconds; 0 = not yet calibrated.
    target_ns: AtomicU64,
    /// Target used by the calibrating (first) loop.
    initial_target_ns: u64,
    /// Measured per-element costs persisted across loops — the state the
    /// OP2 dataflow driver resolves node granularity from.
    feedback: GranularityFeedback,
}

impl PersistentChunker {
    /// Creates an uncalibrated handle with the default first-loop target.
    pub fn new() -> Self {
        Self::with_target(DEFAULT_CHUNK_TARGET)
    }

    /// Creates an uncalibrated handle; the first loop aims for `target` per
    /// chunk and locks in whatever duration it actually achieves.
    pub fn with_target(target: Duration) -> Self {
        Self::with_target_and_clock(target, Clock::real())
    }

    /// [`PersistentChunker::with_target`] measuring through `clock` —
    /// tests inject [`Clock::fake`] to drive the feedback loop
    /// deterministically.
    pub fn with_target_and_clock(target: Duration, clock: Clock) -> Self {
        PersistentChunker {
            inner: Arc::new(PersistentState {
                target_ns: AtomicU64::new(0),
                initial_target_ns: target.as_nanos().max(1) as u64,
                feedback: GranularityFeedback::with_clock(clock),
            }),
        }
    }

    /// The per-(kernel, set) cost table persisted in this handle.
    pub fn feedback(&self) -> &GranularityFeedback {
        &self.inner.feedback
    }

    /// The duration the *next* loop under this handle should aim for per
    /// chunk: the calibrated target once the first loop ran, the initial
    /// target before.
    pub fn target_ns(&self) -> u64 {
        match self.inner.target_ns.load(Ordering::Acquire) {
            0 => self.inner.initial_target_ns,
            ns => ns,
        }
    }

    /// Locks in the calibrated per-chunk duration if no loop has
    /// calibrated yet (first-loop-wins, like the paper's
    /// `persistent_auto_chunk_size`).
    pub fn calibrate_once(&self, chunk_ns: u64) {
        self.record_if_first(chunk_ns);
    }

    /// The calibrated per-chunk duration, if the first loop has run.
    pub fn calibrated_target(&self) -> Option<Duration> {
        match self.inner.target_ns.load(Ordering::Acquire) {
            0 => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    /// Forgets the calibration *and* the measured cost table; the next
    /// loop becomes the "first loop" again and later resolutions restart
    /// from their probe defaults. Useful when the workload changes phase.
    pub fn reset(&self) {
        self.inner.target_ns.store(0, Ordering::Release);
        self.inner.feedback.reset();
    }

    fn record_if_first(&self, chunk_ns: u64) {
        let _ = self.inner.target_ns.compare_exchange(
            0,
            chunk_ns.max(1),
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }
}

impl Default for PersistentChunker {
    fn default() -> Self {
        Self::new()
    }
}

/// The outcome of planning: iterations `0..prefix_done` were already
/// executed (by the timing probe); `chunks` tile `prefix_done..n` exactly.
#[derive(Debug)]
pub(crate) struct ChunkPlan {
    pub prefix_done: usize,
    pub chunks: Vec<Range<usize>>,
}

impl ChunkPolicy {
    /// Builds the chunk plan for an `n`-iteration loop on `nthreads`
    /// workers. `probe` runs real loop iterations and returns how long they
    /// took; it is invoked only by the measuring policies.
    pub(crate) fn plan(
        &self,
        n: usize,
        nthreads: usize,
        probe: &mut dyn FnMut(Range<usize>) -> Duration,
    ) -> ChunkPlan {
        let nthreads = nthreads.max(1);
        if n == 0 {
            return ChunkPlan {
                prefix_done: 0,
                chunks: Vec::new(),
            };
        }
        match self {
            ChunkPolicy::Static { size } => fixed_size_plan(0, n, (*size).max(1)),
            ChunkPolicy::NumChunks { chunks } => {
                let chunks = (*chunks).clamp(1, n);
                let size = n.div_ceil(chunks);
                fixed_size_plan(0, n, size)
            }
            ChunkPolicy::Guided { min } => {
                let min = (*min).max(1);
                let mut out = Vec::new();
                let mut start = 0usize;
                while start < n {
                    let remaining = n - start;
                    let size = (remaining / (2 * nthreads)).max(min).min(remaining);
                    out.push(start..start + size);
                    start += size;
                }
                ChunkPlan {
                    prefix_done: 0,
                    chunks: out,
                }
            }
            ChunkPolicy::Auto { target } => {
                let (prefix, per_iter_ns) = run_probe(n, probe);
                let size = size_for_target(target.as_nanos() as u64, per_iter_ns, n, nthreads);
                fixed_size_plan(prefix, n, size)
            }
            ChunkPolicy::PersistentAuto(handle) => {
                let (prefix, per_iter_ns) = run_probe(n, probe);
                let target_ns = handle.target_ns();
                let size = size_for_target(target_ns, per_iter_ns, n, nthreads);
                // First loop under this handle: lock in the duration the
                // auto chunker *aimed for* — i.e. ignore the per-loop
                // load-balance cap, which would otherwise make a small
                // first loop poison every dependent loop with tiny chunks.
                let uncapped = (target_ns / per_iter_ns).max(1).min(n as u64);
                handle.record_if_first(uncapped * per_iter_ns);
                fixed_size_plan(prefix, n, size)
            }
        }
    }

    /// True if this policy runs a timing probe before parallel execution.
    pub fn is_measuring(&self) -> bool {
        matches!(
            self,
            ChunkPolicy::Auto { .. } | ChunkPolicy::PersistentAuto(_)
        )
    }
}

/// Executes the timing probe: ~1% of iterations, at least 1, at most
/// `PROBE_MAX`, never the entire range (unless n == 1). Returns
/// (iterations consumed, smoothed per-iteration nanoseconds ≥ 1).
fn run_probe(n: usize, probe: &mut dyn FnMut(Range<usize>) -> Duration) -> (usize, u64) {
    let len = (n / PROBE_DIVISOR).clamp(1, PROBE_MAX).min(n);
    let dur = probe(0..len);
    let per_iter = (dur.as_nanos() as u64 / len as u64).max(1);
    (len, per_iter)
}

fn size_for_target(target_ns: u64, per_iter_ns: u64, n: usize, nthreads: usize) -> usize {
    let ideal = (target_ns / per_iter_ns).max(1) as usize;
    // Keep at least ~4 chunks per worker for load balance, but never force
    // chunks below 1 iteration.
    let balance_cap = n.div_ceil(4 * nthreads).max(1);
    ideal.min(balance_cap).min(n.max(1))
}

fn fixed_size_plan(prefix: usize, n: usize, size: usize) -> ChunkPlan {
    let size = size.max(1);
    let mut chunks = Vec::with_capacity((n - prefix).div_ceil(size));
    let mut start = prefix;
    while start < n {
        let end = (start + size).min(n);
        chunks.push(start..end);
        start = end;
    }
    ChunkPlan {
        prefix_done: prefix,
        chunks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_probe(_: Range<usize>) -> Duration {
        panic!("this policy must not probe")
    }

    /// The invariant every plan must satisfy: probe prefix + chunks tile
    /// 0..n exactly, in order, without gaps or overlap.
    fn assert_tiles(plan: &ChunkPlan, n: usize) {
        let mut next = plan.prefix_done;
        for c in &plan.chunks {
            assert_eq!(c.start, next, "gap or overlap at {next}");
            assert!(c.end > c.start, "empty chunk");
            next = c.end;
        }
        assert_eq!(next, n, "range not fully covered");
    }

    #[test]
    fn static_chunks_tile_exactly() {
        for n in [1usize, 7, 64, 1000, 1001] {
            for size in [1usize, 3, 64, 2000] {
                let plan = ChunkPolicy::Static { size }.plan(n, 4, &mut no_probe);
                assert_tiles(&plan, n);
                for c in &plan.chunks {
                    assert!(c.end - c.start <= size);
                }
            }
        }
    }

    #[test]
    fn num_chunks_split_is_even() {
        let plan = ChunkPolicy::NumChunks { chunks: 4 }.plan(100, 4, &mut no_probe);
        assert_tiles(&plan, 100);
        assert_eq!(plan.chunks.len(), 4);
        assert!(plan.chunks.iter().all(|c| c.len() == 25));
    }

    #[test]
    fn num_chunks_never_exceeds_n() {
        let plan = ChunkPolicy::NumChunks { chunks: 16 }.plan(5, 8, &mut no_probe);
        assert_tiles(&plan, 5);
        assert!(plan.chunks.len() <= 5);
    }

    #[test]
    fn guided_decreases_and_tiles() {
        let plan = ChunkPolicy::Guided { min: 8 }.plan(10_000, 4, &mut no_probe);
        assert_tiles(&plan, 10_000);
        let sizes: Vec<usize> = plan.chunks.iter().map(|c| c.len()).collect();
        assert!(sizes.windows(2).all(|w| w[0] >= w[1] || w[1] >= 8));
        assert!(*sizes.last().unwrap() >= 1);
    }

    #[test]
    fn auto_probes_and_sizes_to_target() {
        // Pretend every iteration costs 1µs: a 200µs target should yield
        // chunks of ~200 iterations (subject to the balance cap).
        let mut probed = Vec::new();
        let plan = ChunkPolicy::Auto {
            target: Duration::from_micros(200),
        }
        .plan(100_000, 4, &mut |r| {
            probed.push(r.clone());
            Duration::from_micros(r.len() as u64)
        });
        assert_eq!(probed.len(), 1);
        assert_tiles(&plan, 100_000);
        let first = plan.chunks.first().unwrap().len();
        assert!((100..=400).contains(&first), "chunk size {first}");
    }

    #[test]
    fn auto_never_probes_entire_range_when_large() {
        let plan = ChunkPolicy::Auto {
            target: Duration::from_micros(200),
        }
        .plan(1000, 2, &mut |r| {
            assert!(r.len() < 1000);
            Duration::from_nanos(r.len() as u64)
        });
        assert_tiles(&plan, 1000);
    }

    #[test]
    fn persistent_first_loop_calibrates() {
        let handle = PersistentChunker::new();
        assert!(handle.calibrated_target().is_none());
        let _ = ChunkPolicy::PersistentAuto(handle.clone()).plan(100_000, 4, &mut |r| {
            Duration::from_micros(r.len() as u64) // 1µs/iter
        });
        let target = handle.calibrated_target().expect("calibrated");
        assert!(target > Duration::ZERO);
    }

    #[test]
    fn persistent_dependent_loop_matches_duration_not_size() {
        let handle = PersistentChunker::with_target(Duration::from_micros(100));
        // First loop: 1µs/iter -> ~100-iteration chunks, target ≈ 100µs.
        let plan1 = ChunkPolicy::PersistentAuto(handle.clone())
            .plan(100_000, 2, &mut |r| Duration::from_micros(r.len() as u64));
        // Second loop: 4µs/iter -> chunks should be ~4x smaller so that the
        // *duration* matches (Fig 12b: same time, different sizes).
        let plan2 = ChunkPolicy::PersistentAuto(handle.clone()).plan(100_000, 2, &mut |r| {
            Duration::from_micros(4 * r.len() as u64)
        });
        let s1 = plan1.chunks.first().unwrap().len() as f64;
        let s2 = plan2.chunks.first().unwrap().len() as f64;
        let ratio = s1 / s2;
        assert!(
            (2.0..=8.0).contains(&ratio),
            "expected ~4x smaller chunks, got ratio {ratio} ({s1} vs {s2})"
        );
    }

    #[test]
    fn persistent_reset_recalibrates() {
        let handle = PersistentChunker::new();
        let _ = ChunkPolicy::PersistentAuto(handle.clone())
            .plan(10_000, 2, &mut |r| Duration::from_micros(r.len() as u64));
        assert!(handle.calibrated_target().is_some());
        handle.reset();
        assert!(handle.calibrated_target().is_none());
    }

    #[test]
    fn feedback_ewma_converges_on_uniform_cost() {
        let fb = GranularityFeedback::new();
        let k: Arc<str> = Arc::from("kern");
        assert!(fb.cost("kern", 7).is_none());
        for _ in 0..10 {
            fb.record(&k, 7, 100, 100_000); // 1µs per element
        }
        let c = fb.cost("kern", 7).expect("measured");
        assert_eq!(c.samples, 10);
        assert!((c.ewma_ns_per_elem - 1000.0).abs() < 1e-9);
        // Different set id is a different entry.
        assert!(fb.cost("kern", 8).is_none());
    }

    #[test]
    fn feedback_smooths_noise_and_snaps_on_a_sustained_phase_change() {
        let fb = GranularityFeedback::new();
        let k: Arc<str> = Arc::from("kern");
        fb.record(&k, 1, 1000, 1_000_000); // 1µs
        fb.record(&k, 1, 1000, 1_500_000); // +50% noise: smoothed
        let c = fb.cost("kern", 1).unwrap();
        assert!((c.ewma_ns_per_elem - 1125.0).abs() < 1e-9, "EWMA step");
        // >2x jumps: the first two could be outliers and are folded
        // clamped to the band edge; the third in a row is a phase change.
        fb.record(&k, 1, 1000, 8_000_000);
        fb.record(&k, 1, 1000, 8_000_000);
        let c = fb.cost("kern", 1).unwrap();
        assert!(
            c.ewma_ns_per_elem < 1125.0 * 1.25 * 1.25 + 1e-9,
            "two out-of-band samples move the estimate by at most 25% each, got {}",
            c.ewma_ns_per_elem
        );
        fb.record(&k, 1, 1000, 8_000_000);
        let c = fb.cost("kern", 1).unwrap();
        assert_eq!(c.ewma_ns_per_elem, 8000.0, "snap on phase change");
        fb.reset();
        assert!(fb.cost("kern", 1).is_none());
    }

    /// One pre-empted node (100x) among steady samples must not decide the
    /// estimate, whichever side it falls on and however often it recurs,
    /// as long as in-band samples separate the outliers.
    #[test]
    fn feedback_bounds_the_weight_of_lone_outliers() {
        let fb = GranularityFeedback::new();
        let k: Arc<str> = Arc::from("kern");
        for round in 0..20 {
            fb.record(&k, 1, 1000, 1_000_000);
            fb.record(&k, 1, 1000, 1_000_000);
            // Alternate a 100x-slow and a 100x-fast outlier.
            let outlier = if round % 2 == 0 { 100_000_000 } else { 10_000 };
            fb.record(&k, 1, 1000, outlier);
            let e = fb.cost("kern", 1).unwrap().ewma_ns_per_elem;
            assert!(
                (850.0..=1300.0).contains(&e),
                "round {round}: a lone outlier moved the estimate to {e}"
            );
        }
    }

    #[test]
    fn feedback_ignores_empty_samples_and_shares_clones() {
        let fb = GranularityFeedback::with_clock(Clock::fake());
        assert!(fb.clock().is_fake());
        let k: Arc<str> = Arc::from("k");
        fb.record(&k, 3, 0, 100);
        assert!(fb.cost("k", 3).is_none(), "zero elements carry no cost");
        let clone = fb.clone();
        clone.record(&k, 3, 10, 10_000);
        assert_eq!(fb.cost("k", 3).unwrap().samples, 1, "clones share state");
        assert_eq!(fb.snapshot().len(), 1);
    }

    /// A loop resolves its slot once and its nodes record through it: the
    /// same samples land in the same tables as through `record`, a slot
    /// nobody sampled is invisible, and a slot whose set was forgotten
    /// takes its late samples with it.
    #[test]
    fn a_resolved_slot_records_what_record_would() {
        let fb = GranularityFeedback::with_clock(Clock::fake());
        let k: Arc<str> = Arc::from("kern");
        let rank = fb.for_rank(1);
        let slot = rank.slot(&k, 7);
        assert!(fb.cost("kern", 7).is_none() && fb.snapshot().is_empty());
        slot.record(100, 10_000);
        slot.clone().record(100, 10_000);
        rank.record(&k, 7, 100, 10_000);
        assert_eq!(fb.cost("kern", 7).unwrap().samples, 3);
        assert_eq!(rank.cost("kern", 7).unwrap().ewma_ns_per_elem, 100.0);
        assert_eq!(fb.rank_busy_ns(1), 30_000);
        assert_eq!(fb.snapshot().len(), 1);

        fb.forget_set(7);
        slot.record(100, 90_000);
        assert!(fb.cost("kern", 7).is_none() && rank.cost("kern", 7).is_none());
        assert_eq!(
            fb.rank_busy_ns(1),
            120_000,
            "busy time is the rank's, not the set's"
        );
        rank.record(&k, 7, 100, 50_000);
        assert_eq!(fb.cost("kern", 7).unwrap().ewma_ns_per_elem, 500.0);
    }

    /// Regression for the stale-estimate bug: a kernel whose cost collapses
    /// below clock resolution (elapsed_ns == 0 on a coarse fake clock) used
    /// to have its samples silently dropped, freezing the old expensive
    /// EWMA forever. The sample is now floored at 1 ns, so a run of them
    /// snaps the estimate down and granularity can converge.
    #[test]
    fn feedback_sub_resolution_samples_pull_the_estimate_down() {
        let fb = GranularityFeedback::with_clock(Clock::fake());
        let k: Arc<str> = Arc::from("kern");
        // Phase 1: an expensive kernel, 1µs per element.
        fb.record(&k, 9, 1000, 1_000_000);
        assert_eq!(fb.cost("kern", 9).unwrap().ewma_ns_per_elem, 1000.0);
        // Phase 2: the kernel becomes so cheap the whole chunk measures
        // 0 ns. Pre-fix this returned early and the estimate stayed 1000.
        for _ in 0..FEEDBACK_SNAP_STREAK {
            fb.record(&k, 9, 1000, 0);
        }
        let c = fb.cost("kern", 9).expect("samples were not dropped");
        assert_eq!(c.samples, 4, "sub-resolution samples must be folded in");
        assert!(
            c.ewma_ns_per_elem < 1.0,
            "estimate must snap down toward the 1 ns floor, got {}",
            c.ewma_ns_per_elem
        );
    }

    #[test]
    fn rank_tagged_handles_attribute_busy_time_and_costs() {
        let fb = GranularityFeedback::with_clock(Clock::fake());
        let k: Arc<str> = Arc::from("kern");
        let r0 = fb.for_rank(0);
        let r1 = fb.for_rank(1);
        assert_eq!(r0.rank(), Some(0));
        assert_eq!(fb.rank(), None);

        // Rank 0 is fast (100 ns/elem), rank 1 slow (900 ns/elem).
        r0.record(&k, 5, 100, 10_000);
        r1.record(&k, 5, 100, 90_000);

        // Busy time is attributed per rank — the imbalance signal.
        assert_eq!(fb.rank_busy_ns(0), 10_000);
        assert_eq!(fb.rank_busy_ns(1), 90_000);
        assert_eq!(fb.rank_busy_ns(2), 0, "unmeasured rank is zero");

        // Each rank's cost view is its own measurement, not the mixture;
        // the untagged view sees the shared (mixed) table.
        assert_eq!(r0.cost("kern", 5).unwrap().ewma_ns_per_elem, 100.0);
        assert_eq!(r1.cost("kern", 5).unwrap().ewma_ns_per_elem, 900.0);
        let mixed = fb.cost("kern", 5).unwrap();
        assert_eq!(mixed.samples, 2, "shared table still folds every sample");

        // A tagged rank with no private entry falls back to the shared one.
        let r2 = fb.for_rank(2);
        assert_eq!(r2.cost("kern", 5).unwrap(), mixed);

        // reset_rank_busy zeroes the window but keeps the cost tables.
        fb.reset_rank_busy();
        assert_eq!(fb.rank_busy_ns(1), 0);
        assert_eq!(r1.cost("kern", 5).unwrap().ewma_ns_per_elem, 900.0);

        // forget_set drops the signature everywhere.
        fb.forget_set(5);
        assert!(fb.cost("kern", 5).is_none());
        assert!(r1.cost("kern", 5).is_none());
    }

    #[test]
    fn persistent_chunker_persists_feedback_and_target() {
        let h = PersistentChunker::with_target(Duration::from_micros(100));
        assert_eq!(h.target_ns(), 100_000, "initial target before calibration");
        h.calibrate_once(250_000);
        assert_eq!(h.target_ns(), 250_000);
        h.calibrate_once(999); // first-loop-wins: ignored
        assert_eq!(h.target_ns(), 250_000);
        let k: Arc<str> = Arc::from("adt");
        h.feedback().record(&k, 3, 10, 20_000);
        // A clone (e.g. the same handle installed in another rank's config)
        // sees the same cost table.
        assert_eq!(
            h.clone()
                .feedback()
                .cost("adt", 3)
                .unwrap()
                .ewma_ns_per_elem,
            2000.0
        );
        h.reset();
        assert_eq!(h.target_ns(), 100_000, "reset forgets the calibration");
        assert!(
            h.feedback().cost("adt", 3).is_none(),
            "reset forgets the measured costs too"
        );
    }

    #[test]
    fn empty_range_yields_no_chunks() {
        let plan = ChunkPolicy::default().plan(0, 4, &mut no_probe);
        assert!(plan.chunks.is_empty());
        assert_eq!(plan.prefix_done, 0);
    }

    #[test]
    fn single_iteration_range() {
        let plan = ChunkPolicy::Auto {
            target: DEFAULT_CHUNK_TARGET,
        }
        .plan(1, 8, &mut |r| {
            assert_eq!(r, 0..1);
            Duration::from_nanos(10)
        });
        // Probe consumed the whole range.
        assert_eq!(plan.prefix_done, 1);
        assert!(plan.chunks.is_empty());
    }
}
