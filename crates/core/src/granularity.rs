//! Chunk length, decided once for both parallel backends: the
//! measured-cost table and the one rule that sizes chunks from it (paper
//! §IV-B, Fig 12b).
//!
//! [`ChunkPolicy::Static`] and [`ChunkPolicy::NumChunks`] fix the length.
//! [`ChunkPolicy::Auto`] is the paper's `persistent_auto_chunk_size`: it
//! gives the chunks of dependent loops the same *duration*, so loops of
//! different per-element cost get different chunk *sizes* (Fig 12b) and
//! wait on each other as little as possible. A Dataflow graph is built
//! before anything in it runs, so nothing can be timed up front: instead
//! every run of a loop folds its per-element cost into the world's
//! [`GranularityFeedback`] table, keyed by (kernel, set signature) — each
//! Dataflow node its own, a fork-join loop its whole — and the next run of
//! that loop sizes its chunks to last `target`: one target for every loop,
//! one size per loop. Every world owns one table; the ranks of a
//! [`LocalityGroup`](crate::locality::LocalityGroup) each measure their own.
//!
//! All timing is taken on the world's [`crate::Op2Config::clock`], so tests
//! inject `Clock::fake` and drive convergence deterministically.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::config::{ChunkPolicy, Op2Config};
use crate::world::Op2;

// ---------------------------------------------------------------------------
// Measured per-element cost
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

/// Measured-cost table behind [`ChunkPolicy::Auto`]: per (kernel name,
/// set signature), an EWMA of the per-element execution cost reported by
/// executed loops and nodes (see the module docs) — plus the world's
/// busy time, the sum of every sample's nanoseconds, which is the
/// imbalance signal the rebalancer compares across ranks.
///
/// A loop resolves its slot once, at submission, and its nodes fold their
/// samples into that slot alone: the table-wide lock is taken per loop,
/// not per node, and never by a worker.
///
/// Cloning is cheap and shares the underlying state.
#[derive(Debug, Clone, Default)]
pub struct GranularityFeedback {
    inner: Arc<FeedbackInner>,
}

/// One (kernel, set)'s smoothed cost; `None` until its first sample.
type CostSlot = Mutex<Option<KernelCost>>;

/// set id -> kernel name -> cost slot.
type CostTable = Mutex<HashMap<u64, HashMap<Arc<str>, Arc<CostSlot>>>>;

#[derive(Debug, Default)]
struct FeedbackInner {
    costs: CostTable,
    /// Measured kernel nanoseconds since the last
    /// [`GranularityFeedback::reset_busy`].
    busy_ns: AtomicU64,
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

/// Where the samples of one (kernel, set) go: its slot in the table and
/// the table's busy time. Samples recorded after the set was forgotten
/// count as busy time but their costs are dropped with the slot.
#[derive(Debug, Clone)]
pub(crate) struct FeedbackSlot {
    cost: Arc<CostSlot>,
    inner: Arc<FeedbackInner>,
}

impl FeedbackSlot {
    /// Folds in one measurement: `elems` elements took `elapsed_ns`.
    /// Zero-element samples are ignored (they carry no cost information);
    /// a zero-duration sample means the chunk ran below clock resolution
    /// and is floored to 1 ns — dropping it would freeze a stale expensive
    /// estimate forever and granularity could never converge downward.
    pub(crate) fn record(&self, elems: usize, elapsed_ns: u64) {
        if elems == 0 {
            return;
        }
        let elapsed_ns = elapsed_ns.max(1);
        fold_sample(&self.cost, elapsed_ns as f64 / elems as f64);
        self.inner.busy_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
    }
}

impl GranularityFeedback {
    /// A fresh, empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where samples of `kernel` over set `set` go — resolved once per
    /// loop, so that recording takes no table-wide lock.
    pub(crate) fn slot(&self, kernel: &Arc<str>, set: u64) -> FeedbackSlot {
        let mut costs = self.inner.costs.lock();
        let by_kernel = costs.entry(set).or_default();
        let cost = match by_kernel.get(kernel.as_ref()) {
            Some(slot) => Arc::clone(slot),
            None => Arc::clone(by_kernel.entry(Arc::clone(kernel)).or_default()),
        };
        FeedbackSlot {
            cost,
            inner: Arc::clone(&self.inner),
        }
    }

    /// Folds in one measurement (`elems` elements took `elapsed_ns`)
    /// through a slot resolved on the spot.
    pub fn record(&self, kernel: &Arc<str>, set: u64, elems: usize, elapsed_ns: u64) {
        self.slot(kernel, set).record(elems, elapsed_ns);
    }

    /// The smoothed cost of `(kernel, set)`, if it was ever sampled.
    pub fn cost(&self, kernel: &str, set: u64) -> Option<KernelCost> {
        let costs = self.inner.costs.lock();
        let cost = *costs.get(&set)?.get(kernel)?.lock();
        cost
    }

    /// Measured kernel nanoseconds since the last
    /// [`GranularityFeedback::reset_busy`] — on a rank world, the
    /// per-rank imbalance signal the rebalancer compares across ranks.
    pub fn busy_ns(&self) -> u64 {
        self.inner.busy_ns.load(Ordering::Relaxed)
    }

    /// Zeroes the busy time (costs are kept), so the next measurement
    /// window starts fresh after a rebalance.
    pub fn reset_busy(&self) {
        self.inner.busy_ns.store(0, Ordering::Relaxed);
    }

    /// Forgets every measured cost for set signature `set` (busy time is
    /// kept), so estimates for a set retired by migration cannot leak into
    /// a new set that happens to collide.
    pub fn forget_set(&self, set: u64) {
        self.inner.costs.lock().remove(&set);
    }

    /// Every measured (kernel, set) cost, sorted by (set, kernel) — the
    /// diagnostics view the benches report next to the
    /// [`hpx_rt::stats::counters`] snapshot.
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
}

// ---------------------------------------------------------------------------
// Sizing chunks
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
/// --cells 4000` (ROADMAP item 1): 11-15 us alike, 8 and 20 us slightly
/// behind, 40 us no better than none.
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
/// elements, and clamped to `[1, n]`. `in_use` is the granularity the
/// loop last ran at, if any.
fn feedback_block_size(
    target_ns: u64,
    per_elem_ns: f64,
    n: usize,
    threads: usize,
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
        .max(1)
        .min(n.max(1))
}

/// The chunk length `Static` and `NumChunks` set for a range of `n` items
/// (elements, or the blocks of a colour round); `None` under `Auto`, whose
/// length comes from measured cost.
fn fixed_len(chunk: &ChunkPolicy, n: usize) -> Option<usize> {
    match *chunk {
        ChunkPolicy::Static { size } => Some(size.max(1)),
        ChunkPolicy::NumChunks { chunks } => Some(n.div_ceil(chunks.clamp(1, n.max(1))).max(1)),
        ChunkPolicy::Auto { .. } => None,
    }
}

/// Resolves the configured chunk policy to the uniform chunk length, in
/// elements, that a loop of `n` elements over `(kernel, set_sig)` runs at
/// *right now*, on either parallel backend:
///
/// * [`ChunkPolicy::Static`] / [`ChunkPolicy::NumChunks`] — set directly;
/// * [`ChunkPolicy::Auto`] — from the world's [`GranularityFeedback`]
///   (module docs); the first run, with nothing measured yet, uses the
///   mini-partition `block_size`.
///
/// A Dataflow loop's nodes are chunks of this length, colored loops
/// included (it is their coloring block size, and the plan cache keys on
/// it); a fork-join colour round converts it with [`round_chunk_len`].
/// `in_use` is the granularity the loop's cached schedule was built at.
pub(crate) fn resolve_granularity(
    world: &Op2,
    kernel: &str,
    set_sig: u64,
    n: usize,
    in_use: Option<usize>,
) -> usize {
    let cfg = world.config();
    let ChunkPolicy::Auto { target } = cfg.chunk else {
        return fixed_len(&cfg.chunk, n).expect("only Auto is measured");
    };
    match world.granularity_feedback().cost(kernel, set_sig) {
        Some(c) => feedback_block_size(
            target.as_nanos() as u64,
            c.ewma_ns_per_elem,
            n,
            cfg.threads,
            in_use,
        ),
        None => cfg.block_size.max(1),
    }
}

/// The chunk length, in blocks, of a fork-join colour round of `blocks`
/// blocks, in a loop [`resolve_granularity`] resolved to `len` elements:
/// `Static` and `NumChunks` count the round's blocks as a direct loop
/// counts its elements, and `Auto` takes `len` in whole blocks.
pub(crate) fn round_chunk_len(cfg: &Op2Config, len: usize, blocks: usize) -> usize {
    fixed_len(&cfg.chunk, blocks).unwrap_or((len / cfg.block_size.max(1)).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let fb = GranularityFeedback::new();
        let k: Arc<str> = Arc::from("k");
        fb.record(&k, 3, 0, 100);
        assert!(fb.cost("k", 3).is_none(), "zero elements carry no cost");
        let clone = fb.clone();
        clone.record(&k, 3, 10, 10_000);
        assert_eq!(fb.cost("k", 3).unwrap().samples, 1, "clones share state");
        assert_eq!(fb.snapshot().len(), 1);
    }

    /// A loop resolves its slot once and its nodes record through it: a
    /// sample lands in the cost table and in busy time, a slot nobody
    /// sampled is invisible, `reset_busy` keeps the costs, and
    /// `forget_set` drops the costs (late samples through the old slot
    /// with them) but not the busy time.
    #[test]
    fn a_sample_lands_in_the_cost_table_and_in_busy_time() {
        let fb = GranularityFeedback::new();
        let k: Arc<str> = Arc::from("kern");
        let slot = fb.slot(&k, 7);
        assert!(fb.cost("kern", 7).is_none() && fb.snapshot().is_empty());
        assert_eq!(fb.busy_ns(), 0);
        slot.record(100, 10_000);
        slot.clone().record(100, 10_000);
        fb.record(&k, 7, 100, 10_000);
        let c = fb.cost("kern", 7).unwrap();
        assert_eq!((c.samples, c.ewma_ns_per_elem), (3, 100.0));
        assert_eq!(fb.busy_ns(), 30_000);
        assert_eq!(fb.snapshot().len(), 1);

        fb.reset_busy();
        assert_eq!(fb.busy_ns(), 0);
        assert_eq!(fb.cost("kern", 7), Some(c), "reset_busy keeps costs");

        fb.forget_set(7);
        slot.record(100, 90_000);
        assert!(fb.cost("kern", 7).is_none() && fb.snapshot().is_empty());
        assert_eq!(
            fb.busy_ns(),
            90_000,
            "busy time is the world's, not the set's"
        );
        fb.record(&k, 7, 100, 50_000);
        assert_eq!(fb.cost("kern", 7).unwrap().ewma_ns_per_elem, 500.0);
    }

    /// Regression for the stale-estimate bug: a kernel whose cost collapses
    /// below clock resolution (elapsed_ns == 0 on a coarse fake clock) used
    /// to have its samples silently dropped, freezing the old expensive
    /// EWMA forever. The sample is now floored at 1 ns, so a run of them
    /// snaps the estimate down and granularity can converge.
    #[test]
    fn feedback_sub_resolution_samples_pull_the_estimate_down() {
        let fb = GranularityFeedback::new();
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

    /// The chunks a loop of `n` elements runs under `chunk` on a world
    /// that has measured nothing: `0..n` cut at the resolved length, as
    /// `hpx_rt::for_each_chunk` cuts it.
    fn plan(chunk: ChunkPolicy, n: usize) -> Vec<std::ops::Range<usize>> {
        let world = Op2::new(Op2Config::seq().with_chunk(chunk));
        let len = resolve_granularity(&world, "k", 0, n, None);
        (0..n.div_ceil(len))
            .map(|i| i * len..((i + 1) * len).min(n))
            .collect()
    }

    /// The invariant every plan must satisfy: the chunks tile 0..n
    /// exactly, in order, without gaps or overlap.
    fn assert_tiles(chunks: &[std::ops::Range<usize>], n: usize) {
        let mut next = 0;
        for c in chunks {
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
                let chunks = plan(ChunkPolicy::Static { size }, n);
                assert_tiles(&chunks, n);
                for c in &chunks {
                    assert!(c.end - c.start <= size);
                }
            }
        }
    }

    #[test]
    fn num_chunks_split_is_even() {
        let chunks = plan(ChunkPolicy::NumChunks { chunks: 4 }, 100);
        assert_tiles(&chunks, 100);
        assert_eq!(chunks.len(), 4);
        assert!(chunks.iter().all(|c| c.len() == 25));
    }

    #[test]
    fn num_chunks_never_exceeds_n() {
        let chunks = plan(ChunkPolicy::NumChunks { chunks: 16 }, 5);
        assert_tiles(&chunks, 5);
        assert!(chunks.len() <= 5);
    }

    #[test]
    fn empty_range_yields_no_chunks() {
        assert!(plan(ChunkPolicy::default(), 0).is_empty());
    }

    #[test]
    fn single_iteration_range() {
        for chunk in [
            ChunkPolicy::Static { size: 64 },
            ChunkPolicy::NumChunks { chunks: 8 },
            ChunkPolicy::default(),
        ] {
            assert_eq!(plan(chunk, 1), vec![0..1]);
        }
    }

    /// A fork-join colour round chunks its block list: the fixed policies
    /// count blocks, `Auto` takes its resolved length in whole blocks.
    #[test]
    fn colour_rounds_chunk_whole_blocks() {
        let cfg = |chunk| Op2Config::fork_join(2).with_chunk(chunk);
        assert_eq!(
            round_chunk_len(&cfg(ChunkPolicy::Static { size: 3 }), 4096, 10),
            3
        );
        let numchunks = cfg(ChunkPolicy::NumChunks { chunks: 4 });
        assert_eq!(round_chunk_len(&numchunks, 4096, 10), 3);
        let auto = cfg(ChunkPolicy::default());
        assert_eq!(round_chunk_len(&auto, 4096, 10), 16);
        assert_eq!(round_chunk_len(&auto, 100, 10), 1);
    }

    const TARGET_NS: u64 = crate::config::DEFAULT_CHUNK_TARGET.as_nanos() as u64;

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
        assert_eq!(feedback_block_size(TARGET_NS, 20.0, 270, 2, None), 270);
    }

    #[test]
    fn the_floor_leaves_a_mid_sized_loop_a_few_nodes() {
        // 4050 cells at 11 ns are 45 us: not one node, not the cap's eight.
        let size = feedback_block_size(TARGET_NS, 11.0, 4050, 2, None);
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
                            let now = feedback_block_size(target_ns, cost, n, threads, in_use);
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
        let resolve = |cost, in_use| feedback_block_size(TARGET_NS, cost, 4050, 2, in_use);
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
