//! Execution configuration: which backend runs the loops and how work is
//! divided.

use hpx_rt::timing::Clock;
use hpx_rt::{ChunkPolicy, GranularityFeedback, PersistentChunker};

use crate::dat::Layout;
use crate::driver::SpecShare;

/// The three execution strategies compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Reference sequential execution (validation baseline).
    Seq,
    /// The `#pragma omp parallel for` equivalent: synchronous parallel
    /// loops with an implicit **global barrier** after every loop and
    /// after every color round (paper §II-B, Fig 4).
    ForkJoin,
    /// The paper's contribution: every loop is a dataflow node over future
    /// arguments; loops interleave according to the data-dependency graph
    /// with no global barriers (paper §IV, Figs 8-11).
    Dataflow,
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Seq => "seq",
            Backend::ForkJoin => "fork-join",
            Backend::Dataflow => "dataflow",
        })
    }
}

/// OP2's default mini-partition block size.
pub const DEFAULT_BLOCK_SIZE: usize = 256;

/// Configuration of an [`Op2`](crate::Op2) context.
#[derive(Debug, Clone)]
pub struct Op2Config {
    /// Threads that compute, **counting the one that calls into the
    /// world**: the pool runs `threads - 1` background workers and the
    /// calling thread is the `threads`-th whenever it blocks on the world
    /// (a fork-join loop's join, a window wait, [`Op2::fence`](crate::Op2::fence));
    /// see `hpx_rt::Runtime`. `1` is one background worker and a caller
    /// that only submits.
    pub threads: usize,
    /// Loop execution strategy.
    pub backend: Backend,
    /// Mini-partition block size: the granularity of every dat's
    /// dependency (epoch) table, and the *conservative probe default* a
    /// measuring chunk policy schedules a Dataflow loop at until feedback
    /// for that (kernel, set) exists.
    pub block_size: usize,
    /// Chunking strategy for the ForkJoin backend's parallel-for phases —
    /// and the node granularity of every Dataflow loop. The probe-free
    /// uniform policies ([`ChunkPolicy::Static`], [`ChunkPolicy::NumChunks`])
    /// set it directly; the measuring policies ([`ChunkPolicy::Auto`],
    /// [`ChunkPolicy::PersistentAuto`]) and [`ChunkPolicy::Guided`] resolve
    /// it from *measured feedback* — executed nodes record their per-element
    /// cost into a [`hpx_rt::GranularityFeedback`] accumulator, and the next
    /// submission of the same (kernel, set) sizes its nodes to hit the
    /// policy's target duration (first submission probes at
    /// [`Op2Config::block_size`]). See `README.md` § Adaptive chunking.
    pub chunk: ChunkPolicy,
    /// Prefetch distance factor (cache lines of look-ahead, paper §V);
    /// `None` disables the prefetching iterator.
    pub prefetch_distance: Option<usize>,
    /// Default physical layout of dats declared through
    /// [`Op2::decl_dat`](crate::Op2::decl_dat) /
    /// [`Op2::decl_dat_halo`](crate::Op2::decl_dat_halo). Per-dat
    /// overrides: `decl_dat_layout` / `decl_dat_halo_layout`.
    pub layout: Layout,
    /// Clock the granularity feedback measures through. [`Clock::real`] in
    /// production; tests inject [`Clock::fake`] to drive adaptive-chunking
    /// convergence deterministically. A
    /// [`ChunkPolicy::PersistentAuto`] chunker carries its own clock and
    /// ignores this one.
    pub clock: Clock,
    /// Loop-spec cache this world resolves schedules through. `None` (the
    /// default) gives the world a private cache; a [`SpecShare`] handle
    /// cloned into several configs makes those worlds share warm schedules
    /// — cache keys are content signatures, so same-shaped meshes hit
    /// across worlds (see [`crate::farm`]).
    pub shared_specs: Option<SpecShare>,
    /// Measured-cost table adaptive granularity resolves from. `None` (the
    /// default) follows the chunk policy: a
    /// [`ChunkPolicy::PersistentAuto`] chunker's own table, else a private
    /// accumulator on [`Op2Config::clock`]. An explicit handle overrides
    /// both — the farm installs one table for every tenant world, so a
    /// tenant's first loop resolves granularity from costs its neighbours
    /// already measured.
    pub shared_feedback: Option<GranularityFeedback>,
    /// Rank this world's feedback handle attributes measurements to.
    /// `None` (the default) leaves the handle untagged; the locality layer
    /// tags each rank world so measured kernel time accumulates per rank —
    /// the imbalance signal live repartitioning reads
    /// ([`hpx_rt::GranularityFeedback::rank_busy_ns`]).
    pub feedback_rank: Option<u32>,
}

impl Op2Config {
    /// Sequential reference configuration.
    pub fn seq() -> Self {
        Op2Config {
            threads: 1,
            backend: Backend::Seq,
            block_size: DEFAULT_BLOCK_SIZE,
            chunk: ChunkPolicy::NumChunks { chunks: 1 },
            prefetch_distance: None,
            layout: Layout::AoS,
            clock: Clock::real(),
            shared_specs: None,
            shared_feedback: None,
            feedback_rank: None,
        }
    }

    /// OpenMP-equivalent baseline: static schedule (one chunk per thread),
    /// global barrier per loop.
    pub fn fork_join(threads: usize) -> Self {
        Op2Config {
            threads,
            backend: Backend::ForkJoin,
            block_size: DEFAULT_BLOCK_SIZE,
            chunk: ChunkPolicy::NumChunks {
                chunks: threads.max(1),
            },
            prefetch_distance: None,
            layout: Layout::AoS,
            clock: Clock::real(),
            shared_specs: None,
            shared_feedback: None,
            feedback_rank: None,
        }
    }

    /// The paper's asynchronous configuration, at block granularity: one
    /// dataflow node per `block_size` mini-partition block, wired through
    /// the dats' access records.
    pub fn dataflow(threads: usize) -> Self {
        Op2Config {
            threads,
            backend: Backend::Dataflow,
            block_size: DEFAULT_BLOCK_SIZE,
            chunk: ChunkPolicy::default(),
            prefetch_distance: None,
            layout: Layout::AoS,
            clock: Clock::real(),
            shared_specs: None,
            shared_feedback: None,
            feedback_rank: None,
        }
    }

    /// Dataflow with the paper's `persistent_auto_chunk_size` policy
    /// (§IV-B) installed as the chunk policy, sharing `chunker`'s
    /// calibrated target and measured cost table. On the Dataflow backend
    /// node granularity is *feedback-resolved*: each executed node records
    /// its per-element cost into the chunker's
    /// [`hpx_rt::GranularityFeedback`], and later submissions of the same
    /// (kernel, set) size their nodes so every node takes about the
    /// chunker's target duration — different kernels get different node
    /// sizes but equal node times, exactly the paper's Fig 12b behaviour.
    /// Clone one handle into several configs (ranks, phases) to share the
    /// calibration.
    pub fn dataflow_persistent(threads: usize, chunker: PersistentChunker) -> Self {
        let clock = chunker.feedback().clock().clone();
        Op2Config {
            threads,
            backend: Backend::Dataflow,
            block_size: DEFAULT_BLOCK_SIZE,
            chunk: ChunkPolicy::PersistentAuto(chunker),
            prefetch_distance: None,
            layout: Layout::AoS,
            clock,
            shared_specs: None,
            shared_feedback: None,
            feedback_rank: None,
        }
    }

    /// The paper's headline configuration: Dataflow backend with
    /// `persistent_auto_chunk_size` — and, since the feedback-driven
    /// granularity engine, it means the *same thing on both backends*:
    /// measured, duration-targeted chunk sizes, whether the chunks are
    /// ForkJoin parallel-for chunks (sized by a synchronous probe) or
    /// Dataflow nodes (sized from the feedback of previous executions).
    pub fn persistent_auto(threads: usize) -> Self {
        Self::dataflow_persistent(threads, PersistentChunker::new())
    }

    /// Overrides the block size.
    #[must_use]
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size.max(1);
        self
    }

    /// Overrides the chunking strategy.
    #[must_use]
    pub fn with_chunk(mut self, chunk: ChunkPolicy) -> Self {
        self.chunk = chunk;
        self
    }

    /// Enables the prefetching iterator with the given distance factor
    /// (the paper finds 15 optimal for Airfoil).
    #[must_use]
    pub fn with_prefetch(mut self, distance_factor: usize) -> Self {
        self.prefetch_distance = Some(distance_factor);
        self
    }

    /// Disables prefetching.
    #[must_use]
    pub fn without_prefetch(mut self) -> Self {
        self.prefetch_distance = None;
        self
    }

    /// Sets the default physical layout of declared dats (the AoS/SoA
    /// policy; see [`Layout`]).
    #[must_use]
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// Overrides the feedback clock — tests install [`Clock::fake`] to
    /// drive adaptive-granularity convergence deterministically. (A
    /// `PersistentAuto` chunker measures through its own clock instead;
    /// build it with [`PersistentChunker::with_target_and_clock`].)
    #[must_use]
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Resolves loop schedules through `specs` instead of a private cache.
    /// Clone one [`SpecShare`] into several configs and the worlds built
    /// from them share warm schedules (content-signature keys — see
    /// [`Op2Config::shared_specs`]).
    #[must_use]
    pub fn with_shared_specs(mut self, specs: SpecShare) -> Self {
        self.shared_specs = Some(specs);
        self
    }

    /// Resolves adaptive granularity from `feedback` instead of the chunk
    /// policy's own table (see [`Op2Config::shared_feedback`]).
    #[must_use]
    pub fn with_shared_feedback(mut self, feedback: GranularityFeedback) -> Self {
        self.shared_feedback = Some(feedback);
        self
    }
}

impl Default for Op2Config {
    fn default() -> Self {
        Op2Config::dataflow(std::thread::available_parallelism().map_or(2, |n| n.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_join_uses_static_schedule() {
        let c = Op2Config::fork_join(8);
        assert_eq!(c.backend, Backend::ForkJoin);
        match c.chunk {
            ChunkPolicy::NumChunks { chunks } => assert_eq!(chunks, 8),
            _ => panic!("expected static split"),
        }
    }

    #[test]
    fn builders_compose() {
        let c = Op2Config::dataflow(4)
            .with_block_size(128)
            .with_prefetch(15);
        assert_eq!(c.block_size, 128);
        assert_eq!(c.prefetch_distance, Some(15));
        assert_eq!(c.without_prefetch().prefetch_distance, None);
    }

    #[test]
    fn persistent_auto_is_dataflow_with_persistent_chunker() {
        let c = Op2Config::persistent_auto(3);
        assert_eq!(c.backend, Backend::Dataflow);
        assert!(matches!(c.chunk, ChunkPolicy::PersistentAuto(_)));
        assert!(!c.clock.is_fake());
    }

    #[test]
    fn persistent_config_inherits_the_chunker_clock() {
        use std::time::Duration;
        let h = PersistentChunker::with_target_and_clock(Duration::from_micros(50), Clock::fake());
        let c = Op2Config::dataflow_persistent(2, h);
        assert!(c.clock.is_fake(), "config clock follows the chunker");
    }

    #[test]
    fn layout_defaults_to_aos_and_composes() {
        assert_eq!(Op2Config::dataflow(2).layout, Layout::AoS);
        let c = Op2Config::seq().with_layout(Layout::SoA);
        assert_eq!(c.layout, Layout::SoA);
    }

    #[test]
    fn backend_names() {
        assert_eq!(Backend::ForkJoin.to_string(), "fork-join");
        assert_eq!(Backend::Dataflow.to_string(), "dataflow");
    }
}
