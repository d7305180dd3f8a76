//! Execution configuration: which backend runs the loops and how work is
//! divided.

use std::time::Duration;

use hpx_rt::timing::Clock;

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

/// Default per-chunk duration target of [`ChunkPolicy::Auto`].
pub const DEFAULT_CHUNK_TARGET: Duration = Duration::from_micros(200);

/// How a parallel loop is cut into chunks (paper §IV-B, Fig 12): the
/// length of a fork-join loop's chunks and of a Dataflow loop's nodes.
/// `crate::granularity` resolves it, for both backends.
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
    /// Size chunks to take ~`target` each from the per-element cost that
    /// earlier runs of the same loop measured: HPX's
    /// `persistent_auto_chunk_size` (Fig 12b).
    Auto {
        /// Per-chunk execution-time target.
        target: Duration,
    },
}

impl Default for ChunkPolicy {
    fn default() -> Self {
        ChunkPolicy::Auto {
            target: DEFAULT_CHUNK_TARGET,
        }
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
    /// dependency table, of the colouring plans, and the chunk length
    /// [`ChunkPolicy::Auto`] runs a loop at until that (kernel, set) has
    /// been measured.
    pub block_size: usize,
    /// Chunking strategy: the chunk length of the ForkJoin backend's
    /// parallel-for phases and the node granularity of every Dataflow
    /// loop, resolved the same way on both. [`ChunkPolicy::Static`] and
    /// [`ChunkPolicy::NumChunks`] set it directly (a colour round counts
    /// its blocks); [`ChunkPolicy::Auto`] resolves it from *measured
    /// feedback* — each run of a loop records its per-element cost into
    /// the world's [`GranularityFeedback`](crate::GranularityFeedback)
    /// table (every Dataflow node, or a fork-join loop as a whole), and
    /// the next run of the same (kernel, set) sizes its chunks to hit the
    /// target duration (a fork-join colour round in whole blocks; the
    /// first run uses [`Op2Config::block_size`]). See `README.md`
    /// § Adaptive chunking.
    pub chunk: ChunkPolicy,
    /// Clock the world's cost table and busy time measure through. [`Clock::real`] in production; tests inject
    /// [`Clock::fake`] to drive adaptive-chunking convergence
    /// deterministically.
    pub clock: Clock,
}

impl Op2Config {
    /// Sequential reference configuration.
    pub fn seq() -> Self {
        Op2Config {
            threads: 1,
            backend: Backend::Seq,
            block_size: DEFAULT_BLOCK_SIZE,
            chunk: ChunkPolicy::NumChunks { chunks: 1 },
            clock: Clock::real(),
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
            clock: Clock::real(),
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
            clock: Clock::real(),
        }
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

    /// Overrides the feedback clock — tests install [`Clock::fake`] to
    /// drive adaptive-granularity convergence deterministically.
    #[must_use]
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
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
            .with_chunk(ChunkPolicy::Static { size: 64 });
        assert_eq!(c.block_size, 128);
        assert!(matches!(c.chunk, ChunkPolicy::Static { size: 64 }));
    }

    #[test]
    fn backend_names() {
        assert_eq!(Backend::ForkJoin.to_string(), "fork-join");
        assert_eq!(Backend::Dataflow.to_string(), "dataflow");
    }
}
