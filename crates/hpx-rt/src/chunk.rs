//! Chunk-size control (paper §IV-B, Fig 12).
//!
//! "In order to control the overheads introduced by the creation of each
//! task, it is important to control the amount of work performed by each
//! task. This amount of work is known as the chunk size."
//!
//! Three policies:
//!
//! * [`ChunkPolicy::Static`] — a fixed number of iterations per chunk;
//! * [`ChunkPolicy::NumChunks`] — an even split into a given number of
//!   chunks (one per thread is the fork-join baseline);
//! * [`ChunkPolicy::Auto`] — HPX's `auto_chunk_size`: time a small probe of
//!   real iterations, then size chunks so each takes about a target
//!   duration. Chunks of loops with different per-iteration costs thus
//!   last the same time at different sizes. `op2-core` resolves the same
//!   policy for Dataflow nodes from costs measured on earlier submissions
//!   instead of a probe, which is the paper's `persistent_auto_chunk_size`
//!   (Fig 12b).

use std::ops::Range;
use std::time::Duration;

/// Default per-chunk execution-time target of [`ChunkPolicy::Auto`].
pub const DEFAULT_CHUNK_TARGET: Duration = Duration::from_micros(200);

/// Fraction of the iteration space used as the timing probe (1%, like HPX's
/// `auto_chunk_size`), bounded to keep probes cheap.
const PROBE_DIVISOR: usize = 100;
const PROBE_MAX: usize = 4096;

/// Work-division strategy for the chunked loop.
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
    /// Size chunks to take ~`target` each (HPX `auto_chunk_size`; on
    /// `op2-core`'s Dataflow backend the paper's
    /// `persistent_auto_chunk_size` — see module docs).
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
    /// took; only `Auto` invokes it.
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
            ChunkPolicy::Auto { target } => {
                let (prefix, per_iter_ns) = run_probe(n, probe);
                let size = size_for_target(target.as_nanos() as u64, per_iter_ns, n, nthreads);
                fixed_size_plan(prefix, n, size)
            }
        }
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
