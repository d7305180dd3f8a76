//! `for_each`: the algorithm the OP2 code generator emits (paper Fig 8).

use std::ops::Range;
use std::sync::Arc;

use super::run_chunked;
use crate::chunk::ChunkPolicy;
use crate::future::Future;
use crate::runtime::{Runtime, RuntimeInner};

/// Applies `f` to every index in `range`, dividing the work into chunks per
/// `chunk`. Blocks until the loop completes; pool workers help-execute
/// while blocked.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// let rt = hpx_rt::Runtime::new(4);
/// let sum = AtomicU64::new(0);
/// hpx_rt::for_each(&rt, &hpx_rt::ChunkPolicy::default(), 0..1000, |i| {
///     sum.fetch_add(i as u64, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 499_500);
/// ```
pub fn for_each<F>(rt: &Runtime, chunk: &ChunkPolicy, range: Range<usize>, f: F)
where
    F: Fn(usize) + Sync,
{
    for_each_in(rt.inner(), chunk, range, &f);
}

fn for_each_in<F>(inner: &RuntimeInner, chunk: &ChunkPolicy, range: Range<usize>, f: &F)
where
    F: Fn(usize) + Sync,
{
    let base = range.start;
    let n = range.end.saturating_sub(range.start);
    run_chunked(inner, chunk, n, &|r: Range<usize>| {
        for i in r {
            f(base + i);
        }
    });
}

/// Asynchronous `for_each` (HPX's `par(task)`): returns immediately with
/// a completion future. A prologue task runs the loop and is its joining
/// thread. The body must be `'static` because the caller may drop its
/// frame before the loop runs.
pub fn for_each_async<F>(rt: &Runtime, chunk: &ChunkPolicy, range: Range<usize>, f: F) -> Future<()>
where
    F: Fn(usize) + Send + Sync + 'static,
{
    let inner = Arc::clone(rt.inner());
    let chunk = chunk.clone();
    rt.spawn_future(move || for_each_in(&inner, &chunk, range, &f))
}

/// Chunk-granular `for_each`: `f` receives whole index ranges instead of
/// single indices. This is what `op2-core` builds its block executors on —
/// the chunk boundaries are exactly the policy's chunks.
pub fn for_each_chunk<F>(rt: &Runtime, chunk: &ChunkPolicy, range: Range<usize>, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let base = range.start;
    let n = range.end.saturating_sub(range.start);
    run_chunked(rt.inner(), chunk, n, &|r: Range<usize>| {
        f(base + r.start..base + r.end);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn visits_every_index_exactly_once() {
        let rt = Runtime::new(4);
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        for_each(&rt, &ChunkPolicy::default(), 0..n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn respects_non_zero_base() {
        let rt = Runtime::new(2);
        let seen = Mutex::new(Vec::new());
        for_each(&rt, &ChunkPolicy::Static { size: 3 }, 10..25, |i| {
            seen.lock().push(i);
        });
        let mut v = seen.into_inner();
        v.sort_unstable();
        assert_eq!(v, (10..25).collect::<Vec<_>>());
    }

    #[test]
    fn empty_range_is_noop() {
        let rt = Runtime::new(2);
        for_each(&rt, &ChunkPolicy::default(), 5..5, |_| {
            panic!("must not run")
        });
    }

    #[test]
    fn async_for_each_returns_future() {
        let rt = Runtime::new(2);
        let counter = std::sync::Arc::new(AtomicUsize::new(0));
        let c = std::sync::Arc::clone(&counter);
        let fut = for_each_async(&rt, &ChunkPolicy::default(), 0..1000, move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        fut.get();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    #[should_panic(expected = "iteration 7 failed")]
    fn body_panic_propagates_after_join() {
        let rt = Runtime::new(2);
        for_each(&rt, &ChunkPolicy::Static { size: 2 }, 0..64, |i| {
            if i == 7 {
                panic!("iteration 7 failed");
            }
        });
    }

    #[test]
    fn chunk_variant_tiles_range() {
        let rt = Runtime::new(3);
        let seen = Mutex::new(Vec::new());
        for_each_chunk(&rt, &ChunkPolicy::Static { size: 7 }, 100..200, |r| {
            seen.lock().push(r)
        });
        let mut v = seen.into_inner();
        v.sort_unstable_by_key(|r| r.start);
        let mut next = 100;
        for r in &v {
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, 200);
    }
}
