//! `for_each`: the algorithm the OP2 code generator emits (paper Fig 8),
//! in its chunk-granular form.

use std::ops::Range;

use super::run_chunked;
use crate::chunk::ChunkPolicy;
use crate::runtime::Runtime;

/// Chunk-granular `for_each`: applies `f` to the chunks of `range` that
/// `chunk` divides it into, each a whole index range. Blocks until the
/// loop completes; the caller runs chunks itself and pool workers
/// help-execute while blocked. This is what `op2-core` builds its block
/// executors on — the chunk boundaries are exactly the policy's chunks.
/// For the asynchronous form (HPX's `par(task)`), run it in
/// [`Runtime::spawn_future`] with a `'static` body.
///
/// ```
/// use std::sync::atomic::{AtomicU64, Ordering};
/// let rt = hpx_rt::Runtime::new(4);
/// let sum = AtomicU64::new(0);
/// hpx_rt::for_each_chunk(&rt, &hpx_rt::ChunkPolicy::default(), 0..1000, |r| {
///     sum.fetch_add(r.map(|i| i as u64).sum(), Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 499_500);
/// ```
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
    use std::sync::Arc;

    #[test]
    fn visits_every_index_exactly_once() {
        let rt = Runtime::new(4);
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        for_each_chunk(&rt, &ChunkPolicy::default(), 0..n, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn respects_non_zero_base() {
        let rt = Runtime::new(2);
        let seen = Mutex::new(Vec::new());
        for_each_chunk(&rt, &ChunkPolicy::Static { size: 3 }, 10..25, |r| {
            seen.lock().extend(r);
        });
        let mut v = seen.into_inner();
        v.sort_unstable();
        assert_eq!(v, (10..25).collect::<Vec<_>>());
    }

    #[test]
    fn empty_range_is_noop() {
        let rt = Runtime::new(2);
        for_each_chunk(&rt, &ChunkPolicy::default(), 5..5, |_| {
            panic!("must not run")
        });
    }

    #[test]
    fn async_for_each_returns_future() {
        let rt = Arc::new(Runtime::new(2));
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let on = Arc::clone(&rt);
        let fut = rt.spawn_future(move || {
            for_each_chunk(&on, &ChunkPolicy::default(), 0..1000, |r| {
                c.fetch_add(r.len(), Ordering::Relaxed);
            })
        });
        fut.get();
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    #[should_panic(expected = "iteration 7 failed")]
    fn body_panic_propagates_after_join() {
        let rt = Runtime::new(2);
        for_each_chunk(&rt, &ChunkPolicy::Static { size: 2 }, 0..64, |r| {
            if r.contains(&7) {
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
