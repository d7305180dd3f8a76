//! Chunked parallel algorithms (paper §IV-A).
//!
//! All algorithms share one engine, [`run_chunked`]: the iteration space is
//! divided according to the policy's [`ChunkPolicy`](crate::ChunkPolicy)
//! (possibly after a timing probe that executes real iterations) and the
//! chunks are put behind one atomic cursor — a **work-sharing join**. The
//! calling thread starts claiming and running chunks at once, whether or
//! not it is a pool worker (HPX likewise runs the caller's share of a
//! parallel algorithm inline); beside it at most `min(chunks - 1, n - 1)`
//! helper tasks are spawned on a runtime of `n` threads — the caller is
//! the n-th, in the caller slot or as a worker (see [`crate::runtime`]) —
//! each of which claims chunks from the same cursor until it is
//! exhausted. A loop of two 20 us chunks therefore costs
//! one task and, when a worker is still lingering from the previous loop
//! (see [`crate::runtime`]), no sleep and no wake-up at all. When the
//! cursor runs dry the caller waits for the chunks still running on
//! helpers: it polls for no longer than its own share took, then blocks.
//! Results are combined in chunk-start order, so who ran which chunk
//! never shows in an algorithm's value.
//!
//! Synchronous algorithms may borrow stack data (`Fn(..) + Sync`);
//! asynchronous (`_async`, returning [`Future`]) variants require `'static`
//! bodies because the caller may return before the loop finishes.

mod for_each;
mod misc;
mod reduce;
mod scan;
mod sort;
mod transform;

pub use for_each::{for_each, for_each_async, for_each_chunk, for_each_chunk_async};
pub use misc::{copy, count_if, fill, max_element, min_element, sum};
pub use reduce::{reduce, reduce_async};
pub use scan::inclusive_scan;
pub use sort::sort;
pub use transform::transform;

use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::future::{Future, PanicPayload};
use crate::lco::Latch;
use crate::policy::{Exec, ExecutionPolicy};
use crate::runtime::{spawn_unchecked, Runtime, RuntimeInner, LINGER};

/// The part of a join that outlives the joining call: helper tasks hold it
/// through an `Arc`, so one that starts only after the loop is over finds
/// an exhausted cursor here and never looks at the caller's frame.
struct JoinHeader {
    /// Index of the next unclaimed chunk; `>= nchunks` once all are taken.
    cursor: AtomicUsize,
    nchunks: usize,
    /// Counts *finished* chunks; the caller leaves the join when it opens.
    finished: Latch,
}

/// The part of a join that lives in the joining call's stack frame.
struct JoinFrame<'a, R> {
    chunks: Vec<Range<usize>>,
    body: &'a (dyn Fn(Range<usize>) -> R + Sync),
    results: &'a Mutex<Vec<(usize, R)>>,
    panic: Mutex<Option<PanicPayload>>,
}

/// Pointer to the caller's [`JoinFrame`], as carried by a helper task.
struct FramePtr<'a, R>(*const JoinFrame<'a, R>);

// SAFETY: the pointer is only dereferenced under the conditions of
// `claim_chunks`, where it stands for a `&JoinFrame`; that is `Send` when
// `R: Send` (`body` is `Sync`, the mutexes hand out `R` and the payload).
unsafe impl<R: Send> Send for FramePtr<'_, R> {}

/// Claims chunks from the cursor and runs them until none is left;
/// returns how many this thread ran. A panicking chunk is caught into the
/// frame's slot and still counts as finished.
///
/// # Safety
///
/// `frame` must point to the frame the joining call keeps alive until
/// `header.finished` opens. It is dereferenced only between a successful
/// claim and that chunk's `count_down`, when the latch cannot be open.
unsafe fn claim_chunks<R: Send>(header: &JoinHeader, frame: *const JoinFrame<'_, R>) -> usize {
    let mut ran = 0;
    loop {
        // `Relaxed`: the claim only has to be unique; the frame's contents
        // reached a helper through the queue its task travelled in.
        let i = header.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= header.nchunks {
            return ran;
        }
        // SAFETY: chunk `i` is claimed and not counted down, see above.
        let frame = unsafe { &*frame };
        let c = frame.chunks[i].clone();
        let start = c.start;
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (frame.body)(c))) {
            Ok(v) => frame.results.lock().push((start, v)),
            Err(p) => {
                frame.panic.lock().get_or_insert(p);
            }
        }
        header.finished.count_down();
        ran += 1;
    }
}

/// Runs `body` over `0..n` in policy-controlled chunks and returns the
/// per-chunk results tagged with their start index, sorted by start.
///
/// This is the synchronous engine: it returns only after every chunk has
/// finished (or re-panics the first chunk panic after all chunks finished).
pub(crate) fn run_chunked<R: Send>(
    rt: &Runtime,
    policy: &ExecutionPolicy,
    n: usize,
    body: &(dyn Fn(Range<usize>) -> R + Sync),
) -> Vec<(usize, R)> {
    run_chunked_inner(rt.inner(), policy, n, body)
}

pub(crate) fn run_chunked_inner<R: Send>(
    inner: &RuntimeInner,
    policy: &ExecutionPolicy,
    n: usize,
    body: &(dyn Fn(Range<usize>) -> R + Sync),
) -> Vec<(usize, R)> {
    if n == 0 {
        return Vec::new();
    }
    if policy.exec == Exec::Seq {
        return vec![(0, body(0..n))];
    }

    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::new());
    // The timing probe executes real iterations; its result is chunk 0.
    let plan = policy
        .chunk
        .plan(n, inner.num_threads(), &mut |r: Range<usize>| {
            let t = Instant::now();
            let v = body(r.clone());
            let elapsed = t.elapsed();
            results.lock().push((r.start, v));
            elapsed
        });

    match plan.chunks.len() {
        0 => {}
        1 if plan.prefix_done == 0 => {
            // Nothing to parallelize; run inline.
            let c = plan.chunks[0].clone();
            let v = body(c.clone());
            results.lock().push((c.start, v));
        }
        nchunks => {
            let header = Arc::new(JoinHeader {
                cursor: AtomicUsize::new(0),
                nchunks,
                finished: Latch::new(nchunks),
            });
            let frame = JoinFrame {
                chunks: plan.chunks,
                body,
                results: &results,
                panic: Mutex::new(None),
            };
            for _ in 0..(nchunks - 1).min(inner.num_threads() - 1) {
                let header = Arc::clone(&header);
                let frame = FramePtr(&frame);
                // SAFETY: the task borrows nothing — it owns its share of
                // the header and a raw pointer — and `claim_chunks` only
                // follows the pointer while `finished.wait` below holds
                // this frame in place.
                unsafe {
                    spawn_unchecked(inner, move || {
                        // Capture the `Send` wrapper, not its pointer field.
                        let frame = frame;
                        claim_chunks(&header, frame.0);
                    });
                }
            }
            let joined = Instant::now();
            // SAFETY: `frame` is live until the wait below returns.
            let ran = unsafe { claim_chunks(&header, &frame) };
            inner.caller_chunks.fetch_add(ran as u64, Ordering::Relaxed);
            // The stragglers started when this thread did, on chunks of
            // the same size: they are about as far from done as its own
            // share took. Past that something is off (a helper was
            // pre-empted, chunks are uneven) and polling buys nothing.
            header.finished.wait_spinning(joined.elapsed().min(LINGER));
            if let Some(p) = frame.panic.into_inner() {
                std::panic::resume_unwind(p);
            }
        }
    }

    let mut out = results.into_inner();
    out.sort_unstable_by_key(|(start, _)| *start);
    out
}

/// Asynchronous engine: immediately returns a future of the per-chunk
/// results. Internally a prologue task runs the synchronous engine (it is
/// the joining thread: it claims chunks beside the helpers it spawns).
pub(crate) fn run_chunked_async<R, F>(
    rt: &Runtime,
    policy: ExecutionPolicy,
    n: usize,
    body: Arc<F>,
) -> Future<Vec<(usize, R)>>
where
    R: Send + 'static,
    F: Fn(Range<usize>) -> R + Send + Sync + 'static,
{
    let inner = Arc::clone(rt.inner());
    rt.spawn_future(move || run_chunked_inner(&inner, &policy, n, &*body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::on_worker_thread;
    use crate::{par, par_task, ChunkPolicy, PersistentChunker};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    fn every_policy() -> Vec<ChunkPolicy> {
        vec![
            ChunkPolicy::Static { size: 7 },
            ChunkPolicy::NumChunks { chunks: 2 },
            ChunkPolicy::NumChunks { chunks: 13 },
            ChunkPolicy::Guided { min: 3 },
            ChunkPolicy::Auto {
                target: Duration::from_micros(5),
            },
            ChunkPolicy::PersistentAuto(PersistentChunker::new()),
        ]
    }

    #[test]
    fn every_chunk_runs_exactly_once_whoever_joins() {
        const N: usize = 1000;
        for threads in [1, 2, 4] {
            let rt = Runtime::new(threads);
            for chunk in every_policy() {
                for caller_is_worker in [false, true] {
                    let hits: Arc<Vec<AtomicUsize>> =
                        Arc::new((0..N).map(|_| AtomicUsize::new(0)).collect());
                    let seen = Arc::clone(&hits);
                    let body = move |r: Range<usize>| {
                        assert!(on_worker_thread() || !caller_is_worker);
                        for i in r {
                            seen[i].fetch_add(1, Ordering::Relaxed);
                        }
                    };
                    if caller_is_worker {
                        // The engine runs inside a pool task.
                        for_each_chunk_async(&rt, par_task().with_chunk(chunk.clone()), 0..N, body)
                            .get();
                    } else {
                        for_each_chunk(&rt, &par().with_chunk(chunk.clone()), 0..N, body);
                    }
                    let wrong = hits.iter().filter(|h| h.load(Ordering::Relaxed) != 1);
                    assert_eq!(
                        wrong.count(),
                        0,
                        "{chunk:?}, {threads} threads, caller_is_worker = {caller_is_worker}"
                    );
                }
            }
            // Helper tasks that found nothing left to claim are still tasks.
            rt.wait_idle();
            assert_eq!(rt.stats().task_panics, 0);
        }
    }

    /// Spins until `flag` is set; fails the test instead of hanging it.
    fn await_flag(flag: &AtomicBool) {
        let start = Instant::now();
        while !flag.load(Ordering::Acquire) {
            assert!(start.elapsed() < Duration::from_secs(60), "never set");
            std::thread::yield_now();
        }
    }

    /// One chunk panics — the first one the caller runs, or the first one a
    /// helper runs. Every chunk holds on until both kinds of thread are
    /// inside the loop, so neither side can finish it alone, and the others
    /// all finish *late*: the panic may only surface once they have.
    fn panicking_join(rt: &Runtime, in_caller: bool) {
        const CHUNKS: usize = 8;
        let caller_in = AtomicBool::new(false);
        let helper_in = AtomicBool::new(false);
        let panicked = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let policy = par().with_chunk(ChunkPolicy::NumChunks { chunks: CHUNKS });
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_chunk(rt, &policy, 0..CHUNKS, |_| {
                let on_caller = !on_worker_thread();
                if on_caller { &caller_in } else { &helper_in }.store(true, Ordering::Release);
                await_flag(&caller_in);
                await_flag(&helper_in);
                if on_caller == in_caller && !panicked.swap(true, Ordering::AcqRel) {
                    panic!("chunk died");
                }
                std::thread::sleep(Duration::from_millis(2));
                finished.fetch_add(1, Ordering::AcqRel);
            });
        }));
        let payload = outcome.expect_err("the chunk's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk died"));
        assert_eq!(finished.load(Ordering::Acquire), CHUNKS - 1);
    }

    #[test]
    fn a_panic_in_any_chunk_surfaces_after_the_join_and_the_pool_survives() {
        let rt = Runtime::new(2);
        let before = rt.stats();
        panicking_join(&rt, /*in_caller=*/ true);
        panicking_join(&rt, /*in_caller=*/ false);
        let sum = reduce(&rt, &par(), 0..1000, 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(sum, 499_500);
        rt.wait_idle();
        let after = rt.stats();
        assert_eq!(
            after.task_panics, 0,
            "chunk panics are the join's to report"
        );
        assert!(after.caller_chunks > before.caller_chunks);
    }

    #[test]
    fn float_reduce_is_bitwise_the_same_whoever_ran_which_chunk() {
        const N: usize = 40_000;
        const SIZE: usize = 1_000;
        let term = |i: usize| (i as f64 * 0.37).sin() * 1e3 + 0.1;
        // Partials in chunk order, combined in chunk order, on one thread.
        let expected = (0..N / SIZE).fold(0.0f64, |acc, c| {
            acc + (c * SIZE..(c + 1) * SIZE).fold(0.0f64, |a, i| a + term(i))
        });
        let chunk = ChunkPolicy::Static { size: SIZE };
        for threads in [1, 2, 4] {
            let rt = Runtime::new(threads);
            for _ in 0..20 {
                let policy = par().with_chunk(chunk.clone());
                let sync = reduce(&rt, &policy, 0..N, 0.0f64, term, |a, b| a + b);
                assert_eq!(sync.to_bits(), expected.to_bits(), "{threads} threads");
                let policy = par_task().with_chunk(chunk.clone());
                let on_worker = reduce_async(&rt, policy, 0..N, 0.0f64, term, |a, b| a + b);
                assert_eq!(on_worker.get().to_bits(), expected.to_bits());
            }
        }
    }
}
