//! The chunked parallel loop (paper §IV-A): HPX's `for_each` under `par`.
//!
//! Every loop shares one engine, [`run_chunked`]: the iteration space is
//! cut into chunks of the length the caller chose (`op2-core` decides it,
//! HPX hands its algorithms a chunk size the same way, as an executor
//! parameter) and the chunks are put behind one atomic cursor — a
//! **work-sharing join**. The calling thread starts claiming
//! and running chunks at once, whether or not it is a pool worker (HPX
//! likewise runs the caller's share of a parallel algorithm inline);
//! beside it at most `min(chunks - 1, n - 1)` helper tasks are spawned on
//! a runtime of `n` threads — the caller is the n-th, in the caller slot
//! or as a worker (see [`crate::runtime`]) — each of which claims chunks
//! from the same cursor until it is exhausted. A loop of two 20 us chunks
//! therefore costs one task and, when a worker is still lingering from the
//! previous loop (see [`crate::runtime`]), no sleep and no wake-up at all.
//! When the cursor runs dry the caller waits for the chunks still running
//! on helpers: it polls for no longer than its own share took, then
//! blocks.
//!
//! The loop may borrow stack data (`Fn(..) + Sync`). Its asynchronous
//! form is the same call inside a zero-input [`crate::dataflow`], which
//! needs a `'static` body because the caller may return before the loop
//! finishes.

mod for_each;

pub use for_each::for_each_chunk;

use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::future::PanicPayload;
use crate::lco::Latch;
use crate::runtime::{spawn_unchecked, RuntimeInner, LINGER};

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
struct JoinFrame<'a> {
    /// Chunk `i` is `i * len..min((i + 1) * len, n)`.
    len: usize,
    n: usize,
    body: &'a (dyn Fn(Range<usize>) + Sync),
    panic: Mutex<Option<PanicPayload>>,
}

/// Pointer to the caller's [`JoinFrame`], as carried by a helper task.
struct FramePtr<'a>(*const JoinFrame<'a>);

// SAFETY: the pointer is only dereferenced under the conditions of
// `claim_chunks`, where it stands for a `&JoinFrame`, which is `Send`:
// `body` is `Sync` and the panic slot is a mutex.
unsafe impl Send for FramePtr<'_> {}

/// Claims chunks from the cursor and runs them until none is left;
/// returns how many this thread ran. A panicking chunk is caught into the
/// frame's slot and still counts as finished.
///
/// # Safety
///
/// `frame` must point to the frame the joining call keeps alive until
/// `header.finished` opens. It is dereferenced only between a successful
/// claim and that chunk's `count_down`, when the latch cannot be open.
unsafe fn claim_chunks(header: &JoinHeader, frame: *const JoinFrame<'_>) -> usize {
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
        let c = i * frame.len..((i + 1) * frame.len).min(frame.n);
        if let Err(p) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (frame.body)(c))) {
            frame.panic.lock().get_or_insert(p);
        }
        header.finished.count_down();
        ran += 1;
    }
}

/// Runs `body` over `0..n` in chunks of `len` iterations (the last one
/// shorter). Returns only after every chunk has finished, re-panicking
/// the first chunk panic once they all have.
pub(crate) fn run_chunked(
    inner: &RuntimeInner,
    len: usize,
    n: usize,
    body: &(dyn Fn(Range<usize>) + Sync),
) {
    let len = len.max(1);
    match n.div_ceil(len) {
        0 => {}
        // Nothing to parallelize; run inline.
        1 => body(0..n),
        nchunks => {
            let header = Arc::new(JoinHeader {
                cursor: AtomicUsize::new(0),
                nchunks,
                finished: Latch::new(nchunks),
            });
            let frame = JoinFrame {
                len,
                n,
                body,
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
            header.finished.wait(joined.elapsed().min(LINGER));
            if let Some(p) = frame.panic.into_inner() {
                std::panic::resume_unwind(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::on_worker_thread;
    use crate::Runtime;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::time::Duration;

    #[test]
    fn every_chunk_runs_exactly_once_whoever_joins() {
        const N: usize = 1000;
        for threads in [1, 2, 4] {
            let rt = Runtime::new(threads);
            for len in [1, 7, 77, 500, 1000, 5000] {
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
                        let inner = Arc::clone(rt.inner());
                        crate::dataflow(&rt, move |()| run_chunked(&inner, len, N, &body), ())
                            .get();
                    } else {
                        for_each_chunk(&rt, len, 0..N, body);
                    }
                    let wrong = hits.iter().filter(|h| h.load(Ordering::Relaxed) != 1);
                    assert_eq!(
                        wrong.count(),
                        0,
                        "chunks of {len}, {threads} threads, caller_is_worker = {caller_is_worker}"
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
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_chunk(rt, 1, 0..CHUNKS, |_| {
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
        let sum = AtomicU64::new(0);
        for_each_chunk(&rt, 100, 0..1000, |r| {
            sum.fetch_add(r.map(|i| i as u64).sum(), Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 499_500);
        rt.wait_idle();
        let after = rt.stats();
        assert_eq!(
            after.task_panics, 0,
            "chunk panics are the join's to report"
        );
        assert!(after.caller_chunks > before.caller_chunks);
    }
}
