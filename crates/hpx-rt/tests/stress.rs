//! Stress and failure-injection tests for the runtime: nested
//! parallelism, panic propagation through every construct, runtime
//! lifecycle churn, and a seeded
//! scheduler-permutation harness for the halo-exchange task pattern
//! (channels + frame-gated nodes) used by the sharded driver.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hpx_rt::{channel, dataflow, for_each_chunk, schedule_after, Runtime, SharedFuture};

#[test]
fn nested_parallel_loops_do_not_deadlock_small_pools() {
    // Outer parallel loop whose body runs an inner parallel loop on the
    // same 1-worker pool: only help-first waiting makes this terminate.
    let rt = Runtime::new(1);
    let counter = AtomicUsize::new(0);
    for_each_chunk(&rt, 4, 0..16, |outer| {
        for _ in outer {
            for_each_chunk(&rt, 8, 0..64, |inner| {
                counter.fetch_add(inner.len(), Ordering::Relaxed);
            });
        }
    });
    assert_eq!(counter.into_inner(), 16 * 64);
}

#[test]
fn deeply_nested_futures_resolve() {
    let rt = Runtime::new(2);
    // get() inside tasks, 16 levels deep.
    fn nest(rt: &Runtime, depth: usize) -> u64 {
        if depth == 0 {
            return 1;
        }
        let inner = dataflow(rt, |()| 1u64, ());
        inner.get() + depth as u64
    }
    let total = nest(&rt, 16);
    assert_eq!(total, 17);
}

#[test]
fn runtime_survives_async_loop_panic() {
    let rt = Arc::new(Runtime::new(2));
    let on = Arc::clone(&rt);
    let fut = dataflow(
        &rt,
        move |()| {
            for_each_chunk(&on, 10, 0..100, |r| {
                if r.contains(&50) {
                    panic!("async body died");
                }
            })
        },
        (),
    );
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| fut.get()));
    let payload = caught.expect_err("panic must surface through the future");
    let msg = payload
        .downcast_ref::<String>()
        .map_or("(non-string payload)", String::as_str);
    assert!(msg.contains("async body died"), "got: {msg}");
    // The pool remains fully usable. (Loop-chunk panics are captured into
    // the completion future, not counted as unhandled task panics.)
    let v = dataflow(&rt, |()| 7u32, ()).get();
    assert_eq!(v, 7);
    assert_eq!(rt.stats().task_panics, 0);
}

#[test]
fn rapid_runtime_lifecycle() {
    for threads in [1usize, 2, 3] {
        for _ in 0..10 {
            let rt = Runtime::new(threads);
            let futs: Vec<_> = (0..16)
                .map(|i| dataflow(&rt, move |()| i * i, ()))
                .collect();
            let vals: Vec<_> = futs.iter().map(SharedFuture::get).collect();
            assert_eq!(vals.len(), 16);
            // Drop joins all workers.
        }
    }
}

#[test]
fn two_runtimes_coexist() {
    let a = Runtime::new(2);
    let b = Runtime::new(2);
    let fa = dataflow(&a, |()| "a", ());
    let fb = dataflow(&b, |()| "b", ());
    // Cross-runtime dataflow: inputs from different pools, scheduled on a.
    let joined = dataflow(&a, |(x, y)| format!("{x}{y}"), (fa, fb));
    assert_eq!(joined.get(), "ab");
}

/// Overwrites the stack below the caller, where the frame of the call that
/// has just returned lived.
#[inline(never)]
fn scribble_over_dead_frames() {
    let mut junk = [0xA5u8; 8192];
    std::hint::black_box(&mut junk);
}

/// The chunked algorithms keep their join state (chunk list, body, result
/// and panic slots) in the joining call's stack frame, and back-to-back
/// two-chunk joins reuse that stack slot at once — so anything a helper
/// task does to the frame after the join returned lands in the *next*
/// call's live state, or in whatever else the frame became. Only the
/// cursor/latch header is shared, on the heap, and a helper may follow its
/// frame pointer only between claiming a chunk and counting it down.
/// `calls` joins of two chunks from this (non-worker) thread; returns the
/// elements the bodies saw.
fn back_to_back_joins(rt: &Runtime, calls: usize, scribble: bool) -> usize {
    let elems = AtomicUsize::new(0);
    for _ in 0..calls {
        for_each_chunk(rt, 1, 0..2, |r| {
            elems.fetch_add(r.len(), Ordering::Relaxed);
        });
        if scribble {
            scribble_over_dead_frames();
        }
    }
    elems.into_inner()
}

/// The race: both workers free, so helpers claim chunks while the caller
/// does, and a spinner thread keeps all three pre-empted at awkward points.
/// A pass proves nothing; a crash, hang or short count is the defect.
#[test]
fn join_frame_survives_back_to_back_two_chunk_joins() {
    const CALLS: usize = 300_000;
    let rt = Runtime::new(2);
    let stop = Arc::new(AtomicBool::new(false));
    let spinner = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        })
    };
    let elems = back_to_back_joins(&rt, CALLS, false);
    stop.store(true, Ordering::Relaxed);
    spinner.join().unwrap();
    assert_eq!(elems, 2 * CALLS);
    rt.wait_idle();
    let stats = rt.stats();
    assert_eq!(stats.tasks_executed, CALLS as u64, "one helper per join");
}

/// The forced case: both workers are pinned inside a task for as long as
/// the joins run, so the caller runs every chunk itself and *every* helper
/// task starts after its loop has returned and its frame is gone — in the
/// second pass, overwritten. Each must find its cursor exhausted in the
/// heap header and leave; one that looked at its frame would read junk
/// chunk bounds and run the body on them.
#[test]
fn join_helpers_that_start_after_the_loop_never_touch_its_frame() {
    const CALLS: usize = 300_000;
    // Two background workers to pin; the caller slot is this thread's.
    let rt = Runtime::new(3);
    let workers = rt.num_threads() - 1;
    for scribble in [false, true] {
        let pinned = Arc::new(AtomicUsize::new(0));
        let release = Arc::new(AtomicBool::new(false));
        for _ in 0..workers {
            let (pinned, release) = (Arc::clone(&pinned), Arc::clone(&release));
            rt.spawn(move || {
                pinned.fetch_add(1, Ordering::AcqRel);
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            });
        }
        while pinned.load(Ordering::Acquire) < workers {
            std::thread::yield_now();
        }
        let before = rt.stats();
        let elems = back_to_back_joins(&rt, CALLS, scribble);
        assert_eq!(elems, 2 * CALLS);
        let joined = rt.stats();
        assert_eq!(
            joined.caller_chunks - before.caller_chunks,
            2 * CALLS as u64
        );
        assert_eq!(joined.tasks_executed, before.tasks_executed);
        release.store(true, Ordering::Release);
        rt.wait_idle();
        let drained = rt.stats();
        let helpers = drained.tasks_executed - before.tasks_executed;
        assert_eq!(helpers, (CALLS + workers) as u64);
        assert_eq!(drained.task_panics, 0);
    }
}

/// No wake-up may be lost between two workers handing a chain of tasks
/// back and forth. A task pushes its successor onto its *own* deque — the
/// shape of every dataflow successor node, spawned by the worker that
/// completed its last input — and then spins, without helping, until the
/// successor has started: only the *other* worker can run it, and that
/// worker has just finished the previous hop and is lingering, entering
/// `park`, asleep or re-parking after a timeout at this very moment. (A
/// push just before the sleeper registers, which only `park`'s re-check of
/// *every* queue can see, is rare here because the worker lingers first;
/// it has a deterministic unit test beside `park`.)
///
/// Wall-clock gaps would also catch host pre-emption, so the evidence is
/// the runtime's own count of parks that timed out with a task queued that
/// nobody was going to wake them for: exactly 0 with a sound protocol. A
/// timeout that merely races a notify — sent while the sleeper waited for
/// a core, or owed by a pusher the host stopped between its push and its
/// look at the sleepers — is not counted, so a loaded host cannot fail
/// this test.
#[test]
fn idle_worker_wakes_for_a_task_on_a_siblings_deque() {
    const HOPS: usize = 400_000;
    struct Chain {
        rt: Runtime,
        started: Vec<AtomicBool>,
        finished: std::sync::mpsc::SyncSender<()>,
    }
    fn hop(chain: Arc<Chain>, k: usize) {
        chain.started[k].store(true, Ordering::Release);
        if k + 1 == HOPS {
            chain.finished.send(()).unwrap();
            return;
        }
        let next = Arc::clone(&chain);
        // On a worker, `spawn` pushes onto that worker's own deque.
        chain.rt.spawn(move || hop(next, k + 1));
        while !chain.started[k + 1].load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
    }
    let (finished, wait) = std::sync::mpsc::sync_channel(1);
    // Two background workers: this thread waits on a std channel. It also
    // keeps the last handle on the chain, so the runtime is dropped here.
    let chain = Arc::new(Chain {
        rt: Runtime::new(3),
        started: (0..HOPS).map(|_| AtomicBool::new(false)).collect(),
        finished,
    });
    let first = Arc::clone(&chain);
    chain.rt.spawn(move || hop(first, 0));
    wait.recv_timeout(Duration::from_secs(120))
        .expect("the chain stalled");
    let rt = &chain.rt;
    rt.wait_idle();
    assert_eq!(
        rt.stats().late_wakes,
        0,
        "an idle worker slept out its park timeout with a task queued on its sibling's deque"
    );
}

#[test]
fn heavy_dataflow_fan_out_and_in() {
    let rt = Runtime::new(2);
    let src = dataflow(&rt, |()| 1u64, ());
    let mids: Vec<_> = (0..100u64)
        .map(|i| {
            let s = src.clone();
            dataflow(&rt, move |(x,)| x + i, (s,))
        })
        .collect();
    let total: u64 = mids.iter().map(SharedFuture::get).sum();
    assert_eq!(total, 100 + (0..100).sum::<u64>());
}

// ---------------------------------------------------------------------------
// Seeded scheduler-permutation harness (the sharded driver's task shape)
// ---------------------------------------------------------------------------

/// xorshift64* — deterministic shuffles, reproducible from the seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Waits with a deadline so a deadlock fails the test instead of hanging
/// the whole suite.
fn wait_or_deadlock(futs: &[SharedFuture<()>], context: &str) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    for (i, f) in futs.iter().enumerate() {
        while !f.is_ready() {
            assert!(
                std::time::Instant::now() < deadline,
                "{context}: node {i} never completed (deadlock or lost wakeup)"
            );
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        f.wait();
    }
}

/// The sharded driver's halo-exchange pattern under permuted wake orders:
/// R ranks exchange D values per round over promise/future channels for
/// several chained rounds — send nodes gated on the producing rank's
/// previous consumer, receive nodes gated on their send (reactive: the
/// delivery is ready when the receive runs, the non-blocking discipline
/// `op2-core::locality` uses), consumers joining a
/// rank's receives. Round-0 producers fire in a different seeded
/// permutation each replay, from two racing threads, on pools of 1-3
/// workers. Every replay must drain completely with exact payload sums —
/// no deadlock, no lost wakeup, no double delivery (a promise is
/// fulfilled at most once).
#[test]
fn halo_exchange_pattern_survives_seeded_wake_permutations() {
    const RANKS: usize = 4;
    const DATS: usize = 2;
    const ROUNDS: usize = 3;
    for seed in 0..24u64 {
        let mut rng = Rng::new(0xEC4A_0DE5 ^ seed.wrapping_mul(0xA076_1D64_78BD_642F));
        let rt = Runtime::new(1 + (seed % 3) as usize);
        let received = Arc::new(AtomicUsize::new(0));
        let payload_sum = Arc::new(AtomicUsize::new(0));

        // Round-0 producers: one manually-fired trigger per (rank, dat).
        let mut triggers = Vec::new();
        let mut producer_futs: Vec<Vec<SharedFuture<()>>> = vec![Vec::new(); RANKS];
        for futs in &mut producer_futs {
            for _ in 0..DATS {
                let (promise, fut) = channel::<()>();
                futs.push(fut);
                triggers.push(promise);
            }
        }

        // Chained rounds: every rank sends to every other rank.
        let mut consumer_futs: Vec<SharedFuture<()>> = Vec::new();
        let mut prev: Vec<Vec<SharedFuture<()>>> = producer_futs;
        for round in 0..ROUNDS {
            let mut next: Vec<Vec<SharedFuture<()>>> = vec![Vec::new(); RANKS];
            for (dst, consumers) in next.iter_mut().enumerate() {
                let mut recvs = Vec::new();
                for (src, src_prev) in prev.iter().enumerate() {
                    if src == dst {
                        continue;
                    }
                    for d in 0..DATS {
                        let (tx, rx) = channel::<usize>();
                        let value = round * 1000 + src * 10 + d;
                        let send_done = schedule_after(&rt, src_prev, move || tx.set_value(value));
                        let sum = Arc::clone(&payload_sum);
                        let count = Arc::clone(&received);
                        let recv_done =
                            schedule_after(&rt, std::slice::from_ref(&send_done), move || {
                                assert!(rx.is_ready(), "sender done, channel empty");
                                let v = rx.get();
                                sum.fetch_add(v, Ordering::Relaxed);
                                count.fetch_add(1, Ordering::Relaxed);
                            });
                        recvs.push(recv_done);
                    }
                }
                let consumer = schedule_after(&rt, &recvs, || ());
                consumers.push(consumer.clone());
                consumer_futs.push(consumer);
            }
            prev = next;
        }

        // Fire the round-0 triggers in a seeded permutation, racing two
        // threads over the halves of the shuffled order.
        rng.shuffle(&mut triggers);
        let mid = triggers.len() / 2;
        let tail: Vec<_> = triggers.split_off(mid);
        let t = std::thread::spawn(move || {
            for p in tail {
                p.set_value(());
                std::thread::yield_now();
            }
        });
        for p in triggers {
            p.set_value(());
        }
        t.join().unwrap();

        wait_or_deadlock(&consumer_futs, &format!("seed {seed}"));
        let expected_msgs = ROUNDS * RANKS * (RANKS - 1) * DATS;
        assert_eq!(
            received.load(Ordering::Relaxed),
            expected_msgs,
            "seed {seed}"
        );
        let expected_sum: usize = (0..ROUNDS)
            .map(|round| {
                (0..RANKS)
                    .flat_map(|src| (0..DATS).map(move |d| round * 1000 + src * 10 + d))
                    .sum::<usize>()
                    * (RANKS - 1)
            })
            .sum();
        assert_eq!(
            payload_sum.load(Ordering::Relaxed),
            expected_sum,
            "seed {seed}"
        );
    }
}

/// Frames under seeded completion interleavings: many nodes, each behind
/// its own promise-backed inputs, the completions shuffled together and
/// raced across four threads — every body must run exactly once, and never
/// before the last of its inputs was fulfilled. Half the nodes run as tasks
/// (`schedule_after`), half on the completing thread (`when_all_shared`
/// feeding a one-input node, so the inline join is raced too).
#[test]
fn frames_fire_exactly_once_under_seeded_interleavings() {
    const NODES: usize = 32;
    const INPUTS: usize = 8;
    let rt = Runtime::new(2);
    for seed in 0..16u64 {
        let mut rng = Rng::new(0xDEC0_47E5 ^ seed.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let fired: Arc<Vec<AtomicUsize>> =
            Arc::new((0..NODES).map(|_| AtomicUsize::new(0)).collect());
        let fulfilled: Arc<Vec<AtomicUsize>> =
            Arc::new((0..NODES).map(|_| AtomicUsize::new(0)).collect());
        let mut promises = Vec::new();
        let nodes: Vec<SharedFuture<()>> = (0..NODES)
            .map(|i| {
                let inputs: Vec<SharedFuture<()>> = (0..INPUTS)
                    .map(|_| {
                        let (promise, fut) = channel::<()>();
                        promises.push((i, promise));
                        fut
                    })
                    .collect();
                let (fired, fulfilled) = (Arc::clone(&fired), Arc::clone(&fulfilled));
                let body = move || {
                    assert_eq!(fulfilled[i].load(Ordering::Acquire), INPUTS, "early");
                    fired[i].fetch_add(1, Ordering::Relaxed);
                };
                if i % 2 == 0 {
                    schedule_after(&rt, &inputs, body)
                } else {
                    schedule_after(&rt, &[hpx_rt::when_all_shared(&inputs)], body)
                }
            })
            .collect();
        // All completions, shuffled, dealt round-robin to four threads.
        rng.shuffle(&mut promises);
        let mut hands: Vec<Vec<_>> = (0..4).map(|_| Vec::new()).collect();
        for (k, op) in promises.into_iter().enumerate() {
            hands[k % 4].push(op);
        }
        let threads: Vec<_> = hands
            .into_iter()
            .map(|hand| {
                let fulfilled = Arc::clone(&fulfilled);
                std::thread::spawn(move || {
                    for (i, promise) in hand {
                        fulfilled[i].fetch_add(1, Ordering::Release);
                        promise.set_value(());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        wait_or_deadlock(&nodes, &format!("seed {seed}"));
        for (i, f) in fired.iter().enumerate() {
            assert_eq!(f.load(Ordering::Relaxed), 1, "seed {seed}: node {i}");
        }
    }
}

/// The caller slot under contention: three threads outside the pools, two
/// 2-thread runtimes (one background worker and one slot each). Round
/// after round every thread builds a gated graph on the runtime the seed
/// picks and blocks on its join — claiming that runtime's slot if it is
/// free, sleeping beside its holder if not — while this thread opens the
/// gates in a seeded order, so the waits end, and the slots change hands,
/// in a different interleaving each replay. Every body must run exactly
/// once whoever ran it; the watchdog is on progress, not on wall time.
#[test]
fn caller_slots_change_hands_under_seeded_completion_orders() {
    const THREADS: usize = 3;
    const ROUNDS: usize = 30;
    const BODIES: usize = 12;
    for seed in 0..12u64 {
        let mut rng = Rng::new(0x510C_5107 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let rts = [Arc::new(Runtime::new(2)), Arc::new(Runtime::new(2))];
        let hits: Arc<Vec<AtomicUsize>> = Arc::new(
            (0..THREADS * ROUNDS * BODIES)
                .map(|_| AtomicUsize::new(0))
                .collect(),
        );
        let progress = Arc::new(AtomicUsize::new(0));
        let mut promises = Vec::new();
        let threads: Vec<_> = (0..THREADS)
            .map(|t| {
                let (gates, opens): (Vec<_>, Vec<_>) = (0..ROUNDS)
                    .map(|_| {
                        let (promise, gate) = channel::<()>();
                        (gate, promise)
                    })
                    .unzip();
                promises.push(opens.into_iter());
                // Which runtime each round goes to.
                let picks: Vec<usize> = (0..ROUNDS).map(|_| (rng.next() % 2) as usize).collect();
                let (rts, hits, progress) = (rts.clone(), Arc::clone(&hits), Arc::clone(&progress));
                std::thread::spawn(move || {
                    for (r, gate) in gates.into_iter().enumerate() {
                        let rt = &rts[picks[r]];
                        let mut nodes: Vec<SharedFuture<()>> = Vec::with_capacity(BODIES);
                        for k in 0..BODIES {
                            let (hits, progress) = (Arc::clone(&hits), Arc::clone(&progress));
                            let body = move || {
                                hits[(t * ROUNDS + r) * BODIES + k].fetch_add(1, Ordering::Relaxed);
                                progress.fetch_add(1, Ordering::Relaxed);
                            };
                            // A chain through the even nodes, the odd ones
                            // fanning out of the gate.
                            let mut deps = vec![gate.clone()];
                            if k % 2 == 0 && k > 0 {
                                deps.push(nodes[k - 2].clone());
                            }
                            nodes.push(schedule_after(rt, &deps, body));
                        }
                        hpx_rt::when_all_shared(&nodes).get();
                    }
                })
            })
            .collect();

        // Open every gate: each thread's in round order, the threads
        // interleaved as the seed says, running ahead of some and behind
        // others.
        let mut left: Vec<usize> = (0..THREADS).collect();
        while !left.is_empty() {
            let pick = (rng.next() % left.len() as u64) as usize;
            match promises[left[pick]].next() {
                Some(open) => open.set_value(()),
                None => {
                    left.swap_remove(pick);
                }
            }
            if rng.next().is_multiple_of(4) {
                std::thread::yield_now();
            }
        }

        let total = THREADS * ROUNDS * BODIES;
        let (mut seen, mut since) = (0, std::time::Instant::now());
        while threads.iter().any(|t| !t.is_finished()) {
            let now = progress.load(Ordering::Relaxed);
            if now != seen {
                (seen, since) = (now, std::time::Instant::now());
            }
            assert!(
                since.elapsed() < Duration::from_secs(60),
                "seed {seed}: stalled after {seen} of {total} bodies"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        for t in threads {
            t.join().unwrap();
        }
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "seed {seed}: body {i}");
        }
        let ran: u64 = rts
            .iter()
            .map(|rt| {
                rt.wait_idle();
                let stats = rt.stats();
                assert_eq!(stats.task_panics, 0, "seed {seed}: {stats}");
                stats.tasks_executed
            })
            .sum();
        assert_eq!(ran, total as u64, "seed {seed}");
    }
}
