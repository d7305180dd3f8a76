//! Asynchronous reductions through the public API: the shared-`Global`
//! wait-set semantics, the cross-rank reduction tree
//! (`LocalityGroup::allreduce`), and the future-chained residual path —
//! proving the solve pipeline never meets a host-side reduction barrier.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use op2_hpx::airfoil::{ShardedAirfoil, ShardedProblem};
use op2_hpx::app::{run, RunConfig};
use op2_hpx::hpx::lco::Event;
use op2_hpx::mesh::channel_with_bump;
use op2_hpx::op2::args::gbl_inc;
use op2_hpx::op2::locality::LocalityGroup;
use op2_hpx::op2::{Global, Op2, Op2Config, ReducedFuture};

/// Spin-wait helper with a generous deadline.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The allreduce sums every rank's fully finalized contribution, the
/// result is bitwise deterministic across runs (fixed rank-order tree),
/// and the `op2.reduce.*` counters tick.
#[test]
fn allreduce_sums_per_rank_globals_deterministically() {
    let run_once = || -> Vec<f64> {
        let group = LocalityGroup::new(Op2Config::dataflow(2), 4);
        let globals: Vec<Global<f64>> = (0..4).map(|_| Global::<f64>::sum(1, "rms")).collect();
        for (r, g) in globals.iter().enumerate() {
            let cells = group.rank(r).decl_set(100 + 17 * r, "cells");
            // An irrational-ish per-element contribution so float rounding
            // would expose any combination-order wobble.
            let w = 0.1 + r as f64 * 0.01;
            group
                .rank(r)
                .loop_("update", &cells)
                .arg(gbl_inc(g))
                .run(move |acc: &mut [f64]| acc[0] += w);
        }
        let red = group.allreduce(&globals);
        group.fence();
        red.get()
    };
    // Delta assertions via the snapshot helper: the named counters are
    // process-wide, so absolute values depend on sibling tests.
    let before = op2_hpx::hpx::stats::snapshot();
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "fixed-shape tree must be bitwise deterministic");
    let expected: f64 = (0..4)
        .map(|r| (100 + 17 * r) as f64 * (0.1 + r as f64 * 0.01))
        .sum();
    assert!(
        (a[0] - expected).abs() < 1e-9,
        "allreduce total {} vs expected {expected}",
        a[0]
    );
    assert!(
        before.delta("op2.reduce.allreduces") >= 2,
        "op2.reduce.allreduces did not tick"
    );
    assert!(before.delta("op2.reduce.contributions") >= 8);
    assert!(before.delta("op2.reduce.combines") >= 6);
}

/// The tentpole overlap property: while one rank's contribution is
/// provably hostage (its update kernel waits on an event the test holds),
/// the allreduce future stays pending, the *other* rank keeps executing
/// freshly submitted work — the reduce never drains the pipeline — and
/// releasing the hostage completes the tree with the full sum.
#[test]
fn allreduce_overlaps_while_one_contributor_is_hostage() {
    let group = LocalityGroup::new(Op2Config::dataflow(2), 2);
    let g0 = Global::<f64>::sum(1, "rms");
    let g1 = Global::<f64>::sum(1, "rms");
    let cells0 = group.rank(0).decl_set(8, "cells");
    let cells1 = group.rank(1).decl_set(8, "cells");

    let gate = Arc::new(Event::new());
    let hostage_gate = Arc::clone(&gate);
    let taken = Arc::new(AtomicBool::new(false));
    let hostage_taken = Arc::clone(&taken);
    group
        .rank(0)
        .loop_("update", &cells0)
        .arg(gbl_inc(&g0))
        .run(move |acc: &mut [f64]| {
            hostage_taken.store(true, Ordering::Release);
            hostage_gate.wait();
            acc[0] += 1.0;
        });
    // The hostage must sit on a background worker before this thread blocks
    // on the runtime: in a wait it computes too (the caller slot), and a
    // hostage it picked up itself would wait for the `gate.set()` below on
    // top of the very wait that comes before it. Not a runtime wait.
    while !taken.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    group
        .rank(1)
        .loop_("update", &cells1)
        .arg(gbl_inc(&g1))
        .run(|acc: &mut [f64]| acc[0] += 2.0);

    let red = group.allreduce(&[g0, g1]);

    // Rank 1 keeps making progress on work submitted *after* the reduce.
    let later = group
        .rank(1)
        .loop_("later", &cells1)
        .arg(gbl_inc(&Global::<f64>::sum(1, "probe")))
        .run(|acc: &mut [f64]| acc[0] += 1.0);
    later.wait();
    assert!(
        !red.is_ready(),
        "allreduce completed although a contributor is still hostage"
    );

    gate.set();
    red.wait();
    assert_eq!(red.get_scalar(), 8.0 + 16.0);
}

/// One `Global` cloned into incrementing loops on every rank — the
/// shared-accumulator pattern the old single-slot `pending` corrupted.
/// Sequential submission and fully concurrent submission (one submitter
/// thread per rank, released together) must both observe the exact sum.
#[test]
fn shared_global_across_ranks_sums_exactly() {
    // Sequential submission across ranks.
    let group = LocalityGroup::new(Op2Config::dataflow(2), 3);
    let g = Global::<i64>::sum(1, "shared");
    for r in 0..3 {
        let cells = group.rank(r).decl_set(50 + r, "cells");
        let k = (r + 1) as i64;
        group
            .rank(r)
            .loop_("inc", &cells)
            .arg(gbl_inc(&g))
            .run(move |acc: &mut [i64]| acc[0] += k);
    }
    let expected: i64 = (0..3).map(|r| (50 + r) as i64 * (r + 1) as i64).sum();
    assert_eq!(g.get_scalar(), expected);

    // Concurrent submission: one thread per rank, all released at once —
    // the interleaving that raced the single-slot registration.
    for round in 0..20 {
        let group = Arc::new(LocalityGroup::new(Op2Config::dataflow(2), 3));
        let g = Global::<i64>::sum(1, "shared");
        let start = Arc::new(Barrier::new(3));
        let threads: Vec<_> = (0..3)
            .map(|r| {
                let group = Arc::clone(&group);
                let g = g.clone();
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    let cells = group.rank(r).decl_set(64, "cells");
                    start.wait();
                    let k = (r + 1) as i64;
                    group
                        .rank(r)
                        .loop_("inc", &cells)
                        .arg(gbl_inc(&g))
                        .run(move |acc: &mut [i64]| acc[0] += k);
                })
            })
            .collect();
        for t in threads {
            t.join().expect("submitter thread");
        }
        assert_eq!(
            g.get_scalar(),
            64 * (1 + 2 + 3),
            "round {round}: get() missed a concurrently-registered loop"
        );
    }
}

/// `reduce_async` on one rank turns a shared-Global read into a future
/// gated on the whole wait-set, every rank's loops included: non-blocking
/// at submission, complete sum at `get`.
#[test]
fn reduce_across_reads_shared_global_without_blocking() {
    let group = LocalityGroup::new(Op2Config::dataflow(2), 2);
    let g = Global::<f64>::sum(1, "shared");
    let gate = Arc::new(Event::new());
    let cells0 = group.rank(0).decl_set(16, "cells");
    let cells1 = group.rank(1).decl_set(16, "cells");
    let hostage_gate = Arc::clone(&gate);
    group
        .rank(0)
        .loop_("inc", &cells0)
        .arg(gbl_inc(&g))
        .run(move |acc: &mut [f64]| {
            hostage_gate.wait();
            acc[0] += 1.0;
        });
    group
        .rank(1)
        .loop_("inc", &cells1)
        .arg(gbl_inc(&g))
        .run(|acc: &mut [f64]| acc[0] += 1.0);

    let red = g.reduce_async(group.rank(0));
    assert!(!red.is_ready(), "snapshot must wait the hostage loop");
    gate.set();
    assert_eq!(red.get_scalar(), 32.0);
}

/// An empty-set `gbl_inc` loop finalizes with zero partials: the handle
/// completes, the value stays at the identity, and the global remains
/// usable by later (non-empty) loops and async reads.
#[test]
fn empty_set_gbl_inc_loop_finalizes_cleanly() {
    let op2 = Op2::new(Op2Config::dataflow(2));
    let empty = op2.decl_set(0, "empty");
    let g = Global::<f64>::sum(1, "rms");
    let h = op2
        .loop_("update", &empty)
        .arg(gbl_inc(&g))
        .run(|acc: &mut [f64]| acc[0] += 1.0);
    h.wait();
    assert_eq!(g.get_scalar(), 0.0, "identity after zero partials");

    let cells = op2.decl_set(10, "cells");
    op2.loop_("update", &cells)
        .arg(gbl_inc(&g))
        .run(|acc: &mut [f64]| acc[0] += 1.0);
    let red = g.reduce_async(&op2);
    op2.fence();
    assert_eq!(red.get_scalar(), 10.0);
}

/// An in-flight asynchronous read is part of the global's wait-set:
/// `reset()` (and any later incrementing loop) orders *after* the pending
/// snapshot, so the future observes exactly the value at read-submission
/// time — never the cleared value, never a later loop's increments.
#[test]
fn reset_and_later_loops_order_after_pending_async_reads() {
    // Single-context reduce_async: step protocol with a reset per step.
    let op2 = Op2::new(Op2Config::dataflow(2));
    let cells = op2.decl_set(16, "cells");
    let g = Global::<f64>::sum(1, "rms");
    op2.loop_("step1", &cells)
        .arg(gbl_inc(&g))
        .run(|acc: &mut [f64]| acc[0] += 1.0);
    let red1 = g.reduce_async(&op2);
    // A later incrementing loop must not leak into red1's snapshot …
    op2.loop_("step2", &cells)
        .arg(gbl_inc(&g))
        .run(|acc: &mut [f64]| acc[0] += 1.0);
    let red2 = g.reduce_async(&op2);
    // … and reset must not clobber either pending snapshot.
    g.reset();
    assert_eq!(red1.get_scalar(), 16.0, "red1 saw step2 or the reset");
    assert_eq!(red2.get_scalar(), 32.0, "red2 saw the reset");
    assert_eq!(g.get_scalar(), 0.0);

    // The allreduce contribution nodes follow the same discipline.
    let group = LocalityGroup::new(Op2Config::dataflow(2), 2);
    let globals: Vec<Global<f64>> = (0..2).map(|_| Global::<f64>::sum(1, "rms")).collect();
    for (r, g) in globals.iter().enumerate() {
        let cells = group.rank(r).decl_set(8, "cells");
        group
            .rank(r)
            .loop_("update", &cells)
            .arg(gbl_inc(g))
            .run(|acc: &mut [f64]| acc[0] += 1.0);
    }
    let red = group.allreduce(&globals);
    for g in &globals {
        g.reset();
    }
    assert_eq!(red.get_scalar(), 16.0, "reset clobbered a contribution");
}

/// Satellite 3: printing every iteration must not stall submission. The
/// first iteration's update is hostage, yet every later iteration —
/// including its allreduce and chained "print" node — is submitted and
/// later iterations' reduces *complete* while iteration 0 is still
/// hostage (the pipelining the blocking `get_scalar` sum destroyed).
/// Releasing the hostage flushes the chained prints in order.
#[test]
fn per_iteration_reduction_prints_do_not_stall_the_pipeline() {
    const ITERS: usize = 6;
    let group = LocalityGroup::new(Op2Config::dataflow(2), 2);
    let cells: Vec<_> = (0..2)
        .map(|r| group.rank(r).decl_set(32, "cells"))
        .collect();
    let gate = Arc::new(Event::new());
    let lines: Arc<Mutex<Vec<(usize, f64)>>> = Arc::new(Mutex::new(Vec::new()));

    let mut reds: Vec<ReducedFuture<f64>> = Vec::new();
    let mut last_print = None;
    for iter in 0..ITERS {
        let globals: Vec<Global<f64>> = (0..2).map(|_| Global::<f64>::sum(1, "rms")).collect();
        for r in 0..2 {
            let hostage = (iter == 0 && r == 0).then(|| Arc::clone(&gate));
            let v = (iter * 2 + r) as f64;
            group
                .rank(r)
                .loop_("update", &cells[r])
                .arg(gbl_inc(&globals[r]))
                .run(move |acc: &mut [f64]| {
                    if let Some(g) = &hostage {
                        g.wait();
                    }
                    acc[0] += v;
                });
        }
        let red = group.allreduce(&globals);
        // The "residual print": ordered behind the previous line, never a
        // blocking read on the submitting thread.
        let after: Vec<_> = last_print.iter().cloned().collect();
        let sink = Arc::clone(&lines);
        last_print = Some(red.then_after(&after, move |v| {
            sink.lock().expect("lines lock").push((iter, v[0]));
        }));
        reds.push(red);
    }

    // Submission of all ITERS iterations finished (we are here) while
    // iteration 0 is still hostage; later iterations' reduces complete.
    wait_until("later reduces complete while iter 0 is hostage", || {
        reds[1..].iter().all(ReducedFuture::is_ready)
    });
    assert!(!reds[0].is_ready(), "iteration 0 must still be hostage");
    assert!(
        lines.lock().expect("lines lock").is_empty(),
        "print chain must hold every line behind the hostage iteration"
    );

    gate.set();
    group.fence();
    let printed = lines.lock().expect("lines lock").clone();
    let expected: Vec<(usize, f64)> = (0..ITERS)
        .map(|i| (i, 32.0 * (i * 2) as f64 + 32.0 * (i * 2 + 1) as f64))
        .collect();
    assert_eq!(printed, expected, "lines must flush ordered and complete");
}

/// A sharded run with `print_every: 1` (a reduction consumed every
/// iteration) produces exactly the history of a silent run — the
/// future-chained print path changes no physics and never deadlocks.
/// A fixed Static chunk policy pins the node granularity: the default
/// `Auto` policy sizes nodes from measured timings, which legitimately
/// varies the chunk plan (and thus the last ULP of float partial
/// grouping) between runs — that wobble is adaptive-chunking behavior,
/// not the print path under test.
#[test]
fn run_sharded_printing_every_iteration_matches_silent_run() {
    use op2_hpx::op2::ChunkPolicy;
    let config = || Op2Config::dataflow(2).with_chunk(ChunkPolicy::Static { size: 64 });
    let mesh = channel_with_bump(12, 6);
    let silent = {
        let mut shp = ShardedProblem::declare(config(), &mesh, 3);
        run(
            &mut ShardedAirfoil::new(&mut shp, 0.0),
            RunConfig::iterations(4, 2),
        )
    };
    let printing = {
        let mut shp = ShardedProblem::declare(config(), &mesh, 3);
        run(
            &mut ShardedAirfoil::new(&mut shp, 0.0),
            RunConfig {
                print_every: 1,
                ..RunConfig::iterations(4, 2)
            },
        )
    };
    assert_eq!(silent.residuals, printing.residuals);
}
