//! Measured-convergence harness for feedback-driven adaptive chunking on
//! the Dataflow backend (ISSUE 4 tentpole).
//!
//! Every test injects a **fake clock** (`hpx_rt::timing::Clock::fake`)
//! into the granularity feedback and has the "kernel" advance it by a
//! synthetic per-element cost, so the feedback loop observes exactly the
//! costs the test scripted — convergence, the converged value, and the
//! loop-spec cache's re-plan accounting are all asserted deterministically
//! on a single-worker runtime.
//!
//! The known-optimal granularity of a uniform workload is
//! `pow2_round(target / per_element_cost)` (power-of-two quantization is
//! the chunker's hysteresis), subject to the load-balance cap — the test
//! parameters are chosen so the cap never binds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use op2_hpx::hpx::timing::Clock;
use op2_hpx::op2::args::{inc_via, write};
use op2_hpx::op2::ChunkPolicy;
use op2_hpx::op2::{dataflow_resolved_block_size as resolved, Op2, Op2Config};

/// A dataflow context on one worker with a fake clock and a 128µs `Auto`
/// target: 1µs/element cost resolves to 128-element nodes.
fn fake_clock_world(clock: &Clock) -> Op2 {
    Op2::new(
        Op2Config::dataflow(1)
            .with_clock(clock.clone())
            .with_chunk(ChunkPolicy::Auto {
                target: Duration::from_micros(128),
            }),
    )
}

/// Uniform synthetic cost: the chunker must converge to the known-optimal
/// granularity after ONE measured iteration and then stop re-planning —
/// exactly one re-plan total, every later submission a spec-cache hit.
#[test]
fn converges_to_known_optimal_for_uniform_cost() {
    let clock = Clock::fake();
    let op2 = fake_clock_world(&clock);
    let cells = op2.decl_set(16_384, "cells");
    let x = op2.decl_dat(&cells, 1, "x", vec![0.0f64; 16_384]);

    // Probe default before any measurement: the mini-partition block size.
    assert_eq!(resolved(&op2, "uniform", &cells), 256);

    let mut history = Vec::new();
    for _ in 0..6 {
        let c = clock.clone();
        op2.loop_("uniform", &cells)
            .arg(write(&x))
            .run(move |x: &mut [f64]| {
                c.advance(Duration::from_micros(1)); // 1µs per element
                x[0] += 1.0;
            })
            .wait();
        history.push(resolved(&op2, "uniform", &cells));
    }
    // Known optimal: 128µs target / 1µs per element = 128, already a power
    // of two; converged after the first measured iteration, stable after.
    assert_eq!(history, vec![128; 6], "converged after one iteration");

    let (built, hits) = op2.spec_cache_stats();
    assert_eq!(built, 1, "one live schedule for the shape");
    assert_eq!(
        op2.spec_cache_replans(),
        1,
        "one granularity change = one re-plan"
    );
    assert_eq!(hits, 4, "6 submissions = 1 miss + 1 re-plan + 4 hits");
    assert!(x.snapshot().iter().all(|&v| v == 6.0), "results unchanged");
}

/// Skewed per-element cost (alternating cheap/expensive elements): the
/// EWMA sees each node's *mean* cost, and the chunker converges to the
/// optimum for that mean — same guarantee, same single re-plan.
#[test]
fn converges_to_mean_cost_optimum_for_skewed_cost() {
    let clock = Clock::fake();
    let op2 = fake_clock_world(&clock);
    let cells = op2.decl_set(16_384, "cells");
    // Seed each element with its index: adding 2 per iteration preserves
    // parity, so element costs stay skewed the same way every iteration.
    let x = op2.decl_dat(
        &cells,
        1,
        "x",
        (0..16_384).map(|i| i as f64).collect::<Vec<_>>(),
    );

    for _ in 0..5 {
        let c = clock.clone();
        op2.loop_("skewed", &cells)
            .arg(write(&x))
            .run(move |x: &mut [f64]| {
                // Elements alternate 500ns / 1500ns -> every (even-sized)
                // node measures a 1µs mean.
                let cost = if (x[0] as usize).is_multiple_of(2) {
                    500
                } else {
                    1500
                };
                c.advance(Duration::from_nanos(cost));
                x[0] += 2.0;
            })
            .wait();
    }
    // Mean cost 1µs -> same 128-element optimum as the uniform workload.
    assert_eq!(resolved(&op2, "skewed", &cells), 128);
    assert_eq!(op2.spec_cache_replans(), 1, "skew must not cause churn");
    let snapshot = op2.granularity_feedback().snapshot();
    assert_eq!(snapshot.len(), 1, "one (kernel, set) entry");
    let (ref kernel, _, cost) = snapshot[0];
    assert_eq!(kernel, "skewed");
    assert!(
        (cost.ewma_ns_per_elem - 1000.0).abs() < 1.0,
        "EWMA holds the mean cost, got {}",
        cost.ewma_ns_per_elem
    );
}

/// A workload **phase change mid-solve** (per-element cost jumps 4x): the
/// feedback snaps to the new cost, the resolved granularity moves once,
/// and the loop-spec cache re-plans **exactly once** for the change —
/// asserted on this world's own counter; the process-wide
/// `op2.spec_cache.replans` named counter is a roll-up over every world in
/// the process (sibling tests bump it concurrently), so it can only be
/// required to include this world's share.
#[test]
fn granularity_change_mid_solve_replans_exactly_once() {
    let clock = Clock::fake();
    let op2 = fake_clock_world(&clock);
    let cells = op2.decl_set(16_384, "cells");
    let x = op2.decl_dat(&cells, 1, "x", vec![0.0f64; 16_384]);
    let cost_ns = Arc::new(AtomicU64::new(1000));

    let run_iter = || {
        let c = clock.clone();
        let cost = Arc::clone(&cost_ns);
        op2.loop_("phased", &cells)
            .arg(write(&x))
            .run(move |x: &mut [f64]| {
                c.advance(Duration::from_nanos(cost.load(Ordering::Relaxed)));
                x[0] += 1.0;
            })
            .wait();
    };

    // Phase 1: converge at 1µs/element -> 128.
    for _ in 0..3 {
        run_iter();
    }
    assert_eq!(resolved(&op2, "phased", &cells), 128);
    let replans_before = op2.spec_cache_replans();
    let global_before = op2_hpx::hpx::stats::snapshot();
    assert_eq!(
        replans_before, 1,
        "initial convergence off the probe default"
    );

    // Phase 2: the kernel gets 4x heavier mid-solve. A few consecutive
    // out-of-band nodes make a phase change and the EWMA snaps, well
    // within one measured iteration (128 nodes), so the next submissions
    // re-plan once to 128µs/4µs = 32 and then hit.
    cost_ns.store(4000, Ordering::Relaxed);
    for _ in 0..4 {
        run_iter();
    }
    assert_eq!(
        resolved(&op2, "phased", &cells),
        32,
        "new optimum after the change"
    );
    assert_eq!(
        op2.spec_cache_replans() - replans_before,
        1,
        "one granularity change = exactly one re-plan"
    );
    assert!(
        global_before.delta("op2.spec_cache.replans") >= op2.spec_cache_replans() - replans_before,
        "process-wide op2.spec_cache.replans rolls up the context counter"
    );
    assert!(x.snapshot().iter().all(|&v| v == 7.0), "results unchanged");
}

/// The feedback must tell a **pre-empted node** from a phase change: one
/// node reading 100x (here: the last node of one iteration, so nothing
/// after it in that iteration can pull the estimate back) among steady
/// ones leaves the resolved granularity and the re-plan count where they
/// were, while a sustained 4x shift still moves both — once.
#[test]
fn lone_outlier_node_keeps_granularity_but_a_sustained_shift_moves_it() {
    let clock = Clock::fake();
    let op2 = fake_clock_world(&clock);
    let n = 16_384usize;
    let cells = op2.decl_set(n, "cells");
    let x = op2.decl_dat(&cells, 1, "x", vec![0.0f64; n]);
    let cost_ns = Arc::new(AtomicU64::new(1000));
    // Extra nanoseconds charged to the last element an iteration executes.
    let spike_ns = Arc::new(AtomicU64::new(0));

    let run_iter = || {
        let c = clock.clone();
        let cost = Arc::clone(&cost_ns);
        let spike = Arc::clone(&spike_ns);
        let executed = AtomicU64::new(0);
        op2.loop_("spiky", &cells)
            .arg(write(&x))
            .run(move |x: &mut [f64]| {
                let mut ns = cost.load(Ordering::Relaxed);
                if executed.fetch_add(1, Ordering::Relaxed) + 1 == n as u64 {
                    ns += spike.load(Ordering::Relaxed);
                }
                c.advance(Duration::from_nanos(ns));
                x[0] += 1.0;
            })
            .wait();
    };

    for _ in 0..3 {
        run_iter();
    }
    assert_eq!(resolved(&op2, "spiky", &cells), 128);
    assert_eq!(op2.spec_cache_replans(), 1, "convergence off the probe");

    // One 128-element node takes 100x its usual 128µs.
    spike_ns.store(99 * 128 * 1000, Ordering::Relaxed);
    run_iter();
    spike_ns.store(0, Ordering::Relaxed);
    assert_eq!(
        resolved(&op2, "spiky", &cells),
        128,
        "a lone 100x node must not re-size the next submission"
    );
    for _ in 0..3 {
        run_iter();
    }
    assert_eq!(resolved(&op2, "spiky", &cells), 128);
    assert_eq!(op2.spec_cache_replans(), 1, "no re-plan for an outlier");

    // A sustained 4x shift is a phase change and still moves it, once.
    cost_ns.store(4000, Ordering::Relaxed);
    for _ in 0..3 {
        run_iter();
    }
    assert_eq!(resolved(&op2, "spiky", &cells), 32);
    assert_eq!(op2.spec_cache_replans(), 2, "one re-plan for the shift");
    assert!(x.snapshot().iter().all(|&v| v == 10.0), "results unchanged");
}

/// Adaptive granularity on a **colored (indirect) loop**: the resolved
/// granularity is the coloring block size, a granularity change rebuilds
/// the plan once, and the increments stay exact across the change.
#[test]
fn colored_loops_adapt_and_stay_exact_across_a_change() {
    let clock = Clock::fake();
    let op2 = fake_clock_world(&clock);
    let n = 4096;
    let edges = op2.decl_set(n, "edges");
    let nodes = op2.decl_set(n, "nodes");
    let mut idx = Vec::with_capacity(2 * n);
    for e in 0..n {
        idx.push(e as u32);
        idx.push(((e + 1) % n) as u32);
    }
    let ring = op2.decl_map(&edges, &nodes, 2, idx, "ring");
    let acc = op2.decl_dat(&nodes, 1, "acc", vec![0.0f64; n]);
    let cost_ns = Arc::new(AtomicU64::new(500));

    let iters = 6usize;
    for i in 0..iters {
        if i == 3 {
            cost_ns.store(2000, Ordering::Relaxed); // phase change
        }
        let c = clock.clone();
        let cost = Arc::clone(&cost_ns);
        op2.loop_("ring_inc", &edges)
            .arg(inc_via(&acc, &ring, 0))
            .arg(inc_via(&acc, &ring, 1))
            .run(move |a: &mut [f64], b: &mut [f64]| {
                c.advance(Duration::from_nanos(cost.load(Ordering::Relaxed)));
                a[0] += 1.0;
                b[0] += 1.0;
            })
            .wait();
    }
    // 500ns -> 128µs/500ns = 256 (= probe default, no re-plan!); then
    // 2µs -> 64: exactly one granularity change in the whole run.
    assert_eq!(resolved(&op2, "ring_inc", &edges), 64);
    assert_eq!(op2.spec_cache_replans(), 1);
    // Plans exist for both coloring granularities; the partition+coloring
    // invariant held across the change: every node got 2 increments per
    // iteration.
    let (plans_built, _) = op2.plan_cache_stats();
    assert_eq!(plans_built, 2, "one colored plan per granularity");
    assert!(acc.snapshot().iter().all(|&v| v == 2.0 * iters as f64));
}

/// `Auto` on Dataflow is the paper's `persistent_auto_chunk_size` (Fig
/// 12b): one target duration across *kernels*, so a kernel with a
/// different cost gets a different size but the same node duration — and
/// each kernel's granularity change re-plans its own schedule exactly once.
#[test]
fn persistent_auto_calibrates_once_and_replans_once_per_kernel() {
    let clock = Clock::fake();
    let op2 = Op2::new(Op2Config::dataflow(1).with_clock(clock.clone()).with_chunk(
        ChunkPolicy::Auto {
            target: Duration::from_micros(256),
        },
    ));
    let cells = op2.decl_set(16_384, "cells");
    let x = op2.decl_dat(&cells, 1, "x", vec![0.0f64; 16_384]);

    for _ in 0..2 {
        let c = clock.clone();
        op2.loop_("light", &cells)
            .arg(write(&x))
            .run(move |_: &mut [f64]| c.advance(Duration::from_micros(1)))
            .wait();
    }
    for _ in 0..2 {
        let c = clock.clone();
        op2.loop_("heavy", &cells)
            .arg(write(&x))
            .run(move |_: &mut [f64]| c.advance(Duration::from_micros(8)))
            .wait();
    }
    let light = resolved(&op2, "light", &cells);
    let heavy = resolved(&op2, "heavy", &cells);
    assert_eq!(light, 256, "256µs / 1µs");
    assert_eq!(heavy, 32, "256µs / 8µs — equal duration, 8x smaller nodes");
    // Fig 12b: same node *time* (size x per-element cost), different sizes.
    assert_eq!(light * 1_000, heavy * 8_000);
    // light converged *at* the probe default (no re-plan); heavy probed at
    // 256 then moved to 32 (one re-plan).
    assert_eq!(op2.spec_cache_replans(), 1);
}

/// A world's cost table records on the world's clock: the table has no
/// clock of its own.
#[test]
fn a_shared_table_records_on_the_world_clock() {
    let clock = Clock::fake();
    let op2 = Op2::new(Op2Config::dataflow(1).with_clock(clock.clone()));
    let cells = op2.decl_set(1024, "cells");
    let x = op2.decl_dat(&cells, 1, "x", vec![0.0f64; 1024]);
    let c = clock.clone();
    op2.loop_("timed", &cells)
        .arg(write(&x))
        .run(move |_: &mut [f64]| c.advance(Duration::from_micros(3)))
        .wait();
    let snapshot = op2.granularity_feedback().snapshot();
    assert_eq!(snapshot.len(), 1, "one (kernel, set) entry");
    assert_eq!(
        snapshot[0].2.ewma_ns_per_elem, 3_000.0,
        "the fake clock's 3µs per element, exactly"
    );
}
