//! Chunking, asserted through the public API: the chunked `par` loop
//! visits every index exactly once at any chunk length, and the chunk
//! policy sets Dataflow node granularity and fork-join chunk lengths.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use op2_hpx::hpx::timing::Clock;
use op2_hpx::hpx::{for_each_chunk, Runtime};
use op2_hpx::op2::args::{read, write};
use op2_hpx::op2::{ChunkPolicy, Op2, Op2Config};

#[test]
fn par_visits_exactly_once() {
    let rt = Runtime::new(4);
    let hits: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
    for_each_chunk(&rt, 100, 0..hits.len(), |r| {
        for i in r {
            hits[i].fetch_add(1, Ordering::Relaxed);
        }
    });
    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}

#[test]
fn chunk_policies_compose_with_any_policy() {
    let rt = Runtime::new(2);
    for len in [1, 7, 2469, 20_000] {
        let counter = AtomicUsize::new(0);
        for_each_chunk(&rt, len, 0..12_345, |r| {
            counter.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.into_inner(), 12_345);
    }
}

/// The chunk policy governs Dataflow node granularity: `Static` and
/// `NumChunks` set it directly, and `Auto` resolves it from *measured
/// feedback* — the conservative block-size default before the first
/// measurement, duration-targeted sizes after.
#[test]
fn chunk_policy_sets_dataflow_direct_node_granularity() {
    use op2_hpx::op2::dataflow_resolved_block_size as resolved;

    // The blocks a direct loop named `kernel` over `set` is cut into.
    let blocks_of = |op2: &Op2, kernel: &str, set: &op2_hpx::op2::Set| {
        let (n, bs) = (set.size(), resolved(op2, kernel, set));
        (0..n.div_ceil(bs))
            .map(|b| b * bs..((b + 1) * bs).min(n))
            .collect::<Vec<_>>()
    };

    let static_cfg = Op2::new(Op2Config::dataflow(2).with_chunk(ChunkPolicy::Static { size: 100 }));
    let cells = static_cfg.decl_set(1000, "cells");
    let b = blocks_of(&static_cfg, "k", &cells);
    assert_eq!(b.len(), 10);
    assert!(b.iter().all(|r| r.len() == 100), "Static{{100}} nodes");

    let numchunks_cfg =
        Op2::new(Op2Config::dataflow(2).with_chunk(ChunkPolicy::NumChunks { chunks: 4 }));
    let cells = numchunks_cfg.decl_set(1000, "cells");
    let b = blocks_of(&numchunks_cfg, "k", &cells);
    assert_eq!(b.len(), 4, "NumChunks{{4}} yields 4 nodes");
    assert_eq!(b[0].len(), 250);

    // Auto (the default) uses the configured block size only until
    // feedback exists — it is the probe default, not a fallback.
    let auto_cfg = Op2::new(Op2Config::dataflow(2).with_block_size(128));
    let cells = auto_cfg.decl_set(1000, "cells");
    let b = blocks_of(&auto_cfg, "k", &cells);
    assert!(b.iter().take(b.len() - 1).all(|r| r.len() == 128));
}

/// `Auto` no longer falls back to `block_size` on Dataflow: once a loop
/// has executed, its measured per-element cost resolves the node
/// granularity to hit the configured target duration. Proven with a fake
/// clock so the "cost" is exact.
#[test]
fn auto_granularity_is_feedback_resolved_on_dataflow() {
    use op2_hpx::op2::dataflow_resolved_block_size as resolved;

    let clock = Clock::fake();
    let op2 = Op2::new(Op2Config::dataflow(1).with_clock(clock.clone()).with_chunk(
        ChunkPolicy::Auto {
            target: Duration::from_micros(128),
        },
    ));
    let cells = op2.decl_set(4096, "cells");
    let x = op2.decl_dat(&cells, 1, "x", vec![0.0f64; 4096]);
    // Probe default before any feedback: the mini-partition block size.
    assert_eq!(resolved(&op2, "work", &cells), 256);

    let c = clock.clone();
    op2.loop_("work", &cells)
        .arg(write(&x))
        .run(move |_: &mut [f64]| c.advance(Duration::from_micros(1)))
        .wait();
    // 1µs/element measured, 128µs target -> 128-element nodes.
    assert_eq!(resolved(&op2, "work", &cells), 128);
    // Other kernels and sets are unaffected (feedback is per kernel+set).
    assert_eq!(resolved(&op2, "other", &cells), 256);
}

/// `Auto` on fork-join is the same feedback loop: a loop records its
/// whole-loop cost, and its next run is cut at the length Dataflow's rule
/// resolves. On one thread the caller runs every chunk itself, so the
/// runtime's `caller_chunks` counts them.
#[test]
fn auto_sizes_fork_join_chunks_from_the_measured_cost() {
    let clock = Clock::fake();
    let op2 = Op2::new(
        Op2Config::fork_join(1)
            .with_clock(clock.clone())
            .with_chunk(ChunkPolicy::Auto {
                target: Duration::from_micros(128),
            }),
    );
    let cells = op2.decl_set(4096, "cells");
    let x = op2.decl_dat(&cells, 1, "x", vec![0.0f64; 4096]);
    let chunks_of_one_run = || {
        let before = op2.runtime().stats().caller_chunks;
        let c = clock.clone();
        op2.loop_("work", &cells)
            .arg(write(&x))
            .run(move |_: &mut [f64]| c.advance(Duration::from_micros(1)))
            .wait();
        op2.runtime().stats().caller_chunks - before
    };
    // Nothing measured yet: chunks of the mini-partition block size.
    assert_eq!(chunks_of_one_run(), 4096 / 256);
    // 1µs/element measured, 128µs target -> 128-element chunks.
    assert_eq!(chunks_of_one_run(), 4096 / 128);
}

/// `Auto` on Dataflow is the paper's `persistent_auto_chunk_size` (Fig
/// 12b): every kernel's nodes aim for the one target duration, so a
/// heavier kernel gets proportionally smaller nodes and every node takes
/// the *same time*.
#[test]
fn persistent_auto_equalizes_node_durations_across_kernels() {
    use op2_hpx::op2::dataflow_resolved_block_size as resolved;

    let clock = Clock::fake();
    let op2 = Op2::new(Op2Config::dataflow(1).with_clock(clock.clone()).with_chunk(
        ChunkPolicy::Auto {
            target: Duration::from_micros(100),
        },
    ));
    let cells = op2.decl_set(8192, "cells");
    let a = op2.decl_dat(&cells, 1, "a", vec![0.0f64; 8192]);

    let c = clock.clone();
    op2.loop_("light", &cells)
        .arg(write(&a))
        .run(move |_: &mut [f64]| c.advance(Duration::from_micros(1)))
        .wait();
    let light = resolved(&op2, "light", &cells);
    assert_eq!(light, 128, "100µs / 1µs, power-of-two quantized");

    let c = clock.clone();
    op2.loop_("heavy", &cells)
        .arg(write(&a))
        .run(move |_: &mut [f64]| c.advance(Duration::from_micros(4)))
        .wait();
    let heavy = resolved(&op2, "heavy", &cells);
    assert_eq!(heavy, 32, "4x the cost -> 1/4 the elements per node");
    // Same node *time* (size x per-element cost), different sizes — the
    // Fig 12b property.
    assert_eq!(light * 1_000, heavy * 4_000);
}

/// Dataflow results are identical regardless of the chunk-driven node
/// granularity, including dependent-loop chains, under every policy.
#[test]
fn dataflow_chunked_granularity_preserves_results() {
    for chunk in [
        ChunkPolicy::Static { size: 37 },
        ChunkPolicy::NumChunks { chunks: 3 },
        ChunkPolicy::default(),
    ] {
        let op2 = Op2::new(Op2Config::dataflow(2).with_chunk(chunk));
        let cells = op2.decl_set(1000, "cells");
        let a = op2.decl_dat(&cells, 1, "a", vec![1.0f64; 1000]);
        let b = op2.decl_dat(&cells, 1, "b", vec![0.0f64; 1000]);
        for _ in 0..5 {
            op2.loop_("fwd", &cells)
                .arg(read(&a))
                .arg(write(&b))
                .run(|a: &[f64], b: &mut [f64]| b[0] = a[0] * 2.0);
            op2.loop_("bwd", &cells)
                .arg(read(&b))
                .arg(write(&a))
                .run(|b: &[f64], a: &mut [f64]| a[0] = b[0] + 1.0);
        }
        op2.fence();
        // x -> 2x+1 five times from 1.0 = 63.
        assert!(a.snapshot().iter().all(|&v| v == 63.0));
    }
}
