//! What submitting a dataflow loop costs, pinned as counts rather than
//! times: Airfoil on the 4k-cell mesh under `Op2Config::dataflow(3)` with a
//! `Static` chunk policy (no feedback, so the graph's shape is a function
//! of the mesh alone).
//!
//! The workers are held while the iterations are submitted, so every
//! producer is still pending when its consumers are wired: the edge count
//! is then the full dependency graph — nothing skipped as already complete
//! — and repeats exactly from run to run.

use std::sync::{Arc, Barrier};

use op2_hpx::airfoil::{PlainAirfoil, Problem};
use op2_hpx::app::AppInstance;
use op2_hpx::hpx::ChunkPolicy;
use op2_hpx::mesh::channel_with_bump;
use op2_hpx::op2::testing::dep_records;
use op2_hpx::op2::{Op2, Op2Config, SubmitStats};

const ITERS: u64 = 6;

/// Distinct dats per loop, summed over one iteration: `save_soln` {q,
/// qold}, then twice `adt_calc` {x, q, adt}, `res_calc` {x, q, adt, res},
/// `bres_calc` {x, q, adt, res, bound} and `update` {qold, q, res, adt}
/// (`rms` is a global, not a dat).
const RECORDS_PER_ITER: u64 = 2 + 2 * (3 + 4 + 5 + 4);

/// Submits `ITERS` iterations with both workers held, releases them,
/// fences, and returns the submission counters.
fn submit_with_workers_held() -> SubmitStats {
    // Three threads: two background workers to hold, this thread in the slot.
    let config = Op2Config::dataflow(3).with_chunk(ChunkPolicy::Static { size: 256 });
    let op2 = Op2::new(config);
    let mesh = channel_with_bump(90, 45);
    let p = Problem::declare(&op2, &mesh);
    assert_eq!(p.cells.size(), 4050);

    let held = Arc::new(Barrier::new(3));
    let release = Arc::new(Barrier::new(3));
    for _ in 0..2 {
        let (held, release) = (Arc::clone(&held), Arc::clone(&release));
        // A plain barrier blocks the worker thread itself: no helping.
        op2.runtime().spawn(move || {
            held.wait();
            release.wait();
        });
    }
    held.wait();

    let mut inst = PlainAirfoil::new(&op2, &p);
    let residuals: Vec<_> = (0..ITERS as usize).map(|i| inst.step(i).residual).collect();
    let stats = op2.submit_stats();
    release.wait();
    op2.fence();
    assert!(residuals
        .iter()
        .all(|r| r.get_scalar().is_finite() && r.get_scalar() > 0.0));
    stats
}

#[test]
fn submission_counts_are_exact_and_repeat() {
    let first = submit_with_workers_held();
    assert_eq!(
        first.edges_collected, first.edges_wired,
        "a duplicate edge reached the runtime's own dedup"
    );
    assert_eq!(
        first.records_pushed,
        RECORDS_PER_ITER * ITERS,
        "one access record per loop and distinct dat"
    );
    // 16 blocks of 256 cells, 32 of edges, 2 of boundary edges.
    assert_eq!(first.nodes, (16 + 2 * (16 + 32 + 2 + 16)) * ITERS);
    assert!(first.edges_collected > first.nodes, "the graph has edges");
    assert!(first.submit_ns > 0);

    let second = submit_with_workers_held();
    assert_eq!(
        (second.nodes, second.edges_collected, second.records_pushed),
        (first.nodes, first.edges_collected, first.records_pushed),
        "same mesh, same policy, same graph"
    );
}

/// `x` is only ever read: no write record will ever cover its read
/// records, so completion alone must retire them.
#[test]
fn a_read_only_dat_pins_nothing_once_its_readers_are_done() {
    let op2 = Op2::new(Op2Config::dataflow(2).with_chunk(ChunkPolicy::Static { size: 256 }));
    let mesh = channel_with_bump(90, 45);
    let p = Problem::declare(&op2, &mesh);
    let mut inst = PlainAirfoil::new(&op2, &p);
    for i in 0..50 {
        let _ = inst.step(i);
    }
    op2.fence();
    // Consulting the table (here: a read guard's wait) drops every
    // completed record; none of the 300 loops that read `x` is left.
    drop(p.p_x.read());
    assert_eq!(dep_records(&p.p_x), 0);
    drop(p.p_q.read());
    assert_eq!(dep_records(&p.p_q), 0);
}

/// The node-duration floor reaches a real application. On a clock that
/// never advances every node measures as free, so every loop's whole body
/// is "a few microseconds": after the warm-up each of the nine loops of an
/// iteration is one node, `bres_calc` (which the load-balance cap alone
/// would cut into five) included; without the floor the cap cuts every
/// loop into four nodes or more (66 per iteration on the real clock).
#[test]
fn loops_of_a_few_microseconds_are_one_node_each() {
    use op2_hpx::hpx::timing::Clock;
    use op2_hpx::op2::dataflow_resolved_block_size as resolved;

    let op2 = Op2::new(Op2Config::dataflow(2).with_clock(Clock::fake()));
    let mesh = channel_with_bump(90, 45);
    let p = Problem::declare(&op2, &mesh);
    let mut inst = PlainAirfoil::new(&op2, &p);
    for i in 0..3 {
        let _ = inst.step(i);
    }
    op2.fence();
    assert!(resolved(&op2, "bres_calc", &p.bedges) >= p.bedges.size());
    let warm = op2.submit_stats().nodes;
    for i in 3..3 + ITERS as usize {
        let _ = inst.step(i);
    }
    op2.fence();
    let per_iter = (op2.submit_stats().nodes - warm) / ITERS;
    assert_eq!(per_iter, 1 + 2 * 4, "one node per loop");
}
