//! Edge-case coverage of the OP2 layer: broadcast globals, direct
//! increments, future handles as explicit dataflow inputs, tiny sets,
//! measuring chunkers under fork-join, and min/max reductions.

use op2_core::hpx_rt::dataflow;
use op2_core::{
    arg_gbl_inc, arg_gbl_read, arg_inc, arg_read, arg_write, Global, Op2, Op2Config, ReduceOp,
};

#[test]
fn gbl_read_broadcasts_current_value() {
    for config in [
        Op2Config::seq(),
        Op2Config::fork_join(2),
        Op2Config::dataflow(2),
    ] {
        let op2 = Op2::new(config);
        let cells = op2.decl_set(1000, "cells");
        let x = op2.decl_dat(&cells, 1, "x", vec![0.0f64; 1000]);
        let scale = Global::<f64>::sum(1, "scale");
        scale.set(&[2.5]);
        op2.loop_("broadcast", &cells)
            .arg(arg_gbl_read(&scale))
            .arg(arg_write(&x))
            .run(|s: &[f64], x: &mut [f64]| x[0] = s[0] * 2.0)
            .wait();
        assert!(x.snapshot().iter().all(|&v| v == 5.0));
    }
}

#[test]
fn gbl_inc_after_gbl_read_orders_correctly_under_dataflow() {
    let op2 = Op2::new(Op2Config::dataflow(2));
    let cells = op2.decl_set(10_000, "cells");
    let x = op2.decl_dat(&cells, 1, "x", vec![1.0f64; 10_000]);
    let g = Global::<f64>::sum(1, "g");
    // Loop 1 accumulates into g; loop 2 broadcasts g into x. The pending
    // future must serialize them even though both are async.
    op2.loop_("accumulate", &cells)
        .arg(arg_read(&x))
        .arg(arg_gbl_inc(&g))
        .run(|x: &[f64], g: &mut [f64]| g[0] += x[0]);
    op2.loop_("broadcast", &cells)
        .arg(arg_gbl_read(&g))
        .arg(arg_write(&x))
        .run(|g: &[f64], x: &mut [f64]| x[0] = g[0]);
    op2.fence();
    assert!(x.snapshot().iter().all(|&v| v == 10_000.0));
}

#[test]
fn direct_increment_accumulates() {
    let op2 = Op2::new(Op2Config::fork_join(2));
    let cells = op2.decl_set(5000, "cells");
    let acc = op2.decl_dat(&cells, 2, "acc", vec![1.0f64; 10_000]);
    for _ in 0..3 {
        op2.loop_("bump", &cells)
            .arg(arg_inc(&acc))
            .run(|a: &mut [f64]| {
                a[0] += 1.0;
                a[1] += 2.0;
            })
            .wait();
    }
    let snap = acc.snapshot();
    assert!(snap.chunks_exact(2).all(|c| c == [4.0, 7.0]));
}

#[test]
fn loop_handle_future_feeds_hpx_dataflow() {
    let op2 = Op2::new(Op2Config::dataflow(2));
    let cells = op2.decl_set(1000, "cells");
    let x = op2.decl_dat(&cells, 1, "x", vec![3.0f64; 1000]);
    let h = op2
        .loop_("triple", &cells)
        .arg(op2_core::arg_rw(&x))
        .run(|x: &mut [f64]| {
            x[0] *= 3.0;
        });
    // The loop's completion future is a first-class dataflow input.
    let x2 = x.clone();
    let summed = dataflow(
        op2.runtime(),
        move |((),)| x2.snapshot().iter().sum::<f64>(),
        (h.future(),),
    );
    assert_eq!(summed.get(), 9.0 * 1000.0);
}

#[test]
fn single_element_set() {
    for config in [
        Op2Config::seq(),
        Op2Config::fork_join(2),
        Op2Config::dataflow(2),
    ] {
        let op2 = Op2::new(config);
        let s = op2.decl_set(1, "one");
        let d = op2.decl_dat(&s, 3, "d", vec![1.0f64, 2.0, 3.0]);
        op2.loop_("negate", &s)
            .arg(op2_core::arg_rw(&d))
            .run(|v: &mut [f64]| {
                for x in v {
                    *x = -*x;
                }
            })
            .wait();
        assert_eq!(d.snapshot(), vec![-1.0, -2.0, -3.0]);
    }
}

#[test]
fn fork_join_with_measuring_chunker_is_correct() {
    use op2_core::ChunkPolicy;
    let op2 = Op2::new(Op2Config::fork_join(2).with_chunk(ChunkPolicy::default()));
    let cells = op2.decl_set(50_000, "cells");
    let x = op2.decl_dat(&cells, 1, "x", vec![1.0f64; 50_000]);
    let total = Global::<f64>::sum(1, "total");
    op2.loop_("sum", &cells)
        .arg(arg_read(&x))
        .arg(arg_gbl_inc(&total))
        .run(|x: &[f64], t: &mut [f64]| t[0] += x[0])
        .wait();
    assert_eq!(total.get_scalar(), 50_000.0);
}

#[test]
fn min_and_max_globals() {
    let op2 = Op2::new(Op2Config::dataflow(2));
    let cells = op2.decl_set(10_000, "cells");
    let vals: Vec<f64> = (0..10_000).map(|i| ((i * 7919) % 10_007) as f64).collect();
    let x = op2.decl_dat(&cells, 1, "x", vals.clone());
    let lo = Global::<f64>::new(1, ReduceOp::Min, "lo");
    let hi = Global::<f64>::new(1, ReduceOp::Max, "hi");
    op2.loop_("minmax", &cells)
        .arg(arg_read(&x))
        .arg(arg_gbl_inc(&lo))
        .arg(arg_gbl_inc(&hi))
        .run(|x: &[f64], lo: &mut [f64], hi: &mut [f64]| {
            if x[0] < lo[0] {
                lo[0] = x[0];
            }
            if x[0] > hi[0] {
                hi[0] = x[0];
            }
        })
        .wait();
    let expect_lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
    let expect_hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(lo.get_scalar(), expect_lo);
    assert_eq!(hi.get_scalar(), expect_hi);
}

#[test]
fn stats_and_plan_counters_track_work() {
    let op2 = Op2::new(Op2Config::dataflow(2));
    let cells = op2.decl_set(100, "cells");
    let x = op2.decl_dat(&cells, 1, "x", vec![0.0f64; 100]);
    for _ in 0..5 {
        op2.loop_("touch", &cells)
            .arg(arg_write(&x))
            .run(|x: &mut [f64]| {
                x[0] += 1.0;
            });
    }
    op2.fence();
    let stats = op2.loop_stats();
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].1.invocations, 5);
    // Direct loops build no plans.
    assert_eq!(op2.plan_cache_stats().0, 0);
}

#[test]
fn fence_propagates_kernel_panics() {
    let op2 = Op2::new(Op2Config::dataflow(2));
    let cells = op2.decl_set(100, "cells");
    let x = op2.decl_dat(&cells, 1, "x", vec![0.0f64; 100]);
    op2.loop_("boom", &cells)
        .arg(arg_write(&x))
        .run(|_: &mut [f64]| {
            panic!("deferred kernel failure");
        });
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op2.fence()))
        .expect_err("fence must re-panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "?".into());
    assert!(msg.contains("deferred kernel failure"), "got: {msg}");
}

#[test]
fn read_guard_waits_for_pending_writer() {
    // Under the dataflow backend, a read guard taken right after an async
    // loop submission must observe the loop's writes.
    let op2 = Op2::new(Op2Config::dataflow(2));
    let cells = op2.decl_set(200_000, "cells");
    let x = op2.decl_dat(&cells, 1, "x", vec![0.0f64; 200_000]);
    op2.loop_("fill", &cells)
        .arg(arg_write(&x))
        .run(|x: &mut [f64]| {
            x[0] = 42.0;
        });
    let guard = x.read(); // must block on the loop's completion future
    assert!(guard.iter().all(|&v| v == 42.0));
}

#[test]
fn row_accessors_match_flat_layout() {
    let op2 = Op2::new(Op2Config::seq());
    let cells = op2.decl_set(3, "cells");
    let d = op2.decl_dat(&cells, 2, "d", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    {
        let mut w = d.write();
        w.row_mut(1)[0] = 30.0;
    }
    let r = d.read();
    assert_eq!(r.row(0), &[1.0, 2.0]);
    assert_eq!(r.row(1), &[30.0, 4.0]);
    assert_eq!(r.row(2), &[5.0, 6.0]);
}
