//! The data-dependent loop exit never blocks the time loop.
//!
//! The `jac` spec declares `converge resid : tol 1e-12, every 1, max 500;`
//! which the translator lowers onto the PR 5 `ReducedFuture` async-reduction
//! path: every residual is read through `reduce_async`, the harness's exit
//! check consults only futures that are already resolved, and the scaled
//! residual values are collected after the final fence (when every future
//! is trivially ready). The reduction counters prove it: a full
//! convergence-driven run performs **zero** blocking reduction reads.
//!
//! This test owns its binary because the `op2.reduce.*` counters are
//! process-global — any other test doing a not-yet-ready `get_scalar`
//! in the same process would pollute the delta.

use op2_hpx::app::{run, App, JacApp};
use op2_hpx::hpx::stats;
use op2_hpx::op2::{Op2, Op2Config};

#[test]
fn jac_convergence_exit_never_blocks_on_the_residual() {
    let before = stats::snapshot();

    let app = JacApp::new(12);
    let op2 = Op2::new(Op2Config::dataflow(2));
    let mut inst = app.declare(&op2);
    // The spec's own policy: tol 1e-12, checked every iteration, cap 500.
    let cfg = app.default_run();
    let window = cfg.window;
    let out = run(inst.as_mut(), cfg);

    let (at, resid) = out
        .converged
        .expect("Jacobi on a diagonally-dominant system must converge");
    assert!(at < 500, "convergence should beat the iteration cap");
    assert!(resid < 1e-12, "converged residual {resid:e} above tol");
    assert!(inst.state().iter().all(|v| v.is_finite()));
    // The exit only reads residuals that already resolved, so it lands
    // past the crossing — but never by more than the backpressure window
    // (`RunConfig::window`), whatever the scheduler does.
    assert!(
        out.iterations - at <= window,
        "ran {} iterations past the crossing at {at} with a window of {window}",
        out.iterations - at
    );

    // The acceptance criterion: the convergence-driven loop exit rode the
    // async-reduction path end to end. Residuals observed before the fence
    // and collected after it are all `reduce_async` reads; none of them
    // ever parked the submitting thread on an unresolved future.
    assert_eq!(
        before.delta("op2.reduce.blocking_reads"),
        0,
        "convergence exit must not block the time loop on the residual"
    );
    assert!(
        before.delta("op2.reduce.async_reads") >= out.iterations as u64,
        "every iteration's residual should be an async read ({} reads, {} iters)",
        before.delta("op2.reduce.async_reads"),
        out.iterations
    );
}
