//! The data-dependent loop exit never blocks the time loop, and it stops
//! where Seq stops.
//!
//! The `jac` spec declares `converge resid : tol 1e-12, every 1, max 500;`
//! which the translator lowers onto the `ReducedFuture` async-reduction
//! path: every residual is read through `reduce_async`, the harness's
//! exit decides on the resolved prefix of the residuals (waiting for a
//! residual's completion, never reading an unresolved one), and the
//! scaled residual values are collected after the final fence (when
//! every future is trivially ready). The reduction counters prove it: a
//! full convergence-driven run performs **zero** blocking reduction
//! reads.
//!
//! This test owns its binary because the `op2.reduce.*` counters are
//! process-global — any other test doing a not-yet-ready `get_scalar`
//! in the same process would pollute the delta.

use op2_hpx::app::{run, App, JacApp, RunConfig, RunOutcome};
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

/// One solve of `app` on a fresh world of `config`.
fn solve(app: &JacApp, config: Op2Config, cfg: RunConfig) -> RunOutcome {
    let op2 = Op2::new(config);
    let mut inst = app.declare(&op2);
    run(inst.as_mut(), cfg)
}

#[test]
fn dataflow_stops_where_seq_stops() {
    let before = stats::snapshot();
    for n in [64, 256] {
        let app = JacApp::new(n);
        let seq = solve(&app, Op2Config::seq(), app.default_run());
        let (at, _) = seq.converged.expect("Seq must converge");
        assert_eq!(seq.iterations, at, "n = {n}: Seq runs to the crossing");

        // The exit's decision is measured, not timed: repeats agree.
        let op2 = Op2::new(Op2Config::dataflow(2));
        let repeats = if n == 64 { 10 } else { 1 };
        for rep in 0..repeats {
            let mut inst = app.declare(&op2);
            let out = run(inst.as_mut(), app.default_run());
            assert_eq!(
                (out.iterations, out.converged.map(|(i, _)| i)),
                (seq.iterations, Some(at)),
                "n = {n}, repeat {rep}: Dataflow stops where Seq does"
            );
        }
    }
    assert_eq!(before.delta("op2.reduce.blocking_reads"), 0);
}

#[test]
fn an_unbounded_window_stops_at_the_crossing() {
    // `window: 0` bounds nothing: the submitter outruns every residual,
    // and only the predicted crossing stops it short of the cap.
    let before = stats::snapshot();
    for n in [64, 256] {
        let app = JacApp::new(n);
        let seq = solve(&app, Op2Config::seq(), app.default_run());
        let unbounded = RunConfig {
            window: 0,
            ..app.default_run()
        };
        let out = solve(&app, Op2Config::dataflow(2), unbounded);
        assert_eq!(out.iterations, seq.iterations, "n = {n}");
        assert_eq!(
            out.converged.map(|(i, _)| i),
            seq.converged.map(|(i, _)| i),
            "n = {n}"
        );
    }
    assert_eq!(before.delta("op2.reduce.blocking_reads"), 0);
}
