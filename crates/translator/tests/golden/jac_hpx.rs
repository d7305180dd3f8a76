// Generated by op2c from programme `jac` — backend: hpx (dataflow loops returning futures).
// DO NOT EDIT: regenerate with `op2c --backend hpx jac.op2`.

use op2_core::{Convergence, Dat, Global, LoopHandle, Map, Op2, Set};
#[allow(unused_imports)]
use op2_core::{arg_read, arg_write, arg_rw, arg_inc, arg_read_via, arg_write_via, arg_rw_via, arg_inc_via, arg_gbl_inc, arg_gbl_read};

/// `op_par_loop_jac_spmv` over set `edges`.
///
/// Arguments: x (via pedge[0], Read), x (via pedge[1], Read), acc (via pedge[0], Inc), acc (via pedge[1], Inc).
/// Returns the loop's completion future immediately; dependent loops
/// chain through the dats' dataflow state (paper Figs 8-11).
pub fn op_par_loop_jac_spmv<K>(op2: &Op2, edges: &Set, x: &Dat<f64>, acc: &Dat<f64>, pedge: &Map, kernel: K) -> LoopHandle
where
    K: for<'e> Fn(&'e [f64], &'e [f64], &'e mut [f64], &'e mut [f64]) + Send + Sync + 'static,
{
    op2.loop_("jac_spmv", edges)
        .arg(arg_read_via(x, pedge, 0).via::<1, 2>())
        .arg(arg_read_via(x, pedge, 1).via::<1, 2>())
        .arg(arg_inc_via(acc, pedge, 0).via::<1, 2>())
        .arg(arg_inc_via(acc, pedge, 1).via::<1, 2>())
        .run(kernel)
}

/// `op_par_loop_jac_update` over set `nodes`.
///
/// Arguments: b (direct, Read), diag (direct, Read), x (direct, Rw), acc (direct, Rw), resid (global, Inc).
/// Returns the loop's completion future immediately; dependent loops
/// chain through the dats' dataflow state (paper Figs 8-11).
#[allow(clippy::too_many_arguments)]
pub fn op_par_loop_jac_update<K>(op2: &Op2, nodes: &Set, b: &Dat<f64>, diag: &Dat<f64>, x: &Dat<f64>, acc: &Dat<f64>, resid: &Global<f64>, kernel: K) -> LoopHandle
where
    K: for<'e> Fn(&'e [f64], &'e [f64], &'e mut [f64], &'e mut [f64], &'e mut [f64]) + Send + Sync + 'static,
{
    op2.loop_("jac_update", nodes)
        .arg(arg_read(b).row::<1>())
        .arg(arg_read(diag).row::<1>())
        .arg(arg_rw(x).row::<1>())
        .arg(arg_rw(acc).row::<1>())
        .arg(arg_gbl_inc(resid).row::<1>())
        .run(kernel)
}

/// Convergence-driven exit for global `resid`: stop once the scaled
/// residual drops below `1e-12`, checking every 1 iteration(s), hard
/// cap 500 iterations. Lowered onto the async-reduction path: hand it
/// to `op2_app::run`, which decides on the resolved prefix of the
/// iterations' `ReducedFuture`s — the residual check never blocks the
/// time loop.
pub fn resid_convergence() -> Convergence {
    Convergence::new(1e-12, 1, 500)
}

