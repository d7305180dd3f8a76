// Generated by op2c from programme `heat` — backend: hpx (dataflow loops returning futures).
// DO NOT EDIT: regenerate with `op2c --backend hpx heat.op2`.

use op2_core::{Convergence, Dat, Global, LoopHandle, Map, Op2, Set};
#[allow(unused_imports)]
use op2_core::{arg_read, arg_write, arg_rw, arg_inc, arg_read_via, arg_write_via, arg_rw_via, arg_inc_via, arg_gbl_inc, arg_gbl_read};

/// `op_par_loop_edge_flux` over set `edges`.
///
/// Arguments: temp (via pedge[0], Read), temp (via pedge[1], Read), flux (via pedge[0], Inc), flux (via pedge[1], Inc).
/// Returns the loop's completion future immediately; dependent loops
/// chain through the dats' dataflow state (paper Figs 8-11).
pub fn op_par_loop_edge_flux<K>(op2: &Op2, edges: &Set, temp: &Dat<f64>, flux: &Dat<f64>, pedge: &Map, kernel: K) -> LoopHandle
where
    K: for<'e> Fn(&'e [f64], &'e [f64], &'e mut [f64], &'e mut [f64]) + Send + Sync + 'static,
{
    op2.loop_("edge_flux", edges)
        .arg(arg_read_via(temp, pedge, 0).via::<1, 2>())
        .arg(arg_read_via(temp, pedge, 1).via::<1, 2>())
        .arg(arg_inc_via(flux, pedge, 0).via::<1, 2>())
        .arg(arg_inc_via(flux, pedge, 1).via::<1, 2>())
        .run(kernel)
}

/// `op_par_loop_apply_flux` over set `nodes`.
///
/// Arguments: temp (direct, Rw), flux (direct, Rw), boundary (direct, Read), delta (global, Inc).
/// Returns the loop's completion future immediately; dependent loops
/// chain through the dats' dataflow state (paper Figs 8-11).
pub fn op_par_loop_apply_flux<K>(op2: &Op2, nodes: &Set, temp: &Dat<f64>, flux: &Dat<f64>, boundary: &Dat<i32>, delta: &Global<f64>, kernel: K) -> LoopHandle
where
    K: for<'e> Fn(&'e mut [f64], &'e mut [f64], &'e [i32], &'e mut [f64]) + Send + Sync + 'static,
{
    op2.loop_("apply_flux", nodes)
        .arg(arg_rw(temp).row::<1>())
        .arg(arg_rw(flux).row::<1>())
        .arg(arg_read(boundary).row::<1>())
        .arg(arg_gbl_inc(delta).row::<1>())
        .run(kernel)
}

/// Convergence-driven exit for global `delta`: stop once the scaled
/// residual drops below `1e-6`, checking every 50 iteration(s), hard
/// cap 2000 iterations. Lowered onto the async-reduction path: hand it
/// to `op2_app::run`, which decides on the resolved prefix of the
/// iterations' `ReducedFuture`s — the residual check never blocks the
/// time loop.
pub fn delta_convergence() -> Convergence {
    Convergence::new(1e-6, 50, 2000)
}

