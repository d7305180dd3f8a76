// Generated by op2c from programme `airfoil` — backend: openmp (blocking loops, implicit global barriers).
// DO NOT EDIT: regenerate with `op2c --backend openmp airfoil.op2`.

use op2_core::{Dat, Global, Map, Op2, Set};
#[allow(unused_imports)]
use op2_core::{arg_read, arg_write, arg_rw, arg_inc, arg_read_via, arg_write_via, arg_rw_via, arg_inc_via, arg_gbl_inc, arg_gbl_read};

/// `op_par_loop_save_soln` over set `cells`.
///
/// Arguments: p_q (direct, Read), p_qold (direct, Write).
/// Blocks until complete — implicit global barrier (stock OP2 semantics).
pub fn op_par_loop_save_soln<K>(op2: &Op2, cells: &Set, p_q: &Dat<f64>, p_qold: &Dat<f64>, kernel: K)
where
    K: for<'e> Fn(&'e [f64], &'e mut [f64]) + Send + Sync + 'static,
{
    let handle = op2
        .loop_("save_soln", cells)
        .arg(arg_read(p_q).row::<4>())
        .arg(arg_write(p_qold).row::<4>())
        .run(kernel);
    // #pragma omp parallel for equivalent: join before returning.
    handle.wait();
}

/// `op_par_loop_adt_calc` over set `cells`.
///
/// Arguments: p_x (via pcell[0], Read), p_x (via pcell[1], Read), p_x (via pcell[2], Read), p_x (via pcell[3], Read), p_q (direct, Read), p_adt (direct, Write).
/// Blocks until complete — implicit global barrier (stock OP2 semantics).
pub fn op_par_loop_adt_calc<K>(op2: &Op2, cells: &Set, p_x: &Dat<f64>, p_q: &Dat<f64>, p_adt: &Dat<f64>, pcell: &Map, kernel: K)
where
    K: for<'e> Fn(&'e [f64], &'e [f64], &'e [f64], &'e [f64], &'e [f64], &'e mut [f64]) + Send + Sync + 'static,
{
    let handle = op2
        .loop_("adt_calc", cells)
        .arg(arg_read_via(p_x, pcell, 0).via::<2, 4>())
        .arg(arg_read_via(p_x, pcell, 1).via::<2, 4>())
        .arg(arg_read_via(p_x, pcell, 2).via::<2, 4>())
        .arg(arg_read_via(p_x, pcell, 3).via::<2, 4>())
        .arg(arg_read(p_q).row::<4>())
        .arg(arg_write(p_adt).row::<1>())
        .run(kernel);
    // #pragma omp parallel for equivalent: join before returning.
    handle.wait();
}

/// `op_par_loop_res_calc` over set `edges`.
///
/// Arguments: p_x (via pedge[0], Read), p_x (via pedge[1], Read), p_q (via pecell[0], Read), p_q (via pecell[1], Read), p_adt (via pecell[0], Read), p_adt (via pecell[1], Read), p_res (via pecell[0], Inc), p_res (via pecell[1], Inc).
/// Blocks until complete — implicit global barrier (stock OP2 semantics).
#[allow(clippy::too_many_arguments)]
pub fn op_par_loop_res_calc<K>(op2: &Op2, edges: &Set, p_x: &Dat<f64>, p_q: &Dat<f64>, p_adt: &Dat<f64>, p_res: &Dat<f64>, pedge: &Map, pecell: &Map, kernel: K)
where
    K: for<'e> Fn(&'e [f64], &'e [f64], &'e [f64], &'e [f64], &'e [f64], &'e [f64], &'e mut [f64], &'e mut [f64]) + Send + Sync + 'static,
{
    let handle = op2
        .loop_("res_calc", edges)
        .arg(arg_read_via(p_x, pedge, 0).via::<2, 2>())
        .arg(arg_read_via(p_x, pedge, 1).via::<2, 2>())
        .arg(arg_read_via(p_q, pecell, 0).via::<4, 2>())
        .arg(arg_read_via(p_q, pecell, 1).via::<4, 2>())
        .arg(arg_read_via(p_adt, pecell, 0).via::<1, 2>())
        .arg(arg_read_via(p_adt, pecell, 1).via::<1, 2>())
        .arg(arg_inc_via(p_res, pecell, 0).via::<4, 2>())
        .arg(arg_inc_via(p_res, pecell, 1).via::<4, 2>())
        .run(kernel);
    // #pragma omp parallel for equivalent: join before returning.
    handle.wait();
}

/// `op_par_loop_bres_calc` over set `bedges`.
///
/// Arguments: p_x (via pbedge[0], Read), p_x (via pbedge[1], Read), p_q (via pbecell[0], Read), p_adt (via pbecell[0], Read), p_res (via pbecell[0], Inc), p_bound (direct, Read).
/// Blocks until complete — implicit global barrier (stock OP2 semantics).
#[allow(clippy::too_many_arguments)]
pub fn op_par_loop_bres_calc<K>(op2: &Op2, bedges: &Set, p_x: &Dat<f64>, p_q: &Dat<f64>, p_adt: &Dat<f64>, p_res: &Dat<f64>, p_bound: &Dat<i32>, pbedge: &Map, pbecell: &Map, kernel: K)
where
    K: for<'e> Fn(&'e [f64], &'e [f64], &'e [f64], &'e [f64], &'e mut [f64], &'e [i32]) + Send + Sync + 'static,
{
    let handle = op2
        .loop_("bres_calc", bedges)
        .arg(arg_read_via(p_x, pbedge, 0).via::<2, 2>())
        .arg(arg_read_via(p_x, pbedge, 1).via::<2, 2>())
        .arg(arg_read_via(p_q, pbecell, 0).via::<4, 1>())
        .arg(arg_read_via(p_adt, pbecell, 0).via::<1, 1>())
        .arg(arg_inc_via(p_res, pbecell, 0).via::<4, 1>())
        .arg(arg_read(p_bound).row::<1>())
        .run(kernel);
    // #pragma omp parallel for equivalent: join before returning.
    handle.wait();
}

/// `op_par_loop_update` over set `cells`.
///
/// Arguments: p_qold (direct, Read), p_q (direct, Write), p_res (direct, Rw), p_adt (direct, Read), rms (global, Inc).
/// Blocks until complete — implicit global barrier (stock OP2 semantics).
#[allow(clippy::too_many_arguments)]
pub fn op_par_loop_update<K>(op2: &Op2, cells: &Set, p_qold: &Dat<f64>, p_q: &Dat<f64>, p_res: &Dat<f64>, p_adt: &Dat<f64>, rms: &Global<f64>, kernel: K)
where
    K: for<'e> Fn(&'e [f64], &'e mut [f64], &'e mut [f64], &'e [f64], &'e mut [f64]) + Send + Sync + 'static,
{
    let handle = op2
        .loop_("update", cells)
        .arg(arg_read(p_qold).row::<4>())
        .arg(arg_write(p_q).row::<4>())
        .arg(arg_rw(p_res).row::<4>())
        .arg(arg_read(p_adt).row::<1>())
        .arg(arg_gbl_inc(rms).row::<1>())
        .run(kernel);
    // #pragma omp parallel for equivalent: join before returning.
    handle.wait();
}

