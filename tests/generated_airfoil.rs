//! The independent reference for the Airfoil solver. The solver itself
//! now runs on the checked-in `op2c` output for the Airfoil programme
//! (HPX backend), submitted through the app harness: asynchronous
//! residual reads, a backpressure window, one trailing fence. This file
//! includes the same generated wrappers and drives them the simplest way
//! there is — a straight-line loop that waits on every `update` and reads
//! its `rms` before going on — so the two share the access descriptors
//! and the kernels and nothing else. Under the Seq backend the operation
//! order is the same, so the harness-driven solver must reproduce this
//! loop bit for bit; whatever the harness, the part/world plumbing or the
//! reduction futures got wrong would show up here.

use airfoil_cfd::{kernels, solver, Problem, SolverConfig};
use op2_core::{Global, Op2, Op2Config};
use op2_mesh::channel_with_bump;

/// The generated module — exactly what `op2c --backend hpx airfoil.op2`
/// emitted (golden-tested in the translator crate).
mod generated {
    include!("../crates/translator/tests/golden/airfoil_hpx.rs");
}

/// Runs `niter` Airfoil iterations as a blocking-read loop over the
/// generated wrappers.
fn run_generated(op2: &Op2, p: &Problem, niter: usize) -> Vec<f64> {
    let ncell = p.cells.size();
    let qinf = p.qinf;
    let mut history = Vec::new();
    for _ in 0..niter {
        generated::op_par_loop_save_soln(op2, &p.cells, &p.p_q, &p.p_qold, |q, qold| {
            kernels::save_soln(q, qold)
        });
        let mut rms_val = 0.0;
        for _ in 0..2 {
            generated::op_par_loop_adt_calc(
                op2,
                &p.cells,
                &p.p_x,
                &p.p_q,
                &p.p_adt,
                &p.pcell,
                kernels::adt_calc,
            );
            generated::op_par_loop_res_calc(
                op2,
                &p.edges,
                &p.p_x,
                &p.p_q,
                &p.p_adt,
                &p.p_res,
                &p.pedge,
                &p.pecell,
                |x1, x2, q1, q2, adt1, adt2, res1, res2| {
                    kernels::res_calc(x1, x2, q1, q2, adt1, adt2, res1, res2)
                },
            );
            generated::op_par_loop_bres_calc(
                op2,
                &p.bedges,
                &p.p_x,
                &p.p_q,
                &p.p_adt,
                &p.p_res,
                &p.p_bound,
                &p.pbedge,
                &p.pbecell,
                move |x1, x2, q1, adt1, res1, bound| {
                    kernels::bres_calc(x1, x2, q1, adt1, res1, bound, &qinf)
                },
            );
            let rms = Global::<f64>::sum(1, "rms");
            let h = generated::op_par_loop_update(
                op2,
                &p.cells,
                &p.p_qold,
                &p.p_q,
                &p.p_res,
                &p.p_adt,
                &rms,
                kernels::update,
            );
            h.wait();
            rms_val = (rms.get_scalar() / ncell as f64).sqrt();
        }
        history.push(rms_val);
    }
    history
}

#[test]
fn harness_driven_solver_matches_blocking_reference_bitwise_under_seq() {
    let mesh = channel_with_bump(24, 12);

    // The solver: one step body under the harness, Seq backend.
    let op2_a = Op2::new(Op2Config::seq());
    let p_a = Problem::declare(&op2_a, &mesh);
    let r_ref = solver::run(
        &op2_a,
        &p_a,
        &SolverConfig {
            niter: 6,
            window: 0,
            print_every: 0,
            ..SolverConfig::default()
        },
    );

    // The blocking-read reference, Seq backend: identical operation
    // order -> bitwise-identical results.
    let op2_b = Op2::new(Op2Config::seq());
    let p_b = Problem::declare(&op2_b, &mesh);
    let r_gen = run_generated(&op2_b, &p_b, 6);

    assert_eq!(r_ref.rms_history.len(), r_gen.len());
    for (a, b) in r_ref.rms_history.iter().zip(&r_gen) {
        assert_eq!(a.to_bits(), b.to_bits(), "rms must match bitwise");
    }
    let qa = p_a.p_q.snapshot();
    let qb = p_b.p_q.snapshot();
    assert!(qa.iter().zip(&qb).all(|(x, y)| x.to_bits() == y.to_bits()));
}

#[test]
fn generated_code_runs_under_dataflow_backend() {
    let mesh = channel_with_bump(24, 12);
    let op2 = Op2::new(Op2Config::dataflow(2));
    let p = Problem::declare(&op2, &mesh);
    let history = run_generated(&op2, &p, 4);
    op2.fence();
    assert_eq!(history.len(), 4);
    assert!(history.iter().all(|r| r.is_finite() && *r > 0.0));
}
