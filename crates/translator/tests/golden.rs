//! Golden-file regression tests: the checked-in generated code for the
//! Airfoil programme must match what `op2c` produces today.
//!
//! Regenerate after intentional codegen changes with:
//! `cargo run -p op2-translator --bin op2c -- --backend hpx specs/airfoil.op2 -o tests/golden/airfoil_hpx.rs`
//! (and likewise for `openmp`).

use op2_translator::{check_source, translate, CodegenBackend};

const AIRFOIL: &str = include_str!("../specs/airfoil.op2");
const HEAT: &str = include_str!("../specs/heat.op2");
const JAC: &str = include_str!("../specs/jac.op2");

#[test]
fn airfoil_spec_is_semantically_valid() {
    let program = check_source(AIRFOIL).expect("airfoil.op2 must check clean");
    assert_eq!(program.name, "airfoil");
    assert_eq!(program.sets.len(), 4);
    assert_eq!(program.maps.len(), 5);
    assert_eq!(program.dats.len(), 6);
    assert_eq!(program.loops.len(), 5, "the paper's five loops (Fig 2)");
}

#[test]
fn airfoil_hpx_matches_golden() {
    let generated = translate(AIRFOIL, CodegenBackend::Hpx).unwrap();
    let golden = include_str!("golden/airfoil_hpx.rs");
    assert_eq!(generated, golden, "hpx codegen drifted; regenerate golden");
}

#[test]
fn airfoil_openmp_matches_golden() {
    let generated = translate(AIRFOIL, CodegenBackend::OpenMp).unwrap();
    let golden = include_str!("golden/airfoil_openmp.rs");
    assert_eq!(
        generated, golden,
        "openmp codegen drifted; regenerate golden"
    );
}

#[test]
fn heat_spec_is_semantically_valid() {
    let program = check_source(HEAT).expect("heat.op2 must check clean");
    assert_eq!(program.name, "heat");
    assert_eq!(program.loops.len(), 2);
    let c = program.converge("delta").expect("heat has a converge decl");
    assert_eq!((c.tol, c.every, c.max), (1e-6, 50, 2000));
}

#[test]
fn heat_hpx_matches_golden() {
    let generated = translate(HEAT, CodegenBackend::Hpx).unwrap();
    let golden = include_str!("golden/heat_hpx.rs");
    assert_eq!(generated, golden, "hpx codegen drifted; regenerate golden");
}

#[test]
fn jac_spec_is_semantically_valid() {
    let program = check_source(JAC).expect("jac.op2 must check clean");
    assert_eq!(program.name, "jac");
    assert_eq!(program.loops.len(), 2);
    let c = program.converge("resid").expect("jac has a converge decl");
    assert_eq!((c.tol, c.every, c.max), (1e-12, 1, 500));
}

#[test]
fn jac_hpx_matches_golden() {
    let generated = translate(JAC, CodegenBackend::Hpx).unwrap();
    let golden = include_str!("golden/jac_hpx.rs");
    assert_eq!(generated, golden, "hpx codegen drifted; regenerate golden");
}

#[test]
fn converge_decls_lower_onto_the_async_reduction_path() {
    // The generated constructor is the only hook the app layer needs:
    // parameters travel from the spec into `Convergence::new`, and the
    // doc steers users to observe/should_stop (never a blocking read).
    let heat = translate(HEAT, CodegenBackend::Hpx).unwrap();
    assert!(heat.contains("pub fn delta_convergence() -> Convergence"));
    assert!(heat.contains("Convergence::new(1e-6, 50, 2000)"));
    let jac = translate(JAC, CodegenBackend::Hpx).unwrap();
    assert!(jac.contains("pub fn resid_convergence() -> Convergence"));
    assert!(jac.contains("Convergence::new(1e-12, 1, 500)"));
    assert!(jac.contains("never blocks"));
}

#[test]
fn backends_differ_exactly_in_synchronization() {
    let hpx = translate(AIRFOIL, CodegenBackend::Hpx).unwrap();
    let omp = translate(AIRFOIL, CodegenBackend::OpenMp).unwrap();
    // Same five wrappers...
    for name in ["save_soln", "adt_calc", "res_calc", "bres_calc", "update"] {
        assert!(hpx.contains(&format!("op_par_loop_{name}")));
        assert!(omp.contains(&format!("op_par_loop_{name}")));
    }
    // ...but openmp joins (global barrier) while hpx returns futures.
    assert_eq!(omp.matches("handle.wait();").count(), 5);
    assert_eq!(hpx.matches("handle.wait();").count(), 0);
    assert_eq!(hpx.matches("-> LoopHandle").count(), 5);
    assert_eq!(omp.matches("-> LoopHandle").count(), 0);
}

#[test]
fn res_calc_emits_eight_builder_args_with_increments() {
    let hpx = translate(AIRFOIL, CodegenBackend::Hpx).unwrap();
    let res_calc = hpx
        .split("pub fn op_par_loop_res_calc")
        .nth(1)
        .expect("res_calc wrapper present");
    let body = res_calc.split("pub fn").next().unwrap();
    assert_eq!(body.matches(".arg(").count(), 8, "arity-free builder args");
    // `p_res` has dim 4 and `pecell` two slots: both are constants of the
    // emitted argument's type.
    assert!(body.contains(".arg(arg_inc_via(p_res, pecell, 0).via::<4, 2>())"));
    assert!(body.contains(".arg(arg_inc_via(p_res, pecell, 1).via::<4, 2>())"));
    assert!(body.contains(".arg(arg_read_via(p_x, pedge, 0).via::<2, 2>())"));
    assert!(body.contains(".run(kernel)"));
}

#[test]
fn kernel_skeletons_cover_all_loops_with_correct_mutability() {
    let skeletons = op2_translator::emit_kernel_skeletons(AIRFOIL).unwrap();
    for name in ["save_soln", "adt_calc", "res_calc", "bres_calc", "update"] {
        assert!(
            skeletons.contains(&format!("pub fn {name}(")),
            "{name} missing"
        );
    }
    // res_calc: last two args (the increments) are mutable, the rest not.
    assert!(skeletons.contains("arg6_p_res: &mut [f64]"));
    assert!(skeletons.contains("arg7_p_res: &mut [f64]"));
    assert!(skeletons.contains("arg0_p_x: &[f64]"));
    // bres_calc reads the i32 boundary flag.
    assert!(skeletons.contains("arg5_p_bound: &[i32]"));
    // update increments the rms global.
    assert!(skeletons.contains("arg4_rms: &mut [f64]"));
}
