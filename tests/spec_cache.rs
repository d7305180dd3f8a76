//! A world's loop-spec cache keys on content signatures: a new mesh size
//! or a second application on the same world builds its own schedules
//! instead of colliding with cached ones, and solving a shape again builds
//! nothing and hits the warm entries.

use op2_hpx::airfoil::verify::all_finite;
use op2_hpx::airfoil::{AirfoilApp, PlainAirfoil, Problem};
use op2_hpx::app::{run, App, HeatApp, RunConfig};
use op2_hpx::mesh::QuadMesh;
use op2_hpx::op2::{Op2, Op2Config};

fn solve(op2: &Op2, mesh: &QuadMesh) {
    let p = Problem::declare(op2, mesh);
    let r = run(&mut PlainAirfoil::new(op2, &p), RunConfig::iterations(2, 4));
    assert!(all_finite(&r.residuals));
}

/// Different mesh shapes key different cache entries: airfoil at 800
/// cells builds fresh schedules rather than hitting (and corrupting) the
/// 200-cell ones, and solving both sizes again builds nothing.
#[test]
fn different_shapes_do_not_collide() {
    let op2 = Op2::new(Op2Config::dataflow(2));
    let (small, large) = (QuadMesh::with_cells(200), QuadMesh::with_cells(800));

    solve(&op2, &small);
    let built_small = op2.spec_cache_stats().0;
    assert!(built_small > 0, "the first shape must build its schedules");
    solve(&op2, &large);
    let built_both = op2.spec_cache_stats().0;
    assert!(
        built_both > built_small,
        "a different shape must build its own schedules, not reuse the first's"
    );

    let hits_before = op2.spec_cache_stats().1;
    solve(&op2, &small);
    solve(&op2, &large);
    let (built_after, hits_after) = op2.spec_cache_stats();
    assert_eq!(built_after, built_both, "re-solved shapes build nothing");
    assert!(
        hits_after > hits_before,
        "re-solved shapes hit the warm entries"
    );
}

/// Two applications declared on one world's spec cache: airfoil (quad
/// mesh, five CFD loops) and heat (triangulated square, two generated
/// loops). Each app's first declaration builds its own schedules, and
/// interleaved re-declarations of both build nothing and hit their own
/// entries.
#[test]
fn mixed_app_tenants_share_the_farm_without_colliding() {
    let op2 = Op2::new(Op2Config::dataflow(2));
    let airfoil_app = AirfoilApp::new(16, 8);
    let heat_app = HeatApp::new(12);
    let airfoil = || {
        let mut inst = airfoil_app.declare(&op2);
        let out = run(inst.as_mut(), RunConfig::iterations(2, 4));
        assert!(out.final_residual().is_finite());
    };
    let heat = || {
        let mut inst = heat_app.declare(&op2);
        let out = run(inst.as_mut(), RunConfig::iterations(3, 4));
        assert!(out.final_residual() >= 0.0);
    };

    airfoil();
    let built_after_airfoil = op2.spec_cache_stats().0;
    assert!(built_after_airfoil > 0, "airfoil must build its schedules");
    heat();
    let built_after_heat = op2.spec_cache_stats().0;
    assert!(
        built_after_heat > built_after_airfoil,
        "heat's triangle loops must key their own entries, not reuse airfoil's"
    );

    let hits_before_rerun = op2.spec_cache_stats().1;
    heat();
    airfoil();
    let (built_after, hits_after) = op2.spec_cache_stats();
    assert_eq!(
        built_after, built_after_heat,
        "re-declarations of either app must not build schedules"
    );
    assert!(
        hits_after > hits_before_rerun,
        "re-declarations must hit the warm shape-keyed entries"
    );
}
