//! The solver farm through the public API: backpressure windows actually
//! bound in-flight work, weighted-fair scheduling bounds a low-priority
//! tenant's wait under a saturating high-priority tenant, quotas cap lane
//! occupancy, and warm state (spec cache + granularity feedback) is
//! shared across same-shaped tenants without colliding across shapes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use op2_hpx::airfoil::SolverConfig;
use op2_hpx::hpx::lco::Event;
use op2_hpx::mesh::QuadMesh;
use op2_hpx::op2::farm::{FarmConfig, Priority, SolverFarm, TenantSpec};
use op2_hpx::op2::{Op2, Op2Config, SpecShare};

/// Spin-wait helper with a generous deadline.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn small_cfg() -> SolverConfig {
    SolverConfig {
        niter: 2,
        window: 4,
        print_every: 0,
        ..SolverConfig::default()
    }
}

/// A tenant with window `W` never has more than `W` jobs in flight: the
/// `W+1`-th `submit` parks the submitter on the oldest job's future and
/// only returns once that job completes.
#[test]
fn backpressure_window_bounds_inflight() {
    const W: usize = 2;
    const JOBS: usize = 6;
    let farm = SolverFarm::new(
        FarmConfig::with_threads(2)
            .with_lanes(2)
            .with_window(W)
            .with_queue_capacity(64),
    );
    let tenant = farm.register("bp_tenant", Priority::Normal);

    let gate = Arc::new(Event::new());
    let started = Arc::new(AtomicUsize::new(0));
    let accepted = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..JOBS {
                let gate = Arc::clone(&gate);
                let started = Arc::clone(&started);
                farm.submit(&tenant, move |_op2| {
                    started.fetch_add(1, Ordering::SeqCst);
                    gate.wait();
                });
                accepted.fetch_add(1, Ordering::SeqCst);
            }
        });

        // The first W submissions are accepted; the W+1-th parks.
        wait_until("window fills", || accepted.load(Ordering::SeqCst) == W);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            accepted.load(Ordering::SeqCst),
            W,
            "submitter must park at the window, not run ahead"
        );
        assert!(
            farm.tenant_inflight(&tenant) <= W,
            "in-flight jobs exceed the window"
        );

        gate.set();
    });
    farm.drain();
    assert_eq!(farm.tenant_completed(&tenant), JOBS as u64);
    assert_eq!(started.load(Ordering::SeqCst), JOBS);
}

/// With one lane and a saturating high-priority tenant, stride scheduling
/// still dispatches the low-priority tenant within a bounded number of
/// completions (weights 4:1 → at worst a handful of high jobs first).
#[test]
fn fairness_low_priority_tenant_is_not_starved() {
    let farm = SolverFarm::new(
        FarmConfig::with_threads(2)
            .with_lanes(1)
            .with_window(0) // disable windows: the test floods the queue
            .with_queue_capacity(64),
    );
    let high = farm.register("fair_high", Priority::High);
    let low = farm.register("fair_low", Priority::Low);

    // Hold the single lane hostage so every subsequent submission queues
    // and the scheduler chooses among a full backlog.
    let gate = Arc::new(Event::new());
    {
        let gate = Arc::clone(&gate);
        farm.submit(&high, move |_| gate.wait());
    }
    wait_until("hostage running", || farm.tenant_running(&high) == 1);

    let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..12 {
        let order = Arc::clone(&order);
        farm.submit(&high, move |_| order.lock().unwrap().push("H"));
    }
    for _ in 0..3 {
        let order = Arc::clone(&order);
        farm.submit(&low, move |_| order.lock().unwrap().push("L"));
    }

    gate.set();
    farm.drain();

    let order = order.lock().unwrap();
    assert_eq!(order.len(), 15);
    let first_low = order
        .iter()
        .position(|&t| t == "L")
        .expect("low tenant ran");
    // Stride weights 4:1: after at most 4-5 high dispatches the low
    // tenant's virtual time is the minimum. Allow slack for lane jitter.
    assert!(
        first_low <= 6,
        "low-priority tenant waited {first_low} completions (order {order:?})"
    );
    // And the high tenant still gets the lion's share early on: the
    // first 10 completions cannot be majority-low.
    let early_low = order[..10].iter().filter(|&&t| t == "L").count();
    assert!(early_low <= 3, "low overtook high: {order:?}");
}

/// A tenant with quota 1 occupies at most one lane even when the farm has
/// idle lanes and the tenant has a backlog.
#[test]
fn quota_caps_tenant_lane_occupancy() {
    let farm = SolverFarm::new(
        FarmConfig::with_threads(2)
            .with_lanes(2)
            .with_queue_capacity(64),
    );
    let tenant = farm.register_with(
        "quota_tenant",
        TenantSpec {
            priority: Priority::Normal,
            window: Some(0),
            quota: Some(1),
        },
    );

    let gate = Arc::new(Event::new());
    for _ in 0..4 {
        let gate = Arc::clone(&gate);
        farm.submit(&tenant, move |_| gate.wait());
    }

    wait_until("one job running", || farm.tenant_running(&tenant) == 1);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        farm.tenant_running(&tenant),
        1,
        "quota 1 must keep the second lane free"
    );
    assert!(farm.queued() >= 3, "backlog should still be queued");

    gate.set();
    farm.drain();
    assert_eq!(farm.tenant_completed(&tenant), 4);
}

/// A full submission queue blocks submitters until a lane drains it.
#[test]
fn queue_capacity_backpressures_submitters() {
    let farm = SolverFarm::new(
        FarmConfig::with_threads(2)
            .with_lanes(1)
            .with_window(0)
            .with_queue_capacity(1),
    );
    let tenant = farm.register("qcap_tenant", Priority::Normal);

    let gate = Arc::new(Event::new());
    {
        let gate = Arc::clone(&gate);
        farm.submit(&tenant, move |_| gate.wait()); // occupies the lane
    }
    wait_until("hostage running", || farm.tenant_running(&tenant) == 1);

    let accepted = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..3 {
                farm.submit(&tenant, |_| {});
                accepted.fetch_add(1, Ordering::SeqCst);
            }
        });

        // One job fits in the queue; the next submission must block.
        wait_until("queue fills", || accepted.load(Ordering::SeqCst) == 1);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            accepted.load(Ordering::SeqCst),
            1,
            "submitter must block on the bounded queue"
        );

        gate.set();
    });
    farm.drain();
    assert_eq!(farm.tenant_completed(&tenant), 4);
}

/// Two tenants solving the same mesh shape share warm state: the second
/// tenant's first solve hits the farm-wide spec cache instead of
/// rebuilding plans, and the granularity-feedback table already has cost
/// entries for the airfoil kernels.
#[test]
fn warm_state_is_shared_across_same_shaped_tenants() {
    let farm = SolverFarm::new(FarmConfig::with_threads(2).with_lanes(2));
    let a = farm.register("warm_a", Priority::Normal);
    let b = farm.register("warm_b", Priority::Normal);
    let mesh = Arc::new(QuadMesh::with_cells(200));

    {
        let mesh = Arc::clone(&mesh);
        farm.submit(&a, move |op2| {
            let r = op2_hpx::airfoil::solve(op2, &mesh, &small_cfg());
            assert!(r.final_rms().is_finite());
        });
    }
    farm.drain();
    let built_after_a = farm.spec_share().built();
    let hits_after_a = farm.spec_share().hits();
    assert!(built_after_a > 0, "tenant A should have built specs");
    assert!(
        farm.feedback()
            .cost("update", mesh_set_signature(&mesh))
            .is_some(),
        "granularity feedback should be warm after tenant A"
    );

    {
        let mesh = Arc::clone(&mesh);
        farm.submit(&b, move |op2| {
            let r = op2_hpx::airfoil::solve(op2, &mesh, &small_cfg());
            assert!(r.final_rms().is_finite());
        });
    }
    farm.drain();
    assert_eq!(
        farm.spec_share().built(),
        built_after_a,
        "tenant B (same shape) must not rebuild any spec"
    );
    assert!(
        farm.spec_share().hits() > hits_after_a,
        "tenant B's solve should hit tenant A's warm specs"
    );
}

/// The `cells` set signature of a mesh-shaped world, derived the same way
/// the solver's worlds derive it: by declaring the set and asking it.
fn mesh_set_signature(mesh: &QuadMesh) -> u64 {
    let op2 = Op2::new(Op2Config::fork_join(1));
    op2.decl_set(mesh.ncell, "cells").signature()
}

/// Different mesh shapes key different cache entries: a second tenant on
/// a different-sized mesh builds fresh specs rather than hitting (and
/// corrupting) the first tenant's plans.
#[test]
fn different_shapes_do_not_collide() {
    let farm = SolverFarm::new(FarmConfig::with_threads(2).with_lanes(2));
    let a = farm.register("shape_a", Priority::Normal);
    let b = farm.register("shape_b", Priority::Normal);

    let mesh_a = Arc::new(QuadMesh::with_cells(200));
    {
        let mesh = Arc::clone(&mesh_a);
        farm.submit(&a, move |op2| {
            let r = op2_hpx::airfoil::solve(op2, &mesh, &small_cfg());
            assert!(r.final_rms().is_finite());
        });
    }
    farm.drain();
    let built_after_a = farm.spec_share().built();

    let mesh_b = Arc::new(QuadMesh::with_cells(800));
    {
        let mesh = Arc::clone(&mesh_b);
        farm.submit(&b, move |op2| {
            let r = op2_hpx::airfoil::solve(op2, &mesh, &small_cfg());
            assert!(r.final_rms().is_finite());
        });
    }
    farm.drain();
    assert!(
        farm.spec_share().built() > built_after_a,
        "a different shape must build its own specs, not reuse tenant A's"
    );
}

/// Two different *applications* on one farm: an airfoil tenant (quad
/// mesh, five CFD loops) and a heat tenant (triangulated square, two
/// generated loops) interleave jobs through the same shared spec cache.
/// The cache keys are shape-based, so the apps neither collide nor evict
/// each other: each app's first job builds its own specs, and each app's
/// rerun hits its own warm entries without building anything new.
#[test]
fn mixed_app_tenants_share_the_farm_without_colliding() {
    use op2_hpx::airfoil::AirfoilApp;
    use op2_hpx::app::{run, App, HeatApp, RunConfig};

    let farm = SolverFarm::new(FarmConfig::with_threads(2).with_lanes(2));
    let cfd = farm.register("mixed_cfd", Priority::Normal);
    let heat = farm.register("mixed_heat", Priority::Normal);
    let airfoil_app = Arc::new(AirfoilApp::new(16, 8));
    let heat_app = Arc::new(HeatApp::new(12));

    let submit_airfoil = |farm: &SolverFarm| {
        let app = Arc::clone(&airfoil_app);
        farm.submit(&cfd, move |op2| {
            let mut inst = app.declare(op2);
            let out = run(inst.as_mut(), RunConfig::iterations(2, 4));
            assert!(out.final_residual().is_finite());
        });
    };
    let submit_heat = |farm: &SolverFarm| {
        let app = Arc::clone(&heat_app);
        farm.submit(&heat, move |op2| {
            let mut inst = app.declare(op2);
            let out = run(inst.as_mut(), RunConfig::iterations(3, 4));
            assert!(out.final_residual() >= 0.0);
        });
    };

    submit_airfoil(&farm);
    farm.drain();
    let built_after_airfoil = farm.spec_share().built();
    assert!(built_after_airfoil > 0, "airfoil must build its specs");

    submit_heat(&farm);
    farm.drain();
    let built_after_heat = farm.spec_share().built();
    assert!(
        built_after_heat > built_after_airfoil,
        "heat's triangle loops must key their own entries, not reuse airfoil's"
    );

    // Reruns of both apps, interleaved: all warm, nothing rebuilt.
    let hits_before_rerun = farm.spec_share().hits();
    submit_heat(&farm);
    submit_airfoil(&farm);
    farm.drain();
    assert_eq!(
        farm.spec_share().built(),
        built_after_heat,
        "reruns of either app must not rebuild specs"
    );
    assert!(
        farm.spec_share().hits() > hits_before_rerun,
        "reruns must hit the warm shape-keyed entries"
    );
}

/// The same warm sharing works without a farm: two hand-built worlds
/// given the same `SpecShare` + feedback handles hit each other's specs.
/// (Both must be shared — granularity is resolved from the feedback
/// table, and a cold table would re-plan instead of hit.)
#[test]
fn spec_share_handle_works_across_plain_worlds() {
    let specs = SpecShare::new();
    let feedback = op2_hpx::op2::GranularityFeedback::new();
    let run = |iterations: usize| {
        let op2 = Op2::new(
            Op2Config::dataflow(2)
                .with_shared_specs(specs.clone())
                .with_shared_feedback(feedback.clone()),
        );
        let cells = op2.decl_set(300, "cells");
        let x = op2.decl_dat(&cells, 1, "x", vec![1.0f64; 300]);
        for _ in 0..iterations {
            op2.loop_("scale", &cells)
                .arg(op2_hpx::op2::args::rw(&x))
                .run(|x: &mut [f64]| x[0] *= 1.0)
                .wait();
        }
        op2.fence();
    };
    run(2);
    let built = specs.built();
    assert!(built > 0);
    run(2);
    assert_eq!(specs.built(), built, "second world must reuse warm specs");
    assert!(specs.hits() > 0);
}

/// Per-tenant counters (`op2.tenant.<name>.*`) tick with submissions and
/// completions, and farm-wide counters aggregate across tenants.
#[test]
fn tenant_counters_tick() {
    let before = op2_hpx::hpx::stats::snapshot();
    let farm = SolverFarm::new(FarmConfig::with_threads(2).with_lanes(2));
    // Unique name: counter namespaces are process-global.
    let tenant = farm.register("ctr_tenant_x9", Priority::Normal);
    for _ in 0..3 {
        farm.submit(&tenant, |_| {});
    }
    farm.drain();
    assert_eq!(before.delta("op2.tenant.ctr_tenant_x9.submitted"), 3);
    assert_eq!(before.delta("op2.tenant.ctr_tenant_x9.completed"), 3);
    assert_eq!(before.delta("op2.tenant.ctr_tenant_x9.panics"), 0);
    assert!(before.delta("op2.farm.submitted") >= 3);
    assert!(before.delta("op2.farm.completed") >= 3);
}

/// A panicking job reports through its handle (`outcome()` is `Err`,
/// `wait()` re-panics) without poisoning the farm: the same tenant's next
/// job still runs.
#[test]
fn job_panic_is_contained() {
    let before = op2_hpx::hpx::stats::snapshot();
    let farm = SolverFarm::new(FarmConfig::with_threads(2).with_lanes(2));
    let tenant = farm.register("panic_tenant_x9", Priority::Normal);

    let bad = farm.submit(&tenant, |_| panic!("boom in tenant job"));
    let err = bad.outcome().expect_err("panic must surface as Err");
    assert!(err.contains("boom in tenant job"), "got: {err}");
    assert!(
        std::panic::catch_unwind(|| bad.wait()).is_err(),
        "wait() must re-panic"
    );

    let ok = farm.submit(&tenant, |_| {});
    assert!(ok.outcome().is_ok(), "farm must survive a tenant panic");
    farm.drain();
    assert_eq!(before.delta("op2.tenant.panic_tenant_x9.panics"), 1);
    assert!(before.delta("op2.farm.panics") >= 1);
}
