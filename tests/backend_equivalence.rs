//! Cross-backend equivalence of the full Airfoil application through the
//! umbrella crate's public API: every execution strategy must produce the
//! same physics (up to summation-order rounding).

use op2_hpx::airfoil::shard::{run_sharded, ShardedProblem};
use op2_hpx::airfoil::verify::{all_finite, max_rel_diff, max_scaled_diff};
use op2_hpx::airfoil::{solver, Problem, SolverConfig};
use op2_hpx::hpx::ChunkPolicy;
use op2_hpx::mesh::channel_with_bump;
use op2_hpx::op2::{Backend, Op2, Op2Config};

fn simulate(config: Op2Config) -> (Vec<f64>, Vec<f64>) {
    let op2 = Op2::new(config);
    let mesh = channel_with_bump(32, 16);
    let p = Problem::declare(&op2, &mesh);
    let r = solver::run(
        &op2,
        &p,
        &SolverConfig {
            niter: 12,
            window: 4,
            print_every: 0,
            ..SolverConfig::default()
        },
    );
    (r.rms_history, p.p_q.snapshot())
}

/// Every chunk policy.
fn policy_matrix() -> Vec<(&'static str, ChunkPolicy)> {
    vec![
        ("static64", ChunkPolicy::Static { size: 64 }),
        ("numchunks4", ChunkPolicy::NumChunks { chunks: 4 }),
        ("auto", ChunkPolicy::default()),
    ]
}

fn backend_config(backend: Backend) -> Op2Config {
    match backend {
        Backend::Seq => Op2Config::seq(),
        Backend::ForkJoin => Op2Config::fork_join(2),
        Backend::Dataflow => Op2Config::dataflow(2),
    }
}

#[test]
fn all_backends_and_optimizations_agree() {
    let (rms_ref, q_ref) = simulate(Op2Config::seq());
    assert!(all_finite(&rms_ref) && all_finite(&q_ref));

    let mut candidates: Vec<(String, Op2Config)> = vec![
        ("fork_join(4)".into(), Op2Config::fork_join(4)),
        (
            "dataflow+prefetch".into(),
            Op2Config::dataflow(2).with_prefetch(15),
        ),
        (
            "dataflow+block128".into(),
            Op2Config::dataflow(2).with_block_size(128),
        ),
    ];
    // The full Backend x ChunkPolicy matrix: adaptive (feedback-resolved)
    // granularity must never change the physics on any backend.
    for backend in [Backend::Seq, Backend::ForkJoin, Backend::Dataflow] {
        for (pname, policy) in policy_matrix() {
            candidates.push((
                format!("{backend}+{pname}"),
                backend_config(backend).with_chunk(policy),
            ));
        }
    }
    for (name, config) in candidates {
        let (rms, q) = simulate(config);
        let d_rms = max_rel_diff(&rms_ref, &rms);
        let d_q = max_scaled_diff(&q_ref, &q, 1.0);
        assert!(d_rms < 1e-7, "{name}: rms deviates by {d_rms:e}");
        assert!(d_q < 1e-9, "{name}: q deviates by {d_q:e}");
    }
}

/// The multi-rank extension of the harness above: the sharded execution
/// path must reproduce the single-locality physics under every backend —
/// the sequential reference, the fork-join baseline and the dataflow
/// engine with its overlapped halo exchange all within the same rounding
/// budget, and 1-rank sharding under Seq *bitwise* (identical renumbering,
/// identical execution order).
#[test]
fn sharded_ranks_agree_with_single_locality_across_backends() {
    let (rms_ref, q_ref) = simulate(Op2Config::seq());
    let mesh = channel_with_bump(32, 16);
    let cfg = SolverConfig {
        niter: 12,
        window: 4,
        print_every: 0,
        ..SolverConfig::default()
    };
    let candidates: Vec<(&str, Op2Config, usize)> = vec![
        ("seq x1", Op2Config::seq(), 1),
        ("seq x4", Op2Config::seq(), 4),
        ("fork_join(2) x4", Op2Config::fork_join(2), 4),
        ("fork_join(2) x3", Op2Config::fork_join(2), 3),
        ("dataflow(2) x4", Op2Config::dataflow(2), 4),
        ("dataflow(4) x3", Op2Config::dataflow(4), 3),
        (
            "dataflow(2) x4 block128",
            Op2Config::dataflow(2).with_block_size(128),
            4,
        ),
        ("dataflow(2) x1", Op2Config::dataflow(2), 1),
        (
            "fork_join(2) x4 static64",
            Op2Config::fork_join(2).with_chunk(ChunkPolicy::Static { size: 64 }),
            4,
        ),
    ];
    for (name, config, nranks) in candidates {
        let mut shp = ShardedProblem::declare(config, &mesh, nranks);
        let r = run_sharded(&mut shp, &cfg);
        let q = shp.gather_q();
        if name == "seq x1" {
            assert_eq!(r.rms_history, rms_ref, "1-rank Seq sharding is bitwise");
            assert_eq!(q, q_ref, "1-rank Seq sharding is bitwise");
            continue;
        }
        let d_rms = max_rel_diff(&rms_ref, &r.rms_history);
        let d_q = max_scaled_diff(&q_ref, &q, 1.0);
        assert!(d_rms < 1e-7, "{name}: rms deviates by {d_rms:e}");
        assert!(d_q < 1e-9, "{name}: q deviates by {d_q:e}");
    }
}

/// Airfoil, heat and jac behind the one [`App`] interface.
fn every_app() -> Vec<Box<dyn op2_hpx::app::App>> {
    vec![
        Box::new(op2_hpx::airfoil::AirfoilApp::new(16, 8)),
        Box::new(op2_hpx::app::HeatApp::new(12)),
        Box::new(op2_hpx::app::JacApp::new(12)),
    ]
}

/// The app-generic matrix: every [`App`] (airfoil, heat, jac) × every
/// backend × plain and ≥2-rank sharded localities reproduces its own Seq
/// single-world reference through the one shared harness — nothing in
/// the application layer is airfoil-specific.
#[test]
fn every_app_agrees_across_backends_and_shardings() {
    use op2_hpx::app::{run, RunConfig};

    // Fixed iterations (not the spec's convergence exit) so every
    // backend runs the same step count and histories are comparable.
    let cfg = || RunConfig::iterations(12, 4);

    for app in &every_app() {
        let name = app.name();
        let op2 = Op2::new(Op2Config::seq());
        let mut reference = app.declare(&op2);
        let out_ref = run(reference.as_mut(), cfg());
        let state_ref = reference.state();
        assert!(all_finite(&out_ref.residuals) && all_finite(&state_ref));

        // Plain worlds on the threaded backends.
        for (cname, config) in [
            ("fork_join(2)", Op2Config::fork_join(2)),
            ("dataflow(2)", Op2Config::dataflow(2)),
        ] {
            let op2 = Op2::new(config);
            let mut inst = app.declare(&op2);
            let out = run(inst.as_mut(), cfg());
            let d_res = max_rel_diff(&out_ref.residuals, &out.residuals);
            let d_state = max_scaled_diff(&state_ref, &inst.state(), 1.0);
            assert!(d_res < 1e-7, "{name}/{cname}: residuals deviate {d_res:e}");
            assert!(d_state < 1e-9, "{name}/{cname}: state deviates {d_state:e}");
        }

        // Sharded localities, two and three ranks.
        for (cname, config, nranks) in [
            ("seq x2", Op2Config::seq(), 2),
            ("fork_join(2) x2", Op2Config::fork_join(2), 2),
            ("dataflow(2) x3", Op2Config::dataflow(2), 3),
        ] {
            let mut inst = app.declare_sharded(config, nranks);
            let out = run(inst.as_mut(), cfg());
            let d_res = max_rel_diff(&out_ref.residuals, &out.residuals);
            let d_state = max_scaled_diff(&state_ref, &inst.state(), 1.0);
            assert!(d_res < 1e-7, "{name}/{cname}: residuals deviate {d_res:e}");
            assert!(d_state < 1e-9, "{name}/{cname}: state deviates {d_state:e}");
        }
    }
}

/// Plain is the one-part case of sharded, for every app: a 1-rank group
/// renumbers nothing, exchanges nothing and combines one partial, so
/// under Seq it must reproduce the bare-world run bit for bit — both the
/// residual history and the gathered state.
#[test]
fn one_rank_sharded_seq_is_bitwise_the_plain_seq_run_for_every_app() {
    use op2_hpx::app::{run, RunConfig};

    for app in &every_app() {
        let name = app.name();
        let op2 = Op2::new(Op2Config::seq());
        let mut plain = app.declare(&op2);
        let out_plain = run(plain.as_mut(), RunConfig::iterations(6, 2));

        let mut sharded = app.declare_sharded(Op2Config::seq(), 1);
        let out_sharded = run(sharded.as_mut(), RunConfig::iterations(6, 2));

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&out_plain.residuals),
            bits(&out_sharded.residuals),
            "{name}: residual history"
        );
        assert_eq!(
            bits(&plain.state()),
            bits(&sharded.state()),
            "{name}: state"
        );
    }
}

#[test]
fn repeated_runs_on_one_context_continue_the_flow() {
    let op2 = Op2::new(Op2Config::dataflow(2));
    let mesh = channel_with_bump(24, 12);
    let p = Problem::declare(&op2, &mesh);
    let cfg = SolverConfig {
        niter: 4,
        window: 2,
        print_every: 0,
        ..SolverConfig::default()
    };
    let r1 = solver::run(&op2, &p, &cfg);
    let r2 = solver::run(&op2, &p, &cfg);
    // The flow keeps evolving — histories are different but all finite.
    assert!(all_finite(&r1.rms_history) && all_finite(&r2.rms_history));
    assert_ne!(r1.rms_history, r2.rms_history);
    // Plans are cached across calls: 2 colored shapes (res, bres), each at
    // the probe-default granularity plus the granularities the measured
    // feedback later resolved (adaptive chunking builds a plan per
    // distinct coloring granularity; a converged chunker stops adding).
    let (built, _) = op2.plan_cache_stats();
    assert!(
        (2..=8).contains(&built),
        "colored plans per (shape x granularity), got {built}"
    );
    // Reuse now happens one level up: the loop-spec cache returns the
    // whole schedule (blocks + color rounds) for repeated submissions, so
    // the plan cache is only consulted on spec misses and re-plans. 5 loop
    // shapes, two runs of 4 iterations: (1 save + 2*(adt+res+bres+update))
    // * 4 = 36 submissions each. Every submission is a miss (first of
    // shape), a re-plan (the measured feedback moved that shape's resolved
    // granularity — at least one shape must move off the probe default
    // under the default Auto policy) or a hit.
    let (spec_built, spec_hits) = op2.spec_cache_stats();
    let replans = op2.spec_cache_replans();
    assert_eq!(spec_built, 5, "one live schedule per Airfoil loop shape");
    assert_eq!(
        spec_hits + replans,
        2 * 36 - 5,
        "submissions = misses + re-plans + hits"
    );
    assert!(replans >= 1, "feedback must move off the probe default");
    assert!(
        replans <= 15,
        "a converged chunker must stop re-planning, got {replans}"
    );
}
