//! Cross-backend equivalence of the full Airfoil application through the
//! umbrella crate's public API: every execution strategy must produce the
//! same physics (up to summation-order rounding).

use std::sync::Arc;

use op2_hpx::airfoil::verify::{all_finite, max_rel_diff, max_scaled_diff};
use op2_hpx::airfoil::{PlainAirfoil, Problem, ShardedAirfoil, ShardedProblem};
use op2_hpx::app::harness::Worlds;
use op2_hpx::app::shard::declare_node_graphs;
use op2_hpx::app::{run, RunConfig};
use op2_hpx::mesh::{channel_with_bump, unit_square};
use op2_hpx::op2::args::{inc, rw, write};
use op2_hpx::op2::locality::{HaloSpec, LocalityGroup};
use op2_hpx::op2::rebalance::{migrate_rows, MigrationSpec};
use op2_hpx::op2::ChunkPolicy;
use op2_hpx::op2::{Backend, Dat, Op2, Op2Config};

fn simulate(config: Op2Config) -> (Vec<f64>, Vec<f64>) {
    let op2 = Op2::new(config);
    let mesh = channel_with_bump(32, 16);
    let p = Problem::declare(&op2, &mesh);
    let r = run(
        &mut PlainAirfoil::new(&op2, &p),
        RunConfig::iterations(12, 4),
    );
    (r.residuals, p.p_q.snapshot())
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
    let cfg = || RunConfig::iterations(12, 4);
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
        let r = run(&mut ShardedAirfoil::new(&mut shp, 0.0), cfg());
        let q = shp.gather_q();
        if name == "seq x1" {
            assert_eq!(r.residuals, rms_ref, "1-rank Seq sharding is bitwise");
            assert_eq!(q, q_ref, "1-rank Seq sharding is bitwise");
            continue;
        }
        let d_rms = max_rel_diff(&rms_ref, &r.residuals);
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
    let cfg = || RunConfig::iterations(4, 2);
    let r1 = run(&mut PlainAirfoil::new(&op2, &p), cfg());
    let r2 = run(&mut PlainAirfoil::new(&op2, &p), cfg());
    // The flow keeps evolving — histories are different but all finite.
    assert!(all_finite(&r1.residuals) && all_finite(&r2.residuals));
    assert_ne!(r1.residuals, r2.residuals);
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

#[test]
fn one_mesh_declared_on_every_backend_is_resident_once() {
    let mesh = channel_with_bump(32, 16);
    let tables = [
        &mesh.edge_nodes,
        &mesh.edge_cells,
        &mesh.bedge_nodes,
        &mesh.bedge_cells,
        &mesh.cell_nodes,
    ];
    for backend in [Backend::Seq, Backend::ForkJoin, Backend::Dataflow] {
        let op2 = Op2::new(backend_config(backend));
        let p = Problem::declare(&op2, &mesh);
        let maps = [&p.pedge, &p.pecell, &p.pbedge, &p.pbecell, &p.pcell];
        for (map, table) in maps.into_iter().zip(tables) {
            assert_eq!(
                map.indices().as_ptr(),
                table.as_ptr(),
                "{backend:?}: map '{}' copied the mesh table",
                map.name()
            );
        }
    }

    // The one-world node graph (heat, jac) shares the edge table too.
    let tri = unit_square(6);
    let op2 = Op2::new(Op2Config::seq());
    let (graphs, _) = declare_node_graphs(&Worlds::One(&op2), tri.nnode, &tri.edge_nodes);
    assert_eq!(graphs[0].pedge.indices().as_ptr(), tri.edge_nodes.as_ptr());

    // An owned table moves in: the map keeps the very buffer.
    let (edges, nodes) = (op2.decl_set(3, "edges"), op2.decl_set(4, "nodes"));
    let owned = vec![0u32, 1, 1, 2, 2, 3];
    let buffer = owned.as_ptr();
    let map = op2.decl_map(&edges, &nodes, 2, owned, "pedge");
    assert_eq!(map.indices().as_ptr(), buffer);

    // A sharded problem keeps the caller's tables; its parts' renumbered
    // tables are their own.
    let shp = ShardedProblem::declare(Op2Config::seq(), &mesh, 2);
    let kept = [
        &shp.mesh.edge_nodes,
        &shp.mesh.edge_cells,
        &shp.mesh.bedge_nodes,
        &shp.mesh.bedge_cells,
        &shp.mesh.cell_nodes,
    ];
    for (kept, table) in kept.into_iter().zip(tables) {
        assert!(Arc::ptr_eq(kept, table), "the sharded mesh copied a table");
    }
    for part in &shp.parts {
        assert_ne!(part.pecell.indices().as_ptr(), mesh.edge_cells.as_ptr());
    }
}

/// Read-only inputs are resident once too: a dat declared from an `Arc`
/// its caller still shares is that buffer, not a copy of it, while an
/// owned `Vec` moves in and stays writable.
#[test]
fn dats_declared_from_shared_data_alias_it() {
    let mesh = channel_with_bump(32, 16);
    for backend in [Backend::Seq, Backend::ForkJoin, Backend::Dataflow] {
        let op2 = Op2::new(backend_config(backend));
        let p = Problem::declare(&op2, &mesh);
        assert_eq!(p.p_x.read().as_ptr(), mesh.x.as_ptr(), "{backend:?}: p_x");
        assert_eq!(
            p.p_bound.read().as_ptr(),
            mesh.bound.as_ptr(),
            "{backend:?}: p_bound"
        );
    }

    // The one-world node graph shares per-node inputs; a rank's part
    // gathers its own (writable) copy.
    let tri = unit_square(6);
    let op2 = Op2::new(Op2Config::seq());
    let (graphs, _) = declare_node_graphs(&Worlds::One(&op2), tri.nnode, &tri.edge_nodes);
    assert!(
        graphs[0].l2g.is_none(),
        "the whole graph keeps no identity l2g"
    );
    assert!(Arc::ptr_eq(&graphs[0].shared(&tri.x), &tri.x));
    let group = Worlds::Group(LocalityGroup::new(Op2Config::seq(), 2));
    let (parts, _) = declare_node_graphs(&group, tri.nnode, &tri.edge_nodes);
    assert!(!Arc::ptr_eq(
        &parts[0].shared(&tri.node_boundary),
        &tri.node_boundary
    ));

    // A sharded problem's coordinates are renumbered per rank: its own.
    let shp = ShardedProblem::declare(Op2Config::seq(), &mesh, 2);
    for part in &shp.parts {
        assert_ne!(part.p_x.read().as_ptr(), mesh.x.as_ptr());
        part.p_x.write();
    }

    // An owned buffer moves in and stays writable.
    let nodes = op2.decl_set(4, "nodes");
    let owned = vec![0.0f64; 4];
    let buffer = owned.as_ptr();
    let d = op2.decl_dat(&nodes, 1, "d", owned);
    op2.loop_("bump", &nodes)
        .arg(rw(&d))
        .run(|v: &mut [f64]| v[0] += 1.0);
    assert_eq!(d.read().as_ptr(), buffer);
    assert_eq!(d.snapshot(), vec![1.0; 4]);
}

/// A world with one dat, "shared_x", that aliases data its caller keeps.
fn shared_dat() -> (Op2, Arc<Vec<f64>>, Dat<f64>) {
    let op2 = Op2::new(Op2Config::seq());
    let nodes = op2.decl_set(4, "nodes");
    let data = Arc::new(vec![1.0f64; 4]);
    let d = op2.decl_dat(&nodes, 1, "shared_x", Arc::clone(&data));
    (op2, data, d)
}

#[test]
#[should_panic(expected = "dat 'shared_x': a mutable loop argument needs a writable dat")]
fn shared_dat_as_a_write_argument_panics() {
    let (op2, _data, d) = shared_dat();
    op2.loop_("w", d.set())
        .arg(write(&d))
        .run(|v: &mut [f64]| v[0] = 0.0);
}

#[test]
#[should_panic(expected = "dat 'shared_x': a mutable loop argument needs a writable dat")]
fn shared_dat_as_an_rw_argument_panics() {
    let (op2, _data, d) = shared_dat();
    op2.loop_("rw", d.set())
        .arg(rw(&d))
        .run(|v: &mut [f64]| v[0] *= 2.0);
}

#[test]
#[should_panic(expected = "dat 'shared_x': a mutable loop argument needs a writable dat")]
fn shared_dat_as_an_inc_argument_panics() {
    let (op2, _data, d) = shared_dat();
    op2.loop_("inc", d.set())
        .arg(inc(&d))
        .run(|v: &mut [f64]| v[0] += 1.0);
}

#[test]
#[should_panic(expected = "dat 'shared_x': write() needs a writable dat")]
fn shared_dat_write_guard_panics() {
    let (_op2, _data, d) = shared_dat();
    d.write();
}

#[test]
#[should_panic(expected = "dat 'shared_x': a halo link needs a writable dat")]
fn shared_dat_halo_link_panics() {
    let group = LocalityGroup::new(Op2Config::seq(), 2);
    let data = Arc::new(vec![0.0f64; 3]);
    let shards: Vec<Dat<f64>> = (0..2)
        .map(|r| {
            let cells = group.rank(r).decl_set(2, "cells");
            group
                .rank(r)
                .decl_dat_halo(&cells, 1, "shared_x", Arc::clone(&data), 1)
        })
        .collect();
    group.link_halo(&shards, &HaloSpec::empty(2));
}

#[test]
#[should_panic(expected = "dat 'shared_x': a row-move landing needs a writable dat")]
fn shared_dat_as_a_migration_destination_panics() {
    let group = LocalityGroup::new(Op2Config::seq(), 2);
    let (old_owned, new_owned) = (vec![vec![0, 1], vec![2, 3]], vec![vec![0, 1, 2], vec![3]]);
    let data: Vec<Arc<Vec<f64>>> = new_owned
        .iter()
        .map(|o| Arc::new(vec![0.0; o.len()]))
        .collect();
    let declare = |owned: &[Vec<u32>], name: &str, shared: bool| -> Vec<Dat<f64>> {
        (0..2)
            .map(|r| {
                let set = group.rank(r).decl_set(owned[r].len(), "elems");
                let vals = if shared {
                    Arc::clone(&data[r])
                } else {
                    Arc::new(vec![0.0; owned[r].len()])
                };
                group.rank(r).decl_dat(&set, 1, name, vals)
            })
            .collect()
    };
    let old = declare(&old_owned, "x", false);
    let new = declare(&new_owned, "shared_x", true);
    migrate_rows(
        &group,
        &old,
        &new,
        &MigrationSpec::diff(&old_owned, &new_owned),
    );
}
