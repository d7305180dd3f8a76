//! Micro-benchmarks of the runtime substrate and the OP2 layer: the
//! component costs behind the paper's end-to-end figures (future overhead,
//! dataflow chaining, chunked loops, plan coloring, one Airfoil iteration
//! per backend).
//!
//! Self-contained stopwatch harness (`harness = false`; the environment is
//! offline, so no external bench framework). Run with
//! `cargo bench -p op2-bench` — pass a substring to filter benchmarks,
//! `--quick` for one iteration each.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use airfoil_cfd::{solver, Problem, SolverConfig};
use hpx_rt::{dataflow, for_each, ready, ChunkPolicy, Runtime};
use op2_core::{Op2, Op2Config};
use op2_mesh::channel_with_bump;

/// Measures `f` until ~`budget` elapsed (after one warm-up call) and
/// prints mean ns/op, min and iteration count.
struct Bench {
    filter: Option<String>,
    budget: Duration,
}

impl Bench {
    fn from_args() -> Self {
        let mut filter = None;
        let mut budget = Duration::from_millis(500);
        for a in std::env::args().skip(1) {
            match a.as_str() {
                "--quick" => budget = Duration::ZERO,
                "--bench" => {} // passed by `cargo bench`
                s if !s.starts_with("--") => filter = Some(s.to_owned()),
                _ => {}
            }
        }
        Bench { filter, budget }
    }

    fn run<R>(&self, name: &str, mut f: impl FnMut() -> R) {
        if let Some(flt) = &self.filter {
            if !name.contains(flt.as_str()) {
                return;
            }
        }
        std::hint::black_box(f()); // warm-up
        let mut iters = 0u64;
        let mut min = Duration::MAX;
        let t0 = Instant::now();
        loop {
            let t = Instant::now();
            std::hint::black_box(f());
            let d = t.elapsed();
            min = min.min(d);
            iters += 1;
            if t0.elapsed() >= self.budget || iters >= 10_000 {
                break;
            }
        }
        let mean = t0.elapsed().as_nanos() as f64 / iters as f64;
        println!(
            "{name:<44} {mean:>14.0} ns/op   min {:>12} ns   ({iters} iters)",
            min.as_nanos()
        );
    }
}

fn bench_futures(b: &Bench) {
    let rt = Runtime::new(2);
    b.run("future/spawn_get_roundtrip", || {
        rt.spawn_future(|| 42u64).get()
    });
    b.run("future/dataflow_chain_64", || {
        let mut f = ready(0u64);
        for _ in 0..64 {
            f = dataflow(&rt, |(x,)| x + 1, (f,));
        }
        f.get()
    });
    b.run("future/when_all_64", || {
        let futs: Vec<_> = (0..64).map(|i| rt.spawn_future(move || i)).collect();
        hpx_rt::when_all(futs).get()
    });
    b.run("future/schedule_after_64_deps", || {
        let deps: Vec<_> = (0..64).map(|_| rt.spawn_future(|| ()).share()).collect();
        hpx_rt::schedule_after(&rt, &deps, || ()).get()
    });
}

fn bench_for_each(b: &Bench) {
    let rt = Runtime::new(2);
    let data: Vec<f64> = (0..1_000_000).map(|i| i as f64).collect();
    for (name, chunk) in [
        (
            "for_each_1M/static_4096",
            ChunkPolicy::Static { size: 4096 },
        ),
        (
            "for_each_1M/num_chunks_8",
            ChunkPolicy::NumChunks { chunks: 8 },
        ),
        ("for_each_1M/auto", ChunkPolicy::default()),
    ] {
        b.run(name, || {
            let acc = AtomicU64::new(0);
            for_each(&rt, &chunk, 0..data.len(), |i| {
                acc.fetch_add(data[i] as u64, Ordering::Relaxed);
            });
            acc.into_inner()
        });
    }
}

fn bench_plan(b: &Bench) {
    // Plan construction cost on a paper-shaped edge->cell conflict.
    let mesh = channel_with_bump(200, 100);
    b.run("plan/color_20k_cells_mesh", || {
        // Fresh context so the plan cache never hits.
        let op2 = Op2::new(Op2Config::seq());
        let edges = op2.decl_set(mesh.nedge, "edges");
        let cells = op2.decl_set(mesh.ncell, "cells");
        let pecell = op2.decl_map(&edges, &cells, 2, mesh.edge_cells.clone(), "pecell");
        let res = op2.decl_dat(&cells, 4, "res", vec![0.0f64; mesh.ncell * 4]);
        let infos = vec![
            op2_core::ArgSpec::info(&op2_core::arg_inc_via(&res, &pecell, 0)),
            op2_core::ArgSpec::info(&op2_core::arg_inc_via(&res, &pecell, 1)),
        ];
        op2_core::plan_for(&op2, &edges, &infos).expect("colored plan")
    });
}

fn bench_airfoil_iteration(b: &Bench) {
    let mesh = channel_with_bump(100, 50);
    for (name, config) in [
        ("airfoil_5k_cells_iter/forkjoin_2t", Op2Config::fork_join(2)),
        ("airfoil_5k_cells_iter/dataflow_2t", Op2Config::dataflow(2)),
    ] {
        let op2 = Op2::new(config);
        let problem = Problem::declare(&op2, &mesh);
        b.run(name, || {
            solver::run(
                &op2,
                &problem,
                &SolverConfig {
                    niter: 1,
                    window: 0,
                    print_every: 0,
                    ..SolverConfig::default()
                },
            )
            .final_rms()
        });
    }
}

fn main() {
    let b = Bench::from_args();
    bench_futures(&b);
    bench_for_each(&b);
    bench_plan(&b);
    bench_airfoil_iteration(&b);
}
