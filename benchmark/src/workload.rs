//! The workload table, seed → inputs, and the per-configuration slots
//! that perform one timed operation on a long-lived world.

use std::rc::Rc;
use std::time::{Duration, Instant};

use airfoil_cfd::{PlainAirfoil, Problem, ShardedAirfoil, ShardedProblem};
use op2_app::{run, App, AppInstance, JacApp, RunConfig, RunOutcome};
use op2_core::{Op2, Op2Config};
use op2_mesh::{channel_with_bump, QuadMesh};

use crate::envinfo::THREADS;
use crate::trace::{Timed, Tracer};

/// The three backend configurations every workload is timed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    Seq,
    ForkJoin,
    Dataflow,
}

impl Config {
    pub const ALL: [Config; 3] = [Config::Seq, Config::ForkJoin, Config::Dataflow];

    pub fn name(self) -> &'static str {
        match self {
            Config::Seq => "seq",
            Config::ForkJoin => "forkjoin",
            Config::Dataflow => "dataflow",
        }
    }

    pub fn op2(self) -> Op2Config {
        match self {
            Config::Seq => Op2Config::seq(),
            Config::ForkJoin => Op2Config::fork_join(THREADS),
            Config::Dataflow => Op2Config::dataflow(THREADS),
        }
    }
}

/// What a workload solves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Airfoil on a channel-with-bump mesh of about `cells` cells; with
    /// `ranks > 1` the threaded configurations run sharded over that many
    /// in-process ranks and `seq` is the plain one-rank reference.
    Airfoil { cells: usize, ranks: usize },
    /// Jacobi on the `n x n` triangulated unit square, run to the spec's
    /// tolerance; every operation declares a fresh instance.
    Jac { n: usize },
}

/// One row of the workload table.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
    /// Iterations of one timed operation (ignored by `Jac`, whose length
    /// is data-dependent).
    pub iters: usize,
    /// Iterations of the warm-up operation.
    pub warm_iters: usize,
    /// Backpressure window of the time loop.
    pub window: usize,
    /// Set-ups per untraced run.
    pub setups: usize,
    /// Cross-configuration tolerance on residuals and state.
    pub tol: f64,
    /// At seed 1, `seq`'s final residual of the first timed operation
    /// (`Jac`: the residual that crossed the tolerance).
    pub golden: f64,
}

/// The four workloads. Operations are short — a round of three takes a
/// few hundred milliseconds on the 2-core reference host, so a 20 s run
/// times 45 or more per configuration: many short operations locate the
/// host's fast mode where few long ones cannot (README, "Noise"), and the
/// contract's cap on run time ruled out the issue's 10/1000/40
/// iterations per operation anyway.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "airfoil_large",
        why: "400k cells, ~60 MB of dats: kernels and memory traffic do nearly all the work, so kernel, layout, prefetch and arg-staging changes show here and scheduler changes should not",
        kind: Kind::Airfoil {
            cells: 400_000,
            ranks: 1,
        },
        iters: 2,
        warm_iters: 4,
        window: 16,
        // Five although each costs 1.4 s or more: dataflow's cold first
        // iteration re-plans a timing-dependent number of times here, a
        // second each, and `setup_s` wants at least one set-up that did
        // not (of three, all re-planned often enough to breach the A/A).
        setups: 5,
        tol: 1e-9,
        golden: 1.4952493272942e-3,
    },
    Workload {
        name: "airfoil_small",
        why: "4k cells, working set fits L2: per-node overhead (spec lookup, graph construction, future allocation, queue wait) dominates and kernel changes should barely move it",
        kind: Kind::Airfoil {
            cells: 4_000,
            ranks: 1,
        },
        iters: 100,
        warm_iters: 250,
        window: 16,
        setups: 5,
        tol: 1e-9,
        golden: 3.4967774813340576e-4,
    },
    Workload {
        name: "airfoil_sharded",
        why: "100k cells over 4 in-process ranks on one 2-worker runtime: the only workload with locality, transport, allreduce, partition and shard planning on the critical path",
        kind: Kind::Airfoil {
            cells: 100_000,
            ranks: 4,
        },
        iters: 6,
        warm_iters: 12,
        window: 16,
        setups: 4,
        tol: 1e-7,
        golden: 1.7985709613172606e-3,
    },
    Workload {
        name: "jac_converge",
        why: "short data-dependent solves (declare + converge at 1e-12, ~55-70 iterations): declare cost, spec-cache hits by shape, the async-reduction exit and window overrun matter, unlike long fixed runs",
        kind: Kind::Jac { n: 256 },
        iters: 0,
        warm_iters: 0,
        window: 16,
        setups: 5,
        tol: 1e-9,
        golden: 7.204783248237619e-13,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the benchmark's only randomness (mesh jitter and the
/// order of configurations within a round).
pub struct Rng(u64);

impl Rng {
    /// Seeds from the run's `--seed` and a label, so workloads and
    /// purposes draw different streams from the same seed.
    pub fn new(seed: u64, label: &str) -> Rng {
        let salt = label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        Rng(seed ^ salt)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

/// Mesh dimensions for `seed`.
///
/// Airfoil: the channel is `2k x k` with `2 k^2 = cells`; the long side is
/// jittered by up to ±5% and the short side takes up the slack, so block,
/// chunk and partition boundaries move with the seed while the cell count
/// — and with it the work of one operation — stays within about 1% (the
/// contract compares runs at different seeds, so the work must not vary
/// with the seed by more than a fraction of a metric's bound). Jacobi has
/// one dimension, so it moves by at most one row either way.
pub fn dims(w: &Workload, seed: u64) -> (usize, usize) {
    let mut rng = Rng::new(seed, w.name);
    match w.kind {
        Kind::Airfoil { cells, .. } => {
            let k = (cells as f64 / 2.0).sqrt();
            let imax = (2.0 * k * (0.95 + 0.1 * rng.unit())).round().max(2.0) as usize;
            let jmax = (cells as f64 / imax as f64).round().max(1.0) as usize;
            (imax, jmax)
        }
        Kind::Jac { n } => {
            let n = n - 1 + (rng.next_u64() % 3) as usize;
            (n, n)
        }
    }
}

/// The generated inputs: all the program under test ever sees of a seed.
pub enum Inputs {
    Airfoil { mesh: QuadMesh, ranks: usize },
    Jac(JacApp),
}

pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let (a, b) = dims(w, seed);
    match w.kind {
        Kind::Airfoil { ranks, .. } => Inputs::Airfoil {
            mesh: channel_with_bump(a, b),
            ranks,
        },
        Kind::Jac { .. } => Inputs::Jac(JacApp::new(a)),
    }
}

impl Inputs {
    /// `(name, value)` pairs describing the generated instance, for the
    /// result file.
    pub fn describe(&self) -> Vec<(String, f64)> {
        let pairs = match self {
            Inputs::Airfoil { mesh, ranks } => vec![
                ("cells", mesh.ncell as f64),
                ("nodes", mesh.nnode as f64),
                ("edges", mesh.nedge as f64),
                ("bedges", mesh.nbedge as f64),
                ("ranks", *ranks as f64),
            ],
            Inputs::Jac(app) => vec![
                ("nodes", app.mesh().nnode as f64),
                ("edges", app.mesh().nedge as f64),
                ("ranks", 1.0),
            ],
        };
        pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
    }

    /// The run configuration of one operation: `iters` fixed iterations,
    /// or (`None`) what the workload's timed operation runs.
    pub fn run_config(&self, w: &Workload, iters: Option<usize>) -> RunConfig {
        match (iters, self) {
            (Some(n), _) => RunConfig::iterations(n, w.window),
            (None, Inputs::Jac(app)) => app.default_run(),
            (None, Inputs::Airfoil { .. }) => RunConfig::iterations(w.iters, w.window),
        }
    }
}

/// What one operation produced.
pub struct Outcome {
    /// Wall time of the operation (for `Jac`: declare + run).
    pub wall: Duration,
    pub run: RunOutcome,
    /// `AppInstance::state()` after the run.
    pub state: Vec<f64>,
}

/// One `Op2` world of a slot with, per loop it runs, the elements one
/// invocation covers in that world.
pub struct WorldView<'s> {
    pub op2: &'s Op2,
    pub loop_elems: Vec<(&'static str, usize)>,
}

/// One configuration's long-lived world(s) plus whatever is declared on
/// them.
pub trait Slot {
    /// Performs one operation; only the operation is inside `wall`.
    fn operate(&mut self, cfg: RunConfig, tracer: &Tracer) -> Outcome;

    fn worlds(&self) -> Vec<WorldView<'_>>;

    fn sharded(&self) -> Option<&ShardedProblem> {
        None
    }
}

/// `op2_app::run`, under a `run` span with `step`/`fence` children when
/// tracing is on and undecorated when it is off.
fn run_op<I: AppInstance + ?Sized>(inst: &mut I, cfg: RunConfig, tracer: &Tracer) -> RunOutcome {
    if tracer.enabled() {
        tracer.span("run", || {
            run(
                &mut Timed {
                    inner: inst,
                    tracer,
                },
                cfg,
            )
        })
    } else {
        run(inst, cfg)
    }
}

fn airfoil_loop_elems(cells: usize, edges: usize, bedges: usize) -> Vec<(&'static str, usize)> {
    vec![
        ("save_soln", cells),
        ("adt_calc", cells),
        ("res_calc", edges),
        ("bres_calc", bedges),
        ("update", cells),
    ]
}

struct PlainAirfoilSlot {
    op2: Op2,
    problem: Problem,
}

impl Slot for PlainAirfoilSlot {
    fn operate(&mut self, cfg: RunConfig, tracer: &Tracer) -> Outcome {
        let t0 = Instant::now();
        let run = run_op(
            &mut PlainAirfoil::new(&self.op2, &self.problem),
            cfg,
            tracer,
        );
        Outcome {
            wall: t0.elapsed(),
            run,
            state: self.problem.p_q.snapshot(),
        }
    }

    fn worlds(&self) -> Vec<WorldView<'_>> {
        let p = &self.problem;
        vec![WorldView {
            op2: &self.op2,
            loop_elems: airfoil_loop_elems(p.cells.size(), p.edges.size(), p.bedges.size()),
        }]
    }
}

struct ShardedAirfoilSlot {
    shp: ShardedProblem,
}

impl Slot for ShardedAirfoilSlot {
    fn operate(&mut self, cfg: RunConfig, tracer: &Tracer) -> Outcome {
        let t0 = Instant::now();
        let run = run_op(&mut ShardedAirfoil::new(&mut self.shp, 0.0), cfg, tracer);
        Outcome {
            wall: t0.elapsed(),
            run,
            state: self.shp.gather_q(),
        }
    }

    fn worlds(&self) -> Vec<WorldView<'_>> {
        let first = self.shp.group.local_ranks().start;
        self.shp
            .parts
            .iter()
            .enumerate()
            .map(|(i, p)| WorldView {
                op2: self.shp.group.rank(first + i),
                loop_elems: airfoil_loop_elems(p.cells.size(), p.edges.size(), p.bedges.size()),
            })
            .collect()
    }

    fn sharded(&self) -> Option<&ShardedProblem> {
        Some(&self.shp)
    }
}

struct JacSlot {
    op2: Op2,
    inputs: Rc<Inputs>,
}

impl JacSlot {
    fn app(&self) -> &JacApp {
        match &*self.inputs {
            Inputs::Jac(app) => app,
            Inputs::Airfoil { .. } => unreachable!("a Jac slot is only made from Jac inputs"),
        }
    }
}

impl Slot for JacSlot {
    fn operate(&mut self, cfg: RunConfig, tracer: &Tracer) -> Outcome {
        // Every solve needs fresh state, so declare is part of the
        // operation; the world (plan and spec caches) stays warm.
        let t0 = Instant::now();
        let mut inst = tracer.span("declare", || self.app().declare(&self.op2));
        let run = run_op(inst.as_mut(), cfg, tracer);
        Outcome {
            wall: t0.elapsed(),
            run,
            state: inst.state(),
        }
    }

    fn worlds(&self) -> Vec<WorldView<'_>> {
        let mesh = self.app().mesh();
        vec![WorldView {
            op2: &self.op2,
            loop_elems: vec![("jac_spmv", mesh.nedge), ("jac_update", mesh.nnode)],
        }]
    }
}

/// Creates `config`'s world and declares the workload on it.
pub fn make_slot(inputs: &Rc<Inputs>, config: Config, tracer: &Tracer) -> Box<dyn Slot> {
    match &**inputs {
        Inputs::Airfoil { mesh, ranks } if *ranks > 1 && config != Config::Seq => {
            tracer.span("declare_sharded", || {
                Box::new(ShardedAirfoilSlot {
                    shp: ShardedProblem::declare(config.op2(), mesh, *ranks),
                }) as Box<dyn Slot>
            })
        }
        Inputs::Airfoil { mesh, .. } => tracer.span("declare", || {
            let op2 = Op2::new(config.op2());
            let problem = Problem::declare(&op2, mesh);
            Box::new(PlainAirfoilSlot { op2, problem }) as Box<dyn Slot>
        }),
        Inputs::Jac(_) => tracer.span("world", || {
            Box::new(JacSlot {
                op2: Op2::new(config.op2()),
                inputs: Rc::clone(inputs),
            }) as Box<dyn Slot>
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_determines_the_mesh_size() {
        for w in &WORKLOADS {
            for seed in 0..50 {
                assert_eq!(
                    dims(w, seed),
                    dims(w, seed),
                    "{}: same seed, same mesh",
                    w.name
                );
            }
            let distinct: std::collections::BTreeSet<_> = (0..50).map(|s| dims(w, s)).collect();
            assert!(distinct.len() > 1, "{}: the seed moves the mesh", w.name);
        }
    }

    #[test]
    fn jitter_moves_each_dimension_but_not_the_work() {
        for w in &WORKLOADS {
            for seed in 0..200 {
                let (a, b) = dims(w, seed);
                match w.kind {
                    Kind::Airfoil { cells, .. } => {
                        let k = (cells as f64 / 2.0).sqrt();
                        assert!((a as f64 / (2.0 * k) - 1.0).abs() <= 0.051, "{a} vs {k}");
                        assert!((b as f64 / k - 1.0).abs() <= 0.07, "{b} vs {k}");
                        let off = (a * b) as f64 / cells as f64 - 1.0;
                        assert!(off.abs() < 0.012, "{}: {a}x{b} is {off:+.3} off", w.name);
                    }
                    Kind::Jac { n } => assert!(a == b && a.abs_diff(n) <= 1),
                }
            }
        }
    }

    #[test]
    fn workloads_of_one_seed_draw_different_streams() {
        let a = Rng::new(1, "airfoil_large").next_u64();
        let b = Rng::new(1, "airfoil_small").next_u64();
        assert_ne!(a, b);
        let mut order = [0, 1, 2, 3, 4, 5, 6, 7];
        Rng::new(3, "order").shuffle(&mut order);
        let mut sorted = order;
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3, 4, 5, 6, 7]);
    }
}
