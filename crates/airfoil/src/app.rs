//! Airfoil as an [`op2_app::App`]: one iteration body, written over the
//! translator-generated wrappers (`specs/airfoil.op2` →
//! `tests/golden/airfoil_hpx.rs`, `include!`d below), submitted on every
//! part of the problem in rank order.
//!
//! A plain run is the one-part case of a sharded run: [`AirfoilInstance`]
//! steps a single [`Problem`] on a bare world or a
//! [`ShardedProblem`]'s parts on its locality group through the same
//! five loops ([`op2_app::Worlds`] answers what differs — the residual
//! fan-in, the fence, who prints). [`crate::solver::run`] and
//! [`crate::shard::run_sharded`] drive it with borrowed problems,
//! [`AirfoilApp`] packages it behind the [`App`] factory for the
//! app-generic test matrix.

use std::sync::Arc;

use op2_app::{App, AppInstance, RebalanceReport, RunConfig, StepOutput, Worlds};
use op2_core::locality::LocalityGroup;
use op2_core::{Global, Op2, Op2Config, ResidualMap};
use op2_mesh::{channel_with_bump, QuadMesh};

use crate::kernels;
use crate::setup::Problem;
use crate::shard::ShardedProblem;

/// The translator-generated loop wrappers (kept as a checked-in golden
/// file; see the spec header for the regeneration command). They carry
/// the access descriptors; [`crate::kernels`] carries the arithmetic.
/// Their docs spell map slots as `map[i]`, which rustdoc would read as
/// links.
#[allow(rustdoc::broken_intra_doc_links)]
mod generated {
    include!("../../translator/tests/golden/airfoil_hpx.rs");
}

/// What an [`AirfoilInstance`] iterates.
enum Subject<'a> {
    /// A single part on a bare world.
    Plain(&'a Op2, Problem),
    /// A borrowed sharded problem (borrowed mutably: a rebalance replaces
    /// its parts, and the caller keeps the problem).
    Sharded(&'a mut ShardedProblem),
    /// A sharded problem the instance owns (the [`App`] factory path).
    Owned(Box<ShardedProblem>),
}

/// A declared Airfoil problem ready to iterate under [`op2_app::run`].
pub struct AirfoilInstance<'a> {
    subject: Subject<'a>,
    /// Artificial cost skew ([`crate::SolverConfig::skew`]).
    skew: f64,
}

/// Names the single-world constructor of [`AirfoilInstance`]
/// (`PlainAirfoil::new(&op2, &problem)` is how the benchmark rig and the
/// tests spell it).
pub struct PlainAirfoil;

impl PlainAirfoil {
    /// Wraps an already-declared problem (sharing its handles) with no
    /// cost skew.
    #[allow(clippy::new_ret_no_self)]
    pub fn new<'a>(op2: &'a Op2, p: &Problem) -> AirfoilInstance<'a> {
        AirfoilInstance::plain(op2, p, 0.0)
    }
}

/// Names the sharded constructor of [`AirfoilInstance`]
/// (`ShardedAirfoil::new(&mut problem, skew)`).
pub struct ShardedAirfoil;

impl ShardedAirfoil {
    /// Wraps an already-declared sharded problem; `skew` is the
    /// artificial cost skew ([`crate::SolverConfig::skew`]).
    #[allow(clippy::new_ret_no_self)]
    pub fn new(shp: &mut ShardedProblem, skew: f64) -> AirfoilInstance<'_> {
        AirfoilInstance {
            subject: Subject::Sharded(shp),
            skew,
        }
    }
}

impl<'a> AirfoilInstance<'a> {
    pub(crate) fn plain(op2: &'a Op2, p: &Problem, skew: f64) -> AirfoilInstance<'a> {
        AirfoilInstance {
            subject: Subject::Plain(op2, p.clone()),
            skew,
        }
    }

    /// The worlds and, one per world, the parts the step submits on.
    fn parts(&self) -> (Worlds<'_, &LocalityGroup>, &[Problem]) {
        match &self.subject {
            Subject::Plain(op2, p) => (Worlds::One(op2), std::slice::from_ref(p)),
            Subject::Sharded(shp) => (Worlds::Group(&shp.group), &shp.parts),
            Subject::Owned(shp) => (Worlds::Group(&shp.group), &shp.parts),
        }
    }

    /// Global cell count.
    pub(crate) fn ncell(&self) -> usize {
        match &self.subject {
            Subject::Plain(_, p) => p.cells.size(),
            Subject::Sharded(shp) => shp.ncell_global,
            Subject::Owned(shp) => shp.ncell_global,
        }
    }
}

/// Extra spin work proportional to how far this cell's state has moved
/// off free stream — the "work follows the flow gradient" cost model of
/// the load-balancing demo ([`crate::SolverConfig::skew`]). Burns time
/// only; every dat value stays bitwise identical to the unskewed kernel.
#[inline]
fn skew_work(skew: f64, q: &[f64], qinf: &[f64; 4]) {
    let dev: f64 = q.iter().zip(qinf).map(|(a, b)| (a - b).abs()).sum();
    let spins = (skew * dev) as u64;
    let mut acc = 0u64;
    for i in 0..spins {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        std::hint::black_box(acc);
    }
}

impl AppInstance for AirfoilInstance<'_> {
    /// One Airfoil iteration (save + two inner steps): each loop is
    /// submitted on every part before the next loop, and the second inner
    /// step's `rms` comes back as a future. Statement-for-statement the
    /// body of the pre-harness time loops. There are no communication
    /// calls: on a sharded problem the halo rings schedule the `q`/`adt`
    /// exchanges when `res_calc`'s stale halo reads are submitted.
    fn step(&mut self, _iter: usize) -> StepOutput {
        let (on, parts) = self.parts();
        let skew = self.skew;
        let each = || on.worlds().iter().zip(parts);

        for (op2, p) in each() {
            generated::op_par_loop_save_soln(op2, &p.cells, &p.p_q, &p.p_qold, kernels::save_soln);
        }

        let mut last_update = None;
        for _k in 0..2 {
            for (op2, p) in each() {
                let qinf = p.qinf;
                generated::op_par_loop_adt_calc(
                    op2,
                    &p.cells,
                    &p.p_x,
                    &p.p_q,
                    &p.p_adt,
                    &p.pcell,
                    move |x1, x2, x3, x4, q, adt| {
                        kernels::adt_calc(x1, x2, x3, x4, q, adt);
                        if skew > 0.0 {
                            skew_work(skew, q, &qinf);
                        }
                    },
                );
            }

            // Interior fluxes (indirect increments -> colored plan). The
            // pecell reads reach the halo rows, so submitting this loop
            // refreshes the stale q/adt imports automatically (sends chain
            // behind the exported rows' writers — `update` for q,
            // `adt_calc` for adt — and receives gate only the boundary
            // blocks).
            for (op2, p) in each() {
                generated::op_par_loop_res_calc(
                    op2,
                    &p.edges,
                    &p.p_x,
                    &p.p_q,
                    &p.p_adt,
                    &p.p_res,
                    &p.pedge,
                    &p.pecell,
                    kernels::res_calc,
                );
            }

            // Boundary fluxes.
            for (op2, p) in each() {
                let qinf = p.qinf;
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
            }

            // Update; a fresh rms Global per step and part keeps the
            // pipeline free of reduction-read barriers.
            let mut rms = Vec::with_capacity(parts.len());
            let mut gates = Vec::with_capacity(parts.len());
            for (op2, p) in each() {
                let part_rms = Global::<f64>::sum(1, "rms");
                gates.push(generated::op_par_loop_update(
                    op2,
                    &p.cells,
                    &p.p_qold,
                    &p.p_q,
                    &p.p_res,
                    &p.p_adt,
                    &part_rms,
                    kernels::update,
                ));
                rms.push(part_rms);
            }
            last_update = Some((rms, gates));
        }

        let (rms, gates) = last_update.expect("two inner steps ran");
        // Asynchronous reduction read (paper Fig 9): each part's
        // contribution gates on its own update finalize and the total is
        // a future — no pipeline drains here, even when printing every
        // iteration.
        StepOutput {
            residual: on.residual(&rms),
            gates,
        }
    }

    fn residual_map(&self) -> ResidualMap {
        let n = self.ncell() as f64;
        Arc::new(move |v| (v / n).sqrt())
    }

    fn prints_here(&self) -> bool {
        self.parts().0.prints_here()
    }

    fn fence(&self) {
        self.parts().0.fence();
    }

    fn rebalance(&mut self) -> Option<RebalanceReport> {
        match &mut self.subject {
            Subject::Plain(..) => None,
            Subject::Sharded(shp) => shp.rebalance(),
            Subject::Owned(shp) => shp.rebalance(),
        }
    }

    fn state(&self) -> Vec<f64> {
        match &self.subject {
            Subject::Plain(_, p) => p.p_q.snapshot(),
            Subject::Sharded(shp) => shp.gather_q(),
            Subject::Owned(shp) => shp.gather_q(),
        }
    }
}

/// The Airfoil benchmark as an [`App`]: a channel-with-bump mesh plus
/// the five-loop iteration of `specs/airfoil.op2` (`tests/generated_airfoil.rs`
/// holds the independent blocking-read reference the harness-driven
/// solver must reproduce bitwise).
pub struct AirfoilApp {
    mesh: QuadMesh,
}

impl AirfoilApp {
    /// An `nx x ny` channel-with-bump mesh.
    pub fn new(nx: usize, ny: usize) -> AirfoilApp {
        AirfoilApp {
            mesh: channel_with_bump(nx, ny),
        }
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &QuadMesh {
        &self.mesh
    }
}

impl App for AirfoilApp {
    fn name(&self) -> &'static str {
        "airfoil"
    }

    fn spec(&self) -> &'static str {
        include_str!("../../translator/specs/airfoil.op2")
    }

    fn declare<'a>(&self, op2: &'a Op2) -> Box<dyn AppInstance + 'a> {
        Box::new(AirfoilInstance {
            subject: Subject::Plain(op2, Problem::declare(op2, &self.mesh)),
            skew: 0.0,
        })
    }

    fn declare_sharded(&self, config: Op2Config, nranks: usize) -> Box<dyn AppInstance> {
        Box::new(AirfoilInstance {
            subject: Subject::Owned(Box::new(ShardedProblem::declare(
                config, &self.mesh, nranks,
            ))),
            skew: 0.0,
        })
    }

    fn default_run(&self) -> RunConfig {
        // The original driver: 1000 fixed iterations, window 16.
        RunConfig::iterations(1000, 16)
    }
}
