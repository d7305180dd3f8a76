//! Explicit heat diffusion on the triangulated unit square, driven by
//! the translator-generated wrappers (`specs/heat.op2` →
//! `tests/golden/heat_hpx.rs`, `include!`d below).
//!
//! Physics: each edge moves heat between its endpoints proportionally to
//! their temperature difference; an explicit Euler step applies the
//! accumulated flux (Dirichlet boundary nodes held fixed) and records
//! the largest temperature change into a `ReduceOp::Max` global — whose
//! generated [`Convergence`](op2_core::Convergence) policy ends the run once the field stops
//! moving. The reduction operator is chosen at `Global` creation (the
//! DSL declares only shape), so the same `arg gbl : inc` lowering serves
//! Sum and Max apps alike.
//!
//! One declaration and one step serve plain and sharded runs alike (a
//! bare world is the one-part case of [`Worlds`]). Nodes are the
//! partitioned set ([`declare_node_graphs`] numbers them owned-first),
//! `temp` is halo-linked (edge kernels read both endpoints), while `flux`
//! carries halo rows that are *not* linked: partition-boundary edges run
//! redundantly on both ranks, so flux increments into mirror rows are
//! dead values no loop reads — exactly the Airfoil `res` pattern.

use std::sync::Arc;

use op2_core::locality::LocalityGroup;
use op2_core::{Dat, Global, Op2, Op2Config, ReduceOp, ResidualMap};
use op2_mesh::{unit_square, TriMesh};

use crate::harness::{App, AppInstance, RunConfig, StepOutput, Worlds};
use crate::shard::{declare_node_graphs, NodeGraph};

/// The translator-generated loop wrappers and convergence constructor
/// (kept as a checked-in golden file; see the spec header for the
/// regeneration command). Its docs spell map slots as `map[i]`, which
/// rustdoc would read as links.
#[allow(rustdoc::broken_intra_doc_links)]
mod generated {
    include!("../../translator/tests/golden/heat_hpx.rs");
}

pub use generated::{delta_convergence, op_par_loop_apply_flux, op_par_loop_edge_flux};

/// Explicit Euler step size (interior nodes of the triangulation have
/// degree at most 8, so this keeps the scheme stable).
pub const ALPHA: f64 = 0.1;

/// Initial condition: a hot disc in the centre of the unit square, cold
/// elsewhere (the boundary ring stays fixed at zero).
fn initial_temps(mesh: &TriMesh) -> Vec<f64> {
    (0..mesh.nnode)
        .map(|v| {
            let (x, y) = (mesh.x[2 * v], mesh.x[2 * v + 1]);
            if ((x - 0.5).powi(2) + (y - 0.5).powi(2)).sqrt() < 0.25 {
                1.0
            } else {
                0.0
            }
        })
        .collect()
}

/// The heat-diffusion kernels (the generated wrappers carry the access
/// descriptors; these carry the arithmetic).
mod kernels {
    /// Edge loop: scatter the endpoint temperature difference into both
    /// flux accumulators.
    pub fn edge_flux(t0: &[f64], t1: &[f64], f0: &mut [f64], f1: &mut [f64]) {
        let d = t1[0] - t0[0];
        f0[0] += d;
        f1[0] -= d;
    }

    /// Node loop: apply the flux (boundary held fixed), track the
    /// largest change, reset the accumulator.
    pub fn apply_flux(alpha: f64, t: &mut [f64], f: &mut [f64], b: &[i32], d: &mut [f64]) {
        if b[0] == 0 {
            let change = alpha * f[0];
            t[0] += change;
            if change.abs() > d[0] {
                d[0] = change.abs();
            }
        }
        f[0] = 0.0;
    }
}

/// The heat-diffusion [`App`]: a triangulated `n x n` unit square.
pub struct HeatApp {
    mesh: TriMesh,
}

impl HeatApp {
    /// An `n x n` triangulated unit square (the example's size is 64).
    pub fn new(n: usize) -> HeatApp {
        HeatApp {
            mesh: unit_square(n),
        }
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &TriMesh {
        &self.mesh
    }
}

impl App for HeatApp {
    fn name(&self) -> &'static str {
        "heat"
    }

    fn spec(&self) -> &'static str {
        include_str!("../../translator/specs/heat.op2")
    }

    fn declare<'a>(&self, op2: &'a Op2) -> Box<dyn AppInstance + 'a> {
        self.declare_on(Worlds::One(op2))
    }

    fn declare_sharded(&self, config: Op2Config, nranks: usize) -> Box<dyn AppInstance> {
        self.declare_on(Worlds::Group(LocalityGroup::new(config, nranks)))
    }

    fn default_run(&self) -> RunConfig {
        RunConfig::converge(generated::delta_convergence(), 16)
    }
}

impl HeatApp {
    fn declare_on<'a>(&self, on: Worlds<'a>) -> Box<dyn AppInstance + 'a> {
        let mesh = &self.mesh;
        let (graphs, spec) = declare_node_graphs(&on, mesh.nnode, &mesh.edge_nodes);
        let temps0 = initial_temps(mesh);
        let parts: Vec<HeatPart> = on
            .worlds()
            .iter()
            .zip(graphs)
            .map(|(op2, graph)| {
                let (nodes, n_halo) = (&graph.nodes, graph.n_halo);
                let temp = op2.decl_dat_halo(nodes, 1, "temp", graph.local(&temps0, true), n_halo);
                let flux = op2.decl_dat_halo(nodes, 1, "flux", vec![0.0; graph.l2g.len()], n_halo);
                let boundary = graph.local(&mesh.node_boundary, false);
                let boundary = op2.decl_dat(nodes, 1, "boundary", boundary);
                HeatPart {
                    graph,
                    temp,
                    flux,
                    boundary,
                }
            })
            .collect();

        // Implicit communication: only temp is exchanged (flux halo
        // increments are dead values — see module docs).
        let temps: Vec<Dat<f64>> = parts.iter().map(|p| p.temp.clone()).collect();
        on.link_halo(&temps, &spec);

        Box::new(Heat {
            on,
            parts,
            nnode: mesh.nnode,
        })
    }
}

struct HeatPart {
    graph: NodeGraph,
    temp: Dat<f64>,
    flux: Dat<f64>,
    boundary: Dat<i32>,
}

struct Heat<'a> {
    on: Worlds<'a>,
    parts: Vec<HeatPart>,
    nnode: usize,
}

impl AppInstance for Heat<'_> {
    fn step(&mut self, _iter: usize) -> StepOutput {
        let parts = || self.on.worlds().iter().zip(&self.parts);
        for (op2, p) in parts() {
            generated::op_par_loop_edge_flux(
                op2,
                &p.graph.edges,
                &p.temp,
                &p.flux,
                &p.graph.pedge,
                kernels::edge_flux,
            );
        }
        let mut deltas = Vec::with_capacity(self.parts.len());
        let mut gates = Vec::with_capacity(self.parts.len());
        for (op2, p) in parts() {
            let delta = Global::<f64>::new(1, ReduceOp::Max, "delta");
            gates.push(generated::op_par_loop_apply_flux(
                op2,
                &p.graph.nodes,
                &p.temp,
                &p.flux,
                &p.boundary,
                &delta,
                |t: &mut [f64], f: &mut [f64], b: &[i32], d: &mut [f64]| {
                    kernels::apply_flux(ALPHA, t, f, b, d)
                },
            ));
            deltas.push(delta);
        }
        // Max combines across parts the same way Sum does; nothing blocks.
        StepOutput {
            residual: self.on.residual(&deltas),
            gates,
        }
    }

    fn residual_map(&self) -> ResidualMap {
        // The max temperature change is already in reported units.
        Arc::new(|v| v)
    }

    fn prints_here(&self) -> bool {
        self.on.prints_here()
    }

    fn fence(&self) {
        self.on.fence();
    }

    fn state(&self) -> Vec<f64> {
        let shards = self.parts.iter().map(|p| (&p.temp, p.graph.owned()));
        self.on.gather(self.nnode, 1, shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run;

    #[test]
    fn plain_heat_converges_on_the_async_reduction_path() {
        let app = HeatApp::new(16);
        let op2 = Op2::new(Op2Config::seq());
        let mut inst = app.declare(&op2);
        let out = run(inst.as_mut(), app.default_run());
        let (at, v) = out.converged.expect("the field must settle");
        assert!(at < generated::delta_convergence().max_iters());
        assert!(v < 1e-6);
        // Diffusion with a fixed cold boundary: bounded by the initial
        // extremes, and finite everywhere.
        let t = inst.state();
        assert!(t
            .iter()
            .all(|&x| x.is_finite() && (-1e-9..=1.0 + 1e-9).contains(&x)));
    }

    #[test]
    fn sharded_heat_matches_plain_within_roundoff() {
        let app = HeatApp::new(12);
        let op2 = Op2::new(Op2Config::seq());
        let mut plain = app.declare(&op2);
        run(plain.as_mut(), RunConfig::iterations(50, 8));
        let reference = plain.state();

        // Per-rank edge order permutes the flux additions, so agreement
        // is to roundoff, not bitwise.
        let mut sharded = app.declare_sharded(Op2Config::seq(), 3);
        run(sharded.as_mut(), RunConfig::iterations(50, 8));
        let got = sharded.state();
        assert_eq!(reference.len(), got.len());
        for (a, b) in reference.iter().zip(&got) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }
}
