//! Jacobi iteration on the node graph of the triangulated unit square,
//! driven by the translator-generated wrappers (`specs/jac.op2` →
//! `tests/golden/jac_hpx.rs`, `include!`d below).
//!
//! The system is `A x = b` with `A = D - Adj` where `Adj` is the graph
//! adjacency and `D = diag(degree + 4)` — strictly diagonally dominant,
//! so Jacobi converges linearly: `x_new = (b + Adj x) / diag`. The
//! squared-update residual accumulates into a Sum global each sweep and
//! the generated [`Convergence`](op2_core::Convergence) policy exits the loop when
//! `sqrt(resid / nnode)` drops below the spec's tolerance — the workload
//! whose iteration count is *data-dependent*, exercising the
//! asynchronous-reduction convergence path end to end (the loop contains
//! zero blocking residual reads; `tests/convergence_exit.rs` asserts the
//! `op2.reduce.blocking_reads` counter stays flat).
//!
//! Declared and stepped once over its parts exactly like [`crate::heat`]:
//! `x` is halo-linked, `acc` carries unlinked (dead) halo rows, `b`/`diag`
//! are owned-only and read-only (a bare world's share the app's arrays).
//!
//! The mesh-derived inputs (`b` and the diagonal) are computed once, in
//! [`JacApp::new`]: a declaration does only per-solve work (sets, maps and
//! dats), which matters to short solves that declare a fresh instance
//! every time.

use std::sync::Arc;

use op2_core::locality::LocalityGroup;
use op2_core::{Dat, Global, Op2, Op2Config, ResidualMap};
use op2_mesh::{unit_square, TriMesh};

use crate::harness::{App, AppInstance, RunConfig, StepOutput, Worlds};
use crate::shard::{declare_node_graphs, NodeGraph};

/// The translator-generated loop wrappers and convergence constructor.
/// Their docs spell map slots as `map[i]`, which rustdoc would read as
/// links.
#[allow(rustdoc::broken_intra_doc_links)]
mod generated {
    include!("../../translator/tests/golden/jac_hpx.rs");
}

pub use generated::{op_par_loop_jac_spmv, op_par_loop_jac_update, resid_convergence};

/// Right-hand side: smooth, deterministic, nonzero — so the solution is
/// nontrivial and identical across backends and shardings.
fn rhs(mesh: &TriMesh) -> Vec<f64> {
    (0..mesh.nnode)
        .map(|v| {
            let (x, y) = (mesh.x[2 * v], mesh.x[2 * v + 1]);
            1.0 + x + 2.0 * y
        })
        .collect()
}

/// Diagonal: node degree + 4 (strict diagonal dominance; the adjacency
/// row sum is exactly the degree).
fn diagonal(mesh: &TriMesh) -> Vec<f64> {
    let mut degree = vec![0u32; mesh.nnode];
    for &n in mesh.edge_nodes.iter() {
        degree[n as usize] += 1;
    }
    degree.into_iter().map(|d| d as f64 + 4.0).collect()
}

/// The Jacobi kernels (the generated wrappers carry the access
/// descriptors; these carry the arithmetic).
mod kernels {
    /// Off-diagonal sweep: each edge contributes both endpoints' `x` to
    /// the other endpoint's accumulator.
    pub fn jac_spmv(x0: &[f64], x1: &[f64], a0: &mut [f64], a1: &mut [f64]) {
        a0[0] += x1[0];
        a1[0] += x0[0];
    }

    /// Point update: `x_new = (b + acc) / diag`, accumulate the squared
    /// update into the residual, clear the accumulator.
    pub fn jac_update(b: &[f64], diag: &[f64], x: &mut [f64], acc: &mut [f64], r: &mut [f64]) {
        let xn = (b[0] + acc[0]) / diag[0];
        let d = xn - x[0];
        r[0] += d * d;
        x[0] = xn;
        acc[0] = 0.0;
    }
}

/// The Jacobi [`App`]: `A x = b` on the node graph of a triangulated
/// `n x n` unit square.
pub struct JacApp {
    mesh: TriMesh,
    /// [`rhs`] of the mesh.
    b: Arc<Vec<f64>>,
    /// [`diagonal`] of the mesh.
    diag: Arc<Vec<f64>>,
}

impl JacApp {
    /// An `n x n` triangulated unit square.
    pub fn new(n: usize) -> JacApp {
        let mesh = unit_square(n);
        let (b, diag) = (Arc::new(rhs(&mesh)), Arc::new(diagonal(&mesh)));
        JacApp { mesh, b, diag }
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &TriMesh {
        &self.mesh
    }
}

impl App for JacApp {
    fn name(&self) -> &'static str {
        "jac"
    }

    fn spec(&self) -> &'static str {
        include_str!("../../translator/specs/jac.op2")
    }

    fn declare<'a>(&self, op2: &'a Op2) -> Box<dyn AppInstance + 'a> {
        Box::new(self.declare_on(Worlds::One(op2)))
    }

    fn declare_sharded(&self, config: Op2Config, nranks: usize) -> Box<dyn AppInstance> {
        Box::new(self.declare_on(Worlds::Group(LocalityGroup::new(config, nranks))))
    }

    fn default_run(&self) -> RunConfig {
        // A short window: at ~15 tasks per iteration four iterations in
        // flight already keep two workers fed. It bounds the run-ahead, not
        // the exit, which stops at the crossing (see `RunConfig::window`).
        RunConfig::converge(generated::resid_convergence(), 4)
    }
}

impl JacApp {
    fn declare_on<'a>(&self, on: Worlds<'a>) -> Jac<'a> {
        let mesh = &self.mesh;
        let (graphs, spec) = declare_node_graphs(&on, mesh.nnode, &mesh.edge_nodes);
        let parts: Vec<JacPart> = on
            .worlds()
            .iter()
            .zip(graphs)
            .map(|(op2, graph)| {
                let (nodes, n_halo, rows) = (&graph.nodes, graph.n_halo, graph.rows());
                let b = op2.decl_dat(nodes, 1, "b", graph.shared(&self.b));
                let diag = op2.decl_dat(nodes, 1, "diag", graph.shared(&self.diag));
                let x = op2.decl_dat_halo(nodes, 1, "x", vec![0.0; rows], n_halo);
                let acc = op2.decl_dat_halo(nodes, 1, "acc", vec![0.0; rows], n_halo);
                JacPart {
                    graph,
                    b,
                    diag,
                    x,
                    acc,
                }
            })
            .collect();

        // Only x travels: acc halo increments are dead values (boundary
        // edges run redundantly on both ranks, as in heat and airfoil).
        let xs: Vec<Dat<f64>> = parts.iter().map(|p| p.x.clone()).collect();
        on.link_halo(&xs, &spec);

        Jac {
            on,
            parts,
            nnode: mesh.nnode,
        }
    }
}

struct JacPart {
    graph: NodeGraph,
    b: Dat<f64>,
    diag: Dat<f64>,
    x: Dat<f64>,
    acc: Dat<f64>,
}

struct Jac<'a> {
    on: Worlds<'a>,
    parts: Vec<JacPart>,
    nnode: usize,
}

impl AppInstance for Jac<'_> {
    fn step(&mut self, _iter: usize) -> StepOutput {
        let parts = || self.on.worlds().iter().zip(&self.parts);
        for (op2, p) in parts() {
            generated::op_par_loop_jac_spmv(
                op2,
                &p.graph.edges,
                &p.x,
                &p.acc,
                &p.graph.pedge,
                kernels::jac_spmv,
            );
        }
        let mut resids = Vec::with_capacity(self.parts.len());
        let mut gates = Vec::with_capacity(self.parts.len());
        for (op2, p) in parts() {
            let resid = Global::<f64>::sum(1, "resid");
            gates.push(generated::op_par_loop_jac_update(
                op2,
                &p.graph.nodes,
                &p.b,
                &p.diag,
                &p.x,
                &p.acc,
                &resid,
                kernels::jac_update,
            ));
            resids.push(resid);
        }
        StepOutput {
            residual: self.on.residual(&resids),
            gates,
        }
    }

    fn residual_map(&self) -> ResidualMap {
        let n = self.nnode as f64;
        Arc::new(move |v| (v / n).sqrt())
    }

    fn prints_here(&self) -> bool {
        self.on.prints_here()
    }

    fn fence(&self) {
        self.on.fence();
    }

    fn state(&self) -> Vec<f64> {
        let shards = self.parts.iter().map(|p| (&p.x, p.graph.owned()));
        self.on.gather(self.nnode, 1, shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run;

    #[test]
    fn jacobi_converges_and_solves_the_system() {
        let app = JacApp::new(12);
        let op2 = Op2::new(Op2Config::seq());
        let mut inst = app.declare(&op2);
        let out = run(inst.as_mut(), app.default_run());
        let (at, v) = out
            .converged
            .expect("diagonally dominant Jacobi must converge");
        assert!(v < 1e-12);
        assert!(at < generated::resid_convergence().max_iters());

        // Substitute back: (D - Adj) x must reproduce b.
        let x = inst.state();
        let mesh = app.mesh();
        let (b, diag) = (rhs(mesh), diagonal(mesh));
        let mut adj = vec![0.0f64; mesh.nnode];
        for e in 0..mesh.nedge {
            let (u, w) = (
                mesh.edge_nodes[2 * e] as usize,
                mesh.edge_nodes[2 * e + 1] as usize,
            );
            adj[u] += x[w];
            adj[w] += x[u];
        }
        for i in 0..mesh.nnode {
            let ax = diag[i] * x[i] - adj[i];
            assert!((ax - b[i]).abs() < 1e-8, "row {i}: Ax = {ax}, b = {}", b[i]);
        }
    }

    #[test]
    fn one_world_inputs_alias_the_apps_arrays() {
        let app = JacApp::new(6);
        let op2 = Op2::new(Op2Config::seq());
        let one = app.declare_on(Worlds::One(&op2));
        assert_eq!(one.parts[0].b.read().as_ptr(), app.b.as_ptr());
        assert_eq!(one.parts[0].diag.read().as_ptr(), app.diag.as_ptr());
        let sharded = app.declare_on(Worlds::Group(LocalityGroup::new(Op2Config::seq(), 2)));
        for p in &sharded.parts {
            assert_ne!(p.b.read().as_ptr(), app.b.as_ptr());
        }
    }

    #[test]
    fn sharded_jac_agrees_with_plain() {
        let app = JacApp::new(10);
        let op2 = Op2::new(Op2Config::seq());
        let mut plain = app.declare(&op2);
        run(plain.as_mut(), RunConfig::iterations(40, 8));
        let reference = plain.state();

        let mut sharded = app.declare_sharded(Op2Config::seq(), 2);
        run(sharded.as_mut(), RunConfig::iterations(40, 8));
        let got = sharded.state();
        assert_eq!(reference.len(), got.len());
        for (a, b) in reference.iter().zip(&got) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }
}
