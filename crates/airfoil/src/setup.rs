//! Declaring the Airfoil problem to OP2 (paper §II: sets, maps, dats).

use std::sync::Arc;

use op2_core::{Dat, Map, Op2, Set};
use op2_mesh::QuadMesh;

use crate::constants::qinf;

/// One part of the declared OP2 problem — every set, map and dat of the
/// Airfoil code, mirroring `airfoil.cpp` — in the part's own numbering.
/// A plain run has a single part holding the whole mesh
/// ([`Problem::declare`]); a sharded run has one per rank
/// ([`crate::ShardedProblem`]), whose cell dats carry halo mirror rows.
/// The handles are shared, so a clone refers to the same sets and data.
#[derive(Clone)]
pub struct Problem {
    /// Mesh nodes (a shard: replicated as reached).
    pub nodes: Set,
    /// Interior edges, those reaching owned cells only first.
    pub edges: Set,
    /// Boundary edges.
    pub bedges: Set,
    /// Cells (a shard: the owned ones).
    pub cells: Set,
    /// edge → 2 nodes.
    pub pedge: Map,
    /// edge → 2 cells (a shard: may target halo rows).
    pub pecell: Map,
    /// bedge → 2 nodes.
    pub pbedge: Map,
    /// bedge → 1 cell (always owned).
    pub pbecell: Map,
    /// cell → 4 nodes.
    pub pcell: Map,
    /// Node coordinates (dim 2).
    pub p_x: Dat<f64>,
    /// Conserved variables (dim 4), with halo rows.
    pub p_q: Dat<f64>,
    /// Saved solution (dim 4; owned rows only — never read indirectly).
    pub p_qold: Dat<f64>,
    /// Local timestep (dim 1), with halo rows.
    pub p_adt: Dat<f64>,
    /// Residual (dim 4), with halo rows (halo increments are dead values).
    pub p_res: Dat<f64>,
    /// Boundary flags (dim 1).
    pub p_bound: Dat<i32>,
    /// Free-stream state.
    pub qinf: [f64; 4],
    /// Edges `0..n_interior_edges` touch owned cells only (all of them in
    /// a plain problem).
    pub n_interior_edges: usize,
    /// Halo mirror rows appended to the cell dats (none in a plain
    /// problem).
    pub n_halo_cells: usize,
}

/// A part's mesh tables in its own numbering: the whole mesh's shared
/// tables, or a rank's renumbered (owned) slice of it whose `edge_cells`
/// may index the `n_halo_cells` mirror rows past the owned cells. The maps
/// and dats keep these tables; they are not copied.
pub(crate) struct PartTables {
    pub cell_nodes: Arc<Vec<u32>>,
    pub edge_nodes: Arc<Vec<u32>>,
    pub edge_cells: Arc<Vec<u32>>,
    pub bedge_nodes: Arc<Vec<u32>>,
    pub bedge_cells: Arc<Vec<u32>>,
    pub bound: Arc<Vec<i32>>,
    pub x: Arc<Vec<f64>>,
    pub n_interior_edges: usize,
    pub n_halo_cells: usize,
}

impl Problem {
    /// Declares sets, maps and dats for `mesh` and initializes the flow to
    /// free stream (exactly the original program's setup). The one-part
    /// case: global numbering, no halo, nothing partitioned. The maps share
    /// `mesh`'s index tables and `p_x`/`p_bound` its coordinates and flags
    /// (read-only dats), so one mesh declared on several worlds is resident
    /// once.
    pub fn declare(op2: &Op2, mesh: &QuadMesh) -> Problem {
        Self::declare_part(
            op2,
            PartTables {
                cell_nodes: Arc::clone(&mesh.cell_nodes),
                edge_nodes: Arc::clone(&mesh.edge_nodes),
                edge_cells: Arc::clone(&mesh.edge_cells),
                bedge_nodes: Arc::clone(&mesh.bedge_nodes),
                bedge_cells: Arc::clone(&mesh.bedge_cells),
                bound: Arc::clone(&mesh.bound),
                x: Arc::clone(&mesh.x),
                n_interior_edges: mesh.nedge,
                n_halo_cells: 0,
            },
        )
    }

    /// The one declaration block behind plain problems and shards alike.
    pub(crate) fn declare_part(op2: &Op2, t: PartTables) -> Problem {
        let ncell = t.cell_nodes.len() / 4;
        let n_halo = t.n_halo_cells;
        let nodes = op2.decl_set(t.x.len() / 2, "nodes");
        let edges = op2.decl_set(t.edge_nodes.len() / 2, "edges");
        let bedges = op2.decl_set(t.bound.len(), "bedges");
        let cells = op2.decl_set(ncell, "cells");

        let pedge = op2.decl_map(&edges, &nodes, 2, t.edge_nodes, "pedge");
        let pecell = op2.decl_map_halo(&edges, &cells, 2, t.edge_cells, "pecell", n_halo);
        let pbedge = op2.decl_map(&bedges, &nodes, 2, t.bedge_nodes, "pbedge");
        let pbecell = op2.decl_map(&bedges, &cells, 1, t.bedge_cells, "pbecell");
        let pcell = op2.decl_map(&cells, &nodes, 4, t.cell_nodes, "pcell");

        let qinf = qinf();
        let rows = ncell + n_halo;
        let q0 = qinf.repeat(rows);

        let p_x = op2.decl_dat(&nodes, 2, "p_x", t.x);
        let p_q = op2.decl_dat_halo(&cells, 4, "p_q", q0, n_halo);
        let p_qold = op2.decl_dat(&cells, 4, "p_qold", vec![0.0; ncell * 4]);
        let p_adt = op2.decl_dat_halo(&cells, 1, "p_adt", vec![0.0; rows], n_halo);
        let p_res = op2.decl_dat_halo(&cells, 4, "p_res", vec![0.0; rows * 4], n_halo);
        let p_bound = op2.decl_dat(&bedges, 1, "p_bound", t.bound);

        Problem {
            nodes,
            edges,
            bedges,
            cells,
            pedge,
            pecell,
            pbedge,
            pbecell,
            pcell,
            p_x,
            p_q,
            p_qold,
            p_adt,
            p_res,
            p_bound,
            qinf,
            n_interior_edges: t.n_interior_edges,
            n_halo_cells: n_halo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_core::Op2Config;
    use op2_mesh::channel_with_bump;

    #[test]
    fn declares_consistent_problem() {
        let op2 = Op2::new(Op2Config::seq());
        let mesh = channel_with_bump(10, 5);
        let p = Problem::declare(&op2, &mesh);
        assert_eq!(p.cells.size(), 50);
        assert_eq!(p.p_q.len(), 200);
        assert_eq!(p.pcell.dim(), 4);
        // Free-stream initialization.
        let q = p.p_q.snapshot();
        assert_eq!(&q[0..4], &p.qinf);
        assert_eq!(&q[196..200], &p.qinf);
    }
}
