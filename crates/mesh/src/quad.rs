//! Structured-as-unstructured quadrilateral meshes.
//!
//! The paper's Airfoil case reads `new_grid.dat` — a structured C-mesh
//! around a NACA0012 airfoil stored as a fully unstructured mesh (node
//! coordinates plus explicit cell→node, edge→node, edge→cell, bedge→node,
//! bedge→cell and boundary-flag tables). We cannot redistribute that file,
//! so [`channel_with_bump`] generates the same *shape* of data: a
//! structured channel grid with a smooth wall bump standing in for the
//! airfoil surface, emitted through exactly the same unstructured tables.
//! The indirection patterns (the only thing the runtime ever sees) are
//! identical in kind: quad cells, interior edges bordered by two cells,
//! boundary edges flagged wall (`bound = 1`) or far-field (`bound = 2`).

use std::sync::Arc;

/// Boundary condition flag: solid wall (the "airfoil" surface).
pub const BOUND_WALL: i32 = 1;
/// Boundary condition flag: far-field.
pub const BOUND_FARFIELD: i32 = 2;

/// An unstructured quad mesh in OP2's Airfoil table layout. The index
/// tables, coordinates and boundary flags are shared: a clone, and every
/// map and dat declared from them, reads the same buffers.
#[derive(Debug, Clone)]
pub struct QuadMesh {
    /// Cells in x.
    pub imax: usize,
    /// Cells in y.
    pub jmax: usize,
    /// Node count (`(imax+1) * (jmax+1)`).
    pub nnode: usize,
    /// Cell count (`imax * jmax`).
    pub ncell: usize,
    /// Interior edge count.
    pub nedge: usize,
    /// Boundary edge count.
    pub nbedge: usize,
    /// Cell → 4 nodes (counter-clockwise), row-major `ncell x 4`.
    pub cell_nodes: Arc<Vec<u32>>,
    /// Interior edge → 2 nodes, `nedge x 2`.
    pub edge_nodes: Arc<Vec<u32>>,
    /// Interior edge → 2 adjacent cells, `nedge x 2`.
    pub edge_cells: Arc<Vec<u32>>,
    /// Boundary edge → 2 nodes, `nbedge x 2`.
    pub bedge_nodes: Arc<Vec<u32>>,
    /// Boundary edge → 1 adjacent cell, `nbedge x 1`.
    pub bedge_cells: Arc<Vec<u32>>,
    /// Boundary edge condition flags (`nbedge`), [`BOUND_WALL`] or
    /// [`BOUND_FARFIELD`].
    pub bound: Arc<Vec<i32>>,
    /// Node coordinates, `nnode x 2`.
    pub x: Arc<Vec<f64>>,
}

impl QuadMesh {
    /// Node id at grid position `(i, j)`.
    #[inline]
    pub fn node(&self, i: usize, j: usize) -> usize {
        node_id(self.imax, i, j)
    }

    /// Cell id at grid position `(i, j)`.
    #[inline]
    pub fn cell(&self, i: usize, j: usize) -> usize {
        j * self.imax + i
    }

    /// Approximately `imax x jmax` scaled so `cells ≈ target_cells`.
    /// Keeps the paper's 2:1 aspect ratio.
    pub fn with_cells(target_cells: usize) -> QuadMesh {
        let target = target_cells.max(2);
        // imax = 2k, jmax = k -> cells = 2k^2.
        let k = (((target as f64) / 2.0).sqrt().round() as usize).max(1);
        channel_with_bump(2 * k, k)
    }

    /// The paper-scale mesh: ~720K nodes, ~1.44M interior edges (matching
    /// "over 720K nodes and about 1.5 million edges").
    pub fn paper_scale() -> QuadMesh {
        channel_with_bump(1200, 600)
    }
}

#[inline]
fn node_id(imax: usize, i: usize, j: usize) -> usize {
    j * (imax + 1) + i
}

/// Height profile of the wall bump standing in for the airfoil surface:
/// a `sin²` hump over the middle third of the channel floor, 10% of the
/// channel height.
fn bump(t: f64) -> f64 {
    const START: f64 = 1.0 / 3.0;
    const END: f64 = 2.0 / 3.0;
    const HEIGHT: f64 = 0.1;
    if !(START..=END).contains(&t) {
        return 0.0;
    }
    let s = (t - START) / (END - START);
    HEIGHT * (std::f64::consts::PI * s).sin().powi(2)
}

/// Generates the channel mesh (see module docs). `imax`/`jmax` are the
/// cell counts in x/y; the domain is a 2:1 channel `[0,2] x [0,1]`.
pub fn channel_with_bump(imax: usize, jmax: usize) -> QuadMesh {
    assert!(imax >= 3 && jmax >= 1, "mesh must be at least 3x1 cells");
    let nnode = (imax + 1) * (jmax + 1);
    let ncell = imax * jmax;
    let nedge = (imax - 1) * jmax + imax * (jmax - 1);
    let nbedge = 2 * imax + 2 * jmax;

    // Node coordinates: vertical lines follow the bump at the floor and
    // relax linearly toward the flat ceiling.
    let mut x = Vec::with_capacity(nnode * 2);
    for j in 0..=jmax {
        for i in 0..=imax {
            let t = i as f64 / imax as f64;
            let eta = j as f64 / jmax as f64;
            let floor = bump(t);
            x.push(2.0 * t);
            x.push(floor + eta * (1.0 - floor));
        }
    }

    // Cells, counter-clockwise.
    let mut cell_nodes = Vec::with_capacity(ncell * 4);
    for j in 0..jmax {
        for i in 0..imax {
            cell_nodes.push(node_id(imax, i, j) as u32);
            cell_nodes.push(node_id(imax, i + 1, j) as u32);
            cell_nodes.push(node_id(imax, i + 1, j + 1) as u32);
            cell_nodes.push(node_id(imax, i, j + 1) as u32);
        }
    }

    // Interior edges: vertical edges between horizontally adjacent cells,
    // then horizontal edges between vertically adjacent cells.
    //
    // Orientation convention (required by the Airfoil flux kernels): with
    // edge nodes (a, b) and (dx, dy) = x_a - x_b, the scaled normal
    // n = (dy, -dx) must point from the edge's first cell to its second
    // (outward through a boundary edge). Violating this flips the
    // convection direction and blows the scheme up.
    let mut edge_nodes = Vec::with_capacity(nedge * 2);
    let mut edge_cells = Vec::with_capacity(nedge * 2);
    let cell = |i: usize, j: usize| (j * imax + i) as u32;
    for j in 0..jmax {
        for i in 1..imax {
            // Nodes top->bottom gives n = +x: cells (left, right).
            edge_nodes.push(node_id(imax, i, j + 1) as u32);
            edge_nodes.push(node_id(imax, i, j) as u32);
            edge_cells.push(cell(i - 1, j));
            edge_cells.push(cell(i, j));
        }
    }
    for j in 1..jmax {
        for i in 0..imax {
            // Nodes left->right gives n = +y: cells (below, above).
            edge_nodes.push(node_id(imax, i, j) as u32);
            edge_nodes.push(node_id(imax, i + 1, j) as u32);
            edge_cells.push(cell(i, j - 1));
            edge_cells.push(cell(i, j));
        }
    }
    debug_assert_eq!(edge_nodes.len(), nedge * 2);

    // Boundary edges: floor (wall over the bump footprint, far-field
    // elsewhere), ceiling, inlet, outlet — all with outward normals.
    let mut bedge_nodes = Vec::with_capacity(nbedge * 2);
    let mut bedge_cells = Vec::with_capacity(nbedge);
    let mut bound = Vec::with_capacity(nbedge);
    for i in 0..imax {
        // Floor: right->left gives outward n = -y.
        bedge_nodes.push(node_id(imax, i + 1, 0) as u32);
        bedge_nodes.push(node_id(imax, i, 0) as u32);
        bedge_cells.push(cell(i, 0));
        let mid = (i as f64 + 0.5) / imax as f64;
        bound.push(if bump(mid) > 0.0 {
            BOUND_WALL
        } else {
            BOUND_FARFIELD
        });
    }
    for i in 0..imax {
        // Ceiling: left->right gives outward n = +y.
        bedge_nodes.push(node_id(imax, i, jmax) as u32);
        bedge_nodes.push(node_id(imax, i + 1, jmax) as u32);
        bedge_cells.push(cell(i, jmax - 1));
        bound.push(BOUND_FARFIELD);
    }
    for j in 0..jmax {
        // Inlet (i = 0): bottom->top gives outward n = -x.
        bedge_nodes.push(node_id(imax, 0, j) as u32);
        bedge_nodes.push(node_id(imax, 0, j + 1) as u32);
        bedge_cells.push(cell(0, j));
        bound.push(BOUND_FARFIELD);
        // Outlet (i = imax): top->bottom gives outward n = +x.
        bedge_nodes.push(node_id(imax, imax, j + 1) as u32);
        bedge_nodes.push(node_id(imax, imax, j) as u32);
        bedge_cells.push(cell(imax - 1, j));
        bound.push(BOUND_FARFIELD);
    }
    debug_assert_eq!(bound.len(), nbedge);

    QuadMesh {
        imax,
        jmax,
        nnode,
        ncell,
        nedge,
        nbedge,
        cell_nodes: Arc::new(cell_nodes),
        edge_nodes: Arc::new(edge_nodes),
        edge_cells: Arc::new(edge_cells),
        bedge_nodes: Arc::new(bedge_nodes),
        bedge_cells: Arc::new(bedge_cells),
        bound: Arc::new(bound),
        x: Arc::new(x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_consistent() {
        let m = channel_with_bump(10, 5);
        assert_eq!(m.nnode, 11 * 6);
        assert_eq!(m.ncell, 50);
        assert_eq!(m.nedge, 9 * 5 + 10 * 4);
        assert_eq!(m.nbedge, 2 * 10 + 2 * 5);
        assert_eq!(m.cell_nodes.len(), m.ncell * 4);
        assert_eq!(m.edge_nodes.len(), m.nedge * 2);
        assert_eq!(m.edge_cells.len(), m.nedge * 2);
        assert_eq!(m.bedge_nodes.len(), m.nbedge * 2);
        assert_eq!(m.bedge_cells.len(), m.nbedge);
        assert_eq!(m.x.len(), m.nnode * 2);
    }

    #[test]
    fn euler_formula_for_planar_mesh() {
        // V - E + F = 2 with F = ncell + 1 (outer face) and
        // E = interior + boundary edges.
        let m = channel_with_bump(17, 9);
        let v = m.nnode as i64;
        let e = (m.nedge + m.nbedge) as i64;
        let f = m.ncell as i64 + 1;
        assert_eq!(v - e + f, 2);
    }

    #[test]
    fn paper_scale_counts_match_paper() {
        // Don't allocate the full mesh in unit tests; check the formulas.
        let (imax, jmax) = (1200usize, 600usize);
        let nnode = (imax + 1) * (jmax + 1);
        let nedge = (imax - 1) * jmax + imax * (jmax - 1);
        assert!(
            (700_000..750_000).contains(&nnode),
            "paper: over 720K nodes"
        );
        assert!(
            (1_400_000..1_500_000).contains(&nedge),
            "paper: ~1.5M edges"
        );
    }

    #[test]
    fn interior_edges_touch_two_distinct_cells() {
        let m = channel_with_bump(8, 4);
        for e in 0..m.nedge {
            let c1 = m.edge_cells[2 * e];
            let c2 = m.edge_cells[2 * e + 1];
            assert_ne!(c1, c2, "edge {e} degenerate");
            assert!((c1 as usize) < m.ncell && (c2 as usize) < m.ncell);
        }
    }

    #[test]
    fn bump_region_is_wall_rest_farfield() {
        let m = channel_with_bump(30, 4);
        let walls = m.bound.iter().filter(|&&b| b == BOUND_WALL).count();
        let far = m.bound.iter().filter(|&&b| b == BOUND_FARFIELD).count();
        assert!(walls > 0, "some wall edges");
        assert_eq!(walls + far, m.nbedge);
        // The wall is only on the floor (first imax bedges).
        assert!(m.bound[m.imax..].iter().all(|&b| b == BOUND_FARFIELD));
    }

    #[test]
    fn cells_are_counter_clockwise() {
        let m = channel_with_bump(12, 6);
        for c in 0..m.ncell {
            let n = &m.cell_nodes[4 * c..4 * c + 4];
            let mut area = 0.0;
            for k in 0..4 {
                let a = n[k] as usize;
                let b = n[(k + 1) % 4] as usize;
                area += m.x[2 * a] * m.x[2 * b + 1] - m.x[2 * b] * m.x[2 * a + 1];
            }
            assert!(area > 0.0, "cell {c} not CCW (area {area})");
        }
    }

    #[test]
    fn with_cells_hits_target_roughly() {
        let m = QuadMesh::with_cells(10_000);
        let ratio = m.ncell as f64 / 10_000.0;
        assert!((0.5..2.0).contains(&ratio), "got {} cells", m.ncell);
    }

    #[test]
    fn bump_profile_is_smooth_and_bounded() {
        assert_eq!(bump(0.0), 0.0);
        assert_eq!(bump(1.0), 0.0);
        let peak = bump(0.5);
        assert!(peak > 0.05 && peak <= 0.1 + 1e-12);
    }
}
