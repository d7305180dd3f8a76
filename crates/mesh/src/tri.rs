//! Triangulated unit-square meshes for the secondary example applications
//! (edge-based heat diffusion).

use std::sync::Arc;

/// An unstructured triangle mesh over the unit square. The index tables
/// are shared, as [`crate::QuadMesh`]'s are.
#[derive(Debug, Clone)]
pub struct TriMesh {
    /// Node count.
    pub nnode: usize,
    /// Triangle count.
    pub ntri: usize,
    /// Unique edge count.
    pub nedge: usize,
    /// Triangle → 3 nodes, `ntri x 3`.
    pub tri_nodes: Arc<Vec<u32>>,
    /// Edge → 2 nodes, `nedge x 2`.
    pub edge_nodes: Arc<Vec<u32>>,
    /// Node coordinates, `nnode x 2`.
    pub x: Vec<f64>,
    /// 1 for boundary nodes, 0 for interior.
    pub node_boundary: Vec<i32>,
}

/// Triangulates an `n x n` structured grid of the unit square (each quad
/// split along its diagonal), returning fully unstructured tables.
pub fn unit_square(n: usize) -> TriMesh {
    assert!(n >= 1, "need at least one cell per side");
    let side = n + 1;
    let nnode = side * side;
    let node = |i: usize, j: usize| (j * side + i) as u32;

    let mut x = Vec::with_capacity(nnode * 2);
    let mut node_boundary = Vec::with_capacity(nnode);
    for j in 0..side {
        for i in 0..side {
            x.push(i as f64 / n as f64);
            x.push(j as f64 / n as f64);
            node_boundary.push(i32::from(i == 0 || j == 0 || i == n || j == n));
        }
    }

    let mut tri_nodes = Vec::with_capacity(n * n * 6);
    let mut edge_set: Vec<(u32, u32)> = Vec::with_capacity(3 * n * n + 2 * n);
    let mut push_edge = |a: u32, b: u32| {
        edge_set.push(if a < b { (a, b) } else { (b, a) });
    };
    for j in 0..n {
        for i in 0..n {
            let (a, b, c, d) = (
                node(i, j),
                node(i + 1, j),
                node(i + 1, j + 1),
                node(i, j + 1),
            );
            // Lower-right triangle (a, b, c) and upper-left (a, c, d).
            tri_nodes.extend_from_slice(&[a, b, c]);
            tri_nodes.extend_from_slice(&[a, c, d]);
            push_edge(a, b);
            push_edge(b, c);
            push_edge(a, c);
            push_edge(c, d);
            push_edge(a, d);
        }
    }
    edge_set.sort_unstable();
    edge_set.dedup();
    let nedge = edge_set.len();
    let mut edge_nodes = Vec::with_capacity(nedge * 2);
    for (a, b) in edge_set {
        edge_nodes.push(a);
        edge_nodes.push(b);
    }

    TriMesh {
        nnode,
        ntri: 2 * n * n,
        nedge,
        tri_nodes: Arc::new(tri_nodes),
        edge_nodes: Arc::new(edge_nodes),
        x,
        node_boundary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        let m = unit_square(4);
        assert_eq!(m.nnode, 25);
        assert_eq!(m.ntri, 32);
        // Edges of a triangulated n x n grid: horizontal (n+1)*n, vertical
        // n*(n+1), diagonal n*n.
        assert_eq!(m.nedge, 2 * 5 * 4 + 16);
        assert_eq!(m.edge_nodes.len(), m.nedge * 2);
    }

    #[test]
    fn euler_formula() {
        let m = unit_square(7);
        let v = m.nnode as i64;
        let e = m.nedge as i64;
        let f = m.ntri as i64 + 1;
        assert_eq!(v - e + f, 2);
    }

    #[test]
    fn boundary_ring_marked() {
        let m = unit_square(3);
        let marked = m.node_boundary.iter().filter(|&&b| b == 1).count();
        assert_eq!(marked, 4 * 3); // perimeter nodes of a 4x4 grid
    }

    #[test]
    fn edges_are_unique_and_sorted_pairs() {
        let m = unit_square(5);
        for e in 0..m.nedge {
            assert!(m.edge_nodes[2 * e] < m.edge_nodes[2 * e + 1]);
        }
    }
}
