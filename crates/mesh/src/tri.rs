//! Triangulated unit-square meshes for the secondary example applications
//! (edge-based heat diffusion).

use std::sync::Arc;

/// An unstructured triangle mesh over the unit square. Its tables and
/// per-node data are shared, as [`crate::QuadMesh`]'s are.
#[derive(Debug, Clone)]
pub struct TriMesh {
    /// Node count.
    pub nnode: usize,
    /// Triangle count.
    pub ntri: usize,
    /// Unique edge count.
    pub nedge: usize,
    /// Edge → 2 nodes, `nedge x 2`, sorted pairs in ascending order.
    pub edge_nodes: Arc<Vec<u32>>,
    /// Node coordinates, `nnode x 2`.
    pub x: Arc<Vec<f64>>,
    /// 1 for boundary nodes, 0 for interior.
    pub node_boundary: Arc<Vec<i32>>,
}

/// Triangulates an `n x n` structured grid of the unit square (each quad
/// split along its diagonal from `(i, j)` to `(i + 1, j + 1)`), returning
/// fully unstructured tables.
pub fn unit_square(n: usize) -> TriMesh {
    assert!(n >= 1, "need at least one cell per side");
    let side = n + 1;
    let nnode = side * side;

    let mut x = Vec::with_capacity(nnode * 2);
    let mut node_boundary = Vec::with_capacity(nnode);
    // Every edge as a sorted pair `(a, b)`, `a < b`, emitted in ascending
    // order: node `a` at grid `(i, j)` is the lower end of its right,
    // upper and upper-right diagonal edges, in that order of `b`.
    let nedge = 3 * n * n + 2 * n;
    let mut edge_nodes = Vec::with_capacity(nedge * 2);
    for j in 0..side {
        for i in 0..side {
            x.push(i as f64 / n as f64);
            x.push(j as f64 / n as f64);
            node_boundary.push(i32::from(i == 0 || j == 0 || i == n || j == n));
            let (a, up) = ((j * side + i) as u32, side as u32);
            if i < n {
                edge_nodes.extend_from_slice(&[a, a + 1]);
            }
            if j < n {
                edge_nodes.extend_from_slice(&[a, a + up]);
            }
            if i < n && j < n {
                edge_nodes.extend_from_slice(&[a, a + up + 1]);
            }
        }
    }
    debug_assert_eq!(edge_nodes.len(), nedge * 2);

    TriMesh {
        nnode,
        ntri: 2 * n * n,
        nedge,
        edge_nodes: Arc::new(edge_nodes),
        x: Arc::new(x),
        node_boundary: Arc::new(node_boundary),
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

    /// The edge table as derived from the triangles: every triangle's
    /// three sides as sorted pairs, sorted and deduplicated.
    fn edges_from_triangles(n: usize) -> Vec<u32> {
        let side = n + 1;
        let node = |i: usize, j: usize| (j * side + i) as u32;
        let mut pairs = Vec::new();
        for j in 0..n {
            for i in 0..n {
                let (a, b, c, d) = (
                    node(i, j),
                    node(i + 1, j),
                    node(i + 1, j + 1),
                    node(i, j + 1),
                );
                // Triangles (a, b, c) and (a, c, d).
                for (u, v) in [(a, b), (b, c), (a, c), (c, d), (a, d)] {
                    pairs.push((u.min(v), u.max(v)));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs.into_iter().flat_map(|(u, v)| [u, v]).collect()
    }

    #[test]
    fn edge_table_is_the_triangle_derived_one() {
        for n in [1, 2, 3, 7, 64, 255, 256, 257] {
            let m = unit_square(n);
            assert_eq!(*m.edge_nodes, edges_from_triangles(n), "n = {n}");
            assert_eq!(m.edge_nodes.len(), 2 * m.nedge, "n = {n}");
        }
    }

    #[test]
    fn edges_are_unique_and_sorted_pairs() {
        let m = unit_square(5);
        for e in 0..m.nedge {
            assert!(m.edge_nodes[2 * e] < m.edge_nodes[2 * e + 1]);
        }
    }
}
