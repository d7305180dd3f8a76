//! Mesh validation: the invariants the solver relies on.

use crate::quad::QuadMesh;

/// Mean |a - b| over a pair table — a locality figure for indirect access
/// (smaller = more cache friendly).
fn mean_pair_span(pairs: &[u32]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let total: u64 = pairs
        .chunks_exact(2)
        .map(|p| u64::from(p[0].abs_diff(p[1])))
        .sum();
    total as f64 / (pairs.len() / 2) as f64
}

/// Checks every structural invariant of a [`QuadMesh`]; returns the list
/// of violations (empty = valid).
pub fn validate_quad(m: &QuadMesh) -> Vec<String> {
    let mut errors = Vec::new();
    let mut check_range = |what: &str, table: &[u32], limit: usize| {
        if let Some((i, &v)) = table.iter().enumerate().find(|(_, &v)| v as usize >= limit) {
            errors.push(format!("{what}[{i}] = {v} out of range (< {limit})"));
        }
    };
    check_range("cell_nodes", &m.cell_nodes, m.nnode);
    check_range("edge_nodes", &m.edge_nodes, m.nnode);
    check_range("edge_cells", &m.edge_cells, m.ncell);
    check_range("bedge_nodes", &m.bedge_nodes, m.nnode);
    check_range("bedge_cells", &m.bedge_cells, m.ncell);

    if m.cell_nodes.len() != m.ncell * 4 {
        errors.push("cell_nodes length".into());
    }
    if m.edge_nodes.len() != m.nedge * 2 || m.edge_cells.len() != m.nedge * 2 {
        errors.push("edge table length".into());
    }
    if m.bedge_nodes.len() != m.nbedge * 2
        || m.bedge_cells.len() != m.nbedge
        || m.bound.len() != m.nbedge
    {
        errors.push("bedge table length".into());
    }
    if m.x.len() != m.nnode * 2 {
        errors.push("coordinate length".into());
    }

    for e in 0..m.nedge {
        if m.edge_cells[2 * e] == m.edge_cells[2 * e + 1] {
            errors.push(format!("edge {e} has identical cells"));
        }
        if m.edge_nodes[2 * e] == m.edge_nodes[2 * e + 1] {
            errors.push(format!("edge {e} has identical nodes"));
        }
    }

    if !m
        .bound
        .iter()
        .all(|&b| b == crate::quad::BOUND_WALL || b == crate::quad::BOUND_FARFIELD)
    {
        errors.push("invalid boundary flag".into());
    }

    // Geometric checks below index through the tables; they are only
    // meaningful (and memory-safe) on a structurally sound mesh.
    if !errors.is_empty() {
        return errors;
    }

    // Orientation: with (dx, dy) = x_a - x_b over edge nodes (a, b), the
    // scaled normal n = (dy, -dx) must point from cell 1 toward cell 2
    // (interior) / away from the cell (boundary). The flux kernels rely
    // on this; a flipped edge reverses convection and destabilizes the
    // scheme.
    let centroid = |c: usize| -> (f64, f64) {
        let n = &m.cell_nodes[4 * c..4 * c + 4];
        let (mut cx, mut cy) = (0.0, 0.0);
        for &v in n {
            cx += m.x[2 * v as usize];
            cy += m.x[2 * v as usize + 1];
        }
        (cx / 4.0, cy / 4.0)
    };
    let normal = |a: usize, b: usize| -> (f64, f64) {
        let dx = m.x[2 * a] - m.x[2 * b];
        let dy = m.x[2 * a + 1] - m.x[2 * b + 1];
        (dy, -dx)
    };
    for e in 0..m.nedge {
        let (a, b) = (
            m.edge_nodes[2 * e] as usize,
            m.edge_nodes[2 * e + 1] as usize,
        );
        let (c1, c2) = (
            m.edge_cells[2 * e] as usize,
            m.edge_cells[2 * e + 1] as usize,
        );
        let n = normal(a, b);
        let (x1, y1) = centroid(c1);
        let (x2, y2) = centroid(c2);
        if n.0 * (x2 - x1) + n.1 * (y2 - y1) <= 0.0 {
            errors.push(format!("edge {e}: normal does not point cell1 -> cell2"));
        }
    }
    for e in 0..m.nbedge {
        let (a, b) = (
            m.bedge_nodes[2 * e] as usize,
            m.bedge_nodes[2 * e + 1] as usize,
        );
        let c = m.bedge_cells[e] as usize;
        let n = normal(a, b);
        let (cx, cy) = centroid(c);
        let (mx, my) = (
            0.5 * (m.x[2 * a] + m.x[2 * b]),
            0.5 * (m.x[2 * a + 1] + m.x[2 * b + 1]),
        );
        if n.0 * (mx - cx) + n.1 * (my - cy) <= 0.0 {
            errors.push(format!("bedge {e}: normal does not point outward"));
        }
    }

    // Conservation structure: every cell must be reachable from the edge
    // tables (each cell of a structured channel borders >= 2 edges).
    let mut touched = vec![0u8; m.ncell];
    for &c in m.edge_cells.iter().chain(m.bedge_cells.iter()) {
        touched[c as usize] = 1;
    }
    if touched.contains(&0) {
        errors.push("cell untouched by any edge".into());
    }

    errors
}

/// Summary statistics of a quad mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshStats {
    /// Node count.
    pub nnode: usize,
    /// Cell count.
    pub ncell: usize,
    /// Interior edge count.
    pub nedge: usize,
    /// Boundary edge count.
    pub nbedge: usize,
    /// Wall boundary edges.
    pub nwall: usize,
    /// Mean |c1 - c2| over interior edges (locality proxy).
    pub mean_cell_span: f64,
}

/// Computes [`MeshStats`].
pub fn quad_stats(m: &QuadMesh) -> MeshStats {
    MeshStats {
        nnode: m.nnode,
        ncell: m.ncell,
        nedge: m.nedge,
        nbedge: m.nbedge,
        nwall: m
            .bound
            .iter()
            .filter(|&&b| b == crate::quad::BOUND_WALL)
            .count(),
        mean_cell_span: mean_pair_span(&m.edge_cells),
    }
}

impl std::fmt::Display for MeshStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nodes={} cells={} edges={} bedges={} (wall={}) mean-edge-span={:.1}",
            self.nnode, self.ncell, self.nedge, self.nbedge, self.nwall, self.mean_cell_span
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quad::channel_with_bump;
    use std::sync::Arc;

    #[test]
    fn generated_meshes_validate_clean() {
        for (i, j) in [(3, 1), (8, 4), (33, 17), (100, 50)] {
            let m = channel_with_bump(i, j);
            let errors = validate_quad(&m);
            assert!(errors.is_empty(), "{i}x{j}: {errors:?}");
        }
    }

    #[test]
    fn detects_degenerate_edge() {
        let mut m = channel_with_bump(4, 2);
        let first = m.edge_cells[0];
        Arc::make_mut(&mut m.edge_cells)[1] = first;
        assert!(validate_quad(&m)
            .iter()
            .any(|e| e.contains("identical cells")));
    }

    #[test]
    fn detects_out_of_range() {
        let mut m = channel_with_bump(4, 2);
        Arc::make_mut(&mut m.cell_nodes)[0] = m.nnode as u32;
        assert!(!validate_quad(&m).is_empty());
    }

    #[test]
    fn mean_pair_span_averages_pair_distances() {
        assert_eq!(mean_pair_span(&[0, 3, 5, 4]), 2.0);
        assert_eq!(mean_pair_span(&[]), 0.0);
    }

    #[test]
    fn stats_display() {
        let m = channel_with_bump(10, 5);
        let s = quad_stats(&m);
        assert_eq!(s.ncell, 50);
        assert!(s.nwall > 0);
        assert!(s.to_string().contains("cells=50"));
    }
}
