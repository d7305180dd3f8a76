//! Compressed-sparse-row adjacency built from a pair table — the
//! neighbour graph the partitioner grows its parts over.

/// CSR adjacency: `targets of i` = `adj[offsets[i]..offsets[i+1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `n + 1` row offsets.
    pub offsets: Vec<u32>,
    /// Flattened adjacency lists.
    pub adj: Vec<u32>,
}

impl Csr {
    /// Neighbours of row `i`.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.adj[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Builds target-to-target adjacency (e.g. node → neighbouring nodes)
/// from a 2-ary relation table such as edge → nodes. Neighbour lists are
/// sorted and deduplicated.
pub fn neighbors_from_pairs(pairs: &[u32], nto: usize) -> Csr {
    assert!(
        pairs.len().is_multiple_of(2),
        "pair table must have even length"
    );
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); nto];
    for p in pairs.chunks_exact(2) {
        let (a, b) = (p[0] as usize, p[1] as usize);
        lists[a].push(p[1]);
        lists[b].push(p[0]);
    }
    let mut offsets = Vec::with_capacity(nto + 1);
    let mut adj = Vec::new();
    offsets.push(0u32);
    for mut l in lists {
        l.sort_unstable();
        l.dedup();
        adj.extend_from_slice(&l);
        offsets.push(adj.len() as u32);
    }
    Csr { offsets, adj }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_of_path_graph() {
        // 0-1-2-3 path.
        let pairs = [0, 1, 1, 2, 2, 3];
        let csr = neighbors_from_pairs(&pairs, 4);
        assert_eq!(csr.row(0), &[1]);
        assert_eq!(csr.row(1), &[0, 2]);
        assert_eq!(csr.row(3), &[2]);
    }

    #[test]
    fn duplicate_pairs_dedup() {
        let pairs = [0, 1, 1, 0];
        let csr = neighbors_from_pairs(&pairs, 2);
        assert_eq!(csr.row(0), &[1]);
        assert_eq!(csr.row(1), &[0]);
    }

    #[test]
    fn empty() {
        let csr = neighbors_from_pairs(&[], 0);
        assert!(csr.is_empty());
    }
}
