//! Maps: connectivity between sets (paper §II-A, `op_decl_map`), plus the
//! cached block-reach tables the block-granular dataflow engine uses to
//! wire indirect arguments to the dependency blocks they actually touch.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::plan::{build_block_reach, BlockReach};
use crate::set::{Fnv, Set};
use crate::types::next_entity_id;

/// Cache of [`Map::block_reach`] tables, keyed by `(slots, from block
/// size, to block size)`.
type ReachCache = Mutex<HashMap<(Vec<usize>, usize, usize), Arc<BlockReach>>>;

#[derive(Debug)]
pub(crate) struct MapInner {
    pub id: u64,
    pub from: Set,
    pub to: Set,
    pub dim: usize,
    pub indices: Vec<u32>,
    pub name: String,
    /// Content signature — see [`Map::signature`].
    pub signature: u64,
    /// Target rows beyond `to.size()` the table may index — the halo
    /// mirror region of a sharded dat (see [`crate::locality`]). 0 for
    /// ordinary single-locality maps.
    pub halo_targets: usize,
    /// Computed on first use, shared by every loop over this map.
    reach: ReachCache,
}

/// A declared mapping of arity `dim` from one set to another, e.g. the
/// paper's `pedge` map from edges to their 2 nodes. Cheap to clone.
#[derive(Debug, Clone)]
pub struct Map {
    inner: Arc<MapInner>,
}

impl Map {
    pub(crate) fn new(from: &Set, to: &Set, dim: usize, indices: Vec<u32>, name: &str) -> Self {
        Self::with_halo(from, to, dim, indices, name, 0)
    }

    /// A map whose table may additionally index `halo_targets` rows beyond
    /// `to.size()` — the halo mirror region of sharded dats declared with
    /// [`crate::Op2::decl_dat_halo`].
    pub(crate) fn with_halo(
        from: &Set,
        to: &Set,
        dim: usize,
        indices: Vec<u32>,
        name: &str,
        halo_targets: usize,
    ) -> Self {
        assert!(dim > 0, "map '{name}': dim must be positive");
        assert_eq!(
            indices.len(),
            from.size() * dim,
            "map '{name}': expected {} indices ({} x {dim}), got {}",
            from.size() * dim,
            from.size(),
            indices.len()
        );
        let max_target = (to.size() + halo_targets) as u32;
        for (pos, &t) in indices.iter().enumerate() {
            assert!(
                t < max_target,
                "map '{name}': index {t} at position {pos} out of range for target set '{}' of size {} (+{halo_targets} halo)",
                to.name(),
                to.size()
            );
        }
        // Content signature: the cached dataflow schedules keyed on it
        // embed colorings derived from the actual index table, so the
        // table's contents — not just the endpoint shapes — must be part
        // of the identity.
        let mut sig = Fnv::new()
            .bytes(name.as_bytes())
            .u64(dim as u64)
            .u64(from.signature())
            .u64(to.signature())
            .u64(halo_targets as u64);
        for &t in &indices {
            sig = sig.u64(t as u64);
        }
        Map {
            inner: Arc::new(MapInner {
                id: next_entity_id(),
                from: from.clone(),
                to: to.clone(),
                dim,
                indices,
                name: name.to_owned(),
                signature: sig.finish(),
                halo_targets,
                reach: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// The dependency blocks of the target set touched by each
    /// `from_bs`-sized source node through any of `slots` (ascending), and
    /// the inverse (cached; see [`crate::plan::build_block_reach`]).
    pub(crate) fn block_reach(
        &self,
        slots: &[usize],
        from_bs: usize,
        to_bs: usize,
    ) -> Arc<BlockReach> {
        let key = (slots.to_vec(), from_bs, to_bs);
        if let Some(r) = self.inner.reach.lock().get(&key) {
            return Arc::clone(r);
        }
        let built = Arc::new(build_block_reach(self, slots, from_bs, to_bs));
        Arc::clone(
            self.inner
                .reach
                .lock()
                .entry(key)
                .or_insert_with(|| Arc::clone(&built)),
        )
    }

    /// True when `slot` reaches, from any source element, at least one
    /// target dependency block in `block_range` (block indices for
    /// `to_bs`-row blocks): the reach table of the whole source set taken
    /// as one node. The implicit halo-exchange engine asks this to decide
    /// whether a loop through this map can observe a peer's halo at all.
    pub(crate) fn reaches_target_blocks(
        &self,
        slot: usize,
        to_bs: usize,
        block_range: std::ops::Range<usize>,
    ) -> bool {
        let n = self.inner.from.size();
        if n == 0 || block_range.is_empty() {
            return false;
        }
        self.block_reach(&[slot], n, to_bs)
            .node_blocks(0)
            .iter()
            .any(|r| (r.start as usize) < block_range.end && block_range.start < r.end as usize)
    }

    /// Target element for source element `e`, slot `k` (`k < dim`).
    #[inline(always)]
    pub fn at(&self, e: usize, k: usize) -> usize {
        debug_assert!(k < self.inner.dim);
        self.inner.indices[e * self.inner.dim + k] as usize
    }

    /// Source set.
    pub fn from_set(&self) -> &Set {
        &self.inner.from
    }

    /// Target set.
    pub fn to_set(&self) -> &Set {
        &self.inner.to
    }

    /// Halo rows beyond the target set the table may index (0 for
    /// ordinary maps).
    #[inline]
    pub fn halo_targets(&self) -> usize {
        self.inner.halo_targets
    }

    /// Total addressable target rows: `to_set().size() + halo_targets()`.
    /// This — not the target set size — bounds the table's indices, and is
    /// what the planner sizes its conflict masks by.
    #[inline]
    pub fn target_rows(&self) -> usize {
        self.inner.to.size() + self.inner.halo_targets
    }

    /// Arity of the mapping.
    #[inline]
    pub fn dim(&self) -> usize {
        self.inner.dim
    }

    /// Declared name (diagnostics).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    pub(crate) fn id(&self) -> u64 {
        self.inner.id
    }

    /// Content signature: a stable hash of the map's name, arity, endpoint
    /// set signatures, halo extent and **the full index table**. Two maps
    /// declared identically in different [`Op2`](crate::Op2) worlds share a
    /// signature, so loop shapes over them share warm-cache entries (see
    /// [`Set::signature`]); any difference in connectivity — which changes
    /// coloring — changes the signature.
    pub fn signature(&self) -> u64 {
        self.inner.signature
    }

    /// The raw index table (row-major, `from.size()` rows of `dim`).
    pub fn indices(&self) -> &[u32] {
        &self.inner.indices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sets() -> (Set, Set) {
        (Set::new(4, "edges"), Set::new(3, "nodes"))
    }

    #[test]
    fn lookup() {
        let (edges, nodes) = sets();
        let m = Map::new(&edges, &nodes, 2, vec![0, 1, 1, 2, 2, 0, 0, 2], "pedge");
        assert_eq!(m.at(0, 0), 0);
        assert_eq!(m.at(0, 1), 1);
        assert_eq!(m.at(3, 1), 2);
        assert_eq!(m.dim(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_targets() {
        let (edges, nodes) = sets();
        let _ = Map::new(&edges, &nodes, 1, vec![0, 1, 2, 3], "bad");
    }

    #[test]
    fn halo_targets_extend_the_index_range() {
        let (edges, nodes) = sets();
        // Index 3 is out of range for the 3-node set but inside the halo.
        let m = Map::with_halo(&edges, &nodes, 1, vec![0, 1, 2, 3], "pecell", 1);
        assert_eq!(m.halo_targets(), 1);
        assert_eq!(m.target_rows(), 4);
        assert_eq!(m.at(3, 0), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn halo_bound_is_still_enforced() {
        let (edges, nodes) = sets();
        let _ = Map::with_halo(&edges, &nodes, 1, vec![0, 1, 2, 4], "bad", 1);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn rejects_wrong_length() {
        let (edges, nodes) = sets();
        let _ = Map::new(&edges, &nodes, 2, vec![0, 1], "short");
    }

    #[test]
    fn signature_tracks_contents() {
        let (edges, nodes) = sets();
        let table = vec![0, 1, 1, 2, 2, 0, 0, 2];
        let a = Map::new(&edges, &nodes, 2, table.clone(), "pedge");
        let b = Map::new(&edges, &nodes, 2, table.clone(), "pedge");
        assert_eq!(a.signature(), b.signature(), "identical declarations");
        let mut other = table.clone();
        other[7] = 1;
        let c = Map::new(&edges, &nodes, 2, other, "pedge");
        assert_ne!(a.signature(), c.signature(), "index table is hashed");
        let d = Map::new(&edges, &nodes, 2, table, "pecell");
        assert_ne!(a.signature(), d.signature(), "name is hashed");
    }
}
