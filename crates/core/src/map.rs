//! Maps: connectivity between sets (paper §II-A, `op_decl_map`), plus the
//! cached block-reach tables the block-granular dataflow engine uses to
//! wire indirect arguments to the dependency blocks they actually touch.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::plan::{build_block_reach, BlockReach};
use crate::set::{hash_u32s, Fnv, Set};
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
    /// The caller's table, shared rather than copied (see [`Map::indices`]).
    pub indices: Arc<Vec<u32>>,
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
    #[cfg(test)]
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
        indices: impl Into<Arc<Vec<u32>>>,
        name: &str,
        halo_targets: usize,
    ) -> Self {
        let indices = indices.into();
        assert!(dim > 0, "map '{name}': dim must be positive");
        assert_eq!(
            indices.len(),
            from.size() * dim,
            "map '{name}': expected {} indices ({} x {dim}), got {}",
            from.size() * dim,
            from.size(),
            indices.len()
        );
        let rows = to.size() + halo_targets;
        assert!(
            rows <= u32::MAX as usize,
            "map '{name}': {rows} target rows are more than u32 indices can address"
        );
        // One vectorisable pass; only a failing table is walked again, to
        // name the first offending position.
        if indices.iter().fold(0, |m, &t| m.max(t)) as usize >= rows {
            for (pos, &t) in indices.iter().enumerate() {
                assert!(
                    (t as usize) < rows,
                    "map '{name}': index {t} at position {pos} out of range for target set '{}' of size {} (+{halo_targets} halo)",
                    to.name(),
                    to.size()
                );
            }
        }
        // Content signature: the cached dataflow schedules keyed on it
        // embed colorings derived from the actual index table, so the
        // table's contents — not just the endpoint shapes — must be part
        // of the identity.
        let header = Fnv::new()
            .bytes(name.as_bytes())
            .u64(dim as u64)
            .u64(from.signature())
            .u64(to.signature())
            .u64(halo_targets as u64);
        Map {
            inner: Arc::new(MapInner {
                id: next_entity_id(),
                from: from.clone(),
                to: to.clone(),
                dim,
                signature: hash_u32s(header.finish(), &indices),
                indices,
                name: name.to_owned(),
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
        // Built unlocked; of two racing builders the first to insert wins.
        let built = Arc::new(build_block_reach(self, slots, from_bs, to_bs));
        Arc::clone(self.inner.reach.lock().entry(key).or_insert(built))
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

    /// Total addressable target rows: the target set's size plus the halo
    /// rows the map was declared with.
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
    ///
    /// The name and header go through FNV-1a; the table is hashed
    /// word-wide, two indices per 64-bit word over four independent lanes,
    /// seeded with the header's hash. The table is hashed on every
    /// declaration — a short solve declares a fresh map each time — so its
    /// cost must stay close to reading the table once: byte-serial FNV
    /// over a 391k-index table was most of such a solve's declare time.
    pub fn signature(&self) -> u64 {
        self.inner.signature
    }

    /// The raw index table (row-major, `from.size()` rows of `dim`): the
    /// very buffer the caller declared, as OP2's `op_decl_map` keeps its
    /// caller's array — an owned `Vec` moved in, or a shared table every
    /// map declared from it (in any world) reads in place.
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

    #[test]
    #[should_panic(expected = "index 3 at position 3 out of range")]
    fn the_range_check_names_a_bad_last_index() {
        let (edges, nodes) = sets();
        let _ = Map::new(&edges, &nodes, 1, vec![0, 1, 2, 3], "bad");
    }

    #[test]
    #[should_panic(expected = "index 9 at position 1 out of range")]
    fn the_range_check_names_the_first_bad_index() {
        let (edges, nodes) = sets();
        let _ = Map::new(&edges, &nodes, 1, vec![0, 9, 2, 7], "bad");
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "more than u32 indices can address")]
    fn rejects_a_target_wider_than_u32() {
        // 2^32 rows would truncate to a bound of 0 in u32 arithmetic.
        let (edges, _) = sets();
        let huge = Set::new(1 << 32, "huge");
        let _ = Map::new(&edges, &huge, 1, vec![0, 1, 2, 3], "wide");
    }

    #[test]
    fn an_empty_table_is_in_range() {
        let (none, nodes) = (Set::new(0, "none"), Set::new(0, "empty"));
        assert!(Map::new(&none, &nodes, 2, vec![], "nil")
            .indices()
            .is_empty());
    }

    /// A 64-entry map over 64 targets, edges x nodes of a ring.
    fn ring() -> (Set, Set, Vec<u32>) {
        let (from, to) = (Set::new(32, "edges"), Set::new(64, "nodes"));
        let table = (0..64u32).map(|i| (i * 37 + 11) % 64).collect();
        (from, to, table)
    }

    #[test]
    fn equal_tables_declared_twice_share_a_signature() {
        // Two declarations of everything: distinct sets and maps.
        let ((f1, t1, table1), (f2, t2, table2)) = (ring(), ring());
        let a = Map::new(&f1, &t1, 2, table1, "pedge");
        let b = Map::new(&f2, &t2, 2, table2, "pedge");
        assert_ne!(a.id(), b.id());
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn any_single_index_change_changes_the_signature() {
        let (from, to, table) = ring();
        let base = Map::new(&from, &to, 2, table.clone(), "pedge").signature();
        let n = to.size() as u32;
        for pos in 0..table.len() {
            for delta in [1, n - 1, n / 2] {
                let mut t = table.clone();
                t[pos] = (t[pos] + delta) % n;
                let sig = Map::new(&from, &to, 2, t, "pedge").signature();
                assert_ne!(sig, base, "index {pos} moved by {delta}");
            }
        }
        for pos in 0..table.len() - 1 {
            let mut t = table.clone();
            t.swap(pos, pos + 1);
            let sig = Map::new(&from, &to, 2, t, "pedge").signature();
            assert_ne!(sig, base, "indices {pos} and {} swapped", pos + 1);
        }
    }
}
