//! Execution plans: mini-partition blocks + greedy block coloring.
//!
//! This is the shared-memory execution strategy of the OP2 library that the
//! paper's backends inherit: the iteration set is partitioned into
//! contiguous *blocks*; blocks that increment the same target element
//! through any indirection map receive different *colors*; blocks of one
//! color can run concurrently without races, and colors execute as
//! successive rounds. The fork-join backend places a global barrier after
//! every round; the dataflow backend chains rounds with futures.
//!
//! Plans are cached per (set, block size, indirection signature) like OP2's
//! `op_plan_get` — by the sets' and maps' *content* signatures, so a world
//! that declares the same mesh again (one instance per solve) colours it
//! once.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::arg::{ArgInfo, ArgKind};
use crate::map::Map;
use crate::set::Set;

/// A conflict source: a map slot used with a mutating access mode.
#[derive(Clone)]
pub(crate) struct Conflict {
    pub map: Map,
    pub idx: usize,
}

/// The execution plan of an indirect loop.
#[derive(Debug)]
pub struct Plan {
    /// Block size used to partition the set.
    pub block_size: usize,
    /// Contiguous element ranges, one per block.
    pub blocks: Vec<Range<usize>>,
    /// Color of each block.
    pub block_color: Vec<u32>,
    /// Number of colors.
    pub ncolors: usize,
    /// Block ids grouped by color, ascending within a color.
    pub color_blocks: Vec<Vec<usize>>,
}

impl Plan {
    /// Builds a plan for a set of `n` elements. `conflicts` lists every
    /// (map, slot) reached with a mutating access; an empty list yields a
    /// single-color plan (a *direct* loop needs no coloring at all, but a
    /// trivial plan keeps the executors uniform).
    pub(crate) fn build(n: usize, block_size: usize, conflicts: &[Conflict]) -> Plan {
        let block_size = block_size.max(1);
        let nblocks = n.div_ceil(block_size);
        let blocks: Vec<Range<usize>> = (0..nblocks)
            .map(|b| b * block_size..((b + 1) * block_size).min(n))
            .collect();

        // Group conflict slots by map so each map's target masks are
        // walked once per block.
        let mut by_map: Vec<(Map, Vec<usize>)> = Vec::new();
        for c in conflicts {
            match by_map.iter_mut().find(|(m, _)| m.id() == c.map.id()) {
                Some((_, idxs)) => {
                    if !idxs.contains(&c.idx) {
                        idxs.push(c.idx);
                    }
                }
                None => by_map.push((c.map.clone(), vec![c.idx])),
            }
        }

        if by_map.is_empty() || nblocks <= 1 {
            let ncolors = usize::from(nblocks > 0);
            return Plan {
                block_size,
                block_color: vec![0; nblocks],
                ncolors,
                color_blocks: if nblocks > 0 {
                    vec![(0..nblocks).collect()]
                } else {
                    Vec::new()
                },
                blocks,
            };
        }

        // Greedy coloring with a growable per-target color bitmask. Start
        // with one 64-bit word per target; on the (rare) overflow, widen
        // and restart.
        let mut words = 1usize;
        let block_color = loop {
            match try_color(&blocks, &by_map, words) {
                Some(colors) => break colors,
                None => words += 1,
            }
        };
        let ncolors = block_color
            .iter()
            .copied()
            .max()
            .map_or(0, |c| c as usize + 1);
        let mut color_blocks = vec![Vec::new(); ncolors];
        for (b, &c) in block_color.iter().enumerate() {
            color_blocks[c as usize].push(b);
        }
        Plan {
            block_size,
            blocks,
            block_color,
            ncolors,
            color_blocks,
        }
    }

    /// Number of blocks.
    pub fn nblocks(&self) -> usize {
        self.blocks.len()
    }
}

/// One greedy pass with `words * 64` available colors. Returns `None` if
/// some block found every color forbidden (caller widens and retries).
fn try_color(
    blocks: &[Range<usize>],
    by_map: &[(Map, Vec<usize>)],
    words: usize,
) -> Option<Vec<u32>> {
    // masks[m] is a flat [target_count x words] bitset of colors already
    // used by blocks touching that target.
    // Masks cover the full addressable target range — including a sharded
    // dat's halo mirror rows, which conflict exactly like owned rows.
    let mut masks: Vec<Vec<u64>> = by_map
        .iter()
        .map(|(m, _)| vec![0u64; m.target_rows() * words])
        .collect();
    let mut colors = Vec::with_capacity(blocks.len());
    let mut forbidden = vec![0u64; words];

    for block in blocks {
        forbidden.iter_mut().for_each(|w| *w = 0);
        for (mi, (map, idxs)) in by_map.iter().enumerate() {
            let mask = &masks[mi];
            for e in block.clone() {
                for &k in idxs {
                    let t = map.at(e, k);
                    let base = t * words;
                    for w in 0..words {
                        forbidden[w] |= mask[base + w];
                    }
                }
            }
        }
        // First free color.
        let mut color = None;
        for (w, &bits) in forbidden.iter().enumerate() {
            if bits != u64::MAX {
                color = Some((w * 64 + (!bits).trailing_zeros() as usize) as u32);
                break;
            }
        }
        let color = color?;
        colors.push(color);
        let (cw, cb) = ((color / 64) as usize, color % 64);
        for (mi, (map, idxs)) in by_map.iter().enumerate() {
            let mask = &mut masks[mi];
            for e in block.clone() {
                for &k in idxs {
                    let t = map.at(e, k);
                    mask[t * words + cw] |= 1u64 << cb;
                }
            }
        }
    }
    Some(colors)
}

/// Validates the fundamental plan invariant: no two blocks of the same
/// color touch a common target through any conflict map. Used by debug
/// assertions and the property tests.
pub fn validate_coloring(plan: &Plan, conflicts: &[(Map, usize)]) -> Result<(), String> {
    for (color, blocks) in plan.color_blocks.iter().enumerate() {
        for (map, idx) in conflicts {
            let mut owner: HashMap<usize, usize> = HashMap::new();
            for &b in blocks {
                for e in plan.blocks[b].clone() {
                    let t = map.at(e, *idx);
                    if let Some(prev) = owner.insert(t, b) {
                        if prev != b {
                            return Err(format!(
                                "color {color}: blocks {prev} and {b} share target {t} of map '{}'",
                                map.name()
                            ));
                        }
                    }
                }
            }
        }
    }
    // Coverage: blocks tile 0..n.
    let mut next = 0;
    for r in &plan.blocks {
        if r.start != next {
            return Err(format!("block gap at {next}"));
        }
        next = r.end;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Block-reach tables (block-granular dataflow)
// ---------------------------------------------------------------------------

/// Which dependency blocks of a dat each node of an access touches, and
/// the inverse: which nodes touch a given dependency block. This is what
/// the dataflow engine wires indirect arguments with — the analogue of a
/// direct argument's "node i touches rows `i*bs..(i+1)*bs`", which needs
/// no table.
///
/// Built once per `(map, slots, source block size, target block size)`
/// and cached on the [`Map`] (see [`Map::block_reach`]); a partial access
/// that addresses a scattered row list directly (halo gather, migration)
/// builds a one-node table with [`BlockReach::of_rows`].
#[derive(Debug)]
pub(crate) struct BlockReach {
    /// Node `n`'s blocks are `fwd[fwd_off[n]..fwd_off[n + 1]]`: ascending,
    /// disjoint ranges with adjacent blocks coalesced.
    fwd_off: Vec<u32>,
    fwd: Vec<Range<u32>>,
    /// First touched block; `inv_off` is indexed relative to it.
    first: u32,
    /// The nodes touching block `first + k` are
    /// `inv[inv_off[k]..inv_off[k + 1]]`, ascending.
    inv_off: Vec<u32>,
    inv: Vec<u32>,
    /// Every block of [`BlockReach::span`] is touched by some node.
    dense: bool,
}

impl BlockReach {
    /// Builds both directions from per-node block lists (each sorted and
    /// deduplicated).
    fn from_node_blocks(per_node: &[Vec<u32>]) -> BlockReach {
        let first = per_node.iter().filter_map(|b| b.first()).min();
        let last = per_node.iter().filter_map(|b| b.last()).max();
        let (Some(&first), Some(&last)) = (first, last) else {
            return BlockReach {
                fwd_off: vec![0; per_node.len() + 1],
                fwd: Vec::new(),
                first: 0,
                inv_off: vec![0],
                inv: Vec::new(),
                dense: true,
            };
        };
        let span = (last - first + 1) as usize;
        let mut fwd_off = Vec::with_capacity(per_node.len() + 1);
        let mut fwd: Vec<Range<u32>> = Vec::new();
        let mut inv_off = vec![0u32; span + 1];
        fwd_off.push(0);
        for blocks in per_node {
            let run_start = fwd.len();
            for &b in blocks {
                inv_off[(b - first) as usize + 1] += 1;
                match fwd[run_start..].last_mut() {
                    Some(run) if run.end == b => run.end = b + 1,
                    _ => fwd.push(b..b + 1),
                }
            }
            fwd_off.push(fwd.len() as u32);
        }
        let dense = inv_off[1..].iter().all(|&count| count > 0);
        for k in 0..span {
            inv_off[k + 1] += inv_off[k];
        }
        let mut cursor = inv_off.clone();
        let mut inv = vec![0u32; inv_off[span] as usize];
        for (node, blocks) in per_node.iter().enumerate() {
            for &b in blocks {
                let slot = &mut cursor[(b - first) as usize];
                inv[*slot as usize] = node as u32;
                *slot += 1;
            }
        }
        BlockReach {
            fwd_off,
            fwd,
            first,
            inv_off,
            inv,
            dense,
        }
    }

    /// The one-node table of an access to the listed rows of a dat with
    /// `block_size`-row dependency blocks.
    pub fn of_rows(rows: &[u32], block_size: usize) -> BlockReach {
        let mut blocks: Vec<u32> = rows.iter().map(|&r| r / block_size as u32).collect();
        blocks.sort_unstable();
        blocks.dedup();
        Self::from_node_blocks(&[blocks])
    }

    /// Number of nodes.
    #[cfg(test)]
    pub fn nodes(&self) -> usize {
        self.fwd_off.len() - 1
    }

    /// The dependency blocks node `node` touches, as ascending ranges.
    pub fn node_blocks(&self, node: usize) -> &[Range<u32>] {
        &self.fwd[self.fwd_off[node] as usize..self.fwd_off[node + 1] as usize]
    }

    /// The nodes touching dependency block `block`, ascending.
    pub fn nodes_of(&self, block: u32) -> &[u32] {
        let k = block.wrapping_sub(self.first) as usize;
        match (self.inv_off.get(k), self.inv_off.get(k + 1)) {
            (Some(&lo), Some(&hi)) => &self.inv[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// First touched block up to one past the last.
    pub fn span(&self) -> Range<u32> {
        self.first..self.first + (self.inv_off.len() - 1) as u32
    }

    /// True when every block of [`BlockReach::span`] is touched.
    pub fn dense(&self) -> bool {
        self.dense
    }
}

/// Builds the [`BlockReach`] of `map` through the union of `slots`, for a
/// source set partitioned into `from_bs`-sized nodes and a target
/// dependency table with `to_bs`-row blocks. One pass over the table: each
/// target block is stamped with the last node that listed it, so a node's
/// list receives each block once and only its distinct blocks are sorted.
pub(crate) fn build_block_reach(
    map: &Map,
    slots: &[usize],
    from_bs: usize,
    to_bs: usize,
) -> BlockReach {
    let (table, dim, to_bs) = (map.indices(), map.dim(), to_bs.max(1) as u32);
    // stamp[k] == mark (node + 1): block k is already on the node's list.
    let mut stamp = vec![0u32; map.target_rows().div_ceil(to_bs as usize)];
    let per_node: Vec<Vec<u32>> = table
        .chunks(from_bs.max(1) * dim)
        .zip(1u32..)
        .map(|(rows, mark)| {
            let mut blocks = Vec::new();
            for row in rows.chunks_exact(dim) {
                for k in slots.iter().map(|&s| row[s] / to_bs) {
                    if std::mem::replace(&mut stamp[k as usize], mark) != mark {
                        blocks.push(k);
                    }
                }
            }
            blocks.sort_unstable();
            blocks
        })
        .collect();
    BlockReach::from_node_blocks(&per_node)
}

pub(crate) fn conflicts_of(infos: &[ArgInfo]) -> Vec<Conflict> {
    infos
        .iter()
        .filter(|i| i.access.is_mut())
        .filter_map(|i| match &i.kind {
            ArgKind::Indirect { map, idx } => Some(Conflict {
                map: map.clone(),
                idx: *idx,
            }),
            _ => None,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Plan cache (OP2 `op_plan_get`)
// ---------------------------------------------------------------------------

#[derive(PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    set: u64,
    block_size: usize,
    conflicts: Vec<(u64, usize)>,
}

#[derive(Default)]
pub(crate) struct PlanCache {
    plans: Mutex<HashMap<PlanKey, Arc<Plan>>>,
    hits: Mutex<u64>,
}

impl PlanCache {
    pub fn get(&self, set: &Set, block_size: usize, conflicts: &[Conflict]) -> Arc<Plan> {
        // Shape, not identity: ids are fresh on every declare, and a plan
        // depends on nothing but the set's size and the maps' index tables
        // (both hashed into the signatures).
        let mut key_conflicts: Vec<(u64, usize)> = conflicts
            .iter()
            .map(|c| (c.map.signature(), c.idx))
            .collect();
        key_conflicts.sort_unstable();
        key_conflicts.dedup();
        let key = PlanKey {
            set: set.signature(),
            block_size,
            conflicts: key_conflicts,
        };
        if let Some(p) = self.plans.lock().get(&key) {
            *self.hits.lock() += 1;
            return Arc::clone(p);
        }
        let plan = Arc::new(Plan::build(set.size(), block_size, conflicts));
        #[cfg(debug_assertions)]
        {
            let pairs: Vec<(Map, usize)> =
                conflicts.iter().map(|c| (c.map.clone(), c.idx)).collect();
            if let Err(e) = validate_coloring(&plan, &pairs) {
                panic!("plan validation failed for set '{}': {e}", set.name());
            }
        }
        self.plans
            .lock()
            .entry(key)
            .or_insert_with(|| Arc::clone(&plan));
        plan
    }

    /// Drops every plan of set signature `set_sig`; returns how many.
    pub fn invalidate_set(&self, set_sig: u64) -> usize {
        let mut plans = self.plans.lock();
        let before = plans.len();
        plans.retain(|k, _| k.set != set_sig);
        before - plans.len()
    }

    pub fn built(&self) -> usize {
        self.plans.lock().len()
    }

    pub fn hits(&self) -> u64 {
        *self.hits.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring of n edges over n nodes: edge e -> nodes (e, e+1 mod n).
    fn ring(n: usize) -> (Set, Set, Map) {
        let edges = Set::new(n, "edges");
        let nodes = Set::new(n, "nodes");
        let mut idx = Vec::with_capacity(2 * n);
        for e in 0..n {
            idx.push(e as u32);
            idx.push(((e + 1) % n) as u32);
        }
        let m = Map::new(&edges, &nodes, 2, idx, "pedge");
        (edges, nodes, m)
    }

    fn ring_conflicts(m: &Map) -> Vec<Conflict> {
        vec![
            Conflict {
                map: m.clone(),
                idx: 0,
            },
            Conflict {
                map: m.clone(),
                idx: 1,
            },
        ]
    }

    #[test]
    fn direct_plan_single_color() {
        let p = Plan::build(1000, 128, &[]);
        assert_eq!(p.ncolors, 1);
        assert_eq!(p.nblocks(), 8);
        assert_eq!(p.color_blocks[0].len(), 8);
    }

    #[test]
    fn ring_coloring_is_valid() {
        let (_e, _n, m) = ring(1000);
        let conflicts = ring_conflicts(&m);
        let p = Plan::build(1000, 64, &conflicts);
        assert!(p.ncolors >= 2, "adjacent blocks share boundary nodes");
        let pairs: Vec<(Map, usize)> = conflicts.iter().map(|c| (c.map.clone(), c.idx)).collect();
        validate_coloring(&p, &pairs).unwrap();
    }

    #[test]
    fn every_block_appears_once_in_color_lists() {
        let (_e, _n, m) = ring(500);
        let p = Plan::build(500, 32, &ring_conflicts(&m));
        let mut seen = vec![false; p.nblocks()];
        for blocks in &p.color_blocks {
            for &b in blocks {
                assert!(!seen[b], "block {b} colored twice");
                seen[b] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn empty_set_plan() {
        let p = Plan::build(0, 64, &[]);
        assert_eq!(p.nblocks(), 0);
        assert_eq!(p.ncolors, 0);
    }

    #[test]
    fn single_block_needs_one_color() {
        let (_e, _n, m) = ring(10);
        let p = Plan::build(10, 64, &ring_conflicts(&m));
        assert_eq!(p.nblocks(), 1);
        assert_eq!(p.ncolors, 1);
    }

    #[test]
    fn pathological_all_to_one_map_serializes() {
        // Every edge increments node 0: every block conflicts with every
        // other, so #colors == #blocks.
        let edges = Set::new(256, "edges");
        let nodes = Set::new(1, "node");
        let m = Map::new(&edges, &nodes, 1, vec![0; 256], "all_to_one");
        let conflicts = vec![Conflict {
            map: m.clone(),
            idx: 0,
        }];
        let p = Plan::build(256, 2, &conflicts);
        assert_eq!(p.ncolors, p.nblocks(), "total conflict must serialize");
        assert!(p.ncolors > 64, "exercises the multi-word bitmask path");
        validate_coloring(&p, &[(m, 0)]).unwrap();
    }

    #[test]
    fn block_reach_covers_exactly_the_touched_blocks() {
        let (_e, _n, m) = ring(100);
        // Source nodes of 10 edges, target dep-blocks of 25 nodes.
        let reach = build_block_reach(&m, &[1], 10, 25);
        assert_eq!(reach.nodes(), 10);
        // Node 0 covers edges 0..10 -> slot-1 nodes 1..=10 -> block 0
        // only; node 2 covers edges 20..30 -> nodes 21..=30 -> blocks 0,1
        // (one coalesced range).
        assert_eq!(reach.node_blocks(0), std::slice::from_ref(&(0..1)));
        assert_eq!(reach.node_blocks(2), std::slice::from_ref(&(0..2)));
        // The last node wraps: edges 90..100 -> nodes 91..=99 and 0.
        assert_eq!(reach.node_blocks(9), &[0..1, 3..4]);
        assert_eq!(reach.span(), 0..4);
        assert!(reach.dense());
        // Exhaustive cross-check of both directions against the map.
        for node in 0..10 {
            for e in node * 10..(node + 1) * 10 {
                let t = (m.at(e, 1) / 25) as u32;
                assert!(
                    reach.node_blocks(node).iter().any(|r| r.contains(&t)),
                    "node {node} missing block {t}"
                );
                assert!(reach.nodes_of(t).contains(&(node as u32)));
            }
        }
        for b in 0..4u32 {
            for &node in reach.nodes_of(b) {
                assert!(reach
                    .node_blocks(node as usize)
                    .iter()
                    .any(|r| r.contains(&b)));
            }
        }
        assert!(reach.nodes_of(4).is_empty(), "outside the span");
    }

    #[test]
    fn block_reach_unions_slots_and_reports_gaps() {
        let (_e, _n, m) = ring(100);
        let both = build_block_reach(&m, &[0, 1], 10, 25);
        // Slot 0 of edges 20..30 reaches nodes 20..=29, slot 1 21..=30.
        assert_eq!(both.node_blocks(2), std::slice::from_ref(&(0..2)));
        assert_eq!(both.nodes_of(0), &[0, 1, 2, 9]);
        // A scattered row list: blocks 0 and 3 of a 10-row table, with an
        // untouched gap between them.
        let rows = BlockReach::of_rows(&[31, 2, 38, 5], 10);
        assert_eq!(rows.nodes(), 1);
        assert_eq!(rows.node_blocks(0), &[0..1, 3..4]);
        assert_eq!(rows.span(), 0..4);
        assert!(!rows.dense());
        assert_eq!(rows.nodes_of(3), &[0]);
        assert!(rows.nodes_of(1).is_empty());
        // No rows at all: an empty, trivially dense table.
        let none = BlockReach::of_rows(&[], 10);
        assert!(none.node_blocks(0).is_empty() && none.span().is_empty());
    }

    #[test]
    fn block_reach_is_cached_per_key() {
        let (_e, _n, m) = ring(64);
        let a = m.block_reach(&[0], 16, 16);
        let b = m.block_reach(&[0], 16, 16);
        assert!(Arc::ptr_eq(&a, &b), "same key must hit the cache");
        let c = m.block_reach(&[1], 16, 16);
        assert!(!Arc::ptr_eq(&a, &c), "different slot, different table");
    }

    #[test]
    fn plan_cache_hits() {
        let (_e, _n, m) = ring(100);
        let set = m.from_set().clone();
        let cache = PlanCache::default();
        let c = ring_conflicts(&m);
        let p1 = cache.get(&set, 16, &c);
        let p2 = cache.get(&set, 16, &c);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.built(), 1);
        assert_eq!(cache.hits(), 1);
        // Different block size -> different plan.
        let p3 = cache.get(&set, 32, &c);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(cache.built(), 2);
    }

    #[test]
    fn plan_cache_keys_on_shape_not_identity() {
        let cache = PlanCache::default();
        let (_e, _n, first) = ring(100);
        let (_e2, _n2, again) = ring(100);
        assert_ne!(first.id(), again.id(), "two declares, two identities");
        let p1 = cache.get(first.from_set(), 16, &ring_conflicts(&first));
        let p2 = cache.get(again.from_set(), 16, &ring_conflicts(&again));
        assert!(
            Arc::ptr_eq(&p1, &p2),
            "an identical declare recolours nothing"
        );
        assert_eq!((cache.built(), cache.hits()), (1, 1));
        // One index differs: another connectivity, another colouring.
        let edges = Set::new(100, "edges");
        let nodes = Set::new(100, "nodes");
        let mut idx: Vec<u32> = (0..100u32).flat_map(|e| [e, (e + 1) % 100]).collect();
        idx[1] = 57;
        let other = Map::new(&edges, &nodes, 2, idx, "pedge");
        let p3 = cache.get(other.from_set(), 16, &ring_conflicts(&other));
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(cache.built(), 2);
    }

    #[test]
    fn stamped_block_reach_matches_a_brute_force_reference() {
        use std::collections::BTreeSet;
        // SplitMix64, so every case is reproducible from its seed.
        let mut state = 0x5eed_u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        for case in 0..40 {
            let (nfrom, nto, dim, from_bs, to_bs, table, slots) = if case == 0 {
                // Node 0 leaves block 0 for block 3, then returns to it.
                (6, 40, 1, 3, 10, vec![0, 39, 1, 12, 25, 12], vec![0])
            } else {
                let (nfrom, nto, dim) =
                    (1 + next(300) as usize, 1 + next(200), 1 + next(4) as usize);
                let table: Vec<u32> = (0..nfrom * dim).map(|_| next(nto) as u32).collect();
                let slots: Vec<usize> = (0..dim).filter(|_| next(3) > 0).collect();
                let (from_bs, to_bs) = (1 + next(40) as usize, 1 + next(30) as usize);
                (nfrom, nto as usize, dim, from_bs, to_bs, table, slots)
            };
            let m = Map::new(
                &Set::new(nfrom, "from"),
                &Set::new(nto, "to"),
                dim,
                table,
                "m",
            );
            let reach = build_block_reach(&m, &slots, from_bs, to_bs);
            let nnodes = nfrom.div_ceil(from_bs);
            let want: Vec<BTreeSet<u32>> = (0..nnodes)
                .map(|b| {
                    (b * from_bs..((b + 1) * from_bs).min(nfrom))
                        .flat_map(|e| slots.iter().map(move |&s| (e, s)))
                        .map(|(e, s)| (m.at(e, s) / to_bs) as u32)
                        .collect()
                })
                .collect();
            assert_eq!(reach.nodes(), nnodes, "case {case}");
            for (node, blocks) in want.iter().enumerate() {
                let got: Vec<u32> = reach
                    .node_blocks(node)
                    .iter()
                    .flat_map(|r| r.clone())
                    .collect();
                assert_eq!(
                    got,
                    blocks.iter().copied().collect::<Vec<_>>(),
                    "case {case} node {node}"
                );
            }
            for block in 0..nto.div_ceil(to_bs) as u32 + 1 {
                let users: Vec<u32> = (0..nnodes as u32)
                    .filter(|&node| want[node as usize].contains(&block))
                    .collect();
                assert_eq!(
                    reach.nodes_of(block),
                    &users[..],
                    "case {case} block {block}"
                );
            }
        }
    }
}
