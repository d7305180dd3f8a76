//! The app-agnostic half of mesh sharding.
//!
//! Every sharded application numbers its partitioned (primary) set the
//! same way: owned rows first in ascending global order, then halo
//! import mirrors grouped contiguously per peer rank (the exchange
//! relies on contiguity to scatter with one copy), with the executed
//! secondary elements split interior-first so only the boundary blocks
//! gate on halo receives. [`plan_shards`] computes exactly that —
//! extracted verbatim from the Airfoil shard declaration, which now
//! builds on it, as do the node-graph apps ([`crate::heat`],
//! [`crate::jac`]).

use std::sync::Arc;

use op2_core::locality::HaloSpec;
use op2_core::{Map, Op2, Set};
use op2_mesh::{build_halo, neighbors_from_pairs, partition_greedy_bfs, Partition};

use crate::harness::Worlds;

/// One rank's slice of a [`ShardPlan`].
pub struct RankShard {
    /// Global primary id → local row (`u32::MAX` = unreached). Owned
    /// rows come first (ascending global order), halo mirrors after,
    /// contiguous per peer rank.
    pub g2l: Vec<u32>,
    /// Local row → global primary id, covering owned and halo rows
    /// (`l2g.len() == n_owned + n_halo`) — the gather/init companion of
    /// `g2l`.
    pub l2g: Vec<u32>,
    /// Owned rows (the local primary set size).
    pub n_owned: usize,
    /// Halo mirror rows appended to the primary dats.
    pub n_halo: usize,
    /// Executed secondary elements (global ids): *interior* elements
    /// (every endpoint owned) first, partition-boundary elements after.
    pub exec: Vec<u32>,
    /// `exec[..n_interior]` reach owned rows only.
    pub n_interior: usize,
}

/// The generic sharding of one partitioned set: per-rank local
/// numberings plus the global [`HaloSpec`] all ranks agree on.
pub struct ShardPlan {
    /// Halo exchange spec in local row numbering (global: filled for
    /// every rank, not just locally hosted ones).
    pub spec: HaloSpec,
    /// One entry per rank.
    pub shards: Vec<RankShard>,
}

/// Plans the shards of a partitioned set with `n_primary` elements whose
/// secondary set connects to it through `pairs` (secondary element `e`
/// reaches primary elements `pairs[2e]` and `pairs[2e+1]` — the shape
/// [`build_halo`] consumes). Fully deterministic in its inputs; the
/// numbering rules are in the module docs.
pub fn plan_shards(
    n_primary: usize,
    pairs: &[u32],
    part: &Partition,
    owned_all: &[Vec<u32>],
) -> ShardPlan {
    let nranks = part.nparts;
    let halo = build_halo(part, pairs, 2);
    let mut spec = HaloSpec::empty(nranks);
    let mut shards = Vec::with_capacity(nranks);

    for (r, owned) in owned_all.iter().enumerate() {
        let n_owned = owned.len();

        // Local numbering: owned first, then halo imports grouped by
        // owner rank (contiguous per peer).
        let mut g2l = vec![u32::MAX; n_primary];
        for (i, &c) in owned.iter().enumerate() {
            g2l[c as usize] = i as u32;
        }
        let mut l2g = owned.clone();
        let mut off = n_owned;
        for s in 0..nranks {
            let imp = &halo.import[r][s];
            spec.import_range[r][s] = off..off + imp.len();
            for (j, &c) in imp.iter().enumerate() {
                g2l[c as usize] = (off + j) as u32;
            }
            l2g.extend_from_slice(imp);
            off += imp.len();
        }
        let n_halo = off - n_owned;

        // Exported rows are owned, so their local ids are final here.
        for s in 0..nranks {
            spec.export_rows[r][s] = halo.export[r][s].iter().map(|&c| g2l[c as usize]).collect();
        }

        // Executed secondary elements: interior (every endpoint owned)
        // first, partition-boundary after, each ascending in global
        // order.
        let is_owned = |c: u32| part.part_of[c as usize] as usize == r;
        let (interior, boundary): (Vec<u32>, Vec<u32>) = halo.exec[r].iter().partition(|&&e| {
            is_owned(pairs[2 * e as usize]) && is_owned(pairs[2 * e as usize + 1])
        });
        let n_interior = interior.len();
        let exec: Vec<u32> = interior.into_iter().chain(boundary).collect();

        shards.push(RankShard {
            g2l,
            l2g,
            n_owned,
            n_halo,
            exec,
            n_interior,
        });
    }
    spec.validate().expect("shard plan broke the halo spec");

    ShardPlan { spec, shards }
}

/// Sets and map of one part of a *node-graph* application (a primary
/// node set reached by an edge set through a 2-wide map — the heat and
/// jac topology), in the part's local numbering.
pub struct NodeGraph {
    /// Owned nodes.
    pub nodes: Set,
    /// Executed edges, those reaching owned nodes only first.
    pub edges: Set,
    /// edge → 2 nodes (may target halo rows).
    pub pedge: Map,
    /// Halo mirror rows appended to node dats.
    pub n_halo: usize,
    /// Local node row → global node id: the owned rows, then the halo
    /// rows. `None` on the whole graph, whose local rows are global ids.
    pub l2g: Option<Vec<u32>>,
}

impl NodeGraph {
    fn declare(
        op2: &Op2,
        nnode: usize,
        n_halo: usize,
        pedge_idx: Arc<Vec<u32>>,
        l2g: Option<Vec<u32>>,
    ) -> NodeGraph {
        let nodes = op2.decl_set(nnode, "nodes");
        let edges = op2.decl_set(pedge_idx.len() / 2, "edges");
        let pedge = op2.decl_map_halo(&edges, &nodes, 2, pedge_idx, "pedge", n_halo);
        NodeGraph {
            nodes,
            edges,
            pedge,
            n_halo,
            l2g,
        }
    }

    /// Storage rows of a node dat with halo rows: owned plus halo.
    pub fn rows(&self) -> usize {
        self.nodes.size() + self.n_halo
    }

    /// Global ids of the owned rows, in local order (`None`: the whole
    /// graph, in global order).
    pub fn owned(&self) -> Option<&[u32]> {
        self.l2g.as_deref().map(|l2g| &l2g[..self.nodes.size()])
    }

    /// A global per-node array's entries for this part's rows, in local
    /// order: the owned rows, then (`with_halo`) the halo mirrors — the
    /// initial values of a node dat declared with or without halo rows.
    pub fn local<T: Copy>(&self, global: &[T], with_halo: bool) -> Vec<T> {
        let rows = if with_halo {
            self.rows()
        } else {
            self.nodes.size()
        };
        match &self.l2g {
            None => global.to_vec(),
            Some(l2g) => l2g[..rows].iter().map(|&g| global[g as usize]).collect(),
        }
    }

    /// A global per-node array's owned entries as the data of a read-only
    /// node dat: the array itself on the whole graph (shared, not
    /// copied), this part's gathered copy otherwise.
    pub fn shared<T: Copy>(&self, global: &Arc<Vec<T>>) -> Arc<Vec<T>> {
        match self.l2g {
            None => Arc::clone(global),
            Some(_) => Arc::new(self.local(global, false)),
        }
    }
}

/// Declares the sets and map of every part of a node graph (dats are the
/// application's job — it knows their initial values and which ones to
/// halo-link), plus the halo spec the parts' node dats share. A bare
/// world gets the whole graph in global numbering — its map shares
/// `edge_nodes`, it has no `l2g`, nothing is copied, partitioned or
/// planned; a group gets one part per *locally hosted* rank, each with its
/// own renumbered table. Deterministic: the same graph and rank count
/// always produce the same parts.
pub fn declare_node_graphs(
    on: &Worlds<'_>,
    nnode: usize,
    edge_nodes: &Arc<Vec<u32>>,
) -> (Vec<NodeGraph>, HaloSpec) {
    let group = match on {
        Worlds::One(op2) => {
            let whole = NodeGraph::declare(op2, nnode, 0, Arc::clone(edge_nodes), None);
            return (vec![whole], HaloSpec::empty(1));
        }
        Worlds::Group(group) => group,
    };
    let nranks = group.nranks();
    assert!(
        nranks >= 1 && nranks <= nnode,
        "rank count must be in 1..=nnode"
    );
    let adj = neighbors_from_pairs(edge_nodes, nnode);
    let part = partition_greedy_bfs(&adj, nranks);
    let owned_all = part.owned_all();
    let plan = plan_shards(nnode, edge_nodes, &part, &owned_all);

    let graphs = group
        .local_ranks()
        .map(|r| {
            let shard = &plan.shards[r];
            let pedge_idx: Vec<u32> = shard
                .exec
                .iter()
                .flat_map(|&e| {
                    edge_nodes[2 * e as usize..2 * e as usize + 2]
                        .iter()
                        .map(|&gn| shard.g2l[gn as usize])
                })
                .collect();
            NodeGraph::declare(
                group.rank(r),
                shard.n_owned,
                shard.n_halo,
                Arc::new(pedge_idx),
                Some(shard.l2g.clone()),
            )
        })
        .collect();
    (graphs, plan.spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_mesh::unit_square;

    fn plan(nranks: usize) -> (usize, Arc<Vec<u32>>, Partition, ShardPlan) {
        let mesh = unit_square(6);
        let adj = neighbors_from_pairs(&mesh.edge_nodes, mesh.nnode);
        let part = partition_greedy_bfs(&adj, nranks);
        let owned = part.owned_all();
        let p = plan_shards(mesh.nnode, &mesh.edge_nodes, &part, &owned);
        (mesh.nnode, mesh.edge_nodes, part, p)
    }

    #[test]
    fn owned_rows_partition_the_primary_set() {
        let (nnode, _, _, plan) = plan(3);
        let total: usize = plan.shards.iter().map(|s| s.n_owned).sum();
        assert_eq!(total, nnode);
        for s in &plan.shards {
            assert_eq!(s.l2g.len(), s.n_owned + s.n_halo);
            // Owned prefix of l2g is ascending (global order).
            assert!(s.l2g[..s.n_owned].windows(2).all(|w| w[0] < w[1]));
            // g2l inverts l2g on every reached row.
            for (local, &g) in s.l2g.iter().enumerate() {
                assert_eq!(s.g2l[g as usize], local as u32);
            }
        }
    }

    #[test]
    fn interior_prefix_reaches_no_halo() {
        let (_, pairs, part, plan) = plan(4);
        for (r, s) in plan.shards.iter().enumerate() {
            for (i, &e) in s.exec.iter().enumerate() {
                let owned = |c: u32| part.part_of[c as usize] as usize == r;
                let interior = owned(pairs[2 * e as usize]) && owned(pairs[2 * e as usize + 1]);
                assert_eq!(interior, i < s.n_interior, "edge {e} misplaced");
            }
        }
    }

    #[test]
    fn import_ranges_are_contiguous_per_peer() {
        let (_, _, _, plan) = plan(4);
        for (r, s) in plan.shards.iter().enumerate() {
            let mut expect = s.n_owned;
            for peer in 0..plan.shards.len() {
                let range = &plan.spec.import_range[r][peer];
                assert_eq!(range.start, expect, "rank {r} peer {peer}");
                expect = range.end;
            }
            assert_eq!(expect, s.n_owned + s.n_halo);
        }
    }
}
