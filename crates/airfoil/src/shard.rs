//! Multi-locality sharding of the Airfoil problem: a partitioned mesh,
//! one `Op2` context per simulated rank, and halo exchanges that overlap
//! interior compute. [`ShardedAirfoil`](crate::ShardedAirfoil) runs it
//! under [`op2_app::run`], the same time loop a plain run uses.
//!
//! # Decomposition
//!
//! Cells are the partitioned set: [`op2_mesh::partition_greedy_bfs`] over
//! the cell-adjacency graph assigns every cell an owner rank, and
//! [`op2_mesh::build_halo`] over the `pecell` table derives, per rank, the
//! edges it executes and the remote cells it mirrors. Each rank then
//! declares a fully local [`Problem`] — the same declaration block a plain
//! run uses for its single part, fed renumbered tables:
//!
//! * **cells** — the owned cells (local ids `0..n_owned`, ascending global
//!   order), with the cell dats (`q`, `adt`, `res`) carrying halo mirror
//!   rows appended per peer rank (`decl_dat_halo`). Direct loops
//!   (`save_soln`, `adt_calc`, `update`) iterate the owned prefix only, so
//!   reductions never double-count;
//! * **edges** — every edge reaching at least one owned cell, *interior*
//!   edges (both cells owned) numbered first, *boundary* edges after.
//!   Partition-boundary edges are executed redundantly by both adjacent
//!   ranks (OP2's execute-halo), so residual increments never travel:
//!   each rank's owned cells accumulate all their contributions locally,
//!   while increments into halo rows are dead values that no loop reads;
//! * **nodes / bedges** — replicated as reached: coordinates are
//!   read-only, and a boundary edge belongs to its single cell's owner.
//!
//! # Implicit communication
//!
//! The time loop contains **no communication calls**. At declare time the
//! `q` and `adt` shards are tied into halo rings
//! ([`op2_core::locality::LocalityGroup::link_halo`]); from then on the
//! access descriptors alone drive the exchanges: `adt_calc`'s write of `adt` and
//! `update`'s write of `q` mark the exported halos stale, and submitting
//! `res_calc` — whose `read_via(pecell)` arguments reach the import rows —
//! schedules the gather/send/scatter nodes for exactly the stale pairs
//! before its own nodes are built. Nothing blocks: the send nodes chain
//! behind the dependency-table writers of the exported rows, the receive nodes
//! register as writers of the halo blocks, and `res_calc`'s interior
//! blocks — which reach no halo block — start immediately while the
//! exchange is in flight. Only the boundary blocks gate on the receives;
//! `bres_calc` reads through `pbecell`, which targets owned cells only,
//! so it triggers nothing.
//!
//! # Asynchronous reductions
//!
//! A rank's `rms` contribution is a per-rank [`Global`](op2_core::Global); the cross-rank
//! total is produced by [`LocalityGroup::allreduce`], a reduction-tree LCO
//! whose per-rank contribution nodes gate on exactly that rank's update
//! finalize and whose combined result is a future. The time loop therefore
//! contains **zero blocking reduction reads**: residual printing chains
//! off the reduce future (ordered behind the previous line's print node),
//! and the residual history is collected from the futures after the final
//! fence ([`op2_app::run`]).
//! The reduce of iteration *i* overlaps iteration *i+1*'s interior
//! compute instead of draining every rank's pipeline the way a host-side
//! `get_scalar` sum per print used to.
//!
//! The `res` shards are deliberately *not* linked: increments into `res`
//! halo mirrors are dead values (partition-boundary edges are executed
//! redundantly by both ranks), so exchanging them would be pure waste.

use std::sync::Arc;

use op2_app::{plan_shards, RebalanceReport, Worlds};
use op2_core::locality::{HaloSpec, LocalityGroup};
use op2_core::rebalance::{
    agree_rank_busy, cost_levels, migrate_rows, MigrationSpec, DEFAULT_DEAD_ZONE,
};
use op2_core::transport::{InProcessTransport, Transport};
use op2_core::{Dat, Op2Config};
use op2_mesh::{
    neighbors_from_pairs, partition_greedy_bfs, partition_greedy_bfs_weighted, Partition, QuadMesh,
};

use crate::setup::{PartTables, Problem};

/// The sharded Airfoil problem: the rank contexts, their local problems,
/// and the cell halo spec shared by `q`/`adt`/`res`.
pub struct ShardedProblem {
    /// The rank contexts hosted by this process (shared worker pool).
    pub group: LocalityGroup,
    /// Local problems of the *locally hosted* ranks: `parts[i]` belongs to
    /// global rank `group.local_ranks().start + i` (all ranks under the
    /// default in-process transport).
    pub parts: Vec<Problem>,
    /// Cell halo exchange spec in local row numbering.
    pub cell_spec: HaloSpec,
    /// Owner rank of every global cell.
    pub cell_owner: Vec<u32>,
    /// Per rank: global ids of its owned cells, ascending — local owned
    /// row `i` of rank `r` is global cell `owned_cells[r][i]`.
    pub owned_cells: Vec<Vec<u32>>,
    /// Global cell count.
    pub ncell_global: usize,
    /// The global mesh, kept so [`ShardedProblem::rebalance`] can
    /// re-derive shards for a new ownership. Its index tables are the
    /// caller's, shared rather than copied.
    pub mesh: QuadMesh,
}

impl ShardedProblem {
    /// Partitions `mesh` into `nranks` shards and declares every rank's
    /// local problem, all in this process (see module docs).
    /// Deterministic: the same mesh and rank count always produce the
    /// same shards.
    pub fn declare(config: Op2Config, mesh: &QuadMesh, nranks: usize) -> ShardedProblem {
        Self::declare_with_transport(config, mesh, Arc::new(InProcessTransport::new(nranks)))
    }

    /// [`ShardedProblem::declare`] over an explicit [`Transport`] — the
    /// distributed (SPMD) entry point: every participating process calls
    /// this with the same mesh, partitions it identically (the partition
    /// and halo derivation are deterministic), but declares sets, maps and
    /// dats only for its *locally hosted* ranks. The [`HaloSpec`] stays
    /// global so peers agree on traffic without negotiation.
    pub fn declare_with_transport(
        config: Op2Config,
        mesh: &QuadMesh,
        transport: Arc<dyn Transport>,
    ) -> ShardedProblem {
        let nranks = transport.nranks();
        assert!(
            nranks >= 1 && nranks <= mesh.ncell,
            "rank count must be in 1..=ncell"
        );
        let adj = neighbors_from_pairs(&mesh.edge_cells, mesh.ncell);
        let part = partition_greedy_bfs(&adj, nranks);
        let group = LocalityGroup::with_transport(config, transport);
        let owned_cells = part.owned_all();
        let (parts, spec) = declare_shards(&group, mesh, &part, &owned_cells);

        ShardedProblem {
            group,
            parts,
            cell_spec: spec,
            cell_owner: part.part_of,
            owned_cells,
            ncell_global: mesh.ncell,
            mesh: mesh.clone(),
        }
    }
}

/// Rows `ids` of a `dim`-wide global index table, entries renumbered
/// through `g2l`.
fn renumbered(table: &[u32], dim: usize, ids: &[u32], g2l: &[u32]) -> Vec<u32> {
    ids.iter()
        .flat_map(|&i| &table[dim * i as usize..][..dim])
        .map(|&g| g2l[g as usize])
        .collect()
}

/// Declares every locally hosted rank's shard of `mesh` for the ownership
/// `part` / `owned_all` (the latter is `part.owned_all()`, passed in so
/// callers can reuse it) and ties the `q`/`adt` shards into fresh halo
/// rings. Shared by first declaration and live repartitioning; fully
/// deterministic in its inputs.
fn declare_shards(
    group: &LocalityGroup,
    mesh: &QuadMesh,
    part: &Partition,
    owned_all: &[Vec<u32>],
) -> (Vec<Problem>, HaloSpec) {
    // The generic half — owned-first cell numbering, per-peer import
    // ranges, export rows, interior-first execute-halo split — is the
    // app-agnostic shard planner's job. The spec is global; the parts
    // below are per-process.
    let plan = plan_shards(mesh.ncell, &mesh.edge_cells, part, owned_all);

    let parts: Vec<Problem> = group
        .local_ranks()
        .map(|r| {
            let (owned, shard) = (&owned_all[r], &plan.shards[r]);
            debug_assert_eq!(shard.n_owned, owned.len());

            // Local edges: interior (both cells owned) first, boundary
            // after, each ascending in global order (the planner's split).
            let ledges = &shard.exec;

            // Local boundary edges: owned by their single cell's owner.
            let lbedges: Vec<u32> = (0..mesh.nbedge as u32)
                .filter(|&b| part.part_of[mesh.bedge_cells[b as usize] as usize] as usize == r)
                .collect();

            // Local nodes: everything the local elements reach, ascending.
            let mut lnodes: Vec<u32> = Vec::new();
            for &c in owned {
                lnodes.extend_from_slice(&mesh.cell_nodes[4 * c as usize..4 * c as usize + 4]);
            }
            for &e in ledges {
                lnodes.extend_from_slice(&mesh.edge_nodes[2 * e as usize..2 * e as usize + 2]);
            }
            for &b in &lbedges {
                lnodes.extend_from_slice(&mesh.bedge_nodes[2 * b as usize..2 * b as usize + 2]);
            }
            lnodes.sort_unstable();
            lnodes.dedup();
            let mut g2l_node = vec![u32::MAX; mesh.nnode];
            for (i, &gn) in lnodes.iter().enumerate() {
                g2l_node[gn as usize] = i as u32;
            }

            let tables = PartTables {
                cell_nodes: Arc::new(renumbered(&mesh.cell_nodes, 4, owned, &g2l_node)),
                edge_nodes: Arc::new(renumbered(&mesh.edge_nodes, 2, ledges, &g2l_node)),
                edge_cells: Arc::new(renumbered(&mesh.edge_cells, 2, ledges, &shard.g2l)),
                bedge_nodes: Arc::new(renumbered(&mesh.bedge_nodes, 2, &lbedges, &g2l_node)),
                bedge_cells: Arc::new(renumbered(&mesh.bedge_cells, 1, &lbedges, &shard.g2l)),
                bound: Arc::new(lbedges.iter().map(|&b| mesh.bound[b as usize]).collect()),
                x: Arc::new(
                    lnodes
                        .iter()
                        .flat_map(|&gn| [mesh.x[2 * gn as usize], mesh.x[2 * gn as usize + 1]])
                        .collect(),
                ),
                n_interior_edges: shard.n_interior,
                n_halo_cells: shard.n_halo,
            };
            Problem::declare_part(group.rank(r), tables)
        })
        .collect();

    // Implicit communication: tie the q and adt shards into halo
    // rings so the time loop needs no manual exchange calls (res
    // halo increments are dead values — see module docs).
    let qs: Vec<Dat<f64>> = parts.iter().map(|p| p.p_q.clone()).collect();
    let adts: Vec<Dat<f64>> = parts.iter().map(|p| p.p_adt.clone()).collect();
    group.link_halo(&qs, &plan.spec);
    group.link_halo(&adts, &plan.spec);

    (parts, plan.spec)
}

impl ShardedProblem {
    /// Assembles the global solution vector from the ranks' owned rows
    /// (waits for pending writers). All-local groups only: a distributed
    /// process holds just its own shard of the solution.
    pub fn gather_q(&self) -> Vec<f64> {
        let first = self.group.local_ranks().start;
        let shards = self
            .parts
            .iter()
            .enumerate()
            .map(|(i, p)| (&p.p_q, Some(&self.owned_cells[first + i][..])));
        Worlds::Group(&self.group).gather(self.ncell_global, 4, shards)
    }

    /// Checks the measured per-rank busy times for imbalance and, when
    /// the skew is outside the dead zone, live-repartitions: re-runs the
    /// greedy-BFS partitioner with cost-weighted quotas, declares fresh
    /// shards, migrates the flow state (`q`) into them as dataflow nodes
    /// — **without stopping the pipeline** — and retires the old shards'
    /// cached schedules and cost estimates. `None` means the workload is
    /// balanced (or unmeasured) and *nothing* changed: a run that never
    /// triggers stays bitwise identical to one that never checks.
    ///
    /// SPMD-safe: the decision is taken from [`agree_rank_busy`]'s agreed
    /// vector, so every process repartitions identically or not at all.
    /// Measured busy times reset after every check, triggered or not, so
    /// each decision sees only the load profile since the last one. The
    /// check first fences the group: under Dataflow, iterations still in
    /// flight would keep adding to a counter the reset has just zeroed.
    pub fn rebalance(&mut self) -> Option<RebalanceReport> {
        self.group.fence();
        let busy = agree_rank_busy(&self.group);
        self.rebalance_with_busy(&busy)
    }

    /// [`ShardedProblem::rebalance`] with the agreed per-rank busy times
    /// supplied by the caller — the deterministic entry point tests and
    /// drivers use to force (or provably not force) a migration.
    pub fn rebalance_with_busy(&mut self, busy: &[u64]) -> Option<RebalanceReport> {
        let nranks = self.group.nranks();
        assert_eq!(busy.len(), nranks, "one busy time per rank");
        let owned_sizes: Vec<usize> = self.owned_cells.iter().map(Vec::len).collect();
        let decision = cost_levels(busy, &owned_sizes, DEFAULT_DEAD_ZONE);
        // Fresh window either way: the next check must judge the load
        // profile that develops from *this* decision.
        self.reset_busy();
        let levels = decision?;

        // Each cell inherits its owner rank's measured per-element cost
        // level; the weighted partitioner then equalizes predicted work,
        // not cell counts.
        let mut weights = vec![1u64; self.ncell_global];
        for (r, owned) in self.owned_cells.iter().enumerate() {
            for &c in owned {
                weights[c as usize] = levels[r];
            }
        }
        let adj = neighbors_from_pairs(&self.mesh.edge_cells, self.mesh.ncell);
        let part = partition_greedy_bfs_weighted(&adj, nranks, &weights);
        let new_owned = part.owned_all();
        if new_owned == self.owned_cells {
            return None;
        }

        let (new_parts, new_spec) = declare_shards(&self.group, &self.mesh, &part, &new_owned);

        // Retire the old shards' cached schedules, plans and measured
        // costs BEFORE any loop runs over the new sets: set signatures are
        // shape-based, so a rank re-declaring "cells" at an unchanged
        // size would otherwise hit the old shard's stale entries.
        let local = self.group.local_ranks();
        let mut specs_dropped = 0;
        for (i, p) in self.parts.iter().enumerate() {
            let op2 = self.group.rank(local.start + i);
            for sig in [
                p.cells.signature(),
                p.edges.signature(),
                p.bedges.signature(),
            ] {
                specs_dropped += op2.retire_set_signature(sig);
            }
        }

        // Only `q` carries state across iteration boundaries (`qold`,
        // `adt`, `res` are recomputed from it every iteration, and halo
        // mirrors refresh on first read) — migrate its owned rows as
        // ordinary dependency-table nodes and let the dependency chains gate
        // the new shards' first loops on the landings.
        let mspec = MigrationSpec::diff(&self.owned_cells, &new_owned);
        let old_q: Vec<Dat<f64>> = self.parts.iter().map(|p| p.p_q.clone()).collect();
        let new_q: Vec<Dat<f64>> = new_parts.iter().map(|p| p.p_q.clone()).collect();
        migrate_rows(&self.group, &old_q, &new_q, &mspec);

        let report = RebalanceReport {
            busy_ns: busy.to_vec(),
            levels,
            rows_crossing: mspec.rows_crossing(),
            specs_dropped,
        };
        self.parts = new_parts;
        self.cell_spec = new_spec;
        self.cell_owner = part.part_of;
        self.owned_cells = new_owned;
        Some(report)
    }

    fn reset_busy(&self) {
        for world in self.group.ranks() {
            world.granularity_feedback().reset_busy();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PlainAirfoil, ShardedAirfoil};
    use op2_app::RunConfig;
    use op2_mesh::channel_with_bump;

    fn shard(nranks: usize) -> (QuadMesh, ShardedProblem) {
        let mesh = channel_with_bump(16, 8);
        let shp = ShardedProblem::declare(Op2Config::seq(), &mesh, nranks);
        (mesh, shp)
    }

    #[test]
    fn shards_cover_the_mesh_exactly() {
        let (mesh, shp) = shard(3);
        // Owned cells partition the global cells.
        let mut owner_seen = vec![0usize; mesh.ncell];
        for owned in &shp.owned_cells {
            for &c in owned {
                owner_seen[c as usize] += 1;
            }
        }
        assert!(owner_seen.iter().all(|&n| n == 1));
        // Every global boundary edge executes on exactly one rank; every
        // interior edge on the owner(s) of its cells.
        let total_bedges: usize = shp.parts.iter().map(|p| p.bedges.size()).sum();
        assert_eq!(total_bedges, mesh.nbedge);
        let total_edges: usize = shp.parts.iter().map(|p| p.edges.size()).sum();
        assert!(total_edges >= mesh.nedge, "exec halo duplicates edges");
    }

    #[test]
    fn interior_prefix_reaches_no_halo() {
        let (_, shp) = shard(4);
        for p in &shp.parts {
            let n_owned = p.cells.size();
            for e in 0..p.edges.size() {
                let reaches_halo = p.pecell.at(e, 0) >= n_owned || p.pecell.at(e, 1) >= n_owned;
                assert_eq!(
                    reaches_halo,
                    e >= p.n_interior_edges,
                    "edge {e} misplaced relative to the interior prefix"
                );
            }
            // Boundary-edge cells are always owned.
            for b in 0..p.bedges.size() {
                assert!(p.pbecell.at(b, 0) < n_owned);
            }
        }
    }

    #[test]
    fn sharded_seq_single_rank_is_bitwise_the_plain_run() {
        let mesh = channel_with_bump(12, 6);
        // Plain single-context run.
        let op2 = op2_core::Op2::new(Op2Config::seq());
        let p = crate::Problem::declare(&op2, &mesh);
        let plain = op2_app::run(
            &mut PlainAirfoil::new(&op2, &p),
            RunConfig::iterations(4, 2),
        );
        let q_plain = p.p_q.snapshot();
        // Sharded run with one rank: identical renumbering, identical
        // execution order under Seq — results must match bit for bit.
        let mut shp = ShardedProblem::declare(Op2Config::seq(), &mesh, 1);
        let sharded = op2_app::run(
            &mut ShardedAirfoil::new(&mut shp, 0.0),
            RunConfig::iterations(4, 2),
        );
        assert_eq!(sharded.residuals, plain.residuals);
        assert_eq!(shp.gather_q(), q_plain);
    }

    #[test]
    fn sharded_dataflow_smoke() {
        let mesh = channel_with_bump(12, 6);
        let mut shp = ShardedProblem::declare(Op2Config::dataflow(2), &mesh, 3);
        let r = op2_app::run(
            &mut ShardedAirfoil::new(&mut shp, 0.0),
            RunConfig::iterations(3, 2),
        );
        assert!(r.residuals.iter().all(|v| v.is_finite()));
    }
}
