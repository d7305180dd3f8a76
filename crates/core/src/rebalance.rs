//! Feedback-driven live repartitioning: the locality-layer half of the
//! dynamic load-balancing protocol.
//!
//! The pipeline (driven by a solver layer, e.g. the sharded Airfoil):
//!
//! 1. **Measure** — every rank world of a [`LocalityGroup`] times each
//!    loop it runs, whatever the backend and chunk policy, into the busy
//!    time of its [`crate::GranularityFeedback`]. [`agree_rank_busy`]
//!    collects the per-rank busy nanoseconds across the whole job (an
//!    allreduce over the group's transport, so every SPMD process agrees
//!    on the same vector and makes the same decision).
//! 2. **Decide** — [`cost_levels`] turns busy times into quantized
//!    per-element cost weights. The quantization is the protocol's
//!    hysteresis *and* its bitwise-safety keystone: a balanced workload
//!    (all ratios inside the dead zone) yields `None`, the solver skips
//!    migration entirely, and a never-skewed run stays bit-identical to
//!    the non-rebalancing path.
//! 3. **Repartition** — the solver re-runs the greedy-BFS partitioner
//!    with cost-weighted quotas
//!    (`op2_mesh::partition_greedy_bfs_weighted`) and declares fresh
//!    shards for the new ownership.
//! 4. **Migrate** — [`MigrationSpec::diff`] turns old/new ownership into
//!    per-rank-pair row moves and [`migrate_rows`] schedules them as
//!    ordinary dependency nodes (single-node access records over their
//!    row lists, see `dat.rs`): gathers *read* the old shards,
//!    landings *write* the new ones, and every move travels as a
//!    [`crate::transport::MsgKind::Migrate`] message over the group's
//!    transport. The dataflow never stops — in-flight loops on the old
//!    shards simply precede the gathers, and the first loops on the new
//!    shards gate on the landings.
//! 5. **Invalidate** — the solver retires the old set signatures
//!    ([`crate::Op2::retire_set_signature`]) so a stale cached schedule or
//!    cost estimate for the pre-migration shape can never be hit again.
//!
//! Halo mirrors are *not* migrated: a freshly linked halo ring starts with
//! every import stale, so the first post-migration reader refreshes its
//! mirrors from the (already migrated) owned rows.

use hpx_rt::{when_all_shared, SharedFuture};

use crate::dat::Dat;
use crate::gbl::Global;
use crate::locality::{move_rows, Landing, LocalityGroup, RowMove};
use crate::types::OpType;

/// Default imbalance dead zone of [`cost_levels`]: per-element cost ratios
/// under 1.5x are treated as noise, not as a reason to migrate.
pub const DEFAULT_DEAD_ZONE: f64 = 1.5;

/// Collects every rank's measured busy nanoseconds (see
/// [`crate::GranularityFeedback::busy_ns`]) across the whole job.
///
/// A Sum [`LocalityGroup::allreduce`] of an `nranks`-wide `f64` global in
/// which each hosted rank fills only its own slot, so every slot sums one
/// value and zeros: exact below 2^53 ns (104 days). Every process must
/// call this at the same program point (SPMD), and every process returns
/// the identical vector, which is what lets them all take the same
/// rebalance decision without negotiation. Only the submitting thread
/// blocks; runtime workers keep draining the dataflow.
pub fn agree_rank_busy(group: &LocalityGroup) -> Vec<u64> {
    let n = group.nranks();
    // `f64` for the reason `LocalityGroup::barrier` gives.
    let slots: Vec<Global<f64>> = group
        .local_ranks()
        .zip(group.ranks())
        .map(|(r, world)| {
            let mut busy = vec![0.0; n];
            busy[r] = world.granularity_feedback().busy_ns() as f64;
            let g = Global::sum(n, "rank_busy");
            g.set(&busy);
            g
        })
        .collect();
    let agreed = group.allreduce(&slots).get();
    agreed.into_iter().map(|ns| ns as u64).collect()
}

/// Quantizes measured per-rank busy times into integer per-element cost
/// levels (`busy[r] / owned[r]`, normalized by the cheapest rank and
/// rounded), the weights a cost-aware repartition feeds to
/// `partition_greedy_bfs_weighted`.
///
/// Returns `None` — *do not migrate* — when any rank lacks a measurement
/// or owns nothing, when the worst/best cost ratio is inside `dead_zone`,
/// or when every level rounds to the same value. The integer rounding is
/// deliberate hysteresis: measurement jitter cannot produce a new
/// partition every iteration, and a balanced run provably never migrates
/// (the bitwise-equality guarantee of the non-rebalancing path).
pub fn cost_levels(busy: &[u64], owned: &[usize], dead_zone: f64) -> Option<Vec<u64>> {
    assert_eq!(busy.len(), owned.len(), "one busy time per rank");
    if busy.is_empty() || busy.iter().zip(owned).any(|(&b, &o)| b == 0 || o == 0) {
        return None;
    }
    let cost: Vec<f64> = busy
        .iter()
        .zip(owned)
        .map(|(&b, &o)| b as f64 / o as f64)
        .collect();
    let min = cost.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = cost.iter().cloned().fold(0.0f64, f64::max);
    if max / min < dead_zone.max(1.0) {
        return None;
    }
    let levels: Vec<u64> = cost
        .iter()
        .map(|c| (c / min).round().max(1.0) as u64)
        .collect();
    if levels.windows(2).all(|w| w[0] == w[1]) {
        return None;
    }
    Some(levels)
}

/// The row moves realizing one ownership change: for every `(src, dst)`
/// rank pair, which local rows of `src`'s *old* shard land in which local
/// rows of `dst`'s *new* shard. Every resident row of the new shards is
/// covered — renumbering moves rows even on ranks that keep them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationSpec {
    /// Number of ranks.
    pub nranks: usize,
    /// `moves[src][dst] = (rows in src's old shard, rows in dst's new
    /// shard)` — parallel lists, same order.
    pub moves: Vec<Vec<(Vec<u32>, Vec<u32>)>>,
}

impl MigrationSpec {
    /// Diffs old and new ownership (each rank's owned element ids,
    /// ascending — `Partition::owned_all` order, which is also the local
    /// row numbering of the shard builders).
    pub fn diff(old_owned: &[Vec<u32>], new_owned: &[Vec<u32>]) -> MigrationSpec {
        let n = old_owned.len();
        assert_eq!(new_owned.len(), n, "rank count changed across ownership");
        let total: usize = old_owned.iter().map(Vec::len).sum();
        assert_eq!(
            new_owned.iter().map(Vec::len).sum::<usize>(),
            total,
            "ownership must cover the same elements"
        );
        let mut old_loc = vec![(u32::MAX, 0u32); total];
        for (r, rows) in old_owned.iter().enumerate() {
            for (i, &g) in rows.iter().enumerate() {
                old_loc[g as usize] = (r as u32, i as u32);
            }
        }
        let mut moves = vec![vec![(Vec::new(), Vec::new()); n]; n];
        for (dst, rows) in new_owned.iter().enumerate() {
            for (i, &g) in rows.iter().enumerate() {
                let (src, srow) = old_loc[g as usize];
                assert_ne!(src, u32::MAX, "element {g} unowned in the old partition");
                let pair = &mut moves[src as usize][dst];
                pair.0.push(srow);
                pair.1.push(i as u32);
            }
        }
        MigrationSpec { nranks: n, moves }
    }

    /// Rows changing owner rank (diagnostics; same-rank renumbering moves
    /// are excluded).
    pub fn rows_crossing(&self) -> usize {
        (0..self.nranks)
            .flat_map(|s| (0..self.nranks).map(move |d| (s, d)))
            .filter(|&(s, d)| s != d)
            .map(|(s, d)| self.moves[s][d].0.len())
            .sum()
    }
}

/// Schedules the row moves of `spec` from the old shards into the new
/// ones as ordinary dependency nodes — the dataflow keeps flowing (see
/// module docs). `old[i]` / `new[i]` are local rank
/// `group.local_ranks().start + i`'s shards of one logical dat.
///
/// Every move with an end hosted here goes to the locality layer's one row
/// mover and travels as a [`crate::transport::MsgKind::Migrate`] message
/// over the group's transport, whatever the process layout (send halves
/// before receive halves, as in halo exchange). Returns one completion
/// future per local rank — its gathers and landings — already tracked for
/// the rank fences.
pub fn migrate_rows<T: OpType>(
    group: &LocalityGroup,
    old: &[Dat<T>],
    new: &[Dat<T>],
    spec: &MigrationSpec,
) -> Vec<SharedFuture<()>> {
    let n = spec.nranks;
    assert_eq!(group.nranks(), n, "spec rank count matches the group");
    let local = group.local_ranks();
    assert_eq!(old.len(), local.len(), "one old shard per local rank");
    assert_eq!(new.len(), local.len(), "one new shard per local rank");
    let moves: Vec<RowMove<'_>> = (0..n)
        .flat_map(|src| (0..n).map(move |dst| (src, dst)))
        .filter(|&(src, dst)| {
            !spec.moves[src][dst].0.is_empty() && (local.contains(&src) || local.contains(&dst))
        })
        .map(|(src, dst)| {
            let (rows, landed) = &spec.moves[src][dst];
            (src, dst, &rows[..], Landing::Rows(landed[..].into()))
        })
        .collect();
    let at = |dats: &[Dat<T>], r: usize| dats[r - local.start].clone();
    let halves = move_rows(group.comm(), |r| at(old, r), |r| at(new, r), &moves);
    let mut done: Vec<Vec<SharedFuture<()>>> = vec![Vec::new(); local.len()];
    for (&(src, dst, ..), (send, recv)) in moves.iter().zip(halves) {
        if let Some(f) = send {
            done[src - local.start].push(f);
        }
        if let Some(f) = recv {
            done[dst - local.start].push(f);
        }
    }
    done.iter().map(|futs| when_all_shared(futs)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_levels_dead_zone_and_quantization() {
        // Balanced (inside the dead zone): no migration.
        assert_eq!(cost_levels(&[100, 110], &[10, 10], 1.5), None);
        // Unmeasured or empty rank: no decision.
        assert_eq!(cost_levels(&[100, 0], &[10, 10], 1.5), None);
        assert_eq!(cost_levels(&[100, 100], &[10, 0], 1.5), None);
        // 3x skew quantizes to levels [3, 1].
        assert_eq!(cost_levels(&[300, 100], &[10, 10], 1.5), Some(vec![3, 1]));
        // Equal counts, equal busy — even with a tiny dead zone the equal
        // levels suppress migration.
        assert_eq!(cost_levels(&[100, 100], &[10, 10], 1.0), None);
    }

    #[test]
    fn migration_spec_diff_covers_every_row() {
        // 6 elements; rank 0 gives element 2 to rank 1.
        let old = vec![vec![0, 1, 2], vec![3, 4, 5]];
        let new = vec![vec![0, 1], vec![2, 3, 4, 5]];
        let spec = MigrationSpec::diff(&old, &new);
        assert_eq!(spec.nranks, 2);
        // Rank 0 keeps rows 0,1 at the same local rows.
        assert_eq!(spec.moves[0][0], (vec![0, 1], vec![0, 1]));
        // Element 2 was rank 0's local row 2 and becomes rank 1's local
        // row 0; rank 1's kept elements shift down by one local row.
        assert_eq!(spec.moves[0][1], (vec![2], vec![0]));
        assert_eq!(spec.moves[1][1], (vec![0, 1, 2], vec![1, 2, 3]));
        assert!(spec.moves[1][0].0.is_empty());
        assert_eq!(spec.rows_crossing(), 1);
        let landed: usize = (0..2)
            .flat_map(|s| (0..2).map(move |d| (s, d)))
            .map(|(s, d)| spec.moves[s][d].1.len())
            .sum();
        assert_eq!(landed, 6, "every new-shard row is written exactly once");
    }
}
