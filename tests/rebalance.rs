//! Feedback-driven dynamic load balancing, end to end: the row-migration
//! substrate preserves values bitwise under random repartitions, a forced
//! mid-solve repartition of the Airfoil run preserves the physics, a
//! balanced run provably never migrates (and stays bitwise identical to
//! the never-checked path), migration retires exactly the affected
//! loop-schedule cache entries, and the whole protocol survives real
//! socket transports.

use std::sync::Arc;

use op2_hpx::airfoil::verify::{max_rel_diff, max_scaled_diff};
use op2_hpx::airfoil::{ShardedAirfoil, ShardedProblem};
use op2_hpx::app::{run, RunConfig, RunOutcome};
use op2_hpx::mesh::channel_with_bump;
use op2_hpx::op2::args::rw;
use op2_hpx::op2::locality::LocalityGroup;
use op2_hpx::op2::rebalance::{agree_rank_busy, migrate_rows, MigrationSpec};
use op2_hpx::op2::transport::{ProcessTransport, Transport};
use op2_hpx::op2::{Dat, Op2Config};

/// Tiny deterministic PRNG (xorshift64*) so the randomized property runs
/// the same cases everywhere without a proptest dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Random ownership of `n` elements over `nranks` ranks; every rank gets
/// at least one element (round-robin base, random rest).
fn random_ownership(rng: &mut Rng, n: usize, nranks: usize) -> Vec<Vec<u32>> {
    let mut owned: Vec<Vec<u32>> = vec![Vec::new(); nranks];
    for e in 0..n {
        let r = if e < nranks { e } else { rng.below(nranks) };
        owned[r].push(e as u32);
    }
    owned
}

/// The property at the heart of live repartitioning: for random element
/// counts, dims, rank counts and random old→new ownership, a
/// migration scheduled *between* loop submissions — no fence anywhere —
/// yields bitwise the values of a scalar model. Epoch tables must gate
/// the gathers behind the old shards' in-flight writers and the new
/// shards' first loops behind the landings; any ordering hole shows up as
/// a wrong value.
#[test]
fn migration_substrate_preserves_values_bitwise_randomized() {
    let mut rng = Rng(0x9E3779B97F4A7C15);
    for case in 0..12 {
        let n = 16 + rng.below(120);
        let dim = [1, 3, 4][rng.below(3)];
        let nranks = 2 + rng.below(3);
        let config = if case % 2 == 0 {
            Op2Config::seq()
        } else {
            Op2Config::dataflow(2).with_block_size(8)
        };
        let k1 = 1 + rng.below(3);
        let k2 = 1 + rng.below(3);

        let old_owned = random_ownership(&mut rng, n, nranks);
        let new_owned = random_ownership(&mut rng, n, nranks);

        let group = LocalityGroup::new(config, nranks);
        let declare = |owned: &[Vec<u32>], init: bool| -> Vec<Dat<f64>> {
            (0..nranks)
                .map(|r| {
                    let op2 = group.rank(r);
                    let set = op2.decl_set(owned[r].len(), "elems");
                    let vals: Vec<f64> = owned[r]
                        .iter()
                        .flat_map(|&g| {
                            (0..dim).map(move |c| {
                                if init {
                                    (g as usize * dim + c) as f64
                                } else {
                                    f64::NAN
                                }
                            })
                        })
                        .collect();
                    op2.decl_dat(&set, dim, "x", vals)
                })
                .collect()
        };
        let old = declare(&old_owned, true);
        let new = declare(&new_owned, false);

        let step = |dats: &[Dat<f64>], mul: f64, add: f64| {
            for (r, d) in dats.iter().enumerate() {
                group
                    .rank(r)
                    .loop_("step", d.set())
                    .arg(rw(d))
                    .run(move |x: &mut [f64]| {
                        for v in x {
                            *v = *v * mul + add;
                        }
                    });
            }
        };
        for _ in 0..k1 {
            step(&old, 0.5, 1.0);
        }
        // Migrate with loops still in flight — no fence, no barrier.
        let spec = MigrationSpec::diff(&old_owned, &new_owned);
        migrate_rows(&group, &old, &new, &spec);
        for _ in 0..k2 {
            step(&new, 0.25, 2.0);
        }
        group.fence();

        for (r, d) in new.iter().enumerate() {
            let got = d.snapshot();
            for (i, &g) in new_owned[r].iter().enumerate() {
                for c in 0..dim {
                    let mut want = (g as usize * dim + c) as f64;
                    for _ in 0..k1 {
                        want = want * 0.5 + 1.0;
                    }
                    for _ in 0..k2 {
                        want = want * 0.25 + 2.0;
                    }
                    let have = got[i * dim + c];
                    assert!(
                        have == want,
                        "case {case}: element {g} component {c} on rank {r}: \
                         got {have}, want {want} (bitwise)"
                    );
                }
            }
        }
    }
}

/// `niter` unskewed iterations of the sharded solve, window 2.
fn solve(shp: &mut ShardedProblem, niter: usize) -> RunOutcome {
    run(
        &mut ShardedAirfoil::new(shp, 0.0),
        RunConfig::iterations(niter, 2),
    )
}

/// A forced mid-solve repartition (skewed busy times injected) preserves
/// the Airfoil physics within the sharding tolerances, and actually
/// migrates.
#[test]
fn forced_mid_solve_repartition_preserves_airfoil_physics() {
    let mesh = channel_with_bump(16, 8);
    let niter = 8;

    let mut reference = ShardedProblem::declare(Op2Config::seq(), &mesh, 3);
    let r_ref = solve(&mut reference, niter);
    let q_ref = reference.gather_q();

    let mut shp = ShardedProblem::declare(Op2Config::seq(), &mesh, 3);
    let r1 = solve(&mut shp, niter / 2);
    // Rank 0 claims to be 4x as expensive per element: well outside the
    // dead zone, so this must repartition.
    let before = shp.owned_cells.clone();
    let rep = shp
        .rebalance_with_busy(&[4_000_000, 1_000_000, 1_000_000])
        .expect("a 4x skew must trigger migration");
    assert!(rep.rows_crossing > 0, "some cells must change rank");
    assert!(rep.levels[0] > rep.levels[1], "rank 0 measured costlier");
    assert_ne!(before, shp.owned_cells, "ownership must actually change");
    assert!(
        shp.owned_cells[0].len() < before[0].len(),
        "the costly rank must shed cells ({} -> {})",
        before[0].len(),
        shp.owned_cells[0].len()
    );
    let r2 = solve(&mut shp, niter - niter / 2);

    let rms: Vec<f64> = r1.residuals.iter().chain(&r2.residuals).copied().collect();
    let d_rms = max_rel_diff(&r_ref.residuals, &rms);
    let d_q = max_scaled_diff(&q_ref, &shp.gather_q(), 1.0);
    assert!(d_rms < 1e-7, "rebalanced rms deviates by {d_rms:e}");
    assert!(d_q < 1e-9, "rebalanced q deviates by {d_q:e}");
}

/// Balanced busy times (inside the dead zone) must migrate nothing, and
/// the interrupted run must stay **bitwise** identical to one that never
/// checked — the structural guarantee that never-skewed runs cannot be
/// perturbed by enabling the rebalance machinery.
#[test]
fn balanced_load_never_migrates_and_stays_bitwise() {
    let mesh = channel_with_bump(14, 7);
    let niter = 6;

    let mut reference = ShardedProblem::declare(Op2Config::seq(), &mesh, 3);
    let r_ref = solve(&mut reference, niter);

    let mut shp = ShardedProblem::declare(Op2Config::seq(), &mesh, 3);
    let r1 = solve(&mut shp, niter / 2);
    // Within the 1.5x dead zone (owned counts are near-equal): no-op.
    assert!(
        shp.rebalance_with_busy(&[1_000_000, 1_200_000, 1_100_000])
            .is_none(),
        "near-balanced busy times must not migrate"
    );
    let r2 = solve(&mut shp, niter - niter / 2);

    let rms: Vec<f64> = r1.residuals.iter().chain(&r2.residuals).copied().collect();
    assert_eq!(r_ref.residuals, rms, "bitwise-equal residual history");
    assert_eq!(reference.gather_q(), shp.gather_q(), "bitwise-equal state");
}

/// One rank can never be imbalanced against itself.
#[test]
fn single_rank_rebalance_is_refused() {
    let mesh = channel_with_bump(10, 5);
    let mut shp = ShardedProblem::declare(Op2Config::seq(), &mesh, 1);
    solve(&mut shp, 2);
    assert!(shp.rebalance_with_busy(&[u64::MAX / 2]).is_none());
    assert!(shp.rebalance().is_none());
}

/// A rebalance check judges only finished work. Under Dataflow, loops of
/// earlier iterations may still be running when the check is reached; if
/// the busy times were agreed (and reset) while they ran, their time would
/// land in the next window instead of this one. Here a rank-0 loop is held
/// on a gate that a helper thread opens ~200 ms later: `rebalance()` may
/// not return before that loop has finished.
#[test]
fn rebalance_judges_only_finished_iterations() {
    use op2_hpx::hpx::channel;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    let mesh = channel_with_bump(12, 6);
    let mut shp = ShardedProblem::declare(Op2Config::dataflow(2), &mesh, 2);
    let (open, gate) = channel::<()>();
    let finished = Arc::new(AtomicBool::new(false));

    let rank0 = shp.group.rank(0);
    let held = rank0.decl_set(1, "held");
    let x = rank0.decl_dat(&held, 1, "held_dat", vec![0.0f64]);
    let done = Arc::clone(&finished);
    rank0
        .loop_("held", &held)
        .arg(rw(&x))
        .run(move |x: &mut [f64]| {
            gate.wait();
            x[0] += 1.0;
            done.store(true, Ordering::Release);
        });
    let opener = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        open.set_value(());
    });

    shp.rebalance();
    assert!(
        finished.load(Ordering::Acquire),
        "rebalance() returned while a loop it should judge was still running"
    );
    opener.join().expect("gate opener");
}

/// Migration retires exactly the affected loop-schedule cache entries:
/// every schedule keyed on the migrated sets' signatures is dropped, while
/// schedules for unrelated sets survive.
#[test]
fn migration_retires_exactly_the_affected_spec_entries() {
    let mesh = channel_with_bump(16, 8);
    let mut shp = ShardedProblem::declare(Op2Config::dataflow(2), &mesh, 2);
    solve(&mut shp, 4);

    // An unrelated set on rank 0's world: its schedule must survive.
    let aux_op2 = shp.group.rank(0);
    let aux_set = aux_op2.decl_set(777, "aux");
    let aux = aux_op2.decl_dat(&aux_set, 1, "aux_dat", vec![0.0f64; 777]);
    aux_op2
        .loop_("aux_kernel", &aux_set)
        .arg(rw(&aux))
        .run(|x: &mut [f64]| x[0] += 1.0)
        .wait();

    let built = |shp: &ShardedProblem| -> Vec<usize> {
        (0..2)
            .map(|r| shp.group.rank(r).spec_cache_stats().0)
            .collect()
    };
    let built_before = built(&shp);
    assert!(
        built_before.iter().all(|&b| b > 0),
        "the dataflow run must have populated every rank's spec cache"
    );

    let rep = shp
        .rebalance_with_busy(&[5_000_000, 1_000_000])
        .expect("5x skew must migrate");
    assert!(rep.specs_dropped > 0, "stale schedules must be retired");

    // Everything cached for a world belonged to the migrated sets, except
    // rank 0's aux loop — exactly that one survives.
    let built_after = built(&shp);
    assert_eq!(
        built_after,
        vec![1, 0],
        "only non-migrated schedules may survive"
    );
    let dropped: usize = (0..2).map(|i| built_before[i] - built_after[i]).sum();
    assert_eq!(dropped, rep.specs_dropped, "report matches the caches");

    // The run continues correctly on the new shards (fresh schedules).
    let r = solve(&mut shp, 2);
    assert!(r.residuals.iter().all(|v| v.is_finite()));
}

/// Busy time, the imbalance signal the rebalancer reads, accumulates on
/// rank worlds under every backend and chunk policy: whole-loop timing on
/// Seq and fork-join, node timing on Dataflow whether or not the policy
/// adapts. A loop run on rank 1 alone reads as exactly its fake-clock
/// time on rank 1 and nothing on rank 0; a plain world measures nothing.
#[test]
fn rank_worlds_measure_busy_time_under_every_backend() {
    use op2_hpx::hpx::timing::Clock;
    use op2_hpx::op2::ChunkPolicy;
    use op2_hpx::op2::Op2;
    use std::time::Duration;

    const N: usize = 200;
    const NS_PER_ELEM: u64 = 1_000;
    let busy_loop = |world: &Op2, clock: &Clock| {
        let cells = world.decl_set(N, "cells");
        let x = world.decl_dat(&cells, 1, "x", vec![0.0f64; N]);
        let c = clock.clone();
        world
            .loop_("busy", &cells)
            .arg(rw(&x))
            .run(move |_: &mut [f64]| c.advance(Duration::from_nanos(NS_PER_ELEM)))
            .wait();
        world.fence();
    };
    for (name, config) in [
        ("seq", Op2Config::seq()),
        ("fork_join(1)", Op2Config::fork_join(1)),
        (
            "dataflow(1) static64",
            Op2Config::dataflow(1).with_chunk(ChunkPolicy::Static { size: 64 }),
        ),
        ("dataflow(1) auto", Op2Config::dataflow(1)),
    ] {
        let clock = Clock::fake();
        let group = LocalityGroup::new(config.with_clock(clock.clone()), 2);
        busy_loop(group.rank(1), &clock);
        assert_eq!(
            agree_rank_busy(&group),
            vec![0, N as u64 * NS_PER_ELEM],
            "{name}: rank 1's fake-clock time, nothing on rank 0"
        );
        assert!(
            group.rank(0).granularity_feedback().snapshot().is_empty(),
            "{name}: rank 0 measured nothing"
        );
    }

    let clock = Clock::fake();
    let plain = Op2::new(Op2Config::seq().with_clock(clock.clone()));
    busy_loop(&plain, &clock);
    assert_eq!(plain.granularity_feedback().busy_ns(), 0);
    assert!(plain.granularity_feedback().snapshot().is_empty());
}

/// The full protocol over real socket transports, SPMD-style: per-rank
/// busy agreement returns the identical vector in every process, a forced
/// repartition moves rows as `Migrate` messages over the wire, and the
/// continued solve matches the in-process run.
#[test]
fn rebalance_over_sockets_matches_in_process() {
    const NRANKS: usize = 3;
    const BUSY: [u64; NRANKS] = [4_000_000, 1_000_000, 1_000_000];
    let niter = 6;

    let reference = {
        let mesh = channel_with_bump(12, 6);
        let mut shp = ShardedProblem::declare(Op2Config::dataflow(2), &mesh, NRANKS);
        let r1 = solve(&mut shp, niter / 2);
        shp.rebalance_with_busy(&BUSY).expect("4x skew migrates");
        let r2 = solve(&mut shp, niter - niter / 2);
        let mut rms = r1.residuals;
        rms.extend(r2.residuals);
        rms
    };

    let dir = std::env::temp_dir().join(format!("op2-rebalance-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("rendezvous dir");
    let history = std::thread::scope(|s| {
        let handles: Vec<_> = (0..NRANKS)
            .map(|r| {
                let dir = dir.clone();
                s.spawn(move || {
                    let t: Arc<dyn Transport> = Arc::new(
                        ProcessTransport::connect_unix(&dir, r, NRANKS).expect("socket rendezvous"),
                    );
                    let mesh = channel_with_bump(12, 6);
                    let mut shp =
                        ShardedProblem::declare_with_transport(Op2Config::dataflow(2), &mesh, t);

                    // Deterministic per-rank busy, then cross-process
                    // agreement must reassemble the exact global vector.
                    let fb = shp.group.ranks()[0].granularity_feedback();
                    fb.record(&Arc::from("probe"), 1, 10, (r as u64 + 1) * 1_000);
                    let agreed = agree_rank_busy(&shp.group);
                    assert_eq!(
                        agreed,
                        vec![1_000, 2_000, 3_000],
                        "rank {r}: agreement must be global and exact"
                    );
                    fb.reset_busy();

                    let r1 = solve(&mut shp, niter / 2);
                    shp.rebalance_with_busy(&BUSY)
                        .expect("same decision everywhere");
                    let r2 = solve(&mut shp, niter - niter / 2);
                    shp.group.barrier();
                    let mut rms = r1.residuals;
                    rms.extend(r2.residuals);
                    rms
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .next()
            .expect("at least one rank")
    });
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(history.len(), reference.len());
    let d = max_rel_diff(&reference, &history);
    assert!(d < 1e-12, "socket run deviates from in-process by {d:e}");
}
