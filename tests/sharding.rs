//! The multi-locality layer through the public API: communication/compute
//! overlap (an interior block provably executes before the same loop's
//! halo receives complete), halo-exchange correctness under dependency
//! pressure, and sharded-vs-plain equivalence of the full Airfoil run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use op2_hpx::airfoil::shard::{run_sharded, ShardedProblem};
use op2_hpx::airfoil::verify::{max_rel_diff, max_scaled_diff};
use op2_hpx::airfoil::{solver, Problem, SolverConfig};
use op2_hpx::hpx::lco::Event;
use op2_hpx::mesh::channel_with_bump;
use op2_hpx::op2::args::{read_via, write};
use op2_hpx::op2::locality::{exchange, HaloSpec, LocalityGroup};
use op2_hpx::op2::Op2Config;

/// The tentpole overlap property, deterministically: a consumer loop's
/// *interior* blocks execute while the same loop's halo receive is
/// provably still pending (the exporter's writer is held hostage on an
/// event the test controls), and its *boundary* blocks still see the
/// exchanged values afterwards.
#[test]
fn interior_blocks_execute_before_halo_receives_complete() {
    let group = LocalityGroup::new(Op2Config::dataflow(2).with_block_size(64), 2);
    let r0 = group.rank(0);
    let r1 = group.rank(1);

    // Rank 0: 256 owned cells + 64 halo rows mirrored from rank 1.
    let cells0 = r0.decl_set(256, "cells");
    let mut q0_init: Vec<f64> = (0..256).map(|i| i as f64).collect();
    q0_init.extend(std::iter::repeat_n(-1.0, 64));
    let q0 = r0.decl_dat_halo(&cells0, 1, "q", q0_init, 64);

    // Rank 1: the exporter, its writer loop held hostage on `gate`.
    let cells1 = r1.decl_set(64, "cells");
    let q1 = r1.decl_dat(&cells1, 1, "q", vec![0.0f64; 64]);
    let gate = Arc::new(Event::new());
    let g = Arc::clone(&gate);
    r1.loop_("produce", &cells1)
        .arg(write(&q1))
        .run(move |q: &mut [f64]| {
            g.wait();
            q[0] = 42.0;
        });

    let mut spec = HaloSpec::empty(2);
    spec.export_rows[1][0] = (0..64).collect();
    spec.import_range[0][1] = 256..320;
    spec.validate().unwrap();
    let recvs = exchange(&group, &[q0.clone(), q1], &spec);

    // Consumer on rank 0: reads q through an identity map whose last block
    // reaches the halo rows. Blocks 0..4 are interior (owned reach only),
    // block 4 is the boundary block gated on the receive.
    let edges = r0.decl_set(320, "edges");
    let ident = r0.decl_map_halo(
        &edges,
        &cells0,
        1,
        (0..320).collect::<Vec<_>>(),
        "ident",
        64,
    );
    let out = r0.decl_dat(&edges, 1, "out", vec![f64::NAN; 320]);
    let executed = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&executed);
    let h = r0
        .loop_("consume", &edges)
        .arg(read_via(&q0, &ident, 0))
        .arg(write(&out))
        .run(move |q: &[f64], o: &mut [f64]| {
            o[0] = q[0];
            counter.fetch_add(1, Ordering::Relaxed);
        });

    // Interior blocks must make progress while the receive is hostage.
    let deadline = Instant::now() + Duration::from_secs(30);
    while executed.load(Ordering::Acquire) == 0 {
        assert!(Instant::now() < deadline, "no interior block ever executed");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The receive cannot have completed: its sender still waits on `gate`.
    assert!(
        !recvs[0][1].is_ready(),
        "halo receive completed while the exporter was hostage"
    );
    assert!(!h.is_done(), "the boundary block cannot have run yet");

    gate.set();
    h.wait();
    recvs[0][1].wait();
    let snap = out.snapshot();
    assert!(
        (0..256).all(|i| snap[i] == i as f64),
        "interior reads owned values"
    );
    assert!(
        snap[256..].iter().all(|&v| v == 42.0),
        "boundary reads the exchanged halo"
    );
}

/// Receives must respect write-after-read: a halo refresh submitted while
/// a reader of the old halo values is still pending may not clobber them
/// early. The reader is hostage, the refresh is submitted, and the values
/// the reader saw are checked afterwards.
#[test]
fn halo_refresh_waits_for_pending_halo_readers() {
    let group = LocalityGroup::new(Op2Config::dataflow(2).with_block_size(32), 2);
    let r0 = group.rank(0);
    let r1 = group.rank(1);
    let cells0 = r0.decl_set(32, "cells");
    let mut init = vec![1.0f64; 32];
    init.extend_from_slice(&[7.0; 32]); // current halo values
    let q0 = r0.decl_dat_halo(&cells0, 1, "q", init, 32);
    let cells1 = r1.decl_set(32, "cells");
    let q1 = r1.decl_dat(&cells1, 1, "q", vec![9.0f64; 32]);

    // Hostage reader of the old halo (identity gather over all 64 rows).
    let edges = r0.decl_set(64, "edges");
    let ident = r0.decl_map_halo(&edges, &cells0, 1, (0..64).collect::<Vec<_>>(), "ident", 32);
    let seen = r0.decl_dat(&edges, 1, "seen", vec![0.0f64; 64]);
    let gate = Arc::new(Event::new());
    let g = Arc::clone(&gate);
    let h = r0
        .loop_("reader", &edges)
        .arg(read_via(&q0, &ident, 0))
        .arg(write(&seen))
        .run(move |q: &[f64], o: &mut [f64]| {
            g.wait();
            o[0] = q[0];
        });

    let mut spec = HaloSpec::empty(2);
    spec.export_rows[1][0] = (0..32).collect();
    spec.import_range[0][1] = 32..64;
    let recvs = exchange(&group, &[q0.clone(), q1], &spec);
    assert!(!recvs[0][1].is_ready(), "refresh must wait for the reader");

    gate.set();
    h.wait();
    recvs[0][1].wait();
    assert!(
        seen.snapshot()[32..].iter().all(|&v| v == 7.0),
        "reader saw the pre-refresh halo"
    );
    assert!(
        q0.snapshot()[32..].iter().all(|&v| v == 9.0),
        "halo refreshed"
    );
}

fn plain_golden(niter: usize) -> (Vec<f64>, Vec<f64>) {
    let op2 = op2_hpx::op2::Op2::new(Op2Config::seq());
    let mesh = channel_with_bump(32, 16);
    let p = Problem::declare(&op2, &mesh);
    let r = solver::run(
        &op2,
        &p,
        &SolverConfig {
            niter,
            window: 4,
            print_every: 0,
            ..SolverConfig::default()
        },
    );
    (r.rms_history, p.p_q.snapshot())
}

/// A 4-rank sharded run reproduces the single-locality physics within
/// reduction tolerance (edge execution order differs per shard, so sums
/// round differently — same budget as the colored backends).
#[test]
fn sharded_airfoil_matches_single_locality_golden() {
    let niter = 12;
    let (rms_ref, q_ref) = plain_golden(niter);
    let mesh = channel_with_bump(32, 16);
    let mut shp = ShardedProblem::declare(Op2Config::dataflow(2), &mesh, 4);
    let r = run_sharded(
        &mut shp,
        &SolverConfig {
            niter,
            window: 4,
            print_every: 0,
            ..SolverConfig::default()
        },
    );
    let d_rms = max_rel_diff(&rms_ref, &r.rms_history);
    let d_q = max_scaled_diff(&q_ref, &shp.gather_q(), 1.0);
    assert!(d_rms < 1e-7, "sharded rms deviates by {d_rms:e}");
    assert!(d_q < 1e-9, "sharded q deviates by {d_q:e}");
}

/// Adaptive (feedback-resolved) node granularity across the halo
/// boundary: a 4-rank sharded run under `Auto` — every rank's executed
/// nodes feed its own cost table, granularity re-resolves mid-solve as
/// measurements arrive, boundary blocks keep gating on halo receives —
/// must reproduce the single-locality physics within the same budget as
/// every other backend, and must actually have *measured* (every rank's
/// table is populated: adaptivity was live, not a Static fallback).
#[test]
fn adaptive_granularity_preserves_sharded_physics_across_halo_boundary() {
    let niter = 12;
    let (rms_ref, q_ref) = plain_golden(niter);
    let mesh = channel_with_bump(32, 16);
    let mut shp = ShardedProblem::declare(Op2Config::dataflow(2), &mesh, 4);
    let r = run_sharded(
        &mut shp,
        &SolverConfig {
            niter,
            window: 4,
            print_every: 0,
            ..SolverConfig::default()
        },
    );
    let d_rms = max_rel_diff(&rms_ref, &r.rms_history);
    let d_q = max_scaled_diff(&q_ref, &shp.gather_q(), 1.0);
    assert!(d_rms < 1e-7, "rms deviates by {d_rms:e}");
    assert!(d_q < 1e-9, "q deviates by {d_q:e}");
    // Every rank measured the airfoil kernels it ran, keyed by (kernel,
    // set signature); the five kernels span several sets.
    for (r, world) in shp.group.ranks().iter().enumerate() {
        let measured = world.granularity_feedback().snapshot();
        assert!(
            measured.len() >= 4,
            "rank {r}: feedback must hold its kernels' measurements, got {}",
            measured.len()
        );
        assert!(
            measured.iter().all(|(_, _, c)| c.samples > 0),
            "rank {r}: every entry carries real samples"
        );
    }
}

/// Partition invariants of the real Airfoil decomposition, via the shard's
/// public bookkeeping: owned cells partition the mesh, every halo row is
/// importable from exactly one peer, and the exec-halo edge split is
/// consistent with ownership.
#[test]
fn sharded_decomposition_invariants() {
    let mesh = channel_with_bump(20, 10);
    for nranks in [2usize, 3, 5] {
        let shp = ShardedProblem::declare(Op2Config::seq(), &mesh, nranks);
        let mut owners = vec![0usize; mesh.ncell];
        for owned in &shp.owned_cells {
            for &c in owned {
                owners[c as usize] += 1;
            }
        }
        assert!(
            owners.iter().all(|&n| n == 1),
            "{nranks} ranks: every cell owned exactly once"
        );
        assert_eq!(shp.cell_owner.len(), mesh.ncell);
        for (r, part) in shp.parts.iter().enumerate() {
            assert_eq!(part.cells.size(), shp.owned_cells[r].len());
            let halo: usize = (0..nranks)
                .map(|s| shp.cell_spec.import_range[r][s].len())
                .sum();
            assert_eq!(halo, part.n_halo_cells, "rank {r} halo bookkeeping");
            // Export rows are owned rows; import ranges live in the halo.
            for s in 0..nranks {
                assert!(shp.cell_spec.export_rows[r][s]
                    .iter()
                    .all(|&row| (row as usize) < part.cells.size()));
                let rng = &shp.cell_spec.import_range[r][s];
                assert!(rng.start >= part.cells.size() || rng.is_empty());
            }
        }
        shp.cell_spec.validate().unwrap();
    }
}
