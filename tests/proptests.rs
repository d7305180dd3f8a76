//! Property-based tests of the core invariants, through the public API:
//! plan coloring on arbitrary connectivity, exactly-once loop execution
//! under arbitrary chunkers, dataflow graphs vs sequential evaluation,
//! and mesh-generator structural invariants.
//!
//! The properties are driven by a deterministic xorshift PRNG rather than
//! an external property-testing framework (the build environment is
//! offline): every case is reproducible from the printed seed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use op2_hpx::hpx::timing::Clock;
use op2_hpx::hpx::{dataflow, ready, ChunkPolicy, Future, Runtime};
use op2_hpx::mesh::{
    build_halo, channel_with_bump, neighbors_from_pairs, partition_greedy_bfs, quad_stats,
    validate_quad,
};
use op2_hpx::op2::args::{inc_via, read, read_via, rw, write};
use op2_hpx::op2::{arg_inc_via, plan_for, validate_coloring, ArgSpec, Op2, Op2Config};

/// Cases per property; each case spins up pools, keep CI-speed sane.
const CASES: u64 = 24;

/// xorshift64* — the same generator the seed's tests used for map data.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    /// Uniform-ish value in `lo..hi` (`hi > lo`).
    fn in_range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

/// Any random edge->node connectivity yields a valid colored plan whose
/// colors partition the blocks and never share a target within a color,
/// and the executed increments are exact.
#[test]
fn coloring_is_valid_and_increments_exact() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xC010_25ED ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let nfrom = rng.in_range(1, 400);
        let nto = rng.in_range(1, 120);
        let dim = rng.in_range(1, 3);
        let block_size = rng.in_range(1, 64);
        let indices: Vec<u32> = (0..nfrom * dim)
            .map(|_| (rng.next() % nto as u64) as u32)
            .collect();

        let op2 = Op2::new(Op2Config::fork_join(2).with_block_size(block_size));
        let from = op2.decl_set(nfrom, "from");
        let to = op2.decl_set(nto, "to");
        let map = op2.decl_map(&from, &to, dim, indices.clone(), "m");
        let acc = op2.decl_dat(&to, 1, "acc", vec![0.0f64; nto]);

        // Execute: every source element increments each of its targets.
        // (Slot 0 only when dim==1 to keep the kernel arity simple.)
        let infos = match dim {
            1 => {
                let a0 = arg_inc_via(&acc, &map, 0);
                let infos = vec![ArgSpec::info(&a0)];
                op2.loop_("inc", &from)
                    .arg(a0)
                    .run(|t0: &mut [f64]| {
                        t0[0] += 1.0;
                    })
                    .wait();
                infos
            }
            _ => {
                let a0 = arg_inc_via(&acc, &map, 0);
                let a1 = arg_inc_via(&acc, &map, 1);
                let infos = vec![ArgSpec::info(&a0), ArgSpec::info(&a1)];
                // Same target twice in one element would alias two mutable
                // views; the framework's debug check would (correctly)
                // panic, so only execute when no element's slots collide.
                let collides = (0..nfrom).any(|e| map.at(e, 0) == map.at(e, 1));
                if collides {
                    // Still validate the plan below, just skip execution.
                    let plan = plan_for(&op2, &from, &infos).expect("colored plan");
                    let pairs = vec![(map.clone(), 0usize), (map.clone(), 1usize)];
                    assert!(
                        validate_coloring(&plan, &pairs).is_ok(),
                        "case {case}: invalid coloring"
                    );
                    continue;
                }
                op2.loop_("inc2", &from)
                    .arg(a0)
                    .arg(a1)
                    .run(|t0: &mut [f64], t1: &mut [f64]| {
                        t0[0] += 1.0;
                        t1[0] += 1.0;
                    })
                    .wait();
                infos
            }
        };

        // Plan invariant.
        if let Some(plan) = plan_for(&op2, &from, &infos) {
            let pairs: Vec<_> = (0..dim.min(2)).map(|k| (map.clone(), k)).collect();
            assert!(
                validate_coloring(&plan, &pairs).is_ok(),
                "case {case}: invalid coloring"
            );
            let blocks_in_colors: usize = plan.color_blocks.iter().map(|c| c.len()).sum();
            assert_eq!(blocks_in_colors, plan.nblocks(), "case {case}");
        }

        // Exactness: target t received one increment per incoming slot.
        let mut expected = vec![0.0f64; nto];
        for e in 0..nfrom {
            for k in 0..dim.min(2) {
                expected[map.at(e, k)] += 1.0;
            }
        }
        assert_eq!(acc.snapshot(), expected, "case {case}");
    }
}

/// Every chunk policy visits every index exactly once, for arbitrary
/// range sizes.
#[test]
fn chunkers_tile_ranges_exactly() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x0C44_2BD5 ^ case.wrapping_mul(0xA076_1D64_78BD_642F));
        let n = rng.in_range(0, 6000);
        let size = rng.in_range(1, 600);
        let chunk = match rng.in_range(0, 3) {
            0 => ChunkPolicy::Static { size },
            1 => ChunkPolicy::NumChunks { chunks: size },
            _ => ChunkPolicy::default(),
        };
        let rt = Runtime::new(2);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        op2_hpx::hpx::for_each_chunk(&rt, &chunk, 0..n, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "case {case}: some index not visited exactly once (n={n}, size={size})"
        );
    }
}

/// Random dataflow expression trees evaluate to the same value as direct
/// sequential evaluation.
#[test]
fn dataflow_trees_match_sequential() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xDA7A_F10F ^ case.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let rt = Runtime::new(2);
        let mut expect = 1u64;
        let mut fut: Future<u64> = ready(1);
        for _ in 0..rng.in_range(1, 40) {
            let v = rng.in_range(1, 100) as u64;
            match rng.in_range(0, 3) {
                0 => {
                    expect = expect.wrapping_add(v);
                    fut = dataflow(&rt, move |(x,)| x.wrapping_add(v), (fut,));
                }
                1 => {
                    expect = expect.wrapping_mul(v);
                    let extra = rt.spawn_future(move || v);
                    fut = dataflow(&rt, |(x, y)| x.wrapping_mul(y), (fut, extra));
                }
                _ => {
                    expect ^= v;
                    let shared = fut.share();
                    // Diamond: two readers of the same value re-joined.
                    let l = shared.then(&rt, move |x| x ^ v);
                    let r = shared.then(&rt, |x| x);
                    fut = dataflow(
                        &rt,
                        |(l, r)| {
                            let _ = r;
                            l
                        },
                        (l, r),
                    );
                }
            }
        }
        assert_eq!(fut.get(), expect, "case {case}");
    }
}

/// Random loop-chain programs under random feedback sequences never
/// violate per-block WAR/RAW ordering when node granularity changes
/// between loops.
///
/// This is the adaptive-chunking extension of the PR 2 seeded
/// scheduler-permutation stress harness (same xorshift seeding, driven
/// through the public API): each case builds a random chain of dependent
/// direct loops plus an indirect increment over a ring map, runs it on the
/// Dataflow backend under `Auto` with a random target and a fake clock
/// whose per-loop cost is drawn at random — so the feedback, and with it
/// the resolved node granularity, shifts between dependent
/// loops (and, on multi-worker cases, nodes race on the shared clock,
/// which is precisely a random feedback sequence). All arithmetic is exact
/// in f64, so any RAW violation (a successor block reading rows its
/// predecessor has not written), WAR violation (a writer clobbering rows a
/// pending reader still needs) or lost/duplicated increment changes the
/// result bitwise.
#[test]
fn loop_chains_stay_exact_under_random_granularity_feedback() {
    for case in 0..CASES {
        let mut rng = Rng::new(0xADA9_71C4 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let n = rng.in_range(64, 2500);
        let threads = rng.in_range(1, 4);
        let clock = Clock::fake();
        let policy = ChunkPolicy::Auto {
            target: Duration::from_micros(rng.in_range(10, 400) as u64),
        };
        let op2 = Op2::new(
            Op2Config::dataflow(threads)
                .with_clock(clock.clone())
                .with_block_size(rng.in_range(16, 512))
                .with_chunk(policy),
        );

        let cells = op2.decl_set(n, "cells");
        let a = op2.decl_dat(
            &cells,
            1,
            "a",
            (0..n).map(|i| (i % 17) as f64).collect::<Vec<_>>(),
        );
        let b = op2.decl_dat(&cells, 1, "b", vec![0.0f64; n]);
        let mut idx = Vec::with_capacity(2 * n);
        for e in 0..n {
            idx.push(e as u32);
            idx.push(((e + 1) % n) as u32);
        }
        let ring = op2.decl_map(&cells, &cells, 2, idx, "ring");
        let acc = op2.decl_dat(&cells, 1, "acc", vec![0.0f64; n]);

        // Sequential model of the same chain.
        let mut ma: Vec<f64> = (0..n).map(|i| (i % 17) as f64).collect();
        let mut mb = vec![0.0f64; n];
        let mut macc = vec![0.0f64; n];

        let nloops = rng.in_range(4, 14);
        for _ in 0..nloops {
            // The random feedback sequence: each loop body advances the
            // fake clock by a random per-element cost, so each loop's
            // execution moves the EWMA and the next submission may resolve
            // a different node granularity.
            let cost = Duration::from_nanos(rng.in_range(20, 30_000) as u64);
            let c = clock.clone();
            match rng.in_range(0, 4) {
                0 => {
                    // RAW: b = 2a + 1.
                    op2.loop_("fwd", &cells).arg(read(&a)).arg(write(&b)).run(
                        move |a: &[f64], b: &mut [f64]| {
                            c.advance(cost);
                            b[0] = 2.0 * a[0] + 1.0;
                        },
                    );
                    for i in 0..n {
                        mb[i] = 2.0 * ma[i] + 1.0;
                    }
                }
                1 => {
                    // RAW + WAR back-edge: a = b + 3.
                    op2.loop_("bwd", &cells).arg(read(&b)).arg(write(&a)).run(
                        move |b: &[f64], a: &mut [f64]| {
                            c.advance(cost);
                            a[0] = b[0] + 3.0;
                        },
                    );
                    for i in 0..n {
                        ma[i] = mb[i] + 3.0;
                    }
                }
                2 => {
                    // In-place RW: a = a + 2.
                    op2.loop_("bump", &cells)
                        .arg(rw(&a))
                        .run(move |a: &mut [f64]| {
                            c.advance(cost);
                            a[0] += 2.0;
                        });
                    for v in ma.iter_mut() {
                        *v += 2.0;
                    }
                }
                _ => {
                    // Colored indirect increments gated on the reader of
                    // `a`: acc[ring] += 1 (re-plans when granularity
                    // moves — the coloring must stay valid).
                    op2.loop_("scatter", &cells)
                        .arg(read(&a))
                        .arg(inc_via(&acc, &ring, 0))
                        .arg(inc_via(&acc, &ring, 1))
                        .run(move |_a: &[f64], t0: &mut [f64], t1: &mut [f64]| {
                            c.advance(cost);
                            t0[0] += 1.0;
                            t1[0] += 1.0;
                        });
                    for v in macc.iter_mut() {
                        *v += 2.0;
                    }
                }
            }
        }
        op2.fence();
        assert_eq!(a.snapshot(), ma, "case {case}: dat a diverged");
        assert_eq!(b.snapshot(), mb, "case {case}: dat b diverged");
        assert_eq!(acc.snapshot(), macc, "case {case}: indirect acc diverged");
    }
}

/// Random programs over random set sizes, map shapes and node
/// granularities against a sequential model — the value-level companion of
/// the row-level wiring oracle in `op2_core`'s `dat.rs` (the wired graph
/// itself is not reachable through the public API). Edge loops gather `a`
/// through both slots of a random map (two arguments coalesced into one
/// read record) and scatter increments into `b` (a colored write record
/// through the same map); cell loops read and write the same dats
/// directly at another granularity; and user guards read and patch dats in
/// the middle of the in-flight program. Every value is a small integer,
/// so any RAW/WAR/WAW violation or lost increment changes a result
/// exactly.
#[test]
fn random_programs_match_a_sequential_model_under_random_granularities() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5EC0_04D5 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let ncell = rng.in_range(2, 700);
        let nedge = rng.in_range(1, 900);
        let policy = match rng.in_range(0, 3) {
            0 => ChunkPolicy::Static {
                size: rng.in_range(1, 300),
            },
            1 => ChunkPolicy::NumChunks {
                chunks: rng.in_range(1, 24),
            },
            _ => ChunkPolicy::default(),
        };
        let op2 = Op2::new(
            Op2Config::dataflow(rng.in_range(1, 4))
                .with_block_size(rng.in_range(1, 200))
                .with_chunk(policy),
        );
        let cells = op2.decl_set(ncell, "cells");
        let edges = op2.decl_set(nedge, "edges");
        // Two distinct cells per edge: both slots are incremented at once.
        let table: Vec<u32> = (0..nedge)
            .flat_map(|_| {
                let c0 = rng.in_range(0, ncell);
                let c1 = (c0 + rng.in_range(1, ncell)) % ncell;
                [c0 as u32, c1 as u32]
            })
            .collect();
        let e2c = op2.decl_map(&edges, &cells, 2, table.clone(), "e2c");
        let a = op2.decl_dat(
            &cells,
            1,
            "a",
            (0..ncell).map(|i| (i % 7) as f64).collect::<Vec<_>>(),
        );
        let b = op2.decl_dat(&cells, 1, "b", vec![0.0f64; ncell]);
        let w = op2.decl_dat(&edges, 1, "w", vec![0.0f64; nedge]);

        let mut ma: Vec<f64> = (0..ncell).map(|i| (i % 7) as f64).collect();
        let mut mb = vec![0.0f64; ncell];
        let mut mw = vec![0.0f64; nedge];
        let at = |e: usize, k: usize| table[2 * e + k] as usize;

        for _ in 0..rng.in_range(4, 16) {
            match rng.in_range(0, 6) {
                0 => {
                    op2.loop_("gather", &edges)
                        .arg(read_via(&a, &e2c, 0))
                        .arg(read_via(&a, &e2c, 1))
                        .arg(write(&w))
                        .run(|a0: &[f64], a1: &[f64], w: &mut [f64]| w[0] = a0[0] + a1[0]);
                    for e in 0..nedge {
                        mw[e] = ma[at(e, 0)] + ma[at(e, 1)];
                    }
                }
                1 => {
                    op2.loop_("scatter", &edges)
                        .arg(read(&w))
                        .arg(inc_via(&b, &e2c, 0))
                        .arg(inc_via(&b, &e2c, 1))
                        .run(|w: &[f64], b0: &mut [f64], b1: &mut [f64]| {
                            b0[0] += w[0];
                            b1[0] += 1.0;
                        });
                    for e in 0..nedge {
                        mb[at(e, 0)] += mw[e];
                        mb[at(e, 1)] += 1.0;
                    }
                }
                2 => {
                    op2.loop_("fold", &cells)
                        .arg(read(&b))
                        .arg(rw(&a))
                        .run(|b: &[f64], a: &mut [f64]| a[0] = (a[0] + b[0]) % 64.0);
                    for i in 0..ncell {
                        ma[i] = (ma[i] + mb[i]) % 64.0;
                    }
                }
                3 => {
                    op2.loop_("reset", &cells)
                        .arg(read(&a))
                        .arg(write(&b))
                        .run(|a: &[f64], b: &mut [f64]| b[0] = a[0] + 1.0);
                    for i in 0..ncell {
                        mb[i] = ma[i] + 1.0;
                    }
                }
                4 => assert_eq!(b.snapshot(), mb, "case {case}: mid-program read of b"),
                _ => {
                    let row = rng.in_range(0, ncell);
                    a.write().row_mut(row)[0] = 5.0;
                    ma[row] = 5.0;
                }
            }
        }
        op2.fence();
        assert_eq!(a.snapshot(), ma, "case {case}: dat a diverged");
        assert_eq!(b.snapshot(), mb, "case {case}: dat b diverged");
        assert_eq!(w.snapshot(), mw, "case {case}: dat w diverged");
    }
}

/// Partitioning invariants on arbitrary meshes and rank counts: every
/// cell is owned by exactly one rank, part sizes meet their quotas
/// exactly, import/export lists are symmetric across every rank pair
/// (with imports owned by the peer), and the halo covers every indirect
/// reach of the Airfoil loop set — `pecell` imports close over every exec
/// edge's cells, and the single-target `pbecell` shape needs no halo at
/// all.
#[test]
fn partition_and_halo_invariants() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x5A4D_ED00 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let imax = rng.in_range(3, 40);
        let jmax = rng.in_range(1, 24);
        let nranks = rng.in_range(1, 9).min(imax * jmax);
        let mesh = channel_with_bump(imax, jmax);
        let adj = neighbors_from_pairs(&mesh.edge_cells, mesh.ncell);
        let part = partition_greedy_bfs(&adj, nranks);

        // Exactly-one-owner plus exact quotas.
        part.validate()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let sizes = part.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), mesh.ncell, "case {case}");
        let (base, extra) = (mesh.ncell / nranks, mesh.ncell % nranks);
        for (r, &s) in sizes.iter().enumerate() {
            assert_eq!(s, base + usize::from(r < extra), "case {case} rank {r}");
        }
        // Determinism.
        assert_eq!(part, partition_greedy_bfs(&adj, nranks), "case {case}");

        // Halo symmetry + coverage over the edge→cells indirection (the
        // validate method checks import/export mirroring, peer ownership
        // and reach coverage).
        let halo = build_halo(&part, &mesh.edge_cells, 2);
        halo.validate(&part, &mesh.edge_cells, 2)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        // Every edge is executed by the owners of its cells and only them.
        for (e, cells) in mesh.edge_cells.chunks_exact(2).enumerate() {
            for &c in cells {
                let owner = part.part_of[c as usize] as usize;
                assert!(
                    halo.exec[owner].binary_search(&(e as u32)).is_ok(),
                    "case {case}: edge {e} missing from owner {owner}'s exec set"
                );
            }
        }
        // The boundary-edge map shape (one target, executed by its owner)
        // closes without any halo.
        let bhalo = build_halo(&part, &mesh.bedge_cells, 1);
        for r in 0..nranks {
            assert_eq!(bhalo.halo_size(r), 0, "case {case}: pbecell needs no halo");
        }
    }
}

/// The bind-once executor path: for random dat dims, map arities, slots,
/// halo extents and block sizes, a gather (`read_via` every slot into a
/// direct `write`) and a scatter (`inc_via` one slot) through a
/// halo-extended map reproduce a hand-written loop over the row-major
/// data — bitwise, on every backend (values are small integers, so the
/// coloured increment order cannot show in the sums).
#[test]
fn bound_args_match_reference_loops_for_arbitrary_dims_arity_and_slot() {
    use op2_hpx::op2::args::read_via;
    for case in 0..CASES {
        let mut rng = Rng::new(0xB0D0_A265 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let n = rng.in_range(1, 500);
        let rows = rng.in_range(1, 200);
        let halo = rng.in_range(0, 30);
        let dim = rng.in_range(1, 6);
        let arity = rng.in_range(1, 5);
        let slot = rng.in_range(0, arity);
        let block_size = rng.in_range(1, 96);
        let total = rows + halo;
        let table: Vec<u32> = (0..n * arity)
            .map(|_| rng.in_range(0, total) as u32)
            .collect();
        let src: Vec<f64> = (0..total * dim)
            .map(|_| rng.in_range(0, 1000) as f64)
            .collect();

        let mut gathered = vec![0.0f64; n];
        let mut scattered = vec![0.0f64; total * dim];
        for e in 0..n {
            for k in 0..arity {
                gathered[e] += src[table[e * arity + k] as usize * dim + (k % dim)];
            }
            let t = table[e * arity + slot] as usize;
            for c in 0..dim {
                scattered[t * dim + c] += (e % 17 + c) as f64;
            }
        }

        for cfg in [
            Op2Config::seq(),
            Op2Config::fork_join(2),
            Op2Config::dataflow(2),
        ] {
            let what = format!("case {case} {:?}", cfg.backend);
            let op2 = Op2::new(cfg.with_block_size(block_size));
            let from = op2.decl_set(n, "from");
            let to = op2.decl_set(rows, "to");
            let m = op2.decl_map_halo(&from, &to, arity, table.clone(), "m", halo);
            let x = op2.decl_dat_halo(&to, dim, "x", src.clone(), halo);
            let acc = op2.decl_dat_halo(&to, dim, "acc", vec![0.0f64; total * dim], halo);
            let ids = op2.decl_dat(&from, 1, "id", (0..n).map(|e| e as f64).collect::<Vec<_>>());
            let out = op2.decl_dat(&from, 1, "out", vec![0.0f64; n]);

            // One gather loop per slot, accumulating into `out`.
            for k in 0..arity {
                op2.loop_("gather", &from)
                    .arg(read_via(&x, &m, k))
                    .arg(rw(&out))
                    .run(move |x: &[f64], out: &mut [f64]| out[0] += x[k % x.len()]);
            }
            op2.loop_("scatter", &from)
                .arg(read(&ids))
                .arg(inc_via(&acc, &m, slot))
                .run(|id: &[f64], acc: &mut [f64]| {
                    for (c, a) in acc.iter_mut().enumerate() {
                        *a += (id[0] as usize % 17 + c) as f64;
                    }
                });
            op2.fence();
            assert_eq!(out.snapshot(), gathered, "{what}: gather");
            assert_eq!(acc.snapshot(), scattered, "{what}: scatter");
            assert_eq!(x.snapshot(), src, "{what}: read source untouched");
        }
    }
}

/// Mesh generator invariants hold for arbitrary dimensions.
#[test]
fn quad_meshes_always_validate() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x4E5D ^ case.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let imax = rng.in_range(3, 48);
        let jmax = rng.in_range(1, 32);
        let mesh = channel_with_bump(imax, jmax);
        let errors = validate_quad(&mesh);
        assert!(errors.is_empty(), "case {case}: {errors:?}");
        let stats = quad_stats(&mesh);
        assert_eq!(stats.ncell, imax * jmax, "case {case}");
        // Euler characteristic of the planar mesh.
        let v = mesh.nnode as i64;
        let e = (mesh.nedge + mesh.nbedge) as i64;
        let f = mesh.ncell as i64 + 1;
        assert_eq!(v - e + f, 2, "case {case} ({imax}x{jmax})");
    }
}

/// Random loop chains over **one shared `Global`** across 2–4 ranks,
/// submitted concurrently (one submitter thread per rank), must match the
/// sequential model exactly — the wait-set regression surface: with a
/// single-slot `pending`, a concurrently-registered loop's completion
/// future could be overwritten and `get()`/`reset()` would observe a
/// partially-finalized value. Integer sums keep the check exact under
/// every interleaving.
#[test]
fn shared_global_loop_chains_match_sequential_model() {
    use op2_hpx::op2::args::gbl_inc;
    use op2_hpx::op2::locality::LocalityGroup;
    use op2_hpx::op2::Global;
    use std::sync::{Arc, Barrier};

    for case in 0..CASES {
        let mut rng = Rng::new(0x5AD0_61B1 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let nranks = rng.in_range(2, 5);
        let group = Arc::new(LocalityGroup::new(Op2Config::dataflow(2), nranks));
        // Per rank: a set (possibly empty — the zero-partials finalize
        // path) and a random chain of incrementing loops.
        let plan: Vec<(usize, Vec<i64>)> = (0..nranks)
            .map(|_| {
                let size = rng.in_range(0, 120);
                let coeffs: Vec<i64> = (0..rng.in_range(1, 4))
                    .map(|_| rng.in_range(1, 9) as i64)
                    .collect();
                (size, coeffs)
            })
            .collect();

        let g = Global::<i64>::sum(1, "shared");
        for round in 0..2 {
            let start = Arc::new(Barrier::new(nranks));
            let threads: Vec<_> = (0..nranks)
                .map(|r| {
                    let group = Arc::clone(&group);
                    let g = g.clone();
                    let start = Arc::clone(&start);
                    let (size, coeffs) = plan[r].clone();
                    std::thread::spawn(move || {
                        let cells = group.rank(r).decl_set(size, "cells");
                        start.wait();
                        for k in coeffs {
                            group
                                .rank(r)
                                .loop_("inc", &cells)
                                .arg(gbl_inc(&g))
                                .run(move |acc: &mut [i64]| acc[0] += k);
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().expect("submitter thread");
            }
            let model: i64 = plan
                .iter()
                .map(|(size, coeffs)| *size as i64 * coeffs.iter().sum::<i64>())
                .sum();
            assert_eq!(
                g.get_scalar(),
                model,
                "case {case} round {round}: shared-global sum diverged from the model"
            );
            // reset() must likewise wait the whole wait-set before
            // clobbering state for the next round.
            g.reset();
            assert_eq!(g.get_scalar(), 0, "case {case} round {round}: reset");
        }
    }
}
