//! `simd_layout` — AoS-scalar vs SoA-vectorized airfoil kernels.
//!
//! Measures the three hot Airfoil kernels (`adt_calc`, `res_calc`,
//! `update`) two ways over the same channel mesh:
//!
//! * **aos-scalar** — the per-element scalar kernel from
//!   `airfoil_cfd::kernels`, called one element at a time through a
//!   `black_box`ed function pointer (the dispatch shape of the generated
//!   per-element wrappers; the pointer stops LLVM from fusing and
//!   cross-element-vectorizing the baseline into something no per-element
//!   framework dispatch could run).
//! * **soa-vector** — the block-level hand-vectorized kernels from
//!   `airfoil_cfd::simd` over SoA component planes.
//!
//! Reports elements/s and effective GiB/s per kernel at each thread count
//! and writes `BENCH_simd.json`. `--min-speedup X` is the CI gate: at the
//! highest thread count, at least one kernel's SoA-vector elements/s must
//! be `X`x the AoS-scalar baseline.

use std::cell::UnsafeCell;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

use airfoil_cfd::constants::qinf;
use airfoil_cfd::{kernels, simd};
use op2_bench::Table;
use op2_mesh::QuadMesh;

struct Args {
    cells: usize,
    passes: usize,
    threads: Vec<usize>,
    reps: usize,
    json_path: String,
    min_speedup: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        cells: 60_000,
        passes: 40,
        threads: vec![1, 2, 4],
        reps: 3,
        json_path: "BENCH_simd.json".to_owned(),
        min_speedup: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--cells" => args.cells = value("--cells").parse().expect("--cells"),
            "--passes" => args.passes = value("--passes").parse().expect("--passes"),
            "--threads" => {
                args.threads = value("--threads")
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads"))
                    .collect();
            }
            "--reps" => args.reps = value("--reps").parse().expect("--reps"),
            "--json" => args.json_path = value("--json"),
            "--min-speedup" => {
                args.min_speedup = Some(value("--min-speedup").parse().expect("--min-speedup"))
            }
            "--help" | "-h" => {
                println!(
                    "simd_layout options:\n\
                     --cells N        mesh size in cells (default 60000)\n\
                     --passes N       kernel passes per measurement (default 40)\n\
                     --threads LIST   e.g. 1,2,4 (default)\n\
                     --reps N         repetitions, best-of (default 3)\n\
                     --json PATH      JSON output (default BENCH_simd.json)\n\
                     --min-speedup X  CI gate: require one kernel at X x at max threads"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    assert!(!args.threads.is_empty(), "--threads must not be empty");
    args
}

/// Shared mutable array for the scoped worker threads. Threads write
/// disjoint element ranges (the same discipline `op2-core` enforces
/// through its executors), so the aliased views never race.
struct SharedVec(UnsafeCell<Vec<f64>>);

// SAFETY: every access pattern in this binary partitions the element range
// across threads before touching the data.
unsafe impl Sync for SharedVec {}

impl SharedVec {
    fn new(v: Vec<f64>) -> Self {
        SharedVec(UnsafeCell::new(v))
    }

    /// # Safety
    ///
    /// Callers in different threads must write disjoint index sets.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self) -> &mut [f64] {
        unsafe { (*self.0.get()).as_mut_slice() }
    }
}

/// Splits `0..n` into `t` contiguous chunks.
fn ranges(n: usize, t: usize) -> Vec<Range<usize>> {
    let t = t.max(1);
    let chunk = n.div_ceil(t);
    (0..t)
        .map(|i| (i * chunk).min(n)..((i + 1) * chunk).min(n))
        .collect()
}

/// Two disjoint 4-wide rows of an AoS residual buffer.
fn two_rows(res: &mut [f64], c1: usize, c2: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert_ne!(c1, c2, "interior edges join distinct cells");
    let p = res.as_mut_ptr();
    // SAFETY: c1 != c2, rows are 4 apart and in-bounds.
    unsafe {
        (
            std::slice::from_raw_parts_mut(p.add(c1 * 4), 4),
            std::slice::from_raw_parts_mut(p.add(c2 * 4), 4),
        )
    }
}

fn to_planes(aos: &[f64], rows: usize, dim: usize) -> Vec<f64> {
    let mut p = vec![0.0; aos.len()];
    for e in 0..rows {
        for c in 0..dim {
            p[c * rows + e] = aos[e * dim + c];
        }
    }
    p
}

/// Times `passes` calls of `pass`, best wall time over `reps`.
fn bench(passes: usize, reps: usize, mut pass: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        for _ in 0..passes {
            pass();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Approximate bytes touched per element (reads + writes of payload and
/// index tables) — turns elements/s into an effective bandwidth.
const UPDATE_BYTES: usize = 136; // qold 32 + q 32 + res 64 (r+w) + adt 8
const ADT_BYTES: usize = 120; // x 64 (gathered) + q 32 + adt 8 + pcell 16
const RES_BYTES: usize = 256; // x 32 + q 64 + adt 16 + res 128 (r+w) + maps 16

struct Point {
    kernel: &'static str,
    threads: usize,
    elements: usize,
    aos_secs: f64,
    soa_secs: f64,
    bytes_per_elem: usize,
}

impl Point {
    fn aos_eps(&self, passes: usize) -> f64 {
        self.elements as f64 * passes as f64 / self.aos_secs
    }
    fn soa_eps(&self, passes: usize) -> f64 {
        self.elements as f64 * passes as f64 / self.soa_secs
    }
    fn speedup(&self) -> f64 {
        self.aos_secs / self.soa_secs
    }
}

fn main() {
    let args = parse_args();
    let mesh = QuadMesh::with_cells(args.cells);
    let (ncell, nnode, nedge) = (mesh.ncell, mesh.nnode, mesh.nedge);
    println!(
        "simd_layout — AoS-scalar vs SoA-vector airfoil kernels\n\
         cells={ncell} edges={nedge} passes={} reps={} lanes={}\n",
        args.passes,
        args.reps,
        simd::LANES
    );

    // Free-stream state everywhere; residuals small and non-uniform; adt
    // from one scalar pass so it is physical (positive, finite).
    let x = &mesh.x;
    let qi = qinf();
    let q0: Vec<f64> = (0..ncell).flat_map(|_| qi).collect();
    let qold0 = q0.clone();
    let res0: Vec<f64> = (0..ncell * 4)
        .map(|i| 1e-3 * ((i % 7) as f64 - 3.0))
        .collect();
    let mut adt0 = vec![0.0; ncell];
    for (e, a) in adt0.iter_mut().enumerate() {
        let rows: Vec<[f64; 2]> = (0..4)
            .map(|k| {
                let n = mesh.cell_nodes[e * 4 + k] as usize;
                [x[n * 2], x[n * 2 + 1]]
            })
            .collect();
        let mut out = [0.0];
        kernels::adt_calc(&rows[0], &rows[1], &rows[2], &rows[3], &qi, &mut out);
        *a = out[0];
    }

    // Shadow as a shared reference so `move` closures borrow, not move.
    let adt0 = &adt0;

    // SoA planes of the same state.
    let x_p = to_planes(x, nnode, 2);
    let q0_p = to_planes(&q0, ncell, 4);
    let qold0_p = q0_p.clone();
    let res0_p = to_planes(&res0, ncell, 4);

    let pcell = &mesh.cell_nodes;
    let pedge = &mesh.edge_nodes;
    let pecell = &mesh.edge_cells;

    // black_box'ed function pointers: per-element dispatch the optimizer
    // cannot see through, the honest baseline for generated scalar loops.
    type UpdateFn = fn(&[f64], &mut [f64], &mut [f64], &[f64], &mut [f64]);
    type AdtFn = fn(&[f64], &[f64], &[f64], &[f64], &[f64], &mut [f64]);
    type ResFn = fn(&[f64], &[f64], &[f64], &[f64], &[f64], &[f64], &mut [f64], &mut [f64]);
    let update_fn: UpdateFn = black_box(kernels::update);
    let adt_fn: AdtFn = black_box(kernels::adt_calc);
    let res_fn: ResFn = black_box(kernels::res_calc);

    let mut points: Vec<Point> = Vec::new();
    for &t in &args.threads {
        // ---- update (direct, cells) ------------------------------------
        let aos_secs = {
            let q = SharedVec::new(q0.clone());
            let res = SharedVec::new(res0.clone());
            let (qold, adt) = (&qold0, &adt0);
            bench(args.passes, args.reps, || {
                let rms: f64 = std::thread::scope(|s| {
                    let hs: Vec<_> = ranges(ncell, t)
                        .into_iter()
                        .map(|r| {
                            let (q, res) = (&q, &res);
                            s.spawn(move || {
                                // SAFETY: disjoint element ranges per thread.
                                let q = unsafe { q.slice_mut() };
                                let res = unsafe { res.slice_mut() };
                                let mut rms = [0.0];
                                for e in r {
                                    update_fn(
                                        &qold[e * 4..e * 4 + 4],
                                        &mut q[e * 4..e * 4 + 4],
                                        &mut res[e * 4..e * 4 + 4],
                                        &adt0[e..e + 1],
                                        &mut rms,
                                    );
                                }
                                rms[0]
                            })
                        })
                        .collect();
                    hs.into_iter().map(|h| h.join().unwrap()).sum()
                });
                black_box((rms, adt));
            })
        };
        let soa_secs = {
            let q = SharedVec::new(q0_p.clone());
            let res = SharedVec::new(res0_p.clone());
            let qold = &qold0_p;
            bench(args.passes, args.reps, || {
                let rms: f64 = std::thread::scope(|s| {
                    let hs: Vec<_> = ranges(ncell, t)
                        .into_iter()
                        .map(|r| {
                            let (q, res) = (&q, &res);
                            s.spawn(move || {
                                // SAFETY: disjoint element ranges per thread.
                                let q = unsafe { q.slice_mut() };
                                let res = unsafe { res.slice_mut() };
                                simd::update_soa(qold, q, res, adt0, ncell, r)
                            })
                        })
                        .collect();
                    hs.into_iter().map(|h| h.join().unwrap()).sum()
                });
                black_box(rms);
            })
        };
        points.push(Point {
            kernel: "update",
            threads: t,
            elements: ncell,
            aos_secs,
            soa_secs,
            bytes_per_elem: UPDATE_BYTES,
        });

        // ---- adt_calc (indirect gather, cells) -------------------------
        let aos_secs = {
            let adt = SharedVec::new(adt0.to_vec());
            let (x, q) = (&x, &q0);
            bench(args.passes, args.reps, || {
                std::thread::scope(|s| {
                    for r in ranges(ncell, t) {
                        let adt = &adt;
                        s.spawn(move || {
                            // SAFETY: disjoint element ranges per thread.
                            let adt = unsafe { adt.slice_mut() };
                            for e in r {
                                let n0 = pcell[e * 4] as usize;
                                let n1 = pcell[e * 4 + 1] as usize;
                                let n2 = pcell[e * 4 + 2] as usize;
                                let n3 = pcell[e * 4 + 3] as usize;
                                adt_fn(
                                    &x[n0 * 2..n0 * 2 + 2],
                                    &x[n1 * 2..n1 * 2 + 2],
                                    &x[n2 * 2..n2 * 2 + 2],
                                    &x[n3 * 2..n3 * 2 + 2],
                                    &q[e * 4..e * 4 + 4],
                                    &mut adt[e..e + 1],
                                );
                            }
                        });
                    }
                });
            })
        };
        let soa_secs = {
            let adt = SharedVec::new(adt0.to_vec());
            let (x_p, q_p) = (&x_p, &q0_p);
            bench(args.passes, args.reps, || {
                std::thread::scope(|s| {
                    for r in ranges(ncell, t) {
                        let adt = &adt;
                        s.spawn(move || {
                            // SAFETY: disjoint element ranges per thread.
                            let adt = unsafe { adt.slice_mut() };
                            simd::adt_calc_soa(x_p, nnode, pcell, q_p, ncell, adt, r);
                        });
                    }
                });
            })
        };
        points.push(Point {
            kernel: "adt_calc",
            threads: t,
            elements: ncell,
            aos_secs,
            soa_secs,
            bytes_per_elem: ADT_BYTES,
        });

        // ---- res_calc (indirect increment, edges) ----------------------
        // Both variants use thread-private residual buffers reduced on the
        // main thread — the standard shared-memory treatment of indirect
        // increments, identical cost on both sides.
        let aos_secs = {
            let (x, q) = (&x, &q0);
            let mut res_main = res0.clone();
            bench(args.passes, args.reps, || {
                let partials: Vec<Vec<f64>> = std::thread::scope(|s| {
                    let hs: Vec<_> = ranges(nedge, t)
                        .into_iter()
                        .map(|r| {
                            s.spawn(move || {
                                let mut res = vec![0.0; ncell * 4];
                                for e in r {
                                    let n1 = pedge[e * 2] as usize;
                                    let n2 = pedge[e * 2 + 1] as usize;
                                    let c1 = pecell[e * 2] as usize;
                                    let c2 = pecell[e * 2 + 1] as usize;
                                    let (r1, r2) = two_rows(&mut res, c1, c2);
                                    res_fn(
                                        &x[n1 * 2..n1 * 2 + 2],
                                        &x[n2 * 2..n2 * 2 + 2],
                                        &q[c1 * 4..c1 * 4 + 4],
                                        &q[c2 * 4..c2 * 4 + 4],
                                        &adt0[c1..c1 + 1],
                                        &adt0[c2..c2 + 1],
                                        r1,
                                        r2,
                                    );
                                }
                                res
                            })
                        })
                        .collect();
                    hs.into_iter().map(|h| h.join().unwrap()).collect()
                });
                for p in &partials {
                    for (dst, src) in res_main.iter_mut().zip(p) {
                        *dst += src;
                    }
                }
                black_box(&res_main);
            })
        };
        let soa_secs = {
            let (x_p, q_p) = (&x_p, &q0_p);
            let mut res_main = res0_p.clone();
            bench(args.passes, args.reps, || {
                let partials: Vec<Vec<f64>> = std::thread::scope(|s| {
                    let hs: Vec<_> = ranges(nedge, t)
                        .into_iter()
                        .map(|r| {
                            s.spawn(move || {
                                let mut res = vec![0.0; ncell * 4];
                                simd::res_calc_soa(
                                    x_p, nnode, pedge, q_p, ncell, adt0, &mut res, ncell, pecell, r,
                                );
                                res
                            })
                        })
                        .collect();
                    hs.into_iter().map(|h| h.join().unwrap()).collect()
                });
                for p in &partials {
                    for (dst, src) in res_main.iter_mut().zip(p) {
                        *dst += src;
                    }
                }
                black_box(&res_main);
            })
        };
        points.push(Point {
            kernel: "res_calc",
            threads: t,
            elements: nedge,
            aos_secs,
            soa_secs,
            bytes_per_elem: RES_BYTES,
        });
    }

    // ---- report --------------------------------------------------------
    const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
    let mut table = Table::new(vec![
        "kernel",
        "threads",
        "aos_Melems/s",
        "soa_Melems/s",
        "aos_GiB/s",
        "soa_GiB/s",
        "speedup",
    ]);
    for p in &points {
        let (ae, se) = (p.aos_eps(args.passes), p.soa_eps(args.passes));
        table.row(vec![
            p.kernel.to_owned(),
            p.threads.to_string(),
            format!("{:.1}", ae / 1e6),
            format!("{:.1}", se / 1e6),
            format!("{:.2}", ae * p.bytes_per_elem as f64 / GIB),
            format!("{:.2}", se * p.bytes_per_elem as f64 / GIB),
            format!("{:.2}x", p.speedup()),
        ]);
    }
    print!("{}", table.render());

    // Hand-rolled JSON (offline build: no serde).
    let mut json = String::from("{\n  \"bench\": \"simd_layout\",\n");
    json.push_str(&format!(
        "  \"cells\": {ncell}, \"edges\": {nedge}, \"passes\": {}, \"reps\": {}, \
         \"lanes\": {}, \"host_threads\": {},\n",
        args.passes,
        args.reps,
        simd::LANES,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let (ae, se) = (p.aos_eps(args.passes), p.soa_eps(args.passes));
        json.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"threads\": {}, \"elements\": {}, \
             \"aos_elems_per_s\": {:.0}, \"soa_elems_per_s\": {:.0}, \
             \"aos_gib_per_s\": {:.4}, \"soa_gib_per_s\": {:.4}, \"speedup\": {:.4}}}{}\n",
            p.kernel,
            p.threads,
            p.elements,
            ae,
            se,
            ae * p.bytes_per_elem as f64 / GIB,
            se * p.bytes_per_elem as f64 / GIB,
            p.speedup(),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&args.json_path, json).expect("write JSON");
    println!("wrote {}", args.json_path);

    if let Some(min) = args.min_speedup {
        let max_t = *args.threads.iter().max().unwrap();
        let best = points
            .iter()
            .filter(|p| p.threads == max_t)
            .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
            .expect("non-empty sweep");
        if best.speedup() < min {
            eprintln!(
                "FAIL: best SoA-vector speedup at {max_t} threads is {:.2}x \
                 ({}), below the {min}x gate",
                best.speedup(),
                best.kernel
            );
            std::process::exit(1);
        }
        println!(
            "gate passed: {} reaches {:.2}x >= {min}x at {max_t} threads",
            best.kernel,
            best.speedup()
        );
    }
}
