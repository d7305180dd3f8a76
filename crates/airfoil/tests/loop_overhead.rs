//! What the generated element loop costs over the loop one would write by
//! hand, as a **ratio of medians taken inside one process**.
//!
//! The host this suite runs on has fast and slow modes that move absolute
//! times by 1.5-2x from one process to the next, so a guard on
//! nanoseconds per element would either flap or be too loose to catch
//! anything. Here every round runs the framework loop
//! (`op_par_loop_res_calc` / `adt_calc` / `update` on a Seq world, i.e.
//! submission, binding and the element loop of `op2_core::par_loop`) and
//! then a hand-written pointer loop over the *same* tables calling the
//! *same* `kernels::*`; whatever mode the host is in, both see it, and the
//! ratio of the two medians is what is asserted. Shaped arguments (dims,
//! arities and direct-vs-via as constants of the argument types — what
//! `op2c` emits) put that ratio near 1; the run-time-shaped loop this
//! replaced sat at ~1.9 (`res_calc`), ~1.55 (`adt_calc`) and ~2.2
//! (`update`).
//!
//! Timing assertions do not belong in the default (debug, parallel) test
//! run: the test is `#[ignore]`d and the release CI job runs it with
//! `--ignored`.

use std::time::Instant;

use airfoil_cfd::{kernels, Problem};
use op2_core::{Global, Op2, Op2Config};
use op2_mesh::QuadMesh;

/// Exactly what `op2c --backend hpx airfoil.op2` emitted (two of the five
/// wrappers go unused here).
#[allow(dead_code)]
mod generated {
    include!("../../translator/tests/golden/airfoil_hpx.rs");
}

const ROUNDS: usize = 300;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Seconds `f` took.
fn time(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// median(framework) / median(hand) over [`ROUNDS`] interleaved rounds.
fn overhead(name: &str, mut framework: impl FnMut(), mut hand: impl FnMut()) -> f64 {
    let (mut fw, mut hw) = (Vec::with_capacity(ROUNDS), Vec::with_capacity(ROUNDS));
    for round in 0..ROUNDS + 20 {
        let (f, h) = (time(&mut framework), time(&mut hand));
        // The first rounds warm the caches, the spec cache and the plan.
        if round >= 20 {
            fw.push(f);
            hw.push(h);
        }
    }
    let (fw, hw) = (median(fw), median(hw));
    println!(
        "{name}: framework {:.1} us, hand-written {:.1} us, ratio {:.3}",
        fw * 1e6,
        hw * 1e6,
        fw / hw
    );
    fw / hw
}

/// `&data[at * N..][..N]` without the bounds checks.
///
/// # Safety
///
/// `at * N + N` must not exceed the length of the table behind `data`.
unsafe fn row<'a, const N: usize>(data: *const f64, at: u32) -> &'a [f64] {
    // SAFETY: the caller's contract.
    unsafe { std::slice::from_raw_parts(data.add(at as usize * N), N) }
}

/// The mutable counterpart of [`row`].
///
/// # Safety
///
/// As [`row`]; nothing else may view the row meanwhile.
unsafe fn row_mut<'a, const N: usize>(data: *mut f64, at: u32) -> &'a mut [f64] {
    // SAFETY: the caller's contract.
    unsafe { std::slice::from_raw_parts_mut(data.add(at as usize * N), N) }
}

#[test]
#[ignore = "timing: run by the release CI job with --ignored"]
fn generated_loops_cost_what_hand_written_loops_cost() {
    let op2 = Op2::new(Op2Config::seq());
    let p = Problem::declare(&op2, &QuadMesh::with_cells(4000));
    let (ncell, nedge) = (p.cells.size(), p.edges.size());

    let res_calc = overhead(
        "res_calc",
        || {
            generated::op_par_loop_res_calc(
                &op2,
                &p.edges,
                &p.p_x,
                &p.p_q,
                &p.p_adt,
                &p.p_res,
                &p.pedge,
                &p.pecell,
                kernels::res_calc,
            )
            .wait()
        },
        || {
            let (x, q, adt) = (p.p_x.read(), p.p_q.read(), p.p_adt.read());
            let mut res = p.p_res.write();
            let (x, q, adt, res) = (x.as_ptr(), q.as_ptr(), adt.as_ptr(), res.as_mut_ptr());
            let (pedge, pecell) = (p.pedge.indices(), p.pecell.indices());
            for e in 0..nedge {
                let (n, c) = (&pedge[2 * e..][..2], &pecell[2 * e..][..2]);
                // SAFETY: map entries are rows of the dats they index
                // (validated when the maps were declared); an interior
                // edge's two cells differ, so the two `res` rows do too.
                unsafe {
                    kernels::res_calc(
                        row::<2>(x, n[0]),
                        row::<2>(x, n[1]),
                        row::<4>(q, c[0]),
                        row::<4>(q, c[1]),
                        row::<1>(adt, c[0]),
                        row::<1>(adt, c[1]),
                        row_mut::<4>(res, c[0]),
                        row_mut::<4>(res, c[1]),
                    );
                }
            }
        },
    );

    let adt_calc = overhead(
        "adt_calc",
        || {
            generated::op_par_loop_adt_calc(
                &op2,
                &p.cells,
                &p.p_x,
                &p.p_q,
                &p.p_adt,
                &p.pcell,
                kernels::adt_calc,
            )
            .wait()
        },
        || {
            let (x, q) = (p.p_x.read(), p.p_q.read());
            let mut adt = p.p_adt.write();
            let (x, q, adt) = (x.as_ptr(), q.as_ptr(), adt.as_mut_ptr());
            let pcell = p.pcell.indices();
            for c in 0..ncell {
                let n = &pcell[4 * c..][..4];
                // SAFETY: as above; `c < ncell` rows of `q` and `adt`.
                unsafe {
                    kernels::adt_calc(
                        row::<2>(x, n[0]),
                        row::<2>(x, n[1]),
                        row::<2>(x, n[2]),
                        row::<2>(x, n[3]),
                        row::<4>(q, c as u32),
                        row_mut::<1>(adt, c as u32),
                    );
                }
            }
        },
    );

    let update = overhead(
        "update",
        || {
            let rms = Global::<f64>::sum(1, "rms");
            generated::op_par_loop_update(
                &op2,
                &p.cells,
                &p.p_qold,
                &p.p_q,
                &p.p_res,
                &p.p_adt,
                &rms,
                kernels::update,
            )
            .wait();
            std::hint::black_box(rms.get_scalar());
        },
        || {
            let (qold, adt) = (p.p_qold.read(), p.p_adt.read());
            let (mut q, mut res) = (p.p_q.write(), p.p_res.write());
            let (qold, adt) = (qold.as_ptr(), adt.as_ptr());
            let (q, res) = (q.as_mut_ptr(), res.as_mut_ptr());
            let mut rms = [0.0f64];
            for c in 0..ncell as u32 {
                // SAFETY: `c < ncell` rows of four dats on `cells`.
                unsafe {
                    kernels::update(
                        row::<4>(qold, c),
                        row_mut::<4>(q, c),
                        row_mut::<4>(res, c),
                        row::<1>(adt, c),
                        &mut rms,
                    );
                }
            }
            std::hint::black_box(rms);
        },
    );

    assert!(res_calc <= 1.25, "res_calc: {res_calc:.3}x the hand loop");
    assert!(adt_calc <= 1.25, "adt_calc: {adt_calc:.3}x the hand loop");
    assert!(update <= 1.5, "update: {update:.3}x the hand loop");
}
