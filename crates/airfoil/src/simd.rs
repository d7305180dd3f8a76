//! Hand-vectorized block-level variants of the hot Airfoil kernels over
//! plain component-plane slices — kernel probes, not an OP2 storage
//! layout.
//!
//! The scalar kernels in [`crate::kernels`] process one element per call
//! through `&[f64]` row views — the shape the OP2 translator generates,
//! over OP2's row-major dats. These functions take their inputs as
//! caller-built planes instead, one contiguous slice per component
//! (`plane[c * stride + e]`), so a *block* of elements can be processed
//! `LANES` at a time with unit-stride plane loads. Their one user is the
//! benchmark rig's kernel floor probe, which reports them per element
//! beside the scalar kernels (`airfoil.kernel_soa_ns_per_elem.*` next to
//! `airfoil.kernel_ns_per_elem.*`). They spell the lanes out as fixed-width
//! `[f64; LANES]` arrays — the idiom LLVM reliably lowers to packed
//! vector instructions without any unstable `std::simd` dependency.
//!
//! Correctness notes:
//!
//! * `res_calc_soa` computes the per-edge fluxes vectorized but applies
//!   the `+=`/`-=` increments **scalar-sequentially within the block**:
//!   two edges in the same lane group may share a cell, so a vectorized
//!   scatter-add would lose increments. Block-level callers must still
//!   color blocks apart exactly as for the scalar kernel.
//! * Each function handles the non-multiple-of-`LANES` tail by delegating
//!   to the scalar kernel on gathered rows, so results match the scalar
//!   path to floating-point reassociation (the lane sums reassociate the
//!   `rms` reduction; everything else is bitwise).

use std::ops::Range;

use crate::constants::{CFL, EPS, GAM, GM1};
use crate::kernels;

/// Vector width: 4 × f64 = one AVX2 register (two NEON registers).
const LANES: usize = 4;

/// Block-level SoA `update` over cells `range`.
///
/// `qold`, `q`, `res` are 4-component planes with component stride
/// `stride`; `adt` is the dim-1 plane. Returns the block's partial
/// `rms` sum (lane-reassociated relative to the scalar kernel).
pub fn update_soa(
    qold: &[f64],
    q: &mut [f64],
    res: &mut [f64],
    adt: &[f64],
    stride: usize,
    range: Range<usize>,
) -> f64 {
    let mut rms = 0.0;
    let mut e = range.start;
    while e + LANES <= range.end {
        let mut adti = [0.0; LANES];
        for l in 0..LANES {
            adti[l] = 1.0 / adt[e + l];
        }
        for c in 0..4 {
            let base = c * stride + e;
            let mut del = [0.0; LANES];
            for l in 0..LANES {
                del[l] = adti[l] * res[base + l];
            }
            for l in 0..LANES {
                q[base + l] = qold[base + l] - del[l];
                res[base + l] = 0.0;
            }
            for d in del {
                rms += d * d;
            }
        }
        e += LANES;
    }
    while e < range.end {
        let adti = 1.0 / adt[e];
        for c in 0..4 {
            let del = adti * res[c * stride + e];
            q[c * stride + e] = qold[c * stride + e] - del;
            res[c * stride + e] = 0.0;
            rms += del * del;
        }
        e += 1;
    }
    rms
}

/// Block-level SoA `adt_calc` over cells `range`.
///
/// `x` is the 2-component node-coordinate plane pair (stride `sx`),
/// gathered through `pcell` (4 node indices per cell); `q` the
/// 4-component cell-state planes (stride `sq`); `adt` the dim-1 output
/// plane.
pub fn adt_calc_soa(
    x: &[f64],
    sx: usize,
    pcell: &[u32],
    q: &[f64],
    sq: usize,
    adt: &mut [f64],
    range: Range<usize>,
) {
    let mut e = range.start;
    while e + LANES <= range.end {
        // Gather the four corner nodes of each lane's cell.
        let mut xn = [[0.0; LANES]; 8]; // [node*2 + comp][lane]
        for l in 0..LANES {
            for node in 0..4 {
                let n = pcell[(e + l) * 4 + node] as usize;
                xn[node * 2][l] = x[n];
                xn[node * 2 + 1][l] = x[sx + n];
            }
        }
        let mut u = [0.0; LANES];
        let mut v = [0.0; LANES];
        let mut c = [0.0; LANES];
        for l in 0..LANES {
            let ri = 1.0 / q[e + l];
            u[l] = ri * q[sq + e + l];
            v[l] = ri * q[2 * sq + e + l];
            c[l] =
                (GAM * GM1 * (ri * q[3 * sq + e + l] - 0.5 * (u[l] * u[l] + v[l] * v[l]))).sqrt();
        }
        let mut acc = [0.0; LANES];
        for (a, b) in [(0usize, 1usize), (1, 2), (2, 3), (3, 0)] {
            for l in 0..LANES {
                let dx = xn[b * 2][l] - xn[a * 2][l];
                let dy = xn[b * 2 + 1][l] - xn[a * 2 + 1][l];
                acc[l] += (u[l] * dy - v[l] * dx).abs() + c[l] * (dx * dx + dy * dy).sqrt();
            }
        }
        for l in 0..LANES {
            adt[e + l] = acc[l] / CFL;
        }
        e += LANES;
    }
    while e < range.end {
        let mut xr = [[0.0; 2]; 4];
        for (node, row) in xr.iter_mut().enumerate() {
            let n = pcell[e * 4 + node] as usize;
            *row = [x[n], x[sx + n]];
        }
        let qr = [q[e], q[sq + e], q[2 * sq + e], q[3 * sq + e]];
        let mut a = [0.0];
        kernels::adt_calc(&xr[0], &xr[1], &xr[2], &xr[3], &qr, &mut a);
        adt[e] = a[0];
        e += 1;
    }
}

/// Block-level SoA `res_calc` over edges `range`.
///
/// `x`: node-coordinate planes (stride `sx`) gathered through `pedge`
/// (2 node indices per edge); `q` (stride `sq`), `adt`, `res` (stride
/// `sr`): cell planes gathered through `pecell` (2 cell indices per
/// edge). Fluxes are computed vectorized; the increments are applied
/// scalar-sequentially within the block because lanes may share cells.
#[allow(clippy::too_many_arguments)]
pub fn res_calc_soa(
    x: &[f64],
    sx: usize,
    pedge: &[u32],
    q: &[f64],
    sq: usize,
    adt: &[f64],
    res: &mut [f64],
    sr: usize,
    pecell: &[u32],
    range: Range<usize>,
) {
    let mut e = range.start;
    while e + LANES <= range.end {
        let mut c1 = [0usize; LANES];
        let mut c2 = [0usize; LANES];
        let mut dx = [0.0; LANES];
        let mut dy = [0.0; LANES];
        for l in 0..LANES {
            let n1 = pedge[(e + l) * 2] as usize;
            let n2 = pedge[(e + l) * 2 + 1] as usize;
            dx[l] = x[n1] - x[n2];
            dy[l] = x[sx + n1] - x[sx + n2];
            c1[l] = pecell[(e + l) * 2] as usize;
            c2[l] = pecell[(e + l) * 2 + 1] as usize;
        }
        let mut q1 = [[0.0; LANES]; 4];
        let mut q2 = [[0.0; LANES]; 4];
        for c in 0..4 {
            for l in 0..LANES {
                q1[c][l] = q[c * sq + c1[l]];
                q2[c][l] = q[c * sq + c2[l]];
            }
        }
        let mut f = [[0.0; LANES]; 4];
        for l in 0..LANES {
            let mut ri = 1.0 / q1[0][l];
            let p1 = GM1 * (q1[3][l] - 0.5 * ri * (q1[1][l] * q1[1][l] + q1[2][l] * q1[2][l]));
            let vol1 = ri * (q1[1][l] * dy[l] - q1[2][l] * dx[l]);
            ri = 1.0 / q2[0][l];
            let p2 = GM1 * (q2[3][l] - 0.5 * ri * (q2[1][l] * q2[1][l] + q2[2][l] * q2[2][l]));
            let vol2 = ri * (q2[1][l] * dy[l] - q2[2][l] * dx[l]);
            let mu = 0.5 * (adt[c1[l]] + adt[c2[l]]) * EPS;
            f[0][l] = 0.5 * (vol1 * q1[0][l] + vol2 * q2[0][l]) + mu * (q1[0][l] - q2[0][l]);
            f[1][l] = 0.5 * (vol1 * q1[1][l] + p1 * dy[l] + vol2 * q2[1][l] + p2 * dy[l])
                + mu * (q1[1][l] - q2[1][l]);
            f[2][l] = 0.5 * (vol1 * q1[2][l] - p1 * dx[l] + vol2 * q2[2][l] - p2 * dx[l])
                + mu * (q1[2][l] - q2[2][l]);
            f[3][l] = 0.5 * (vol1 * (q1[3][l] + p1) + vol2 * (q2[3][l] + p2))
                + mu * (q1[3][l] - q2[3][l]);
        }
        // Scalar-sequential scatter: lanes may share target cells.
        for l in 0..LANES {
            for c in 0..4 {
                res[c * sr + c1[l]] += f[c][l];
                res[c * sr + c2[l]] -= f[c][l];
            }
        }
        e += LANES;
    }
    while e < range.end {
        let n1 = pedge[e * 2] as usize;
        let n2 = pedge[e * 2 + 1] as usize;
        let c1 = pecell[e * 2] as usize;
        let c2 = pecell[e * 2 + 1] as usize;
        let x1 = [x[n1], x[sx + n1]];
        let x2 = [x[n2], x[sx + n2]];
        let q1 = [q[c1], q[sq + c1], q[2 * sq + c1], q[3 * sq + c1]];
        let q2 = [q[c2], q[sq + c2], q[2 * sq + c2], q[3 * sq + c2]];
        let mut r1 = [0.0; 4];
        let mut r2 = [0.0; 4];
        kernels::res_calc(&x1, &x2, &q1, &q2, &[adt[c1]], &[adt[c2]], &mut r1, &mut r2);
        for c in 0..4 {
            res[c * sr + c1] += r1[c];
            res[c * sr + c2] += r2[c];
        }
        e += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* values in (0.5, 1.5) — safely away from
    /// the kernels' divisions by q[0].
    fn rng_vals(seed: u64, n: usize) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let u = (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
                0.5 + u
            })
            .collect()
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

    #[test]
    fn update_soa_matches_scalar() {
        let n = 13; // exercises the scalar tail
        let qold = rng_vals(1, n * 4);
        let q0 = rng_vals(2, n * 4);
        let res0 = rng_vals(3, n * 4);
        let adt = rng_vals(4, n);

        let mut q_ref = q0.clone();
        let mut res_ref = res0.clone();
        let mut rms_ref = [0.0];
        for e in 0..n {
            kernels::update(
                &qold[e * 4..e * 4 + 4],
                &mut q_ref[e * 4..e * 4 + 4],
                &mut res_ref[e * 4..e * 4 + 4],
                &adt[e..e + 1],
                &mut rms_ref,
            );
        }

        let qold_p = to_planes(&qold, n, 4);
        let mut q_p = to_planes(&q0, n, 4);
        let mut res_p = to_planes(&res0, n, 4);
        let rms = update_soa(&qold_p, &mut q_p, &mut res_p, &adt, n, 0..n);

        assert!((rms - rms_ref[0]).abs() < 1e-12 * rms_ref[0].max(1.0));
        assert_eq!(q_p, to_planes(&q_ref, n, 4), "q planes match bitwise");
        assert!(res_p.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn adt_calc_soa_matches_scalar() {
        let ncell = 11;
        let nnode = 9;
        let x = rng_vals(5, nnode * 2);
        let mut q = rng_vals(6, ncell * 4);
        // Keep the state physical: enough energy that the wavespeed's
        // sqrt argument stays positive.
        for e in 0..ncell {
            q[e * 4 + 3] += 10.0;
        }
        let pcell: Vec<u32> = (0..ncell * 4).map(|i| (i * 7 % nnode) as u32).collect();

        let mut adt_ref = vec![0.0; ncell];
        for e in 0..ncell {
            let rows: Vec<[f64; 2]> = (0..4)
                .map(|k| {
                    let n = pcell[e * 4 + k] as usize;
                    [x[n * 2], x[n * 2 + 1]]
                })
                .collect();
            let mut a = [0.0];
            kernels::adt_calc(
                &rows[0],
                &rows[1],
                &rows[2],
                &rows[3],
                &q[e * 4..e * 4 + 4],
                &mut a,
            );
            adt_ref[e] = a[0];
        }

        let x_p = to_planes(&x, nnode, 2);
        let q_p = to_planes(&q, ncell, 4);
        let mut adt = vec![0.0; ncell];
        adt_calc_soa(&x_p, nnode, &pcell, &q_p, ncell, &mut adt, 0..ncell);
        for e in 0..ncell {
            assert!(
                (adt[e] - adt_ref[e]).abs() < 1e-12,
                "cell {e}: {} vs {}",
                adt[e],
                adt_ref[e]
            );
        }
    }

    #[test]
    fn res_calc_soa_matches_scalar_including_shared_cells() {
        let nedge = 10;
        let ncell = 5; // deliberately few cells: lanes share targets
        let nnode = 7;
        let x = rng_vals(7, nnode * 2);
        let q = rng_vals(8, ncell * 4);
        let adt = rng_vals(9, ncell);
        let pedge: Vec<u32> = (0..nedge * 2).map(|i| (i * 3 % nnode) as u32).collect();
        // Two *distinct* cells per edge, with heavy reuse across edges so
        // lane groups genuinely share scatter targets.
        let pecell: Vec<u32> = (0..nedge)
            .flat_map(|e| [(e * 2 % ncell) as u32, ((e * 2 + 3) % ncell) as u32])
            .collect();

        let mut res_ref = vec![0.0; ncell * 4];
        for e in 0..nedge {
            let n1 = pedge[e * 2] as usize;
            let n2 = pedge[e * 2 + 1] as usize;
            let c1 = pecell[e * 2] as usize;
            let c2 = pecell[e * 2 + 1] as usize;
            let (r1, rest) = res_ref.split_at_mut(c1.max(c2) * 4);
            let (a, b) = if c1 < c2 {
                (&mut r1[c1 * 4..c1 * 4 + 4], &mut rest[..4])
            } else {
                (&mut rest[..4], &mut r1[c2 * 4..c2 * 4 + 4])
            };
            kernels::res_calc(
                &[x[n1 * 2], x[n1 * 2 + 1]],
                &[x[n2 * 2], x[n2 * 2 + 1]],
                &q[c1 * 4..c1 * 4 + 4],
                &q[c2 * 4..c2 * 4 + 4],
                &[adt[c1]],
                &[adt[c2]],
                a,
                b,
            );
        }

        let x_p = to_planes(&x, nnode, 2);
        let q_p = to_planes(&q, ncell, 4);
        let mut res_p = vec![0.0; ncell * 4];
        res_calc_soa(
            &x_p,
            nnode,
            &pedge,
            &q_p,
            ncell,
            &adt,
            &mut res_p,
            ncell,
            &pecell,
            0..nedge,
        );
        let res_soa_aos = {
            let mut out = vec![0.0; ncell * 4];
            for e in 0..ncell {
                for c in 0..4 {
                    out[e * 4 + c] = res_p[c * ncell + e];
                }
            }
            out
        };
        for i in 0..ncell * 4 {
            assert!(
                (res_soa_aos[i] - res_ref[i]).abs() < 1e-12,
                "res[{i}]: {} vs {}",
                res_soa_aos[i],
                res_ref[i]
            );
        }
    }
}
