//! Explicit NEON micro-tile kernels (aarch64).
//!
//! Same dataflow as [`super::x86`] at 128-bit width: broadcast one A
//! element against a vector of B columns and accumulate the `MR x NR`
//! C tile in registers, walking the 32 columns in register-width
//! groups (`NR / 4` for f32, `NR / 2` for f64; group loop outermost,
//! so every element's `kk` chain is intact, and groups wholly past an
//! edge tile's last column are skipped). Each step is one `vfmaq`
//! (FMLA) — a single exact rounding per lane, i.e.
//! [`crate::scalar::Scalar::fma`] — so results are bit-identical to the
//! [`super::scalar`] reference, the bit-exactness contract in
//! [`crate::gemm::backend`].
//!
//! Each finished group merges into C with the [`Merge`] arithmetic:
//! `α·Σ` in the register, then the `β`-scale or accumulate per lane.
//! NEON has no masked load or store, so the merge walks each group's
//! live lanes one element at a time and an edge tile touches only its
//! live corner. NEON is baseline on aarch64, so no runtime detection is
//! needed; the wrappers still assert panel and C-tile lengths before
//! the raw-pointer loop.

use core::arch::aarch64::*;

use super::lanes;
use crate::gemm::backend::Merge;
use crate::gemm::{BT_COLS, MR, NR};

// The register schedules below hardcode the micro-tile shape.
const _: () = assert!(MR == 8 && NR == 32 && BT_COLS == 4);

/// NEON f32 tile: eight 4-lane column groups.
#[allow(clippy::too_many_arguments)]
pub fn tile_f32_neon(
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    alpha: f32,
    merge: Merge<f32>,
    c: &mut [f32],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    kernel_precondition!(ap.len() >= kc * MR, "tile_f32_neon: A panel too short");
    kernel_precondition!(bp.len() >= kc * NR, "tile_f32_neon: B panel too short");
    kernel_precondition!(
        (1..=MR).contains(&mr_eff) && nr_eff <= NR,
        "tile_f32_neon: tile overrun"
    );
    kernel_precondition!(
        c.len() >= (mr_eff - 1) * ldc + nr_eff,
        "tile_f32_neon: C tile too short"
    );
    // SAFETY: lengths asserted above; NEON is baseline on aarch64.
    unsafe {
        tile_f32_neon_imp(
            kc,
            ap.as_ptr(),
            bp.as_ptr(),
            alpha,
            merge,
            c.as_mut_ptr(),
            ldc,
            mr_eff,
            nr_eff,
        )
    }
}

// kernel-contract: ap points-to len >= kc * MR, noalias
// kernel-contract: bp points-to len >= kc * NR, noalias
// kernel-contract: c points-to len >= (mr_eff - 1) * ldc + nr_eff, noalias
// kernel-contract: requires target_feature(neon), baseline(aarch64)
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "neon")]
unsafe fn tile_f32_neon_imp(
    kc: usize,
    ap: *const f32,
    bp: *const f32,
    alpha: f32,
    merge: Merge<f32>,
    c: *mut f32,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    for g in 0..NR / 4 {
        if g * 4 >= nr_eff {
            break; // Columns past the edge: no chain to run.
        }
        let mut r = [vdupq_n_f32(0.0); MR];
        for kk in 0..kc {
            let bv = vld1q_f32(bp.add(kk * NR + g * 4));
            let a = ap.add(kk * MR);
            for (i, ri) in r.iter_mut().enumerate() {
                let av = vdupq_n_f32(*a.add(i));
                // One rounding per step: the scalar chain's `fma`.
                *ri = vfmaq_f32(*ri, av, bv);
            }
        }
        for (i, &ri) in r.iter().enumerate().take(mr_eff) {
            // α·Σ rounded per lane, then merged lane by lane.
            let s = core::mem::transmute::<float32x4_t, [f32; 4]>(vmulq_n_f32(ri, alpha));
            for (j, &sj) in s.iter().enumerate().take(lanes(nr_eff, g * 4)) {
                let p = c.add(i * ldc + g * 4 + j);
                *p = match merge {
                    Merge::Overwrite => sj,
                    Merge::Scale(beta) => sj + beta * *p,
                    Merge::Accumulate => sj + *p,
                };
            }
        }
    }
}

/// [`crate::gemm::backend::AccFn`] view of [`tile_f32_neon`]: the whole
/// tile in overwrite mode, `acc` standing in for C.
pub fn acc_f32_neon(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    tile_f32_neon(
        kc,
        ap,
        bp,
        1.0,
        Merge::Overwrite,
        acc.as_flattened_mut(),
        NR,
        MR,
        NR,
    );
}

/// NEON f64 tile: sixteen 2-lane column groups.
#[allow(clippy::too_many_arguments)]
pub fn tile_f64_neon(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    alpha: f64,
    merge: Merge<f64>,
    c: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    kernel_precondition!(ap.len() >= kc * MR, "tile_f64_neon: A panel too short");
    kernel_precondition!(bp.len() >= kc * NR, "tile_f64_neon: B panel too short");
    kernel_precondition!(
        (1..=MR).contains(&mr_eff) && nr_eff <= NR,
        "tile_f64_neon: tile overrun"
    );
    kernel_precondition!(
        c.len() >= (mr_eff - 1) * ldc + nr_eff,
        "tile_f64_neon: C tile too short"
    );
    // SAFETY: lengths asserted above; NEON is baseline on aarch64.
    unsafe {
        tile_f64_neon_imp(
            kc,
            ap.as_ptr(),
            bp.as_ptr(),
            alpha,
            merge,
            c.as_mut_ptr(),
            ldc,
            mr_eff,
            nr_eff,
        )
    }
}

// kernel-contract: ap points-to len >= kc * MR, noalias
// kernel-contract: bp points-to len >= kc * NR, noalias
// kernel-contract: c points-to len >= (mr_eff - 1) * ldc + nr_eff, noalias
// kernel-contract: requires target_feature(neon), baseline(aarch64)
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "neon")]
unsafe fn tile_f64_neon_imp(
    kc: usize,
    ap: *const f64,
    bp: *const f64,
    alpha: f64,
    merge: Merge<f64>,
    c: *mut f64,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    for g in 0..NR / 2 {
        if g * 2 >= nr_eff {
            break; // Columns past the edge: no chain to run.
        }
        let mut r = [vdupq_n_f64(0.0); MR];
        for kk in 0..kc {
            let bv = vld1q_f64(bp.add(kk * NR + g * 2));
            let a = ap.add(kk * MR);
            for (i, ri) in r.iter_mut().enumerate() {
                let av = vdupq_n_f64(*a.add(i));
                // One rounding per step: the scalar chain's `fma`.
                *ri = vfmaq_f64(*ri, av, bv);
            }
        }
        for (i, &ri) in r.iter().enumerate().take(mr_eff) {
            // α·Σ rounded per lane, then merged lane by lane.
            let s = core::mem::transmute::<float64x2_t, [f64; 2]>(vmulq_n_f64(ri, alpha));
            for (j, &sj) in s.iter().enumerate().take(lanes(nr_eff, g * 2)) {
                let p = c.add(i * ldc + g * 2 + j);
                *p = match merge {
                    Merge::Overwrite => sj,
                    Merge::Scale(beta) => sj + beta * *p,
                    Merge::Accumulate => sj + *p,
                };
            }
        }
    }
}

/// NEON f32 streaming-B^T kernel: two 4-lane halves per column,
/// `BT_COLS` independent column chains.
pub fn bt_f32_neon(kc: usize, ap: &[f32], b: [&[f32]; BT_COLS], acc: &mut [[f32; MR]; BT_COLS]) {
    let [b0, b1, b2, b3] = b;
    kernel_precondition!(ap.len() >= kc * MR, "bt_f32_neon: A panel too short");
    kernel_precondition!(b0.len() >= kc, "bt_f32_neon: B row 0 too short");
    kernel_precondition!(b1.len() >= kc, "bt_f32_neon: B row 1 too short");
    kernel_precondition!(b2.len() >= kc, "bt_f32_neon: B row 2 too short");
    kernel_precondition!(b3.len() >= kc, "bt_f32_neon: B row 3 too short");
    // SAFETY: lengths asserted above; NEON is baseline on aarch64.
    unsafe {
        bt_f32_neon_imp(
            kc,
            ap.as_ptr(),
            b0.as_ptr(),
            b1.as_ptr(),
            b2.as_ptr(),
            b3.as_ptr(),
            acc.as_flattened_mut().as_mut_ptr(),
        )
    }
}

// The B rows are read-only and may coincide (the driver repeats a row
// to fill a ragged last group), so they carry no `noalias`.
// kernel-contract: ap points-to len >= kc * MR, noalias
// kernel-contract: b0 points-to len >= kc
// kernel-contract: b1 points-to len >= kc
// kernel-contract: b2 points-to len >= kc
// kernel-contract: b3 points-to len >= kc
// kernel-contract: acc points-to len >= BT_COLS * MR, noalias
// kernel-contract: requires target_feature(neon), baseline(aarch64)
#[target_feature(enable = "neon")]
unsafe fn bt_f32_neon_imp(
    kc: usize,
    ap: *const f32,
    b0: *const f32,
    b1: *const f32,
    b2: *const f32,
    b3: *const f32,
    acc: *mut f32,
) {
    // r[2c + h]: half `h` of column `c`.
    let mut r = [vdupq_n_f32(0.0); 2 * BT_COLS];
    for (q, rq) in r.iter_mut().enumerate() {
        *rq = vld1q_f32(acc.add(q * 4));
    }
    for kk in 0..kc {
        let a = ap.add(kk * MR);
        let lo = vld1q_f32(a);
        let hi = vld1q_f32(a.add(4));
        let v0 = vdupq_n_f32(*b0.add(kk));
        r[0] = vfmaq_f32(r[0], lo, v0);
        r[1] = vfmaq_f32(r[1], hi, v0);
        let v1 = vdupq_n_f32(*b1.add(kk));
        r[2] = vfmaq_f32(r[2], lo, v1);
        r[3] = vfmaq_f32(r[3], hi, v1);
        let v2 = vdupq_n_f32(*b2.add(kk));
        r[4] = vfmaq_f32(r[4], lo, v2);
        r[5] = vfmaq_f32(r[5], hi, v2);
        let v3 = vdupq_n_f32(*b3.add(kk));
        r[6] = vfmaq_f32(r[6], lo, v3);
        r[7] = vfmaq_f32(r[7], hi, v3);
    }
    for (q, rq) in r.iter().enumerate() {
        vst1q_f32(acc.add(q * 4), *rq);
    }
}

/// NEON f64 streaming-B^T kernel: four 2-lane quarters per column.
pub fn bt_f64_neon(kc: usize, ap: &[f64], b: [&[f64]; BT_COLS], acc: &mut [[f64; MR]; BT_COLS]) {
    let [b0, b1, b2, b3] = b;
    kernel_precondition!(ap.len() >= kc * MR, "bt_f64_neon: A panel too short");
    kernel_precondition!(b0.len() >= kc, "bt_f64_neon: B row 0 too short");
    kernel_precondition!(b1.len() >= kc, "bt_f64_neon: B row 1 too short");
    kernel_precondition!(b2.len() >= kc, "bt_f64_neon: B row 2 too short");
    kernel_precondition!(b3.len() >= kc, "bt_f64_neon: B row 3 too short");
    // SAFETY: lengths asserted above; NEON is baseline on aarch64.
    unsafe {
        bt_f64_neon_imp(
            kc,
            ap.as_ptr(),
            b0.as_ptr(),
            b1.as_ptr(),
            b2.as_ptr(),
            b3.as_ptr(),
            acc.as_flattened_mut().as_mut_ptr(),
        )
    }
}

// kernel-contract: ap points-to len >= kc * MR, noalias
// kernel-contract: b0 points-to len >= kc
// kernel-contract: b1 points-to len >= kc
// kernel-contract: b2 points-to len >= kc
// kernel-contract: b3 points-to len >= kc
// kernel-contract: acc points-to len >= BT_COLS * MR, noalias
// kernel-contract: requires target_feature(neon), baseline(aarch64)
#[target_feature(enable = "neon")]
unsafe fn bt_f64_neon_imp(
    kc: usize,
    ap: *const f64,
    b0: *const f64,
    b1: *const f64,
    b2: *const f64,
    b3: *const f64,
    acc: *mut f64,
) {
    // r[4c + q]: quarter `q` of column `c`.
    let mut r = [vdupq_n_f64(0.0); 4 * BT_COLS];
    for (q, rq) in r.iter_mut().enumerate() {
        *rq = vld1q_f64(acc.add(q * 2));
    }
    for kk in 0..kc {
        let a = ap.add(kk * MR);
        let bv = [
            vdupq_n_f64(*b0.add(kk)),
            vdupq_n_f64(*b1.add(kk)),
            vdupq_n_f64(*b2.add(kk)),
            vdupq_n_f64(*b3.add(kk)),
        ];
        for q in 0..4 {
            let av = vld1q_f64(a.add(q * 2));
            for (c, &bc) in bv.iter().enumerate() {
                r[4 * c + q] = vfmaq_f64(r[4 * c + q], av, bc);
            }
        }
    }
    for (q, rq) in r.iter().enumerate() {
        vst1q_f64(acc.add(q * 2), *rq);
    }
}

#[cfg(test)]
mod tests {
    use super::super::scalar;
    use super::*;

    #[test]
    fn neon_kernels_bitwise_match_scalar() {
        for kc in [0usize, 1, 3, 17] {
            let ap32: Vec<f32> = (0..kc.max(1) * MR)
                .map(|i| (i as f32).sin() * 3.7)
                .collect();
            let bp32: Vec<f32> = (0..kc * NR).map(|i| (i as f32).cos() * 1.3 - 0.4).collect();
            let ap64: Vec<f64> = ap32.iter().map(|&v| f64::from(v)).collect();
            let bp64: Vec<f64> = bp32.iter().map(|&v| f64::from(v)).collect();
            let ldc = NR + 3;
            for (mr_eff, nr_eff) in [(MR, NR), (MR - 3, NR - 7), (1, 9)] {
                for merge in [Merge::Overwrite, Merge::Scale(0.5), Merge::Accumulate] {
                    let mut fast = vec![0.25f32; MR * ldc];
                    let mut want = fast.clone();
                    tile_f32_neon(kc, &ap32, &bp32, 1.5, merge, &mut fast, ldc, mr_eff, nr_eff);
                    scalar::tile(kc, &ap32, &bp32, 1.5, merge, &mut want, ldc, mr_eff, nr_eff);
                    assert_eq!(fast, want, "f32 tile kc={kc} {mr_eff}x{nr_eff}");

                    let merge = match merge {
                        Merge::Scale(b) => Merge::Scale(f64::from(b)),
                        Merge::Overwrite => Merge::Overwrite,
                        Merge::Accumulate => Merge::Accumulate,
                    };
                    let mut fast = vec![0.25f64; MR * ldc];
                    let mut want = fast.clone();
                    tile_f64_neon(kc, &ap64, &bp64, 1.5, merge, &mut fast, ldc, mr_eff, nr_eff);
                    scalar::tile(kc, &ap64, &bp64, 1.5, merge, &mut want, ldc, mr_eff, nr_eff);
                    assert_eq!(fast, want, "f64 tile kc={kc} {mr_eff}x{nr_eff}");
                }
            }

            let rows32: Vec<Vec<f32>> = (0..BT_COLS)
                .map(|c| (0..kc).map(|i| ((i + 7 * c) as f32 * 0.9).tan()).collect())
                .collect();
            let b32: [&[f32]; BT_COLS] = std::array::from_fn(|c| rows32[c].as_slice());
            let mut fast = [[1.0f32; MR]; BT_COLS];
            let mut want = [[1.0f32; MR]; BT_COLS];
            bt_f32_neon(kc, &ap32, b32, &mut fast);
            scalar::bt(kc, &ap32, b32, &mut want);
            assert_eq!(fast, want, "f32 bt kc={kc}");

            let rows64: Vec<Vec<f64>> = (0..BT_COLS)
                .map(|c| (0..kc).map(|i| ((i + 7 * c) as f64 * 0.9).tan()).collect())
                .collect();
            let b64: [&[f64]; BT_COLS] = std::array::from_fn(|c| rows64[c].as_slice());
            let mut fast = [[1.0f64; MR]; BT_COLS];
            let mut want = [[1.0f64; MR]; BT_COLS];
            bt_f64_neon(kc, &ap64, b64, &mut fast);
            scalar::bt(kc, &ap64, b64, &mut want);
            assert_eq!(fast, want, "f64 bt kc={kc}");
        }
    }
}
