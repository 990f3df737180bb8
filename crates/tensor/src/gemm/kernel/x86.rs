//! Explicit AVX2+FMA and AVX-512 microkernels (x86_64).
//!
//! The paper's QPX kernel broadcasts one A element against a vector of
//! B and accumulates a register-resident C block with fused
//! multiply-adds; these kernels are the same dataflow in `std::arch`
//! intrinsics. Every accumulate step is one `fmadd` — a single exact
//! rounding per lane, which is precisely [`crate::scalar::Scalar::fma`]
//! — and each C element keeps its own `kk`-ascending chain, so results
//! are bit-identical to the [`super::scalar`] reference (the backend
//! contract in [`crate::gemm::backend`]).
//!
//! The micro-tile is `MR x NR = 8 x 16`, sized so that one AVX-512
//! register holds a whole f32 tile row: eight independent zmm chains,
//! one B load plus eight A broadcasts per `kk` step. Narrower
//! registers walk the 16 columns in register-width groups with the
//! group loop outermost, which leaves every element's chain intact.
//!
//! Each public kernel is a safe wrapper that asserts panel lengths and
//! runtime CPU support (a cached flag check, negligible next to the
//! `MR x NR x kc` FLOP loop) before entering the `#[target_feature]`
//! implementation. This module is inside the workspace's single
//! lint-sanctioned `unsafe` zone (`l7-unsafe-outside-kernel`).

use core::arch::x86_64::*;

use crate::gemm::{BT_COLS, MR, NR};

// The register schedules below hardcode the micro-tile shape.
const _: () = assert!(MR == 8 && NR == 16 && BT_COLS == 4);

/// AVX2 f32 accumulate: the 16 columns split into two 8-lane halves;
/// the half loop is outermost, so each element's `kk` chain is intact.
pub fn acc_f32_avx2(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    kernel_precondition!(ap.len() >= kc * MR, "acc_f32_avx2: A panel too short");
    kernel_precondition!(bp.len() >= kc * NR, "acc_f32_avx2: B panel too short");
    kernel_precondition!(
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        "avx2/fma not available"
    );
    // SAFETY: lengths and CPU support asserted above; `acc` is a
    // fixed-size MR x NR tile.
    unsafe {
        acc_f32_avx2_imp(
            kc,
            ap.as_ptr(),
            bp.as_ptr(),
            acc.as_flattened_mut().as_mut_ptr(),
        )
    }
}

// kernel-contract: ap points-to len >= kc * MR, noalias
// kernel-contract: bp points-to len >= kc * NR, noalias
// kernel-contract: acc points-to len >= MR * NR, noalias
// kernel-contract: requires target_feature(avx2, fma)
#[target_feature(enable = "avx2,fma")]
unsafe fn acc_f32_avx2_imp(kc: usize, ap: *const f32, bp: *const f32, acc: *mut f32) {
    for h in 0..2 {
        let mut r = [_mm256_setzero_ps(); MR];
        for (i, ri) in r.iter_mut().enumerate() {
            *ri = _mm256_loadu_ps(acc.add(i * NR + h * 8));
        }
        for kk in 0..kc {
            let bv = _mm256_loadu_ps(bp.add(kk * NR + h * 8));
            let a = ap.add(kk * MR);
            for (i, ri) in r.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*a.add(i));
                // One rounding per step: the scalar chain's `fma`.
                *ri = _mm256_fmadd_ps(av, bv, *ri);
            }
        }
        for (i, ri) in r.iter().enumerate() {
            _mm256_storeu_ps(acc.add(i * NR + h * 8), *ri);
        }
    }
}

/// AVX2 f64 accumulate: four 4-lane column groups.
pub fn acc_f64_avx2(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    kernel_precondition!(ap.len() >= kc * MR, "acc_f64_avx2: A panel too short");
    kernel_precondition!(bp.len() >= kc * NR, "acc_f64_avx2: B panel too short");
    kernel_precondition!(
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        "avx2/fma not available"
    );
    // SAFETY: lengths and CPU support asserted above.
    unsafe {
        acc_f64_avx2_imp(
            kc,
            ap.as_ptr(),
            bp.as_ptr(),
            acc.as_flattened_mut().as_mut_ptr(),
        )
    }
}

// kernel-contract: ap points-to len >= kc * MR, noalias
// kernel-contract: bp points-to len >= kc * NR, noalias
// kernel-contract: acc points-to len >= MR * NR, noalias
// kernel-contract: requires target_feature(avx2, fma)
#[target_feature(enable = "avx2,fma")]
unsafe fn acc_f64_avx2_imp(kc: usize, ap: *const f64, bp: *const f64, acc: *mut f64) {
    for h in 0..4 {
        let mut r = [_mm256_setzero_pd(); MR];
        for (i, ri) in r.iter_mut().enumerate() {
            *ri = _mm256_loadu_pd(acc.add(i * NR + h * 4));
        }
        for kk in 0..kc {
            let bv = _mm256_loadu_pd(bp.add(kk * NR + h * 4));
            let a = ap.add(kk * MR);
            for (i, ri) in r.iter_mut().enumerate() {
                let av = _mm256_set1_pd(*a.add(i));
                *ri = _mm256_fmadd_pd(av, bv, *ri);
            }
        }
        for (i, ri) in r.iter().enumerate() {
            _mm256_storeu_pd(acc.add(i * NR + h * 4), *ri);
        }
    }
}

/// AVX-512 f32 accumulate: one 16-lane zmm per micro-tile row — eight
/// independent chains fed by one B load and eight A broadcasts a step.
pub fn acc_f32_avx512(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    kernel_precondition!(ap.len() >= kc * MR, "acc_f32_avx512: A panel too short");
    kernel_precondition!(bp.len() >= kc * NR, "acc_f32_avx512: B panel too short");
    kernel_precondition!(is_x86_feature_detected!("avx512f"), "avx512f not available");
    // SAFETY: lengths and CPU support asserted above.
    unsafe {
        acc_f32_avx512_imp(
            kc,
            ap.as_ptr(),
            bp.as_ptr(),
            acc.as_flattened_mut().as_mut_ptr(),
        )
    }
}

// kernel-contract: ap points-to len >= kc * MR, noalias
// kernel-contract: bp points-to len >= kc * NR, noalias
// kernel-contract: acc points-to len >= MR * NR, noalias
// kernel-contract: requires target_feature(avx512f)
#[target_feature(enable = "avx512f")]
unsafe fn acc_f32_avx512_imp(kc: usize, ap: *const f32, bp: *const f32, acc: *mut f32) {
    let mut r = [_mm512_setzero_ps(); MR];
    for (i, ri) in r.iter_mut().enumerate() {
        *ri = _mm512_loadu_ps(acc.add(i * NR));
    }
    for kk in 0..kc {
        let bv = _mm512_loadu_ps(bp.add(kk * NR));
        let a = ap.add(kk * MR);
        for (i, ri) in r.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*a.add(i));
            *ri = _mm512_fmadd_ps(av, bv, *ri);
        }
    }
    for (i, ri) in r.iter().enumerate() {
        _mm512_storeu_ps(acc.add(i * NR), *ri);
    }
}

/// AVX-512 f64 accumulate: two 8-lane column halves.
pub fn acc_f64_avx512(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    kernel_precondition!(ap.len() >= kc * MR, "acc_f64_avx512: A panel too short");
    kernel_precondition!(bp.len() >= kc * NR, "acc_f64_avx512: B panel too short");
    kernel_precondition!(is_x86_feature_detected!("avx512f"), "avx512f not available");
    // SAFETY: lengths and CPU support asserted above.
    unsafe {
        acc_f64_avx512_imp(
            kc,
            ap.as_ptr(),
            bp.as_ptr(),
            acc.as_flattened_mut().as_mut_ptr(),
        )
    }
}

// kernel-contract: ap points-to len >= kc * MR, noalias
// kernel-contract: bp points-to len >= kc * NR, noalias
// kernel-contract: acc points-to len >= MR * NR, noalias
// kernel-contract: requires target_feature(avx512f)
#[target_feature(enable = "avx512f")]
unsafe fn acc_f64_avx512_imp(kc: usize, ap: *const f64, bp: *const f64, acc: *mut f64) {
    for h in 0..2 {
        let mut r = [_mm512_setzero_pd(); MR];
        for (i, ri) in r.iter_mut().enumerate() {
            *ri = _mm512_loadu_pd(acc.add(i * NR + h * 8));
        }
        for kk in 0..kc {
            let bv = _mm512_loadu_pd(bp.add(kk * NR + h * 8));
            let a = ap.add(kk * MR);
            for (i, ri) in r.iter_mut().enumerate() {
                let av = _mm512_set1_pd(*a.add(i));
                *ri = _mm512_fmadd_pd(av, bv, *ri);
            }
        }
        for (i, ri) in r.iter().enumerate() {
            _mm512_storeu_pd(acc.add(i * NR + h * 8), *ri);
        }
    }
}

/// AVX2 f32 streaming-B^T kernel: one ymm holds the `MR` accumulators
/// of a column, one register per column. A panel columns are
/// contiguous (`kk`-major packing), so each step is one A load plus
/// `BT_COLS` broadcasts feeding `BT_COLS` independent chains.
pub fn bt_f32_avx2(kc: usize, ap: &[f32], b: [&[f32]; BT_COLS], acc: &mut [[f32; MR]; BT_COLS]) {
    let [b0, b1, b2, b3] = b;
    kernel_precondition!(ap.len() >= kc * MR, "bt_f32_avx2: A panel too short");
    kernel_precondition!(b0.len() >= kc, "bt_f32_avx2: B row 0 too short");
    kernel_precondition!(b1.len() >= kc, "bt_f32_avx2: B row 1 too short");
    kernel_precondition!(b2.len() >= kc, "bt_f32_avx2: B row 2 too short");
    kernel_precondition!(b3.len() >= kc, "bt_f32_avx2: B row 3 too short");
    kernel_precondition!(
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        "avx2/fma not available"
    );
    // SAFETY: lengths and CPU support asserted above.
    unsafe {
        bt_f32_avx2_imp(
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
// kernel-contract: requires target_feature(avx2, fma)
#[target_feature(enable = "avx2,fma")]
unsafe fn bt_f32_avx2_imp(
    kc: usize,
    ap: *const f32,
    b0: *const f32,
    b1: *const f32,
    b2: *const f32,
    b3: *const f32,
    acc: *mut f32,
) {
    let mut r = [_mm256_setzero_ps(); BT_COLS];
    for (c, rc) in r.iter_mut().enumerate() {
        *rc = _mm256_loadu_ps(acc.add(c * MR));
    }
    for kk in 0..kc {
        let av = _mm256_loadu_ps(ap.add(kk * MR));
        r[0] = _mm256_fmadd_ps(av, _mm256_set1_ps(*b0.add(kk)), r[0]);
        r[1] = _mm256_fmadd_ps(av, _mm256_set1_ps(*b1.add(kk)), r[1]);
        r[2] = _mm256_fmadd_ps(av, _mm256_set1_ps(*b2.add(kk)), r[2]);
        r[3] = _mm256_fmadd_ps(av, _mm256_set1_ps(*b3.add(kk)), r[3]);
    }
    for (c, rc) in r.iter().enumerate() {
        _mm256_storeu_ps(acc.add(c * MR), *rc);
    }
}

/// AVX2 f64 streaming-B^T kernel: two 4-lane halves per column.
pub fn bt_f64_avx2(kc: usize, ap: &[f64], b: [&[f64]; BT_COLS], acc: &mut [[f64; MR]; BT_COLS]) {
    let [b0, b1, b2, b3] = b;
    kernel_precondition!(ap.len() >= kc * MR, "bt_f64_avx2: A panel too short");
    kernel_precondition!(b0.len() >= kc, "bt_f64_avx2: B row 0 too short");
    kernel_precondition!(b1.len() >= kc, "bt_f64_avx2: B row 1 too short");
    kernel_precondition!(b2.len() >= kc, "bt_f64_avx2: B row 2 too short");
    kernel_precondition!(b3.len() >= kc, "bt_f64_avx2: B row 3 too short");
    kernel_precondition!(
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        "avx2/fma not available"
    );
    // SAFETY: lengths and CPU support asserted above.
    unsafe {
        bt_f64_avx2_imp(
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
// kernel-contract: requires target_feature(avx2, fma)
#[target_feature(enable = "avx2,fma")]
unsafe fn bt_f64_avx2_imp(
    kc: usize,
    ap: *const f64,
    b0: *const f64,
    b1: *const f64,
    b2: *const f64,
    b3: *const f64,
    acc: *mut f64,
) {
    // r[2c + h]: half `h` of column `c`.
    let mut r = [_mm256_setzero_pd(); 2 * BT_COLS];
    for (q, rq) in r.iter_mut().enumerate() {
        *rq = _mm256_loadu_pd(acc.add(q * 4));
    }
    for kk in 0..kc {
        let a = ap.add(kk * MR);
        let lo = _mm256_loadu_pd(a);
        let hi = _mm256_loadu_pd(a.add(4));
        let v0 = _mm256_set1_pd(*b0.add(kk));
        r[0] = _mm256_fmadd_pd(lo, v0, r[0]);
        r[1] = _mm256_fmadd_pd(hi, v0, r[1]);
        let v1 = _mm256_set1_pd(*b1.add(kk));
        r[2] = _mm256_fmadd_pd(lo, v1, r[2]);
        r[3] = _mm256_fmadd_pd(hi, v1, r[3]);
        let v2 = _mm256_set1_pd(*b2.add(kk));
        r[4] = _mm256_fmadd_pd(lo, v2, r[4]);
        r[5] = _mm256_fmadd_pd(hi, v2, r[5]);
        let v3 = _mm256_set1_pd(*b3.add(kk));
        r[6] = _mm256_fmadd_pd(lo, v3, r[6]);
        r[7] = _mm256_fmadd_pd(hi, v3, r[7]);
    }
    for (q, rq) in r.iter().enumerate() {
        _mm256_storeu_pd(acc.add(q * 4), *rq);
    }
}

/// AVX-512 f64 streaming-B^T kernel: one zmm per column. (f32 has no
/// AVX-512 variant: one ymm already covers the `MR` accumulators of a
/// column, so the AVX-512 backend reuses the AVX2 kernel.)
pub fn bt_f64_avx512(kc: usize, ap: &[f64], b: [&[f64]; BT_COLS], acc: &mut [[f64; MR]; BT_COLS]) {
    let [b0, b1, b2, b3] = b;
    kernel_precondition!(ap.len() >= kc * MR, "bt_f64_avx512: A panel too short");
    kernel_precondition!(b0.len() >= kc, "bt_f64_avx512: B row 0 too short");
    kernel_precondition!(b1.len() >= kc, "bt_f64_avx512: B row 1 too short");
    kernel_precondition!(b2.len() >= kc, "bt_f64_avx512: B row 2 too short");
    kernel_precondition!(b3.len() >= kc, "bt_f64_avx512: B row 3 too short");
    kernel_precondition!(is_x86_feature_detected!("avx512f"), "avx512f not available");
    // SAFETY: lengths and CPU support asserted above.
    unsafe {
        bt_f64_avx512_imp(
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
// kernel-contract: requires target_feature(avx512f)
#[target_feature(enable = "avx512f")]
unsafe fn bt_f64_avx512_imp(
    kc: usize,
    ap: *const f64,
    b0: *const f64,
    b1: *const f64,
    b2: *const f64,
    b3: *const f64,
    acc: *mut f64,
) {
    let mut r = [_mm512_setzero_pd(); BT_COLS];
    for (c, rc) in r.iter_mut().enumerate() {
        *rc = _mm512_loadu_pd(acc.add(c * MR));
    }
    for kk in 0..kc {
        let av = _mm512_loadu_pd(ap.add(kk * MR));
        r[0] = _mm512_fmadd_pd(av, _mm512_set1_pd(*b0.add(kk)), r[0]);
        r[1] = _mm512_fmadd_pd(av, _mm512_set1_pd(*b1.add(kk)), r[1]);
        r[2] = _mm512_fmadd_pd(av, _mm512_set1_pd(*b2.add(kk)), r[2]);
        r[3] = _mm512_fmadd_pd(av, _mm512_set1_pd(*b3.add(kk)), r[3]);
    }
    for (c, rc) in r.iter().enumerate() {
        _mm512_storeu_pd(acc.add(c * MR), *rc);
    }
}

#[cfg(test)]
mod tests {
    use super::super::scalar;
    use super::*;

    fn f32_panels(kc: usize) -> (Vec<f32>, Vec<f32>) {
        // Non-round values so any reassociation or unfused step shows
        // up in the low bits.
        let ap = (0..kc * MR).map(|i| (i as f32).sin() * 3.7).collect();
        let bp = (0..kc * NR).map(|i| (i as f32).cos() * 1.3 - 0.4).collect();
        (ap, bp)
    }

    fn f64_panels(kc: usize) -> (Vec<f64>, Vec<f64>) {
        let ap = (0..kc * MR).map(|i| (i as f64).sin() * 3.7).collect();
        let bp = (0..kc * NR).map(|i| (i as f64).cos() * 1.3 - 0.4).collect();
        (ap, bp)
    }

    fn avx2_fma() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    #[test]
    fn avx2_acc_bitwise_matches_scalar() {
        if !avx2_fma() {
            return;
        }
        for kc in [0, 1, 3, 17, 64] {
            let (ap, bp) = f32_panels(kc);
            let mut fast = [[0.5f32; NR]; MR];
            let mut want = [[0.5f32; NR]; MR];
            acc_f32_avx2(kc, &ap, &bp, &mut fast);
            scalar::acc(kc, &ap, &bp, &mut want);
            assert_eq!(fast, want, "f32 kc={kc}");

            let (ap, bp) = f64_panels(kc);
            let mut fast = [[0.5f64; NR]; MR];
            let mut want = [[0.5f64; NR]; MR];
            acc_f64_avx2(kc, &ap, &bp, &mut fast);
            scalar::acc(kc, &ap, &bp, &mut want);
            assert_eq!(fast, want, "f64 kc={kc}");
        }
    }

    #[test]
    fn avx512_acc_bitwise_matches_scalar() {
        if !is_x86_feature_detected!("avx512f") {
            return;
        }
        for kc in [0, 1, 3, 17, 64] {
            let (ap, bp) = f32_panels(kc);
            let mut fast = [[-0.25f32; NR]; MR];
            let mut want = [[-0.25f32; NR]; MR];
            acc_f32_avx512(kc, &ap, &bp, &mut fast);
            scalar::acc(kc, &ap, &bp, &mut want);
            assert_eq!(fast, want, "f32 kc={kc}");

            let (ap, bp) = f64_panels(kc);
            let mut fast = [[-0.25f64; NR]; MR];
            let mut want = [[-0.25f64; NR]; MR];
            acc_f64_avx512(kc, &ap, &bp, &mut fast);
            scalar::acc(kc, &ap, &bp, &mut want);
            assert_eq!(fast, want, "f64 kc={kc}");
        }
    }

    #[test]
    fn bt_kernels_bitwise_match_scalar() {
        if !avx2_fma() {
            return;
        }
        for kc in [0, 1, 5, 33] {
            let (ap, _) = f32_panels(kc.max(1));
            let rows: Vec<Vec<f32>> = (0..BT_COLS)
                .map(|c| (0..kc).map(|i| ((i + 7 * c) as f32 * 0.9).tan()).collect())
                .collect();
            let b: [&[f32]; BT_COLS] = std::array::from_fn(|c| rows[c].as_slice());
            let mut fast = [[1.0f32; MR]; BT_COLS];
            let mut want = [[1.0f32; MR]; BT_COLS];
            bt_f32_avx2(kc, &ap, b, &mut fast);
            scalar::bt(kc, &ap, b, &mut want);
            assert_eq!(fast, want, "f32 kc={kc}");

            let (ap, _) = f64_panels(kc.max(1));
            let rows: Vec<Vec<f64>> = (0..BT_COLS)
                .map(|c| (0..kc).map(|i| ((i + 7 * c) as f64 * 0.9).tan()).collect())
                .collect();
            let b: [&[f64]; BT_COLS] = std::array::from_fn(|c| rows[c].as_slice());
            let mut fast = [[1.0f64; MR]; BT_COLS];
            let mut want = [[1.0f64; MR]; BT_COLS];
            bt_f64_avx2(kc, &ap, b, &mut fast);
            scalar::bt(kc, &ap, b, &mut want);
            assert_eq!(fast, want, "f64 kc={kc}");
            if is_x86_feature_detected!("avx512f") {
                let mut fast = [[1.0f64; MR]; BT_COLS];
                bt_f64_avx512(kc, &ap, b, &mut fast);
                assert_eq!(fast, want, "f64 avx512 kc={kc}");
            }
        }
    }
}
