//! Explicit AVX2+FMA and AVX-512 micro-tile kernels (x86_64).
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
//! The micro-tile is `MR x NR = 8 x 32`: on AVX-512 each f32 tile row
//! is two zmm accumulators, so a `kk` step is two B loads and eight A
//! broadcasts feeding sixteen independent FMA chains. Narrower
//! registers (and f64) walk the 32 columns in register-width groups
//! with the group loop outermost, which leaves every element's chain
//! intact and skips the groups of an edge tile that lie wholly past
//! its last column.
//!
//! Each kernel finishes by merging `α·Σ` into C from the registers
//! ([`Merge`]: multiply, then add, each rounded — never fused). The C
//! accesses are masked to the tile's live columns (`__mmask16` /
//! `__mmask8` on AVX-512, `vmaskmov` sign-bit masks on AVX2), so a
//! ragged edge tile reads and writes exactly its live corner and a
//! full tile runs the same code with every lane live.
//!
//! Each public kernel is a safe wrapper that asserts panel and C-tile
//! lengths and runtime CPU support (a cached flag check, negligible
//! next to the `MR x NR x kc` FLOP loop) before entering the
//! `#[target_feature]` implementation. This module is inside the
//! workspace's single lint-sanctioned `unsafe` zone
//! (`l7-unsafe-outside-kernel`).

use core::arch::x86_64::*;

use super::lanes;
use crate::gemm::backend::Merge;
use crate::gemm::{BT_COLS, MR, NR};

// The register schedules below hardcode the micro-tile shape.
const _: () = assert!(MR == 8 && NR == 32 && BT_COLS == 4);

/// The first `live` lanes of a 16-lane mask (all of them from 16 up).
fn mask16(live: usize) -> __mmask16 {
    if live >= 16 {
        u16::MAX
    } else {
        (1u16 << live) - 1
    }
}

/// The first `live` lanes of an 8-lane mask (all of them from 8 up).
fn mask8(live: usize) -> __mmask8 {
    if live >= 8 {
        u8::MAX
    } else {
        (1u8 << live) - 1
    }
}

/// AVX2 f32 tile: four 8-lane column groups, eight row chains each.
#[allow(clippy::too_many_arguments)]
pub fn tile_f32_avx2(
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
    kernel_precondition!(ap.len() >= kc * MR, "tile_f32_avx2: A panel too short");
    kernel_precondition!(bp.len() >= kc * NR, "tile_f32_avx2: B panel too short");
    kernel_precondition!(
        (1..=MR).contains(&mr_eff) && nr_eff <= NR,
        "tile_f32_avx2: tile overrun"
    );
    kernel_precondition!(
        c.len() >= (mr_eff - 1) * ldc + nr_eff,
        "tile_f32_avx2: C tile too short"
    );
    kernel_precondition!(
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        "avx2/fma not available"
    );
    // SAFETY: lengths and CPU support asserted above.
    unsafe {
        tile_f32_avx2_imp(
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
// kernel-contract: requires target_feature(avx2, fma)
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_f32_avx2_imp(
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
    // Lane `j` of a group mask is live (sign bit set) when `j` is below
    // the group's live column count.
    let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let va = _mm256_set1_ps(alpha);
    for g in 0..NR / 8 {
        if g * 8 >= nr_eff {
            break; // Columns past the edge: no chain to run.
        }
        let mut r = [_mm256_setzero_ps(); MR];
        for kk in 0..kc {
            let bv = _mm256_loadu_ps(bp.add(kk * NR + g * 8));
            let a = ap.add(kk * MR);
            for (i, ri) in r.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*a.add(i));
                // One rounding per step: the scalar chain's `fma`.
                *ri = _mm256_fmadd_ps(av, bv, *ri);
            }
        }
        let m = _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes(nr_eff, g * 8) as i32), iota);
        for (i, &ri) in r.iter().enumerate().take(mr_eff) {
            let p = c.add(i * ldc + g * 8);
            let s = _mm256_mul_ps(va, ri);
            let v = match merge {
                Merge::Overwrite => s,
                Merge::Scale(beta) => _mm256_add_ps(
                    s,
                    _mm256_mul_ps(_mm256_set1_ps(beta), _mm256_maskload_ps(p, m)),
                ),
                Merge::Accumulate => _mm256_add_ps(s, _mm256_maskload_ps(p, m)),
            };
            _mm256_maskstore_ps(p, m, v);
        }
    }
}

/// [`crate::gemm::backend::AccFn`] view of [`tile_f32_avx2`]: the whole
/// tile in overwrite mode, `acc` standing in for C.
pub fn acc_f32_avx2(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    tile_f32_avx2(
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

/// AVX2 f64 tile: eight 4-lane column groups.
#[allow(clippy::too_many_arguments)]
pub fn tile_f64_avx2(
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
    kernel_precondition!(ap.len() >= kc * MR, "tile_f64_avx2: A panel too short");
    kernel_precondition!(bp.len() >= kc * NR, "tile_f64_avx2: B panel too short");
    kernel_precondition!(
        (1..=MR).contains(&mr_eff) && nr_eff <= NR,
        "tile_f64_avx2: tile overrun"
    );
    kernel_precondition!(
        c.len() >= (mr_eff - 1) * ldc + nr_eff,
        "tile_f64_avx2: C tile too short"
    );
    kernel_precondition!(
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        "avx2/fma not available"
    );
    // SAFETY: lengths and CPU support asserted above.
    unsafe {
        tile_f64_avx2_imp(
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
// kernel-contract: requires target_feature(avx2, fma)
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn tile_f64_avx2_imp(
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
    // Lane `j` of a group mask is live (sign bit set) when `j` is below
    // the group's live column count.
    let iota = _mm256_setr_epi64x(0, 1, 2, 3);
    let va = _mm256_set1_pd(alpha);
    for g in 0..NR / 4 {
        if g * 4 >= nr_eff {
            break; // Columns past the edge: no chain to run.
        }
        let mut r = [_mm256_setzero_pd(); MR];
        for kk in 0..kc {
            let bv = _mm256_loadu_pd(bp.add(kk * NR + g * 4));
            let a = ap.add(kk * MR);
            for (i, ri) in r.iter_mut().enumerate() {
                let av = _mm256_set1_pd(*a.add(i));
                *ri = _mm256_fmadd_pd(av, bv, *ri);
            }
        }
        let m = _mm256_cmpgt_epi64(_mm256_set1_epi64x(lanes(nr_eff, g * 4) as i64), iota);
        for (i, &ri) in r.iter().enumerate().take(mr_eff) {
            let p = c.add(i * ldc + g * 4);
            let s = _mm256_mul_pd(va, ri);
            let v = match merge {
                Merge::Overwrite => s,
                Merge::Scale(beta) => _mm256_add_pd(
                    s,
                    _mm256_mul_pd(_mm256_set1_pd(beta), _mm256_maskload_pd(p, m)),
                ),
                Merge::Accumulate => _mm256_add_pd(s, _mm256_maskload_pd(p, m)),
            };
            _mm256_maskstore_pd(p, m, v);
        }
    }
}

/// AVX-512 f32 tile: two zmm per tile row — sixteen independent chains
/// fed by two B loads and eight A broadcasts a step.
#[allow(clippy::too_many_arguments)]
pub fn tile_f32_avx512(
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
    kernel_precondition!(ap.len() >= kc * MR, "tile_f32_avx512: A panel too short");
    kernel_precondition!(bp.len() >= kc * NR, "tile_f32_avx512: B panel too short");
    kernel_precondition!(
        (1..=MR).contains(&mr_eff) && nr_eff <= NR,
        "tile_f32_avx512: tile overrun"
    );
    kernel_precondition!(
        c.len() >= (mr_eff - 1) * ldc + nr_eff,
        "tile_f32_avx512: C tile too short"
    );
    kernel_precondition!(is_x86_feature_detected!("avx512f"), "avx512f not available");
    // SAFETY: lengths and CPU support asserted above.
    unsafe {
        tile_f32_avx512_imp(
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
// kernel-contract: requires target_feature(avx512f)
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn tile_f32_avx512_imp(
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
    // r[i] = the two zmm halves of tile row i.
    let mut r = [[_mm512_setzero_ps(); 2]; MR];
    for kk in 0..kc {
        let b0 = _mm512_loadu_ps(bp.add(kk * NR));
        let b1 = _mm512_loadu_ps(bp.add(kk * NR + 16));
        let a = ap.add(kk * MR);
        for (i, ri) in r.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*a.add(i));
            ri[0] = _mm512_fmadd_ps(av, b0, ri[0]);
            ri[1] = _mm512_fmadd_ps(av, b1, ri[1]);
        }
    }
    let va = _mm512_set1_ps(alpha);
    for g in 0..NR / 16 {
        let m = mask16(lanes(nr_eff, g * 16));
        for (i, ri) in r.iter().enumerate().take(mr_eff) {
            let p = c.add(i * ldc + g * 16);
            let s = _mm512_mul_ps(va, ri[g]);
            let v = match merge {
                Merge::Overwrite => s,
                Merge::Scale(beta) => _mm512_add_ps(
                    s,
                    _mm512_mul_ps(_mm512_set1_ps(beta), _mm512_maskz_loadu_ps(m, p)),
                ),
                Merge::Accumulate => _mm512_add_ps(s, _mm512_maskz_loadu_ps(m, p)),
            };
            _mm512_mask_storeu_ps(p, m, v);
        }
    }
}

/// [`crate::gemm::backend::AccFn`] view of [`tile_f32_avx512`]: the whole
/// tile in overwrite mode, `acc` standing in for C.
pub fn acc_f32_avx512(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    tile_f32_avx512(
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

/// AVX-512 f64 tile: four 8-lane column groups.
#[allow(clippy::too_many_arguments)]
pub fn tile_f64_avx512(
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
    kernel_precondition!(ap.len() >= kc * MR, "tile_f64_avx512: A panel too short");
    kernel_precondition!(bp.len() >= kc * NR, "tile_f64_avx512: B panel too short");
    kernel_precondition!(
        (1..=MR).contains(&mr_eff) && nr_eff <= NR,
        "tile_f64_avx512: tile overrun"
    );
    kernel_precondition!(
        c.len() >= (mr_eff - 1) * ldc + nr_eff,
        "tile_f64_avx512: C tile too short"
    );
    kernel_precondition!(is_x86_feature_detected!("avx512f"), "avx512f not available");
    // SAFETY: lengths and CPU support asserted above.
    unsafe {
        tile_f64_avx512_imp(
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
// kernel-contract: requires target_feature(avx512f)
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f")]
unsafe fn tile_f64_avx512_imp(
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
    let va = _mm512_set1_pd(alpha);
    for g in 0..NR / 8 {
        if g * 8 >= nr_eff {
            break; // Columns past the edge: no chain to run.
        }
        let mut r = [_mm512_setzero_pd(); MR];
        for kk in 0..kc {
            let bv = _mm512_loadu_pd(bp.add(kk * NR + g * 8));
            let a = ap.add(kk * MR);
            for (i, ri) in r.iter_mut().enumerate() {
                let av = _mm512_set1_pd(*a.add(i));
                *ri = _mm512_fmadd_pd(av, bv, *ri);
            }
        }
        let m = mask8(lanes(nr_eff, g * 8));
        for (i, &ri) in r.iter().enumerate().take(mr_eff) {
            let p = c.add(i * ldc + g * 8);
            let s = _mm512_mul_pd(va, ri);
            let v = match merge {
                Merge::Overwrite => s,
                Merge::Scale(beta) => _mm512_add_pd(
                    s,
                    _mm512_mul_pd(_mm512_set1_pd(beta), _mm512_maskz_loadu_pd(m, p)),
                ),
                Merge::Accumulate => _mm512_add_pd(s, _mm512_maskz_loadu_pd(m, p)),
            };
            _mm512_mask_storeu_pd(p, m, v);
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

    /// Every merge mode on a full tile and on a ragged corner of a
    /// wider C, against the scalar reference.
    fn tile_matches_scalar<T: crate::scalar::Scalar>(
        kernel: crate::gemm::backend::TileFn<T>,
        ap: &[T],
        bp: &[T],
        kc: usize,
    ) {
        let ldc = NR + 3;
        let c0: Vec<T> = (0..MR * ldc)
            .map(|i| T::from_f64(i as f64 * 0.37 - 5.0))
            .collect();
        let merges = [
            Merge::Overwrite,
            Merge::Scale(T::from_f64(0.5)),
            Merge::Accumulate,
        ];
        for merge in merges {
            for (mr_eff, nr_eff) in [(MR, NR), (MR - 3, NR - 7), (1, 9)] {
                let alpha = T::from_f64(-1.5);
                let (mut fast, mut want) = (c0.clone(), c0.clone());
                kernel(kc, ap, bp, alpha, merge, &mut fast, ldc, mr_eff, nr_eff);
                scalar::tile(kc, ap, bp, alpha, merge, &mut want, ldc, mr_eff, nr_eff);
                assert_eq!(fast, want, "kc={kc} {merge:?} {mr_eff}x{nr_eff}");
            }
        }
    }

    #[test]
    fn avx2_tiles_bitwise_match_scalar() {
        if !avx2_fma() {
            return;
        }
        for kc in [0, 1, 3, 17, 64] {
            let (ap, bp) = f32_panels(kc);
            tile_matches_scalar::<f32>(tile_f32_avx2, &ap, &bp, kc);
            let (ap, bp) = f64_panels(kc);
            tile_matches_scalar::<f64>(tile_f64_avx2, &ap, &bp, kc);
        }
    }

    #[test]
    fn avx512_tiles_bitwise_match_scalar() {
        if !is_x86_feature_detected!("avx512f") {
            return;
        }
        for kc in [0, 1, 3, 17, 64] {
            let (ap, bp) = f32_panels(kc);
            tile_matches_scalar::<f32>(tile_f32_avx512, &ap, &bp, kc);
            let (ap, bp) = f64_panels(kc);
            tile_matches_scalar::<f64>(tile_f64_avx512, &ap, &bp, kc);
        }
    }

    #[test]
    fn masks_cover_exactly_the_live_lanes() {
        assert_eq!(mask16(0), 0);
        assert_eq!(mask16(3), 0b111);
        assert_eq!(mask16(16), u16::MAX);
        assert_eq!(mask16(40), u16::MAX);
        assert_eq!(mask8(7), 0x7f);
        assert_eq!(mask8(9), u8::MAX);
        assert_eq!(lanes(17, 16), 1);
        assert_eq!(lanes(15, 16), 0);
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
