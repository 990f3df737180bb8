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
//! ([`Merge`]: multiply, then add, each rounded — never fused). A C
//! row is sliced to the group's live columns and moved through the
//! masked loads and stores of [`mem`], so a ragged edge tile reads and
//! writes exactly its live corner and a full tile runs the same code
//! with every lane live.
//!
//! Every kernel is a safe `#[target_feature]` fn over slices that
//! takes its ISA token ([`Avx2`], [`Avx512`]) first and is compiled
//! with exactly that token's features (`avx2_kernel!`,
//! `avx512_kernel!`). The panels are
//! walked as fixed-size rows ([`super::steps`]), so no index in a `kk`
//! loop is checked at run time, and a panel or C tile shorter than the
//! call needs panics. [`mem`] holds the only `unsafe` blocks.

use core::arch::x86_64::*;

use super::{rows, steps};
use crate::gemm::backend::Merge;
use crate::gemm::dispatch::{avx2_kernel, avx512_kernel, Avx2, Avx512};
use crate::gemm::{BT_COLS, MR, NR};

mod mem;
use mem::{avx2, avx512};

// The register schedules below hardcode the micro-tile shape.
const _: () = assert!(MR == 8 && NR == 32 && BT_COLS == 4);

avx2_kernel! {
    /// AVX2 f32 tile: four 8-lane column groups, eight row chains each.
    #[allow(clippy::too_many_arguments)]
    pub fn tile_f32_avx2(
        _: Avx2,
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
        assert!(mr_eff <= MR && nr_eff <= NR, "tile_f32_avx2: tile overrun");
        let va = _mm256_set1_ps(alpha);
        for g in 0..NR / 8 {
            if g * 8 >= nr_eff {
                break; // Columns past the edge: no chain to run.
            }
            let mut r = [_mm256_setzero_ps(); MR];
            for (a, b) in steps(kc, ap, bp) {
                let bv = avx2::load_f32(&b.as_chunks().0[g]);
                for (ri, &ai) in r.iter_mut().zip(a) {
                    // One rounding per step: the scalar chain's `fma`.
                    *ri = _mm256_fmadd_ps(_mm256_set1_ps(ai), bv, *ri);
                }
            }
            let live = (nr_eff - g * 8).min(8);
            for (i, &ri) in r.iter().enumerate().take(mr_eff) {
                let row = &mut c[i * ldc + g * 8..][..live];
                let s = _mm256_mul_ps(va, ri);
                let v = match merge {
                    Merge::Overwrite => s,
                    Merge::Scale(beta) => _mm256_add_ps(
                        s,
                        _mm256_mul_ps(_mm256_set1_ps(beta), avx2::load_masked_f32(row)),
                    ),
                    Merge::Accumulate => _mm256_add_ps(s, avx2::load_masked_f32(row)),
                };
                avx2::store_masked_f32(row, v);
            }
        }
    }
}

avx2_kernel! {
    /// AVX2 f64 tile: eight 4-lane column groups.
    #[allow(clippy::too_many_arguments)]
    pub fn tile_f64_avx2(
        _: Avx2,
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
        assert!(mr_eff <= MR && nr_eff <= NR, "tile_f64_avx2: tile overrun");
        let va = _mm256_set1_pd(alpha);
        for g in 0..NR / 4 {
            if g * 4 >= nr_eff {
                break; // Columns past the edge: no chain to run.
            }
            let mut r = [_mm256_setzero_pd(); MR];
            for (a, b) in steps(kc, ap, bp) {
                let bv = avx2::load_f64(&b.as_chunks().0[g]);
                for (ri, &ai) in r.iter_mut().zip(a) {
                    *ri = _mm256_fmadd_pd(_mm256_set1_pd(ai), bv, *ri);
                }
            }
            let live = (nr_eff - g * 4).min(4);
            for (i, &ri) in r.iter().enumerate().take(mr_eff) {
                let row = &mut c[i * ldc + g * 4..][..live];
                let s = _mm256_mul_pd(va, ri);
                let v = match merge {
                    Merge::Overwrite => s,
                    Merge::Scale(beta) => _mm256_add_pd(
                        s,
                        _mm256_mul_pd(_mm256_set1_pd(beta), avx2::load_masked_f64(row)),
                    ),
                    Merge::Accumulate => _mm256_add_pd(s, avx2::load_masked_f64(row)),
                };
                avx2::store_masked_f64(row, v);
            }
        }
    }
}

avx512_kernel! {
    /// AVX-512 f32 tile: two zmm per tile row — sixteen independent chains
    /// fed by two B loads and eight A broadcasts a step.
    #[allow(clippy::too_many_arguments)]
    pub fn tile_f32_avx512(
        _: Avx512,
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
        assert!(
            mr_eff <= MR && nr_eff <= NR,
            "tile_f32_avx512: tile overrun"
        );
        // r[i] = the two zmm halves of tile row i.
        let mut r = [[_mm512_setzero_ps(); 2]; MR];
        for (a, b) in steps(kc, ap, bp) {
            let (halves, _) = b.as_chunks();
            let b0 = avx512::load_f32(&halves[0]);
            let b1 = avx512::load_f32(&halves[1]);
            for (ri, &ai) in r.iter_mut().zip(a) {
                let av = _mm512_set1_ps(ai);
                ri[0] = _mm512_fmadd_ps(av, b0, ri[0]);
                ri[1] = _mm512_fmadd_ps(av, b1, ri[1]);
            }
        }
        let va = _mm512_set1_ps(alpha);
        for g in 0..NR / 16 {
            if g * 16 >= nr_eff {
                break; // Columns past the edge: nothing to merge.
            }
            let live = (nr_eff - g * 16).min(16);
            for (i, ri) in r.iter().enumerate().take(mr_eff) {
                let row = &mut c[i * ldc + g * 16..][..live];
                let s = _mm512_mul_ps(va, ri[g]);
                let v = match merge {
                    Merge::Overwrite => s,
                    Merge::Scale(beta) => _mm512_add_ps(
                        s,
                        _mm512_mul_ps(_mm512_set1_ps(beta), avx512::load_masked_f32(row)),
                    ),
                    Merge::Accumulate => _mm512_add_ps(s, avx512::load_masked_f32(row)),
                };
                avx512::store_masked_f32(row, v);
            }
        }
    }
}

avx512_kernel! {
    /// AVX-512 f64 tile: four 8-lane column groups.
    #[allow(clippy::too_many_arguments)]
    pub fn tile_f64_avx512(
        _: Avx512,
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
        assert!(
            mr_eff <= MR && nr_eff <= NR,
            "tile_f64_avx512: tile overrun"
        );
        let va = _mm512_set1_pd(alpha);
        for g in 0..NR / 8 {
            if g * 8 >= nr_eff {
                break; // Columns past the edge: no chain to run.
            }
            let mut r = [_mm512_setzero_pd(); MR];
            for (a, b) in steps(kc, ap, bp) {
                let bv = avx512::load_f64(&b.as_chunks().0[g]);
                for (ri, &ai) in r.iter_mut().zip(a) {
                    *ri = _mm512_fmadd_pd(_mm512_set1_pd(ai), bv, *ri);
                }
            }
            let live = (nr_eff - g * 8).min(8);
            for (i, &ri) in r.iter().enumerate().take(mr_eff) {
                let row = &mut c[i * ldc + g * 8..][..live];
                let s = _mm512_mul_pd(va, ri);
                let v = match merge {
                    Merge::Overwrite => s,
                    Merge::Scale(beta) => _mm512_add_pd(
                        s,
                        _mm512_mul_pd(_mm512_set1_pd(beta), avx512::load_masked_f64(row)),
                    ),
                    Merge::Accumulate => _mm512_add_pd(s, avx512::load_masked_f64(row)),
                };
                avx512::store_masked_f64(row, v);
            }
        }
    }
}

avx2_kernel! {
    /// AVX2 f32 streaming-B^T kernel: one ymm holds the `MR` accumulators
    /// of a column, one register per column. A panel columns are
    /// contiguous (`kk`-major packing), so each step is one A load plus
    /// `BT_COLS` broadcasts feeding `BT_COLS` independent chains.
    pub fn bt_f32_avx2(
        _: Avx2,
        kc: usize,
        ap: &[f32],
        b: [&[f32]; BT_COLS],
        acc: &mut [[f32; MR]; BT_COLS],
    ) {
        let [b0, b1, b2, b3] = b;
        let (b0, b1, b2, b3) = (&b0[..kc], &b1[..kc], &b2[..kc], &b3[..kc]);
        let steps = rows::<_, MR>(ap, kc).iter().zip(b0).zip(b1).zip(b2).zip(b3);
        let mut r = [_mm256_setzero_ps(); BT_COLS];
        for (rc, col) in r.iter_mut().zip(acc.iter()) {
            *rc = avx2::load_f32(col);
        }
        for ((((a, &x0), &x1), &x2), &x3) in steps {
            let av = avx2::load_f32(a);
            r[0] = _mm256_fmadd_ps(av, _mm256_set1_ps(x0), r[0]);
            r[1] = _mm256_fmadd_ps(av, _mm256_set1_ps(x1), r[1]);
            r[2] = _mm256_fmadd_ps(av, _mm256_set1_ps(x2), r[2]);
            r[3] = _mm256_fmadd_ps(av, _mm256_set1_ps(x3), r[3]);
        }
        for (col, &rc) in acc.iter_mut().zip(&r) {
            avx2::store_f32(col, rc);
        }
    }
}

avx2_kernel! {
    /// AVX2 f64 streaming-B^T kernel: two 4-lane halves per column.
    pub fn bt_f64_avx2(
        _: Avx2,
        kc: usize,
        ap: &[f64],
        b: [&[f64]; BT_COLS],
        acc: &mut [[f64; MR]; BT_COLS],
    ) {
        let [b0, b1, b2, b3] = b;
        let (b0, b1, b2, b3) = (&b0[..kc], &b1[..kc], &b2[..kc], &b3[..kc]);
        let steps = rows::<_, MR>(ap, kc).iter().zip(b0).zip(b1).zip(b2).zip(b3);
        // r[2c + h]: half `h` of column `c`.
        let mut r = [_mm256_setzero_pd(); 2 * BT_COLS];
        for (rq, q) in r.iter_mut().zip(acc.as_flattened().as_chunks().0) {
            *rq = avx2::load_f64(q);
        }
        for ((((a, &x0), &x1), &x2), &x3) in steps {
            let (halves, _) = a.as_chunks();
            let lo = avx2::load_f64(&halves[0]);
            let hi = avx2::load_f64(&halves[1]);
            let v0 = _mm256_set1_pd(x0);
            r[0] = _mm256_fmadd_pd(lo, v0, r[0]);
            r[1] = _mm256_fmadd_pd(hi, v0, r[1]);
            let v1 = _mm256_set1_pd(x1);
            r[2] = _mm256_fmadd_pd(lo, v1, r[2]);
            r[3] = _mm256_fmadd_pd(hi, v1, r[3]);
            let v2 = _mm256_set1_pd(x2);
            r[4] = _mm256_fmadd_pd(lo, v2, r[4]);
            r[5] = _mm256_fmadd_pd(hi, v2, r[5]);
            let v3 = _mm256_set1_pd(x3);
            r[6] = _mm256_fmadd_pd(lo, v3, r[6]);
            r[7] = _mm256_fmadd_pd(hi, v3, r[7]);
        }
        let (quarters, _) = acc.as_flattened_mut().as_chunks_mut();
        for (q, &rq) in quarters.iter_mut().zip(&r) {
            avx2::store_f64(q, rq);
        }
    }
}

avx512_kernel! {
    /// AVX-512 f64 streaming-B^T kernel: one zmm per column. (f32 has no
    /// AVX-512 variant: one ymm already covers the `MR` accumulators of a
    /// column, so the AVX-512 backend reuses the AVX2 kernel.)
    pub fn bt_f64_avx512(
        _: Avx512,
        kc: usize,
        ap: &[f64],
        b: [&[f64]; BT_COLS],
        acc: &mut [[f64; MR]; BT_COLS],
    ) {
        let [b0, b1, b2, b3] = b;
        let (b0, b1, b2, b3) = (&b0[..kc], &b1[..kc], &b2[..kc], &b3[..kc]);
        let steps = rows::<_, MR>(ap, kc).iter().zip(b0).zip(b1).zip(b2).zip(b3);
        let mut r = [_mm512_setzero_pd(); BT_COLS];
        for (rc, col) in r.iter_mut().zip(acc.iter()) {
            *rc = avx512::load_f64(col);
        }
        for ((((a, &x0), &x1), &x2), &x3) in steps {
            let av = avx512::load_f64(a);
            r[0] = _mm512_fmadd_pd(av, _mm512_set1_pd(x0), r[0]);
            r[1] = _mm512_fmadd_pd(av, _mm512_set1_pd(x1), r[1]);
            r[2] = _mm512_fmadd_pd(av, _mm512_set1_pd(x2), r[2]);
            r[3] = _mm512_fmadd_pd(av, _mm512_set1_pd(x3), r[3]);
        }
        for (col, &rc) in acc.iter_mut().zip(&r) {
            avx512::store_f64(col, rc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::scalar;
    use crate::gemm::backend::{backend_for, ComputeBackend, Isa, Merge, TileFn};
    use crate::gemm::{BT_COLS, MR, NR};

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

    /// Every merge mode on a full tile and on a ragged corner of a
    /// wider C, against the scalar reference.
    fn tile_matches_scalar<T: crate::scalar::Scalar>(
        kernel: TileFn<T>,
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

    fn tiles_match_scalar(isa: Isa) {
        let Ok(backend) = backend_for(isa) else {
            return;
        };
        for kc in [0, 1, 3, 17, 64] {
            let (ap, bp) = f32_panels(kc);
            tile_matches_scalar::<f32>(backend.tile_f32(), &ap, &bp, kc);
            let (ap, bp) = f64_panels(kc);
            tile_matches_scalar::<f64>(backend.tile_f64(), &ap, &bp, kc);
        }
    }

    #[test]
    fn avx2_tiles_bitwise_match_scalar() {
        tiles_match_scalar(Isa::Avx2);
    }

    #[test]
    fn avx512_tiles_bitwise_match_scalar() {
        tiles_match_scalar(Isa::Avx512);
    }

    #[test]
    fn bt_kernels_bitwise_match_scalar() {
        let simd: Vec<&dyn ComputeBackend> = [Isa::Avx2, Isa::Avx512]
            .into_iter()
            .filter_map(|isa| backend_for(isa).ok())
            .collect();
        for kc in [0, 1, 5, 33] {
            let (ap, _) = f32_panels(kc.max(1));
            let rows: Vec<Vec<f32>> = (0..BT_COLS)
                .map(|c| (0..kc).map(|i| ((i + 7 * c) as f32 * 0.9).tan()).collect())
                .collect();
            let b: [&[f32]; BT_COLS] = std::array::from_fn(|c| rows[c].as_slice());
            let mut want = [[1.0f32; MR]; BT_COLS];
            scalar::bt(kc, &ap, b, &mut want);
            for backend in &simd {
                let mut fast = [[1.0f32; MR]; BT_COLS];
                backend.bt_f32()(kc, &ap, b, &mut fast);
                assert_eq!(fast, want, "f32 {backend:?} kc={kc}");
            }

            let (ap, _) = f64_panels(kc.max(1));
            let rows: Vec<Vec<f64>> = (0..BT_COLS)
                .map(|c| (0..kc).map(|i| ((i + 7 * c) as f64 * 0.9).tan()).collect())
                .collect();
            let b: [&[f64]; BT_COLS] = std::array::from_fn(|c| rows[c].as_slice());
            let mut want = [[1.0f64; MR]; BT_COLS];
            scalar::bt(kc, &ap, b, &mut want);
            for backend in &simd {
                let mut fast = [[1.0f64; MR]; BT_COLS];
                backend.bt_f64()(kc, &ap, b, &mut fast);
                assert_eq!(fast, want, "f64 {backend:?} kc={kc}");
            }
        }
    }
}
