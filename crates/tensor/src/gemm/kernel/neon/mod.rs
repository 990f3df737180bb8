//! Explicit NEON micro-tile kernels (aarch64).
//!
//! Same dataflow as the x86 kernels at 128-bit width: broadcast one A
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
//! `α·Σ` in the register, then the `β`-scale or accumulate, each
//! product and sum rounded on its own (`vmulq`, `vaddq`; never fused).
//! A C row is sliced to the group's live columns and moved through
//! [`mem`]'s masked pair, which NEON implements lane by lane, so an
//! edge tile touches only its live corner.
//!
//! Every kernel is a safe `#[target_feature]` fn over slices that
//! takes the [`Neon`] token first; [`mem`] holds the only `unsafe`
//! blocks.

use core::arch::aarch64::*;

use super::{rows, steps};
use crate::gemm::backend::Merge;
use crate::gemm::dispatch::{neon_kernel, Neon};
use crate::gemm::{BT_COLS, MR, NR};

mod mem;

// The register schedules below hardcode the micro-tile shape.
const _: () = assert!(MR == 8 && NR == 32 && BT_COLS == 4);

neon_kernel! {
    /// NEON f32 tile: eight 4-lane column groups.
    #[allow(clippy::too_many_arguments)]
    pub fn tile_f32_neon(
        _: Neon,
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
        assert!(mr_eff <= MR && nr_eff <= NR, "tile_f32_neon: tile overrun");
        for g in 0..NR / 4 {
            if g * 4 >= nr_eff {
                break; // Columns past the edge: no chain to run.
            }
            let mut r = [vdupq_n_f32(0.0); MR];
            for (a, b) in steps(kc, ap, bp) {
                let bv = mem::load_f32(&b.as_chunks().0[g]);
                for (ri, &ai) in r.iter_mut().zip(a) {
                    // One rounding per step: the scalar chain's `fma`.
                    *ri = vfmaq_f32(*ri, vdupq_n_f32(ai), bv);
                }
            }
            let live = (nr_eff - g * 4).min(4);
            for (i, &ri) in r.iter().enumerate().take(mr_eff) {
                let row = &mut c[i * ldc + g * 4..][..live];
                let s = vmulq_n_f32(ri, alpha);
                let v = match merge {
                    Merge::Overwrite => s,
                    Merge::Scale(beta) => vaddq_f32(s, vmulq_n_f32(mem::load_masked_f32(row), beta)),
                    Merge::Accumulate => vaddq_f32(s, mem::load_masked_f32(row)),
                };
                mem::store_masked_f32(row, v);
            }
        }
    }
}

neon_kernel! {
    /// NEON f64 tile: sixteen 2-lane column groups.
    #[allow(clippy::too_many_arguments)]
    pub fn tile_f64_neon(
        _: Neon,
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
        assert!(mr_eff <= MR && nr_eff <= NR, "tile_f64_neon: tile overrun");
        for g in 0..NR / 2 {
            if g * 2 >= nr_eff {
                break; // Columns past the edge: no chain to run.
            }
            let mut r = [vdupq_n_f64(0.0); MR];
            for (a, b) in steps(kc, ap, bp) {
                let bv = mem::load_f64(&b.as_chunks().0[g]);
                for (ri, &ai) in r.iter_mut().zip(a) {
                    // One rounding per step: the scalar chain's `fma`.
                    *ri = vfmaq_f64(*ri, vdupq_n_f64(ai), bv);
                }
            }
            let live = (nr_eff - g * 2).min(2);
            for (i, &ri) in r.iter().enumerate().take(mr_eff) {
                let row = &mut c[i * ldc + g * 2..][..live];
                let s = vmulq_n_f64(ri, alpha);
                let v = match merge {
                    Merge::Overwrite => s,
                    Merge::Scale(beta) => vaddq_f64(s, vmulq_n_f64(mem::load_masked_f64(row), beta)),
                    Merge::Accumulate => vaddq_f64(s, mem::load_masked_f64(row)),
                };
                mem::store_masked_f64(row, v);
            }
        }
    }
}

neon_kernel! {
    /// NEON f32 streaming-B^T kernel: two 4-lane halves per column,
    /// `BT_COLS` independent column chains.
    pub fn bt_f32_neon(
        _: Neon,
        kc: usize,
        ap: &[f32],
        b: [&[f32]; BT_COLS],
        acc: &mut [[f32; MR]; BT_COLS],
    ) {
        let [b0, b1, b2, b3] = b;
        let (b0, b1, b2, b3) = (&b0[..kc], &b1[..kc], &b2[..kc], &b3[..kc]);
        let steps = rows::<_, MR>(ap, kc).iter().zip(b0).zip(b1).zip(b2).zip(b3);
        // r[2c + h]: half `h` of column `c`.
        let mut r = [vdupq_n_f32(0.0); 2 * BT_COLS];
        for (rq, q) in r.iter_mut().zip(acc.as_flattened().as_chunks().0) {
            *rq = mem::load_f32(q);
        }
        for ((((a, &x0), &x1), &x2), &x3) in steps {
            let (halves, _) = a.as_chunks();
            let lo = mem::load_f32(&halves[0]);
            let hi = mem::load_f32(&halves[1]);
            let v0 = vdupq_n_f32(x0);
            r[0] = vfmaq_f32(r[0], lo, v0);
            r[1] = vfmaq_f32(r[1], hi, v0);
            let v1 = vdupq_n_f32(x1);
            r[2] = vfmaq_f32(r[2], lo, v1);
            r[3] = vfmaq_f32(r[3], hi, v1);
            let v2 = vdupq_n_f32(x2);
            r[4] = vfmaq_f32(r[4], lo, v2);
            r[5] = vfmaq_f32(r[5], hi, v2);
            let v3 = vdupq_n_f32(x3);
            r[6] = vfmaq_f32(r[6], lo, v3);
            r[7] = vfmaq_f32(r[7], hi, v3);
        }
        let (quarters, _) = acc.as_flattened_mut().as_chunks_mut();
        for (q, &rq) in quarters.iter_mut().zip(&r) {
            mem::store_f32(q, rq);
        }
    }
}

neon_kernel! {
    /// NEON f64 streaming-B^T kernel: four 2-lane quarters per column.
    pub fn bt_f64_neon(
        _: Neon,
        kc: usize,
        ap: &[f64],
        b: [&[f64]; BT_COLS],
        acc: &mut [[f64; MR]; BT_COLS],
    ) {
        let [b0, b1, b2, b3] = b;
        let (b0, b1, b2, b3) = (&b0[..kc], &b1[..kc], &b2[..kc], &b3[..kc]);
        let steps = rows::<_, MR>(ap, kc).iter().zip(b0).zip(b1).zip(b2).zip(b3);
        // r[4c + q]: quarter `q` of column `c`.
        let mut r = [vdupq_n_f64(0.0); 4 * BT_COLS];
        for (rq, q) in r.iter_mut().zip(acc.as_flattened().as_chunks().0) {
            *rq = mem::load_f64(q);
        }
        for ((((a, &x0), &x1), &x2), &x3) in steps {
            let bv = [
                vdupq_n_f64(x0),
                vdupq_n_f64(x1),
                vdupq_n_f64(x2),
                vdupq_n_f64(x3),
            ];
            for (q, pair) in a.as_chunks().0.iter().enumerate() {
                let av = mem::load_f64(pair);
                for (c, &bc) in bv.iter().enumerate() {
                    r[4 * c + q] = vfmaq_f64(r[4 * c + q], av, bc);
                }
            }
        }
        let (pairs, _) = acc.as_flattened_mut().as_chunks_mut();
        for (q, &rq) in pairs.iter_mut().zip(&r) {
            mem::store_f64(q, rq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::scalar;
    use crate::gemm::backend::{backend_for, Isa, Merge};
    use crate::gemm::{BT_COLS, MR, NR};

    #[test]
    fn neon_kernels_bitwise_match_scalar() {
        let neon = backend_for(Isa::Neon).expect("NEON is baseline on aarch64");
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
                    neon.tile_f32()(kc, &ap32, &bp32, 1.5, merge, &mut fast, ldc, mr_eff, nr_eff);
                    scalar::tile(kc, &ap32, &bp32, 1.5, merge, &mut want, ldc, mr_eff, nr_eff);
                    assert_eq!(fast, want, "f32 tile kc={kc} {mr_eff}x{nr_eff}");

                    let merge = match merge {
                        Merge::Scale(b) => Merge::Scale(f64::from(b)),
                        Merge::Overwrite => Merge::Overwrite,
                        Merge::Accumulate => Merge::Accumulate,
                    };
                    let mut fast = vec![0.25f64; MR * ldc];
                    let mut want = fast.clone();
                    neon.tile_f64()(kc, &ap64, &bp64, 1.5, merge, &mut fast, ldc, mr_eff, nr_eff);
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
            neon.bt_f32()(kc, &ap32, b32, &mut fast);
            scalar::bt(kc, &ap32, b32, &mut want);
            assert_eq!(fast, want, "f32 bt kc={kc}");

            let rows64: Vec<Vec<f64>> = (0..BT_COLS)
                .map(|c| (0..kc).map(|i| ((i + 7 * c) as f64 * 0.9).tan()).collect())
                .collect();
            let b64: [&[f64]; BT_COLS] = std::array::from_fn(|c| rows64[c].as_slice());
            let mut fast = [[1.0f64; MR]; BT_COLS];
            let mut want = [[1.0f64; MR]; BT_COLS];
            neon.bt_f64()(kc, &ap64, b64, &mut fast);
            scalar::bt(kc, &ap64, b64, &mut want);
            assert_eq!(fast, want, "f64 bt kc={kc}");
        }
    }
}
