//! Reference kernels.
//!
//! These loops define the bit-exactness contract every SIMD backend
//! must reproduce: each C element accumulates along its own chain of
//! exactly-rounded fused multiply-adds ([`Scalar::fma`]) with `kk`
//! ascending, and a finished tile lands in C through the unfused
//! [`Merge`] arithmetic ([`crate::gemm::backend`] module docs).
//!
//! Each loop exists in two instantiations that produce the same bits:
//!
//! * [`tile`] / [`bt`] — portable. On a target whose baseline has no
//!   FMA instruction (`x86-64`: SSE2 only) every `fma` is a call into
//!   libm, exactly rounded but ~60x slower than the hardware
//!   instruction; aarch64 lowers it to `fmadd` natively.
//! * [`tile_fma`] / [`bt_fma`] (x86_64) — the same loop
//!   (`#[inline(always)]`) inlined into a safe
//!   `#[target_feature(enable = "fma")]` fn that takes the
//!   [`Fma`] token, where `fma` is one `vfmadd` and LLVM
//!   autovectorizes the `j` lanes. This is what keeps the
//!   forced-scalar backend fast enough to be the determinism oracle of
//!   whole training runs; [`crate::gemm::backend`] picks it from
//!   CPUID.

use super::{rows, steps};
use crate::gemm::backend::Merge;
#[cfg(target_arch = "x86_64")]
use crate::gemm::dispatch::{fma_kernel, Fma};
use crate::gemm::{BT_COLS, MR, NR};
use crate::scalar::Scalar;

/// Reference micro-tile kernel ([`crate::gemm::backend::TileFn`]
/// shape), portable instantiation.
///
/// `Σ[i][j] = sum_kk ap(kk, i) * bp(kk, j)` over the whole tile, both
/// panels walked front to back with unit stride (this is what packing
/// buys us), then the live `mr_eff x nr_eff` corner of C takes
/// `merge(α, Σ, C)`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn tile<T: Scalar>(
    kc: usize,
    ap: &[T],
    bp: &[T],
    alpha: T,
    merge: Merge<T>,
    c: &mut [T],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    assert!(mr_eff <= MR && nr_eff <= NR, "tile: tile overrun");
    let mut sums = [[T::ZERO; NR]; MR];
    for (a_row, b_row) in steps(kc, ap, bp) {
        for i in 0..MR {
            let ai = a_row[i];
            let row = &mut sums[i];
            for j in 0..NR {
                row[j] = ai.fma(b_row[j], row[j]);
            }
        }
    }
    for (i, row) in sums.iter().enumerate().take(mr_eff) {
        let dst = &mut c[i * ldc..i * ldc + nr_eff];
        match merge {
            Merge::Overwrite => {
                for (d, &s) in dst.iter_mut().zip(row) {
                    *d = alpha * s;
                }
            }
            Merge::Scale(beta) => {
                for (d, &s) in dst.iter_mut().zip(row) {
                    *d = alpha.mul_add(s, beta * *d);
                }
            }
            Merge::Accumulate => {
                for (d, &s) in dst.iter_mut().zip(row) {
                    *d = alpha.mul_add(s, *d);
                }
            }
        }
    }
}

/// [`crate::gemm::backend::AccFn`] view of [`tile`]: the whole tile in
/// overwrite mode, `acc` standing in for C.
pub(crate) fn acc<T: Scalar>(kc: usize, ap: &[T], bp: &[T], acc: &mut [[T; NR]; MR]) {
    tile(
        kc,
        ap,
        bp,
        T::ONE,
        Merge::Overwrite,
        acc.as_flattened_mut(),
        NR,
        MR,
        NR,
    );
}

/// Reference streaming-B^T kernel ([`crate::gemm::backend::BtFn`]
/// shape), portable instantiation.
///
/// `acc[c][i] += sum_kk ap(kk, i) * b[c][kk]` — `BT_COLS` output
/// columns of an `R`-row micro-panel (`MR` in the tables), each against
/// its own contiguous B row segment. The columns are independent
/// chains, which is what hides the FMA latency a single column would
/// serialize on.
#[inline(always)]
pub(crate) fn bt<T: Scalar, const R: usize>(
    kc: usize,
    ap: &[T],
    b: [&[T]; BT_COLS],
    acc: &mut [[T; R]; BT_COLS],
) {
    let [b0, b1, b2, b3] = b;
    let (b0, b1, b2, b3) = (&b0[..kc], &b1[..kc], &b2[..kc], &b3[..kc]);
    let steps = rows::<_, R>(ap, kc).iter().zip(b0).zip(b1).zip(b2).zip(b3);
    for ((((a_row, &x0), &x1), &x2), &x3) in steps {
        for (col, bv) in acc.iter_mut().zip([x0, x1, x2, x3]) {
            for i in 0..R {
                col[i] = a_row[i].fma(bv, col[i]);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
fma_kernel! {
    /// [`tile`] compiled with the hardware FMA instruction enabled.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tile_fma<T: Scalar>(
        _: Fma,
        kc: usize,
        ap: &[T],
        bp: &[T],
        alpha: T,
        merge: Merge<T>,
        c: &mut [T],
        ldc: usize,
        mr_eff: usize,
        nr_eff: usize,
    ) {
        // Inlined here, so its `fma` steps compile to `vfmadd`.
        tile(kc, ap, bp, alpha, merge, c, ldc, mr_eff, nr_eff);
    }
}

#[cfg(target_arch = "x86_64")]
fma_kernel! {
    /// [`bt`] compiled with the hardware FMA instruction enabled.
    pub(crate) fn bt_fma<T: Scalar>(
        _: Fma,
        kc: usize,
        ap: &[T],
        b: [&[T]; BT_COLS],
        acc: &mut [[T; MR]; BT_COLS],
    ) {
        bt(kc, ap, b, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acc_matches_by_hand() {
        // kc = 2, ap(kk,i) = i+1 for kk=0 and 2(i+1) for kk=1,
        // bp(kk,j) = j for kk=0 and 1 for kk=1.
        let kc = 2;
        let mut ap = vec![0.0f32; kc * MR];
        let mut bp = vec![0.0f32; kc * NR];
        for i in 0..MR {
            ap[i] = (i + 1) as f32;
            ap[MR + i] = 2.0 * (i + 1) as f32;
        }
        for j in 0..NR {
            bp[j] = j as f32;
            bp[NR + j] = 1.0;
        }
        // Overwrite mode: whatever the tile held is gone.
        let mut out = [[f32::NAN; NR]; MR];
        acc(kc, &ap, &bp, &mut out);
        for (i, row) in out.iter().enumerate() {
            for (j, &got) in row.iter().enumerate() {
                let want = (i + 1) as f32 * j as f32 + 2.0 * (i + 1) as f32;
                assert_eq!(got, want, "({i},{j})");
            }
        }
    }

    #[test]
    fn bt_matches_by_hand() {
        let kc = 3;
        let mut ap = vec![0.0f32; kc * MR];
        for kk in 0..kc {
            for i in 0..MR {
                ap[kk * MR + i] = (kk * MR + i) as f32;
            }
        }
        let brow = [1.0f32, -2.0, 0.5];
        let twice = brow.map(|v| 2.0 * v);
        let mut out = [[0.0f32; MR]; BT_COLS];
        bt(kc, &ap, [&brow, &twice, &brow, &twice], &mut out);
        for (c, col) in out.iter().enumerate() {
            let scale = if c % 2 == 0 { 1.0 } else { 2.0 };
            for (i, &v) in col.iter().enumerate() {
                let want = i as f32 - 2.0 * (MR + i) as f32 + 0.5 * (2 * MR + i) as f32;
                assert_eq!(v, scale * want, "column {c} row {i}");
            }
        }
    }

    /// Packed panels with `ap(kk, i) = i + 1` and `bp(kk, j) = 1` where
    /// `kk == j % kc`, so `Σ[i][j] = i + 1`.
    fn panels(kc: usize) -> (Vec<f32>, Vec<f32>) {
        let ap = (0..kc * MR).map(|x| (x % MR + 1) as f32).collect();
        let bp = (0..kc * NR)
            .map(|x| f32::from(u8::from(x / NR == (x % NR) % kc)))
            .collect();
        (ap, bp)
    }

    #[test]
    fn overwrite_ignores_nan_in_c() {
        let (ap, bp) = panels(4);
        let mut c = vec![f32::NAN; MR * NR];
        tile(4, &ap, &bp, 1.0, Merge::Overwrite, &mut c, NR, MR, NR);
        for (x, &v) in c.iter().enumerate() {
            assert_eq!(v, (x / NR + 1) as f32, "element {x}");
        }
    }

    #[test]
    fn scale_and_accumulate_merge_unfused() {
        let (ap, bp) = panels(1);
        let mut c = vec![4.0f32; MR * NR];
        tile(1, &ap, &bp, 1.0, Merge::Scale(0.5), &mut c, NR, MR, NR);
        // c = 1 * (i + 1) + 0.5 * 4
        assert_eq!(c[0], 1.0 + 2.0);
        assert_eq!(c[NR], 2.0 + 2.0);
        tile(1, &ap, &bp, 2.0, Merge::Accumulate, &mut c, NR, MR, NR);
        // c += 2 * (i + 1)
        assert_eq!(c[0], 3.0 + 2.0);
        assert_eq!(c[(MR - 1) * NR], (MR + 2) as f32 + 2.0 * MR as f32);
    }

    #[test]
    fn edge_tile_leaves_outside_untouched() {
        let (ap, bp) = panels(3);
        let ldc = NR + 2; // wider C stripe
        let mut c = vec![-7.0f32; (MR + 1) * ldc];
        let (mr_eff, nr_eff) = (MR - 3, NR - 2);
        tile(
            3,
            &ap,
            &bp,
            1.0,
            Merge::Overwrite,
            &mut c,
            ldc,
            mr_eff,
            nr_eff,
        );
        for i in 0..MR + 1 {
            for j in 0..ldc {
                let v = c[i * ldc + j];
                if i < mr_eff && j < nr_eff {
                    assert_eq!(v, (i + 1) as f32);
                } else {
                    assert_eq!(v, -7.0, "({i},{j}) was clobbered");
                }
            }
        }
    }

    #[test]
    fn kc_zero_applies_the_merge_to_a_zero_sum() {
        let mut a = [[1.0f32; NR]; MR];
        acc(0, &[], &[], &mut a);
        assert!(a.iter().all(|r| r.iter().all(|&v| v == 0.0)));
        let mut c = vec![3.0f32; MR * NR];
        tile(0, &[], &[], 1.0, Merge::Scale(0.5), &mut c, NR, MR, NR);
        assert!(c.iter().all(|&v| v == 1.5));
        let mut col = [[2.0f64; MR]; BT_COLS];
        bt(0, &[], [&[]; BT_COLS], &mut col);
        assert!(col.iter().all(|c| c.iter().all(|&v| v == 2.0)));
    }

    #[test]
    fn chain_is_fused() {
        // (1 + 2^-13)(1 - 2^-13) = 1 - 2^-26 is not an f32: a chain
        // that rounds the product before adding the -1 of the first
        // step (-1 * 1) gives 0.
        let (a, b) = (1.0f32 + 2f32.powi(-13), 1.0f32 - 2f32.powi(-13));
        let ap: Vec<f32> = [[-1.0; MR], [a; MR]].concat();
        let bp: Vec<f32> = [[1.0; NR], [b; NR]].concat();
        let mut out = [[0.0f32; NR]; MR];
        acc(2, &ap, &bp, &mut out);
        assert!(out
            .iter()
            .all(|r| r.iter().all(|&v| v == -(2f32.powi(-26)))));
        let mut col = [[-1.0f32; MR]; BT_COLS];
        bt(1, &[a; MR], [&[b]; BT_COLS], &mut col);
        assert!(col
            .iter()
            .all(|c| c.iter().all(|&v| v == -(2f32.powi(-26)))));
    }

    #[cfg(target_arch = "x86_64")]
    fn fma_matches_portable<T: Scalar>(t: Fma) {
        // The FMA table's entries; `backend`'s tests check that they
        // are not the portable loops and that the scalar backend runs
        // them.
        let fma = crate::gemm::dispatch::Kernels::scalar_fma(t);
        let (fast_tile, fast_bt) = (T::tile_kernel(&fma), T::bt_kernel(&fma));
        for kc in [0usize, 1, 3, 17, 64] {
            // Non-round values so a differently rounded step shows up.
            let ap: Vec<T> = (0..kc * MR)
                .map(|i| T::from_f64((i as f64).sin() * 3.7))
                .collect();
            let bp: Vec<T> = (0..kc * NR)
                .map(|i| T::from_f64((i as f64).cos() * 1.3 - 0.4))
                .collect();
            let c0: Vec<T> = (0..MR * NR).map(|i| T::from_f64(i as f64 * 0.3)).collect();
            for merge in [
                Merge::Overwrite,
                Merge::Scale(T::from_f64(-0.7)),
                Merge::Accumulate,
            ] {
                let alpha = T::from_f64(1.1);
                let (mut fast, mut want) = (c0.clone(), c0.clone());
                fast_tile(kc, &ap, &bp, alpha, merge, &mut fast, NR, MR - 1, NR - 3);
                tile(kc, &ap, &bp, alpha, merge, &mut want, NR, MR - 1, NR - 3);
                assert_eq!(fast, want, "tile kc={kc} {merge:?}");
            }

            let b: [&[T]; BT_COLS] = std::array::from_fn(|c| &bp[c * kc..(c + 1) * kc]);
            let mut fast = [[T::ONE; MR]; BT_COLS];
            let mut want = fast;
            fast_bt(kc, &ap, b, &mut fast);
            bt(kc, &ap, b, &mut want);
            assert_eq!(fast, want, "bt kc={kc}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fma_instantiation_bitwise_matches_portable() {
        if let Some(t) = Fma::detect() {
            fma_matches_portable::<f32>(t);
            fma_matches_portable::<f64>(t);
        }
    }
}
