//! Reference kernels.
//!
//! These loops define the bit-exactness contract every SIMD backend
//! must reproduce: each C element accumulates along its own chain of
//! exactly-rounded fused multiply-adds ([`Scalar::fma`]) with `kk`
//! ascending ([`crate::gemm::backend`] module docs).
//!
//! Each loop exists in two instantiations that produce the same bits:
//!
//! * [`acc`] / [`bt`] — portable. On a target whose baseline has no
//!   FMA instruction (`x86-64`: SSE2 only) every `fma` is a call into
//!   libm, exactly rounded but ~60x slower than the hardware
//!   instruction; aarch64 lowers it to `fmadd` natively.
//! * [`acc_fma`] / [`bt_fma`] (x86_64) — the same loop
//!   (`#[inline(always)]`) inlined into a `#[target_feature(enable = "fma")]` function, where `fma`
//!   is one `vfmadd` and LLVM autovectorizes the `j` lanes. This is
//!   what keeps the forced-scalar backend fast enough to be the
//!   determinism oracle of whole training runs;
//!   [`crate::gemm::backend`] picks it from CPUID.

use crate::scalar::Scalar;

use crate::gemm::{BT_COLS, MR, NR};

/// Reference packed-panel accumulate kernel
/// ([`crate::gemm::backend::AccFn`] shape), portable instantiation.
///
/// `acc[i][j] += sum_kk ap(kk, i) * bp(kk, j)`; both panels are walked
/// front to back with unit stride (this is what packing buys us).
#[inline(always)]
pub fn acc<T: Scalar>(kc: usize, ap: &[T], bp: &[T], acc: &mut [[T; NR]; MR]) {
    for (a_row, b_row) in ap[..kc * MR]
        .chunks_exact(MR)
        .zip(bp[..kc * NR].chunks_exact(NR))
    {
        for i in 0..MR {
            let ai = a_row[i];
            let row = &mut acc[i];
            for j in 0..NR {
                row[j] = ai.fma(b_row[j], row[j]);
            }
        }
    }
}

/// Reference streaming-B^T kernel ([`crate::gemm::backend::BtFn`]
/// shape), portable instantiation.
///
/// `acc[c][i] += sum_kk ap(kk, i) * b[c][kk]` — `BT_COLS` output
/// columns of an `MR`-row micro-panel, each against its own contiguous
/// B row segment. The columns are independent chains, which is what
/// hides the FMA latency a single column would serialize on.
#[inline(always)]
pub fn bt<T: Scalar>(kc: usize, ap: &[T], b: [&[T]; BT_COLS], acc: &mut [[T; MR]; BT_COLS]) {
    let b = b.map(|row| &row[..kc]);
    for (kk, a_row) in ap[..kc * MR].chunks_exact(MR).enumerate() {
        for (col, row) in acc.iter_mut().zip(b) {
            let bv = row[kk];
            for i in 0..MR {
                col[i] = a_row[i].fma(bv, col[i]);
            }
        }
    }
}

/// [`acc`] compiled with the hardware FMA instruction enabled.
#[cfg(target_arch = "x86_64")]
pub fn acc_fma<T: Scalar>(kc: usize, ap: &[T], bp: &[T], acc: &mut [[T; NR]; MR]) {
    kernel_precondition!(is_x86_feature_detected!("fma"), "fma not available");
    // SAFETY: CPU support asserted above; the operands are safe slices.
    unsafe { acc_fma_imp(kc, ap, bp, acc) }
}

// kernel-contract: requires target_feature(fma)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn acc_fma_imp<T: Scalar>(kc: usize, ap: &[T], bp: &[T], out: &mut [[T; NR]; MR]) {
    // Inlined here, so its `fma` steps compile to `vfmadd`.
    acc(kc, ap, bp, out);
}

/// [`bt`] compiled with the hardware FMA instruction enabled.
#[cfg(target_arch = "x86_64")]
pub fn bt_fma<T: Scalar>(kc: usize, ap: &[T], b: [&[T]; BT_COLS], acc: &mut [[T; MR]; BT_COLS]) {
    kernel_precondition!(is_x86_feature_detected!("fma"), "fma not available");
    // SAFETY: CPU support asserted above; the operands are safe slices.
    unsafe { bt_fma_imp(kc, ap, b, acc) }
}

// kernel-contract: requires target_feature(fma)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn bt_fma_imp<T: Scalar>(
    kc: usize,
    ap: &[T],
    b: [&[T]; BT_COLS],
    acc: &mut [[T; MR]; BT_COLS],
) {
    bt(kc, ap, b, acc);
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
        let mut out = [[0.0f32; NR]; MR];
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

    #[test]
    fn kc_zero_is_noop() {
        let mut a = [[1.0f32; NR]; MR];
        acc(0, &[], &[], &mut a);
        assert!(a.iter().all(|r| r.iter().all(|&v| v == 1.0)));
        let mut col = [[2.0f64; MR]; BT_COLS];
        bt(0, &[], [&[]; BT_COLS], &mut col);
        assert!(col.iter().all(|c| c.iter().all(|&v| v == 2.0)));
    }

    #[test]
    fn chain_is_fused() {
        // (1 + 2^-13)(1 - 2^-13) = 1 - 2^-26 is not an f32: a chain
        // that rounds the product before adding gives 0.
        let (a, b) = (1.0f32 + 2f32.powi(-13), 1.0f32 - 2f32.powi(-13));
        let mut out = [[-1.0f32; NR]; MR];
        acc(1, &[a; MR], &[b; NR], &mut out);
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
    fn fma_matches_portable<T: Scalar>() {
        for kc in [0usize, 1, 3, 17, 64] {
            // Non-round values so a differently rounded step shows up.
            let ap: Vec<T> = (0..kc * MR)
                .map(|i| T::from_f64((i as f64).sin() * 3.7))
                .collect();
            let bp: Vec<T> = (0..kc * NR)
                .map(|i| T::from_f64((i as f64).cos() * 1.3 - 0.4))
                .collect();
            let mut fast = [[T::from_f64(0.5); NR]; MR];
            let mut want = fast;
            acc_fma(kc, &ap, &bp, &mut fast);
            acc(kc, &ap, &bp, &mut want);
            assert_eq!(fast, want, "acc kc={kc}");

            let b: [&[T]; BT_COLS] = std::array::from_fn(|c| &bp[c * kc..(c + 1) * kc]);
            let mut fast = [[T::ONE; MR]; BT_COLS];
            let mut want = fast;
            bt_fma(kc, &ap, b, &mut fast);
            bt(kc, &ap, b, &mut want);
            assert_eq!(fast, want, "bt kc={kc}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fma_instantiation_bitwise_matches_portable() {
        if is_x86_feature_detected!("fma") {
            fma_matches_portable::<f32>();
            fma_matches_portable::<f64>();
        }
    }
}
