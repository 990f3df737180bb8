//! Register-blocked inner kernel.
//!
//! Mirrors the paper's Section V.A.2: an `MR x NR` block of C is
//! updated by a sequence of rank-1 updates read with unit stride from
//! the packed panels. On BG/Q this was hand-scheduled QPX assembly;
//! here the accumulate loop is a [`AccFn`] function pointer selected
//! by the active [`crate::gemm::backend::ComputeBackend`] — either the
//! portable [`scalar`] reference or an explicit `std::arch` kernel
//! ([`x86`], [`neon`]). The accumulator lives in registers for the
//! whole `kc` loop, so C traffic is one read-modify-write per block
//! regardless of `kc` — the property the paper's "reduce bandwidth to
//! a level the caches can feed" goal is about.
//!
//! [`elementwise`] holds the other hot loop of training built the same
//! way: the vectorized `exp` and bias + activation row passes of
//! [`crate::vmath`], one loop instantiated per ISA.
//!
//! These submodules are the **only** place in the workspace where
//! `unsafe` is permitted (lint rule `l7-unsafe-outside-kernel`): the
//! SIMD kernels need raw intrinsics, and everything they touch is
//! bounds-asserted in a safe wrapper first.

use crate::scalar::Scalar;

use super::backend::AccFn;
use super::{MR, NR};

/// Kernel-zone precondition: an always-on assert in a standardized
/// shape that `pdnn-kernelcheck` parses as the machine-checkable
/// guarantee backing a `// kernel-contract:` annotation.
///
/// The first argument must be either a slice-length bound
/// (`<slice>.len() >= <expr>`), a micro-tile bound (`x <= MR`), or a
/// runtime CPU-feature check (`is_x86_feature_detected!("...")`
/// conjunction) — the forms the checker knows how to match against
/// declared contracts. Using one macro for both the debug-build story
/// and the static pass keeps the contract text in a single place: a
/// kernel entry point whose declared contract is not backed by a
/// `kernel_precondition!` (or by the parameter's own type) is a
/// `k5-wrapper-precondition` finding.
///
/// Cost: a handful of integer compares per micro-panel call, noise
/// next to the `MR x NR x kc` FLOP loop each call performs.
macro_rules! kernel_precondition {
    ($cond:expr, $($msg:tt)+) => {
        assert!($cond, $($msg)+)
    };
}

pub mod elementwise;
pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod x86;

#[cfg(target_arch = "aarch64")]
pub mod neon;

/// Compute `acc = Ap * Bp` for one micro-panel pair via `acc_fn` and
/// merge into C.
///
/// * `acc_fn`: backend-selected accumulate kernel (resolved once per
///   driver call via [`crate::scalar::Scalar::acc_kernel`]).
/// * `ap`: packed A micro-panel, `kc * MR` elements (`kk`-major).
/// * `bp`: packed B micro-panel, `kc * NR` elements (`kk`-major).
/// * `c`: the full C stripe buffer; the target block starts at
///   `c_off` with row stride `ldc`.
/// * `mr_eff`, `nr_eff`: live rows/cols of the block (edge blocks are
///   smaller; packed panels are zero-padded so the FLOP loop is
///   uniform and only the C write is masked).
/// * `merge_beta`: `Some(beta)` on the first k-block (C is scaled),
///   `None` afterwards (pure accumulate).
///
/// The merge is shared generic code — backends only replace the
/// accumulate loop, which is what keeps the merge rounding identical
/// across backends by construction.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn microkernel<T: Scalar>(
    acc_fn: AccFn<T>,
    kc: usize,
    alpha: T,
    ap: &[T],
    bp: &[T],
    c: &mut [T],
    c_off: usize,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
    merge_beta: Option<T>,
) {
    kernel_precondition!(ap.len() >= kc * MR, "microkernel: A panel too short");
    kernel_precondition!(bp.len() >= kc * NR, "microkernel: B panel too short");
    kernel_precondition!(mr_eff <= MR && nr_eff <= NR, "microkernel: tile overrun");

    let mut acc = [[T::ZERO; NR]; MR];
    acc_fn(kc, ap, bp, &mut acc);

    // Merge into C, masking the ragged edge.
    match merge_beta {
        // pdnn-lint: allow(l4-float-exact-compare): BLAS beta sentinel dispatch — exact 0/1 select the overwrite/no-scale fast paths (0 must overwrite, 0*NaN != 0); this is discrimination on a sentinel, not a numeric tolerance test
        Some(beta) if beta == T::ZERO => {
            // beta == 0 must overwrite, not scale: C may hold NaN/gar-
            // bage from uninitialized reuse, and 0 * NaN = NaN.
            for i in 0..mr_eff {
                let dst = &mut c[c_off + i * ldc..c_off + i * ldc + nr_eff];
                for (j, d) in dst.iter_mut().enumerate() {
                    *d = alpha * acc[i][j];
                }
            }
        }
        Some(beta) => {
            for i in 0..mr_eff {
                let dst = &mut c[c_off + i * ldc..c_off + i * ldc + nr_eff];
                for (j, d) in dst.iter_mut().enumerate() {
                    *d = alpha.mul_add(acc[i][j], beta * *d);
                }
            }
        }
        None => {
            for i in 0..mr_eff {
                let dst = &mut c[c_off + i * ldc..c_off + i * ldc + nr_eff];
                for (j, d) in dst.iter_mut().enumerate() {
                    *d = alpha.mul_add(acc[i][j], *d);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build packed panels for op(A) = ones scaled by row, op(B) = identity-ish.
    fn panels(kc: usize) -> (Vec<f32>, Vec<f32>) {
        // ap(kk, i) = (i + 1); bp(kk, j) = (kk == j % kc) as f32
        let mut ap = vec![0.0f32; kc * MR];
        let mut bp = vec![0.0f32; kc * NR];
        for kk in 0..kc {
            for i in 0..MR {
                ap[kk * MR + i] = (i + 1) as f32;
            }
            for j in 0..NR {
                bp[kk * NR + j] = if kk == j % kc { 1.0 } else { 0.0 };
            }
        }
        (ap, bp)
    }

    const ACC: AccFn<f32> = scalar::acc::<f32>;

    #[test]
    fn full_block_beta_zero() {
        let kc = 4;
        let (ap, bp) = panels(kc);
        let ldc = NR;
        let mut c = vec![f32::NAN; MR * ldc];
        microkernel(ACC, kc, 1.0, &ap, &bp, &mut c, 0, ldc, MR, NR, Some(0.0));
        // acc(i, j) = sum_kk ap(kk,i) * bp(kk,j) = (i+1) * 1 (one kk hits).
        for i in 0..MR {
            for j in 0..NR {
                assert_eq!(c[i * ldc + j], (i + 1) as f32, "({i},{j})");
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let kc = 1;
        let ap = vec![0.0f32; kc * MR];
        let bp = vec![0.0f32; kc * NR];
        let mut c = vec![f32::NAN; MR * NR];
        microkernel(ACC, kc, 1.0, &ap, &bp, &mut c, 0, NR, MR, NR, Some(0.0));
        assert!(c.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn accumulate_path_adds() {
        let kc = 2;
        let (ap, bp) = panels(kc);
        let mut c = vec![10.0f32; MR * NR];
        microkernel(ACC, kc, 2.0, &ap, &bp, &mut c, 0, NR, MR, NR, None);
        // c += 2 * (i+1)
        assert_eq!(c[0], 10.0 + 2.0);
        assert_eq!(c[(MR - 1) * NR], 10.0 + 2.0 * MR as f32);
    }

    #[test]
    fn edge_mask_leaves_outside_untouched() {
        let kc = 3;
        let (ap, bp) = panels(kc);
        let ldc = NR + 2; // wider C stripe
        let mut c = vec![-7.0f32; (MR + 1) * ldc];
        let (mr_eff, nr_eff) = (MR - 3, NR - 2);
        microkernel(
            ACC,
            kc,
            1.0,
            &ap,
            &bp,
            &mut c,
            0,
            ldc,
            mr_eff,
            nr_eff,
            Some(0.0),
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
    fn beta_scales_existing_c() {
        let kc = 1;
        let (ap, bp) = panels(kc);
        let mut c = vec![4.0f32; MR * NR];
        microkernel(ACC, kc, 1.0, &ap, &bp, &mut c, 0, NR, MR, NR, Some(0.5));
        // c = 1*(i+1) + 0.5*4
        assert_eq!(c[0], 1.0 + 2.0);
        assert_eq!(c[NR], 2.0 + 2.0);
    }

    #[test]
    fn kc_zero_applies_beta_only() {
        let ap: Vec<f32> = vec![];
        let bp: Vec<f32> = vec![];
        let mut c = vec![3.0f32; MR * NR];
        microkernel(ACC, 0, 1.0, &ap, &bp, &mut c, 0, NR, MR, NR, Some(0.5));
        assert!(c.iter().all(|&v| v == 1.5));
    }
}
