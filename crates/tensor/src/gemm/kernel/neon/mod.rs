//! Explicit NEON micro-tile kernels (aarch64).
//!
//! The x86 kernels' dataflow at 128-bit width: each kernel is an
//! instance of the one tile body ([`super::tile_kernel!`]) or the one
//! B^T body ([`super::bt_kernel!`]) over the ops of one element type
//! below. Each step is one `vfmaq` (FMLA) — a single exact rounding per
//! lane, i.e. [`crate::scalar::Scalar::fma`] — so results are
//! bit-identical to the [`super::scalar`] reference, the bit-exactness
//! contract in [`crate::gemm::backend`].
//!
//! A finished group merges into C with the
//! [`crate::gemm::backend::Merge`] arithmetic: `α·Σ` in the register,
//! then the `β`-scale or accumulate, each product and sum rounded on
//! its own (`vmulq`, `vaddq`; never fused). A C row is sliced to the
//! group's live columns and moved through [`mem`]'s masked pair, which
//! NEON implements lane by lane, so an edge tile touches only its live
//! corner.
//!
//! Every kernel and op is a safe `#[target_feature]` fn compiled by
//! `neon_kernel!`; the kernels take the [`Neon`] token first. [`mem`]
//! holds the only `unsafe` blocks. These instances have not been
//! compiled on an aarch64 host yet; the bodies they stamp run over
//! emulated 4- and 2-lane registers in [`super`]'s tests on any host.

use core::arch::aarch64::*;

use super::{bt_kernel, ops, tile_kernel};
use crate::gemm::dispatch::{neon_kernel, Neon};
use crate::gemm::MR;

mod mem;

ops!(neon_f32 = neon_kernel(f32 x 4 in float32x4_t, mem):
    vdupq_n_f32, |a, b, c| vfmaq_f32(c, a, b), vmulq_f32, vaddq_f32);
ops!(neon_f64 = neon_kernel(f64 x 2 in float64x2_t, mem):
    vdupq_n_f64, |a, b, c| vfmaq_f64(c, a, b), vmulq_f64, vaddq_f64);

// Tiles of eight 4-lane f32 or sixteen 2-lane f64 column groups, one
// per pass; B^T columns of two f32 or four f64 registers.
tile_kernel!(neon_kernel fn tile_f32_neon, tile_rows_f32_neon(Neon, neon_f32, G = 1));
tile_kernel!(neon_kernel fn tile_f64_neon, tile_rows_f64_neon(Neon, neon_f64, G = 1));
bt_kernel!(neon_kernel fn bt_f32_neon(Neon, neon_f32, R = MR));
bt_kernel!(neon_kernel fn bt_f64_neon(Neon, neon_f64, R = MR));
