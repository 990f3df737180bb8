//! Explicit AVX2+FMA and AVX-512 micro-tile kernels (x86_64).
//!
//! The paper's QPX kernel broadcasts one A element against a vector of
//! B and accumulates a register-resident C block with fused
//! multiply-adds; these kernels are the same dataflow in `std::arch`
//! intrinsics. Every accumulate step is one `vfmadd` — a single exact
//! rounding per lane, which is precisely [`crate::scalar::Scalar::fma`]
//! — and each C element keeps its own `kk`-ascending chain, so results
//! are bit-identical to the [`super::scalar`] reference (the backend
//! contract in [`crate::gemm::backend`]).
//!
//! Each kernel is an instance of the one tile body
//! ([`super::tile_kernel!`]) or the one B^T body ([`super::bt_kernel!`])
//! over one of the four ops modules below: `ymm` (8 f32 or 4 f64 lanes)
//! under [`Avx2`], `zmm` (16 or 8) under [`Avx512`].
//!
//! A finished tile merges `α·Σ` into C from the registers ([`Merge`]:
//! multiply, then add, each rounded — never fused) through the masked
//! loads and stores of [`mem`], so a ragged edge tile reads and writes
//! exactly its live corner and a full tile runs the same code with
//! every lane live.
//!
//! Every kernel and op is a safe `#[target_feature]` fn compiled with
//! exactly its token's features (`avx2_kernel!`, `avx512_kernel!`);
//! the kernels take the token first. The panels are walked as
//! fixed-size rows, so no index in a `kk` loop is checked at run time,
//! and a panel or C tile shorter than the call needs panics. [`mem`]
//! holds the only `unsafe` blocks.
//!
//! [`Merge`]: crate::gemm::backend::Merge

use core::arch::x86_64::*;

use super::{bt_kernel, ops, tile_kernel};
use crate::gemm::dispatch::{avx2_kernel, avx512_kernel, Avx2, Avx512};
use crate::gemm::MR;

mod mem;

ops!(avx2_f32 = avx2_kernel(f32 x 8 in __m256, mem::avx2):
    _mm256_set1_ps, |a, b, c| _mm256_fmadd_ps(a, b, c), _mm256_mul_ps, _mm256_add_ps);
ops!(avx2_f64 = avx2_kernel(f64 x 4 in __m256d, mem::avx2):
    _mm256_set1_pd, |a, b, c| _mm256_fmadd_pd(a, b, c), _mm256_mul_pd, _mm256_add_pd);
ops!(avx512_f32 = avx512_kernel(f32 x 16 in __m512, mem::avx512):
    _mm512_set1_ps, |a, b, c| _mm512_fmadd_ps(a, b, c), _mm512_mul_ps, _mm512_add_ps);
ops!(avx512_f64 = avx512_kernel(f64 x 8 in __m512d, mem::avx512):
    _mm512_set1_pd, |a, b, c| _mm512_fmadd_pd(a, b, c), _mm512_mul_pd, _mm512_add_pd);

// The tiles: AVX2 walks four 8-lane f32 or eight 4-lane f64 column
// groups, one per pass; AVX-512 runs both 16-lane f32 groups in one
// pass (sixteen chains fed by two B loads a step) and walks four 8-lane
// f64 groups.
tile_kernel!(avx2_kernel fn tile_f32_avx2, tile_rows_f32_avx2(Avx2, avx2_f32, G = 1));
tile_kernel!(avx2_kernel fn tile_f64_avx2, tile_rows_f64_avx2(Avx2, avx2_f64, G = 1));
tile_kernel!(avx512_kernel fn tile_f32_avx512, tile_rows_f32_avx512(Avx512, avx512_f32, G = 2));
tile_kernel!(avx512_kernel fn tile_f64_avx512, tile_rows_f64_avx512(Avx512, avx512_f64, G = 1));

// The B^T kernels: a column is one ymm of f32 or zmm of f64, or two ymm
// of f64. No AVX-512 f32 B^T kernel: one ymm already holds a column, so
// the AVX-512 table runs the AVX2 one.
bt_kernel!(avx2_kernel fn bt_f32_avx2(Avx2, avx2_f32, R = MR));
bt_kernel!(avx2_kernel fn bt_f64_avx2(Avx2, avx2_f64, R = MR));
bt_kernel!(avx512_kernel fn bt_f64_avx512(Avx512, avx512_f64, R = MR));
