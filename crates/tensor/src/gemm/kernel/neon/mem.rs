//! Every memory access of the NEON kernels: a whole register from or
//! to a fixed-size array, or the first `len().min(W)` lanes of a slice.
//! NEON has no masked load or store, so the masked pair moves the live
//! lanes one by one through a register-sized array. The whole-register
//! pair holds the only `unsafe` blocks of the NEON kernels; each one
//! dereferences a reference whose length its type fixes.

use core::arch::aarch64::*;

#[inline]
#[target_feature(enable = "neon")]
pub fn load_f32(src: &[f32; 4]) -> float32x4_t {
    // SAFETY: `src` is 4 readable f32s; `vld1q` needs no alignment.
    unsafe { vld1q_f32(src.as_ptr()) }
}

#[inline]
#[target_feature(enable = "neon")]
pub fn store_f32(dst: &mut [f32; 4], v: float32x4_t) {
    // SAFETY: `dst` is 4 writable f32s; `vst1q` needs no alignment.
    unsafe { vst1q_f32(dst.as_mut_ptr(), v) }
}

/// The first `src.len().min(4)` lanes from `src`, the rest zero.
#[inline]
#[target_feature(enable = "neon")]
pub fn load_masked_f32(src: &[f32]) -> float32x4_t {
    let mut lanes = [0.0; 4];
    let live = src.len().min(4);
    lanes[..live].copy_from_slice(&src[..live]);
    load_f32(&lanes)
}

/// `v`'s first `dst.len().min(4)` lanes into `dst`.
#[inline]
#[target_feature(enable = "neon")]
pub fn store_masked_f32(dst: &mut [f32], v: float32x4_t) {
    let mut lanes = [0.0; 4];
    store_f32(&mut lanes, v);
    let live = dst.len().min(4);
    dst[..live].copy_from_slice(&lanes[..live]);
}

#[inline]
#[target_feature(enable = "neon")]
pub fn load_f64(src: &[f64; 2]) -> float64x2_t {
    // SAFETY: `src` is 2 readable f64s; `vld1q` needs no alignment.
    unsafe { vld1q_f64(src.as_ptr()) }
}

#[inline]
#[target_feature(enable = "neon")]
pub fn store_f64(dst: &mut [f64; 2], v: float64x2_t) {
    // SAFETY: `dst` is 2 writable f64s; `vst1q` needs no alignment.
    unsafe { vst1q_f64(dst.as_mut_ptr(), v) }
}

/// The first `src.len().min(2)` lanes from `src`, the rest zero.
#[inline]
#[target_feature(enable = "neon")]
pub fn load_masked_f64(src: &[f64]) -> float64x2_t {
    let mut lanes = [0.0; 2];
    let live = src.len().min(2);
    lanes[..live].copy_from_slice(&src[..live]);
    load_f64(&lanes)
}

/// `v`'s first `dst.len().min(2)` lanes into `dst`.
#[inline]
#[target_feature(enable = "neon")]
pub fn store_masked_f64(dst: &mut [f64], v: float64x2_t) {
    let mut lanes = [0.0; 2];
    store_f64(&mut lanes, v);
    let live = dst.len().min(2);
    dst[..live].copy_from_slice(&lanes[..live]);
}
