//! Every memory access of the x86 kernels: a whole register from or to
//! a fixed-size array, or the first `len().min(W)` lanes of a slice
//! through a mask built inside. These are the only `unsafe` blocks of
//! the x86 kernels. Each one dereferences a reference whose length the
//! caller's types or slicing already fixed, and a masked access
//! touches no lane at or past that length.

/// 256-bit loads and stores: 8 f32 or 4 f64 lanes.
pub(crate) mod avx2 {
    use core::arch::x86_64::*;

    /// Sign-bit mask of the first `len.min(8)` of 8 i32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mask_f32(len: usize) -> __m256i {
        let iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(len.min(8) as i32), iota)
    }

    /// Sign-bit mask of the first `len.min(4)` of 4 i64 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mask_f64(len: usize) -> __m256i {
        let iota = _mm256_setr_epi64x(0, 1, 2, 3);
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(len.min(4) as i64), iota)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn load_f32(src: &[f32; 8]) -> __m256 {
        // SAFETY: `src` is 8 readable f32s; the load is unaligned.
        unsafe { _mm256_loadu_ps(src.as_ptr()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn store_f32(dst: &mut [f32; 8], v: __m256) {
        // SAFETY: `dst` is 8 writable f32s; the store is unaligned.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) }
    }

    /// The first `src.len().min(8)` lanes from `src`, the rest zero.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn load_masked_f32(src: &[f32]) -> __m256 {
        // SAFETY: the mask enables only lanes below `src.len()`, and
        // masked-off lanes are not accessed.
        unsafe { _mm256_maskload_ps(src.as_ptr(), mask_f32(src.len())) }
    }

    /// `v`'s first `dst.len().min(8)` lanes into `dst`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn store_masked_f32(dst: &mut [f32], v: __m256) {
        // SAFETY: the mask enables only lanes below `dst.len()`, and
        // masked-off lanes are not accessed.
        unsafe { _mm256_maskstore_ps(dst.as_mut_ptr(), mask_f32(dst.len()), v) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn load_f64(src: &[f64; 4]) -> __m256d {
        // SAFETY: `src` is 4 readable f64s; the load is unaligned.
        unsafe { _mm256_loadu_pd(src.as_ptr()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn store_f64(dst: &mut [f64; 4], v: __m256d) {
        // SAFETY: `dst` is 4 writable f64s; the store is unaligned.
        unsafe { _mm256_storeu_pd(dst.as_mut_ptr(), v) }
    }

    /// The first `src.len().min(4)` lanes from `src`, the rest zero.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn load_masked_f64(src: &[f64]) -> __m256d {
        // SAFETY: the mask enables only lanes below `src.len()`, and
        // masked-off lanes are not accessed.
        unsafe { _mm256_maskload_pd(src.as_ptr(), mask_f64(src.len())) }
    }

    /// `v`'s first `dst.len().min(4)` lanes into `dst`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn store_masked_f64(dst: &mut [f64], v: __m256d) {
        // SAFETY: the mask enables only lanes below `dst.len()`, and
        // masked-off lanes are not accessed.
        unsafe { _mm256_maskstore_pd(dst.as_mut_ptr(), mask_f64(dst.len()), v) }
    }
}

/// 512-bit loads and stores: 16 f32 or 8 f64 lanes.
pub(crate) mod avx512 {
    use core::arch::x86_64::*;

    /// The first `len.min(16)` lanes of a 16-lane mask.
    pub(super) fn mask16(len: usize) -> __mmask16 {
        if len >= 16 {
            u16::MAX
        } else {
            (1u16 << len) - 1
        }
    }

    /// The first `len.min(8)` lanes of an 8-lane mask.
    pub(super) fn mask8(len: usize) -> __mmask8 {
        if len >= 8 {
            u8::MAX
        } else {
            (1u8 << len) - 1
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn load_f32(src: &[f32; 16]) -> __m512 {
        // SAFETY: `src` is 16 readable f32s; the load is unaligned.
        unsafe { _mm512_loadu_ps(src.as_ptr()) }
    }

    #[allow(dead_code)] // The AVX-512 table runs the AVX2 f32 B^T kernel.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn store_f32(dst: &mut [f32; 16], v: __m512) {
        // SAFETY: `dst` is 16 writable f32s; the store is unaligned.
        unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), v) }
    }

    /// The first `src.len().min(16)` lanes from `src`, the rest zero.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn load_masked_f32(src: &[f32]) -> __m512 {
        // SAFETY: the mask enables only lanes below `src.len()`, and
        // masked-off lanes are not accessed.
        unsafe { _mm512_maskz_loadu_ps(mask16(src.len()), src.as_ptr()) }
    }

    /// `v`'s first `dst.len().min(16)` lanes into `dst`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn store_masked_f32(dst: &mut [f32], v: __m512) {
        // SAFETY: the mask enables only lanes below `dst.len()`, and
        // masked-off lanes are not accessed.
        unsafe { _mm512_mask_storeu_ps(dst.as_mut_ptr(), mask16(dst.len()), v) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn load_f64(src: &[f64; 8]) -> __m512d {
        // SAFETY: `src` is 8 readable f64s; the load is unaligned.
        unsafe { _mm512_loadu_pd(src.as_ptr()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn store_f64(dst: &mut [f64; 8], v: __m512d) {
        // SAFETY: `dst` is 8 writable f64s; the store is unaligned.
        unsafe { _mm512_storeu_pd(dst.as_mut_ptr(), v) }
    }

    /// The first `src.len().min(8)` lanes from `src`, the rest zero.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn load_masked_f64(src: &[f64]) -> __m512d {
        // SAFETY: the mask enables only lanes below `src.len()`, and
        // masked-off lanes are not accessed.
        unsafe { _mm512_maskz_loadu_pd(mask8(src.len()), src.as_ptr()) }
    }

    /// `v`'s first `dst.len().min(8)` lanes into `dst`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn store_masked_f64(dst: &mut [f64], v: __m512d) {
        // SAFETY: the mask enables only lanes below `dst.len()`, and
        // masked-off lanes are not accessed.
        unsafe { _mm512_mask_storeu_pd(dst.as_mut_ptr(), mask8(dst.len()), v) }
    }
}

#[cfg(test)]
mod tests {
    use super::avx512::{mask16, mask8};

    #[test]
    fn masks_cover_exactly_the_live_lanes() {
        assert_eq!(mask16(0), 0);
        assert_eq!(mask16(3), 0b111);
        assert_eq!(mask16(16), u16::MAX);
        assert_eq!(mask16(40), u16::MAX);
        assert_eq!(mask8(7), 0x7f);
        assert_eq!(mask8(9), u8::MAX);
    }
}
