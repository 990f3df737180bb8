//! Wire-codec passes: `f32` ↔ binary16, int8 quantization at a given
//! scale and its inverse, over whole slices.
//!
//! Like [`super::elementwise`], one `#[inline(always)]` loop
//! ([`codec_pass`]) is compiled several times. The portable
//! instantiation is the reference and already vectorizes on the
//! `x86-64` baseline (SSE2); on x86_64 the same loop is inlined into
//! safe `#[target_feature]` fns with the features of the [`Avx2`] and
//! [`Avx512`] tokens enabled, each taking its token, where LLVM runs it
//! 8 and 16 lanes wide. Every lane is a fixed sequence of IEEE and
//! integer operations with no data-dependent branch — each lane
//! computes every candidate result and selects one — so all
//! instantiations agree bitwise; [`crate::codec::instantiations`]
//! lists the ones the CPU can run.

#[cfg(target_arch = "x86_64")]
use crate::gemm::dispatch::{avx2_kernel, avx512_kernel, Avx2, Avx512};

/// One pass over a chunk of a collective's payload. Slices pair up
/// element by element, and a pass with `src` and `out` of different
/// lengths panics.
pub enum CodecPass<'a> {
    /// The largest `|x|` of `src` as its bit pattern (0 when empty).
    /// The integer orders like the float it encodes, and every
    /// infinity or NaN lands at or above the infinity pattern, so one
    /// max covers the magnitude and the non-finite guard.
    MaxAbsBits { src: &'a [f32], out: &'a mut u32 },
    /// binary16 bits of each element, rounded to nearest even;
    /// overflow past 65520 to infinity, NaN to the quiet
    /// `sign | 0x7e00`.
    F16Encode { src: &'a [f32], out: &'a mut [u16] },
    /// The `f32` value of each binary16 pattern (exact).
    F16Decode { src: &'a [u16], out: &'a mut [f32] },
    /// `round(x / scale)` clamped to `±127`, halves away from zero,
    /// NaN to 0.
    I8Quantize {
        src: &'a [f32],
        scale: f32,
        out: &'a mut [i8],
    },
    /// `q · scale`.
    I8Decode {
        src: &'a [i8],
        scale: f32,
        out: &'a mut [f32],
    },
}

/// 1.5·2²³: adding it to `|y| < 2²²` leaves `y` rounded to the nearest
/// (even) integer in the sum's low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// Lanes per block of the int8 reciprocal pass; a block with a lane
/// near a rounding boundary is redone with the exact division.
const QUANT_BLOCK: usize = 64;

/// binary16 bits of `x`, rounded to nearest even.
#[inline(always)]
fn f16_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    let a = bits & 0x7fff_ffff;
    // Normal half: rebias the exponent (127 → 15) and round the 13
    // dropped mantissa bits to nearest even; a carry out of the
    // mantissa bumps the exponent, up to infinity.
    let normal = a
        .wrapping_sub(112 << 23)
        .wrapping_add(0xfff + ((a >> 13) & 1))
        >> 13;
    // Subnormal half or zero: in `|x| + 0.5` the last mantissa bit is
    // worth 2⁻²⁴, the subnormal step, so the addition rounds to the
    // grid (nearest even) and the step count lands in the low bits.
    let subnormal = (f32::from_bits(a) + 0.5)
        .to_bits()
        .wrapping_sub(0.5f32.to_bits());
    // Infinity (or overflow past 65520) and the one quiet NaN.
    let special = if a > 0x7f80_0000 { 0x7e00 } else { 0x7c00 };
    let h = if a >= 0x4780_0000 {
        special
    } else if a < 0x3880_0000 {
        subnormal
    } else {
        normal
    };
    (h | ((bits >> 16) & 0x8000)) as u16
}

/// The `f32` value of binary16 bits `h`.
#[inline(always)]
fn f16_to_f32(h: u16) -> f32 {
    // Exponent and mantissa moved into their f32 positions.
    let m = u32::from(h & 0x7fff) << 13;
    let normal = m + (112 << 23);
    let special = m + (224 << 23); // exponent 31 → 255: infinity, NaN payload kept
                                   // Subnormal or zero: 2⁻¹⁴·(1 + mant/1024) − 2⁻¹⁴, exactly.
    let subnormal = (f32::from_bits(m + (113 << 23)) - f32::from_bits(113 << 23)).to_bits();
    let bits = if m >= 0x0f80_0000 {
        special
    } else if m < 0x0080_0000 {
        subnormal
    } else {
        normal
    };
    f32::from_bits(bits | (u32::from(h & 0x8000) << 16))
}

/// `y` rounded to the nearest even integer, and whether that result
/// needs checking: `y` lies within 2⁻¹⁴ of a half-integer, or is not a
/// number in `[-127, 127]` (then the rounded value is garbage).
#[inline(always)]
fn round_nearest(y: f32) -> (i8, bool) {
    const NEAR_HALF: f32 = 0.5 - 1.0 / 16384.0;
    let m = y + ROUND_MAGIC;
    let n = m.to_bits().wrapping_sub(ROUND_MAGIC.to_bits()) as i32;
    // Exact: `y` and the integer it rounds to share a binade's grid.
    let frac = y - (m - ROUND_MAGIC);
    (
        n as i8,
        (frac.abs() >= NEAR_HALF) | (y.abs() > 127.0) | y.is_nan(),
    )
}

/// `y.round().clamp(-127.0, 127.0) as i8` without the libm call: clamp
/// (NaN to 0), round to nearest even by [`ROUND_MAGIC`], then step a
/// tie the even rounding took toward zero back away from it.
#[inline(always)]
fn round_half_away(y: f32) -> i8 {
    let y = if y >= -127.0 {
        y
    } else if y < -127.0 {
        -127.0
    } else {
        0.0
    };
    let y = if y > 127.0 { 127.0 } else { y };
    let m = y + ROUND_MAGIC;
    let n = m.to_bits().wrapping_sub(ROUND_MAGIC.to_bits()) as i32;
    let sign = y.to_bits() & 0x8000_0000;
    let toward_zero_tie = y - (m - ROUND_MAGIC) == f32::from_bits(sign | 0.5f32.to_bits());
    let away = ((sign as i32) >> 31) | 1; // ±1 with the sign of y
    (n + if toward_zero_tie { away } else { 0 }) as i8
}

/// [`CodecPass::I8Quantize`]. The quotient is formed as
/// `x · (1 / scale)`, within 3·10⁻⁵ of `x / scale` when the scale is
/// normal and `|x / scale| ≤ 127`, and rounded to nearest. A block
/// with a product the two quotients could round apart on — within 2⁻¹⁴
/// of a half-integer — or one past ±127 or NaN is redone with the exact
/// division, as is everything under a scale that is not a positive
/// normal number (its reciprocal loses bits or overflows).
#[inline(always)]
fn quantize(src: &[f32], scale: f32, out: &mut [i8]) {
    let exact = |out: &mut [i8], src: &[f32]| {
        for (q, &x) in out.iter_mut().zip(src) {
            *q = round_half_away(x / scale);
        }
    };
    if scale.is_nan() || scale < f32::MIN_POSITIVE {
        exact(out, src);
        return;
    }
    let inv = 1.0 / scale;
    for (out, src) in out.chunks_mut(QUANT_BLOCK).zip(src.chunks(QUANT_BLOCK)) {
        let mut near = false;
        for (q, &x) in out.iter_mut().zip(src) {
            let (r, n) = round_nearest(x * inv);
            *q = r;
            near |= n;
        }
        if near {
            exact(out, src);
        }
    }
}

/// `out`, checked to pair up with `src` element by element.
#[inline(always)]
fn paired<'a, S, T>(src: &[S], out: &'a mut [T]) -> &'a mut [T] {
    assert_eq!(
        src.len(),
        out.len(),
        "codec pass: src and out lengths differ"
    );
    out
}

/// Reference codec pass ([`crate::codec::CodecFn`] shape), portable
/// instantiation.
///
/// # Panics
/// If `src` and `out` differ in length.
#[inline(always)]
pub(crate) fn codec_pass(pass: CodecPass<'_>) {
    match pass {
        CodecPass::MaxAbsBits { src, out } => {
            *out = src
                .iter()
                .fold(0u32, |m, x| m.max(x.to_bits() & 0x7fff_ffff));
        }
        CodecPass::F16Encode { src, out } => {
            for (h, &x) in paired(src, out).iter_mut().zip(src) {
                *h = f16_from_f32(x);
            }
        }
        CodecPass::F16Decode { src, out } => {
            for (x, &h) in paired(src, out).iter_mut().zip(src) {
                *x = f16_to_f32(h);
            }
        }
        CodecPass::I8Quantize { src, scale, out } => quantize(src, scale, paired(src, out)),
        CodecPass::I8Decode { src, scale, out } => {
            for (x, &q) in paired(src, out).iter_mut().zip(src) {
                *x = f32::from(q) * scale;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
avx2_kernel! {
    /// [`codec_pass`] compiled for 256-bit AVX2 registers.
    pub(crate) fn codec_pass_avx2(_: Avx2, pass: CodecPass<'_>) {
        codec_pass(pass);
    }
}

#[cfg(target_arch = "x86_64")]
avx512_kernel! {
    /// [`codec_pass`] compiled for 512-bit AVX-512 registers.
    pub(crate) fn codec_pass_avx512(_: Avx512, pass: CodecPass<'_>) {
        codec_pass(pass);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_lanes_agree_with_libm_round() {
        // Every half-integer in range with its neighbours, the clamp
        // edges, the non-finite inputs, then a strided sweep of every
        // bit pattern.
        let want = |y: f32| y.round().clamp(-127.0, 127.0) as i8;
        let mut ys = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e30];
        for k in -130i32..=130 {
            let h = k as f32 + 0.5;
            ys.extend([h, h.next_up(), h.next_down(), k as f32]);
        }
        ys.extend((0..=u32::MAX).step_by(4099).map(f32::from_bits));
        for y in ys {
            assert_eq!(round_half_away(y), want(y), "y={y:e}");
            let (r, check) = round_nearest(y);
            if y.abs() <= 127.0 {
                let frac = y - y.round_ties_even();
                assert_eq!(r, y.round_ties_even() as i8, "y={y:e}");
                assert_eq!(check, frac.abs() >= 0.5 - 1.0 / 16384.0, "y={y:e}");
            } else {
                assert!(check, "y={y:e}");
            }
        }
    }

    #[test]
    fn f16_lanes_round_trip_every_pattern() {
        // Decoding then encoding every non-NaN binary16 pattern is the
        // identity; every NaN comes back as the quiet NaN.
        for h in 0..=u16::MAX {
            let back = f16_from_f32(f16_to_f32(h));
            if h & 0x7c00 == 0x7c00 && h & 0x3ff != 0 {
                assert_eq!(back, (h & 0x8000) | 0x7e00, "h={h:#06x}");
            } else {
                assert_eq!(back, h, "h={h:#06x}");
            }
        }
    }

    #[test]
    fn quantize_blocks_take_the_exact_pass_where_rounding_is_close() {
        // Scale 1: the quotient is the element, so a half-integer in
        // the last block must round away from zero, not to even, and
        // out-of-range or NaN quotients clamp or zero as the division
        // defines.
        let mut src = vec![0.25f32; 200];
        src[0] = 127.0;
        src[66] = 2.5;
        src[69] = -4.5;
        src[130] = 1e9;
        src[131] = f32::NEG_INFINITY;
        src[199] = f32::NAN;
        let mut out = vec![0i8; 200];
        codec_pass(CodecPass::I8Quantize {
            src: &src,
            scale: 1.0,
            out: &mut out,
        });
        let picked = [
            out[0], out[1], out[66], out[69], out[130], out[131], out[199],
        ];
        assert_eq!(picked, [127, 0, 3, -5, 127, -127, 0]);
    }
}
