//! Wire-level payload compression for collective traffic.
//!
//! A [`WireCodec`] transparently narrows `F32` collective payloads on
//! the simulated wire: `F16` halves bytes-on-wire via IEEE-754
//! binary16 (round-to-nearest-even), `Int8` quarters them via linear
//! quantization with a deterministic per-message scale
//! (`max_abs / 127`). The collective hop interpreter
//! (`crate::collectives`) encodes a chunk straight from the caller's
//! buffer (`encode_f32`) while a codec-armed collective runs, and
//! folds or installs a received image straight into the buffer
//! (`decode_into`), so user code never sees the wire image. The image
//! a hop sends is built in a buffer the rank's payload pool
//! (`crate::pool`) recycled from an image it consumed, so in steady
//! state a hop allocates nothing. Byte accounting uses the
//! *encoded* size, which is what flows into [`CommStats`] and the
//! per-collective wire-byte counters.
//!
//! This module fixes the format — the scale, the all-zero and
//! non-finite guard, which payload kinds are images. The passes over
//! the elements are [`pdnn_tensor::codec`]'s: branch-free loops that
//! vectorize on the `x86-64` baseline and are also compiled for AVX2
//! and AVX-512, picked per process like the GEMM backend. The int8
//! pass multiplies by `1 / scale` and redoes, with the exact division,
//! any block holding a quotient close enough to a half-integer for the
//! two to round apart. Every instantiation gives bitwise the output of
//! the plain scalar definitions the tests here keep as their oracle.
//!
//! Both codecs are deterministic (same input → same wire bytes) and
//! idempotent on their own output for `F16` (every binary16 value is
//! exactly representable in `f32`, so a decode/encode cycle is the
//! identity). `Int8` re-quantization can wobble by one ULP in the
//! scale, which is why broadcast-shaped collectives forward the
//! original wire image instead of re-encoding — see the
//! "encode-once" pattern in `crate::collectives`.
//!
//! [`CommStats`]: pdnn_obs::CommStats

use crate::message::Payload;
use crate::pool::PayloadPool;
use pdnn_tensor::codec::{self, CodecFn, CodecPass};

/// Compression applied to `F32` payloads inside codec-armed
/// collectives. `None` is the default and leaves every payload
/// untouched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WireCodec {
    /// No compression: `f32` values travel as 4 bytes each.
    #[default]
    None,
    /// IEEE-754 binary16 with round-to-nearest-even: 2 bytes each.
    F16,
    /// Linear int8 quantization with deterministic scale
    /// `max_abs / 127`: 1 byte each plus a 4-byte scale.
    Int8,
}

impl WireCodec {
    /// Short name for CLI flags and reports.
    pub fn name(self) -> &'static str {
        match self {
            WireCodec::None => "none",
            WireCodec::F16 => "f16",
            WireCodec::Int8 => "int8",
        }
    }

    /// Parse a CLI spelling; the inverse of [`WireCodec::name`].
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(WireCodec::None),
            "f16" => Ok(WireCodec::F16),
            "int8" => Ok(WireCodec::Int8),
            other => Err(format!(
                "unknown wire codec `{other}` (expected none, f16, or int8)"
            )),
        }
    }
}

/// Narrow `v` to its wire image under `codec`; under
/// `WireCodec::None` the image is a plain `F32` copy.
fn encode_f32(codec: WireCodec, v: &[f32]) -> Payload {
    encode_f32_in(codec, v, &mut PayloadPool::default())
}

/// [`encode_f32`] into a buffer drawn from `pool`: a retired payload
/// of the image's kind when one fits, whatever it holds (the passes
/// overwrite every element).
pub(crate) fn encode_f32_in(codec: WireCodec, v: &[f32], pool: &mut PayloadPool) -> Payload {
    encode_with(codec::selected(), codec, v, pool)
}

fn encode_with(pass: CodecFn, codec: WireCodec, v: &[f32], pool: &mut PayloadPool) -> Payload {
    match codec {
        WireCodec::None => {
            let mut out = pool.f32_vec(v.len());
            out.extend_from_slice(v);
            Payload::F32(out)
        }
        WireCodec::F16 => {
            let mut h = pool.f16_vec(v.len());
            pass(CodecPass::F16Encode {
                src: v,
                out: &mut h,
            });
            Payload::F16(h)
        }
        WireCodec::Int8 => {
            // All-zero (or non-finite-max) inputs use scale 0 and
            // decode to zeros.
            let mut max_bits = 0;
            pass(CodecPass::MaxAbsBits {
                src: v,
                out: &mut max_bits,
            });
            let mut q = pool.i8_vec(v.len());
            if max_bits == 0 || max_bits >= f32::INFINITY.to_bits() {
                q.fill(0);
                return Payload::QI8 { scale: 0.0, q };
            }
            let scale = f32::from_bits(max_bits) / 127.0;
            pass(CodecPass::I8Quantize {
                src: v,
                scale,
                out: &mut q,
            });
            Payload::QI8 { scale, q }
        }
    }
}

/// Encode an `F32` payload under `codec`; every other payload kind
/// (and `WireCodec::None`) passes through untouched, so the hook is
/// safe to apply to already-encoded or non-float traffic.
pub fn encode(codec: WireCodec, payload: Payload) -> Payload {
    match (codec, payload) {
        (WireCodec::F16 | WireCodec::Int8, Payload::F32(v)) => encode_f32(codec, &v),
        (_, p) => p,
    }
}

/// Decode elements `start .. start + out.len()` of a wire image into
/// `out`. Returns `false`, leaving `out` untouched, when `payload` is
/// not an `F16`/`QI8` image; panics when the range runs past it.
pub(crate) fn decode_into(payload: &Payload, start: usize, out: &mut [f32]) -> bool {
    decode_with(codec::selected(), payload, start, out)
}

fn decode_with(pass: CodecFn, payload: &Payload, start: usize, out: &mut [f32]) -> bool {
    let range = start..start + out.len();
    match payload {
        Payload::F16(h) => pass(CodecPass::F16Decode {
            src: &h[range],
            out,
        }),
        Payload::QI8 { scale, q } => pass(CodecPass::I8Decode {
            src: &q[range],
            scale: *scale,
            out,
        }),
        _ => return false,
    }
    true
}

/// Decode a wire image back to `F32`; payloads that are not wire
/// images pass through untouched. Unconditional: `F16`/`QI8`
/// payloads only ever originate from [`encode`].
pub fn decode(payload: Payload) -> Payload {
    match payload {
        Payload::F16(_) | Payload::QI8 { .. } => {
            let mut out = vec![0.0; payload.elems()];
            decode_into(&payload, 0, &mut out);
            Payload::F32(out)
        }
        p => p,
    }
}

/// The scalar definitions the codec passes must reproduce bit for bit,
/// kept as the test oracle (here and in the collective tests).
#[cfg(test)]
pub(crate) mod reference {
    use super::{Payload, WireCodec};

    /// binary16 bits of `x`, rounded to nearest even, branch by branch.
    pub(crate) fn f32_to_f16_bits(x: f32) -> u16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xff) as i32;
        let mant = bits & 0x007f_ffff;
        if exp == 0xff {
            // Inf / NaN (NaN keeps a payload bit so it stays a NaN).
            return sign | 0x7c00 | if mant != 0 { 0x0200 } else { 0 };
        }
        let unbiased = exp - 127;
        if unbiased >= 16 {
            return sign | 0x7c00; // overflow → ±inf
        }
        if unbiased >= -14 {
            // Normal half-precision range.
            let mut half_exp = (unbiased + 15) as u32;
            let mut half_mant = mant >> 13;
            let round = mant & 0x1fff;
            if round > 0x1000 || (round == 0x1000 && half_mant & 1 == 1) {
                half_mant += 1;
                if half_mant == 0x400 {
                    half_mant = 0;
                    half_exp += 1;
                    if half_exp >= 31 {
                        return sign | 0x7c00;
                    }
                }
            }
            return sign | ((half_exp as u16) << 10) | half_mant as u16;
        }
        if unbiased < -25 {
            return sign; // underflows past the smallest subnormal
        }
        // Subnormal half: shift the full 24-bit significand into place.
        let full = mant | 0x0080_0000;
        let shift = (13 - 14 - unbiased) as u32;
        let mut h = full >> shift;
        let rem = full & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        if rem > halfway || (rem == halfway && h & 1 == 1) {
            h += 1; // a carry into bit 10 lands on the smallest normal
        }
        sign | h as u16
    }

    /// The `f32` value of binary16 bits, renormalizing subnormals in a
    /// loop.
    pub(crate) fn f16_bits_to_f32(h: u16) -> f32 {
        let sign = u32::from(h & 0x8000) << 16;
        let exp = u32::from(h >> 10) & 0x1f;
        let mant = u32::from(h & 0x3ff);
        let bits = if exp == 0 {
            if mant == 0 {
                sign // ±0
            } else {
                let mut e: i32 = 113; // biased exponent of 2^-14
                let mut m = mant;
                while m & 0x400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                sign | ((e as u32) << 23) | ((m & 0x3ff) << 13)
            }
        } else if exp == 31 {
            sign | 0x7f80_0000 | (mant << 13) // inf / NaN
        } else {
            sign | ((exp + 112) << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }

    /// Quantize to int8 with the deterministic scale `max_abs / 127`,
    /// element by element: the definition the blocked reciprocal pass
    /// must reproduce. All-zero (or non-finite-max) inputs use scale 0
    /// and decode to zeros.
    pub(crate) fn quantize_i8(v: &[f32]) -> (f32, Vec<i8>) {
        const INFINITY_BITS: u32 = 0x7f80_0000;
        let max_bits = v.iter().fold(0u32, |m, x| m.max(x.to_bits() & 0x7fff_ffff));
        if max_bits == 0 || max_bits >= INFINITY_BITS {
            return (0.0, vec![0; v.len()]);
        }
        let scale = f32::from_bits(max_bits) / 127.0;
        let q = v.iter().map(|&x| round_to_i8(x / scale)).collect();
        (scale, q)
    }

    /// Round half away from zero and clamp to ±127: truncate, then step
    /// away from zero when the remainder — exact, as `|y| <= 127` — is
    /// at least a half. NaN maps to 0.
    pub(crate) fn round_to_i8(y: f32) -> i8 {
        let y = y.clamp(-127.0, 127.0);
        let t = y as i32;
        let r = y - t as f32;
        (t + i32::from(r >= 0.5) - i32::from(r <= -0.5)) as i8
    }

    /// The wire image of `v` under `codec`, element by element.
    pub(crate) fn encode(codec: WireCodec, v: &[f32]) -> Payload {
        match codec {
            WireCodec::None => Payload::F32(v.to_vec()),
            WireCodec::F16 => Payload::F16(v.iter().map(|&x| f32_to_f16_bits(x)).collect()),
            WireCodec::Int8 => {
                let (scale, q) = quantize_i8(v);
                Payload::QI8 { scale, q }
            }
        }
    }

    /// The `f32` elements of a payload: a wire image decoded element by
    /// element, an `F32` payload copied.
    pub(crate) fn decode(p: &Payload) -> Vec<f32> {
        match p {
            Payload::F32(v) => v.clone(),
            Payload::F16(h) => h.iter().map(|&h| f16_bits_to_f32(h)).collect(),
            Payload::QI8 { scale, q } => q.iter().map(|&q| f32::from(q) * scale).collect(),
            other => panic!("not an f32 payload: {}", other.kind()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{f16_bits_to_f32, f32_to_f16_bits, quantize_i8, round_to_i8};
    use super::*;

    /// The expression `round_to_i8` spells out, as its own oracle.
    fn round_to_i8_libm(y: f32) -> i8 {
        y.round().clamp(-127.0, 127.0) as i8
    }

    // ---- helpers ------------------------------------------------------

    fn roundtrip_f16(x: f32) -> f32 {
        f16_bits_to_f32(f32_to_f16_bits(x))
    }

    fn fast_i8(v: &[f32]) -> (f32, Vec<i8>) {
        i8_with(codec::selected(), v)
    }

    fn i8_with(pass: CodecFn, v: &[f32]) -> (f32, Vec<i8>) {
        match encode_with(pass, WireCodec::Int8, v, &mut PayloadPool::default()) {
            Payload::QI8 { scale, q } => (scale, q),
            other => panic!("int8 encode gave {}", other.kind()),
        }
    }

    fn fast_f16(v: &[f32]) -> Vec<u16> {
        match encode_f32(WireCodec::F16, v) {
            Payload::F16(h) => h,
            other => panic!("f16 encode gave {}", other.kind()),
        }
    }

    /// The int8 encode of `v` under every codec instantiation this CPU
    /// runs equals the scalar definition bit for bit, scale included.
    fn assert_i8_matches(v: &[f32]) {
        let (want_scale, want) = quantize_i8(v);
        for (name, pass) in codec::instantiations() {
            let (scale, q) = i8_with(pass, v);
            assert_eq!(
                scale.to_bits(),
                want_scale.to_bits(),
                "{name}: scale of {v:?}"
            );
            assert_eq!(q, want, "{name}: quantized {v:?} at scale {scale:e}");
        }
    }

    /// The f16 encode under every instantiation equals the scalar
    /// definition on every `x`.
    fn assert_f16_matches(xs: &[f32]) {
        let want: Vec<u16> = xs.iter().map(|&x| f32_to_f16_bits(x)).collect();
        for (name, pass) in codec::instantiations() {
            let Payload::F16(got) =
                encode_with(pass, WireCodec::F16, xs, &mut PayloadPool::default())
            else {
                panic!("{name}: f16 encode gave another kind");
            };
            for ((&x, &h), &w) in xs.iter().zip(&got).zip(&want) {
                assert_eq!(h, w, "{name}: x={x:e} ({:#010x})", x.to_bits());
            }
        }
    }

    // ---- binary16 -----------------------------------------------------

    #[test]
    fn f16_exact_values_round_trip() {
        for &x in &[
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            2.0,
            1.5,
            0.25,
            65504.0,
            -65504.0,
            6.103_515_6e-5,
        ] {
            assert_eq!(roundtrip_f16(x).to_bits(), x.to_bits(), "x={x}");
        }
    }

    #[test]
    fn f16_is_idempotent_on_its_output() {
        let mut rng = pdnn_util::Prng::new(7);
        for _ in 0..10_000 {
            let x = rng.range(-1e4, 1e4) as f32;
            let once = roundtrip_f16(x);
            assert_eq!(roundtrip_f16(once).to_bits(), once.to_bits(), "x={x}");
        }
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1 + 2^-11 sits exactly halfway between 1.0 and the next
        // binary16 value 1 + 2^-10; even mantissa (1.0) wins.
        assert_eq!(roundtrip_f16(1.0 + 2f32.powi(-11)), 1.0);
        // 1 + 3·2^-11 is halfway between 1 + 2^-10 and 1 + 2^-9;
        // rounding up makes the mantissa even.
        assert_eq!(
            roundtrip_f16(1.0 + 3.0 * 2f32.powi(-11)),
            1.0 + 2f32.powi(-9)
        );
    }

    #[test]
    fn f16_handles_overflow_underflow_and_subnormals() {
        assert_eq!(roundtrip_f16(1e6), f32::INFINITY);
        assert_eq!(roundtrip_f16(-1e6), f32::NEG_INFINITY);
        assert_eq!(roundtrip_f16(1e-10), 0.0);
        assert!(roundtrip_f16(f32::NAN).is_nan());
        // Smallest binary16 subnormal: 2^-24.
        let tiny = 2f32.powi(-24);
        assert_eq!(roundtrip_f16(tiny), tiny);
        assert_eq!(roundtrip_f16(-tiny), -tiny);
    }

    #[test]
    fn f16_error_is_within_half_ulp() {
        let mut rng = pdnn_util::Prng::new(11);
        for _ in 0..10_000 {
            let x = rng.range(-100.0, 100.0) as f32;
            let y = roundtrip_f16(x);
            // binary16 has a 10-bit mantissa: relative error ≤ 2^-11.
            assert!((y - x).abs() <= x.abs() * 2f32.powi(-11) + 2f32.powi(-24));
        }
    }

    #[test]
    fn f16_decode_matches_the_definition_on_every_pattern() {
        let all: Vec<u16> = (0..=u16::MAX).collect();
        let image = Payload::F16(all.clone());
        let mut out = vec![0.0f32; all.len()];
        for (name, pass) in codec::instantiations() {
            assert!(decode_with(pass, &image, 0, &mut out));
            for (&h, &x) in all.iter().zip(&out) {
                assert_eq!(
                    x.to_bits(),
                    f16_bits_to_f32(h).to_bits(),
                    "{name}: h={h:#06x}"
                );
            }
        }
        // The owning decode and a window into the image agree with it.
        let owned = decode(image.clone()).into_f32();
        assert!(owned
            .iter()
            .zip(&out)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let mut window = vec![0.0f32; 1000];
        assert!(decode_into(&image, 0x7b00, &mut window));
        assert!(window
            .iter()
            .zip(&out[0x7b00..])
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn f16_encode_matches_the_definition_at_every_rounding_boundary() {
        // Every binary16 value and every midpoint between neighbours,
        // each with one f32 ulp either side, both signs: all the places
        // nearest-even rounding can go wrong, subnormals included.
        let mut xs = Vec::new();
        for h in 0..0x7c00u16 {
            let lo = f16_bits_to_f32(h);
            let hi = f16_bits_to_f32(h + 1);
            let mid = lo + (hi - lo) / 2.0; // exact: one more bit
            for x in [lo, mid] {
                for x in [x, x.next_up(), x.next_down()] {
                    xs.extend([x, -x]);
                }
            }
        }
        assert_f16_matches(&xs);
    }

    #[test]
    fn f16_encode_matches_the_definition_across_overflow_and_underflow() {
        // The 65,504 / 65,520 overflow boundary: every f32 from just
        // below the largest half to well past the round-to-infinity
        // point, both signs.
        let lo = 65_000.0f32.to_bits();
        let hi = 66_000.0f32.to_bits();
        let xs: Vec<f32> = (lo..=hi)
            .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
            .collect();
        assert_f16_matches(&xs);
        // The subnormal and underflow ranges: every f32 below the
        // smallest normal half (2^-14) on an odd stride, so the low
        // mantissa bits cycle, f32 subnormals included.
        let xs: Vec<f32> = (0..0x3880_0000u32 + 4096)
            .step_by(61)
            .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
            .collect();
        assert_f16_matches(&xs);
        // A strided sweep over every bit pattern: all exponents, both
        // signs, NaNs and infinities.
        let xs: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
        assert_f16_matches(&xs);
    }

    #[test]
    fn f16_nan_payloads_encode_to_the_canonical_quiet_nan() {
        for bits in [
            0x7f80_0001u32,
            0x7f80_2000,
            0x7fc0_0000,
            0x7fff_ffff,
            0x7fa5_5a5a,
        ] {
            for sign in [0, 0x8000_0000] {
                let x = f32::from_bits(bits | sign);
                let want = ((sign >> 16) as u16) | 0x7e00;
                assert_eq!(fast_f16(&[x]), vec![want], "bits={:#010x}", bits | sign);
                assert_eq!(f32_to_f16_bits(x), want);
            }
        }
        assert_f16_matches(&[f32::INFINITY, f32::NEG_INFINITY]);
    }

    // ---- int8 ---------------------------------------------------------

    #[test]
    fn int8_scale_is_deterministic_and_max_maps_to_127() {
        let v = vec![0.5f32, -2.0, 1.25, 0.0];
        let (scale, q) = fast_i8(&v);
        assert_eq!(scale, 2.0 / 127.0);
        assert_eq!(q[1], -127);
        let (scale2, q2) = fast_i8(&v);
        assert_eq!((scale, q), (scale2, q2));
    }

    #[test]
    fn int8_rounding_matches_libm_round_bitwise() {
        // Every half-integer in range with its two neighbours (the
        // only places truncate-and-compare could disagree with
        // `round`), the clamp edges, and the non-finite inputs.
        for k in -130i32..=130 {
            let h = k as f32 + 0.5;
            for y in [h, h.next_up(), h.next_down(), k as f32] {
                assert_eq!(round_to_i8(y), round_to_i8_libm(y), "y={y:e}");
            }
        }
        for y in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e30] {
            assert_eq!(round_to_i8(y), round_to_i8_libm(y), "y={y:e}");
        }
        // A strided sweep of every bit pattern (both signs, all
        // exponents, NaNs included); the stride is odd so the low
        // mantissa bits cycle.
        for bits in (0..=u32::MAX).step_by(4099) {
            let y = f32::from_bits(bits);
            assert_eq!(round_to_i8(y), round_to_i8_libm(y), "bits={bits:#x}");
        }
    }

    #[test]
    fn int8_quantize_matches_the_scalar_definition() {
        let mut rng = pdnn_util::Prng::new(5);
        let mut v: Vec<f32> = (0..1000).map(|_| rng.range(-3.0, 3.0) as f32).collect();
        v[17] = -7.25; // the max, negative
        v[18] = f32::MIN_POSITIVE / 4.0; // a subnormal element
        assert_i8_matches(&v);
        assert_eq!(fast_i8(&v).0, 7.25 / 127.0);
        // Infinities trip the same guard as NaN, wherever they sit.
        v[999] = f32::NEG_INFINITY;
        assert_eq!(fast_i8(&v), (0.0, vec![0; v.len()]));
    }

    #[test]
    fn int8_quotients_at_and_beside_half_integers_match() {
        // Scale 1 (max 127): the quotient is the element itself, so
        // every k + ½ and its two f32 neighbours sit exactly where they
        // are put. Then scales whose reciprocal is inexact, with
        // elements stepped ulp by ulp across each (k + ½)·scale.
        let mut v = vec![127.0f32];
        for k in -127..127 {
            let h = k as f32 + 0.5;
            v.extend([h, h.next_up(), h.next_down()]);
        }
        assert_i8_matches(&v);
        for max in [1.0f32, 3.0, 0.1, 7.25e-3, 1e30, 2.5e-36] {
            let scale = max / 127.0;
            let mut v = vec![max];
            for k in -127..127 {
                let mut x = (k as f32 + 0.5) * scale;
                for _ in 0..4 {
                    x = x.next_down();
                }
                for _ in 0..9 {
                    v.push(x);
                    x = x.next_up();
                }
            }
            // Keep `max` the largest magnitude.
            v.retain(|x| x.abs() <= max);
            assert_i8_matches(&v);
        }
    }

    #[test]
    fn int8_extremes_and_signed_zero_match() {
        assert_i8_matches(&[127.0, -127.0, -0.0, 0.0]);
        assert_i8_matches(&[-1.0, 1.0, -0.0]);
        assert_i8_matches(&[-0.0, 5e-3]);
        let (_, q) = fast_i8(&[-3.0, 3.0, -0.0]);
        assert_eq!(q, vec![-127, 127, 0]);
        // The largest finite magnitude: the scale and every quotient
        // stay finite.
        assert_i8_matches(&[f32::MAX, -f32::MAX, 1.0, f32::MAX / 2.0]);
    }

    #[test]
    fn int8_zero_and_nonfinite_degrade_to_zeros() {
        for v in [
            vec![0.0f32, 0.0],
            vec![-0.0, 0.0, -0.0],
            vec![f32::NAN, 1.0],
            vec![1.0, f32::NAN],
            vec![2.0, f32::INFINITY, -1.0],
            vec![f32::NEG_INFINITY],
            vec![f32::from_bits(0x7fc0_1234), 0.0],
        ] {
            assert_eq!(fast_i8(&v), (0.0, vec![0; v.len()]), "{v:?}");
            assert_i8_matches(&v);
        }
    }

    /// A pooled buffer arrives holding a previous image; the all-zero
    /// and non-finite guards must still write every element, and every
    /// codec must overwrite what it reuses.
    #[test]
    fn encodes_into_dirty_pooled_buffers_match_the_oracle() {
        let dirty = |len: usize| {
            let mut pool = PayloadPool::default();
            pool.retire(Payload::QI8 {
                scale: 3.0,
                q: vec![-77; len],
            });
            pool.retire(Payload::F16(vec![0x7bff; len]));
            pool.retire(Payload::F32(vec![9.5; len]));
            pool
        };
        let mut rng = pdnn_util::Prng::new(41);
        let random: Vec<f32> = (0..300).map(|_| rng.normal() as f32).collect();
        for v in [
            vec![0.0f32; 300],
            vec![-0.0; 17],
            vec![1.0, f32::NAN, -2.0],
            vec![f32::INFINITY; 40],
            random,
        ] {
            for codec in [WireCodec::None, WireCodec::F16, WireCodec::Int8] {
                // Same length and a shorter image in a longer buffer.
                for mut pool in [dirty(v.len()), dirty(v.len() + 9)] {
                    let got = encode_f32_in(codec, &v, &mut pool);
                    let want = reference::encode(codec, &v);
                    let same = match (&got, &want) {
                        (Payload::F32(a), Payload::F32(b)) => a
                            .iter()
                            .map(|x| x.to_bits())
                            .eq(b.iter().map(|x| x.to_bits())),
                        (Payload::QI8 { scale: s, q }, Payload::QI8 { scale: t, q: r }) => {
                            s.to_bits() == t.to_bits() && q == r
                        }
                        _ => got == want,
                    };
                    assert!(same, "{codec:?} on {v:?}: {got:?} != {want:?}");
                }
            }
        }
    }

    #[test]
    fn int8_subnormal_maxima_match() {
        // Maxima whose scale is subnormal, or underflows to 0 — then
        // every nonzero quotient is infinite and 0/0 is NaN.
        let tiny = f32::from_bits(1);
        for max in [
            tiny,
            f32::from_bits(127),
            f32::from_bits(128),
            f32::MIN_POSITIVE / 2.0,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE * 126.9,
            f32::MIN_POSITIVE * 127.0,
            f32::MIN_POSITIVE * 128.0,
        ] {
            let v = [max, -max, 0.0, -0.0, max / 2.0, tiny, -tiny, max / 3.0];
            assert_i8_matches(&v);
        }
        assert_eq!(fast_i8(&[tiny, 0.0, -tiny]).1, vec![127, 0, -127]);
    }

    #[test]
    fn int8_every_length_matches() {
        // Every length 0–67 covers each vector tail and the block edge
        // at 64; the last element is pushed next to a half-integer so
        // a tail lane triggers the exact pass too.
        let mut rng = pdnn_util::Prng::new(23);
        for n in 0..=67 {
            let mut v: Vec<f32> = (0..n).map(|_| rng.range(-2.0, 2.0) as f32).collect();
            assert_i8_matches(&v);
            if n >= 2 {
                v[0] = 2.0 * 127.0 / 127.0; // max 2: scale 2/127
                v[n - 1] = 40.5 * (2.0 / 127.0);
                assert_i8_matches(&v);
            }
        }
    }

    #[test]
    fn int8_random_chunks_match() {
        let mut rng = pdnn_util::Prng::new(31);
        for t in 0..4000u32 {
            let n = (t % 150) as usize;
            let v: Vec<f32> = (0..n)
                .map(|_| match t % 3 {
                    // Raw bit patterns: every exponent, NaN and inf.
                    0 => f32::from_bits(rng.next_u64() as u32),
                    // Half-integers of a random scale.
                    1 => (rng.range(-127.0, 127.0).round() as f32 + 0.5) * 0.013,
                    _ => rng.range(-1.0, 1.0) as f32 * (1 + t % 7) as f32,
                })
                .collect();
            assert_i8_matches(&v);
        }
    }

    // ---- payload API --------------------------------------------------

    #[test]
    fn encode_decode_round_trip_shapes() {
        let v: Vec<f32> = (0..17).map(|i| (i as f32).sin()).collect();
        for codec in [WireCodec::F16, WireCodec::Int8] {
            let enc = encode(codec, Payload::F32(v.clone()));
            assert_ne!(enc.kind(), "F32");
            assert_eq!(enc, encode_f32(codec, &v));
            assert!(enc.size_bytes() < Payload::F32(v.clone()).size_bytes());
            let dec = decode(enc.clone());
            let out = dec.into_f32();
            assert_eq!(out.len(), v.len());
            // Deterministic: encoding again yields identical wire bytes.
            assert_eq!(encode(codec, Payload::F32(v.clone())), enc);
            // A window decodes to the same bits as the whole image.
            let mut window = vec![0.0f32; 5];
            assert!(decode_into(&enc, 9, &mut window));
            assert_eq!(window, out[9..14]);
        }
    }

    #[test]
    fn non_f32_payloads_pass_through() {
        let p = Payload::U64(vec![1, 2, 3]);
        assert_eq!(encode(WireCodec::F16, p.clone()), p);
        assert_eq!(decode(p.clone()), p);
        assert!(!decode_into(&p, 0, &mut []));
        let f = Payload::F32(vec![1.0]);
        assert_eq!(encode(WireCodec::None, f.clone()), f);
        assert_eq!(encode_f32(WireCodec::None, &[1.0]), f);
        assert!(!decode_into(&f, 0, &mut [0.0]));
    }

    #[test]
    fn decode_error_bounds() {
        let v: Vec<f32> = (0..256).map(|i| ((i as f32) * 0.37).sin() * 3.0).collect();
        let f16 = decode(encode(WireCodec::F16, Payload::F32(v.clone()))).into_f32();
        for (a, b) in v.iter().zip(&f16) {
            assert!((a - b).abs() <= a.abs() * 2f32.powi(-11) + 1e-7);
        }
        let i8v = decode(encode(WireCodec::Int8, Payload::F32(v.clone()))).into_f32();
        let max_abs = v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        for (a, b) in v.iter().zip(&i8v) {
            // Quantization step is max_abs/127; error ≤ half a step.
            assert!((a - b).abs() <= max_abs / 127.0 * 0.5 + 1e-7);
        }
    }
}
