//! Wire-level payload compression for collective traffic.
//!
//! A [`WireCodec`] transparently narrows `F32` collective payloads on
//! the simulated wire: `F16` halves bytes-on-wire via IEEE-754
//! binary16 (round-to-nearest-even), `Int8` quarters them via linear
//! quantization with a deterministic per-message scale
//! (`max_abs / 127`). Encoding happens inside [`Comm::send`] while a
//! codec-armed collective is running; decoding happens in the typed
//! receive path, so user code and the collective algorithms never see
//! the wire image. Byte accounting uses the *encoded* size, which is
//! what flows into [`CommStats`] and the per-collective wire-byte
//! counters.
//!
//! Both codecs are deterministic (same input → same wire bytes) and
//! idempotent on their own output for `F16` (every binary16 value is
//! exactly representable in `f32`, so a decode/encode cycle is the
//! identity). `Int8` re-quantization can wobble by one ULP in the
//! scale, which is why broadcast-shaped collectives forward the
//! original wire image instead of re-encoding — see the
//! "encode-once" pattern in `crate::collectives`.
//!
//! [`Comm::send`]: crate::Comm::send
//! [`CommStats`]: pdnn_obs::CommStats

use crate::message::Payload;

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

/// Convert an `f32` to binary16 bits, rounding to nearest even.
pub fn f32_to_f16_bits(x: f32) -> u16 {
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

/// Convert binary16 bits back to an `f32` (exact: every binary16
/// value is representable).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = u32::from(h >> 10) & 0x1f;
    let mant = u32::from(h & 0x3ff);
    let bits = if exp == 0 {
        if mant == 0 {
            sign // ±0
        } else {
            // Subnormal half: renormalize into an f32 exponent.
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

/// Quantize to int8 with the deterministic scale `max_abs / 127`.
/// All-zero (or non-finite-max) inputs use scale 0 and decode to
/// zeros.
///
/// Both passes are branch-free so they vectorize: the allreduce
/// encodes every chunk it forwards, and an early-return finite check
/// plus `f32::round` (a libm call on the `x86-64` baseline) made this
/// 40x slower than decoding.
fn quantize_i8(v: &[f32]) -> (f32, Vec<i8>) {
    // |x| as an integer: orders like the float it encodes, and every
    // infinity or NaN lands at or above the infinity pattern — so one
    // max covers the magnitude and the non-finite guard (`f32::max`
    // would let a NaN element slip past it).
    const INFINITY_BITS: u32 = 0x7f80_0000;
    let max_bits = v.iter().fold(0u32, |m, x| m.max(x.to_bits() & 0x7fff_ffff));
    if max_bits == 0 || max_bits >= INFINITY_BITS {
        return (0.0, vec![0; v.len()]);
    }
    let scale = f32::from_bits(max_bits) / 127.0;
    let q = v.iter().map(|&x| round_to_i8(x / scale)).collect();
    (scale, q)
}

/// `y.round().clamp(-127.0, 127.0) as i8` without the libm call: clamp
/// first (rounding is monotonic, so the order does not matter),
/// truncate, then step away from zero when the remainder — exact, as
/// `|y| <= 127` — is at least a half. NaN maps to 0 either way.
#[inline]
fn round_to_i8(y: f32) -> i8 {
    let y = y.clamp(-127.0, 127.0);
    let t = y as i32;
    let r = y - t as f32;
    (t + i32::from(r >= 0.5) - i32::from(r <= -0.5)) as i8
}

/// Encode an `F32` payload under `codec`; every other payload kind
/// (and `WireCodec::None`) passes through untouched, so the hook is
/// safe to apply to already-encoded or non-float traffic.
pub fn encode(codec: WireCodec, payload: Payload) -> Payload {
    match (codec, payload) {
        (WireCodec::F16, Payload::F32(v)) => {
            Payload::F16(v.into_iter().map(f32_to_f16_bits).collect())
        }
        (WireCodec::Int8, Payload::F32(v)) => {
            let (scale, q) = quantize_i8(&v);
            Payload::QI8 { scale, q }
        }
        (_, p) => p,
    }
}

/// Decode a wire image by reference: `Some(F32)` for `F16`/`QI8`
/// payloads, `None` for anything already in its final form. Lets the
/// ring allgather decode a received chunk into the caller's buffer
/// while still forwarding the original wire image untouched, without
/// cloning the packet payload first.
pub fn decode_ref(payload: &Payload) -> Option<Payload> {
    match payload {
        Payload::F16(v) => Some(Payload::F32(
            v.iter().map(|&h| f16_bits_to_f32(h)).collect(),
        )),
        Payload::QI8 { scale, q } => Some(Payload::F32(
            q.iter().map(|&x| f32::from(x) * *scale).collect(),
        )),
        _ => None,
    }
}

/// Decode a wire image back to `F32`; payloads that are not wire
/// images pass through untouched. Unconditional: `F16`/`QI8`
/// payloads only ever originate from [`encode`].
pub fn decode(payload: Payload) -> Payload {
    match payload {
        Payload::F16(v) => Payload::F32(v.into_iter().map(f16_bits_to_f32).collect()),
        Payload::QI8 { scale, q } => {
            Payload::F32(q.into_iter().map(|x| f32::from(x) * scale).collect())
        }
        p => p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_f16(x: f32) -> f32 {
        f16_bits_to_f32(f32_to_f16_bits(x))
    }

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
    fn int8_scale_is_deterministic_and_max_maps_to_127() {
        let v = vec![0.5f32, -2.0, 1.25, 0.0];
        let (scale, q) = quantize_i8(&v);
        assert_eq!(scale, 2.0 / 127.0);
        assert_eq!(q[1], -127);
        let (scale2, q2) = quantize_i8(&v);
        assert_eq!((scale, q), (scale2, q2));
    }

    /// The expression `round_to_i8` replaces, kept as its oracle.
    fn round_to_i8_oracle(y: f32) -> i8 {
        y.round().clamp(-127.0, 127.0) as i8
    }

    #[test]
    fn int8_rounding_matches_libm_round_bitwise() {
        // Every half-integer in range with its two neighbours (the
        // only places truncate-and-compare could disagree with
        // `round`), the clamp edges, and the non-finite inputs.
        for k in -130i32..=130 {
            let h = k as f32 + 0.5;
            for y in [h, h.next_up(), h.next_down(), k as f32] {
                assert_eq!(round_to_i8(y), round_to_i8_oracle(y), "y={y:e}");
            }
        }
        for y in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e30] {
            assert_eq!(round_to_i8(y), round_to_i8_oracle(y), "y={y:e}");
        }
        // A strided sweep of every bit pattern (both signs, all
        // exponents, NaNs included); the stride is odd so the low
        // mantissa bits cycle.
        for bits in (0..=u32::MAX).step_by(4099) {
            let y = f32::from_bits(bits);
            assert_eq!(round_to_i8(y), round_to_i8_oracle(y), "bits={bits:#x}");
        }
    }

    #[test]
    fn int8_quantize_matches_the_scalar_definition() {
        let mut rng = pdnn_util::Prng::new(5);
        let mut v: Vec<f32> = (0..1000).map(|_| rng.range(-3.0, 3.0) as f32).collect();
        v[17] = -7.25; // the max, negative
        v[18] = f32::MIN_POSITIVE / 4.0; // a subnormal element
        let (scale, q) = quantize_i8(&v);
        assert_eq!(scale, 7.25 / 127.0);
        let want: Vec<i8> = v.iter().map(|&x| round_to_i8_oracle(x / scale)).collect();
        assert_eq!(q, want);
        // Infinities trip the same guard as NaN, wherever they sit.
        v[999] = f32::NEG_INFINITY;
        assert_eq!(quantize_i8(&v), (0.0, vec![0; v.len()]));
    }

    #[test]
    fn int8_zero_and_nonfinite_degrade_to_zeros() {
        assert_eq!(quantize_i8(&[0.0, 0.0]), (0.0, vec![0, 0]));
        let (scale, q) = quantize_i8(&[f32::NAN, 1.0]);
        assert_eq!(scale, 0.0);
        assert_eq!(q, vec![0, 0]);
    }

    #[test]
    fn encode_decode_round_trip_shapes() {
        let v: Vec<f32> = (0..17).map(|i| (i as f32).sin()).collect();
        for codec in [WireCodec::F16, WireCodec::Int8] {
            let enc = encode(codec, Payload::F32(v.clone()));
            assert_ne!(enc.kind(), "F32");
            assert!(enc.size_bytes() < Payload::F32(v.clone()).size_bytes());
            let dec = decode(enc.clone());
            let out = dec.into_f32();
            assert_eq!(out.len(), v.len());
            // Deterministic: encoding again yields identical wire bytes.
            assert_eq!(encode(codec, Payload::F32(v.clone())), enc);
        }
    }

    #[test]
    fn non_f32_payloads_pass_through() {
        let p = Payload::U64(vec![1, 2, 3]);
        assert_eq!(encode(WireCodec::F16, p.clone()), p);
        assert_eq!(decode(p.clone()), p);
        let f = Payload::F32(vec![1.0]);
        assert_eq!(encode(WireCodec::None, f.clone()), f);
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
