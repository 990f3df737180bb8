//! Portable `exp`/`ln` and the element-wise row passes built on them.
//!
//! The GEMM owes its bit-identity across backends to using nothing but
//! exactly-rounded IEEE operations in a fixed order; this module holds
//! the transcendental functions of training to the same rule, so they
//! never call the platform libm and give the same bits on every host
//! and ISA:
//!
//! * `exp_f32` / [`exp_f64`]: `x = n·ln 2 + r` with `n` the nearest
//!   integer to `x·log₂e` (a shifter-constant add, so no rounding
//!   instruction is needed), a fixed Cody–Waite reduction
//!   `r = (x − n·C1) − n·C2`, a polynomial in `r` evaluated in
//!   [`Scalar::fma`] steps (Cephes' degree-5 `expf` kernel for `f32`,
//!   Taylor to degree 13 for `f64`), and the scale `2ⁿ` built from
//!   exponent bits in two exact halves. Results below `MIN_POSITIVE`
//!   are flushed to `+0`, so an output is always `+0`, a normal number,
//!   `+inf` or the NaN it was given — never subnormal, on any ISA and
//!   without FTZ/DAZ.
//! * [`ln_f64`]: fdlibm's `log` (`x = 2ᵏ·m`, `m ∈ [√2/2, √2)`,
//!   `s = f/(2+f)` and a degree-14 odd series in `s`), with the same
//!   fixed operation order.
//!
//! Against the `f64` libm rounded to the result type, over all 2³²
//! `f32` inputs, `exp_f32` is within 1 ulp and the sigmoid pass within
//! 2 ulp (counting a flushed `+0` one ulp below `MIN_POSITIVE`);
//! `tests/vmath_accuracy.rs` holds them to 2 and 3 ulp, and
//! `exp_f64`/`ln_f64` to 2 ulp on random and strided sweeps.
//!
//! ## Slice kernels
//!
//! [`exp_slice`], [`bias_sigmoid`] and [`bias_tanh`] run one
//! `#[inline(always)]` loop (`crate::gemm::kernel::elementwise`)
//! compiled several times: portable, and on x86_64 under
//! `target_feature` `fma`, `avx2,fma` and `avx512f,avx2,fma`, where the
//! `fma` steps become `vfmadd` and LLVM vectorizes the loop across
//! elements. Each lane performs the same scalar operations in the same
//! order, so every instantiation returns the same bits
//! ([`instantiations`] lists them for the parity tests). The one used
//! is picked once per process from the default backend's ISA, so
//! `PDNN_BACKEND=scalar` runs the portable loop. (On an `x86-64`
//! baseline without FMA its `fma` steps are calls to libm's exactly
//! rounded `fma`, which returns the same bits as the instruction.)

use crate::gemm::backend::Isa;
use crate::scalar::Scalar;

/// Which element-wise pass a row kernel runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowOp {
    /// `row[j] = exp(row[j])`; the bias is ignored.
    Exp,
    /// `row[j] = σ(row[j] + bias[j])`.
    BiasSigmoid,
    /// `row[j] = tanh(row[j] + bias[j])`.
    BiasTanh,
}

/// One instantiation of the element-wise row kernel.
pub type RowOpFn<T> = fn(op: RowOp, row: &mut [T], bias: &[T]);

// Cephes `expf`: reduction constants and the polynomial of
// `(exp(r) − 1 − r) / r²` on `|r| ≤ ln 2 / 2`.
const F32_SHIFT: f32 = 12_582_912.0; // 1.5 · 2²³
const F32_C1: f32 = 0.693_359_4; // exactly 0.693359375: 9 significant bits
const F32_C2: f32 = -2.121_944_4e-4;
const F32_POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_6e-1,
    0.5,
];
/// Clamp for the reduction: below it the result is flushed anyway,
/// above it the result overflows anyway; inside it `n ∈ [−150, 129]`.
const F32_LO: f32 = -104.0;
const F32_HI: f32 = 89.0;

const F64_SHIFT: f64 = 6_755_399_441_055_744.0; // 1.5 · 2⁵²
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// `1/k!` for `k = 13` down to `2`: the Horner order of `exp_f64`.
const F64_POLY: [f64; 12] = [
    1.0 / 6_227_020_800.0,
    1.0 / 479_001_600.0,
    1.0 / 39_916_800.0,
    1.0 / 3_628_800.0,
    1.0 / 362_880.0,
    1.0 / 40_320.0,
    1.0 / 5_040.0,
    1.0 / 720.0,
    1.0 / 120.0,
    1.0 / 24.0,
    1.0 / 6.0,
    1.0 / 2.0,
];
const F64_LO: f64 = -750.0;
const F64_HI: f64 = 710.0;

// fdlibm `log` series coefficients.
const LG: [f64; 7] = [
    6.666_666_666_666_735e-1,
    3.999_999_999_940_942e-1,
    2.857_142_874_366_239e-1,
    2.222_219_843_214_978_4e-1,
    1.818_357_216_161_805e-1,
    1.531_383_769_920_937_3e-1,
    1.479_819_860_511_658_6e-1,
];

/// Portable `exp` for `f32` (module docs). Branch-free, so a loop of it
/// vectorizes.
#[inline(always)]
pub(crate) fn exp_f32(x: f32) -> f32 {
    let xc = x.clamp(F32_LO, F32_HI); // NaN stays NaN
                                      // t = SHIFT + round(x·log₂e): the integer lands in t's low bits.
    let t = xc.fma(std::f32::consts::LOG2_E, F32_SHIFT);
    let nf = t - F32_SHIFT;
    let n = (t.to_bits() as i32).wrapping_sub(F32_SHIFT.to_bits() as i32);
    let r = (-nf).fma(F32_C2, (-nf).fma(F32_C1, xc));
    let z = r * r;
    let mut p = F32_POLY[0];
    for &c in &F32_POLY[1..] {
        p = p.fma(r, c);
    }
    let y = p.fma(z, r) + 1.0;
    // 2ⁿ in two normal halves, so n = −150 and n = 128 both scale
    // exactly and the one rounding is the final product's.
    let h = n >> 1;
    let s1 = f32::from_bits((h.wrapping_add(127) as u32) << 23);
    let s2 = f32::from_bits((n.wrapping_sub(h).wrapping_add(127) as u32) << 23);
    let out = y * s1 * s2;
    let out = if out < f32::MIN_POSITIVE { 0.0 } else { out };
    if x.is_nan() {
        x
    } else {
        out
    }
}

/// Portable `exp` for `f64` (module docs). Branch-free.
#[inline(always)]
pub fn exp_f64(x: f64) -> f64 {
    let xc = x.clamp(F64_LO, F64_HI); // NaN stays NaN
    let t = xc.fma(std::f64::consts::LOG2_E, F64_SHIFT);
    let nf = t - F64_SHIFT;
    let n = (t.to_bits() as i64).wrapping_sub(F64_SHIFT.to_bits() as i64);
    let r = (-nf).fma(LN2_LO, (-nf).fma(LN2_HI, xc));
    let z = r * r;
    let mut p = F64_POLY[0];
    for &c in &F64_POLY[1..] {
        p = p.fma(r, c);
    }
    let y = p.fma(z, r) + 1.0;
    let h = n >> 1;
    let s1 = f64::from_bits((h.wrapping_add(1023) as u64) << 52);
    let s2 = f64::from_bits((n.wrapping_sub(h).wrapping_add(1023) as u64) << 52);
    let out = y * s1 * s2;
    let out = if out < f64::MIN_POSITIVE { 0.0 } else { out };
    if x.is_nan() {
        x
    } else {
        out
    }
}

/// Portable natural logarithm for `f64` (fdlibm's algorithm): `NaN`
/// for negative or NaN input, `−inf` at `±0`, `+inf` at `+inf`.
#[inline(always)]
pub fn ln_f64(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    if x <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if x > f64::MAX {
        return x;
    }
    // Subnormals: scale into the normal range first.
    let (x, k0) = if x < f64::MIN_POSITIVE {
        (x * 18_014_398_509_481_984.0, -54i64) // 2⁵⁴
    } else {
        (x, 0)
    };
    let bits = x.to_bits();
    let mut k = k0 + ((bits >> 52) as i64) - 1023;
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        k += 1;
    }
    let f = m - 1.0;
    let dk = k as f64;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * w.fma(w.fma(LG[5], LG[3]), LG[1]);
    let t2 = z * w.fma(w.fma(w.fma(LG[6], LG[4]), LG[2]), LG[0]);
    let big_r = t2 + t1;
    let hfsq = 0.5 * f * f;
    dk * LN2_HI - ((hfsq - s.fma(hfsq + big_r, dk * LN2_LO)) - f)
}

/// [`ln_f64`] of the widened argument, rounded back to `f32`.
#[inline(always)]
pub(crate) fn ln_f32(x: f32) -> f32 {
    ln_f64(f64::from(x)) as f32
}

/// `exp` of every element, in place (dispatched slice kernel).
pub fn exp_slice<T: Scalar>(xs: &mut [T]) {
    T::row_op_kernel()(RowOp::Exp, xs, &[]);
}

/// `row[j] = σ(row[j] + bias[j])`, one pass (dispatched slice kernel).
/// Outputs are `+0` or normal.
///
/// # Panics
/// If the lengths differ.
pub fn bias_sigmoid<T: Scalar>(row: &mut [T], bias: &[T]) {
    assert_eq!(row.len(), bias.len(), "bias_sigmoid: bias length");
    T::row_op_kernel()(RowOp::BiasSigmoid, row, bias);
}

/// `row[j] = tanh(row[j] + bias[j])`, one pass (dispatched slice
/// kernel).
///
/// # Panics
/// If the lengths differ.
pub fn bias_tanh<T: Scalar>(row: &mut [T], bias: &[T]) {
    assert_eq!(row.len(), bias.len(), "bias_tanh: bias length");
    T::row_op_kernel()(RowOp::BiasTanh, row, bias);
}

/// Every instantiation of the row kernel the running CPU can execute,
/// portable first, each named after the features it is compiled for.
/// A feature-gated one is listed only with the ISA token its features
/// were detected into ([`crate::gemm::backend`]).
pub fn instantiations<T: Scalar>() -> Vec<(&'static str, RowOpFn<T>)> {
    crate::gemm::dispatch::row_op_instantiations()
}

/// Name of the instantiation for a backend ISA: the one of the same
/// width, the portable loop for the scalar and NEON backends.
fn instantiation_for(isa: Isa) -> &'static str {
    match isa {
        Isa::Avx2 => "avx2",
        Isa::Avx512 => "avx512",
        Isa::Scalar | Isa::Neon => "portable",
    }
}

/// The instantiation for a backend ISA (portable if the CPU lacks it).
pub(crate) fn select<T: Scalar>(isa: Isa) -> RowOpFn<T> {
    let want = instantiation_for(isa);
    let all = instantiations::<T>();
    let portable = all[0].1;
    all.into_iter()
        .find(|(name, _)| *name == want)
        .map_or(portable, |(_, f)| f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_special_values() {
        assert_eq!(exp_f32(0.0), 1.0);
        assert_eq!(exp_f32(-0.0), 1.0);
        assert_eq!(exp_f32(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp_f32(f32::NEG_INFINITY), 0.0);
        assert!(exp_f32(f32::NAN).is_nan());
        assert_eq!(exp_f32(f32::MIN_POSITIVE / 4.0), 1.0);
        assert_eq!(exp_f32(-100.0), 0.0);
        assert_eq!(exp_f64(0.0), 1.0);
        assert_eq!(exp_f64(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp_f64(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_f64(-709.0), 0.0);
        assert!(exp_f64(f64::NAN).is_nan());
    }

    #[test]
    fn ln_special_values() {
        assert_eq!(ln_f64(1.0), 0.0);
        assert_eq!(ln_f64(0.0), f64::NEG_INFINITY);
        assert_eq!(ln_f64(-0.0), f64::NEG_INFINITY);
        assert_eq!(ln_f64(f64::INFINITY), f64::INFINITY);
        assert!(ln_f64(-1.0).is_nan());
        assert!(ln_f64(f64::NAN).is_nan());
        let tiny = f64::from_bits(1); // smallest subnormal, 2^-1074
        assert!((ln_f64(tiny) - (-1074.0 * std::f64::consts::LN_2)).abs() < 1e-12);
    }

    #[test]
    fn every_available_isa_has_its_instantiation() {
        for isa in crate::available_isas() {
            let want = instantiation_for(isa);
            assert!(
                instantiations::<f32>()
                    .iter()
                    .any(|(name, _)| *name == want),
                "{isa} selects `{want}`, which is not listed"
            );
        }
        assert_eq!(instantiation_for(Isa::Scalar), "portable");
    }
}
