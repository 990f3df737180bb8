//! Scalar abstraction over `f32`/`f64`.
//!
//! The paper's tuned matrix library supports both single precision
//! (SGEMM — the workhorse of DNN training, Section V.A.5 notes the
//! inner kernel was retuned for it) and double precision (DGEMM). Our
//! kernels are generic over this trait so benches can compare both.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use std::sync::OnceLock;
use std::thread::LocalKey;

use crate::gemm::backend::{default_backend, BtFn, ComputeBackend, RowsTileFn, TileFn};
use crate::gemm::scratch::{self, PackScratch};
use crate::vmath::{self, RowOpFn};

/// Floating-point element type usable by the kernels.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + Default
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon.
    const EPSILON: Self;
    /// Smallest positive normal value; [`crate::vmath`] flushes results
    /// below it to zero.
    const MIN_POSITIVE: Self;

    /// Lossy conversion from `f64`.
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Unfused multiply-add `self * a + b`: two roundings, product
    /// then sum. This is the arithmetic of everything *outside* the
    /// GEMM accumulate chains — the C merge every tile kernel applies
    /// (see [`crate::gemm::backend::Merge`]), `blas1`, `matrix` — and
    /// it never calls libm.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Fused multiply-add `self * a + b` with a single, exact rounding
    /// (IEEE 754 fusedMultiplyAdd) — one step of a GEMM accumulate
    /// chain, and the reference semantics every kernel in
    /// `crate::gemm::kernel` reproduces bit for bit. Where the
    /// enclosing function does not enable a hardware FMA feature this
    /// is a libm call (still exactly rounded, just slow), which is why
    /// only the accumulate chains use it.
    fn fma(self, a: Self, b: Self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Natural exponential: `vmath::exp_f32` / [`vmath::exp_f64`],
    /// never libm.
    fn exp(self) -> Self;
    /// Natural logarithm: [`vmath::ln_f64`] (for `f32` evaluated in
    /// `f64` and rounded), never libm.
    fn ln(self) -> Self;
    /// Maximum of two values (NaN-propagating like `f32::max` is not
    /// required; ties resolved as the std float max).
    fn max(self, other: Self) -> Self;
    /// Minimum of two values.
    fn min(self, other: Self) -> Self;
    /// True when the value is finite.
    fn is_finite(self) -> bool;

    /// The `backend`'s micro-tile kernel for this type (per-type
    /// projection of [`ComputeBackend::tile_f32`]/`tile_f64`; resolved
    /// once per GEMM driver call, not per micro-tile).
    fn tile_kernel(backend: &dyn ComputeBackend) -> TileFn<Self>;
    /// The `backend`'s panel-row micro-tile kernel for this type.
    fn rows_tile_kernel(backend: &dyn ComputeBackend) -> RowsTileFn<Self>;
    /// The `backend`'s streaming-B^T column kernel for this type.
    fn bt_kernel(backend: &dyn ComputeBackend) -> BtFn<Self>;
    /// The element-wise row kernel for this type, picked once per
    /// process from the default backend's ISA.
    fn row_op_kernel() -> RowOpFn<Self>;
    /// The calling thread's retained GEMM packing buffers for this
    /// type (see [`crate::gemm::scratch`]).
    fn pack_scratch() -> &'static LocalKey<PackScratch<Self>>;
}

macro_rules! impl_scalar {
    ($t:ty, $tile:ident, $rows_tile:ident, $bt:ident, $exp:expr, $ln:expr, $scratch:ident) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;
            const MIN_POSITIVE: Self = <$t>::MIN_POSITIVE;

            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                self * a + b
            }
            #[inline(always)]
            fn fma(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn exp(self) -> Self {
                $exp(self)
            }
            #[inline(always)]
            fn ln(self) -> Self {
                $ln(self)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn tile_kernel(backend: &dyn ComputeBackend) -> TileFn<Self> {
                backend.$tile()
            }
            #[inline(always)]
            fn rows_tile_kernel(backend: &dyn ComputeBackend) -> RowsTileFn<Self> {
                backend.$rows_tile()
            }
            #[inline(always)]
            fn bt_kernel(backend: &dyn ComputeBackend) -> BtFn<Self> {
                backend.$bt()
            }
            #[inline]
            fn row_op_kernel() -> RowOpFn<Self> {
                static KERNEL: OnceLock<RowOpFn<$t>> = OnceLock::new();
                *KERNEL.get_or_init(|| vmath::select::<$t>(default_backend().isa()))
            }
            #[inline(always)]
            fn pack_scratch() -> &'static LocalKey<PackScratch<Self>> {
                &scratch::$scratch
            }
        }
    };
}

impl_scalar!(
    f32,
    tile_f32,
    tile_rows_f32,
    bt_f32,
    vmath::exp_f32,
    vmath::ln_f32,
    F32_SCRATCH
);
impl_scalar!(
    f64,
    tile_f64,
    tile_rows_f64,
    bt_f64,
    vmath::exp_f64,
    vmath::ln_f64,
    F64_SCRATCH
);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Scalar>() {
        assert_eq!(T::ZERO.to_f64(), 0.0);
        assert_eq!(T::ONE.to_f64(), 1.0);
        assert_eq!(T::from_f64(2.5).to_f64(), 2.5);
        assert_eq!(
            T::from_f64(2.0).mul_add(T::from_f64(3.0), T::ONE).to_f64(),
            7.0
        );
        assert_eq!(T::from_f64(2.0).fma(T::from_f64(3.0), T::ONE).to_f64(), 7.0);
        assert!(T::from_f64(4.0).sqrt().to_f64() == 2.0);
        assert!(T::from_f64(-1.5).abs().to_f64() == 1.5);
        assert!(T::from_f64(1.0).is_finite());
        assert!(!T::from_f64(f64::INFINITY).is_finite());
    }

    #[test]
    fn f32_scalar_ops() {
        roundtrip::<f32>();
    }

    #[test]
    fn f64_scalar_ops() {
        roundtrip::<f64>();
    }

    #[test]
    fn fma_rounds_once_and_mul_add_twice() {
        // (1 + 2^-13)(1 - 2^-13) = 1 - 2^-26 is not an f32: rounding
        // the product first gives 1, the fused form keeps the tail.
        let (a, b) = (1.0f32 + 2f32.powi(-13), 1.0f32 - 2f32.powi(-13));
        assert_eq!(Scalar::mul_add(a, b, -1.0), 0.0);
        assert_eq!(Scalar::fma(a, b, -1.0), -(2f32.powi(-26)));
    }

    #[test]
    fn max_min_behave() {
        assert_eq!(Scalar::max(1.0f32, 2.0), 2.0);
        assert_eq!(Scalar::min(1.0f64, 2.0), 1.0);
    }
}
