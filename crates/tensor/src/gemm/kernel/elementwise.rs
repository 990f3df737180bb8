//! Element-wise row kernels: in-place `exp`, and bias + sigmoid/tanh in
//! one pass.
//!
//! Like [`super::scalar`], one `#[inline(always)]` loop ([`row_op`])
//! is compiled several times. The portable instantiation is the
//! reference; on x86_64 the same loop is inlined into functions with
//! `fma`, `avx2,fma` and `avx512f,fma` enabled, where each
//! [`crate::scalar::Scalar::fma`] step of [`crate::vmath`]'s `exp` is
//! one `vfmadd` and LLVM vectorizes the loop across elements. The
//! elements are independent and each lane runs the same IEEE
//! operations in the same order, so all instantiations agree bitwise;
//! [`crate::vmath::instantiations`] lists the ones the CPU can run and
//! picks among them.

use crate::scalar::Scalar;
use crate::vmath::RowOp;

/// `σ(z) = 1 / (1 + exp(−z))`, flushed to `+0` below `MIN_POSITIVE`.
/// No sign branch: `exp(−z)` overflows to `+inf` (σ = 0) or flushes to
/// `+0` (σ = 1) in the tails.
#[inline(always)]
fn sigmoid<T: Scalar>(z: T) -> T {
    let s = T::ONE / (T::ONE + (-z).exp());
    if s < T::MIN_POSITIVE {
        T::ZERO
    } else {
        s
    }
}

/// `tanh(z) = 1 − 2 / (exp(2z) + 1)`: exactly `±1` once `exp(2z)`
/// overflows or flushes, never a subnormal.
#[inline(always)]
fn tanh<T: Scalar>(z: T) -> T {
    let two = T::ONE + T::ONE;
    T::ONE - two / ((z + z).exp() + T::ONE)
}

/// Reference row kernel ([`crate::vmath::RowOpFn`] shape), portable
/// instantiation. `bias` is read only by the bias passes, which need it
/// at least as long as `row`.
#[inline(always)]
pub fn row_op<T: Scalar>(op: RowOp, row: &mut [T], bias: &[T]) {
    match op {
        RowOp::Exp => {
            for v in row.iter_mut() {
                *v = v.exp();
            }
        }
        RowOp::BiasSigmoid => {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v = sigmoid(*v + b);
            }
        }
        RowOp::BiasTanh => {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v = tanh(*v + b);
            }
        }
    }
}

/// [`row_op`] compiled with the scalar FMA instruction enabled.
#[cfg(target_arch = "x86_64")]
pub fn row_op_fma<T: Scalar>(op: RowOp, row: &mut [T], bias: &[T]) {
    kernel_precondition!(is_x86_feature_detected!("fma"), "fma not available");
    // SAFETY: CPU support asserted above; the operands are safe slices.
    unsafe { row_op_fma_imp(op, row, bias) }
}

// kernel-contract: requires target_feature(fma)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn row_op_fma_imp<T: Scalar>(op: RowOp, row: &mut [T], bias: &[T]) {
    row_op(op, row, bias);
}

/// [`row_op`] compiled for 256-bit AVX2 registers with FMA.
#[cfg(target_arch = "x86_64")]
pub fn row_op_avx2<T: Scalar>(op: RowOp, row: &mut [T], bias: &[T]) {
    kernel_precondition!(
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        "avx2/fma not available"
    );
    // SAFETY: CPU support asserted above; the operands are safe slices.
    unsafe { row_op_avx2_imp(op, row, bias) }
}

// kernel-contract: requires target_feature(avx2, fma)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn row_op_avx2_imp<T: Scalar>(op: RowOp, row: &mut [T], bias: &[T]) {
    row_op(op, row, bias);
}

/// [`row_op`] compiled for 512-bit AVX-512 registers with FMA.
#[cfg(target_arch = "x86_64")]
pub fn row_op_avx512<T: Scalar>(op: RowOp, row: &mut [T], bias: &[T]) {
    kernel_precondition!(
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("fma"),
        "avx512f/fma not available"
    );
    // SAFETY: CPU support asserted above; the operands are safe slices.
    unsafe { row_op_avx512_imp(op, row, bias) }
}

// kernel-contract: requires target_feature(avx512f, fma)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn row_op_avx512_imp<T: Scalar>(op: RowOp, row: &mut [T], bias: &[T]) {
    row_op(op, row, bias);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_and_tanh_tails_are_exact() {
        assert_eq!(sigmoid(-1000.0f32), 0.0);
        assert_eq!(sigmoid(1000.0f32), 1.0);
        assert_eq!(sigmoid(-1000.0f64), 0.0);
        assert_eq!(sigmoid(0.0f32), 0.5);
        assert_eq!(tanh(100.0f32), 1.0);
        assert_eq!(tanh(-100.0f32), -1.0);
        assert_eq!(tanh(0.0f64), 0.0);
        // Just past the flush point σ would be subnormal.
        assert_eq!(sigmoid(-87.5f32), 0.0);
        assert!(sigmoid(-87.0f32).is_normal());
    }

    #[test]
    fn bias_passes_add_the_bias_first() {
        let mut row = [0.5f32, -1.0, 2.0];
        row_op(RowOp::BiasSigmoid, &mut row, &[-0.5, 1.0, -2.0]);
        assert_eq!(row, [0.5; 3]);
        let mut row = [1.0f64, -3.0];
        row_op(RowOp::BiasTanh, &mut row, &[-1.0, 3.0]);
        assert_eq!(row, [0.0; 2]);
        let mut row = [0.0f32, 1.0];
        row_op(RowOp::Exp, &mut row, &[]);
        assert_eq!(row[0], 1.0);
        assert_eq!(row[1], crate::vmath::exp_f32(1.0));
    }
}
