//! Element-wise row kernels: in-place `exp`, and bias + sigmoid/tanh in
//! one pass.
//!
//! Like [`super::scalar`], one `#[inline(always)]` loop ([`row_op`])
//! is compiled several times. The portable instantiation is the
//! reference; on x86_64 the same loop is inlined into safe
//! `#[target_feature]` fns with `fma`, `avx2,fma` and
//! `avx512f,avx2,fma` enabled, each taking the ISA token that proves
//! them (and enabling its features: `fma_kernel!` and so on), where each
//! [`crate::scalar::Scalar::fma`] step of [`crate::vmath`]'s `exp` is
//! one `vfmadd` and LLVM vectorizes the loop across elements. The
//! elements are independent and each lane runs the same IEEE
//! operations in the same order, so all instantiations agree bitwise;
//! [`crate::vmath::instantiations`] lists the ones the CPU can run and
//! picks among them.

#[cfg(target_arch = "x86_64")]
use crate::gemm::dispatch::{avx2_kernel, avx512_kernel, fma_kernel, Avx2, Avx512, Fma};
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
/// instantiation. `bias` is read only by the bias passes.
///
/// # Panics
/// If a bias pass gets a `bias` shorter than `row`.
#[inline(always)]
pub(crate) fn row_op<T: Scalar>(op: RowOp, row: &mut [T], bias: &[T]) {
    match op {
        RowOp::Exp => {
            for v in row.iter_mut() {
                *v = v.exp();
            }
        }
        RowOp::BiasSigmoid => {
            let bias = &bias[..row.len()];
            for (v, &b) in row.iter_mut().zip(bias) {
                *v = sigmoid(*v + b);
            }
        }
        RowOp::BiasTanh => {
            let bias = &bias[..row.len()];
            for (v, &b) in row.iter_mut().zip(bias) {
                *v = tanh(*v + b);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
fma_kernel! {
    /// [`row_op`] compiled with the scalar FMA instruction enabled.
    pub(crate) fn row_op_fma<T: Scalar>(_: Fma, op: RowOp, row: &mut [T], bias: &[T]) {
        row_op(op, row, bias);
    }
}

#[cfg(target_arch = "x86_64")]
avx2_kernel! {
    /// [`row_op`] compiled for 256-bit AVX2 registers with FMA.
    pub(crate) fn row_op_avx2<T: Scalar>(_: Avx2, op: RowOp, row: &mut [T], bias: &[T]) {
        row_op(op, row, bias);
    }
}

#[cfg(target_arch = "x86_64")]
avx512_kernel! {
    /// [`row_op`] compiled for 512-bit AVX-512 registers with FMA.
    pub(crate) fn row_op_avx512<T: Scalar>(_: Avx512, op: RowOp, row: &mut [T], bias: &[T]) {
        row_op(op, row, bias);
    }
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
