//! Reference triple-loop GEMM.
//!
//! Used as the correctness oracle for the blocked kernels and as the
//! "untuned library" baseline in the GEMM benches (the paper's
//! Section V.A motivates the tuned kernel against exactly this kind of
//! straightforward implementation).

use crate::matrix::Matrix;
use crate::scalar::Scalar;

use super::Trans;

/// `C = alpha * op(A) * op(B) + beta * C`, naive triple loop.
///
/// Each element's dot product is the same fused multiply-add chain
/// (`kk` ascending, one rounding per step) the blocked kernels run, so
/// within one k-block the oracle and the drivers agree on `op(A) *
/// op(B)` to the bit. Shape contract is identical to the blocked
/// driver; the public entry is [`super::op::GemmOp::run_reference`].
pub(crate) fn reference<T: Scalar>(
    ta: Trans,
    tb: Trans,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let (m, k) = match ta {
        Trans::N => a.shape(),
        Trans::T => {
            let (r, c) = a.shape();
            (c, r)
        }
    };
    let (kb, n) = match tb {
        Trans::N => b.shape(),
        Trans::T => {
            let (r, c) = b.shape();
            (c, r)
        }
    };
    assert_eq!(k, kb, "gemm_naive: inner dimensions {k} != {kb}");
    assert_eq!(c.shape(), (m, n), "gemm_naive: C shape mismatch");

    let at = |i: usize, kk: usize| -> T {
        match ta {
            Trans::N => a[(i, kk)],
            Trans::T => a[(kk, i)],
        }
    };
    let bt = |kk: usize, j: usize| -> T {
        match tb {
            Trans::N => b[(kk, j)],
            Trans::T => b[(j, kk)],
        }
    };

    for i in 0..m {
        for j in 0..n {
            let mut acc = T::ZERO;
            for kk in 0..k {
                acc = at(i, kk).fma(bt(kk, j), acc);
            }
            c[(i, j)] = alpha * acc + beta * c[(i, j)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_anything() {
        let a: Matrix<f32> = Matrix::eye(3);
        let b: Matrix<f32> = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        let mut c: Matrix<f32> = Matrix::zeros(3, 2);
        reference(Trans::N, Trans::N, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn known_2x2() {
        let a: Matrix<f64> = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b: Matrix<f64> = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let mut c: Matrix<f64> = Matrix::zeros(2, 2);
        reference(Trans::N, Trans::N, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_flags_match_explicit_transpose() {
        let a: Matrix<f32> = Matrix::from_fn(3, 4, |r, c| (r + 2 * c) as f32);
        let b: Matrix<f32> = Matrix::from_fn(5, 4, |r, c| (r * c) as f32 - 1.0);
        // C = A * B^T directly…
        let mut c1: Matrix<f32> = Matrix::zeros(3, 5);
        reference(Trans::N, Trans::T, 1.0, &a, &b, 0.0, &mut c1);
        // …equals A * transpose(B) with no flag.
        let bt = b.transposed();
        let mut c2: Matrix<f32> = Matrix::zeros(3, 5);
        reference(Trans::N, Trans::N, 1.0, &a, &bt, 0.0, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn alpha_beta_compose() {
        let a: Matrix<f32> = Matrix::eye(2);
        let b: Matrix<f32> = Matrix::eye(2);
        let mut c: Matrix<f32> = Matrix::filled(2, 2, 10.0);
        reference(Trans::N, Trans::N, 3.0, &a, &b, 0.5, &mut c);
        // diag: 3*1 + 0.5*10 = 8; off-diag: 0 + 5.
        assert_eq!(c[(0, 0)], 8.0);
        assert_eq!(c[(0, 1)], 5.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn inner_dim_mismatch_panics() {
        let a: Matrix<f32> = Matrix::zeros(2, 3);
        let b: Matrix<f32> = Matrix::zeros(4, 2);
        let mut c: Matrix<f32> = Matrix::zeros(2, 2);
        reference(Trans::N, Trans::N, 1.0, &a, &b, 0.0, &mut c);
    }
}
