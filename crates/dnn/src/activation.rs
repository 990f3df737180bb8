//! Hidden-layer activation functions.
//!
//! The era's acoustic models (and Martens' Hessian-free experiments)
//! used saturating nonlinearities; we provide those plus ReLU. Each
//! activation exposes its derivative *as a function of the activation
//! value* — the backward passes then never need the pre-activations,
//! halving the memory kept alive during backprop and the R-pass.
//!
//! The forward pass adds the bias and applies the activation in one
//! pass over each row of the GEMM output ([`Activation::apply_with_bias`]).
//! Sigmoid and tanh run [`pdnn_tensor::vmath`]'s vectorized slice
//! kernels: `σ(z) = 1/(1 + exp(−z))` and `tanh(z) = 1 − 2/(exp(2z) + 1)`
//! with the portable `exp`, no libm and no sign branch (`exp` overflows
//! to `+inf` or flushes to `+0` in the tails, giving exactly 0 or 1,
//! and ±1 for tanh). A sigmoid output below `MIN_POSITIVE` is flushed
//! to `+0`, so every activation is zero or a normal float and the
//! backward passes and Gauss–Newton products that consume it never
//! touch a subnormal.

use pdnn_tensor::gemm::PackedB;
use pdnn_tensor::{vmath, Matrix, Scalar};

/// Elementwise nonlinearity applied to a layer's pre-activations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Logistic sigmoid `1 / (1 + exp(-z))` — the paper-era default.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit `max(0, z)`.
    ReLU,
    /// Identity (used for the output layer; the loss handles softmax).
    Identity,
}

impl Activation {
    /// `z[r][j] = f(z[r][j] + bias[j])` in place: the bias add and the
    /// activation in one pass per row.
    ///
    /// # Panics
    /// If `bias.len() != z.cols()`.
    pub(crate) fn apply_with_bias<T: Scalar>(self, z: &mut Matrix<T>, bias: &[T]) {
        assert_eq!(bias.len(), z.cols(), "bias length != cols");
        if bias.is_empty() {
            return;
        }
        for row in z.as_mut_slice().chunks_exact_mut(bias.len()) {
            match self {
                Activation::Sigmoid => vmath::bias_sigmoid(row, bias),
                Activation::Tanh => vmath::bias_tanh(row, bias),
                Activation::ReLU => {
                    for (v, &b) in row.iter_mut().zip(bias) {
                        *v = (*v + b).max(T::ZERO);
                    }
                }
                Activation::Identity => {
                    for (v, &b) in row.iter_mut().zip(bias) {
                        *v += b;
                    }
                }
            }
        }
    }

    /// Derivative `f'(z)` expressed in terms of the activation `a = f(z)`.
    #[inline]
    pub(crate) fn derivative_from_output<T: Scalar>(self, a: T) -> T {
        match self {
            Activation::Sigmoid => a * (T::ONE - a),
            Activation::Tanh => T::ONE - a * a,
            Activation::ReLU => {
                if a > T::ZERO {
                    T::ONE
                } else {
                    T::ZERO
                }
            }
            Activation::Identity => T::ONE,
        }
    }

    /// Multiply `m` elementwise by `f'` evaluated from the stored
    /// activations `a` (the `delta ∘ f'(z)` step of backprop).
    pub(crate) fn mask_derivative<T: Scalar>(self, m: &mut Matrix<T>, a: &Matrix<T>) {
        assert_eq!(m.shape(), a.shape(), "mask_derivative shape mismatch");
        self.mask_slice(m.as_mut_slice(), a.as_slice());
    }

    /// [`Self::mask_derivative`] with the activations read back out of
    /// their pack: row `r` of `m` against row `r` of `op(a)`, whose
    /// units lie in `NR`-wide runs ([`PackedB::row_runs`]). Bitwise the
    /// unpacked mask: the pack holds the activations' own values.
    ///
    /// # Panics
    /// If `m` is not `a.k() x a.n()`.
    pub(crate) fn mask_derivative_packed<T: Scalar>(self, m: &mut Matrix<T>, a: &PackedB<T>) {
        assert_eq!(m.shape(), (a.k(), a.n()), "mask_derivative shape mismatch");
        if self == Activation::Identity {
            return;
        }
        for r in 0..m.rows() {
            let mut row = m.row_mut(r);
            for run in a.row_runs(r) {
                let (head, tail) = std::mem::take(&mut row).split_at_mut(run.len());
                self.mask_slice(head, run);
                row = tail;
            }
        }
    }

    /// `m[i] *= f'(a[i])`, the variant matched once per slice so each
    /// arm's loop vectorizes.
    fn mask_slice<T: Scalar>(self, m: &mut [T], a: &[T]) {
        fn mask<T: Scalar>(m: &mut [T], a: &[T], f: impl Fn(T) -> T) {
            for (mv, &av) in m.iter_mut().zip(a) {
                *mv *= f(av);
            }
        }
        match self {
            Activation::Sigmoid => mask(m, a, |a| Activation::Sigmoid.derivative_from_output(a)),
            Activation::Tanh => mask(m, a, |a| Activation::Tanh.derivative_from_output(a)),
            Activation::ReLU => mask(m, a, |a| Activation::ReLU.derivative_from_output(a)),
            Activation::Identity => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply_scalar(act: Activation, z: f64) -> f64 {
        let mut m: Matrix<f64> = Matrix::from_vec(1, 1, vec![z]);
        act.apply_with_bias(&mut m, &[0.0]);
        m[(0, 0)]
    }

    /// The forward pass before fusion: the bias add, then the
    /// activation formulas of that code (a sign branch for sigmoid,
    /// `(e²ᶻ − 1)/(e²ᶻ + 1)` for tanh) with the same portable `exp`.
    fn two_pass(act: Activation, z: &Matrix<f32>, bias: &[f32]) -> Matrix<f32> {
        let mut z = z.clone();
        z.add_row_broadcast(bias);
        match act {
            Activation::Sigmoid => z.map(|v| {
                if v >= 0.0 {
                    1.0 / (1.0 + Scalar::exp(-v))
                } else {
                    let e = Scalar::exp(v);
                    e / (1.0 + e)
                }
            }),
            Activation::Tanh => z.map(|v| {
                let e2 = Scalar::exp(v + v);
                (e2 - 1.0) / (e2 + 1.0)
            }),
            Activation::ReLU => z.map(|v| v.max(0.0)),
            Activation::Identity => z,
        }
    }

    #[test]
    fn fused_pass_matches_the_two_pass_code() {
        // ReLU and identity are the same operations, so bitwise equal;
        // sigmoid and tanh changed formula, so within a few ulp of
        // their output scale (tanh's moderate-z inputs keep the old
        // formula's NaN at |z| > 44 out of range).
        let mut rng = pdnn_util::Prng::new(26);
        let z: Matrix<f32> = Matrix::from_fn(13, 37, |_, _| (rng.uniform() as f32 - 0.5) * 40.0);
        let bias: Vec<f32> = (0..37).map(|j| (j as f32 - 18.0) * 0.3).collect();
        for act in [
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::ReLU,
            Activation::Identity,
        ] {
            let mut fused = z.clone();
            act.apply_with_bias(&mut fused, &bias);
            let want = two_pass(act, &z, &bias);
            match act {
                Activation::ReLU | Activation::Identity => assert_eq!(fused, want, "{act:?}"),
                _ => {
                    let err = fused.max_abs_diff(&want);
                    assert!(
                        err <= 4.0 * f64::from(f32::EPSILON),
                        "{act:?}: off by {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn sigmoid_values() {
        assert!((apply_scalar(Activation::Sigmoid, 0.0) - 0.5).abs() < 1e-12);
        assert!(apply_scalar(Activation::Sigmoid, 10.0) > 0.9999);
        assert!(apply_scalar(Activation::Sigmoid, -10.0) < 0.0001);
    }

    #[test]
    fn sigmoid_is_stable_in_tails() {
        assert!(apply_scalar(Activation::Sigmoid, -1000.0).is_finite());
        assert!(apply_scalar(Activation::Sigmoid, 1000.0).is_finite());
        assert_eq!(apply_scalar(Activation::Sigmoid, -1000.0), 0.0);
        assert_eq!(apply_scalar(Activation::Sigmoid, 1000.0), 1.0);
    }

    #[test]
    fn tanh_matches_std() {
        for z in [-2.0, -0.5, 0.0, 0.3, 1.7] {
            assert!((apply_scalar(Activation::Tanh, z) - z.tanh()).abs() < 1e-12);
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(apply_scalar(Activation::ReLU, -3.0), 0.0);
        assert_eq!(apply_scalar(Activation::ReLU, 4.0), 4.0);
    }

    #[test]
    fn identity_is_noop() {
        assert_eq!(apply_scalar(Activation::Identity, 2.5), 2.5);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in [Activation::Sigmoid, Activation::Tanh, Activation::ReLU] {
            for z in [-1.5, -0.2, 0.4, 2.0] {
                let a = apply_scalar(act, z);
                let fd = (apply_scalar(act, z + h) - apply_scalar(act, z - h)) / (2.0 * h);
                let an = act.derivative_from_output(a);
                assert!(
                    (fd - an).abs() < 1e-5,
                    "{act:?} at z={z}: fd={fd} analytic={an}"
                );
            }
        }
    }

    #[test]
    fn mask_derivative_scales_elementwise() {
        let a: Matrix<f64> = Matrix::from_vec(1, 2, vec![0.5, 1.0]);
        let mut m: Matrix<f64> = Matrix::from_vec(1, 2, vec![2.0, 2.0]);
        Activation::Sigmoid.mask_derivative(&mut m, &a);
        assert!((m[(0, 0)] - 2.0 * 0.25).abs() < 1e-12);
        assert!((m[(0, 1)] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn packed_mask_is_the_mask() {
        use pdnn_tensor::gemm::{Blocking, Trans, NR};
        let mut rng = pdnn_util::Prng::new(27);
        let a: Matrix<f32> = Matrix::from_fn(11, NR + 5, |_, _| rng.uniform() as f32);
        let m: Matrix<f32> = Matrix::from_fn(11, NR + 5, |r, c| (r as f32 - c as f32) * 0.3);
        let blocking = Blocking {
            mc: 8,
            kc: 4,
            nc: NR + 2,
        };
        for act in [Activation::Sigmoid, Activation::Tanh, Activation::ReLU] {
            let (mut want, mut got) = (m.clone(), m.clone());
            act.mask_derivative(&mut want, &a);
            act.mask_derivative_packed(&mut got, &PackedB::new(&a, Trans::N, blocking));
            assert_eq!(got, want, "{act:?}");
        }
    }

    #[test]
    fn mask_derivative_identity_leaves_input() {
        let a: Matrix<f32> = Matrix::filled(2, 2, 0.3);
        let mut m: Matrix<f32> = Matrix::filled(2, 2, 7.0);
        Activation::Identity.mask_derivative(&mut m, &a);
        assert!(m.as_slice().iter().all(|&v| v == 7.0));
    }
}
