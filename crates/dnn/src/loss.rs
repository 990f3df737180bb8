//! Frame-level training criteria.
//!
//! Cross-entropy (the paper's first objective, Table I row 1) and
//! squared error. Softmax is fused into the cross-entropy so the
//! network emits raw logits and the computation is stable for large
//! magnitudes. Loss sums accumulate in `f64` — they are reduced over
//! millions of frames and across workers.
//!
//! **One `exp` per logit.** Softmax and cross-entropy evaluate
//! `e_j = exp(x_j − max)` once per logit, in the logits' own precision,
//! with [`pdnn_tensor::vmath`]'s vectorized slice kernel (no libm). The
//! row's log-sum-exp is `max + ln Σ_j e_j` (the sum in `f64`, the `ln`
//! [`vmath::ln_f64`]), and the probabilities — softmax outputs and
//! the `dlogits = p − 1[j = label]` of cross-entropy — are `e_j` times
//! `1/Σ`, not a second `exp`. A probability below `MIN_POSITIVE` is
//! flushed to `+0` (as `exp` itself flushes), so every softmax output
//! and every gradient entry is zero or a normal float.

use pdnn_tensor::{vmath, Matrix, Scalar};

/// Which per-frame criterion a trainer optimizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameLoss {
    /// Softmax cross-entropy against integer class targets.
    CrossEntropy,
    /// 0.5 * squared error against real-valued targets.
    SquaredError,
}

/// Result of evaluating a loss over a batch.
#[derive(Clone, Debug)]
pub struct LossOutput<T: Scalar = f32> {
    /// Sum of per-frame losses (not the mean — distributed reduction
    /// sums worker partials, then the master divides once).
    pub loss: f64,
    /// Gradient of the summed loss with respect to the logits.
    pub dlogits: Matrix<T>,
    /// Frames whose argmax matched the target (CE only; 0 for MSE).
    pub correct: usize,
}

/// `out = exp(row − max(row))` (one vectorized `exp` per logit);
/// returns the row's log-sum-exp `max + ln Σ out` and `1/Σ out`.
pub(crate) fn shifted_exp<T: Scalar>(row: &[T], out: &mut [T]) -> (f64, f64) {
    let max = row.iter().fold(row[0], |m, &v| m.max(v));
    for (o, &v) in out.iter_mut().zip(row) {
        *o = v - max;
    }
    vmath::exp_slice(out);
    let sum: f64 = out.iter().map(|e| e.to_f64()).sum();
    (max.to_f64() + vmath::ln_f64(sum), 1.0 / sum)
}

/// `e *= inv` over a row of [`shifted_exp`] output: the probabilities,
/// flushed to `+0` below `MIN_POSITIVE`.
fn normalize<T: Scalar>(row: &mut [T], inv: f64) {
    let inv = T::from_f64(inv);
    for v in row.iter_mut() {
        let p = *v * inv;
        *v = if p < T::MIN_POSITIVE { T::ZERO } else { p };
    }
}

/// Index of the row maximum (ties to the lower index).
fn argmax<T: Scalar>(row: &[T]) -> usize {
    let mut best = 0usize;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

/// Row-wise softmax (stable: shifts by the row max).
pub fn softmax_rows<T: Scalar>(logits: &Matrix<T>) -> Matrix<T> {
    let mut out = Matrix::zeros(logits.rows(), logits.cols());
    for r in 0..out.rows() {
        let (_, inv) = shifted_exp(logits.row(r), out.row_mut(r));
        normalize(out.row_mut(r), inv);
    }
    out
}

/// Summed softmax cross-entropy and its logits-gradient.
///
/// # Panics
/// If `labels.len() != logits.rows()` or a label is out of range.
pub fn cross_entropy<T: Scalar>(logits: &Matrix<T>, labels: &[u32]) -> LossOutput<T> {
    assert_eq!(
        labels.len(),
        logits.rows(),
        "cross_entropy: {} labels for {} frames",
        labels.len(),
        logits.rows()
    );
    let classes = logits.cols();
    let mut dlogits = Matrix::zeros(logits.rows(), classes);
    let mut loss = 0.0f64;
    let mut correct = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        let label = label as usize;
        assert!(
            label < classes,
            "cross_entropy: label {label} out of range ({classes} classes)"
        );
        let row_in = logits.row(r);
        let row_out = dlogits.row_mut(r);
        let (lse, inv) = shifted_exp(row_in, row_out);
        loss += lse - row_in[label].to_f64();
        if argmax(row_in) == label {
            correct += 1;
        }
        normalize(row_out, inv);
        row_out[label] -= T::ONE;
    }
    LossOutput {
        loss,
        dlogits,
        correct,
    }
}

/// Summed cross-entropy only (no gradient) — used by the held-out
/// loss evaluations inside backtracking and line search, which are
/// called many times per HF iteration.
pub fn cross_entropy_loss_only<T: Scalar>(logits: &Matrix<T>, labels: &[u32]) -> (f64, usize) {
    assert_eq!(labels.len(), logits.rows(), "loss_only label count");
    let mut scratch = vec![T::ZERO; logits.cols()];
    let mut loss = 0.0f64;
    let mut correct = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        let label = label as usize;
        let row = logits.row(r);
        assert!(label < row.len(), "label {label} out of range");
        let (lse, _) = shifted_exp(row, &mut scratch);
        loss += lse - row[label].to_f64();
        if argmax(row) == label {
            correct += 1;
        }
    }
    (loss, correct)
}

/// Summed `0.5 * ||logits - targets||^2` and its gradient.
pub fn squared_error<T: Scalar>(logits: &Matrix<T>, targets: &Matrix<T>) -> LossOutput<T> {
    assert_eq!(
        logits.shape(),
        targets.shape(),
        "squared_error shape mismatch"
    );
    let mut dlogits = logits.clone();
    let mut loss = 0.0f64;
    for (d, &t) in dlogits
        .as_mut_slice()
        .iter_mut()
        .zip(targets.as_slice().iter())
    {
        *d -= t;
        let e = d.to_f64();
        loss += 0.5 * e * e;
    }
    LossOutput {
        loss,
        dlogits,
        correct: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits: Matrix<f64> = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let p = softmax_rows(&logits);
        for r in 0..2 {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(p.row(r).iter().all(|&v| v > 0.0));
        }
        // Monotone: larger logit ⇒ larger probability.
        assert!(p[(0, 2)] > p[(0, 1)] && p[(0, 1)] > p[(0, 0)]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a: Matrix<f64> = Matrix::from_vec(1, 2, vec![1000.0, 1001.0]);
        let p = softmax_rows(&a);
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
        let b: Matrix<f64> = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let q = softmax_rows(&b);
        assert!((p[(0, 0)] - q[(0, 0)]).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_uniform_is_log_k() {
        let logits: Matrix<f64> = Matrix::zeros(4, 8);
        let labels = [0u32, 3, 5, 7];
        let out = cross_entropy(&logits, &labels);
        assert!((out.loss - 4.0 * (8.0f64).ln()).abs() < 1e-10);
    }

    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero() {
        let logits: Matrix<f64> = Matrix::from_vec(2, 3, vec![0.1, -0.4, 2.0, 1.0, 1.0, 1.0]);
        let out = cross_entropy(&logits, &[2, 0]);
        for r in 0..2 {
            let s: f64 = out.dlogits.row(r).iter().sum();
            assert!(s.abs() < 1e-12, "row {r} sums to {s}");
        }
        // Target coordinate has negative gradient (pulls logit up).
        assert!(out.dlogits[(0, 2)] < 0.0);
        assert!(out.dlogits[(1, 0)] < 0.0);
    }

    #[test]
    fn cross_entropy_counts_correct() {
        let logits: Matrix<f32> = Matrix::from_vec(3, 2, vec![2.0, 0.0, 0.0, 2.0, 2.0, 0.0]);
        let out = cross_entropy(&logits, &[0, 1, 1]);
        assert_eq!(out.correct, 2);
        let (loss2, correct2) = cross_entropy_loss_only(&logits, &[0, 1, 1]);
        assert_eq!(correct2, 2);
        assert!((loss2 - out.loss).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_rejects_bad_label() {
        let logits: Matrix<f32> = Matrix::zeros(1, 3);
        cross_entropy(&logits, &[3]);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let base: Matrix<f64> = Matrix::from_vec(1, 3, vec![0.3, -0.7, 1.1]);
        let labels = [1u32];
        let out = cross_entropy(&base, &labels);
        let h = 1e-6;
        for j in 0..3 {
            let mut plus = base.clone();
            plus[(0, j)] += h;
            let mut minus = base.clone();
            minus[(0, j)] -= h;
            let fd = (cross_entropy(&plus, &labels).loss - cross_entropy(&minus, &labels).loss)
                / (2.0 * h);
            assert!(
                (fd - out.dlogits[(0, j)]).abs() < 1e-6,
                "coord {j}: fd={fd} grad={}",
                out.dlogits[(0, j)]
            );
        }
    }

    #[test]
    fn probabilities_are_zero_or_normal() {
        // A 100-nat spread puts exp(x − max) at e⁻¹⁰⁰, far below f32's
        // normal range: flushed, never subnormal.
        let logits: Matrix<f32> = Matrix::from_vec(1, 3, vec![0.0, 100.0, -87.0]);
        let p = softmax_rows(&logits);
        assert_eq!(p.as_slice(), &[0.0, 1.0, 0.0]);
        let out = cross_entropy(&logits, &[1]);
        assert!(out
            .dlogits
            .as_slice()
            .iter()
            .all(|&v| v == 0.0 || v.is_normal()));
        assert!(out.loss.is_finite() && out.loss >= 0.0);
    }

    #[test]
    fn dlogits_are_the_softmax_minus_the_target() {
        let logits: Matrix<f32> = Matrix::from_vec(2, 3, vec![0.1, -0.4, 2.0, 1.0, 1.0, 1.0]);
        let p = softmax_rows(&logits);
        let out = cross_entropy(&logits, &[2, 0]);
        let mut want = p.clone();
        want[(0, 2)] -= 1.0;
        want[(1, 0)] -= 1.0;
        assert_eq!(out.dlogits, want);
    }

    #[test]
    fn squared_error_basic() {
        let logits: Matrix<f32> = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let targets: Matrix<f32> = Matrix::from_vec(1, 2, vec![0.0, 0.0]);
        let out = squared_error(&logits, &targets);
        assert!((out.loss - 2.5).abs() < 1e-6);
        assert_eq!(out.dlogits.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn squared_error_zero_at_target() {
        let logits: Matrix<f64> = Matrix::from_vec(2, 2, vec![1.0, -1.0, 0.5, 0.0]);
        let out = squared_error(&logits, &logits.clone());
        assert_eq!(out.loss, 0.0);
        assert!(out.dlogits.as_slice().iter().all(|&v| v == 0.0));
    }
}
