//! Finite-difference utilities for verifying analytic derivatives.
//!
//! Used throughout the test suites; exposed publicly so downstream
//! crates (and users extending the library) can validate custom loss
//! functions the same way.

/// Central finite-difference gradient of `f` at `theta`.
///
/// O(2n) evaluations of `f`; intended for small test problems.
pub fn fd_gradient(mut f: impl FnMut(&[f64]) -> f64, theta: &[f64], h: f64) -> Vec<f64> {
    assert!(h > 0.0, "fd_gradient: step must be positive");
    let mut grad = Vec::with_capacity(theta.len());
    let mut work = theta.to_vec();
    for i in 0..theta.len() {
        let orig = work[i];
        work[i] = orig + h;
        let plus = f(&work);
        work[i] = orig - h;
        let minus = f(&work);
        work[i] = orig;
        grad.push((plus - minus) / (2.0 * h));
    }
    grad
}

/// Largest relative error between two vectors,
/// `max_i |a_i - b_i| / (1 + max(|a_i|, |b_i|))`.
pub fn max_rel_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_rel_error length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y).abs() / (1.0 + x.abs().max(y.abs())))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite-difference directional derivative of `f` along `v`.
    fn fd_directional(mut f: impl FnMut(&[f64]) -> f64, theta: &[f64], v: &[f64], h: f64) -> f64 {
        assert_eq!(theta.len(), v.len(), "fd_directional length mismatch");
        let plus: Vec<f64> = theta.iter().zip(v).map(|(&t, &d)| t + h * d).collect();
        let minus: Vec<f64> = theta.iter().zip(v).map(|(&t, &d)| t - h * d).collect();
        (f(&plus) - f(&minus)) / (2.0 * h)
    }

    #[test]
    fn fd_gradient_of_quadratic() {
        // f(x) = x0^2 + 3 x1 → grad = (2 x0, 3)
        let f = |x: &[f64]| x[0] * x[0] + 3.0 * x[1];
        let g = fd_gradient(f, &[2.0, -1.0], 1e-6);
        assert!((g[0] - 4.0).abs() < 1e-6);
        assert!((g[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn fd_directional_matches_dot_with_gradient() {
        let f = |x: &[f64]| x[0].sin() + x[1] * x[1];
        let theta = [0.7, -0.3];
        let v = [2.0, 1.0];
        let d = fd_directional(f, &theta, &v, 1e-6);
        let expect = 0.7f64.cos() * 2.0 + 2.0 * (-0.3) * 1.0;
        assert!((d - expect).abs() < 1e-6, "{d} vs {expect}");
    }

    #[test]
    fn max_rel_error_zero_for_equal() {
        assert_eq!(max_rel_error(&[1.0, -2.0], &[1.0, -2.0]), 0.0);
    }

    #[test]
    fn max_rel_error_detects_outlier() {
        let e = max_rel_error(&[1.0, 1.0], &[1.0, 3.0]);
        assert!((e - 2.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn fd_gradient_rejects_zero_step() {
        fd_gradient(|_| 0.0, &[1.0], 0.0);
    }
}
