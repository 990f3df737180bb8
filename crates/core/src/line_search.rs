//! Armijo backtracking line search.
//!
//! Algorithm 1 finishes each iteration with `θ ← θ + α d_i` where α is
//! found by "an Armijo rule backtracking line search": accept the
//! largest `α ∈ {1, ζ, ζ², …}` satisfying
//!
//! ```text
//! L(θ + α d) ≤ L(θ) + c · α · (g·d)
//! ```
//!
//! with `c = 1e-4` and shrink factor `ζ = 0.5` by default. If the
//! directional derivative is non-negative (not a descent direction) or
//! no step satisfies the condition within the budget, the search
//! reports failure and the optimizer rejects the iteration.

/// Line-search configuration.
#[derive(Clone, Copy, Debug)]
pub struct ArmijoConfig {
    /// Sufficient-decrease constant `c`.
    pub c: f64,
    /// Multiplicative shrink factor per backtrack.
    pub shrink: f64,
    /// Maximum number of trial steps.
    pub max_steps: usize,
}

impl Default for ArmijoConfig {
    fn default() -> Self {
        ArmijoConfig {
            c: 1e-4,
            shrink: 0.5,
            max_steps: 20,
        }
    }
}

/// Outcome of a successful search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ArmijoResult {
    /// Accepted step length.
    pub alpha: f64,
    /// Loss at the accepted point.
    pub loss: f64,
    /// Function evaluations consumed.
    pub evals: usize,
}

/// Run the search. `eval(alpha)` must return `L(θ + α d)`;
/// `loss0 = L(θ)`; `slope = g·d` (must be negative for descent).
///
/// Returns `None` when `slope >= 0` or the budget is exhausted without
/// satisfying the Armijo condition.
pub(crate) fn armijo_search(
    loss0: f64,
    slope: f64,
    mut eval: impl FnMut(f64) -> f64,
    config: &ArmijoConfig,
) -> Option<ArmijoResult> {
    assert!(
        config.shrink > 0.0 && config.shrink < 1.0,
        "shrink in (0,1)"
    );
    assert!(config.max_steps >= 1, "need at least one trial");
    if slope >= 0.0 {
        return None;
    }
    let mut alpha = 1.0f64;
    for step in 1..=config.max_steps {
        let loss = eval(alpha);
        if loss.is_finite() && loss <= loss0 + config.c * alpha * slope {
            return Some(ArmijoResult {
                alpha,
                loss,
                evals: step,
            });
        }
        alpha *= config.shrink;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_step_accepted_on_quadratic() {
        // f(α) = (1 - α)²; loss0 = f(0) = 1, slope = -2.
        let res = armijo_search(
            1.0,
            -2.0,
            |a| (1.0 - a) * (1.0 - a),
            &ArmijoConfig::default(),
        )
        .expect("should succeed");
        assert_eq!(res.alpha, 1.0);
        assert_eq!(res.evals, 1);
        assert!(res.loss < 1.0);
    }

    #[test]
    fn backtracks_when_full_step_overshoots() {
        // Steep valley: f(α) = (1 - 4α)². slope at 0 is -8.
        let res = armijo_search(
            1.0,
            -8.0,
            |a| (1.0 - 4.0 * a) * (1.0 - 4.0 * a),
            &ArmijoConfig::default(),
        )
        .expect("should succeed after backtracking");
        assert!(res.alpha < 1.0);
        assert!(res.evals > 1);
        assert!(res.loss <= 1.0 + 1e-4 * res.alpha * -8.0);
    }

    #[test]
    fn non_descent_direction_rejected() {
        assert!(armijo_search(1.0, 0.5, |_| 0.0, &ArmijoConfig::default()).is_none());
        assert!(armijo_search(1.0, 0.0, |_| 0.0, &ArmijoConfig::default()).is_none());
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        // Adversarial loss that never improves.
        let res = armijo_search(1.0, -1.0, |_| 2.0, &ArmijoConfig::default());
        assert!(res.is_none());
    }

    #[test]
    fn nan_losses_are_skipped_not_accepted() {
        // First trial produces NaN (e.g. diverged forward pass); the
        // search must keep shrinking rather than accept.
        let mut calls = 0;
        let res = armijo_search(
            1.0,
            -1.0,
            |a| {
                calls += 1;
                if a > 0.9 {
                    f64::NAN
                } else {
                    1.0 - 0.5 * a
                }
            },
            &ArmijoConfig::default(),
        )
        .expect("finite smaller loss exists");
        assert!(res.alpha < 1.0);
        assert!(calls >= 2);
    }

    #[test]
    fn evals_counted() {
        let cfg = ArmijoConfig {
            c: 1e-4,
            shrink: 0.5,
            max_steps: 30,
        };
        let res = armijo_search(1.0, -1.0, |a| if a > 0.2 { 2.0 } else { 0.9 }, &cfg).unwrap();
        // alpha halves: 1, .5, .25, .125 — 4th eval succeeds.
        assert_eq!(res.evals, 4);
        assert!((res.alpha - 0.125).abs() < 1e-12);
    }
}
