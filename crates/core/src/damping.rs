//! Levenberg–Marquardt damping of the Gauss–Newton model.
//!
//! The quadratic model uses `G + λI`; λ is adapted from the agreement
//! ratio `ρ = (L_prev − L_best) / q(d_N)` between actual and predicted
//! reduction, and boosted on outright step rejection.
//!
//! **Documented deviation (see DESIGN.md §2):** the paper's Algorithm 1
//! as printed applies `ρ < 0.25 ⇒ λ ← (2/3)λ` and `ρ > 0.75 ⇒ λ ←
//! (3/2)λ`, which *decreases* damping when the model is untrustworthy —
//! inverted relative to Martens (2010) and inconsistent with the
//! algorithm's own rejection branch. [`LambdaRule::Martens`] implements
//! the standard rule; [`LambdaRule::PaperLiteral`] reproduces the
//! printed text for the ablation bench (`lambda_rule`), which shows it
//! destabilizes training.

/// Which ρ-to-λ update to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LambdaRule {
    /// Martens (2010): `ρ < 1/4 ⇒ λ×3/2`, `ρ > 3/4 ⇒ λ×2/3`.
    Martens,
    /// The paper's Algorithm 1 as literally printed (factors swapped).
    PaperLiteral,
}

/// Damping state.
#[derive(Clone, Copy, Debug)]
pub struct Damping {
    lambda: f64,
    rule: LambdaRule,
}

/// Multiplier applied when a step is rejected or ρ is poor.
const BOOST: f64 = 1.5;
/// Multiplier applied when the model agrees well.
const DROP: f64 = 2.0 / 3.0;

impl Damping {
    /// Start with `λ = lambda0`.
    pub(crate) fn new(lambda0: f64, rule: LambdaRule) -> Self {
        assert!(lambda0 > 0.0, "λ0 must be positive");
        Damping {
            lambda: lambda0,
            rule,
        }
    }

    /// Current λ.
    pub(crate) fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Step rejected (no held-out improvement): `λ ← (3/2)λ`, matching
    /// the paper's failure branch.
    pub(crate) fn on_reject(&mut self) {
        self.lambda = (self.lambda * BOOST).clamp(1e-12, 1e12);
    }

    /// Adapt λ from the reduction ratio ρ.
    pub(crate) fn adjust(&mut self, rho: f64) {
        let (low_factor, high_factor) = match self.rule {
            LambdaRule::Martens => (BOOST, DROP),
            LambdaRule::PaperLiteral => (DROP, BOOST),
        };
        if rho < 0.25 {
            self.lambda *= low_factor;
        } else if rho > 0.75 {
            self.lambda *= high_factor;
        }
        // Keep λ in a sane numeric range.
        self.lambda = self.lambda.clamp(1e-12, 1e12);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn martens_boosts_on_poor_agreement() {
        let mut d = Damping::new(1.0, LambdaRule::Martens);
        d.adjust(0.1);
        assert!((d.lambda() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn martens_drops_on_good_agreement() {
        let mut d = Damping::new(1.0, LambdaRule::Martens);
        d.adjust(0.9);
        assert!((d.lambda() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn middle_rho_leaves_lambda() {
        let mut d = Damping::new(0.5, LambdaRule::Martens);
        d.adjust(0.5);
        assert_eq!(d.lambda(), 0.5);
    }

    #[test]
    fn paper_literal_is_inverted() {
        let mut d = Damping::new(1.0, LambdaRule::PaperLiteral);
        d.adjust(0.1);
        assert!((d.lambda() - 2.0 / 3.0).abs() < 1e-12);
        let mut d2 = Damping::new(1.0, LambdaRule::PaperLiteral);
        d2.adjust(0.9);
        assert!((d2.lambda() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn reject_always_boosts() {
        for rule in [LambdaRule::Martens, LambdaRule::PaperLiteral] {
            let mut d = Damping::new(2.0, rule);
            d.on_reject();
            assert!((d.lambda() - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn lambda_is_clamped() {
        let mut d = Damping::new(1e-12, LambdaRule::Martens);
        for _ in 0..200 {
            d.adjust(0.99);
        }
        assert!(d.lambda() >= 1e-12);
        for _ in 0..400 {
            d.on_reject();
        }
        assert!(d.lambda() <= 1e12 * BOOST);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lambda_rejected() {
        Damping::new(0.0, LambdaRule::Martens);
    }
}
