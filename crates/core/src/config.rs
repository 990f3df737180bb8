//! Optimizer configuration.

use crate::cg::CgConfig;
use crate::damping::LambdaRule;
use crate::line_search::ArmijoConfig;
use crate::stopping::StopRule;
use pdnn_util::Error;

/// CG preconditioning policy.
///
/// The paper's implementation "currently does not use a
/// preconditioner"; [`Preconditioner::EmpiricalFisher`] implements the
/// Martens-style diagonal it cites as future work:
/// `M = (diag(Σ ∇L_f²) + λ)^ξ`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Preconditioner {
    /// Plain CG (the paper's configuration).
    None,
    /// Martens empirical-Fisher diagonal with the given exponent ξ
    /// (0.75 in Martens 2010).
    EmpiricalFisher {
        /// Exponent ξ applied to the damped diagonal.
        exponent: f64,
    },
}

/// Hessian-free training configuration (Algorithm 1 knobs).
#[derive(Clone, Copy, Debug)]
pub struct HfConfig {
    /// Outer HF iterations ("20 to 40 iterations through the entire
    /// data set" in the paper's experience).
    pub max_iters: usize,
    /// Inner CG solve configuration.
    pub cg: CgConfig,
    /// Initial damping λ0.
    pub lambda0: f64,
    /// Which λ adaptation rule to use (Martens vs paper-literal).
    pub lambda_rule: LambdaRule,
    /// Momentum β on the CG warm start `d_0 ← β d_N` (paper: β < 1).
    pub momentum: f64,
    /// Armijo line-search parameters.
    pub armijo: ArmijoConfig,
    /// Fraction of training utterances resampled for each CG call's
    /// curvature products ("about 1% to 3%" in the paper; small tasks
    /// should use much larger fractions).
    pub curvature_fraction: f64,
    /// Base seed for curvature resampling (per-iteration seeds derive
    /// from it, so runs are reproducible).
    pub seed: u64,
    /// Stop early when held-out loss falls below this value.
    pub target_heldout_loss: Option<f64>,
    /// CG preconditioning policy.
    pub preconditioner: Preconditioner,
    /// Convergence criteria beyond the iteration cap (patience,
    /// relative-improvement threshold). `target_heldout_loss` above is
    /// folded in for backward compatibility.
    pub stop: StopRule,
    /// L2 weight decay coefficient applied to the training objective
    /// (`loss += l2/2·‖θ‖²`); the exact `l2·I` term is added to the
    /// curvature, so CG sees the true Hessian of the penalty. Held-out
    /// evaluations report the unpenalized loss.
    pub l2: f64,
}

impl Default for HfConfig {
    fn default() -> Self {
        HfConfig {
            max_iters: 30,
            cg: CgConfig::default(),
            lambda0: 1.0,
            lambda_rule: LambdaRule::Martens,
            momentum: 0.95,
            armijo: ArmijoConfig::default(),
            curvature_fraction: 0.02,
            seed: 0xD1CE,
            target_heldout_loss: None,
            stop: StopRule::default(),
            preconditioner: Preconditioner::None,
            l2: 0.0,
        }
    }
}

impl HfConfig {
    /// A configuration suited to the small synthetic tasks used in
    /// tests and examples: generous curvature fraction, short CG.
    pub fn small_task() -> Self {
        HfConfig {
            max_iters: 15,
            cg: CgConfig {
                max_iters: 60,
                min_iters: 5,
                epsilon: 5e-4,
                store_gamma: 1.3,
            },
            lambda0: 0.1,
            curvature_fraction: 0.5,
            ..Default::default()
        }
    }

    /// Start building a configuration from the defaults.
    pub fn builder() -> HfConfigBuilder {
        HfConfigBuilder::new(HfConfig::default())
    }

    /// Turn an existing configuration (e.g. [`HfConfig::small_task`])
    /// into a builder for further adjustment.
    pub fn into_builder(self) -> HfConfigBuilder {
        HfConfigBuilder::new(self)
    }

    /// Validate invariants, returning a composable error.
    fn try_validate(&self) -> Result<(), Error> {
        let fail = |m: &str| Err(Error::Config(m.to_string()));
        if let Preconditioner::EmpiricalFisher { exponent } = self.preconditioner {
            if !(exponent > 0.0 && exponent <= 1.0) {
                return fail("preconditioner exponent must be in (0, 1]");
            }
        }
        if self.max_iters < 1 {
            return fail("max_iters must be >= 1");
        }
        if !(self.curvature_fraction > 0.0 && self.curvature_fraction <= 1.0) {
            return fail("curvature_fraction must be in (0, 1]");
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return fail("momentum must be in [0, 1)");
        }
        if self.lambda0 <= 0.0 {
            return fail("lambda0 must be positive");
        }
        if self.l2 < 0.0 {
            return fail("l2 must be non-negative");
        }
        Ok(())
    }

    /// Validate invariants; called by the optimizer at start.
    ///
    /// # Panics
    /// Panics with the violated invariant's message; the builder's
    /// [`HfConfigBuilder::build`] returns it as a `Result` instead.
    pub fn validate(&self) {
        if let Err(Error::Config(m)) = self.try_validate() {
            // pdnn-lint: allow(l3-no-unwrap): validate() is the documented panicking variant of try_validate()
            panic!("{m}");
        }
    }
}

/// Builder for [`HfConfig`] with validation at [`build`](Self::build).
///
/// ```
/// use pdnn_core::config::HfConfig;
///
/// let config = HfConfig::builder()
///     .cg_iters(40)
///     .sample_fraction(0.1)
///     .max_iters(10)
///     .build()
///     .unwrap();
/// assert_eq!(config.cg.max_iters, 40);
/// assert!(HfConfig::builder().momentum(1.5).build().is_err());
/// ```
#[derive(Clone, Debug)]
pub struct HfConfigBuilder {
    config: HfConfig,
}

impl HfConfigBuilder {
    fn new(config: HfConfig) -> Self {
        HfConfigBuilder { config }
    }

    /// Cap on inner CG iterations (`cg.max_iters`).
    pub fn cg_iters(mut self, iters: usize) -> Self {
        self.config.cg.max_iters = iters;
        self
    }

    /// Fraction of training data resampled for curvature products
    /// (`curvature_fraction`).
    pub fn sample_fraction(mut self, fraction: f64) -> Self {
        self.config.curvature_fraction = fraction;
        self
    }

    /// Outer HF iteration cap.
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.config.max_iters = iters;
        self
    }

    /// Initial damping λ0.
    pub fn lambda0(mut self, lambda0: f64) -> Self {
        self.config.lambda0 = lambda0;
        self
    }

    /// λ adaptation rule.
    pub fn lambda_rule(mut self, rule: LambdaRule) -> Self {
        self.config.lambda_rule = rule;
        self
    }

    /// Momentum β on the CG warm start.
    pub fn momentum(mut self, momentum: f64) -> Self {
        self.config.momentum = momentum;
        self
    }

    /// Early-stop target on held-out loss.
    pub fn target_heldout_loss(mut self, target: Option<f64>) -> Self {
        self.config.target_heldout_loss = target;
        self
    }

    /// CG preconditioning policy.
    pub fn preconditioner(mut self, preconditioner: Preconditioner) -> Self {
        self.config.preconditioner = preconditioner;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<HfConfig, Error> {
        self.config.try_validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        HfConfig::default().validate();
        HfConfig::small_task().validate();
    }

    #[test]
    #[should_panic(expected = "curvature_fraction")]
    fn bad_fraction_rejected() {
        let mut c = HfConfig::default();
        c.curvature_fraction = 0.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn bad_momentum_rejected() {
        let mut c = HfConfig::default();
        c.momentum = 1.0;
        c.validate();
    }

    #[test]
    fn builder_sets_fields_and_validates() {
        let c = HfConfig::builder()
            .cg_iters(40)
            .sample_fraction(0.1)
            .max_iters(7)
            .lambda0(0.5)
            .momentum(0.9)
            .build()
            .unwrap();
        assert_eq!(c.cg.max_iters, 40);
        assert!((c.curvature_fraction - 0.1).abs() < 1e-12);
        assert_eq!(c.max_iters, 7);
        let err = HfConfig::builder()
            .sample_fraction(0.0)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("curvature_fraction"), "{err}");
        let err = HfConfig::builder().momentum(1.0).build().unwrap_err();
        assert!(err.to_string().contains("momentum"), "{err}");
    }

    #[test]
    fn into_builder_starts_from_existing_config() {
        let c = HfConfig::small_task()
            .into_builder()
            .max_iters(5)
            .build()
            .unwrap();
        assert_eq!(c.max_iters, 5);
        // small_task's other knobs survive the round trip.
        assert_eq!(c.cg.max_iters, 60);
        assert!((c.curvature_fraction - 0.5).abs() < 1e-12);
    }
}
