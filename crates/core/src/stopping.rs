//! Convergence detection.
//!
//! The paper reports that "each of these networks converge to their
//! optimal weights after 20 to 40 iterations through the entire data
//! set" — production runs stop on held-out behavior, not a fixed
//! count. [`StopRule`] implements the standard criteria:
//!
//! * a hard iteration cap (the paper's 20–40 band),
//! * a target held-out loss,
//! * relative-improvement patience: stop after `patience` consecutive
//!   iterations that improve held-out loss by less than
//!   `min_rel_improvement` (rejected iterations count as
//!   zero-improvement).

/// Configurable stopping criteria, evaluated after each HF iteration.
#[derive(Clone, Copy, Debug)]
pub struct StopRule {
    /// Stop when held-out loss reaches this value.
    pub target_loss: Option<f64>,
    /// Stop after this many consecutive low-improvement iterations.
    pub patience: Option<usize>,
    /// Relative held-out improvement below which an iteration counts
    /// as "no progress" for the patience counter.
    pub min_rel_improvement: f64,
}

impl Default for StopRule {
    fn default() -> Self {
        StopRule {
            target_loss: None,
            patience: None,
            min_rel_improvement: 1e-3,
        }
    }
}

/// Why training stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The iteration cap was reached.
    MaxIters,
    /// Held-out loss hit the target.
    TargetReached,
    /// `patience` consecutive iterations made no meaningful progress.
    Stalled,
}

/// Stateful evaluator for a [`StopRule`].
#[derive(Clone, Debug)]
pub(crate) struct StopState {
    rule: StopRule,
    stall_count: usize,
}

impl StopState {
    /// Fresh evaluator.
    pub(crate) fn new(rule: StopRule) -> Self {
        assert!(
            rule.min_rel_improvement >= 0.0,
            "min_rel_improvement must be non-negative"
        );
        StopState {
            rule,
            stall_count: 0,
        }
    }

    /// Record one iteration's held-out transition; returns a stop
    /// reason when a criterion fires.
    pub(crate) fn observe(&mut self, loss_before: f64, loss_after: f64) -> Option<StopReason> {
        if let Some(target) = self.rule.target_loss {
            if loss_after <= target {
                return Some(StopReason::TargetReached);
            }
        }
        let rel = if loss_before.abs() > f64::MIN_POSITIVE {
            (loss_before - loss_after) / loss_before.abs()
        } else {
            0.0
        };
        if rel < self.rule.min_rel_improvement {
            self.stall_count += 1;
        } else {
            self.stall_count = 0;
        }
        if let Some(patience) = self.rule.patience {
            if self.stall_count >= patience {
                return Some(StopReason::Stalled);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_fires_immediately() {
        let mut s = StopState::new(StopRule {
            target_loss: Some(0.1),
            ..Default::default()
        });
        assert_eq!(s.observe(1.0, 0.5), None);
        assert_eq!(s.observe(0.5, 0.09), Some(StopReason::TargetReached));
    }

    #[test]
    fn patience_counts_consecutive_stalls() {
        let mut s = StopState::new(StopRule {
            patience: Some(3),
            min_rel_improvement: 0.01,
            ..Default::default()
        });
        // Two stalls, then progress resets the counter.
        assert_eq!(s.observe(1.0, 0.9995), None);
        assert_eq!(s.observe(0.9995, 0.999), None);
        assert_eq!(s.stall_count, 2);
        assert_eq!(s.observe(0.999, 0.5), None);
        assert_eq!(s.stall_count, 0);
        // Three consecutive stalls fire.
        assert_eq!(s.observe(0.5, 0.4999), None);
        assert_eq!(s.observe(0.4999, 0.4999), None);
        assert_eq!(s.observe(0.4999, 0.4999), Some(StopReason::Stalled));
    }

    #[test]
    fn rejected_iterations_count_as_stalls() {
        // loss_before == loss_after (rejection): zero improvement.
        let mut s = StopState::new(StopRule {
            patience: Some(2),
            min_rel_improvement: 1e-6,
            ..Default::default()
        });
        assert_eq!(s.observe(1.0, 1.0), None);
        assert_eq!(s.observe(1.0, 1.0), Some(StopReason::Stalled));
    }

    #[test]
    fn no_rules_never_stops() {
        let mut s = StopState::new(StopRule {
            target_loss: None,
            patience: None,
            min_rel_improvement: 0.5,
        });
        for _ in 0..100 {
            assert_eq!(s.observe(1.0, 1.0), None);
        }
    }

    #[test]
    fn worsening_loss_is_a_stall() {
        let mut s = StopState::new(StopRule {
            patience: Some(1),
            min_rel_improvement: 0.0,
            ..Default::default()
        });
        assert_eq!(s.observe(1.0, 1.2), Some(StopReason::Stalled));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_threshold_rejected() {
        StopState::new(StopRule {
            min_rel_improvement: -0.1,
            ..Default::default()
        });
    }
}
