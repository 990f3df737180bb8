//! Modeled training jobs (the paper's experimental workloads).

use pdnn_dnn::flops;
use pdnn_speech::hours_to_frames;
use pdnn_util::cast;

/// Training criterion for the modeled job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjectiveKind {
    /// Frame cross-entropy.
    CrossEntropy,
    /// Sequence (MMI) training over `states` HMM states: roughly a
    /// 2× compute factor per pass (numerator + denominator work) and
    /// more outer iterations to converge.
    Sequence {
        /// Denominator-graph states.
        states: usize,
    },
}

/// A modeled training job: data volume, model architecture, and the
/// Hessian-free iteration structure.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Hours of audio (1 h = 360 000 frames).
    pub hours: f64,
    /// Layer widths of the acoustic model.
    pub dims: Vec<usize>,
    /// Training criterion.
    pub objective: ObjectiveKind,
    /// Outer HF iterations (the paper: networks converge in 20–40
    /// passes).
    pub hf_iters: usize,
    /// Average CG iterations per HF iteration.
    pub cg_iters: usize,
    /// Held-out evaluations per HF iteration (backtracking + line
    /// search + bookkeeping).
    pub backtrack_evals: usize,
    /// Fraction of data resampled for curvature products per CG call.
    pub curvature_fraction: f64,
    /// Fraction of data in the held-out set.
    pub heldout_fraction: f64,
    /// Worker load-imbalance factor (max/mean frames; 1.0 = the
    /// paper's sorted/balanced assignment, larger = naive).
    pub imbalance: f64,
    /// Fraction of the training data the gradient is computed over
    /// each HF iteration. 1.0 reproduces the paper's "gradients are
    /// computed over all the training data"; the 400-hour job uses a
    /// smaller gradient batch — the standard large-corpus HF practice
    /// [Kingsbury et al. 2012] and the only way the paper's own
    /// numbers (6.3 h for 8x the data and ~7x the parameters of the
    /// 1.3 h job) are mutually consistent. See EXPERIMENTS.md.
    pub gradient_batch_fraction: f64,
    /// Acoustic feature dimension (for load_data volume).
    pub feature_dim: usize,
}

impl JobSpec {
    /// The 50-hour cross-entropy job (Table I row 1, Figure 1(a)).
    ///
    /// Model: a mid-size hybrid acoustic DNN (≈16 M parameters, the
    /// paper's "10–50 million" band).
    pub fn ce_50h() -> JobSpec {
        JobSpec {
            hours: 50.0,
            dims: vec![440, 1024, 1024, 1024, 1024, 1024, 9300],
            objective: ObjectiveKind::CrossEntropy,
            hf_iters: 20,
            cg_iters: 50,
            backtrack_evals: 12,
            curvature_fraction: 0.01,
            heldout_fraction: 0.05,
            imbalance: 1.02,
            feature_dim: 440,
            gradient_batch_fraction: 1.0,
        }
    }

    /// The 50-hour sequence-training job (Table I row 2).
    ///
    /// `states` here is the *effective lattice density* (competitor
    /// arcs per frame) driving the forward–backward extra cost — the
    /// production system used pruned word lattices, not the full
    /// 9.3 k-state denominator, so the per-frame extra work is small
    /// relative to the doubled DNN passes.
    pub(crate) fn seq_50h() -> JobSpec {
        JobSpec {
            objective: ObjectiveKind::Sequence { states: 300 },
            hf_iters: 30,
            ..JobSpec::ce_50h()
        }
    }

    /// The 400-hour job (Figure 1(b)): more data and the larger
    /// ">100 M parameter" network the paper trains in 6.3 h on two
    /// racks. Gradient batching and an absolute-size curvature sample
    /// (curvature estimation does not need more frames just because
    /// the corpus grew) keep the iteration cost bounded.
    pub fn ce_400h() -> JobSpec {
        JobSpec {
            hours: 400.0,
            dims: vec![440, 2048, 2048, 2048, 2048, 2048, 42000],
            gradient_batch_fraction: 0.05,
            curvature_fraction: 0.000625,
            heldout_fraction: 0.01,
            ..JobSpec::ce_50h()
        }
    }

    /// The 400-hour job structure scaled to an arbitrary corpus size
    /// (gradient batch and curvature sample sizes held *absolute*, so
    /// per-iteration cost stays bounded as data grows — how the paper
    /// scales "to billions of training samples").
    pub(crate) fn ce_hours(hours: f64) -> JobSpec {
        let base = JobSpec::ce_400h();
        // Keep the same absolute gradient batch (5% of 400 h) and
        // curvature sample as the 400-hour job.
        let scale = 400.0 / hours;
        JobSpec {
            hours,
            gradient_batch_fraction: (base.gradient_batch_fraction * scale).min(1.0),
            curvature_fraction: (base.curvature_fraction * scale).min(1.0),
            heldout_fraction: (base.heldout_fraction * scale).min(0.5),
            ..base
        }
    }

    /// Total training frames.
    pub fn frames(&self) -> u64 {
        hours_to_frames(self.hours)
    }

    /// Trainable parameters of the model.
    pub fn params(&self) -> u64 {
        flops::num_params(&self.dims)
    }

    /// Parameter-vector size on the wire (f32).
    pub(crate) fn param_bytes(&self) -> u64 {
        4 * self.params()
    }

    /// Compute multiplier of the objective relative to cross-entropy
    /// (sequence training touches numerator and denominator
    /// statistics: ≈2× the per-pass work, as the Table I Xeon ratio
    /// 18.7 h / 9 h implies once comm share is accounted for).
    fn objective_compute_factor(&self) -> f64 {
        match self.objective {
            ObjectiveKind::CrossEntropy => 1.0,
            ObjectiveKind::Sequence { .. } => 2.0,
        }
    }

    /// FLOPs per frame of a gradient pass under the objective.
    pub(crate) fn gradient_flops_per_frame(&self) -> f64 {
        let base = cast::exact_f64(flops::gradient_flops_per_frame(&self.dims));
        let extra = match self.objective {
            ObjectiveKind::CrossEntropy => 0.0,
            ObjectiveKind::Sequence { states } => {
                cast::exact_f64(flops::mmi_extra_flops_per_frame(states))
            }
        };
        base * self.objective_compute_factor() + extra
    }

    /// FLOPs per frame of one Gauss–Newton product (forward cached).
    pub(crate) fn gn_flops_per_frame(&self) -> f64 {
        cast::exact_f64(flops::gn_product_flops_per_frame(&self.dims, false))
            * self.objective_compute_factor()
    }

    /// FLOPs per frame of a held-out evaluation (forward only).
    pub(crate) fn heldout_flops_per_frame(&self) -> f64 {
        cast::exact_f64(flops::loss_eval_flops_per_frame(&self.dims))
            * self.objective_compute_factor()
    }

    /// Bytes of acoustic data shipped during load_data.
    pub(crate) fn data_bytes(&self) -> u64 {
        // pdnn-lint: allow(l6-lossy-cast): usize -> u64 widening is lossless on supported targets
        self.frames() * (self.feature_dim as u64 * 4 + 4)
    }

    /// Sanity checks.
    pub(crate) fn validate(&self) {
        assert!(self.hours > 0.0, "hours must be positive");
        assert!(self.dims.len() >= 2, "need at least two layer dims");
        assert!(self.hf_iters >= 1 && self.cg_iters >= 1);
        assert!(self.curvature_fraction > 0.0 && self.curvature_fraction <= 1.0);
        assert!(self.heldout_fraction > 0.0 && self.heldout_fraction < 1.0);
        assert!(self.imbalance >= 1.0, "imbalance is max/mean, >= 1");
        assert!(
            self.gradient_batch_fraction > 0.0 && self.gradient_batch_fraction <= 1.0,
            "gradient_batch_fraction must be in (0, 1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_jobs_validate() {
        JobSpec::ce_50h().validate();
        JobSpec::seq_50h().validate();
        JobSpec::ce_400h().validate();
    }

    #[test]
    fn frame_counts_match_paper() {
        assert_eq!(JobSpec::ce_50h().frames(), 18_000_000);
        assert_eq!(JobSpec::ce_400h().frames(), 144_000_000);
    }

    #[test]
    fn parameter_counts_are_in_the_papers_bands() {
        let p50 = JobSpec::ce_50h().params();
        assert!(
            (10_000_000..50_000_000).contains(&p50),
            "50 h model has {p50} params"
        );
        let p400 = JobSpec::ce_400h().params();
        assert!(p400 > 100_000_000, "400 h model has {p400} params");
    }

    #[test]
    fn sequence_costs_about_twice_ce_per_pass() {
        let ce = JobSpec::ce_50h();
        let seq = JobSpec::seq_50h();
        let ratio = seq.gradient_flops_per_frame() / ce.gradient_flops_per_frame();
        assert!(ratio > 1.9 && ratio < 2.2, "ratio {ratio}");
        assert!(seq.hf_iters > ce.hf_iters);
    }

    #[test]
    fn data_volume_is_plausible() {
        // 18 M frames x ~1.8 KB ≈ 32 GB.
        let gb = JobSpec::ce_50h().data_bytes() as f64 / 1e9;
        assert!(gb > 20.0 && gb < 50.0, "{gb} GB");
    }
}
