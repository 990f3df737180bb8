//! Algorithm 1: the Hessian-free outer loop.
//!
//! One iteration (paper Section IV):
//!
//! 1. `g ← ∇L(θ)` over **all** training data (data-parallel when the
//!    problem is distributed).
//! 2. `{d_1 … d_N} ← CG-Minimize(q_θ, d_0)` with
//!    `q_θ(d) = g·d + ½ d·(G + λI)d`, Gauss–Newton products over a
//!    fresh curvature minibatch.
//! 3. **Backtracking** over the CG iterate series on *held-out* loss:
//!    CG can overfit the minibatch quadratic, so later iterates may be
//!    worse on held-out data than earlier ones.
//! 4. Step rejection (`λ ← 3/2 λ, d_0 ← 0, continue`) when no iterate
//!    beats the current parameters.
//! 5. Levenberg–Marquardt λ adaptation from
//!    `ρ = (L_best − L_prev)/q(d_N)` (Martens orientation: actual over
//!    predicted reduction, both negative on success — see
//!    `crate::damping` for the paper-literal discrepancy).
//! 6. Armijo backtracking line search on the chosen iterate, then
//!    `θ ← θ + α d_i`, momentum `d_0 ← β d_N`.

use crate::cg::{CgOperator, CgSolver, CgStop};
use crate::config::{HfConfig, Preconditioner};
use crate::damping::Damping;
use crate::line_search::armijo_search;
use crate::problem::HfProblem;
use crate::stopping::{StopReason, StopState};
use pdnn_obs::{NullRecorder, Recorder, RecorderExt, SpanKind};
use pdnn_tensor::blas1;
use pdnn_util::float::exactly_zero;
use std::ops::Range;
use std::sync::Arc;

/// Statistics from one outer HF iteration.
#[derive(Clone, Debug)]
pub struct IterStats {
    /// Iteration index (0-based).
    pub iter: usize,
    /// Mean training loss at the start of the iteration.
    pub train_loss: f64,
    /// L2 norm of the (mean) gradient.
    pub grad_norm: f64,
    /// Held-out loss before the update (`L_prev`).
    pub heldout_before: f64,
    /// Held-out loss after the update (equals `heldout_before` on
    /// rejection).
    pub heldout_after: f64,
    /// Held-out frame accuracy after the update.
    pub heldout_accuracy: f64,
    /// λ in effect during CG (before post-step adaptation).
    pub lambda: f64,
    /// Reduction ratio ρ (NaN on rejection).
    pub rho: f64,
    /// CG iterations executed.
    pub cg_iters: usize,
    /// Why CG stopped.
    pub cg_stop: CgStop,
    /// CG iteration index of the chosen direction (0 on rejection).
    pub chosen_iter: usize,
    /// Line-search step length (0 on rejection).
    pub alpha: f64,
    /// Whether the update was applied.
    pub accepted: bool,
    /// Held-out evaluations performed this iteration: calls of
    /// [`HfProblem::heldout_eval`], so a point whose evaluation is
    /// reused counts once.
    pub heldout_evals: usize,
}

/// The Hessian-free optimizer (stateful across iterations: damping
/// level, momentum direction, last held-out loss).
///
/// Every vector a step uses is leased from the problem
/// ([`HfProblem::lease`]) and given back when its phase ends, as is
/// every vector the problem returns ([`HfProblem::give_back`]). Whole
/// vectors are θ₀ and the updated θ, the gradient and the trial θ of
/// the held-out evaluations. The CG start `d₀`, the preconditioner,
/// the CG solver's vectors and its stored iterates cover only the
/// problem's [`HfProblem::cg_range`]: a rank that owns a slice of the
/// solve keeps and updates that slice, and a trial or updated θ is its
/// slice of `θ₀ + α·d` gathered whole ([`HfProblem::gather`]). Between
/// steps it holds only the momentum direction, over the same range.
pub struct HfOptimizer {
    config: HfConfig,
    damping: Damping,
    /// `β d_N` of the last accepted step, the next CG start, while
    /// `momentum` holds (a leased buffer); empty otherwise.
    d0: Vec<f32>,
    momentum: bool,
    loss_prev: Option<f64>,
    recorder: Arc<dyn Recorder>,
    cg: CgSolver,
}

/// A problem as CG's operator: its Gauss–Newton products, and its
/// owner for CG's work vectors.
struct GnOperator<'p, P>(&'p mut P);

impl<P: HfProblem> CgOperator for GnOperator<'_, P> {
    fn product(&mut self, v: &[f32]) -> Vec<f32> {
        self.0.gn_product(v)
    }

    fn lease(&mut self, len: usize) -> Vec<f32> {
        self.0.lease(len)
    }

    fn give_back(&mut self, buf: Vec<f32>) {
        self.0.give_back(buf);
    }

    fn cg_range(&self, n: usize) -> Range<usize> {
        self.0.cg_range(n)
    }

    fn fold_partials(&mut self, partials: &mut [f64]) {
        self.0.fold_partials(partials);
    }

    fn gather(&mut self, full: &mut [f32]) {
        self.0.gather(full);
    }
}

impl HfOptimizer {
    /// Create an optimizer with the given configuration (telemetry
    /// discarded; see [`HfOptimizer::with_recorder`]).
    pub fn new(config: HfConfig) -> Self {
        Self::with_recorder(config, Arc::new(NullRecorder))
    }

    /// Create an optimizer that records per-iteration telemetry —
    /// `hf_iteration`/`gradient`/`backtracking`/`line_search` spans, a
    /// `cg_iters` counter, a `lambda` gauge, and one `hf_iteration`
    /// event per step — to the given recorder.
    pub fn with_recorder(config: HfConfig, recorder: Arc<dyn Recorder>) -> Self {
        config.validate();
        Self::resume_with_recorder(config, config.lambda0, recorder)
    }

    /// Rebuild an optimizer mid-run for checkpoint-restart: same
    /// validated config and recorder, but the damping level restored
    /// to `lambda` (the value captured alongside the checkpoint).
    /// Momentum and the cached held-out loss restart cold — both are
    /// warm-start accelerations, and resetting them is deterministic,
    /// so two recoveries from the same snapshot replay identically.
    // pdnn-lint: allow(l5-phase-span): constructor, not a phase — spans open in step()/train(), which this merely wires up
    pub fn resume_with_recorder(
        config: HfConfig,
        lambda: f64,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        config.validate();
        HfOptimizer {
            damping: Damping::new(lambda, config.lambda_rule),
            cg: CgSolver::new(config.cg),
            config,
            d0: Vec::new(),
            momentum: false,
            loss_prev: None,
            recorder,
        }
    }

    /// Current damping λ.
    pub fn lambda(&self) -> f64 {
        self.damping.lambda()
    }

    /// Run up to `config.max_iters` iterations, stopping early per
    /// the configured [`crate::stopping::StopRule`] (or
    /// `target_heldout_loss`).
    pub fn train<P: HfProblem>(&mut self, problem: &mut P) -> Vec<IterStats> {
        self.train_with_reason(problem).0
    }

    /// Like [`HfOptimizer::train`], also reporting why training
    /// stopped.
    pub fn train_with_reason<P: HfProblem>(
        &mut self,
        problem: &mut P,
    ) -> (Vec<IterStats>, StopReason) {
        let mut rule = self.config.stop;
        if rule.target_loss.is_none() {
            rule.target_loss = self.config.target_heldout_loss;
        }
        let mut stop = StopState::new(rule);
        let mut stats = Vec::with_capacity(self.config.max_iters);
        for iter in 0..self.config.max_iters {
            let s = self.step(problem, iter);
            let reason = stop.observe(s.heldout_before, s.heldout_after);
            stats.push(s);
            if let Some(reason) = reason {
                return (stats, reason);
            }
        }
        (stats, StopReason::MaxIters)
    }

    /// Execute one outer iteration.
    pub fn step<P: HfProblem>(&mut self, problem: &mut P, iter: usize) -> IterStats {
        let rec = self.recorder.clone();
        let _iter_span = rec.span("hf_iteration", SpanKind::Scalar);
        rec.counter_add("hf_iterations", 1);
        let n = problem.num_params();
        let own = problem.cg_range(n);
        let mut theta = problem.lease(n);
        problem.theta_into(&mut theta);
        assert_eq!(theta.len(), n);
        let mut heldout_evals = 0usize;

        let loss_prev = match self.loss_prev {
            Some(l) => l,
            None => {
                heldout_evals += 1;
                let e = problem.heldout_eval(&theta);
                self.loss_prev = Some(e.loss);
                e.loss
            }
        };

        // 1. Gradient over all training data (+ L2 penalty terms).
        let grad_span = rec.span("gradient", SpanKind::DenseCompute);
        let (mut train_loss, mut g) = problem.gradient();
        let l2 = self.config.l2;
        if l2 > 0.0 {
            blas1::axpy(l2 as f32, &theta, &mut g);
            train_loss += 0.5 * l2 * blas1::dot(&theta, &theta);
        }
        let g = g;
        let train_loss = train_loss;
        let grad_norm = blas1::nrm2(&g);
        drop(grad_span);

        // 2. Curvature minibatch + truncated CG.
        let sample_seed = self
            .config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(iter as u64);
        problem.sample_curvature(sample_seed, self.config.curvature_fraction);

        let lambda = self.damping.lambda();
        rec.gauge_set("lambda", lambda);
        // The momentum direction, or a cold start from d = 0. The flag
        // is replicated, so every rank takes the same branch and the
        // ring's collectives stay matched.
        let d0 = self.momentum.then(|| std::mem::take(&mut self.d0));
        // Optional Martens preconditioner: M = (diag(Fisher) + λ)^ξ,
        // formed in the diagonal's own buffer.
        let precond = match self.config.preconditioner {
            Preconditioner::None => None,
            Preconditioner::EmpiricalFisher { exponent } => {
                problem.fisher_diagonal().map(|mut diag| {
                    for d in &mut diag {
                        *d = ((d.max(0.0) as f64 + lambda).powf(exponent)) as f32;
                    }
                    diag
                })
            }
        };
        // CG's shift: damping plus the exact curvature of the L2 penalty.
        let cg = self.cg.solve(
            &g,
            d0.as_deref(),
            &mut GnOperator(problem),
            lambda + l2,
            precond.as_deref(),
            rec.as_ref(),
        );
        problem.give_back(d0.unwrap_or_default());
        problem.give_back(precond.unwrap_or_default());
        let q_final = cg.final_q();

        // 3. Backtracking over the iterate series on held-out loss. One
        // trial-θ buffer serves every evaluation here and in the line
        // search.
        let theta0 = &theta;
        let mut trial = problem.lease(n);
        let mut eval_at = |d: &[f32], evals: &mut usize| {
            trial[own.clone()].copy_from_slice(&theta0[own.clone()]);
            blas1::add(d, &mut trial[own.clone()]);
            problem.gather(&mut trial);
            *evals += 1;
            problem.heldout_eval(&trial)
        };
        let bt_span = rec.span("backtracking", SpanKind::DenseCompute);
        let n_stored = cg.iterates.len();
        let mut best_pos = n_stored - 1;
        // The chosen iterate's whole evaluation is kept: the full step
        // θ₀ + d_best is where the line search starts and, usually,
        // where the iteration lands.
        let mut best = eval_at(&cg.iterates[best_pos].d, &mut heldout_evals);
        for pos in (0..n_stored.saturating_sub(1)).rev() {
            let curr = eval_at(&cg.iterates[pos].d, &mut heldout_evals);
            if loss_prev >= best.loss && curr.loss >= best.loss {
                break;
            }
            best = curr;
            best_pos = pos;
        }
        let l_best = best.loss;
        drop(bt_span);

        // 4. Rejection: no iterate improves held-out loss.
        if loss_prev < l_best || !l_best.is_finite() {
            self.damping.on_reject();
            self.momentum = false; // d_0 ← 0
            let (cg_iters, cg_stop) = (cg.iters, cg.stop);
            self.cg.reclaim(cg, |d| problem.give_back(d));
            for buf in [trial, g, theta] {
                problem.give_back(buf);
            }
            rec.event(
                "hf_iteration",
                vec![
                    ("iter".into(), (iter as u64).into()),
                    ("train_loss".into(), train_loss.into()),
                    ("lambda".into(), lambda.into()),
                    ("cg_iters".into(), (cg_iters as u64).into()),
                    ("rho".into(), f64::NAN.into()),
                    ("accepted".into(), 0u64.into()),
                ],
            );
            return IterStats {
                iter,
                train_loss,
                grad_norm,
                heldout_before: loss_prev,
                heldout_after: loss_prev,
                heldout_accuracy: f64::NAN,
                lambda,
                rho: f64::NAN,
                cg_iters,
                cg_stop,
                chosen_iter: 0,
                alpha: 0.0,
                accepted: false,
                heldout_evals,
            };
        }

        // 5. λ adaptation from the reduction ratio.
        let rho = if !exactly_zero(q_final) {
            (l_best - loss_prev) / q_final
        } else {
            f64::NAN
        };
        if rho.is_finite() {
            self.damping.adjust(rho);
        }

        // 6. Armijo line search along the chosen iterate. The trial at
        // α = 1 is θ₀ + d_best again — `axpy(1, …)` rounds exactly like
        // the backtracking's `add` — so it reuses that evaluation.
        let ls_span = rec.span("line_search", SpanKind::DenseCompute);
        let full_step = |alpha: f64| exactly_zero(alpha - 1.0);
        let chosen = &cg.iterates[best_pos];
        let mut slope = [blas1::dot(&g[own.clone()], &chosen.d)];
        problem.fold_partials(&mut slope);
        let search = armijo_search(
            loss_prev,
            slope[0],
            |alpha| {
                if full_step(alpha) {
                    return l_best;
                }
                trial[own.clone()].copy_from_slice(&theta0[own.clone()]);
                blas1::axpy(alpha as f32, &chosen.d, &mut trial[own.clone()]);
                problem.gather(&mut trial);
                heldout_evals += 1;
                problem.heldout_eval(&trial).loss
            },
            &self.config.armijo,
        );
        problem.give_back(trial);
        // The backtracking already certified d_i improves held-out
        // loss at α = 1, so a failed search falls back to the full
        // step rather than rejecting.
        let alpha = search.map(|r| r.alpha).unwrap_or(1.0);
        drop(ls_span);

        let chosen_iter = chosen.iter;
        blas1::axpy(alpha as f32, &chosen.d, &mut theta[own.clone()]);
        problem.gather(&mut theta);
        // The sole weight update of the iteration — prepacked weight
        // caches downstream (DnnProblem, workers) invalidate exactly
        // here, and stay valid across every CG product in between.
        problem.set_theta(&theta);

        // Momentum warm start: d_0 ← β d_N, from the final direction
        // regardless of which iterate the backtracking picked.
        let beta = self.config.momentum as f32;
        self.momentum = beta > 0.0;
        if self.momentum {
            self.d0 = problem.lease(own.len());
            self.d0.copy_from_slice(cg.final_d());
            blas1::scal(beta, &mut self.d0);
        }

        // A full step lands on the point the backtracking evaluated.
        let after = if full_step(alpha) {
            best
        } else {
            heldout_evals += 1;
            problem.heldout_eval(&theta)
        };
        let (cg_iters, cg_stop) = (cg.iters, cg.stop);
        self.cg.reclaim(cg, |d| problem.give_back(d));
        problem.give_back(g);
        problem.give_back(theta);
        self.loss_prev = Some(after.loss);

        rec.event(
            "hf_iteration",
            vec![
                ("iter".into(), (iter as u64).into()),
                ("train_loss".into(), train_loss.into()),
                ("lambda".into(), lambda.into()),
                ("cg_iters".into(), (cg_iters as u64).into()),
                ("rho".into(), rho.into()),
                ("accepted".into(), 1u64.into()),
            ],
        );

        IterStats {
            iter,
            train_loss,
            grad_norm,
            heldout_before: loss_prev,
            heldout_after: after.loss,
            heldout_accuracy: after.accuracy,
            lambda,
            rho,
            cg_iters,
            cg_stop,
            chosen_iter,
            alpha,
            accepted: true,
            heldout_evals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::HeldoutEval;

    /// Exactly solvable problem: L(θ) = ½‖θ − t‖², G = I.
    /// HF must land on t almost immediately.
    struct Quadratic {
        theta: Vec<f32>,
        target: Vec<f32>,
    }

    impl Quadratic {
        fn loss_of(&self, theta: &[f32]) -> f64 {
            theta
                .iter()
                .zip(self.target.iter())
                .map(|(&a, &b)| {
                    let d = (a - b) as f64;
                    0.5 * d * d
                })
                .sum()
        }
    }

    impl HfProblem for Quadratic {
        fn num_params(&self) -> usize {
            self.theta.len()
        }
        fn theta(&self) -> Vec<f32> {
            self.theta.clone()
        }
        fn set_theta(&mut self, theta: &[f32]) {
            self.theta = theta.to_vec();
        }
        fn gradient(&mut self) -> (f64, Vec<f32>) {
            let g: Vec<f32> = self
                .theta
                .iter()
                .zip(self.target.iter())
                .map(|(&a, &b)| a - b)
                .collect();
            (self.loss_of(&self.theta.clone()), g)
        }
        fn sample_curvature(&mut self, _seed: u64, _fraction: f64) {}
        fn gn_product(&mut self, v: &[f32]) -> Vec<f32> {
            v.to_vec()
        }
        fn heldout_eval(&mut self, theta: &[f32]) -> HeldoutEval {
            HeldoutEval {
                loss: self.loss_of(theta),
                accuracy: 0.0,
                frames: 1,
            }
        }
        fn train_frames(&self) -> u64 {
            1
        }
    }

    #[test]
    fn solves_quadratic_in_few_iterations() {
        let mut problem = Quadratic {
            theta: vec![0.0; 10],
            target: (0..10).map(|i| i as f32 * 0.3 - 1.0).collect(),
        };
        let mut cfg = HfConfig::small_task();
        cfg.max_iters = 6;
        cfg.lambda0 = 0.01;
        let mut opt = HfOptimizer::new(cfg);
        let stats = opt.train(&mut problem);
        let last = stats.last().unwrap();
        assert!(
            last.heldout_after < 1e-6,
            "final loss {}",
            last.heldout_after
        );
        for (got, want) in problem.theta.iter().zip(problem.target.iter()) {
            assert!((got - want).abs() < 1e-3);
        }
        // First iteration already accepted a near-Newton step.
        assert!(stats[0].accepted);
        assert!(stats[0].alpha > 0.0);
    }

    #[test]
    fn heldout_loss_never_increases_on_accepted_steps() {
        let mut problem = Quadratic {
            theta: vec![2.0; 8],
            target: vec![-1.0; 8],
        };
        let mut opt = HfOptimizer::new(HfConfig::small_task());
        let stats = opt.train(&mut problem);
        for s in &stats {
            if s.accepted {
                assert!(
                    s.heldout_after <= s.heldout_before + 1e-9,
                    "iter {}: {} -> {}",
                    s.iter,
                    s.heldout_before,
                    s.heldout_after
                );
            }
        }
    }

    /// A problem whose held-out loss is adversarially constant: every
    /// step must be rejected and λ must grow.
    struct NoImprovement {
        theta: Vec<f32>,
    }

    impl HfProblem for NoImprovement {
        fn num_params(&self) -> usize {
            self.theta.len()
        }
        fn theta(&self) -> Vec<f32> {
            self.theta.clone()
        }
        fn set_theta(&mut self, theta: &[f32]) {
            self.theta = theta.to_vec();
        }
        fn gradient(&mut self) -> (f64, Vec<f32>) {
            (1.0, vec![1.0; self.theta.len()])
        }
        fn sample_curvature(&mut self, _seed: u64, _fraction: f64) {}
        fn gn_product(&mut self, v: &[f32]) -> Vec<f32> {
            v.to_vec()
        }
        fn heldout_eval(&mut self, theta: &[f32]) -> HeldoutEval {
            // Strictly worse for any nonzero step.
            let step: f64 = theta.iter().map(|&t| (t as f64).abs()).sum();
            HeldoutEval {
                loss: 1.0 + step,
                accuracy: 0.0,
                frames: 1,
            }
        }
        fn train_frames(&self) -> u64 {
            1
        }
    }

    #[test]
    fn rejection_boosts_lambda_and_keeps_theta() {
        let mut problem = NoImprovement {
            theta: vec![0.0; 5],
        };
        let mut cfg = HfConfig::small_task();
        cfg.max_iters = 4;
        let mut opt = HfOptimizer::new(cfg);
        let lambda0 = opt.lambda();
        let stats = opt.train(&mut problem);
        assert!(stats.iter().all(|s| !s.accepted));
        assert!(stats.iter().all(|s| s.alpha == 0.0));
        assert!(opt.lambda() > lambda0 * 2.0, "λ grew to {}", opt.lambda());
        assert!(problem.theta.iter().all(|&t| t == 0.0), "θ moved");
        // heldout_after equals heldout_before on rejection.
        for s in &stats {
            assert_eq!(s.heldout_after, s.heldout_before);
        }
    }

    #[test]
    fn early_stop_on_target() {
        let mut problem = Quadratic {
            theta: vec![1.0; 4],
            target: vec![0.0; 4],
        };
        let mut cfg = HfConfig::small_task();
        cfg.max_iters = 50;
        cfg.target_heldout_loss = Some(1e-4);
        let mut opt = HfOptimizer::new(cfg);
        let stats = opt.train(&mut problem);
        assert!(stats.len() < 50, "ran {} iterations", stats.len());
        assert!(stats.last().unwrap().heldout_after <= 1e-4);
    }

    #[test]
    fn recorder_captures_iteration_telemetry() {
        use pdnn_obs::InMemoryRecorder;
        let mut problem = Quadratic {
            theta: vec![0.5; 6],
            target: vec![0.0; 6],
        };
        let recorder = Arc::new(InMemoryRecorder::new());
        let mut cfg = HfConfig::small_task();
        cfg.max_iters = 2;
        let mut opt = HfOptimizer::with_recorder(cfg, recorder.clone());
        let stats = opt.train(&mut problem);
        let t = recorder.take();
        assert_eq!(t.counter("hf_iterations"), stats.len() as u64);
        let total_cg: usize = stats.iter().map(|s| s.cg_iters).sum();
        assert_eq!(t.counter("cg_iters"), total_cg as u64);
        assert!(t.gauge("lambda").is_some());
        let names: Vec<&str> = t.spans.iter().map(|s| s.name()).collect();
        for expected in ["hf_iteration", "gradient", "cg_minimize", "backtracking"] {
            assert!(names.contains(&expected), "{names:?}");
        }
        let events: Vec<_> = t
            .events
            .iter()
            .filter(|e| e.name == "hf_iteration")
            .collect();
        assert_eq!(events.len(), stats.len());
        assert_eq!(
            events[0].get("iter").and_then(pdnn_obs::Value::as_f64),
            Some(0.0)
        );
    }

    /// Training loss ½‖θ − t‖² (G = I); held-out loss either the same
    /// or a function of `s`, the fraction of the way from the starting
    /// θ₀ to `t` a point lies. Records the bits of every θ it is asked
    /// to evaluate on held-out data.
    struct Counting {
        quad: Quadratic,
        theta0: Vec<f32>,
        heldout: Option<fn(f64) -> f64>,
        evaluated: Vec<Vec<u32>>,
    }

    impl Counting {
        fn new(theta: Vec<f32>, target: Vec<f32>, heldout: Option<fn(f64) -> f64>) -> Self {
            Counting {
                theta0: theta.clone(),
                quad: Quadratic { theta, target },
                heldout,
                evaluated: Vec::new(),
            }
        }

        fn fraction_of_the_way(&self, theta: &[f32]) -> f64 {
            let (mut along, mut norm) = (0.0f64, 0.0f64);
            for ((&x, &x0), &t) in theta.iter().zip(&self.theta0).zip(&self.quad.target) {
                let to_target = f64::from(t - x0);
                along += f64::from(x - x0) * to_target;
                norm += to_target * to_target;
            }
            along / norm
        }

        /// How often the bits of `theta` were evaluated.
        fn times_evaluated(&self, theta: &[f32]) -> usize {
            let bits: Vec<u32> = theta.iter().map(|x| x.to_bits()).collect();
            self.evaluated.iter().filter(|e| **e == bits).count()
        }
    }

    impl HfProblem for Counting {
        fn num_params(&self) -> usize {
            self.quad.num_params()
        }
        fn theta(&self) -> Vec<f32> {
            self.quad.theta()
        }
        fn set_theta(&mut self, theta: &[f32]) {
            self.quad.set_theta(theta);
        }
        fn gradient(&mut self) -> (f64, Vec<f32>) {
            self.quad.gradient()
        }
        fn sample_curvature(&mut self, _seed: u64, _fraction: f64) {}
        fn gn_product(&mut self, v: &[f32]) -> Vec<f32> {
            v.to_vec()
        }
        fn heldout_eval(&mut self, theta: &[f32]) -> HeldoutEval {
            self.evaluated
                .push(theta.iter().map(|x| x.to_bits()).collect());
            let loss = match self.heldout {
                Some(f) => f(self.fraction_of_the_way(theta)),
                None => self.quad.loss_of(theta),
            };
            HeldoutEval {
                loss,
                accuracy: 0.5,
                frames: 1,
            }
        }
        fn train_frames(&self) -> u64 {
            1
        }
    }

    /// An accepted full step evaluates θ₀ + d_best once: the Armijo
    /// trial at α = 1 and the post-step evaluation reuse the
    /// backtracking's, and the next iteration's `L_prev` is that same
    /// evaluation.
    #[test]
    fn an_accepted_full_step_evaluates_no_point_twice() {
        let mut problem = Counting::new(vec![0.5; 6], vec![0.0; 6], None);
        let mut opt = HfOptimizer::new(HfConfig::small_task());
        for iter in 0..2 {
            problem.evaluated.clear();
            let before = problem.theta();
            let s = opt.step(&mut problem, iter);
            assert!(s.accepted && s.alpha == 1.0, "iter {iter}: {s:?}");
            let mut distinct = problem.evaluated.clone();
            distinct.sort();
            distinct.dedup();
            assert_eq!(distinct.len(), problem.evaluated.len(), "iter {iter}");
            assert_eq!(problem.times_evaluated(&problem.theta()), 1, "iter {iter}");
            // Only the first iteration evaluates its starting point.
            let want_start = usize::from(iter == 0);
            assert_eq!(problem.times_evaluated(&before), want_start, "iter {iter}");
            assert_eq!(s.heldout_evals, problem.evaluated.len(), "iter {iter}");
        }
    }

    /// Held-out loss with a deep dip halfway to the target and a rise
    /// back to just under the start there: the backtracking accepts
    /// the full step, Armijo does not (its decrease is under
    /// `c · |g·d|`), and α = ½ is taken.
    fn dip_halfway(s: f64) -> f64 {
        1.0 - 0.4 * s * (1.0 - s) - 1e-6 * s
    }

    #[test]
    fn a_shortened_step_still_evaluates_the_post_step_point() {
        let mut problem = Counting::new(vec![0.0; 4], vec![0.5; 4], Some(dip_halfway));
        let mut cfg = HfConfig::small_task();
        cfg.lambda0 = 1e-9;
        let mut opt = HfOptimizer::new(cfg);
        let s = opt.step(&mut problem, 0);
        assert!(s.accepted && s.alpha == 0.5, "{s:?}");
        // The post-step θ is the accepted Armijo trial's point; it is
        // evaluated again, and last.
        let theta = problem.theta();
        let bits: Vec<u32> = theta.iter().map(|x| x.to_bits()).collect();
        assert_eq!(problem.evaluated.last(), Some(&bits));
        assert_eq!(problem.times_evaluated(&theta), 2);
        assert_eq!(
            s.heldout_after,
            dip_halfway(problem.fraction_of_the_way(&theta))
        );
        // The full step θ₀ + d_best is evaluated once, for the
        // backtracking and the Armijo trial at α = 1 alike.
        let mut distinct = problem.evaluated.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), problem.evaluated.len() - 1);
        assert_eq!(s.heldout_evals, problem.evaluated.len());
    }

    /// `IterStats::heldout_evals` is the number of evaluations
    /// performed, iteration by iteration: accepted full steps,
    /// shortened steps and rejections alike.
    #[test]
    fn heldout_evals_counts_every_evaluation() {
        fn never_improves(s: f64) -> f64 {
            1.0 + s.abs()
        }
        for heldout in [
            None,
            Some(dip_halfway as fn(f64) -> f64),
            Some(never_improves),
        ] {
            let mut problem = Counting::new(vec![0.0; 4], vec![0.5; 4], heldout);
            let mut cfg = HfConfig::small_task();
            cfg.lambda0 = 1e-9;
            let mut opt = HfOptimizer::new(cfg);
            for iter in 0..4 {
                problem.evaluated.clear();
                let s = opt.step(&mut problem, iter);
                assert_eq!(
                    s.heldout_evals,
                    problem.evaluated.len(),
                    "iter {iter}: {s:?}"
                );
            }
        }
    }

    #[test]
    fn stats_are_internally_consistent() {
        let mut problem = Quadratic {
            theta: vec![0.5; 6],
            target: vec![0.0; 6],
        };
        let mut opt = HfOptimizer::new(HfConfig::small_task());
        let s = opt.step(&mut problem, 0);
        assert_eq!(s.iter, 0);
        assert!(s.grad_norm > 0.0);
        assert!(s.cg_iters >= 1);
        assert!(s.heldout_evals >= 2);
        if s.accepted {
            assert!(s.chosen_iter >= 1);
            assert!(s.rho.is_finite());
        }
    }
}
