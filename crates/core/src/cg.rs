//! Truncated conjugate gradient for the damped quadratic model.
//!
//! `CG-Minimize(q_θ(d), d_0)` from the paper's Algorithm 1: minimize
//!
//! ```text
//! q(d) = g·d + ½ d·(G + λI)d
//! ```
//!
//! accessing the curvature only through matrix–vector products. Two
//! Martens (2010) specifics are implemented faithfully:
//!
//! * **Relative-progress truncation** — stop at iteration `i` once
//!   `i > k` and `(q_i − q_{i−k}) / q_i < k·ε` with
//!   `k = max(10, 0.1·i)`: CG is cut off when per-iteration progress
//!   on the quadratic stalls, not at a fixed count.
//! * **Iterate series** — CG visits a sequence of partial solutions
//!   `{d_1, d_2, …, d_N}`; a geometrically thinned subset (indices
//!   `⌈γ^j⌉`) is returned for the caller's backtracking pass, which
//!   re-evaluates them on held-out data and may *reject* later
//!   iterates (CG over-fits the quadratic model on a curvature
//!   minibatch).
//!
//! The quadratic value is tracked with the cheap identity
//! `q(d) = ½ d·(r + g)` where `r = (G+λI)d + g` is the residual.

use pdnn_obs::{Recorder, RecorderExt, SpanKind};
use pdnn_tensor::blas1;
use pdnn_util::float::exactly_zero;

/// Configuration for one CG solve.
#[derive(Clone, Copy, Debug)]
pub struct CgConfig {
    /// Hard cap on iterations (the paper's runs use a few hundred).
    pub max_iters: usize,
    /// Minimum iterations before the truncation test applies.
    pub min_iters: usize,
    /// Relative-progress tolerance ε of the Martens test.
    pub epsilon: f64,
    /// Geometric thinning factor for the stored iterate series.
    pub store_gamma: f64,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            max_iters: 250,
            min_iters: 10,
            epsilon: 5e-4,
            store_gamma: 1.3,
        }
    }
}

/// One stored partial solution.
#[derive(Clone, Debug)]
pub struct CgIterate {
    /// CG iteration index (1-based) at which this was captured.
    pub iter: usize,
    /// The partial solution `d_i`.
    pub d: Vec<f32>,
    /// Quadratic model value `q(d_i)`.
    pub q: f64,
}

/// Result of a truncated CG solve.
#[derive(Clone, Debug)]
pub struct CgResult {
    /// Thinned iterate series `{d_1, …, d_N}` (always includes the
    /// final iterate as the last element).
    pub iterates: Vec<CgIterate>,
    /// Number of iterations executed.
    pub iters: usize,
    /// Why the solve stopped.
    pub stop: CgStop,
}

impl CgResult {
    /// The final direction `d_N`.
    pub fn final_d(&self) -> &[f32] {
        &self
            .iterates
            .last()
            // pdnn-lint: allow(l3-no-unwrap): a solve always pushes a final iterate before returning
            .expect("CG always stores the final iterate")
            .d
    }

    /// The final quadratic value `q(d_N)`.
    pub fn final_q(&self) -> f64 {
        // pdnn-lint: allow(l3-no-unwrap): same invariant as final_d — iterates is never empty
        self.iterates.last().expect("non-empty").q
    }
}

/// Why CG stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CgStop {
    /// The Martens relative-progress test fired.
    RelativeProgress,
    /// The iteration cap was hit.
    MaxIters,
    /// The residual became (numerically) zero — exact solve.
    Converged,
    /// Negative curvature was encountered (`p·Ap ≤ 0`); with λ-damped
    /// Gauss–Newton this indicates numerical trouble, and CG returns
    /// the best iterate so far.
    NegativeCurvature,
}

/// A truncated-CG solver that keeps its work vectors across solves.
///
/// The residual, direction, preconditioned residual, the quadratic
/// history, the iterate list and the iterate vectors themselves all
/// live here between solves: once [`Self::reclaim`] has handed a
/// result's iterates back, a solve of no more stored iterates than an
/// earlier one allocates nothing. The curvature products cycle too:
/// each call of the product closure is handed the product buffer the
/// solve has retired (the previous `Ap`, or the previous solve's
/// residual) to give back to whoever made it.
#[derive(Clone, Debug, Default)]
pub struct CgSolver {
    config: CgConfig,
    /// The residual `r`: the first product of a solve, kept.
    r: Vec<f32>,
    /// The last `Ap` product.
    ap: Vec<f32>,
    p: Vec<f32>,
    z: Vec<f32>,
    q_hist: Vec<f64>,
    /// Emptied iterate list of the last reclaimed result.
    iterates: Vec<CgIterate>,
    /// Iterate vectors of reclaimed results, reused for `d` and for
    /// every stored iterate.
    spare: Vec<Vec<f32>>,
}

impl CgSolver {
    /// A solver with no work vectors yet; the first solve sizes them.
    pub fn new(config: CgConfig) -> Self {
        CgSolver {
            config,
            ..CgSolver::default()
        }
    }

    /// Keep a finished solve's iterate vectors for the next solve.
    pub fn reclaim(&mut self, mut result: CgResult) {
        self.spare.extend(result.iterates.drain(..).map(|it| it.d));
        self.iterates = result.iterates;
    }

    /// A vector holding a copy of `src`, from the spare iterates.
    fn copy_of(&mut self, src: &[f32]) -> Vec<f32> {
        let mut v = self.spare.pop().unwrap_or_default();
        v.clear();
        v.extend_from_slice(src);
        v
    }

    /// Minimize `q(d) = g·d + ½ d·(G + σI)d` from `d0`, where `apply_g`
    /// computes the curvature product `G v` and `shift` is σ (the
    /// damping λ plus any L2 weight; σ is applied in `f32`).
    /// `apply_g(v, retired)` returns `G v`; `retired` is a product
    /// buffer this solver no longer needs (empty on the first calls of
    /// a fresh solver), for the closure to give back to the product's
    /// producer or reuse.
    ///
    /// `precond`, when given, is the diagonal of the preconditioner
    /// `M`; CG then solves the implicitly transformed system (standard
    /// PCG with `z = M⁻¹ r`). The paper's implementation "currently
    /// does not use a preconditioner" and cites Chapelle/Kingsbury's as
    /// future work — this is that extension, with Martens'
    /// empirical-Fisher diagonal supplied by the optimizer (see
    /// `HfConfig::preconditioner` and the `preconditioner` ablation
    /// bench).
    ///
    /// A step costs three passes over the vectors besides the product:
    /// `Ap = Gp + σp` with `p·Ap` ([`blas1::axpy_dot`]); the `d`/`r`/`z`
    /// update with `r·z` and `q` ([`blas1::cg_update`]); and
    /// `p = −z + βp`.
    ///
    /// Recorded on `recorder`: a `"cg_minimize"` span around the solve,
    /// the `"cg_iters"` counter (iterations executed), the
    /// `"cg_curvature_products"` counter (exact number of `apply_g`
    /// calls) and the `"cg_q_final"` gauge.
    ///
    /// # Panics
    /// If lengths mismatch or any preconditioner entry is not strictly
    /// positive (M must be SPD).
    pub fn solve(
        &mut self,
        g: &[f32],
        d0: &[f32],
        mut apply_g: impl FnMut(&[f32], Vec<f32>) -> Vec<f32>,
        shift: f64,
        precond: Option<&[f32]>,
        recorder: &dyn Recorder,
    ) -> CgResult {
        let _span = recorder.span("cg_minimize", SpanKind::DenseCompute);
        let config = self.config;
        let n = g.len();
        assert_eq!(d0.len(), n, "cg: d0 length mismatch");
        assert!(config.max_iters >= 1, "cg: max_iters must be >= 1");
        assert!(config.store_gamma > 1.0, "cg: store_gamma must exceed 1");
        if let Some(m) = precond {
            assert_eq!(m.len(), n, "cg: preconditioner length mismatch");
            assert!(
                m.iter().all(|&v| v > 0.0 && v.is_finite()),
                "cg: preconditioner must be strictly positive"
            );
        }
        let sigma = shift as f32;
        let mut products = 0u64;
        let mut apply_a = |v: &[f32], retired: Vec<f32>| {
            products += 1;
            let gv = apply_g(v, retired);
            assert_eq!(gv.len(), n, "cg: curvature product length mismatch");
            gv
        };

        let mut d = self.copy_of(d0);
        // r = (G + σI) d + g
        let mut r = apply_a(&d, std::mem::take(&mut self.r));
        for ((ri, &di), &gi) in r.iter_mut().zip(&d).zip(g) {
            *ri = (sigma * di + *ri) + gi;
        }
        // z = M⁻¹ r (kept only under a preconditioner; otherwise z is r);
        // p = −z.
        let mut z = std::mem::take(&mut self.z);
        z.clear();
        if let Some(m) = precond {
            z.extend(r.iter().zip(m).map(|(&ri, &mi)| ri / mi));
        }
        let z0 = if precond.is_some() { &z } else { &r };
        let mut p = std::mem::take(&mut self.p);
        p.clear();
        p.extend(z0.iter().map(|&v| -v));
        let mut rz = blas1::dot(&r, z0);

        // q(d) = ½ d·(r + g)
        let mut q_sum = 0.0f64;
        for ((&di, &ri), &gi) in d.iter().zip(&r).zip(g) {
            q_sum += di as f64 * (ri as f64 + gi as f64);
        }
        // Sized once: one entry per iteration at most, plus q(d0) or the
        // final iterate.
        let mut q_hist = std::mem::take(&mut self.q_hist);
        q_hist.clear();
        q_hist.reserve(config.max_iters + 1);
        q_hist.push(0.5 * q_sum);
        let mut iterates = std::mem::take(&mut self.iterates);
        iterates.reserve(config.max_iters + 1);
        let mut next_store = 1usize;
        let mut store_exp = 0u32;
        let mut stop = CgStop::MaxIters;
        let mut iters = 0usize;
        let mut ap = std::mem::take(&mut self.ap);

        for i in 1..=config.max_iters {
            ap = apply_a(&p, ap);
            let pap = blas1::axpy_dot(sigma, &p, &mut ap);
            if pap <= 0.0 {
                stop = if exactly_zero(rz) {
                    CgStop::Converged
                } else {
                    CgStop::NegativeCurvature
                };
                break;
            }
            let alpha = (rz / pap) as f32;
            let mz = precond.map(|m| (m, &mut z[..]));
            let (rz_new, q_sum) = blas1::cg_update(alpha, &p, &ap, g, &mut d, &mut r, mz);
            let beta = (rz_new / rz) as f32;
            rz = rz_new;
            let z_now = if precond.is_some() { &z } else { &r };
            for (pi, &zi) in p.iter_mut().zip(z_now) {
                *pi = -zi + beta * *pi;
            }

            iters = i;
            let q = 0.5 * q_sum;
            q_hist.push(q);

            if i == next_store {
                iterates.push(CgIterate {
                    iter: i,
                    d: self.copy_of(&d),
                    q,
                });
                store_exp += 1;
                next_store =
                    next_store.max(config.store_gamma.powi(store_exp as i32).ceil() as usize);
                if next_store <= i {
                    next_store = i + 1;
                }
            }

            if rz < 1e-24 {
                stop = CgStop::Converged;
                break;
            }

            // Martens relative-progress test.
            let k = (10.0f64).max(0.1 * i as f64).floor() as usize;
            if i >= config.min_iters.max(k) && q < 0.0 {
                let q_prev = q_hist[i - k];
                if (q - q_prev) / q < k as f64 * config.epsilon {
                    stop = CgStop::RelativeProgress;
                    break;
                }
            }
        }

        // Always include the final iterate.
        // pdnn-lint: allow(l3-no-unwrap): q_hist is seeded with q(d0) before the loop
        let last_q = *q_hist.last().unwrap();
        let need_final = iterates.last().map(|it| it.iter != iters).unwrap_or(true);
        if need_final {
            iterates.push(CgIterate {
                iter: iters.max(1),
                d,
                q: last_q,
            });
        } else {
            self.spare.push(d);
        }
        (self.r, self.ap, self.p, self.z, self.q_hist) = (r, ap, p, z, q_hist);

        let result = CgResult {
            iterates,
            iters: iters.max(1),
            stop,
        };
        recorder.counter_add("cg_iters", result.iters as u64);
        recorder.counter_add("cg_curvature_products", products);
        recorder.gauge_set("cg_q_final", result.final_q());
        result
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]
mod tests {
    use super::*;
    use pdnn_obs::NullRecorder;

    /// A one-off solve on a fresh solver, the product allocating its
    /// own vector.
    fn cg_minimize(
        g: &[f32],
        d0: &[f32],
        mut apply_g: impl FnMut(&[f32]) -> Vec<f32>,
        shift: f64,
        precond: Option<&[f32]>,
        config: &CgConfig,
        recorder: &dyn Recorder,
    ) -> CgResult {
        CgSolver::new(*config).solve(g, d0, |v, _| apply_g(v), shift, precond, recorder)
    }

    /// Unshifted, unpreconditioned solve under the default config.
    fn default_solve(g: &[f32], d0: &[f32], apply_g: impl FnMut(&[f32]) -> Vec<f32>) -> CgResult {
        cg_minimize(
            g,
            d0,
            apply_g,
            0.0,
            None,
            &CgConfig::default(),
            &NullRecorder,
        )
    }

    /// Dense SPD multiply used as the oracle.
    fn dense_apply(a: &[Vec<f64>]) -> impl FnMut(&[f32]) -> Vec<f32> + '_ {
        move |v: &[f32]| {
            a.iter()
                .map(|row| {
                    row.iter()
                        .zip(v.iter())
                        .map(|(&aij, &vj)| aij * vj as f64)
                        .sum::<f64>() as f32
                })
                .collect()
        }
    }

    fn spd_matrix(n: usize, seed: u64) -> Vec<Vec<f64>> {
        // A = B^T B + n·I: comfortably SPD.
        let mut rng = pdnn_util::Prng::new(seed);
        let b: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.normal()).collect())
            .collect();
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    a[i][j] += b[k][i] * b[k][j];
                }
            }
            a[i][i] += n as f64;
        }
        a
    }

    /// Gaussian elimination solve for the reference solution.
    fn dense_solve(a: &[Vec<f64>], b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut m: Vec<Vec<f64>> = a
            .iter()
            .zip(b.iter())
            .map(|(row, &bi)| {
                let mut r = row.clone();
                r.push(bi);
                r
            })
            .collect();
        for col in 0..n {
            let piv = (col..n)
                .max_by(|&i, &j| m[i][col].abs().partial_cmp(&m[j][col].abs()).unwrap())
                .unwrap();
            m.swap(col, piv);
            let diag = m[col][col];
            for row in 0..n {
                if row != col {
                    let f = m[row][col] / diag;
                    for k in col..=n {
                        m[row][k] -= f * m[col][k];
                    }
                }
            }
        }
        (0..n).map(|i| m[i][n] / m[i][i]).collect()
    }

    #[test]
    fn solves_spd_system() {
        let n = 12;
        let a = spd_matrix(n, 1);
        let g: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let d0 = vec![0.0f32; n];
        let cfg = CgConfig {
            max_iters: 200,
            min_iters: 1,
            epsilon: 1e-12,
            store_gamma: 1.3,
        };
        let result = cg_minimize(&g, &d0, dense_apply(&a), 0.0, None, &cfg, &NullRecorder);
        // Exact answer: A d* = -g.
        let neg_g: Vec<f64> = g.iter().map(|&v| -v as f64).collect();
        let d_star = dense_solve(&a, &neg_g);
        for (got, want) in result.final_d().iter().zip(d_star.iter()) {
            assert!((*got as f64 - want).abs() < 1e-4, "{got} vs {want}");
        }
        assert!(matches!(
            result.stop,
            CgStop::Converged | CgStop::RelativeProgress | CgStop::MaxIters
        ));
    }

    #[test]
    fn q_decreases_monotonically_along_stored_iterates() {
        let n = 20;
        let a = spd_matrix(n, 2);
        let g: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).cos()).collect();
        let result = default_solve(&g, &vec![0.0; n], dense_apply(&a));
        for w in result.iterates.windows(2) {
            // Exact CG decreases q monotonically; f32 arithmetic and
            // the incrementally updated residual allow small wobble.
            assert!(
                w[1].q <= w[0].q + 1e-5 * (1.0 + w[0].q.abs()),
                "q increased: {} -> {}",
                w[0].q,
                w[1].q
            );
        }
        // From d0 = 0, q(d) must be negative (any progress beats 0).
        assert!(result.final_q() < 0.0);
    }

    #[test]
    fn warm_start_changes_trajectory_but_still_descends() {
        let n = 10;
        let a = spd_matrix(n, 3);
        let g: Vec<f32> = vec![1.0; n];
        let cold = default_solve(&g, &vec![0.0; n], dense_apply(&a));
        let warm_start: Vec<f32> = cold.final_d().iter().map(|&v| 0.5 * v).collect();
        let warm = default_solve(&g, &warm_start, dense_apply(&a));
        // Warm-started CG must do at least as well at the end.
        assert!(warm.final_q() <= cold.final_q() + 1e-8);
    }

    #[test]
    fn truncation_fires_before_cap_on_easy_problems() {
        // Identity curvature: CG converges in one step; the relative
        // progress (or convergence) test must stop it long before 200.
        let n = 50;
        let g: Vec<f32> = (0..n).map(|i| (i as f32 + 1.0) * 0.01).collect();
        let result = default_solve(&g, &vec![0.0; n], |v| v.to_vec());
        assert!(result.iters <= 3, "iters = {}", result.iters);
        assert!(matches!(
            result.stop,
            CgStop::Converged | CgStop::RelativeProgress
        ));
    }

    #[test]
    fn iterate_series_is_thinned_and_ends_with_final() {
        let n = 64;
        let a = spd_matrix(n, 4);
        let g: Vec<f32> = (0..n).map(|i| ((i * i) as f32).sin()).collect();
        let cfg = CgConfig {
            max_iters: 60,
            min_iters: 60, // force the cap so we see many iterates
            epsilon: 0.0,
            store_gamma: 1.3,
        };
        let result = cg_minimize(
            &g,
            &vec![0.0; n],
            dense_apply(&a),
            0.0,
            None,
            &cfg,
            &NullRecorder,
        );
        let idx: Vec<usize> = result.iterates.iter().map(|it| it.iter).collect();
        // Strictly increasing and far fewer than 60 entries.
        assert!(idx.windows(2).all(|w| w[0] < w[1]), "{idx:?}");
        assert!(idx.len() < 25, "{} stored", idx.len());
        assert_eq!(*idx.last().unwrap(), result.iters);
        assert_eq!(idx[0], 1, "first iterate d_1 must be stored");
    }

    #[test]
    fn zero_gradient_returns_zero_step() {
        let n = 8;
        let g = vec![0.0f32; n];
        let result = default_solve(&g, &vec![0.0; n], |v| v.to_vec());
        assert!(result.final_d().iter().all(|&v| v == 0.0));
        assert_eq!(result.final_q(), 0.0);
    }

    #[test]
    fn negative_curvature_is_detected() {
        // A = -I: every direction has negative curvature.
        let g = vec![1.0f32; 4];
        let result = default_solve(&g, &[0.0; 4], |v| v.iter().map(|&x| -x).collect());
        assert_eq!(result.stop, CgStop::NegativeCurvature);
    }

    #[test]
    #[should_panic(expected = "d0 length mismatch")]
    fn length_mismatch_panics() {
        default_solve(&[1.0], &[1.0, 2.0], |v| v.to_vec());
    }

    /// A badly conditioned diagonal system: plain CG needs many
    /// iterations; Jacobi preconditioning (the exact inverse here)
    /// converges almost immediately.
    #[test]
    fn preconditioning_cuts_iterations_on_ill_conditioned_systems() {
        let n = 64;
        let diag: Vec<f64> = (0..n)
            .map(|i| 10f64.powf(4.0 * i as f64 / n as f64))
            .collect();
        let apply = |v: &[f32]| -> Vec<f32> {
            v.iter()
                .zip(diag.iter())
                .map(|(&x, &d)| (x as f64 * d) as f32)
                .collect()
        };
        let g: Vec<f32> = (0..n).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.1).collect();
        let cfg = CgConfig {
            max_iters: 200,
            min_iters: 1,
            epsilon: 1e-10,
            store_gamma: 1.3,
        };
        let plain = cg_minimize(&g, &vec![0.0; n], apply, 0.0, None, &cfg, &NullRecorder);
        let m: Vec<f32> = diag.iter().map(|&d| d as f32).collect();
        let pre = cg_minimize(&g, &vec![0.0; n], apply, 0.0, Some(&m), &cfg, &NullRecorder);
        assert!(
            pre.iters * 3 < plain.iters,
            "precond {} vs plain {} iterations",
            pre.iters,
            plain.iters
        );
        // Both reach (essentially) the same minimizer.
        let q_gap = (pre.final_q() - plain.final_q()).abs();
        assert!(
            q_gap < 1e-4 * (1.0 + plain.final_q().abs()),
            "q gap {q_gap}"
        );
    }

    #[test]
    fn identity_preconditioner_matches_plain_cg() {
        let n = 20;
        let a = spd_matrix(n, 5);
        let g: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).sin()).collect();
        let cfg = CgConfig::default();
        let plain = cg_minimize(
            &g,
            &vec![0.0; n],
            dense_apply(&a),
            0.0,
            None,
            &cfg,
            &NullRecorder,
        );
        let m = vec![1.0f32; n];
        let pre = cg_minimize(
            &g,
            &vec![0.0; n],
            dense_apply(&a),
            0.0,
            Some(&m),
            &cfg,
            &NullRecorder,
        );
        assert_eq!(plain.iters, pre.iters);
        assert_eq!(plain.final_d(), pre.final_d());
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn nonpositive_preconditioner_rejected() {
        let g = vec![1.0f32; 4];
        let m = vec![1.0f32, 0.0, 1.0, 1.0];
        cg_minimize(
            &g,
            &[0.0; 4],
            |v| v.to_vec(),
            0.0,
            Some(&m),
            &CgConfig::default(),
            &NullRecorder,
        );
    }

    #[test]
    fn recorded_solve_matches_plain_and_emits_telemetry() {
        let n = 16;
        let a = spd_matrix(n, 6);
        let g: Vec<f32> = (0..n).map(|i| (i as f32 * 0.9).cos()).collect();
        let plain = default_solve(&g, &vec![0.0; n], dense_apply(&a));
        let rec = pdnn_obs::InMemoryRecorder::new();
        let cfg = CgConfig::default();
        let recorded = cg_minimize(&g, &vec![0.0; n], dense_apply(&a), 0.0, None, &cfg, &rec);
        assert_eq!(plain.iters, recorded.iters);
        assert_eq!(plain.final_d(), recorded.final_d());
        let data = rec.take();
        assert_eq!(data.counter("cg_iters"), recorded.iters as u64);
        // One product seeds the residual, plus at most one per iter.
        let products = data.counter("cg_curvature_products");
        assert!(products >= 1 && products <= recorded.iters as u64 + 1);
        assert_eq!(data.gauge("cg_q_final"), Some(recorded.final_q()));
        assert_eq!(data.spans.len(), 1);
        assert_eq!(data.spans[0].name(), "cg_minimize");
        assert_eq!(data.spans[0].kind, SpanKind::DenseCompute);
    }

    /// The shift σ is the same operator as a product that adds σv in
    /// `f32` itself (`σ·v + Gv`, two roundings).
    #[test]
    fn shift_equals_a_shifted_product() {
        let n = 24;
        let a = spd_matrix(n, 7);
        let g: Vec<f32> = (0..n).map(|i| (i as f32 * 0.4).sin()).collect();
        let d0: Vec<f32> = (0..n).map(|i| 0.01 * i as f32).collect();
        let m: Vec<f32> = (0..n).map(|i| 1.0 + 0.1 * i as f32).collect();
        let sigma = 0.75f64;
        let cfg = CgConfig::default();
        for precond in [None, Some(&m[..])] {
            let shifted = cg_minimize(
                &g,
                &d0,
                dense_apply(&a),
                sigma,
                precond,
                &cfg,
                &NullRecorder,
            );
            let mut gv = dense_apply(&a);
            let by_hand = |v: &[f32]| {
                let mut out = gv(v);
                pdnn_tensor::blas1::axpy(sigma as f32, v, &mut out);
                out
            };
            let manual = cg_minimize(&g, &d0, by_hand, 0.0, precond, &cfg, &NullRecorder);
            assert_eq!(shifted.iters, manual.iters);
            assert_eq!(shifted.stop, manual.stop);
            for (x, y) in shifted.iterates.iter().zip(&manual.iterates) {
                assert_eq!(x.iter, y.iter);
                assert_eq!(x.q.to_bits(), y.q.to_bits());
                let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&x.d), bits(&y.d));
            }
        }
    }
}
