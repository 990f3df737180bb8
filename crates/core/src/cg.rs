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
use std::ops::Range;

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
    pub(crate) fn final_d(&self) -> &[f32] {
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

/// What a CG solve runs against: the curvature product, the owner of
/// its work vectors, and the ranks it shares them with. A solve gives
/// back every vector it leased or took from [`Self::product`] except
/// the stored iterates (see [`CgSolver::reclaim`]), each `Ap` before it
/// asks for the next.
///
/// A rank may own only part of the solve ([`Self::cg_range`]): it then
/// keeps and updates that range of every vector, gathers the whole `p`
/// for each product ([`Self::gather`]) and folds its partial dot
/// products with the other owners' ([`Self::fold_partials`]). The
/// defaults own everything, and then the two are no-ops.
pub trait CgOperator {
    /// The curvature product `G v` of a whole `v`, over
    /// [`Self::cg_range`], in a buffer the operator owns.
    fn product(&mut self, v: &[f32]) -> Vec<f32>;
    /// A buffer of exactly `len` elements, contents unspecified.
    fn lease(&mut self, len: usize) -> Vec<f32>;
    /// Take back a leased buffer or a product; an empty vector is
    /// ignored.
    fn give_back(&mut self, buf: Vec<f32>);
    /// The coordinates this rank owns, of a vector of `n`.
    fn cg_range(&self, n: usize) -> Range<usize> {
        0..n
    }
    /// Sum partial sums over the owners, in a fixed order.
    fn fold_partials(&mut self, _partials: &mut [f64]) {}
    /// Fill `full` outside [`Self::cg_range`] from its owners.
    fn gather(&mut self, _full: &mut [f32]) {}
}

/// A truncated-CG solver. Its vectors are leased per solve from the
/// [`CgOperator`]; between solves it keeps only its quadratic history
/// and the emptied iterate list, so a solve of no more iterations than
/// an earlier one allocates nothing of its own.
#[derive(Clone, Debug, Default)]
pub struct CgSolver {
    config: CgConfig,
    q_hist: Vec<f64>,
    /// Emptied iterate list of the last reclaimed result.
    iterates: Vec<CgIterate>,
}

impl CgSolver {
    /// A solver with no buffers yet; the first solve sizes them.
    pub fn new(config: CgConfig) -> Self {
        CgSolver {
            config,
            ..CgSolver::default()
        }
    }

    /// Hand a finished solve's iterate vectors to `give_back` and keep
    /// its iterate list for the next solve.
    pub fn reclaim(&mut self, mut result: CgResult, mut give_back: impl FnMut(Vec<f32>)) {
        for it in result.iterates.drain(..) {
            give_back(it.d);
        }
        self.iterates = result.iterates;
    }

    /// Minimize `q(d) = g·d + ½ d·(G + σI)d` from `d0`, where `op`
    /// computes the curvature product `G v` and lends the work vectors,
    /// and `shift` is σ (the damping λ plus any L2 weight; σ is applied
    /// in `f32`).
    ///
    /// `d0 = None` is a cold start from `d = 0`. Its first residual is
    /// `g` itself, formed as `g + 0.0` (the bits a product of exact
    /// zeros gives), so it costs no curvature product and, on a rank
    /// that owns part of the range, no gather. Every owner must make
    /// the same choice, since each product is a collective.
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
    /// `g` is the whole gradient; `d0`, `precond`, every vector of the
    /// solve and the returned iterates cover the operator's
    /// [`CgOperator::cg_range`] of it. A step costs three passes over
    /// that range besides the product: `Ap = Gp + σp` with `p·Ap`
    /// ([`blas1::axpy_dot`]); the `d`/`r`/`z` update with `r·z` and `q`
    /// ([`blas1::cg_update`]); and `p = −z + βp`. A rank that owns a
    /// part of the range makes them over its part only, and talks to
    /// the other owners three times a step: it gathers the whole `p`
    /// for the product, then folds its partial `p·Ap`, then its
    /// partial `(r·z, q)`. A sole owner folds and gathers nothing.
    ///
    /// Recorded on `recorder`: a `"cg_minimize"` span around the solve,
    /// the `"cg_iters"` counter (iterations executed), the
    /// `"cg_curvature_products"` counter (exact number of
    /// [`CgOperator::product`] calls) and the `"cg_q_final"` gauge.
    ///
    /// # Panics
    /// If lengths mismatch or any preconditioner entry is not strictly
    /// positive (M must be SPD).
    pub fn solve<O: CgOperator>(
        &mut self,
        g: &[f32],
        d0: Option<&[f32]>,
        op: &mut O,
        shift: f64,
        precond: Option<&[f32]>,
        recorder: &dyn Recorder,
    ) -> CgResult {
        let _span = recorder.span("cg_minimize", SpanKind::DenseCompute);
        let config = self.config;
        let n = g.len();
        let range = op.cg_range(n);
        let g = &g[range.clone()];
        let len = g.len();
        if let Some(d0) = d0 {
            assert_eq!(d0.len(), len, "cg: d0 length mismatch");
        }
        assert!(config.max_iters >= 1, "cg: max_iters must be >= 1");
        assert!(config.store_gamma > 1.0, "cg: store_gamma must exceed 1");
        if let Some(m) = precond {
            assert_eq!(m.len(), len, "cg: preconditioner length mismatch");
            assert!(
                m.iter().all(|&v| v > 0.0 && v.is_finite()),
                "cg: preconditioner must be strictly positive"
            );
        }
        let sigma = shift as f32;
        let mut products = 0u64;
        // A part owner gathers the whole operand of each product here.
        let mut whole = if len < n { op.lease(n) } else { Vec::new() };
        let mut apply_a = |op: &mut O, v: &[f32]| {
            products += 1;
            let gv = if whole.is_empty() {
                op.product(v)
            } else {
                whole[range.clone()].copy_from_slice(v);
                op.gather(&mut whole);
                op.product(&whole)
            };
            assert_eq!(gv.len(), len, "cg: curvature product length mismatch");
            gv
        };

        let mut d = op.lease(len);
        // r = (G + σI) d + g
        let mut r = match d0 {
            Some(d0) => {
                d.copy_from_slice(d0);
                let mut r = apply_a(op, &d);
                for ((ri, &di), &gi) in r.iter_mut().zip(&d).zip(g) {
                    *ri = (sigma * di + *ri) + gi;
                }
                r
            }
            None => {
                d.fill(0.0);
                let mut r = op.lease(len);
                for (ri, &gi) in r.iter_mut().zip(g) {
                    *ri = gi + 0.0;
                }
                r
            }
        };
        // z = M⁻¹ r (kept only under a preconditioner; otherwise z is r);
        // p = −z.
        let mut z = Vec::new();
        if let Some(m) = precond {
            z = op.lease(len);
            for ((zi, &ri), &mi) in z.iter_mut().zip(&r).zip(m) {
                *zi = ri / mi;
            }
        }
        let z0 = if precond.is_some() { &z } else { &r };
        let mut p = op.lease(len);
        for (pi, &zi) in p.iter_mut().zip(z0) {
            *pi = -zi;
        }
        let rz = blas1::dot(&r, z0);

        // q(d) = ½ d·(r + g)
        let mut q_sum = 0.0f64;
        for ((&di, &ri), &gi) in d.iter().zip(&r).zip(g) {
            q_sum += di as f64 * (ri as f64 + gi as f64);
        }
        let mut sums = [rz, q_sum];
        op.fold_partials(&mut sums);
        let [mut rz, q_sum] = sums;
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
        let mut ap = Vec::new();

        for i in 1..=config.max_iters {
            op.give_back(ap);
            ap = apply_a(op, &p);
            let mut pap = [blas1::axpy_dot(sigma, &p, &mut ap)];
            op.fold_partials(&mut pap);
            let [pap] = pap;
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
            let mut sums: [f64; 2] = blas1::cg_update(alpha, &p, &ap, g, &mut d, &mut r, mz).into();
            op.fold_partials(&mut sums);
            let [rz_new, q_sum] = sums;
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
                let mut copy = op.lease(len);
                copy.copy_from_slice(&d);
                iterates.push(CgIterate {
                    iter: i,
                    d: copy,
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
            op.give_back(d);
        }
        for buf in [r, ap, p, z, whole] {
            op.give_back(buf);
        }
        self.q_hist = q_hist;

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

    /// A product closure as an operator whose leases are fresh vectors.
    struct Fresh<F>(F);

    impl<F: FnMut(&[f32]) -> Vec<f32>> CgOperator for Fresh<F> {
        fn product(&mut self, v: &[f32]) -> Vec<f32> {
            (self.0)(v)
        }
        fn lease(&mut self, len: usize) -> Vec<f32> {
            vec![0.0; len]
        }
        fn give_back(&mut self, _buf: Vec<f32>) {}
    }

    /// A one-off solve on a fresh solver, the product allocating its
    /// own vector.
    fn cg_minimize(
        g: &[f32],
        d0: &[f32],
        apply_g: impl FnMut(&[f32]) -> Vec<f32>,
        shift: f64,
        precond: Option<&[f32]>,
        config: &CgConfig,
        recorder: &dyn Recorder,
    ) -> CgResult {
        CgSolver::new(*config).solve(g, Some(d0), &mut Fresh(apply_g), shift, precond, recorder)
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

    /// A shifted solve of `a` from `d0`: the result, the quadratic
    /// history and the number of curvature products.
    fn counted_solve(
        a: &[Vec<f64>],
        g: &[f32],
        d0: Option<&[f32]>,
        config: CgConfig,
    ) -> (CgResult, Vec<f64>, usize) {
        let mut products = 0;
        let mut apply = dense_apply(a);
        let mut op = Fresh(|v: &[f32]| {
            products += 1;
            apply(v)
        });
        let mut solver = CgSolver::new(config);
        let result = solver.solve(g, d0, &mut op, 0.25, None, &NullRecorder);
        (result, solver.q_hist, products)
    }

    #[test]
    fn cold_start_skips_the_zero_product_and_keeps_every_bit() {
        let n = 16;
        let a = spd_matrix(n, 5);
        let g: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).cos() - 0.2).collect();
        let cfg = CgConfig {
            max_iters: 40,
            min_iters: 1,
            epsilon: 1e-9,
            store_gamma: 1.3,
        };
        let (cold, cold_q, cold_products) = counted_solve(&a, &g, None, cfg);
        let zeros = vec![0.0f32; n];
        let (warm, warm_q, warm_products) = counted_solve(&a, &g, Some(&zeros), cfg);
        // One product per iteration; the explicit zero start pays one
        // more for its first residual.
        assert!(cold.iters > 1);
        assert_eq!(cold_products, cold.iters);
        assert_eq!(warm_products, cold_products + 1);
        let bits = |r: &CgResult| -> Vec<(usize, u64, Vec<u32>)> {
            r.iterates
                .iter()
                .map(|it| {
                    (
                        it.iter,
                        it.q.to_bits(),
                        it.d.iter().map(|x| x.to_bits()).collect(),
                    )
                })
                .collect()
        };
        assert_eq!(bits(&cold), bits(&warm));
        assert_eq!(cold.stop, warm.stop);
        let q_bits = |q: &[f64]| q.iter().map(|q| q.to_bits()).collect::<Vec<_>>();
        assert_eq!(q_bits(&cold_q), q_bits(&warm_q));
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
