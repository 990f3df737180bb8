//! CG's invariants as properties (ROADMAP item 7(c)), over the
//! Gauss–Newton operators of random small networks: cross-entropy
//! (softmax) and MMI (denominator posterior) curvatures, with and
//! without the empirical-Fisher preconditioner, from the cold start and
//! from a warm `d0`. For every solve:
//!
//! * the stored iterates' quadratic values `q` never increase. CG on a
//!   positive definite system decreases `q` at every step in exact
//!   arithmetic; the solver runs its vectors in `f32` and sums `q` in
//!   `f64`, so a step may read up to `Q_TOL` of `|q|` (about 800 `f32`
//!   ulps) higher, and no more;
//! * their `iter` values strictly increase;
//! * the last stored iterate is the final one (`iter == iters`), as
//!   the backtracking pass that walks the series assumes.

use pdnn_core::{CgConfig, CgOperator, CgSolver};
use pdnn_dnn::backprop::loss_and_gradient;
use pdnn_dnn::fisher::empirical_fisher_diagonal;
use pdnn_dnn::gauss_newton::{gn_product, Curvature};
use pdnn_dnn::loss::{cross_entropy, softmax_rows};
use pdnn_dnn::network::ForwardCache;
use pdnn_dnn::sequence::{mmi_batch, DenominatorGraph};
use pdnn_dnn::{Activation, FrameLoss, Network};
use pdnn_obs::NullRecorder;
use pdnn_tensor::gemm::GemmContext;
use pdnn_tensor::Matrix;
use pdnn_util::Prng;
use proptest::prelude::*;

/// Relative rise of `q` from one stored iterate to the next that `f32`
/// rounding may account for.
const Q_TOL: f64 = 1e-4;

/// The Gauss–Newton product of one batch, as a CG operator with fresh
/// leases.
struct GaussNewton<'a> {
    net: &'a Network<f32>,
    ctx: &'a GemmContext,
    cache: &'a ForwardCache<f32>,
    dist: &'a Matrix<f32>,
}

impl CgOperator for GaussNewton<'_> {
    fn product(&mut self, v: &[f32]) -> Vec<f32> {
        gn_product(
            self.net,
            self.ctx,
            self.cache,
            Curvature::Fisher(self.dist),
            v,
        )
    }
    fn lease(&mut self, len: usize) -> Vec<f32> {
        vec![0.0; len]
    }
    fn give_back(&mut self, _buf: Vec<f32>) {}
}

/// A chain over `states` with self-loop mass `0.7`, the rest spread.
fn denominator(states: usize) -> DenominatorGraph {
    let other = 0.3 / states as f64;
    let trans: Vec<f64> = (0..states * states)
        .map(|ij| {
            if ij / states == ij % states {
                0.7 + other
            } else {
                other
            }
        })
        .collect();
    DenominatorGraph::new(&vec![1.0 / states as f64; states], &trans)
}

fn dims_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        Just(vec![3usize, 4]),
        Just(vec![4usize, 6, 3]),
        Just(vec![5usize, 7, 6, 4]),
    ]
}

fn flag() -> impl Strategy<Value = bool> {
    prop_oneof![Just(false), Just(true)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stored_iterates_descend_and_end_with_the_final(
        dims in dims_strategy(),
        frames in 2usize..40,
        mmi in flag(),
        precondition in flag(),
        warm in flag(),
        lambda in 1e-3f64..1.0,
        seed in 0u64..10_000,
    ) {
        let ctx = GemmContext::sequential();
        let mut rng = Prng::new(seed);
        let net: Network<f32> = Network::new(&dims, Activation::Sigmoid, &mut rng);
        let x: Matrix<f32> = Matrix::random_normal(frames, dims[0], 1.0, &mut rng);
        let states = *dims.last().unwrap();
        let labels: Vec<u32> = (0..frames).map(|_| rng.below(states as u64) as u32).collect();
        let cache = net.forward(&ctx, &x);
        let dist = if mmi {
            let lens = vec![frames / 2, frames - frames / 2];
            mmi_batch(cache.logits(), &labels, &lens, &denominator(states)).den_posteriors
        } else {
            softmax_rows(cache.logits())
        };
        let (_, g, _) = loss_and_gradient(&net, &ctx, &x, &labels, None, FrameLoss::CrossEntropy);
        let n = net.num_params();
        let d0: Option<Vec<f32>> = warm.then(|| (0..n).map(|_| 0.1 * rng.normal() as f32).collect());
        // Martens' preconditioner: (diag F + λ)^0.75, strictly positive.
        let precond: Option<Vec<f32>> = precondition.then(|| {
            let dlogits = cross_entropy(cache.logits(), &labels).dlogits;
            empirical_fisher_diagonal(&net, &ctx, &cache, &dlogits)
                .iter()
                .map(|&f| (f as f64 + lambda).powf(0.75) as f32)
                .collect()
        });
        let config = CgConfig { max_iters: 60, ..CgConfig::default() };
        let mut op = GaussNewton { net: &net, ctx: &ctx, cache: &cache, dist: &dist };
        let result = CgSolver::new(config).solve(
            &g,
            d0.as_deref(),
            &mut op,
            lambda,
            precond.as_deref(),
            &NullRecorder,
        );
        let its = &result.iterates;
        prop_assert!(!its.is_empty());
        prop_assert_eq!(its.last().unwrap().iter, result.iters, "the final iterate is stored last");
        for pair in its.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            prop_assert!(a.iter < b.iter, "iterates {} then {}", a.iter, b.iter);
            prop_assert!(
                b.q <= a.q + Q_TOL * a.q.abs(),
                "q rose from {} (iter {}) to {} (iter {}), stop {:?}",
                a.q, a.iter, b.q, b.iter, result.stop
            );
        }
    }
}
