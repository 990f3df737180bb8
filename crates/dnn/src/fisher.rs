//! Empirical-Fisher diagonal estimation (squared backprop).
//!
//! Martens' Hessian-free preconditioner is
//! `M = (diag(Σ_f ∇L_f ∘ ∇L_f) + λ)^ξ` — the per-parameter sum of
//! squared per-frame gradients. Computing it naively costs one
//! backprop per frame; the standard trick propagates *squared*
//! sensitivities through *squared* weights instead:
//!
//! ```text
//! Δ²_L     = (∂L/∂z_L)²          (elementwise)
//! D[W_l]   = Δ²_l ᵀ (a_{l-1}²)
//! D[b_l]   = Σ_frames Δ²_l
//! Δ²_{l-1} = (Δ²_l W_l²) ∘ f'(a_{l-1})²
//! ```
//!
//! The weight-gradient step is *exact* per layer (a per-frame weight
//! gradient is rank-1, so its square factorizes); the propagation
//! step drops cross terms and is the usual Gauss–Newton-diagonal
//! approximation. The paper's implementation "currently does not use
//! a preconditioner" — this module is that future-work item, consumed
//! by `pdnn-core`'s optimizer (see its `preconditioner` config).

use crate::network::{ForwardCache, Network};
use pdnn_tensor::gemm::{GemmContext, GemmOp, Trans};
use pdnn_tensor::{MatMut, Matrix, Scalar};

/// Estimate `diag(Σ_frames ∇L_f ∘ ∇L_f)` over the batch in `cache`.
///
/// `dlogits` is the per-frame loss gradient at the logits (as
/// returned by the loss functions); layout of the result matches
/// [`Network::to_flat`].
pub fn empirical_fisher_diagonal<T: Scalar>(
    net: &Network<T>,
    ctx: &GemmContext,
    cache: &ForwardCache<T>,
    dlogits: &Matrix<T>,
) -> Vec<T> {
    let mut out = vec![T::ZERO; net.num_params()];
    empirical_fisher_diagonal_into(net, ctx, cache, dlogits, &mut out, false);
    out
}

/// [`empirical_fisher_diagonal`] into `out`: overwriting it, or with
/// `accumulate` adding the batch on as `backprop_ws` adds a gradient
/// (each `D[W]` merged with `β = 1`, the `D[b]` sums continued), so a
/// batch taken in blocks of `ctx.blocking().kc` frames, block after
/// block, sums bitwise to the whole batch's diagonal.
///
/// [`backprop_ws`]: crate::backprop::backprop_ws
///
/// # Panics
/// On shape mismatch between `cache`, `dlogits`, `net` and `out`.
pub fn empirical_fisher_diagonal_into<T: Scalar>(
    net: &Network<T>,
    ctx: &GemmContext,
    cache: &ForwardCache<T>,
    dlogits: &Matrix<T>,
    out: &mut [T],
    accumulate: bool,
) {
    let layers = net.layers();
    assert_eq!(
        cache.acts.len(),
        layers.len() + 1,
        "cache does not match network depth"
    );
    assert_eq!(
        dlogits.shape(),
        cache.logits().shape(),
        "dlogits shape mismatch"
    );
    assert_eq!(out.len(), net.num_params(), "diagonal length mismatch");
    let beta = if accumulate { T::ONE } else { T::ZERO };

    // Δ² at the output.
    let mut delta2 = dlogits.map(|v| v * v);
    let mut end = out.len();
    for l in (0..layers.len()).rev() {
        let layer = &layers[l];
        let a_prev = &cache.acts[l];
        let a2 = a_prev.map(|v| v * v);
        let (dw, db) = out[end - layer.num_params()..end].split_at_mut(layer.w.len());
        end -= layer.num_params();

        GemmOp::ab(&delta2, Trans::T, &a2, Trans::N)
            .beta(beta)
            .run(ctx, MatMut::new(layer.outputs(), layer.inputs(), dw));
        if !accumulate {
            db.fill(T::ZERO);
        }
        delta2.column_sums_into(db);

        if l > 0 {
            let w2 = layer.w.map(|v| v * v);
            let mut dprev = Matrix::zeros(delta2.rows(), layer.inputs());
            GemmOp::ab(&delta2, Trans::N, &w2, Trans::N).run(ctx, &mut dprev);
            // ∘ f'(a_prev)²
            for (dv, &av) in dprev
                .as_mut_slice()
                .iter_mut()
                .zip(a_prev.as_slice().iter())
            {
                let fp = layers[l - 1].act.derivative_from_output(av);
                *dv *= fp * fp;
            }
            delta2 = dprev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::loss::cross_entropy;
    use pdnn_util::Prng;

    /// Brute force: one backprop per frame, square, and sum.
    fn brute_force(
        net: &Network<f64>,
        ctx: &GemmContext,
        x: &Matrix<f64>,
        labels: &[u32],
    ) -> Vec<f64> {
        let mut acc = vec![0.0f64; net.num_params()];
        for f in 0..x.rows() {
            let xf = x.rows_copy(f, f + 1);
            let cache = net.forward(ctx, &xf);
            let out = cross_entropy(cache.logits(), &labels[f..f + 1]);
            let g = crate::backprop::backprop(net, ctx, &cache, &out.dlogits);
            for (a, gi) in acc.iter_mut().zip(g.iter()) {
                *a += gi * gi;
            }
        }
        acc
    }

    #[test]
    fn exact_for_single_layer_networks() {
        let ctx = GemmContext::sequential();
        let mut rng = Prng::new(1);
        let net: Network<f64> = Network::new(&[5, 3], Activation::Sigmoid, &mut rng);
        let x = Matrix::random_normal(7, 5, 1.0, &mut rng);
        let labels: Vec<u32> = (0..7).map(|_| rng.below(3) as u32).collect();

        let cache = net.forward(&ctx, &x);
        let out = cross_entropy(cache.logits(), &labels);
        let fast = empirical_fisher_diagonal(&net, &ctx, &cache, &out.dlogits);
        let slow = brute_force(&net, &ctx, &x, &labels);
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert!((a - b).abs() < 1e-10 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn multi_layer_estimate_is_positive_and_correlated() {
        let ctx = GemmContext::sequential();
        let mut rng = Prng::new(2);
        let net: Network<f64> = Network::new(&[4, 6, 3], Activation::Tanh, &mut rng);
        let x = Matrix::random_normal(12, 4, 1.0, &mut rng);
        let labels: Vec<u32> = (0..12).map(|_| rng.below(3) as u32).collect();

        let cache = net.forward(&ctx, &x);
        let out = cross_entropy(cache.logits(), &labels);
        let approx = empirical_fisher_diagonal(&net, &ctx, &cache, &out.dlogits);
        let exact = brute_force(&net, &ctx, &x, &labels);

        assert!(approx.iter().all(|&v| v >= 0.0 && v.is_finite()));
        // Cross terms are dropped below the top layer, so require
        // positive correlation rather than equality.
        let n = approx.len() as f64;
        let ma = approx.iter().sum::<f64>() / n;
        let me = exact.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut ve = 0.0;
        for (a, e) in approx.iter().zip(exact.iter()) {
            cov += (a - ma) * (e - me);
            va += (a - ma) * (a - ma);
            ve += (e - me) * (e - me);
        }
        let corr = cov / (va.sqrt() * ve.sqrt()).max(1e-30);
        assert!(corr > 0.7, "correlation only {corr}");
        // Top layer (stored first? layer order: layer 0 first) — the
        // LAST layer's block is exact; check it.
        let last_base: usize = net
            .layers()
            .iter()
            .take(net.layers().len() - 1)
            .map(|l| l.num_params())
            .sum();
        for i in last_base..approx.len() {
            assert!(
                (approx[i] - exact[i]).abs() < 1e-10 * (1.0 + exact[i].abs()),
                "top layer entry {i} not exact"
            );
        }
    }

    #[test]
    fn zero_gradient_gives_zero_diagonal() {
        let ctx = GemmContext::sequential();
        let mut rng = Prng::new(3);
        let net: Network<f32> = Network::new(&[3, 4, 2], Activation::Sigmoid, &mut rng);
        let x = Matrix::random_normal(5, 3, 1.0, &mut rng);
        let cache = net.forward(&ctx, &x);
        let dlogits = Matrix::zeros(5, 2);
        let d = empirical_fisher_diagonal(&net, &ctx, &cache, &dlogits);
        assert!(d.iter().all(|&v| v == 0.0));
    }
}
