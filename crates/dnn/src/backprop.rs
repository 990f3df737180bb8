//! Error backpropagation: exact gradients of the frame losses.
//!
//! Every heavy operation is a GEMM (`delta^T a` for weight gradients,
//! `delta W` for error propagation), which is what makes DNN training
//! SGEMM-bound — the premise of the paper's Section V.A tuning work.

use crate::loss::{cross_entropy, squared_error, FrameLoss};
use crate::network::{ForwardCache, Network};
use crate::packed::PackedWeights;
use pdnn_tensor::gemm::{GemmContext, GemmOp, Trans};
use pdnn_tensor::{Matrix, Scalar, Workspace};

/// Backpropagate `dlogits` through the network, returning the flat
/// gradient (same layout as [`Network::to_flat`]).
///
/// `cache` must come from a forward pass of `net` on the same batch.
pub fn backprop<T: Scalar>(
    net: &Network<T>,
    ctx: &GemmContext,
    cache: &ForwardCache<T>,
    dlogits: &Matrix<T>,
) -> Vec<T> {
    let mut grad = vec![T::ZERO; net.num_params()];
    backprop_ws(
        net,
        ctx,
        cache,
        dlogits,
        None,
        &mut Workspace::new(),
        &mut grad,
        false,
    );
    grad
}

/// [`backprop`] into a running gradient, with arena-recycled scratch
/// and optionally prepacked weights — the training hot path.
///
/// With `accumulate` false the batch's gradient overwrites `grad`;
/// with it true the batch is added on: each `dW = δᵀ·a` merges into
/// the sum so far with `β = 1`, which is the merge the GEMM applies to
/// its own next k-block of frames, and the bias sums continue row by
/// row. So a batch cut into blocks of `ctx.blocking().kc` frames and
/// backpropagated block after block sums bitwise to the whole batch's
/// gradient.
///
/// Every intermediate (the delta buffer, per-layer `dW`) comes from
/// `ws`. Bitwise identical to the unpacked path: the packed-operand
/// [`GemmOp`] forms replay the exact blocked GEMM.
///
/// # Panics
/// If `packs` was built from a different weight version, on shape
/// mismatch between `cache`, `dlogits`, and `net`, or if `grad` is not
/// `net.num_params()` long.
#[allow(clippy::too_many_arguments)]
pub fn backprop_ws<T: Scalar>(
    net: &Network<T>,
    ctx: &GemmContext,
    cache: &ForwardCache<T>,
    dlogits: &Matrix<T>,
    packs: Option<&PackedWeights<T>>,
    ws: &mut Workspace<T>,
    grad: &mut [T],
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
    assert_eq!(grad.len(), net.num_params(), "gradient length mismatch");
    if let Some(p) = packs {
        assert!(
            p.matches(net),
            "backprop_ws: stale PackedWeights (pack v{} != net v{})",
            p.version(),
            net.version()
        );
    }
    let beta = if accumulate { T::ONE } else { T::ZERO };

    // Seed the delta buffer from the arena instead of cloning dlogits.
    let mut delta = ws.take_matrix_scratch(dlogits.rows(), dlogits.cols());
    delta.as_mut_slice().copy_from_slice(dlogits.as_slice());
    let mut end = grad.len();
    for l in (0..layers.len()).rev() {
        let layer = &layers[l];
        let a_prev = &cache.acts[l];
        let frames = delta.rows();
        debug_assert_eq!(a_prev.rows(), frames);
        let (dw_sum, db_sum) = grad[end - layer.num_params()..end].split_at_mut(layer.w.len());
        end -= layer.num_params();

        // dW = delta^T * a_prev  (out x in)
        let mut dw = ws.take_matrix_scratch(layer.outputs(), layer.inputs());
        if accumulate {
            dw.as_mut_slice().copy_from_slice(dw_sum);
        }
        GemmOp::ab(&delta, Trans::T, a_prev, Trans::N)
            .beta(beta)
            .run(ctx, &mut dw);
        dw_sum.copy_from_slice(dw.as_slice());
        ws.give_matrix(dw);
        if !accumulate {
            db_sum.fill(T::ZERO);
        }
        delta.column_sums_into(db_sum);

        if l > 0 {
            // delta_prev = (delta * W) ∘ f'(a_prev)
            let mut dprev = ws.take_matrix_scratch(frames, layer.inputs());
            match packs {
                Some(p) => GemmOp::packed_b(&delta, Trans::N, p.backward(l)).run(ctx, &mut dprev),
                None => GemmOp::ab(&delta, Trans::N, &layer.w, Trans::N).run(ctx, &mut dprev),
            }
            layers[l - 1].act.mask_derivative(&mut dprev, a_prev);
            ws.give_matrix(delta);
            delta = dprev;
        }
    }
    ws.give_matrix(delta);
}

/// Evaluate `loss_kind` on a batch and return `(summed loss, flat
/// gradient, correct frames)`.
///
/// For [`FrameLoss::CrossEntropy`] `labels` indexes classes per frame;
/// for [`FrameLoss::SquaredError`] `targets` must be the dense target
/// matrix (and `labels` is ignored).
pub fn loss_and_gradient<T: Scalar>(
    net: &Network<T>,
    ctx: &GemmContext,
    x: &Matrix<T>,
    labels: &[u32],
    targets: Option<&Matrix<T>>,
    loss_kind: FrameLoss,
) -> (f64, Vec<T>, usize) {
    let cache = net.forward(ctx, x);
    let out = match loss_kind {
        FrameLoss::CrossEntropy => cross_entropy(cache.logits(), labels),
        FrameLoss::SquaredError => {
            // pdnn-lint: allow(l3-no-unwrap): API contract — the SquaredError loss is only reachable with targets supplied
            let t = targets.expect("SquaredError needs a target matrix");
            squared_error(cache.logits(), t)
        }
    };
    let grad = backprop(net, ctx, &cache, &out.dlogits);
    (out.loss, grad, out.correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::gradcheck;
    use pdnn_util::Prng;

    fn setup(
        dims: &[usize],
        act: Activation,
        frames: usize,
        seed: u64,
    ) -> (Network<f64>, Matrix<f64>, Vec<u32>) {
        let mut rng = Prng::new(seed);
        let net = Network::new(dims, act, &mut rng);
        let x = Matrix::random_normal(frames, dims[0], 1.0, &mut rng);
        let labels: Vec<u32> = (0..frames)
            .map(|_| rng.below(*dims.last().unwrap() as u64) as u32)
            .collect();
        (net, x, labels)
    }

    fn check_ce_gradient(dims: &[usize], act: Activation, frames: usize, seed: u64) {
        let ctx = GemmContext::sequential();
        let (net, x, labels) = setup(dims, act, frames, seed);
        let (_, grad, _) =
            loss_and_gradient(&net, &ctx, &x, &labels, None, FrameLoss::CrossEntropy);

        let theta0 = net.to_flat();
        let f = |theta: &[f64]| {
            let mut n = net.clone();
            n.set_flat(theta);
            let logits = n.logits(&ctx, &x);
            crate::loss::cross_entropy_loss_only(&logits, &labels, 0.0).0
        };
        let err = gradcheck::max_rel_error(&grad, &gradcheck::fd_gradient(f, &theta0, 1e-5));
        assert!(err < 1e-5, "{dims:?} {act:?}: rel err {err}");
    }

    #[test]
    fn ce_gradient_matches_fd_sigmoid() {
        check_ce_gradient(&[5, 7, 4], Activation::Sigmoid, 6, 1);
    }

    #[test]
    fn ce_gradient_matches_fd_tanh_deep() {
        check_ce_gradient(&[4, 6, 5, 3], Activation::Tanh, 5, 2);
    }

    #[test]
    fn ce_gradient_matches_fd_relu() {
        // ReLU is piecewise linear; FD is exact away from kinks and
        // the random net rarely sits on one.
        check_ce_gradient(&[3, 8, 3], Activation::ReLU, 4, 3);
    }

    #[test]
    fn ce_gradient_matches_fd_single_layer() {
        check_ce_gradient(&[6, 4], Activation::Sigmoid, 8, 4);
    }

    #[test]
    fn mse_gradient_matches_fd() {
        let ctx = GemmContext::sequential();
        let mut rng = Prng::new(9);
        let net: Network<f64> = Network::new(&[4, 5, 2], Activation::Tanh, &mut rng);
        let x = Matrix::random_normal(7, 4, 1.0, &mut rng);
        let targets = Matrix::random_normal(7, 2, 1.0, &mut rng);
        let (_, grad, _) =
            loss_and_gradient(&net, &ctx, &x, &[], Some(&targets), FrameLoss::SquaredError);
        let theta0 = net.to_flat();
        let f = |theta: &[f64]| {
            let mut n = net.clone();
            n.set_flat(theta);
            let logits = n.logits(&ctx, &x);
            crate::loss::squared_error(&logits, &targets).loss
        };
        let err = gradcheck::max_rel_error(&grad, &gradcheck::fd_gradient(f, &theta0, 1e-5));
        assert!(err < 1e-6, "rel err {err}");
    }

    #[test]
    fn gradient_is_additive_over_frames() {
        // grad(batch) == grad(frame0) + grad(frame1): the property
        // data-parallel reduction relies on.
        let ctx = GemmContext::sequential();
        let (net, x, labels) = setup(&[3, 4, 2], Activation::Sigmoid, 2, 7);
        let (_, g_all, _) =
            loss_and_gradient(&net, &ctx, &x, &labels, None, FrameLoss::CrossEntropy);
        let x0 = x.rows_copy(0, 1);
        let x1 = x.rows_copy(1, 2);
        let (_, g0, _) =
            loss_and_gradient(&net, &ctx, &x0, &labels[..1], None, FrameLoss::CrossEntropy);
        let (_, g1, _) =
            loss_and_gradient(&net, &ctx, &x1, &labels[1..], None, FrameLoss::CrossEntropy);
        for i in 0..g_all.len() {
            assert!((g_all[i] - (g0[i] + g1[i])).abs() < 1e-10);
        }
    }

    #[test]
    fn packed_arena_path_bitwise_equals_plain() {
        let ctx = GemmContext::sequential();
        let mut rng = Prng::new(40);
        let net: Network<f32> = Network::new(&[5, 8, 6, 3], Activation::Tanh, &mut rng);
        let packs = crate::packed::PackedWeights::new(&net, &ctx);
        let mut ws = pdnn_tensor::Workspace::new();
        for seed in 70..73 {
            let mut r2 = Prng::new(seed);
            let x: Matrix<f32> = Matrix::random_normal(11, 5, 1.0, &mut r2);
            let dl: Matrix<f32> = Matrix::random_normal(11, 3, 1.0, &mut r2);
            let plain_cache = net.forward(&ctx, &x);
            let plain = backprop(&net, &ctx, &plain_cache, &dl);
            let cache = net.forward_ws(&ctx, &x, Some(&packs), &mut ws);
            // Stale values in the gradient are overwritten.
            let mut fast = vec![f32::NAN; net.num_params()];
            backprop_ws(
                &net,
                &ctx,
                &cache,
                &dl,
                Some(&packs),
                &mut ws,
                &mut fast,
                false,
            );
            assert_eq!(
                plain_cache.acts, cache.acts,
                "forward_ws diverged, seed {seed}"
            );
            assert_eq!(plain, fast, "backprop_ws diverged, seed {seed}");
            cache.give_back(&mut ws);
        }
        assert!(ws.stats().reuses > 0, "arena never recycled");
    }

    /// A batch backpropagated in blocks of `kc` frames, the first
    /// overwriting the gradient and the rest accumulating onto it, sums
    /// bitwise to the whole batch's gradient, ragged last block
    /// included.
    #[test]
    fn kc_blocks_accumulate_bitwise_to_the_whole_batch() {
        use pdnn_tensor::gemm::Blocking;
        let mut rng = Prng::new(42);
        let net: Network<f32> = Network::new(&[5, 9, 6, 4], Activation::Sigmoid, &mut rng);
        for kc in [7usize, 64] {
            let ctx = GemmContext::sequential().with_blocking(Blocking {
                kc,
                ..Blocking::default()
            });
            let frames = 3 * kc + 5;
            let x: Matrix<f32> = Matrix::random_normal(frames, 5, 1.0, &mut rng);
            let dl: Matrix<f32> = Matrix::random_normal(frames, 4, 1.0, &mut rng);
            let want = backprop(&net, &ctx, &net.forward(&ctx, &x), &dl);
            let mut ws = Workspace::new();
            let mut got = vec![f32::NAN; net.num_params()];
            for (i, r0) in (0..frames).step_by(kc).enumerate() {
                let r1 = frames.min(r0 + kc);
                let cache = net.forward_ws(&ctx, &x.rows_copy(r0, r1), None, &mut ws);
                let d = dl.rows_copy(r0, r1);
                backprop_ws(&net, &ctx, &cache, &d, None, &mut ws, &mut got, i > 0);
                cache.give_back(&mut ws);
            }
            assert_eq!(got, want, "kc={kc}");
        }
    }

    #[test]
    fn logits_ws_bitwise_equals_logits() {
        let ctx = GemmContext::sequential();
        let mut rng = Prng::new(41);
        let net: Network<f32> = Network::new(&[4, 7, 3], Activation::Sigmoid, &mut rng);
        let packs = crate::packed::PackedWeights::new(&net, &ctx);
        let mut ws = pdnn_tensor::Workspace::new();
        let x: Matrix<f32> = Matrix::random_normal(9, 4, 1.0, &mut rng);
        let plain = net.logits(&ctx, &x);
        let fast = net.logits_ws(&ctx, &x, Some(&packs), &mut ws);
        assert_eq!(plain, fast);
        ws.give_matrix(fast);
    }

    #[test]
    fn zero_dlogits_gives_zero_gradient() {
        let ctx = GemmContext::sequential();
        let (net, x, _) = setup(&[3, 4, 2], Activation::Sigmoid, 5, 8);
        let cache = net.forward(&ctx, &x);
        let dlogits = Matrix::zeros(5, 2);
        let grad = backprop(&net, &ctx, &cache, &dlogits);
        assert!(grad.iter().all(|&g| g == 0.0));
    }

    #[test]
    #[should_panic(expected = "dlogits shape mismatch")]
    fn backprop_checks_shapes() {
        let ctx = GemmContext::sequential();
        let (net, x, _) = setup(&[3, 4, 2], Activation::Sigmoid, 5, 8);
        let cache = net.forward(&ctx, &x);
        let bad = Matrix::zeros(4, 2);
        backprop(&net, &ctx, &cache, &bad);
    }
}
