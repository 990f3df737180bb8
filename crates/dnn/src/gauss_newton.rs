//! Gauss–Newton matrix–vector products via the Pearlmutter R-operator.
//!
//! Hessian-free optimization never forms the curvature matrix; CG only
//! needs products `G(θ) v` [Martens 2010, Schraudolph 2002]. The
//! Gauss–Newton matrix is `G = J^T H_L J` where `J` is the Jacobian of
//! the logits with respect to θ and `H_L` the (PSD) Hessian of the
//! loss with respect to the logits. The product is computed in three
//! sweeps, each a batch of GEMMs:
//!
//! 1. **R-forward**: propagate the directional derivative
//!    `Rz_l = R{a_{l-1}} W_l^T + a_{l-1} RW_l^T + Rb_l`,
//!    `Ra_l = f'(z_l) ∘ Rz_l`, with `Ra_0 = 0`. This yields `J v` at
//!    the logits.
//! 2. **Loss Hessian**: `u = H_L (J v)`. For softmax-based losses
//!    `H_L` per frame is `diag(q) - q q^T` with `q` the model
//!    distribution (softmax for CE; denominator posteriors for the
//!    sequence criterion — see `crate::sequence`). For squared error
//!    `H_L = I`.
//! 3. **Linearized backward**: ordinary backprop of `u`, *without* the
//!    second-order activation terms — dropping them is exactly what
//!    makes the result the Gauss–Newton product instead of the
//!    (indefinite) Hessian product.
//!
//! **Streamed over the sample.** The product runs on the curvature
//! sample as [`PackedActivations`] hold it: chunks of `kc` frames (one
//! GEMM k-block each), packed once per CG solve, with no raw
//! activations beside them. [`gn_product_packed`] takes the three
//! sweeps chunk by chunk; the masks `f'(z)` are read out of the right
//! packs, and each chunk's `dW = δᵀ·a` is written (first chunk, `β = 0`)
//! or merged (`β = 1`) straight into the layer's region of the product
//! vector, with no `dW` scratch and no copy. Because the whole-sample
//! GEMM cuts the frames on the same `kc` grid and merges its later
//! k-blocks the same way, and every other step is row-independent or a
//! running sum in frame order, the product is bitwise the whole
//! sample's, while a rank's scratch is a few chunk-sized matrices
//! whatever the sample size.

use crate::network::{ForwardCache, Network};
use crate::packed::{ChunkPacks, PackedActivations, PackedWeights};
use pdnn_tensor::gemm::{GemmContext, GemmOp, PackedB, Trans, MR as GEMM_MR};
use pdnn_tensor::{MatMut, Matrix, Scalar, Workspace};

/// Which loss-Hessian `H_L` closes the Gauss–Newton sandwich.
#[derive(Clone, Copy, Debug)]
pub enum Curvature<'a, T: Scalar> {
    /// `H_L = diag(q) - q q^T` per frame, rows of the given matrix.
    ///
    /// Pass the softmax of the logits for cross-entropy, or the
    /// denominator occupancies for the MMI sequence criterion.
    Fisher(&'a Matrix<T>),
    /// `H_L = I` (squared-error loss).
    Identity,
}

/// Compute `G(θ) v` for a flat direction `v` over the batch that
/// produced `cache`.
///
/// Returns the flat product vector (summed over frames, matching the
/// summed-loss convention of `backprop`).
pub fn gn_product<T: Scalar>(
    net: &Network<T>,
    ctx: &GemmContext,
    cache: &ForwardCache<T>,
    curvature: Curvature<'_, T>,
    v: &[T],
) -> Vec<T> {
    gn_product_ws(
        net,
        ctx,
        cache,
        curvature,
        v,
        None,
        None,
        &mut Workspace::new(),
    )
}

/// [`gn_product`] with arena-recycled scratch and optionally prepacked
/// operands — the CG hot path.
///
/// Within one CG solve the weights and the curvature sample are both
/// fixed, so `packs` (weights) and `acts` (the batch's activations,
/// packed from `cache`) can be built once and replayed across every
/// iteration; without `acts` the cache is packed for this call. The
/// product is [`gn_product_packed`] over the packed batch. All scratch
/// comes from `ws`; give the returned vector back after use for an
/// allocation-free steady state. Packed and unpacked weights give
/// bitwise the same product (the prepacked drivers replay the exact
/// blocked GEMMs).
///
/// # Panics
/// If `packs` was built from a different weight version, or if `cache`
/// or `acts` does not match `net` or each other.
#[allow(clippy::too_many_arguments)] // hot-path variant: operand caches are separate by design
pub fn gn_product_ws<T: Scalar>(
    net: &Network<T>,
    ctx: &GemmContext,
    cache: &ForwardCache<T>,
    curvature: Curvature<'_, T>,
    v: &[T],
    packs: Option<&PackedWeights<T>>,
    acts: Option<&PackedActivations<T>>,
    ws: &mut Workspace<T>,
) -> Vec<T> {
    assert_eq!(
        cache.acts.len(),
        net.layers().len() + 1,
        "cache does not match network depth"
    );
    match acts {
        Some(pa) => {
            assert_eq!(
                pa.frames(),
                cache.acts[0].rows(),
                "gn_product_ws: PackedActivations hold another batch"
            );
            gn_product_packed(net, ctx, pa, curvature, v, packs, ws)
        }
        None => {
            let pa = PackedActivations::new(cache, ctx);
            gn_product_packed(net, ctx, &pa, curvature, v, packs, ws)
        }
    }
}

/// `G(θ) v` summed over the batch held in `sample`, streamed chunk by
/// chunk: each chunk of `kc` frames runs the R-forward, `H_L` and the
/// linearized backward, and merges its `dW = δᵀ·a` straight into the
/// layer's region of the returned vector.
///
/// The sums are bitwise those of the whole batch at once. The
/// R-forward, the masks `f'(z)`, `H_L` and `δ·W` are row-independent;
/// the whole-batch `δᵀ·a` cuts its frames on the same `kc` grid and
/// merges each later k-block with `β = 1`, which is how each later
/// chunk merges into the sum; the bias sums continue one running sum in
/// frame order. So scratch is a few chunk-sized matrices, whatever the
/// batch size, and the masks are read out of the right packs: the
/// sample's raw activations need not be held.
///
/// `curvature`'s `Fisher` rows are the whole batch's, frame by frame.
/// The returned vector is an arena take; give it back after use.
///
/// # Panics
/// If `packs` was built from a different weight version, or `sample`
/// or the Fisher rows do not match `net`'s shape.
pub fn gn_product_packed<T: Scalar>(
    net: &Network<T>,
    ctx: &GemmContext,
    sample: &PackedActivations<T>,
    curvature: Curvature<'_, T>,
    v: &[T],
    packs: Option<&PackedWeights<T>>,
    ws: &mut Workspace<T>,
) -> Vec<T> {
    if let Some(p) = packs {
        assert!(
            p.matches(net),
            "gn_product_ws: stale PackedWeights (pack v{} != net v{})",
            p.version(),
            net.version()
        );
    }
    if let Curvature::Fisher(q) = curvature {
        assert_eq!(
            q.shape(),
            (sample.frames(), net.output_dim()),
            "Fisher distribution shape mismatch"
        );
    }
    let parts = net.split_flat(v);
    if sample.chunks().is_empty() {
        return ws.take_vec(net.num_params());
    }
    // Scratch take: the first chunk writes every region (weights with
    // β = 0, biases zeroed, then summed into).
    let mut out = ws.take_vec_scratch(net.num_params());
    let mut r0 = 0;
    for (c, chunk) in sample.chunks().iter().enumerate() {
        assert_eq!(
            chunk.layers(),
            net.layers().len(),
            "gn_product_ws: PackedActivations depth mismatch"
        );
        let mut u = r_forward(net, ctx, chunk, &parts, packs, ws);
        if let Curvature::Fisher(q) = curvature {
            fisher_hessian(q, r0, &mut u);
        }
        linearized_backward(net, ctx, chunk, u, packs, ws, &mut out, c > 0);
        r0 += chunk.rows();
    }
    out
}

/// Sweep 1 over one chunk: `J v` at the logits, an arena take.
fn r_forward<T: Scalar>(
    net: &Network<T>,
    ctx: &GemmContext,
    chunk: &ChunkPacks<T>,
    parts: &[(&[T], &[T])],
    packs: Option<&PackedWeights<T>>,
    ws: &mut Workspace<T>,
) -> Matrix<T> {
    let layers = net.layers();
    let frames = chunk.rows();
    // r = R{a_l}; zero for the input (inputs don't depend on θ), so
    // the layer-0 `r * W^T` term is skipped and the Vw product writes
    // rz directly (beta = 0 overwrite instead of accumulate).
    let mut r: Option<Matrix<T>> = None;
    for (l, layer) in layers.iter().enumerate() {
        let (vw_flat, vb) = parts[l];
        // Rz = r * W^T + a_prev * Vw^T + Vb
        let mut rz = ws.take_matrix_scratch(frames, layer.outputs());
        let beta_vw = match &r {
            Some(r_in) => {
                match packs {
                    Some(p) => GemmOp::packed_b(r_in, Trans::N, p.forward(l)).run(ctx, &mut rz),
                    None => GemmOp::ab(r_in, Trans::N, &layer.w, Trans::T).run(ctx, &mut rz),
                }
                T::ONE
            }
            None => T::ZERO,
        };
        let left = chunk.left(l);
        if frames <= 2 * GEMM_MR {
            // Few frame rows (the strong-scaling per-rank sample
            // regime): stream Vw's flat region straight out of the
            // direction vector — op(Vw^T) columns are Vw rows, already
            // stride-one — and skip the pack's extra write + reread of
            // a Vw-sized buffer entirely.
            GemmOp::packed_a_bt(left, vw_flat)
                .beta(beta_vw)
                .run(ctx, &mut rz);
        } else {
            // Tall frame blocks amortize the register-blocked packed
            // kernel better: pack Vw straight from its flat region
            // (arena scratch; no Vw matrix is ever materialized) and
            // multiply with both operands prepacked.
            let pvw = PackedB::new_in_from_rows(
                layer.outputs(),
                layer.inputs(),
                vw_flat,
                Trans::T,
                left.blocking(),
                ws,
            );
            GemmOp::packed_ab(left, &pvw)
                .beta(beta_vw)
                .run(ctx, &mut rz);
            pvw.give_back(ws);
        }
        rz.add_row_broadcast(vb);
        if let Some(r_old) = r.take() {
            ws.give_matrix(r_old);
        }
        // Ra = f'(z) ∘ Rz, with f' read from the packed activation; the
        // output layer is Identity: R{a_L} = Rz_L = J v.
        if l + 1 < layers.len() {
            layer
                .act
                .mask_derivative_packed(&mut rz, chunk.right(l + 1));
        }
        r = Some(rz);
    }
    // pdnn-lint: allow(l3-no-unwrap): Network::new asserts at least one layer, so the loop above always assigns r
    r.expect("network has at least one layer")
}

/// Sweep 2 over one chunk: `u = H_L (J v)` in place, `H_L = diag(q) -
/// q q^T` per frame, with the chunk's frames at row `r0` of `q`.
fn fisher_hessian<T: Scalar>(q: &Matrix<T>, r0: usize, u: &mut Matrix<T>) {
    for rix in 0..u.rows() {
        let qr = q.row(r0 + rix);
        let ur = u.row_mut(rix);
        // dot in f64: q·Rz over up to ~10k classes.
        let mut dot = 0.0f64;
        for (qv, uv) in qr.iter().zip(ur.iter()) {
            dot += qv.to_f64() * uv.to_f64();
        }
        let dot_t = T::from_f64(dot);
        for (uv, &qv) in ur.iter_mut().zip(qr.iter()) {
            *uv = qv * (*uv - dot_t);
        }
    }
}

/// Sweep 3 over one chunk: backprop `u` without the second-order
/// activation terms, each layer's `dW` written (`accumulate` false) or
/// merged with `β = 1` straight into its region of `out`, and the bias
/// sums continued.
#[allow(clippy::too_many_arguments)]
fn linearized_backward<T: Scalar>(
    net: &Network<T>,
    ctx: &GemmContext,
    chunk: &ChunkPacks<T>,
    u: Matrix<T>,
    packs: Option<&PackedWeights<T>>,
    ws: &mut Workspace<T>,
    out: &mut [T],
    accumulate: bool,
) {
    let layers = net.layers();
    let beta = if accumulate { T::ONE } else { T::ZERO };
    let mut delta = u;
    let mut end = out.len();
    for l in (0..layers.len()).rev() {
        let layer = &layers[l];
        let (dw, db) = out[end - layer.num_params()..end].split_at_mut(layer.w.len());
        end -= layer.num_params();
        GemmOp::packed_b(&delta, Trans::T, chunk.right(l))
            .beta(beta)
            .run(ctx, MatMut::new(layer.outputs(), layer.inputs(), dw));
        if !accumulate {
            db.fill(T::ZERO);
        }
        delta.column_sums_into(db);

        if l > 0 {
            let mut dprev = ws.take_matrix_scratch(delta.rows(), layer.inputs());
            match packs {
                Some(p) => GemmOp::packed_b(&delta, Trans::N, p.backward(l)).run(ctx, &mut dprev),
                None => GemmOp::ab(&delta, Trans::N, &layer.w, Trans::N).run(ctx, &mut dprev),
            }
            layers[l - 1]
                .act
                .mask_derivative_packed(&mut dprev, chunk.right(l));
            ws.give_matrix(delta);
            delta = dprev;
        }
    }
    ws.give_matrix(delta);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::loss::softmax_rows;
    use pdnn_tensor::blas1;
    use pdnn_util::Prng;

    fn setup(dims: &[usize], frames: usize, seed: u64) -> (Network<f64>, Matrix<f64>) {
        let mut rng = Prng::new(seed);
        let net = Network::new(dims, Activation::Sigmoid, &mut rng);
        let x = Matrix::random_normal(frames, dims[0], 1.0, &mut rng);
        (net, x)
    }

    fn random_dir(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Prng::new(seed);
        (0..n).map(|_| rng.normal()).collect()
    }

    #[test]
    fn gn_is_symmetric() {
        let ctx = GemmContext::sequential();
        let (net, x) = setup(&[4, 6, 3], 5, 1);
        let cache = net.forward(&ctx, &x);
        let q = softmax_rows(cache.logits());
        let v1 = random_dir(net.num_params(), 2);
        let v2 = random_dir(net.num_params(), 3);
        let gv1 = gn_product(&net, &ctx, &cache, Curvature::Fisher(&q), &v1);
        let gv2 = gn_product(&net, &ctx, &cache, Curvature::Fisher(&q), &v2);
        let a = blas1::dot(&v2, &gv1);
        let b = blas1::dot(&v1, &gv2);
        assert!(
            (a - b).abs() < 1e-8 * (1.0 + a.abs()),
            "v2'Gv1={a} v1'Gv2={b}"
        );
    }

    #[test]
    fn gn_is_positive_semidefinite() {
        let ctx = GemmContext::sequential();
        let (net, x) = setup(&[5, 7, 4], 6, 4);
        let cache = net.forward(&ctx, &x);
        let q = softmax_rows(cache.logits());
        for seed in 10..30 {
            let v = random_dir(net.num_params(), seed);
            let gv = gn_product(&net, &ctx, &cache, Curvature::Fisher(&q), &v);
            let quad = blas1::dot(&v, &gv);
            assert!(quad >= -1e-10, "v'Gv = {quad} for seed {seed}");
        }
    }

    #[test]
    fn gn_is_linear_in_v() {
        let ctx = GemmContext::sequential();
        let (net, x) = setup(&[3, 5, 2], 4, 6);
        let cache = net.forward(&ctx, &x);
        let q = softmax_rows(cache.logits());
        let v1 = random_dir(net.num_params(), 7);
        let v2 = random_dir(net.num_params(), 8);
        let combo: Vec<f64> = v1
            .iter()
            .zip(v2.iter())
            .map(|(&a, &b)| 2.0 * a - 0.5 * b)
            .collect();
        let g1 = gn_product(&net, &ctx, &cache, Curvature::Fisher(&q), &v1);
        let g2 = gn_product(&net, &ctx, &cache, Curvature::Fisher(&q), &v2);
        let gc = gn_product(&net, &ctx, &cache, Curvature::Fisher(&q), &combo);
        for i in 0..gc.len() {
            let want = 2.0 * g1[i] - 0.5 * g2[i];
            assert!((gc[i] - want).abs() < 1e-9 * (1.0 + want.abs()));
        }
    }

    /// For a single affine layer the model is linear in θ, so the
    /// Gauss–Newton matrix IS the exact Hessian of the loss. Verify
    /// `G v` against a central finite difference of the gradient.
    #[test]
    fn gn_equals_hessian_for_linear_model_ce() {
        let ctx = GemmContext::sequential();
        let mut rng = Prng::new(11);
        let net: Network<f64> = Network::new(&[4, 3], Activation::Sigmoid, &mut rng);
        let x = Matrix::random_normal(6, 4, 1.0, &mut rng);
        let labels: Vec<u32> = (0..6).map(|_| rng.below(3) as u32).collect();
        let cache = net.forward(&ctx, &x);
        let q = softmax_rows(cache.logits());
        let v = random_dir(net.num_params(), 12);
        let gv = gn_product(&net, &ctx, &cache, Curvature::Fisher(&q), &v);

        let grad_at = |theta: &[f64]| {
            let mut n = net.clone();
            n.set_flat(theta);
            crate::backprop::loss_and_gradient(
                &n,
                &ctx,
                &x,
                &labels,
                None,
                crate::loss::FrameLoss::CrossEntropy,
            )
            .1
        };
        let theta0 = net.to_flat();
        let h = 1e-5;
        let plus: Vec<f64> = theta0
            .iter()
            .zip(v.iter())
            .map(|(&t, &d)| t + h * d)
            .collect();
        let minus: Vec<f64> = theta0
            .iter()
            .zip(v.iter())
            .map(|(&t, &d)| t - h * d)
            .collect();
        let gp = grad_at(&plus);
        let gm = grad_at(&minus);
        for i in 0..gv.len() {
            let fd = (gp[i] - gm[i]) / (2.0 * h);
            assert!(
                (fd - gv[i]).abs() < 1e-5 * (1.0 + fd.abs()),
                "coord {i}: fd={fd} gn={}",
                gv[i]
            );
        }
    }

    /// Same idea with squared error and identity curvature.
    #[test]
    fn gn_equals_hessian_for_linear_model_mse() {
        let ctx = GemmContext::sequential();
        let mut rng = Prng::new(13);
        let net: Network<f64> = Network::new(&[3, 2], Activation::Sigmoid, &mut rng);
        let x = Matrix::random_normal(5, 3, 1.0, &mut rng);
        let targets = Matrix::random_normal(5, 2, 1.0, &mut rng);
        let cache = net.forward(&ctx, &x);
        let v = random_dir(net.num_params(), 14);
        let gv = gn_product(&net, &ctx, &cache, Curvature::Identity, &v);

        let grad_at = |theta: &[f64]| {
            let mut n = net.clone();
            n.set_flat(theta);
            crate::backprop::loss_and_gradient(
                &n,
                &ctx,
                &x,
                &[],
                Some(&targets),
                crate::loss::FrameLoss::SquaredError,
            )
            .1
        };
        let theta0 = net.to_flat();
        let h = 1e-5;
        let plus: Vec<f64> = theta0
            .iter()
            .zip(v.iter())
            .map(|(&t, &d)| t + h * d)
            .collect();
        let minus: Vec<f64> = theta0
            .iter()
            .zip(v.iter())
            .map(|(&t, &d)| t - h * d)
            .collect();
        let gp = grad_at(&plus);
        let gm = grad_at(&minus);
        for i in 0..gv.len() {
            let fd = (gp[i] - gm[i]) / (2.0 * h);
            assert!(
                (fd - gv[i]).abs() < 1e-6 * (1.0 + fd.abs()),
                "coord {i}: fd={fd} gn={}",
                gv[i]
            );
        }
    }

    #[test]
    fn gn_zero_direction_is_zero() {
        let ctx = GemmContext::sequential();
        let (net, x) = setup(&[3, 4, 2], 4, 20);
        let cache = net.forward(&ctx, &x);
        let q = softmax_rows(cache.logits());
        let v = vec![0.0f64; net.num_params()];
        let gv = gn_product(&net, &ctx, &cache, Curvature::Fisher(&q), &v);
        assert!(gv.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn packed_arena_path_bitwise_equals_plain() {
        // The CG-solve invariant: with weights and sample fixed, the
        // prepacked/arena product must be bit-identical to the plain
        // one for every direction — in f32, the training type.
        let ctx = GemmContext::sequential();
        let mut rng = Prng::new(30);
        let net: Network<f32> = Network::new(&[6, 9, 7, 4], Activation::Sigmoid, &mut rng);
        let x: Matrix<f32> = Matrix::random_normal(13, 6, 1.0, &mut rng);
        let cache = net.forward(&ctx, &x);
        let q = crate::loss::softmax_rows(cache.logits());
        let packs = PackedWeights::new(&net, &ctx);
        let acts = PackedActivations::new(&cache, &ctx);
        let mut ws = Workspace::new();
        for seed in 60..65 {
            let mut d = Prng::new(seed);
            let v: Vec<f32> = (0..net.num_params()).map(|_| d.normal() as f32).collect();
            let plain = gn_product(&net, &ctx, &cache, Curvature::Fisher(&q), &v);
            let fast = gn_product_ws(
                &net,
                &ctx,
                &cache,
                Curvature::Fisher(&q),
                &v,
                Some(&packs),
                Some(&acts),
                &mut ws,
            );
            assert_eq!(plain, fast, "seed {seed}");
            ws.give_vec(fast);
        }
        // Steady state: every buffer after the first call is recycled.
        assert!(ws.stats().reuses > 0);
    }

    #[test]
    #[should_panic(expected = "stale PackedWeights")]
    fn stale_packs_are_rejected() {
        let ctx = GemmContext::sequential();
        let mut rng = Prng::new(31);
        let mut net: Network<f32> = Network::new(&[3, 4, 2], Activation::Sigmoid, &mut rng);
        let x: Matrix<f32> = Matrix::random_normal(5, 3, 1.0, &mut rng);
        let cache = net.forward(&ctx, &x);
        let packs = PackedWeights::new(&net, &ctx);
        net.axpy_flat(0.01, &vec![1.0; net.num_params()]);
        let v = vec![0.5f32; net.num_params()];
        gn_product_ws(
            &net,
            &ctx,
            &cache,
            Curvature::Identity,
            &v,
            Some(&packs),
            None,
            &mut Workspace::new(),
        );
    }

    #[test]
    fn gn_additive_over_frames() {
        let ctx = GemmContext::sequential();
        let (net, x) = setup(&[3, 4, 2], 2, 21);
        let v = random_dir(net.num_params(), 22);
        let cache = net.forward(&ctx, &x);
        let q = softmax_rows(cache.logits());
        let g_all = gn_product(&net, &ctx, &cache, Curvature::Fisher(&q), &v);

        let mut sum = vec![0.0f64; net.num_params()];
        for f in 0..2 {
            let xf = x.rows_copy(f, f + 1);
            let cf = net.forward(&ctx, &xf);
            let qf = softmax_rows(cf.logits());
            let gf = gn_product(&net, &ctx, &cf, Curvature::Fisher(&qf), &v);
            for i in 0..sum.len() {
                sum[i] += gf[i];
            }
        }
        for i in 0..sum.len() {
            assert!((g_all[i] - sum[i]).abs() < 1e-9 * (1.0 + sum[i].abs()));
        }
    }
}
