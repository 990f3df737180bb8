//! Feed-forward network definition, forward pass, and the flat
//! parameter-vector view used by the optimizer.
//!
//! The Hessian-free optimizer treats the whole network as one flat
//! vector θ (gradients, CG directions, and curvature products are all
//! vectors of `num_params()` scalars), so the network provides
//! pack/unpack methods with a fixed, documented layout: for each layer
//! in order, the weight matrix row-major, then the bias.

use crate::activation::Activation;
use crate::packed::PackedWeights;
use pdnn_tensor::gemm::{GemmContext, GemmOp, Trans};
use pdnn_tensor::{MatRef, Matrix, Scalar, Workspace};
use pdnn_util::Prng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global source of weight-version stamps.
///
/// Every mutation of a network's parameters takes a fresh stamp, so a
/// [`crate::packed::PackedWeights`] built from version `v` is valid
/// iff the network still reports `v` — no network ever reuses a
/// version after mutation, including across clones.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn fresh_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// One affine layer `z = a W^T + b` followed by an activation.
///
/// `w` is `[out x in]` so a batch `a` of shape `[frames x in]`
/// multiplies as `a * W^T`, keeping both operands row-major.
#[derive(Clone, Debug)]
pub struct Layer<T: Scalar = f32> {
    /// Weight matrix, `out x in`.
    pub w: Matrix<T>,
    /// Bias, length `out`.
    pub b: Vec<T>,
    /// Nonlinearity applied after the affine map.
    pub act: Activation,
}

impl<T: Scalar> Layer<T> {
    /// Glorot/Xavier-uniform initialized layer.
    pub fn glorot(inputs: usize, outputs: usize, act: Activation, rng: &mut Prng) -> Self {
        let limit = (6.0 / (inputs + outputs) as f64).sqrt();
        Layer {
            w: Matrix::random_uniform(outputs, inputs, -limit, limit, rng),
            b: vec![T::ZERO; outputs],
            act,
        }
    }

    /// Input width.
    pub fn inputs(&self) -> usize {
        self.w.cols()
    }

    /// Output width.
    pub(crate) fn outputs(&self) -> usize {
        self.w.rows()
    }

    /// Parameters in this layer (weights + biases).
    pub(crate) fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// A feed-forward deep neural network.
///
/// Hidden layers share one activation; the final layer is always
/// [`Activation::Identity`] — the loss functions in [`crate::loss`]
/// and [`crate::sequence`] consume raw logits (softmax is fused into
/// the loss for numerical stability, exactly as in the paper's
/// cross-entropy setup).
#[derive(Clone, Debug)]
pub struct Network<T: Scalar = f32> {
    layers: Vec<Layer<T>>,
    /// Weight-version stamp; see [`fresh_version`]. Clones share the
    /// stamp (identical weights) until either side mutates.
    version: u64,
}

/// Cached activations from a forward pass.
///
/// `acts[0]` is the input batch; `acts[l]` the output of layer `l-1`;
/// `acts.last()` the logits. Backprop and the R-operator both consume
/// this cache.
#[derive(Clone, Debug)]
pub struct ForwardCache<T: Scalar = f32> {
    /// Per-layer activations, input first, logits last.
    pub acts: Vec<Matrix<T>>,
}

impl<T: Scalar> ForwardCache<T> {
    /// The network output (logits of the final layer).
    pub fn logits(&self) -> &Matrix<T> {
        // pdnn-lint: allow(l3-no-unwrap): forward() seeds acts with the input activation before any layer runs
        self.acts.last().expect("forward cache is never empty")
    }

    /// Retire every activation buffer into `ws` for reuse by the next
    /// forward pass.
    pub fn give_back(self, ws: &mut Workspace<T>) {
        for a in self.acts {
            ws.give_matrix(a);
        }
    }
}

impl<T: Scalar> Network<T> {
    /// Build a network with the given layer widths.
    ///
    /// `dims = [input, h1, h2, ..., output]` needs at least two
    /// entries. Hidden layers use `hidden_act`; weights are
    /// Glorot-uniform from `rng`.
    pub fn new(dims: &[usize], hidden_act: Activation, rng: &mut Prng) -> Self {
        assert!(
            dims.len() >= 2,
            "Network::new needs input and output dims, got {dims:?}"
        );
        assert!(
            dims.iter().all(|&d| d > 0),
            "Network::new: zero-width layer in {dims:?}"
        );
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() {
                Activation::Identity
            } else {
                hidden_act
            };
            layers.push(Layer::glorot(dims[i], dims[i + 1], act, rng));
        }
        Network {
            layers,
            version: fresh_version(),
        }
    }

    /// Build directly from layers (for tests and surgery).
    ///
    /// # Panics
    /// If consecutive layer shapes do not chain.
    pub fn from_layers(layers: Vec<Layer<T>>) -> Self {
        assert!(!layers.is_empty(), "Network needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].outputs(),
                pair[1].inputs(),
                "layer shapes do not chain"
            );
        }
        Network {
            layers,
            version: fresh_version(),
        }
    }

    /// The layers, input-side first.
    pub fn layers(&self) -> &[Layer<T>] {
        &self.layers
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].inputs()
    }

    /// Output (class) dimension.
    pub fn output_dim(&self) -> usize {
        // pdnn-lint: allow(l3-no-unwrap): Network::new asserts at least one layer
        self.layers.last().unwrap().outputs()
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Layer::num_params).sum()
    }

    /// Layer widths `[input, h1, ..., output]`.
    pub fn dims(&self) -> Vec<usize> {
        let mut dims = vec![self.input_dim()];
        dims.extend(self.layers.iter().map(Layer::outputs));
        dims
    }

    /// Weight-version stamp: changes on every parameter mutation
    /// ([`Self::set_flat`], [`Self::axpy_flat`]), never repeats.
    ///
    /// A [`PackedWeights`] sidecar built from this network is valid
    /// exactly while the stamp it recorded still matches.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Forward pass keeping every intermediate activation.
    pub fn forward(&self, ctx: &GemmContext, x: &Matrix<T>) -> ForwardCache<T> {
        self.forward_ws(ctx, x, None, &mut Workspace::new())
    }

    /// Forward pass with arena-recycled activations and optionally
    /// prepacked weights.
    ///
    /// Bitwise identical to [`Self::forward`]: the prepacked driver
    /// replays the exact blocked GEMM, and the `beta = 0` GEMMs
    /// overwrite every element of the arena buffers. Pass the returned
    /// cache to [`ForwardCache::give_back`] when done to close the
    /// recycle loop.
    ///
    /// # Panics
    /// If `x` is not as wide as the network's input, or `packs` was
    /// built from a different weight version.
    pub fn forward_ws(
        &self,
        ctx: &GemmContext,
        x: &Matrix<T>,
        packs: Option<&PackedWeights<T>>,
        ws: &mut Workspace<T>,
    ) -> ForwardCache<T> {
        let mut a0 = ws.take_matrix_scratch(x.rows(), x.cols());
        a0.as_mut_slice().copy_from_slice(x.as_slice());
        self.forward_taken(ctx, a0, packs, ws)
    }

    /// [`Self::forward_ws`] of an input that is already an arena take;
    /// it becomes the cache's input `acts[0]`.
    pub fn forward_taken(
        &self,
        ctx: &GemmContext,
        x: Matrix<T>,
        packs: Option<&PackedWeights<T>>,
        ws: &mut Workspace<T>,
    ) -> ForwardCache<T> {
        assert_eq!(
            x.cols(),
            self.input_dim(),
            "input width {} != network input dim {}",
            x.cols(),
            self.input_dim()
        );
        if let Some(p) = packs {
            assert!(
                p.matches(self),
                "forward: stale PackedWeights (pack v{} != net v{})",
                p.version(),
                self.version
            );
        }
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x);
        for (l, layer) in self.layers.iter().enumerate() {
            // pdnn-lint: allow(l3-no-unwrap): acts is seeded with the input activation before the loop
            let a_in = acts.last().unwrap();
            // Scratch take: the beta = 0 GEMM overwrites all of z.
            let mut z = ws.take_matrix_scratch(a_in.rows(), layer.outputs());
            match packs {
                Some(p) => GemmOp::packed_b(a_in, Trans::N, p.forward(l)).run(ctx, &mut z),
                None => GemmOp::ab(a_in, Trans::N, &layer.w, Trans::T).run(ctx, &mut z),
            }
            layer.act.apply_with_bias(&mut z, &layer.b);
            acts.push(z);
        }
        ForwardCache { acts }
    }

    /// Logits-only forward with arena-recycled scratch and optionally
    /// prepacked weights (bitwise identical to [`Self::logits`]).
    ///
    /// The returned matrix is arena-backed; give it back to `ws` when
    /// done to keep the steady state allocation-free.
    pub fn logits_ws(
        &self,
        ctx: &GemmContext,
        x: &Matrix<T>,
        packs: Option<&PackedWeights<T>>,
        ws: &mut Workspace<T>,
    ) -> Matrix<T> {
        if let Some(p) = packs {
            assert!(
                p.matches(self),
                "logits_ws: stale PackedWeights (pack v{} != net v{})",
                p.version(),
                self.version
            );
        }
        self.logits_with(x, ws, |l, input, z| {
            let layer = &self.layers[l];
            match packs {
                Some(p) => GemmOp::packed_b(input, Trans::N, p.forward(l)).run(ctx, z),
                None => GemmOp::ab(input, Trans::N, &layer.w, Trans::T).run(ctx, z),
            }
            &layer.b
        })
    }

    /// [`Self::logits_ws`] of this network's shape under the parameters
    /// `theta` (the [`Self::to_flat`] layout), read in place: each
    /// layer's regions of `theta` are the weight operand and the bias.
    /// Bitwise the logits of a network set to `theta`, with no copy of
    /// it.
    ///
    /// # Panics
    /// If `theta` is not `num_params()` long.
    pub fn logits_at(
        &self,
        ctx: &GemmContext,
        x: &Matrix<T>,
        theta: &[T],
        ws: &mut Workspace<T>,
    ) -> Matrix<T> {
        let parts = self.split_flat(theta);
        self.logits_with(x, ws, |l, input, z| {
            let (w, b) = parts[l];
            let w = MatRef::new(self.layers[l].outputs(), self.layers[l].inputs(), w);
            GemmOp::ab(input, Trans::N, w, Trans::T).run(ctx, z);
            b
        })
    }

    /// The logits forward: `affine(l, input, z)` writes layer `l`'s
    /// `input · Wᵀ` into `z` and returns its bias.
    fn logits_with<'b>(
        &self,
        x: &Matrix<T>,
        ws: &mut Workspace<T>,
        affine: impl Fn(usize, &Matrix<T>, &mut Matrix<T>) -> &'b [T],
    ) -> Matrix<T>
    where
        T: 'b,
    {
        let mut a: Option<Matrix<T>> = None;
        for (i, layer) in self.layers.iter().enumerate() {
            // pdnn-lint: allow(l3-no-unwrap): a is assigned on iteration 0 and only read from iteration 1 on
            let input = if i == 0 { x } else { a.as_ref().unwrap() };
            // Scratch take: the beta = 0 GEMM overwrites all of z.
            let mut z = ws.take_matrix_scratch(input.rows(), layer.outputs());
            let bias = affine(i, input, &mut z);
            layer.act.apply_with_bias(&mut z, bias);
            if let Some(prev) = a.take() {
                ws.give_matrix(prev);
            }
            a = Some(z);
        }
        // pdnn-lint: allow(l3-no-unwrap): Network::new asserts at least one layer, so the loop assigns a
        a.expect("network has at least one layer")
    }

    /// Forward pass returning only the logits (no cache).
    pub fn logits(&self, ctx: &GemmContext, x: &Matrix<T>) -> Matrix<T> {
        self.logits_ws(ctx, x, None, &mut Workspace::new())
    }

    // ---- flat parameter-vector view -------------------------------

    /// Copy all parameters into `out` (layout: per layer, W row-major
    /// then b).
    pub fn write_flat(&self, out: &mut [T]) {
        assert_eq!(out.len(), self.num_params(), "write_flat length mismatch");
        let mut off = 0;
        for layer in &self.layers {
            let wlen = layer.w.len();
            out[off..off + wlen].copy_from_slice(layer.w.as_slice());
            off += wlen;
            out[off..off + layer.b.len()].copy_from_slice(&layer.b);
            off += layer.b.len();
        }
    }

    /// All parameters as a fresh flat vector.
    pub fn to_flat(&self) -> Vec<T> {
        let mut v = vec![T::ZERO; self.num_params()];
        self.write_flat(&mut v);
        v
    }

    /// Overwrite all parameters from a flat vector.
    pub fn set_flat(&mut self, theta: &[T]) {
        assert_eq!(theta.len(), self.num_params(), "set_flat length mismatch");
        self.version = fresh_version();
        let mut off = 0;
        for layer in &mut self.layers {
            let wlen = layer.w.len();
            layer
                .w
                .as_mut_slice()
                .copy_from_slice(&theta[off..off + wlen]);
            off += wlen;
            let blen = layer.b.len();
            layer.b.copy_from_slice(&theta[off..off + blen]);
            off += blen;
        }
    }

    /// `θ += alpha * d` for a flat direction `d`.
    pub fn axpy_flat(&mut self, alpha: T, d: &[T]) {
        assert_eq!(d.len(), self.num_params(), "axpy_flat length mismatch");
        self.version = fresh_version();
        let mut off = 0;
        for layer in &mut self.layers {
            let wlen = layer.w.len();
            pdnn_tensor::blas1::axpy(alpha, &d[off..off + wlen], layer.w.as_mut_slice());
            off += wlen;
            let blen = layer.b.len();
            pdnn_tensor::blas1::axpy(alpha, &d[off..off + blen], &mut layer.b);
            off += blen;
        }
    }

    /// Split a flat vector into per-layer `(W-part, b-part)` slices in
    /// layer order. Used by backprop/R-op to read directions without
    /// copying.
    pub(crate) fn split_flat<'v>(&self, v: &'v [T]) -> Vec<(&'v [T], &'v [T])> {
        assert_eq!(v.len(), self.num_params(), "split_flat length mismatch");
        let mut out = Vec::with_capacity(self.layers.len());
        let mut rest = v;
        for layer in &self.layers {
            let (w, r) = rest.split_at(layer.w.len());
            let (b, r) = r.split_at(layer.b.len());
            out.push((w, b));
            rest = r;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Network<f32> {
        let mut rng = Prng::new(1);
        Network::new(&[4, 5, 3], Activation::Sigmoid, &mut rng)
    }

    #[test]
    fn shape_wiring() {
        let net = tiny();
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.output_dim(), 3);
        assert_eq!(net.dims(), vec![4, 5, 3]);
        assert_eq!(net.num_params(), 4 * 5 + 5 + 5 * 3 + 3);
        assert_eq!(net.layers().len(), 2);
        assert_eq!(net.layers()[0].act, Activation::Sigmoid);
        assert_eq!(net.layers()[1].act, Activation::Identity);
    }

    #[test]
    #[should_panic(expected = "needs input and output dims")]
    fn one_dim_rejected() {
        let mut rng = Prng::new(0);
        let _: Network<f32> = Network::new(&[4], Activation::Tanh, &mut rng);
    }

    #[test]
    #[should_panic(expected = "zero-width layer")]
    fn zero_width_rejected() {
        let mut rng = Prng::new(0);
        let _: Network<f32> = Network::new(&[4, 0, 2], Activation::Tanh, &mut rng);
    }

    #[test]
    fn forward_shapes_and_cache() {
        let net = tiny();
        let ctx = GemmContext::sequential();
        let x: Matrix<f32> = Matrix::filled(7, 4, 0.1);
        let cache = net.forward(&ctx, &x);
        assert_eq!(cache.acts.len(), 3);
        assert_eq!(cache.acts[0].shape(), (7, 4));
        assert_eq!(cache.acts[1].shape(), (7, 5));
        assert_eq!(cache.logits().shape(), (7, 3));
        // logits() agrees with forward().
        let direct = net.logits(&ctx, &x);
        assert_eq!(direct, *cache.logits());
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn forward_checks_input_width() {
        let net = tiny();
        let ctx = GemmContext::sequential();
        let x: Matrix<f32> = Matrix::zeros(2, 3);
        net.forward(&ctx, &x);
    }

    #[test]
    fn flat_roundtrip() {
        let net = tiny();
        let theta = net.to_flat();
        assert_eq!(theta.len(), net.num_params());
        let mut rng = Prng::new(2);
        let mut other: Network<f32> = Network::new(&[4, 5, 3], Activation::Sigmoid, &mut rng);
        assert_ne!(other.to_flat(), theta);
        other.set_flat(&theta);
        assert_eq!(other.to_flat(), theta);
        // Networks with identical parameters produce identical outputs.
        let ctx = GemmContext::sequential();
        let x: Matrix<f32> = Matrix::filled(3, 4, 0.5);
        assert_eq!(net.logits(&ctx, &x), other.logits(&ctx, &x));
    }

    #[test]
    fn axpy_flat_matches_manual_update() {
        let mut net = tiny();
        let theta0 = net.to_flat();
        let d: Vec<f32> = (0..net.num_params())
            .map(|i| (i % 5) as f32 * 0.1)
            .collect();
        net.axpy_flat(2.0, &d);
        let theta1 = net.to_flat();
        for i in 0..theta0.len() {
            assert!((theta1[i] - (theta0[i] + 2.0 * d[i])).abs() < 1e-6);
        }
    }

    #[test]
    fn split_flat_covers_everything() {
        let net = tiny();
        let v: Vec<f32> = (0..net.num_params()).map(|i| i as f32).collect();
        let parts = net.split_flat(&v);
        assert_eq!(parts.len(), 2);
        let total: usize = parts.iter().map(|(w, b)| w.len() + b.len()).sum();
        assert_eq!(total, net.num_params());
        assert_eq!(parts[0].0[0], 0.0);
        // b of layer 0 follows w of layer 0.
        assert_eq!(parts[0].1[0], (4 * 5) as f32);
    }

    #[test]
    #[should_panic(expected = "layer shapes do not chain")]
    fn from_layers_checks_chaining() {
        let mut rng = Prng::new(0);
        let l1: Layer<f32> = Layer::glorot(3, 4, Activation::Tanh, &mut rng);
        let l2: Layer<f32> = Layer::glorot(5, 2, Activation::Identity, &mut rng);
        Network::from_layers(vec![l1, l2]);
    }

    #[test]
    fn glorot_limits_respected() {
        let mut rng = Prng::new(3);
        let l: Layer<f64> = Layer::glorot(100, 50, Activation::Tanh, &mut rng);
        let limit = (6.0f64 / 150.0).sqrt();
        assert!(l.w.as_slice().iter().all(|&v| v.abs() <= limit));
        assert!(l.b.iter().all(|&v| v == 0.0));
        // Not all tiny: spread should be on the order of the limit.
        let max =
            l.w.as_slice()
                .iter()
                .cloned()
                .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max > limit * 0.8);
    }
}
