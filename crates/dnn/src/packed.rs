//! Prepacked-operand sidecars for the training hot path.
//!
//! A network's weights are constant across every GEMM of a batch, and
//! across *every CG iteration* of a Hessian-free solve; the curvature
//! minibatch's activations are likewise constant across all the
//! `gn_product` calls of one solve. Packing those operands once and
//! replaying the packed panels is the paper's central GEMM trick, and
//! these two types carry the packed forms:
//!
//! * [`PackedWeights`] — per-layer panels of `W` in both orientations
//!   the passes need (`W^T` for forward/R-forward, `W` for the
//!   backward delta propagation), stamped with the [`Network`]'s
//!   version so stale packs are detected, never silently used.
//! * [`PackedActivations`] — per-layer panels of the cached
//!   activations in both operand roles the Gauss–Newton product
//!   needs (`PackedA` as the left operand of the R-forward,
//!   `PackedB` as the right operand of the linearized backward).
//!
//! All packing uses the caller's [`GemmContext`] blocking, so the
//! prepacked drivers are bitwise identical to the plain [`GemmOp`]
//! calls they replace.
//!
//! [`GemmOp`]: pdnn_tensor::gemm::GemmOp

use crate::network::{ForwardCache, Network};
use pdnn_tensor::gemm::{GemmContext, PackedA, PackedB, Trans};
use pdnn_tensor::Scalar;

/// Per-layer packed weight panels, valid for one `Network::version`.
#[derive(Clone, Debug)]
pub struct PackedWeights<T: Scalar> {
    version: u64,
    /// `PackedB(W, Trans::T)` per layer: `z = a_in * W^T`.
    forward: Vec<PackedB<T>>,
    /// `PackedB(W, Trans::N)` per layer: `dprev = delta * W`.
    backward: Vec<PackedB<T>>,
}

impl<T: Scalar> PackedWeights<T> {
    /// Pack every layer of `net` under `ctx`'s blocking.
    pub fn new(net: &Network<T>, ctx: &GemmContext) -> Self {
        let blocking = ctx.blocking();
        let mut forward = Vec::with_capacity(net.layers().len());
        let mut backward = Vec::with_capacity(net.layers().len());
        for layer in net.layers() {
            forward.push(PackedB::new(&layer.w, Trans::T, blocking));
            backward.push(PackedB::new(&layer.w, Trans::N, blocking));
        }
        PackedWeights {
            version: net.version(),
            forward,
            backward,
        }
    }

    /// Re-pack every layer of `net` into this pack's own buffers
    /// (bitwise what [`Self::new`] builds): a θ update refills the
    /// panels instead of freeing and reallocating them.
    pub fn repack(&mut self, net: &Network<T>, ctx: &GemmContext) {
        assert_eq!(
            self.forward.len(),
            net.layers().len(),
            "repack: layer count changed"
        );
        let blocking = ctx.blocking();
        let packs = self.forward.iter_mut().zip(&mut self.backward);
        for ((fwd, bwd), layer) in packs.zip(net.layers()) {
            fwd.repack(&layer.w, Trans::T, blocking);
            bwd.repack(&layer.w, Trans::N, blocking);
        }
        self.version = net.version();
    }

    /// Whether this pack still reflects `net`'s current weights.
    pub fn matches(&self, net: &Network<T>) -> bool {
        self.version == net.version()
    }

    /// The [`Network::version`] the pack was built from.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Packed `W^T` for layer `l` (forward / R-forward operand).
    pub(crate) fn forward(&self, l: usize) -> &PackedB<T> {
        &self.forward[l]
    }

    /// Packed `W` for layer `l` (backward delta-propagation operand).
    pub(crate) fn backward(&self, l: usize) -> &PackedB<T> {
        &self.backward[l]
    }
}

/// Packed activations of one cached batch, for repeated `gn_product`
/// calls against the same curvature sample.
#[derive(Clone, Debug)]
pub struct PackedActivations<T: Scalar> {
    /// `PackedA(acts[l], Trans::N)` per layer: left operand of
    /// `rz += a_prev * Vw^T`.
    left: Vec<PackedA<T>>,
    /// `PackedB(acts[l], Trans::N)` per layer: right operand of
    /// `gw = delta^T * a_prev`.
    right: Vec<PackedB<T>>,
}

impl<T: Scalar> PackedActivations<T> {
    /// Pack the input-side activations of `cache` (everything except
    /// the logits) under `ctx`'s blocking.
    pub fn new(cache: &ForwardCache<T>, ctx: &GemmContext) -> Self {
        let mut packs = Self::empty();
        packs.repack(cache, ctx);
        packs
    }

    /// A pack of no layers, for [`Self::repack`] to fill.
    pub fn empty() -> Self {
        PackedActivations {
            left: Vec::new(),
            right: Vec::new(),
        }
    }

    /// Re-pack the activations of `cache` into this pack's own
    /// buffers (bitwise what [`Self::new`] builds), for a redrawn
    /// curvature sample: a buffer grows only past its high water.
    pub fn repack(&mut self, cache: &ForwardCache<T>, ctx: &GemmContext) {
        let blocking = ctx.blocking();
        let n = cache.acts.len() - 1;
        self.left.truncate(n);
        self.right.truncate(n);
        for (l, a) in cache.acts[..n].iter().enumerate() {
            match (self.left.get_mut(l), self.right.get_mut(l)) {
                (Some(left), Some(right)) => {
                    left.repack(a, Trans::N, blocking);
                    right.repack(a, Trans::N, blocking);
                }
                _ => {
                    self.left.push(PackedA::new(a, Trans::N, blocking));
                    self.right.push(PackedB::new(a, Trans::N, blocking));
                }
            }
        }
    }

    /// Packed left-operand activations for layer `l`.
    pub(crate) fn left(&self, l: usize) -> &PackedA<T> {
        &self.left[l]
    }

    /// Packed right-operand activations for layer `l`.
    pub(crate) fn right(&self, l: usize) -> &PackedB<T> {
        &self.right[l]
    }

    /// Number of packed layers.
    pub(crate) fn layers(&self) -> usize {
        self.left.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use pdnn_tensor::Matrix;
    use pdnn_util::Prng;

    #[test]
    fn pack_tracks_network_version() {
        let mut rng = Prng::new(1);
        let mut net: Network<f32> = Network::new(&[4, 5, 3], Activation::Sigmoid, &mut rng);
        let ctx = GemmContext::sequential();
        let packs = PackedWeights::new(&net, &ctx);
        assert!(packs.matches(&net));
        let theta = net.to_flat();
        net.set_flat(&theta); // same values, but a mutation nonetheless
        assert!(!packs.matches(&net), "set_flat must invalidate packs");
        let repacked = PackedWeights::new(&net, &ctx);
        assert!(repacked.matches(&net));
    }

    #[test]
    fn clone_shares_version_until_mutated() {
        let mut rng = Prng::new(2);
        let net: Network<f32> = Network::new(&[3, 4, 2], Activation::Tanh, &mut rng);
        let ctx = GemmContext::sequential();
        let packs = PackedWeights::new(&net, &ctx);
        let mut twin = net.clone();
        assert!(
            packs.matches(&twin),
            "a clone has identical weights, so the pack is still valid"
        );
        twin.axpy_flat(0.1, &vec![1.0; twin.num_params()]);
        assert!(!packs.matches(&twin));
        assert!(packs.matches(&net), "the original is untouched");
    }

    /// A repack into buffers last filled for another network or batch
    /// multiplies bitwise like a fresh pack.
    #[test]
    fn repack_matches_a_fresh_pack_bitwise() {
        use pdnn_tensor::gemm::GemmOp;
        let mut rng = Prng::new(5);
        let ctx = GemmContext::sequential();
        let net: Network<f32> = Network::new(&[6, 40, 3], Activation::Sigmoid, &mut rng);
        let mut other = net.clone();
        other.axpy_flat(0.5, &vec![1.0; net.num_params()]);
        let mut packs = PackedWeights::new(&other, &ctx);
        packs.repack(&net, &ctx);
        assert!(packs.matches(&net));
        let fresh = PackedWeights::new(&net, &ctx);
        let big: Matrix<f32> = Matrix::random_normal(70, 6, 1.0, &mut rng);
        let small: Matrix<f32> = Matrix::random_normal(9, 6, 1.0, &mut rng);
        let mut acts = PackedActivations::empty();
        acts.repack(&net.forward(&ctx, &big), &ctx);
        let cache = net.forward(&ctx, &small);
        acts.repack(&cache, &ctx);
        let fresh_acts = PackedActivations::new(&cache, &ctx);
        let a: Matrix<f32> = Matrix::random_normal(9, 6, 1.0, &mut rng);
        let run = |op: GemmOp<f32>, rows, cols| {
            let mut c = Matrix::zeros(rows, cols);
            op.run(&ctx, &mut c);
            c
        };
        for l in 0..2 {
            let (out, inp) = net.layers()[l].w.shape();
            let x: Matrix<f32> = Matrix::random_normal(9, inp, 1.0, &mut rng);
            assert_eq!(
                run(GemmOp::packed_b(&x, Trans::N, packs.forward(l)), 9, out),
                run(GemmOp::packed_b(&x, Trans::N, fresh.forward(l)), 9, out)
            );
            let d: Matrix<f32> = Matrix::random_normal(9, out, 1.0, &mut rng);
            assert_eq!(
                run(GemmOp::packed_b(&d, Trans::N, packs.backward(l)), 9, inp),
                run(GemmOp::packed_b(&d, Trans::N, fresh.backward(l)), 9, inp)
            );
        }
        let w = &net.layers()[0].w;
        assert_eq!(
            run(GemmOp::packed_a(acts.left(0), w, Trans::T), 9, 40),
            run(GemmOp::packed_a(fresh_acts.left(0), w, Trans::T), 9, 40)
        );
        assert_eq!(
            run(GemmOp::packed_b(&a, Trans::T, acts.right(0)), 6, 6),
            run(GemmOp::packed_b(&a, Trans::T, fresh_acts.right(0)), 6, 6)
        );
    }

    #[test]
    fn packed_activations_cover_all_input_sides() {
        let mut rng = Prng::new(3);
        let net: Network<f32> = Network::new(&[4, 6, 5, 3], Activation::Sigmoid, &mut rng);
        let ctx = GemmContext::sequential();
        let x: Matrix<f32> = Matrix::random_normal(9, 4, 1.0, &mut rng);
        let cache = net.forward(&ctx, &x);
        let packed = PackedActivations::new(&cache, &ctx);
        assert_eq!(packed.layers(), 3);
        assert_eq!(packed.left(0).m(), 9);
        assert_eq!(packed.left(0).k(), 4);
        assert_eq!(packed.right(2).k(), 9); // delta^T side: frames
        assert_eq!(packed.right(2).n(), 5);
    }
}
