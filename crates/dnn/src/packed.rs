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
//! * [`PackedActivations`] — the curvature sample, held once: a run of
//!   chunks of `kc` frames (one GEMM k-block each), every chunk's
//!   per-layer activations packed in both operand roles the
//!   Gauss–Newton product needs (`PackedA` as the left operand of the
//!   R-forward, `PackedB` as the right operand of the linearized
//!   backward). The raw activations are not kept: the masks `f'(z)`
//!   are read back out of the right pack, where a frame's units lie in
//!   `NR`-wide runs of one k-block row.
//!
//! All packing uses the caller's [`GemmContext`] blocking, so the
//! prepacked drivers are bitwise identical to the plain [`GemmOp`]
//! calls they replace.
//!
//! [`GemmOp`]: pdnn_tensor::gemm::GemmOp

use crate::network::{ForwardCache, Network};
use pdnn_tensor::gemm::{GemmContext, PackedA, PackedB, Trans};
use pdnn_tensor::{MatRef, Scalar};

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

    /// Bytes the panels hold.
    pub fn bytes(&self) -> usize {
        let forward: usize = self.forward.iter().map(PackedB::bytes).sum();
        forward + self.backward.iter().map(PackedB::bytes).sum::<usize>()
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

/// The packed activations of one batch (the curvature sample of a CG
/// solve), for repeated `gn_product` calls against it.
///
/// The batch is held as a run of chunks of `kc` frames
/// (`ctx.blocking().kc`, the rows of one k-block of the GEMM), the last
/// one ragged. A chunk holds each layer's input-side activations (the
/// batch's input, then every hidden layer's output; not the logits)
/// packed in both operand roles the Gauss–Newton product needs, and
/// nothing else: the raw activations are not kept beside the packs.
/// The right pack is one k-block of the whole batch's, so the
/// activations are read back out of it where a pass needs them
/// ([`PackedB::row_runs`]). Chunk by chunk, the product's sums are
/// bitwise the whole batch's (see [`crate::gauss_newton`]).
#[derive(Clone, Debug)]
pub struct PackedActivations<T: Scalar> {
    /// The chunks in frame order; the first `live` hold the batch, the
    /// rest keep their buffers for a later, larger batch.
    chunks: Vec<ChunkPacks<T>>,
    live: usize,
}

/// One chunk of a [`PackedActivations`].
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ChunkPacks<T: Scalar> {
    /// `PackedA(acts[l], Trans::N)` per layer: left operand of
    /// `rz += a_prev * Vw^T`.
    left: Vec<PackedA<T>>,
    /// `PackedB(acts[l], Trans::N)` per layer: right operand of
    /// `dW = delta^T * a_prev`, and where the activations are read back.
    right: Vec<PackedB<T>>,
}

impl<T: Scalar> ChunkPacks<T> {
    /// Frames in the chunk.
    pub(crate) fn rows(&self) -> usize {
        self.right[0].k()
    }

    /// Layers packed (the network's depth).
    pub(crate) fn layers(&self) -> usize {
        self.left.len()
    }

    /// Packed left-operand activations for layer `l`.
    pub(crate) fn left(&self, l: usize) -> &PackedA<T> {
        &self.left[l]
    }

    /// Packed right-operand activations for layer `l`: row `f` holds
    /// the inputs of layer `l` at the chunk's frame `f`.
    pub(crate) fn right(&self, l: usize) -> &PackedB<T> {
        &self.right[l]
    }

    /// Pack `acts` (one view per layer input) into this chunk's own
    /// buffers, which grow only past their high water.
    fn repack<'a>(&mut self, acts: impl ExactSizeIterator<Item = MatRef<'a, T>>, ctx: &GemmContext)
    where
        T: 'a,
    {
        let blocking = ctx.blocking();
        let n = acts.len();
        self.left.truncate(n);
        self.right.truncate(n);
        for (l, a) in acts.enumerate() {
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

    fn bytes(&self) -> usize {
        let left: usize = self.left.iter().map(PackedA::bytes).sum();
        left + self.right.iter().map(PackedB::bytes).sum::<usize>()
    }
}

/// Two packs are equal when they hold the same chunks (spare buffers
/// aside).
impl<T: Scalar> PartialEq for PackedActivations<T> {
    fn eq(&self, other: &Self) -> bool {
        self.chunks() == other.chunks()
    }
}

impl<T: Scalar> PackedActivations<T> {
    /// Pack the input-side activations of `cache` (everything except
    /// the logits) under `ctx`'s blocking, chunk by chunk.
    pub fn new(cache: &ForwardCache<T>, ctx: &GemmContext) -> Self {
        let mut packs = Self::empty();
        packs.repack(cache, ctx);
        packs
    }

    /// A pack of no frames, for [`Self::repack`] or [`Self::push_chunk`]
    /// to fill.
    pub fn empty() -> Self {
        PackedActivations {
            chunks: Vec::new(),
            live: 0,
        }
    }

    /// Re-pack the activations of `cache` into this pack's own
    /// buffers (bitwise what [`Self::new`] builds), for a redrawn
    /// curvature sample: a buffer grows only past its high water.
    pub fn repack(&mut self, cache: &ForwardCache<T>, ctx: &GemmContext) {
        self.clear();
        let frames = cache.acts[0].rows();
        let inputs = &cache.acts[..cache.acts.len() - 1];
        let kc = ctx.blocking().kc;
        for r0 in (0..frames).step_by(kc) {
            let r1 = frames.min(r0 + kc);
            self.push_views(inputs.iter().map(|a| a.rows_view(r0, r1)), ctx);
        }
    }

    /// Hold no frames; the chunks keep their buffers.
    pub fn clear(&mut self) {
        self.live = 0;
    }

    /// Append the next chunk of the batch: the forward pass `chunk` of
    /// its frames, of which the input-side activations are packed (a
    /// batch built chunk after chunk is bitwise [`Self::new`] over the
    /// whole batch's cache).
    ///
    /// # Panics
    /// If `chunk` holds more than `ctx.blocking().kc` frames, or the
    /// chunk before it fewer (only the last chunk may be ragged).
    pub fn push_chunk(&mut self, chunk: &ForwardCache<T>, ctx: &GemmContext) {
        let inputs = &chunk.acts[..chunk.acts.len() - 1];
        self.push_views(inputs.iter().map(MatRef::from), ctx);
    }

    fn push_views<'a>(
        &mut self,
        acts: impl ExactSizeIterator<Item = MatRef<'a, T>> + Clone,
        ctx: &GemmContext,
    ) where
        T: 'a,
    {
        let kc = ctx.blocking().kc;
        let rows = acts.clone().next().map_or(0, |a| a.shape().0);
        assert!(
            rows <= kc,
            "PackedActivations: a chunk of {rows} frames is deeper than kc = {kc}"
        );
        if let Some(prev) = self.live.checked_sub(1) {
            assert_eq!(
                self.chunks[prev].rows(),
                kc,
                "PackedActivations: only the last chunk may be ragged"
            );
        }
        if rows == 0 {
            return;
        }
        if self.live == self.chunks.len() {
            self.chunks.push(ChunkPacks {
                left: Vec::new(),
                right: Vec::new(),
            });
        }
        self.chunks[self.live].repack(acts, ctx);
        self.live += 1;
    }

    /// The chunks holding the batch, in frame order.
    pub(crate) fn chunks(&self) -> &[ChunkPacks<T>] {
        &self.chunks[..self.live]
    }

    /// Frames held.
    pub fn frames(&self) -> usize {
        self.chunks().iter().map(ChunkPacks::rows).sum()
    }

    /// Bytes the packs hold, the spare chunks' buffers included.
    pub fn bytes(&self) -> usize {
        self.chunks.iter().map(ChunkPacks::bytes).sum()
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
        let (acts, fresh_acts) = (&acts.chunks()[0], &fresh_acts.chunks()[0]);
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
        let chunk = &packed.chunks()[0];
        assert_eq!((packed.chunks().len(), packed.frames()), (1, 9));
        assert_eq!(chunk.left.len(), 3);
        assert_eq!(chunk.left(0).m(), 9);
        assert_eq!(chunk.left(0).k(), 4);
        assert_eq!(chunk.right(2).k(), 9); // delta^T side: frames
        assert_eq!(chunk.right(2).n(), 5);
    }

    /// A batch is cut into chunks of `kc` frames whose packs are the
    /// packs of those rows; pushed chunk by chunk it is the same pack,
    /// and the right packs read back the activations.
    #[test]
    fn chunks_are_the_packs_of_kc_rows() {
        use pdnn_tensor::gemm::Blocking;
        let mut rng = Prng::new(4);
        let net: Network<f32> = Network::new(&[5, 40, 7, 3], Activation::Tanh, &mut rng);
        let kc = 6;
        let ctx = GemmContext::sequential().with_blocking(Blocking {
            kc,
            ..Blocking::default()
        });
        let x: Matrix<f32> = Matrix::random_normal(3 * kc + 2, 5, 1.0, &mut rng);
        let cache = net.forward(&ctx, &x);
        let whole = PackedActivations::new(&cache, &ctx);
        assert_eq!(whole.chunks().len(), 4);
        assert_eq!(whole.frames(), x.rows());
        let mut pushed = PackedActivations::empty();
        // A larger batch first: its spare chunk stays unused.
        let big: Matrix<f32> = Matrix::random_normal(4 * kc, 5, 1.0, &mut rng);
        pushed.repack(&net.forward(&ctx, &big), &ctx);
        pushed.clear();
        for (c, chunk) in whole.chunks().iter().enumerate() {
            let (r0, r1) = (c * kc, x.rows().min((c + 1) * kc));
            pushed.push_chunk(&net.forward(&ctx, &x.rows_copy(r0, r1)), &ctx);
            for l in 0..3 {
                let a = cache.acts[l].rows_view(r0, r1);
                let fresh_b = PackedB::new(a, Trans::N, ctx.blocking());
                let fresh_a = PackedA::new(a, Trans::N, ctx.blocking());
                for f in 0..r1 - r0 {
                    let row: Vec<f32> = chunk.right(l).row_runs(f).flatten().copied().collect();
                    assert_eq!(row, cache.acts[l].row(r0 + f));
                    let got: Vec<f32> = pushed.chunks()[c]
                        .right(l)
                        .row_runs(f)
                        .flatten()
                        .copied()
                        .collect();
                    let want: Vec<f32> = fresh_b.row_runs(f).flatten().copied().collect();
                    assert_eq!(got, want);
                }
                let d: Matrix<f32> = Matrix::random_normal(4, r1 - r0, 1.0, &mut rng);
                let run_a = |p: &PackedA<f32>| {
                    let w = &net.layers()[l].w;
                    let mut c = Matrix::zeros(r1 - r0, w.rows());
                    pdnn_tensor::gemm::GemmOp::packed_a(p, w, Trans::T).run(&ctx, &mut c);
                    c
                };
                assert_eq!(run_a(chunk.left(l)), run_a(&fresh_a));
                assert_eq!(run_a(pushed.chunks()[c].left(l)), run_a(&fresh_a));
                let mut c1 = Matrix::zeros(4, a.shape().1);
                let mut c2 = c1.clone();
                pdnn_tensor::gemm::GemmOp::ab(&d, Trans::N, a, Trans::N).run(&ctx, &mut c1);
                pdnn_tensor::gemm::GemmOp::packed_b(&d, Trans::N, chunk.right(l))
                    .run(&ctx, &mut c2);
                assert_eq!(c1, c2);
            }
        }
        assert_eq!(pushed.frames(), whole.frames());
        assert!(
            pushed.bytes() > whole.bytes(),
            "the spare chunk keeps its buffers"
        );
    }

    #[test]
    #[should_panic(expected = "only the last chunk may be ragged")]
    fn a_ragged_chunk_must_be_the_last() {
        let mut rng = Prng::new(5);
        let net: Network<f32> = Network::new(&[3, 4, 2], Activation::Sigmoid, &mut rng);
        let ctx = GemmContext::sequential();
        let x: Matrix<f32> = Matrix::random_normal(5, 3, 1.0, &mut rng);
        let mut packs = PackedActivations::empty();
        packs.push_chunk(&net.forward(&ctx, &x), &ctx);
        packs.push_chunk(&net.forward(&ctx, &x), &ctx);
    }
}
