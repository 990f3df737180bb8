//! The compute half of training: one shard of the corpus, one replica
//! of the network, and the sums over that shard which every
//! aggregation scheme needs (paper Section IV: the workers "perform
//! data-parallel computation of gradients and curvature matrix–vector
//! products").
//!
//! [`ShardEngine`] makes no communication call and divides by nothing.
//! It has three clients, which differ only in what they do with the
//! sums: the serial [`crate::DnnProblem`] (one shard that holds
//! everything: engine call → normalise), the worker command loop
//! (receive operands → engine call → reduce) and the masterless peers
//! (engine call → allreduce → normalise) in [`crate::distributed`]. So
//! a rank's compute spans, pack-cache counters and arena traffic are
//! the same under every sync strategy, and the serial baseline runs
//! the very kernel sequence the ranks run.

use crate::problem::{chunk_ranges, extract_utterances_into, sample_utterances, Objective};
use pdnn_dnn::backprop::backprop_ws;
use pdnn_dnn::gauss_newton::{gn_product_ws, Curvature};
use pdnn_dnn::loss::{cross_entropy_into, cross_entropy_loss_only, softmax_rows_into};
use pdnn_dnn::network::{ForwardCache, Network};
use pdnn_dnn::packed::{PackedActivations, PackedWeights};
use pdnn_dnn::sequence::mmi_batch;
use pdnn_obs::{Recorder, RecorderExt, SpanKind};
use pdnn_speech::Shard;
use pdnn_tensor::gemm::GemmContext;
use pdnn_tensor::{Matrix, Workspace, WorkspaceStats};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// The cached curvature minibatch of one CG solve. A dropped sample
/// keeps its buffers for the next draw to refill, outside the arena:
/// parked there, they would add every sample size's high water to the
/// arena's.
struct CurvatureSample {
    labels: Vec<u32>,
    utt_lens: Vec<usize>,
    /// The forward pass of the sample; its input `acts[0]` is the
    /// gathered frames.
    cache: ForwardCache<f32>,
    /// Softmax rows (CE) or denominator occupancies (MMI).
    dist: Matrix<f32>,
    /// Prepacked activation operands, reused by every product of the
    /// solve.
    packed_acts: PackedActivations<f32>,
}

impl CurvatureSample {
    fn frames(&self) -> f64 {
        self.cache.acts[0].rows() as f64
    }
}

/// Re-pack the weights, into the packs' own buffers, iff the network
/// version moved. Hit/miss counters are pure functions of the call
/// sequence, so per-rank telemetry stays byte-identical across runs.
fn ensure_packs(
    packs: &mut Option<PackedWeights<f32>>,
    net: &Network<f32>,
    ctx: &GemmContext,
    rec: &dyn Recorder,
) {
    match packs {
        Some(p) if p.matches(net) => rec.counter_add("pack_cache_hit", 1),
        Some(p) => {
            p.repack(net, ctx);
            rec.counter_add("pack_cache_miss", 1);
        }
        None => {
            *packs = Some(PackedWeights::new(net, ctx));
            rec.counter_add("pack_cache_miss", 1);
        }
    }
}

/// Publish the `gemm_scratch_bytes` gauge: the GEMM packing scratch
/// the calling thread (a rank) retains.
pub(crate) fn report_gemm_scratch(rec: &dyn Recorder) {
    let bytes = pdnn_tensor::gemm::scratch::retained_bytes();
    rec.gauge_set("gemm_scratch_bytes", bytes as f64);
}

/// Summed loss + dlogits of a batch under the objective. Cross-entropy
/// writes its dlogits into an arena take; hand them back with
/// [`recycle_dlogits`].
fn eval_objective(
    objective: &Objective,
    cache: &ForwardCache<f32>,
    labels: &[u32],
    utt_lens: &[usize],
    ws: &mut Workspace<f32>,
) -> (f64, Matrix<f32>) {
    let logits = cache.logits();
    match objective {
        Objective::CrossEntropy => {
            let mut dlogits = ws.take_matrix_scratch(logits.rows(), logits.cols());
            let (loss, _) = cross_entropy_into(logits, labels, &mut dlogits);
            (loss, dlogits)
        }
        Objective::Sequence(graph) => {
            let out = mmi_batch(logits, labels, utt_lens, graph);
            (out.loss, out.dlogits)
        }
    }
}

/// Return [`eval_objective`]'s dlogits to the arena they came from
/// (MMI's are its own allocation, freed here).
fn recycle_dlogits(objective: &Objective, dlogits: Matrix<f32>, ws: &mut Workspace<f32>) {
    if let Objective::CrossEntropy = objective {
        ws.give_matrix(dlogits);
    }
}

/// Rows `rows` of `x` as a forward-pass input: `x` itself when the
/// range covers it, else a copy held in an arena buffer, which goes
/// back with [`recycle_chunk`].
fn chunk_input<'m>(
    x: &'m Matrix<f32>,
    rows: &Range<usize>,
    ws: &mut Workspace<f32>,
) -> Cow<'m, Matrix<f32>> {
    if rows.len() == x.rows() {
        return Cow::Borrowed(x);
    }
    let mut copy = ws.take_matrix_scratch(rows.len(), x.cols());
    copy.as_mut_slice()
        .copy_from_slice(x.rows_slice(rows.start, rows.end));
    Cow::Owned(copy)
}

fn recycle_chunk(x: Cow<'_, Matrix<f32>>, ws: &mut Workspace<f32>) {
    if let Cow::Owned(copy) = x {
        ws.give_matrix(copy);
    }
}

/// Shard-local state and compute of one participant in training.
/// Every `*_sums` method returns *sums* over the local shard plus the
/// frame count they cover; dividing by the global count is the
/// caller's job, after aggregation.
pub(crate) struct ShardEngine<'a> {
    /// Sink of the compute spans, pack-cache counters and arena gauges.
    pub(crate) rec: Arc<dyn Recorder>,
    ctx: GemmContext,
    objective: Cow<'a, Objective>,
    net: Network<f32>,
    /// Trial-θ evaluation network (held-out probes never disturb the
    /// packed weights of `net`).
    scratch: Network<f32>,
    train: Shard,
    heldout: Shard,
    /// Upper bound on frames materialized per forward pass of the
    /// gradient and held-out sums; `usize::MAX` = the shard at once.
    pub(crate) max_batch_frames: usize,
    ws: Workspace<f32>,
    packs: Option<PackedWeights<f32>>,
    sample: Option<CurvatureSample>,
    /// The last dropped sample, whose buffers the next draw refills.
    retired: Option<CurvatureSample>,
}

impl<'a> ShardEngine<'a> {
    /// An engine over the given shards. The first compute call packs
    /// the weights of `net` (`pack_cache_miss`).
    pub(crate) fn new(
        rec: Arc<dyn Recorder>,
        ctx: GemmContext,
        objective: Cow<'a, Objective>,
        net: Network<f32>,
        train: Shard,
        heldout: Shard,
    ) -> Self {
        ShardEngine {
            rec,
            ctx,
            objective,
            scratch: net.clone(),
            net,
            train,
            heldout,
            max_batch_frames: usize::MAX,
            ws: Workspace::new(),
            packs: None,
            sample: None,
            retired: None,
        }
    }

    pub(crate) fn net(&self) -> &Network<f32> {
        &self.net
    }

    pub(crate) fn into_net(self) -> Network<f32> {
        self.net
    }

    pub(crate) fn train_frames(&self) -> usize {
        self.train.frames()
    }

    pub(crate) fn arena_stats(&self) -> WorkspaceStats {
        self.ws.stats()
    }

    /// Drop the curvature sample, keeping its buffers for the next
    /// draw.
    fn drop_sample(&mut self) {
        if let Some(s) = self.sample.take() {
            self.retired = Some(s);
        }
    }

    /// Install new weights. Bumps the network version (the next
    /// compute call repacks: `pack_cache_miss`) and drops the cached
    /// curvature sample, whose activations belong to the old θ.
    pub(crate) fn set_theta(&mut self, theta: &[f32]) {
        self.net.set_flat(theta);
        self.drop_sample();
    }

    /// Replace the shards (after a re-partition) and drop the cached
    /// curvature sample, which indexes the old training shard.
    pub(crate) fn reshard(&mut self, train: Shard, heldout: Shard) {
        self.train = train;
        self.heldout = heldout;
        self.drop_sample();
    }

    /// Give back a buffer this engine handed out (a `*_sums` result
    /// the caller has reduced). Only such buffers: the arena's takes
    /// consume what it gets back, so a buffer it never took (a received
    /// operand) would stay parked for good and grow it by one vector
    /// per call.
    pub(crate) fn recycle(&mut self, buf: Vec<f32>) {
        self.ws.give_vec(buf);
    }

    /// Publish the arena gauges and the GEMM scratch gauge.
    pub(crate) fn report_arena(&self) {
        let stats = self.arena_stats();
        let rec = &self.rec;
        rec.gauge_set("arena_bytes_reused", stats.bytes_reused as f64);
        rec.gauge_set("arena_high_water_bytes", stats.high_water_bytes as f64);
        report_gemm_scratch(&**rec);
    }

    /// `(Σ loss, Σ gradient, frames)` over the training shard, at most
    /// `max_batch_frames` frames at a time. The first chunk's gradient
    /// is the accumulator, so a shard that fits one chunk costs no copy
    /// and no add.
    pub(crate) fn gradient_sums(&mut self) -> (f64, Vec<f32>, f64) {
        let _s = self.rec.span("gradient_loss", SpanKind::DenseCompute);
        if self.train.frames() == 0 {
            return (0.0, self.ws.take_vec(self.net.num_params()), 0.0);
        }
        ensure_packs(&mut self.packs, &self.net, &self.ctx, &*self.rec);
        let (net, train, ws) = (&self.net, &self.train, &mut self.ws);
        let packs = self.packs.as_ref();
        let mut loss_sum = 0.0f64;
        let mut total: Vec<f32> = Vec::new();
        for (utts, rows) in chunk_ranges(&train.utt_lens, self.max_batch_frames) {
            let x = chunk_input(&train.x, &rows, ws);
            let cache = net.forward_ws(&self.ctx, &x, packs, ws);
            let (loss, dlogits) = eval_objective(
                &self.objective,
                &cache,
                &train.labels[rows],
                &train.utt_lens[utts],
                ws,
            );
            let grad = backprop_ws(net, &self.ctx, &cache, &dlogits, packs, ws);
            recycle_dlogits(&self.objective, dlogits, ws);
            cache.give_back(ws);
            recycle_chunk(x, ws);
            loss_sum += loss;
            if total.is_empty() {
                total = grad;
            } else {
                pdnn_tensor::blas1::add(&grad, &mut total);
                ws.give_vec(grad);
            }
        }
        (loss_sum, total, train.frames() as f64)
    }

    /// Redraw the curvature sample: a `fraction` of the local
    /// utterances from a per-rank stream, so the overall sample is the
    /// union of the per-rank samples.
    pub(crate) fn draw_sample(&mut self, seed: u64, fraction: f64, rank: usize) {
        self.drop_sample();
        let _s = self
            .rec
            .span("worker_curvature_sample", SpanKind::DenseCompute);
        if self.train.utt_lens.is_empty() {
            return;
        }
        let rank_seed = seed ^ (rank as u64).wrapping_mul(0xA24B_AED4_963E_E407);
        let ids = sample_utterances(&self.train.utt_lens, fraction, rank_seed);
        // Refill the last sample's buffers; the first draw builds them.
        let mut s = self.retired.take().unwrap_or_else(|| CurvatureSample {
            labels: Vec::new(),
            utt_lens: Vec::new(),
            cache: ForwardCache {
                acts: vec![Matrix::zeros(0, 0)],
            },
            dist: Matrix::zeros(0, 0),
            packed_acts: PackedActivations::empty(),
        });
        let (x, labels, utt_lens) = (&mut s.cache.acts[0], &mut s.labels, &mut s.utt_lens);
        extract_utterances_into(&self.train, &ids, x, labels, utt_lens);
        if x.rows() == 0 {
            return;
        }
        // The weight packs serve the sample forward too: bitwise the
        // unpacked forward.
        ensure_packs(&mut self.packs, &self.net, &self.ctx, &*self.rec);
        self.net
            .forward_in_place(&self.ctx, self.packs.as_ref(), &mut s.cache);
        let logits = s.cache.logits();
        match &*self.objective {
            Objective::CrossEntropy => {
                s.dist.reshape_reusing(logits.rows(), logits.cols());
                softmax_rows_into(logits, &mut s.dist);
            }
            Objective::Sequence(graph) => {
                s.dist = mmi_batch(logits, &s.labels, &s.utt_lens, graph).den_posteriors;
            }
        }
        s.packed_acts.repack(&s.cache, &self.ctx);
        self.sample = Some(s);
    }

    /// `(Σ G·v, frames)` over the curvature sample; zeros over zero
    /// frames when this rank drew none.
    pub(crate) fn gn_sums(&mut self, v: &[f32]) -> (Vec<f32>, f64) {
        let _s = self
            .rec
            .span("worker_curvature_product", SpanKind::DenseCompute);
        let Some(s) = &self.sample else {
            return (self.ws.take_vec(self.net.num_params()), 0.0);
        };
        ensure_packs(&mut self.packs, &self.net, &self.ctx, &*self.rec);
        let gv = gn_product_ws(
            &self.net,
            &self.ctx,
            &s.cache,
            Curvature::Fisher(&s.dist),
            v,
            self.packs.as_ref(),
            Some(&s.packed_acts),
            &mut self.ws,
        );
        (gv, s.frames())
    }

    /// `(Σ empirical-Fisher diagonal, frames)` over the curvature
    /// sample.
    pub(crate) fn fisher_sums(&mut self) -> (Vec<f32>, f64) {
        let _s = self
            .rec
            .span("worker_curvature_product", SpanKind::DenseCompute);
        let Some(s) = &self.sample else {
            return (self.ws.take_vec(self.net.num_params()), 0.0);
        };
        let ws = &mut self.ws;
        let (_, dlogits) = eval_objective(&self.objective, &s.cache, &s.labels, &s.utt_lens, ws);
        let diag =
            pdnn_dnn::fisher::empirical_fisher_diagonal(&self.net, &self.ctx, &s.cache, &dlogits);
        recycle_dlogits(&self.objective, dlogits, ws);
        // Returned in an arena buffer, so handing it back parks only
        // what the arena gave out.
        let mut out = self.ws.take_vec_scratch(diag.len());
        out.copy_from_slice(&diag);
        (out, s.frames())
    }

    /// `[Σ loss, Σ correct, frames]` of trial weights `theta` over the
    /// held-out shard, at most `max_batch_frames` frames at a time.
    pub(crate) fn heldout_sums(&mut self, theta: &[f32]) -> [f64; 3] {
        let _s = self.rec.span("eval_heldout", SpanKind::DenseCompute);
        if self.heldout.frames() == 0 {
            return [0.0; 3];
        }
        // Trial weights change every call: no packs, but the arena
        // recycles the activation scratch.
        self.scratch.set_flat(theta);
        let (heldout, ws) = (&self.heldout, &mut self.ws);
        let mut loss_sum = 0.0f64;
        let mut correct = 0usize;
        for (utts, rows) in chunk_ranges(&heldout.utt_lens, self.max_batch_frames) {
            let x = chunk_input(&heldout.x, &rows, ws);
            let logits = self.scratch.logits_ws(&self.ctx, &x, None, ws);
            let labels = &heldout.labels[rows];
            let (loss, hits) = match &*self.objective {
                Objective::CrossEntropy => cross_entropy_loss_only(&logits, labels),
                Objective::Sequence(graph) => {
                    let out = mmi_batch(&logits, labels, &heldout.utt_lens[utts], graph);
                    // Frame accuracy is still argmax-vs-alignment.
                    let hits = logits
                        .row_argmax()
                        .iter()
                        .zip(labels)
                        .filter(|(&p, &l)| p as u32 == l)
                        .count();
                    (out.loss, hits)
                }
            };
            loss_sum += loss;
            correct += hits;
            ws.give_matrix(logits);
            recycle_chunk(x, ws);
        }
        [loss_sum, correct as f64, heldout.frames() as f64]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdnn_dnn::Activation;
    use pdnn_obs::NullRecorder;
    use pdnn_speech::{Corpus, CorpusSpec};
    use pdnn_util::Prng;

    fn corpus_and_net() -> (Corpus, Network<f32>) {
        let corpus = Corpus::generate(CorpusSpec::tiny(5));
        let mut rng = Prng::new(1);
        let dims = [corpus.spec().feature_dim, 16, corpus.spec().states];
        let net = Network::new(&dims, Activation::Sigmoid, &mut rng);
        (corpus, net)
    }

    fn engine(net: &Network<f32>, objective: Objective, shard: Shard) -> ShardEngine<'static> {
        ShardEngine::new(
            Arc::new(NullRecorder),
            GemmContext::sequential(),
            Cow::Owned(objective),
            net.clone(),
            shard.clone(),
            shard,
        )
    }

    #[test]
    fn empty_shard_sums_to_zero_over_zero_frames() {
        let (corpus, net) = corpus_and_net();
        let n = net.num_params();
        for objective in [
            Objective::CrossEntropy,
            Objective::Sequence(corpus.denominator_graph()),
        ] {
            let mut e = engine(&net, objective, corpus.shard(&[]));
            let (loss, grad, frames) = e.gradient_sums();
            assert_eq!((loss, &grad, frames), (0.0, &vec![0.0; n], 0.0));
            e.recycle(grad);
            e.draw_sample(3, 0.5, 0);
            let gv = e.gn_sums(&vec![1.0; n]);
            assert_eq!(gv, (vec![0.0; n], 0.0));
            e.recycle(gv.0);
            let diag = e.fisher_sums();
            assert_eq!(diag, (vec![0.0; n], 0.0));
            e.recycle(diag.0);
            assert_eq!(e.heldout_sums(&net.to_flat()), [0.0; 3]);
            // The zero sums are arena buffers, so handing them back
            // parks nothing foreign: one allocation serves all three.
            let s = e.arena_stats();
            assert_eq!((s.allocs, s.reuses), (1, 2));
        }
    }

    /// A shard that fits one chunk goes to the kernels by reference:
    /// the engine's arena traffic is exactly that of the bare kernel
    /// calls, with no take for a copy of the shard.
    #[test]
    fn one_chunk_sums_add_no_arena_take() {
        let (corpus, net) = corpus_and_net();
        let all: Vec<usize> = (0..corpus.utterances().len()).collect();
        let shard = corpus.shard(&all);
        let ctx = GemmContext::sequential();
        let traffic = |s: WorkspaceStats| (s.allocs, s.reuses, s.bytes_reused);

        let mut e = engine(&net, Objective::CrossEntropy, shard.clone());
        e.max_batch_frames = shard.frames();
        let (loss, grad, frames) = e.gradient_sums();
        let mut ws = Workspace::new();
        let packs = PackedWeights::new(&net, &ctx);
        let cache = net.forward_ws(&ctx, &shard.x, Some(&packs), &mut ws);
        let logits = cache.logits();
        let mut dlogits = ws.take_matrix_scratch(logits.rows(), logits.cols());
        let (want_loss, _) = cross_entropy_into(logits, &shard.labels, &mut dlogits);
        let want = backprop_ws(&net, &ctx, &cache, &dlogits, Some(&packs), &mut ws);
        assert_eq!(
            (loss, grad, frames),
            (want_loss, want, shard.frames() as f64)
        );
        assert_eq!(traffic(e.arena_stats()), traffic(ws.stats()));

        let mut e = engine(&net, Objective::CrossEntropy, shard.clone());
        e.heldout_sums(&net.to_flat());
        let mut ws = Workspace::new();
        net.logits_ws(&ctx, &shard.x, None, &mut ws);
        assert_eq!(traffic(e.arena_stats()), traffic(ws.stats()));

        // Several chunks: each is one more take, for its copy.
        let mut e = engine(&net, Objective::CrossEntropy, shard.clone());
        e.max_batch_frames = shard.frames() / 2;
        e.heldout_sums(&net.to_flat());
        let chunks = chunk_ranges(&shard.utt_lens, e.max_batch_frames).len() as u64;
        let takes = |s: WorkspaceStats| s.allocs + s.reuses;
        assert!(chunks > 1);
        assert_eq!(takes(e.arena_stats()), chunks * (takes(ws.stats()) + 1));
    }
}
