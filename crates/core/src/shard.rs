//! The rank-local half of distributed training: one shard of the
//! corpus, one replica of the network, and the sums over that shard
//! which every aggregation scheme needs (paper Section IV: the workers
//! "perform data-parallel computation of gradients and curvature
//! matrix–vector products").
//!
//! [`ShardEngine`] makes no communication call. The worker command
//! loop and the masterless peers in [`crate::distributed`] both drive
//! it, so a rank's compute spans, pack-cache counters and arena
//! traffic are the same under every sync strategy.

use crate::problem::{extract_utterances, sample_utterances, Objective};
use pdnn_dnn::backprop::backprop_ws;
use pdnn_dnn::gauss_newton::{gn_product_ws, Curvature};
use pdnn_dnn::loss::{cross_entropy, cross_entropy_loss_only, softmax_rows};
use pdnn_dnn::network::{ForwardCache, Network};
use pdnn_dnn::packed::{PackedActivations, PackedWeights};
use pdnn_dnn::sequence::mmi_batch;
use pdnn_obs::{InMemoryRecorder, Recorder, RecorderExt, SpanKind};
use pdnn_speech::{Corpus, Shard};
use pdnn_tensor::gemm::GemmContext;
use pdnn_tensor::{Matrix, Workspace};
use std::sync::Arc;

/// The cached curvature minibatch of one CG solve.
struct CurvatureSample {
    x: Matrix<f32>,
    labels: Vec<u32>,
    utt_lens: Vec<usize>,
    cache: ForwardCache<f32>,
    /// Softmax rows (CE) or denominator occupancies (MMI).
    dist: Matrix<f32>,
    /// Prepacked activation operands, reused by every product of the
    /// solve.
    packed_acts: PackedActivations<f32>,
}

/// Rebuild the weight packs iff the network version moved. Hit/miss
/// counters are pure functions of the call sequence, so per-rank
/// telemetry stays byte-identical across runs.
fn ensure_packs(
    packs: &mut Option<PackedWeights<f32>>,
    net: &Network<f32>,
    ctx: &GemmContext,
    rec: &InMemoryRecorder,
) {
    match packs {
        Some(p) if p.matches(net) => rec.counter_add("pack_cache_hit", 1),
        _ => {
            *packs = Some(PackedWeights::new(net, ctx));
            rec.counter_add("pack_cache_miss", 1);
        }
    }
}

/// Summed loss + dlogits of a batch under the objective.
fn eval_objective(
    objective: &Objective,
    cache: &ForwardCache<f32>,
    labels: &[u32],
    utt_lens: &[usize],
) -> (f64, Matrix<f32>) {
    match objective {
        Objective::CrossEntropy => {
            let out = cross_entropy(cache.logits(), labels);
            (out.loss, out.dlogits)
        }
        Objective::Sequence(graph) => {
            let out = mmi_batch(cache.logits(), labels, utt_lens, graph);
            (out.loss, out.dlogits)
        }
    }
}

/// Rank-local state and compute of one participant in a distributed
/// run. Every `*_sums` method returns *sums* over the local shard plus
/// the frame count they cover; dividing by the global count is the
/// caller's job, after aggregation.
pub(crate) struct ShardEngine<'a> {
    rec: Arc<InMemoryRecorder>,
    corpus: &'a Corpus,
    objective: &'a Objective,
    ctx: GemmContext,
    net: Network<f32>,
    /// Trial-θ evaluation network (held-out probes never disturb the
    /// packed weights of `net`).
    scratch: Network<f32>,
    train: Shard,
    heldout: Shard,
    ws: Workspace<f32>,
    packs: Option<PackedWeights<f32>>,
    sample: Option<CurvatureSample>,
}

fn shard_of(corpus: &Corpus, ids: &[u64]) -> Shard {
    let ids: Vec<usize> = ids.iter().map(|&id| id as usize).collect();
    corpus.shard(&ids)
}

impl<'a> ShardEngine<'a> {
    /// An engine over the given corpus utterance ids (the wire format
    /// of the assignment messages). `net` fixes the architecture; its
    /// weights are whatever the first [`ShardEngine::set_theta`] says.
    pub(crate) fn new(
        rec: Arc<InMemoryRecorder>,
        corpus: &'a Corpus,
        objective: &'a Objective,
        net: Network<f32>,
        threads: usize,
        train_ids: &[u64],
        held_ids: &[u64],
    ) -> Self {
        ShardEngine {
            rec,
            corpus,
            objective,
            // One thread degrades to the sequential context.
            ctx: GemmContext::threaded(threads),
            scratch: net.clone(),
            net,
            train: shard_of(corpus, train_ids),
            heldout: shard_of(corpus, held_ids),
            ws: Workspace::new(),
            packs: None,
            sample: None,
        }
    }

    /// Give the curvature sample's buffers back to the arena.
    fn drop_sample(&mut self) {
        if let Some(s) = self.sample.take() {
            s.cache.give_back(&mut self.ws);
            self.ws.give_matrix(s.x);
            self.ws.give_matrix(s.dist);
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
    pub(crate) fn reshard(&mut self, train_ids: &[u64], held_ids: &[u64]) {
        self.train = shard_of(self.corpus, train_ids);
        self.heldout = shard_of(self.corpus, held_ids);
        self.drop_sample();
    }

    /// Hand a buffer the caller is done with (a received operand, a
    /// reduced result) to the arena.
    pub(crate) fn recycle(&mut self, buf: Vec<f32>) {
        self.ws.give_vec(buf);
    }

    /// Publish the arena gauges.
    pub(crate) fn report_arena(&self) {
        let stats = self.ws.stats();
        let rec = &self.rec;
        rec.gauge_set("arena_bytes_reused", stats.bytes_reused as f64);
        rec.gauge_set("arena_high_water_bytes", stats.high_water_bytes as f64);
    }

    /// `(Σ loss, Σ gradient, frames)` over the training shard.
    pub(crate) fn gradient_sums(&mut self) -> (f64, Vec<f32>, f64) {
        let _s = self.rec.span("gradient_loss", SpanKind::DenseCompute);
        if self.train.frames() == 0 {
            return (0.0, vec![0.0f32; self.net.num_params()], 0.0);
        }
        ensure_packs(&mut self.packs, &self.net, &self.ctx, &self.rec);
        let (net, train) = (&self.net, &self.train);
        let packs = self.packs.as_ref();
        let cache = net.forward_ws(&self.ctx, &train.x, packs, &mut self.ws);
        let (loss, dlogits) =
            eval_objective(self.objective, &cache, &train.labels, &train.utt_lens);
        let grad = backprop_ws(net, &self.ctx, &cache, &dlogits, packs, &mut self.ws);
        self.ws.give_matrix(dlogits);
        cache.give_back(&mut self.ws);
        (loss, grad, train.frames() as f64)
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
        let (x, labels, utt_lens) = extract_utterances(&self.train, &ids);
        if x.rows() == 0 {
            return;
        }
        // The cache outlives this call (it backs every product of the
        // solve), so it is forwarded outside the arena.
        let cache = self.net.forward(&self.ctx, &x);
        let dist = match self.objective {
            Objective::CrossEntropy => softmax_rows(cache.logits()),
            Objective::Sequence(graph) => {
                mmi_batch(cache.logits(), &labels, &utt_lens, graph).den_posteriors
            }
        };
        let packed_acts = PackedActivations::new(&cache, &self.ctx);
        self.sample = Some(CurvatureSample {
            x,
            labels,
            utt_lens,
            cache,
            dist,
            packed_acts,
        });
    }

    /// `(Σ G·v, frames)` over the curvature sample; zeros over zero
    /// frames when this rank drew none.
    pub(crate) fn gn_sums(&mut self, v: &[f32]) -> (Vec<f32>, f64) {
        let _s = self
            .rec
            .span("worker_curvature_product", SpanKind::DenseCompute);
        let Some(s) = &self.sample else {
            return (vec![0.0f32; self.net.num_params()], 0.0);
        };
        ensure_packs(&mut self.packs, &self.net, &self.ctx, &self.rec);
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
        (gv, s.x.rows() as f64)
    }

    /// `(Σ empirical-Fisher diagonal, frames)` over the curvature
    /// sample.
    pub(crate) fn fisher_sums(&mut self) -> (Vec<f32>, f64) {
        let _s = self
            .rec
            .span("worker_curvature_product", SpanKind::DenseCompute);
        let Some(s) = &self.sample else {
            return (vec![0.0f32; self.net.num_params()], 0.0);
        };
        let (_, dlogits) = eval_objective(self.objective, &s.cache, &s.labels, &s.utt_lens);
        let diag =
            pdnn_dnn::fisher::empirical_fisher_diagonal(&self.net, &self.ctx, &s.cache, &dlogits);
        (diag, s.x.rows() as f64)
    }

    /// `[Σ loss, Σ correct, frames]` of trial weights `theta` over the
    /// held-out shard.
    pub(crate) fn heldout_sums(&mut self, theta: &[f32]) -> [f64; 3] {
        let _s = self.rec.span("eval_heldout", SpanKind::DenseCompute);
        if self.heldout.frames() == 0 {
            return [0.0; 3];
        }
        // Trial weights change every call: no packs, but the arena
        // recycles the activation scratch.
        self.scratch.set_flat(theta);
        let logits = self
            .scratch
            .logits_ws(&self.ctx, &self.heldout.x, None, &mut self.ws);
        let labels = &self.heldout.labels;
        let (loss_sum, correct) = match self.objective {
            Objective::CrossEntropy => cross_entropy_loss_only(&logits, labels),
            Objective::Sequence(graph) => {
                let out = mmi_batch(&logits, labels, &self.heldout.utt_lens, graph);
                let correct = logits
                    .row_argmax()
                    .iter()
                    .zip(labels)
                    .filter(|(&p, &l)| p as u32 == l)
                    .count();
                (out.loss, correct)
            }
        };
        self.ws.give_matrix(logits);
        [loss_sum, correct as f64, self.heldout.frames() as f64]
    }
}
