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
//!
//! **Streamed passes.** The gradient and held-out sums walk the shard
//! in chunks of `kc` frames, the rows of one k-block of the GEMM
//! blocking (`ctx.blocking().kc`), so a rank holds one chunk of
//! activations, not its whole shard (paper Section V.A.4: 16–64 ranks
//! share a node's memory). Each chunk is forwarded, then
//! backpropagated once every utterance touching it has its dlogits:
//! at once under cross-entropy, when its last utterance closes under
//! MMI, so the window is `kc` frames plus the longest open utterance.
//! The sums come out bitwise the whole shard's: the whole-shard
//! `dW = δᵀ·a` GEMM cuts the frames on the same `kc` grid and merges
//! each later k-block with `β = 1`, which is how each later chunk's
//! `dW` merges into the running gradient, and the bias sums and the
//! `f64` loss continue one running accumulator in frame order. Every
//! other pass is row-independent.
//!
//! **The curvature sample, held once.** [`ShardEngine::draw_sample`]
//! forwards the sample in the same chunks, straight into its two packed
//! layouts ([`PackedActivations`]), and keeps only those, its logits
//! and its distribution: no raw activations. Each Gauss–Newton product
//! then walks the packed chunks (`gn_product_packed`), bitwise the
//! whole sample's product, with chunk-sized scratch, so a rank's memory
//! does not grow with the sample beyond the packs themselves. The
//! held-out pass reads the trial θ in place (`Network::logits_at`), so
//! no second network is kept for it.

use crate::problem::{sample_utterances, Objective};
use pdnn_dnn::backprop::backprop_ws;
use pdnn_dnn::fisher::empirical_fisher_diagonal_into;
use pdnn_dnn::gauss_newton::{gn_product_packed, Curvature};
use pdnn_dnn::loss::{cross_entropy_into, cross_entropy_loss_only, softmax_rows_into};
use pdnn_dnn::network::{ForwardCache, Network};
use pdnn_dnn::packed::{PackedActivations, PackedWeights};
use pdnn_dnn::sequence::mmi_batch_ws;
use pdnn_obs::{Recorder, RecorderExt, SpanKind};
use pdnn_speech::Shard;
use pdnn_tensor::gemm::GemmContext;
use pdnn_tensor::{Matrix, Workspace, WorkspaceStats};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// The curvature minibatch of one CG solve, less its activations: those
/// are held once, packed chunk by chunk, in the engine's
/// `sample_packs`. Its logits and distribution are arena takes, given
/// back when the sample is dropped.
struct CurvatureSample {
    labels: Vec<u32>,
    utt_lens: Vec<usize>,
    /// The shard frames of each sampled utterance, in sample order: the
    /// sample's frames are these laid end to end.
    spans: Vec<Range<usize>>,
    /// The sample's logits (the MMI denominator and the Fisher
    /// diagonal's dlogits need whole utterances).
    logits: Matrix<f32>,
    /// Softmax rows (CE) or denominator occupancies (MMI).
    dist: Matrix<f32>,
}

impl CurvatureSample {
    fn frames(&self) -> f64 {
        self.logits.rows() as f64
    }
}

/// Copy frames `rows` of a sample, the frames of `shard_x` at `spans`
/// laid end to end, into `x`.
fn gather_sample_rows(
    shard_x: &Matrix<f32>,
    spans: &[Range<usize>],
    rows: &Range<usize>,
    x: &mut Matrix<f32>,
) {
    let cols = x.cols();
    let mut at = 0;
    for span in spans {
        let (lo, hi) = (rows.start.max(at), rows.end.min(at + span.len()));
        if lo < hi {
            let src = span.start + (lo - at);
            x.as_mut_slice()[(lo - rows.start) * cols..(hi - rows.start) * cols]
                .copy_from_slice(shard_x.rows_slice(src, src + (hi - lo)));
        }
        at += span.len();
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

/// What a rank's memory gauges are made of.
pub(crate) struct RankMemory {
    /// Its arena's counters (high water and reuse).
    pub(crate) arena: WorkspaceStats,
    /// Bytes of its weight packs and packed curvature sample.
    pub(crate) pack_bytes: u64,
    /// Bytes of its model's parameters.
    pub(crate) model_bytes: u64,
}

/// Publish a rank's memory gauges: its owner's `arena_*` counters,
/// its thread's `gemm_scratch_bytes`, its `pack_bytes` and
/// `model_bytes`, its communicator's `payload_pool_high_water_bytes`
/// (if any), and their sum `memory_high_water_bytes`.
pub(crate) fn report_memory(rec: &dyn Recorder, mem: RankMemory, pool: Option<u64>) {
    let scratch = pdnn_tensor::gemm::scratch::retained_bytes() as u64;
    rec.gauge_set("arena_bytes_reused", mem.arena.bytes_reused as f64);
    rec.gauge_set("arena_high_water_bytes", mem.arena.high_water_bytes as f64);
    rec.gauge_set("gemm_scratch_bytes", scratch as f64);
    rec.gauge_set("pack_bytes", mem.pack_bytes as f64);
    rec.gauge_set("model_bytes", mem.model_bytes as f64);
    if let Some(bytes) = pool {
        rec.gauge_set("payload_pool_high_water_bytes", bytes as f64);
    }
    let total =
        mem.arena.high_water_bytes + scratch + mem.pack_bytes + mem.model_bytes + pool.unwrap_or(0);
    rec.gauge_set("memory_high_water_bytes", total as f64);
}

/// Summed loss + dlogits of a batch's `logits` under the objective,
/// the dlogits an arena take: hand them back to `ws`.
fn eval_objective(
    objective: &Objective,
    logits: &Matrix<f32>,
    labels: &[u32],
    utt_lens: &[usize],
    ws: &mut Workspace<f32>,
    tables: &mut Workspace<f64>,
) -> (f64, Matrix<f32>) {
    match objective {
        Objective::CrossEntropy => {
            let mut dlogits = ws.take_matrix_scratch(logits.rows(), logits.cols());
            let (loss, _) = cross_entropy_into(logits, labels, &mut dlogits, 0.0);
            (loss, dlogits)
        }
        Objective::Sequence(graph) => {
            let out = mmi_batch_ws(logits, labels, utt_lens, graph, 0.0, ws, tables);
            ws.give_matrix(out.den_posteriors);
            (out.loss, out.dlogits)
        }
    }
}

/// The chunks of a streamed pass over `frames` frames: `kc` rows
/// each, the last one ragged.
fn chunks(frames: usize, kc: usize) -> impl Iterator<Item = Range<usize>> {
    (0..frames)
        .step_by(kc)
        .map(move |r0| r0..frames.min(r0 + kc))
}

/// The utterances of a shard, closed in order as a streamed pass
/// reaches their ends.
struct Utterances<'s> {
    lens: &'s [usize],
    /// Utterances closed so far.
    closed: usize,
    /// The frame they end at.
    end: usize,
}

impl<'s> Utterances<'s> {
    fn new(lens: &'s [usize]) -> Self {
        Utterances {
            lens,
            closed: 0,
            end: 0,
        }
    }

    /// Close every utterance that ends by frame `frame`; returns the
    /// ones this call closed and the frames they cover.
    fn close_through(&mut self, frame: usize) -> (Range<usize>, Range<usize>) {
        let (u0, f0) = (self.closed, self.end);
        while self.closed < self.lens.len() && self.end + self.lens[self.closed] <= frame {
            self.end += self.lens[self.closed];
            self.closed += 1;
        }
        (u0..self.closed, f0..self.end)
    }
}

/// Copy the frames that both `src` (holding frames `src_at`) and
/// `dst` (holding frames `dst_at`) hold from `src` into `dst`.
fn copy_overlap(
    src: &Matrix<f32>,
    src_at: &Range<usize>,
    dst: &mut Matrix<f32>,
    dst_at: &Range<usize>,
) {
    let (lo, hi) = (src_at.start.max(dst_at.start), src_at.end.min(dst_at.end));
    if lo < hi {
        let cols = src.cols();
        dst.as_mut_slice()[(lo - dst_at.start) * cols..(hi - dst_at.start) * cols]
            .copy_from_slice(src.rows_slice(lo - src_at.start, hi - src_at.start));
    }
}

/// Frames `rows` of the logits held by `chunks` (each with the frames
/// it holds, in order): the first chunk's own matrix when it holds
/// exactly those frames, else a copy gathered into an arena buffer,
/// which goes back with [`recycle_chunk`].
fn closed_logits<'c>(
    chunks: impl Iterator<Item = (&'c Range<usize>, &'c Matrix<f32>)> + Clone,
    rows: &Range<usize>,
    cols: usize,
    ws: &mut Workspace<f32>,
) -> Cow<'c, Matrix<f32>> {
    if let Some((_, own)) = chunks.clone().next().filter(|(at, _)| *at == rows) {
        return Cow::Borrowed(own);
    }
    // Scratch take: the chunks cover `rows`, so every row is written.
    let mut out = ws.take_matrix_scratch(rows.len(), cols);
    for (at, logits) in chunks {
        copy_overlap(logits, at, &mut out, rows);
    }
    Cow::Owned(out)
}

/// Frames argmax-classified as their label.
fn hits(logits: &Matrix<f32>, labels: &[u32]) -> usize {
    logits
        .row_argmax()
        .iter()
        .zip(labels)
        .filter(|(&p, &l)| p as u32 == l)
        .count()
}

/// One chunk of the streamed gradient pass, forwarded and waiting for
/// the dlogits of its frames.
struct PendingChunk {
    rows: Range<usize>,
    cache: ForwardCache<f32>,
    dlogits: Matrix<f32>,
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
    train: Shard,
    heldout: Shard,
    /// The rank's memory owner: every `f32` buffer of every phase is
    /// a take from it, given back when the phase ends.
    ws: Workspace<f32>,
    /// The sequence objective's `f64` forward–backward tables, gauged
    /// with `ws`.
    tables: Workspace<f64>,
    packs: Option<PackedWeights<f32>>,
    sample: Option<CurvatureSample>,
    /// The sample's activations, held only here: packed chunk by chunk
    /// by the draw, read by every product of the solve, and repacked
    /// in place by the next draw.
    sample_packs: PackedActivations<f32>,
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
            net,
            train,
            heldout,
            ws: Workspace::new(),
            tables: Workspace::new(),
            packs: None,
            sample: None,
            sample_packs: PackedActivations::empty(),
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

    /// The arena's counters; its high water counts the sequence tables.
    pub(crate) fn arena_stats(&self) -> WorkspaceStats {
        let mut stats = self.ws.stats();
        stats.high_water_bytes += self.tables.stats().high_water_bytes;
        stats
    }

    /// The rank's memory: its arena, its packs (weights and sample) and
    /// its model.
    pub(crate) fn memory(&self) -> RankMemory {
        let weights = self.packs.as_ref().map_or(0, PackedWeights::bytes);
        RankMemory {
            arena: self.arena_stats(),
            pack_bytes: (weights + self.sample_packs.bytes()) as u64,
            model_bytes: (self.net.num_params() * std::mem::size_of::<f32>()) as u64,
        }
    }

    /// Drop the curvature sample, giving its buffers back.
    fn drop_sample(&mut self) {
        self.sample_packs.clear();
        if let Some(s) = self.sample.take() {
            self.ws.give_matrix(s.logits);
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
    pub(crate) fn reshard(&mut self, train: Shard, heldout: Shard) {
        self.train = train;
        self.heldout = heldout;
        self.drop_sample();
    }

    /// A buffer of `len` elements, contents unspecified, from the
    /// engine's arena ([`crate::HfProblem::lease`]).
    pub(crate) fn lease(&mut self, len: usize) -> Vec<f32> {
        self.ws.lease_vec(len)
    }

    /// Give back a buffer this engine handed out (a `*_sums` result
    /// the caller has reduced, or a lease). Only such buffers: the
    /// arena's takes consume what it gets back, so a buffer it never
    /// took (a received operand) would stay parked for good and grow it
    /// by one vector per call.
    pub(crate) fn recycle(&mut self, buf: Vec<f32>) {
        self.ws.give_vec(buf);
    }

    /// `(Σ loss, Σ gradient, frames)` over the training shard, in one
    /// streamed pass (module docs): bitwise the sums of the whole shard
    /// at once, while at most `kc` frames plus the longest open
    /// utterance are held.
    pub(crate) fn gradient_sums(&mut self) -> (f64, Vec<f32>, f64) {
        let _s = self.rec.span("gradient_loss", SpanKind::DenseCompute);
        if self.train.frames() == 0 {
            return (0.0, self.ws.take_vec(self.net.num_params()), 0.0);
        }
        ensure_packs(&mut self.packs, &self.net, &self.ctx, &*self.rec);
        let (net, ctx, train) = (&self.net, &self.ctx, &self.train);
        let (ws, tables) = (&mut self.ws, &mut self.tables);
        let packs = self.packs.as_ref();
        let classes = net.output_dim();
        let mut grad = Vec::new();
        let mut loss = 0.0f64;
        let mut utts = Utterances::new(&train.utt_lens);
        let mut pending: VecDeque<PendingChunk> = VecDeque::new();
        for rows in chunks(train.frames(), ctx.blocking().kc) {
            let mut x = ws.take_matrix_scratch(rows.len(), train.x.cols());
            x.as_mut_slice()
                .copy_from_slice(train.x.rows_slice(rows.start, rows.end));
            let cache = net.forward_taken(ctx, x, packs, ws);
            let ready = match &*self.objective {
                Objective::CrossEntropy => {
                    let labels = &train.labels[rows.clone()];
                    let mut dlogits = ws.take_matrix_scratch(rows.len(), classes);
                    (loss, _) = cross_entropy_into(cache.logits(), labels, &mut dlogits, loss);
                    pending.push_back(PendingChunk {
                        rows: rows.clone(),
                        cache,
                        dlogits,
                    });
                    rows.end
                }
                Objective::Sequence(graph) => {
                    let (closed, frames) = utts.close_through(rows.end);
                    let (labels, lens) = (&train.labels[frames.clone()], &train.utt_lens[closed]);
                    if frames == rows {
                        // Whole utterances, none open before: the
                        // chunk's own logits, nothing gathered.
                        let out =
                            mmi_batch_ws(cache.logits(), labels, lens, graph, loss, ws, tables);
                        loss = out.loss;
                        ws.give_matrix(out.den_posteriors);
                        pending.push_back(PendingChunk {
                            rows,
                            cache,
                            dlogits: out.dlogits,
                        });
                    } else {
                        // Scratch take: every row is written by the
                        // MMI pass that closes its utterance, before
                        // the chunk is backpropagated.
                        let dlogits = ws.take_matrix_scratch(rows.len(), classes);
                        pending.push_back(PendingChunk {
                            rows,
                            cache,
                            dlogits,
                        });
                        if !frames.is_empty() {
                            let held = pending.iter().map(|c| (&c.rows, c.cache.logits()));
                            let logits = closed_logits(held, &frames, classes, ws);
                            let out = mmi_batch_ws(&logits, labels, lens, graph, loss, ws, tables);
                            recycle_chunk(logits, ws);
                            loss = out.loss;
                            for c in pending.iter_mut() {
                                copy_overlap(&out.dlogits, &frames, &mut c.dlogits, &c.rows);
                            }
                            ws.give_matrix(out.dlogits);
                            ws.give_matrix(out.den_posteriors);
                        }
                    }
                    frames.end
                }
            };
            while let Some(c) = pending.pop_front_if(|c| c.rows.end <= ready) {
                // The sum is taken at the first backprop, where a pass
                // over the whole shard at once takes its gradient.
                let accumulate = !grad.is_empty();
                if !accumulate {
                    grad = ws.take_vec_scratch(net.num_params());
                }
                backprop_ws(
                    net, ctx, &c.cache, &c.dlogits, packs, ws, &mut grad, accumulate,
                );
                ws.give_matrix(c.dlogits);
                c.cache.give_back(ws);
            }
        }
        debug_assert!(
            pending.is_empty(),
            "every utterance closes by the shard's end"
        );
        (loss, grad, train.frames() as f64)
    }

    /// Redraw the curvature sample: a `fraction` of the local
    /// utterances from a per-rank stream, so the overall sample is the
    /// union of the per-rank samples. The sample is forwarded in chunks
    /// of `kc` frames, each packed straight into `sample_packs`; only
    /// the packs, the logits and the distribution are kept.
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
        let starts: Vec<usize> = self
            .train
            .utt_lens
            .iter()
            .scan(0, |at, &len| {
                *at += len;
                Some(*at - len)
            })
            .collect();
        let spans: Vec<Range<usize>> = ids
            .iter()
            .map(|&i| starts[i]..starts[i] + self.train.utt_lens[i])
            .collect();
        let rows: usize = spans.iter().map(Range::len).sum();
        if rows == 0 {
            return;
        }
        let labels: Vec<u32> = spans
            .iter()
            .flat_map(|span| &self.train.labels[span.clone()])
            .copied()
            .collect();
        let utt_lens: Vec<usize> = spans.iter().map(Range::len).collect();
        // The weight packs serve the sample forward too: bitwise the
        // unpacked forward.
        ensure_packs(&mut self.packs, &self.net, &self.ctx, &*self.rec);
        let (net, ctx, packs) = (&self.net, &self.ctx, self.packs.as_ref());
        let ws = &mut self.ws;
        let classes = net.output_dim();
        // Scratch take: every chunk writes its rows.
        let mut logits = ws.take_matrix_scratch(rows, classes);
        for chunk in chunks(rows, ctx.blocking().kc) {
            let mut x = ws.take_matrix_scratch(chunk.len(), self.train.x.cols());
            gather_sample_rows(&self.train.x, &spans, &chunk, &mut x);
            let cache = net.forward_taken(ctx, x, packs, ws);
            self.sample_packs.push_chunk(&cache, ctx);
            logits.as_mut_slice()[chunk.start * classes..chunk.end * classes]
                .copy_from_slice(cache.logits().as_slice());
            cache.give_back(ws);
        }
        let dist = match &*self.objective {
            Objective::CrossEntropy => {
                let mut dist = ws.take_matrix_scratch(rows, classes);
                softmax_rows_into(&logits, &mut dist);
                dist
            }
            Objective::Sequence(graph) => {
                let out = mmi_batch_ws(
                    &logits,
                    &labels,
                    &utt_lens,
                    graph,
                    0.0,
                    ws,
                    &mut self.tables,
                );
                ws.give_matrix(out.dlogits);
                out.den_posteriors
            }
        };
        self.sample = Some(CurvatureSample {
            labels,
            utt_lens,
            spans,
            logits,
            dist,
        });
    }

    /// `(Σ G·v, frames)` over the curvature sample, streamed over its
    /// packed chunks; zeros over zero frames when this rank drew none.
    pub(crate) fn gn_sums(&mut self, v: &[f32]) -> (Vec<f32>, f64) {
        let _s = self
            .rec
            .span("worker_curvature_product", SpanKind::DenseCompute);
        let Some(s) = &self.sample else {
            return (self.ws.take_vec(self.net.num_params()), 0.0);
        };
        ensure_packs(&mut self.packs, &self.net, &self.ctx, &*self.rec);
        let gv = gn_product_packed(
            &self.net,
            &self.ctx,
            &self.sample_packs,
            Curvature::Fisher(&s.dist),
            v,
            self.packs.as_ref(),
            &mut self.ws,
        );
        (gv, s.frames())
    }

    /// `(Σ empirical-Fisher diagonal, frames)` over the curvature
    /// sample: the dlogits from the kept logits, then each chunk
    /// forwarded again (the forward is batch-invariant, so bitwise the
    /// draw's activations) and summed in like a gradient chunk.
    pub(crate) fn fisher_sums(&mut self) -> (Vec<f32>, f64) {
        let _s = self
            .rec
            .span("worker_curvature_product", SpanKind::DenseCompute);
        let Some(s) = &self.sample else {
            return (self.ws.take_vec(self.net.num_params()), 0.0);
        };
        // The draw packed the weights of this θ (a new θ drops the
        // sample).
        let (net, ctx, packs) = (&self.net, &self.ctx, self.packs.as_ref());
        let (ws, tables) = (&mut self.ws, &mut self.tables);
        let (_, dlogits) = eval_objective(
            &self.objective,
            &s.logits,
            &s.labels,
            &s.utt_lens,
            ws,
            tables,
        );
        // Returned in an arena buffer, so handing it back parks only
        // what the arena gave out; the first chunk writes all of it.
        let mut out = ws.take_vec_scratch(net.num_params());
        for (i, rows) in chunks(dlogits.rows(), ctx.blocking().kc).enumerate() {
            let mut x = ws.take_matrix_scratch(rows.len(), self.train.x.cols());
            gather_sample_rows(&self.train.x, &s.spans, &rows, &mut x);
            let cache = net.forward_taken(ctx, x, packs, ws);
            let d = chunk_input(&dlogits, &rows, ws);
            empirical_fisher_diagonal_into(net, ctx, &cache, &d, &mut out, i > 0);
            recycle_chunk(d, ws);
            cache.give_back(ws);
        }
        ws.give_matrix(dlogits);
        (out, s.frames())
    }

    /// `[Σ loss, Σ correct, frames]` of trial weights `theta` over the
    /// held-out shard, streamed like [`Self::gradient_sums`] but
    /// forward only: under MMI only the logits of chunks with an open
    /// utterance are held.
    pub(crate) fn heldout_sums(&mut self, theta: &[f32]) -> [f64; 3] {
        let _s = self.rec.span("eval_heldout", SpanKind::DenseCompute);
        if self.heldout.frames() == 0 {
            return [0.0; 3];
        }
        // Trial weights change every call: no packs, the GEMMs read
        // them in place from `theta`, and the arena recycles the
        // activation scratch.
        let (net, ctx, heldout) = (&self.net, &self.ctx, &self.heldout);
        let (ws, tables) = (&mut self.ws, &mut self.tables);
        let mut loss = 0.0f64;
        let mut correct = 0usize;
        let mut utts = Utterances::new(&heldout.utt_lens);
        let mut open: VecDeque<(Range<usize>, Matrix<f32>)> = VecDeque::new();
        for rows in chunks(heldout.frames(), ctx.blocking().kc) {
            let x = chunk_input(&heldout.x, &rows, ws);
            let logits = net.logits_at(ctx, &x, theta, ws);
            recycle_chunk(x, ws);
            let labels = &heldout.labels[rows.clone()];
            match &*self.objective {
                Objective::CrossEntropy => {
                    let chunk_hits;
                    (loss, chunk_hits) = cross_entropy_loss_only(&logits, labels, loss);
                    correct += chunk_hits;
                    ws.give_matrix(logits);
                }
                Objective::Sequence(graph) => {
                    // Frame accuracy is still argmax-vs-alignment.
                    correct += hits(&logits, labels);
                    let (closed, frames) = utts.close_through(rows.end);
                    open.push_back((rows, logits));
                    if !frames.is_empty() {
                        let held = open.iter().map(|(at, l)| (at, l));
                        let batch = closed_logits(held, &frames, net.output_dim(), ws);
                        let (labels, lens) =
                            (&heldout.labels[frames.clone()], &heldout.utt_lens[closed]);
                        let out = mmi_batch_ws(&batch, labels, lens, graph, loss, ws, tables);
                        loss = out.loss;
                        recycle_chunk(batch, ws);
                        ws.give_matrix(out.dlogits);
                        ws.give_matrix(out.den_posteriors);
                    }
                    while let Some((_, done)) = open.pop_front_if(|(at, _)| at.end <= frames.end) {
                        ws.give_matrix(done);
                    }
                }
            }
        }
        [loss, correct as f64, heldout.frames() as f64]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdnn_dnn::Activation;
    use pdnn_obs::NullRecorder;
    use pdnn_speech::{Corpus, CorpusSpec};
    use pdnn_tensor::gemm::Blocking;
    use pdnn_util::Prng;

    fn corpus_and_net() -> (Corpus, Network<f32>) {
        let corpus = Corpus::generate(CorpusSpec::tiny(5));
        let mut rng = Prng::new(1);
        let dims = [corpus.spec().feature_dim, 16, corpus.spec().states];
        let net = Network::new(&dims, Activation::Sigmoid, &mut rng);
        (corpus, net)
    }

    fn engine(net: &Network<f32>, objective: Objective, shard: Shard) -> ShardEngine<'static> {
        engine_on(GemmContext::sequential(), net, objective, shard)
    }

    fn engine_on(
        ctx: GemmContext,
        net: &Network<f32>,
        objective: Objective,
        shard: Shard,
    ) -> ShardEngine<'static> {
        ShardEngine::new(
            Arc::new(NullRecorder),
            ctx,
            Cow::Owned(objective),
            net.clone(),
            shard.clone(),
            shard,
        )
    }

    fn with_kc(kc: usize) -> GemmContext {
        GemmContext::sequential().with_blocking(Blocking {
            kc,
            ..Blocking::default()
        })
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

    /// A shard that fits one chunk costs the engine exactly the arena
    /// traffic of the bare kernel calls; the held-out pass reads it by
    /// reference, with no take for a copy.
    #[test]
    fn one_chunk_sums_add_no_arena_take() {
        let (corpus, net) = corpus_and_net();
        let all: Vec<usize> = (0..corpus.utterances().len()).collect();
        let shard = corpus.shard(&all);
        let ctx = with_kc(shard.frames());
        let traffic = |s: WorkspaceStats| (s.allocs, s.reuses, s.bytes_reused);

        let mut e = engine_on(ctx.clone(), &net, Objective::CrossEntropy, shard.clone());
        let (loss, grad, frames) = e.gradient_sums();
        let mut ws = Workspace::new();
        let packs = PackedWeights::new(&net, &ctx);
        let cache = net.forward_ws(&ctx, &shard.x, Some(&packs), &mut ws);
        let logits = cache.logits();
        let mut dlogits = ws.take_matrix_scratch(logits.rows(), logits.cols());
        let mut want = ws.take_vec_scratch(net.num_params());
        let (want_loss, _) = cross_entropy_into(logits, &shard.labels, &mut dlogits, 0.0);
        backprop_ws(
            &net,
            &ctx,
            &cache,
            &dlogits,
            Some(&packs),
            &mut ws,
            &mut want,
            false,
        );
        assert_eq!(
            (loss, grad, frames),
            (want_loss, want, shard.frames() as f64)
        );
        assert_eq!(traffic(e.arena_stats()), traffic(ws.stats()));

        let mut e = engine_on(ctx.clone(), &net, Objective::CrossEntropy, shard.clone());
        e.heldout_sums(&net.to_flat());
        let mut ws = Workspace::new();
        net.logits_ws(&ctx, &shard.x, None, &mut ws);
        assert_eq!(traffic(e.arena_stats()), traffic(ws.stats()));

        // Several chunks: each is one more take, for its copy.
        let kc = shard.frames() / 2 + 1;
        let mut e = engine_on(with_kc(kc), &net, Objective::CrossEntropy, shard.clone());
        e.heldout_sums(&net.to_flat());
        let takes = |s: WorkspaceStats| s.allocs + s.reuses;
        assert_eq!(takes(e.arena_stats()), 2 * (takes(ws.stats()) + 1));
    }

    /// The streamed gradient pass holds one chunk: over shards of 4 and
    /// 16 chunks its arena peaks at the same high water.
    #[test]
    fn gradient_working_set_is_one_chunk() {
        let kc = 32;
        let corpus = Corpus::generate(CorpusSpec {
            utterances: 40,
            ..CorpusSpec::tiny(5)
        });
        let all: Vec<usize> = (0..corpus.utterances().len()).collect();
        let whole = corpus.shard(&all);
        assert!(
            whole.frames() >= 16 * kc,
            "corpus of {} frames",
            whole.frames()
        );
        let mut rng = Prng::new(1);
        let dims = [corpus.spec().feature_dim, 16, corpus.spec().states];
        let net = Network::new(&dims, Activation::Sigmoid, &mut rng);
        let high_water = |frames: usize| {
            let shard = Shard {
                x: whole.x.rows_copy(0, frames),
                labels: whole.labels[..frames].to_vec(),
                utt_lens: vec![frames],
            };
            let mut e = engine_on(with_kc(kc), &net, Objective::CrossEntropy, shard);
            let (_, grad, _) = e.gradient_sums();
            e.recycle(grad);
            e.arena_stats().high_water_bytes
        };
        assert_eq!(high_water(4 * kc), high_water(16 * kc));
    }

    /// A shard of one `frames`-frame utterance, from the front of a
    /// corpus of `utterances`.
    fn one_utterance(frames: usize) -> (Shard, Network<f32>) {
        let corpus = Corpus::generate(CorpusSpec {
            utterances: 40,
            ..CorpusSpec::tiny(5)
        });
        let all: Vec<usize> = (0..corpus.utterances().len()).collect();
        let whole = corpus.shard(&all);
        assert!(
            whole.frames() >= frames,
            "corpus of {} frames",
            whole.frames()
        );
        let mut rng = Prng::new(1);
        let dims = [corpus.spec().feature_dim, 16, corpus.spec().states];
        let shard = Shard {
            x: whole.x.rows_copy(0, frames),
            labels: whole.labels[..frames].to_vec(),
            utt_lens: vec![frames],
        };
        (shard, Network::new(&dims, Activation::Sigmoid, &mut rng))
    }

    /// The sample is held once, as packed chunks, and a GN solve's
    /// scratch is chunk-sized: over samples of 4 and 16 chunks the
    /// arena peaks at the same high water.
    #[test]
    fn gn_solve_working_set_is_one_chunk() {
        let kc = 32;
        let high_water = |frames: usize| {
            let (shard, net) = one_utterance(frames);
            let mut e = engine_on(with_kc(kc), &net, Objective::CrossEntropy, shard);
            e.draw_sample(7, 1.0, 0);
            let mut rng = Prng::new(2);
            for _ in 0..3 {
                let v: Vec<f32> = (0..net.num_params()).map(|_| rng.normal() as f32).collect();
                let (gv, n) = e.gn_sums(&v);
                assert_eq!(n, frames as f64);
                e.recycle(gv);
            }
            e.arena_stats().high_water_bytes
        };
        assert_eq!(high_water(4 * kc), high_water(16 * kc));
    }

    /// The packs the draw builds chunk by chunk are the packs of the
    /// whole sample's forward pass, and the engine holds no other copy
    /// of its activations.
    #[test]
    fn drawn_packs_are_the_whole_sample_packs() {
        let kc = 16;
        let (shard, net) = one_utterance(5 * kc + 3);
        let ctx = with_kc(kc);
        let mut e = engine_on(ctx.clone(), &net, Objective::CrossEntropy, shard.clone());
        e.draw_sample(7, 1.0, 0);
        let want = PackedActivations::new(&net.forward(&ctx, &shard.x), &ctx);
        assert_eq!(e.sample_packs, want);
        let logits = net.logits(&ctx, &shard.x);
        assert_eq!(e.sample.as_ref().map(|s| &s.logits), Some(&logits));
        // A smaller redraw is still the whole sample's pack: the spare
        // chunks keep their buffers but hold no frames.
        let (small, _) = one_utterance(kc + 1);
        e.reshard(small.clone(), small.clone());
        e.draw_sample(7, 1.0, 0);
        let want = PackedActivations::new(&net.forward(&ctx, &small.x), &ctx);
        assert_eq!(e.sample_packs.frames(), kc + 1);
        assert_eq!(e.sample_packs, want);
    }
}
