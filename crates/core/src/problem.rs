//! The [`HfProblem`] abstraction and its serial DNN implementation.
//!
//! The optimizer (Algorithm 1) is written against a small trait with
//! exactly the operations the paper's master performs: evaluate the
//! gradient over all training data, redraw a curvature minibatch,
//! compute damped Gauss–Newton products on it, and evaluate trial
//! parameters on held-out data. Every implementation gets the sums
//! behind those operations from one `ShardEngine` (`crate::shard`)
//! and differs only in how they are aggregated: [`DnnProblem`] holds
//! all the data in one shard, so it just divides by the frame count;
//! `crate::distributed` reduces them to a master or allreduces them
//! between peers first. The optimizer cannot tell the difference,
//! which is what makes the serial-vs-distributed parity tests
//! meaningful.

use crate::shard::ShardEngine;
use pdnn_dnn::network::Network;
use pdnn_dnn::sequence::DenominatorGraph;
use pdnn_obs::{NullRecorder, Recorder};
use pdnn_speech::Shard;
use pdnn_tensor::gemm::GemmContext;
use pdnn_tensor::Matrix;
use pdnn_util::Prng;
use std::borrow::Cow;
use std::sync::Arc;

/// Training objective (the two criteria of the paper's Table I).
#[derive(Clone, Debug)]
pub enum Objective {
    /// Frame-level softmax cross-entropy.
    CrossEntropy,
    /// Utterance-level MMI with the given denominator graph.
    Sequence(DenominatorGraph),
}

/// Held-out evaluation result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeldoutEval {
    /// Mean per-frame loss.
    pub loss: f64,
    /// Frame classification accuracy (argmax vs target).
    pub accuracy: f64,
    /// Frames evaluated.
    pub frames: u64,
}

/// The operations Algorithm 1 needs from a training problem.
pub trait HfProblem {
    /// Dimension of θ.
    fn num_params(&self) -> usize;
    /// Current parameters.
    fn theta(&self) -> Vec<f32>;
    /// Overwrite parameters (invalidates any cached curvature state).
    fn set_theta(&mut self, theta: &[f32]);
    /// Mean-per-frame training loss and gradient at the current θ.
    fn gradient(&mut self) -> (f64, Vec<f32>);
    /// Redraw the curvature minibatch (a `fraction` of utterances,
    /// deterministic in `seed`) and cache the forward state at the
    /// current θ.
    fn sample_curvature(&mut self, seed: u64, fraction: f64);
    /// Undamped Gauss–Newton product, mean per sampled frame.
    fn gn_product(&mut self, v: &[f32]) -> Vec<f32>;
    /// Mean-per-frame empirical-Fisher diagonal over the curvature
    /// sample (`diag(Σ ∇L_f²)/frames`), used by the optional CG
    /// preconditioner. `None` when the problem does not support it.
    fn fisher_diagonal(&mut self) -> Option<Vec<f32>> {
        None
    }
    /// Held-out loss/accuracy at arbitrary trial parameters.
    fn heldout_eval(&mut self, theta: &[f32]) -> HeldoutEval;
    /// Total training frames (for reporting).
    fn train_frames(&self) -> u64;
}

/// Serial in-process implementation of [`HfProblem`]: engine call →
/// normalise.
pub struct DnnProblem {
    engine: ShardEngine<'static>,
}

/// Turn a sum over `frames` frames into a mean. The constructor rejects
/// empty shards, so only a curvature call can find nothing to average.
fn mean_of(mut sum: Vec<f32>, frames: f64) -> Vec<f32> {
    assert!(
        frames > 0.0,
        "no curvature sample: call sample_curvature first"
    );
    pdnn_tensor::blas1::scal((1.0 / frames) as f32, &mut sum);
    sum
}

impl DnnProblem {
    /// Build a problem around a network and data shards.
    ///
    /// # Panics
    /// If a shard is empty, shard feature widths do not match the
    /// network input, or a label is out of the network's class range.
    pub fn new(
        net: Network<f32>,
        ctx: GemmContext,
        train: Shard,
        heldout: Shard,
        objective: Objective,
    ) -> Self {
        assert_eq!(train.x.cols(), net.input_dim(), "train feature width");
        assert_eq!(heldout.x.cols(), net.input_dim(), "heldout feature width");
        // A mean over no frames is not a loss: an empty held-out set
        // would score every trial as perfect.
        assert!(train.frames() > 0, "empty training shard");
        assert!(heldout.frames() > 0, "empty held-out shard");
        let classes = net.output_dim() as u32;
        assert!(
            train.labels.iter().all(|&l| l < classes),
            "train label out of range"
        );
        assert!(
            heldout.labels.iter().all(|&l| l < classes),
            "heldout label out of range"
        );
        if let Objective::Sequence(g) = &objective {
            assert_eq!(
                g.states(),
                net.output_dim(),
                "denominator graph states != network outputs"
            );
        }
        let rec = Arc::new(NullRecorder);
        DnnProblem {
            engine: ShardEngine::new(rec, ctx, Cow::Owned(objective), net, train, heldout),
        }
    }

    /// Attach a recorder for the compute spans and the pack-cache and
    /// arena telemetry.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.engine.rec = recorder;
        self
    }

    /// Bound the number of frames materialized per forward pass.
    ///
    /// Training activations cost `frames x Σ layer widths` floats; a
    /// 144 M-frame corpus cannot be forwarded in one batch. Chunks
    /// respect utterance boundaries (required by the sequence
    /// criterion), so a single utterance longer than the bound still
    /// forms one chunk.
    pub fn with_max_batch_frames(mut self, frames: usize) -> Self {
        assert!(frames > 0, "max_batch_frames must be positive");
        self.engine.max_batch_frames = frames;
        self
    }

    /// The network being trained.
    pub fn network(&self) -> &Network<f32> {
        self.engine.net()
    }

    /// Consume, returning the trained network.
    pub fn into_network(self) -> Network<f32> {
        self.engine.into_net()
    }

    /// Arena statistics (allocations avoided, bytes recycled).
    pub fn workspace_stats(&self) -> pdnn_tensor::WorkspaceStats {
        self.engine.arena_stats()
    }
}

impl HfProblem for DnnProblem {
    fn num_params(&self) -> usize {
        self.engine.net().num_params()
    }

    fn theta(&self) -> Vec<f32> {
        self.engine.net().to_flat()
    }

    fn set_theta(&mut self, theta: &[f32]) {
        self.engine.set_theta(theta);
    }

    fn gradient(&mut self) -> (f64, Vec<f32>) {
        let (loss_sum, grad, frames) = self.engine.gradient_sums();
        (loss_sum / frames, mean_of(grad, frames))
    }

    fn sample_curvature(&mut self, seed: u64, fraction: f64) {
        self.engine.draw_sample(seed, fraction, 0);
    }

    fn gn_product(&mut self, v: &[f32]) -> Vec<f32> {
        let (gv, frames) = self.engine.gn_sums(v);
        let gv = mean_of(gv, frames);
        self.engine.report_arena();
        gv
    }

    fn fisher_diagonal(&mut self) -> Option<Vec<f32>> {
        let (diag, frames) = self.engine.fisher_sums();
        Some(mean_of(diag, frames))
    }

    fn heldout_eval(&mut self, theta: &[f32]) -> HeldoutEval {
        let [loss_sum, correct, frames] = self.engine.heldout_sums(theta);
        HeldoutEval {
            loss: loss_sum / frames,
            accuracy: correct / frames,
            frames: frames as u64,
        }
    }

    fn train_frames(&self) -> u64 {
        self.engine.train_frames() as u64
    }
}

/// Split a shard's utterances into chunks of at most `max_frames`
/// frames (a single over-long utterance forms its own chunk).
/// Returns `(utterance index range, frame row range)` pairs covering
/// the shard exactly.
pub fn chunk_ranges(
    utt_lens: &[usize],
    max_frames: usize,
) -> Vec<(std::ops::Range<usize>, std::ops::Range<usize>)> {
    assert!(max_frames > 0, "max_frames must be positive");
    let mut out = Vec::new();
    let mut u_start = 0usize;
    let mut f_start = 0usize;
    let mut f_cursor = 0usize;
    for (u, &len) in utt_lens.iter().enumerate() {
        // Close the current chunk if adding this utterance overflows
        // a non-empty chunk.
        if f_cursor > f_start && f_cursor - f_start + len > max_frames {
            out.push((u_start..u, f_start..f_cursor));
            u_start = u;
            f_start = f_cursor;
        }
        f_cursor += len;
    }
    if (f_cursor > f_start || utt_lens.is_empty()) && !utt_lens.is_empty() {
        out.push((u_start..utt_lens.len(), f_start..f_cursor));
    }
    out
}

/// Deterministically sample a fraction of utterances (at least one).
pub fn sample_utterances(utt_lens: &[usize], fraction: f64, seed: u64) -> Vec<usize> {
    assert!(!utt_lens.is_empty(), "cannot sample from an empty shard");
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "fraction must be in (0,1], got {fraction}"
    );
    let n = utt_lens.len();
    let k = ((n as f64 * fraction).round() as usize).clamp(1, n);
    let mut rng = Prng::new(seed);
    let mut ids = rng.sample_indices(n, k);
    ids.sort_unstable();
    ids
}

/// Copy the given utterances out of a shard into a contiguous batch.
pub fn extract_utterances(shard: &Shard, ids: &[usize]) -> (Matrix<f32>, Vec<u32>, Vec<usize>) {
    // Row offsets of each utterance in the shard.
    let mut offsets = Vec::with_capacity(shard.utt_lens.len() + 1);
    let mut acc = 0usize;
    for &len in &shard.utt_lens {
        offsets.push(acc);
        acc += len;
    }
    offsets.push(acc);

    let dim = shard.x.cols();
    let total: usize = ids.iter().map(|&i| shard.utt_lens[i]).sum();
    let mut x = Matrix::zeros(total, dim);
    let mut labels = Vec::with_capacity(total);
    let mut utt_lens = Vec::with_capacity(ids.len());
    let mut row = 0usize;
    for &i in ids {
        assert!(i < shard.utt_lens.len(), "utterance id {i} out of range");
        let (lo, hi) = (offsets[i], offsets[i + 1]);
        let len = hi - lo;
        x.as_mut_slice()[row * dim..(row + len) * dim].copy_from_slice(shard.x.rows_slice(lo, hi));
        labels.extend_from_slice(&shard.labels[lo..hi]);
        utt_lens.push(len);
        row += len;
    }
    (x, labels, utt_lens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdnn_dnn::Activation;
    use pdnn_speech::{Corpus, CorpusSpec};

    fn tiny_problem(objective_seq: bool) -> DnnProblem {
        let corpus = Corpus::generate(CorpusSpec::tiny(5));
        let (train_ids, held_ids) = corpus.split_heldout(0.25);
        let train = corpus.shard(&train_ids);
        let heldout = corpus.shard(&held_ids);
        let mut rng = Prng::new(1);
        let net = Network::new(
            &[corpus.spec().feature_dim, 16, corpus.spec().states],
            Activation::Sigmoid,
            &mut rng,
        );
        let objective = if objective_seq {
            Objective::Sequence(corpus.denominator_graph())
        } else {
            Objective::CrossEntropy
        };
        DnnProblem::new(net, GemmContext::sequential(), train, heldout, objective)
    }

    #[test]
    fn gradient_is_mean_normalized() {
        let mut p = tiny_problem(false);
        let (loss, grad) = p.gradient();
        // Mean CE of a random net on a 6-class task ≈ ln 6.
        assert!(loss > 1.0 && loss < 3.0, "loss={loss}");
        assert_eq!(grad.len(), p.num_params());
        let norm = pdnn_tensor::blas1::nrm2(&grad);
        assert!(norm > 1e-4 && norm < 10.0, "grad norm {norm}");
    }

    #[test]
    fn set_theta_roundtrips_and_invalidates_sample() {
        let mut p = tiny_problem(false);
        p.sample_curvature(1, 0.5);
        let theta = p.theta();
        p.set_theta(&theta);
        // Sample must be gone: gn_product now panics.
        let v = vec![0.0f32; p.num_params()];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.gn_product(&v);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn gn_product_is_psd_and_symmetric_on_sample() {
        let mut p = tiny_problem(false);
        p.sample_curvature(7, 0.5);
        let n = p.num_params();
        let mut rng = Prng::new(2);
        let v1: Vec<f32> = (0..n).map(|_| rng.normal() as f32 * 0.1).collect();
        let v2: Vec<f32> = (0..n).map(|_| rng.normal() as f32 * 0.1).collect();
        let g1 = p.gn_product(&v1);
        let g2 = p.gn_product(&v2);
        let quad = pdnn_tensor::blas1::dot(&v1, &g1);
        assert!(quad >= -1e-6, "v'Gv = {quad}");
        let a = pdnn_tensor::blas1::dot(&v2, &g1);
        let b = pdnn_tensor::blas1::dot(&v1, &g2);
        assert!((a - b).abs() < 1e-3 * (1.0 + a.abs()), "{a} vs {b}");
    }

    #[test]
    fn heldout_eval_of_random_net_is_chance_level() {
        let mut p = tiny_problem(false);
        let theta = p.theta();
        let eval = p.heldout_eval(&theta);
        assert!(eval.frames > 0);
        // 6 classes: chance ≈ 1/6; random init should be within a
        // loose band around it.
        assert!(eval.accuracy < 0.6, "accuracy {}", eval.accuracy);
        assert!(eval.loss > 1.0, "loss {}", eval.loss);
    }

    #[test]
    fn sequence_objective_evaluates() {
        let mut p = tiny_problem(true);
        let (loss, grad) = p.gradient();
        assert!(loss.is_finite() && loss >= 0.0, "loss={loss}");
        assert!(grad.iter().all(|g| g.is_finite()));
        p.sample_curvature(3, 0.5);
        let v = vec![0.01f32; p.num_params()];
        let gv = p.gn_product(&v);
        assert!(gv.iter().all(|g| g.is_finite()));
        let quad = pdnn_tensor::blas1::dot(&v, &gv);
        assert!(quad >= -1e-6);
    }

    #[test]
    fn sample_utterances_respects_fraction_and_determinism() {
        let lens = vec![10usize; 100];
        let a = sample_utterances(&lens, 0.03, 9);
        assert_eq!(a.len(), 3);
        let b = sample_utterances(&lens, 0.03, 9);
        assert_eq!(a, b);
        let c = sample_utterances(&lens, 0.03, 10);
        assert_ne!(a, c);
        // Minimum one utterance.
        assert_eq!(sample_utterances(&lens, 0.001, 1).len(), 1);
        // Full fraction = everything.
        assert_eq!(sample_utterances(&lens, 1.0, 1).len(), 100);
    }

    #[test]
    fn extract_utterances_matches_shard_layout() {
        let corpus = Corpus::generate(CorpusSpec::tiny(8));
        let all: Vec<usize> = (0..corpus.utterances().len()).collect();
        let shard = corpus.shard(&all);
        let (x, labels, lens) = extract_utterances(&shard, &[1, 3]);
        assert_eq!(lens, vec![shard.utt_lens[1], shard.utt_lens[3]]);
        assert_eq!(labels.len(), lens.iter().sum::<usize>());
        // First row of the extraction equals the first row of utt 1.
        let utt1_start: usize = shard.utt_lens[..1].iter().sum();
        assert_eq!(x.row(0), shard.x.row(utt1_start));
    }

    #[test]
    #[should_panic(expected = "train feature width")]
    fn shape_mismatch_rejected() {
        let corpus = Corpus::generate(CorpusSpec::tiny(5));
        let all: Vec<usize> = (0..corpus.utterances().len()).collect();
        let shard = corpus.shard(&all);
        let mut rng = Prng::new(1);
        let net: Network<f32> = Network::new(&[3, 4, 6], Activation::Sigmoid, &mut rng);
        DnnProblem::new(
            net,
            GemmContext::sequential(),
            shard.clone(),
            shard,
            Objective::CrossEntropy,
        );
    }

    /// A mean over no held-out frames would read as a perfect trial.
    #[test]
    #[should_panic(expected = "empty held-out shard")]
    fn empty_heldout_shard_rejected() {
        let corpus = Corpus::generate(CorpusSpec::tiny(5));
        let all: Vec<usize> = (0..corpus.utterances().len()).collect();
        let mut rng = Prng::new(1);
        let net = Network::new(
            &[corpus.spec().feature_dim, 4, corpus.spec().states],
            Activation::Sigmoid,
            &mut rng,
        );
        DnnProblem::new(
            net,
            GemmContext::sequential(),
            corpus.shard(&all),
            corpus.shard(&[]),
            Objective::CrossEntropy,
        );
    }
}
