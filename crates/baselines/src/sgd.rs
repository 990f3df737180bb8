//! Serial minibatch stochastic gradient descent.
//!
//! The paper's baseline: "to date the most popular methodology to
//! train DNNs is the first-order stochastic gradient descent (SGD)
//! optimization technique, which is a serial algorithm executed on a
//! multi-core CPU." Minibatches of 100–1000 frames (Section II.A),
//! momentum, and a multiplicative learning-rate decay per epoch.

use pdnn_dnn::loss::{cross_entropy, cross_entropy_loss_only};
use pdnn_dnn::network::Network;
use pdnn_speech::Shard;
use pdnn_tensor::gemm::GemmContext;
use pdnn_tensor::{blas1, Matrix};
use pdnn_util::Prng;

/// SGD hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct SgdConfig {
    /// Initial learning rate.
    pub learning_rate: f64,
    /// Classical momentum coefficient.
    pub momentum: f64,
    /// Frames per minibatch (paper: "on the order of 100-1,000").
    pub minibatch: usize,
    /// Passes over the training data.
    pub epochs: usize,
    /// Learning-rate multiplier applied after each epoch.
    pub lr_decay: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            learning_rate: 0.1,
            momentum: 0.9,
            minibatch: 256,
            epochs: 10,
            lr_decay: 0.9,
            seed: 77,
        }
    }
}

/// Per-epoch statistics.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch (running, pre-update).
    pub train_loss: f64,
    /// Held-out mean loss after the epoch.
    pub heldout_loss: f64,
    /// Held-out frame accuracy after the epoch.
    pub heldout_accuracy: f64,
    /// Number of parameter updates performed.
    pub updates: usize,
}

/// Train `net` in place with serial minibatch SGD on the cross-entropy
/// objective; returns per-epoch statistics.
pub fn train_sgd(
    net: &mut Network<f32>,
    ctx: &GemmContext,
    train: &Shard,
    heldout: &Shard,
    config: &SgdConfig,
) -> Vec<EpochStats> {
    assert!(config.minibatch >= 1, "minibatch must be >= 1");
    assert!(config.epochs >= 1, "epochs must be >= 1");
    assert!(config.learning_rate > 0.0, "learning rate must be positive");
    assert!(train.frames() > 0, "empty training shard");

    let n = net.num_params();
    let frames = train.frames();
    let dim = train.x.cols();
    let mut velocity = vec![0.0f32; n];
    let mut order: Vec<usize> = (0..frames).collect();
    let mut rng = Prng::new(config.seed);
    let mut lr = config.learning_rate;
    let mut stats = Vec::with_capacity(config.epochs);

    for epoch in 0..config.epochs {
        rng.shuffle(&mut order);
        let mut loss_sum = 0.0f64;
        let mut seen = 0usize;
        let mut updates = 0usize;

        for batch in order.chunks(config.minibatch) {
            // Gather the minibatch rows.
            let mut x = Matrix::zeros(batch.len(), dim);
            let mut labels = Vec::with_capacity(batch.len());
            for (bi, &fi) in batch.iter().enumerate() {
                x.row_mut(bi).copy_from_slice(train.x.row(fi));
                labels.push(train.labels[fi]);
            }
            let cache = net.forward(ctx, &x);
            let out = cross_entropy(cache.logits(), &labels);
            loss_sum += out.loss;
            seen += batch.len();
            let mut grad = pdnn_dnn::backprop::backprop(net, ctx, &cache, &out.dlogits);
            blas1::scal(1.0 / batch.len() as f32, &mut grad);

            // v ← μv − ηg; θ ← θ + v
            let mu = config.momentum as f32;
            let eta = lr as f32;
            for (v, g) in velocity.iter_mut().zip(grad.iter()) {
                *v = mu * *v - eta * g;
            }
            net.axpy_flat(1.0, &velocity);
            updates += 1;
        }

        let (h_loss, h_acc) = evaluate(net, ctx, heldout);
        stats.push(EpochStats {
            epoch,
            train_loss: loss_sum / seen.max(1) as f64,
            heldout_loss: h_loss,
            heldout_accuracy: h_acc,
            updates,
        });
        lr *= config.lr_decay;
    }
    stats
}

/// Mean held-out cross-entropy and frame accuracy.
pub fn evaluate(net: &Network<f32>, ctx: &GemmContext, shard: &Shard) -> (f64, f64) {
    if shard.frames() == 0 {
        return (0.0, 0.0);
    }
    let logits = net.logits(ctx, &shard.x);
    let (loss, correct) = cross_entropy_loss_only(&logits, &shard.labels, 0.0);
    (
        loss / shard.frames() as f64,
        correct as f64 / shard.frames() as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdnn_dnn::Activation;
    use pdnn_speech::{Corpus, CorpusSpec};

    fn setup(seed: u64) -> (Network<f32>, Shard, Shard) {
        let corpus = Corpus::generate(CorpusSpec::tiny(seed));
        let (train_ids, held_ids) = corpus.split_heldout(0.25);
        let mut rng = Prng::new(1);
        let net = Network::new(
            &[corpus.spec().feature_dim, 12, corpus.spec().states],
            Activation::Sigmoid,
            &mut rng,
        );
        (net, corpus.shard(&train_ids), corpus.shard(&held_ids))
    }

    #[test]
    fn sgd_learns_the_tiny_task() {
        let (mut net, train, held) = setup(3);
        let ctx = GemmContext::sequential();
        let (loss0, acc0) = evaluate(&net, &ctx, &held);
        let cfg = SgdConfig {
            epochs: 12,
            minibatch: 64,
            ..Default::default()
        };
        let stats = train_sgd(&mut net, &ctx, &train, &held, &cfg);
        let last = stats.last().unwrap();
        assert!(
            last.heldout_loss < loss0,
            "{} !< {loss0}",
            last.heldout_loss
        );
        assert!(
            last.heldout_accuracy > acc0 && last.heldout_accuracy > 0.5,
            "accuracy {acc0} -> {}",
            last.heldout_accuracy
        );
    }

    #[test]
    fn epoch_loss_trend_is_downward() {
        let (mut net, train, held) = setup(5);
        let ctx = GemmContext::sequential();
        let cfg = SgdConfig {
            epochs: 8,
            ..Default::default()
        };
        let stats = train_sgd(&mut net, &ctx, &train, &held, &cfg);
        assert!(stats.last().unwrap().train_loss < stats[0].train_loss);
        // Update counts: ceil(frames / minibatch) per epoch.
        let per_epoch = train.frames().div_ceil(cfg.minibatch);
        assert!(stats.iter().all(|s| s.updates == per_epoch));
    }

    #[test]
    fn training_is_deterministic_in_the_seed() {
        let (net, train, held) = setup(7);
        let ctx = GemmContext::sequential();
        let cfg = SgdConfig {
            epochs: 2,
            ..Default::default()
        };
        let mut n1 = net.clone();
        let mut n2 = net;
        train_sgd(&mut n1, &ctx, &train, &held, &cfg);
        train_sgd(&mut n2, &ctx, &train, &held, &cfg);
        assert_eq!(n1.to_flat(), n2.to_flat());
    }

    #[test]
    fn zero_momentum_is_plain_sgd() {
        let (mut net, train, held) = setup(9);
        let ctx = GemmContext::sequential();
        let cfg = SgdConfig {
            momentum: 0.0,
            epochs: 3,
            ..Default::default()
        };
        let stats = train_sgd(&mut net, &ctx, &train, &held, &cfg);
        assert!(stats.last().unwrap().heldout_loss.is_finite());
    }

    #[test]
    #[should_panic(expected = "empty training shard")]
    fn empty_shard_rejected() {
        let (mut net, _, held) = setup(3);
        let ctx = GemmContext::sequential();
        let empty = Shard {
            x: Matrix::zeros(0, net.input_dim()),
            labels: vec![],
            utt_lens: vec![],
        };
        train_sgd(&mut net, &ctx, &empty, &held, &SgdConfig::default());
    }
}
