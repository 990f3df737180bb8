//! Synchronous data-parallel SGD — the approach the paper argues
//! *against*.
//!
//! Section II.A: "Splitting this gradient computation onto a few
//! parallel machines, coupled with the large number of network
//! parameters used in speech tasks, results in large communications
//! costs in passing the gradient vectors from worker machines back to
//! the master. Thus, it is generally cheaper to compute the gradient
//! serially on one machine."
//!
//! This implementation exists to *measure* that claim: each minibatch
//! is split across ranks, gradients are summed with an allreduce, and
//! every rank applies the identical update. The communication volume
//! per update is Θ(P) for P parameters, amortized over only
//! `minibatch` frames — the disastrous ratio the paper describes. The
//! comm ablation bench feeds the measured bytes-per-update into the
//! BG/Q and Ethernet-cluster cost models.

use crate::sgd::{evaluate, EpochStats, SgdConfig};
use pdnn_dnn::loss::cross_entropy;
use pdnn_dnn::network::Network;
use pdnn_mpisim::{comm_ok, run_world, ReduceOp};
use pdnn_obs::CommStats;
use pdnn_speech::Shard;
use pdnn_tensor::gemm::GemmContext;
use pdnn_tensor::{blas1, Matrix};
use pdnn_util::Prng;

/// Result of a synchronous parallel SGD run.
pub struct ParallelSgdOutput {
    /// The trained network (identical on all ranks; rank 0's copy).
    pub network: Network<f32>,
    /// Per-epoch statistics (evaluated on rank 0).
    pub stats: Vec<EpochStats>,
    /// Per-rank communication traces.
    pub traces: Vec<CommStats>,
    /// Gradient allreduces performed (== parameter updates).
    pub updates: usize,
}

/// Train with synchronous data-parallel SGD across `ranks` ranks.
///
/// Every rank holds the full shard (frame-shuffled identically) and
/// computes the gradient of its slice of each minibatch; an allreduce
/// sums the slices. With the deterministic reduction this produces
/// the same update sequence as serial SGD on the same minibatches, up
/// to f32 summation order.
pub fn train_parallel_sgd(
    net0: &Network<f32>,
    train: &Shard,
    heldout: &Shard,
    config: &SgdConfig,
    ranks: usize,
) -> ParallelSgdOutput {
    assert!(ranks >= 1, "need at least one rank");
    assert!(train.frames() > 0, "empty training shard");

    let frames = train.frames();
    let dim = train.x.cols();

    let outcomes = run_world(ranks, |comm| {
        let ctx = GemmContext::sequential();
        let mut net = net0.clone();
        let n = net.num_params();
        let mut velocity = vec![0.0f32; n];
        let mut order: Vec<usize> = (0..frames).collect();
        let mut rng = Prng::new(config.seed);
        let mut lr = config.learning_rate;
        let mut stats = Vec::new();
        let mut updates = 0usize;

        for epoch in 0..config.epochs {
            rng.shuffle(&mut order);
            let mut loss_sum = 0.0f64;
            let mut seen = 0usize;
            let mut epoch_updates = 0usize;

            for batch in order.chunks(config.minibatch) {
                // Slice of this minibatch owned by this rank.
                let per = batch.len().div_ceil(comm.size());
                let lo = (comm.rank() * per).min(batch.len());
                let hi = ((comm.rank() + 1) * per).min(batch.len());
                let my = &batch[lo..hi];

                let mut grad = vec![0.0f32; n];
                let mut local_loss = 0.0f64;
                if !my.is_empty() {
                    let mut x = Matrix::zeros(my.len(), dim);
                    let mut labels = Vec::with_capacity(my.len());
                    for (bi, &fi) in my.iter().enumerate() {
                        x.row_mut(bi).copy_from_slice(train.x.row(fi));
                        labels.push(train.labels[fi]);
                    }
                    let cache = net.forward(&ctx, &x);
                    let out = cross_entropy(cache.logits(), &labels);
                    local_loss = out.loss;
                    grad = pdnn_dnn::backprop::backprop(&net, &ctx, &cache, &out.dlogits);
                }

                // The expensive part: a Θ(P) allreduce per minibatch.
                comm_ok(
                    comm.allreduce(&mut grad, ReduceOp::Sum),
                    "gradient allreduce",
                );
                let mut meta = vec![local_loss];
                comm_ok(comm.allreduce(&mut meta, ReduceOp::Sum), "loss allreduce");
                loss_sum += meta[0];
                seen += batch.len();

                blas1::scal(1.0 / batch.len() as f32, &mut grad);
                let mu = config.momentum as f32;
                let eta = lr as f32;
                for (v, g) in velocity.iter_mut().zip(grad.iter()) {
                    *v = mu * *v - eta * g;
                }
                net.axpy_flat(1.0, &velocity);
                updates += 1;
                epoch_updates += 1;
            }

            let (h_loss, h_acc) = evaluate(&net, &ctx, heldout);
            stats.push(EpochStats {
                epoch,
                train_loss: loss_sum / seen.max(1) as f64,
                heldout_loss: h_loss,
                heldout_accuracy: h_acc,
                updates: epoch_updates,
            });
            lr *= config.lr_decay;
        }
        (net.to_flat(), stats, updates)
    });

    let (theta, stats, updates) = outcomes[0].result.clone();
    let mut network = net0.clone();
    network.set_flat(&theta);
    ParallelSgdOutput {
        network,
        stats,
        traces: outcomes.into_iter().map(|o| o.trace).collect(),
        updates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgd::train_sgd;
    use pdnn_dnn::Activation;
    use pdnn_speech::{Corpus, CorpusSpec};

    fn setup(seed: u64) -> (Network<f32>, Shard, Shard) {
        let corpus = Corpus::generate(CorpusSpec::tiny(seed));
        let (train_ids, held_ids) = corpus.split_heldout(0.25);
        let mut rng = Prng::new(1);
        let net = Network::new(
            &[corpus.spec().feature_dim, 10, corpus.spec().states],
            Activation::Sigmoid,
            &mut rng,
        );
        (net, corpus.shard(&train_ids), corpus.shard(&held_ids))
    }

    #[test]
    fn parallel_sgd_matches_serial_updates() {
        let (net, train, held) = setup(3);
        let cfg = SgdConfig {
            epochs: 2,
            minibatch: 50,
            ..Default::default()
        };
        let mut serial_net = net.clone();
        let serial_stats = train_sgd(
            &mut serial_net,
            &GemmContext::sequential(),
            &train,
            &held,
            &cfg,
        );
        let out = train_parallel_sgd(&net, &train, &held, &cfg, 4);
        // Same minibatch sequence, same summed gradients up to f32
        // ordering: final held-out losses must agree closely.
        let s = serial_stats.last().unwrap();
        let p = out.stats.last().unwrap();
        assert!(
            (s.heldout_loss - p.heldout_loss).abs() < 1e-3,
            "serial {} vs parallel {}",
            s.heldout_loss,
            p.heldout_loss
        );
        assert_eq!(s.updates, out.stats.last().unwrap().updates);
    }

    #[test]
    fn all_ranks_converge_to_identical_parameters() {
        let (net, train, held) = setup(5);
        let cfg = SgdConfig {
            epochs: 1,
            minibatch: 32,
            ..Default::default()
        };
        let frames = train.frames();
        let dim = train.x.cols();
        let _ = (frames, dim);
        // Run and confirm outputs at every rank match (the allreduce
        // promise: bitwise-identical updates everywhere).
        let outcomes = run_world(3, |comm| {
            let out = train_parallel_sgd(&net, &train, &held, &cfg, 1);
            let _ = comm;
            out.network.to_flat()
        });
        assert_eq!(outcomes[0].result, outcomes[1].result);
        assert_eq!(outcomes[1].result, outcomes[2].result);
    }

    #[test]
    fn communication_volume_scales_with_parameters_per_update() {
        let (net, train, held) = setup(7);
        let cfg = SgdConfig {
            epochs: 1,
            minibatch: 64,
            ..Default::default()
        };
        let out = train_parallel_sgd(&net, &train, &held, &cfg, 4);
        let p = net.num_params() as u64;
        // Recursive doubling with 4 ranks: log2(4) = 2 rounds, each
        // sending the full gradient (4 bytes/param) plus the loss
        // scalar allreduce.
        let expected_min = out.updates as u64 * 2 * 4 * p;
        let sent = out.traces[0].collective.bytes_sent;
        assert!(
            sent >= expected_min,
            "rank 0 sent {sent} bytes, expected at least {expected_min}"
        );
        // The ratio bytes-per-frame is enormous — the paper's point.
        let frames_total = (train.frames() * cfg.epochs) as u64;
        assert!(
            sent / frames_total > p / 100,
            "comm/compute ratio too good to be true"
        );
    }

    #[test]
    fn single_rank_degenerates_to_serial() {
        let (net, train, held) = setup(9);
        let cfg = SgdConfig {
            epochs: 1,
            minibatch: 40,
            ..Default::default()
        };
        let mut serial_net = net.clone();
        train_sgd(
            &mut serial_net,
            &GemmContext::sequential(),
            &train,
            &held,
            &cfg,
        );
        let out = train_parallel_sgd(&net, &train, &held, &cfg, 1);
        // One rank: same frame order, same arithmetic.
        assert_eq!(out.network.to_flat(), serial_net.to_flat());
    }
}
