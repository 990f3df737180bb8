//! ADPSGD — asynchronous decentralized parallel SGD (Lian et al.,
//! ICML 2018), the masterless first-order baseline.
//!
//! Where [`crate::parallel_sgd`] reproduces the paper's *synchronous*
//! data-parallel pathology (a global Θ(parameters) allreduce per
//! minibatch), ADPSGD removes both the master and the global barrier:
//! each rank takes SGD steps on its own partition of the data and,
//! after every local update, averages weights with exactly one
//! neighbor — `θᵢ, θⱼ ← (θᵢ + θⱼ)/2`. Per-update traffic is a single
//! point-to-point weight exchange per rank, independent of world
//! size, and no rank is a hotspot.
//!
//! ## What is (and is not) simulated
//!
//! The published algorithm pairs ranks opportunistically as they
//! finish minibatches at different wall-clock speeds. `pdnn-mpisim`
//! worlds are deterministic, so this implementation uses the
//! *round-based* gossip schedule (deterministic odd–even pairing on a
//! ring, the standard D-PSGD analysis device): round `2t` pairs
//! `(0,1)(2,3)…`, round `2t+1` pairs `(1,2)(3,4)…` plus the
//! wrap-around pair `(P−1, 0)` when `P` is even. What the simulation
//! preserves is the defining dynamics — pairwise-only averaging, no
//! coordinator, no global rendezvous, and stale-model mixing (ranks
//! that run out of local minibatches keep gossiping) — while staying
//! bit-reproducible. Wall-clock asynchrony is not modeled.
//!
//! Per-epoch statistics and the returned network are evaluated on the
//! *consensus average* `θ̄ = (1/P)·Σθᵢ`, obtained with a measurement
//! allreduce that is not part of the training algorithm (the paper's
//! convention for reporting decentralized-SGD convergence).

use crate::sgd::{evaluate, EpochStats, SgdConfig};
use pdnn_dnn::loss::cross_entropy;
use pdnn_dnn::network::Network;
use pdnn_mpisim::{comm_ok, run_world, Payload, ReduceOp, Src};
use pdnn_obs::CommStats;
use pdnn_speech::Shard;
use pdnn_tensor::gemm::GemmContext;
use pdnn_tensor::{blas1, Matrix};
use pdnn_util::Prng;

/// Tag base for gossip weight exchanges; round `k` uses
/// `GOSSIP_TAG + k`, well below the collective tag window.
const GOSSIP_TAG: u64 = 0x0AD0_0000;

/// Result of an ADPSGD run.
pub struct AdpsgdOutput {
    /// The consensus-averaged network `θ̄ = (1/P)·Σθᵢ`.
    pub network: Network<f32>,
    /// Per-epoch statistics of the consensus model (identical on all
    /// ranks; rank 0's copy).
    pub stats: Vec<EpochStats>,
    /// Per-rank communication traces. Training traffic is pure
    /// point-to-point; the collective class holds only the per-epoch
    /// measurement allreduces.
    pub traces: Vec<CommStats>,
    /// Total local SGD updates across all ranks.
    pub updates: usize,
    /// Gossip rounds executed (same on every rank).
    pub gossip_rounds: usize,
}

/// Deterministic odd–even ring pairing: the partner of `rank` in
/// gossip round `round`, or `None` when the rank sits this round out
/// (odd world sizes leave one rank unpaired per round).
fn gossip_partner(rank: usize, size: usize, round: usize) -> Option<usize> {
    if size < 2 {
        return None;
    }
    if round.is_multiple_of(2) {
        // (0,1)(2,3)…; the last rank idles when P is odd.
        if rank.is_multiple_of(2) {
            (rank + 1 < size).then_some(rank + 1)
        } else {
            Some(rank - 1)
        }
    } else if size.is_multiple_of(2) && (rank == 0 || rank == size - 1) {
        // (1,2)(3,4)… plus the ring wrap-around (P−1, 0).
        Some(if rank == 0 { size - 1 } else { 0 })
    } else if rank == 0 {
        None
    } else if !rank.is_multiple_of(2) {
        (rank + 1 < size).then_some(rank + 1)
    } else {
        Some(rank - 1)
    }
}

/// Train with ADPSGD across `ranks` decentralized ranks.
///
/// Frames are partitioned round-robin (`frame i → rank i mod P`);
/// each rank shuffles and minibatches only its own partition, seeded
/// by `config.seed` mixed with its rank so partitions decorrelate.
/// With `ranks == 1` there is no partner and no partition: the run
/// degenerates to [`crate::sgd::train_sgd`] bit-for-bit.
pub fn train_adpsgd(
    net0: &Network<f32>,
    train: &Shard,
    heldout: &Shard,
    config: &SgdConfig,
    ranks: usize,
) -> AdpsgdOutput {
    assert!(ranks >= 1, "need at least one rank");
    assert!(train.frames() > 0, "empty training shard");

    let frames = train.frames();
    let dim = train.x.cols();
    // Every rank can derive every partition size locally, so the
    // shared round count needs no negotiation: the rank with the most
    // minibatches sets the rounds per epoch, and ranks that run dry
    // keep gossiping with stale weights (the asynchrony analogue).
    let rounds_per_epoch = (0..ranks)
        .map(|r| (frames - r).div_ceil(ranks).div_ceil(config.minibatch))
        .max()
        .unwrap_or(0);

    let outcomes = run_world(ranks, |comm| {
        let ctx = GemmContext::sequential();
        let rank = comm.rank();
        let size = comm.size();
        let mut net = net0.clone();
        let mut scratch = net0.clone();
        let n = net.num_params();
        let mut velocity = vec![0.0f32; n];
        let mine: Vec<usize> = (rank..frames).step_by(ranks).collect();
        let mut order = mine.clone();
        let mut rng = Prng::new(config.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut lr = config.learning_rate;
        let mut stats = Vec::new();
        let mut updates = 0usize;
        let mut round = 0usize;

        for epoch in 0..config.epochs {
            rng.shuffle(&mut order);
            let mut batches = order.chunks(config.minibatch);
            let mut loss_sum = 0.0f64;
            let mut seen = 0usize;
            let mut epoch_updates = 0usize;

            for _ in 0..rounds_per_epoch {
                // Local SGD step on this rank's next minibatch, if any.
                if let Some(batch) = batches.next() {
                    let mut x = Matrix::zeros(batch.len(), dim);
                    let mut labels = Vec::with_capacity(batch.len());
                    for (bi, &fi) in batch.iter().enumerate() {
                        x.row_mut(bi).copy_from_slice(train.x.row(fi));
                        labels.push(train.labels[fi]);
                    }
                    let cache = net.forward(&ctx, &x);
                    let out = cross_entropy(cache.logits(), &labels);
                    loss_sum += out.loss;
                    seen += batch.len();
                    let mut grad = pdnn_dnn::backprop::backprop(&net, &ctx, &cache, &out.dlogits);
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

                // Pairwise averaging with this round's neighbor: one
                // p2p exchange, no barrier, no coordinator. Momentum
                // stays local (only weights are mixed).
                if let Some(partner) = gossip_partner(rank, size, round) {
                    let mine_now = net.to_flat();
                    let tag = GOSSIP_TAG + round as u64;
                    comm_ok(
                        comm.send(partner, tag, Payload::F32(mine_now.clone())),
                        "gossip send",
                    );
                    let theirs: Vec<f32> =
                        comm_ok(comm.recv_vec(Src::Of(partner), tag), "gossip recv");
                    // Fixed operand order (lower rank first) so both
                    // sides compute bit-identical averages.
                    let (a, b) = if rank < partner {
                        (&mine_now, &theirs)
                    } else {
                        (&theirs, &mine_now)
                    };
                    let avg: Vec<f32> =
                        a.iter().zip(b.iter()).map(|(x, y)| 0.5 * (x + y)).collect();
                    net.set_flat(&avg);
                }
                round += 1;
            }

            // Measurement only: consensus average + pooled loss, so
            // the reported curve tracks the global model the way the
            // decentralized-SGD literature reports convergence.
            let mut consensus = net.to_flat();
            comm_ok(
                comm.allreduce(&mut consensus, ReduceOp::Sum),
                "consensus allreduce",
            );
            blas1::scal(1.0 / size as f32, &mut consensus);
            let mut meta = vec![loss_sum, seen as f64, epoch_updates as f64];
            comm_ok(comm.allreduce(&mut meta, ReduceOp::Sum), "stats allreduce");
            scratch.set_flat(&consensus);
            let (h_loss, h_acc) = evaluate(&scratch, &ctx, heldout);
            stats.push(EpochStats {
                epoch,
                train_loss: meta[0] / meta[1].max(1.0),
                heldout_loss: h_loss,
                heldout_accuracy: h_acc,
                updates: meta[2] as usize,
            });
            lr *= config.lr_decay;
        }

        // Final consensus: the model ADPSGD deploys.
        let mut theta = net.to_flat();
        comm_ok(comm.allreduce(&mut theta, ReduceOp::Sum), "final consensus");
        blas1::scal(1.0 / size as f32, &mut theta);
        let mut total_updates = vec![updates as f64];
        comm_ok(
            comm.allreduce(&mut total_updates, ReduceOp::Sum),
            "update count",
        );
        (theta, stats, total_updates[0] as usize, round)
    });

    let (theta, stats, updates, gossip_rounds) = outcomes[0].result.clone();
    let mut network = net0.clone();
    network.set_flat(&theta);
    AdpsgdOutput {
        network,
        stats,
        traces: outcomes.into_iter().map(|o| o.trace).collect(),
        updates,
        gossip_rounds,
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
    fn pairing_is_a_matching_every_round() {
        for size in 1..=9usize {
            for round in 0..6 {
                for rank in 0..size {
                    match gossip_partner(rank, size, round) {
                        Some(p) => {
                            assert_ne!(p, rank, "self-pairing at {rank}/{size} round {round}");
                            assert_eq!(
                                gossip_partner(p, size, round),
                                Some(rank),
                                "asymmetric pair ({rank},{p}) at size {size} round {round}"
                            );
                        }
                        None => assert!(
                            size == 1 || size % 2 == 1,
                            "rank {rank} idle in even world {size}"
                        ),
                    }
                }
                // Even worlds pair everyone; odd worlds idle exactly one.
                let idle = (0..size)
                    .filter(|&r| gossip_partner(r, size, round).is_none())
                    .count();
                assert_eq!(idle, if size == 1 { 1 } else { size % 2 });
            }
        }
    }

    #[test]
    fn single_rank_degenerates_to_serial_sgd() {
        let (net, train, held) = setup(3);
        let cfg = SgdConfig {
            epochs: 2,
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
        let out = train_adpsgd(&net, &train, &held, &cfg, 1);
        assert_eq!(out.network.to_flat(), serial_net.to_flat());
    }

    #[test]
    fn adpsgd_is_deterministic_in_the_seed() {
        let (net, train, held) = setup(5);
        let cfg = SgdConfig {
            epochs: 2,
            minibatch: 32,
            ..Default::default()
        };
        let a = train_adpsgd(&net, &train, &held, &cfg, 4);
        let b = train_adpsgd(&net, &train, &held, &cfg, 4);
        assert_eq!(
            a.network.to_flat(),
            b.network.to_flat(),
            "consensus θ not reproducible"
        );
        assert_eq!(a.updates, b.updates);
        assert_eq!(a.gossip_rounds, b.gossip_rounds);
    }

    #[test]
    fn training_traffic_is_balanced_p2p_with_no_hotspot() {
        let (net, train, held) = setup(7);
        // Small minibatches: enough updates that the sync-SGD cost
        // model (one gradient allreduce per update) dwarfs ADPSGD's
        // per-epoch measurement collectives.
        let cfg = SgdConfig {
            epochs: 2,
            minibatch: 8,
            ..Default::default()
        };
        let out = train_adpsgd(&net, &train, &held, &cfg, 4);
        // Gossip is pure p2p and, on an even world, perfectly
        // balanced: every rank pairs every round.
        let sent: Vec<u64> = out.traces.iter().map(|t| t.p2p.bytes_sent).collect();
        assert!(sent[0] > 0);
        assert!(
            sent.iter().all(|&b| b == sent[0]),
            "unbalanced gossip traffic: {sent:?}"
        );
        // The only collective traffic is the per-epoch measurement
        // and final consensus — a handful of allreduces, not one per
        // minibatch like synchronous parallel SGD.
        let n = net.num_params() as u64;
        let per_update_sync_cost = out.updates as u64 / 4 * 4 * n;
        assert!(
            out.traces[0].collective.bytes_sent < per_update_sync_cost,
            "collective bytes {} rival sync-SGD volume {per_update_sync_cost}",
            out.traces[0].collective.bytes_sent
        );
    }

    #[test]
    fn decentralized_ranks_mix_toward_consensus() {
        let (net, train, held) = setup(11);
        let cfg = SgdConfig {
            epochs: 6,
            minibatch: 32,
            ..Default::default()
        };
        let out = train_adpsgd(&net, &train, &held, &cfg, 4);
        let last = out.stats.last().unwrap();
        let first = &out.stats[0];
        assert!(
            last.heldout_loss < first.heldout_loss,
            "consensus model did not improve: {} -> {}",
            first.heldout_loss,
            last.heldout_loss
        );
        assert!(last.heldout_accuracy > 0.5, "{}", last.heldout_accuracy);
        assert!(out.gossip_rounds > 0);
    }
}
