//! Fault-tolerant distributed training: a worker killed mid-protocol
//! must be detected, its shard re-partitioned onto the survivors, and
//! training must resume from the last checkpoint and complete — with
//! bit-identical results across two runs under the same fault plan.
//!
//! The worker's collective index counts every collective it joins:
//! the initial `SET_THETA` is 0–1, the first `HELDOUT` 2–4, the first
//! `GRADIENT` 5–7, `SAMPLE` is 8, and the first CG `GN_PRODUCT`
//! occupies 9–12 — so the kill points below land before the gradient,
//! inside the CG solve, and inside the held-out evaluation.
//!
//! The masterless suite (ISSUE 10) exercises the peer-coordinated
//! recovery protocol: kills before the first gradient allreduce, mid
//! ring hop, and during the binomial-tree drain at 4 and 8 ranks;
//! same-plan bit-determinism; empty-plan byte-identity against the
//! fault-free deterministic ring run; and the wire-codec interaction
//! (a chunk whose owner dies mid-reduce-scatter must not leave a
//! half-decoded image in any survivor's buffer).

use pdnn_core::{
    train_distributed_deterministic, train_distributed_faulted, DistributedConfig, Objective,
    SyncStrategy, TrainOutput,
};
use pdnn_dnn::network::Network;
use pdnn_mpisim::FaultPlan;
use pdnn_obs::Telemetry;
use pdnn_speech::{Corpus, CorpusSpec};
use pdnn_util::Prng;
use std::time::Duration;

fn corpus_and_net(seed: u64) -> (Corpus, Network<f32>) {
    let corpus = Corpus::generate(CorpusSpec::tiny(seed));
    let mut rng = Prng::new(seed + 100);
    let net = Network::new(
        &[corpus.spec().feature_dim, 12, corpus.spec().states],
        pdnn_dnn::Activation::Sigmoid,
        &mut rng,
    );
    (corpus, net)
}

fn config(workers: usize, max_iters: usize) -> DistributedConfig {
    let mut config = DistributedConfig {
        workers,
        ..DistributedConfig::default()
    };
    config.hf.max_iters = max_iters;
    config
}

fn kill_plan(victim: usize, at_collective: u64) -> FaultPlan {
    FaultPlan::new(41)
        .kill(victim, at_collective)
        .with_timeouts(Duration::from_millis(500), Duration::from_secs(30))
}

/// Shared assertions for a run that lost exactly one worker.
fn assert_recovered(out: &TrainOutput, victim: usize, max_iters: usize) {
    assert_eq!(out.dead_ranks, vec![victim]);
    assert_eq!(out.recoveries, 1, "expected exactly one recovery");
    assert_eq!(out.stats.len(), max_iters, "training did not complete");
    for s in &out.stats {
        assert!(
            s.train_loss.is_finite() && s.heldout_after.is_finite(),
            "non-finite stats after recovery: {s:?}"
        );
    }
    // The master narrated the failure and the recovery.
    let names: Vec<&str> = out
        .master_telemetry
        .events
        .iter()
        .map(|e| e.name.as_ref())
        .collect();
    assert!(names.contains(&"worker_failure"), "no worker_failure event");
    assert!(
        names.contains(&"recovery_complete"),
        "no recovery_complete event"
    );
    assert_eq!(out.master_telemetry.counter("recoveries"), 1);
    // The victim recorded its own demise; every survivor absorbed a
    // share of the orphaned shard.
    let victim_tel = &out.worker_telemetries[victim - 1];
    assert!(
        victim_tel
            .events
            .iter()
            .any(|e| e.name == "worker_comm_abort"),
        "killed worker did not record its abort"
    );
    for (w, tel) in out.worker_telemetries.iter().enumerate() {
        let expected = if w + 1 == victim { 0 } else { 1 };
        assert_eq!(
            tel.counter("shard_reassignments"),
            expected,
            "worker rank {} reassignment count",
            w + 1
        );
    }
}

#[test]
fn worker_death_before_gradient_recovers_on_survivors() {
    let (corpus, net0) = corpus_and_net(3);
    let cfg = config(3, 3);
    let plan = kill_plan(2, 5); // rank 2 dies entering the first GRADIENT
    let out = train_distributed_faulted(&net0, &corpus, &Objective::CrossEntropy, &cfg, &plan)
        .expect("training must survive one worker death");
    assert_recovered(&out, 2, 3);
}

#[test]
fn worker_death_mid_cg_recovers_on_survivors() {
    let (corpus, net0) = corpus_and_net(5);
    let cfg = config(3, 3);
    let plan = kill_plan(1, 10); // rank 1 dies inside the first GN_PRODUCT
    let out = train_distributed_faulted(&net0, &corpus, &Objective::CrossEntropy, &cfg, &plan)
        .expect("training must survive one worker death");
    assert_recovered(&out, 1, 3);
}

#[test]
fn worker_death_during_heldout_recovers_on_survivors() {
    let (corpus, net0) = corpus_and_net(7);
    let cfg = config(3, 3);
    let plan = kill_plan(3, 3); // rank 3 dies inside the first HELDOUT
    let out = train_distributed_faulted(&net0, &corpus, &Objective::CrossEntropy, &cfg, &plan)
        .expect("training must survive one worker death");
    assert_recovered(&out, 3, 3);
}

/// All-rank telemetry rendered exactly as the figure pipelines write
/// `*_telemetry.jsonl` (rank 0 = master), for byte comparison.
fn telemetry_jsonl(out: &TrainOutput) -> String {
    let mut ranks: Vec<&Telemetry> = vec![&out.master_telemetry];
    ranks.extend(out.worker_telemetries.iter());
    let mut dump = String::new();
    for (rank, tel) in ranks.into_iter().enumerate() {
        dump.push_str(&pdnn_obs::jsonl::to_jsonl_string(rank as u64, tel));
    }
    dump
}

#[test]
fn same_fault_plan_is_bit_deterministic() {
    // The acceptance bar for plan-driven injection: a 4-rank run that
    // loses one worker mid-CG must produce bit-identical weights and
    // byte-identical telemetry when re-run under the same plan.
    let (corpus, net0) = corpus_and_net(9);
    let cfg = config(3, 2);
    let plan = kill_plan(1, 10);
    let run = || {
        train_distributed_faulted(&net0, &corpus, &Objective::CrossEntropy, &cfg, &plan)
            .expect("training must survive one worker death")
    };
    let a = run();
    let b = run();
    let bits =
        |o: &TrainOutput| -> Vec<u32> { o.network.to_flat().iter().map(|w| w.to_bits()).collect() };
    assert_eq!(bits(&a), bits(&b), "weights diverged across same-plan runs");
    assert_eq!(
        telemetry_jsonl(&a),
        telemetry_jsonl(&b),
        "telemetry diverged across same-plan runs"
    );
    assert_eq!(a.dead_ranks, b.dead_ranks);
    assert_eq!(a.recoveries, b.recoveries);
}

#[test]
fn checkpointed_recovery_restores_theta_from_disk() {
    // With a checkpoint path configured, recovery round-trips θ
    // through the atomic on-disk checkpoint rather than memory.
    let (corpus, net0) = corpus_and_net(11);
    let mut cfg = config(3, 3);
    cfg.checkpoint_every = 1;
    cfg.checkpoint_path =
        Some(std::env::temp_dir().join(format!("pdnn-ft-restore-{}.ckpt", std::process::id())));
    let plan = kill_plan(2, 25); // dies deep in the first outer iteration
    let out = train_distributed_faulted(&net0, &corpus, &Objective::CrossEntropy, &cfg, &plan)
        .expect("training must survive one worker death");
    assert_recovered(&out, 2, 3);
    // The checkpoint file holds the final periodic snapshot and is
    // loadable (the atomic writer never leaves a torn file).
    let path = cfg.checkpoint_path.as_ref().unwrap();
    let ckpt = pdnn_dnn::checkpoint::load_network(path).expect("checkpoint must be loadable");
    assert_eq!(ckpt.dims(), net0.dims());
    std::fs::remove_file(path).ok();
}

#[test]
fn faultless_plan_changes_nothing_observable() {
    // An empty fault plan must still complete training with no dead
    // ranks and no recoveries (the timed-collective path is exercised,
    // but nothing fails).
    let (corpus, net0) = corpus_and_net(13);
    let cfg = config(2, 2);
    let plan = FaultPlan::new(1);
    let out = train_distributed_faulted(&net0, &corpus, &Objective::CrossEntropy, &cfg, &plan)
        .expect("fault-free faulted run");
    assert_eq!(out.dead_ranks, Vec::<usize>::new());
    assert_eq!(out.recoveries, 0);
    assert_eq!(out.stats.len(), 2);
}

// ---------------------------------------------------------------------
// Masterless (ring/tree) recovery suite.
// ---------------------------------------------------------------------

fn masterless_config(sync: SyncStrategy, workers: usize, max_iters: usize) -> DistributedConfig {
    let mut config = DistributedConfig {
        workers,
        sync,
        ..DistributedConfig::default()
    };
    config.hf.max_iters = max_iters;
    config
}

fn theta_bits(out: &TrainOutput) -> Vec<u32> {
    out.network.to_flat().iter().map(|w| w.to_bits()).collect()
}

/// Shared assertions for a masterless run that lost exactly one rank.
/// The victim may be any rank (including rank 0 — the collection layer
/// then reports the lowest surviving replica), so events are searched
/// across every rank's telemetry.
fn assert_masterless_recovered(out: &TrainOutput, victim: usize, max_iters: usize) {
    assert_eq!(out.dead_ranks, vec![victim]);
    assert_eq!(out.recoveries, 1, "expected exactly one recovery");
    assert_eq!(out.stats.len(), max_iters, "training did not complete");
    for s in &out.stats {
        assert!(
            s.train_loss.is_finite() && s.heldout_after.is_finite(),
            "non-finite stats after recovery: {s:?}"
        );
    }
    let all: Vec<&Telemetry> = std::iter::once(&out.master_telemetry)
        .chain(out.worker_telemetries.iter())
        .collect();
    let any_event = |name: &str| all.iter().any(|t| t.events.iter().any(|e| e.name == name));
    assert!(any_event("worker_failure"), "no worker_failure event");
    assert!(any_event("recovery_complete"), "no recovery_complete event");
    assert!(
        any_event("worker_comm_abort"),
        "killed rank did not record its abort"
    );
    // Every survivor replays the re-partition locally: world-1 ranks
    // each record one shard reassignment, the victim none.
    let world = out.worker_telemetries.len() + 1;
    let reassignments: u64 = all.iter().map(|t| t.counter("shard_reassignments")).sum();
    assert_eq!(
        reassignments,
        (world - 1) as u64,
        "every survivor must absorb a share of the orphaned shard"
    );
}

fn run_masterless_kill(
    seed: u64,
    sync: SyncStrategy,
    workers: usize,
    max_iters: usize,
    victim: usize,
    at_collective: u64,
) -> TrainOutput {
    let (corpus, net0) = corpus_and_net(seed);
    let cfg = masterless_config(sync, workers, max_iters);
    let plan = kill_plan(victim, at_collective);
    train_distributed_faulted(&net0, &corpus, &Objective::CrossEntropy, &cfg, &plan)
        .expect("masterless training must survive one rank death")
}

#[test]
fn ring_kill_before_gradient_recovers_at_4_ranks() {
    // Rank 2 dies entering its very first collective: the survivors
    // abort the first gradient allreduce, agree on membership, and
    // replay from iteration 0.
    let out = run_masterless_kill(21, SyncStrategy::Ring, 4, 3, 2, 0);
    assert_masterless_recovered(&out, 2, 3);
}

#[test]
fn ring_kill_mid_hop_recovers_at_8_ranks() {
    // A kill a few collectives in lands while the survivors are mid
    // ring hop (reduce-scatter/allgather in flight on every rank).
    let out = run_masterless_kill(23, SyncStrategy::Ring, 8, 2, 5, 7);
    assert_masterless_recovered(&out, 5, 2);
}

#[test]
fn tree_kill_during_drain_recovers_at_4_ranks() {
    // The binomial tree is draining toward its root when the victim
    // disappears; the re-parented tree must route around it.
    let out = run_masterless_kill(25, SyncStrategy::Tree, 4, 2, 1, 4);
    assert_masterless_recovered(&out, 1, 2);
}

#[test]
fn tree_kill_recovers_at_8_ranks() {
    let out = run_masterless_kill(27, SyncStrategy::Tree, 8, 2, 3, 2);
    assert_masterless_recovered(&out, 3, 2);
}

#[test]
fn masterless_fault_plan_above_64_peers_is_a_config_error() {
    // The membership round's dead set is a u64 bitmap: a 65th peer
    // would alias rank 0 (`1u64 << 64` wraps in release builds), so the
    // world is refused before any rank starts.
    let (corpus, net0) = corpus_and_net(31);
    let cfg = masterless_config(SyncStrategy::Ring, 65, 1);
    let plan = kill_plan(64, 0);
    let result = train_distributed_faulted(&net0, &corpus, &Objective::CrossEntropy, &cfg, &plan);
    assert!(
        matches!(result, Err(pdnn_util::Error::Config(_))),
        "{:?}",
        result.err()
    );
}

#[test]
fn masterless_kill_of_rank0_elects_next_coordinator() {
    // Rank 0 is the default membership coordinator; killing it forces
    // the survivors to elect rank 1 and the collection layer to report
    // from the lowest surviving replica.
    let out = run_masterless_kill(29, SyncStrategy::Ring, 4, 2, 0, 5);
    assert_masterless_recovered(&out, 0, 2);
}

#[test]
fn masterless_same_plan_is_bit_deterministic() {
    let (corpus, net0) = corpus_and_net(31);
    let cfg = masterless_config(SyncStrategy::Ring, 4, 2);
    let plan = kill_plan(1, 6);
    let run = || {
        train_distributed_faulted(&net0, &corpus, &Objective::CrossEntropy, &cfg, &plan)
            .expect("masterless training must survive one rank death")
    };
    let a = run();
    let b = run();
    assert_eq!(
        theta_bits(&a),
        theta_bits(&b),
        "weights diverged across same-plan masterless runs"
    );
    assert_eq!(
        telemetry_jsonl(&a),
        telemetry_jsonl(&b),
        "telemetry diverged across same-plan masterless runs"
    );
    assert_eq!(a.dead_ranks, b.dead_ranks);
    assert_eq!(a.recoveries, b.recoveries);
}

#[test]
fn masterless_empty_plan_is_byte_identical_to_fault_free_ring() {
    // Arming the fault machinery without any scheduled fault must not
    // perturb anything observable: same θ bits, same telemetry bytes
    // as the fault-free deterministic ring run.
    let (corpus, net0) = corpus_and_net(33);
    let cfg = masterless_config(SyncStrategy::Ring, 3, 2);
    let plan = FaultPlan::new(1);
    let faulted = train_distributed_faulted(&net0, &corpus, &Objective::CrossEntropy, &cfg, &plan)
        .expect("empty-plan masterless run");
    let clean = train_distributed_deterministic(&net0, &corpus, &Objective::CrossEntropy, &cfg)
        .expect("fault-free masterless run");
    assert_eq!(faulted.dead_ranks, Vec::<usize>::new());
    assert_eq!(faulted.recoveries, 0);
    assert_eq!(theta_bits(&faulted), theta_bits(&clean), "θ diverged");
    assert_eq!(
        telemetry_jsonl(&faulted),
        telemetry_jsonl(&clean),
        "telemetry diverged between empty-plan and fault-free ring runs"
    );
}

#[test]
fn codec_armed_kill_matches_uncompressed_faulted_ring() {
    use pdnn_mpisim::{CommError, Payload, ReduceOp, Src, WireCodec};
    // Integer-valued f32 inputs are exact in binary16, so the F16
    // codec is lossless here — any half-decoded wire image left in a
    // survivor's buffer by the aborted reduce-scatter would surface as
    // a bitwise mismatch against the uncompressed faulted run.
    let survivors = |codec: WireCodec| -> Vec<Vec<u32>> {
        let plan = FaultPlan::new(7)
            .kill(2, 0)
            .with_timeouts(Duration::from_millis(200), Duration::from_secs(30));
        let n = 640usize;
        let outs = pdnn_mpisim::run_world_faulted(5, &plan, move |comm| {
            comm.set_wire_codec(codec);
            let seed_buf = |rank: usize| -> Vec<f32> {
                (0..n).map(|i| ((rank * 97 + i) % 50) as f32).collect()
            };
            let mut buf = seed_buf(comm.rank());
            match comm.allreduce_ring(&mut buf, ReduceOp::Sum) {
                Err(CommError::Killed) => return None,
                Err(CommError::RankDead { rank }) => comm.ack_dead(rank),
                other => panic!("unexpected first allreduce outcome: {other:?}"),
            }
            // Survivors abort up to one detect window apart, so they
            // meet at the lowest survivor under the worker window
            // first, as the trainer's membership round does.
            let wide = Duration::from_secs(30);
            if comm.rank() == 0 {
                for r in [1, 3, 4] {
                    comm.recv_timeout(Src::Of(r), 9, wide)
                        .expect("survivor report");
                }
                for r in [1, 3, 4] {
                    comm.send(r, 9, Payload::Empty).expect("release");
                }
            } else {
                comm.send(0, 9, Payload::Empty).expect("report");
                comm.recv_timeout(Src::Of(0), 9, wide).expect("release");
            }
            // Survivors re-seed and rerun over the re-stitched ring.
            let mut buf = seed_buf(comm.rank());
            comm.allreduce_ring(&mut buf, ReduceOp::Sum)
                .expect("re-stitched ring must complete");
            Some(buf.iter().map(|x| x.to_bits()).collect::<Vec<u32>>())
        });
        outs.into_iter().filter_map(|o| o.result).collect()
    };
    let plain = survivors(WireCodec::None);
    let coded = survivors(WireCodec::F16);
    assert_eq!(plain.len(), 4, "expected 4 survivors");
    assert_eq!(
        plain, coded,
        "codec-armed re-stitched ring differs from the uncompressed faulted run"
    );
}
