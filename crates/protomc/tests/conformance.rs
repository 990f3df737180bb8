//! Trace conformance against real training runs: the abstract
//! automata compiled from the command table must accept
//! the comm-event streams a genuine 4-rank training job records —
//! fault-free and with an injected mid-gradient worker kill.

use pdnn_core::{
    train_distributed_deterministic, train_distributed_faulted, DistributedConfig, Objective,
    TrainOutput,
};
use pdnn_dnn::{Activation, Network};
use pdnn_mpisim::{CommEvent, FaultPlan};
use pdnn_protomc::{conformance, ProtoSpec};
use pdnn_speech::{Corpus, CorpusSpec};
use pdnn_util::Prng;
use std::time::Duration;

fn tiny_world() -> (Network, Corpus, DistributedConfig) {
    let corpus = Corpus::generate(CorpusSpec::tiny(23));
    let mut rng = Prng::new(11);
    let net0 = Network::new(
        &[corpus.spec().feature_dim, 10, corpus.spec().states],
        Activation::Sigmoid,
        &mut rng,
    );
    let mut config = DistributedConfig {
        workers: 3,
        ..DistributedConfig::default()
    };
    config.hf.max_iters = 3;
    (net0, corpus, config)
}

fn replay(spec: &ProtoSpec, out: &TrainOutput) -> conformance::RunReplay {
    let mut streams: Vec<&[CommEvent]> = vec![&out.master_events];
    streams.extend(out.worker_events.iter().map(|e| e.as_slice()));
    conformance::replay_run(spec, &streams, &out.dead_ranks)
}

#[test]
fn fault_free_four_rank_run_conforms() {
    let spec = pdnn_protomc::compile();
    let (net0, corpus, config) = tiny_world();
    let out = train_distributed_deterministic(&net0, &corpus, &Objective::CrossEntropy, &config)
        .expect("fault-free training succeeds");
    assert!(out.dead_ranks.is_empty());

    let run = replay(&spec, &out);
    for r in &run.ranks {
        assert!(
            r.accepted && r.completed,
            "rank {} rejected: {:?} ({} of {} events consumed)",
            r.rank,
            r.error,
            r.consumed,
            r.total
        );
    }
    assert!(run.accepted);
    assert_eq!(
        run.unmapped, 0,
        "every recorded event must map to a model step"
    );
    assert!(run.coll_events > 0 && run.p2p_events > 0);
}

#[test]
fn faulted_four_rank_run_conforms_with_dead_rank_prefix() {
    let spec = pdnn_protomc::compile();
    let (net0, corpus, config) = tiny_world();
    // Rank 2 dies entering the first GRADIENT (collective index 5; see
    // the collective-index map in core's fault_tolerance tests).
    let plan = FaultPlan::new(41)
        .kill(2, 5)
        .with_timeouts(Duration::from_millis(500), Duration::from_secs(30));
    let out = train_distributed_faulted(&net0, &corpus, &Objective::CrossEntropy, &config, &plan)
        .expect("faulted training recovers");
    assert_eq!(out.dead_ranks, vec![2], "fault injection must take");

    let run = replay(&spec, &out);
    assert!(run.accepted, "faulted run must conform as a whole");
    assert_eq!(run.unmapped, 0);
    for r in &run.ranks {
        assert!(r.accepted, "rank {} rejected: {:?}", r.rank, r.error);
        if r.rank == 2 {
            // The victim's stream is a clean prefix cut off by the kill.
            assert!(!r.completed, "dead rank cannot reach shutdown");
        } else {
            assert!(r.completed, "survivor rank {} must reach shutdown", r.rank);
        }
    }
}

#[test]
fn truncated_survivor_stream_is_rejected() {
    let spec = pdnn_protomc::compile();
    let (net0, corpus, config) = tiny_world();
    let out = train_distributed_deterministic(&net0, &corpus, &Objective::CrossEntropy, &config)
        .expect("fault-free training succeeds");

    // Drop the tail of a live worker's stream: conformance must notice
    // the rank never reached shutdown.
    let cut = out.worker_events[0].len() - 3;
    let mut streams: Vec<&[CommEvent]> = vec![&out.master_events];
    streams.push(&out.worker_events[0][..cut]);
    streams.extend(out.worker_events[1..].iter().map(|e| e.as_slice()));
    let run = conformance::replay_run(&spec, &streams, &[]);
    assert!(!run.accepted, "truncated live stream must not conform");
    assert!(!run.ranks[1].accepted);
}
