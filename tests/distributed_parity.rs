//! The paper's "no loss in accuracy" claim, tested functionally:
//! distributed Hessian-free training over real message passing must
//! match serial training in quality, independent of worker count and
//! partitioning strategy.

use pdnn::core::{
    train_distributed, DistributedConfig, DnnProblem, HfConfig, HfOptimizer, Objective,
};
use pdnn::dnn::{Activation, Network};
use pdnn::speech::{Corpus, CorpusSpec, Strategy};
use pdnn::tensor::GemmContext;
use pdnn::util::Prng;

fn setup() -> (Corpus, Network<f32>, HfConfig) {
    let corpus = Corpus::generate(CorpusSpec {
        utterances: 72,
        ..CorpusSpec::tiny(888)
    });
    let mut rng = Prng::new(11);
    let net = Network::new(
        &[corpus.spec().feature_dim, 16, corpus.spec().states],
        Activation::Sigmoid,
        &mut rng,
    );
    let hf = HfConfig::small_task()
        .into_builder()
        .max_iters(5)
        .build()
        .unwrap();
    (corpus, net, hf)
}

fn serial_result(corpus: &Corpus, net: &Network<f32>, hf: HfConfig) -> (f64, f64) {
    let (train_ids, held_ids) = corpus.split_heldout(0.2);
    let mut problem = DnnProblem::new(
        net.clone(),
        GemmContext::sequential(),
        corpus.shard(&train_ids),
        corpus.shard(&held_ids),
        Objective::CrossEntropy,
    );
    let stats = HfOptimizer::new(hf).train(&mut problem);
    let last = stats.iter().rev().find(|s| s.accepted).expect("no step");
    (last.heldout_after, last.heldout_accuracy)
}

#[test]
fn distributed_matches_serial_across_worker_counts() {
    let (corpus, net, hf) = setup();
    let (serial_loss, serial_acc) = serial_result(&corpus, &net, hf);

    for workers in [1usize, 2, 3, 5] {
        let config = DistributedConfig {
            workers,
            hf,
            heldout_frac: 0.2,
            ..Default::default()
        };
        let out = train_distributed(&net, &corpus, &Objective::CrossEntropy, &config)
            .expect("training failed");
        let last = out
            .stats
            .iter()
            .rev()
            .find(|s| s.accepted)
            .unwrap_or_else(|| panic!("{workers} workers: no accepted step"));
        // Same data, same optimizer, two differences: the f32 sums
        // reduce in another order, and each worker draws its part of
        // the curvature sample from its own stream, so a W-worker run
        // trains on a different sample from the serial one. Both steer
        // CG slightly — quality must match.
        assert!(
            (last.heldout_after - serial_loss).abs() < 0.05 * (1.0 + serial_loss),
            "{workers} workers: loss {} vs serial {serial_loss}",
            last.heldout_after
        );
        assert!(
            (last.heldout_accuracy - serial_acc).abs() < 0.05,
            "{workers} workers: accuracy {} vs serial {serial_acc}",
            last.heldout_accuracy
        );
    }
}

#[test]
fn partition_strategy_does_not_change_quality() {
    let (corpus, net, hf) = setup();
    let mut losses = Vec::new();
    for strategy in [
        Strategy::Contiguous,
        Strategy::RoundRobin,
        Strategy::SortedBalanced,
    ] {
        let config = DistributedConfig {
            workers: 3,
            hf,
            strategy,
            heldout_frac: 0.2,
            ..Default::default()
        };
        let out = train_distributed(&net, &corpus, &Objective::CrossEntropy, &config)
            .expect("training failed");
        let last = out.stats.iter().rev().find(|s| s.accepted).unwrap();
        losses.push(last.heldout_after);
    }
    let max = losses.iter().cloned().fold(f64::MIN, f64::max);
    let min = losses.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max - min < 0.05 * (1.0 + min),
        "strategies disagree: {losses:?}"
    );
}

#[test]
fn distributed_run_produces_paper_instrumentation() {
    let (corpus, net, hf) = setup();
    let hf = hf.into_builder().max_iters(2).build().unwrap();
    let config = DistributedConfig {
        workers: 3,
        hf,
        heldout_frac: 0.2,
        ..Default::default()
    };
    let out = train_distributed(&net, &corpus, &Objective::CrossEntropy, &config)
        .expect("training failed");

    // The phase names of Figures 2-3.
    for phases in &out.worker_phases {
        for name in [
            "load_data",
            "gradient_loss",
            "worker_curvature_product",
            "eval_heldout",
            "sync_weights_worker",
        ] {
            assert!(phases.get(name).calls > 0, "missing worker phase {name}");
        }
    }
    assert!(out.master_phases.get("sync_weights_master").calls > 0);
    assert!(out.master_phases.get("load_data").calls > 0);

    // The comm classes of Figures 4-5.
    assert!(out.master_trace.p2p.bytes_sent > 0);
    assert!(out.master_trace.collective.bytes_sent > 0);
    assert!(out.master_trace.collectives_completed > 0);
    for t in &out.worker_traces {
        assert!(t.collective.bytes_received > 0);
    }

    // Weight broadcasts move ~num_params * 4 bytes per sync.
    let per_sync = 4 * net.num_params() as u64;
    assert!(
        out.master_trace.collective.bytes_sent >= per_sync,
        "master sent less than one parameter vector"
    );
}

#[test]
fn threads_per_rank_does_not_change_results() {
    // The paper's ranks x threads grid: math must be invariant to the
    // within-rank threading (GEMM decomposition is deterministic).
    let (corpus, net, hf) = setup();
    let hf = hf.into_builder().max_iters(3).build().unwrap();
    let run = |threads: usize| {
        let config = DistributedConfig {
            workers: 2,
            hf,
            threads_per_rank: threads,
            heldout_frac: 0.2,
            ..Default::default()
        };
        let out = train_distributed(&net, &corpus, &Objective::CrossEntropy, &config)
            .expect("training failed");
        out.network.to_flat()
    };
    let t1 = run(1);
    let t2 = run(2);
    assert_eq!(t1, t2, "threading changed the arithmetic");
}
