//! Master-mode worker arenas reach a steady state.
//!
//! A worker's `Workspace` should hold only buffers its engine handed
//! out and got back, so once every command has run once the parked
//! set stops growing: the `arena_high_water_bytes` gauge a worker
//! publishes after its last GN product must not depend on how many HF
//! iterations ran. Parking a buffer the engine never took (a received
//! θ, GN operand or trial θ) grows the gauge by one vector per
//! command, which this test catches.

use pdnn_core::{train_distributed_deterministic, DistributedConfig, Objective, SyncStrategy};
use pdnn_dnn::{Activation, Network};
use pdnn_speech::{Corpus, CorpusSpec};
use pdnn_util::Prng;

/// Each worker's final `arena_high_water_bytes` after `iters` HF
/// iterations of master-mode CE training at 2 workers.
fn worker_high_water(corpus: &Corpus, iters: usize) -> Vec<f64> {
    let mut rng = Prng::new(11);
    let net0 = Network::new(
        &[corpus.spec().feature_dim, 12, corpus.spec().states],
        Activation::Sigmoid,
        &mut rng,
    );
    let mut config = DistributedConfig {
        workers: 2,
        sync: SyncStrategy::Master,
        ..DistributedConfig::default()
    };
    config.hf.max_iters = iters;
    let out = train_distributed_deterministic(&net0, corpus, &Objective::CrossEntropy, &config)
        .expect("training failed");
    assert_eq!(out.stats.len(), iters, "training stopped early");
    out.worker_telemetries
        .iter()
        .map(|t| {
            t.gauge("arena_high_water_bytes")
                .expect("worker published no arena gauge")
        })
        .collect()
}

#[test]
fn worker_arena_high_water_is_independent_of_iteration_count() {
    let corpus = Corpus::generate(CorpusSpec::tiny(23));
    let short = worker_high_water(&corpus, 2);
    let long = worker_high_water(&corpus, 4);
    assert_eq!(short.len(), 2);
    assert_eq!(
        short, long,
        "worker arena high water grew with the iteration count"
    );
}
