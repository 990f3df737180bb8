//! Serial SGD vs Hessian-free on the same task — the comparison behind
//! the paper's motivation (Section II.A): serial SGD is the default;
//! HF's advantage is that its big-batch structure parallelizes, while
//! SGD's tiny minibatches would need a Θ(parameters) allreduce each
//! when distributed.
//!
//! This example trains the same network with both and reports the
//! held-out quality each reaches and how many updates it took.
//!
//! ```sh
//! cargo run --release --example sgd_vs_hf
//! ```

use pdnn::baselines::{train_sgd, SgdConfig};
use pdnn::core::{DnnProblem, HfConfig, HfOptimizer, Objective};
use pdnn::dnn::{Activation, Network};
use pdnn::speech::{Corpus, CorpusSpec};
use pdnn::tensor::GemmContext;
use pdnn::util::Prng;

fn main() {
    let corpus = Corpus::generate(CorpusSpec {
        utterances: 100,
        ..CorpusSpec::tiny(31)
    });
    let (train_ids, held_ids) = corpus.split_heldout(0.2);
    let train = corpus.shard(&train_ids);
    let heldout = corpus.shard(&held_ids);
    let mut rng = Prng::new(9);
    let net0: Network<f32> = Network::new(
        &[corpus.spec().feature_dim, 24, corpus.spec().states],
        Activation::Sigmoid,
        &mut rng,
    );
    let ctx = GemmContext::sequential();

    // ---- serial SGD -------------------------------------------------
    let sgd_cfg = SgdConfig {
        epochs: 10,
        minibatch: 128,
        ..Default::default()
    };
    let mut sgd_net = net0.clone();
    let sgd_stats = train_sgd(&mut sgd_net, &ctx, &train, &heldout, &sgd_cfg);
    let sgd_last = sgd_stats.last().unwrap();
    println!(
        "serial SGD:   {} epochs, {} updates/epoch -> heldout loss {:.4}, accuracy {:.3}",
        sgd_cfg.epochs, sgd_last.updates, sgd_last.heldout_loss, sgd_last.heldout_accuracy
    );

    // ---- Hessian-free -----------------------------------------------
    let mut problem = DnnProblem::new(
        net0.clone(),
        ctx.clone(),
        train.clone(),
        heldout.clone(),
        Objective::CrossEntropy,
    );
    let hf_cfg = HfConfig::small_task()
        .into_builder()
        .max_iters(10)
        .build()
        .expect("invalid HF configuration");
    let hf_stats = HfOptimizer::new(hf_cfg).train(&mut problem);
    let hf_last = hf_stats.iter().rev().find(|s| s.accepted).unwrap();
    println!(
        "Hessian-free: {} iterations              -> heldout loss {:.4}, accuracy {:.3}",
        hf_stats.len(),
        hf_last.heldout_after,
        hf_last.heldout_accuracy
    );
}
