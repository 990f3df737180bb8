//! Preconditioner ablation — the extension the paper defers ("it
//! currently does not use a preconditioner \[25\]"): Martens'
//! empirical-Fisher diagonal preconditioner for the inner CG solves.
//!
//! Reports total CG iterations (= curvature products = the dominant
//! communication volume at scale) and final quality with and without
//! preconditioning, across ξ exponents.

use pdnn_bench::{arg_num, emit};
use pdnn_core::config::Preconditioner;
use pdnn_core::{DnnProblem, HfConfig, HfOptimizer, Objective};
use pdnn_dnn::{Activation, Network};
use pdnn_speech::{Corpus, CorpusSpec};
use pdnn_tensor::gemm::GemmContext;
use pdnn_util::report::Table;
use pdnn_util::Prng;

fn main() {
    let iters: usize = arg_num("--iters", 8);
    let corpus = Corpus::generate(CorpusSpec {
        utterances: 120,
        emission_noise: 0.8,
        ..CorpusSpec::tiny(321)
    });
    let (train_ids, held_ids) = corpus.split_heldout(0.2);

    let mut t = Table::new(
        "CG preconditioning ablation (Martens empirical-Fisher diagonal)",
        &[
            "preconditioner",
            "total CG iters",
            "final heldout loss",
            "final accuracy",
        ],
    );

    let variants = [
        ("none (paper)", Preconditioner::None),
        (
            "fisher ξ=0.5",
            Preconditioner::EmpiricalFisher { exponent: 0.5 },
        ),
        (
            "fisher ξ=0.75",
            Preconditioner::EmpiricalFisher { exponent: 0.75 },
        ),
        (
            "fisher ξ=1.0",
            Preconditioner::EmpiricalFisher { exponent: 1.0 },
        ),
    ];
    for (name, precond) in variants {
        let mut rng = Prng::new(6);
        let net: Network<f32> = Network::new(
            &[corpus.spec().feature_dim, 24, corpus.spec().states],
            Activation::Sigmoid,
            &mut rng,
        );
        let mut problem = DnnProblem::new(
            net,
            GemmContext::sequential(),
            corpus.shard(&train_ids),
            corpus.shard(&held_ids),
            Objective::CrossEntropy,
        );
        let cfg = HfConfig::small_task()
            .into_builder()
            .max_iters(iters)
            .preconditioner(precond)
            .build()
            .expect("invalid HF configuration");
        let stats = HfOptimizer::new(cfg).train(&mut problem);
        let total_cg: usize = stats.iter().map(|s| s.cg_iters).sum();
        let last = stats.iter().rev().find(|s| s.accepted);
        t.row(&[
            name.to_string(),
            format!("{total_cg}"),
            last.map(|s| format!("{:.4}", s.heldout_after))
                .unwrap_or_else(|| "n/a".into()),
            last.map(|s| format!("{:.3}", s.heldout_accuracy))
                .unwrap_or_else(|| "n/a".into()),
        ]);
    }
    emit(&t, "preconditioner");
    println!(
        "Every CG iteration is a broadcast + Gauss-Newton product + reduction\n\
         across all ranks, so CG iterations map directly to communication and\n\
         curvature compute at scale — fewer is faster."
    );
}
