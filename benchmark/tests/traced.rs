//! The `Traced` decorator observes a run without changing it.

use pdnn::core::config::Preconditioner;
use pdnn::core::{DnnProblem, HfConfig, HfOptimizer, HfProblem, Objective};
use pdnn::dnn::{Activation, Network};
use pdnn::speech::{Corpus, CorpusSpec};
use pdnn::tensor::GemmContext;
use pdnn::util::Prng;
use pdnn_benchmark::child::theta_fnv;
use pdnn_benchmark::trace::{self, Recorder, Traced};

fn tiny_problem() -> DnnProblem {
    let corpus = Corpus::generate(CorpusSpec::tiny(5));
    let (train, held) = corpus.split_heldout(0.25);
    let mut rng = Prng::new(1);
    let net = Network::new(
        &[corpus.spec().feature_dim, 16, corpus.spec().states],
        Activation::Sigmoid,
        &mut rng,
    );
    DnnProblem::new(
        net,
        GemmContext::sequential(),
        corpus.shard(&train),
        corpus.shard(&held),
        Objective::CrossEntropy,
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn forwards_fisher_diagonal() {
    // The trait's default `fisher_diagonal` returns `None`; a decorator
    // that forgot to forward it would silently disable preconditioning.
    let mut plain = tiny_problem();
    plain.sample_curvature(7, 0.5);
    let want = plain.fisher_diagonal().expect("DnnProblem supports it");

    let rec = Recorder::new();
    let mut inner = tiny_problem();
    let mut traced = Traced::new(&mut inner, &rec);
    traced.sample_curvature(7, 0.5);
    let got = traced.fisher_diagonal().expect("Traced must forward it");
    assert_eq!(bits(&got), bits(&want));
    let spans = rec.spans();
    assert_eq!(trace::total_by_name(&spans, trace::SPAN_FISHER).1, 1);
    assert_eq!(trace::total_by_name(&spans, trace::SPAN_SAMPLE).1, 1);
}

fn train(config: HfConfig, rec: Option<&Recorder>) -> (u64, Vec<(usize, bool, u64)>) {
    let mut problem = tiny_problem();
    let stats = match rec {
        None => HfOptimizer::new(config).train(&mut problem),
        Some(rec) => {
            let mut traced = Traced::new(&mut problem, rec);
            rec.time(trace::SPAN_ROOT, || {
                HfOptimizer::new(config).train(&mut traced)
            })
        }
    };
    let theta = problem.theta();
    let shape = stats
        .iter()
        .map(|s| (s.cg_iters, s.accepted, s.heldout_after.to_bits()))
        .collect();
    (theta_fnv(&theta), shape)
}

#[test]
fn traced_run_is_bit_identical_to_untraced() {
    for preconditioner in [
        Preconditioner::None,
        Preconditioner::EmpiricalFisher { exponent: 0.75 },
    ] {
        let config = HfConfig::small_task()
            .into_builder()
            .max_iters(3)
            .preconditioner(preconditioner)
            .build()
            .unwrap();
        let rec = Recorder::new();
        assert_eq!(train(config, Some(&rec)), train(config, None));

        // Every trait call is a child of the root span, so the parts
        // add up to the root exactly.
        let spans = rec.spans();
        let root = trace::find(&spans, trace::SPAN_ROOT).unwrap();
        let children: u64 = spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(trace::Span::duration_ns)
            .sum();
        assert_eq!(
            trace::self_ns(&spans, root) + children,
            spans[root as usize].duration_ns()
        );
        assert_eq!(trace::total_by_name(&spans, trace::SPAN_GRADIENT).1, 3);
        let fisher_calls = trace::total_by_name(&spans, trace::SPAN_FISHER).1;
        match preconditioner {
            Preconditioner::None => assert_eq!(fisher_calls, 0),
            Preconditioner::EmpiricalFisher { .. } => assert_eq!(fisher_calls, 3),
        }
    }
}

#[test]
fn theta_fnv_tells_bit_patterns_apart() {
    assert_ne!(theta_fnv(&[0.0]), theta_fnv(&[-0.0]));
    assert_ne!(theta_fnv(&[1.0, 2.0]), theta_fnv(&[2.0, 1.0]));
    assert_eq!(theta_fnv(&[1.5, -2.5]), theta_fnv(&[1.5, -2.5]));
}
