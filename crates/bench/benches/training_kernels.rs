//! Criterion benches for the training-phase kernels the paper's
//! Figures 2–3 attribute cycles to: gradient passes, Gauss–Newton
//! curvature products, held-out loss evaluations, and the MMI
//! sequence criterion's forward–backward.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pdnn_dnn::gauss_newton::{gn_product, Curvature};
use pdnn_dnn::loss::softmax_rows;
use pdnn_dnn::sequence::mmi_batch;
use pdnn_dnn::{Activation, FrameLoss, Network};
use pdnn_speech::{Corpus, CorpusSpec};
use pdnn_tensor::gemm::GemmContext;
use pdnn_tensor::Matrix;
use pdnn_util::Prng;

struct Setup {
    net: Network<f32>,
    ctx: GemmContext,
    x: Matrix<f32>,
    labels: Vec<u32>,
}

fn setup(frames: usize) -> Setup {
    let mut rng = Prng::new(5);
    let dims = [64usize, 256, 256, 64];
    let net = Network::new(&dims, Activation::Sigmoid, &mut rng);
    let x = Matrix::random_normal(frames, dims[0], 1.0, &mut rng);
    let labels: Vec<u32> = (0..frames).map(|_| rng.below(64) as u32).collect();
    Setup {
        net,
        ctx: GemmContext::sequential(),
        x,
        labels,
    }
}

fn bench_gradient(c: &mut Criterion) {
    let s = setup(512);
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    group.throughput(Throughput::Elements(s.x.rows() as u64));
    group.bench_function("gradient_loss", |b| {
        b.iter(|| {
            pdnn_dnn::backprop::loss_and_gradient(
                &s.net,
                &s.ctx,
                &s.x,
                &s.labels,
                None,
                FrameLoss::CrossEntropy,
            )
        })
    });
    group.bench_function("eval_heldout", |b| {
        b.iter(|| {
            let logits = s.net.logits(&s.ctx, &s.x);
            pdnn_dnn::loss::cross_entropy_loss_only(&logits, &s.labels)
        })
    });
    group.finish();
}

fn bench_curvature(c: &mut Criterion) {
    let s = setup(512);
    let cache = s.net.forward(&s.ctx, &s.x);
    let q = softmax_rows(cache.logits());
    let mut rng = Prng::new(6);
    let v: Vec<f32> = (0..s.net.num_params())
        .map(|_| rng.normal() as f32 * 0.01)
        .collect();
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    group.throughput(Throughput::Elements(s.x.rows() as u64));
    group.bench_function("worker_curvature_product", |b| {
        b.iter(|| gn_product(&s.net, &s.ctx, &cache, Curvature::Fisher(&q), &v))
    });
    group.finish();
}

/// MMI on the corpus's own banded chain (self, +1, +2 arcs; every
/// other arc forbidden) and alignments, with the peaked logits of a
/// trained net: the input on which unlikely states' forward–backward
/// mass would go subnormal.
fn bench_sequence(c: &mut Criterion) {
    let states = 32;
    let corpus = Corpus::generate(CorpusSpec {
        states,
        utterances: 4,
        median_utt_frames: 64.0,
        length_sigma: 0.0,
        ..CorpusSpec::default()
    });
    let graph = corpus.denominator_graph();
    let shard = corpus.shard(&[0, 1, 2, 3]);
    let mut rng = Prng::new(7);
    let mut logits: Matrix<f32> = Matrix::random_normal(shard.frames(), states, 1.0, &mut rng);
    for (t, &a) in shard.labels.iter().enumerate() {
        logits[(t, a as usize)] += 12.0;
    }
    let mut group = c.benchmark_group("sequence");
    group.sample_size(10);
    group.throughput(Throughput::Elements(shard.frames() as u64));
    group.bench_function("mmi_forward_backward", |b| {
        b.iter(|| mmi_batch(&logits, &shard.labels, &shard.utt_lens, &graph))
    });
    group.finish();
}

criterion_group!(benches, bench_gradient, bench_curvature, bench_sequence);
criterion_main!(benches);
