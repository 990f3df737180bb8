//! Criterion microbenches for the GEMM kernels (Section V.A).
//!
//! Covers the blocking ablation DESIGN.md calls out: default MC/KC/NC
//! vs deliberately bad block sizes, plus the naive reference, the
//! thread ladder and the awkward shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pdnn_tensor::gemm::{gemm_flops, Blocking, GemmContext, GemmOp, PackedB, Trans};
use pdnn_tensor::Matrix;
use pdnn_util::Prng;

fn square_inputs(n: usize) -> (Matrix<f32>, Matrix<f32>) {
    let mut rng = Prng::new(42);
    (
        Matrix::random_normal(n, n, 1.0, &mut rng),
        Matrix::random_normal(n, n, 1.0, &mut rng),
    )
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_kernels");
    group.sample_size(10);
    for &n in &[128usize, 256] {
        let (a, b) = square_inputs(n);
        group.throughput(Throughput::Elements(gemm_flops(n, n, n)));
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            let mut out = Matrix::zeros(n, n);
            bch.iter(|| GemmOp::<f32>::ab(&a, Trans::N, &b, Trans::N).run_reference(&mut out));
        });
        let ctx = GemmContext::sequential();
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bch, _| {
            let mut out = Matrix::zeros(n, n);
            bch.iter(|| GemmOp::<f32>::ab(&a, Trans::N, &b, Trans::N).run(&ctx, &mut out));
        });
        // The weight-reuse path: B packed once outside the loop (the
        // paper's memory-reuse optimization).
        let packed = PackedB::new(&b, Trans::N, ctx.blocking());
        group.bench_with_input(BenchmarkId::new("prepacked", n), &n, |bch, _| {
            let mut out = Matrix::zeros(n, n);
            bch.iter(|| GemmOp::packed_b(&a, Trans::N, &packed).run(&ctx, &mut out));
        });
    }
    group.finish();
}

fn bench_blocking_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_blocking");
    group.sample_size(10);
    let n = 384;
    let (a, b) = square_inputs(n);
    group.throughput(Throughput::Elements(gemm_flops(n, n, n)));
    let variants = [
        ("default", Blocking::default()),
        (
            "tiny_blocks",
            Blocking {
                mc: 16,
                kc: 16,
                nc: 32,
            },
        ),
        (
            "tall_kc",
            Blocking {
                mc: 64,
                kc: 1024,
                nc: 256,
            },
        ),
    ];
    for (name, blocking) in variants {
        let ctx = GemmContext::sequential().with_blocking(blocking);
        group.bench_function(name, |bch| {
            let mut out = Matrix::zeros(n, n);
            bch.iter(|| GemmOp::<f32>::ab(&a, Trans::N, &b, Trans::N).run(&ctx, &mut out));
        });
    }
    group.finish();
}

fn bench_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_threads");
    group.sample_size(10);
    let n = 512;
    let (a, b) = square_inputs(n);
    group.throughput(Throughput::Elements(gemm_flops(n, n, n)));
    for &threads in &[1usize, 2, 4] {
        let ctx = GemmContext::threaded(threads);
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |bch, _| {
            let mut out = Matrix::zeros(n, n);
            bch.iter(|| GemmOp::<f32>::ab(&a, Trans::N, &b, Trans::N).run(&ctx, &mut out));
        });
    }
    group.finish();
}

/// The paper's "dimensions that do not lend themselves to full
/// SIMDization": tile-ragged edges, a deep-k skinny product and a
/// shallow-k wide one, single-threaded.
fn bench_awkward_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_awkward_shapes");
    group.sample_size(10);
    let mut rng = Prng::new(11);
    let ctx = GemmContext::sequential();
    for (m, k, n) in [
        (1000usize, 440usize, 1024usize),
        (999, 441, 1023),
        (64, 10000, 64),
        (4096, 32, 4096),
    ] {
        let a: Matrix<f32> = Matrix::random_normal(m, k, 1.0, &mut rng);
        let b: Matrix<f32> = Matrix::random_normal(k, n, 1.0, &mut rng);
        group.throughput(Throughput::Elements(gemm_flops(m, n, k)));
        group.bench_function(format!("{m}x{k}x{n}"), |bch| {
            let mut out = Matrix::zeros(m, n);
            bch.iter(|| GemmOp::<f32>::ab(&a, Trans::N, &b, Trans::N).run(&ctx, &mut out));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_blocking_ablation,
    bench_threads,
    bench_awkward_shapes
);
criterion_main!(benches);
