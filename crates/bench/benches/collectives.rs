//! Criterion benches for the message-passing collectives (the
//! runtime standing in for MPI-on-BG/Q): broadcast, reduce, and
//! allreduce of parameter-sized vectors across thread-rank worlds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pdnn_mpisim::{run_world, ReduceOp};

fn bench_collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("collectives");
    group.sample_size(10);
    let elems = 100_000usize; // a 400 KB "model"
    group.throughput(Throughput::Bytes(4 * elems as u64));
    for &ranks in &[2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("bcast", ranks), &ranks, |b, &r| {
            b.iter(|| {
                run_world(r, |comm| {
                    let mut buf = if comm.rank() == 0 {
                        vec![1.0f32; elems]
                    } else {
                        Vec::new()
                    };
                    comm.bcast(&mut buf, 0).unwrap();
                    buf.len()
                })
            })
        });
        group.bench_with_input(BenchmarkId::new("reduce", ranks), &ranks, |b, &r| {
            b.iter(|| {
                run_world(r, |comm| {
                    let mut buf = vec![comm.rank() as f32; elems];
                    comm.reduce(&mut buf, ReduceOp::Sum, 0).unwrap();
                })
            })
        });
        group.bench_with_input(BenchmarkId::new("allreduce", ranks), &ranks, |b, &r| {
            b.iter(|| {
                run_world(r, |comm| {
                    let mut buf = vec![comm.rank() as f32; elems];
                    comm.allreduce(&mut buf, ReduceOp::Sum).unwrap();
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_collectives);
criterion_main!(benches);
