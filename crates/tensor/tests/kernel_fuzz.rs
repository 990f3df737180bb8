//! Adversarial shape fuzz sweep for the SIMD kernel zone.
//!
//! Where `backend_parity` spot-checks a curated shape list, this sweep
//! is *exhaustive* over the adversarial axis set: every combination of
//! `m, n, k` drawn from {0, 1, MR-1, MR, MR+1, 13, NR-1, NR, NR+1} —
//! the values that historically break hand-indexed kernels (empty
//! operands, single-lane tails, one-past-a-tile edges, a ragged prime
//! that never divides the micro-tile). Every combination runs
//! through every `GemmOp` operand form on every ISA the host supports
//! and must match the forced-scalar reference bit for bit, in both
//! precisions.
//!
//! This is the dynamic complement to `pdnn-kernelcheck`: the static
//! pass proves the accesses are in bounds under the contracts; this
//! sweep checks the *values* those accesses produce on exactly the
//! shapes where a masked out-of-bounds read or a short tail loop
//! would still yield a wrong-but-in-bounds answer.

use pdnn_tensor::gemm::{
    available_isas, backend_for, scalar_backend, GemmContext, GemmOp, PackedA, PackedB, Trans, MR,
    NR,
};
use pdnn_tensor::{Matrix, Scalar};
use pdnn_util::Prng;

/// The adversarial axis: degenerate, tail-only, full-tile, and
/// one-past-tile extents in both tile dimensions, plus a prime that
/// divides neither.
fn axis() -> Vec<usize> {
    let mut v = vec![0, 1, MR - 1, MR, MR + 1, 13, NR - 1, NR, NR + 1];
    v.sort_unstable();
    v.dedup();
    v
}

fn rand_matrix<T: Scalar>(rows: usize, cols: usize, rng: &mut Prng) -> Matrix<T> {
    Matrix::from_fn(rows, cols, |r, c| {
        let _ = (r, c);
        T::from_f64(rng.uniform() * 2.0 - 1.0)
    })
}

/// All five operand forms of one `(m, n, k)` product under `ctx`.
fn all_forms<T: Scalar>(
    ctx: &GemmContext,
    m: usize,
    n: usize,
    k: usize,
    seed: u64,
) -> Vec<Matrix<T>> {
    let mut rng = Prng::new(seed);
    let a: Matrix<T> = rand_matrix(m, k, &mut rng);
    let b: Matrix<T> = rand_matrix(n, k, &mut rng);
    let c0: Matrix<T> = rand_matrix(m, n, &mut rng);
    let alpha = T::from_f64(1.5);
    let beta = T::from_f64(-0.5);

    let pa = PackedA::new(&a, Trans::N, ctx.blocking());
    let pb = PackedB::new(&b, Trans::T, ctx.blocking());

    let ops: Vec<GemmOp<'_, T>> = vec![
        GemmOp::ab(&a, Trans::N, &b, Trans::T),
        GemmOp::packed_b(&a, Trans::N, &pb),
        GemmOp::packed_a(&pa, &b, Trans::T),
        GemmOp::packed_ab(&pa, &pb),
        GemmOp::packed_a_bt(&pa, b.as_slice()),
    ];
    ops.into_iter()
        .map(|op| {
            let mut c = c0.clone();
            op.alpha(alpha).beta(beta).run(ctx, &mut c);
            c
        })
        .collect()
}

fn exhaustive_sweep<T: Scalar>() {
    let scalar_ctx = GemmContext::sequential().with_backend(scalar_backend());
    let axis = axis();
    for isa in available_isas() {
        let backend = backend_for(isa).expect("available ISA must resolve");
        let ctx = GemmContext::sequential().with_backend(backend);
        for &m in &axis {
            for &n in &axis {
                for &k in &axis {
                    let seed = (m * 83_777 + n * 911 + k) as u64 ^ 0x5eed;
                    let want = all_forms::<T>(&scalar_ctx, m, n, k, seed);
                    let got = all_forms::<T>(&ctx, m, n, k, seed);
                    for (form, (w, g)) in want.iter().zip(got.iter()).enumerate() {
                        assert_eq!(
                            w, g,
                            "backend {isa} diverges from scalar: form #{form}, \
                             m={m} n={n} k={k}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn f32_exhaustive_adversarial_shapes_bitwise_match_scalar() {
    exhaustive_sweep::<f32>();
}

#[test]
fn f64_exhaustive_adversarial_shapes_bitwise_match_scalar() {
    exhaustive_sweep::<f64>();
}

#[test]
fn tail_only_products_survive_tiny_panels() {
    // kc=1 blocking makes every k-panel a single element, so every
    // kernel invocation is all tail handling; combined with sub-tile
    // m/n this exercises the mr_eff/nr_eff edge paths exclusively.
    let blocking = pdnn_tensor::gemm::Blocking {
        mc: 8,
        kc: 1,
        nc: 8,
    };
    let scalar_ctx = GemmContext::sequential()
        .with_backend(scalar_backend())
        .with_blocking(blocking);
    for isa in available_isas() {
        let ctx = GemmContext::sequential()
            .with_backend(backend_for(isa).expect("available ISA must resolve"))
            .with_blocking(blocking);
        for m in 1..MR {
            for n in 1..NR {
                let want = all_forms::<f32>(&scalar_ctx, m, n, 3, 41);
                let got = all_forms::<f32>(&ctx, m, n, 3, 41);
                assert_eq!(want, got, "isa {isa} m={m} n={n} tail-only");
            }
        }
    }
}
