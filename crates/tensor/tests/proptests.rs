//! Property-based tests for the tensor kernels.
//!
//! The blocked GEMM must agree with the naive triple loop on *every*
//! shape/transpose/alpha/beta combination — edge panels, tiny
//! matrices, and block-boundary-straddling sizes included.

use pdnn_tensor::gemm::{Blocking, GemmContext, GemmOp, Trans};
use pdnn_tensor::{blas1, Matrix};
use proptest::prelude::*;

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<f32>> {
    proptest::collection::vec(-4.0f32..4.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

fn trans_strategy() -> impl Strategy<Value = Trans> {
    prop_oneof![Just(Trans::N), Just(Trans::T)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_gemm_matches_naive(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        ta in trans_strategy(),
        tb in trans_strategy(),
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
        seed in 0u64..1000,
    ) {
        let mut rng = pdnn_util::Prng::new(seed);
        let a: Matrix<f32> = match ta {
            Trans::N => Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng),
            Trans::T => Matrix::random_uniform(k, m, -1.0, 1.0, &mut rng),
        };
        let b: Matrix<f32> = match tb {
            Trans::N => Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng),
            Trans::T => Matrix::random_uniform(n, k, -1.0, 1.0, &mut rng),
        };
        let c0: Matrix<f32> = Matrix::random_uniform(m, n, -1.0, 1.0, &mut rng);

        let mut fast = c0.clone();
        let mut slow = c0;
        let op = GemmOp::ab(&a, ta, &b, tb).alpha(alpha).beta(beta);
        op.run(&GemmContext::sequential(), &mut fast);
        op.run_reference(&mut slow);
        prop_assert!(fast.max_abs_diff(&slow) < 1e-3,
            "diff={} m={m} n={n} k={k}", fast.max_abs_diff(&slow));
    }

    #[test]
    fn gemm_invariant_under_blocking(
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..48,
        mc in 1usize..40,
        kc in 1usize..40,
        nc in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = pdnn_util::Prng::new(seed);
        let a: Matrix<f32> = Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
        let b: Matrix<f32> = Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
        let mut c1 = Matrix::zeros(m, n);
        let mut c2 = Matrix::zeros(m, n);
        let default_ctx = GemmContext::sequential();
        let odd_ctx = GemmContext::sequential()
            .with_blocking(Blocking { mc, kc, nc });
        let op = GemmOp::<f32>::ab(&a, Trans::N, &b, Trans::N);
        op.run(&default_ctx, &mut c1);
        op.run(&odd_ctx, &mut c2);
        prop_assert!(c1.max_abs_diff(&c2) < 1e-3);
    }

    #[test]
    fn transpose_is_involution(a in (1usize..20, 1usize..20).prop_flat_map(|(r, c)| matrix_strategy(r, c))) {
        prop_assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn matmul_transpose_identity(
        m in 1usize..16,
        n in 1usize..16,
        k in 1usize..16,
        seed in 0u64..1000,
    ) {
        // (A B)^T == B^T A^T
        let mut rng = pdnn_util::Prng::new(seed);
        let a: Matrix<f32> = Matrix::random_uniform(m, k, -1.0, 1.0, &mut rng);
        let b: Matrix<f32> = Matrix::random_uniform(k, n, -1.0, 1.0, &mut rng);
        let product = |a: &Matrix<f32>, b: &Matrix<f32>| {
            let mut c = Matrix::zeros(a.rows(), b.cols());
            GemmOp::ab(a, Trans::N, b, Trans::N).run(&GemmContext::sequential(), &mut c);
            c
        };
        let ab_t = product(&a, &b).transposed();
        let bt_at = product(&b.transposed(), &a.transposed());
        prop_assert!(ab_t.max_abs_diff(&bt_at) < 1e-3);
    }

    #[test]
    fn dot_is_symmetric_and_bilinear(
        xs in proptest::collection::vec(-3.0f32..3.0, 1..64),
        alpha in -2.0f32..2.0,
    ) {
        let ys: Vec<f32> = xs.iter().map(|v| v * 0.5 - 1.0).collect();
        let xy = blas1::dot(&xs, &ys);
        let yx = blas1::dot(&ys, &xs);
        prop_assert!((xy - yx).abs() < 1e-6);

        let scaled: Vec<f32> = xs.iter().map(|v| alpha * v).collect();
        let lhs = blas1::dot(&scaled, &ys);
        prop_assert!((lhs - alpha as f64 * xy).abs() < 1e-3 * (1.0 + xy.abs()));
    }

    #[test]
    fn axpy_matches_scalar_loop(
        xs in proptest::collection::vec(-3.0f32..3.0, 1..64),
        alpha in -2.0f32..2.0,
    ) {
        let mut ys: Vec<f32> = xs.iter().rev().cloned().collect();
        let expect: Vec<f32> = ys.iter().zip(xs.iter()).map(|(&y, &x)| alpha * x + y).collect();
        blas1::axpy(alpha, &xs, &mut ys);
        for (got, want) in ys.iter().zip(expect.iter()) {
            prop_assert!((got - want).abs() < 1e-5);
        }
    }

    #[test]
    fn nrm2_triangle_inequality(
        xs in proptest::collection::vec(-3.0f32..3.0, 1..64),
    ) {
        let ys: Vec<f32> = xs.iter().map(|v| 1.0 - v).collect();
        let sum: Vec<f32> = xs.iter().zip(ys.iter()).map(|(&a, &b)| a + b).collect();
        prop_assert!(blas1::nrm2(&sum) <= blas1::nrm2(&xs) + blas1::nrm2(&ys) + 1e-6);
    }

    #[test]
    fn column_sums_match_transpose_row_sums(
        a in (1usize..12, 1usize..12).prop_flat_map(|(r, c)| matrix_strategy(r, c)),
    ) {
        let sums = a.column_sums();
        let t = a.transposed();
        for (c, &s) in sums.iter().enumerate() {
            let row_sum: f32 = t.row(c).iter().sum();
            prop_assert!((s - row_sum).abs() < 1e-4);
        }
    }
}
