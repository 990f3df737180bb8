//! Scalar-vs-SIMD bit-identity property tests.
//!
//! The backend contract (see `gemm::backend`) promises that every
//! runtime-dispatched microkernel reproduces the forced-scalar
//! reference *bitwise* — same fused multiply-add accumulation chains,
//! same rounding — so that backend selection can never perturb training
//! trajectories or telemetry. These tests sweep odd and degenerate
//! panel shapes (ragged edges, single rows/columns, k = 1, shapes
//! straddling MR/NR and cache-block boundaries) across every operand
//! form of [`GemmOp`] for every ISA the host actually supports, and
//! hold every instantiation of the element-wise `exp`/sigmoid/tanh
//! row kernels to the portable loop's bits.

use pdnn_tensor::gemm::{
    available_isas, backend_for, scalar_backend, Blocking, GemmContext, GemmOp, PackedA, PackedB,
    Trans, BT_COLS, MR, NR,
};
use pdnn_tensor::vmath::{self, RowOp};
use pdnn_tensor::{Matrix, Scalar};
use pdnn_util::Prng;

/// Shapes chosen to exercise full tiles, ragged edges in both the MR
/// and NR dimensions, degenerate single-row/column products, and
/// sizes that straddle the default cache blocks.
fn shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (1, 1, 64),
        (1, 17, 1),
        (MR, NR, 7),
        (MR - 1, NR + 1, 13),
        (MR + 1, NR - 1, 1),
        (2 * MR + 3, 2 * NR + 5, 31),
        (37, 29, 41),
        (64, 64, 64),
        (129, 65, 257), // straddles mc=128 and kc=256
        // Column counts around the micro-tile width, which the SIMD
        // kernels walk in register-width groups.
        (MR + 3, 1, 19),
        (MR + 3, NR - 1, 19),
        (MR + 3, NR, 19),
        (MR + 3, NR + 1, 19),
        (MR + 3, 2 * NR + 8, 19),
    ]
}

fn rand_matrix<T: Scalar>(rows: usize, cols: usize, rng: &mut Prng) -> Matrix<T> {
    // Non-round values so any rounding divergence actually shows up.
    Matrix::from_fn(rows, cols, |r, c| {
        let _ = (r, c);
        T::from_f64(rng.uniform() * 2.0 - 1.0)
    })
}

/// Run every GemmOp operand form for `(m, n, k)` under `ctx` and
/// return the results, bitwise-comparable across contexts.
fn all_forms<T: Scalar>(
    ctx: &GemmContext,
    m: usize,
    n: usize,
    k: usize,
    seed: u64,
) -> Vec<Matrix<T>> {
    let mut rng = Prng::new(seed);
    let a: Matrix<T> = rand_matrix(m, k, &mut rng);
    // b is stored n x k and used transposed, so the same storage can
    // feed both the plain/packed forms and the streamed-B^T form.
    let b: Matrix<T> = rand_matrix(n, k, &mut rng);
    let c0: Matrix<T> = rand_matrix(m, n, &mut rng);
    let alpha = T::from_f64(0.75);
    let beta = T::from_f64(-1.25);

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

fn assert_backend_parity<T: Scalar>() {
    let scalar_ctx = GemmContext::sequential().with_backend(scalar_backend());
    for isa in available_isas() {
        let backend = backend_for(isa).expect("available ISA must resolve");
        let ctx = GemmContext::sequential().with_backend(backend);
        for (m, n, k) in shapes() {
            let seed = (m * 1_000_000 + n * 1_000 + k) as u64;
            let want = all_forms::<T>(&scalar_ctx, m, n, k, seed);
            let got = all_forms::<T>(&ctx, m, n, k, seed);
            for (form, (w, g)) in want.iter().zip(got.iter()).enumerate() {
                assert_eq!(
                    w, g,
                    "backend {isa} diverges from scalar: form #{form}, m={m} n={n} k={k}"
                );
            }
        }
    }
}

#[test]
fn f32_backends_bitwise_match_scalar_on_awkward_shapes() {
    assert_backend_parity::<f32>();
}

#[test]
fn f64_backends_bitwise_match_scalar_on_awkward_shapes() {
    assert_backend_parity::<f64>();
}

#[test]
fn parity_holds_under_degenerate_blocking() {
    // Tiny cache blocks force kc=1 panels and maximal edge handling.
    let blocking = Blocking {
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
        for (m, n, k) in [(3, 5, 2), (MR, NR, 1), (19, 23, 9)] {
            let want = all_forms::<f32>(&scalar_ctx, m, n, k, 99);
            let got = all_forms::<f32>(&ctx, m, n, k, 99);
            assert_eq!(want, got, "isa {isa} m={m} n={n} k={k}");
        }
    }
}

#[test]
fn parity_holds_threaded() {
    // Row-stripe partitioning must not interact with kernel choice.
    let scalar_ctx = GemmContext::threaded(4).with_backend(scalar_backend());
    for isa in available_isas() {
        let ctx = GemmContext::threaded(4).with_backend(backend_for(isa).expect("resolves"));
        let want = all_forms::<f32>(&scalar_ctx, 70, 33, 48, 7);
        let got = all_forms::<f32>(&ctx, 70, 33, 48, 7);
        assert_eq!(want, got, "isa {isa}");
    }
}

/// Fusion witness: with `e^2` below the type's precision the product
/// `(1 + e)(1 - e) = 1 - e^2` is not representable, so a chain that
/// rounds it before adding `-1` gives 0 where the fused chain keeps
/// `-e^2`. The `-1` is put into the chain by a first `kk` step of
/// `-1 * 1`, so both steps run inside the accumulate kernels.
fn assert_chains_are_fused<T: Scalar>(e: f64) {
    let (a, b) = (T::from_f64(1.0 + e), T::from_f64(1.0 - e));
    assert_eq!(a.mul_add(b, -T::ONE), T::ZERO, "witness must need fusion");
    let want = T::from_f64(-e * e);
    let (m, n) = (MR + 1, NR + BT_COLS + 1);
    let am: Matrix<T> = Matrix::from_fn(m, 2, |_, kk| if kk == 0 { -T::ONE } else { a });
    let bm: Matrix<T> = Matrix::from_fn(n, 2, |_, kk| if kk == 0 { T::ONE } else { b });
    for isa in available_isas() {
        let ctx = GemmContext::sequential().with_backend(backend_for(isa).expect("resolves"));
        let pa = PackedA::new(&am, Trans::N, ctx.blocking());
        let pb = PackedB::new(&bm, Trans::T, ctx.blocking());
        let forms = [
            ("acc", GemmOp::packed_ab(&pa, &pb)),
            ("bt", GemmOp::packed_a_bt(&pa, bm.as_slice())),
        ];
        for (kernel, op) in forms {
            let mut c = Matrix::zeros(m, n);
            op.run(&ctx, &mut c);
            assert!(
                c.as_slice().iter().all(|&v| v == want),
                "backend {isa}: the {kernel} kernel's accumulate step is not fused"
            );
        }
    }
}

#[test]
fn every_backend_fuses_its_accumulate_chains() {
    assert_chains_are_fused::<f32>(2f64.powi(-13));
    assert_chains_are_fused::<f64>(2f64.powi(-27));
}

/// Inputs for the element-wise kernels: both tails, both flush and
/// overflow edges, signed zeros, subnormals, infinities, NaN and a wide
/// random spread; 1031 of them, so every vector width leaves a tail.
fn elementwise_inputs<T: Scalar>(edge: f64, rng: &mut Prng) -> Vec<T> {
    let mut xs: Vec<T> = [
        0.0,
        -0.0,
        1e-310,
        -1e-40,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        edge,
        -edge,
        edge + 1.0,
        -edge - 1.0,
    ]
    .into_iter()
    .map(T::from_f64)
    .collect();
    while xs.len() < 1031 {
        let scale = [1.0, 10.0, edge][xs.len() % 3];
        xs.push(T::from_f64((rng.uniform() * 2.0 - 1.0) * scale));
    }
    xs
}

/// Every instantiation of the element-wise row kernel (portable, and
/// FMA, AVX2 and AVX-512 where the CPU has them) gives the portable
/// loop's bits for every pass, at every length up to a few vectors.
fn row_kernels_bitwise_match_portable<T: Scalar>(edge: f64) {
    let mut rng = Prng::new(26);
    let xs: Vec<T> = elementwise_inputs(edge, &mut rng);
    let bias: Vec<T> = (0..xs.len())
        .map(|_| T::from_f64(rng.uniform() * 4.0 - 2.0))
        .collect();
    let kernels = vmath::instantiations::<T>();
    let (_, portable) = kernels[0];
    for op in [RowOp::Exp, RowOp::BiasSigmoid, RowOp::BiasTanh] {
        for len in (0..40).chain([xs.len()]) {
            let mut want = xs[..len].to_vec();
            portable(op, &mut want, &bias[..len]);
            for &(name, kernel) in &kernels {
                let mut got = xs[..len].to_vec();
                kernel(op, &mut got, &bias[..len]);
                let same = got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_f64().to_bits() == w.to_f64().to_bits());
                assert!(same, "{name} {op:?} len {len} differs from portable");
            }
        }
    }
}

#[test]
fn every_elementwise_instantiation_is_bitwise_equal() {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("fma") {
        let names: Vec<&str> = vmath::instantiations::<f32>()
            .iter()
            .map(|(name, _)| *name)
            .collect();
        assert_eq!(names, ["portable", "fma", "avx2", "avx512"]);
    }
    row_kernels_bitwise_match_portable::<f32>(88.0);
    row_kernels_bitwise_match_portable::<f64>(709.0);
}
