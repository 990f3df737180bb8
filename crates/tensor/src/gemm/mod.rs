//! Blocked, packed, multi-threaded GEMM.
//!
//! Structure follows the paper's "telescoping" view of BG/Q
//! (Section V.A): node, core, and thread levels are handled by
//! separate mechanisms that are designed together.
//!
//! * **Thread level** — [`kernel::microkernel`]: an `MR x NR`
//!   register-blocked rank-1-update kernel reading zero-padded packed
//!   panels with unit stride (the paper's QPX FMA kernel, with the
//!   tile sized to this host family's register file instead of
//!   QPX's). The accumulate loop itself is supplied by the active
//!   [`backend::ComputeBackend`] — explicit AVX2/AVX-512/NEON
//!   `std::arch` kernels selected by runtime feature detection, or the
//!   scalar reference.
//! * **Core level** — [`pack`]: operands are reformatted into
//!   micro-panels so every inner-loop access is stride-one, the
//!   software analogue of engaging the L1P stream prefetcher.
//! * **Node level** — this module: cache blocking (`MC/KC/NC`) plus
//!   row-stripe parallelism across a rayon pool (the paper's OpenMP
//!   ranks-per-node times threads-per-rank grid). Each stripe packs
//!   its own operands, so no synchronization is needed between
//!   threads — C stripes are disjoint `&mut` chunks and Rust's borrow
//!   checker proves the decomposition race-free.
//!
//! The paper's "implicitly synchronized threads" (partner threads
//! cooperatively prefetching each other's cache lines) relies on
//! cycle-level SMT control that portable Rust cannot express; its
//! effect is an efficiency factor, modeled in `pdnn-bgq` (see
//! DESIGN.md substitutions).
//!
//! ## Backend dispatch and the bit-exactness contract
//!
//! A [`GemmContext`] carries a `&'static dyn ComputeBackend`; the
//! constructors embed [`backend::default_backend`] (auto-detected, or
//! forced via the `PDNN_BACKEND` environment variable), and
//! [`GemmContext::with_backend`] overrides it per context. Every
//! backend is required to be **bit-identical** to the forced-scalar
//! reference: kernels may vectorize across the independent
//! per-element accumulation chains but must keep each chain's
//! operation order — one exactly-rounded fused multiply-add per `kk`
//! step, `kk` ascending (see [`backend`] module docs). Switching
//! backends therefore never changes trained weights, telemetry bytes,
//! or any other gated artifact — only wall-clock time.
//!
//! ## Entry points
//!
//! All products go through the [`op::GemmOp`] descriptor: name the
//! operands (plain, prepacked, or streamed-`B^T`), set `alpha`/`beta`,
//! and [`op::GemmOp::run`] it on a context. Training multiplies every
//! batch against the *same* weights, and a CG solve multiplies dozens
//! of directions against the *same* curvature-minibatch activations —
//! so the hot path prepacks via [`PackedB`]/[`PackedA`] and runs
//! `GemmOp` against the cached panels, bitwise equal to the plain
//! two-matrix form under the same blocking.

pub mod backend;
pub mod kernel;
pub mod naive;
pub mod op;
pub mod pack;
pub mod prepacked;

pub use prepacked::{PackedA, PackedB};

pub use backend::{
    available_isas, backend_for, default_backend, detect_best, scalar_backend, BackendConfig,
    BackendConfigBuilder, BackendError, ComputeBackend, Isa, BACKEND_ENV,
};
pub use op::GemmOp;

use crate::matrix::Matrix;
use crate::scalar::Scalar;
use rayon::prelude::*;
use std::sync::Arc;

/// Micro-tile rows (register blocking; the paper's QPX kernel holds
/// an 8-row C block the same way).
pub const MR: usize = 8;
/// Micro-tile columns: one AVX-512 register of f32, so the widest
/// kernel keeps a whole tile row in a single register; narrower
/// kernels walk the row in register-width groups.
pub const NR: usize = 16;
/// B rows one streaming-`B^T` kernel call consumes: that many
/// independent column chains in flight hide the FMA latency a single
/// chain would serialize on.
pub const BT_COLS: usize = 4;

/// Transpose flag for a GEMM operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    N,
    /// Use the transpose of the operand.
    T,
}

/// Cache-blocking parameters (`MC/KC/NC` in BLIS terminology).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blocking {
    /// Rows of A per stripe (L2-resident A panel height).
    pub mc: usize,
    /// Depth of the packed panels (L1-resident rank-k update).
    pub kc: usize,
    /// Columns of B per packed panel (L3/stream sized).
    pub nc: usize,
}

impl Default for Blocking {
    fn default() -> Self {
        Blocking {
            mc: 128,
            kc: 256,
            nc: 1024,
        }
    }
}

impl Blocking {
    /// Validate and clamp degenerate values (zero block sizes would
    /// loop forever; clamp to the micro-tile).
    pub fn sanitized(self) -> Blocking {
        Blocking {
            mc: self.mc.max(MR),
            kc: self.kc.max(1),
            nc: self.nc.max(NR),
        }
    }
}

/// Execution context: thread count, pool, blocking parameters, and the
/// compute backend supplying the microkernels.
///
/// A context is cheap to clone (the pool is shared, the backend is a
/// static). The DNN layer keeps one context per worker rank, mirroring
/// the paper's "ranks-per-node x OpenMP-threads-per-rank"
/// configurations.
#[derive(Clone)]
pub struct GemmContext {
    threads: usize,
    pool: Option<Arc<rayon::ThreadPool>>,
    blocking: Blocking,
    backend: &'static dyn backend::ComputeBackend,
}

impl std::fmt::Debug for GemmContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GemmContext")
            .field("threads", &self.threads)
            .field("blocking", &self.blocking)
            .field("backend", &self.backend.isa())
            .finish()
    }
}

impl Default for GemmContext {
    fn default() -> Self {
        Self::sequential()
    }
}

impl GemmContext {
    /// Single-threaded context (deterministic, no pool), on the
    /// process-default backend.
    pub fn sequential() -> Self {
        GemmContext {
            threads: 1,
            pool: None,
            blocking: Blocking::default(),
            backend: backend::default_backend(),
        }
    }

    /// Context with a private pool of `threads` workers, on the
    /// process-default backend.
    ///
    /// `threads == 1` degrades to [`GemmContext::sequential`].
    pub fn threaded(threads: usize) -> Self {
        let threads = threads.max(1);
        let pool = if threads > 1 {
            Some(Arc::new(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    // pdnn-lint: allow(l3-no-unwrap): pool construction cannot fail for num_threads >= 1, guaranteed by the max(1) above
                    .expect("failed to build GEMM thread pool"),
            ))
        } else {
            None
        };
        GemmContext {
            threads,
            pool,
            blocking: Blocking::default(),
            backend: backend::default_backend(),
        }
    }

    /// Replace the blocking parameters (used by the blocking ablation).
    pub fn with_blocking(mut self, blocking: Blocking) -> Self {
        self.blocking = blocking.sanitized();
        self
    }

    /// Replace the compute backend (used by forced-backend tests and
    /// the per-ISA bench sweep; production code keeps the
    /// [`backend::default_backend`] the constructors embed).
    pub fn with_backend(mut self, backend: &'static dyn backend::ComputeBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Blocking parameters in effect.
    pub fn blocking(&self) -> Blocking {
        self.blocking
    }

    /// The compute backend supplying the microkernels.
    pub fn backend(&self) -> &'static dyn backend::ComputeBackend {
        self.backend
    }

    pub(crate) fn run_pool<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        match &self.pool {
            Some(pool) => pool.install(f),
            None => f(),
        }
    }
}

/// FLOP count of a GEMM with the given logical dimensions.
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

/// `C = alpha * op(A) * op(B) + beta * C`.
///
/// Shapes: `op(A)` is `m x k`, `op(B)` is `k x n`, `C` is `m x n`.
///
/// # Panics
/// On any shape mismatch.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub(crate) fn gemm_impl<T: Scalar>(
    ctx: &GemmContext,
    ta: Trans,
    tb: Trans,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    c: &mut Matrix<T>,
) {
    let (m, k) = match ta {
        Trans::N => a.shape(),
        Trans::T => {
            let (r, cc) = a.shape();
            (cc, r)
        }
    };
    let (kb, n) = match tb {
        Trans::N => b.shape(),
        Trans::T => {
            let (r, cc) = b.shape();
            (cc, r)
        }
    };
    assert_eq!(k, kb, "gemm: inner dimensions {k} != {kb}");
    assert_eq!(
        c.shape(),
        (m, n),
        "gemm: C is {:?}, want ({m},{n})",
        c.shape()
    );

    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Pure C scaling; beta == 0 must overwrite (NaN-safe).
        // pdnn-lint: allow(l4-float-exact-compare): BLAS beta sentinel dispatch — exact 0/1 select the overwrite/no-scale fast paths (0 must overwrite, 0*NaN != 0); this is discrimination on a sentinel, not a numeric tolerance test
        if beta == T::ZERO {
            c.as_mut_slice().fill(T::ZERO);
        // pdnn-lint: allow(l4-float-exact-compare): BLAS beta sentinel dispatch — exact 0/1 select the overwrite/no-scale fast paths (0 must overwrite, 0*NaN != 0); this is discrimination on a sentinel, not a numeric tolerance test
        } else if beta != T::ONE {
            c.scale(beta);
        }
        return;
    }

    let blocking = ctx.blocking;
    // Backend kernel resolved once per call, not per micro-tile.
    let acc_fn = T::acc_kernel(ctx.backend());
    // Stripe height: small enough to give the pool ~3 tasks per
    // thread for load balance, but never below the micro-tile and
    // never above MC (the L2 A-panel budget).
    let target_tasks = ctx.threads * 3;
    let sh = m
        .div_ceil(target_tasks)
        .next_multiple_of(MR)
        .clamp(MR, blocking.mc.max(MR));

    let c_slice = c.as_mut_slice();
    ctx.run_pool(|| {
        if ctx.threads == 1 {
            for (si, stripe) in c_slice.chunks_mut(sh * n).enumerate() {
                stripe_kernel(
                    acc_fn,
                    ta,
                    tb,
                    alpha,
                    a,
                    b,
                    beta,
                    stripe,
                    si * sh,
                    k,
                    n,
                    blocking,
                );
            }
        } else {
            c_slice
                .par_chunks_mut(sh * n)
                .enumerate()
                .for_each(|(si, stripe)| {
                    stripe_kernel(
                        acc_fn,
                        ta,
                        tb,
                        alpha,
                        a,
                        b,
                        beta,
                        stripe,
                        si * sh,
                        k,
                        n,
                        blocking,
                    );
                });
        }
    });
}

/// Process one horizontal stripe of C (rows `ic0 .. ic0 + stripe_rows`).
///
/// Each stripe packs its own A and B panels. Re-packing B per stripe
/// costs `stripes * k * n` extra moves — under 1% of the `2mnk` FLOPs
/// for the shapes DNN training produces — and buys a decomposition
/// with zero shared mutable state.
#[allow(clippy::too_many_arguments)]
fn stripe_kernel<T: Scalar>(
    acc_fn: backend::AccFn<T>,
    ta: Trans,
    tb: Trans,
    alpha: T,
    a: &Matrix<T>,
    b: &Matrix<T>,
    beta: T,
    stripe: &mut [T],
    ic0: usize,
    k: usize,
    n: usize,
    blocking: Blocking,
) {
    let mc_eff = stripe.len() / n;
    debug_assert_eq!(stripe.len(), mc_eff * n);
    let kc = blocking.kc.min(k);
    let nc = blocking.nc.min(n);

    let a_panels = mc_eff.div_ceil(MR);
    let b_panels = nc.div_ceil(NR);
    let mut ap = vec![T::ZERO; a_panels * MR * kc];
    let mut bp = vec![T::ZERO; b_panels * NR * kc];

    let mut pc = 0;
    let mut first_block = true;
    while pc < k {
        let kc_eff = kc.min(k - pc);
        pack::pack_a(a, ta, ic0, mc_eff, pc, kc_eff, &mut ap);
        let merge = if first_block { Some(beta) } else { None };

        let mut jc = 0;
        while jc < n {
            let nc_eff = nc.min(n - jc);
            pack::pack_b(b, tb, pc, kc_eff, jc, nc_eff, &mut bp);

            let jr_panels = nc_eff.div_ceil(NR);
            let ir_panels = mc_eff.div_ceil(MR);
            for jr in 0..jr_panels {
                let nr_eff = NR.min(nc_eff - jr * NR);
                let bp_panel = &bp[jr * kc_eff * NR..(jr + 1) * kc_eff * NR];
                for ir in 0..ir_panels {
                    let mr_eff = MR.min(mc_eff - ir * MR);
                    let ap_panel = &ap[ir * kc_eff * MR..(ir + 1) * kc_eff * MR];
                    let c_off = (ir * MR) * n + jc + jr * NR;
                    kernel::microkernel(
                        acc_fn, kc_eff, alpha, ap_panel, bp_panel, stripe, c_off, n, mr_eff,
                        nr_eff, merge,
                    );
                }
            }
            jc += nc_eff;
        }
        pc += kc_eff;
        first_block = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdnn_util::Prng;

    fn random_matrix(rows: usize, cols: usize, rng: &mut Prng) -> Matrix<f32> {
        Matrix::random_normal(rows, cols, 1.0, rng)
    }

    #[allow(clippy::too_many_arguments)]
    fn check_against_naive(
        ctx: &GemmContext,
        ta: Trans,
        tb: Trans,
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        beta: f32,
        seed: u64,
    ) {
        let mut rng = Prng::new(seed);
        let a = match ta {
            Trans::N => random_matrix(m, k, &mut rng),
            Trans::T => random_matrix(k, m, &mut rng),
        };
        let b = match tb {
            Trans::N => random_matrix(k, n, &mut rng),
            Trans::T => random_matrix(n, k, &mut rng),
        };
        let c0 = random_matrix(m, n, &mut rng);
        let mut c_fast = c0.clone();
        let mut c_ref = c0.clone();
        gemm_impl(ctx, ta, tb, alpha, &a, &b, beta, &mut c_fast);
        naive::reference(ta, tb, alpha, &a, &b, beta, &mut c_ref);
        let tol = 1e-4 * (k as f64).sqrt().max(1.0);
        let diff = c_fast.max_abs_diff(&c_ref);
        assert!(
            diff < tol,
            "gemm mismatch: {ta:?}{tb:?} m={m} n={n} k={k} alpha={alpha} beta={beta} diff={diff}"
        );
    }

    #[test]
    fn matches_naive_on_aligned_shapes() {
        let ctx = GemmContext::sequential();
        check_against_naive(&ctx, Trans::N, Trans::N, 64, 64, 64, 1.0, 0.0, 1);
    }

    #[test]
    fn matches_naive_on_ragged_shapes() {
        let ctx = GemmContext::sequential();
        // Deliberately awkward sizes: prime-ish, smaller than tiles,
        // crossing block boundaries — the paper calls out "matrices
        // with dimensions that do not lend themselves to full
        // SIMDization".
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (8, 8, 8),
            (9, 7, 13),
            (17, 31, 29),
            (130, 19, 257),
            (33, 129, 65),
        ] {
            check_against_naive(&ctx, Trans::N, Trans::N, m, n, k, 1.0, 0.0, m as u64);
        }
    }

    #[test]
    fn matches_naive_all_transpose_combos() {
        let ctx = GemmContext::sequential();
        for &ta in &[Trans::N, Trans::T] {
            for &tb in &[Trans::N, Trans::T] {
                check_against_naive(&ctx, ta, tb, 23, 17, 41, 1.0, 0.0, 7);
            }
        }
    }

    #[test]
    fn alpha_beta_combinations() {
        let ctx = GemmContext::sequential();
        for &(alpha, beta) in &[(1.0, 1.0), (2.5, 0.0), (0.0, 3.0), (-1.0, 0.5)] {
            check_against_naive(&ctx, Trans::N, Trans::N, 19, 21, 23, alpha, beta, 11);
        }
    }

    #[test]
    fn threaded_matches_sequential() {
        let seq = GemmContext::sequential();
        let thr = GemmContext::threaded(4);
        let mut rng = Prng::new(42);
        let a = random_matrix(200, 150, &mut rng);
        let b = random_matrix(150, 170, &mut rng);
        let mut c1 = Matrix::zeros(200, 170);
        let mut c2 = Matrix::zeros(200, 170);
        gemm_impl(&seq, Trans::N, Trans::N, 1.0f32, &a, &b, 0.0, &mut c1);
        gemm_impl(&thr, Trans::N, Trans::N, 1.0f32, &a, &b, 0.0, &mut c2);
        // Identical block decomposition per stripe ⇒ bitwise equal.
        assert_eq!(c1, c2);
    }

    #[test]
    fn forced_backends_are_bitwise_identical() {
        // The backend contract: same product, same bits, whatever the
        // dispatched ISA (full shape sweep in tests/backend_parity.rs).
        let mut rng = Prng::new(77);
        let a = random_matrix(45, 37, &mut rng);
        let b = random_matrix(37, 51, &mut rng);
        let mut want = Matrix::zeros(45, 51);
        let scalar_ctx = GemmContext::sequential().with_backend(scalar_backend());
        gemm_impl(
            &scalar_ctx,
            Trans::N,
            Trans::N,
            1.0f32,
            &a,
            &b,
            0.0,
            &mut want,
        );
        for isa in available_isas() {
            let ctx = GemmContext::sequential()
                .with_backend(backend_for(isa).expect("listed as available"));
            assert_eq!(ctx.backend().isa(), isa);
            let mut got = Matrix::zeros(45, 51);
            gemm_impl(&ctx, Trans::N, Trans::N, 1.0f32, &a, &b, 0.0, &mut got);
            assert_eq!(got, want, "backend {isa} diverged from scalar");
        }
    }

    #[test]
    fn context_debug_names_backend() {
        let ctx = GemmContext::sequential().with_backend(scalar_backend());
        let dbg = format!("{ctx:?}");
        assert!(dbg.contains("Scalar"), "missing backend in {dbg}");
    }

    #[test]
    fn custom_blocking_still_correct() {
        let ctx = GemmContext::sequential().with_blocking(Blocking {
            mc: 16,
            kc: 8,
            nc: 24,
        });
        check_against_naive(&ctx, Trans::N, Trans::N, 37, 53, 29, 1.0, 0.5, 3);
    }

    #[test]
    fn degenerate_blocking_is_sanitized() {
        let ctx = GemmContext::sequential().with_blocking(Blocking {
            mc: 0,
            kc: 0,
            nc: 0,
        });
        assert!(ctx.blocking().mc >= MR);
        check_against_naive(&ctx, Trans::N, Trans::N, 12, 12, 12, 1.0, 0.0, 5);
    }

    #[test]
    fn k_zero_scales_c_only() {
        let ctx = GemmContext::sequential();
        let a: Matrix<f32> = Matrix::zeros(3, 0);
        let b: Matrix<f32> = Matrix::zeros(0, 4);
        let mut c: Matrix<f32> = Matrix::filled(3, 4, 2.0);
        gemm_impl(&ctx, Trans::N, Trans::N, 1.0, &a, &b, 0.5, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 1.0));
        // beta = 0 with NaN in C must produce zeros.
        let mut c2: Matrix<f32> = Matrix::filled(3, 4, f32::NAN);
        gemm_impl(&ctx, Trans::N, Trans::N, 1.0, &a, &b, 0.0, &mut c2);
        assert!(c2.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_output_is_noop() {
        let ctx = GemmContext::sequential();
        let a: Matrix<f32> = Matrix::zeros(0, 5);
        let b: Matrix<f32> = Matrix::zeros(5, 4);
        let mut c: Matrix<f32> = Matrix::zeros(0, 4);
        gemm_impl(&ctx, Trans::N, Trans::N, 1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let ctx = GemmContext::sequential();
        let a: Matrix<f32> = Matrix::zeros(2, 3);
        let b: Matrix<f32> = Matrix::zeros(4, 2);
        let mut c: Matrix<f32> = Matrix::zeros(2, 2);
        gemm_impl(&ctx, Trans::N, Trans::N, 1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    fn f64_path_works() {
        let ctx = GemmContext::sequential();
        let mut rng = Prng::new(8);
        let a: Matrix<f64> = Matrix::random_normal(20, 30, 1.0, &mut rng);
        let b: Matrix<f64> = Matrix::random_normal(30, 10, 1.0, &mut rng);
        let mut c1: Matrix<f64> = Matrix::zeros(20, 10);
        let mut c2 = c1.clone();
        gemm_impl(&ctx, Trans::N, Trans::N, 1.0, &a, &b, 0.0, &mut c1);
        naive::reference(Trans::N, Trans::N, 1.0, &a, &b, 0.0, &mut c2);
        assert!(c1.max_abs_diff(&c2) < 1e-10);
    }

    #[test]
    fn gemm_flops_counts() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }
}
