//! Blocked, packed, multi-threaded GEMM.
//!
//! Structure follows the paper's "telescoping" view of BG/Q
//! (Section V.A): node, core, and thread levels are handled by
//! separate mechanisms that are designed together.
//!
//! * **Thread level** — `kernel`: an `MR x NR` register-blocked
//!   rank-1-update tile kernel reading zero-padded packed panels with
//!   unit stride (the paper's QPX FMA kernel, with the tile sized to
//!   this host family's register file instead of QPX's). The active
//!   [`backend::ComputeBackend`] supplies it — explicit
//!   AVX2/AVX-512/NEON `std::arch` kernels selected by runtime feature
//!   detection, or the scalar reference — and it owns the whole tile
//!   update: the `kc`-deep FMA chains in registers, then the
//!   `alpha`/`beta` merge into C ([`backend::Merge`]), masked to the
//!   live corner of an edge tile.
//! * **Core level** — `pack`: operands are reformatted into
//!   micro-panels so every inner-loop access is stride-one, the
//!   software analogue of engaging the L1P stream prefetcher.
//! * **Node level** — the private `driver` module: cache blocking
//!   (`MC/KC/NC`) in one BLIS-style loop nest for every [`GemmOp`]
//!   form, plus row-stripe parallelism across a rayon pool (the
//!   paper's OpenMP ranks-per-node times threads-per-rank grid). The
//!   k-block loop is outermost on every thread count: each `kc x n`
//!   block row of `op(B)` is packed once (or borrowed from a
//!   [`PackedB`]) and shared by every stripe, and each stripe packs its
//!   own A panels (or borrows them from a [`PackedA`]). C stripes are
//!   disjoint `&mut` chunks, so Rust's borrow checker proves the
//!   decomposition race-free; the only synchronization is the join
//!   that ends each k-block's parallel region. Packing B once instead
//!   of once per stripe is worth a third of the throughput at the
//!   training shapes (m = 650, n = k = 512 on one thread of a 2-vCPU
//!   AVX-512 host: 84 GFLOP/s against 57 with B packed per stripe).
//!   Pack buffers come from per-thread retained [`scratch`], never
//!   from a per-stripe allocation.
//!
//! The paper's "implicitly synchronized threads" (partner threads
//! cooperatively prefetching each other's cache lines) relies on
//! cycle-level SMT control that portable Rust cannot express; its
//! effect is an efficiency factor, modeled by the BG/Q machine model
//! in `pdnn-perfmodel` (see DESIGN.md substitutions).
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
pub(crate) mod dispatch;
mod driver;
pub(crate) mod kernel;
mod naive;
mod op;
mod pack;
mod prepacked;
pub mod scratch;

pub use prepacked::{PackedA, PackedB};

pub use backend::{
    available_isas, backend_for, default_backend, detect_best, scalar_backend, BackendConfig,
    BackendConfigBuilder, BackendError, ComputeBackend, Isa, BACKEND_ENV,
};
pub use op::GemmOp;

use std::sync::Arc;

/// Micro-tile rows (register blocking; the paper's QPX kernel holds
/// an 8-row C block the same way).
pub const MR: usize = 8;
/// Micro-tile columns: two AVX-512 registers of f32, so each `kk`
/// step of the widest kernel is eight A broadcasts and two B loads
/// feeding sixteen FMAs (with one register per row, nine loads fed
/// eight FMAs and the loads bound the step). Narrower registers walk
/// the row in register-width groups.
pub const NR: usize = 32;
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

/// Shape of `op(X)` for an `X` of `shape`.
fn op_shape(t: Trans, (rows, cols): (usize, usize)) -> (usize, usize) {
    match t {
        Trans::N => (rows, cols),
        Trans::T => (cols, rows),
    }
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
    /// loop forever; clamp to the micro-tile). `mc` is also rounded
    /// down to a multiple of `MR`, so every stripe starts on a row
    /// panel of a [`PackedA`].
    fn sanitized(self) -> Blocking {
        Blocking {
            mc: (self.mc / MR * MR).max(MR),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
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
        GemmOp::ab(&a, ta, &b, tb)
            .alpha(alpha)
            .beta(beta)
            .run(ctx, &mut c_fast);
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

    /// Every `GemmOp` form, on one thread and on a pool of two, agrees
    /// bit for bit with the one-thread `ab` product, also under
    /// blockings whose `nc` is no multiple of the tile width or whose
    /// `mc` is no multiple of `MR`.
    #[test]
    fn one_thread_and_threaded_drivers_agree_bitwise() {
        let odd = [
            Blocking::default(),
            Blocking {
                mc: 16,
                kc: 7,
                nc: 33,
            },
            Blocking {
                mc: 8,
                kc: 64,
                nc: 40,
            },
            Blocking {
                mc: 12,
                kc: 16,
                nc: 40,
            },
        ];
        let mut rng = Prng::new(12);
        for blocking in odd {
            let seq = GemmContext::sequential().with_blocking(blocking);
            let par = GemmContext::threaded(2).with_blocking(blocking);
            for &(m, n, k) in &[(67, 75, 90), (5, 130, 300), (300, 20, 17)] {
                for (ta, tb) in [(Trans::N, Trans::N), (Trans::T, Trans::T)] {
                    let a = match ta {
                        Trans::N => random_matrix(m, k, &mut rng),
                        Trans::T => random_matrix(k, m, &mut rng),
                    };
                    let b = match tb {
                        Trans::N => random_matrix(k, n, &mut rng),
                        Trans::T => random_matrix(n, k, &mut rng),
                    };
                    let c0 = random_matrix(m, n, &mut rng);
                    let pa = PackedA::new(&a, ta, blocking);
                    let pb = PackedB::new(&b, tb, blocking);
                    let mut forms = vec![
                        ("ab", GemmOp::ab(&a, ta, &b, tb)),
                        ("packed_b", GemmOp::packed_b(&a, ta, &pb)),
                        ("packed_a", GemmOp::packed_a(&pa, &b, tb)),
                        ("packed_ab", GemmOp::packed_ab(&pa, &pb)),
                    ];
                    if tb == Trans::T {
                        // b is stored n x k: the rows the streamed form reads.
                        forms.push(("packed_a_bt", GemmOp::packed_a_bt(&pa, b.as_slice())));
                    }
                    let run = |op: GemmOp<'_, f32>, ctx: &GemmContext| {
                        let mut c = c0.clone();
                        op.alpha(0.5).beta(0.25).run(ctx, &mut c);
                        c
                    };
                    let want = run(forms[0].1, &seq);
                    for (label, op) in forms {
                        for ctx in [&seq, &par] {
                            assert_eq!(
                                run(op, ctx),
                                want,
                                "{label} threads={} {blocking:?} m={m} n={n} k={k} {ta:?}{tb:?}",
                                ctx.threads
                            );
                        }
                    }
                }
            }
        }
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
        GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&seq, &mut c1);
        GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&thr, &mut c2);
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
        GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&scalar_ctx, &mut want);
        for isa in available_isas() {
            let ctx = GemmContext::sequential()
                .with_backend(backend_for(isa).expect("listed as available"));
            assert_eq!(ctx.backend().isa(), isa);
            let mut got = Matrix::zeros(45, 51);
            GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&ctx, &mut got);
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
        GemmOp::ab(&a, Trans::N, &b, Trans::N)
            .beta(0.5)
            .run(&ctx, &mut c);
        assert!(c.as_slice().iter().all(|&v| v == 1.0));
        // beta = 0 with NaN in C must produce zeros.
        let mut c2: Matrix<f32> = Matrix::filled(3, 4, f32::NAN);
        GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&ctx, &mut c2);
        assert!(c2.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_output_is_noop() {
        let ctx = GemmContext::sequential();
        let a: Matrix<f32> = Matrix::zeros(0, 5);
        let b: Matrix<f32> = Matrix::zeros(5, 4);
        let mut c: Matrix<f32> = Matrix::zeros(0, 4);
        GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&ctx, &mut c);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let ctx = GemmContext::sequential();
        let a: Matrix<f32> = Matrix::zeros(2, 3);
        let b: Matrix<f32> = Matrix::zeros(4, 2);
        let mut c: Matrix<f32> = Matrix::zeros(2, 2);
        GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&ctx, &mut c);
    }

    #[test]
    fn f64_path_works() {
        let ctx = GemmContext::sequential();
        let mut rng = Prng::new(8);
        let a: Matrix<f64> = Matrix::random_normal(20, 30, 1.0, &mut rng);
        let b: Matrix<f64> = Matrix::random_normal(30, 10, 1.0, &mut rng);
        let mut c1: Matrix<f64> = Matrix::zeros(20, 10);
        let mut c2 = c1.clone();
        GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&ctx, &mut c1);
        naive::reference(Trans::N, Trans::N, 1.0, &a, &b, 0.0, &mut c2);
        assert!(c1.max_abs_diff(&c2) < 1e-10);
    }

    #[test]
    fn gemm_flops_counts() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(0, 3, 4), 0);
    }
}
