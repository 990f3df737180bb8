//! # pdnn-tensor — dense kernels for DNN training
//!
//! The compute substrate of the workspace: a row-major [`Matrix`],
//! level-1 vector kernels ([`blas1`]), and a blocked, packed,
//! multi-threaded [`gemm`] whose structure mirrors the tuned SGEMM the
//! paper built for Blue Gene/Q (Section V.A): register-blocked FMA
//! microkernel, stride-one packed panels, MC/KC/NC cache blocking, and
//! thread-level parallelism over disjoint C stripes.
//!
//! Single precision (`f32`) is the workhorse type — the paper notes
//! the BG/Q kernel was specifically extended for single-precision
//! arithmetic because DNN training is SGEMM-bound — but every kernel
//! is generic over [`Scalar`] so f64 comparisons are one type
//! parameter away.
//!
//! Products are described by a [`GemmOp`] (plain, prepacked, or
//! streamed-`B^T` operands) and executed on a [`GemmContext`], whose
//! [`ComputeBackend`] supplies runtime-dispatched `std::arch`
//! microkernels (AVX2/AVX-512/NEON) that are bit-identical to the
//! forced-scalar reference — see the [`gemm::backend`] module docs for
//! the contract. [`vmath`] gives the element-wise math of training —
//! `exp`, `ln`, bias + sigmoid/tanh — the same treatment: portable
//! functions of IEEE operations only, vectorized per ISA, bitwise equal
//! everywhere.
//!
//! ```
//! use pdnn_tensor::{Matrix, gemm::{GemmContext, GemmOp, Trans}};
//!
//! let a: Matrix<f32> = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
//! let b: Matrix<f32> = Matrix::from_fn(3, 2, |r, c| (r * c) as f32);
//! let mut c: Matrix<f32> = Matrix::zeros(2, 2);
//! GemmOp::ab(&a, Trans::N, &b, Trans::N).run(&GemmContext::sequential(), &mut c);
//! assert_eq!(c[(1, 1)], 1.0 * 0.0 + 2.0 * 1.0 + 3.0 * 2.0);
//! ```

pub mod blas1;
pub mod gemm;
pub mod matrix;
pub mod scalar;
pub mod vmath;
pub mod workspace;

pub use gemm::{
    available_isas, backend_for, default_backend, detect_best, scalar_backend, BackendConfig,
    BackendConfigBuilder, BackendError, ComputeBackend, GemmContext, GemmOp, Isa, PackedA, PackedB,
    Trans, BACKEND_ENV,
};
pub use matrix::Matrix;
pub use scalar::Scalar;
pub use workspace::{Workspace, WorkspaceStats};
