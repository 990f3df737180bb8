//! # pdnn — Parallel Deep Neural Network Training (Blue Gene/Q reproduction)
//!
//! Facade crate re-exporting the whole workspace. See the individual
//! crates for detail:
//!
//! * [`core`] (`pdnn-core`) — distributed Hessian-free optimization,
//!   the paper's primary contribution.
//! * [`dnn`] — feed-forward networks, losses, gradients, Gauss–Newton
//!   curvature products.
//! * [`tensor`] — blocked/packed multi-threaded GEMM and BLAS-1.
//! * [`speech`] — synthetic speech-like corpus and load balancing.
//! * [`mpisim`] — in-process MPI-style runtime (ranks as threads).
//! * [`perfmodel`] — calibrated scaling model regenerating the paper's
//!   figures and tables.
//! * [`baselines`] — serial SGD, ADPSGD and layer-wise pretraining.
//! * [`obs`] (`pdnn-obs`) — unified telemetry: recorder API, span
//!   timelines, comm statistics, JSONL export, terminal rendering.
//! * [`util`] — deterministic RNG, stats, reporting.

pub use pdnn_baselines as baselines;
pub use pdnn_core as core;
pub use pdnn_dnn as dnn;
pub use pdnn_mpisim as mpisim;
pub use pdnn_obs as obs;
pub use pdnn_perfmodel as perfmodel;
pub use pdnn_speech as speech;
pub use pdnn_tensor as tensor;
pub use pdnn_util as util;
