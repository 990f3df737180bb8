//! # pdnn-core — distributed Hessian-free DNN training
//!
//! The paper's primary contribution: second-order optimization of deep
//! networks, data-parallel across a master/worker cluster.
//!
//! * [`cg`] — truncated conjugate gradient with Martens'
//!   relative-progress stopping rule and the backtracking iterate
//!   series.
//! * [`damping`] — Levenberg–Marquardt λ adaptation (including the
//!   paper-literal variant for the ablation bench).
//! * [`line_search`] — Armijo backtracking.
//! * [`optimizer`] — Algorithm 1: the outer HF loop.
//! * [`problem`] — the [`HfProblem`] abstraction and [`DnnProblem`],
//!   its serial implementation (cross-entropy and MMI sequence
//!   objectives).
//! * [`distributed`] — one trainer over `pdnn-mpisim` under two wire
//!   protocols (the paper's master/worker commands; masterless
//!   allreduce).
//!
//! Three clients, one engine: the gradient, curvature-sample,
//! Gauss–Newton, Fisher-diagonal and held-out sums over a shard are
//! computed in one place, the private `shard` module. The serial
//! problem divides them by its frame count, a worker reduces them to
//! the master, a masterless peer allreduces them — so serial and
//! distributed runs share the kernels as well as the optimizer.
//!
//! ## Quick start
//!
//! ```
//! use pdnn_core::{DnnProblem, HfConfig, HfOptimizer, Objective};
//! use pdnn_dnn::{Activation, Network};
//! use pdnn_speech::{Corpus, CorpusSpec};
//! use pdnn_tensor::gemm::GemmContext;
//!
//! let corpus = Corpus::generate(CorpusSpec::tiny(42));
//! let (train, held) = corpus.split_heldout(0.25);
//! let mut rng = pdnn_util::Prng::new(1);
//! let net = Network::new(
//!     &[corpus.spec().feature_dim, 12, corpus.spec().states],
//!     Activation::Sigmoid,
//!     &mut rng,
//! );
//! let mut problem = DnnProblem::new(
//!     net,
//!     GemmContext::sequential(),
//!     corpus.shard(&train),
//!     corpus.shard(&held),
//!     Objective::CrossEntropy,
//! );
//! let mut cfg = HfConfig::small_task();
//! cfg.max_iters = 2;
//! let stats = HfOptimizer::new(cfg).train(&mut problem);
//! assert_eq!(stats.len(), 2);
//! ```

pub mod cg;
pub mod config;
pub mod damping;
pub mod distributed;
pub mod line_search;
pub mod optimizer;
pub mod problem;
mod shard;
pub mod stopping;

pub use cg::{cg_minimize, CgConfig, CgResult, CgStop};
pub use config::HfConfig;
pub use damping::{Damping, LambdaRule};
pub use distributed::{
    train_distributed, train_distributed_deterministic, train_distributed_faulted,
    train_distributed_perturbed, DistributedConfig, SyncStrategy, TrainOutput,
};
pub use line_search::{armijo_search, ArmijoConfig};
pub use optimizer::{HfOptimizer, IterStats};
pub use problem::{DnnProblem, HeldoutEval, HfProblem, Objective};
pub use stopping::{StopReason, StopRule};
