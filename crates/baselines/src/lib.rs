//! # pdnn-baselines — the trainers the paper compares against
//!
//! * [`sgd`] — serial minibatch SGD with momentum: "the most popular
//!   methodology to train DNNs" (paper Section II.A), executed on one
//!   multi-core machine.
//! * `adpsgd` — asynchronous decentralized parallel SGD (Lian et
//!   al. 2018): masterless first-order training via neighbor-pair
//!   weight averaging, the gossip counterpart to the masterless
//!   allreduce sync modes in `pdnn-core`.
//! * `pretrain` — greedy discriminative layer-wise pretraining (the
//!   paper's refs \[6\]\[8\] pipeline), producing the deep-network
//!   initialization Hessian-free training fine-tunes.

mod adpsgd;
mod pretrain;
pub mod sgd;

pub use adpsgd::{train_adpsgd, AdpsgdOutput};
pub use pretrain::{discriminative_pretrain, PretrainConfig};
pub use sgd::{evaluate, train_sgd, EpochStats, SgdConfig};
