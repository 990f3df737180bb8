//! # pdnn-dnn — deep feed-forward networks for acoustic modeling
//!
//! The model substrate: multi-layer perceptrons with the losses and
//! derivative operators Hessian-free training needs.
//!
//! * [`network`] — layers, forward pass, and the flat parameter-vector
//!   view the optimizer works in.
//! * [`loss`] — frame criteria: softmax cross-entropy (fused, stable)
//!   and squared error.
//! * [`sequence`] — the utterance-level MMI criterion (the paper's
//!   "sequence" objective), with a scaled probability-space
//!   forward–backward over a bigram denominator graph.
//! * [`backprop`] — exact gradients.
//! * [`gauss_newton`] — curvature matrix–vector products `G(θ)v` via
//!   the Pearlmutter R-operator; `G` is PSD by construction, the
//!   property Hessian-free optimization relies on.
//! * [`gradcheck`] — finite-difference verification helpers.
//! * [`flops`] — analytic per-frame FLOP counts used to calibrate the
//!   Blue Gene/Q performance model.
//!
//! Everything is generic over `f32`/`f64`; training runs in `f32`
//! (SGEMM-bound, as in the paper) while the derivative tests
//! instantiate `f64` for tight finite-difference tolerances.

mod activation;
pub mod backprop;
pub mod checkpoint;
mod decode;
pub mod fisher;
pub mod flops;
pub mod gauss_newton;
pub mod gradcheck;
pub mod loss;
pub mod network;
pub mod packed;
pub mod sequence;

pub use activation::Activation;
pub use backprop::{backprop as backprop_dlogits, backprop_ws, loss_and_gradient};
pub use checkpoint::{load_network, save_network, CheckpointError};
pub use decode::{state_error_rate, viterbi_decode, viterbi_decode_batch};
pub use gauss_newton::{gn_product, gn_product_packed, gn_product_ws, Curvature};
pub use loss::{cross_entropy, softmax_rows, FrameLoss, LossOutput};
pub use network::{ForwardCache, Layer, Network};
pub use packed::{PackedActivations, PackedWeights};
pub use sequence::{mmi_batch, mmi_batch_ws, mmi_utterance, DenominatorGraph, SequenceLossOutput};
