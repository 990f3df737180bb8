//! # pdnn-perfmodel — the calibrated Blue Gene/Q scaling model
//!
//! Composes the machine model ([`bgq`]) with the Hessian-free
//! iteration structure (`pdnn-core`/`pdnn-dnn` FLOP counts) to
//! reproduce the paper's evaluation at 1024–8192 ranks — scales no
//! laptop can execute functionally. The functional runs at small scale
//! (real threads over `pdnn-mpisim`) validate the *shapes* this model
//! extrapolates; see DESIGN.md's substitution table.
//!
//! * [`bgq`] — the Blue Gene/Q machine model: A2 node and SMT curves,
//!   5-D torus, cycle-counter categories, communication cost models.
//! * `workload` — the paper's jobs: 50 h / 400 h, CE / sequence.
//! * `model` — phase-decomposed timing for BG/Q partitions and the
//!   Intel Xeon cluster baseline.
//! * [`figures`] — generators that print each paper table/figure as a
//!   text table + CSV series.

pub mod bgq;
mod energy;
pub mod figures;
mod model;
mod workload;

pub use model::{bgq_time, xeon_time, BgqRun, Phase, RunBreakdown};
pub use workload::{JobSpec, ObjectiveKind};
