//! # pdnn-mpisim — in-process MPI-style message passing
//!
//! The communication substrate standing in for MPI-on-BG/Q (see
//! DESIGN.md substitutions): ranks are OS threads inside one process,
//! point-to-point messages carry MPI semantics (tag and source
//! matching, per-pair FIFO, `ANY_SOURCE`), and the textbook collective
//! algorithms are built on top — binomial broadcast/reduce, recursive-
//! doubling allreduce, dissemination barrier, the masterless ring and
//! tree allreduces, and the flat timed stars a fault plan switches the
//! rooted collectives to. Every one of them is a hop list in
//! [`schedule`], run by one interpreter in [`collectives`] and
//! model-checked from the same lists by `pdnn-protomc`.
//!
//! Functional correctness of the distributed trainer is tested on this
//! runtime for real (actual threads, actual data movement, actual
//! synchronization); large-scale *timing* comes from the machine model
//! in `pdnn-bgq`. Each rank accumulates a [`pdnn_obs::CommStats`]
//! splitting its communication into point-to-point and collective
//! classes, mirroring the paper's Figures 4–5 breakdown, and carries a
//! `pdnn_obs` recorder ([`Comm::recorder`]) whose snapshot rides
//! [`RankOutcome::telemetry`].
//!
//! ```
//! use pdnn_mpisim::{run_world, ReduceOp};
//!
//! let results = run_world(4, |comm| {
//!     let mut v = vec![comm.rank() as f64];
//!     comm.allreduce(&mut v, ReduceOp::Sum).unwrap();
//!     v[0]
//! });
//! assert!(results.iter().all(|r| r.result == 6.0));
//! ```

pub mod collectives;
pub mod comm;
pub mod events;
pub mod fault;
pub mod hb;
pub mod message;
pub mod runner;
pub mod schedule;
pub mod vtime;
pub mod wire;

pub use collectives::{CollElem, ReduceOp};
pub use comm::{comm_ok, Comm, CommError};
pub use events::{events_from_jsonl, events_to_jsonl, CommEvent};
pub use fault::{FaultAction, FaultPlan, FAULT_TICK};
pub use hb::{HbTracker, HbViolation};
pub use message::{Packet, Payload, Src};
/// The old name of [`pdnn_obs::CommStats`]. Its last caller is the
/// benchmark harness (`benchmark/src/layers.rs`); the alias goes when
/// that harness names `CommStats`.
pub use pdnn_obs::CommStats as CommTrace;
pub use runner::{
    build_world, build_world_deterministic, run_world, run_world_deterministic, run_world_faulted,
    run_world_perturbed, RankOutcome,
};
pub use vtime::{AlphaBeta, LinkModel};
pub use wire::WireCodec;
