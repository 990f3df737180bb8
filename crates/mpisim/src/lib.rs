//! # pdnn-mpisim — in-process MPI-style message passing
//!
//! The communication substrate standing in for MPI-on-BG/Q (see
//! DESIGN.md substitutions): ranks are OS threads inside one process,
//! point-to-point messages carry MPI semantics (tag and source
//! matching, per-pair FIFO, `ANY_SOURCE`), and the textbook collective
//! algorithms are built on top — binomial broadcast/reduce, recursive-
//! doubling allreduce, dissemination barrier, ring allgather.
//!
//! Functional correctness of the distributed trainer is tested on this
//! runtime for real (actual threads, actual data movement, actual
//! synchronization); large-scale *timing* comes from the machine model
//! in `pdnn-bgq`. Each rank accumulates a [`CommTrace`] splitting its
//! communication into point-to-point and collective classes, mirroring
//! the paper's Figures 4–5 breakdown.
//!
//! The comm-statistics types ([`CommTrace`], [`ClassTotals`]) are
//! defined in `pdnn-obs` and re-exported here under their historical
//! names; every rank additionally carries a `pdnn_obs` recorder
//! ([`Comm::recorder`]) whose snapshot rides [`RankOutcome::telemetry`].
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
pub mod trace;
pub mod vtime;
pub mod wire;

pub use collectives::{CollElem, ReduceOp};
pub use comm::{comm_ok, Comm, CommError};
pub use events::{events_from_jsonl, events_to_jsonl, CommEvent};
pub use fault::{FaultAction, FaultPlan, FAULT_TICK};
pub use hb::{HbTracker, HbViolation};
pub use message::{Packet, Payload, Src};
pub use runner::{
    build_world, build_world_deterministic, run_world, run_world_deterministic, run_world_faulted,
    run_world_perturbed, RankOutcome,
};
pub use trace::{ClassTotals, CommClass, CommTrace};
pub use vtime::{AlphaBeta, LinkModel};
pub use wire::WireCodec;
