//! The Blue Gene/Q machine model.
//!
//! The hardware substitute (DESIGN.md): no BG/Q exists to run on, so
//! the paper's *timing* claims are reproduced over an analytic model
//! of the machine, while the algorithm itself runs functionally on
//! `pdnn-mpisim`.
//!
//! * `node` — the A2 compute chip: 16 in-order cores × 4 SMT
//!   threads at 1.6 GHz, 204.8 GF/node peak, with the SMT stall-hiding
//!   and thread-scaling curves that drive the paper's Figure 1
//!   configuration study.
//! * `torus` — the 5-D torus: partition shapes, hop distances,
//!   diameters, link bandwidth.
//! * `comm_model` — cost models for MPI-on-torus, a commodity
//!   Ethernet cluster (with collision/contention degradation), and
//!   the legacy socket transport the application abandoned
//!   (Section V.B).
//! * `counters` — the A2 performance-counter categories
//!   (Committed / IU_Empty / AXU / FXU dependency stalls) used by
//!   Figures 2–3, as a function of phase kind and SMT occupancy.

pub(crate) mod comm_model;
pub(crate) mod counters;
pub(crate) mod node;
pub(crate) mod torus;

pub use comm_model::{ethernet_1g, socket_1g, Network};
