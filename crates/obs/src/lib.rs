//! `pdnn-obs` — the unified telemetry subsystem.
//!
//! Every instrumented component in the workspace (the HF optimizer,
//! the CG inner loop, the distributed master/worker protocol, the
//! mpisim collectives, the perfmodel figure generators) talks to one
//! [`Recorder`] API: RAII [`span`](RecorderExt::span) guards for phase
//! timing, counters and gauges for scalar metrics, and structured
//! [`Event`]s for per-iteration records. Sinks are pluggable:
//! [`InMemoryRecorder`] accumulates a [`Telemetry`] snapshot for tests
//! and post-processing, [`jsonl`] exports/imports snapshots as
//! machine-readable JSONL under `results/`, and `render` draws
//! terminal Gantt charts and summary tables.
//!
//! # Paper-figure map
//!
//! Each figure/table of the source paper (*Parallel Deep Neural
//! Network Training for Big Data on Blue Gene/Q*, SC'14) is
//! reproduced from a specific sink and field of this crate:
//!
//! | Paper artifact | Sink / field that reproduces it |
//! |---|---|
//! | Fig. 1 (scaling) | `Telemetry::phase_totals()` per configuration — end-to-end seconds per phase feed `pdnn_perfmodel::figures::fig1` |
//! | Figs. 2–3 (cycle breakdown per function) | [`SpanRecord`]s: each span's [`SpanKind`] maps onto the BG/Q machine model's `PhaseKind` (`pdnn-perfmodel`'s `bgq::counters`), whose cycle model splits the span's cycles into committed / IU-empty / AXU-stall / FXU-stall / other; exported as `"span"` JSONL lines and `"phase_attribution"` events (fields `committed_gcyc`, `iu_empty_gcyc`, `axu_gcyc`, `fxu_gcyc`, `other_gcyc`) |
//! | Figs. 4–5 (MPI collective vs point-to-point time per function) | [`CommStats`]: `p2p`/`collective` [`ClassTotals`] (`seconds`, `bytes_sent`, `bytes_received`, `sends`, `recvs`) plus `collectives_completed`; exported as `"comm"` and `"collectives"` JSONL lines and the `mpi_coll_s`/`mpi_p2p_s` fields of `"phase_attribution"` events |
//! | Table I (per-iteration timing) | counters (`cg_iters`, `hf_iterations`) and the per-iteration `"hf_iteration"` events (fields `iter`, `train_loss`, `rho`, `lambda`, `cg_iters`, `accepted`) |
//!
//! The `fig2_3` and `fig4_5` bench binaries write a JSONL attribution
//! with [`jsonl::write_jsonl`], read it back with
//! [`jsonl::read_jsonl`], and build their tables from the parsed
//! [`Telemetry`] — the export format *is* the figure pipeline, not a
//! side channel.

mod event;
pub mod jsonl;
mod metrics;
mod recorder;
mod render;
mod span;

pub use event::{Event, Telemetry, Value};
pub use metrics::{ClassTotals, CommClass, CommStats};
pub use recorder::{InMemoryRecorder, NullRecorder, Recorder, RecorderExt, SpanGuard};
pub use render::{comm_table, phase_table, render_gantt};
pub use span::{SpanKind, SpanRecord};

// Re-export the table primitive so sinks and their consumers share it.
pub use pdnn_util::report::Table;
