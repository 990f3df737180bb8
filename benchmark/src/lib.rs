//! End-to-end benchmark of the pdnn Hessian-free trainer with a
//! per-layer ladder. See `README.md` for the workload and metric
//! glossary; `src/main.rs` is the command line.

pub mod child;
pub mod compare;
pub mod harness;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod procstat;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;

use std::path::PathBuf;

/// Where trace files and run results go (`benchmark/results/`,
/// git-ignored).
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}
