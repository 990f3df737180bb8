//! Shared utilities for the `pdnn` workspace.
//!
//! This crate deliberately has no heavyweight dependencies. It provides:
//!
//! * `rng` — a small, fully deterministic xoshiro256++ PRNG with
//!   Gaussian sampling (Box–Muller), stream splitting, and shuffling.
//!   Every stochastic component in the workspace takes an explicit
//!   `u64` seed so experiments are reproducible bit-for-bit.
//! * [`stats`] — percentiles and the load-imbalance factor used by
//!   the corpus statistics and partitioners of `pdnn-speech`.
//! * [`report`] — plain-text table and CSV emitters used by the
//!   figure/table generators.
//! * [`timing`] — named phase timers used to attribute wall-clock time
//!   to algorithm phases (`gradient_loss`, `sync_weights`, …) the same
//!   way the paper's Figures 2–5 attribute cycles, plus the injectable
//!   [`Clock`] every simulation crate must route wall-clock reads
//!   through (enforced by `pdnn-lint`).
//! * [`float`] — the approved float-comparison helpers (`pdnn-lint`
//!   bans raw `==`/`!=` on floats in library code).
//! * [`sync`] — poison-tolerant locking ([`sync::locked`]), the
//!   sanctioned replacement for `Mutex::lock().unwrap()`.
//! * `error` — the workspace-wide [`Error`] type that fallible
//!   operations across crates convert into.
//! * [`cast`] — checked numeric conversions for cycle/byte accounting
//!   paths (`pdnn-lint` rule `l6-lossy-cast` bans bare `as` casts
//!   there).
//! * [`alloc_count`] — the counting global allocator of the
//!   workspace's allocation tests.

pub mod alloc_count;
pub mod cast;
mod error;
pub mod float;
pub mod report;
mod rng;
pub mod stats;
pub mod sync;
pub mod timing;

pub use error::{Error, Result};
pub use rng::Prng;
pub use timing::{Clock, ManualClock, PhaseTimer, WallClock};

/// Format a count with thousands separators (`18432000` → `18,432,000`).
pub fn fmt_count(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    let offset = digits.len() % 3;
    for (i, ch) in digits.chars().enumerate() {
        if i != 0 && (i + 3 - offset).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_count_inserts_separators() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1000), "1,000");
        assert_eq!(fmt_count(18_432_000), "18,432,000");
        assert_eq!(fmt_count(1_234_567_890), "1,234,567,890");
    }
}
