//! Named phase timers.
//!
//! The paper attributes cycles and MPI time to named functions
//! (`load_data`, `sync_weights_master`, `gradient_loss`,
//! `worker_curvature_product`, …). [`PhaseTimer`] does the same for
//! our functional runs: each phase accumulates wall-clock time and an
//! invocation count, and the result can be rendered or fed to the
//! performance model for calibration.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// An injectable time source reporting seconds since its own epoch.
///
/// This is the **only** sanctioned route to wall-clock time in the
/// simulation crates (`pdnn-mpisim`, `pdnn-perfmodel`,
/// `pdnn-core`, `pdnn-obs`): components take a `Arc<dyn Clock>` (or
/// construct a [`WallClock`] via this module) instead of calling
/// `std::time::Instant::now()` directly, so simulated runs can swap in
/// a [`ManualClock`] and stay bit-reproducible. Enforced by `pdnn-lint`
/// rule `l1-sim-wall-clock`.
pub trait Clock: Send + Sync {
    /// Seconds elapsed since the clock's epoch. Must be monotonically
    /// non-decreasing.
    fn now(&self) -> f64;
}

/// Real wall-clock time, anchored at construction.
#[derive(Clone, Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// Clock whose epoch is this call.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }
}

/// A clock that only moves when told to: the deterministic stand-in
/// for [`WallClock`] in simulated runs and tests.
///
/// Thread-safe; stores seconds as `f64` bits in an atomic so reads
/// never lock.
#[derive(Debug, Default)]
pub struct ManualClock {
    bits: AtomicU64,
}

impl ManualClock {
    /// Clock frozen at `0.0`.
    fn new() -> Self {
        Self::default()
    }

    /// Shared clock frozen at `0.0`.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }
}

impl Clock for ManualClock {
    fn now(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }
}

/// Accumulated wall time and call count for one named phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTotal {
    /// Total seconds spent in the phase.
    pub seconds: f64,
    /// Number of timed invocations.
    pub calls: u64,
}

/// Accumulates wall-clock time per named phase.
///
/// Phases are usually identified by `&'static str` so hot paths do
/// not allocate, but owned names (e.g. phase labels parsed back from
/// a telemetry export) are accepted too. Iteration order is
/// alphabetical (BTreeMap), which keeps reports deterministic.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimer {
    phases: BTreeMap<Cow<'static, str>, PhaseTotal>,
}

impl PhaseTimer {
    /// Empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `seconds` to `phase` directly (used when the caller already
    /// measured, e.g. simulated time).
    pub fn add(&mut self, phase: impl Into<Cow<'static, str>>, seconds: f64) {
        let entry = self.phases.entry(phase.into()).or_default();
        entry.seconds += seconds;
        entry.calls += 1;
    }

    /// Total for one phase, zero if never recorded.
    pub fn get(&self, phase: &str) -> PhaseTotal {
        self.phases.get(phase).copied().unwrap_or_default()
    }

    /// All phases in alphabetical order.
    pub fn phases(&self) -> impl Iterator<Item = (&str, PhaseTotal)> + '_ {
        self.phases.iter().map(|(k, &v)| (k.as_ref(), v))
    }

    /// Sum of all phase times.
    pub fn total_seconds(&self) -> f64 {
        self.phases.values().map(|p| p.seconds).sum()
    }

    /// Render a fixed-width report, longest phase first.
    pub fn report(&self) -> String {
        let mut rows: Vec<(&str, PhaseTotal)> =
            self.phases.iter().map(|(k, &v)| (k.as_ref(), v)).collect();
        rows.sort_by(|a, b| b.1.seconds.total_cmp(&a.1.seconds));
        let total = self.total_seconds().max(f64::MIN_POSITIVE);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>12} {:>8} {:>7}\n",
            "phase", "seconds", "calls", "share"
        ));
        for (name, t) in rows {
            out.push_str(&format!(
                "{:<28} {:>12.6} {:>8} {:>6.1}%\n",
                name,
                t.seconds,
                t.calls,
                100.0 * t.seconds / total
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone_from_zero() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(a >= 0.0 && b >= a);
    }

    #[test]
    fn clocks_are_usable_as_trait_objects() {
        let clock: Arc<dyn Clock> = ManualClock::shared();
        assert_eq!(clock.now(), 0.0);
    }

    #[test]
    fn add_records_simulated_time() {
        let mut t = PhaseTimer::new();
        t.add("comm", 1.5);
        t.add("comm", 0.5);
        let tot = t.get("comm");
        assert_eq!(tot.calls, 2);
        assert!((tot.seconds - 2.0).abs() < 1e-12);
        assert!((t.total_seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_phase_is_zero() {
        let t = PhaseTimer::new();
        assert_eq!(t.get("nope"), PhaseTotal::default());
    }

    #[test]
    fn report_lists_phases_by_share() {
        let mut t = PhaseTimer::new();
        t.add("small", 1.0);
        t.add("big", 9.0);
        let rep = t.report();
        let big_pos = rep.find("big").unwrap();
        let small_pos = rep.find("small").unwrap();
        assert!(big_pos < small_pos, "{rep}");
        assert!(rep.contains("90.0%"), "{rep}");
    }

    #[test]
    fn phases_iterates_alphabetically() {
        let mut t = PhaseTimer::new();
        t.add("b", 1.0);
        t.add("a", 1.0);
        let names: Vec<&str> = t.phases().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
