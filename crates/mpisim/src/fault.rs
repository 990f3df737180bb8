//! Deterministic fault injection for simulated worlds.
//!
//! A [`FaultPlan`] is a declarative schedule of failures threaded
//! through [`crate::run_world_faulted`]: kill rank R right before its
//! K-th collective, stall a rank for D sim-ticks, or drop the
//! N-th point-to-point message on a link. Injection points are indexed
//! by *logical* progress (per-rank collective sequence numbers,
//! per-link message counts), never by wall-clock time, so the same
//! plan reproduces the same failure — and the same recovery — bit for
//! bit, run after run.
//!
//! Death is propagated by control packets, not by timeouts: a killed
//! rank's last act is to send `CTRL_DEATH` to every peer. Channels are
//! FIFO per pair, so by the time a peer observes the death packet it
//! has already received every real message the dead rank sent — peers
//! learn of the death at a deterministic point in their own receive
//! streams. Timeouts exist only as a safety net for *silent* failures
//! (a stalled rank that never reports in), where the collective root
//! evicts the missing rank with `CTRL_EVICT` after its window expires.

use std::time::Duration;

/// Duration of one simulated tick used by [`FaultAction::Stall`].
pub const FAULT_TICK: Duration = Duration::from_millis(1);

/// One scheduled failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Rank `rank` dies immediately before starting its
    /// `before_collective`-th collective (0-based per-rank count).
    /// It notifies every peer with a `CTRL_DEATH` control packet and
    /// then returns [`crate::CommError::Killed`] from every subsequent
    /// communication call.
    Kill {
        /// Victim rank.
        rank: usize,
        /// Per-rank collective sequence number to die before.
        before_collective: u64,
    },
    /// Rank `rank` sleeps `ticks` × [`FAULT_TICK`] immediately before
    /// starting its `before_collective`-th collective. Long stalls
    /// exercise the timeout/eviction path.
    Stall {
        /// Stalled rank.
        rank: usize,
        /// Per-rank collective sequence number to stall before.
        before_collective: u64,
        /// Stall length in sim-ticks.
        ticks: u32,
    },
    /// Silently drop the `nth` message (0-based, counted per
    /// `(from, to)` link). The receiver can only discover the loss via
    /// its timeout window.
    DropMessage {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// 0-based message index on the link.
        nth: u64,
    },
}

/// A deterministic, seeded schedule of failures for one world run.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Seed this plan was derived from (recorded for reproduction; the
    /// actions themselves are already fully explicit).
    pub seed: u64,
    /// Scheduled failures, applied by every rank against its own
    /// logical progress.
    pub actions: Vec<FaultAction>,
    /// How long a collective *root* waits for each contribution before
    /// evicting the missing rank. Kills are detected via death packets
    /// (deterministic); this window only catches silent stalls and
    /// dropped messages.
    pub detect_timeout: Duration,
    /// How long a non-root rank waits on the root before giving up.
    /// Generous by default: a worker must outlast the master's whole
    /// recovery cycle without falsely declaring the world dead.
    pub worker_timeout: Duration,
}

impl FaultPlan {
    /// An empty plan (no failures) with default timeout windows.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            actions: Vec::new(),
            detect_timeout: Duration::from_secs(2),
            worker_timeout: Duration::from_secs(60),
        }
    }

    /// Add a [`FaultAction::Kill`].
    pub fn kill(mut self, rank: usize, before_collective: u64) -> Self {
        self.actions.push(FaultAction::Kill {
            rank,
            before_collective,
        });
        self
    }

    /// Add a [`FaultAction::Stall`].
    pub fn stall(mut self, rank: usize, before_collective: u64, ticks: u32) -> Self {
        self.actions.push(FaultAction::Stall {
            rank,
            before_collective,
            ticks,
        });
        self
    }

    /// Add a [`FaultAction::DropMessage`].
    pub fn drop_message(mut self, from: usize, to: usize, nth: u64) -> Self {
        self.actions
            .push(FaultAction::DropMessage { from, to, nth });
        self
    }

    /// Override both timeout windows.
    pub fn with_timeouts(mut self, detect: Duration, worker: Duration) -> Self {
        self.detect_timeout = detect;
        self.worker_timeout = worker;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_actions() {
        let plan = FaultPlan::new(7)
            .kill(2, 5)
            .stall(1, 3, 10)
            .drop_message(1, 0, 0)
            .with_timeouts(Duration::from_millis(100), Duration::from_secs(5));
        assert_eq!(plan.actions.len(), 3);
        assert_eq!(plan.detect_timeout, Duration::from_millis(100));
        assert_eq!(
            plan.actions[0],
            FaultAction::Kill {
                rank: 2,
                before_collective: 5
            }
        );
    }
}
