//! Hardware performance-counter model (cycle categories).
//!
//! The paper's Figures 2 and 3 break each function's cycles into the
//! A2 core's counter categories: *Committed Instructions* (productive
//! work), *IU_Empty* (instruction unit empty — icache/ierat misses),
//! and *AXU/FXU dependency stalls* (floating-point / fixed-point
//! pipeline dependency interlocks). In-order single-issue cores make
//! these fractions a strong function of (a) how many hardware threads
//! share the core and (b) the character of the code (dense FMA kernel
//! vs pointer-chasing coordination vs waiting in MPI).

use super::node::{smt_throughput, NodeConfig};
use pdnn_obs::SpanKind;

/// What kind of work a phase does — determines its stall profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseKind {
    /// Dense GEMM-bound compute (gradient, curvature products, loss
    /// evaluation).
    DenseCompute,
    /// Irregular / memory-bound work (data loading, packing,
    /// (de)serialization).
    MemoryBound,
    /// Blocked in MPI (the core spins in the messaging library).
    CommWait,
    /// Scalar coordination logic (master bookkeeping, CG vector ops).
    Scalar,
}

/// Cycle counts per counter category; `total()` is their sum.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct CycleBreakdown {
    /// Productive committed instructions.
    pub committed: f64,
    /// Instruction-unit-empty cycles (icache / ierat misses).
    pub iu_empty: f64,
    /// Floating-point (auxiliary execution unit) dependency stalls.
    pub axu_dep_stalls: f64,
    /// Fixed-point unit dependency stalls.
    pub fxu_dep_stalls: f64,
    /// Everything else (mostly idle issue slots / arbitration).
    pub other: f64,
}

impl CycleBreakdown {
    /// Add another breakdown.
    pub(crate) fn merge(&mut self, o: &CycleBreakdown) {
        self.committed += o.committed;
        self.iu_empty += o.iu_empty;
        self.axu_dep_stalls += o.axu_dep_stalls;
        self.fxu_dep_stalls += o.fxu_dep_stalls;
        self.other += o.other;
    }
}

impl From<SpanKind> for PhaseKind {
    /// Map a telemetry span kind onto its A2 stall profile. All
    /// communication kinds (point-to-point, collective, explicit
    /// waits) land in [`PhaseKind::CommWait`]: the core spins in the
    /// messaging library either way.
    fn from(kind: SpanKind) -> Self {
        match kind {
            SpanKind::DenseCompute => PhaseKind::DenseCompute,
            SpanKind::MemoryBound | SpanKind::Io => PhaseKind::MemoryBound,
            SpanKind::Scalar => PhaseKind::Scalar,
            SpanKind::CommP2p | SpanKind::CommCollective | SpanKind::Wait => PhaseKind::CommWait,
        }
    }
}

/// Base fractions `[committed, iu_empty, axu, fxu, other]` for a phase
/// kind at full SMT (4 threads/core).
fn base_fractions(kind: PhaseKind) -> [f64; 5] {
    match kind {
        PhaseKind::DenseCompute => [0.62, 0.06, 0.16, 0.08, 0.08],
        PhaseKind::MemoryBound => [0.38, 0.12, 0.10, 0.22, 0.18],
        PhaseKind::CommWait => [0.15, 0.20, 0.02, 0.28, 0.35],
        PhaseKind::Scalar => [0.45, 0.15, 0.05, 0.20, 0.15],
    }
}

/// Split `total_cycles` of a phase into counter categories for a node
/// configuration.
///
/// Fewer threads per core expose more dependency stalls: the committed
/// fraction is scaled by the SMT throughput curve and the shortfall is
/// redistributed to the stall categories proportionally.
pub(crate) fn classify_cycles(
    kind: PhaseKind,
    config: NodeConfig,
    total_cycles: f64,
) -> CycleBreakdown {
    assert!(total_cycles >= 0.0, "negative cycle count");
    let base = base_fractions(kind);
    let smt = smt_throughput(config.threads_per_core());
    // Committed share shrinks with poor SMT occupancy.
    let committed = base[0] * smt;
    let shortfall = base[0] - committed;
    // Redistribute the shortfall over the stall buckets by their base
    // weights.
    let stall_total: f64 = base[1] + base[2] + base[3] + base[4];
    let grow = |b: f64| b + shortfall * b / stall_total;
    CycleBreakdown {
        committed: committed * total_cycles,
        iu_empty: grow(base[1]) * total_cycles,
        axu_dep_stalls: grow(base[2]) * total_cycles,
        fxu_dep_stalls: grow(base[3]) * total_cycles,
        other: grow(base[4]) * total_cycles,
    }
}

#[cfg(test)]
impl CycleBreakdown {
    fn total(&self) -> f64 {
        self.committed + self.iu_empty + self.axu_dep_stalls + self.fxu_dep_stalls + self.other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: NodeConfig = NodeConfig {
        ranks_per_node: 4,
        threads_per_rank: 16,
    };
    const SPARSE: NodeConfig = NodeConfig {
        ranks_per_node: 1,
        threads_per_rank: 16,
    };

    #[test]
    fn categories_sum_to_total() {
        for kind in [
            PhaseKind::DenseCompute,
            PhaseKind::MemoryBound,
            PhaseKind::CommWait,
            PhaseKind::Scalar,
        ] {
            let b = classify_cycles(kind, FULL, 1e9);
            assert!((b.total() - 1e9).abs() < 1.0, "{kind:?}: {}", b.total());
        }
    }

    #[test]
    fn dense_compute_is_mostly_committed_at_full_smt() {
        let b = classify_cycles(PhaseKind::DenseCompute, FULL, 1.0);
        assert!(b.committed > 0.55, "committed {}", b.committed);
        assert!(b.committed > b.axu_dep_stalls);
    }

    #[test]
    fn fewer_threads_expose_more_stalls() {
        let full = classify_cycles(PhaseKind::DenseCompute, FULL, 1.0);
        let sparse = classify_cycles(PhaseKind::DenseCompute, SPARSE, 1.0);
        assert!(sparse.committed < full.committed);
        assert!(sparse.axu_dep_stalls > full.axu_dep_stalls);
    }

    #[test]
    fn comm_wait_commits_little() {
        let b = classify_cycles(PhaseKind::CommWait, FULL, 1.0);
        assert!(b.committed < 0.2);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = classify_cycles(PhaseKind::Scalar, FULL, 100.0);
        let b = classify_cycles(PhaseKind::DenseCompute, FULL, 200.0);
        let total_before = a.total();
        a.merge(&b);
        assert!((a.total() - total_before - 200.0).abs() < 1e-9);
    }

    #[test]
    fn span_kinds_map_onto_phase_profiles() {
        assert_eq!(
            PhaseKind::from(SpanKind::DenseCompute),
            PhaseKind::DenseCompute
        );
        assert_eq!(
            PhaseKind::from(SpanKind::MemoryBound),
            PhaseKind::MemoryBound
        );
        assert_eq!(PhaseKind::from(SpanKind::Io), PhaseKind::MemoryBound);
        assert_eq!(PhaseKind::from(SpanKind::Scalar), PhaseKind::Scalar);
        for comm in [SpanKind::CommP2p, SpanKind::CommCollective, SpanKind::Wait] {
            assert_eq!(PhaseKind::from(comm), PhaseKind::CommWait);
        }
    }

    #[test]
    fn base_fractions_are_distributions() {
        for kind in [
            PhaseKind::DenseCompute,
            PhaseKind::MemoryBound,
            PhaseKind::CommWait,
            PhaseKind::Scalar,
        ] {
            let f = base_fractions(kind);
            let sum: f64 = f.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "{kind:?} sums to {sum}");
            assert!(f.iter().all(|&x| x >= 0.0));
        }
    }
}
