//! Node and core model of the Blue Gene/Q compute chip.
//!
//! Paper Section III / V.A: 16 A2 cores at 1.6 GHz, 4 hardware threads
//! per core, in-order dual-pipeline issue (one arithmetic + one
//! load/store per cycle, from *different* threads), 4-wide FMA QPX →
//! 12.8 GFLOP/s per core, 204.8 GFLOP/s per node.
//!
//! The model captures the two effects the paper's Figure 1 study
//! turns on:
//!
//! * **SMT stall hiding** — a single thread per core cannot dual-issue,
//!   so committed-instruction throughput rises steeply from 1 to 4
//!   threads/core ("using more threads per core helps to hide the time
//!   gaps (e.g., stall cycles)").
//! * **Intra-rank thread-scaling overhead** — OpenMP synchronization
//!   and cache-partition pressure grow with threads per rank, which is
//!   why 2 ranks × 32 threads beats 1 rank × 64 threads at equal
//!   hardware utilization.

use pdnn_util::cast;

/// Core clock (Hz).
pub(crate) const CLOCK_HZ: f64 = 1.6e9;
/// Cores per node.
const CORES_PER_NODE: usize = 16;
/// Hardware threads per core.
const THREADS_PER_CORE: usize = 4;
/// Peak FLOPs per core per cycle (4-wide FMA).
const FLOPS_PER_CORE_PER_CYCLE: f64 = 8.0;
/// Peak node throughput in FLOP/s (204.8 GF).
// pdnn-lint: allow(l6-lossy-cast): const expression (checked helpers are not const fn); 16 is exact
pub(crate) const NODE_PEAK_FLOPS: f64 = CLOCK_HZ * FLOPS_PER_CORE_PER_CYCLE * CORES_PER_NODE as f64;

/// Fraction of peak a tuned SGEMM reaches with perfect threading
/// (everything that is not the GEMM inner loop: packing, edge tiles,
/// activation work, and the paper's "last 5%" effects).
const SGEMM_BASE_EFFICIENCY: f64 = 0.62;

/// A `ranks-per-node x threads-per-rank` execution configuration
/// (the paper's `R-rpn-t` notation, e.g. 2048-2-32).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct NodeConfig {
    /// MPI ranks placed on each node.
    pub ranks_per_node: usize,
    /// OpenMP (rayon) threads per rank.
    pub threads_per_rank: usize,
}

impl NodeConfig {
    /// Validate against the hardware limits (≤ 64 threads/node).
    pub(crate) fn validated(self) -> NodeConfig {
        assert!(self.ranks_per_node >= 1, "ranks_per_node must be >= 1");
        assert!(self.threads_per_rank >= 1, "threads_per_rank must be >= 1");
        let total = self.ranks_per_node * self.threads_per_rank;
        assert!(
            total <= CORES_PER_NODE * THREADS_PER_CORE,
            "{} threads exceed the node's {} hardware threads",
            total,
            CORES_PER_NODE * THREADS_PER_CORE
        );
        self
    }

    /// Total software threads on the node.
    fn threads_per_node(&self) -> usize {
        self.ranks_per_node * self.threads_per_rank
    }

    /// Hardware threads per core actually occupied (may be
    /// fractional when fewer than 16 threads run).
    pub(crate) fn threads_per_core(&self) -> f64 {
        cast::exact_f64_usize(self.threads_per_node()) / cast::exact_f64_usize(CORES_PER_NODE)
    }
}

/// Relative instruction throughput of a core running `t` hardware
/// threads (t in [1, 4]), normalized to 1.0 at full SMT.
///
/// Shape: a single in-order thread leaves the second issue port idle
/// and exposes full dependency latency; two threads enable dual issue;
/// four threads hide most remaining stalls. Calibrated to the
/// qualitative Figure 1(a) scaling (16→32→64 threads/node keeps
/// improving, with diminishing returns).
pub(crate) fn smt_throughput(threads_per_core: f64) -> f64 {
    let t = threads_per_core.clamp(0.0, cast::exact_f64_usize(THREADS_PER_CORE));
    // Piecewise-linear through (1, 0.52), (2, 0.80), (3, 0.93), (4, 1.0).
    const POINTS: [(f64, f64); 5] = [
        (0.0, 0.0),
        (1.0, 0.52),
        (2.0, 0.80),
        (3.0, 0.93),
        (4.0, 1.0),
    ];
    for w in POINTS.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if t <= x1 {
            return y0 + (y1 - y0) * (t - x0) / (x1 - x0);
        }
    }
    1.0
}

/// Intra-rank thread-scaling efficiency: OpenMP/fork-join overheads
/// and shared-cache pressure as one rank spans more cores.
///
/// Calibrated so that, at 64 threads/node, the per-node compute
/// ordering is `2 ranks x 32 ≳ 4 ranks x 16 > 1 rank x 64` once
/// rank-level overheads (below) are included — the Figure 1(a)
/// ordering.
fn thread_scaling(threads_per_rank: usize) -> f64 {
    // ~4.5% loss per doubling beyond 8 threads.
    let t = cast::exact_f64_usize(threads_per_rank.max(1));
    let doublings = (t / 8.0).log2().max(0.0);
    (1.0 - 0.045 * doublings).max(0.5)
}

/// Per-node overhead of hosting several MPI ranks (duplicated
/// packing buffers, rank-level synchronization, network-interface
/// sharing).
fn rank_packing_overhead(ranks_per_node: usize) -> f64 {
    match ranks_per_node {
        0 | 1 => 1.0,
        2 => 0.995,
        4 => 0.98,
        8 => 0.96,
        n => (1.0 - 0.01 * cast::exact_f64_usize(n).log2()).max(0.9),
    }
}

/// Effective SGEMM-bound FLOP/s of one node under `config`.
pub(crate) fn node_effective_flops(config: NodeConfig) -> f64 {
    let config = config.validated();
    NODE_PEAK_FLOPS
        * SGEMM_BASE_EFFICIENCY
        * smt_throughput(config.threads_per_core())
        * thread_scaling(config.threads_per_rank)
        * rank_packing_overhead(config.ranks_per_node)
}

/// Effective FLOP/s available to a single rank.
pub(crate) fn rank_effective_flops(config: NodeConfig) -> f64 {
    node_effective_flops(config) / cast::exact_f64_usize(config.ranks_per_node)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_matches_paper() {
        assert!((NODE_PEAK_FLOPS - 204.8e9).abs() < 1.0);
    }

    #[test]
    fn smt_is_monotone_and_normalized() {
        assert!(smt_throughput(1.0) < smt_throughput(2.0));
        assert!(smt_throughput(2.0) < smt_throughput(4.0));
        assert!((smt_throughput(4.0) - 1.0).abs() < 1e-12);
        // Paper: a lone thread is single-issue — well under half of
        // dual-issue throughput is unrealistic, above ~0.6 too.
        let s1 = smt_throughput(1.0);
        assert!(s1 > 0.4 && s1 < 0.6, "smt(1) = {s1}");
    }

    #[test]
    fn more_threads_per_node_is_faster() {
        // Figure 1(a): 1024-1-16 < 1024-1-32 < 1024-1-64 in speed.
        let f16 = node_effective_flops(NodeConfig {
            ranks_per_node: 1,
            threads_per_rank: 16,
        });
        let f32_ = node_effective_flops(NodeConfig {
            ranks_per_node: 1,
            threads_per_rank: 32,
        });
        let f64_ = node_effective_flops(NodeConfig {
            ranks_per_node: 1,
            threads_per_rank: 64,
        });
        assert!(f16 < f32_ && f32_ < f64_, "{f16} {f32_} {f64_}");
    }

    #[test]
    fn sixty_four_thread_configs_order_correctly() {
        // Among full-SMT configs, per-node compute: 2x32 and 4x16
        // beat 1x64 (thread-scaling overhead dominates), and are
        // within a few percent of each other.
        let c1 = node_effective_flops(NodeConfig {
            ranks_per_node: 1,
            threads_per_rank: 64,
        });
        let c2 = node_effective_flops(NodeConfig {
            ranks_per_node: 2,
            threads_per_rank: 32,
        });
        let c4 = node_effective_flops(NodeConfig {
            ranks_per_node: 4,
            threads_per_rank: 16,
        });
        assert!(c2 > c1, "2x32 {c2} should beat 1x64 {c1}");
        assert!(c4 > c1, "4x16 {c4} should beat 1x64 {c1}");
        assert!((c2 - c4).abs() / c2 < 0.06, "2x32 {c2} vs 4x16 {c4}");
    }

    #[test]
    fn effective_rate_is_well_below_peak() {
        let f = node_effective_flops(NodeConfig {
            ranks_per_node: 2,
            threads_per_rank: 32,
        });
        assert!(f < NODE_PEAK_FLOPS * 0.75);
        assert!(f > NODE_PEAK_FLOPS * 0.35);
    }

    #[test]
    fn rank_rate_divides_node_rate() {
        let cfg = NodeConfig {
            ranks_per_node: 4,
            threads_per_rank: 16,
        };
        let node = node_effective_flops(cfg);
        let rank = rank_effective_flops(cfg);
        assert!((node / rank - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "exceed the node")]
    fn oversubscription_rejected() {
        NodeConfig {
            ranks_per_node: 4,
            threads_per_rank: 32,
        }
        .validated();
    }

    #[test]
    fn thread_scaling_decays_gently() {
        assert_eq!(thread_scaling(1), 1.0);
        assert_eq!(thread_scaling(8), 1.0);
        assert!(thread_scaling(16) < 1.0);
        assert!(thread_scaling(64) < thread_scaling(32));
        assert!(thread_scaling(64) > 0.8);
    }
}
