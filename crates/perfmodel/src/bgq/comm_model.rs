//! Communication cost models.
//!
//! Three network flavors, matching the systems the paper contrasts:
//!
//! * [`Network::BgqTorus`] — MPI on the 5-D torus with hardware
//!   collective assist (the paper: "The Blue Gene/Q MPI communication
//!   library is heavily optimized"); broadcasts/reductions are
//!   pipelined over the torus, so cost is `α + diameter·hop + m/B`
//!   rather than `log₂(P)` full message times.
//! * [`Network::EthernetCluster`] — a commodity GbE/10GbE cluster with
//!   software tree collectives and a congestion ("collision") term
//!   that grows with the number of processes sharing switches — the
//!   paper's Section VII: "a Linux cluster … will suffer from several
//!   communication bottlenecks (collisions)".
//! * [`Network::SocketBaseline`] — the application's original
//!   socket/file transport (Section V.B): the master contacts workers
//!   one by one, so "collectives" serialize into `P − 1` p2p messages.

use super::torus::{Torus, HOP_LATENCY, LINK_BANDWIDTH};
use pdnn_util::cast;

/// Network model flavor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Network {
    /// BG/Q 5-D torus with optimized MPI collectives.
    BgqTorus {
        /// Partition shape.
        torus: Torus,
    },
    /// Commodity cluster: per-message latency, link bandwidth,
    /// congestion factor per additional sender.
    EthernetCluster {
        /// Per-message software + switch latency (s).
        latency: f64,
        /// Point-to-point bandwidth (bytes/s).
        bandwidth: f64,
        /// Effective-bandwidth degradation per concurrent sender
        /// (models switch contention / collisions).
        contention: f64,
    },
    /// Socket transport: master loops over peers sequentially.
    SocketBaseline {
        /// Per-connection latency (s).
        latency: f64,
        /// Per-connection bandwidth (bytes/s).
        bandwidth: f64,
    },
}

/// MPI software overhead per operation on BG/Q (PAMI fast path).
const BGQ_MPI_LATENCY: f64 = 2.5e-6;
/// Fraction of a single link's bandwidth achieved by the pipelined
/// collective hardware.
const BGQ_COLLECTIVE_BW_FRACTION: f64 = 0.9;

/// Typical commodity-cluster parameters circa the paper (GbE).
pub fn ethernet_1g() -> Network {
    Network::EthernetCluster {
        latency: 50e-6,
        bandwidth: 125e6,
        contention: 0.02,
    }
}

/// Socket transport over the same GbE hardware.
pub fn socket_1g() -> Network {
    Network::SocketBaseline {
        latency: 80e-6,
        bandwidth: 110e6,
    }
}

impl Network {
    /// BG/Q partition of `nodes` nodes.
    pub fn bgq(nodes: usize) -> Network {
        Network::BgqTorus {
            torus: Torus::for_nodes(nodes),
        }
    }

    /// Time for one point-to-point message of `bytes` between typical
    /// (mean-distance) endpoints.
    pub fn p2p_time(&self, bytes: u64) -> f64 {
        match self {
            Network::BgqTorus { torus } => {
                BGQ_MPI_LATENCY
                    + torus.mean_hops() * HOP_LATENCY
                    + cast::exact_f64(bytes) / LINK_BANDWIDTH
            }
            Network::EthernetCluster {
                latency, bandwidth, ..
            } => latency + cast::exact_f64(bytes) / bandwidth,
            Network::SocketBaseline { latency, bandwidth } => {
                latency + cast::exact_f64(bytes) / bandwidth
            }
        }
    }

    /// Time for a broadcast of `bytes` from one root to `ranks` ranks.
    pub fn bcast_time(&self, bytes: u64, ranks: usize) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        match self {
            Network::BgqTorus { torus } => {
                // Pipelined over the torus: fill the diameter once,
                // then stream at collective bandwidth.
                BGQ_MPI_LATENCY
                    + cast::exact_f64_usize(torus.diameter()) * HOP_LATENCY
                    + cast::exact_f64(bytes) / (LINK_BANDWIDTH * BGQ_COLLECTIVE_BW_FRACTION)
            }
            Network::EthernetCluster {
                latency,
                bandwidth,
                contention,
            } => {
                // Binomial software tree: log2(P) rounds of the full
                // message, with congestion inflating transfer time.
                let rounds = cast::exact_f64_usize(ranks).log2().ceil();
                let eff_bw = bandwidth / (1.0 + contention * cast::exact_f64_usize(ranks));
                rounds * (latency + cast::exact_f64(bytes) / eff_bw)
            }
            Network::SocketBaseline { latency, bandwidth } => {
                // Sequential fan-out from the master.
                (cast::exact_f64_usize(ranks) - 1.0)
                    * (latency + cast::exact_f64(bytes) / bandwidth)
            }
        }
    }

    /// Time for a sum-reduction of `bytes` from `ranks` ranks to a
    /// root. Modeled with the same shapes as broadcast (reduction
    /// trees mirror broadcast trees; BG/Q has hardware combining).
    pub(crate) fn reduce_time(&self, bytes: u64, ranks: usize) -> f64 {
        if ranks <= 1 {
            return 0.0;
        }
        match self {
            Network::BgqTorus { torus } => {
                // Hardware-combining pipelined reduction; slightly
                // slower than bcast (combine ALU on the way).
                BGQ_MPI_LATENCY
                    + cast::exact_f64_usize(torus.diameter()) * HOP_LATENCY
                    + 1.15 * cast::exact_f64(bytes) / (LINK_BANDWIDTH * BGQ_COLLECTIVE_BW_FRACTION)
            }
            Network::EthernetCluster { .. } => self.bcast_time(bytes, ranks) * 1.1,
            Network::SocketBaseline { latency, bandwidth } => {
                (cast::exact_f64_usize(ranks) - 1.0)
                    * (latency + cast::exact_f64(bytes) / bandwidth)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn bgq_collectives_are_nearly_size_independent_in_ranks() {
        // Pipelined torus collectives: going 1024 -> 8192 nodes should
        // cost only the extra diameter, a tiny additive term.
        let small = Network::bgq(1024).bcast_time(100 * MB, 1024);
        let big = Network::bgq(8192).bcast_time(100 * MB, 8192);
        assert!(big / small < 1.05, "{big} vs {small}");
    }

    #[test]
    fn ethernet_collectives_degrade_with_scale() {
        let net = ethernet_1g();
        let t96 = net.bcast_time(10 * MB, 96);
        let t1024 = net.bcast_time(10 * MB, 1024);
        assert!(t1024 > 3.0 * t96, "{t1024} vs {t96}");
    }

    #[test]
    fn socket_fanout_is_linear_in_ranks() {
        let net = socket_1g();
        let t8 = net.bcast_time(MB, 8);
        let t64 = net.bcast_time(MB, 64);
        let ratio = t64 / t8;
        assert!((ratio - 9.0).abs() < 0.5, "ratio {ratio}"); // (64-1)/(8-1)
    }

    #[test]
    fn bgq_beats_ethernet_beats_socket_at_scale() {
        let bytes = 40 * MB; // a 10M-parameter model
        let ranks = 1024;
        let bgq = Network::bgq(ranks).bcast_time(bytes, ranks);
        let eth = ethernet_1g().bcast_time(bytes, ranks);
        let sock = socket_1g().bcast_time(bytes, ranks);
        assert!(bgq < eth && eth < sock, "bgq={bgq} eth={eth} sock={sock}");
        // The gap is orders of magnitude — the paper's core claim for
        // why a specialized network is needed.
        assert!(sock / bgq > 100.0, "socket/bgq = {}", sock / bgq);
    }

    #[test]
    fn p2p_costs_scale_with_bytes() {
        let net = Network::bgq(512);
        let t1 = net.p2p_time(MB);
        let t10 = net.p2p_time(10 * MB);
        assert!(t10 > 5.0 * t1);
        assert!(net.p2p_time(0) > 0.0); // latency floor
    }

    #[test]
    fn single_rank_collectives_are_free() {
        assert_eq!(Network::bgq(1).bcast_time(MB, 1), 0.0);
        assert_eq!(ethernet_1g().reduce_time(MB, 1), 0.0);
    }
}
