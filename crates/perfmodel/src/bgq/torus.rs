//! The 5-D torus interconnect.
//!
//! Paper Section III: "The compute nodes are connected in a 5-D torus
//! network with a total network bandwidth of 44 GB/s per node." Each
//! node has 10 bidirectional links (2 per torus dimension) at 2 GB/s
//! each direction, plus the I/O link. Standard partition shapes are
//! used for the rack sizes the paper runs (a midplane is
//! 4×4×4×4×2 = 512 nodes; a rack is two midplanes; two racks are
//! 8192 MPI ranks at 4 ranks/node).

/// Per-link bandwidth, bytes/second each direction.
pub(crate) const LINK_BANDWIDTH: f64 = 2.0e9;
/// Per-hop router latency, seconds.
pub(crate) const HOP_LATENCY: f64 = 40e-9;

/// A 5-dimensional torus shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Torus {
    /// Extent of each dimension (A, B, C, D, E).
    pub dims: [usize; 5],
}

impl Torus {
    /// Standard BG/Q partition shapes for the node counts the paper
    /// uses; other counts get a balanced factorization.
    pub(crate) fn for_nodes(nodes: usize) -> Torus {
        let dims = match nodes {
            32 => [2, 2, 2, 2, 2],
            64 => [4, 2, 2, 2, 2],
            128 => [4, 4, 2, 2, 2],
            256 => [4, 4, 4, 2, 2],
            512 => [4, 4, 4, 4, 2],  // midplane
            1024 => [8, 4, 4, 4, 2], // one rack
            2048 => [8, 8, 4, 4, 2], // two racks
            4096 => [8, 8, 8, 4, 2],
            8192 => [8, 8, 8, 8, 2],
            n => {
                assert!(n >= 1, "torus needs at least one node");
                let mut dims = [1usize; 5];
                let mut rest = n;
                let mut i = 0;
                // Greedy: peel small prime factors round-robin.
                while rest > 1 {
                    let f = smallest_factor(rest);
                    dims[i % 5] *= f;
                    rest /= f;
                    i += 1;
                }
                dims.sort_unstable_by(|a, b| b.cmp(a));
                dims
            }
        };
        let t = Torus { dims };
        assert_eq!(t.nodes(), nodes, "torus shape mismatch");
        t
    }

    /// Number of nodes in the partition.
    fn nodes(&self) -> usize {
        self.dims.iter().product()
    }

    /// Coordinates of node index `id` (row-major over dims).
    fn coords(&self, id: usize) -> [usize; 5] {
        assert!(id < self.nodes(), "node {id} out of range");
        let mut c = [0usize; 5];
        let mut rest = id;
        for d in (0..5).rev() {
            c[d] = rest % self.dims[d];
            rest /= self.dims[d];
        }
        c
    }

    /// Shortest hop count between two nodes (per-dimension wraparound).
    fn hops(&self, a: usize, b: usize) -> usize {
        let ca = self.coords(a);
        let cb = self.coords(b);
        (0..5)
            .map(|d| {
                let ext = self.dims[d];
                let diff = ca[d].abs_diff(cb[d]);
                diff.min(ext - diff)
            })
            .sum()
    }

    /// Network diameter (max shortest-path hops).
    pub(crate) fn diameter(&self) -> usize {
        self.dims.iter().map(|&e| e / 2).sum()
    }

    /// Mean hop distance from node 0 (by symmetry, from any node).
    pub(crate) fn mean_hops(&self) -> f64 {
        let n = self.nodes();
        if n <= 1 {
            return 0.0;
        }
        let total: usize = (1..n).map(|b| self.hops(0, b)).sum();
        pdnn_util::cast::exact_f64_usize(total) / pdnn_util::cast::exact_f64_usize(n - 1)
    }
}

fn smallest_factor(n: usize) -> usize {
    if n.is_multiple_of(2) {
        return 2;
    }
    let mut f = 3;
    while f * f <= n {
        if n.is_multiple_of(f) {
            return f;
        }
        f += 2;
    }
    n
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn standard_shapes_have_right_sizes() {
        for nodes in [32usize, 64, 128, 256, 512, 1024, 2048, 4096, 8192] {
            assert_eq!(Torus::for_nodes(nodes).nodes(), nodes);
        }
    }

    #[test]
    fn midplane_is_the_canonical_shape() {
        assert_eq!(Torus::for_nodes(512).dims, [4, 4, 4, 4, 2]);
    }

    #[test]
    fn nonstandard_counts_factorize() {
        let t = Torus::for_nodes(96);
        assert_eq!(t.nodes(), 96);
        let t = Torus::for_nodes(7);
        assert_eq!(t.nodes(), 7);
        let t = Torus::for_nodes(1);
        assert_eq!(t.nodes(), 1);
    }

    #[test]
    fn coords_roundtrip() {
        let t = Torus::for_nodes(1024);
        for id in [0usize, 1, 17, 511, 1023] {
            let c = t.coords(id);
            // Rebuild the index.
            let mut back = 0usize;
            for d in 0..5 {
                back = back * t.dims[d] + c[d];
            }
            assert_eq!(back, id);
        }
    }

    #[test]
    fn hops_are_symmetric_and_zero_on_self() {
        let t = Torus::for_nodes(512);
        assert_eq!(t.hops(5, 5), 0);
        for (a, b) in [(0, 100), (3, 410), (17, 511)] {
            assert_eq!(t.hops(a, b), t.hops(b, a));
            assert!(t.hops(a, b) <= t.diameter());
        }
    }

    #[test]
    fn wraparound_shortens_paths() {
        // 1-D view: in a ring of 8, distance 0 -> 7 is 1, not 7.
        let t = Torus {
            dims: [8, 1, 1, 1, 1],
        };
        assert_eq!(t.hops(0, 7), 1);
        assert_eq!(t.hops(0, 4), 4);
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn diameter_grows_with_partition_size() {
        let d1 = Torus::for_nodes(512).diameter();
        let d2 = Torus::for_nodes(1024).diameter();
        let d4 = Torus::for_nodes(4096).diameter();
        assert!(d1 <= d2 && d2 <= d4);
        // 8192 nodes: 4+4+4+4+1 = 17 hops max.
        assert_eq!(Torus::for_nodes(8192).diameter(), 17);
    }

    #[test]
    fn mean_hops_below_diameter() {
        let t = Torus::for_nodes(512);
        let m = t.mean_hops();
        assert!(m > 1.0 && m < t.diameter() as f64);
    }
}
