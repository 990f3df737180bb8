//! Reusable scratch-buffer arena.
//!
//! The paper manages memory "by essentially keeping track of what we
//! have allocated so that we can reallocate out of that memory instead
//! of repeatedly freeing and allocating … it greatly reduces timing
//! jitter" (Section V.A.4). [`Workspace`] is that mechanism: a
//! free-list of retired buffers that `take_*` calls recycle best-fit,
//! so a steady-state training loop allocates only until every phase
//! has hit its high-water mark and then runs allocation-free.
//!
//! Buffers are handed out zero-filled at their exact requested length,
//! so a `take_matrix` is a drop-in replacement for `Matrix::zeros` —
//! callers that forget to `give_*` a buffer back merely lose the reuse
//! (the buffer drops normally), never correctness.

use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Cumulative counters for one [`Workspace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// `take_*` calls that had to allocate a fresh buffer.
    pub allocs: u64,
    /// `take_*` calls satisfied from the free list.
    pub reuses: u64,
    /// Bytes handed out from recycled buffers.
    pub bytes_reused: u64,
    /// Largest total capacity ever parked on the free list.
    pub high_water_bytes: u64,
}

/// Recycling arena for GEMM/DNN scratch buffers.
///
/// Single-owner by design (`&mut self` everywhere): each worker rank
/// or bench thread holds its own `Workspace`, mirroring how the GEMM
/// stripes own disjoint state instead of sharing a locked pool.
#[derive(Clone, Debug, Default)]
pub struct Workspace<T: Scalar> {
    free: Vec<Vec<T>>,
    /// Total capacity of `free`, in bytes.
    parked_bytes: u64,
    stats: WorkspaceStats,
}

fn bytes_of<T>(elems: usize) -> u64 {
    (elems * std::mem::size_of::<T>()) as u64
}

impl<T: Scalar> Workspace<T> {
    /// Empty arena; grows to the caller's high-water mark on demand.
    pub fn new() -> Self {
        Workspace {
            free: Vec::new(),
            parked_bytes: 0,
            stats: WorkspaceStats::default(),
        }
    }

    /// Best-fit lookup shared by the `take_*` variants: the smallest
    /// parked buffer whose capacity fits, or a fresh allocation.
    /// Length is whatever the recycled buffer held — callers fix it up.
    fn take_raw(&mut self, len: usize) -> Vec<T> {
        let mut best: Option<usize> = None;
        for (i, buf) in self.free.iter().enumerate() {
            if buf.capacity() >= len
                && best.is_none_or(|j| buf.capacity() < self.free[j].capacity())
            {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                self.stats.reuses += 1;
                self.stats.bytes_reused += bytes_of::<T>(len);
                let buf = self.free.swap_remove(i);
                self.parked_bytes -= bytes_of::<T>(buf.capacity());
                buf
            }
            None => {
                self.stats.allocs += 1;
                Vec::with_capacity(len)
            }
        }
    }

    /// Take a zero-filled buffer of exactly `len` elements.
    ///
    /// Reuses the smallest parked buffer whose capacity fits (best
    /// fit); allocates fresh only when none does.
    pub fn take_vec(&mut self, len: usize) -> Vec<T> {
        let mut buf = self.take_raw(len);
        buf.clear();
        buf.resize(len, T::ZERO);
        buf
    }

    /// Take a buffer of exactly `len` elements with **unspecified
    /// contents** — the zero-fill of [`Self::take_vec`] is skipped.
    ///
    /// For buffers the caller fully overwrites before reading (GEMM
    /// outputs written with `beta = 0`, `copy_from_slice`
    /// destinations, pack buffers): recycling a multi-megabyte
    /// scratch buffer through `take_vec` would memset it only for
    /// every byte to be overwritten again.
    pub fn take_vec_scratch(&mut self, len: usize) -> Vec<T> {
        let mut buf = self.take_raw(len);
        if buf.len() > len {
            buf.truncate(len);
        } else {
            // Only the grown tail needs initializing; the recycled
            // prefix stays as-is (contents are unspecified anyway).
            buf.resize(len, T::ZERO);
        }
        buf
    }

    /// Take a zero-filled `rows x cols` matrix (arena-backed
    /// `Matrix::zeros`).
    pub fn take_matrix(&mut self, rows: usize, cols: usize) -> Matrix<T> {
        Matrix::from_vec(rows, cols, self.take_vec(rows * cols))
    }

    /// Take a `rows x cols` matrix with **unspecified contents** (see
    /// [`Self::take_vec_scratch`]); the caller must fully overwrite it
    /// before reading.
    pub fn take_matrix_scratch(&mut self, rows: usize, cols: usize) -> Matrix<T> {
        Matrix::from_vec(rows, cols, self.take_vec_scratch(rows * cols))
    }

    /// Return a buffer for later reuse; its contents are dead.
    pub fn give_vec(&mut self, buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        self.parked_bytes += bytes_of::<T>(buf.capacity());
        self.free.push(buf);
        self.stats.high_water_bytes = self.stats.high_water_bytes.max(self.parked_bytes);
    }

    /// Return a matrix's backing storage for later reuse.
    pub fn give_matrix(&mut self, m: Matrix<T>) {
        self.give_vec(m.into_vec());
    }

    /// Counters since construction (or the last [`Self::reset_stats`]).
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
    }

    /// Zero the counters, keeping the parked buffers.
    pub fn reset_stats(&mut self) {
        self.stats = WorkspaceStats::default();
    }

    /// Number of buffers currently parked on the free list.
    pub fn parked(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zero_filled_and_exact_len() {
        let mut ws: Workspace<f32> = Workspace::new();
        let mut v = ws.take_vec(10);
        assert_eq!(v.len(), 10);
        assert!(v.iter().all(|&x| x == 0.0));
        v.fill(7.0);
        ws.give_vec(v);
        let v2 = ws.take_vec(10);
        assert_eq!(v2.len(), 10);
        assert!(v2.iter().all(|&x| x == 0.0), "recycled buffer not zeroed");
    }

    #[test]
    fn steady_state_stops_allocating() {
        let mut ws: Workspace<f32> = Workspace::new();
        for _ in 0..5 {
            let a = ws.take_vec(100);
            let b = ws.take_vec(40);
            ws.give_vec(a);
            ws.give_vec(b);
        }
        let s = ws.stats();
        assert_eq!(s.allocs, 2, "only the first round should allocate");
        assert_eq!(s.reuses, 8);
        assert!(s.bytes_reused > 0);
    }

    #[test]
    fn best_fit_prefers_smallest_adequate_buffer() {
        let mut ws: Workspace<f32> = Workspace::new();
        let big = ws.take_vec(1000);
        let small = ws.take_vec(50);
        ws.give_vec(big);
        ws.give_vec(small);
        let got = ws.take_vec(40);
        assert!(got.capacity() < 1000, "took the big buffer for a small ask");
        ws.give_vec(got);
    }

    #[test]
    fn smaller_buffers_grow_in_place_of_fresh_alloc() {
        let mut ws: Workspace<f32> = Workspace::new();
        let v = ws.take_vec(10);
        ws.give_vec(v);
        // Nothing fits 100: counts as a fresh alloc, parked buffer stays.
        let v = ws.take_vec(100);
        assert_eq!(ws.stats().allocs, 2);
        ws.give_vec(v);
        assert_eq!(ws.parked(), 2);
    }

    #[test]
    fn matrix_round_trip() {
        let mut ws: Workspace<f64> = Workspace::new();
        let m = ws.take_matrix(4, 6);
        assert_eq!(m.shape(), (4, 6));
        ws.give_matrix(m);
        let m2 = ws.take_matrix(3, 8);
        assert_eq!(m2.shape(), (3, 8));
        assert_eq!(ws.stats().reuses, 1, "24-element buffer should recycle");
    }

    #[test]
    fn high_water_tracks_parked_capacity() {
        let mut ws: Workspace<f32> = Workspace::new();
        let a = ws.take_vec(100);
        let b = ws.take_vec(200);
        ws.give_vec(a);
        ws.give_vec(b);
        assert!(ws.stats().high_water_bytes >= 300 * 4);
    }

    /// The high water is the largest capacity ever parked at once:
    /// a take lowers the parked total, a give raises it.
    #[test]
    fn high_water_is_the_peak_parked_total() {
        let mut ws: Workspace<f32> = Workspace::new();
        let (a, b) = (ws.take_vec(100), ws.take_vec(200));
        let (cap_a, cap_b) = (a.capacity() as u64 * 4, b.capacity() as u64 * 4);
        ws.give_vec(a);
        ws.give_vec(b);
        assert_eq!(ws.stats().high_water_bytes, cap_a + cap_b);
        // Take-and-give cycles inside the parked set leave it alone.
        for _ in 0..3 {
            let v = ws.take_vec(50);
            ws.give_vec(v);
        }
        assert_eq!(ws.stats().high_water_bytes, cap_a + cap_b);
        // With `b` out, a fresh buffer parks beside `a` only.
        let b = ws.take_vec(200);
        let c = ws.take_vec(300);
        let cap_c = c.capacity() as u64 * 4;
        ws.give_vec(c);
        assert_eq!(
            ws.stats().high_water_bytes,
            (cap_a + cap_b).max(cap_a + cap_c)
        );
        ws.give_vec(b);
        assert_eq!(ws.stats().high_water_bytes, cap_a + cap_b + cap_c);
    }

    #[test]
    fn scratch_take_skips_zero_fill_but_has_exact_len() {
        let mut ws: Workspace<f32> = Workspace::new();
        let mut v = ws.take_vec(10);
        v.fill(7.0);
        ws.give_vec(v);
        // Recycled, shrunk: stale contents allowed, length exact.
        let v2 = ws.take_vec_scratch(6);
        assert_eq!(v2.len(), 6);
        assert_eq!(ws.stats().reuses, 1);
        ws.give_vec(v2);
        // Recycled, grown within capacity: the tail past the old
        // length is zeroed, the prefix is unspecified.
        let v3 = ws.take_vec_scratch(9);
        assert_eq!(v3.len(), 9);
        assert_eq!(v3[8], 0.0);
        ws.give_vec(v3);
        // Fresh allocation arrives zeroed by construction.
        let v4 = ws.take_vec_scratch(100);
        assert_eq!(v4.len(), 100);
        assert_eq!(ws.stats().allocs, 2);
    }

    #[test]
    fn scratch_matrix_round_trip() {
        let mut ws: Workspace<f64> = Workspace::new();
        let m = ws.take_matrix_scratch(4, 6);
        assert_eq!(m.shape(), (4, 6));
        ws.give_matrix(m);
        let m2 = ws.take_matrix_scratch(3, 8);
        assert_eq!(m2.shape(), (3, 8));
        assert_eq!(ws.stats().reuses, 1);
    }

    #[test]
    fn zero_len_takes_are_harmless() {
        let mut ws: Workspace<f32> = Workspace::new();
        let v = ws.take_vec(0);
        assert!(v.is_empty());
        ws.give_vec(v);
        assert_eq!(ws.parked(), 0, "capacity-0 buffers are not parked");
    }
}
