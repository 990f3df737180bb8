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
//! A rank's engine holds one `Workspace` as its memory owner: every
//! phase takes its buffers here and gives them back when the phase
//! ends, so the bytes one phase parks are the next phase's and the
//! rank's peak is its largest phase. The reuse contract: a buffer is
//! reused by capacity, so it may be as large as the largest phase
//! requires, and a take that finds nothing large enough grows the
//! largest parked buffer rather than allocating beside it, so varying
//! request sizes cannot ratchet the arena up. Nothing the arena holds
//! goes back to the allocator mid-run. That matters because ranks are
//! threads of one process: a large block the allocator hands back to
//! the OS is faulted in again on its next use and flushes the TLBs of
//! the CPUs running the other ranks. An arena parks only buffers it
//! handed out; a caller that hands in a foreign buffer grows it by
//! that buffer for good.
//!
//! `take_vec`/`take_matrix` hand buffers out zero-filled at their
//! exact requested length, a drop-in replacement for `Matrix::zeros`;
//! the `_scratch` takes and [`Workspace::lease_vec`] skip the fill for
//! callers that overwrite every element. A caller that forgets to
//! `give_*` a buffer back merely loses the reuse (the buffer drops
//! normally), never correctness. The GEMM drivers' pack panels live
//! outside any arena, in per-thread retained scratch
//! ([`crate::gemm::scratch`]).

use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// Cumulative counters for one [`Workspace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// `take_*` calls that had to allocate: a fresh buffer, or a
    /// parked one grown because none fit.
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

    /// Lookup shared by the `take_*` variants: the smallest parked
    /// buffer whose capacity fits and is at most `max_cap` (best fit);
    /// if no parked buffer fits at all, the largest one, grown to `len`;
    /// a fresh allocation otherwise. Growing instead of allocating
    /// beside the parked set keeps a caller whose request sizes vary (a
    /// sampled minibatch) from ratcheting the arena up by one buffer per
    /// new size. Length is whatever the recycled buffer held — callers
    /// fix it up.
    fn take_raw(&mut self, len: usize, max_cap: usize) -> Vec<T> {
        let (mut best, mut largest, mut any_fits) = (None::<usize>, None::<usize>, false);
        for (i, buf) in self.free.iter().enumerate() {
            let cap = buf.capacity();
            any_fits |= cap >= len;
            if (len..=max_cap).contains(&cap) && best.is_none_or(|j| cap < self.free[j].capacity())
            {
                best = Some(i);
            }
            if largest.is_none_or(|j| cap > self.free[j].capacity()) {
                largest = Some(i);
            }
        }
        if best.is_some() {
            self.stats.reuses += 1;
            self.stats.bytes_reused += bytes_of::<T>(len);
        } else {
            self.stats.allocs += 1;
        }
        let Some(i) = best.or(largest.filter(|_| !any_fits)) else {
            return Vec::with_capacity(len);
        };
        let mut buf = self.free.swap_remove(i);
        self.parked_bytes -= bytes_of::<T>(buf.capacity());
        if buf.capacity() < len {
            buf.clear();
            buf.reserve_exact(len);
        }
        buf
    }

    /// [`Self::take_raw`] cut or extended to exactly `len` elements;
    /// only an extended tail is zeroed.
    fn take_exact(&mut self, len: usize, max_cap: usize) -> Vec<T> {
        let mut buf = self.take_raw(len, max_cap);
        buf.truncate(len);
        buf.resize(len, T::ZERO);
        buf
    }

    /// Take a zero-filled buffer of exactly `len` elements.
    ///
    /// Reuses the smallest parked buffer whose capacity fits (best
    /// fit); grows the largest parked buffer when none does, and
    /// allocates fresh only when nothing is parked.
    pub fn take_vec(&mut self, len: usize) -> Vec<T> {
        let mut buf = self.take_raw(len, usize::MAX);
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
        self.take_exact(len, usize::MAX)
    }

    /// [`Self::take_vec_scratch`] for a vector held through a whole
    /// phase (a lease): it reuses only a parked buffer at most a
    /// quarter larger, else allocates one. In a much larger buffer the
    /// vector would idle the rest of it for the phase, and the phase's
    /// shorter-lived takes would allocate beside it.
    pub fn lease_vec(&mut self, len: usize) -> Vec<T> {
        self.take_exact(len, len + len / 4)
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

    /// Counters since construction.
    pub fn stats(&self) -> WorkspaceStats {
        self.stats
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
        let small = ws.take_vec(10);
        let large = ws.take_vec(20);
        ws.give_vec(small);
        ws.give_vec(large);
        // Nothing fits 100: the largest parked buffer grows to it (an
        // allocation), and the smaller one stays parked.
        let v = ws.take_vec(100);
        assert_eq!(v.len(), 100);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!((ws.stats().allocs, ws.parked()), (3, 1));
        ws.give_vec(v);
        assert_eq!(ws.parked(), 2);
        assert_eq!(ws.stats().high_water_bytes, (10 + 100) * 4);
    }

    /// A lease takes a parked buffer only if it is at most a quarter
    /// larger, and otherwise leaves it for a take of its own size.
    #[test]
    fn lease_skips_much_larger_buffers() {
        let mut ws: Workspace<f32> = Workspace::new();
        let (a, b) = (ws.take_vec(100), ws.take_vec(400));
        ws.give_vec(a);
        ws.give_vec(b);
        let near = ws.lease_vec(90);
        assert_eq!((near.len(), near.capacity()), (90, 100));
        let far = ws.lease_vec(120);
        assert_eq!((far.len(), far.capacity()), (120, 120), "400 is too large");
        assert_eq!((ws.stats().allocs, ws.parked()), (3, 1));
        // Nothing parked fits at all: the largest grows, as for a take.
        ws.give_vec(far);
        let grown = ws.lease_vec(1000);
        assert_eq!(grown.capacity(), 1000);
        assert_eq!(ws.parked(), 1);
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
        // With `b` out, nothing parked fits 300: `a` grows to it.
        let b = ws.take_vec(200);
        let c = ws.take_vec(300);
        let cap_c = c.capacity() as u64 * 4;
        assert_eq!(ws.parked(), 0);
        ws.give_vec(c);
        assert_eq!(ws.stats().high_water_bytes, (cap_a + cap_b).max(cap_c));
        ws.give_vec(b);
        assert_eq!(ws.stats().high_water_bytes, cap_b + cap_c);
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
        // A parked buffer grown past its capacity arrives zeroed.
        let v4 = ws.take_vec_scratch(100);
        assert_eq!(v4.len(), 100);
        assert!(v4.iter().all(|&x| x == 0.0));
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
