//! Per-thread packing scratch for the GEMM drivers.
//!
//! Every stripe of a per-call GEMM packs `op(A)` (and, on the plain
//! two-matrix path, `op(B)`) into micro-panel buffers before the tile
//! kernels run. Allocating those per stripe is the "repeatedly freeing
//! and allocating" the paper's Section V.A.4 warns about: a 512 KiB B
//! pack freed at the end of every stripe goes back to the OS and is
//! faulted in again on the next one. Instead each thread keeps one A
//! and one B buffer per element type, sized to the largest pack it has
//! needed, and every driver call on that thread reuses them.
//!
//! The buffers are handed out with **unspecified contents**: the pack
//! routines overwrite every region the kernels read, ragged-panel zero
//! padding included (the contract [`super::PackedB::new_in_from_rows`]
//! already relies on), so nothing is zero-filled per call. A buffer
//! only grows, and only to the phase's high-water mark; nothing is
//! kept beyond it.
//!
//! Ranks are threads of one process, so each rank retains its own
//! scratch. The threaded path's stripes run on scoped worker threads
//! that exit with the call, so their scratch lives for one call, as
//! their per-stripe buffers did before.

use crate::scalar::Scalar;
use std::cell::Cell;

/// Which of a thread's two packing buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Slot {
    /// `op(A)` row micro-panels.
    A,
    /// `op(B)` column micro-panels.
    B,
}

/// One thread's retained packing buffers for one element type.
pub struct PackScratch<T> {
    a: Cell<Vec<T>>,
    b: Cell<Vec<T>>,
}

impl<T> PackScratch<T> {
    /// Empty buffers; they grow on first use.
    pub(crate) const fn new() -> Self {
        PackScratch {
            a: Cell::new(Vec::new()),
            b: Cell::new(Vec::new()),
        }
    }

    fn slot(&self, slot: Slot) -> &Cell<Vec<T>> {
        match slot {
            Slot::A => &self.a,
            Slot::B => &self.b,
        }
    }

    /// Bytes held by both buffers.
    fn bytes(&self) -> u64 {
        let held = |c: &Cell<Vec<T>>| {
            let v = c.take();
            let n = v.len();
            c.set(v);
            n
        };
        ((held(&self.a) + held(&self.b)) * std::mem::size_of::<T>()) as u64
    }
}

thread_local! {
    pub(crate) static F32_SCRATCH: PackScratch<f32> = const { PackScratch::new() };
    pub(crate) static F64_SCRATCH: PackScratch<f64> = const { PackScratch::new() };
}

/// Take this thread's `slot` buffer, at least `len` elements long.
///
/// Only growth past the buffer's high-water length initializes
/// anything; the rest holds whatever the last pack left. A nested take
/// of the same slot (none of the drivers nests) finds it empty and
/// allocates its own.
pub(crate) fn take<T: Scalar>(slot: Slot, len: usize) -> Vec<T> {
    let mut buf = T::pack_scratch().with(|s| s.slot(slot).take());
    grow_to(&mut buf, len);
    buf
}

/// Lengthen `buf` to at least `len` elements, reserving exactly what
/// the growth needs and zero-filling only the new tail; a long enough
/// buffer is left as it is.
pub(crate) fn grow_to<T: Scalar>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.reserve_exact(len - buf.len());
        buf.resize(len, T::ZERO);
    }
}

/// Return a buffer from [`take`] to this thread's `slot`, keeping the
/// larger one if a nested take put one back first.
pub(crate) fn put_back<T: Scalar>(slot: Slot, buf: Vec<T>) {
    T::pack_scratch().with(|s| {
        let cell = s.slot(slot);
        let held = cell.take();
        cell.set(if held.len() > buf.len() { held } else { buf });
    });
}

/// Bytes of packing scratch the calling thread retains, over both
/// element types and both slots. Scratch only grows, so this is also
/// the thread's high water.
pub fn retained_bytes() -> u64 {
    F32_SCRATCH.with(PackScratch::bytes) + F64_SCRATCH.with(PackScratch::bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_grows_to_the_high_water_and_keeps_it() {
        std::thread::spawn(|| {
            assert_eq!(retained_bytes(), 0);
            let a = take::<f32>(Slot::A, 100);
            assert_eq!(a.len(), 100);
            put_back(Slot::A, a);
            assert_eq!(retained_bytes(), 400);
            // A smaller ask reuses the buffer at its full length.
            let mut a = take::<f32>(Slot::A, 10);
            assert_eq!(a.len(), 100);
            a[99] = 7.0;
            put_back(Slot::A, a);
            let a = take::<f32>(Slot::A, 50);
            assert_eq!(a[99], 7.0, "contents are kept, not re-zeroed");
            put_back(Slot::A, a);
            let b = take::<f64>(Slot::B, 8);
            put_back(Slot::B, b);
            assert_eq!(retained_bytes(), 400 + 64);
        })
        .join()
        .expect("scratch thread panicked");
    }

    #[test]
    fn nested_take_keeps_the_larger_buffer() {
        std::thread::spawn(|| {
            let outer = take::<f32>(Slot::B, 10);
            let inner = take::<f32>(Slot::B, 30);
            put_back(Slot::B, inner);
            put_back(Slot::B, outer);
            assert_eq!(take::<f32>(Slot::B, 0).len(), 30);
        })
        .join()
        .expect("scratch thread panicked");
    }
}
