//! The counting global allocator of the allocation tests. Install it
//! with `#[global_allocator] static ALLOC: CountingAlloc = CountingAlloc;`.
//! It counts process-wide, so an allocation test is the only test in
//! its binary and prints nothing inside its measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting allocation calls (`alloc`,
/// `alloc_zeroed`, `realloc`) and live bytes, and both again for blocks
/// of at least [`set_large`] bytes, with the peak of the latter.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static LARGE: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);
static LARGE_LIVE: AtomicI64 = AtomicI64::new(0);
static LARGE_PEAK: AtomicI64 = AtomicI64::new(0);

/// Count blocks of at least `bytes` as large from now on.
pub fn set_large(bytes: usize) {
    LARGE.store(bytes, Relaxed);
}

/// Allocation calls so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Live heap bytes.
pub fn live_bytes() -> i64 {
    LIVE.load(Relaxed)
}

/// Allocation calls of a large block so far.
pub fn large_allocs() -> u64 {
    LARGE_ALLOCS.load(Relaxed)
}

/// The most bytes live in large blocks at once since the last
/// [`reset_large_peak`].
pub fn large_peak_bytes() -> i64 {
    LARGE_PEAK.load(Relaxed)
}

/// Restart the large-block peak from the bytes live in large blocks
/// now, and return them.
pub fn reset_large_peak() -> i64 {
    let live = LARGE_LIVE.load(Relaxed);
    LARGE_PEAK.store(live, Relaxed);
    live
}

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    LIVE.fetch_add(size as i64, Relaxed);
    if size >= LARGE.load(Relaxed) {
        LARGE_ALLOCS.fetch_add(1, Relaxed);
        let live = LARGE_LIVE.fetch_add(size as i64, Relaxed) + size as i64;
        LARGE_PEAK.fetch_max(live, Relaxed);
    }
}

fn on_free(size: usize) {
    LIVE.fetch_sub(size as i64, Relaxed);
    if size >= LARGE.load(Relaxed) {
        LARGE_LIVE.fetch_sub(size as i64, Relaxed);
    }
}

// pdnn-lint: allow(l7-unsafe-outside-kernel): GlobalAlloc is an unsafe trait; this wrapper only counts and delegates to System
unsafe impl GlobalAlloc for CountingAlloc {
    // pdnn-lint: allow(l7-unsafe-outside-kernel): unsafe signature required by the GlobalAlloc trait; body delegates to System
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    // pdnn-lint: allow(l7-unsafe-outside-kernel): unsafe signature required by the GlobalAlloc trait; body delegates to System
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        System.dealloc(ptr, layout)
    }

    // pdnn-lint: allow(l7-unsafe-outside-kernel): unsafe signature required by the GlobalAlloc trait; body delegates to System
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    // pdnn-lint: allow(l7-unsafe-outside-kernel): unsafe signature required by the GlobalAlloc trait; body delegates to System
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
}
