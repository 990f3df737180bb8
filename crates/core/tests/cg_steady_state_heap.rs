//! A CG solve allocates its work vectors once, not per step.
//!
//! Each step of `cg_minimize` runs its vector algebra in place, so the
//! heap allocations of a whole solve are the curvature products (one
//! vector each, made by the caller's closure), one copy per stored
//! iterate, and a fixed set of work buffers that does not depend on
//! how many steps ran. A counting global allocator checks that count
//! exactly, with and without a preconditioner, for solves of 12 and
//! 30 steps.
//!
//! The allocator counts the whole process, so this is the only test in
//! its binary and nothing prints inside the measured window.

use pdnn_core::{cg_minimize, CgConfig, CgResult};
use pdnn_obs::NullRecorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting allocation calls.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// pdnn-lint: allow(l7-unsafe-outside-kernel): GlobalAlloc is an unsafe trait; this wrapper only counts and delegates to System
unsafe impl GlobalAlloc for CountingAlloc {
    // pdnn-lint: allow(l7-unsafe-outside-kernel): unsafe signature required by the GlobalAlloc trait; body delegates to System
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // pdnn-lint: allow(l7-unsafe-outside-kernel): unsafe signature required by the GlobalAlloc trait; body delegates to System
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // pdnn-lint: allow(l7-unsafe-outside-kernel): unsafe signature required by the GlobalAlloc trait; body delegates to System
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // pdnn-lint: allow(l7-unsafe-outside-kernel): unsafe signature required by the GlobalAlloc trait; body delegates to System
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Run a solve forced to exactly `steps` iterations on an
/// ill-conditioned diagonal system; return it with the allocations it
/// made beyond its products and its stored iterates.
fn overhead(steps: usize, precond: Option<&[f32]>, diag: &[f32], g: &[f32]) -> (CgResult, u64) {
    let n = g.len();
    let d0 = vec![0.0f32; n];
    let config = CgConfig {
        max_iters: steps,
        min_iters: steps,
        epsilon: 0.0,
        store_gamma: 1.3,
    };
    let mut products = 0u64;
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = cg_minimize(
        g,
        &d0,
        |v| {
            products += 1;
            v.iter().zip(diag).map(|(&x, &a)| x * a).collect()
        },
        0.5,
        precond,
        &config,
        &NullRecorder,
    );
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(result.iters, steps, "solve stopped early");
    let stored = result.iterates.len() as u64;
    (result, allocs - products - stored)
}

#[test]
fn cg_solve_allocates_only_products_iterates_and_a_constant() {
    let n = 4099;
    let diag: Vec<f32> = (0..n)
        .map(|i| 10f32.powf(4.0 * i as f32 / n as f32))
        .collect();
    let g: Vec<f32> = (0..n).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.1).collect();
    let m: Vec<f32> = diag.iter().map(|&a| a.sqrt()).collect();

    // Work buffers: p, the q history and the iterate list. The
    // residual is the first product's own vector, and `d` itself
    // becomes the final iterate (neither 12 nor 30 is in the thinned
    // series 1…9, 11, 14, 18, 24, 31, …). A preconditioner adds z.
    for (precond, buffers) in [(None, 3), (Some(&m[..]), 4)] {
        let (short, extra_short) = overhead(12, precond, &diag, &g);
        let (long, extra_long) = overhead(30, precond, &diag, &g);
        assert!(long.iterates.len() > short.iterates.len());
        assert_eq!(
            extra_short,
            buffers,
            "12-step solve (preconditioned: {})",
            precond.is_some()
        );
        assert_eq!(
            extra_long,
            buffers,
            "30-step solve (preconditioned: {})",
            precond.is_some()
        );
    }
}
