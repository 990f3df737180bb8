//! A CG solver allocates its work vectors once, not per step or per
//! solve.
//!
//! Each step of a solve runs its vector algebra in place, and the
//! curvature product is handed the product buffer the solver has
//! retired, so a product allocates nothing once two exist. A first
//! solve on a fresh [`CgSolver`] therefore allocates exactly: the
//! direction `p`, the iterate `d`, the quadratic history and the
//! iterate list (plus `z` under a preconditioner), one copy per stored
//! iterate, and the two products that found no retired buffer (the
//! residual and the first `Ap`). Once the result is reclaimed, a second
//! solve of the same length allocates nothing at all. A counting
//! global allocator checks both counts exactly, with and without a
//! preconditioner, for solves of 12 and 30 steps.
//!
//! The allocator counts the whole process, so this is the only test in
//! its binary and nothing prints inside the measured window.

use pdnn_core::{CgConfig, CgResult, CgSolver};
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

fn config(steps: usize) -> CgConfig {
    CgConfig {
        max_iters: steps,
        min_iters: steps,
        epsilon: 0.0,
        store_gamma: 1.3,
    }
}

/// Run one solve on `solver`, forced to its configured step count on an
/// ill-conditioned diagonal system; return it with the allocations it
/// made. The product reuses the buffer the solver retires.
fn solve(
    solver: &mut CgSolver,
    precond: Option<&[f32]>,
    diag: &[f32],
    g: &[f32],
) -> (CgResult, u64) {
    let d0 = vec![0.0f32; g.len()];
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = solver.solve(
        g,
        &d0,
        |v, mut retired| {
            retired.clear();
            retired.extend(v.iter().zip(diag).map(|(&x, &a)| x * a));
            retired
        },
        0.5,
        precond,
        &NullRecorder,
    );
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (result, allocs)
}

#[test]
fn cg_solver_allocates_its_buffers_once_and_then_nothing() {
    let n = 4099;
    let diag: Vec<f32> = (0..n)
        .map(|i| 10f32.powf(4.0 * i as f32 / n as f32))
        .collect();
    let g: Vec<f32> = (0..n).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.1).collect();
    let m: Vec<f32> = diag.iter().map(|&a| a.sqrt()).collect();

    // Work buffers: p, d, the q history and the iterate list; `d`
    // itself becomes the final iterate (neither 12 nor 30 is in the
    // thinned series 1…9, 11, 14, 18, 24, 31, …), so the stored copies
    // are all the other iterates. A preconditioner adds z.
    for (precond, buffers) in [(None, 4), (Some(&m[..]), 5)] {
        let mut stored = Vec::new();
        for steps in [12, 30] {
            let mut solver = CgSolver::new(config(steps));
            let (first, cold) = solve(&mut solver, precond, &diag, &g);
            assert_eq!(first.iters, steps, "solve stopped early");
            let copies = first.iterates.len() as u64 - 1;
            stored.push(copies);
            assert_eq!(
                cold,
                buffers + copies + 2,
                "first {steps}-step solve (preconditioned: {})",
                precond.is_some()
            );
            solver.reclaim(first);
            let (second, warm) = solve(&mut solver, precond, &diag, &g);
            assert_eq!(second.iters, steps);
            assert_eq!(
                warm,
                0,
                "second {steps}-step solve (preconditioned: {})",
                precond.is_some()
            );
        }
        assert!(
            stored[1] > stored[0],
            "the longer solve stores more iterates"
        );
    }
}
