//! Register-blocked micro-tile kernels.
//!
//! Mirrors the paper's Section V.A.2: an `MR x NR` block of C is
//! updated by a sequence of rank-1 updates read with unit stride from
//! the packed panels. On BG/Q this was hand-scheduled QPX assembly;
//! here each backend supplies one [`crate::gemm::backend::TileFn`] per
//! element type — the portable [`scalar`] reference or an explicit
//! `std::arch` kernel ([`x86`], [`neon`]) — selected by the active
//! [`crate::gemm::backend::ComputeBackend`]. A tile kernel owns the
//! whole tile update: it accumulates from zeroed registers for the
//! whole `kc` loop, then merges `α·Σ` into C (overwrite, `β`-scale or
//! accumulate; [`crate::gemm::backend::Merge`]) straight from the
//! registers, so C traffic is one read-modify-write per block
//! regardless of `kc` — the property the paper's "reduce bandwidth to
//! a level the caches can feed" goal is about. A ragged edge tile
//! touches only its live corner: masked loads and stores where the ISA
//! has them, live lanes one by one where it does not.
//!
//! [`elementwise`] holds the other hot loop of training built the same
//! way: the vectorized `exp` and bias + activation row passes of
//! [`crate::vmath`], one loop instantiated per ISA.
//!
//! These submodules are the **only** place in the workspace where
//! `unsafe` is permitted (lint rule `l7-unsafe-outside-kernel`): the
//! SIMD kernels need raw intrinsics, and everything they touch is
//! bounds-asserted in a safe wrapper first.

/// Kernel-zone precondition: an always-on assert in a standardized
/// shape that `pdnn-kernelcheck` parses as the machine-checkable
/// guarantee backing a `// kernel-contract:` annotation.
///
/// The first argument must be either a slice-length bound
/// (`<slice>.len() >= <expr>`), a micro-tile bound (`x <= MR`), or a
/// runtime CPU-feature check (`is_x86_feature_detected!("...")`
/// conjunction) — the forms the checker knows how to match against
/// declared contracts. Using one macro for both the debug-build story
/// and the static pass keeps the contract text in a single place: a
/// kernel entry point whose declared contract is not backed by a
/// `kernel_precondition!` (or by the parameter's own type) is a
/// `k5-wrapper-precondition` finding.
///
/// Cost: a handful of integer compares per micro-panel call, noise
/// next to the `MR x NR x kc` FLOP loop each call performs.
macro_rules! kernel_precondition {
    ($cond:expr, $($msg:tt)+) => {
        assert!($cond, $($msg)+)
    };
}

pub mod elementwise;
pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod x86;

#[cfg(target_arch = "aarch64")]
pub mod neon;

/// Live columns of a register group that starts at tile column
/// `start` when the tile's live columns are `0..cols`: `cols - start`,
/// or zero for a group wholly past the edge. Callers clamp it to the
/// register width.
///
/// `pdnn-kernelcheck` reads `lanes(cols, start)` as "columns below
/// `cols`": a masked access whose mask is built from it, or a lane
/// loop it bounds, touches at most `cols - start` elements from the
/// group's first column.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline(always)]
fn lanes(cols: usize, start: usize) -> usize {
    cols.saturating_sub(start)
}
