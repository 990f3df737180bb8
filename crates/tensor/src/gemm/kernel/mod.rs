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
//! [`crate::vmath`], one loop instantiated per ISA; [`codec`] does the
//! same for the wire codecs of [`crate::codec`].
//!
//! Every kernel is safe Rust over slices. The SIMD ones are
//! `#[target_feature]` fns whose intrinsics need no `unsafe`; each
//! takes the zero-sized ISA token that proves the CPU has its features
//! (`gemm::dispatch` constructs the tokens and makes the one `unsafe`
//! call per kernel entry). A kernel takes its token's features by
//! sitting in the token's wrapper (`avx2_kernel! { ... }` and so on),
//! which enables exactly the features the token's `detect` probes. Their loads and stores go through
//! one small `mem` module per ISA — a whole register to or from a
//! fixed-size array, or the first `len().min(W)` lanes of a slice —
//! and those modules hold the only `unsafe` blocks here (lint rule
//! `l7-unsafe-outside-kernel`). An index past a panel or a C tile
//! panics; it cannot read or write outside the slice.

pub mod codec;
pub mod elementwise;
pub mod scalar;

#[cfg(target_arch = "x86_64")]
pub mod x86;

#[cfg(target_arch = "aarch64")]
pub mod neon;

use super::{MR, NR};

/// The first `kc` rows of a packed panel (`kk`-major, `N` values a
/// row) as fixed-size arrays, so a loop over them indexes nothing it
/// has to check.
///
/// # Panics
/// If the panel is shorter than `kc` rows.
#[inline(always)]
fn rows<T, const N: usize>(panel: &[T], kc: usize) -> &[[T; N]] {
    &panel.as_chunks().0[..kc]
}

/// The `kc` steps of a micro-panel pair: step `kk` is row `kk` of the
/// A panel (`MR` values, one per tile row) and of the B panel (`NR`
/// values, one per tile column).
///
/// # Panics
/// If either panel is shorter than `kc` steps.
#[inline(always)]
fn steps<'a, T>(
    kc: usize,
    ap: &'a [T],
    bp: &'a [T],
) -> impl Iterator<Item = (&'a [T; MR], &'a [T; NR])> {
    rows(ap, kc).iter().zip(rows(bp, kc))
}
