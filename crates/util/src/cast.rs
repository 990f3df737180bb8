//! Checked numeric conversions for cycle/byte accounting paths.
//!
//! The perf-model and simulator crates convert between integer counters
//! (bytes, frames, flops, cycles) and `f64` time/throughput math
//! constantly. A bare `as` cast silently truncates or rounds; above
//! 2^53 a `u64 -> f64` cast is lossy and a negative `f64 -> u64` cast
//! saturates. `pdnn-lint` rule `l6-lossy-cast` bans bare `as` numeric
//! casts in those paths; these helpers are the sanctioned replacement.
//! Each one asserts the conversion is exact, so accounting bugs fail
//! fast instead of silently skewing figures.
//!
//! This module itself lives outside the l6 scope, so the `as` casts
//! below are legal; the assertions ahead of them are what make the
//! helpers trustworthy.

/// Largest integer magnitude `f64` represents exactly (2^53).
const F64_EXACT_MAX: u64 = 1 << 53;

/// Convert a `u64` counter to `f64`, asserting the value is exactly
/// representable (≤ 2^53). Counters in this workspace (bytes, frames,
/// flops, cycles) stay far below that bound; crossing it means the
/// accounting itself is broken.
#[inline]
pub fn exact_f64(n: u64) -> f64 {
    assert!(
        n <= F64_EXACT_MAX,
        "u64 value {n} exceeds 2^53; not exactly representable as f64"
    );
    n as f64
}

/// Convert a `usize` count to `f64`, asserting exact representability.
#[inline]
pub fn exact_f64_usize(n: usize) -> f64 {
    exact_f64(n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_f64_roundtrips_small_counters() {
        for n in [0u64, 1, 4096, 18_432_000, F64_EXACT_MAX] {
            let x = exact_f64(n);
            assert_eq!(x as u64, n);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 2^53")]
    fn exact_f64_rejects_above_2_53() {
        exact_f64(F64_EXACT_MAX + 1);
    }
}
