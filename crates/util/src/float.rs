//! Approved float-comparison helpers.
//!
//! Raw `==`/`!=` on floats is banned in library code by `pdnn-lint`
//! rule `l4-float-exact-compare`: most call sites that write it mean
//! "close enough" and compare within a tolerance; the ones that
//! genuinely mean an exact test say so with the helper below.

/// True when `x` is exactly `+0.0` or `-0.0`.
///
/// The explicit name marks the intentional exact-zero sentinels
/// (empty-accumulator guards, BLAS-style `beta == 0` overwrite
/// semantics) that a tolerance comparison would get wrong.
#[inline]
pub fn exactly_zero(x: f64) -> bool {
    x == 0.0 // pdnn-lint: allow(l4-float-exact-compare): this helper defines the approved exact comparison
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_zero_matches_both_signed_zeros_only() {
        assert!(exactly_zero(0.0));
        assert!(exactly_zero(-0.0));
        assert!(!exactly_zero(f64::MIN_POSITIVE));
        assert!(!exactly_zero(f64::NAN));
    }
}
