//! Sample statistics for corpus summaries and load balance: the
//! percentiles of `pdnn-speech`'s corpus statistics and the
//! imbalance factor of its partitioners.

/// Percentile of a sample via linear interpolation on sorted data.
///
/// `q` is in `[0, 1]`. Returns `None` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "percentile q out of range: {q}");
    let mut sorted: Vec<f64> = samples.to_vec();
    // pdnn-lint: allow(l3-no-unwrap): NaN input is a caller bug; the panic message names it, total_cmp would silently misrank
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Load-imbalance factor of a set of per-worker loads: `max / mean`.
///
/// 1.0 means perfectly balanced; the paper's Section V.C argues this
/// factor directly bounds the synchronized step time of the
/// master/worker architecture (everyone waits for the slowest worker).
pub fn imbalance_factor(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let sum: f64 = loads.iter().sum();
    let mean = sum / loads.len() as f64;
    if crate::float::exactly_zero(mean) {
        return 1.0;
    }
    let max = loads.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(4.0));
        assert_eq!(percentile(&xs, 0.5), Some(2.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [9.0, 1.0, 5.0];
        assert_eq!(percentile(&xs, 0.5), Some(5.0));
    }

    #[test]
    fn imbalance_factor_balanced_is_one() {
        assert!((imbalance_factor(&[3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(imbalance_factor(&[]), 1.0);
        assert_eq!(imbalance_factor(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn imbalance_factor_detects_skew() {
        // One worker has 2x the mean load.
        let f = imbalance_factor(&[1.0, 1.0, 1.0, 5.0]);
        assert!((f - 2.5).abs() < 1e-12);
    }
}
