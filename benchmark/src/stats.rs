//! Median / quartile helpers.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default "exclusive" method), because that is what the
//! acceptance driver computes from this benchmark's output: spreads
//! printed here are the spreads it will see.

use crate::json::Json;

/// Median of `values` (mean of the two middle elements for even n).
///
/// # Panics
/// On an empty slice — callers summarise at least one round.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// `(q1, q2, q3)` by the exclusive method; a single value is its own
/// three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: with n = 2 the clamp pushes j past i*m/4 for i = 1.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median, quartiles and sample count of one metric over rounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, _, q3) = quartiles(values);
        Summary {
            n: values.len(),
            q1,
            median: median(values),
            q3,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("median", Json::num(self.median)),
            ("q1", Json::num(self.q1)),
            ("q3", Json::num(self.q3)),
            ("n", Json::Num(self.n as f64)),
        ])
    }
}
