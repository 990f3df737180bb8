//! Accuracy of the portable `exp`/`ln` in `pdnn::tensor::vmath`
//! against the platform's `f64` libm, rounded to the result type.
//!
//! Bounds: `exp` (f32) within 2 ulp, the sigmoid pass within 3 ulp,
//! `exp_f64`/`ln_f64` within 2 ulp. Results below `MIN_POSITIVE` are
//! flushed to `+0` on both sides, and a flushed `+0` counts as the
//! value one ulp below `MIN_POSITIVE`, so a result that rounds across
//! the flush point is one ulp off, not 2²³.
//!
//! The tier-1 tests sweep every 251st `f32` bit pattern plus the
//! special values and range edges; the exhaustive sweep over all 2³²
//! patterns is `#[ignore]`d (about a minute per core in release):
//!
//! ```text
//! cargo test --release --test vmath_accuracy -- --ignored
//! ```

use pdnn::tensor::vmath::{self, bias_sigmoid, exp_slice};

const EXP_ULP: u32 = 2;
const SIGMOID_ULP: u32 = 3;
const F64_ULP: u64 = 2;

/// Ordered position of a non-negative `f32` result, with everything
/// below `MIN_POSITIVE` (the flushed range) one step below it.
fn key32(v: f32) -> u32 {
    if v < f32::MIN_POSITIVE {
        f32::MIN_POSITIVE.to_bits() - 1
    } else {
        v.to_bits()
    }
}

fn ulps32(got: f32, want: f32) -> u32 {
    key32(got).abs_diff(key32(want))
}

/// Signed ordered position of an `f64` (no flush: `ln` spans both signs).
fn key64(v: f64) -> i64 {
    let b = v.to_bits() as i64;
    if b < 0 {
        i64::MIN - b
    } else {
        b
    }
}

fn ulps64(got: f64, want: f64) -> u64 {
    key64(got).abs_diff(key64(want))
}

fn exp_ref(x: f32) -> f32 {
    f64::from(x).exp() as f32
}

fn sigmoid_ref(x: f32) -> f32 {
    (1.0 / (1.0 + (-f64::from(x)).exp())) as f32
}

/// Worst `exp` and sigmoid ulp error over the finite, non-NaN inputs of
/// `xs`, through the dispatched slice kernels; checks every output is
/// `+0` or normal or `+inf`.
fn sweep(xs: &[f32]) -> (u32, u32) {
    let mut e = xs.to_vec();
    exp_slice(&mut e);
    let mut s = xs.to_vec();
    bias_sigmoid(&mut s, &vec![0.0; xs.len()]);
    let (mut worst_e, mut worst_s) = (0, 0);
    for ((&x, &ge), &gs) in xs.iter().zip(&e).zip(&s) {
        if x.is_nan() {
            assert_eq!(ge.to_bits(), x.to_bits(), "exp must return its NaN");
            assert!(gs.is_nan(), "sigmoid of NaN");
            continue;
        }
        for (what, v) in [("exp", ge), ("sigmoid", gs)] {
            assert!(
                v.to_bits() == 0 || v.is_normal() || (v.is_infinite() && v > 0.0),
                "{what}({x:e}) = {v:e} is not +0, normal or +inf"
            );
        }
        worst_e = worst_e.max(ulps32(ge, exp_ref(x)));
        worst_s = worst_s.max(ulps32(gs, sigmoid_ref(x)));
    }
    (worst_e, worst_s)
}

/// Sweep the bit patterns `lo.. hi` (step `step`) in cache-sized
/// chunks; returns the worst (exp, sigmoid) errors.
fn sweep_bits(lo: u64, hi: u64, step: u64) -> (u32, u32) {
    let mut worst = (0, 0);
    let mut chunk = Vec::with_capacity(4096);
    let mut b = lo;
    while b < hi {
        chunk.clear();
        while b < hi && chunk.len() < 4096 {
            chunk.push(f32::from_bits(b as u32));
            b += step;
        }
        let (e, s) = sweep(&chunk);
        worst = (worst.0.max(e), worst.1.max(s));
    }
    worst
}

fn assert_within(worst: (u32, u32)) {
    assert!(worst.0 <= EXP_ULP, "exp off by {} ulp", worst.0);
    assert!(worst.1 <= SIGMOID_ULP, "sigmoid off by {} ulp", worst.1);
}

#[test]
fn strided_f32_sweep_is_within_bounds() {
    assert_within(sweep_bits(0, 1 << 32, 251));
}

#[test]
fn special_values_and_range_edges_are_exact() {
    let exp1 = |x: f32| {
        let mut v = [x];
        exp_slice(&mut v);
        v[0]
    };
    let sig1 = |x: f32| {
        let mut v = [x];
        bias_sigmoid(&mut v, &[0.0]);
        v[0]
    };
    for x in [0.0f32, -0.0, f32::from_bits(1), -f32::from_bits(1), 1e-30] {
        assert_eq!(exp1(x), 1.0, "exp({x:e})");
        assert_eq!(sig1(x), 0.5, "sigmoid({x:e})");
    }
    assert_eq!(exp1(f32::INFINITY), f32::INFINITY);
    assert_eq!(exp1(f32::NEG_INFINITY).to_bits(), 0);
    assert_eq!(sig1(f32::INFINITY), 1.0);
    assert_eq!(sig1(f32::NEG_INFINITY).to_bits(), 0);
    assert_eq!(sig1(1000.0), 1.0);
    assert_eq!(sig1(-1000.0).to_bits(), 0);
    for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7f80_0001)] {
        assert_eq!(exp1(nan).to_bits(), nan.to_bits());
    }

    // Overflow edge: the last input whose exp is finite, and the next.
    let top = (0..)
        .map(|k| f32::from_bits(89.0f32.to_bits() - k))
        .find(|&x| exp_ref(x).is_finite())
        .expect("a finite exp");
    assert_eq!(exp1(top), exp_ref(top));
    let past = f32::from_bits(top.to_bits() + 1);
    assert_eq!(exp1(past), f32::INFINITY);
    // Flush edge: the last negative input with a normal exp, and the
    // next one down.
    let bottom = (0..)
        .map(|k| f32::from_bits((-87.0f32).to_bits() + k))
        .take_while(|&x| exp_ref(x) >= f32::MIN_POSITIVE)
        .last()
        .expect("a normal exp");
    assert_eq!(exp1(bottom), exp_ref(bottom));
    let below = f32::from_bits(bottom.to_bits() + 1);
    assert_eq!(exp1(below).to_bits(), 0);
}

#[test]
fn f64_exp_and_ln_are_within_two_ulp() {
    let mut rng = pdnn::util::Prng::new(20261015);
    let mut xs: Vec<f64> = (0..200_000)
        .map(|_| (rng.uniform() * 2.0 - 1.0) * 745.0)
        .collect();
    // Strided over the bit patterns of [-1, 1] and of the positives.
    let stride = 0x3ff0_0000_0000_0000 / 100_000;
    xs.extend((0..100_000u64).map(|i| f64::from_bits(i * stride)));
    xs.extend((0..100_000u64).map(|i| -f64::from_bits(i * stride)));
    let mut e = xs.clone();
    exp_slice(&mut e);
    for (&x, &got) in xs.iter().zip(&e) {
        let want = x.exp();
        let want = if want < f64::MIN_POSITIVE { 0.0 } else { want };
        assert_eq!(got, vmath::exp_f64(x), "slice kernel = scalar at {x:e}");
        if want < f64::MIN_POSITIVE || got < f64::MIN_POSITIVE {
            // Across the flush point: both must be at its edge.
            assert!(
                want < 2.0 * f64::MIN_POSITIVE && got < 2.0 * f64::MIN_POSITIVE,
                "exp({x:e}) = {got:e}, libm {want:e}"
            );
            continue;
        }
        let u = ulps64(got, want);
        assert!(u <= F64_ULP, "exp({x:e}) off by {u} ulp");
    }

    let mut ys: Vec<f64> = (0..200_000)
        .map(|_| (rng.uniform() * 1400.0 - 700.0).exp())
        .collect();
    ys.extend((1..200_000u64).map(|i| f64::from_bits(i * (0x7ff0_0000_0000_0000 / 200_000))));
    ys.extend((1..10_000u64).map(|i| 1.0 + (i as f64 - 5000.0) * 1e-7)); // around 1
    for &y in &ys {
        let u = ulps64(vmath::ln_f64(y), y.ln());
        assert!(u <= F64_ULP, "ln({y:e}) off by {u} ulp");
    }
}

#[test]
#[ignore = "all 2^32 f32 patterns; run in release"]
fn exhaustive_f32_sweep_is_within_bounds() {
    let threads = std::thread::available_parallelism().map_or(1, usize::from) as u64;
    let span = (1u64 << 32).div_ceil(threads);
    let worst = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || sweep_bits(t * span, ((t + 1) * span).min(1 << 32), 1)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread"))
            .fold((0, 0), |a, b| (a.0.max(b.0), a.1.max(b.1)))
    });
    eprintln!("worst: exp {} ulp, sigmoid {} ulp", worst.0, worst.1);
    assert_within(worst);
}
