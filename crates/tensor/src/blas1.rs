//! Level-1 BLAS-style vector kernels.
//!
//! These run on plain slices; the conjugate-gradient inner loop of the
//! Hessian-free optimizer is built entirely out of them. Reductions
//! (`dot`, `nrm2`) accumulate in `f64` even for `f32` inputs — with
//! 10–100 M parameter vectors, naive `f32` accumulation loses enough
//! precision to destabilize CG.

use crate::scalar::Scalar;

/// `y += alpha * x`.
///
/// # Panics
/// If the slices differ in length.
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi = alpha.mul_add(xi, *yi);
    }
}

/// `y = alpha * x + beta * y`.
pub fn axpby<T: Scalar>(alpha: T, x: &[T], beta: T, y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "axpby length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi = alpha.mul_add(xi, beta * *yi);
    }
}

/// Scale `x` by `alpha` in place.
pub fn scal<T: Scalar>(alpha: T, x: &mut [T]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Dot product with `f64` accumulation.
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot length mismatch");
    // Four independent partial sums: breaks the serial dependence
    // chain so the loop pipelines/vectorizes.
    let mut s0 = 0.0f64;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    let mut s3 = 0.0f64;
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        s0 += x[j].to_f64() * y[j].to_f64();
        s1 += x[j + 1].to_f64() * y[j + 1].to_f64();
        s2 += x[j + 2].to_f64() * y[j + 2].to_f64();
        s3 += x[j + 3].to_f64() * y[j + 3].to_f64();
    }
    for j in chunks * 4..x.len() {
        s0 += x[j].to_f64() * y[j].to_f64();
    }
    (s0 + s1) + (s2 + s3)
}

/// `y += alpha * x`, returning the updated `x · y` — [`axpy`] then
/// [`dot`] in one pass, with the same roundings and [`dot`]'s
/// summation order.
///
/// # Panics
/// If the slices differ in length.
pub fn axpy_dot<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) -> f64 {
    assert_eq!(x.len(), y.len(), "axpy_dot length mismatch");
    let (x4, xt) = x.as_chunks::<4>();
    let (y4, yt) = y.as_chunks_mut::<4>();
    let mut lanes = [0.0f64; 4];
    for (xc, yc) in x4.iter().zip(y4) {
        for l in 0..4 {
            yc[l] = alpha.mul_add(xc[l], yc[l]);
            lanes[l] += xc[l].to_f64() * yc[l].to_f64();
        }
    }
    for (&xi, yi) in xt.iter().zip(yt) {
        *yi = alpha.mul_add(xi, *yi);
        lanes[0] += xi.to_f64() * yi.to_f64();
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// The update of one conjugate-gradient step, in one pass:
///
/// ```text
/// d += alpha·p,  r += alpha·ap,  z = r / m   (z is r without m)
/// ```
///
/// returning `(r·z, Σᵢ dᵢ(rᵢ + gᵢ))` over the updated vectors, both
/// accumulated in `f64`: `r·z` in [`dot`]'s order, the second sum in
/// index order. The result is bitwise that of two [`axpy`]s, the
/// division, [`dot`] and a serial loop. `precond` is `(m, z)`.
///
/// # Panics
/// If any slice differs in length from `d`.
pub fn cg_update<T: Scalar>(
    alpha: T,
    p: &[T],
    ap: &[T],
    g: &[T],
    d: &mut [T],
    r: &mut [T],
    precond: Option<(&[T], &mut [T])>,
) -> (f64, f64) {
    let n = d.len();
    let lens_match = [p.len(), ap.len(), g.len(), r.len()]
        .iter()
        .all(|&l| l == n);
    assert!(lens_match, "cg_update length mismatch");
    let mut lanes = [0.0f64; 4];
    let mut q = 0.0f64;
    let (p4, pt) = p.as_chunks::<4>();
    let (ap4, apt) = ap.as_chunks::<4>();
    let (g4, gt) = g.as_chunks::<4>();
    let (d4, dt) = d.as_chunks_mut::<4>();
    let (r4, rt) = r.as_chunks_mut::<4>();
    let operands = p4.iter().zip(ap4).zip(g4);
    let tail_operands = pt.iter().zip(apt).zip(gt);
    // One loop per case, so neither carries the other's branch.
    match precond {
        None => {
            for ((dc, rc), ((pc, apc), gc)) in d4.iter_mut().zip(r4).zip(operands) {
                for l in 0..4 {
                    let (d, r) = (&mut dc[l], &mut rc[l]);
                    cg_step(
                        alpha,
                        [pc[l], apc[l], gc[l]],
                        d,
                        r,
                        None,
                        &mut lanes[l],
                        &mut q,
                    );
                }
            }
            for ((d, r), ((&p, &ap), &g)) in dt.iter_mut().zip(rt).zip(tail_operands) {
                cg_step(alpha, [p, ap, g], d, r, None, &mut lanes[0], &mut q);
            }
        }
        Some((m, z)) => {
            assert!(m.len() == n && z.len() == n, "cg_update length mismatch");
            let (m4, mt) = m.as_chunks::<4>();
            let (z4, zt) = z.as_chunks_mut::<4>();
            let outputs = d4.iter_mut().zip(r4).zip(z4);
            for (((dc, rc), zc), (((pc, apc), gc), mc)) in outputs.zip(operands.zip(m4)) {
                for l in 0..4 {
                    let (d, r, mz) = (&mut dc[l], &mut rc[l], Some((mc[l], &mut zc[l])));
                    cg_step(
                        alpha,
                        [pc[l], apc[l], gc[l]],
                        d,
                        r,
                        mz,
                        &mut lanes[l],
                        &mut q,
                    );
                }
            }
            let tail_outputs = dt.iter_mut().zip(rt).zip(zt);
            for (((d, r), z), (((&p, &ap), &g), &m)) in tail_outputs.zip(tail_operands.zip(mt)) {
                cg_step(alpha, [p, ap, g], d, r, Some((m, z)), &mut lanes[0], &mut q);
            }
        }
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]), q)
}

/// One element of [`cg_update`]; `mz` is `(m_i, z_i)` under a
/// preconditioner.
#[inline(always)]
fn cg_step<T: Scalar>(
    alpha: T,
    [p, ap, g]: [T; 3],
    d: &mut T,
    r: &mut T,
    mz: Option<(T, &mut T)>,
    lane: &mut f64,
    q: &mut f64,
) {
    *d = alpha.mul_add(p, *d);
    *r = alpha.mul_add(ap, *r);
    let z = match mz {
        Some((m, z)) => {
            *z = *r / m;
            *z
        }
        None => *r,
    };
    *lane += r.to_f64() * z.to_f64();
    *q += d.to_f64() * (r.to_f64() + g.to_f64());
}

/// Euclidean norm with `f64` accumulation.
pub fn nrm2<T: Scalar>(x: &[T]) -> f64 {
    dot(x, x).sqrt()
}

/// Sum of absolute values with `f64` accumulation.
pub fn asum<T: Scalar>(x: &[T]) -> f64 {
    x.iter().map(|&v| v.to_f64().abs()).sum()
}

/// Copy `x` into `y`.
pub fn copy<T: Scalar>(x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "copy length mismatch");
    y.copy_from_slice(x);
}

/// Set every element to zero.
pub fn zero<T: Scalar>(x: &mut [T]) {
    for xi in x.iter_mut() {
        *xi = T::ZERO;
    }
}

/// Elementwise `y[i] += x[i]` (alpha = 1 fast path).
pub fn add<T: Scalar>(x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len(), "add length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += xi;
    }
}

/// Largest absolute element (0 for an empty slice).
pub fn amax<T: Scalar>(x: &[T]) -> f64 {
    x.iter().map(|&v| v.to_f64().abs()).fold(0.0, f64::max)
}

/// Linear combination `out = a*x + b*y`, writing a fresh vector.
pub fn lincomb<T: Scalar>(a: T, x: &[T], b: T, y: &[T]) -> Vec<T> {
    assert_eq!(x.len(), y.len(), "lincomb length mismatch");
    x.iter()
        .zip(y.iter())
        .map(|(&xi, &yi)| a.mul_add(xi, b * yi))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_basic() {
        let x = [1.0f32, 2.0, 3.0];
        let mut y = [10.0f32, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn axpby_combines() {
        let x = [1.0f64, 1.0];
        let mut y = [2.0f64, 4.0];
        axpby(3.0, &x, 0.5, &mut y);
        assert_eq!(y, [4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_checks_lengths() {
        let x = [1.0f32];
        let mut y = [1.0f32, 2.0];
        axpy(1.0, &x, &mut y);
    }

    #[test]
    fn dot_matches_naive_and_handles_tail() {
        // Length 7 exercises the remainder loop.
        let x: Vec<f32> = (1..=7).map(|i| i as f32).collect();
        let y: Vec<f32> = (1..=7).map(|i| (i * i) as f32).collect();
        let expect: f64 = x
            .iter()
            .zip(y.iter())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        assert!((dot(&x, &y) - expect).abs() < 1e-9);
    }

    #[test]
    fn dot_empty_is_zero() {
        let x: [f32; 0] = [];
        assert_eq!(dot(&x, &x), 0.0);
    }

    #[test]
    fn dot_accumulates_in_f64() {
        // 1e8 + many tiny values: f32 accumulation would lose them all.
        let n = 10_000;
        let mut x = vec![1.0f32; n + 1];
        x[0] = 1.0e8;
        let y = vec![1.0f32; n + 1];
        let d = dot(&x, &y);
        assert!((d - (1.0e8 + n as f64)).abs() < 1.0, "d={d}");
    }

    #[test]
    fn nrm2_pythagorean() {
        let x = [3.0f32, 4.0];
        assert!((nrm2(&x) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn asum_and_amax() {
        let x = [-1.0f32, 2.0, -3.0];
        assert!((asum(&x) - 6.0).abs() < 1e-12);
        assert!((amax(&x) - 3.0).abs() < 1e-12);
        assert_eq!(amax::<f32>(&[]), 0.0);
    }

    #[test]
    fn scal_zero_copy_add() {
        let mut x = [1.0f32, -2.0];
        scal(-2.0, &mut x);
        assert_eq!(x, [-2.0, 4.0]);
        let mut y = [0.0f32; 2];
        copy(&x, &mut y);
        assert_eq!(y, x);
        add(&x, &mut y);
        assert_eq!(y, [-4.0, 8.0]);
        zero(&mut y);
        assert_eq!(y, [0.0, 0.0]);
    }

    #[test]
    fn lincomb_produces_fresh_vector() {
        let x = [1.0f32, 0.0];
        let y = [0.0f32, 1.0];
        let z = lincomb(2.0, &x, 3.0, &y);
        assert_eq!(z, vec![2.0, 3.0]);
        assert_eq!(x, [1.0, 0.0]);
    }

    /// Every length up to 64 (each tail length against many lane
    /// sums: a tail summed into the wrong lane changes the bits only
    /// now and then), a prime and one larger than L2.
    fn fused_lens() -> impl Iterator<Item = usize> {
        (0..=64).chain([1021, 300_067])
    }

    /// Signed values of mixed magnitude with exact zeros of both signs.
    fn operand(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = pdnn_util::Prng::new(seed);
        (0..n)
            .map(|i| match i % 9 {
                3 => 0.0,
                7 => -0.0,
                _ => (rng.normal() * 10f64.powi(i as i32 % 5 - 2)) as f32,
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn axpy_dot_is_bitwise_axpy_then_dot() {
        for n in fused_lens() {
            let x = operand(n, 1);
            let y0 = operand(n, 2);
            for alpha in [0.37f32, -2.5, 0.0] {
                let mut want = y0.clone();
                axpy(alpha, &x, &mut want);
                let want_dot = dot(&x, &want);
                let mut got = y0.clone();
                let got_dot = axpy_dot(alpha, &x, &mut got);
                assert_eq!(bits(&got), bits(&want), "n={n} alpha={alpha}");
                assert_eq!(got_dot.to_bits(), want_dot.to_bits(), "n={n} alpha={alpha}");
            }
        }
    }

    #[test]
    fn cg_update_is_bitwise_the_unfused_composition() {
        for n in fused_lens() {
            let (p, ap, g) = (operand(n, 3), operand(n, 4), operand(n, 5));
            let (d0, r0) = (operand(n, 6), operand(n, 7));
            // A positive diagonal, as CG requires of M.
            let m: Vec<f32> = operand(n, 8).iter().map(|v| v.abs() + 0.25).collect();
            for alpha in [0.61f32, -1.75] {
                for precond in [None, Some(&m[..])] {
                    let (mut d, mut r) = (d0.clone(), r0.clone());
                    axpy(alpha, &p, &mut d);
                    axpy(alpha, &ap, &mut r);
                    let z: Vec<f32> = match precond {
                        Some(m) => r.iter().zip(m).map(|(&ri, &mi)| ri / mi).collect(),
                        None => r.clone(),
                    };
                    let want_rz = dot(&r, &z);
                    let mut want_q = 0.0f64;
                    for i in 0..n {
                        want_q += d[i] as f64 * (r[i] as f64 + g[i] as f64);
                    }

                    let (mut got_d, mut got_r) = (d0.clone(), r0.clone());
                    let mut got_z = vec![f32::NAN; n];
                    let mz = precond.map(|m| (m, &mut got_z[..]));
                    let (rz, q) = cg_update(alpha, &p, &ap, &g, &mut got_d, &mut got_r, mz);
                    let case = format!("n={n} alpha={alpha} precond={}", precond.is_some());
                    assert_eq!(bits(&got_d), bits(&d), "d: {case}");
                    assert_eq!(bits(&got_r), bits(&r), "r: {case}");
                    if precond.is_some() {
                        assert_eq!(bits(&got_z), bits(&z), "z: {case}");
                    }
                    assert_eq!(rz.to_bits(), want_rz.to_bits(), "r·z: {case}");
                    assert_eq!(q.to_bits(), want_q.to_bits(), "q: {case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cg_update length mismatch")]
    fn cg_update_checks_lengths() {
        let (a, b) = ([1.0f32; 3], [1.0f32; 4]);
        let (mut d, mut r) = ([0.0f32; 4], [0.0f32; 4]);
        cg_update(1.0, &a, &b, &b, &mut d, &mut r, None);
    }
}
