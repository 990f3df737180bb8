//! Wire-codec parity: every instantiation of the codec pass the host
//! can run gives the portable instantiation's output bit for bit, over
//! every length 0–67 (each vector tail and the int8 block edge at 64),
//! a longer vector, and sub-slices at every alignment, on inputs built
//! to hit the passes' edges: random bit patterns (NaN, infinities,
//! subnormals), binary16 rounding midpoints, and int8 quotients at and
//! beside half-integers.
//!
//! `pdnn_mpisim::wire`'s tests check the same passes against the
//! scalar definitions of the wire format; this sweep is the one the
//! AddressSanitizer run drives through each ISA.

use pdnn_tensor::codec::{instantiations, CodecFn, CodecPass};
use pdnn_util::Prng;

/// Inputs that exercise every branch the lanes select between.
fn inputs(rng: &mut Prng, n: usize, scale: f32) -> Vec<f32> {
    (0..n)
        .map(|i| match i % 5 {
            0 => f32::from_bits(rng.next_u32()),
            // A binary16 rounding midpoint or one of its neighbours.
            1 => {
                let h = f32::from_bits((rng.next_u32() & 0x0fff_e000) | 0x3000_1000);
                [h, h.next_up(), h.next_down()][i % 3]
            }
            // An int8 quotient at or beside a half-integer.
            2 => {
                let x = (rng.below(254) as f32 - 126.5) * scale;
                [x, x.next_up(), x.next_down()][i % 3]
            }
            3 => rng.range(-1.0, 1.0) as f32 * 127.0 * scale,
            _ => f32::from_bits(rng.next_u32() & 0x807f_ffff), // subnormal
        })
        .collect()
}

fn run_all(pass: CodecFn, src: &[f32], scale: f32) -> (u32, Vec<u16>, Vec<f32>, Vec<i8>, Vec<f32>) {
    let n = src.len();
    let mut max_bits = 0;
    pass(CodecPass::MaxAbsBits {
        src,
        out: &mut max_bits,
    });
    let mut h = vec![0u16; n];
    pass(CodecPass::F16Encode { src, out: &mut h });
    let mut back = vec![0.0f32; n];
    pass(CodecPass::F16Decode {
        src: &h,
        out: &mut back,
    });
    let mut q = vec![0i8; n];
    pass(CodecPass::I8Quantize {
        src,
        scale,
        out: &mut q,
    });
    let mut deq = vec![0.0f32; n];
    pass(CodecPass::I8Decode {
        src: &q,
        scale,
        out: &mut deq,
    });
    (max_bits, h, back, q, deq)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn every_instantiation_matches_the_portable_pass_bitwise() {
    let passes = instantiations();
    assert_eq!(passes[0].0, "portable");
    let portable = passes[0].1;
    let mut rng = Prng::new(2024);
    let scales = [1.0f32, 2.0 / 127.0, 0.013, 3e-39, 0.0, f32::NAN, 7.5e33];
    let mut lengths: Vec<usize> = (0..=67).collect();
    lengths.push(1000);
    for &n in &lengths {
        for &scale in &scales {
            let data = inputs(&mut rng, n + 3, scale);
            for offset in 0..=3 {
                let src = &data[offset..offset + n];
                let want = run_all(portable, src, scale);
                for &(name, pass) in &passes[1..] {
                    let got = run_all(pass, src, scale);
                    let case = format!("{name}: n={n} offset={offset} scale={scale:e}");
                    assert_eq!(got.0, want.0, "max bits, {case}");
                    assert_eq!(got.1, want.1, "f16 encode, {case}");
                    assert_eq!(bits(&got.2), bits(&want.2), "f16 decode, {case}");
                    assert_eq!(got.3, want.3, "int8 quantize, {case}");
                    assert_eq!(bits(&got.4), bits(&want.4), "int8 decode, {case}");
                }
            }
        }
    }
}

#[test]
fn every_instantiation_decodes_every_half_pattern_alike() {
    let all: Vec<u16> = (0..=u16::MAX).collect();
    let decode = |pass: CodecFn| {
        let mut out = vec![0.0f32; all.len()];
        pass(CodecPass::F16Decode {
            src: &all,
            out: &mut out,
        });
        bits(&out)
    };
    let passes = instantiations();
    let want = decode(passes[0].1);
    for &(name, pass) in &passes[1..] {
        assert_eq!(decode(pass), want, "{name}");
    }
}
