//! Property-based tests for the network derivatives and the sequence
//! criterion, over randomized architectures, data, and graphs.

use pdnn_dnn::gauss_newton::{gn_product, Curvature};
use pdnn_dnn::loss::{cross_entropy, cross_entropy_loss_only, softmax_rows};
use pdnn_dnn::sequence::{mmi_utterance, DenominatorGraph};
use pdnn_dnn::{gradcheck, Activation, Network};
use pdnn_tensor::gemm::GemmContext;
use pdnn_tensor::{blas1, Matrix};
use pdnn_util::Prng;
use proptest::prelude::*;

fn arch_strategy() -> impl Strategy<Value = (Vec<usize>, Activation)> {
    let dims = prop_oneof![
        Just(vec![3usize, 4]),
        Just(vec![4usize, 6, 3]),
        Just(vec![5usize, 7, 6, 4]),
        Just(vec![2usize, 3, 2, 3, 2]),
    ];
    let act = prop_oneof![
        Just(Activation::Sigmoid),
        Just(Activation::Tanh),
        Just(Activation::ReLU),
    ];
    (dims, act)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gradient_matches_finite_differences(
        (dims, act_raw) in arch_strategy(),
        frames in 1usize..6,
        seed in 0u64..1000,
    ) {
        // Finite differences are invalid at ReLU kinks (a random deep
        // net routinely has a pre-activation within ±h of zero), so
        // the FD property is restricted to smooth activations; ReLU's
        // analytic gradient is covered by the unit tests, which place
        // the network away from kinks.
        let act = if act_raw == Activation::ReLU {
            Activation::Tanh
        } else {
            act_raw
        };
        let ctx = GemmContext::sequential();
        let mut rng = Prng::new(seed);
        let net: Network<f64> = Network::new(&dims, act, &mut rng);
        let x = Matrix::random_normal(frames, dims[0], 1.0, &mut rng);
        let classes = *dims.last().unwrap() as u64;
        let labels: Vec<u32> = (0..frames).map(|_| rng.below(classes) as u32).collect();

        let (_, grad, _) = pdnn_dnn::backprop::loss_and_gradient(
            &net, &ctx, &x, &labels, None, pdnn_dnn::FrameLoss::CrossEntropy,
        );
        let theta0 = net.to_flat();
        let f = |theta: &[f64]| {
            let mut n = net.clone();
            n.set_flat(theta);
            cross_entropy_loss_only(&n.logits(&ctx, &x), &labels, 0.0).0
        };
        let fd = gradcheck::fd_gradient(f, &theta0, 1e-5);
        let err = gradcheck::max_rel_error(&grad, &fd);
        prop_assert!(err < 1e-4, "rel err {err} dims={dims:?} act={act:?}");
    }

    #[test]
    fn gauss_newton_stays_psd_and_symmetric(
        (dims, act) in arch_strategy(),
        frames in 1usize..6,
        seed in 0u64..1000,
    ) {
        let ctx = GemmContext::sequential();
        let mut rng = Prng::new(seed ^ 0xF00D);
        let net: Network<f64> = Network::new(&dims, act, &mut rng);
        let x = Matrix::random_normal(frames, dims[0], 1.0, &mut rng);
        let cache = net.forward(&ctx, &x);
        let q = softmax_rows(cache.logits());
        let n = net.num_params();
        let v1: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let v2: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let g1 = gn_product(&net, &ctx, &cache, Curvature::Fisher(&q), &v1);
        let g2 = gn_product(&net, &ctx, &cache, Curvature::Fisher(&q), &v2);
        prop_assert!(blas1::dot(&v1, &g1) >= -1e-9);
        let a = blas1::dot(&v2, &g1);
        let b = blas1::dot(&v1, &g2);
        prop_assert!((a - b).abs() < 1e-8 * (1.0 + a.abs()), "{a} vs {b}");
    }

    #[test]
    fn ce_gradient_rows_always_sum_to_zero(
        frames in 1usize..8,
        classes in 2usize..10,
        seed in 0u64..1000,
    ) {
        let mut rng = Prng::new(seed);
        let logits: Matrix<f64> = Matrix::random_normal(frames, classes, 2.0, &mut rng);
        let labels: Vec<u32> = (0..frames).map(|_| rng.below(classes as u64) as u32).collect();
        let out = cross_entropy(&logits, &labels);
        for r in 0..frames {
            let s: f64 = out.dlogits.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-10);
        }
        prop_assert!(out.loss >= 0.0);
    }

    #[test]
    fn mmi_loss_nonnegative_and_occupancies_normalized(
        frames in 1usize..10,
        states in 2usize..6,
        self_loop in 0.1f64..0.9,
        sparse in prop_oneof![Just(false), Just(true)],
        seed in 0u64..1000,
    ) {
        let mut rng = Prng::new(seed);
        let mut trans = vec![0.0; states * states];
        for i in 0..states {
            if sparse {
                // The corpus chain: self, +1 and +2 arcs, the rest exact zeros.
                trans[i * states + i] = self_loop;
                trans[i * states + (i + 1) % states] += (1.0 - self_loop) * 0.7;
                trans[i * states + (i + 2) % states] += (1.0 - self_loop) * 0.3;
            } else {
                let other = (1.0 - self_loop) / (states - 1) as f64;
                for j in 0..states {
                    trans[i * states + j] = if i == j { self_loop } else { other };
                }
            }
        }
        let g = DenominatorGraph::new(&vec![1.0 / states as f64; states], &trans);
        let logits: Matrix<f64> = Matrix::random_normal(frames, states, 1.5, &mut rng);
        let align: Vec<u32> = (0..frames).map(|_| rng.below(states as u64) as u32).collect();
        let out = mmi_utterance(&logits, &align, &g);
        prop_assert!(out.loss >= -1e-8, "loss {}", out.loss);
        for t in 0..frames {
            let s: f64 = out.den_posteriors.row(t).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-7, "frame {t}: {s}");
            let gsum: f64 = out.dlogits.row(t).iter().sum();
            prop_assert!(gsum.abs() < 1e-7, "grad row {t}: {gsum}");
        }
    }

    #[test]
    fn flat_roundtrip_is_lossless(
        (dims, act) in arch_strategy(),
        seed in 0u64..1000,
    ) {
        let mut rng = Prng::new(seed);
        let net: Network<f32> = Network::new(&dims, act, &mut rng);
        let theta = net.to_flat();
        let mut other: Network<f32> = Network::new(&dims, act, &mut rng);
        other.set_flat(&theta);
        prop_assert_eq!(other.to_flat(), theta);
    }

    #[test]
    fn softmax_rows_are_distributions(
        frames in 1usize..8,
        classes in 1usize..12,
        seed in 0u64..1000,
    ) {
        let mut rng = Prng::new(seed);
        let logits: Matrix<f64> = Matrix::random_normal(frames, classes, 5.0, &mut rng);
        let p = softmax_rows(&logits);
        for r in 0..frames {
            let s: f64 = p.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
            prop_assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }
}
