//! The streamed passes, which walk a shard or the curvature sample in
//! chunks of one GEMM k-block (`kc` frames), must give bitwise the sums
//! of the whole batch at once, for both objectives — the property that
//! lets a rank hold one chunk of activations instead of its shard, and
//! its curvature sample only as packed chunks. The gradient and
//! held-out passes are checked against the library's whole-batch calls;
//! the Gauss–Newton product against the whole-sample algorithm it
//! replaced, kept here as the reference.

use pdnn_core::{DnnProblem, HeldoutEval, HfProblem, Objective};
use pdnn_dnn::fisher::empirical_fisher_diagonal;
use pdnn_dnn::{
    backprop_dlogits, cross_entropy, loss::cross_entropy_loss_only, loss_and_gradient, mmi_batch,
    softmax_rows, Activation, ForwardCache, FrameLoss, Network,
};
use pdnn_speech::{Corpus, CorpusSpec, Shard};
use pdnn_tensor::gemm::{Blocking, GemmContext, GemmOp, Trans};
use pdnn_tensor::{MatMut, Matrix};
use pdnn_util::Prng;
use proptest::prelude::*;

struct Fixture {
    corpus: Corpus,
    /// Every utterance of the corpus, end to end.
    frames: Shard,
    net: Network<f32>,
}

fn fixture() -> Fixture {
    let corpus = Corpus::generate(CorpusSpec {
        utterances: 48,
        ..CorpusSpec::tiny(606)
    });
    let all: Vec<usize> = (0..corpus.utterances().len()).collect();
    let frames = corpus.shard(&all);
    let mut rng = Prng::new(1);
    let net = Network::new(
        &[corpus.spec().feature_dim, 14, corpus.spec().states],
        Activation::Sigmoid,
        &mut rng,
    );
    Fixture {
        corpus,
        frames,
        net,
    }
}

fn with_kc(kc: usize) -> GemmContext {
    GemmContext::sequential().with_blocking(Blocking {
        kc,
        ..Blocking::default()
    })
}

/// The first `Σ lens` frames of the corpus, cut into utterances of
/// `lens` frames.
fn shard(f: &Fixture, lens: &[usize]) -> Shard {
    let n: usize = lens.iter().sum();
    assert!(
        n <= f.frames.frames(),
        "the corpus has {} frames",
        f.frames.frames()
    );
    Shard {
        x: f.frames.x.rows_copy(0, n),
        labels: f.frames.labels[..n].to_vec(),
        utt_lens: lens.to_vec(),
    }
}

/// `(Σ loss, Σ gradient, held-out sums)` of the whole shard in one
/// batch, made mean per frame as [`DnnProblem`] makes its sums.
fn whole_batch(
    net: &Network<f32>,
    ctx: &GemmContext,
    s: &Shard,
    objective: &Objective,
) -> (f64, Vec<f32>, HeldoutEval) {
    let frames = s.frames() as f64;
    let logits = net.logits(ctx, &s.x);
    let hits = logits
        .row_argmax()
        .iter()
        .zip(&s.labels)
        .filter(|(&p, &l)| p as u32 == l)
        .count();
    let (loss, mut grad, heldout_loss) = match objective {
        Objective::CrossEntropy => {
            let (loss, grad, _) =
                loss_and_gradient(net, ctx, &s.x, &s.labels, None, FrameLoss::CrossEntropy);
            (
                loss,
                grad,
                cross_entropy_loss_only(&logits, &s.labels, 0.0).0,
            )
        }
        Objective::Sequence(graph) => {
            let cache = net.forward(ctx, &s.x);
            let out = mmi_batch(cache.logits(), &s.labels, &s.utt_lens, graph);
            let grad = backprop_dlogits(net, ctx, &cache, &out.dlogits);
            let heldout = mmi_batch(&logits, &s.labels, &s.utt_lens, graph).loss;
            (out.loss, grad, heldout)
        }
    };
    pdnn_tensor::blas1::scal((1.0 / frames) as f32, &mut grad);
    let eval = HeldoutEval {
        loss: heldout_loss / frames,
        accuracy: hits as f64 / frames,
        frames: s.frames() as u64,
    };
    (loss / frames, grad, eval)
}

/// The streamed passes of a [`DnnProblem`] over `s` (as both its
/// training and its held-out shard) against the whole batch, bit for
/// bit.
fn assert_streamed_is_whole(f: &Fixture, kc: usize, lens: &[usize], objective: &Objective) {
    let ctx = with_kc(kc);
    let s = shard(f, lens);
    let (want_loss, want_grad, want_eval) = whole_batch(&f.net, &ctx, &s, objective);
    assert!(
        want_loss.is_finite(),
        "kc={kc} lens={lens:?}: loss {want_loss}"
    );
    let mut p = DnnProblem::new(f.net.clone(), ctx, s.clone(), s, objective.clone());
    let (loss, grad) = p.gradient();
    let name = match objective {
        Objective::CrossEntropy => "CE",
        Objective::Sequence(_) => "MMI",
    };
    let case = format!("kc={kc} lens={lens:?} {name}");
    assert_eq!(loss.to_bits(), want_loss.to_bits(), "{case}: loss");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&grad), bits(&want_grad), "{case}: gradient");
    assert_eq!(
        p.heldout_eval(&f.net.to_flat()),
        want_eval,
        "{case}: held-out"
    );
}

/// Utterance layouts of `frames` frames: one utterance (longer than
/// `kc` once `frames` is), and utterances of about half a chunk, so
/// some straddle a chunk edge.
fn layouts(frames: usize, kc: usize) -> Vec<Vec<usize>> {
    let half = kc / 2 + 1;
    let mut cut = vec![half; frames / half];
    cut.extend(Some(frames % half).filter(|&rest| rest > 0));
    vec![vec![frames], cut]
}

#[test]
fn streamed_sums_are_bitwise_the_whole_batch() {
    let f = fixture();
    let objectives = [
        Objective::CrossEntropy,
        Objective::Sequence(f.corpus.denominator_graph()),
    ];
    for kc in [7usize, 64] {
        for frames in [1, kc - 1, kc, kc + 1, 3 * kc + 5] {
            for lens in layouts(frames, kc) {
                for objective in &objectives {
                    assert_streamed_is_whole(&f, kc, &lens, objective);
                }
            }
        }
        // An utterance straddling the first chunk edge between two
        // that do not, and an MMI utterance over several chunks.
        for lens in [vec![kc - 2, 4, kc + 3], vec![3, 2 * kc + 1, 5]] {
            for objective in &objectives {
                assert_streamed_is_whole(&f, kc, &lens, objective);
            }
        }
    }
}

/// The whole shard of the default blocking, against the same problem on
/// the corpus's own utterances.
#[test]
fn default_blocking_streams_the_corpus_shard_bitwise() {
    let f = fixture();
    let kc = Blocking::default().kc;
    assert!(f.frames.frames() > 2 * kc, "want several chunks");
    let lens = f.frames.utt_lens.clone();
    assert_streamed_is_whole(&f, kc, &lens, &Objective::CrossEntropy);
    let graph = Objective::Sequence(f.corpus.denominator_graph());
    assert_streamed_is_whole(&f, kc, &lens, &graph);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_layout_and_chunk_depth_streams_bitwise(
        lens in proptest::collection::vec(1usize..40, 1..12),
        kc in 1usize..50,
        sequence in 0u8..2,
    ) {
        let f = fixture();
        let objective = if sequence == 1 {
            Objective::Sequence(f.corpus.denominator_graph())
        } else {
            Objective::CrossEntropy
        };
        assert_streamed_is_whole(&f, kc, &lens, &objective);
    }
}

/// `m ∘ f'(a)`, `f'` from the activation value as the library's masks
/// compute it.
fn mask(act: Activation, m: &mut Matrix<f32>, a: &Matrix<f32>) {
    for (mv, &av) in m.as_mut_slice().iter_mut().zip(a.as_slice()) {
        *mv *= match act {
            Activation::Sigmoid => av * (1.0 - av),
            Activation::Tanh => 1.0 - av * av,
            Activation::ReLU => f32::from(u8::from(av > 0.0)),
            Activation::Identity => 1.0,
        };
    }
}

/// The Gauss–Newton product over a whole sample at once, as it was
/// computed before the sample was streamed: the R-forward, `H_L` and
/// the linearized backward over the whole-sample activations of
/// `cache`, each `dW` one GEMM over every frame.
fn whole_sample_gn(
    net: &Network<f32>,
    ctx: &GemmContext,
    cache: &ForwardCache<f32>,
    q: &Matrix<f32>,
    v: &[f32],
) -> Vec<f32> {
    let layers = net.layers();
    let frames = cache.acts[0].rows();
    let mut parts = Vec::new();
    let mut rest = v;
    for layer in layers {
        let (w, r) = rest.split_at(layer.w.len());
        let (b, r) = r.split_at(layer.b.len());
        parts.push((w, b));
        rest = r;
    }
    let mut r: Option<Matrix<f32>> = None;
    for (l, layer) in layers.iter().enumerate() {
        let (out, inp) = layer.w.shape();
        let mut rz = Matrix::zeros(frames, out);
        let beta = match &r {
            Some(r_in) => {
                GemmOp::ab(r_in, Trans::N, &layer.w, Trans::T).run(ctx, &mut rz);
                1.0
            }
            None => 0.0,
        };
        let vw = Matrix::from_vec(out, inp, parts[l].0.to_vec());
        GemmOp::ab(&cache.acts[l], Trans::N, &vw, Trans::T)
            .beta(beta)
            .run(ctx, &mut rz);
        rz.add_row_broadcast(parts[l].1);
        if l + 1 < layers.len() {
            mask(layer.act, &mut rz, &cache.acts[l + 1]);
        }
        r = Some(rz);
    }
    let mut delta = r.expect("at least one layer");
    for f in 0..frames {
        let (qr, ur) = (q.row(f), delta.row_mut(f));
        let dot: f64 = qr
            .iter()
            .zip(ur.iter())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum();
        let dot = dot as f32;
        for (uv, &qv) in ur.iter_mut().zip(qr) {
            *uv = qv * (*uv - dot);
        }
    }
    let mut gv = vec![0.0f32; net.num_params()];
    let mut end = gv.len();
    for l in (0..layers.len()).rev() {
        let layer = &layers[l];
        let (out, inp) = layer.w.shape();
        let (dw, db) = gv[end - out * inp - out..end].split_at_mut(out * inp);
        end -= out * inp + out;
        GemmOp::ab(&delta, Trans::T, &cache.acts[l], Trans::N).run(ctx, MatMut::new(out, inp, dw));
        delta.column_sums_into(db);
        if l > 0 {
            let mut dprev = Matrix::zeros(frames, inp);
            GemmOp::ab(&delta, Trans::N, &layer.w, Trans::N).run(ctx, &mut dprev);
            mask(layers[l - 1].act, &mut dprev, &cache.acts[l]);
            delta = dprev;
        }
    }
    gv
}

/// A [`DnnProblem`] over `s` draws its whole shard as the curvature
/// sample (fraction 1 takes every utterance, in order); its streamed
/// Gauss–Newton products and Fisher diagonal are bitwise the
/// whole-sample ones, made mean per frame as the problem makes them.
fn assert_curvature_is_whole_sample(
    f: &Fixture,
    ctx: GemmContext,
    lens: &[usize],
    objective: &Objective,
) {
    let s = shard(f, lens);
    let kc = ctx.blocking().kc;
    let mut p = DnnProblem::new(
        f.net.clone(),
        ctx.clone(),
        s.clone(),
        s.clone(),
        objective.clone(),
    );
    p.sample_curvature(11, 1.0);
    let cache = f.net.forward(&ctx, &s.x);
    let (dist, dlogits) = match objective {
        Objective::CrossEntropy => (
            softmax_rows(cache.logits()),
            cross_entropy(cache.logits(), &s.labels).dlogits,
        ),
        Objective::Sequence(graph) => {
            let out = mmi_batch(cache.logits(), &s.labels, &s.utt_lens, graph);
            (out.den_posteriors, out.dlogits)
        }
    };
    let mean = |mut v: Vec<f32>| {
        pdnn_tensor::blas1::scal((1.0 / s.frames() as f64) as f32, &mut v);
        v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    };
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let name = match objective {
        Objective::CrossEntropy => "CE",
        Objective::Sequence(_) => "MMI",
    };
    let case = format!("kc={kc} lens={lens:?} {name}");
    let mut rng = Prng::new(lens.len() as u64);
    for _ in 0..2 {
        let v: Vec<f32> = (0..f.net.num_params())
            .map(|_| rng.normal() as f32)
            .collect();
        let want = mean(whole_sample_gn(&f.net, &ctx, &cache, &dist, &v));
        assert_eq!(bits(&p.gn_product(&v)), want, "{case}: G·v");
    }
    let want = mean(empirical_fisher_diagonal(&f.net, &ctx, &cache, &dlogits));
    let got = p
        .fisher_diagonal()
        .expect("the problem has a Fisher diagonal");
    assert_eq!(bits(&got), want, "{case}: Fisher diagonal");
}

#[test]
fn streamed_curvature_is_bitwise_the_whole_sample() {
    let f = fixture();
    let objectives = [
        Objective::CrossEntropy,
        Objective::Sequence(f.corpus.denominator_graph()),
    ];
    for kc in [7usize, 64, Blocking::default().kc] {
        assert!(f.frames.frames() >= 3 * kc + 5, "the corpus is too short");
        for frames in [1, kc - 1, kc, kc + 1, 3 * kc + 5] {
            for lens in layouts(frames, kc) {
                for objective in &objectives {
                    assert_curvature_is_whole_sample(&f, with_kc(kc), &lens, objective);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_layout_and_chunk_depth_streams_the_curvature_bitwise(
        lens in proptest::collection::vec(1usize..40, 1..12),
        kc in 1usize..50,
        sequence in 0u8..2,
    ) {
        let f = fixture();
        let objective = if sequence == 1 {
            Objective::Sequence(f.corpus.denominator_graph())
        } else {
            Objective::CrossEntropy
        };
        assert_curvature_is_whole_sample(&f, with_kc(kc), &lens, &objective);
    }
}
