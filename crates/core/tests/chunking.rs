//! The streamed gradient and held-out passes, which walk a shard in
//! chunks of one GEMM k-block (`kc` frames), must give bitwise the sums
//! of the whole shard at once, for both objectives — the property that
//! lets a rank hold one chunk of activations instead of its shard.

use pdnn_core::{DnnProblem, HeldoutEval, HfProblem, Objective};
use pdnn_dnn::{
    backprop_dlogits, loss::cross_entropy_loss_only, loss_and_gradient, mmi_batch, Activation,
    FrameLoss, Network,
};
use pdnn_speech::{Corpus, CorpusSpec, Shard};
use pdnn_tensor::gemm::{Blocking, GemmContext};
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
