//! Synthetic speech-like corpus generation.
//!
//! The paper trains on 50-hour and 400-hour proprietary speech
//! corpora: variable-length utterances from thousands of speakers,
//! frame-level HMM-state targets from forced alignment. We reproduce
//! the statistical shape with a generative HMM (see DESIGN.md
//! substitutions):
//!
//! * a first-order Markov chain over `states` phone-states with strong
//!   self-loops (speech sounds persist across 10 ms frames) and a
//!   banded forward structure;
//! * Gaussian emissions per state, plus a per-speaker offset
//!   (speaker variability) and i.i.d. noise;
//! * log-normal utterance lengths — the long right tail is what makes
//!   naive data distribution imbalanced (paper Section V.C).
//!
//! The chain doubles as the exact denominator graph for the MMI
//! sequence criterion, and the true state sequence is the forced
//! alignment — so both of the paper's objectives are well-posed on
//! this corpus and frame accuracy is a meaningful metric (the Bayes
//! error is controlled by `emission_noise`).

use pdnn_dnn::DenominatorGraph;
use pdnn_tensor::Matrix;
use pdnn_util::Prng;

/// Frames per hour of audio at the standard 10 ms hop (100 frames/s).
pub const FRAMES_PER_HOUR: u64 = 360_000;

/// Convert hours of audio to frame counts (50 h ≈ 18 M frames, the
/// paper's arithmetic).
pub fn hours_to_frames(hours: f64) -> u64 {
    (hours * FRAMES_PER_HOUR as f64).round() as u64
}

/// Parameters of the synthetic corpus.
#[derive(Clone, Debug)]
pub struct CorpusSpec {
    /// Number of HMM states (classes for the DNN).
    pub states: usize,
    /// Acoustic feature dimension.
    pub feature_dim: usize,
    /// Number of speakers (each gets a stable feature offset).
    pub speakers: usize,
    /// Number of utterances to generate.
    pub utterances: usize,
    /// Median utterance length in frames (log-normal median).
    pub median_utt_frames: f64,
    /// Log-normal sigma of utterance lengths (0 = constant length).
    pub length_sigma: f64,
    /// Emission noise standard deviation (controls task difficulty).
    pub emission_noise: f64,
    /// Self-loop probability of the state chain.
    pub self_loop: f64,
    /// RNG seed; the corpus is a pure function of the spec.
    pub seed: u64,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec {
            states: 16,
            feature_dim: 20,
            speakers: 8,
            utterances: 64,
            median_utt_frames: 60.0,
            length_sigma: 0.5,
            emission_noise: 0.5,
            self_loop: 0.7,
            seed: 12345,
        }
    }
}

impl CorpusSpec {
    /// A small, quickly learnable task for tests and examples.
    pub fn tiny(seed: u64) -> Self {
        CorpusSpec {
            states: 6,
            feature_dim: 10,
            speakers: 4,
            utterances: 24,
            median_utt_frames: 20.0,
            length_sigma: 0.4,
            emission_noise: 0.35,
            self_loop: 0.6,
            seed,
        }
    }
}

/// One spoken utterance: a feature matrix and its forced alignment.
#[derive(Clone, Debug)]
pub struct Utterance {
    /// Corpus-wide utterance index.
    pub id: usize,
    /// Speaker index.
    pub speaker: usize,
    /// Acoustic features, `frames x feature_dim`.
    pub features: Matrix<f32>,
    /// Frame-level HMM state alignment.
    pub alignment: Vec<u32>,
}

impl Utterance {
    /// Number of frames.
    pub fn frames(&self) -> usize {
        self.alignment.len()
    }
}

/// A generated corpus plus the generative model's parameters (the
/// transition model feeds the MMI denominator graph).
#[derive(Clone, Debug)]
pub struct Corpus {
    spec: CorpusSpec,
    utterances: Vec<Utterance>,
    /// State transition probabilities, `states x states` row-major.
    transitions: Vec<f64>,
    /// Initial state distribution.
    prior: Vec<f64>,
}

/// A contiguous training view: stacked features, concatenated
/// alignments, and the utterance partition — the unit of data a worker
/// holds.
#[derive(Clone, Debug)]
pub struct Shard {
    /// Features, `total_frames x feature_dim`.
    pub x: Matrix<f32>,
    /// Frame targets (HMM states).
    pub labels: Vec<u32>,
    /// Per-utterance frame counts partitioning the rows of `x`.
    pub utt_lens: Vec<usize>,
}

impl Shard {
    /// Total frames in the shard.
    pub fn frames(&self) -> usize {
        self.labels.len()
    }
}

impl Corpus {
    /// Generate a corpus from a spec (deterministic in `spec.seed`).
    pub fn generate(spec: CorpusSpec) -> Corpus {
        assert!(spec.states >= 2, "need at least 2 states");
        assert!(spec.feature_dim >= 1, "need at least 1 feature dim");
        assert!(spec.speakers >= 1, "need at least 1 speaker");
        assert!(spec.utterances >= 1, "need at least 1 utterance");
        assert!(
            (0.0..1.0).contains(&spec.self_loop),
            "self_loop must be in [0,1)"
        );
        let mut rng = Prng::new(spec.seed);
        let s = spec.states;

        // Banded transition matrix: self-loop + mass on the next two
        // states (wrapping), a crude phone-sequence model.
        let mut transitions = vec![0.0f64; s * s];
        for i in 0..s {
            transitions[i * s + i] = spec.self_loop;
            let fwd = (1.0 - spec.self_loop) * 0.7;
            let skip = (1.0 - spec.self_loop) * 0.3;
            transitions[i * s + (i + 1) % s] += fwd;
            transitions[i * s + (i + 2) % s] += skip;
        }
        let prior = vec![1.0 / s as f64; s];

        // State emission prototypes: unit-ish Gaussian directions,
        // separated enough to be learnable.
        let mut state_means = Matrix::<f32>::zeros(s, spec.feature_dim);
        for st in 0..s {
            rng.fill_normal_f32(state_means.row_mut(st), 1.0);
        }
        // Speaker offsets: smaller perturbations.
        let mut speaker_offsets = Matrix::<f32>::zeros(spec.speakers, spec.feature_dim);
        for sp in 0..spec.speakers {
            rng.fill_normal_f32(speaker_offsets.row_mut(sp), 0.2);
        }

        let mu = spec.median_utt_frames.max(2.0).ln();
        let mut utterances = Vec::with_capacity(spec.utterances);
        for id in 0..spec.utterances {
            let speaker = rng.index(spec.speakers);
            let frames = rng.log_normal(mu, spec.length_sigma).round().max(2.0) as usize;

            // Sample the state path.
            let mut alignment = Vec::with_capacity(frames);
            let mut state = Self::sample_from(&prior, &mut rng);
            alignment.push(state as u32);
            for _ in 1..frames {
                let row = &transitions[state * s..(state + 1) * s];
                state = Self::sample_from(row, &mut rng);
                alignment.push(state as u32);
            }

            // Emit features.
            let mut features = Matrix::<f32>::zeros(frames, spec.feature_dim);
            for (t, &st) in alignment.iter().enumerate() {
                let mean = state_means.row(st as usize);
                let offset = speaker_offsets.row(speaker);
                let row = features.row_mut(t);
                for d in 0..spec.feature_dim {
                    row[d] = mean[d] + offset[d] + rng.normal() as f32 * spec.emission_noise as f32;
                }
            }

            utterances.push(Utterance {
                id,
                speaker,
                features,
                alignment,
            });
        }

        Corpus {
            spec,
            utterances,
            transitions,
            prior,
        }
    }

    fn sample_from(probs: &[f64], rng: &mut Prng) -> usize {
        let u = rng.uniform();
        let mut acc = 0.0;
        for (i, &p) in probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return i;
            }
        }
        probs.len() - 1
    }

    /// The generating spec.
    pub fn spec(&self) -> &CorpusSpec {
        &self.spec
    }

    /// All utterances.
    pub fn utterances(&self) -> &[Utterance] {
        &self.utterances
    }

    /// Utterance lengths in frames (corpus order).
    pub(crate) fn utt_lens(&self) -> Vec<usize> {
        self.utterances.iter().map(Utterance::frames).collect()
    }

    /// Total frames across the corpus.
    pub fn total_frames(&self) -> usize {
        self.utterances.iter().map(Utterance::frames).sum()
    }

    /// The exact denominator graph of the generative chain.
    pub fn denominator_graph(&self) -> DenominatorGraph {
        DenominatorGraph::new(&self.prior, &self.transitions)
    }

    /// Stack the given utterances (by index) into one training shard.
    pub fn shard(&self, ids: &[usize]) -> Shard {
        let dim = self.spec.feature_dim;
        let total: usize = ids.iter().map(|&i| self.utterances[i].frames()).sum();
        let mut x = Matrix::zeros(total, dim);
        let mut labels = Vec::with_capacity(total);
        let mut utt_lens = Vec::with_capacity(ids.len());
        let mut row = 0usize;
        for &i in ids {
            let utt = &self.utterances[i];
            let f = utt.frames();
            x.as_mut_slice()[row * dim..(row + f) * dim].copy_from_slice(utt.features.as_slice());
            labels.extend_from_slice(&utt.alignment);
            utt_lens.push(f);
            row += f;
        }
        Shard {
            x,
            labels,
            utt_lens,
        }
    }

    /// Split utterance ids into `(train, heldout)` with roughly
    /// `heldout_frac` of utterances held out (deterministic in the
    /// corpus seed).
    pub fn split_heldout(&self, heldout_frac: f64) -> (Vec<usize>, Vec<usize>) {
        assert!(
            (0.0..1.0).contains(&heldout_frac),
            "heldout_frac must be in [0,1)"
        );
        let mut ids: Vec<usize> = (0..self.utterances.len()).collect();
        let mut rng = Prng::new(self.spec.seed ^ 0x5EED_0DD5);
        rng.shuffle(&mut ids);
        let n_held =
            ((ids.len() as f64 * heldout_frac).round() as usize).min(ids.len().saturating_sub(1));
        let heldout = ids.split_off(ids.len() - n_held);
        (ids, heldout)
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn hours_arithmetic_matches_paper() {
        // "50 hrs of audio data amounts to roughly 18 million training
        // samples."
        assert_eq!(hours_to_frames(50.0), 18_000_000);
        assert_eq!(hours_to_frames(400.0), 144_000_000);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(CorpusSpec::tiny(7));
        let b = Corpus::generate(CorpusSpec::tiny(7));
        assert_eq!(a.total_frames(), b.total_frames());
        assert_eq!(a.utterances()[0].alignment, b.utterances()[0].alignment);
        assert_eq!(
            a.utterances()[0].features.as_slice(),
            b.utterances()[0].features.as_slice()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = Corpus::generate(CorpusSpec::tiny(1));
        let b = Corpus::generate(CorpusSpec::tiny(2));
        assert_ne!(a.utterances()[0].alignment, b.utterances()[0].alignment);
    }

    #[test]
    fn shapes_are_consistent() {
        let c = Corpus::generate(CorpusSpec::default());
        assert_eq!(c.utterances().len(), 64);
        for utt in c.utterances() {
            assert_eq!(utt.features.rows(), utt.alignment.len());
            assert_eq!(utt.features.cols(), 20);
            assert!(utt.frames() >= 2);
            assert!(utt.speaker < 8);
            assert!(utt.alignment.iter().all(|&s| (s as usize) < 16));
        }
        assert_eq!(c.total_frames(), c.utt_lens().iter().sum::<usize>());
    }

    #[test]
    fn lengths_have_a_right_tail() {
        let mut spec = CorpusSpec::default();
        spec.utterances = 400;
        spec.length_sigma = 0.7;
        let c = Corpus::generate(spec);
        let lens = c.utt_lens();
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        let max = *lens.iter().max().unwrap() as f64;
        // Log-normal: max should be several times the mean.
        assert!(max / mean > 2.0, "max/mean = {}", max / mean);
    }

    #[test]
    fn denominator_graph_is_valid() {
        let c = Corpus::generate(CorpusSpec::tiny(3));
        let g = c.denominator_graph();
        assert_eq!(g.states(), 6);
    }

    #[test]
    fn alignment_respects_chain_support() {
        // Transitions only allow self, +1, +2 (mod S): verify that's
        // what the sampled alignments do.
        let c = Corpus::generate(CorpusSpec::tiny(5));
        let s = c.spec().states;
        for utt in c.utterances() {
            for w in utt.alignment.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                let step = (b + s - a) % s;
                assert!(step <= 2, "illegal transition {a}->{b}");
            }
        }
    }

    #[test]
    fn shard_stacks_utterances_in_order() {
        let c = Corpus::generate(CorpusSpec::tiny(9));
        let shard = c.shard(&[2, 0]);
        let u2 = &c.utterances()[2];
        let u0 = &c.utterances()[0];
        assert_eq!(shard.frames(), u2.frames() + u0.frames());
        assert_eq!(shard.utt_lens, vec![u2.frames(), u0.frames()]);
        assert_eq!(&shard.labels[..u2.frames()], u2.alignment.as_slice());
        assert_eq!(shard.x.row(0), u2.features.row(0));
        assert_eq!(shard.x.row(u2.frames()), u0.features.row(0));
    }

    #[test]
    fn empty_shard_is_empty() {
        let c = Corpus::generate(CorpusSpec::tiny(9));
        let shard = c.shard(&[]);
        assert_eq!(shard.frames(), 0);
        assert!(shard.utt_lens.is_empty());
    }

    #[test]
    fn heldout_split_partitions_ids() {
        let c = Corpus::generate(CorpusSpec::tiny(11));
        let (train, held) = c.split_heldout(0.25);
        assert_eq!(train.len() + held.len(), c.utterances().len());
        let mut all: Vec<usize> = train.iter().chain(held.iter()).cloned().collect();
        all.sort_unstable();
        assert_eq!(all, (0..c.utterances().len()).collect::<Vec<_>>());
        assert_eq!(
            held.len(),
            (c.utterances().len() as f64 * 0.25).round() as usize
        );
        // Deterministic.
        let (train2, _) = c.split_heldout(0.25);
        assert_eq!(train, train2);
    }

    #[test]
    fn features_carry_class_signal() {
        // Mean feature distance between frames of different states
        // should exceed distance within a state — the task is
        // learnable.
        let c = Corpus::generate(CorpusSpec::tiny(13));
        let shard = c.shard(&(0..c.utterances().len()).collect::<Vec<_>>());
        let s = c.spec().states;
        let d = c.spec().feature_dim;
        let mut sums = vec![vec![0.0f64; d]; s];
        let mut counts = vec![0usize; s];
        for (t, &lab) in shard.labels.iter().enumerate() {
            counts[lab as usize] += 1;
            for j in 0..d {
                sums[lab as usize][j] += shard.x[(t, j)] as f64;
            }
        }
        let means: Vec<Vec<f64>> = sums
            .iter()
            .zip(&counts)
            .map(|(sm, &n)| sm.iter().map(|v| v / n.max(1) as f64).collect())
            .collect();
        // Average pairwise distance between state means.
        let mut dist = 0.0;
        let mut pairs = 0;
        for a in 0..s {
            for b in a + 1..s {
                if counts[a] == 0 || counts[b] == 0 {
                    continue;
                }
                let d2: f64 = means[a]
                    .iter()
                    .zip(&means[b])
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum();
                dist += d2.sqrt();
                pairs += 1;
            }
        }
        assert!(pairs > 0);
        assert!(
            dist / pairs as f64 > 0.5,
            "state means are not separated: {}",
            dist / pairs as f64
        );
    }

    #[test]
    #[should_panic(expected = "at least 2 states")]
    fn spec_validation() {
        let mut spec = CorpusSpec::tiny(0);
        spec.states = 1;
        Corpus::generate(spec);
    }
}
