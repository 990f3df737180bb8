//! Sequence-discriminative training criterion (lattice-free MMI).
//!
//! The paper's second objective (Table I, "Sequence") is a
//! discriminative criterion over whole utterances, trained with
//! distributed Hessian-free optimization [Kingsbury et al. 2012]. The
//! production system used word lattices from an LVCSR decoder; those
//! are proprietary, so — per the substitution rule in DESIGN.md — we
//! implement the *lattice-free* form of maximum mutual information:
//! the denominator is a full bigram graph over HMM states, evaluated
//! exactly with the forward–backward algorithm. This preserves what
//! the evaluation depends on: a genuine utterance-level
//! discriminative objective whose pass costs roughly twice a
//! cross-entropy pass (numerator + denominator accumulation) and
//! whose curvature uses denominator occupancies.
//!
//! For an utterance with frames `t = 0..T`, alignment `a_t`, acoustic
//! scores `lp_t(s) = log softmax(logits_t)(s)`, and a state bigram
//! `(π, A)`:
//!
//! ```text
//! log num = log π(a_0) + Σ_t lp_t(a_t) + Σ_{t>0} log A(a_{t-1}, a_t)
//! log den = logsumexp over all state paths of the same form
//! L = log den − log num ≥ 0
//! ∂L/∂logit_t(s) = γ_t(s) − 1[s = a_t]
//! ```
//!
//! where `γ` are the denominator occupancies from forward–backward.
//! `γ` also plugs into [`crate::gauss_newton::Curvature::Fisher`] as
//! the model distribution for Gauss–Newton products.
//!
//! # Algorithm
//!
//! The denominator is the scaled (Rabiner) forward–backward in
//! probability space. With `m_t = max_s logits_t(s)`:
//!
//! ```text
//! e_t(s) = exp(max(logits_t(s) − m_t, LN_EMISSION_FLOOR))   emissions, max 1
//! c_t    = Σ_s (α̂_{t−1} A)(s) e_t(s)                       (α̂_{−1} A := π)
//! α̂_t    = (α̂_{t−1} A ∘ e_t) / c_t
//! β̂_t    = A (e_{t+1} ∘ β̂_{t+1}) / c_{t+1},   β̂_{T−1} = 1
//! γ_t    = α̂_t ∘ β̂_t
//! L      = Σ_t ln c_t − [log π(a_0) + Σ_{t>0} log A(a_{t−1}, a_t) + Σ_t (logits_t(a_t) − m_t)]
//! ```
//!
//! `e_t` is `softmax(logits_t)` times its partition function `Z_t`;
//! every path carries the same `Π_t Z_t`, so it cancels between
//! numerator and denominator and is never computed. The numerator's
//! transition terms come from the log tables of [`DenominatorGraph`].
//!
//! **Cost per frame:** `S` calls of `exp` (one vectorized slice kernel)
//! and one of `ln` (`ln c_t`), both [`pdnn_tensor::vmath`]'s portable
//! functions, not libm;
//! `S²` multiply-adds for `α̂_{t−1} A` and `S²` for `A (e ∘ β̂)` — the
//! `4S²` FLOPs of [`crate::flops::mmi_extra_flops_per_frame`] — plus its
//! `O(S)` element-wise products. No transcendental is evaluated per arc.
//!
//! **No subnormal is ever computed.** Four constants bound every
//! operand away from the subnormal range:
//!
//! * `LN_EMISSION_FLOOR = −69`: `exp` never sees an argument below it,
//!   so `e_t(s) ∈ [ε, 1]` with `ε = e⁻⁶⁹ ≈ 1.0e-30`.
//! * `ARC_FLOOR = 1e-30`: prior and transition probabilities below it
//!   are stored as exact zeros (forbidden arcs) for the denominator, so
//!   a nonzero arc is at least `ARC_FLOOR`.
//! * `PRUNE = 1e-200`: after each forward step, states holding less
//!   than `PRUNE` of the frame's mass are set to 0 and the rest
//!   renormalized. The recursion is exact on the lattice of paths that
//!   never fall 460 nats behind the frame's total — the textbook
//!   scaled recursion makes the same cut at the subnormal boundary
//!   (708 nats), only slowly and with lost precision on the way. A
//!   path that far behind matters only if later acoustics favour it
//!   by more than that over every path that stayed within reach; the
//!   oracle test below meets this in about one draw in 10⁴ of
//!   adversarial 60-nat logits on sparse two- and three-state graphs.
//! * `FLUSH = 1e-30`: an occupancy `γ_t(s) < FLUSH` is written as 0 and
//!   its `β̂_t(s)` with it. `γ` conditions on the whole utterance, so
//!   this drops at most `S·FLUSH` of posterior mass per frame.
//!
//! *`c_t ≥ ε/2` for finite logits.* The survivors are renormalized, so
//! `Σ_s α̂_{t−1}(s) = 1`; rows of `A` (and `π`) sum to `1 ± 10⁻⁶`, so
//! `Σ_s (α̂_{t−1} A)(s) ≥ 1 − 10⁻⁶`, and `e_t ≥ ε` gives a pre-prune sum
//! of at least `ε (1 − 10⁻⁶)`, of which pruning removes at most a share
//! `S·PRUNE`. Hence every nonzero `α̂ ∈ [PRUNE, 1]`; every nonzero
//! `β̂ ∈ [FLUSH, 1/PRUNE]` (`Σ_s α̂β̂ ≤ 1` bounds it above, the `γ` flush
//! below); and every product the recursions form is at least
//! `PRUNE · ARC_FLOOR · ε · FLUSH ≈ 1e-290` and at most
//! `S/(PRUNE · ε/2) ≈ S·2e230` — inside the normal `f64` range on both
//! sides.
//!
//! *Outputs.* `FLUSH > f32::MIN_POSITIVE`, so every entry of `γ` and of
//! `dlogits = γ − 1[s = a_t]` is exactly zero or a normal number, in
//! `f32` as in `f64` — peaked posteriors cannot slow the Gauss–Newton
//! products that consume them, on any ISA and without FTZ/DAZ.

use pdnn_tensor::{vmath, Matrix, Scalar, Workspace};
use pdnn_util::float::exactly_zero;

/// Log of the emission floor `ε`: `e_t(s) = exp(max(x, LN_EMISSION_FLOOR))`.
const LN_EMISSION_FLOOR: f64 = -69.0;
/// Prior and transition probabilities below this are forbidden arcs.
const ARC_FLOOR: f64 = 1e-30;
/// Share of a frame's forward mass below which a state is pruned.
const PRUNE: f64 = 1e-200;
/// Occupancies below this are written as exact zeros.
const FLUSH: f64 = 1e-30;

/// The denominator graph: a bigram (first-order Markov) model over
/// HMM states.
#[derive(Clone, Debug)]
pub struct DenominatorGraph {
    states: usize,
    /// Initial probabilities, length `states`; forbidden entries 0.
    prior: Vec<f64>,
    /// Transition probabilities, `states x states` row-major
    /// (`trans[i * states + j] = P(j | i)`); forbidden arcs 0.
    trans: Vec<f64>,
    /// The transpose of `trans` (`trans_t[j * states + i] = P(j | i)`),
    /// so the backward pass is a sum of contiguous rows too.
    trans_t: Vec<f64>,
    /// Initial log-probabilities, length `states`.
    log_prior: Vec<f64>,
    /// Transition log-probabilities, `states x states` row-major
    /// (`log_trans[i * states + j] = log P(j | i)`).
    log_trans: Vec<f64>,
}

impl DenominatorGraph {
    /// Build from probability-space prior and transition matrix.
    ///
    /// Entries below `1e-30` are forbidden arcs: exact zeros for the
    /// forward–backward, `ln 1e-300` in the log tables of the numerator
    /// score and Viterbi decoding.
    ///
    /// # Panics
    /// If dimensions are inconsistent, an entry is negative or not
    /// finite, or rows are not (approximately) normalized.
    pub fn new(prior: &[f64], trans: &[f64]) -> Self {
        let states = prior.len();
        assert!(states > 0, "DenominatorGraph needs at least one state");
        assert_eq!(
            trans.len(),
            states * states,
            "transition matrix must be {states}x{states}"
        );
        let probability = |p: &f64| p.is_finite() && *p >= 0.0;
        assert!(
            prior.iter().all(probability),
            "a prior entry is not a finite non-negative probability"
        );
        assert!(
            trans.iter().all(probability),
            "a transition entry is not a finite non-negative probability"
        );
        let psum: f64 = prior.iter().sum();
        assert!((psum - 1.0).abs() < 1e-6, "prior sums to {psum}");
        for i in 0..states {
            let rsum: f64 = trans[i * states..(i + 1) * states].iter().sum();
            assert!(
                (rsum - 1.0).abs() < 1e-6,
                "transition row {i} sums to {rsum}"
            );
        }
        let arcs = |ps: &[f64]| -> Vec<f64> {
            ps.iter()
                .map(|&p| if p < ARC_FLOOR { 0.0 } else { p })
                .collect()
        };
        let eps = 1e-300f64; // avoid log(0); forbidden arcs get ~ -690
        let logs =
            |ps: &[f64]| -> Vec<f64> { ps.iter().map(|&p| vmath::ln_f64(p + eps)).collect() };
        let trans_t = (0..states * states)
            .map(|k| trans[(k % states) * states + k / states])
            .collect::<Vec<_>>();
        DenominatorGraph {
            states,
            prior: arcs(prior),
            trans: arcs(trans),
            trans_t: arcs(&trans_t),
            log_prior: logs(prior),
            log_trans: logs(trans),
        }
    }

    /// Number of states.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Initial log-probability of state `j`.
    #[inline]
    pub(crate) fn log_prior(&self, j: usize) -> f64 {
        self.log_prior[j]
    }

    /// Transition log-probability `log P(j | i)`.
    #[inline]
    pub(crate) fn log_transition(&self, i: usize, j: usize) -> f64 {
        self.log_trans[i * self.states + j]
    }
}

/// Result of evaluating the MMI criterion on one utterance (or a
/// batch of concatenated utterances).
#[derive(Clone, Debug)]
pub struct SequenceLossOutput<T: Scalar = f32> {
    /// Summed loss `Σ_utt (log den − log num)`; non-negative.
    pub loss: f64,
    /// Gradient with respect to the logits, `frames x states`.
    pub dlogits: Matrix<T>,
    /// Denominator occupancies `γ`, `frames x states` — the model
    /// distribution for Gauss–Newton curvature.
    pub den_posteriors: Matrix<T>,
}

/// Evaluate MMI on a single utterance: [`mmi_batch`] over one
/// utterance spanning all rows of `logits`.
pub fn mmi_utterance<T: Scalar>(
    logits: &Matrix<T>,
    alignment: &[u32],
    graph: &DenominatorGraph,
) -> SequenceLossOutput<T> {
    mmi_batch(logits, alignment, &[logits.rows()], graph)
}

/// Evaluate MMI over several utterances stacked in one logits matrix.
///
/// `utt_lens` partitions the rows of `logits`; `alignment` is the
/// concatenated per-frame state sequence. See the module docs for the
/// recursion, its cost and its flush rules.
pub fn mmi_batch<T: Scalar>(
    logits: &Matrix<T>,
    alignment: &[u32],
    utt_lens: &[usize],
    graph: &DenominatorGraph,
) -> SequenceLossOutput<T> {
    let (mut ws, mut tables) = (Workspace::new(), Workspace::new());
    mmi_batch_ws(logits, alignment, utt_lens, graph, &mut ws, &mut tables)
}

/// [`mmi_batch`] drawing its outputs from `ws` and its forward–backward
/// tables from `tables` (bitwise the same result). The tables go back
/// to `tables` before it returns; give the output matrices back to
/// `ws` when done with them.
pub fn mmi_batch_ws<T: Scalar>(
    logits: &Matrix<T>,
    alignment: &[u32],
    utt_lens: &[usize],
    graph: &DenominatorGraph,
    ws: &mut Workspace<T>,
    tables: &mut Workspace<f64>,
) -> SequenceLossOutput<T> {
    let s = graph.states();
    let total: usize = utt_lens.iter().sum();
    assert_eq!(total, logits.rows(), "utterance lengths do not cover batch");
    assert_eq!(alignment.len(), total, "alignment length mismatch");
    assert_eq!(logits.cols(), s, "logits width != graph states");
    assert!(
        alignment.iter().all(|&a| (a as usize) < s),
        "alignment state out of range"
    );
    let longest = utt_lens.iter().copied().max().unwrap_or(0);
    let mut fb = Scratch::take(longest, s, tables);
    // Every row of both is written below: the utterances cover the batch.
    let mut dlogits = ws.take_matrix_scratch(total, s);
    let mut gamma = ws.take_matrix_scratch(total, s);
    let mut loss = 0.0f64;
    let mut start = 0usize;
    for &len in utt_lens {
        assert!(len > 0, "zero-length utterance");
        let rows = start * s..(start + len) * s;
        loss += fb.utterance(
            &logits.as_slice()[rows.clone()],
            &alignment[start..start + len],
            graph,
            &mut gamma.as_mut_slice()[rows.clone()],
            &mut dlogits.as_mut_slice()[rows],
        );
        start += len;
    }
    fb.give_back(tables);
    SequenceLossOutput {
        loss,
        dlogits,
        den_posteriors: gamma,
    }
}

/// Forward–backward scratch, sized once per batch for its longest
/// utterance.
struct Scratch {
    states: usize,
    /// Emissions `e_t`, `frames x states`.
    emit: Vec<f64>,
    /// Scaled forward variables `α̂_t`, `frames x states`.
    alpha: Vec<f64>,
    /// Forward normalizers `c_t`.
    scale: Vec<f64>,
    /// `β̂_{t+1}`, overwritten by `β̂_t`.
    beta: Vec<f64>,
    /// `e_{t+1} ∘ β̂_{t+1} / c_{t+1}`.
    weighted: Vec<f64>,
}

impl Scratch {
    /// Tables for utterances of up to `frames` frames, from `ws`. Every
    /// entry is written before it is read, so their contents do not
    /// matter.
    fn take(frames: usize, states: usize, ws: &mut Workspace<f64>) -> Self {
        Scratch {
            states,
            emit: ws.take_vec_scratch(frames * states),
            alpha: ws.take_vec_scratch(frames * states),
            scale: ws.take_vec_scratch(frames),
            beta: ws.take_vec_scratch(states),
            weighted: ws.take_vec_scratch(states),
        }
    }

    fn give_back(self, ws: &mut Workspace<f64>) {
        for table in [self.emit, self.alpha, self.scale, self.beta, self.weighted] {
            ws.give_vec(table);
        }
    }

    /// Loss of one utterance; writes its `γ` and `dlogits` rows.
    fn utterance<T: Scalar>(
        &mut self,
        logits: &[T],
        align: &[u32],
        g: &DenominatorGraph,
        gamma: &mut [T],
        dlogits: &mut [T],
    ) -> f64 {
        let s = self.states;
        let frames = align.len();

        // Emissions, and the numerator score in the same (un-normalized)
        // emission scale.
        let mut log_num = g.log_prior(align[0] as usize);
        for t in 0..frames {
            let row = &logits[t * s..(t + 1) * s];
            let max = row
                .iter()
                .fold(f64::NEG_INFINITY, |m, &v| m.max(v.to_f64()));
            let emit = &mut self.emit[t * s..(t + 1) * s];
            for (e, &v) in emit.iter_mut().zip(row) {
                *e = (v.to_f64() - max).max(LN_EMISSION_FLOOR);
            }
            vmath::exp_slice(emit);
            let a = align[t] as usize;
            log_num += row[a].to_f64() - max;
            if t > 0 {
                log_num += g.log_transition(align[t - 1] as usize, a);
            }
        }

        // Forward: α̂_t = prune(α̂_{t−1} A ∘ e_t) / c_t.
        let mut log_den = 0.0f64;
        for t in 0..frames {
            let (done, rest) = self.alpha.split_at_mut(t * s);
            let alpha = &mut rest[..s];
            if t == 0 {
                alpha.copy_from_slice(&g.prior);
            } else {
                alpha.fill(0.0);
                for (i, &a) in done[(t - 1) * s..].iter().enumerate() {
                    if !exactly_zero(a) {
                        for (q, &p) in alpha.iter_mut().zip(&g.trans[i * s..(i + 1) * s]) {
                            *q += a * p;
                        }
                    }
                }
            }
            let mut mass = 0.0f64;
            for (q, &e) in alpha.iter_mut().zip(&self.emit[t * s..(t + 1) * s]) {
                *q *= e;
                mass += *q;
            }
            let cut = PRUNE * mass;
            let mut c = 0.0f64;
            for q in alpha.iter_mut() {
                if *q < cut {
                    *q = 0.0;
                } else {
                    c += *q;
                }
            }
            let inv = 1.0 / c;
            for q in alpha.iter_mut() {
                *q *= inv;
            }
            self.scale[t] = c;
            log_den += vmath::ln_f64(c);
        }

        // Backward: β̂_t = A (e_{t+1} ∘ β̂_{t+1}) / c_{t+1}; γ_t = α̂_t ∘ β̂_t.
        self.beta.fill(1.0);
        for t in (0..frames).rev() {
            if t + 1 < frames {
                let inv = 1.0 / self.scale[t + 1];
                let emit = &self.emit[(t + 1) * s..(t + 2) * s];
                for ((w, &e), &b) in self.weighted.iter_mut().zip(emit).zip(&self.beta) {
                    *w = e * b * inv;
                }
                self.beta.fill(0.0);
                for (j, &w) in self.weighted.iter().enumerate() {
                    if !exactly_zero(w) {
                        for (b, &p) in self.beta.iter_mut().zip(&g.trans_t[j * s..(j + 1) * s]) {
                            *b += w * p;
                        }
                    }
                }
            }
            let alpha = &self.alpha[t * s..(t + 1) * s];
            let rows = t * s..(t + 1) * s;
            let (grow, drow) = (&mut gamma[rows.clone()], &mut dlogits[rows]);
            for (i, b) in self.beta.iter_mut().enumerate() {
                let mut occ = alpha[i] * *b;
                if occ < FLUSH {
                    occ = 0.0;
                    *b = 0.0;
                }
                grow[i] = T::from_f64(occ);
                drow[i] = T::from_f64(occ);
            }
            drow[align[t] as usize] -= T::ONE;
        }

        log_den - log_num
    }
}

#[cfg(test)]
impl DenominatorGraph {
    /// Fully-connected uniform graph over `states` states.
    fn uniform(states: usize) -> Self {
        let p = 1.0 / states as f64;
        DenominatorGraph::new(&vec![p; states], &vec![p; states * states])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdnn_util::Prng;

    /// Log-sum-exp of a slice (stable; `-inf` for empty).
    fn lse(xs: &[f64]) -> f64 {
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if !max.is_finite() {
            return max;
        }
        max + xs.iter().map(|&x| (x - max).exp()).sum::<f64>().ln()
    }

    /// The log-space forward–backward: the oracle the scaled recursion
    /// is held to. The numerator reads the graph's log tables; the
    /// denominator runs on the exact graph of the probability tables
    /// (forbidden arcs `-inf`), which is what the scaled recursion
    /// evaluates — the log tables' `1e-300` would let adversarial
    /// logits route denominator mass through forbidden arcs.
    fn log_space_mmi(
        logits: &Matrix<f64>,
        alignment: &[u32],
        graph: &DenominatorGraph,
    ) -> SequenceLossOutput<f64> {
        let frames = logits.rows();
        let s = graph.states();
        let lt = |i: usize, j: usize| graph.trans[i * s + j].ln();
        let log_prior = |j: usize| graph.prior[j].ln();

        // Acoustic log-probs lp[t][s] = log softmax(logits[t]).
        let mut lp = vec![0.0f64; frames * s];
        for t in 0..frames {
            let lsev = lse(logits.row(t));
            for j in 0..s {
                lp[t * s + j] = logits[(t, j)] - lsev;
            }
        }

        // Numerator score along the forced path.
        let mut log_num = graph.log_prior(alignment[0] as usize) + lp[alignment[0] as usize];
        for t in 1..frames {
            let (i, j) = (alignment[t - 1] as usize, alignment[t] as usize);
            log_num += graph.log_transition(i, j) + lp[t * s + j];
        }

        // Denominator forward pass.
        let mut alpha = vec![f64::NEG_INFINITY; frames * s];
        for j in 0..s {
            alpha[j] = log_prior(j) + lp[j];
        }
        let mut scratch = vec![0.0f64; s];
        for t in 1..frames {
            for j in 0..s {
                for (i, slot) in scratch.iter_mut().enumerate() {
                    *slot = alpha[(t - 1) * s + i] + lt(i, j);
                }
                alpha[t * s + j] = lse(&scratch) + lp[t * s + j];
            }
        }
        let log_den = lse(&alpha[(frames - 1) * s..frames * s]);

        // Backward pass.
        let mut beta = vec![0.0f64; frames * s];
        for t in (0..frames - 1).rev() {
            for i in 0..s {
                for (j, slot) in scratch.iter_mut().enumerate() {
                    *slot = lt(i, j) + lp[(t + 1) * s + j] + beta[(t + 1) * s + j];
                }
                beta[t * s + i] = lse(&scratch);
            }
        }

        // Occupancies and gradient.
        let mut gamma = Matrix::zeros(frames, s);
        let mut dlogits = Matrix::zeros(frames, s);
        for t in 0..frames {
            for j in 0..s {
                let g = (alpha[t * s + j] + beta[t * s + j] - log_den).exp();
                gamma[(t, j)] = g;
                dlogits[(t, j)] = g;
            }
            dlogits[(t, alignment[t] as usize)] -= 1.0;
        }

        SequenceLossOutput {
            loss: log_den - log_num,
            dlogits,
            den_posteriors: gamma,
        }
    }

    fn random_logits(frames: usize, states: usize, seed: u64) -> Matrix<f64> {
        let mut rng = Prng::new(seed);
        Matrix::random_normal(frames, states, 1.0, &mut rng)
    }

    fn chain_graph(states: usize, self_loop: f64) -> DenominatorGraph {
        // Left-to-right-ish: strong self-loop, rest uniform.
        let other = (1.0 - self_loop) / (states - 1) as f64;
        let mut trans = vec![other; states * states];
        for i in 0..states {
            trans[i * states + i] = self_loop;
        }
        DenominatorGraph::new(&vec![1.0 / states as f64; states], &trans)
    }

    /// The corpus generator's chain: self-loop, +1 and +2 (mod S) arcs,
    /// every other arc an exact zero.
    fn banded_graph(states: usize, self_loop: f64, prior: &[f64]) -> DenominatorGraph {
        let mut trans = vec![0.0; states * states];
        for i in 0..states {
            trans[i * states + i] = self_loop;
            trans[i * states + (i + 1) % states] += (1.0 - self_loop) * 0.7;
            trans[i * states + (i + 2) % states] += (1.0 - self_loop) * 0.3;
        }
        DenominatorGraph::new(prior, &trans)
    }

    /// Rows of random weights with about a third of the arcs zeroed
    /// (never a whole row).
    fn sparse_random_graph(states: usize, rng: &mut Prng) -> DenominatorGraph {
        let row = |rng: &mut Prng| -> Vec<f64> {
            let keep = rng.index(states);
            let mut w: Vec<f64> = (0..states)
                .map(|j| {
                    if j != keep && rng.uniform() < 0.33 {
                        0.0
                    } else {
                        0.05 + rng.uniform()
                    }
                })
                .collect();
            let sum: f64 = w.iter().sum();
            w.iter_mut().for_each(|p| *p /= sum);
            w
        };
        let prior = row(rng);
        let trans: Vec<f64> = (0..states).flat_map(|_| row(rng)).collect();
        DenominatorGraph::new(&prior, &trans)
    }

    /// A state path drawn from the graph (legal by construction).
    fn sample_path(graph: &DenominatorGraph, frames: usize, rng: &mut Prng) -> Vec<u32> {
        let s = graph.states();
        let draw = |probs: &[f64], rng: &mut Prng| -> u32 {
            let u = rng.uniform();
            let mut acc = 0.0;
            let last = probs.iter().rposition(|&p| p > 0.0).unwrap();
            probs
                .iter()
                .position(|&p| {
                    acc += p;
                    p > 0.0 && u < acc
                })
                .unwrap_or(last) as u32
        };
        let mut path = vec![draw(&graph.prior, rng)];
        while path.len() < frames {
            let i = *path.last().unwrap() as usize;
            path.push(draw(&graph.trans[i * s..(i + 1) * s], rng));
        }
        path
    }

    /// Logits with up to `spread` nats between classes, optionally one
    /// peaked class per frame (a trained net's posteriors).
    fn spread_logits(frames: usize, states: usize, spread: f64, rng: &mut Prng) -> Matrix<f64> {
        let peaked = rng.uniform() < 0.5;
        Matrix::from_fn(frames, states, |_, _| {
            if peaked {
                if rng.uniform() < 1.0 / states as f64 {
                    spread
                } else {
                    rng.uniform() * 2.0
                }
            } else {
                rng.uniform() * spread
            }
        })
    }

    /// Random banded, sparse and single-state graphs; 1–300 frames
    /// (unscaled α underflows long before 300 frames of 60-nat logits).
    /// The draws are fixed. Of 3·10⁴ draws of this generator, two (on
    /// sparse graphs of two and three states, 60-nat logits, 300 frames)
    /// had a path fall 460 nats behind and then win — the `PRUNE` cut
    /// the module docs describe.
    #[test]
    fn scaled_recursion_matches_log_space_oracle() {
        let mut rng = Prng::new(2025);
        for case in 0..60 {
            let states = 1 + rng.index(7);
            let graph = match (states, case % 3) {
                (1, _) => DenominatorGraph::uniform(1),
                (_, 0) => {
                    let mut prior = vec![0.0; states];
                    prior[rng.index(states)] = 1.0;
                    banded_graph(states, 0.1 + 0.8 * rng.uniform(), &prior)
                }
                (_, 1) => banded_graph(states, 0.7, &vec![1.0 / states as f64; states]),
                _ => sparse_random_graph(states, &mut rng),
            };
            let frames = [1, 2, 7, 40, 300][case % 5];
            let spread = [1.0, 10.0, 30.0, 60.0][rng.index(4)];
            let logits = spread_logits(frames, states, spread, &mut rng);
            let align: Vec<u32> = if case % 2 == 0 {
                sample_path(&graph, frames, &mut rng)
            } else {
                (0..frames).map(|_| rng.index(states) as u32).collect()
            };

            let want = log_space_mmi(&logits, &align, &graph);
            let got = mmi_batch(&logits, &align, &[frames], &graph);
            let ctx = format!("case {case}: S={states} T={frames} spread={spread}");
            let err = (got.loss - want.loss).abs();
            assert!(
                err <= 1e-12 * want.loss.abs().max(1.0),
                "{ctx}: loss {} vs oracle {}",
                got.loss,
                want.loss
            );
            let gerr = got.den_posteriors.max_abs_diff(&want.den_posteriors);
            assert!(gerr < 1e-6, "{ctx}: γ off by {gerr}");
            let derr = got.dlogits.max_abs_diff(&want.dlogits);
            assert!(derr < 1e-6, "{ctx}: dlogits off by {derr}");
            for t in 0..frames {
                let sum: f64 = got.den_posteriors.row(t).iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "{ctx}: frame {t} γ sums to {sum}");
            }
            assert!(got
                .den_posteriors
                .as_slice()
                .iter()
                .chain(got.dlogits.as_slice())
                .all(|&v| v == 0.0 || v.is_normal()));
            let narrow32: SequenceLossOutput<f32> = mmi_batch(
                &Matrix::from_fn(frames, states, |r, c| logits[(r, c)] as f32),
                &align,
                &[frames],
                &graph,
            );
            assert!(narrow32
                .den_posteriors
                .as_slice()
                .iter()
                .chain(narrow32.dlogits.as_slice())
                .all(|&v| v == 0.0 || v.is_normal()));
        }
    }

    #[test]
    fn extreme_logits_stay_finite_and_normal() {
        // Spreads far past the emission floor and a forbidden-arc-heavy
        // chain: the floor and flushes keep every output finite and
        // zero-or-normal in f32.
        let graph = banded_graph(8, 0.9, &[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let mut rng = Prng::new(77);
        for spread in [100.0f64, 1000.0, 30000.0] {
            let logits: Matrix<f32> =
                Matrix::from_fn(300, 8, |_, _| ((rng.uniform() - 0.5) * spread) as f32);
            let align: Vec<u32> = (0..300).map(|t| ((t / 40) % 8) as u32).collect();
            let out = mmi_batch(&logits, &align, &[100, 200], &graph);
            assert!(out.loss.is_finite() && out.loss >= 0.0, "loss {}", out.loss);
            assert!(out
                .den_posteriors
                .as_slice()
                .iter()
                .chain(out.dlogits.as_slice())
                .all(|&v| v.is_finite() && (v == 0.0 || v.is_normal())));
        }
    }

    #[test]
    fn floors_keep_every_product_normal() {
        // A surviving γ is a normal f32, and the smallest product the
        // recursions form (module docs) is a normal f64.
        assert!(FLUSH > f32::MIN_POSITIVE as f64);
        let eps = LN_EMISSION_FLOOR.exp();
        assert!((PRUNE * ARC_FLOOR * eps * FLUSH * 0.5).is_normal());
        assert!(2.0 / (PRUNE * eps) < 1e240);
    }

    #[test]
    fn loss_is_nonnegative() {
        let g = chain_graph(5, 0.6);
        for seed in 0..10 {
            let logits = random_logits(12, 5, seed);
            let mut rng = Prng::new(seed + 100);
            let align: Vec<u32> = (0..12).map(|_| rng.below(5) as u32).collect();
            let out = mmi_utterance(&logits, &align, &g);
            assert!(out.loss >= -1e-9, "loss={} seed={seed}", out.loss);
        }
    }

    #[test]
    fn single_state_graph_has_zero_loss() {
        let g = DenominatorGraph::uniform(1);
        let logits: Matrix<f64> = Matrix::zeros(6, 1);
        let out = mmi_utterance(&logits, &[0; 6], &g);
        assert!(out.loss.abs() < 1e-9);
        assert!(out.dlogits.as_slice().iter().all(|&v| v.abs() < 1e-9));
    }

    #[test]
    fn single_frame_uniform_graph_equals_cross_entropy() {
        // With T=1 and uniform prior, log den = log(1/S) + lse(lp) =
        // log(1/S) (lp is a log-softmax), log num = log(1/S) + lp[a],
        // so L = -lp[a] — exactly the CE of that frame.
        let g = DenominatorGraph::uniform(4);
        let logits = random_logits(1, 4, 3);
        let out = mmi_utterance(&logits, &[2], &g);
        let logits32 = logits.clone();
        let (ce, _) = crate::loss::cross_entropy_loss_only(&logits32, &[2]);
        assert!((out.loss - ce).abs() < 1e-9, "mmi={} ce={ce}", out.loss);
    }

    #[test]
    fn occupancies_are_distributions() {
        let g = chain_graph(6, 0.5);
        let logits = random_logits(9, 6, 7);
        let align: Vec<u32> = vec![0, 1, 1, 2, 3, 3, 4, 5, 5];
        let out = mmi_utterance(&logits, &align, &g);
        for t in 0..9 {
            let s: f64 = out.den_posteriors.row(t).iter().sum();
            assert!((s - 1.0).abs() < 1e-8, "frame {t}: γ sums to {s}");
            assert!(out.den_posteriors.row(t).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let g = chain_graph(4, 0.7);
        let logits = random_logits(8, 4, 11);
        let align = vec![0u32, 0, 1, 1, 2, 2, 3, 3];
        let out = mmi_utterance(&logits, &align, &g);
        for t in 0..8 {
            let s: f64 = out.dlogits.row(t).iter().sum();
            assert!(s.abs() < 1e-8, "frame {t}: grad sums to {s}");
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let g = chain_graph(3, 0.5);
        let base = random_logits(4, 3, 13);
        let align = vec![0u32, 1, 2, 1];
        let out = mmi_utterance(&base, &align, &g);
        let h = 1e-6;
        for t in 0..4 {
            for j in 0..3 {
                let mut plus = base.clone();
                plus[(t, j)] += h;
                let mut minus = base.clone();
                minus[(t, j)] -= h;
                let fd = (mmi_utterance(&plus, &align, &g).loss
                    - mmi_utterance(&minus, &align, &g).loss)
                    / (2.0 * h);
                let an = out.dlogits[(t, j)];
                assert!((fd - an).abs() < 1e-5, "({t},{j}): fd={fd} analytic={an}");
            }
        }
    }

    #[test]
    fn perfect_acoustics_drive_loss_down() {
        // Logits strongly favoring the alignment should yield a lower
        // loss than uniform logits.
        let g = chain_graph(4, 0.6);
        let align = vec![0u32, 1, 2, 3, 3, 2];
        let uniform: Matrix<f64> = Matrix::zeros(6, 4);
        let mut strong: Matrix<f64> = Matrix::zeros(6, 4);
        for (t, &a) in align.iter().enumerate() {
            strong[(t, a as usize)] = 10.0;
        }
        let lu = mmi_utterance(&uniform, &align, &g).loss;
        let ls = mmi_utterance(&strong, &align, &g).loss;
        assert!(ls < lu, "strong={ls} uniform={lu}");
    }

    #[test]
    fn batch_sums_utterances() {
        let g = chain_graph(3, 0.5);
        let logits = random_logits(7, 3, 17);
        let align = vec![0u32, 1, 2, 0, 1, 1, 2];
        let lens = [3usize, 4];
        let batch = mmi_batch(&logits, &align, &lens, &g);
        let u1 = mmi_utterance(&logits.rows_copy(0, 3), &align[..3], &g);
        let u2 = mmi_utterance(&logits.rows_copy(3, 7), &align[3..], &g);
        assert!((batch.loss - (u1.loss + u2.loss)).abs() < 1e-10);
        assert_eq!(batch.dlogits.row(0), u1.dlogits.row(0));
        assert_eq!(batch.dlogits.row(5), u2.dlogits.row(2));
    }

    /// The arena variant matches the allocating one bit for bit, also
    /// on recycled buffers full of stale values.
    #[test]
    fn arena_batch_is_bitwise_the_allocating_batch() {
        let g = chain_graph(4, 0.6);
        let logits: Matrix<f32> = Matrix::from_fn(9, 4, |r, c| ((r * 5 + c * 3) % 7) as f32 - 3.0);
        let align = vec![0u32, 1, 2, 3, 3, 0, 1, 1, 2];
        let lens = [4usize, 5];
        let want = mmi_batch(&logits, &align, &lens, &g);
        let (mut ws, mut tables) = (Workspace::new(), Workspace::new());
        ws.give_vec(vec![f32::NAN; 64]);
        tables.give_vec(vec![f64::NAN; 64]);
        for _ in 0..2 {
            let got = mmi_batch_ws(&logits, &align, &lens, &g, &mut ws, &mut tables);
            assert_eq!(got.loss.to_bits(), want.loss.to_bits());
            let bits =
                |m: &Matrix<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.dlogits), bits(&want.dlogits));
            assert_eq!(bits(&got.den_posteriors), bits(&want.den_posteriors));
            assert_eq!(tables.parked(), 5, "tables handed back");
            ws.give_matrix(got.dlogits);
            ws.give_matrix(got.den_posteriors);
        }
    }

    #[test]
    #[should_panic(expected = "do not cover batch")]
    fn batch_checks_partition() {
        let g = DenominatorGraph::uniform(2);
        let logits = random_logits(5, 2, 1);
        mmi_batch(&logits, &[0; 5], &[2, 2], &g);
    }

    #[test]
    #[should_panic(expected = "transition row")]
    fn graph_validates_rows() {
        DenominatorGraph::new(&[0.5, 0.5], &[0.9, 0.3, 0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "not a finite non-negative probability")]
    fn graph_rejects_negative_probabilities() {
        // The row sums to 1, but no path weight may be negative.
        DenominatorGraph::new(&[0.5, 0.5], &[1.5, -0.5, 0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "not a finite non-negative probability")]
    fn graph_rejects_non_finite_prior() {
        DenominatorGraph::new(&[f64::NAN, 1.0], &[0.5, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn forbidden_transitions_zero_out_paths() {
        // A strict left-to-right chain: state 1 unreachable as start,
        // transitions only forward. Alignment violating the chain
        // still evaluates (numerator just gets a huge penalty), and
        // the denominator only counts legal paths.
        let trans = vec![
            0.5, 0.5, // 0 -> {0, 1}
            0.0, 1.0, // 1 -> {1}
        ];
        let g = DenominatorGraph::new(&[1.0, 0.0], &trans);
        let logits: Matrix<f64> = Matrix::zeros(3, 2);
        let legal = mmi_utterance(&logits, &[0, 0, 1], &g);
        assert!(legal.loss.is_finite());
        // γ at t=0 must be entirely on state 0 (prior forbids 1).
        assert!((legal.den_posteriors[(0, 0)] - 1.0).abs() < 1e-9);
    }
}
