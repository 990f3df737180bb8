//! Viterbi decoding and sequence error metrics.
//!
//! The paper reports recognition quality as word-error-rate from an
//! LVCSR decoder; the synthetic task's analogue is the **state error
//! rate** of the maximum-a-posteriori state path through the same
//! bigram graph the MMI criterion uses. Decoding combines the DNN's
//! frame scores with the transition model, so it benefits from
//! temporal smoothing that per-frame argmax cannot exploit — the same
//! relationship WER has to frame accuracy in a real system.

use crate::loss::shifted_exp;
use crate::sequence::DenominatorGraph;
use pdnn_tensor::{Matrix, Scalar};

/// Most probable state path given frame logits and a transition
/// model: `argmax_path [ Σ_t log softmax(logits_t)(s_t) + log π(s_0)
/// + Σ log A(s_{t-1}, s_t) ]`.
///
/// Standard Viterbi in log space; ties resolve to the lower state
/// index (deterministic).
pub fn viterbi_decode<T: Scalar>(logits: &Matrix<T>, graph: &DenominatorGraph) -> Vec<u32> {
    let frames = logits.rows();
    let s = graph.states();
    assert_eq!(logits.cols(), s, "logits width != graph states");
    if frames == 0 {
        return Vec::new();
    }

    // Log-softmax of frame t, state j: one log-sum-exp per frame.
    let mut scratch = vec![T::ZERO; s];
    let mut frame_lse = |t: usize| shifted_exp(logits.row(t), &mut scratch).0;
    let lp = |t: usize, j: usize, lse: f64| logits[(t, j)].to_f64() - lse;

    let lse0 = frame_lse(0);
    let mut delta: Vec<f64> = (0..s)
        .map(|j| graph.log_prior(j) + lp(0, j, lse0))
        .collect();
    let mut backptr = vec![0u32; frames * s];
    let mut next = vec![0.0f64; s];
    for t in 1..frames {
        let lse = frame_lse(t);
        for j in 0..s {
            let mut best_i = 0usize;
            let mut best = f64::NEG_INFINITY;
            for (i, &d) in delta.iter().enumerate() {
                let score = d + graph.log_transition(i, j);
                if score > best {
                    best = score;
                    best_i = i;
                }
            }
            next[j] = best + lp(t, j, lse);
            backptr[t * s + j] = best_i as u32;
        }
        delta.copy_from_slice(&next);
    }

    // Backtrace.
    let mut state = delta
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let mut path = vec![0u32; frames];
    path[frames - 1] = state as u32;
    for t in (1..frames).rev() {
        state = backptr[t * s + state] as usize;
        path[t - 1] = state as u32;
    }
    path
}

/// Decode a batch of stacked utterances; `utt_lens` partitions the
/// rows of `logits`.
pub fn viterbi_decode_batch<T: Scalar>(
    logits: &Matrix<T>,
    utt_lens: &[usize],
    graph: &DenominatorGraph,
) -> Vec<u32> {
    let total: usize = utt_lens.iter().sum();
    assert_eq!(total, logits.rows(), "utterance lengths do not cover batch");
    let mut out = Vec::with_capacity(total);
    let mut start = 0usize;
    for &len in utt_lens {
        let sub = logits.rows_copy(start, start + len);
        out.extend(viterbi_decode(&sub, graph));
        start += len;
    }
    out
}

/// Fraction of frames whose decoded state differs from the reference
/// alignment — the synthetic analogue of word error rate.
pub fn state_error_rate(decoded: &[u32], reference: &[u32]) -> f64 {
    assert_eq!(decoded.len(), reference.len(), "length mismatch");
    if decoded.is_empty() {
        return 0.0;
    }
    let errors = decoded
        .iter()
        .zip(reference.iter())
        .filter(|(a, b)| a != b)
        .count();
    errors as f64 / decoded.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdnn_util::Prng;

    fn chain(states: usize, self_loop: f64) -> DenominatorGraph {
        let other = (1.0 - self_loop) / (states - 1) as f64;
        let mut trans = vec![other; states * states];
        for i in 0..states {
            trans[i * states + i] = self_loop;
        }
        DenominatorGraph::new(&vec![1.0 / states as f64; states], &trans)
    }

    /// The decoder before the per-frame log-sum-exp was hoisted: the
    /// same recursion with the log-softmax recomputed inside `lp(t, j)`,
    /// once per state (S² `exp` per frame).
    fn viterbi_closure_per_state(logits: &Matrix<f64>, graph: &DenominatorGraph) -> Vec<u32> {
        let frames = logits.rows();
        let s = graph.states();
        let lp = |t: usize, j: usize| -> f64 {
            let mut scratch = vec![0.0; s];
            logits[(t, j)] - shifted_exp(logits.row(t), &mut scratch).0
        };
        let mut delta: Vec<f64> = (0..s).map(|j| graph.log_prior(j) + lp(0, j)).collect();
        let mut backptr = vec![0u32; frames * s];
        let mut next = vec![0.0f64; s];
        for t in 1..frames {
            for j in 0..s {
                let mut best_i = 0usize;
                let mut best = f64::NEG_INFINITY;
                for (i, &d) in delta.iter().enumerate() {
                    let score = d + graph.log_transition(i, j);
                    if score > best {
                        best = score;
                        best_i = i;
                    }
                }
                next[j] = best + lp(t, j);
                backptr[t * s + j] = best_i as u32;
            }
            delta.copy_from_slice(&next);
        }
        let mut state = delta
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut path = vec![0u32; frames];
        path[frames - 1] = state as u32;
        for t in (1..frames).rev() {
            state = backptr[t * s + state] as usize;
            path[t - 1] = state as u32;
        }
        path
    }

    /// Self/+1/+2 chain (the corpus generator's) or rows of random
    /// weights with about a third of the arcs zeroed.
    fn random_graph(states: usize, banded: bool, rng: &mut Prng) -> DenominatorGraph {
        let mut trans = vec![0.0; states * states];
        for i in 0..states {
            let row = &mut trans[i * states..(i + 1) * states];
            if banded {
                let stay = 0.2 + 0.7 * rng.uniform();
                row[i] += stay;
                row[(i + 1) % states] += (1.0 - stay) * 0.7;
                row[(i + 2) % states] += (1.0 - stay) * 0.3;
            } else {
                let keep = rng.index(states);
                for (j, p) in row.iter_mut().enumerate() {
                    if j == keep || rng.uniform() >= 0.33 {
                        *p = 0.05 + rng.uniform();
                    }
                }
                let sum: f64 = row.iter().sum();
                row.iter_mut().for_each(|p| *p /= sum);
            }
        }
        DenominatorGraph::new(&vec![1.0 / states as f64; states], &trans)
    }

    #[test]
    fn hoisted_log_softmax_decodes_the_same_paths() {
        let mut rng = Prng::new(42);
        for case in 0..40 {
            let states = 2 + rng.index(9);
            let graph = random_graph(states, case % 2 == 0, &mut rng);
            let frames = 1 + rng.index(60);
            let spread = [1.0, 5.0, 30.0][case % 3];
            let logits: Matrix<f64> = Matrix::random_normal(frames, states, spread, &mut rng);
            assert_eq!(
                viterbi_decode(&logits, &graph),
                viterbi_closure_per_state(&logits, &graph),
                "case {case}: S={states} T={frames}"
            );
        }
    }

    #[test]
    fn strong_evidence_is_decoded_verbatim() {
        let g = chain(4, 0.5);
        let truth = [0u32, 1, 1, 2, 3];
        let mut logits: Matrix<f64> = Matrix::zeros(5, 4);
        for (t, &s) in truth.iter().enumerate() {
            logits[(t, s as usize)] = 20.0;
        }
        assert_eq!(viterbi_decode(&logits, &g), truth);
        assert_eq!(state_error_rate(&viterbi_decode(&logits, &g), &truth), 0.0);
    }

    #[test]
    fn transitions_smooth_out_single_frame_glitches() {
        // Truth is a run of state 0; one frame has (weak) evidence for
        // state 2. With a sticky chain, Viterbi keeps the run while
        // frame argmax flips.
        let g = chain(3, 0.95);
        let mut logits: Matrix<f64> = Matrix::zeros(7, 3);
        for t in 0..7 {
            logits[(t, 0)] = 2.0;
        }
        logits[(3, 2)] = 2.5; // glitch: argmax picks 2 here
        let argmax = logits.row_argmax();
        assert_eq!(argmax[3], 2);
        let path = viterbi_decode(&logits, &g);
        assert_eq!(path, vec![0; 7], "Viterbi should smooth the glitch");
    }

    #[test]
    fn decode_respects_forbidden_transitions() {
        // Strict left-to-right: 0 -> {0,1}, 1 -> {1}. Evidence asks
        // for 1 then 0, which is illegal; the decoder must not emit
        // that order.
        let trans = vec![0.5, 0.5, 0.0, 1.0];
        let g = DenominatorGraph::new(&[1.0, 0.0], &trans);
        let mut logits: Matrix<f64> = Matrix::zeros(2, 2);
        logits[(0, 1)] = 5.0;
        logits[(1, 0)] = 5.0;
        let path = viterbi_decode(&logits, &g);
        for w in path.windows(2) {
            assert!(w[0] <= w[1], "illegal transition in {path:?}");
        }
        assert_eq!(path[0], 0, "prior forbids starting in state 1");
    }

    #[test]
    fn batch_decode_matches_per_utterance() {
        let g = chain(3, 0.7);
        let mut rng = Prng::new(5);
        let logits: Matrix<f64> = Matrix::random_normal(10, 3, 1.0, &mut rng);
        let lens = [4usize, 6];
        let batch = viterbi_decode_batch(&logits, &lens, &g);
        let a = viterbi_decode(&logits.rows_copy(0, 4), &g);
        let b = viterbi_decode(&logits.rows_copy(4, 10), &g);
        assert_eq!(&batch[..4], a.as_slice());
        assert_eq!(&batch[4..], b.as_slice());
    }

    #[test]
    fn viterbi_never_loses_to_argmax_on_chain_data() {
        // On data generated by the same chain, decoding with the chain
        // must match or beat frame-wise argmax on average.
        let g = chain(4, 0.8);
        let mut rng = Prng::new(9);
        // Simulate: true path from the chain, noisy logits.
        let mut truth = Vec::new();
        let mut state = 0usize;
        for _ in 0..400 {
            truth.push(state as u32);
            // sticky walk
            if rng.uniform() > 0.8 {
                state = (state + 1) % 4;
            }
        }
        let mut logits: Matrix<f64> = Matrix::zeros(400, 4);
        for (t, &s) in truth.iter().enumerate() {
            for j in 0..4 {
                logits[(t, j)] = if j == s as usize { 1.0 } else { 0.0 };
                logits[(t, j)] += rng.normal() * 0.8;
            }
        }
        let argmax: Vec<u32> = logits.row_argmax().iter().map(|&v| v as u32).collect();
        let vit = viterbi_decode(&logits, &g);
        let ser_argmax = state_error_rate(&argmax, &truth);
        let ser_vit = state_error_rate(&vit, &truth);
        assert!(
            ser_vit <= ser_argmax,
            "viterbi {ser_vit} worse than argmax {ser_argmax}"
        );
        assert!(ser_vit < 0.4, "decoder failed: SER {ser_vit}");
    }

    #[test]
    fn empty_input_decodes_to_empty() {
        let g = chain(2, 0.5);
        let logits: Matrix<f32> = Matrix::zeros(0, 2);
        assert!(viterbi_decode(&logits, &g).is_empty());
        assert_eq!(state_error_rate(&[], &[]), 0.0);
    }
}
