//! Property tests for the two invariants `pdnn-protocheck` pass 2
//! leans on (ISSUE 3 satellite):
//!
//! * **Arrival-order independence** — collectives run under a seeded
//!   schedule perturbation ([`run_world_perturbed`]) return bitwise
//!   the same results as the unperturbed deterministic world, with an
//!   empty happens-before log.
//! * **Tree vs flat bit-identity** — the binomial-tree `reduce` and
//!   recursive-doubling `allreduce` are bitwise equal to a local
//!   single-process replay of the same combine schedule; with exact
//!   (integer) arithmetic the tree collapses to the flat rank-order
//!   fold, so tree and flat must agree to the bit.

use pdnn_mpisim::{run_world, run_world_deterministic, run_world_perturbed, ReduceOp};
use proptest::prelude::*;

/// Local replay of the binomial-tree reduce schedule used by
/// `Comm::reduce` (root 0): at each doubling `mask`, vrank `v` with
/// `v & mask == 0` absorbs the subtree rooted at `v | mask`, with its
/// own accumulator as the left operand.
fn tree_reduce_replay(per_rank: &[Vec<f32>]) -> Vec<f32> {
    let size = per_rank.len();
    let mut acc: Vec<Vec<f32>> = per_rank.to_vec();
    let mut mask = 1usize;
    while mask < size {
        let mut v = 0usize;
        while v < size {
            if v & mask == 0 && v | mask < size {
                let (left, right) = acc.split_at_mut(v | mask);
                for (x, &y) in left[v].iter_mut().zip(right[0].iter()) {
                    *x += y;
                }
            }
            v += mask << 1;
        }
        mask <<= 1;
    }
    acc.swap_remove(0)
}

/// Local replay of the recursive-doubling allreduce schedule: a
/// balanced binary tree over rank order, lower-rank data always the
/// left operand (exactly the rank-independent order the distributed
/// code uses).
fn doubling_allreduce_replay(per_rank: &[Vec<f32>]) -> Vec<f32> {
    let mut level: Vec<Vec<f32>> = per_rank.to_vec();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| {
                let mut left = pair[0].clone();
                for (x, &y) in left.iter_mut().zip(pair[1].iter()) {
                    *x += y;
                }
                left
            })
            .collect();
    }
    level.swap_remove(0)
}

fn rank_data(size: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..size)
        .map(|rank| {
            let mut rng = pdnn_util::Prng::new(seed ^ ((rank as u64 + 1) * 0x9e37));
            (0..len).map(|_| rng.range(-8.0, 8.0) as f32).collect()
        })
        .collect()
}

proptest! {
    // Thread-spawning tests: keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn perturbed_collectives_are_arrival_order_independent(
        size in 2usize..7,
        len in 1usize..40,
        seed in 0u64..1000,
        sched_seed in 1u64..1000,
    ) {
        let body = move |comm: &mut pdnn_mpisim::Comm| {
            let mut rng = pdnn_util::Prng::new(seed ^ comm.rank() as u64);
            let mut v: Vec<f64> = (0..len).map(|_| rng.range(-4.0, 4.0)).collect();
            comm.allreduce(&mut v, ReduceOp::Sum).unwrap();
            let mut m: Vec<f64> = vec![comm.rank() as f64];
            comm.reduce(&mut m, ReduceOp::Max, 0).unwrap();
            comm.barrier().unwrap();
            let gathered = comm.allgather(vec![comm.rank() as u64]).unwrap();
            (v, m, gathered)
        };
        let baseline = run_world_deterministic(size, body);
        let perturbed = run_world_perturbed(size, sched_seed, body);
        for (b, p) in baseline.iter().zip(perturbed.iter()) {
            prop_assert!(p.hb.is_empty(), "rank {}: HB violations {:?}", p.rank, p.hb);
            // Bitwise identity, not approximate equality.
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&b.result.0), bits(&p.result.0));
            prop_assert_eq!(bits(&b.result.1), bits(&p.result.1));
            prop_assert_eq!(&b.result.2, &p.result.2);
        }
    }

    #[test]
    fn binomial_reduce_is_bit_identical_to_tree_replay(
        size in 1usize..9,
        len in 1usize..50,
        seed in 0u64..1000,
    ) {
        let data = rank_data(size, len, seed);
        let expect: Vec<u32> = tree_reduce_replay(&data).iter().map(|x| x.to_bits()).collect();
        let results = run_world(size, move |comm| {
            let mut buf = data[comm.rank()].clone();
            comm.reduce(&mut buf, ReduceOp::Sum, 0).unwrap();
            buf
        });
        let got: Vec<u32> = results[0].result.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn doubling_allreduce_is_bit_identical_to_tree_replay_on_every_rank(
        log_size in 0u32..4,
        len in 1usize..50,
        seed in 0u64..1000,
    ) {
        let size = 1usize << log_size;
        let data = rank_data(size, len, seed);
        let expect: Vec<u32> =
            doubling_allreduce_replay(&data).iter().map(|x| x.to_bits()).collect();
        let results = run_world(size, move |comm| {
            let mut buf = data[comm.rank()].clone();
            comm.allreduce(&mut buf, ReduceOp::Sum).unwrap();
            buf
        });
        for r in &results {
            let got: Vec<u32> = r.result.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&got, &expect, "rank {} diverged from the replay", r.rank);
        }
    }

    #[test]
    fn exact_arithmetic_collapses_tree_to_flat_fold(
        size in 1usize..9,
        len in 1usize..30,
        seed in 0u64..1000,
    ) {
        // With u64 sums the combine order cannot matter, so the tree
        // reduce must equal the flat rank-order fold exactly — and the
        // allreduce must agree with it too.
        let data: Vec<Vec<u64>> = (0..size)
            .map(|rank| {
                let mut rng = pdnn_util::Prng::new(seed ^ rank as u64);
                (0..len).map(|_| rng.below(1 << 20)).collect()
            })
            .collect();
        let flat: Vec<u64> = (0..len)
            .map(|j| data.iter().map(|d| d[j]).sum())
            .collect();
        let results = run_world(size, move |comm| {
            let mut tree = data[comm.rank()].clone();
            comm.reduce(&mut tree, ReduceOp::Sum, 0).unwrap();
            let mut doubling = data[comm.rank()].clone();
            comm.allreduce(&mut doubling, ReduceOp::Sum).unwrap();
            (tree, doubling)
        });
        prop_assert_eq!(&results[0].result.0, &flat);
        for r in &results {
            prop_assert_eq!(&r.result.1, &flat);
        }
    }
}
