//! Property-based tests for the collectives: for arbitrary world
//! sizes, vector lengths, and contents, every collective must agree
//! with its local (single-process) definition.

use pdnn_mpisim::{run_world, ReduceOp};
use proptest::prelude::*;

proptest! {
    // Thread-spawning tests: keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bcast_delivers_root_data(
        size in 1usize..9,
        root_pick in 0usize..9,
        data in proptest::collection::vec(-1e3f32..1e3, 0..50),
    ) {
        let root = root_pick % size;
        let expect = data.clone();
        let results = run_world(size, move |comm| {
            let mut buf = if comm.rank() == root { data.clone() } else { vec![999.0] };
            comm.bcast(&mut buf, root).unwrap();
            buf
        });
        for r in results {
            prop_assert_eq!(&r.result, &expect);
        }
    }

    #[test]
    fn reduce_sum_matches_local_sum(
        size in 1usize..9,
        root_pick in 0usize..9,
        len in 1usize..40,
        seed in 0u64..500,
    ) {
        let root = root_pick % size;
        let results = run_world(size, move |comm| {
            let mut rng = pdnn_util::Prng::new(seed ^ comm.rank() as u64);
            let data: Vec<f64> = (0..len).map(|_| rng.range(-10.0, 10.0)).collect();
            let mut buf = data.clone();
            comm.reduce(&mut buf, ReduceOp::Sum, root).unwrap();
            (data, buf)
        });
        // Recompute the expected sum from each rank's contribution.
        for j in 0..len {
            let expect: f64 = results.iter().map(|r| r.result.0[j]).sum();
            let got = results[root].result.1[j];
            prop_assert!((got - expect).abs() < 1e-9 * (1.0 + expect.abs()),
                "elem {j}: {got} vs {expect}");
        }
    }

    #[test]
    fn allreduce_max_matches_local_max(
        size in 1usize..9,
        len in 1usize..30,
        seed in 0u64..500,
    ) {
        let results = run_world(size, move |comm| {
            let mut rng = pdnn_util::Prng::new(seed.wrapping_add(comm.rank() as u64 * 77));
            let data: Vec<f64> = (0..len).map(|_| rng.range(-5.0, 5.0)).collect();
            let mut buf = data.clone();
            comm.allreduce(&mut buf, ReduceOp::Max).unwrap();
            (data, buf)
        });
        for j in 0..len {
            let expect = results
                .iter()
                .map(|r| r.result.0[j])
                .fold(f64::NEG_INFINITY, f64::max);
            for r in &results {
                prop_assert_eq!(r.result.1[j], expect);
            }
        }
    }

    #[test]
    fn collective_sequences_stay_in_lockstep(
        size in 2usize..7,
        rounds in 1usize..6,
    ) {
        // Many back-to-back collectives of varying kinds must never
        // cross-match (the per-invocation tag window).
        let results = run_world(size, move |comm| {
            let mut acc = 0.0f64;
            for round in 0..rounds {
                let mut v = vec![(comm.rank() + round) as f64];
                comm.allreduce(&mut v, ReduceOp::Sum).unwrap();
                acc += v[0];
                comm.barrier().unwrap();
                let mut b = vec![round as f64];
                comm.bcast(&mut b, round % size).unwrap();
                acc += b[0];
            }
            acc
        });
        for r in &results[1..] {
            prop_assert_eq!(r.result, results[0].result);
        }
    }
}
