//! The sharded CG state of ring mode, checked over the real runtime:
//! each rank owns its ring slice of the solver's vectors, gathers the
//! operand of every product, folds its partial dot products, and the
//! optimizer gathers every trial θ and the updated θ from the slices.
//!
//! * A sliced solve of a small SPD quadratic at P ∈ {2, 3} matches the
//!   whole-vector solve to a relative 1e-5 (only the association of
//!   the dot products differs), and is the whole-vector solve bit for
//!   bit at P = 1.
//! * Every replica gathers bit-identical trial and final θ.
//! * A 2-rank ring rank parks fewer arena bytes than a tree rank of
//!   the same job, which keeps the whole CG state.

use pdnn_core::{
    train_distributed_deterministic, CgConfig, CgOperator, CgResult, CgSolver, DistributedConfig,
    HeldoutEval, HfConfig, HfOptimizer, HfProblem, Objective, SyncStrategy,
};
use pdnn_dnn::{Activation, Network};
use pdnn_mpisim::{run_world, Comm, ReduceOp};
use pdnn_obs::NullRecorder;
use pdnn_speech::{Corpus, CorpusSpec};
use pdnn_util::Prng;
use std::ops::Range;
use std::sync::Arc;

/// A dense SPD matrix `BᵀB + n·I`.
fn spd(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = Prng::new(seed);
    let b: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..n).map(|_| rng.normal()).collect())
        .collect();
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let bb: f64 = (0..n).map(|k| b[k][i] * b[k][j]).sum();
                    bb + if i == j { n as f64 } else { 0.0 }
                })
                .collect()
        })
        .collect()
}

/// Rows `rows` of `a · v`.
fn multiply(a: &[Vec<f64>], v: &[f32], rows: Range<usize>) -> Vec<f32> {
    a[rows]
        .iter()
        .map(|row| row.iter().zip(v).map(|(&x, &y)| x * y as f64).sum::<f64>() as f32)
        .collect()
}

/// The quadratic's curvature, owned whole.
struct Whole<'a>(&'a [Vec<f64>]);

impl CgOperator for Whole<'_> {
    fn product(&mut self, v: &[f32]) -> Vec<f32> {
        multiply(self.0, v, 0..v.len())
    }
    fn lease(&mut self, len: usize) -> Vec<f32> {
        vec![0.0; len]
    }
    fn give_back(&mut self, _buf: Vec<f32>) {}
}

/// The quadratic's curvature over this rank's ring slice, the slices
/// gathered and the partial sums folded by the runtime's collectives.
struct Sliced<'a> {
    a: &'a [Vec<f64>],
    comm: &'a mut Comm,
}

impl CgOperator for Sliced<'_> {
    fn product(&mut self, v: &[f32]) -> Vec<f32> {
        multiply(self.a, v, self.comm.ring_slice(v.len()))
    }
    fn lease(&mut self, len: usize) -> Vec<f32> {
        vec![0.0; len]
    }
    fn give_back(&mut self, _buf: Vec<f32>) {}
    fn cg_range(&self, n: usize) -> Range<usize> {
        self.comm.ring_slice(n)
    }
    fn fold_partials(&mut self, partials: &mut [f64]) {
        self.comm.allreduce_ring(partials, ReduceOp::Sum).unwrap();
    }
    fn gather(&mut self, full: &mut [f32]) {
        self.comm.allgather(full).unwrap();
    }
}

const N: usize = 37;

fn gradient() -> Vec<f32> {
    (0..N).map(|i| (i as f32 * 0.61).sin()).collect()
}

fn warm_start() -> Vec<f32> {
    (0..N).map(|i| 0.01 * (i % 5) as f32 - 0.02).collect()
}

fn preconditioner() -> Vec<f32> {
    (0..N).map(|i| 1.0 + 0.25 * (i % 3) as f32).collect()
}

/// Solve on every rank of a `ranks`-rank world; each rank returns its
/// result with every iterate gathered whole.
fn sliced_solves(ranks: usize, config: CgConfig, precond: bool) -> Vec<(CgResult, Vec<Vec<f32>>)> {
    let a = Arc::new(spd(N, 3));
    let outcomes = run_world(ranks, move |comm| {
        let own = comm.ring_slice(N);
        let (d0, m) = (warm_start(), preconditioner());
        let m = precond.then(|| &m[own.clone()]);
        let mut op = Sliced { a: &a, comm };
        let result = CgSolver::new(config).solve(
            &gradient(),
            Some(&d0[own.clone()]),
            &mut op,
            0.5,
            m,
            &NullRecorder,
        );
        let gathered = result
            .iterates
            .iter()
            .map(|it| {
                let mut full = vec![0.0f32; N];
                full[own.clone()].copy_from_slice(&it.d);
                op.gather(&mut full);
                full
            })
            .collect();
        (result, gathered)
    });
    outcomes.into_iter().map(|o| o.result).collect()
}

fn whole_solve(config: CgConfig, precond: bool) -> CgResult {
    let a = spd(N, 3);
    let m = preconditioner();
    let m = precond.then_some(&m[..]);
    CgSolver::new(config).solve(
        &gradient(),
        Some(&warm_start()),
        &mut Whole(&a),
        0.5,
        m,
        &NullRecorder,
    )
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Eight forced iterations, so both solves stop at the same step.
fn forced() -> CgConfig {
    CgConfig {
        max_iters: 8,
        min_iters: 8,
        epsilon: 0.0,
        store_gamma: 1.3,
    }
}

#[test]
fn a_sliced_solve_matches_the_whole_vector_solve() {
    for precond in [false, true] {
        let whole = whole_solve(forced(), precond);
        for ranks in [2usize, 3] {
            let solves = sliced_solves(ranks, forced(), precond);
            for (rank, (result, gathered)) in solves.iter().enumerate() {
                let case = format!("P={ranks} rank={rank} precond={precond}");
                assert_eq!(result.iters, whole.iters, "{case}");
                assert_eq!(result.stop, whole.stop, "{case}");
                assert_eq!(gathered.len(), whole.iterates.len(), "{case}");
                for ((got, it), want) in gathered.iter().zip(&result.iterates).zip(&whole.iterates)
                {
                    assert_eq!(it.iter, want.iter, "{case}");
                    let err: f64 = got
                        .iter()
                        .zip(&want.d)
                        .map(|(&x, &y)| f64::from(x - y).powi(2))
                        .sum::<f64>()
                        .sqrt();
                    let norm = want
                        .d
                        .iter()
                        .map(|&y| f64::from(y).powi(2))
                        .sum::<f64>()
                        .sqrt();
                    assert!(
                        err <= 1e-5 * norm,
                        "{case} iter {}: |Δd| {err} vs |d| {norm}",
                        it.iter
                    );
                    assert!(
                        (it.q - want.q).abs() <= 1e-5 * want.q.abs(),
                        "{case} iter {}: q {} vs {}",
                        it.iter,
                        it.q,
                        want.q
                    );
                }
                // Every replica reads the same folded sums and gathers
                // the same bits.
                let (first, first_gathered) = &solves[0];
                assert_eq!(
                    result.final_q().to_bits(),
                    first.final_q().to_bits(),
                    "{case}"
                );
                for (x, y) in gathered.iter().zip(first_gathered) {
                    assert_eq!(bits(x), bits(y), "{case}");
                }
            }
        }
    }
}

#[test]
fn a_one_rank_solve_is_the_whole_vector_solve_bitwise() {
    for precond in [false, true] {
        for config in [forced(), CgConfig::default()] {
            let whole = whole_solve(config, precond);
            let solves = sliced_solves(1, config, precond);
            let (result, gathered) = &solves[0];
            assert_eq!((result.iters, result.stop), (whole.iters, whole.stop));
            assert_eq!(gathered.len(), whole.iterates.len());
            for ((it, got), want) in result.iterates.iter().zip(gathered).zip(&whole.iterates) {
                assert_eq!(it.iter, want.iter);
                assert_eq!(it.q.to_bits(), want.q.to_bits());
                assert_eq!(bits(&it.d), bits(&want.d));
                assert_eq!(bits(got), bits(&want.d));
            }
        }
    }
}

/// Training loss ½ (θ − t)ᵀ G (θ − t) with a diagonal G, sharded over
/// the ring like `DecentralProblem`: products and the gathers of θ go
/// through the runtime. Records the bits of every θ it is asked to
/// evaluate or install.
struct ShardedQuadratic<'a> {
    comm: &'a mut Comm,
    theta: Vec<f32>,
    target: Vec<f32>,
    seen: Vec<Vec<u32>>,
}

impl ShardedQuadratic<'_> {
    fn curvature(i: usize) -> f32 {
        1.0 + (i % 7) as f32
    }

    fn loss_of(&self, theta: &[f32]) -> f64 {
        let terms = theta.iter().zip(&self.target).enumerate();
        terms
            .map(|(i, (&x, &t))| 0.5 * f64::from(Self::curvature(i)) * f64::from(x - t).powi(2))
            .sum()
    }
}

impl HfProblem for ShardedQuadratic<'_> {
    fn num_params(&self) -> usize {
        self.theta.len()
    }
    fn theta(&self) -> Vec<f32> {
        self.theta.clone()
    }
    fn set_theta(&mut self, theta: &[f32]) {
        self.seen.push(bits(theta));
        self.theta = theta.to_vec();
    }
    fn gradient(&mut self) -> (f64, Vec<f32>) {
        let g = (0..self.theta.len())
            .map(|i| Self::curvature(i) * (self.theta[i] - self.target[i]))
            .collect();
        (self.loss_of(&self.theta), g)
    }
    fn sample_curvature(&mut self, _seed: u64, _fraction: f64) {}
    fn gn_product(&mut self, v: &[f32]) -> Vec<f32> {
        self.cg_range(v.len())
            .map(|i| Self::curvature(i) * v[i])
            .collect()
    }
    fn heldout_eval(&mut self, theta: &[f32]) -> HeldoutEval {
        self.seen.push(bits(theta));
        HeldoutEval {
            loss: self.loss_of(theta),
            accuracy: 0.0,
            frames: 1,
        }
    }
    fn train_frames(&self) -> u64 {
        1
    }
    fn cg_range(&self, n: usize) -> Range<usize> {
        self.comm.ring_slice(n)
    }
    fn fold_partials(&mut self, partials: &mut [f64]) {
        self.comm.allreduce_ring(partials, ReduceOp::Sum).unwrap();
    }
    fn gather(&mut self, full: &mut [f32]) {
        self.comm.allgather(full).unwrap();
    }
}

#[test]
fn every_replica_gathers_bit_identical_trial_and_final_theta() {
    let n = 29usize;
    for ranks in [2usize, 3] {
        let outcomes = run_world(ranks, move |comm| {
            let mut problem = ShardedQuadratic {
                comm,
                theta: (0..n).map(|i| (i as f32 * 0.3).cos()).collect(),
                target: (0..n).map(|i| 0.1 * i as f32 - 1.0).collect(),
                seen: Vec::new(),
            };
            let mut cfg = HfConfig::small_task();
            cfg.max_iters = 4;
            cfg.momentum = 0.5;
            let stats = HfOptimizer::new(cfg).train(&mut problem);
            (problem.seen, problem.theta, stats.len())
        });
        let (seen0, theta0, iters0) = &outcomes[0].result;
        assert!(
            seen0.len() > 2 * iters0,
            "P={ranks}: {} points",
            seen0.len()
        );
        for o in &outcomes[1..] {
            let (seen, theta, iters) = &o.result;
            assert_eq!(iters, iters0, "P={ranks} rank={}", o.rank);
            assert_eq!(seen, seen0, "P={ranks} rank={}: trial θ differ", o.rank);
            assert_eq!(bits(theta), bits(theta0), "P={ranks} rank={}", o.rank);
        }
        // The sharded run still solves the quadratic.
        let target: Vec<f32> = (0..n).map(|i| 0.1 * i as f32 - 1.0).collect();
        for (x, t) in theta0.iter().zip(&target) {
            assert!((x - t).abs() < 1e-2, "P={ranks}: θ {x} vs target {t}");
        }
    }
}

/// The largest `arena_high_water_bytes` any rank of a 2-rank run of
/// `sync` published.
fn arena_high_water(sync: SyncStrategy) -> f64 {
    let corpus = Corpus::generate(CorpusSpec::tiny(19));
    let mut rng = Prng::new(4);
    let net0 = Network::new(
        &[corpus.spec().feature_dim, 96, 96, corpus.spec().states],
        Activation::Sigmoid,
        &mut rng,
    );
    let mut config = DistributedConfig {
        workers: 2,
        sync,
        ..DistributedConfig::default()
    };
    config.hf.max_iters = 3;
    let out = train_distributed_deterministic(&net0, &corpus, &Objective::CrossEntropy, &config)
        .expect("fault-free run");
    std::iter::once(&out.master_telemetry)
        .chain(&out.worker_telemetries)
        .filter_map(|t| t.gauge("arena_high_water_bytes"))
        .fold(0.0, f64::max)
}

#[test]
fn a_ring_rank_parks_fewer_bytes_than_a_tree_rank() {
    let ring = arena_high_water(SyncStrategy::Ring);
    let tree = arena_high_water(SyncStrategy::Tree);
    eprintln!("arena_high_water_bytes: ring {ring} tree {tree}");
    assert!(ring > 0.0 && tree > 0.0);
    assert!(ring < tree, "ring rank {ring} B vs tree rank {tree} B");
}
