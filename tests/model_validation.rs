//! Cross-layer validation: the analytic scaling model
//! (`pdnn-perfmodel`) extrapolates shapes that the *functional*
//! runtime, running the real protocol under a virtual clock, must
//! reproduce at small scale. If these diverge, the figure
//! reproductions are extrapolating the wrong mechanism.

use pdnn::mpisim::{run_world, LinkModel, Payload, ReduceOp, Src};
use pdnn::perfmodel::bgq::Network;
use std::sync::Arc;

/// Adapter: the BG/Q torus point-to-point cost drives the functional
/// runtime's virtual clock.
struct BgqLink(Network);

impl LinkModel for BgqLink {
    fn p2p_seconds(&self, bytes: u64) -> f64 {
        self.0.p2p_time(bytes)
    }
}

fn max_vtime(results: &[pdnn::mpisim::RankOutcome<f64>]) -> f64 {
    results.iter().map(|r| r.result).fold(0.0, f64::max)
}

#[test]
fn functional_bcast_sits_between_hw_collective_and_fanout_models() {
    // One 4 MB parameter broadcast over 64 ranks. The analytic
    // hardware-collective model is a lower bound (it assumes torus
    // pipelining); the sequential fan-out is the upper bound the
    // paper abandoned; the emergent software binomial tree must land
    // strictly between.
    let ranks = 64usize;
    let bytes = 4usize << 20;
    let net = Network::bgq(64);
    let link: Arc<dyn LinkModel> = Arc::new(BgqLink(net));

    let l2 = Arc::clone(&link);
    let functional = max_vtime(&run_world(ranks, move |comm| {
        comm.set_link_model(Arc::clone(&l2));
        let mut buf = if comm.rank() == 0 {
            vec![0.0f32; bytes / 4]
        } else {
            Vec::new()
        };
        comm.bcast(&mut buf, 0).unwrap();
        comm.vtime()
    }));

    let hw_model = net_bcast(bytes as u64, ranks);
    let fanout_model = (ranks - 1) as f64 * Network::bgq(64).p2p_time(bytes as u64);
    assert!(
        functional >= hw_model,
        "software tree {functional} beat the pipelined-hardware bound {hw_model}"
    );
    assert!(
        functional < fanout_model / 3.0,
        "software tree {functional} not clearly better than fan-out {fanout_model}"
    );
}

fn net_bcast(bytes: u64, ranks: usize) -> f64 {
    Network::bgq(64).bcast_time(bytes, ranks)
}

#[test]
fn compute_scaling_matches_the_models_assumption() {
    // The perfmodel divides per-iteration gradient compute by the
    // worker count. Reproduce functionally: charge each worker
    // frames/w of modeled compute, reduce to the master, and check
    // the master-side completion ratio between 4 and 8 workers.
    let frames = 80_000.0;
    let secs_per_frame = 1e-4;
    let run = |workers: usize| -> f64 {
        let results = run_world(workers + 1, move |comm| {
            comm.set_link_model(Arc::new(BgqLink(Network::bgq(64))));
            if comm.rank() > 0 {
                comm.advance_vtime(frames / workers as f64 * secs_per_frame);
            }
            let mut g = vec![0.0f32; 1000];
            comm.reduce(&mut g, ReduceOp::Sum, 0).unwrap();
            comm.vtime()
        });
        results[0].result // master completion time
    };
    let t4 = run(4);
    let t8 = run(8);
    let ratio = t4 / t8;
    assert!(
        (ratio - 2.0).abs() < 0.1,
        "compute-dominated phase should halve with 2x workers: ratio {ratio}"
    );
}

#[test]
fn imbalance_inflates_functional_step_time_like_the_model() {
    // perfmodel multiplies worker compute by the imbalance factor;
    // functionally, the synchronous reduce waits for the straggler.
    let workers = 6usize;
    let base = 1.0f64;
    let run = |imbalance: f64| -> f64 {
        let results = run_world(workers + 1, move |comm| {
            comm.set_link_model(Arc::new(BgqLink(Network::bgq(64))));
            if comm.rank() > 0 {
                // One worker carries the imbalanced load.
                let load = if comm.rank() == 1 {
                    base * imbalance
                } else {
                    base
                };
                comm.advance_vtime(load);
            }
            let mut g = vec![0.0f32; 64];
            comm.reduce(&mut g, ReduceOp::Sum, 0).unwrap();
            comm.vtime()
        });
        results[0].result
    };
    let balanced = run(1.0);
    let skewed = run(1.5);
    let ratio = skewed / balanced;
    assert!(
        (ratio - 1.5).abs() < 0.05,
        "step time should scale with the imbalance factor: {ratio}"
    );
}

#[test]
fn master_fanout_grows_linearly_with_ranks_functionally() {
    // The model's load_data term: the master ships per-worker
    // manifests point-to-point, serialized on its injection port.
    let bytes_per_worker = 256 * 1024;
    let run = |workers: usize| -> f64 {
        let results = run_world(workers + 1, move |comm| {
            comm.set_link_model(Arc::new(BgqLink(Network::bgq(64))));
            if comm.rank() == 0 {
                for w in 1..=workers {
                    comm.send(w, 7, Payload::Bytes(vec![0u8; bytes_per_worker]))
                        .unwrap();
                }
            } else {
                comm.recv(Src::Of(0), 7).unwrap();
            }
            comm.vtime()
        });
        results[0].result
    };
    let t8 = run(8);
    let t16 = run(16);
    let ratio = t16 / t8;
    assert!(
        (ratio - 2.0).abs() < 0.1,
        "master fan-out should be linear in workers: ratio {ratio}"
    );
}
