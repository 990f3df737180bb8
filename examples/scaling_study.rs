//! Protocol-accurate mini scaling study under virtual time.
//!
//! The analytic model in `pdnn-perfmodel` extrapolates to 8192 ranks;
//! this example cross-checks its *mechanisms* at thread scale: the
//! real distributed-HF communication protocol runs over the in-process
//! runtime with a BG/Q link model attached, so each rank carries a
//! virtual clock advanced by modeled transfer and compute costs. The
//! resulting timings are protocol-exact (every broadcast, reduction,
//! and wait really happens) while the costs are modeled.
//!
//! ```sh
//! cargo run --release --example scaling_study
//! ```

use pdnn::mpisim::{run_world, LinkModel, ReduceOp};
use pdnn::obs::{render_gantt, SpanKind, SpanRecord};
use pdnn::perfmodel::bgq::Network;
use std::sync::Arc;

struct BgqLink(Network);

impl LinkModel for BgqLink {
    fn p2p_seconds(&self, bytes: u64) -> f64 {
        self.0.p2p_time(bytes)
    }
}

/// One synthetic HF iteration: weight broadcast, worker gradient
/// compute (modeled), gradient reduction, a few CG rounds
/// (direction broadcast + curvature compute + reduction).
fn hf_iteration_vtime(workers: usize, params: usize, frames: f64, cg_rounds: usize) -> f64 {
    let per_worker_secs = frames / workers as f64 * 1e-7; // modeled compute
    let results = run_world(workers + 1, move |comm| {
        comm.set_link_model(Arc::new(BgqLink(Network::bgq(64))));
        let is_master = comm.rank() == 0;

        // sync_weights
        let mut theta = if is_master {
            vec![0.0f32; params]
        } else {
            vec![]
        };
        comm.bcast(&mut theta, 0).unwrap();

        // gradient_loss
        if !is_master {
            comm.advance_vtime(per_worker_secs);
        }
        let mut grad = vec![0.0f32; params];
        comm.reduce(&mut grad, ReduceOp::Sum, 0).unwrap();

        // CG: bcast direction, curvature product, reduce
        for _ in 0..cg_rounds {
            let mut d = if is_master {
                vec![0.0f32; params]
            } else {
                vec![]
            };
            comm.bcast(&mut d, 0).unwrap();
            if !is_master {
                comm.advance_vtime(per_worker_secs * 0.02);
            }
            let mut gv = vec![0.0f32; params];
            comm.reduce(&mut gv, ReduceOp::Sum, 0).unwrap();
        }
        comm.vtime()
    });
    results.iter().map(|r| r.result).fold(0.0, f64::max)
}

/// Render one iteration's per-rank virtual-time structure.
fn gantt_of_iteration(workers: usize, params: usize, frames: f64) -> String {
    let per_worker_secs = frames / workers as f64 * 1e-7;
    let results = run_world(workers + 1, move |comm| {
        comm.set_link_model(Arc::new(BgqLink(Network::bgq(64))));
        let is_master = comm.rank() == 0;
        let mut spans: Vec<SpanRecord> = Vec::new();
        let mut mark = |name: &'static str, kind, start, end| {
            spans.push(SpanRecord::new(name, kind, start, end))
        };

        let t0 = comm.vtime();
        let mut theta = if is_master {
            vec![0.0f32; params]
        } else {
            vec![]
        };
        comm.bcast(&mut theta, 0).unwrap();
        mark("sync", SpanKind::CommCollective, t0, comm.vtime());

        let t0 = comm.vtime();
        if !is_master {
            comm.advance_vtime(per_worker_secs);
        }
        mark("grad", SpanKind::DenseCompute, t0, comm.vtime());

        let t0 = comm.vtime();
        let mut grad = vec![0.0f32; params];
        comm.reduce(&mut grad, ReduceOp::Sum, 0).unwrap();
        mark("reduce", SpanKind::CommCollective, t0, comm.vtime());
        spans
    });
    let ranks: Vec<Vec<SpanRecord>> = results.into_iter().map(|r| r.result).collect();
    render_gantt(&ranks, 60)
}

fn main() {
    let params = 200_000;
    let frames = 4.0e6;
    let cg = 10;
    println!("protocol-accurate HF iteration under virtual time");
    println!("({params} parameters, {frames:.0} frames, {cg} CG rounds)\n");
    println!("workers  iteration vtime  speedup  efficiency");
    let base = hf_iteration_vtime(2, params, frames, cg);
    for workers in [2usize, 4, 8, 16, 32] {
        let t = hf_iteration_vtime(workers, params, frames, cg);
        let speedup = base / t;
        let ideal = workers as f64 / 2.0;
        println!(
            "{workers:>7}  {:>14.4}s  {speedup:>6.2}x  {:>9.0}%",
            t,
            100.0 * speedup / ideal
        );
    }
    println!(
        "\nCompute scales with workers; the broadcasts/reductions do not —\n\
         the same efficiency rolloff the analytic model extrapolates to\n\
         4096-8192 ranks (see: cargo run -p pdnn-bench --bin scaling).\n"
    );
    println!("virtual-time structure of one gradient phase (4 workers + master):");
    print!("{}", gantt_of_iteration(4, params, frames));
}
