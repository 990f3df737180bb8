//! Run digests for byte-identity gates across refactors of the
//! trainer: one line per configuration with FNV-1a hashes of the final
//! θ bits, the per-iteration `stats`, every rank's telemetry JSONL and
//! every rank's `CommEvent` stream.
//!
//! ```sh
//! cargo run --release --example run_digest | diff results/run_digest.txt -
//! ```
//!
//! `results/run_digest.txt` is the committed output and
//! `scripts/verify.sh` runs the command above: a refactor must leave
//! every line equal, and a change that means to move a line
//! regenerates the file and says which lines moved and why. Every run
//! is seeded and clocked manually, so the output is the same from run
//! to run and under every compute backend. Training itself calls no
//! libm (`exp`/`ln` are `pdnn_tensor::vmath`'s portable functions), but
//! the corpus generator draws through the platform's `ln`/`exp`
//! (`Prng::normal`, `log_normal`): on a host whose libm rounds those
//! differently, regenerate the file at the parent commit before
//! comparing.
//!
//! Covered: the serial `DnnProblem` × {CE, sequence} and CE once more
//! in 64-frame chunks (telemetry from manual-clock recorders on the
//! problem and on the optimizer; no comm events); {master, ring, tree}
//! × {none, f16, int8} × {CE, sequence} under the frozen clock; one
//! perturbed-schedule seed per sync mode; and one mid-training kill
//! per sync mode (`checkpoint_every` 1; the master once more with an
//! on-disk checkpoint).

use pdnn::core::{
    train_distributed_deterministic, train_distributed_faulted, train_distributed_perturbed,
    DistributedConfig, DnnProblem, HfConfig, HfOptimizer, HfProblem, IterStats, Objective,
    SyncStrategy, TrainOutput,
};
use pdnn::dnn::{Activation, Network};
use pdnn::mpisim::{events_to_jsonl, FaultPlan, WireCodec};
use pdnn::obs::jsonl::to_jsonl_string;
use pdnn::obs::InMemoryRecorder;
use pdnn::speech::{Corpus, CorpusSpec};
use pdnn::tensor::gemm::GemmContext;
use pdnn::util::Prng;
use std::sync::Arc;
use std::time::Duration;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn theta_hash(theta: &[f32]) -> u64 {
    fnv1a(theta.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

fn stats_hash(stats: &[IterStats]) -> u64 {
    fnv1a(format!("{stats:?}").bytes())
}

/// One serial run: the problem's recorder is telemetry rank 0, the
/// optimizer's rank 1.
fn digest_serial(
    label: &str,
    corpus: &Corpus,
    net0: &Network<f32>,
    objective: &Objective,
    max_batch_frames: usize,
) {
    let (train_ids, held_ids) = corpus.split_heldout(0.2);
    let problem_rec = Arc::new(InMemoryRecorder::with_manual_clock());
    let optimizer_rec = Arc::new(InMemoryRecorder::with_manual_clock());
    let mut problem = DnnProblem::new(
        net0.clone(),
        GemmContext::sequential(),
        corpus.shard(&train_ids),
        corpus.shard(&held_ids),
        objective.clone(),
    )
    .with_max_batch_frames(max_batch_frames)
    .with_recorder(problem_rec.clone());
    let mut hf = HfConfig::small_task();
    hf.max_iters = 3;
    let stats = HfOptimizer::with_recorder(hf, optimizer_rec.clone()).train(&mut problem);
    let mut jsonl = to_jsonl_string(0, &problem_rec.take());
    jsonl.push_str(&to_jsonl_string(1, &optimizer_rec.take()));
    println!(
        "{label:<28} theta={:016x} stats={:016x} telemetry={:016x} iters={}",
        theta_hash(&problem.theta()),
        stats_hash(&stats),
        fnv1a(jsonl.bytes()),
        stats.len(),
    );
}

fn digest(label: &str, out: &TrainOutput) {
    let theta = theta_hash(&out.network.to_flat());
    let stats = stats_hash(&out.stats);
    let telemetries = std::iter::once(&out.master_telemetry).chain(&out.worker_telemetries);
    let mut jsonl = String::new();
    for (rank, t) in telemetries.enumerate() {
        jsonl.push_str(&to_jsonl_string(rank as u64, t));
    }
    let mut events = events_to_jsonl(&out.master_events);
    for e in &out.worker_events {
        events.push_str("--\n");
        events.push_str(&events_to_jsonl(e));
    }
    println!(
        "{label:<28} theta={theta:016x} stats={stats:016x} telemetry={:016x} events={:016x} \
         iters={} dead={:?} recoveries={}",
        fnv1a(jsonl.bytes()),
        fnv1a(events.bytes()),
        out.stats.len(),
        out.dead_ranks,
        out.recoveries,
    );
}

fn main() {
    let corpus = Corpus::generate(CorpusSpec::tiny(17));
    let mut rng = Prng::new(5);
    let net0 = Network::new(
        &[corpus.spec().feature_dim, 12, corpus.spec().states],
        Activation::Sigmoid,
        &mut rng,
    );
    let sequence = Objective::Sequence(corpus.denominator_graph());
    let config = |sync, wire_codec| {
        let mut c = DistributedConfig {
            workers: 3,
            sync,
            wire_codec,
            ..DistributedConfig::default()
        };
        c.hf.max_iters = 3;
        c
    };
    let syncs = [SyncStrategy::Master, SyncStrategy::Ring, SyncStrategy::Tree];

    let ce = Objective::CrossEntropy;
    digest_serial("serial/ce", &corpus, &net0, &ce, usize::MAX);
    digest_serial("serial/seq", &corpus, &net0, &sequence, usize::MAX);
    // Several chunks per gradient and per held-out evaluation.
    digest_serial("serial/ce/chunked", &corpus, &net0, &ce, 64);
    for sync in syncs {
        for codec in [WireCodec::None, WireCodec::F16, WireCodec::Int8] {
            for (name, objective) in [("ce", &Objective::CrossEntropy), ("seq", &sequence)] {
                let out = train_distributed_deterministic(
                    &net0,
                    &corpus,
                    objective,
                    &config(sync, codec),
                )
                .expect("fault-free run");
                digest(&format!("{}/{}/{name}", sync.name(), codec.name()), &out);
            }
        }
    }
    for sync in syncs {
        let out = train_distributed_perturbed(
            &net0,
            &corpus,
            &Objective::CrossEntropy,
            &config(sync, WireCodec::None),
            0xD1CE,
        )
        .expect("perturbed run");
        assert!(out.hb_violations.is_empty(), "happens-before violation");
        digest(&format!("{}/perturbed", sync.name()), &out);
    }
    // Rank 2 dies at a collective inside the second HF iteration, so
    // the rewind goes to the snapshot taken after the first.
    let plan = |at_collective| {
        FaultPlan::new(41)
            .kill(2, at_collective)
            .with_timeouts(Duration::from_millis(500), Duration::from_secs(30))
    };
    let checkpoint =
        std::env::temp_dir().join(format!("pdnn-run-digest-{}.ckpt", std::process::id()));
    for (sync, on_disk, at_collective) in [
        (SyncStrategy::Master, false, 120),
        (SyncStrategy::Master, true, 120),
        (SyncStrategy::Ring, false, 40),
        (SyncStrategy::Tree, false, 40),
    ] {
        let mut c = config(sync, WireCodec::None);
        c.checkpoint_every = 1;
        c.checkpoint_path = on_disk.then(|| checkpoint.clone());
        let out = train_distributed_faulted(
            &net0,
            &corpus,
            &Objective::CrossEntropy,
            &c,
            &plan(at_collective),
        )
        .expect("training must survive one rank death");
        let disk = if on_disk { "+disk" } else { "" };
        digest(&format!("{}/kill{disk}", sync.name()), &out);
    }
    std::fs::remove_file(&checkpoint).ok();
}
