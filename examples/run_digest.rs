//! Run digests for byte-identity gates across refactors of the
//! distributed trainer: one line per configuration with FNV-1a hashes
//! of the final θ bits, the per-iteration `stats`, every rank's
//! telemetry JSONL and every rank's `CommEvent` stream.
//!
//! ```sh
//! cargo run --release --example run_digest > after.txt
//! diff before.txt after.txt   # `before.txt` from the parent commit
//! ```
//!
//! Covered: {master, ring, tree} × {none, f16, int8} × {CE, sequence}
//! under the frozen clock, one perturbed-schedule seed per sync mode,
//! and one mid-training kill per sync mode (`checkpoint_every` 1; the
//! master once more with an on-disk checkpoint). No hashes are stored
//! in the repo: compare two checkouts.

use pdnn::core::{
    train_distributed_deterministic, train_distributed_faulted, train_distributed_perturbed,
    DistributedConfig, Objective, SyncStrategy, TrainOutput,
};
use pdnn::dnn::{Activation, Network};
use pdnn::mpisim::{events_to_jsonl, FaultPlan, WireCodec};
use pdnn::obs::jsonl::to_jsonl_string;
use pdnn::speech::{Corpus, CorpusSpec};
use pdnn::util::Prng;
use std::time::Duration;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(label: &str, out: &TrainOutput) {
    let theta = fnv1a(
        out.network
            .to_flat()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes()),
    );
    let stats = fnv1a(format!("{:?}", out.stats).bytes());
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
