//! Integration coverage for the unified telemetry subsystem: a real
//! 4-rank distributed training run must leave almost no wall time
//! unaccounted for on any rank, and the per-rank telemetry must
//! survive a JSONL export/import round trip bit-for-bit.

use pdnn::core::{train_distributed, DistributedConfig, HfConfig, Objective, TrainOutput};
use pdnn::dnn::{Activation, Network};
use pdnn::obs::jsonl::{read_jsonl, write_jsonl};
use pdnn::obs::{SpanRecord, Telemetry};
use pdnn::speech::{Corpus, CorpusSpec};
use pdnn::util::Prng;

fn train_four_ranks(utterances: usize) -> TrainOutput {
    let corpus = Corpus::generate(CorpusSpec {
        utterances,
        ..CorpusSpec::tiny(4242)
    });
    let mut rng = Prng::new(7);
    let net = Network::new(
        &[corpus.spec().feature_dim, 12, corpus.spec().states],
        Activation::Sigmoid,
        &mut rng,
    );
    let config = DistributedConfig {
        workers: 3,
        hf: HfConfig::small_task()
            .into_builder()
            .max_iters(3)
            .build()
            .unwrap(),
        heldout_frac: 0.2,
        ..Default::default()
    };
    train_distributed(&net, &corpus, &Objective::CrossEntropy, &config).expect("training failed")
}

/// How a rank's spans cover its wall time `[first start, last end]`.
struct Coverage {
    /// Fraction covered by the union of the spans (overlap counted
    /// once).
    fraction: f64,
    /// The largest stretch no span covers, in seconds, with the span
    /// that ends where it starts and the one that starts where it ends.
    gap: f64,
    before: String,
    after: String,
}

impl std::fmt::Display for Coverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.1}% covered; largest uncovered gap {:.2} ms, between `{}` and `{}`",
            100.0 * self.fraction,
            1e3 * self.gap,
            self.before,
            self.after
        )
    }
}

fn span_coverage(spans: &[SpanRecord]) -> Coverage {
    assert!(!spans.is_empty(), "rank recorded no spans");
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
    let first = sorted[0].start;
    let mut union = 0.0;
    let mut cursor = first;
    // The span whose end is the cursor.
    let mut last = sorted[0];
    let mut largest = (0.0, "-".to_string(), "-".to_string());
    for span in sorted {
        if span.start > cursor && span.start - cursor > largest.0 {
            largest = (
                span.start - cursor,
                last.phase.to_string(),
                span.phase.to_string(),
            );
        }
        if span.end > cursor {
            union += span.end - span.start.max(cursor);
            cursor = span.end;
            last = span;
        }
    }
    let wall = cursor - first;
    let (gap, before, after) = largest;
    Coverage {
        fraction: if wall <= 0.0 { 1.0 } else { union / wall },
        gap,
        before,
        after,
    }
}

#[test]
fn four_rank_training_spans_cover_each_ranks_time() {
    // Ranks share the CPUs, so a thread can be descheduled between two
    // spans for a few ms. 192 utterances make the run long enough
    // (~0.6 s in a debug build) that such a gap stays well under the
    // 5% this allows; the largest gap is named if it does not.
    let out = train_four_ranks(192);
    assert!(!out.stats.is_empty(), "training produced no iterations");
    assert_eq!(out.worker_telemetries.len(), 3);

    let coverage = span_coverage(&out.master_telemetry.spans);
    assert!(coverage.fraction >= 0.95, "master spans: {coverage}");
    for (w, telemetry) in out.worker_telemetries.iter().enumerate() {
        let coverage = span_coverage(&telemetry.spans);
        assert!(coverage.fraction >= 0.95, "worker {w} spans: {coverage}");
    }

    // The recorder's counters agree with the optimizer's own account.
    assert_eq!(
        out.master_telemetry.counter("hf_iterations"),
        out.stats.len() as u64
    );
}

#[test]
fn per_rank_telemetry_round_trips_through_jsonl() {
    let out = train_four_ranks(48);
    let mut per_rank: Vec<Telemetry> = vec![out.master_telemetry];
    per_rank.extend(out.worker_telemetries);

    let path =
        std::env::temp_dir().join(format!("pdnn_observability_{}.jsonl", std::process::id()));
    write_jsonl(&path, &per_rank).expect("jsonl export failed");
    let back = read_jsonl(&path).expect("jsonl import failed");
    std::fs::remove_file(&path).ok();

    assert_eq!(back.len(), per_rank.len());
    for (rank, (parsed_rank, parsed)) in back.into_iter().enumerate() {
        assert_eq!(parsed_rank, rank as u64);
        assert_eq!(
            parsed, per_rank[rank],
            "rank {rank} telemetry changed across the JSONL round trip"
        );
    }
}
