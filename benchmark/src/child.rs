//! The child process: one training job in a fresh process, checked
//! and reported as one JSON line.
//!
//! A fresh process per (round, workload) is what a `pdnn-train` user
//! pays: cold allocator, cold pack caches, thread start-up. The harness
//! (`crate::harness`) spawns this with `--child` and reads the last
//! line of its standard output.

use crate::json::Json;
use crate::layers;
use crate::procstat;
use crate::trace::Recorder;
use crate::workload::{self, Task, Trained, WorkloadSpec};
use pdnn::core::IterStats;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// FNV-1a over the bit patterns of θ: equal iff the runs are
/// bit-identical.
pub fn theta_fnv(theta: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in theta {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// In-run output checks on one training run; returns the problems
/// found (empty = correct). Whether the run got anywhere is not a
/// matter of correctness: see [`converged`].
pub fn check_stats(stats: &[IterStats], task: Task) -> Vec<String> {
    let mut problems = Vec::new();
    let ran_in_budget = match task {
        Task::Ce {
            target: Some(_),
            max_iters,
        } => (1..=max_iters).contains(&stats.len()),
        Task::Ce {
            target: None,
            max_iters: budget,
        }
        | Task::Seq { iters: budget, .. } => stats.len() == budget,
    };
    if !ran_in_budget {
        problems.push(format!("ran {} HF iterations", stats.len()));
    }
    for s in stats {
        // rho and heldout_accuracy are NaN by contract on a rejected step.
        let mut floats = vec![
            ("train_loss", s.train_loss),
            ("grad_norm", s.grad_norm),
            ("heldout_before", s.heldout_before),
            ("heldout_after", s.heldout_after),
            ("lambda", s.lambda),
            ("alpha", s.alpha),
        ];
        if s.accepted {
            floats.push(("rho", s.rho));
            floats.push(("heldout_accuracy", s.heldout_accuracy));
        }
        for (name, x) in floats {
            if !x.is_finite() {
                problems.push(format!("iter {}: {name} is {x}", s.iter));
            }
        }
        if s.accepted && s.heldout_after >= s.heldout_before {
            problems.push(format!(
                "iter {}: accepted step did not lower held-out loss ({} -> {})",
                s.iter, s.heldout_before, s.heldout_after
            ));
        }
    }
    problems
}

/// Did the run get where it was going: the held-out target before the
/// iteration cap, or on the sequence task, from a pre-trained net
/// (`ready`), at least one accepted step and a lower held-out loss.
///
/// One corpus in 300 is a slow starter on which the optimizer rejects
/// its first eight or more steps and the cap comes first. That is the
/// trainer's time on that input, so the round is timed and passes its
/// checks; the harness fails the run if most rounds end this way.
pub fn converged(stats: &[IterStats], task: Task, ready: bool) -> bool {
    let (Some(first), Some(last)) = (stats.first(), stats.last()) else {
        return false;
    };
    match task {
        Task::Ce { target, .. } => target.is_none_or(|t| last.heldout_after <= t),
        Task::Seq { .. } => {
            ready && stats.iter().any(|s| s.accepted) && last.heldout_after < first.heldout_before
        }
    }
}

fn now_unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// What `--child` was asked to do.
pub struct ChildArgs {
    pub spec: WorkloadSpec,
    pub seed: u64,
    /// Wall-clock instant (ns since the epoch) at which the harness
    /// spawned this process, so `setup_s` includes process start-up.
    pub spawned_at_ns: Option<u128>,
    /// Record spans, run the layer probes, write the trace file.
    pub traced: bool,
    /// Shrink the probes (with `--smoke`).
    pub quick_probes: bool,
}

/// Run the job and return the result object the harness parses.
pub fn run(args: &ChildArgs) -> Json {
    let entered = Instant::now();
    let spec = &args.spec;
    let inputs = workload::prepare(spec, args.seed);
    let ready = inputs.ready;
    // The traced pass alone records spans, and probes the layers on
    // copies of the inputs afterwards.
    let traced = args
        .traced
        .then(|| (Recorder::new(), inputs.corpus.clone(), inputs.net0.clone()));

    // Optimizer entry: everything before this is set-up.
    let setup_s = match args.spawned_at_ns {
        Some(t0) => now_unix_ns().saturating_sub(t0) as f64 * 1e-9,
        None => entered.elapsed().as_secs_f64(),
    };
    let cpu_before = procstat::cpu_seconds();
    let train_start = Instant::now();
    let trained = workload::train(spec, inputs, traced.as_ref().map(|t| &t.0));
    let train_s = train_start.elapsed().as_secs_f64();
    let cpu_s = match (cpu_before, procstat::cpu_seconds()) {
        (Some(a), Some(b)) => b - a,
        _ => f64::NAN,
    };
    // Before the probes allocate: the peak of the training job alone.
    let peak_rss_mb = procstat::peak_rss_mb().unwrap_or(f64::NAN);

    let Trained { stats, theta, dist } = &trained;
    let mut problems = check_stats(stats, spec.task);
    if !cpu_s.is_finite() || !peak_rss_mb.is_finite() {
        problems.push("cannot read /proc/self/stat or /proc/self/status".into());
    }
    let cg_iters: usize = stats.iter().map(|s| s.cg_iters).sum();

    let mut fields = vec![
        ("workload", Json::Str(spec.name.into())),
        ("seed", Json::Str(args.seed.to_string())),
        ("setup_s", Json::num(setup_s)),
        ("train_s", Json::num(train_s)),
        ("iter_s", Json::num(train_s / stats.len().max(1) as f64)),
        ("cpu_s", Json::num(cpu_s)),
        ("peak_rss_mb", Json::num(peak_rss_mb)),
        ("hf_iters", Json::Num(stats.len() as f64)),
        ("cg_iters", Json::Num(cg_iters as f64)),
        ("theta_fnv", Json::Str(format!("{:016x}", theta_fnv(theta)))),
        ("converged", Json::Bool(converged(stats, spec.task, ready))),
        (
            "heldout_by_iter",
            Json::Arr(stats.iter().map(|s| Json::num(s.heldout_after)).collect()),
        ),
    ];

    if let Some((rec, corpus, net0)) = &traced {
        let mut per_layer = layers::from_run(spec, rec, stats, dist.as_deref(), train_s);
        let probe = layers::probes(
            spec,
            args.seed,
            corpus,
            net0,
            rec,
            args.quick_probes,
            &mut problems,
        );
        per_layer.extend(probe);
        fields.push((
            "per_layer",
            Json::Obj(
                per_layer
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::opt(v)))
                    .collect(),
            ),
        ));
        let path = crate::results_dir().join(format!("trace_{}.jsonl", spec.name));
        if let Err(e) = crate::trace::write_jsonl(&path, &rec.spans()) {
            problems.push(format!("cannot write {}: {e}", path.display()));
        }
    }

    fields.push(("ok", Json::Bool(problems.is_empty())));
    fields.push((
        "problems",
        Json::Arr(problems.into_iter().map(Json::Str).collect()),
    ));
    Json::obj(fields)
}
