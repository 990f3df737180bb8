//! The harness: spawns one fresh child per (round, workload), checks
//! what comes back, and summarises rounds into medians and quartiles.
//!
//! Load shape: closed loop, one training job at a time. Round `r` runs
//! each workload once, in fixed order, on problem instance
//! `r % INSTANCES`, so a slow stretch of the host hits every workload
//! alike and no one instance's luck decides a run.

use crate::json::{self, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report;
use crate::stats::{median, Summary};
use crate::workload::{self, instance_seed, WorkloadSpec, INSTANCES};
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Rounds of a full run.
pub const FULL_ROUNDS: usize = 9;
/// Fewest rounds a timed summary may rest on: every instance once.
pub const MIN_ROUNDS: usize = INSTANCES;
/// `master_ce` must stay within this share of `serial_ce`'s held-out
/// loss over the first [`MASTER_VS_SERIAL_ITERS`] iterations: the same
/// job with another reduction order. The gap between the two grows
/// about threefold per iteration (largest over 60 seeds: 0.1%, 0.2%,
/// 0.6%, 3%, 3%, 15% after iterations 1 to 6), so agreement is sharp
/// early and chance late; a broken reduction is off from the first.
pub const MASTER_VS_SERIAL_LOSS_TOLERANCE: f64 = 0.05;
pub const MASTER_VS_SERIAL_ITERS: usize = 3;
/// The workload checked against its serial twin, and the twin.
const MASTER: &str = "master_ce";
const SERIAL_TWIN: &str = "serial_ce";

/// How children are run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    /// Shrunken corpora and probes.
    pub smoke: bool,
}

impl Options {
    /// `spec` as this invocation runs it: shrunk under `--smoke`.
    pub fn sized(&self, spec: &WorkloadSpec) -> WorkloadSpec {
        if self.smoke {
            spec.shrunk()
        } else {
            *spec
        }
    }

    /// The workload called `name`.
    pub fn spec(&self, name: &str) -> Option<WorkloadSpec> {
        workload::find(name).map(|spec| self.sized(spec))
    }
}

/// One child's parsed result, or why there is none.
#[derive(Clone)]
pub struct ChildResult {
    pub json: Option<Json>,
    pub problems: Vec<String>,
}

impl ChildResult {
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn num(&self, key: &str) -> Option<f64> {
        self.json.as_ref()?.get(key)?.as_f64()
    }

    pub fn text(&self, key: &str) -> Option<&str> {
        self.json.as_ref()?.get(key)?.as_str()
    }

    /// The run got where it was going (see `child::converged`).
    pub fn converged(&self) -> bool {
        self.json
            .as_ref()
            .and_then(|j| j.get("converged")?.as_bool())
            == Some(true)
    }

    /// Held-out loss after each HF iteration.
    fn heldout_by_iter(&self) -> Vec<f64> {
        self.json
            .as_ref()
            .and_then(|j| j.get("heldout_by_iter")?.as_arr())
            .map(|losses| losses.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    }
}

/// Spawn one child on problem instance `instance`, wait for it, parse
/// the last line of its output.
pub fn run_child(spec: &WorkloadSpec, opts: Options, instance: usize, traced: bool) -> ChildResult {
    let fail = |why: String| ChildResult {
        json: None,
        problems: vec![why],
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return fail(format!("cannot locate own executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.arg("--child")
        .arg(spec.name)
        .arg("--seed")
        .arg(instance_seed(opts.seed, instance).to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--traced");
    }
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let spawned_at = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    cmd.arg("--spawned-at-ns").arg(spawned_at.to_string());
    let output = match cmd.spawn().and_then(std::process::Child::wait_with_output) {
        Ok(output) => output,
        Err(e) => return fail(format!("cannot run child: {e}")),
    };
    let (status, stdout) = (output.status, String::from_utf8_lossy(&output.stdout));
    if !status.success() {
        return fail(format!("child exited with {status}"));
    }
    let Some(line) = stdout.lines().rev().find(|l| !l.trim().is_empty()) else {
        return fail("child printed nothing".into());
    };
    match json::parse(line) {
        Err(e) => fail(format!("child result is not JSON: {e}")),
        Ok(result) => {
            let mut problems: Vec<String> = result
                .get("problems")
                .and_then(Json::as_arr)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(|p| p.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default();
            if result.get("ok").and_then(Json::as_bool) != Some(true) && problems.is_empty() {
                problems.push("child reported failure without a reason".into());
            }
            ChildResult {
                json: Some(result),
                problems,
            }
        }
    }
}

/// What `master_ce` is held against: the same job without `mpisim`,
/// from `serial_ce` children of the same invocation (the first of them
/// on instance 0).
#[derive(Clone)]
pub struct SerialReference {
    /// Median over the children that passed.
    pub iter_s: Option<f64>,
    /// Instance 0's held-out loss after each iteration.
    pub heldout_by_iter: Vec<f64>,
    pub problems: Vec<String>,
}

impl SerialReference {
    pub fn of(children: &[ChildResult]) -> Self {
        let iter_s: Vec<f64> = children
            .iter()
            .filter(|c| c.ok())
            .filter_map(|c| c.num("iter_s"))
            .collect();
        SerialReference {
            iter_s: (!iter_s.is_empty()).then(|| median(&iter_s)),
            heldout_by_iter: children
                .first()
                .map_or(Vec::new(), ChildResult::heldout_by_iter),
            problems: children.first().map_or(Vec::new(), |c| c.problems.clone()),
        }
    }
}

/// Everything measured for one workload in one invocation.
pub struct WorkloadReport {
    pub spec: WorkloadSpec,
    /// Timed (untraced) rounds, in order: round `r` is instance
    /// `r % INSTANCES`.
    pub rounds: Vec<ChildResult>,
    /// The traced pass (instance 0), if it ran.
    pub traced: Option<ChildResult>,
    /// `serial_ce` run of the same invocation, for `master_ce`'s loss
    /// check and speed-up.
    pub serial_reference: Option<SerialReference>,
    /// Failed cross-round and cross-workload checks.
    pub problems: Vec<String>,
}

impl WorkloadReport {
    pub fn new(spec: WorkloadSpec) -> Self {
        WorkloadReport {
            spec,
            rounds: Vec::new(),
            traced: None,
            serial_reference: None,
            problems: Vec::new(),
        }
    }

    /// Operations attempted: one per timed child.
    pub fn attempted(&self) -> usize {
        self.rounds.len()
    }

    pub fn failed(&self) -> usize {
        self.rounds.iter().filter(|r| !r.ok()).count()
    }

    /// Every check of every child, and every cross-check, passed.
    pub fn correct(&self) -> bool {
        self.failed() == 0
            && self.problems.is_empty()
            && self.traced.as_ref().is_none_or(ChildResult::ok)
            && self
                .serial_reference
                .as_ref()
                .is_none_or(|s| s.problems.is_empty())
    }

    /// All problems, labelled by where they arose.
    pub fn all_problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, r) in self.rounds.iter().enumerate() {
            out.extend(r.problems.iter().map(|p| format!("round {i}: {p}")));
        }
        if let Some(t) = &self.traced {
            out.extend(t.problems.iter().map(|p| format!("traced pass: {p}")));
        }
        if let Some(s) = &self.serial_reference {
            out.extend(s.problems.iter().map(|p| format!("serial reference: {p}")));
        }
        out.extend(self.problems.iter().cloned());
        out
    }

    /// Median and quartiles of an end-to-end metric over the rounds
    /// that passed their checks.
    pub fn summary(&self, metric: &str) -> Option<Summary> {
        let values: Vec<f64> = self.good_rounds().filter_map(|r| r.num(metric)).collect();
        (!values.is_empty()).then(|| Summary::of(&values))
    }

    /// The rounds that passed their checks.
    fn good_rounds(&self) -> impl Iterator<Item = &ChildResult> {
        self.rounds.iter().filter(|r| r.ok())
    }

    /// The runs of problem instance `instance`: its timed rounds, and
    /// for instance 0 the traced pass.
    fn runs_of(&self, instance: usize) -> impl Iterator<Item = &ChildResult> {
        let traced = if instance == 0 {
            self.traced.as_ref()
        } else {
            None
        };
        self.rounds
            .iter()
            .skip(instance)
            .step_by(INSTANCES)
            .chain(traced)
    }

    /// A per-layer metric: of the traced pass, or of the traced pass
    /// against the timed rounds.
    pub fn layer(&self, metric: &str) -> Option<f64> {
        match metric {
            // Per iteration, so that the two need not have taken the
            // same number of iterations to the target.
            "core.distributed.speedup_vs_serial" => {
                Some(self.serial_reference.as_ref()?.iter_s? / self.summary("iter_s")?.median)
            }
            "bench.converged_share" => {
                Some(self.converged_rounds() as f64 / self.rounds.len().max(1) as f64)
            }
            // The traced run over the untraced runs of the same
            // instance, minus 1.
            "bench.trace_overhead_frac" => {
                let untraced: Vec<f64> = self
                    .rounds
                    .iter()
                    .step_by(INSTANCES)
                    .filter(|r| r.ok())
                    .filter_map(|r| r.num("train_s"))
                    .collect();
                let traced = self.traced.as_ref()?.num("train_s")?;
                (!untraced.is_empty()).then(|| traced / median(&untraced) - 1.0)
            }
            _ => self
                .traced
                .as_ref()?
                .json
                .as_ref()?
                .get("per_layer")?
                .get(metric)?
                .as_f64(),
        }
    }

    /// Timed rounds that got where they were going.
    pub fn converged_rounds(&self) -> usize {
        self.rounds.iter().filter(|r| r.converged()).count()
    }

    /// Checks that need more than one child: bit-identical θ and equal
    /// iteration counts across every run of one problem instance (the
    /// trainer's determinism contract — tracing included), most rounds
    /// converged (so the median `train_s` is a time to the target), and
    /// `master_ce` against its serial reference.
    pub fn cross_check(&mut self) {
        let mut problems = Vec::new();
        if 2 * self.converged_rounds() <= self.rounds.len() {
            problems.push(format!(
                "only {} of {} rounds converged",
                self.converged_rounds(),
                self.rounds.len()
            ));
        }
        for instance in 0..INSTANCES {
            for key in ["theta_fnv", "hf_iters", "cg_iters"] {
                let mut values = self
                    .runs_of(instance)
                    .filter_map(|r| r.json.as_ref())
                    .map(|j| j.get(key));
                let first = values.next();
                if values.any(|v| Some(v) != first) {
                    problems.push(format!(
                        "{key} differs between runs of problem instance {instance}"
                    ));
                }
            }
        }
        if let Some(reference) = &self.serial_reference {
            let master = self
                .rounds
                .first()
                .map_or(Vec::new(), ChildResult::heldout_by_iter);
            let gaps: Vec<f64> = reference
                .heldout_by_iter
                .iter()
                .zip(&master)
                .take(MASTER_VS_SERIAL_ITERS)
                .map(|(s, m)| (m - s).abs() / s)
                .collect();
            let worst = gaps.iter().copied().fold(0.0, f64::max);
            if gaps.is_empty() {
                problems.push(format!("no held-out loss to compare with {SERIAL_TWIN}"));
            } else if worst > MASTER_VS_SERIAL_LOSS_TOLERANCE {
                problems.push(format!(
                    "held-out loss is {:.1}% away from {SERIAL_TWIN}'s within {} iterations (allowed: {:.0}%)",
                    worst * 100.0,
                    gaps.len(),
                    MASTER_VS_SERIAL_LOSS_TOLERANCE * 100.0
                ));
            }
        }
        self.problems.extend(problems);
    }

    /// The result object `compare` reads.
    pub fn to_json(&self) -> Json {
        let end_to_end = END_TO_END.iter().filter_map(|m| {
            let mut s = self.summary(m.name)?.to_json();
            // Per round (null for a failed one): `compare` pairs them.
            let rounds = self
                .rounds
                .iter()
                .map(|r| Json::opt(r.num(m.name).filter(|_| r.ok())));
            if let Json::Obj(fields) = &mut s {
                fields.push(("unit".into(), Json::Str(m.unit.into())));
                fields.push(("rounds".into(), Json::Arr(rounds.collect())));
            }
            Some((m.name, s))
        });
        let per_layer = PER_LAYER.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::opt(self.layer(m.name))),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        });
        Json::obj([
            ("attempted", Json::Num(self.attempted() as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("correct", Json::Bool(self.correct())),
            (
                "theta_fnv",
                self.rounds
                    .first()
                    .and_then(|r| r.text("theta_fnv"))
                    .map_or(Json::Null, |s| Json::Str(s.into())),
            ),
            ("end_to_end", Json::obj(end_to_end)),
            ("per_layer", Json::obj(per_layer)),
            (
                "problems",
                Json::Arr(self.all_problems().into_iter().map(Json::Str).collect()),
            ),
        ])
    }
}

/// Measure `specs`: interleaved rounds while `another_round(rounds
/// done, seconds the longest round took)` says so, then with `traced`
/// one traced child per workload (after the timed rounds, which record
/// nothing), then the cross-checks; prints every workload's metrics.
pub fn measure(
    specs: &[WorkloadSpec],
    opts: Options,
    traced: bool,
    mut another_round: impl FnMut(usize, f64) -> bool,
) -> Vec<WorkloadReport> {
    let mut reports: Vec<WorkloadReport> = specs.iter().copied().map(WorkloadReport::new).collect();
    let mut longest = 0.0f64;
    let mut round = 0;
    while another_round(round, longest) {
        let started = Instant::now();
        for report in &mut reports {
            let result = run_child(&report.spec, opts, round % INSTANCES, false);
            eprintln!(
                "round {round} {:<15} {}",
                report.spec.name,
                match (result.num("train_s"), result.num("hf_iters")) {
                    (Some(t), Some(n)) if result.ok() => format!("train_s {t:.3} hf_iters {n}"),
                    _ => "failed".to_string(),
                }
            );
            report.rounds.push(result);
        }
        longest = longest.max(started.elapsed().as_secs_f64());
        round += 1;
    }
    if traced {
        for report in &mut reports {
            report.traced = Some(run_child(&report.spec, opts, 0, true));
        }
    }
    let twin = reports
        .iter()
        .find(|r| r.spec.name == SERIAL_TWIN)
        .map(|r| SerialReference::of(&r.rounds));
    for report in &mut reports {
        if report.spec.name == MASTER {
            // Measured alone, the workload brings its own twin.
            report.serial_reference = twin.clone().or_else(|| {
                let spec = opts.spec(SERIAL_TWIN)?;
                Some(SerialReference::of(&[run_child(&spec, opts, 0, false)]))
            });
        }
        report.cross_check();
        report::print_workload(report);
    }
    reports
}
